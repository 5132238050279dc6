"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import EXPERIMENTS, build_parser, main
from repro.data import load_ap_sessions


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_corpus_defaults(self):
        args = build_parser().parse_args(["corpus"])
        assert args.buildings == 40
        assert args.output == "corpus.npz"

    def test_experiment_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table3", "--scale", "huge"])

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.scale == "tiny"
        assert args.queries_per_user == 32
        assert args.capacity == 64
        assert args.shards == 1
        assert not args.fast

    def test_workers_flag_is_gone(self):
        for command in ("fleet", "serve-load"):
            for flag in (["--workers", "2"], ["--stacked"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, *flag])

    def test_store_choices(self):
        for command in ("fleet", "serve-load"):
            assert build_parser().parse_args([command]).store == "memory"
            args = build_parser().parse_args([command, "--store", "disk"])
            assert args.store == "disk"
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([command, "--store", "tiered"])
            assert exit_info.value.code == 2

    def test_placement_and_delta_flags_are_gone(self):
        for command in ("fleet", "serve-load", "scenarios", "audit"):
            for flag in (["--placement", "hash"], ["--delta-updates"]):
                with pytest.raises(SystemExit) as exit_info:
                    build_parser().parse_args([command, *flag])
                assert exit_info.value.code == 2

    def test_scenarios_defaults(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.scale == "tiny"
        assert args.regimes == ["campus", "commuter", "tourist"]
        assert args.policies == ["none", "lossy_network", "churn"]
        assert args.queries_per_user == 4
        assert args.chaos_seed == 0

    def test_scenarios_rejects_unknown_regime_and_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--regimes", "astronaut"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--policies", "meteor_strike"])

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.scale == "tiny"
        assert args.regimes == ["campus"]
        assert args.defense == ["none", "temperature"]
        assert args.adversary == ["A1"]
        assert args.attack == "time_based"
        assert args.policy == "none"
        assert args.shards == 1
        assert not args.fast

    def test_audit_rejects_unknown_defense_adversary_attack(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--defense", "mirror"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--adversary", "A9"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--attack", "gradient"])


class TestImportCost:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        """``scipy.stats`` is imported only when a correlation is
        computed, so the CLI starts without paying for it."""
        src = str(Path(repro.__file__).resolve().parents[1])
        code = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_corpus_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "corpus.npz"
        code = main(
            [
                "corpus",
                "--buildings", "12",
                "--contributors", "2",
                "--personal", "1",
                "--days", "5",
                "-o", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        sessions = load_ap_sessions(out_path)
        assert len(sessions) == 3  # 2 contributors + 1 personal

    def test_fleet_fast_run(self, capsys):
        code = main(
            ["fleet", "--fast", "--queries-per-user", "4", "--capacity", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "parity: identical outputs" in out
        assert "batched serving" in out
        assert "registry" in out

    def test_fleet_capacity_zero_is_unbounded(self, capsys):
        code = main(
            ["fleet", "--fast", "--queries-per-user", "2", "--capacity", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "unbounded" in out

    def test_fleet_sharded_run(self, capsys):
        code = main(
            ["fleet", "--fast", "--queries-per-user", "4", "--shards", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "parity: identical outputs" in out
        assert "on 2 shards" in out
        assert "per-shard breakdown" in out
        assert "shard 1:" in out

    def test_fleet_shards_zero_rejected(self, capsys):
        assert main(["fleet", "--fast", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_scenarios_sharded_run(self, capsys):
        code = main(
            [
                "scenarios", "--fast",
                "--regimes", "campus",
                "--policies", "none", "shard_outage",
                "--queries-per-user", "2",
                "--shards", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 shards" in out
        assert "shard_outage" in out

    def test_scenarios_fast_run(self, capsys):
        code = main(
            [
                "scenarios", "--fast",
                "--regimes", "campus", "nomad",
                "--policies", "none", "hostile",
                "--queries-per-user", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario matrix @ tiny" in out
        assert "nomad" in out and "hostile" in out

    def test_scenarios_capacity_negative_rejected(self, capsys):
        assert main(["scenarios", "--fast", "--capacity", "-1"]) == 2
        assert "--capacity" in capsys.readouterr().err

    def test_audit_fast_run(self, capsys):
        code = main(["audit", "--fast", "--queries-per-user", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "privacy audit @ tiny" in out
        assert "temperature" in out
        assert "leak@1" in out
        assert "adv queries" in out

    def test_audit_sharded_chaos_run(self, capsys):
        code = main(
            [
                "audit", "--fast",
                "--defense", "none",
                "--queries-per-user", "1",
                "--shards", "2",
                "--policy", "shard_outage",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 shards" in out
        assert "shard_outage" in out

    def test_audit_capacity_negative_rejected(self, capsys):
        assert main(["audit", "--fast", "--capacity", "-1"]) == 2
        assert "--capacity" in capsys.readouterr().err

    def test_audit_shards_zero_rejected(self, capsys):
        assert main(["audit", "--fast", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_audit_incompatible_attack_adversary_rejected(self, capsys):
        # Clean exit-2 validation, not a mid-run traceback.
        code = main(["audit", "--fast", "--attack", "brute_force", "--adversary", "A3"])
        assert code == 2
        assert "cannot plan" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_ids_cover_all_paper_results(self):
        assert set(EXPERIMENTS) == {
            "table2", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c",
            "table3", "table4", "overhead", "fig5a", "fig5b", "fig5c",
        }

"""Golden-signature regression test for fleet accounting.

Replays one small canonical schedule and compares the resulting
:meth:`FleetReport.signature` *exactly* against the committed JSON
(``golden_fleet_signature.json``).  Every field is deterministic — MAC
counts are integer functions of shapes and epochs, simulated seconds are
fixed-order float arithmetic over them, byte counts come from
deterministic serialization — so any drift means an accounting change,
intended or not.

If a change is intentional (e.g. a new cost is now charged), regenerate
the golden and commit it together with the change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src pytest tests/pelican/test_golden_signature.py
"""

import json
import os
from pathlib import Path

from repro.data import CorpusConfig, SpatialLevel, generate_corpus
from repro.models import GeneralModelConfig, PersonalizationConfig
from repro.pelican import (
    DeploymentMode,
    Fleet,
    FleetSchedule,
    Pelican,
    PelicanConfig,
)

GOLDEN_PATH = Path(__file__).parent / "golden_fleet_signature.json"
LEVEL = SpatialLevel.BUILDING


def _canonical_pelican():
    corpus = generate_corpus(
        CorpusConfig(
            num_buildings=12,
            num_contributors=3,
            num_personal_users=2,
            num_days=14,
            seed=5,
        )
    )
    pelican = Pelican(
        corpus.spec(LEVEL),
        PelicanConfig(
            general=GeneralModelConfig(hidden_size=12, epochs=2, patience=None),
            personalization=PersonalizationConfig(
                epochs=2, patience=None, scratch_hidden_size=8
            ),
            privacy_temperature=1e-3,
            seed=5,
        ),
    )
    train, _ = corpus.contributor_dataset(LEVEL).split_by_user(0.8)
    pelican.initial_training(train)
    splits = {
        uid: corpus.user_dataset(uid, LEVEL).split(0.8) for uid in corpus.personal_ids
    }
    return corpus, pelican, splits


def _canonical_schedule(corpus, splits):
    """Every cost source in one schedule: onboards (both deployments),
    coalesced and split batches, an update redeploy, and a capacity-1
    registry forced into evictions and cold loads."""
    schedule = FleetSchedule()
    ids = corpus.personal_ids
    schedule.onboard(0.0, ids[0], splits[ids[0]][0], deployment=DeploymentMode.CLOUD)
    schedule.onboard(1.0, ids[1], splits[ids[1]][0], deployment=DeploymentMode.CLOUD)
    for tick in (10.0, 20.0):
        for uid in ids:
            for window in splits[uid][1].windows[:2]:
                schedule.query(tick, uid, window.history, k=3)
    schedule.update(25.0, ids[0], splits[ids[0]][1])
    for uid in ids:
        schedule.query(30.0, uid, splits[uid][1].windows[0].history, k=2)
    return schedule


def _jsonable(signature):
    return json.loads(json.dumps(signature))  # tuples -> lists, exact floats


def compute_golden():
    corpus, pelican, splits = _canonical_pelican()
    fleet = Fleet(pelican, registry_capacity=1)
    fleet.run(_canonical_schedule(corpus, splits))
    return _jsonable(fleet.report.signature())


class TestGoldenSignature:
    def test_signature_matches_committed_golden(self):
        current = compute_golden()
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(json.dumps(current, indent=2) + "\n")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert set(current) == set(golden), "signature fields changed"
        for field in golden:
            assert current[field] == golden[field], (
                f"accounting drift in {field!r}: "
                f"golden {golden[field]!r} != current {current[field]!r} "
                "(if intentional, regenerate with REPRO_UPDATE_GOLDEN=1)"
            )

    def test_golden_run_exercises_every_cost_source(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden["onboards"] == 2
        assert golden["updates"] == 1
        assert golden["queries"] == 10
        assert golden["registry_cold_loads"] > 0
        assert golden["registry_evictions"] > 0
        assert golden["network_bytes_up"] > 0
        assert golden["cloud_macs"] > 0 and golden["device_macs"] > 0

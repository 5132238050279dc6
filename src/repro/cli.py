"""Command-line interface: ``python -m repro <command>``.

Commands mirror the reproduction workflow:

* ``corpus``     — generate a synthetic campus corpus and save it to disk;
* ``demo``       — run the end-to-end train/personalize/attack/defend story;
* ``experiment`` — regenerate one paper table/figure by id;
* ``fleet``      — simulate fleet-scale serving: batched vs. looped queries,
  on one cloud or a sharded cluster (``--shards``);
* ``serve-load`` — open-loop generated traffic (Poisson arrivals, diurnal
  curves, flash crowds) through the service front door: admission control,
  micro-batching, and the latency/SLO book;
* ``scenarios``  — stress matrix: mobility regimes × chaos policies;
* ``audit``      — privacy audit matrix: inversion adversaries attack the
  live deployment through the serving stack, across defenses and regimes;
* ``list``       — list the available experiment ids.

Examples::

    python -m repro corpus --buildings 30 --contributors 10 --days 42 -o corpus.npz
    python -m repro demo --seed 7
    python -m repro experiment table3 --scale tiny
    python -m repro fleet --scale tiny --fast
    python -m repro fleet --scale tiny --fast --shards 4 --placement hash
    python -m repro fleet --scale tiny --fast --store disk
    python -m repro serve-load --scale tiny --fast
    python -m repro serve-load --scale tiny --fast --shards 2 --policy lossy_network
    python -m repro serve-load --scale tiny --fast --devices-per-user 8 \\
        --rate 0.1 --flash-rate 0.3 --flash-start 40 --flash-duration 20
    python -m repro scenarios --scale tiny --regimes campus commuter tourist \\
        --policies none lossy_network churn --fast
    python -m repro scenarios --scale tiny --shards 2 --policies none shard_outage --fast
    python -m repro scenarios --scale tiny --shards 2 --policies hostile \\
        --resilience default --deadline 15 --fast
    python -m repro audit --scale tiny --fast
    python -m repro audit --scale tiny --fast --defense none temperature \\
        --adversary A1 A2 --regimes campus commuter
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.data import CorpusConfig, generate_corpus, save_ap_sessions
from repro.pelican.placement import PLACEMENT_POLICIES
from repro.pelican.storage import STORE_KINDS
from repro.eval import (
    ExperimentScale,
    Pipeline,
    render_accuracy_grid,
    render_attack_methods,
    render_bar_chart,
    render_overhead,
    render_personalization,
    render_scatter,
    render_training_sweep,
    run_adversary_comparison,
    run_attack_methods,
    run_defense_on_personalization,
    run_defense_on_spatial_levels,
    run_mobility_degree_study,
    run_overhead_comparison,
    run_personalization_comparison,
    run_predictability_study,
    run_prior_comparison,
    run_spatial_comparison,
    run_temperature_sweep,
    run_training_size_sweep,
)

EXPERIMENTS: Dict[str, tuple] = {
    "table2": (run_attack_methods, render_attack_methods, "attack runtimes + Fig 2a accuracy"),
    "fig2b": (run_adversary_comparison, lambda r: render_accuracy_grid(r, "adversary"), "adversaries A1/A2/A3"),
    "fig2c": (run_prior_comparison, lambda r: render_accuracy_grid(r, "prior"), "prior knowledge modes"),
    "fig3a": (run_spatial_comparison, lambda r: render_accuracy_grid(r, "level"), "building vs AP leakage"),
    "fig3b": (run_mobility_degree_study, render_scatter, "degree of mobility vs leakage"),
    "fig3c": (run_predictability_study, render_scatter, "predictability vs leakage"),
    "table3": (run_personalization_comparison, render_personalization, "personalization methods"),
    "table4": (run_training_size_sweep, render_training_sweep, "training-data size sweep"),
    "overhead": (run_overhead_comparison, render_overhead, "cloud vs device compute"),
    "fig5a": (run_defense_on_personalization, lambda r: render_accuracy_grid(r, "method"), "defense per TL method"),
    "fig5b": (
        run_temperature_sweep,
        lambda r: render_bar_chart({f"T={t:g}": v for t, v in r.items()}),
        "privacy temperature sweep",
    ),
    "fig5c": (run_defense_on_spatial_levels, lambda r: render_accuracy_grid(r, "level"), "defense per spatial level"),
}

_SCALES: Dict[str, Callable[[], ExperimentScale]] = {
    "tiny": ExperimentScale.tiny,
    "small": ExperimentScale.small,
    "paper": ExperimentScale.paper,
}


def _cmd_corpus(args: argparse.Namespace) -> int:
    config = CorpusConfig(
        num_buildings=args.buildings,
        num_contributors=args.contributors,
        num_personal_users=args.personal,
        num_days=args.days,
        seed=args.seed,
    )
    corpus = generate_corpus(config)
    size = save_ap_sessions(corpus.ap_sessions, args.output)
    print(
        f"wrote {args.output}: {corpus.campus.num_buildings} buildings, "
        f"{corpus.campus.num_aps} APs, "
        f"{len(corpus.contributor_ids) + len(corpus.personal_ids)} users, "
        f"{size} bytes"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """Compact train -> personalize -> attack -> defend walkthrough."""
    import numpy as np

    from repro.attacks import (
        AdversaryClass,
        PriorMethod,
        TimeBasedAttack,
        attack_user,
        build_prior,
        prune_locations,
    )
    from repro.data import SpatialLevel
    from repro.models import (
        GeneralModelConfig,
        NextLocationPredictor,
        PersonalizationConfig,
        PersonalizationMethod,
        personalize,
        train_general_model,
    )
    from repro.pelican import apply_privacy, leakage_reduction

    corpus = generate_corpus(
        CorpusConfig(
            num_buildings=25, num_contributors=8, num_personal_users=1, num_days=35,
            seed=args.seed,
        )
    )
    spec = corpus.spec(SpatialLevel.BUILDING)
    train, _ = corpus.contributor_dataset(SpatialLevel.BUILDING).split_by_user(0.8)
    print("training general model...")
    general, _ = train_general_model(
        train, GeneralModelConfig(hidden_size=32, epochs=10, patience=4),
        np.random.default_rng(args.seed),
    )
    uid = corpus.personal_ids[0]
    user_train, user_test = corpus.user_dataset(uid, SpatialLevel.BUILDING).split(0.8)
    print(f"personalizing for user {uid} (TL feature extraction)...")
    personal, _ = personalize(
        general, user_train, PersonalizationMethod.TL_FE,
        PersonalizationConfig(epochs=12, patience=5), np.random.default_rng(args.seed + 1),
    )
    predictor = NextLocationPredictor(personal, spec)
    X, y = user_test.encode()
    print(f"personal model top-3 accuracy: {predictor.top_k_accuracy(X, y, 3):.2%}")

    prior = build_prior(PriorMethod.TRUE, spec.num_locations, train_dataset=user_train)
    attack = TimeBasedAttack(candidate_locations=prune_locations(predictor, user_test))
    undefended = attack_user(
        attack, predictor, user_test, AdversaryClass.A1, prior, max_instances=20
    )
    print(f"inversion attack top-3 accuracy: {undefended.accuracy(3):.2%}")

    defended_model = personal.copy(np.random.default_rng(args.seed + 2))
    apply_privacy(defended_model, 1e-3)
    defended_pred = NextLocationPredictor(defended_model, spec)
    defended = attack_user(
        TimeBasedAttack(candidate_locations=prune_locations(defended_pred, user_test)),
        defended_pred, user_test, AdversaryClass.A1, prior, max_instances=20,
    )
    reduction = leakage_reduction(undefended.accuracy(1), defended.accuracy(1))
    print(
        f"with Pelican privacy layer (T=1e-3): attack top-1 "
        f"{undefended.accuracy(1):.2%} -> {defended.accuracy(1):.2%} "
        f"({reduction:.0f}% leakage reduction); service accuracy unchanged: "
        f"{defended_pred.top_k_accuracy(X, y, 3):.2%}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; try: python -m repro list", file=sys.stderr)
        return 2
    runner, renderer, description = EXPERIMENTS[args.name]
    print(f"[{args.name}] {description} (scale={args.scale})")
    pipeline = Pipeline(_SCALES[args.scale]())
    result = runner(pipeline)
    print(renderer(result))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Stand up a fleet and compare batched vs. looped query serving."""
    from repro.eval import render_fleet, run_fleet_throughput

    if _bad_stack_args(args):
        return 2
    scale = _SCALES[args.scale]()
    capacity = args.capacity if args.capacity > 0 else None
    shards = f", {args.shards} shards ({args.placement})" if args.shards > 1 else ""
    print(
        f"[fleet] building deployment at scale={args.scale} "
        f"({'fast setup, ' if args.fast else ''}"
        f"{args.queries_per_user} queries/user, registry capacity "
        f"{capacity if capacity is not None else 'unbounded'}{shards})..."
    )
    result = run_fleet_throughput(
        scale,
        queries_per_user=args.queries_per_user,
        registry_capacity=capacity,
        fast_setup=args.fast,
        num_shards=args.shards,
        placement=args.placement,
        resilience=args.resilience,
        deadline=args.deadline,
        store=args.store,
        delta_updates=args.delta_updates,
    )
    print(render_fleet(result))
    return 0 if result.parity else 1


def _cmd_serve_load(args: argparse.Namespace) -> int:
    """Generate open-loop traffic and serve it through the front door."""
    from repro.eval import render_service_load, run_service_load

    if _bad_stack_args(args):
        return 2
    capacity = args.capacity if args.capacity > 0 else None
    queue_capacity = args.queue_capacity if args.queue_capacity > 0 else None
    shards = f", {args.shards} shards ({args.placement})" if args.shards > 1 else ""
    print(
        f"[serve-load] generating {args.devices_per_user} devices/user of "
        f"{'/'.join(args.regimes)} traffic at rate {args.rate:g}/s over "
        f"{args.horizon:g}s at scale={args.scale} "
        f"({'fast setup, ' if args.fast else ''}window {args.window:g}s, "
        f"max batch {args.max_batch}, chaos {args.policy}{shards})..."
    )
    result = run_service_load(
        _SCALES[args.scale](),
        regimes=args.regimes,
        rate=args.rate,
        horizon=args.horizon,
        devices_per_user=args.devices_per_user,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period=args.diurnal_period,
        flash_rate=args.flash_rate,
        flash_start=args.flash_start,
        flash_duration=args.flash_duration,
        update_prob=args.update_prob,
        window=args.window,
        max_batch=args.max_batch,
        queue_capacity=queue_capacity,
        policy=args.policy,
        resilience=args.resilience,
        deadline=args.deadline,
        registry_capacity=capacity,
        num_shards=args.shards,
        placement=args.placement,
        store=args.store,
        fast_setup=args.fast,
    )
    print(render_service_load(result))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """Run the regimes × chaos-policies stress matrix and print it."""
    from repro.eval import render_scenarios, run_scenario_suite

    if _bad_stack_args(args):
        return 2
    capacity = args.capacity if args.capacity > 0 else None
    shards = f", {args.shards} shards" if args.shards > 1 else ""
    print(
        f"[scenarios] {len(args.regimes)} regimes x {len(args.policies)} policies "
        f"at scale={args.scale} ({'fast setup, ' if args.fast else ''}"
        f"{args.queries_per_user} queries/user/tick, chaos seed "
        f"{args.chaos_seed}{shards})..."
    )
    suite = run_scenario_suite(
        _SCALES[args.scale](),
        regimes=args.regimes,
        policies=args.policies,
        queries_per_user=args.queries_per_user,
        registry_capacity=capacity,
        fast_setup=args.fast,
        chaos_seed=args.chaos_seed,
        num_shards=args.shards,
        placement=args.placement,
        resilience=args.resilience,
        deadline=args.deadline,
    )
    print(render_scenarios(suite))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Run the privacy audit matrix and print it (DESIGN.md §10)."""
    from repro.attacks import AdversaryClass
    from repro.eval import AUDIT_ATTACKS, render_audit, run_audit_suite

    if _bad_stack_args(args):
        return 2
    probe_attack = AUDIT_ATTACKS[args.attack]()
    unsupported = [
        a for a in args.adversary if not probe_attack.supports(AdversaryClass(a))
    ]
    if unsupported:
        print(
            f"--attack {args.attack} cannot plan for adversary "
            f"class(es) {' '.join(unsupported)} (multi-step window); "
            "use the time_based attack for A3",
            file=sys.stderr,
        )
        return 2
    capacity = args.capacity if args.capacity > 0 else None
    shards = f", {args.shards} shards" if args.shards > 1 else ""
    print(
        f"[audit] {len(args.regimes)} regimes x {len(args.defense)} defenses x "
        f"{len(args.adversary)} adversaries at scale={args.scale} "
        f"({'fast setup, ' if args.fast else ''}{args.attack} attack, "
        f"chaos policy {args.policy}{shards})..."
    )
    report = run_audit_suite(
        _SCALES[args.scale](),
        regimes=args.regimes,
        defenses=args.defense,
        adversaries=args.adversary,
        attack=args.attack,
        policy=args.policy,
        chaos_seed=args.chaos_seed,
        queries_per_user=args.queries_per_user,
        registry_capacity=capacity,
        num_shards=args.shards,
        placement=args.placement,
        fast_setup=args.fast,
        resilience=args.resilience,
        deadline=args.deadline,
    )
    print(render_audit(report))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name, (_, _, description) in EXPERIMENTS.items():
        print(f"{name:<10} {description}")
    return 0


def _add_stack_args(
    subparser: argparse.ArgumentParser, capacity_default: int
) -> None:
    """The shared serving-stack shape: ``--capacity/--shards/--placement``."""
    subparser.add_argument(
        "--capacity", type=int, default=capacity_default,
        help="cloud registry live-model capacity per shard; 0 means "
        f"unbounded (default {capacity_default})",
    )
    subparser.add_argument(
        "--shards", type=int, default=1,
        help="cloud shard count; >1 serves through a placement-routed cluster (default 1)",
    )
    subparser.add_argument(
        "--placement", choices=sorted(PLACEMENT_POLICIES), default="hash",
        help="user->shard placement policy when --shards > 1 (default hash)",
    )


def _bad_stack_args(args: argparse.Namespace) -> bool:
    """Report an out-of-range ``--capacity``/``--shards`` on stderr;
    True when the command must exit with status 2."""
    if args.capacity < 0:
        print(f"--capacity must be >= 0, got {args.capacity}", file=sys.stderr)
        return True
    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return True
    return False


def _add_resilience_args(subparser: argparse.ArgumentParser) -> None:
    """The shared ``--resilience``/``--deadline`` pair (DESIGN.md §11)."""
    from repro.pelican.resilience import RESILIENCE_POLICIES

    subparser.add_argument(
        "--resilience", choices=sorted(RESILIENCE_POLICIES), default="none",
        help="fault-handling policy: retry budgets, breakers, deadlines, "
        "degradation (default: none — byte-identical to no policy)",
    )
    subparser.add_argument(
        "--deadline", type=float, default=None,
        help="per-query deadline in simulated seconds; overrides the "
        "resilience policy's own (default: policy deadline)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Preserving Privacy in Personalized Models for "
        "Distributed Mobile Services' (ICDCS 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="generate and save a synthetic corpus")
    corpus.add_argument("--buildings", type=int, default=40)
    corpus.add_argument("--contributors", type=int, default=24)
    corpus.add_argument("--personal", type=int, default=10)
    corpus.add_argument("--days", type=int, default=56)
    corpus.add_argument("--seed", type=int, default=7)
    corpus.add_argument("-o", "--output", default="corpus.npz")
    corpus.set_defaults(func=_cmd_corpus)

    demo = sub.add_parser("demo", help="run the end-to-end demo")
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(func=_cmd_demo)

    experiment = sub.add_parser("experiment", help="regenerate one paper table/figure")
    experiment.add_argument("name", help="experiment id (see: python -m repro list)")
    experiment.add_argument("--scale", choices=sorted(_SCALES), default="tiny")
    experiment.set_defaults(func=_cmd_experiment)

    fleet = sub.add_parser(
        "fleet", help="fleet-scale serving simulation (batched vs. looped queries)"
    )
    fleet.add_argument("--scale", choices=sorted(_SCALES), default="tiny")
    fleet.add_argument(
        "--queries-per-user", type=int, default=32,
        help="concurrent queries issued per onboarded user (default 32)",
    )
    _add_stack_args(fleet, capacity_default=64)
    fleet.add_argument(
        "--fast", action="store_true",
        help="cut training epochs so setup takes seconds (serving-only results)",
    )
    fleet.add_argument(
        "--store", choices=sorted(STORE_KINDS), default="memory",
        help="durable blob store behind the registry: memory or disk "
        "(mmap-backed segments); answers and signatures are bit-identical "
        "across stores (default memory)",
    )
    fleet.add_argument(
        "--delta-updates", action="store_true",
        help="ship cloud redeploys as weight deltas against the prior blob "
        "(opt-in: books fewer network bytes by design)",
    )
    _add_resilience_args(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    from repro.data.regimes import REGIMES
    from repro.pelican.chaos import CHAOS_POLICIES

    serve_load = sub.add_parser(
        "serve-load",
        help="open-loop generated traffic through the service front door "
        "(admission control, micro-batching, latency/SLO book)",
    )
    serve_load.add_argument("--scale", choices=sorted(_SCALES), default="tiny")
    serve_load.add_argument(
        "--regimes", nargs="+", choices=sorted(REGIMES), default=["campus"],
        help="traffic regime slices; users partition round-robin across "
        "them (default: campus)",
    )
    serve_load.add_argument(
        "--rate", type=float, default=0.05,
        help="mean arrivals per device per simulated second (default 0.05)",
    )
    serve_load.add_argument(
        "--horizon", type=float, default=120.0,
        help="length of the arrival window in simulated seconds (default 120)",
    )
    serve_load.add_argument(
        "--devices-per-user", type=int, default=4,
        help="independently-arriving simulated devices per onboarded user (default 4)",
    )
    serve_load.add_argument(
        "--diurnal-amplitude", type=float, default=0.0,
        help="sinusoidal rate modulation depth in [0,1]; 0 = flat (default 0)",
    )
    serve_load.add_argument(
        "--diurnal-period", type=float, default=0.0,
        help="period of the diurnal curve in simulated seconds (default 0 = flat)",
    )
    serve_load.add_argument(
        "--flash-rate", type=float, default=0.0,
        help="extra arrivals per device per second during the flash crowd "
        "(default 0 = no crowd)",
    )
    serve_load.add_argument(
        "--flash-start", type=float, default=0.0,
        help="flash-crowd window start in traffic time (default 0)",
    )
    serve_load.add_argument(
        "--flash-duration", type=float, default=20.0,
        help="flash-crowd window length in simulated seconds (default 20)",
    )
    serve_load.add_argument(
        "--update-prob", type=float, default=0.0,
        help="per-user probability of one mid-run model update (default 0)",
    )
    serve_load.add_argument(
        "--window", type=float, default=0.05,
        help="micro-batching window in simulated seconds; a pending batch "
        "flushes after this long or at --max-batch requests, whichever "
        "first (default 0.05)",
    )
    serve_load.add_argument(
        "--max-batch", type=int, default=16,
        help="admission queue flush size (default 16)",
    )
    serve_load.add_argument(
        "--queue-capacity", type=int, default=256,
        help="pending-queue bound; arrivals past it are rejected at the "
        "door, 0 means unbounded (default 256)",
    )
    serve_load.add_argument(
        "--policy", choices=sorted(CHAOS_POLICIES), default="none",
        help="chaos policy the serving stack runs under (default: none)",
    )
    _add_stack_args(serve_load, capacity_default=64)
    serve_load.add_argument(
        "--store", choices=sorted(STORE_KINDS), default="memory",
        help="durable blob store behind the registry (default memory)",
    )
    serve_load.add_argument(
        "--fast", action="store_true",
        help="cut training epochs so setup takes seconds (serving-only results)",
    )
    _add_resilience_args(serve_load)
    serve_load.set_defaults(func=_cmd_serve_load)

    scenarios = sub.add_parser(
        "scenarios", help="stress matrix: mobility regimes x chaos policies"
    )
    scenarios.add_argument("--scale", choices=sorted(_SCALES), default="tiny")
    scenarios.add_argument(
        "--regimes", nargs="+", choices=sorted(REGIMES),
        default=["campus", "commuter", "tourist"],
        help="mobility regimes for the served population (default: campus commuter tourist)",
    )
    scenarios.add_argument(
        "--policies", nargs="+", choices=sorted(CHAOS_POLICIES),
        default=["none", "lossy_network", "churn"],
        help="chaos policies to replay the workload under (default: none lossy_network churn)",
    )
    scenarios.add_argument(
        "--queries-per-user", type=int, default=4,
        help="query ticks per onboarded user (default 4)",
    )
    _add_stack_args(scenarios, capacity_default=2)
    scenarios.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for every fault draw (default 0)",
    )
    scenarios.add_argument(
        "--fast", action="store_true",
        help="cut training epochs so setup takes seconds (serving-only results)",
    )
    _add_resilience_args(scenarios)
    scenarios.set_defaults(func=_cmd_scenarios)

    from repro.eval.audit import AUDIT_ATTACKS, AUDIT_DEFENSES

    audit = sub.add_parser(
        "audit",
        help="privacy audit matrix: adversaries attack the live deployment "
        "through the serving stack",
    )
    audit.add_argument("--scale", choices=sorted(_SCALES), default="tiny")
    audit.add_argument(
        "--regimes", nargs="+", choices=sorted(REGIMES), default=["campus"],
        help="mobility regimes for the audited population (default: campus)",
    )
    audit.add_argument(
        "--defense", nargs="+", choices=sorted(AUDIT_DEFENSES),
        default=["none", "temperature"],
        help="defenses to audit under (default: none temperature)",
    )
    audit.add_argument(
        "--adversary", nargs="+", choices=["A1", "A2", "A3"], default=["A1"],
        help="adversary knowledge classes, paper Table I (default: A1)",
    )
    audit.add_argument(
        "--attack", choices=sorted(AUDIT_ATTACKS), default="time_based",
        help="enumeration attack to replay at fleet scale (default: time_based)",
    )
    audit.add_argument(
        "--policy", choices=sorted(CHAOS_POLICIES), default="none",
        help="chaos policy the audited deployment runs under (default: none)",
    )
    audit.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for every fault draw (default 0)",
    )
    audit.add_argument(
        "--queries-per-user", type=int, default=2,
        help="benign query ticks per onboarded user (default 2)",
    )
    _add_stack_args(audit, capacity_default=2)
    audit.add_argument(
        "--fast", action="store_true",
        help="cut training epochs so setup takes seconds (serving-only results)",
    )
    _add_resilience_args(audit)
    audit.set_defaults(func=_cmd_audit)

    lister = sub.add_parser("list", help="list experiment ids")
    lister.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

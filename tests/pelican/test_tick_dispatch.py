"""Tick-wide serving kernel vs group-by-group serving, compared exactly
(DESIGN.md §7).

A flush's fused-backend prediction groups are answered by one grouped
kernel call per shape bucket (:func:`repro.nn.fused.grouped_infer_logits`
through :func:`repro.pelican.dispatch.dispatch_tick`).  Every group keeps
its per-model GEMM shapes and the elementwise math is per element, so the
answers must be *bit-identical* to serving each group alone — no
tolerance anywhere in this file.  Random flushes mix local and cloud
users, batch sizes 1..5, two window lengths, privacy temperatures of 1.0
and otherwise, float32 and float64 models, plain and TL-FE shapes
(separate buckets), a reference-backend model, the degradation
ladder's ``prior`` and ``general`` tiers, and audit probe groups on local
and cloud users, billed with the adversary overlay (DESIGN.md §10).
"""

import copy
import dataclasses

import numpy as np
import pytest

import repro.pelican.fleet as fleet_module
from repro.data.features import FeatureSpec, SessionFeatures
from repro.models import NextLocationModel, NextLocationPredictor
from repro.nn import dtype_policy, profiler
from repro.nn.fused import grouped_infer_logits, lstm_infer_last
from repro.nn.profiler import flop_counter
from repro.pelican import DeploymentMode, Fleet, Pelican
from repro.pelican.clock import QueryRequest
from repro.pelican.cloud import ResourceReport
from repro.pelican.deployment import ServiceEndpoint
from repro.pelican.dispatch import ProbePayload, dispatch_model_batch, dispatch_tick
from repro.pelican.stacking import stack_key
from repro.pelican.system import OnboardedUser

SPEC = FeatureSpec(num_locations=7)
WINDOW_LENGTHS = (2, 3)


def _model(seed, hidden=12, layers=1, surplus=False, temperature=1.0,
           dtype="float64", backend="fused", locations=SPEC.num_locations):
    with dtype_policy(dtype):
        model = NextLocationModel(
            input_width=SPEC.width,
            num_locations=locations,
            hidden_size=hidden,
            num_layers=layers,
            dropout=0.0,
            rng=np.random.default_rng(seed),
        )
        if surplus:
            model.add_surplus_lstm(np.random.default_rng(seed + 100))
    model.set_privacy_temperature(temperature)
    model.set_backend(backend)
    model.eval()
    return model


#: Shapes that meet in one flush: two plain float64 buckets' worth of
#: temperatures, a TL-FE bucket, a deeper float32 bucket, and a model
#: the kernel must leave to the per-model path.
POOL = [
    _model(1),
    _model(2, temperature=1e-3),
    _model(3, temperature=0.5),
    _model(4, surplus=True),
    _model(5, surplus=True, temperature=2.0),
    _model(6, hidden=8, layers=2, dtype="float32", temperature=0.25),
    _model(7, hidden=8, layers=2, dtype="float32"),
    _model(8, backend="reference", temperature=0.5),
]


def _history(rng, steps):
    return tuple(
        SessionFeatures(
            entry_bin=int(rng.integers(0, SPEC.entry_bins)),
            duration_bin=int(rng.integers(0, SPEC.duration_bins)),
            location=int(rng.integers(0, SPEC.num_locations)),
            day_of_week=int(rng.integers(0, SPEC.days)),
        )
        for _ in range(steps)
    )


def _random_groups(seed, num_groups):
    """``(model, histories, k)`` groups with random shapes and sizes."""
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(num_groups):
        steps = int(rng.choice(WINDOW_LENGTHS))
        size = int(rng.integers(1, 6))
        groups.append(
            (
                POOL[int(rng.integers(0, len(POOL)))],
                [_history(rng, steps) for _ in range(size)],
                int(rng.integers(1, SPEC.num_locations + 2)),
            )
        )
    return groups


class TestGroupedKernel:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_logits_match_per_model_kernel_bit_for_bit(self, dtype, seed):
        """Random row spans (1-row and ≥2-row groups) over 1–3 layers,
        with and without a surplus layer: the grouped kernel equals each
        group served alone through lstm_infer_last plus the head, and
        books the same MACs in the same number of GEMM calls."""
        rng = np.random.default_rng(seed)
        layers = 1 + seed % 3
        surplus = seed % 2 == 1
        sizes = rng.integers(1, 5, size=int(rng.integers(2, 7))).tolist()
        sizes[:2] = [1, 2]
        rng.shuffle(sizes)
        models = [
            _model(10 + 7 * seed + i, hidden=8, layers=layers, surplus=surplus, dtype=dtype)
            for i in range(len(sizes))
        ]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        steps = int(rng.choice(WINDOW_LENGTHS))
        x = rng.integers(0, 2, size=(bounds[-1], steps, SPEC.width)).astype(dtype)
        with flop_counter() as grouped:
            logits = grouped_infer_logits(x, bounds, [m.fused_params() for m in models])
        with flop_counter() as alone:
            for m, lo, hi in zip(models, bounds[:-1], bounds[1:]):
                stack, head_w, head_b = m.fused_params()
                assert len(stack) == layers + surplus
                last = lstm_infer_last(x[lo:hi], stack)
                expected = last @ head_w + head_b
                profiler.record_gemm(hi - lo, last.shape[1], head_w.shape[1])
                assert np.array_equal(logits[lo:hi], expected)
                assert logits.dtype == expected.dtype
        assert (grouped.macs, grouped.matmul_calls) == (alone.macs, alone.matmul_calls)


class TestDispatchTick:
    @pytest.mark.parametrize("seed", range(12))
    def test_answers_and_macs_equal_per_group_dispatch(self, seed):
        groups = _random_groups(seed, num_groups=int(np.random.default_rng(seed).integers(1, 14)))
        with flop_counter() as tick_counter:
            served = dispatch_tick(SPEC, groups)
        with flop_counter() as loop_counter:
            for (model, histories, k), result in zip(groups, served):
                if model.backend != "fused":
                    assert result is None
                    continue
                results, report = dispatch_model_batch(model, SPEC, histories, k)
                assert result[0] == results
                assert result[1].macs == report.macs
                assert result[1].estimated_billion_cycles == report.estimated_billion_cycles
        assert tick_counter.macs == loop_counter.macs

    def test_ranking_goes_through_top_k_batch(self, monkeypatch):
        """Served answers are built by NextLocationPredictor.top_k_batch,
        so anything that changes it changes tick answers too; the tick
        calls it once per shape bucket and distinct k."""
        groups = _random_groups(3, num_groups=6)
        original = NextLocationPredictor.top_k_batch
        calls = []

        def spy(self, histories, k):
            calls.append(len(histories))
            return original(self, histories, k)

        monkeypatch.setattr(NextLocationPredictor, "top_k_batch", spy)
        served = dispatch_tick(SPEC, groups)
        fused = [(m, h, k) for (m, h, k), r in zip(groups, served) if r is not None]
        assert sum(calls) == sum(len(h) for _, h, _ in fused)
        assert len(calls) == len({(stack_key(m), len(h[0]), k) for m, h, k in fused})

    def test_domain_mismatched_model_raises(self):
        groups = _random_groups(1, num_groups=3)
        groups.append((_model(9, locations=SPEC.num_locations + 1), groups[0][1], 2))
        with pytest.raises(ValueError, match="location domain"):
            dispatch_tick(SPEC, groups)


# ----------------------------------------------------------------------
# Fleet level: the three-phase loop vs group-by-group serving
# ----------------------------------------------------------------------
class _Prior:
    """A stand-in population prior: a fixed distribution per last location."""

    def confidences(self, history):
        scores = np.arange(1, SPEC.num_locations + 1, dtype=float)
        scores = np.roll(scores, history[-1].location)
        return scores / scores.sum()


class _Probes(ProbePayload):
    """A stand-in probe payload: ``n`` copies of one window, each observed
    at one location."""

    def __init__(self, window, n, observed):
        self.window, self.n, self.observed = window, n, observed

    @property
    def num_probes(self):
        return self.n

    def __len__(self):
        return len(self.window)

    def confidences(self, predictor):
        batch = predictor.encode_histories([self.window] * self.n)
        return predictor.confidences_encoded(batch)[:, self.observed]


NUM_USERS = 8


def _fleet():
    """A fleet of hand-built users: even ids local, odd ids cloud, each
    deployed with a model from :data:`POOL`."""
    fleet = Fleet(Pelican(SPEC), registry_capacity=None)
    channel = fleet.pelican.channel
    for uid in range(NUM_USERS):
        local = uid % 2 == 0
        model = copy.deepcopy(POOL[uid % len(POOL)])
        endpoint = ServiceEndpoint(
            NextLocationPredictor(model, SPEC),
            DeploymentMode.LOCAL if local else DeploymentMode.CLOUD,
            None if local else channel,
        )
        fleet.pelican.users[uid] = OnboardedUser(
            user_id=uid,
            endpoint=endpoint,
            personalization_report=ResourceReport.zero(),
            simulated_device_seconds=0.0,
            local_dataset=None,
        )
    return fleet


def _choices(seed):
    """Each user's resolver pick: an index into :data:`POOL`, or
    ``len(POOL)`` for the prior tier, ``len(POOL) + 1`` for the general
    tier (cloud users only)."""
    rng = np.random.default_rng(seed)
    return {uid: int(rng.integers(0, len(POOL) + 2)) for uid in range(NUM_USERS)}


def _resolver(seed):
    """Cloud users resolve to a random pool model, the general tier, or
    the prior tier; local users to their device model."""
    choice = _choices(seed)

    def resolve(user_id, user):
        if user.endpoint.mode != DeploymentMode.CLOUD:
            return user.endpoint.predictor.model, None
        pick = choice[user_id]
        if pick == len(POOL):
            return _Prior(), "prior"
        if pick == len(POOL) + 1:
            return POOL[0], "general"
        return POOL[pick], None

    return resolve


def _flush(seed, flush):
    """Requests in random arrival order, each group 1..5 queries, plus
    1..3 probe groups of 1..3 payloads on users that resolve to a neural
    model (the cluster never sends probes down the prior tier)."""
    rng = np.random.default_rng(((seed, flush), 1))
    requests = []
    for _ in range(int(rng.integers(1, 16))):
        uid = int(rng.integers(0, NUM_USERS))
        steps = int(rng.choice(WINDOW_LENGTHS))
        k = int(rng.integers(1, SPEC.num_locations + 2))
        for _ in range(int(rng.integers(1, 6))):
            requests.append(QueryRequest(uid, _history(rng, steps), k))
    probed = [uid for uid, pick in _choices(seed).items() if uid % 2 == 0 or pick != len(POOL)]
    probe_rng = np.random.default_rng(((seed, flush), 2))
    for _ in range(int(probe_rng.integers(1, 4))):
        uid = int(probe_rng.choice(probed))
        window = _history(probe_rng, int(probe_rng.choice(WINDOW_LENGTHS)))
        for _ in range(int(probe_rng.integers(1, 4))):
            n, observed = probe_rng.integers(1, 5), probe_rng.integers(0, SPEC.num_locations)
            requests.append(QueryRequest(uid, _Probes(window, int(n), int(observed)), 0))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def _serve(fleet, seed, per_group, probes=True):
    """Serve three flushes; ``per_group`` disables the tick kernel so
    every group takes the per-model path, and ``probes=False`` drops the
    flushes' probe requests."""
    responses = []
    with pytest.MonkeyPatch.context() as patch:
        if per_group:
            patch.setattr(fleet_module, "dispatch_tick", lambda spec, groups: [None] * len(groups))
        with flop_counter() as counter:
            for flush in range(3):
                requests = [
                    r for r in _flush(seed, flush)
                    if probes or not isinstance(r.history, ProbePayload)
                ]
                responses.append(fleet._serve_groups(requests, _resolver(seed)))
    return responses, counter.macs


@pytest.mark.parametrize("seed", range(10))
def test_fleet_flushes_match_per_group_serving_exactly(seed):
    tick, grouped = _fleet(), _fleet()
    tick_responses, tick_macs = _serve(tick, seed, per_group=False)
    loop_responses, loop_macs = _serve(grouped, seed, per_group=True)

    assert tick_responses == loop_responses  # rankings and confidences, exactly
    assert tick.report.signature() == grouped.report.signature()
    assert tick.resilience_stats.signature() == grouped.resilience_stats.signature()
    assert tick_macs == loop_macs
    for uid in range(NUM_USERS):
        ours, theirs = tick.pelican.users[uid].endpoint, grouped.pelican.users[uid].endpoint
        assert ours.predictor.query_count == theirs.predictor.query_count
        assert ours.stats.queries == theirs.stats.queries
    assert tick.pelican.channel.checkpoint() == grouped.pelican.channel.checkpoint()


@pytest.mark.parametrize("seed", range(10))
def test_probe_groups_bill_benign_as_total_minus_adversary(seed):
    """Probe groups land in the normal books and in the adversary overlay,
    so the same flushes served without their probes book exactly the
    difference."""
    probed, benign = _fleet(), _fleet()
    _serve(probed, seed, per_group=False)
    _serve(benign, seed, per_group=False, probes=False)

    ours, theirs = probed.report, benign.report
    assert ours.adversary_queries > 0
    assert ours.queries - ours.adversary_queries == theirs.queries
    assert ours.batches - ours.adversary_batches == theirs.batches
    assert ours.cloud_compute.macs - ours.adversary_cloud_compute.macs == theirs.cloud_compute.macs
    assert ours.device_compute.macs - ours.adversary_device_compute.macs == theirs.device_compute.macs
    assert ours.adversary_cloud_compute.macs > 0 or ours.adversary_device_compute.macs > 0


def test_fleet_rejects_domain_mismatched_model():
    fleet = _fleet()
    bad = _model(9, locations=SPEC.num_locations + 1)
    requests = [QueryRequest(1, _history(np.random.default_rng(0), 2), 3)]
    with pytest.raises(ValueError, match="location domain"):
        fleet._serve_groups(requests, lambda uid, user: (bad, None))


@pytest.mark.parametrize("uid", [0, 1, 7])  # local, cloud, reference-backend cloud
@pytest.mark.parametrize("field, size", [
    ("entry_bin", SPEC.entry_bins),
    ("duration_bin", SPEC.duration_bins),
    ("location", SPEC.num_locations),
    ("day_of_week", SPEC.days),
])
@pytest.mark.parametrize("at_size", [False, True])
def test_fleet_serve_rejects_out_of_range_fields(uid, field, size, at_size):
    """A query with a field outside its block fails loudly instead of
    being answered as some other, valid-looking session."""
    value = size if at_size else -1
    first, second = _history(np.random.default_rng(uid), 2)
    bad = (first, dataclasses.replace(second, **{field: value}))
    requests = [QueryRequest(uid, _history(np.random.default_rng(9), 2), 3), QueryRequest(uid, bad, 3)]
    fleet = _fleet()
    if uid % 2:
        fleet.registry.register(uid, fleet.pelican.users[uid].endpoint.predictor.model)
    with pytest.raises(ValueError, match=f"^{field} {value} outside"):
        fleet.serve(requests)


@pytest.mark.parametrize("uid", [0, 1])  # local, cloud
class TestMalformedRequests:
    """A malformed request next to a valid one fails the flush with an
    error that names the problem, instead of being answered wrongly."""

    def _serve(self, uid, bad):
        fleet = _fleet()
        if uid % 2:
            fleet.registry.register(uid, fleet.pelican.users[uid].endpoint.predictor.model)
        valid = QueryRequest(uid, _history(np.random.default_rng(9), 2), 3)
        return fleet, [valid, bad]

    @pytest.mark.parametrize("k", [-1, 0])
    def test_k_below_one_raises(self, uid, k):
        fleet, requests = self._serve(uid, QueryRequest(uid, _history(np.random.default_rng(3), 2), k))
        with pytest.raises(ValueError, match=f"k={k}"):
            fleet.serve(requests)
        with pytest.raises(ValueError, match=f"k={k}"):
            fleet.serve_looped(requests)

    def test_unknown_user_raises_with_context(self, uid):
        fleet, requests = self._serve(uid, QueryRequest(999, _history(np.random.default_rng(3), 2), 3))
        with pytest.raises(KeyError, match="user 999 is not onboarded"):
            fleet.serve(requests)

    def test_empty_history_raises(self, uid):
        fleet, requests = self._serve(uid, QueryRequest(uid, (), 3))
        with pytest.raises(ValueError, match="at least one session"):
            fleet.serve(requests)

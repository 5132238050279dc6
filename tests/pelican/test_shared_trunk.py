"""The shared read-only trunk (DESIGN.md §7).

Every model the orchestrator deploys points the main-stack cells that
equal the published general checkpoint's at one read-only
:class:`Trunk`, and the tick kernel projects each trunk layer once per
run of spans over it.  Sharing must change cost only: every comparison
in this file is exact.
"""

import copy

import numpy as np
import pytest

import repro.nn.fused as fused_module
from repro.data import SpatialLevel
from repro.data.features import FeatureSpec, SessionFeatures
from repro.models import (
    GeneralModelConfig,
    NextLocationModel,
    NextLocationPredictor,
    PersonalizationConfig,
)
from repro.models.trunk import Trunk, same_bits
from repro.nn import Adam, dtype_policy, fit
from repro.nn.fused import grouped_infer_logits
from repro.nn.profiler import flop_counter
from repro.pelican import Cluster, DeploymentMode, Pelican, PelicanConfig
from repro.pelican.deployment import deploy_cloud
from repro.pelican.dispatch import _rank_rows, dispatch_model_batch, dispatch_tick
from repro.pelican.registry import ModelRegistry
from repro.pelican.transport import Channel

SPEC = FeatureSpec(num_locations=7)


def _general(seed, dtype, width=SPEC.width, locations=SPEC.num_locations, hidden=8):
    with dtype_policy(dtype):
        return NextLocationModel(
            input_width=width,
            num_locations=locations,
            hidden_size=hidden,
            num_layers=2,
            dropout=0.0,
            rng=np.random.default_rng(seed),
        ).eval()


def _trunk(general):
    """A published checkpoint's trunk: its own copy of the general stack."""
    return Trunk(general.state_dict())


def _personal(general, seed, temperature=1.0):
    """A TL-FE model over ``general``: frozen stack, own surplus and head."""
    rng = np.random.default_rng(seed)
    model = general.copy(rng)
    model.lstm.freeze()
    with dtype_policy(general.head.weight.data.dtype):
        model.add_surplus_lstm(rng)
    head = model.head.weight.data
    model.head.weight.data = head + rng.normal(0.0, 0.1, head.shape).astype(head.dtype)
    model.set_privacy_temperature(temperature)
    return model.eval()


def _lstm_shared(model, trunk):
    return all(
        p.data is trunk.arrays[name]
        for name, p in model.named_parameters()
        if name.startswith("lstm.")
    )


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


def _fleet_pair(seed, dtype):
    """Six TL-FE models over two trunks, as shared and as private copies."""
    generals = [_general(100 + seed, dtype), _general(200 + seed, dtype)]
    trunks = [_trunk(g) for g in generals]
    shared, private = [], []
    for i in range(6):
        model = _personal(generals[i % 2], 10 * seed + i, temperature=(1.0, 0.5, 2.0)[i % 3])
        private.append(model.copy(np.random.default_rng(0)))
        trunks[i % 2].attach(model)
        assert _lstm_shared(model, trunks[i % 2])
        shared.append(model)
    return shared, private


def _flush(seed, num_groups):
    """``(model index, histories, k)``: 1–4 rows, windows of 1–3 steps
    (so T = 1 buckets occur), mixed ``k``, both trunks interleaved."""
    rng = np.random.default_rng(seed)
    return [
        (
            int(rng.integers(0, 6)),
            [_history(rng, steps) for _ in range(int(rng.integers(1, 5)))],
            int(rng.integers(1, SPEC.num_locations + 2)),
        )
        for steps in rng.choice((1, 2, 3), size=num_groups).tolist()
    ]


class _RunSpy:
    """Records every run :func:`repro.nn.fused._shared_runs` returns."""

    def __init__(self, monkeypatch):
        self.lengths = []
        original = fused_module._shared_runs

        def spy(spans, keys, steps):
            runs = original(spans, keys, steps)
            self.lengths.extend(stop - first for first, stop in runs)
            return runs

        monkeypatch.setattr(fused_module, "_shared_runs", spy)


class TestSharedTick:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_shared_tick_equals_private_tick(self, seed, dtype, monkeypatch):
        """Answers, confidences, booked MACs and the flop counter's MACs
        and GEMM calls are the same with a shared trunk as with private
        copies, and the same as serving each group alone."""
        shared, private = _fleet_pair(seed, dtype)
        flush = _flush(seed, num_groups=18)
        runs = _RunSpy(monkeypatch)
        with flop_counter() as with_trunk:
            served = dispatch_tick(SPEC, [(shared[m], h, k) for m, h, k in flush])
        assert max(runs.lengths) > 1
        with flop_counter() as without:
            expected = dispatch_tick(SPEC, [(private[m], h, k) for m, h, k in flush])
        assert served == expected
        assert (with_trunk.macs, with_trunk.matmul_calls) == (
            without.macs,
            without.matmul_calls,
        )
        for (m, histories, k), (answers, report) in zip(flush, served):
            alone, alone_report = dispatch_model_batch(private[m], SPEC, histories, k)
            assert answers == alone
            assert report.macs == alone_report.macs

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_shared_logits_equal_private_logits(self, dtype, steps):
        """1-row and wider spans over one trunk, then the other."""
        shared, private = _fleet_pair(7, dtype)
        order = [0, 2, 4, 4, 0, 1, 3, 5, 1]
        sizes = [1, 1, 1, 3, 2, 1, 1, 2, 4]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        rng = np.random.default_rng(steps)
        x = rng.integers(0, 2, size=(bounds[-1], steps, SPEC.width)).astype(dtype)
        with flop_counter() as a:
            got = grouped_infer_logits(x, bounds, [shared[i].fused_params() for i in order])
        with flop_counter() as b:
            want = grouped_infer_logits(x, bounds, [private[i].fused_params() for i in order])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert (a.macs, a.matmul_calls) == (b.macs, b.matmul_calls)


class TestBucketRanking:
    class _Rows(NextLocationPredictor):
        """A predictor whose log-confidences are given rows."""

        def __init__(self, log_probs):
            self.model, self.spec, self.query_count = None, SPEC, 0
            self._log_probs = log_probs

        def encode_histories(self, histories):
            return self._log_probs

        def log_confidences_encoded(self, batch):
            return batch

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(5))
    def test_bucket_ranking_equals_per_group_top_k_batch(self, dtype, seed):
        """Mostly-tied scores, so any dependence of a row's answer on the
        other rows or on another group's ``k`` would show."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=8).tolist()
        ks = rng.integers(1, SPEC.num_locations + 2, size=8).tolist()
        log_probs = -rng.integers(0, 3, size=(sum(sizes), SPEC.num_locations)).astype(dtype)
        answers = _rank_rows(SPEC, log_probs, np.repeat(ks, sizes).tolist())
        lo = 0
        for size, k in zip(sizes, ks):
            rows = log_probs[lo : lo + size]
            assert answers[lo : lo + size] == self._Rows(rows).top_k_batch([()] * size, k)
            lo += size
        assert _rank_rows(SPEC, log_probs, [3] * len(log_probs)) == self._Rows(
            log_probs
        ).top_k_batch([()] * len(log_probs), 3)

    def test_k_below_one_raises(self):
        with pytest.raises(ValueError, match="k >= 1"):
            _rank_rows(SPEC, np.zeros((2, 3)), [1, 0])


class TestTrunkIsReadOnly:
    def test_writing_a_shared_array_raises(self):
        general = _general(1, "float64")
        trunk = _trunk(general)
        model = _personal(general, 2)
        trunk.attach(model)
        with pytest.raises(ValueError, match="read-only"):
            model.lstm.cells[0].weight_ih.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.lstm.cells[1].bias.data += 1.0

    def test_training_a_shared_trunk_raises(self):
        general = _general(1, "float64")
        trunk = _trunk(general)
        model = _personal(general, 2)
        trunk.attach(model)
        model.lstm.unfreeze()
        model.train()
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(8, 2, SPEC.width)).astype(float)
        y = rng.integers(0, SPEC.num_locations, size=8)
        optimizer = Adam(model.trainable_parameters(), lr=1e-2)
        with pytest.raises(ValueError, match="read-only"):
            fit(model, x, y, epochs=1, batch_size=4, optimizer=optimizer, rng=rng)

    def test_copies_and_state_dicts_stay_private_and_writable(self):
        general = _general(1, "float64")
        trunk = _trunk(general)
        model = _personal(general, 2)
        trunk.attach(model)
        clone = model.copy(np.random.default_rng(0))
        for (name, p), (_, q) in zip(model.named_parameters(), clone.named_parameters()):
            assert q.data is not p.data and q.data.flags.writeable
            assert same_bits(q.data, p.data)
        assert all(a.flags.writeable for a in model.state_dict().values())

    def test_negative_zero_is_not_shared(self):
        general = _general(1, "float64")
        trunk = _trunk(general)
        model = _personal(general, 2)
        model.lstm.cells[1].weight_hh.data[0, 0] = 0.0
        trunk.arrays["lstm.cells.1.weight_hh"].setflags(write=True)
        trunk.arrays["lstm.cells.1.weight_hh"][0, 0] = -0.0
        trunk.arrays["lstm.cells.1.weight_hh"].setflags(write=False)
        trunk.attach(model)
        assert model.lstm.cells[0].weight_ih.data is trunk.arrays["lstm.cells.0.weight_ih"]
        assert model.lstm.cells[1].weight_hh.data is not trunk.arrays["lstm.cells.1.weight_hh"]
        assert model.lstm.cells[1].weight_hh.data.flags.writeable


class TestServedModels:
    #: The served shapes: building-level spec (119-wide one-hot input,
    #: 40 locations), hidden 48, two layers plus the TL-FE surplus layer.
    SERVED = FeatureSpec(num_locations=40)
    MODEL_BYTES = 571_712

    def _trunk_and_personal(self):
        general = _general(3, "float64", width=self.SERVED.width, locations=40, hidden=48)
        return _trunk(general), _personal(general, 4)

    def _deploy(self, trunk, personal):
        """The orchestrator's cloud path: rebuild server side, then attach."""
        endpoint, _ = deploy_cloud(personal, self.SERVED, Channel(), np.random.default_rng(5))
        trunk.attach(endpoint.predictor.model)
        return endpoint.predictor.model

    def _x(self):
        return np.random.default_rng(6).integers(0, 2, size=(5, 3, self.SERVED.width))

    def test_private_bytes_per_cloud_model_within_gate(self):
        """ROADMAP item 2's gate: a deployed TL-FE cloud model holds at
        most 35% of its 572 KB in arrays of its own."""
        trunk, personal = self._trunk_and_personal()
        server = self._deploy(trunk, personal)
        assert sum(p.data.nbytes for p in server.parameters()) == self.MODEL_BYTES
        assert _lstm_shared(server, trunk)
        shared = {id(a) for a in trunk.arrays.values()}
        private = sum(p.data.nbytes for p in server.parameters() if id(p.data) not in shared)
        assert private <= 0.35 * self.MODEL_BYTES
        assert np.array_equal(server.infer_logits(self._x()), personal.infer_logits(self._x()))

    def test_cold_load_keeps_private_copies(self):
        """A registry cold load does not compare against the trunk (the
        compare costs more than the copy it would save): its arrays are
        private, writable and bit-equal to the trunk's."""
        trunk, personal = self._trunk_and_personal()
        server = self._deploy(trunk, personal)
        registry = ModelRegistry(capacity=None)
        registry.register(1, server)
        registry.evict(1)
        loaded = registry.get(1)
        assert loaded is not server
        for name, p in loaded.named_parameters():
            if name in trunk.arrays:
                assert p.data is not trunk.arrays[name] and p.data.flags.writeable
                assert same_bits(p.data, trunk.arrays[name])
        assert np.array_equal(loaded.infer_logits(self._x()), personal.infer_logits(self._x()))

    def test_a_moved_cell_keeps_its_private_copy(self):
        trunk, personal = self._trunk_and_personal()
        personal.lstm.cells[1].bias.data[0] += 1e-3
        server = self._deploy(trunk, personal)
        assert server.lstm.cells[0].weight_ih.data is trunk.arrays["lstm.cells.0.weight_ih"]
        assert server.lstm.cells[1].bias.data is not trunk.arrays["lstm.cells.1.bias"]
        assert np.array_equal(server.infer_logits(self._x()), personal.infer_logits(self._x()))


@pytest.fixture(scope="module")
def tl_fe_pelican(tiny_corpus):
    spec = tiny_corpus.spec(SpatialLevel.BUILDING)
    system = Pelican(
        spec,
        PelicanConfig(
            general=GeneralModelConfig(hidden_size=16, epochs=2, patience=None),
            personalization=PersonalizationConfig(epochs=2, patience=None),
        ),
    )
    train, _ = tiny_corpus.contributor_dataset(SpatialLevel.BUILDING).split_by_user(0.8)
    system.initial_training(train)
    for i, uid in enumerate(tiny_corpus.personal_ids):
        data = tiny_corpus.user_dataset(uid, SpatialLevel.BUILDING)
        mode = DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL
        system.onboard_user(uid, data, deployment=mode)
    return system


class TestOrchestrator:
    def test_onboarded_models_share_the_trunk(self, tl_fe_pelican):
        modes = set()
        for user in tl_fe_pelican.users.values():
            modes.add(user.endpoint.mode)
            assert _lstm_shared(user.endpoint.predictor.model, tl_fe_pelican.trunk)
        assert modes == {DeploymentMode.LOCAL, DeploymentMode.CLOUD}

    def test_shards_share_one_trunk(self, tl_fe_pelican):
        """The trunk derives from the published checkpoint, so every shard
        of a cluster built from the orchestrator holds the same arrays."""
        pelican = copy.deepcopy(tl_fe_pelican)
        cluster = Cluster.from_trained(pelican, num_shards=3)
        for shard in cluster.shards:
            for name, array in shard.pelican.trunk.arrays.items():
                assert array is pelican.trunk.arrays[name]

    def test_deep_copy_shares_the_trunk(self, tl_fe_pelican, monkeypatch):
        """A deep-copied orchestrator's models point at the one read-only
        trunk, so a tick over original and copied models projects each
        trunk layer in one run and answers as the originals do."""
        pelican = copy.deepcopy(tl_fe_pelican)
        trunk = tl_fe_pelican.trunk
        originals = [u.endpoint.predictor.model for u in tl_fe_pelican.users.values()]
        copies = [u.endpoint.predictor.model for u in pelican.users.values()]
        for model in copies:
            assert _lstm_shared(model, trunk)
            with pytest.raises(ValueError, match="read-only"):
                model.lstm.cells[0].weight_ih.data[0, 0] = 0.0
        assert all(c is not o for c, o in zip(copies, originals))

        history = next(iter(tl_fe_pelican.users.values())).local_dataset.windows[0].history
        histories = [tuple(history)] * 2
        runs = []
        original_runs = fused_module._shared_runs

        def spy(spans, keys, steps):
            runs.append(original_runs(spans, keys, steps))
            return runs[-1]

        monkeypatch.setattr(fused_module, "_shared_runs", spy)
        models = originals + copies
        served = dispatch_tick(tl_fe_pelican.spec, [(m, histories, 3) for m in models])
        trunk_layers = tl_fe_pelican.config.general.num_layers
        assert runs[:trunk_layers] == [[(0, len(models))]] * trunk_layers
        half = len(originals)
        assert served[half:] == served[:half]
        for model, (answers, _) in zip(originals, served):
            assert answers == dispatch_model_batch(model, tl_fe_pelican.spec, histories, 3)[0]

    def test_local_update_keeps_sharing(self, tl_fe_pelican):
        pelican = copy.deepcopy(tl_fe_pelican)
        uid, user = next(
            (u, v) for u, v in pelican.users.items() if v.endpoint.mode == DeploymentMode.LOCAL
        )
        refreshed = pelican.update_user(uid, user.local_dataset)
        assert _lstm_shared(refreshed.endpoint.predictor.model, pelican.trunk)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "a cloud update retrains the frozen general trunk: the server-side "
            "model from rebuild_personal_model has requires_grad=True on every "
            "parameter (freeze flags are not serialized) and "
            "_clone_preserving_freeze copies those flags; fixing it changes "
            "churn answers pinned by perfbench/digests.json (ROADMAP item 2)"
        ),
    )
    def test_cloud_update_keeps_the_trunk_frozen(self, tl_fe_pelican):
        pelican = copy.deepcopy(tl_fe_pelican)
        uid, user = next(
            (u, v) for u, v in pelican.users.items() if v.endpoint.mode == DeploymentMode.CLOUD
        )
        refreshed = pelican.update_user(uid, user.local_dataset)
        state = refreshed.endpoint.predictor.model.state_dict()
        lstm = [name for name in state if name.startswith("lstm.")]
        assert sorted(pelican.trunk.matching(state)) == sorted(lstm)

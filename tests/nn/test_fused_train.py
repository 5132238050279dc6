"""The graph-free fused training step against the autograd specification.

``fit`` runs :meth:`NextLocationModel.train_step` — the graph-free step on
the fused backend — and the autograd step (:meth:`Module.train_step`)
everywhere else.  Both must train bit-identically: weights, loss history,
epochs, the generator state and the booked MACs compare with ``==``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.architecture import NextLocationModel
from repro.nn import Adam, Module, dtype_policy, fit, fused
from repro.nn.profiler import flop_counter

WIDTH, LOCATIONS, HIDDEN = 119, 40, 48
CONFIGS = ("general", "tl_fe", "tl_ft", "scratch")
DTYPES = (np.float64, np.float32)


def build(config, dtype, seed=0):
    """A model in one of the four trainable configurations, plus its rng."""
    rng = np.random.default_rng(seed)
    with dtype_policy(dtype):
        if config == "scratch":
            model = NextLocationModel(WIDTH, LOCATIONS, 16, 1, 0.1, rng)
        else:
            model = NextLocationModel(WIDTH, LOCATIONS, HIDDEN, 2, 0.1, rng)
        if config == "tl_fe":
            model.lstm.freeze()
            model.add_surplus_lstm(rng)
        elif config == "tl_ft":
            model.lstm.cells[0].freeze()
    return model, rng


def one_hot_windows(n, seed):
    rng = np.random.default_rng(seed)
    X = np.zeros((n, 2, WIDTH))
    for offset, size in ((0, 48), (48, 24), (72, LOCATIONS), (112, 7)):
        idx = offset + rng.integers(0, size, (n, 2))
        np.put_along_axis(X, idx[..., None], 1.0, axis=-1)
    return X, rng.integers(0, LOCATIONS, n)


def run_fit(config, dtype, n, *, graph_free, monkeypatch, **kwargs):
    model, rng = build(config, dtype)
    X, y = one_hot_windows(n, seed=1)
    with monkeypatch.context() as patch:
        if not graph_free:
            patch.setattr(NextLocationModel, "train_step", Module.train_step)
        with dtype_policy(dtype), flop_counter() as counter:
            optimizer = Adam(model.trainable_parameters(), lr=kwargs.pop("lr", 3e-3))
            result = fit(model, X, y, optimizer=optimizer, rng=rng, **kwargs)
    return model, result, rng.bit_generator.state, (counter.macs, counter.matmul_calls)


# (rows, batch, extra fit kwargs): a 1-row last minibatch, a dataset
# smaller than one batch, a patience stop and clipping that fires.
CASES = {
    "one_row_tail": (65, 32, {}),
    "under_one_batch": (20, 32, {}),
    "patience_stop": (40, 16, {"patience": 1, "epochs": 30, "lr": 0.3}),
    "active_clip": (48, 16, {"grad_clip": 0.05, "lr": 0.05}),
}


class TestGraphFreeFitParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_bit_identical_to_autograd(self, config, dtype, case, monkeypatch):
        n, batch, extra = CASES[case]
        kwargs = {"epochs": 4, "batch_size": batch, **extra}
        fast = run_fit(config, dtype, n, graph_free=True, monkeypatch=monkeypatch, **dict(kwargs))
        spec = run_fit(config, dtype, n, graph_free=False, monkeypatch=monkeypatch, **dict(kwargs))
        fast_state, spec_state = fast[0].state_dict(), spec[0].state_dict()
        for name in spec_state:
            assert fast_state[name].dtype == spec_state[name].dtype == np.dtype(dtype)
            assert np.array_equal(fast_state[name], spec_state[name]), name
        assert fast[1].train_losses == spec[1].train_losses
        assert fast[1].epochs_run == spec[1].epochs_run
        assert fast[1].best_epoch == spec[1].best_epoch
        assert fast[2] == spec[2]
        assert fast[3] == spec[3]
        if case == "patience_stop":
            assert spec[1].epochs_run < kwargs["epochs"]

    def test_clip_case_clips(self):
        model, rng = build("tl_fe", np.float64)
        X, y = one_hot_windows(16, seed=1)
        step = model.train_step(X, y)
        step(np.arange(16))
        norm = np.sqrt(sum(float((p.grad**2).sum()) for p in model.trainable_parameters()))
        assert norm > CASES["active_clip"][2]["grad_clip"]


class TestStepSelection:
    def test_fused_model_takes_graph_free_step(self):
        model, _ = build("tl_fe", np.float64)
        X, y = one_hot_windows(4, seed=1)
        step = model.train_step(X, y)
        assert step.__qualname__.startswith(fused.train_step.__qualname__)

    def test_reference_backend_takes_autograd_step(self):
        model, _ = build("tl_fe", np.float64)
        model.set_backend("reference")
        X, y = one_hot_windows(4, seed=1)
        step = model.train_step(X, y)
        assert step.__qualname__.startswith(Module.train_step.__qualname__)

    def test_other_policy_takes_autograd_step(self):
        model, _ = build("tl_fe", np.float32)
        X, y = one_hot_windows(4, seed=1)
        with dtype_policy(np.float64):
            step = model.train_step(X, y)
        assert step.__qualname__.startswith(Module.train_step.__qualname__)


class TestGradsReleased:
    @pytest.mark.parametrize("backend", ["fused", "reference"])
    def test_no_grad_survives_fit(self, backend):
        model, rng = build("tl_ft", np.float64)
        model.set_backend(backend)
        X, y = one_hot_windows(20, seed=1)
        fit(model, X, y, epochs=2, batch_size=8, rng=rng)
        assert all(p.grad is None for p in model.parameters())


class TestLayerZeroMemo:
    @pytest.mark.parametrize("config, full_passes", [
        ("tl_fe", 1), ("tl_ft", 1), ("general", 0), ("scratch", 0),
    ])
    def test_frozen_layer0_runs_once_per_fit(self, config, full_passes, monkeypatch):
        model, rng = build(config, np.float64)
        X, y = one_hot_windows(65, seed=1)
        rows_seen = []
        layer_forward = fused._layer_forward

        def counting(x, *args, **kwargs):
            rows_seen.append(x.shape[1])
            return layer_forward(x, *args, **kwargs)

        monkeypatch.setattr(fused, "_layer_forward", counting)
        fit(model, X, y, epochs=3, batch_size=32, rng=rng)
        assert rows_seen.count(65) == full_passes

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(94, 24), (119, 48), (119, 64), (152, 48)]),
        dtype=st.sampled_from(DTYPES),
        rows=st.integers(2, 150),
        batch=st.integers(2, 64),
        seed=st.integers(0, 2**16),
    )
    def test_gathered_rows_equal_per_minibatch(self, shape, dtype, rows, batch, seed):
        """Layer 0 over every row, gathered per minibatch, equals the
        minibatch's own layer 0 for every minibatch of ≥2 rows."""
        width, hidden = shape
        rng = np.random.default_rng(seed)
        X = rng.random((2, rows, width)).astype(dtype)
        w_ih = rng.normal(scale=0.2, size=(width, 4 * hidden)).astype(dtype)
        w_hh = rng.normal(scale=0.2, size=(hidden, 4 * hidden)).astype(dtype)
        bias = rng.normal(scale=0.1, size=4 * hidden).astype(dtype)

        def layer0(x):
            return fused._layer_forward(x, [(0, x.shape[1])], [(w_ih, w_hh, bias)])[0]

        full = layer0(X)
        order = rng.permutation(rows)
        for start in range(0, rows, batch):
            idx = order[start : start + batch]
            if len(idx) < 2:
                continue
            own = layer0(np.take(X, idx, axis=1))
            assert np.array_equal(np.take(full, idx, axis=1), own)

"""Gradient-parity suite: fused LSTM kernel vs. reference autograd cell.

The fused path (DESIGN.md §3) must be a drop-in replacement for the
per-timestep ``LSTMCell`` graph: forward outputs, weight gradients, and —
critically for the gradient-descent inversion attack — *input-sequence*
gradients must agree within tolerance on randomized shapes and seeds, in
both float64 and float32.  A separate test pins the MAC accounting: on a
workload where nothing is skippable, both paths report identical totals.
"""

import numpy as np
import pytest

from repro.nn import LSTM, Tensor, dtype_policy, lstm_infer_last, no_grad
from repro.nn.profiler import flop_counter

# (batch, seq_len, input_size, hidden_size, num_layers, seed)
SHAPES = [
    (1, 1, 3, 4, 1, 7),
    (2, 2, 5, 3, 2, 11),
    (3, 5, 6, 8, 2, 13),
    (2, 3, 4, 6, 3, 17),
    (4, 2, 94, 24, 2, 19),  # tiny-scale predictor shape
]

TOLERANCES = {"float64": dict(rtol=1e-9, atol=1e-9), "float32": dict(rtol=1e-3, atol=1e-4)}


def _layer_arrays(lstm):
    return [(c.weight_ih.data, c.weight_hh.data, c.bias.data) for c in lstm.cells]


def _run_backend(lstm, x_np, backend, state=None):
    """One forward/backward pass; returns outputs and every gradient."""
    lstm.zero_grad()
    x = Tensor(x_np, requires_grad=True)
    out = lstm.forward(x, state=state, backend=backend)
    # A non-uniform scalar loss so every output position gets a distinct
    # gradient signal.
    weights = np.linspace(-1.0, 1.0, out.size).reshape(out.shape)
    (out * Tensor(weights)).sum().backward()
    param_grads = {name: p.grad.copy() for name, p in lstm.named_parameters()}
    return out.numpy().copy(), x.grad.copy(), param_grads


def _make_states(num_layers, batch, hidden, seed, requires_grad=True):
    rs = np.random.default_rng(seed)
    return [
        (
            Tensor(rs.normal(size=(batch, hidden)), requires_grad=requires_grad),
            Tensor(rs.normal(size=(batch, hidden)), requires_grad=requires_grad),
        )
        for _ in range(num_layers)
    ]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shape", SHAPES)
class TestFusedReferenceParity:
    def test_forward_and_gradients_match(self, shape, dtype):
        batch, seq, inp, hidden, layers, seed = shape
        tol = TOLERANCES[dtype]
        with dtype_policy(dtype):
            rng = np.random.default_rng(seed)
            lstm = LSTM(inp, hidden, layers, rng, dropout=0.0)
            x_np = np.random.default_rng(seed + 1).normal(size=(batch, seq, inp))
            out_f, xg_f, pg_f = _run_backend(lstm, x_np, "fused")
            out_r, xg_r, pg_r = _run_backend(lstm, x_np, "reference")
        np.testing.assert_allclose(out_f, out_r, **tol)
        np.testing.assert_allclose(xg_f, xg_r, **tol)
        assert pg_f.keys() == pg_r.keys()
        for name in pg_f:
            np.testing.assert_allclose(pg_f[name], pg_r[name], err_msg=name, **tol)

    def test_initial_state_gradients_match(self, shape, dtype):
        batch, seq, inp, hidden, layers, seed = shape
        tol = TOLERANCES[dtype]
        with dtype_policy(dtype):
            rng = np.random.default_rng(seed)
            lstm = LSTM(inp, hidden, layers, rng, dropout=0.0)
            x_np = np.random.default_rng(seed + 2).normal(size=(batch, seq, inp))
            results = {}
            for backend in ("fused", "reference"):
                states = _make_states(layers, batch, hidden, seed + 3)
                out, _, _ = _run_backend(lstm, x_np, backend, state=states)
                results[backend] = (
                    out,
                    [(h.grad.copy(), c.grad.copy()) for h, c in states],
                )
        np.testing.assert_allclose(results["fused"][0], results["reference"][0], **tol)
        for (hf, cf), (hr, cr) in zip(results["fused"][1], results["reference"][1]):
            np.testing.assert_allclose(hf, hr, **tol)
            np.testing.assert_allclose(cf, cr, **tol)


class TestFusedFloat64Tolerance:
    def test_acceptance_shape_within_1e6(self):
        """Parity at the acceptance microbenchmark shape, 1e-6 in float64."""
        rng = np.random.default_rng(0)
        lstm = LSTM(64, 128, 2, rng, dropout=0.0)
        x_np = np.random.default_rng(1).normal(size=(32, 2, 64))
        out_f, xg_f, pg_f = _run_backend(lstm, x_np, "fused")
        out_r, xg_r, pg_r = _run_backend(lstm, x_np, "reference")
        assert np.abs(out_f - out_r).max() < 1e-6
        assert np.abs(xg_f - xg_r).max() < 1e-6
        for name in pg_f:
            assert np.abs(pg_f[name] - pg_r[name]).max() < 1e-6, name


class TestDropoutParity:
    def test_same_rng_stream_same_outputs(self):
        """Inter-layer dropout draws masks in the same generator order on
        both backends, so seeded training runs agree across backends."""
        x_np = np.random.default_rng(3).normal(size=(4, 3, 5))
        outs = {}
        for backend in ("fused", "reference"):
            lstm = LSTM(5, 6, 2, np.random.default_rng(42), dropout=0.5, backend=backend)
            lstm.train()
            outs[backend] = lstm(Tensor(x_np)).numpy()
        np.testing.assert_allclose(outs["fused"], outs["reference"], rtol=1e-12, atol=1e-12)


class TestMacAccounting:
    """The §V-C2 overhead experiment counts MACs; the fused kernels must
    report the same totals as the reference graph for the same work."""

    def _workload(self, backend, count_forward_only=False):
        rng = np.random.default_rng(5)
        lstm = LSTM(6, 8, 2, rng, dropout=0.0)
        x_np = np.random.default_rng(6).normal(size=(3, 4, 6))
        # Nothing skippable: input, weights, and initial states all
        # require gradients, so both backends execute identical GEMMs.
        states = _make_states(2, 3, 8, 9)
        lstm.zero_grad()
        x = Tensor(x_np, requires_grad=True)
        with flop_counter() as counter:
            if count_forward_only:
                with no_grad():
                    lstm.forward(x, state=states, backend=backend)
            else:
                out = lstm.forward(x, state=states, backend=backend)
                out.sum().backward()
        return counter.macs

    def test_train_step_macs_identical(self):
        assert self._workload("fused") == self._workload("reference")

    def test_forward_macs_identical(self):
        fused = self._workload("fused", count_forward_only=True)
        ref = self._workload("reference", count_forward_only=True)
        assert fused == ref

    def test_zero_state_skip_reports_fewer_macs(self):
        """With the implicit zero initial state the fused kernel skips the
        zero-contribution t=0 recurrent GEMMs — and honestly reports the
        smaller count it actually executed."""
        rng = np.random.default_rng(5)
        lstm = LSTM(6, 8, 2, rng, dropout=0.0)
        x_np = np.random.default_rng(6).normal(size=(3, 4, 6))

        def forward_macs(backend):
            with flop_counter() as counter:
                with no_grad():
                    lstm.forward(Tensor(x_np), backend=backend)
            return counter.macs

        assert forward_macs("fused") < forward_macs("reference")


class TestBackendSelection:
    def test_fused_is_default(self, rng):
        assert LSTM(4, 4, 1, rng).backend == "fused"

    def test_rejects_unknown_backend(self, rng):
        with pytest.raises(ValueError, match="backend"):
            LSTM(4, 4, 1, rng, backend="jit")
        lstm = LSTM(4, 4, 1, rng)
        with pytest.raises(ValueError, match="backend"):
            lstm.forward(Tensor(np.ones((1, 1, 4))), backend="jit")

    def test_infer_last_matches_eval_forward(self, rng):
        lstm = LSTM(5, 7, 2, rng, dropout=0.3)
        lstm.eval()
        x_np = np.random.default_rng(8).normal(size=(3, 2, 5))
        graph = lstm(Tensor(x_np)).numpy()[:, -1, :]
        np.testing.assert_allclose(
            lstm_infer_last(x_np, _layer_arrays(lstm)), graph, rtol=1e-12, atol=1e-12
        )

    def test_no_grad_forward_builds_no_node(self, rng):
        """Under no_grad the fused path skips backward caches and graph
        bookkeeping entirely but returns the same values."""
        lstm = LSTM(5, 7, 2, rng, dropout=0.0)
        x_np = np.random.default_rng(9).normal(size=(3, 2, 5))
        with no_grad():
            out = lstm(Tensor(x_np))
        assert out._backward is None and not out.requires_grad
        np.testing.assert_allclose(
            out.numpy()[:, -1, :], lstm_infer_last(x_np, _layer_arrays(lstm)), rtol=1e-12
        )

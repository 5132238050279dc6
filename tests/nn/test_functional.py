"""Unit tests for repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.functional import log_softmax, one_hot, softmax, softmax_np, top_k_indices


class TestSoftmax:
    def test_matches_manual(self):
        z = np.array([[1.0, 2.0, 3.0]])
        expected = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(softmax(Tensor(z)).numpy(), expected, atol=1e-12)

    def test_temperature_sharpens(self):
        z = np.array([[1.0, 2.0]])
        hot = softmax_np(z, temperature=1.0)
        cold = softmax_np(z, temperature=0.1)
        assert cold[0, 1] > hot[0, 1]

    def test_temperature_equation_1(self):
        """p_i = exp(z_i/T) / sum exp(z_j/T) — the paper's Equation (1)."""
        z = np.array([[0.5, -1.0, 2.0]])
        T = 0.25
        expected = np.exp(z / T) / np.exp(z / T).sum()
        np.testing.assert_allclose(softmax_np(z, temperature=T), expected, atol=1e-12)

    def test_large_logits_stable(self):
        z = np.array([[1000.0, 999.0]])
        probs = softmax_np(z)
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(), 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_temperature_rejected(self, bad):
        with pytest.raises(ValueError):
            softmax_np(np.ones((1, 2)), temperature=bad)
        with pytest.raises(ValueError):
            softmax(Tensor(np.ones((1, 2))), temperature=bad)
        with pytest.raises(ValueError):
            log_softmax(Tensor(np.ones((1, 2))), temperature=bad)

    def test_softmax_gradient_rows_sum_to_zero(self):
        x = Tensor(np.array([[0.3, -0.7, 1.2]]), requires_grad=True)
        softmax(x)[0, 0].backward()
        np.testing.assert_allclose(x.grad.sum(), 0.0, atol=1e-12)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_multidimensional(self):
        out = one_hot(np.array([[0, 1], [1, 0]]), 2)
        assert out.shape == (2, 2, 2)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones((2, 2)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)


class TestTopK:
    def test_orders_descending(self):
        scores = np.array([0.1, 0.5, 0.2, 0.9])
        np.testing.assert_array_equal(top_k_indices(scores, 3), [3, 1, 2])

    def test_k_larger_than_domain_clamped(self):
        scores = np.array([0.3, 0.1])
        np.testing.assert_array_equal(top_k_indices(scores, 10), [0, 1])

    @pytest.mark.parametrize("k", [-1, 0])
    def test_k_below_one_rejected(self, k):
        """A negative ``k`` used to return all but ``-k`` entries (6 of 7
        for ``k=-1``) and ``k=0`` none; both now raise on every path."""
        scores = np.linspace(0.0, 1.0, 7)
        for batch in (scores, scores[None], scores[None, None]):
            with pytest.raises(ValueError, match=f"k={k}"):
                top_k_indices(batch, k)

    def test_batched(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        np.testing.assert_array_equal(top_k_indices(scores, 1, axis=-1), [[1], [0]])

    @pytest.mark.parametrize("seed", range(40))
    def test_fast_path_matches_generic_path(self, seed):
        """1-D and 2-D last-axis input takes the slicing fast path; adding
        leading unit axes routes the same scores through the generic
        ``take_along_axis`` path.  Integer-valued scores force ties."""
        rng = np.random.default_rng(seed)
        rows, width = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        scores = rng.integers(0, 4, size=(rows, width)).astype(float)
        for k in (1, int(rng.integers(1, width + 1)), width, width + 3):
            fast = top_k_indices(scores, k)
            generic = top_k_indices(scores[None], k, axis=-1)[0]
            np.testing.assert_array_equal(fast, generic)
            assert fast.shape == (rows, min(k, width)) and fast.dtype == generic.dtype
            np.testing.assert_array_equal(
                top_k_indices(scores, k, axis=1), generic
            )
            row_fast = top_k_indices(scores[0], k)
            np.testing.assert_array_equal(
                row_fast, top_k_indices(scores[None, None, 0], k)[0, 0]
            )
            np.testing.assert_array_equal(row_fast, fast[0])

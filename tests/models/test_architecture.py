"""Unit tests for the NextLocationModel architecture."""

import numpy as np
import pytest

from repro.models import NextLocationModel
from repro.nn import Tensor


@pytest.fixture
def model(rng):
    return NextLocationModel(
        input_width=20, num_locations=7, hidden_size=12, num_layers=2, dropout=0.1, rng=rng
    )


class TestForward:
    def test_logit_shape(self, model):
        model.eval()
        out = model(Tensor(np.zeros((4, 2, 20))))
        assert out.shape == (4, 7)

    def test_surplus_lstm_changes_output(self, model, rng):
        model.eval()
        x = Tensor(np.ones((1, 2, 20)))
        before = model(x).numpy().copy()
        model.add_surplus_lstm(rng)
        model.eval()
        after = model(x).numpy()
        assert not np.allclose(before, after)

    def test_surplus_lstm_only_once(self, model, rng):
        model.add_surplus_lstm(rng)
        with pytest.raises(ValueError):
            model.add_surplus_lstm(rng)


class TestPrivacyControls:
    def test_temperature_scales_logits_in_eval(self, model):
        model.eval()
        x = Tensor(np.ones((1, 2, 20)))
        base = model(x).numpy().copy()
        model.set_privacy_temperature(0.5)
        scaled = model(x).numpy()
        np.testing.assert_allclose(scaled, base / 0.5, atol=1e-12)

    def test_temperature_ignored_in_train(self, model):
        model.set_privacy_temperature(0.01)
        model.train()
        # dropout makes outputs stochastic; compare against a no-dropout twin
        model.lstm.dropout_p = 0.0
        x = Tensor(np.ones((1, 2, 20)))
        a = model(x).numpy().copy()
        model.set_privacy_temperature(1.0)
        b = model(x).numpy()
        np.testing.assert_allclose(a, b)

    def test_privacy_temperature_property(self, model):
        model.set_privacy_temperature(1e-3)
        assert model.privacy_temperature == 1e-3


class TestInferenceMode:
    def test_fused_logits_ignore_and_keep_the_training_flag(self, model, rng):
        """The fused inference path has no dropout and always applies the
        temperature, so it gives the same bits in either mode — and leaves
        the module tree's mode as it found it."""
        model.add_surplus_lstm(rng)
        model.set_privacy_temperature(0.3)
        x = rng.integers(0, 2, size=(3, 2, 20)).astype(float)
        model.eval()
        in_eval = model.infer_logits(x)
        assert not model.training
        model.train()
        in_train = model.infer_logits(x)
        assert np.array_equal(in_train, in_eval)
        assert all(module.training for _, module in model.named_modules())

    def test_reference_backend_still_answers_in_eval_mode(self, model, rng):
        model.set_backend("reference")
        model.set_privacy_temperature(0.3)
        model.train()
        x = rng.integers(0, 2, size=(2, 2, 20)).astype(float)
        logits = model.infer_logits(x)
        assert not model.training
        np.testing.assert_array_equal(logits, model(Tensor(x)).numpy())


class TestCopy:
    def test_copy_preserves_weights_and_temperature(self, model, rng):
        model.set_privacy_temperature(0.25)
        clone = model.copy(rng)
        assert clone.privacy_temperature == 0.25
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_copy_is_independent(self, model, rng):
        clone = model.copy(rng)
        clone.head.weight.data[:] = 0.0
        assert not np.allclose(model.head.weight.data, 0.0)

    def test_copy_includes_surplus(self, model, rng):
        model.add_surplus_lstm(rng)
        clone = model.copy(rng)
        assert clone.extra is not None
        model.eval()
        clone.eval()
        x = Tensor(np.ones((1, 2, 20)))
        np.testing.assert_allclose(model(x).numpy(), clone(x).numpy())

    def test_clone_architecture_fresh_weights(self, model, rng):
        fresh = model.clone_architecture(np.random.default_rng(123))
        assert fresh.input_width == model.input_width
        assert not np.allclose(fresh.head.weight.data, model.head.weight.data)


class TestBackendPropagation:
    def test_surplus_lstm_inherits_backend(self, rng):
        from repro.models.architecture import NextLocationModel

        model = NextLocationModel(
            input_width=10, num_locations=4, hidden_size=6, num_layers=2,
            dropout=0.0, rng=rng,
        )
        model.set_backend("reference")
        model.add_surplus_lstm(rng)
        assert model.extra.backend == "reference"
        model.set_backend("fused")
        assert model.extra.backend == "fused" and model.lstm.backend == "fused"

    def test_copy_preserves_backend(self, rng):
        from repro.models.architecture import NextLocationModel
        import numpy as np

        model = NextLocationModel(
            input_width=10, num_locations=4, hidden_size=6, num_layers=2,
            dropout=0.0, rng=rng,
        )
        model.set_backend("reference")
        clone = model.copy(np.random.default_rng(0))
        assert clone.backend == "reference"

"""Unit tests for Pelican phases: cloud training, device personalization,
deployment, and updates."""

import numpy as np
import pytest

from repro.data import SpatialLevel
from repro.models import (
    GeneralModelConfig,
    NextLocationModel,
    NextLocationPredictor,
    PersonalizationConfig,
    PersonalizationMethod,
    personalize,
)
from repro.nn import Tensor, deserialize_state
from repro.pelican import (
    Channel,
    CloudTrainer,
    DevicePersonalizer,
    DeviceProfile,
    DeploymentMode,
    deploy_cloud,
    deploy_local,
    rebuild_general_model,
    update_personal_model,
)


@pytest.fixture(scope="module")
def cloud(tiny_corpus):
    trainer = CloudTrainer(GeneralModelConfig(hidden_size=16, epochs=3, patience=None), seed=1)
    pooled = tiny_corpus.contributor_dataset(SpatialLevel.BUILDING)
    train, _ = pooled.split_by_user(0.8)
    trainer.train(train)
    return trainer


@pytest.fixture(scope="module")
def personal(tiny_corpus, cloud):
    uid = tiny_corpus.personal_ids[0]
    train, test = tiny_corpus.user_dataset(uid, SpatialLevel.BUILDING).split(0.8)
    personalizer = DevicePersonalizer(
        PersonalizationConfig(epochs=3, patience=None), seed=2
    )
    model, report, seconds = personalizer.personalize(
        cloud.publish(), train, PersonalizationMethod.TL_FE, privacy_temperature=1e-3
    )
    return model, report, seconds, train, test


class TestCloudPhase:
    def test_training_report_populated(self, cloud):
        assert cloud.training_report is not None
        assert cloud.training_report.macs > 0
        assert cloud.training_report.estimated_billion_cycles > 0

    def test_publish_roundtrip(self, cloud):
        blob = cloud.publish()
        rebuilt = rebuild_general_model(blob, np.random.default_rng(0))
        for (_, a), (_, b) in zip(
            cloud.general_model.named_parameters(), rebuilt.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)

    def test_rebuild_keeps_onboarding_rng_stream(self, cloud, tiny_corpus):
        """The decoded checkpoint is memoized, yet the rebuilt model still
        draws its initial weights, so personalization sees the same stream."""
        blob = cloud.publish()
        uid = tiny_corpus.personal_ids[0]
        train, _ = tiny_corpus.user_dataset(uid, SpatialLevel.BUILDING).split(0.8)
        config = PersonalizationConfig(epochs=2, patience=None)

        def onboard(build):
            rng = np.random.default_rng(7)
            model, _ = personalize(build(rng), train, PersonalizationMethod.TL_FE, config, rng)
            return model.state_dict(), rng.bit_generator.state

        def decode_every_time(rng):
            state, meta = deserialize_state(blob)
            model = NextLocationModel(
                int(meta["input_width"]), int(meta["num_locations"]),
                int(meta["hidden_size"]), int(meta["num_layers"]),
                float(meta["dropout"]), rng,
            )
            model.load_state_dict(state)
            return model.eval()

        expected_state, expected_rng = onboard(decode_every_time)
        for _ in range(2):  # a cold decode, then a memo hit
            state, rng_state = onboard(lambda rng: rebuild_general_model(blob, rng))
            assert rng_state == expected_rng
            for name, value in expected_state.items():
                assert np.array_equal(state[name], value)

    def test_publish_before_training_rejected(self):
        trainer = CloudTrainer(GeneralModelConfig(epochs=1))
        with pytest.raises(RuntimeError):
            trainer.publish()


class TestDevicePhase:
    def test_privacy_attached_on_device(self, personal):
        model, _, _, _, _ = personal
        assert model.privacy_temperature == 1e-3

    def test_resource_report(self, personal):
        _, report, seconds, _, _ = personal
        assert report.macs > 0
        assert seconds == DeviceProfile().simulated_seconds(report.macs)

    def test_device_profile_scaling(self):
        fast = DeviceProfile(effective_gmacs_per_second=10.0)
        slow = DeviceProfile(effective_gmacs_per_second=1.0)
        assert slow.simulated_seconds(10**9) == 10 * fast.simulated_seconds(10**9)


class TestDeployment:
    def test_local_and_cloud_agree(self, tiny_corpus, personal):
        model, _, _, _, test = personal
        spec = tiny_corpus.spec(SpatialLevel.BUILDING)
        channel = Channel()
        local = deploy_local(model, spec)
        cloud_ep, upload_seconds = deploy_cloud(model, spec, channel, np.random.default_rng(0))
        assert upload_seconds > 0
        assert channel.bytes_up > 0
        history = test.windows[0].history
        assert local.top_k(history, 3) == cloud_ep.top_k(history, 3)
        assert local.mode == DeploymentMode.LOCAL
        assert cloud_ep.mode == DeploymentMode.CLOUD

    def test_cloud_preserves_privacy_temperature(self, tiny_corpus, personal):
        model, _, _, _, _ = personal
        spec = tiny_corpus.spec(SpatialLevel.BUILDING)
        endpoint, _ = deploy_cloud(model, spec, Channel(), np.random.default_rng(0))
        assert endpoint.predictor.model.privacy_temperature == model.privacy_temperature

    def test_query_stats_tracked(self, tiny_corpus, personal):
        model, _, _, _, test = personal
        spec = tiny_corpus.spec(SpatialLevel.BUILDING)
        endpoint = deploy_local(model, spec)
        endpoint.top_k(test.windows[0].history, 2)
        endpoint.confidences(test.windows[0].history)
        assert endpoint.stats.queries == 2

    def test_cloud_mode_requires_channel(self, tiny_corpus, personal):
        from repro.pelican.deployment import ServiceEndpoint

        model, _, _, _, _ = personal
        spec = tiny_corpus.spec(SpatialLevel.BUILDING)
        with pytest.raises(ValueError):
            ServiceEndpoint(NextLocationPredictor(model, spec), DeploymentMode.CLOUD, None)


class TestUpdates:
    def test_update_preserves_frozen_base(self, personal):
        model, _, _, train, test = personal
        result = update_personal_model(
            model, test, PersonalizationConfig(epochs=2, patience=None), np.random.default_rng(3)
        )
        updated = result.model
        # Frozen base LSTM: flags and values preserved.
        for name, param in updated.named_parameters():
            if name.startswith("lstm."):
                assert not param.requires_grad
        for (name, a), (_, b) in zip(
            model.named_parameters(), updated.named_parameters()
        ):
            if name.startswith("lstm."):
                np.testing.assert_array_equal(a.data, b.data)

    def test_update_changes_trainable_params(self, personal):
        model, _, _, _, test = personal
        result = update_personal_model(
            model, test, PersonalizationConfig(epochs=2, patience=None), np.random.default_rng(3)
        )
        changed = False
        for (name, a), (_, b) in zip(
            model.named_parameters(), result.model.named_parameters()
        ):
            if a.requires_grad and not np.allclose(a.data, b.data):
                changed = True
        assert changed
        assert result.report.macs > 0
        assert result.epochs_run >= 1

    def test_update_on_fully_frozen_model_rejected(self, personal, rng):
        model, _, _, _, test = personal
        frozen = model.copy(rng)
        frozen.freeze()
        with pytest.raises(ValueError):
            update_personal_model(
                frozen, test, PersonalizationConfig(epochs=1), np.random.default_rng(0)
            )

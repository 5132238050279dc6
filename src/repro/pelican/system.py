"""The Pelican orchestrator (paper Figure 4).

Ties the four phases together for a population of users:

1. cloud-based initial training of ``M_G``;
2. device-based personalization of ``M_P`` per user (with the privacy
   enhancement attached on device);
3. deployment, local or cloud;
4. periodic personal-model updates.

This is the per-user end-to-end entry point; each phase is also usable
standalone (``CloudTrainer``, ``DevicePersonalizer``, ...).  For serving
many users at once — batched query dispatch, the cloud model registry,
the deterministic event clock — layer :class:`repro.pelican.fleet.Fleet`
on top (DESIGN.md §7, ``examples/pelican_service.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import SequenceDataset
from repro.data.features import FeatureSpec, SessionFeatures
from repro.models.general import GeneralModelConfig
from repro.models.personalize import PersonalizationConfig, PersonalizationMethod
from repro.models.trunk import Trunk
from repro.pelican.cloud import CloudTrainer, ResourceReport
from repro.pelican.deployment import (
    DeploymentMode,
    ServiceEndpoint,
    deploy_cloud,
    deploy_local,
)
from repro.pelican.device import DevicePersonalizer, general_trunk
from repro.pelican.privacy import DEFAULT_PRIVACY_TEMPERATURE
from repro.pelican.transport import Channel
from repro.pelican.updates import update_personal_model


@dataclass
class PelicanConfig:
    """System-wide configuration."""

    general: GeneralModelConfig = field(default_factory=GeneralModelConfig)
    personalization: PersonalizationConfig = field(default_factory=PersonalizationConfig)
    method: PersonalizationMethod = PersonalizationMethod.TL_FE
    privacy_temperature: float = DEFAULT_PRIVACY_TEMPERATURE
    deployment: DeploymentMode = DeploymentMode.LOCAL
    seed: int = 0


@dataclass
class OnboardedUser:
    """A user with a deployed personal model."""

    user_id: int
    endpoint: ServiceEndpoint
    personalization_report: ResourceReport
    simulated_device_seconds: float
    local_dataset: SequenceDataset


class Pelican:
    """End-to-end privacy-preserving personalization framework."""

    def __init__(self, spec: FeatureSpec, config: Optional[PelicanConfig] = None) -> None:
        self.spec = spec
        self.config = config or PelicanConfig()
        self.cloud = CloudTrainer(self.config.general, seed=self.config.seed)
        self.channel = Channel()
        self._general_blob: Optional[bytes] = None
        #: The published general model's LSTM stack, read-only: every
        #: model this orchestrator deploys shares the cells that still
        #: equal it bit for bit, and its fleet's registry stores and
        #: cold-loads them by reference (DESIGN.md §7).  Built once per
        #: published checkpoint; shards that adopt the checkpoint
        #: (:meth:`adopt_general`) hold the same object.
        self.trunk: Optional[Trunk] = None
        self.users: Dict[int, OnboardedUser] = {}

    def adopt_general(self, lead: "Pelican") -> None:
        """Serve ``lead``'s published general model: its checkpoint, its
        trainer and its trunk (how a cluster's shards share one)."""
        self._general_blob = lead._general_blob
        self.trunk = lead.trunk
        self.cloud = lead.cloud

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Pelican":
        """A deep copy whose models keep sharing the read-only trunk.

        The trunk and its arrays go into ``memo`` first, so the copy holds
        the same :class:`Trunk` and every copied model points at its arrays
        as the originals do: the copy stays write-protected, holds no
        second trunk, and a tick over original and copied models still
        projects each trunk layer once.
        """
        trunk = self.trunk
        if trunk is not None:
            memo[id(trunk)] = trunk
            for array in trunk.arrays.values():
                memo[id(array)] = array
        copied = type(self).__new__(type(self))
        memo[id(self)] = copied
        for name, value in self.__dict__.items():
            setattr(copied, name, copy.deepcopy(value, memo))
        return copied

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def initial_training(self, contributor_dataset: SequenceDataset) -> ResourceReport:
        """Train and publish the general model in the cloud."""
        self.cloud.train(contributor_dataset)
        self._general_blob = self.cloud.publish()
        self.trunk = general_trunk(self._general_blob)
        assert self.cloud.training_report is not None
        return self.cloud.training_report

    # ------------------------------------------------------------------
    # Phases 2 & 3
    # ------------------------------------------------------------------
    def onboard_user(
        self,
        user_id: int,
        local_dataset: SequenceDataset,
        privacy_temperature: Optional[float] = None,
        method: Optional[PersonalizationMethod] = None,
        deployment: Optional[DeploymentMode] = None,
    ) -> OnboardedUser:
        """Personalize on device and deploy for one user.

        ``privacy_temperature`` is the user's privacy tuner (defaults to
        the system default; the value is never revealed to the provider).
        The device is a low-end phone, which only affects the
        simulated-seconds conversion.
        """
        if self._general_blob is None:
            raise RuntimeError("run initial_training before onboarding users")
        temperature = (
            self.config.privacy_temperature
            if privacy_temperature is None
            else privacy_temperature
        )
        self.channel.download(self._general_blob, label=f"general-model->user{user_id}")
        personalizer = DevicePersonalizer(
            self.config.personalization, seed=self.config.seed + user_id + 1
        )
        personal, report, device_seconds = personalizer.personalize(
            self._general_blob,
            local_dataset,
            method or self.config.method,
            privacy_temperature=temperature,
        )
        mode = deployment or self.config.deployment
        rng = np.random.default_rng(self.config.seed + user_id + 10_000)
        if mode == DeploymentMode.CLOUD:
            endpoint, _ = deploy_cloud(personal, self.spec, self.channel, rng)
        else:
            endpoint = deploy_local(personal, self.spec)
        self._share_trunk(endpoint)
        user = OnboardedUser(
            user_id=user_id,
            endpoint=endpoint,
            personalization_report=report,
            simulated_device_seconds=device_seconds,
            local_dataset=local_dataset,
        )
        self.users[user_id] = user
        return user

    def _share_trunk(self, endpoint: ServiceEndpoint) -> None:
        """Point the deployed model's cells that still equal the trunk at
        its read-only arrays (DESIGN.md §7)."""
        if self.trunk is not None:
            self.trunk.attach(endpoint.predictor.model)

    # ------------------------------------------------------------------
    # Service queries
    # ------------------------------------------------------------------
    def query(
        self, user_id: int, history: Sequence[SessionFeatures], k: int = 3
    ) -> List[Tuple[int, float]]:
        """Top-k next-location prediction for an onboarded user."""
        return self.users[user_id].endpoint.top_k(history, k)

    def query_batch(
        self,
        user_id: int,
        histories: Sequence[Sequence[SessionFeatures]],
        k: int = 3,
    ) -> List[List[Tuple[int, float]]]:
        """Batched top-k predictions for one user's concurrent queries.

        All windows are answered in one fused inference dispatch
        (:meth:`~repro.pelican.deployment.ServiceEndpoint.top_k_batch`);
        results are identical to calling :meth:`query` per window.  For
        multi-user batched serving use :class:`repro.pelican.fleet.Fleet`.
        """
        return self.users[user_id].endpoint.top_k_batch(histories, k)

    # ------------------------------------------------------------------
    # Phase 4
    # ------------------------------------------------------------------
    def update_user(self, user_id: int, new_dataset: SequenceDataset) -> OnboardedUser:
        """Incrementally refresh a user's personal model and redeploy."""
        user = self.users[user_id]
        rng = np.random.default_rng(self.config.seed + user_id + 20_000)
        result = update_personal_model(
            user.endpoint.predictor.model, new_dataset, self.config.personalization, rng
        )
        mode = user.endpoint.mode
        if mode == DeploymentMode.CLOUD:
            endpoint, _ = deploy_cloud(result.model, self.spec, self.channel, rng)
        else:
            endpoint = deploy_local(result.model, self.spec)
        self._share_trunk(endpoint)
        # The user keeps their query ledger across redeploys: an update
        # swaps the model behind the endpoint, it doesn't reset the books.
        endpoint.stats = user.endpoint.stats
        merged = SequenceDataset(
            spec=user.local_dataset.spec,
            windows=[*user.local_dataset.windows, *new_dataset.windows],
        )
        refreshed = OnboardedUser(
            user_id=user_id,
            endpoint=endpoint,
            personalization_report=result.report,
            simulated_device_seconds=user.simulated_device_seconds,
            local_dataset=merged,
        )
        self.users[user_id] = refreshed
        return refreshed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def overhead_summary(self) -> Dict[str, float]:
        """Cloud vs device compute, for the §V-C2 comparison."""
        cloud_report = self.cloud.training_report
        device_cycles = [
            u.personalization_report.estimated_billion_cycles for u in self.users.values()
        ]
        return {
            "cloud_billion_cycles": (
                cloud_report.estimated_billion_cycles if cloud_report else 0.0
            ),
            "cloud_wall_seconds": cloud_report.wall_seconds if cloud_report else 0.0,
            "device_mean_billion_cycles": float(np.mean(device_cycles)) if device_cycles else 0.0,
            "device_mean_simulated_seconds": (
                float(np.mean([u.simulated_device_seconds for u in self.users.values()]))
                if self.users
                else 0.0
            ),
            "channel_bytes_down": float(self.channel.bytes_down),
            "channel_bytes_up": float(self.channel.bytes_up),
        }

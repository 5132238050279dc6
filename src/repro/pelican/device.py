"""Phase 2 — device-based personalization (paper §V-A2).

The device downloads the general checkpoint, reconstructs the model, and
runs transfer learning on the user's *local* data — the sensitive traces
never leave the device.  A :class:`DeviceProfile` converts measured MACs
into simulated on-device seconds, mimicking the paper's low-end CPU
measurements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.data.dataset import SequenceDataset
from repro.models.architecture import NextLocationModel
from repro.models.personalize import (
    PersonalizationConfig,
    PersonalizationMethod,
    personalize,
)
from repro.nn.profiler import flop_counter
from repro.nn.serialization import deserialize_state
from repro.pelican.cloud import ResourceReport
from repro.pelican.privacy import apply_privacy


@dataclass(frozen=True)
class DeviceProfile:
    """Compute capability of the user's device.

    ``effective_gmacs_per_second`` loosely models a low-end mobile CPU
    running unoptimized training (the paper uses a 2.2 GHz CPU / 8 GB
    machine "to mimic a resource-constrained mobile device").
    """

    name: str = "low-end-phone"
    effective_gmacs_per_second: float = 2.0

    def simulated_seconds(self, macs: int) -> float:
        """Convert a MAC count into simulated seconds on this hardware."""
        return macs / (self.effective_gmacs_per_second * 1e9)


# Hardware presets used by the fleet layer (DESIGN.md §7) to attribute
# simulated seconds per side.  The numbers are deliberately coarse — only
# the relative magnitudes matter for the reproduced comparisons.
LOW_END_PHONE = DeviceProfile()
FLAGSHIP_PHONE = DeviceProfile(name="flagship-phone", effective_gmacs_per_second=8.0)
CLOUD_SERVER = DeviceProfile(name="cloud-server", effective_gmacs_per_second=64.0)


@functools.lru_cache(maxsize=4)
def _decode_general(blob: bytes) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    # A published general checkpoint is immutable and every onboard reads
    # the same one.  ``load_state_dict`` copies, so the decoded arrays are
    # shared read-only.
    state, metadata = deserialize_state(blob)
    for array in state.values():
        array.setflags(write=False)
    return state, metadata


def rebuild_general_model(blob: bytes, rng: np.random.Generator) -> NextLocationModel:
    """Reconstruct the general model from a published checkpoint.

    The checkpoint is decoded once per blob; the model is still built from
    ``rng``, so the initial-weight draws advance it as before.
    """
    state, metadata = _decode_general(blob)
    model = NextLocationModel(
        input_width=int(metadata["input_width"]),
        num_locations=int(metadata["num_locations"]),
        hidden_size=int(metadata["hidden_size"]),
        num_layers=int(metadata["num_layers"]),
        dropout=float(metadata["dropout"]),
        rng=rng,
    )
    model.load_state_dict(state)
    model.eval()
    return model


class DevicePersonalizer:
    """Runs transfer-learning personalization on the user's device."""

    def __init__(
        self,
        config: PersonalizationConfig,
        profile: DeviceProfile | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.profile = profile or DeviceProfile()
        self.seed = seed

    def personalize(
        self,
        general_blob: bytes,
        local_dataset: SequenceDataset,
        method: PersonalizationMethod,
        privacy_temperature: Optional[float] = None,
    ) -> Tuple[NextLocationModel, ResourceReport, float]:
        """Personalize from a downloaded checkpoint on local data.

        Returns ``(personal_model, compute_report, simulated_device_seconds)``.
        The privacy enhancement (if a temperature is supplied) is attached
        here, on-device, before any deployment.
        """
        rng = np.random.default_rng(self.seed)
        with flop_counter() as counter:
            general = rebuild_general_model(general_blob, rng)
            personal, _ = personalize(general, local_dataset, method, self.config, rng)
        if privacy_temperature is not None:
            apply_privacy(personal, privacy_temperature)
        report = ResourceReport.from_counter(counter)
        return personal, report, self.profile.simulated_seconds(report.macs)

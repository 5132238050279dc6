"""Open-loop traffic generation (DESIGN.md §15).

Every serving layer so far is driven by hand-built
:class:`~repro.pelican.clock.FleetSchedule`\\ s — "heavy traffic" is a
schedule file, not a measured scenario.  This module compiles a *traffic
model* into a schedule instead: seeded Poisson arrivals per simulated
device, diurnal rate curves, flash-crowd bursts, and onboard/update
churn.  The output is an ordinary ``FleetSchedule``, so generated load
flows through every existing axis (chaos, resilience, shards, blob
stores) unchanged, and through the service front door
(:mod:`repro.pelican.service`) for admission control and latency
accounting.

The generator is **open-loop**: arrival times never depend on how fast
the system answers, which is the standard discipline for latency
measurement (closed-loop clients hide queueing delay by slowing down
with the server).

Determinism contract — the same one chaos and resilience draws follow:
every random decision comes from ``default_rng((seed, stream, *keys))``
with stream ids disjoint from the chaos layer's 1–6 and the resilience
layer's 7–9.  Arrival streams are keyed per ``(user, device)``, flash
streams per ``(crowd, user, device)``, update draws per ``user`` — so

* the same config compiles to the *identical* schedule every time;
* changing one regime entry's knobs only changes events of the users
  assigned to that entry (other users' streams never see the change);
* adding a flash crowd adds events strictly inside its window and
  leaves every base arrival bit-identical.

"Users" here are the onboarded personal users; ``devices_per_user``
multiplexes each user over that many independently-arriving simulated
devices, which is how a small trained population stands in for a large
request population without retraining anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.pelican.clock import FleetSchedule
from repro.pelican.deployment import DeploymentMode

# Stable stream ids for per-decision RNG derivation, disjoint from the
# chaos layer's 1–6 and the resilience layer's 7–9.  Never renumber:
# committed golden runs depend on them.
_STREAM_ARRIVALS = 21
_STREAM_FLASH = 22
_STREAM_UPDATES = 23

# Event-kind ranks used to break exact time ties during compilation, so
# the schedule's seq assignment is a pure function of the config.
_RANK_ONBOARD = 0
_RANK_UPDATE = 1
_RANK_QUERY = 2


@dataclass(frozen=True)
class RegimeTraffic:
    """Arrival model for one slice of the user population.

    ``regime`` names the :data:`~repro.data.regimes.REGIMES` mobility
    preset this traffic slice represents (informational — the corpus
    decides actual mobility; the name keys flash-crowd targeting and
    reporting).  ``rate`` is the mean arrivals per device per simulated
    second; the diurnal knobs modulate it sinusoidally:
    ``rate(t) = rate * (1 + amplitude * sin(2π(t/period + phase)))``,
    clipped at zero.  ``amplitude == 0`` or ``period == 0`` keeps the
    rate flat.
    """

    regime: str = "campus"
    rate: float = 0.02
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 0.0
    diurnal_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("arrival rate must be >= 0")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1]")

    def rate_at(self, t: float) -> float:
        """The instantaneous arrival rate at traffic time ``t``."""
        if self.diurnal_amplitude <= 0.0 or self.diurnal_period <= 0.0:
            return self.rate
        modulated = self.rate * (
            1.0
            + self.diurnal_amplitude
            * math.sin(2.0 * math.pi * (t / self.diurnal_period + self.diurnal_phase))
        )
        return max(0.0, modulated)

    @property
    def rate_max(self) -> float:
        """Upper envelope of :meth:`rate_at` (the thinning proposal rate)."""
        if self.diurnal_amplitude <= 0.0 or self.diurnal_period <= 0.0:
            return self.rate
        return self.rate * (1.0 + self.diurnal_amplitude)


@dataclass(frozen=True)
class FlashCrowd:
    """A burst of extra traffic inside one time window.

    An independent homogeneous Poisson stream at ``rate`` extra arrivals
    per device per second, superposed on the base process for every
    device whose regime entry's name is in ``regimes`` (empty = all).
    Burst arrivals fall strictly inside ``(start, start + duration)`` in
    traffic time, and superposition means the base arrivals are
    bit-identical with or without the crowd.
    """

    start: float
    duration: float
    rate: float
    regimes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("flash-crowd duration must be > 0")
        if self.rate <= 0:
            raise ValueError("flash-crowd rate must be > 0")

    def applies_to(self, regime: str) -> bool:
        return not self.regimes or regime in self.regimes


@dataclass(frozen=True)
class TrafficConfig:
    """One compilable traffic model.

    ``horizon`` is the length of the arrival window in simulated
    seconds (traffic time ``[0, horizon)``).  With
    ``include_onboards`` the compiled schedule first onboards every
    user — one event every ``onboard_spacing`` seconds, alternating
    cloud/local deployment like the fleet workload builder — and the
    whole arrival window shifts past the last onboard, so no query ever
    precedes its user's onboarding.  ``update_prob`` gives each user an
    independent seeded chance of one mid-run incremental update (churn).
    """

    seed: int = 0
    horizon: float = 600.0
    regimes: Tuple[RegimeTraffic, ...] = (RegimeTraffic(),)
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    devices_per_user: int = 1
    include_onboards: bool = False
    onboard_spacing: float = 10.0
    update_prob: float = 0.0
    k: int = 3

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("traffic horizon must be > 0")
        if not self.regimes:
            raise ValueError("at least one RegimeTraffic entry is required")
        if self.devices_per_user < 1:
            raise ValueError("devices_per_user must be >= 1")
        if not 0.0 <= self.update_prob <= 1.0:
            raise ValueError("update_prob must be in [0, 1]")


class TrafficGenerator:
    """Compiles a :class:`TrafficConfig` into a :class:`FleetSchedule`.

    Stateless between calls: :meth:`compile` is a pure function of the
    config and its inputs, so the same seed always yields the identical
    schedule (times, payload choices, and seq assignment included).
    """

    def __init__(self, config: TrafficConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def assignments(self, user_ids: Sequence[int]) -> Dict[int, RegimeTraffic]:
        """Partition users across the config's regime entries.

        Assignment is by sorted position (round-robin), independent of
        any entry's knob values — so tweaking one regime's rate can
        never reassign another regime's users.
        """
        entries = self.config.regimes
        return {
            uid: entries[i % len(entries)]
            for i, uid in enumerate(sorted(user_ids))
        }

    def horizon_start(self, num_users: int) -> float:
        """Traffic time 0 in schedule time: past the onboard ramp."""
        if not self.config.include_onboards:
            return 0.0
        return num_users * self.config.onboard_spacing

    # ------------------------------------------------------------------
    def compile(
        self,
        windows: Mapping[int, Sequence[Any]],
        onboard_data: Optional[Mapping[int, Any]] = None,
        update_data: Optional[Mapping[int, Any]] = None,
    ) -> FleetSchedule:
        """Compile the traffic model over a user population.

        ``windows`` maps each user id to its pool of query payloads
        (history tuples — typically the user's held-out windows); each
        arrival draws one from its own stream.  ``onboard_data`` /
        ``update_data`` map user ids to the datasets lifecycle events
        carry; they are required exactly when ``include_onboards`` /
        ``update_prob > 0`` ask for those events.
        """
        cfg = self.config
        user_ids = sorted(windows)
        if not user_ids:
            raise ValueError("compile needs at least one user")
        for uid in user_ids:
            if not len(windows[uid]):
                raise ValueError(f"user {uid} has no query payload windows")
        if cfg.include_onboards and onboard_data is None:
            raise ValueError("include_onboards=True needs onboard_data")
        if cfg.update_prob > 0 and update_data is None:
            raise ValueError("update_prob > 0 needs update_data")

        assigned = self.assignments(user_ids)
        start = self.horizon_start(len(user_ids))
        # (time, rank, user, device, ordinal, emit) rows; the key makes
        # the sort — and therefore seq assignment — total and config-pure.
        rows: List[Tuple[float, int, int, int, int, Any]] = []

        if cfg.include_onboards:
            for i, uid in enumerate(user_ids):
                mode = DeploymentMode.CLOUD if i % 2 else DeploymentMode.LOCAL
                rows.append(
                    (
                        i * cfg.onboard_spacing,
                        _RANK_ONBOARD,
                        uid,
                        0,
                        0,
                        ("onboard", onboard_data[uid], mode),
                    )
                )

        for uid in user_ids:
            entry = assigned[uid]
            pool = windows[uid]
            for device in range(cfg.devices_per_user):
                for ordinal, (t, history) in enumerate(
                    self._device_arrivals(entry, uid, device, pool)
                ):
                    rows.append(
                        (start + t, _RANK_QUERY, uid, device, ordinal, ("query", history))
                    )
                for crowd_index, crowd in enumerate(cfg.flash_crowds):
                    if not crowd.applies_to(entry.regime):
                        continue
                    for ordinal, (t, history) in enumerate(
                        self._flash_arrivals(crowd, crowd_index, uid, device, pool)
                    ):
                        rows.append(
                            (
                                start + t,
                                _RANK_QUERY,
                                uid,
                                device,
                                # Disjoint ordinal space per crowd keeps the
                                # sort key unique against base arrivals.
                                (crowd_index + 1) * 1_000_000 + ordinal,
                                ("query", history),
                            )
                        )

        if cfg.update_prob > 0:
            for uid in user_ids:
                rng = np.random.default_rng((cfg.seed, _STREAM_UPDATES, uid))
                if rng.random() < cfg.update_prob:
                    rows.append(
                        (
                            start + float(rng.uniform(0.0, cfg.horizon)),
                            _RANK_UPDATE,
                            uid,
                            0,
                            0,
                            ("update", update_data[uid]),
                        )
                    )

        rows.sort(key=lambda row: row[:5])
        schedule = FleetSchedule()
        for time, _rank, uid, _device, _ordinal, emit in rows:
            if emit[0] == "query":
                schedule.query(time, uid, emit[1], k=cfg.k)
            elif emit[0] == "update":
                schedule.update(time, uid, emit[1])
            else:
                schedule.onboard(time, uid, emit[1], deployment=emit[2])
        return schedule

    # ------------------------------------------------------------------
    def _device_arrivals(
        self,
        entry: RegimeTraffic,
        user_id: int,
        device: int,
        pool: Sequence[Any],
    ) -> List[Tuple[float, Any]]:
        """Base arrivals of one device: a thinned Poisson process.

        Non-homogeneous rates sample by thinning against the
        ``rate_max`` envelope: propose homogeneous arrivals at
        ``rate_max``, accept each with probability
        ``rate_at(t) / rate_max``.  With a flat rate every proposal is
        accepted (the acceptance draw is still consumed, keeping the
        stream layout identical across amplitudes).  The payload window
        is drawn from the *same* stream right after acceptance, so a
        device's arrivals are one self-contained draw sequence.
        """
        cfg = self.config
        rate_max = entry.rate_max
        if rate_max <= 0.0:
            return []
        rng = np.random.default_rng((cfg.seed, _STREAM_ARRIVALS, user_id, device))
        arrivals: List[Tuple[float, Any]] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_max))
            if t >= cfg.horizon:
                break
            if float(rng.random()) * rate_max <= entry.rate_at(t):
                arrivals.append((t, pool[int(rng.integers(0, len(pool)))]))
        return arrivals

    def _flash_arrivals(
        self,
        crowd: FlashCrowd,
        crowd_index: int,
        user_id: int,
        device: int,
        pool: Sequence[Any],
    ) -> List[Tuple[float, Any]]:
        """One device's share of a flash crowd: homogeneous arrivals
        strictly inside the crowd window, from the crowd's own stream —
        superposition leaves base arrivals untouched."""
        cfg = self.config
        rng = np.random.default_rng(
            (cfg.seed, _STREAM_FLASH, crowd_index, user_id, device)
        )
        arrivals: List[Tuple[float, Any]] = []
        t = crowd.start
        end = crowd.start + crowd.duration
        while True:
            t += float(rng.exponential(1.0 / crowd.rate))
            if t >= end:
                break
            arrivals.append((t, pool[int(rng.integers(0, len(pool)))]))
        return arrivals

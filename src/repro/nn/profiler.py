"""FLOP accounting for the overhead experiments (paper §V-C2).

The paper reports the cost of cloud-based general-model training versus
device-based personalization in *CPU cycles* (≈43,000 billion vs ≈15 billion)
and wall-clock time.  We cannot reproduce the authors' hardware, so we count
multiply-accumulate operations (MACs) — the dominant cost of LSTM training —
and convert them to cycle estimates with a configurable cycles-per-MAC
factor.  Ratios between phases are hardware independent, which is what the
paper's claim rests on.

Counting happens at two boundaries: the autograd engine reports every
:class:`Tensor` matmul via :func:`record_matmul`, and the fused LSTM
kernels (which run GEMMs directly on numpy arrays, bypassing the tensor
graph) report each GEMM via :func:`record_gemm`.  Each backend reports
the GEMMs it actually executes: on a workload where nothing is skippable
the totals are identical, while the fused path's dead-gradient/zero-state
skips (DESIGN.md §3) honestly show up as smaller counts.

Usage::

    with flop_counter() as counter:
        model.fit(...)
    print(counter.macs, counter.estimated_cycles())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

# A conservative cycles-per-MAC estimate for unvectorized scalar math on a
# commodity CPU.  Only ratios matter for the reproduction; the constant makes
# absolute numbers land in a plausible range.
DEFAULT_CYCLES_PER_MAC = 4.0

_ACTIVE_COUNTERS: List["FlopCounter"] = []


@dataclass
class FlopCounter:
    """Accumulates multiply-accumulate counts and wall-clock time."""

    macs: int = 0
    matmul_calls: int = 0
    started_at: float = field(default_factory=time.perf_counter)
    stopped_at: float | None = None

    def add_matmul(self, a_shape: Tuple[int, ...], b_shape: Tuple[int, ...]) -> None:
        """Record a ``a @ b`` call.

        For shapes ``(..., m, k) @ (..., k, n)`` the MAC count is
        ``batch * m * k * n``; vector operands are treated as 1-row/column
        matrices.
        """
        if len(a_shape) == 1 and len(b_shape) == 1:
            self.macs += a_shape[0]
        elif len(a_shape) == 1:
            self.macs += a_shape[0] * b_shape[-1]
        elif len(b_shape) == 1:
            self.macs += a_shape[-2] * a_shape[-1]
        else:
            batch = 1
            for dim in a_shape[:-2]:
                batch *= dim
            self.macs += batch * a_shape[-2] * a_shape[-1] * b_shape[-1]
        self.matmul_calls += 1

    def add_gemm(self, m: int, k: int, n: int, batch: int = 1) -> None:
        """Record one ``(batch, m, k) @ (k, n)`` GEMM by its dimensions.

        Used by the fused LSTM kernels, which perform matmuls directly on
        numpy arrays and therefore bypass the :class:`Tensor` matmul
        boundary.  When nothing is skippable the fused and reference paths
        report identical MAC totals (asserted in the fused-LSTM test
        suite); where the fused path skips dead GEMMs it reports the
        smaller count it actually executed.
        """
        self.macs += batch * m * k * n
        self.matmul_calls += 1

    def stop(self) -> None:
        self.stopped_at = time.perf_counter()

    @property
    def elapsed_seconds(self) -> float:
        end = self.stopped_at if self.stopped_at is not None else time.perf_counter()
        return end - self.started_at

    def estimated_cycles(self, cycles_per_mac: float = DEFAULT_CYCLES_PER_MAC) -> float:
        """Estimate CPU cycles consumed, counting forward MACs only."""
        return self.macs * cycles_per_mac

    def estimated_billion_cycles(self, cycles_per_mac: float = DEFAULT_CYCLES_PER_MAC) -> float:
        return self.estimated_cycles(cycles_per_mac) / 1e9


def record_matmul(a_shape: Tuple[int, ...], b_shape: Tuple[int, ...]) -> None:
    """Called by the autograd engine on every matmul; cheap when inactive."""
    for counter in _ACTIVE_COUNTERS:
        counter.add_matmul(a_shape, b_shape)


def record_gemm(m: int, k: int, n: int, batch: int = 1) -> None:
    """Called by fused kernels on every GEMM they issue; cheap when inactive."""
    for counter in _ACTIVE_COUNTERS:
        counter.add_gemm(m, k, n, batch)


@contextmanager
def flop_counter() -> Iterator[FlopCounter]:
    """Context manager that counts MACs executed inside its body."""
    counter = FlopCounter()
    _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        counter.stop()
        _ACTIVE_COUNTERS.remove(counter)


@contextmanager
def paused() -> Iterator[None]:
    """Book nothing inside the body.

    For a memo kept across training steps (the frozen layer 0 of
    :func:`repro.nn.fused.train_step`): building it books nothing, and
    each step books the GEMMs of the per-step forward it replaces, since
    the modelled device cost is per step (DESIGN.md §6).
    """
    saved = _ACTIVE_COUNTERS[:]
    _ACTIVE_COUNTERS.clear()
    try:
        yield
    finally:
        _ACTIVE_COUNTERS[:] = saved

"""Cross-model weight stacks for batched serving (DESIGN.md §12).

A cloud tick that touches hundreds of personal models pays one Python
dispatch per model even after per-model batching (§7).  Same-shaped
personal models — the overwhelmingly common case, since every user
personalizes from the same general architecture — can instead have their
weights stacked along a leading model axis and served by the stacked
inference kernels (:func:`repro.nn.fused.stacked_infer_last`) in a
handful of batched GEMMs per tick.

This module owns the weight-side state of that path:

* :func:`stack_key` — the shape/dtype identity under which models may
  share a stack.  Models whose key differs (mid-migration dtype, a
  SCRATCH user's different hidden size, a TL-FE surplus layer) never
  mix; the dispatcher routes them through the per-model path instead.
* :class:`WeightStack` — one growable stack per key: per-layer
  ``W_ih``/``W_hh``/bias blocks, the head projection, and the privacy
  temperature, with one row per user.  Rows are copied in once and
  reused until invalidated.
* :class:`WeightStackCache` — the per-registry collection of stacks,
  with the single invalidation entry point the
  :class:`~repro.pelican.registry.ModelRegistry` coherence hooks call.

The cache is a pure performance structure: it holds *copies* of weight
values, does no accounting, and never appears in any report signature.
Coherence is the registry's job — every transition that replaces or
drops a live model (register on onboard/update, explicit evict,
LRU eviction) invalidates the user's rows, so a stale stack row can
never outlive the model state it was copied from (DESIGN.md §12).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.architecture import NextLocationModel

#: Identity under which models may share one stack: weight dtype, the
#: (input, hidden) size of every LSTM cell (surplus layer included, so a
#: TL-FE model never mixes with a plain one), and the head shape.
StackKey = Tuple[np.dtype, Tuple[Tuple[int, int], ...], Tuple[int, int]]


def stack_key(model: NextLocationModel) -> Optional[StackKey]:
    """The stack identity of ``model``, or ``None`` if it cannot stack.

    Only fused-backend models are eligible: the reference backend answers
    through the autograd graph, which has no stacked equivalent — those
    models keep the per-model path (DESIGN.md §12 bypass list).
    """
    if model.backend != "fused":
        return None
    cells = list(model.lstm.cells)
    if model.extra is not None:
        cells += list(model.extra.cells)
    return (
        model.head.weight.data.dtype,
        tuple((cell.input_size, cell.hidden_size) for cell in cells),
        model.head.weight.data.shape,
    )


class WeightStack:
    """Stacked weights of every cached user under one :func:`stack_key`.

    Storage is a set of preallocated blocks with a leading row axis that
    doubles on growth (amortized O(1) onboarding):  per LSTM cell
    ``w_ih (R, F, 4H)`` / ``w_hh (R, H, 4H)`` / ``bias (R, 4H)``, plus
    ``head_w (R, H, L)``, ``head_b (R, L)`` and the per-user privacy
    temperature ``temps (R,)``.  ``rows`` maps user id → row;
    invalidated rows go on a free list and are re-filled by the next
    :meth:`ensure`.
    """

    def __init__(self, key: StackKey) -> None:
        self.key = key
        self.dtype = key[0]
        self.cell_sizes = key[1]
        self.head_shape = key[2]
        self.rows: Dict[int, int] = {}
        self._free: List[int] = []
        self._capacity = 0
        self._w_ih: List[np.ndarray] = []
        self._w_hh: List[np.ndarray] = []
        self._bias: List[np.ndarray] = []
        self._head_w: Optional[np.ndarray] = None
        self._head_b: Optional[np.ndarray] = None
        self._temps: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.rows)

    def _grow(self, capacity: int) -> None:
        H_top, L = self.head_shape
        if not self._capacity:
            self._w_ih = [
                np.empty((capacity, f, 4 * h), dtype=self.dtype)
                for f, h in self.cell_sizes
            ]
            self._w_hh = [
                np.empty((capacity, h, 4 * h), dtype=self.dtype)
                for _, h in self.cell_sizes
            ]
            self._bias = [
                np.empty((capacity, 4 * h), dtype=self.dtype)
                for _, h in self.cell_sizes
            ]
            self._head_w = np.empty((capacity, H_top, L), dtype=self.dtype)
            self._head_b = np.empty((capacity, L), dtype=self.dtype)
            self._temps = np.empty((capacity,), dtype=self.dtype)
        else:
            grow = lambda a: np.concatenate(  # noqa: E731
                [a, np.empty((capacity - a.shape[0],) + a.shape[1:], dtype=a.dtype)]
            )
            self._w_ih = [grow(a) for a in self._w_ih]
            self._w_hh = [grow(a) for a in self._w_hh]
            self._bias = [grow(a) for a in self._bias]
            self._head_w = grow(self._head_w)
            self._head_b = grow(self._head_b)
            self._temps = grow(self._temps)
        self._capacity = capacity

    def ensure(self, user_id: int, model: NextLocationModel) -> int:
        """The user's row, copying the model's weights in if absent.

        A present row is trusted as-is — the registry coherence hooks
        guarantee any replaced/dropped model already invalidated it — so
        the steady-state cost per group is one dict lookup.
        """
        row = self.rows.get(user_id)
        if row is not None:
            return row
        if self._free:
            row = self._free.pop()
        else:
            row = len(self.rows)
            if row >= self._capacity:
                self._grow(max(4, 2 * self._capacity))
        cells = list(model.lstm.cells)
        if model.extra is not None:
            cells += list(model.extra.cells)
        for layer, cell in enumerate(cells):
            self._w_ih[layer][row] = cell.weight_ih.data
            self._w_hh[layer][row] = cell.weight_hh.data
            self._bias[layer][row] = cell.bias.data
        self._head_w[row] = model.head.weight.data
        self._head_b[row] = model.head.bias.data
        # Stored as data so the head stage always divides: x / 1.0 is
        # IEEE-exact, keeping no-privacy models bit-identical.
        self._temps[row] = model.privacy.temperature
        self.rows[user_id] = row
        return row

    def invalidate(self, user_id: int) -> bool:
        """Drop the user's row (next :meth:`ensure` recopies); True if held."""
        row = self.rows.pop(user_id, None)
        if row is None:
            return False
        self._free.append(row)
        return True

    def gather(
        self, rows: Sequence[int]
    ) -> Tuple[
        List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        np.ndarray,
        np.ndarray,
        np.ndarray,
    ]:
        """The stacked parameter views/copies for ``rows``, in order.

        Returns ``(layers, head_w, head_b, temps)`` shaped for
        :func:`~repro.nn.fused.stacked_infer_last`.  A contiguous
        ascending row run — the warm steady state, since rows are
        assigned in first-touch order — is served as zero-copy slices;
        anything else (free-list reuse, interleaved invalidations,
        duplicate users) falls back to a fancy-index gather copy.
        """
        first, n = rows[0], len(rows)
        if all(rows[i] == first + i for i in range(n)):
            sel = slice(first, first + n)
        else:
            sel = np.asarray(rows)
        layers = [
            (self._w_ih[layer][sel], self._w_hh[layer][sel], self._bias[layer][sel])
            for layer in range(len(self.cell_sizes))
        ]
        return layers, self._head_w[sel], self._head_b[sel], self._temps[sel]


class WeightStackCache:
    """All of one registry's weight stacks, keyed by :func:`stack_key`."""

    def __init__(self) -> None:
        self._stacks: Dict[StackKey, WeightStack] = {}

    def stack_for(self, key: StackKey) -> WeightStack:
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = WeightStack(key)
        return stack

    def invalidate(self, user_id: int) -> None:
        """Drop the user's rows in every stack (shape may have changed)."""
        for stack in self._stacks.values():
            stack.invalidate(user_id)

    def __len__(self) -> int:
        return len(self._stacks)

    def stacks(self) -> List[WeightStack]:
        return list(self._stacks.values())

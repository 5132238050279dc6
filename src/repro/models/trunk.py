"""The shared frozen trunk of transfer-learned models (DESIGN.md §7).

In TL-FE (paper Fig 1b) every personal model is the published general
LSTM stack, frozen, plus its own surplus layer and head.  A
:class:`Trunk` is one read-only copy of that stack, derived from the
published checkpoint; every model the orchestrator deploys points the
main-stack cells that still equal it bit for bit at the trunk's arrays
instead of holding a private copy (registry cold loads keep copying).
Sharing is decided by weight bits alone: a TL-FE model shares its whole
stack, a TL-FT model its frozen layer 0, and a model whose weights moved
keeps its own arrays.

The tick kernel (:func:`repro.nn.fused._layer_forward`) then sees the
same ``w_ih``/``bias`` objects across a bucket's groups and projects a
trunk layer once for all of them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.nn import Module

#: The arrays of one LSTM cell, in :meth:`Module.named_parameters` order.
_CELL_PARAMS = ("weight_ih", "weight_hh", "bias")


#: The integer type each float width is compared as.
_BITS = {2: np.int16, 4: np.int32, 8: np.int64}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` and ``b`` have one dtype and shape and equal bits.

    Compared as integer views, so ``-0.0`` differs from ``0.0`` and a NaN
    equals only the same NaN payload: sharing must never change a value.
    """
    if a is b:
        return True
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    as_int = _BITS.get(a.itemsize, np.uint8)
    return bool((a.view(as_int) == b.view(as_int)).all())


class Trunk:
    """One published general checkpoint's main LSTM stack, read-only.

    ``state`` is the checkpoint's state dict; the ``lstm.*`` arrays are
    kept (not copied) and made read-only, so writing to or training a
    shared array raises.
    """

    def __init__(self, state: Mapping[str, np.ndarray]) -> None:
        self.arrays: Dict[str, np.ndarray] = {
            name: array for name, array in state.items() if name.startswith("lstm.")
        }
        for array in self.arrays.values():
            array.setflags(write=False)
        prefixes = dict.fromkeys(name.rsplit(".", 1)[0] for name in self.arrays)
        self._cells: List[Tuple[str, ...]] = [
            tuple(f"{prefix}.{param}" for param in _CELL_PARAMS) for prefix in prefixes
        ]

    def matching(self, state: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """The trunk's arrays for every cell whose three arrays in
        ``state`` equal the trunk's bit for bit, keyed by name."""
        shared: Dict[str, np.ndarray] = {}
        for names in self._cells:
            if all(
                name in state and same_bits(state[name], self.arrays[name])
                for name in names
            ):
                shared.update((name, self.arrays[name]) for name in names)
        return shared

    def attach(self, model: Module) -> None:
        """Point ``model``'s cells that equal the trunk at its arrays; the
        rest keep their private arrays."""
        params = dict(model.named_parameters())
        matched = self.matching({name: p.data for name, p in params.items()})
        for name, array in matched.items():
            params[name].data = array

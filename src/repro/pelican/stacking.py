"""Shape identity of servable models: the tick kernel's bucket key
(DESIGN.md §7).

Same-shaped personal models — the overwhelmingly common case, since
every user personalizes from the same general architecture — share one
:func:`stack_key`.  :func:`~repro.pelican.dispatch.dispatch_tick`
buckets a flush's groups by it, and
:func:`~repro.pelican.dispatch.group_macs` books each group's MACs from
its shapes.  Models whose key differs (mid-migration dtype, a SCRATCH
user's different hidden size, a TL-FE surplus layer) never share a
bucket.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.models.architecture import NextLocationModel

#: Identity under which models may share one kernel bucket: weight
#: dtype, the (input, hidden) size of every LSTM cell (surplus layer
#: included, so a TL-FE model never mixes with a plain one), and the
#: head shape.
StackKey = Tuple[np.dtype, Tuple[Tuple[int, int], ...], Tuple[int, int]]


def stack_key(model: NextLocationModel) -> Optional[StackKey]:
    """The bucket identity of ``model``, or ``None`` if the tick kernel
    cannot serve it.

    Only fused-backend models are eligible: the reference backend answers
    through the autograd graph, so those models keep the per-model path.
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


def stacked_path_removed(*args, **kwargs):
    """Stand-in for the deleted cross-model stacked dispatch (DESIGN.md §12)."""
    raise RuntimeError("the stacked dispatch path was removed (DESIGN.md §12)")


# perfbench/tracing.py wraps repro.pelican.stacking.WeightStack.gather,
# repro.pelican.dispatch.stacked_infer_last and
# repro.pelican.fleet.dispatch_stacked_tick by name, so those names must
# keep resolving until the benchmark drops the sites.  Nothing calls them.
stacked_path_removed.gather = stacked_path_removed
WeightStack = stacked_path_removed

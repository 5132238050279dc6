"""Fused LSTM execution path: batched forward, hand-written BPTT (DESIGN.md §3).

The reference :class:`~repro.nn.lstm.LSTMCell` builds ~15 tiny autograd
nodes per cell step in a per-timestep, per-layer Python loop.  That is
exact but slow: every training step, inversion-attack iteration, and
batched black-box query pays Python dispatch and graph bookkeeping on the
hot path.

This module replaces the interpreted graph with a *single* autograd node
per LSTM call:

* :func:`lstm_forward` processes a whole ``(batch, seq, features)`` block
  layer by layer.  The input projection ``x @ W_ih`` is hoisted out of the
  time loop and computed for all timesteps in one GEMM; the recurrence
  keeps one small GEMM per step.  Gate activations and cell states are
  cached for the backward pass, and inter-layer dropout masks are drawn
  inside the kernel (same generator consumption order as the reference
  path, so seeded runs agree across backends).
* :func:`lstm_backward` is a hand-written backpropagation-through-time
  that returns gradients for the weights, the initial state, **and the
  input sequence** — the gradient-descent inversion attack (paper §III-B)
  differentiates with respect to model inputs, so input gradients are not
  optional.
* :func:`lstm_infer_last` is the graph-free inference kernel for
  black-box attack queries and evaluation: no caches, no autograd node,
  just numpy.  :func:`grouped_infer_logits` answers many models' query
  groups of a serving tick in one call.
* :func:`train_step` is the graph-free training step of an LSTM stack
  plus linear head: the forward, the closed-form loss gradient and
  :func:`lstm_backward`, bit-identical to the autograd step.

All of them run one recurrence, :func:`_layer_forward`, over row spans:
each span keeps its own GEMMs at per-model shapes and the elementwise
math runs once over all rows.  The per-model callers pass one span; the
tick kernel passes one span per query group.

Internally everything runs **time-major** (``(seq, batch, ·)``): per-step
slices are then contiguous, which keeps every ufunc and GEMM on its fast
path.  The batch-major ``(batch, seq, ·)`` interface layout is converted
exactly once per call at the kernel boundary.

Unlike the reference graph — whose matmul nodes always materialize
gradients for *both* operands — the fused backward computes only gradients
somebody can receive: it skips ``dW`` for frozen layers, ``dx`` when the
input does not require gradients, ``dh0/dc0`` for implicit zero states,
and stops BPTT entirely below the lowest layer with a consumer.  The
``h_prev @ W_hh`` GEMM is likewise skipped at ``t == 0`` when the initial
state is an implicit zero.

Every GEMM a step performs is reported to :mod:`repro.nn.profiler` via
:func:`~repro.nn.profiler.record_gemm`, so the §V-C2 overhead accounting
reflects executed work.  The one memo kept across steps — the frozen
layer 0 of :func:`train_step` — books nothing when built, and each step
books the GEMMs of the per-step forward it replaces, because the modelled
device cost is per step (DESIGN.md §6).  On a workload where nothing is
skippable (inputs, states, and all weights require gradients) the fused
and reference paths report *identical* MAC totals — asserted by
``tests/nn/test_fused_lstm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import profiler
from repro.nn.functional import cross_entropy_grad_np, cross_entropy_np
from repro.nn.tensor import Tensor, as_tensor, get_default_dtype, is_grad_enabled

# One layer's parameters: (weight_ih, weight_hh, bias) with shapes
# (in, 4H), (H, 4H), (4H,) in PyTorch gate order [input|forget|cell|output].
LayerParams = Tuple[Tensor, Tensor, Tensor]


@dataclass
class LayerCache:
    """Forward activations one layer saves for its backward pass.

    All sequence arrays are time-major: ``(T, B, ·)``.
    """

    inputs: np.ndarray  # (T, B, F) layer input (post-dropout of layer below)
    gates: np.ndarray  # (T, B, 4H) post-activation gates [i|f|g|o]
    c: np.ndarray  # (T, B, H) cell states
    tc: np.ndarray  # (T, B, H) tanh of cell states
    h: np.ndarray  # (T, B, H) hidden states
    h0: np.ndarray  # (B, H) initial hidden state
    c0: np.ndarray  # (B, H) initial cell state
    state_zero: bool  # initial state is an implicit all-zeros default
    mask: Optional[np.ndarray] = None  # (T, B, H) dropout mask on this layer's output


def _cell_step(
    g: np.ndarray,
    gt: np.ndarray,
    c_prev: np.ndarray,
    ct: np.ndarray,
    tct: np.ndarray,
    h_out: np.ndarray,
    zero_state: bool,
) -> None:
    """One timestep's gate, cell and hidden-state update from the
    pre-activations ``g`` (``[..., 4H]``, gate order ``[i|f|g|o]``).

    Writes the activated gates to ``gt``, the cell state to ``ct``, its
    tanh to ``tct`` and the hidden state to ``h_out``; ``c_prev`` is
    ignored when ``zero_state`` (the implicit all-zeros previous cell).
    Per element its activation math is bit-identical whatever the
    leading shape, so one call over many row spans answers each span as
    a call over its rows alone would.
    """
    H = g.shape[-1] // 4
    # Sigmoid over the full 4H block in-place, then overwrite the cell
    # block with its tanh: 5 ufunc calls instead of per-gate chains.
    np.negative(g, out=gt)
    np.exp(gt, out=gt)
    gt += 1.0
    np.reciprocal(gt, out=gt)
    np.tanh(g[..., 2 * H : 3 * H], out=gt[..., 2 * H : 3 * H])
    if zero_state:
        np.multiply(gt[..., 0 * H : 1 * H], gt[..., 2 * H : 3 * H], out=ct)
    else:
        np.multiply(gt[..., 1 * H : 2 * H], c_prev, out=ct)
        ct += gt[..., 0 * H : 1 * H] * gt[..., 2 * H : 3 * H]
    np.tanh(ct, out=tct)
    np.multiply(gt[..., 3 * H : 4 * H], tct, out=h_out)


#: The most rows a merged projection GEMM of :func:`_shared_runs` holds:
#: the tallest product ``tests/nn/test_row_slice_rule.py`` checks the
#: row-slice rule on.  A single span taller than this still runs alone.
MAX_RUN_ROWS = 128


def _shared_runs(
    spans: Sequence[Tuple[int, int]], keys: Sequence[Any], steps: int
) -> List[Tuple[int, int]]:
    """Split ``spans`` into runs ``(first, stop)`` that take one input
    projection GEMM: consecutive spans with equal ``keys`` (the ids of one
    ``w_ih``/``bias`` pair — a shared trunk, DESIGN.md §7) whose products
    all have ``steps · rows ≥ 2`` rows, up to :data:`MAX_RUN_ROWS` rows a
    run.  A 1-row span is a run of its own.

    The row-slice rule makes a run one GEMM: the rows of a ≥2-row GEMM
    equal the same rows of any taller GEMM over the same weights bit for
    bit.  A 1-row product takes BLAS's gemv path, which rounds
    differently, so it is never merged.
    """
    mergeable = [steps * (hi - lo) >= 2 for lo, hi in spans]
    runs = []
    first = 0
    for s in range(1, len(spans) + 1):
        if (
            s == len(spans)
            or keys[s] != keys[first]
            or not (mergeable[s] and mergeable[s - 1])
            or steps * (spans[s][1] - spans[first][0]) > MAX_RUN_ROWS
        ):
            runs.append((first, s))
            first = s
    return runs


def _layer_forward(
    X: np.ndarray,
    spans: Sequence[Tuple[int, int]],
    weights: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    want_cache: bool = False,
) -> Tuple[np.ndarray, Optional[LayerCache]]:
    """Run one LSTM layer over a time-major ``(T, N, F)`` sequence: the
    one LSTM recurrence of this module.

    Rows ``spans[s] = (lo, hi)`` run through ``weights[s] = (w_ih, w_hh,
    bias)``; the spans tile ``0..N`` and share the hidden size.  Each span
    keeps the arithmetic a call over its rows alone would do — one
    ``(T·B, F) @ W_ih`` for all timesteps, then one ``(B, H) @ W_hh`` per
    step (none at ``t == 0`` from the implicit zero state, ``state is
    None``) — written into its slice of tick-wide buffers.  Consecutive
    spans over the same ``w_ih``/``bias`` objects (a shared trunk) take
    one projection GEMM per run of :func:`_shared_runs`; every span still
    books its own GEMMs with :func:`~repro.nn.profiler.record_gemm`.  The
    ``+ xw`` and :func:`_cell_step` run once over all ``N`` rows, so
    every span's rows are bit-identical to running it alone.  Elementwise
    work writes straight into the caches via ``out=`` to keep the numpy
    call count — the dominant cost at these batch sizes — low.
    """
    T, N, F = X.shape
    H = weights[0][1].shape[0]
    xw = np.empty((T, N, 4 * H), dtype=X.dtype)
    keys = [(id(w_ih), id(bias)) for w_ih, _, bias in weights]
    for first, stop in _shared_runs(spans, keys, T):
        lo, hi = spans[first][0], spans[stop - 1][1]
        w_ih, _, bias = weights[first]
        for a, b in spans[first:stop]:
            profiler.record_gemm(T * (b - a), F, 4 * H)
        proj = X[:, lo:hi].reshape(T * (hi - lo), F) @ w_ih
        np.add(proj.reshape(T, hi - lo, 4 * H), bias, out=xw[:, lo:hi])

    hs = np.empty((T, N, H), dtype=X.dtype)
    # Without a cache the per-step activations are only read within their
    # own step, so (N, ·) scratch replaces the (T, N, ·) arrays.
    gates = np.empty((T, N, 4 * H), dtype=X.dtype) if want_cache else None
    cs = np.empty((T, N, H), dtype=X.dtype) if want_cache else None
    tcs = np.empty((T, N, H), dtype=X.dtype) if want_cache else None
    gbuf = np.empty((N, 4 * H), dtype=X.dtype)
    gtbuf = np.empty((N, 4 * H), dtype=X.dtype) if not want_cache else None
    cbuf = np.empty((N, H), dtype=X.dtype) if not want_cache else None
    tcbuf = np.empty((N, H), dtype=X.dtype) if not want_cache else None
    state_zero = state is None
    h_prev, c_prev = (None, None) if state_zero else state
    for t in range(T):
        first = t == 0 and state_zero
        if first:
            g = xw[0]
        else:
            for (lo, hi), (_, w_hh, _) in zip(spans, weights):
                np.matmul(h_prev[lo:hi], w_hh, out=gbuf[lo:hi])
                profiler.record_gemm(hi - lo, H, 4 * H)
            g = gbuf
            g += xw[t]
        ct = cs[t] if want_cache else cbuf
        _cell_step(
            g,
            gates[t] if want_cache else gtbuf,
            c_prev,
            ct,
            tcs[t] if want_cache else tcbuf,
            hs[t],
            first,
        )
        h_prev, c_prev = hs[t], ct
    if not want_cache:
        return hs, None
    if state_zero:
        zeros = np.zeros((N, H), dtype=X.dtype)
        state = (zeros, zeros)
    return hs, LayerCache(
        inputs=X, gates=gates, c=cs, tc=tcs, h=hs, h0=state[0], c0=state[1],
        state_zero=state_zero,
    )


def _layer_backward(
    dH: np.ndarray,
    cache: LayerCache,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    need_dx: bool,
    need_dw: bool,
    need_dstate: bool,
) -> Tuple[
    Optional[np.ndarray],
    Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    Optional[Tuple[np.ndarray, np.ndarray]],
]:
    """BPTT through one layer (time-major).

    Returns ``(dX, (dW_ih, dW_hh, db), (dh0, dc0))``.  The only work
    inside the time loop is what is inherently sequential (the running
    ``dh``/``dc`` and the recurrent GEMM); every gate-local derivative
    factor is precomputed vectorized over all timesteps.  Gradients nobody
    can receive (``need_*`` false) are skipped, GEMMs included.
    """
    T, B, H = dH.shape
    gates = cache.gates
    i_g = gates[..., 0 * H : 1 * H]
    f_g = gates[..., 1 * H : 2 * H]
    g_g = gates[..., 2 * H : 3 * H]
    o_g = gates[..., 3 * H : 4 * H]
    tcs = cache.tc
    c_prev_seq = np.concatenate([cache.c0[None], cache.c[:-1]], axis=0)

    # Per-gate pre-activation derivative factors, vectorized over (T, B, H):
    #   dG_o = dh * P_o,  dc += dh * P_c,  dG_i = dc * P_i,
    #   dG_f = dc * P_f,  dG_g = dc * P_g,  dc_prev = dc * f.
    P_o = np.subtract(1.0, o_g)
    P_o *= o_g
    P_c = np.multiply(tcs, tcs)
    np.subtract(1.0, P_c, out=P_c)
    P_c *= o_g
    P_o *= tcs
    P_i = np.subtract(1.0, i_g)
    P_i *= i_g
    P_i *= g_g
    P_f = np.subtract(1.0, f_g)
    P_f *= f_g
    P_f *= c_prev_seq
    P_g = np.multiply(g_g, g_g)
    np.subtract(1.0, P_g, out=P_g)
    P_g *= i_g

    dG = np.empty((T, B, 4 * H), dtype=dH.dtype)
    dh_next: Optional[np.ndarray] = None
    dc_next: Optional[np.ndarray] = None
    dh0 = dc0 = None
    for t in range(T - 1, -1, -1):
        dGt = dG[t]
        dh = dH[t] if dh_next is None else dH[t] + dh_next
        dc = dh * P_c[t]
        if dc_next is not None:
            dc += dc_next
        np.multiply(dc, P_i[t], out=dGt[:, 0 * H : 1 * H])
        np.multiply(dc, P_f[t], out=dGt[:, 1 * H : 2 * H])
        np.multiply(dc, P_g[t], out=dGt[:, 2 * H : 3 * H])
        np.multiply(dh, P_o[t], out=dGt[:, 3 * H : 4 * H])
        if t > 0 or need_dstate:
            dh_next = dGt @ w_hh.T
            profiler.record_gemm(B, 4 * H, H)
            dc_next = dc * f_g[t]
            if t == 0:
                dh0, dc0 = dh_next, dc_next

    dG_flat = dG.reshape(T * B, 4 * H)
    weight_grads = None
    if need_dw:
        h_prev_seq = np.concatenate([cache.h0[None], cache.h[:-1]], axis=0)
        dw_hh = h_prev_seq.reshape(T * B, H).T @ dG_flat
        profiler.record_gemm(H, T * B, 4 * H)
        F = cache.inputs.shape[2]
        dw_ih = cache.inputs.reshape(T * B, F).T @ dG_flat
        profiler.record_gemm(F, T * B, 4 * H)
        weight_grads = (dw_ih, dw_hh, dG_flat.sum(axis=0))
    dX = None
    if need_dx:
        F = w_ih.shape[0]
        dX = (dG_flat @ w_ih.T).reshape(T, B, F)
        profiler.record_gemm(T * B, 4 * H, F)
    state_grads = (dh0, dc0) if need_dstate else None
    return dX, weight_grads, state_grads


def lstm_backward(
    grad: np.ndarray,
    caches: Sequence[LayerCache],
    weights: Sequence[Tuple[np.ndarray, np.ndarray]],
    need_x: bool = True,
    need_w: Optional[Sequence[bool]] = None,
    need_state: Optional[Sequence[bool]] = None,
) -> Tuple[
    Optional[np.ndarray],
    List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
    List[Optional[Tuple[np.ndarray, np.ndarray]]],
]:
    """Full-stack BPTT: top layer down to the input sequence.

    ``grad`` is the gradient with respect to the top layer's hidden-state
    block in interface layout ``(batch, seq, hidden)``; ``weights[l]`` is
    ``(w_ih, w_hh)`` for layer ``l``.  Returns ``(dx, [(dW_ih, dW_hh,
    db)...], [(dh0, dc0)...])`` with the input gradient back in
    ``(batch, seq, features)`` layout and ``None`` in place of any
    gradient that was not requested.  BPTT stops at the lowest layer that
    still has a consumer below it.
    """
    num_layers = len(caches)
    need_w = [True] * num_layers if need_w is None else list(need_w)
    need_state = [False] * num_layers if need_state is None else list(need_state)
    if need_x:
        lowest = 0
    else:
        needed = [l for l in range(num_layers) if need_w[l] or need_state[l]]
        lowest = needed[0] if needed else num_layers

    weight_grads: List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [None] * num_layers
    state_grads: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * num_layers
    dH = np.ascontiguousarray(grad.transpose(1, 0, 2))
    dx = None
    for layer in range(num_layers - 1, lowest - 1, -1):
        need_dx = layer > lowest or (layer == 0 and need_x)
        dX, wg, sg = _layer_backward(
            dH, caches[layer], *weights[layer],
            need_dx=need_dx, need_dw=need_w[layer], need_dstate=need_state[layer],
        )
        weight_grads[layer] = wg
        state_grads[layer] = sg
        if layer > lowest:
            mask = caches[layer - 1].mask
            dH = dX * mask if mask is not None else dX
        elif layer == 0 and need_x:
            dx = np.ascontiguousarray(dX.transpose(1, 0, 2))
    return dx, weight_grads, state_grads


def _dropout_mask(rng: Optional[np.random.Generator], p: float, hs: np.ndarray) -> np.ndarray:
    """Inverted-dropout mask for a time-major ``(T, B, H)`` layer output,
    drawn per timestep in sequence order (the reference path's order)."""
    if rng is None:
        raise ValueError("dropout requires a random generator")
    keep = 1.0 - p
    mask = np.empty_like(hs)
    for t in range(hs.shape[0]):
        mask[t] = (rng.random(hs.shape[1:]) < keep) / keep
    return mask


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def lstm_forward(
    x: Tensor,
    layers: Sequence[LayerParams],
    state: Optional[Sequence[Tuple[Tensor, Tensor]]] = None,
    *,
    dropout_p: float = 0.0,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Fused multi-layer LSTM forward registering ONE autograd node.

    Parameters
    ----------
    x:
        Input block of shape ``(batch, seq, features)``.
    layers:
        Per-layer ``(weight_ih, weight_hh, bias)`` tensors.
    state:
        Optional per-layer ``(h0, c0)`` tensors; implicit zeros when
        omitted (which also skips the zero-contribution recurrent GEMM at
        ``t == 0``).
    dropout_p, training, rng:
        Inter-layer inverted dropout, active only while training.  Masks
        are drawn per timestep in sequence order so the generator stream
        matches the reference path exactly.

    Returns the top layer's hidden states ``(batch, seq, hidden)`` as a
    single tensor whose backward is :func:`lstm_backward`.
    """
    x_t = as_tensor(x)
    data = x_t.data
    if data.ndim != 3:
        raise ValueError(f"LSTM expects (batch, seq, features); got shape {data.shape}")
    B = data.shape[0]
    state_zero = state is None

    # Mirror Tensor._make's graph condition: when no node will be recorded
    # (no_grad, or nothing requires gradients) skip the backward caches —
    # a graph-path eval forward then costs no more than lstm_infer_last.
    graph_parents = (
        (x_t,)
        + tuple(p for triple in layers for p in triple)
        + (() if state_zero else tuple(s for pair in state for s in pair))
    )
    wants_node = is_grad_enabled() and any(p.requires_grad for p in graph_parents)

    caches: List[LayerCache] = []
    layer_in = np.ascontiguousarray(data.transpose(1, 0, 2))
    for idx, triple in enumerate(layers):
        hs, cache = _layer_forward(
            layer_in, [(0, B)], [tuple(p.data for p in triple)],
            None if state_zero else (state[idx][0].data, state[idx][1].data),
            want_cache=wants_node,
        )
        mask = None
        if training and dropout_p > 0.0 and idx < len(layers) - 1:
            mask = _dropout_mask(rng, dropout_p, hs)
            layer_in = hs * mask
        else:
            layer_in = hs
        if wants_node:
            cache.mask = mask
            caches.append(cache)

    out = np.ascontiguousarray(layer_in.transpose(1, 0, 2))
    if not wants_node:
        return Tensor(out)
    weight_arrays = [(w_ih.data, w_hh.data) for (w_ih, w_hh, _) in layers]
    need_x = _needs_grad(x_t)
    need_w = [any(_needs_grad(p) for p in triple) for triple in layers]
    if state_zero:
        need_state = [False] * len(layers)
    else:
        need_state = [any(_needs_grad(s) for s in pair) for pair in state]
    parents = graph_parents

    def backward(grad: np.ndarray):
        dx, weight_grads, state_grads = lstm_backward(
            grad, caches, weight_arrays,
            need_x=need_x, need_w=need_w, need_state=need_state,
        )
        flat: List[Optional[np.ndarray]] = [dx]
        for wg in weight_grads:
            flat.extend(wg if wg is not None else (None, None, None))
        if not state_zero:
            for sg in state_grads:
                flat.extend(sg if sg is not None else (None, None))
        return tuple(flat)

    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# Graph-free training step (DESIGN.md §3)
# ----------------------------------------------------------------------
def _book_layer_forward(T: int, B: int, F: int, H: int) -> None:
    """Book the GEMMs :func:`_layer_forward` issues for a ``(T, B, F)``
    input from the implicit zero state, without running them."""
    profiler.record_gemm(T * B, F, 4 * H)
    for _ in range(1, T):
        profiler.record_gemm(B, H, 4 * H)


def train_step(
    inputs: np.ndarray,
    targets: np.ndarray,
    layers: Sequence[LayerParams],
    dropouts: Sequence[Tuple[float, Optional[np.random.Generator]]],
    head: Tuple[Tensor, Tensor],
) -> Callable[[np.ndarray], float]:
    """The training step of an LSTM stack plus linear head, without autograd.

    ``inputs`` is ``(rows, seq, features)`` and ``targets`` the rows'
    classes; ``layers`` is the stack bottom first, ``dropouts[l]`` the
    ``(p, rng)`` of the mask on layer ``l``'s output (``p == 0``: none),
    and ``head`` the ``(weight, bias)`` of ``logits = h_T @ W + b``.
    Returns ``step(idx)``, which sets the mean cross-entropy gradient of
    rows ``idx`` on every parameter that requires one and returns the
    loss.  Per step it is the autograd path's arithmetic op for op —
    :func:`lstm_forward`'s layers and mask draws, the head,
    :func:`~repro.nn.functional.cross_entropy_np` and its closed-form
    gradient, the last-step scatter, :func:`lstm_backward` — so weights
    and losses are bit-identical, and MACs are booked as that path books
    them.  Layers below the lowest trainable one keep no caches.

    A frozen layer 0 reads the raw, undropped input, so it runs once over
    all rows here and each step gathers its rows: a ≥2-row GEMM's rows
    equal the full GEMM's rows bit for bit.  A 1-row step computes its own
    layer 0 (a 1-row product takes the gemv path).
    """
    dtype = get_default_dtype()
    data = np.asarray(inputs, dtype=dtype)
    if data.ndim != 3:
        raise ValueError(f"LSTM expects (batch, seq, features); got shape {data.shape}")
    X = np.ascontiguousarray(data.transpose(1, 0, 2))
    y = np.asarray(targets, dtype=np.int64)
    T, N, F = X.shape
    need_w = [any(p.requires_grad for p in triple) for triple in layers]
    lowest = need_w.index(True) if any(need_w) else len(layers)
    layer0 = None
    if lowest > 0 and N >= 2:
        with profiler.paused():
            layer0, _ = _layer_forward(X, [(0, N)], [tuple(p.data for p in layers[0])])
    head_w, head_b = head

    def step(idx: np.ndarray) -> float:
        B = len(idx)
        weights = [tuple(p.data for p in triple) for triple in layers]
        caches: List[LayerCache] = []
        layer_in = None
        for l, triple in enumerate(weights):
            if l == 0 and layer0 is not None and B >= 2:
                hs, cache = np.take(layer0, idx, axis=1), None
                _book_layer_forward(T, B, F, triple[1].shape[0])
            else:
                if layer_in is None:
                    layer_in = np.take(X, idx, axis=1)
                hs, cache = _layer_forward(
                    layer_in, [(0, B)], [triple], want_cache=l >= lowest
                )
            p, rng = dropouts[l]
            mask = _dropout_mask(rng, p, hs) if p > 0.0 else None
            layer_in = hs * mask if mask is not None else hs
            if cache is not None:
                cache.mask = mask
                caches.append(cache)

        last = layer_in[-1]
        logits = last @ head_w.data
        profiler.record_matmul(last.shape, head_w.data.shape)
        logits += head_b.data
        targets_b = y[idx]
        loss, log_probs = cross_entropy_np(logits, targets_b)
        g = cross_entropy_grad_np(log_probs, targets_b, np.ones_like(loss))
        profiler.record_matmul(g.shape, head_w.data.T.shape)
        profiler.record_matmul(last.T.shape, g.shape)
        d_last = g @ head_w.data.T
        grads = [(head_w, last.T @ g), (head_b, g.sum(axis=0))]
        if caches:
            d_out = np.zeros((B, T, d_last.shape[1]), dtype=dtype)
            d_out[:, T - 1, :] += d_last
            _, weight_grads, _ = lstm_backward(
                d_out, caches, [w[:2] for w in weights[lowest:]],
                need_x=False, need_w=need_w[lowest:],
            )
            for triple, wg in zip(layers[lowest:], weight_grads):
                if wg is not None:
                    grads.extend(zip(triple, wg))
        for param, grad in grads:
            if param.requires_grad:
                param.grad = grad
        return float(loss)

    return step


def _infer_last(
    x: np.ndarray,
    spans: Sequence[Tuple[int, int]],
    stacks: Sequence[Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> np.ndarray:
    """Final hidden states ``(rows, hidden)`` of a ``(rows, seq, features)``
    batch whose rows ``spans[s]`` run through the layer stack
    ``stacks[s]`` — graph-, cache- and dropout-free."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"LSTM expects (batch, seq, features); got shape {x.shape}")
    layer_in = np.ascontiguousarray(x.transpose(1, 0, 2))
    for weights in zip(*stacks):
        layer_in, _ = _layer_forward(layer_in, spans, weights)
    return layer_in[-1]


def lstm_infer_last(
    x: np.ndarray,
    layers: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Graph-free eval-mode forward returning only the final hidden state.

    No autograd node, no activation caches, no dropout — the fast path for
    black-box attack queries and evaluation.  Returns ``(batch, hidden)``,
    contiguous: exactly what a classification head consumes, with no
    layout conversion of the full sequence.
    """
    return _infer_last(x, [(0, len(x))], [layers])


# ----------------------------------------------------------------------
# Grouped tick inference (DESIGN.md §7)
# ----------------------------------------------------------------------
#: One model's inference parameters: per-layer ``(w_ih, w_hh, bias)``
#: and the head's ``(weight, bias)``.
GroupParams = Tuple[
    Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray, np.ndarray
]


def grouped_infer_logits(
    x: np.ndarray,
    bounds: Sequence[int],
    params: Sequence[GroupParams],
) -> np.ndarray:
    """Head logits for many models' query groups in one graph-free call.

    ``x`` is ``(rows, seq, features)``; group ``g`` owns rows
    ``bounds[g]:bounds[g + 1]`` and is answered by ``params[g]``.  Every
    model must share the layer count, the hidden sizes and the head
    shape, and carry ``x``'s dtype.  Returns ``(rows, locations)``
    logits, before any temperature.

    The groups are the row spans of :func:`_layer_forward`, so each keeps
    its per-layer GEMMs at the shapes :func:`lstm_infer_last` issues for
    it alone while the elementwise work runs once over all rows; the head
    is one ``(B, H) @ W_head`` per group, written into its row slice and
    reported to :func:`~repro.nn.profiler.record_gemm`.  Every group's
    logits are therefore bit-identical to serving it alone; the saving is
    the per-group Python dispatch of the elementwise work.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    last = _infer_last(x, spans, [layers for layers, _, _ in params])
    H, L = params[0][1].shape
    logits = np.empty((len(last), L), dtype=last.dtype)
    for (lo, hi), (_, head_w, head_b) in zip(spans, params):
        out = logits[lo:hi]
        np.matmul(last[lo:hi], head_w, out=out)
        profiler.record_gemm(hi - lo, H, L)
        out += head_b
    return logits

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
* :func:`lstm_infer` / :func:`lstm_infer_last` are graph-free inference
  kernels for black-box attack queries and evaluation: no caches, no
  autograd node, just numpy.

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

Every GEMM actually performed is reported to :mod:`repro.nn.profiler` via
:func:`~repro.nn.profiler.record_gemm`, so the §V-C2 overhead accounting
reflects executed work.  On a workload where nothing is skippable (inputs,
states, and all weights require gradients) the fused and reference paths
report *identical* MAC totals — asserted by ``tests/nn/test_fused_lstm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import profiler
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled

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
    The one ufunc sequence every LSTM kernel here runs — per model or
    over a whole tick of groups — so per element their activation math
    is bit-identical whatever the leading shape.
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


def _layer_forward(
    X: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    bias: np.ndarray,
    h0: np.ndarray,
    c0: np.ndarray,
    state_zero: bool,
    want_cache: bool,
) -> Tuple[np.ndarray, Optional[LayerCache]]:
    """Run one LSTM layer over a time-major ``(T, B, F)`` sequence.

    The input projection for *all* timesteps is one GEMM; only the
    recurrent projection remains inside the time loop (and is skipped at
    ``t == 0`` for the implicit zero initial state, where it contributes
    nothing).  Elementwise work writes straight into the caches via
    ``out=`` to keep the numpy call count — the dominant cost at these
    batch sizes — low.
    """
    T, B, F = X.shape
    H = w_hh.shape[0]
    xw = X.reshape(T * B, F) @ w_ih
    profiler.record_gemm(T * B, F, 4 * H)
    xw += bias
    xw = xw.reshape(T, B, 4 * H)

    hs = np.empty((T, B, H), dtype=X.dtype)
    # Without a cache the per-step activations are only read within their
    # own step, so (B, ·) scratch replaces the (T, B, ·) arrays.
    gates = np.empty((T, B, 4 * H), dtype=X.dtype) if want_cache else None
    cs = np.empty((T, B, H), dtype=X.dtype) if want_cache else None
    tcs = np.empty((T, B, H), dtype=X.dtype) if want_cache else None
    gbuf = np.empty((B, 4 * H), dtype=X.dtype)
    gtbuf = np.empty((B, 4 * H), dtype=X.dtype) if not want_cache else None
    cbuf = np.empty((B, H), dtype=X.dtype) if not want_cache else None
    tcbuf = np.empty((B, H), dtype=X.dtype) if not want_cache else None
    h_prev, c_prev = h0, c0
    for t in range(T):
        first = t == 0 and state_zero
        if first:
            g = xw[0]
        else:
            g = np.matmul(h_prev, w_hh, out=gbuf)
            profiler.record_gemm(B, H, 4 * H)
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
    return hs, LayerCache(
        inputs=X, gates=gates, c=cs, tc=tcs, h=hs, h0=h0, c0=c0, state_zero=state_zero
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
    B, T, _ = data.shape
    state_zero = state is None

    # Mirror Tensor._make's graph condition: when no node will be recorded
    # (no_grad, or nothing requires gradients) skip the backward caches —
    # a graph-path eval forward then costs no more than lstm_infer.
    graph_parents = (
        (x_t,)
        + tuple(p for triple in layers for p in triple)
        + (() if state_zero else tuple(s for pair in state for s in pair))
    )
    wants_node = is_grad_enabled() and any(p.requires_grad for p in graph_parents)

    caches: List[LayerCache] = []
    layer_in = np.ascontiguousarray(data.transpose(1, 0, 2))
    for idx, (w_ih, w_hh, bias) in enumerate(layers):
        if state_zero:
            H = w_hh.data.shape[0]
            h0 = np.zeros((B, H), dtype=data.dtype)
            c0 = np.zeros((B, H), dtype=data.dtype)
        else:
            h0, c0 = state[idx][0].data, state[idx][1].data
        hs, cache = _layer_forward(
            layer_in, w_ih.data, w_hh.data, bias.data, h0, c0,
            state_zero=state_zero, want_cache=wants_node,
        )
        mask = None
        if training and dropout_p > 0.0 and idx < len(layers) - 1:
            if rng is None:
                raise ValueError("dropout requires a random generator")
            keep = 1.0 - dropout_p
            H = hs.shape[2]
            mask = np.empty_like(hs)
            for t in range(T):
                mask[t] = (rng.random((B, H)) < keep) / keep
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


def _infer_tm(
    x_tm: np.ndarray,
    layers: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Chain layers over a time-major batch, graph- and cache-free."""
    B = x_tm.shape[1]
    layer_in = x_tm
    for w_ih, w_hh, bias in layers:
        H = w_hh.shape[0]
        zeros = np.zeros((B, H), dtype=x_tm.dtype)
        layer_in, _ = _layer_forward(
            layer_in, w_ih, w_hh, bias, zeros, zeros, state_zero=True, want_cache=False
        )
    return layer_in


def _check_infer_input(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"LSTM expects (batch, seq, features); got shape {x.shape}")
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def lstm_infer(
    x: np.ndarray,
    layers: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Graph-free eval-mode forward over a numpy batch.

    No autograd node, no activation caches, no dropout — the fast path for
    black-box attack queries and evaluation.  Returns the top layer's
    hidden states ``(batch, seq, hidden)``.
    """
    out = _infer_tm(_check_infer_input(x), layers)
    return np.ascontiguousarray(out.transpose(1, 0, 2))


def lstm_infer_last(
    x: np.ndarray,
    layers: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Like :func:`lstm_infer` but returns only the final hidden state.

    ``(batch, hidden)``, contiguous — exactly what a classification head
    consumes, with no layout conversion of the full sequence.
    """
    return _infer_tm(_check_infer_input(x), layers)[-1]


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

    Each group keeps its own GEMMs at the exact shapes the per-model
    kernel (:func:`lstm_infer_last` plus the head) issues — the input
    projection ``(T·B, F) @ W_ih`` per layer, one ``(B, H) @ W_hh`` per
    recurrent step, and ``(B, H) @ W_head`` — writing into its row slice
    of tick-wide buffers, and each is reported to
    :func:`~repro.nn.profiler.record_gemm`; the bias adds ride the
    per-group writes.  The rest of the elementwise work — the recurrent
    ``+ xw`` and :func:`_cell_step` — runs once over all rows.  Equal
    GEMM shapes and per-element ufuncs make every group's logits
    bit-identical to serving it alone; the saving is the per-group
    Python dispatch of that elementwise work.
    """
    N, T, _ = x.shape
    spans = list(zip(bounds[:-1], bounds[1:]))
    hs = None
    for layer in range(len(params[0][0])):
        H = params[0][0][layer][1].shape[0]
        xw = np.empty((T, N, 4 * H), dtype=x.dtype)
        for (lo, hi), (layers, _, _) in zip(spans, params):
            w_ih, _, bias = layers[layer]
            X = x[lo:hi].transpose(1, 0, 2) if hs is None else hs[:, lo:hi]
            B, F = hi - lo, X.shape[2]
            proj = X.reshape(T * B, F) @ w_ih
            profiler.record_gemm(T * B, F, 4 * H)
            np.add(proj.reshape(T, B, 4 * H), bias, out=xw[:, lo:hi])
        hs = np.empty((T, N, H), dtype=x.dtype)
        gbuf = np.empty((N, 4 * H), dtype=x.dtype)
        gtbuf = np.empty((N, 4 * H), dtype=x.dtype)
        cbuf = np.empty((N, H), dtype=x.dtype)
        tcbuf = np.empty((N, H), dtype=x.dtype)
        for t in range(T):
            if t == 0:
                g = xw[0]
            else:
                for (lo, hi), (layers, _, _) in zip(spans, params):
                    np.matmul(hs[t - 1, lo:hi], layers[layer][1], out=gbuf[lo:hi])
                    profiler.record_gemm(hi - lo, H, 4 * H)
                g = gbuf
                g += xw[t]
            _cell_step(g, gtbuf, cbuf, cbuf, tcbuf, hs[t], t == 0)
    last = hs[-1]
    H, L = params[0][1].shape
    logits = np.empty((N, L), dtype=x.dtype)
    for (lo, hi), (_, head_w, head_b) in zip(spans, params):
        out = logits[lo:hi]
        np.matmul(last[lo:hi], head_w, out=out)
        profiler.record_gemm(hi - lo, H, L)
        out += head_b
    return logits

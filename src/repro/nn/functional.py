"""Functional operations shared across layers, losses, and attacks.

Includes the temperature-scaled softmax from Equation (1) of the paper,
which is used twice in the reproduction:

* by the *gradient-descent inversion attack* to soften candidate inputs
  toward one-hot encodings during reconstruction (§III-B2), and
* by the *Pelican privacy layer* to sharpen output confidences at inference
  time (§V-B).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, get_default_dtype


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Fused ``softmax + cross-entropy``: one autograd node (DESIGN.md §3).

    Computes the mean cross-entropy between ``(batch, classes)`` logits and
    integer class targets with the stable log-sum-exp trick, and registers
    a single node whose backward is the closed form
    ``(softmax(logits) - one_hot(targets)) / batch`` — replacing the ~6
    graph nodes the unfused ``log_softmax`` + gather + mean chain builds on
    every training step.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, classes); got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} incompatible with batch {logits.shape[0]}"
        )
    z = logits.data
    batch = z.shape[0]
    shifted = z - z.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = log_probs[np.arange(batch), targets]
    loss = np.asarray(-picked.mean(), dtype=z.dtype)

    def backward(grad: np.ndarray):
        g = np.exp(log_probs)
        g[np.arange(batch), targets] -= 1.0
        g *= grad / batch
        return (g,)

    return Tensor._make(loss, (logits,), backward)


def softmax(x: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Temperature-scaled softmax: ``p_i = exp(z_i/T) / sum_j exp(z_j/T)``.

    Implemented with the max-subtraction trick for numerical stability.
    ``temperature`` must be positive; values below 1 sharpen the
    distribution, values above 1 flatten it.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = as_tensor(x)
    scaled = x * (1.0 / temperature)
    shifted = scaled - scaled.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Numerically stable ``log(softmax(x/T))``."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = as_tensor(x)
    scaled = x * (1.0 / temperature)
    shifted = scaled - scaled.max(axis=axis, keepdims=True).detach()
    logsumexp = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - logsumexp


def softmax_np(logits: np.ndarray, axis: int = -1, temperature: float = 1.0) -> np.ndarray:
    """Pure-numpy temperature softmax for inference-only paths."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    arr = np.asarray(logits)
    if arr.dtype.kind != "f":
        arr = arr.astype(get_default_dtype())
    scaled = arr / temperature
    shifted = scaled - scaled.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax_np(logits: np.ndarray) -> np.ndarray:
    """Pure-numpy stable log-softmax over the last axis.

    The one definition every inference path ranks with (per model and
    tick-wide serving), so their log-probabilities agree bit
    for bit: each row's max and sum reduce only that row.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer indices as one-hot rows.

    Parameters
    ----------
    indices:
        Integer array of any shape.
    num_classes:
        Size of the final one-hot axis; every index must satisfy
        ``0 <= index < num_classes``.
    """
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= num_classes):
        raise ValueError(
            f"indices out of range [0, {num_classes}): "
            f"min={indices.min()}, max={indices.max()}"
        )
    out = np.zeros(indices.shape + (num_classes,), dtype=get_default_dtype())
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def top_k_indices(scores: np.ndarray, k: int, axis: int = -1) -> np.ndarray:
    """Indices of the ``k`` largest entries, sorted descending by score.

    Ties keep ascending index order among the selected entries.  1-D and
    2-D last-axis input (every serving call) slices and fancy-indexes
    instead of ``take``/``take_along_axis``; the selection is the same
    ``argpartition`` and stable ``argsort`` either way.
    """
    scores = np.asarray(scores)
    k = min(k, scores.shape[axis])
    part = np.argpartition(-scores, k - 1, axis=axis)
    if scores.ndim == 1:
        top = part[:k]
        return top[np.argsort(-scores[top], kind="stable")]
    if scores.ndim == 2 and axis in (-1, 1):
        top = part[:, :k]
        rows = np.arange(len(scores))[:, None]
        order = np.argsort(-scores[rows, top], axis=-1, kind="stable")
        return top[rows, order]
    top = np.take(part, range(k), axis=axis)
    top_scores = np.take_along_axis(scores, top, axis=axis)
    order = np.argsort(-top_scores, axis=axis, kind="stable")
    return np.take_along_axis(top, order, axis=axis)

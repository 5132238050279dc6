"""Micro-benchmarks for the LSTM compute backend (fused vs. reference).

Pins the perf trajectory of the ``repro.nn`` hot paths:

* ``train_step`` — one full optimizer step (zero_grad, forward, fused
  softmax/cross-entropy loss, backward, grad clip, Adam) at the paper's
  predictor shape: batch 32, window 2, hidden 128, 2 layers.
* ``inference_query`` — a batched black-box confidence query, the unit of
  work of the enumeration attacks.

Each benchmark runs on the fused backend (default), the reference cell
graph, and — for the train step — the fused backend under the float32
dtype policy, which is the fully optimized configuration.  Speedups vs.
the committed baseline are summarized by ``benchmarks/run_benchmarks.py``.

Unlike the experiment-regeneration benchmarks these need no shared
pipeline and take milliseconds per round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    LSTM,
    Adam,
    CrossEntropyLoss,
    Linear,
    Tensor,
    clip_grad_norm,
    dtype_policy,
    lstm_infer_last,
    no_grad,
)

BATCH, SEQ, HIDDEN, LAYERS, WIDTH, CLASSES = 32, 2, 128, 2, 64, 40
QUERY_BATCH = 256


def _make_train_step(backend):
    rng = np.random.default_rng(0)
    lstm = LSTM(WIDTH, HIDDEN, LAYERS, rng, dropout=0.0, backend=backend)
    head = Linear(HIDDEN, CLASSES, rng)
    x = rng.normal(size=(BATCH, SEQ, WIDTH))
    y = rng.integers(0, CLASSES, size=BATCH)
    optimizer = Adam(lstm.parameters() + head.parameters(), lr=1e-3)
    loss_fn = CrossEntropyLoss()

    def step():
        optimizer.zero_grad()
        hidden = lstm(Tensor(x))
        loss = loss_fn(head(hidden[:, hidden.shape[1] - 1, :]), y)
        loss.backward()
        clip_grad_norm(optimizer.params, 5.0)
        optimizer.step()
        return loss.item()

    return step


@pytest.mark.parametrize("backend", ["fused", "reference"])
def test_train_step(benchmark, backend):
    step = _make_train_step(backend)
    loss = benchmark(step)
    assert np.isfinite(loss)


def test_train_step_fused_float32(benchmark):
    with dtype_policy("float32"):
        step = _make_train_step("fused")
        loss = benchmark(step)
    assert np.isfinite(loss)


@pytest.mark.parametrize("backend", ["fused", "reference"])
def test_inference_query(benchmark, backend):
    rng = np.random.default_rng(1)
    lstm = LSTM(WIDTH, HIDDEN, LAYERS, rng, dropout=0.0, backend=backend)
    head = Linear(HIDDEN, CLASSES, rng)
    lstm.eval()
    batch = rng.normal(size=(QUERY_BATCH, SEQ, WIDTH))

    if backend == "fused":
        layers = [(c.weight_ih.data, c.weight_hh.data, c.bias.data) for c in lstm.cells]

        def query():
            last = lstm_infer_last(batch, layers)
            logits = last @ head.weight.data + head.bias.data
            shifted = logits - logits.max(axis=-1, keepdims=True)
            np.exp(shifted, out=shifted)
            shifted /= shifted.sum(axis=-1, keepdims=True)
            return shifted

    else:

        def query():
            with no_grad():
                hidden = lstm(Tensor(batch))
                logits = head(hidden[:, hidden.shape[1] - 1, :]).numpy()
            shifted = logits - logits.max(axis=-1, keepdims=True)
            np.exp(shifted, out=shifted)
            shifted /= shifted.sum(axis=-1, keepdims=True)
            return shifted

    probs = benchmark(query)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-6)

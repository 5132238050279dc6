"""Training utilities: mini-batching, fit loop, time-series CV, grid search.

The paper selects hyperparameters with "grid search on time-series based
5-fold cross validation" for the general model and 3-fold for personalized
models.  :class:`TimeSeriesSplit` reproduces the expanding-window split
(train always precedes validation in time), and :func:`grid_search` wires it
to an arbitrary model factory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import Adam, Optimizer, clip_grad_norm
from repro.nn.tensor import Tensor, no_grad


def minibatch_indices(
    n: int, batch_size: int, rng: Optional[np.random.Generator] = None
) -> Iterator[np.ndarray]:
    """Yield the row indices of each mini-batch; shuffled when a generator
    is supplied (one permutation draw per pass)."""
    order = np.arange(n) if rng is None else rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def iterate_minibatches(
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (x, y) mini-batches; shuffled when a generator is supplied."""
    for idx in minibatch_indices(len(inputs), batch_size, rng):
        yield inputs[idx], targets[idx]


@dataclass
class FitResult:
    """Record of one training run."""

    epochs_run: int
    train_losses: List[float] = field(default_factory=list)
    best_epoch: int = 0
    best_loss: float = float("inf")


def fit(
    model: Module,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    optimizer: Optional[Optimizer] = None,
    lr: float = 1e-3,
    weight_decay: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    grad_clip: Optional[float] = 5.0,
    patience: Optional[int] = None,
    min_delta: float = 1e-4,
) -> FitResult:
    """Train ``model`` with cross-entropy on ``(inputs, targets)``.

    The loop owns epochs, shuffling, early stopping and the loss history;
    the model supplies the minibatch body (:meth:`Module.train_step`).
    No parameter keeps a ``.grad`` once this returns.

    Parameters
    ----------
    patience:
        If set, stop early when the epoch loss has not improved by
        ``min_delta`` for ``patience`` consecutive epochs.
    """
    if len(inputs) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if optimizer is None:
        trainable = model.trainable_parameters()
        optimizer = Adam(trainable, lr=lr, weight_decay=weight_decay)
    model.train()
    step = model.train_step(inputs, targets)
    result = FitResult(epochs_run=0)
    stale = 0
    for epoch in range(epochs):
        epoch_losses = []
        for idx in minibatch_indices(len(inputs), batch_size, rng):
            optimizer.zero_grad()
            epoch_losses.append(step(idx))
            if grad_clip is not None:
                clip_grad_norm(optimizer.params, grad_clip)
            optimizer.step()
        mean_loss = float(np.mean(epoch_losses))
        result.train_losses.append(mean_loss)
        result.epochs_run = epoch + 1
        if mean_loss < result.best_loss - min_delta:
            result.best_loss = mean_loss
            result.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                break
    model.eval()
    model.zero_grad()
    return result


def evaluate_accuracy(model: Module, inputs: np.ndarray, targets: np.ndarray, k: int = 1) -> float:
    """Top-k accuracy of ``model`` on ``(inputs, targets)``.

    The model is evaluated in inference mode without building autograd
    graphs.
    """
    from repro.nn.functional import top_k_indices  # local import to avoid cycle

    if len(inputs) == 0:
        return float("nan")
    was_training = model.training
    model.eval()
    if hasattr(model, "infer_logits"):
        # Graph-free fused inference kernel (DESIGN.md §3).
        logits = model.infer_logits(inputs)
    else:
        with no_grad():
            logits = model(Tensor(inputs)).numpy()
    if was_training:
        model.train()
    top = top_k_indices(logits, k, axis=-1)
    hits = (top == np.asarray(targets)[:, None]).any(axis=1)
    return float(hits.mean())


class TimeSeriesSplit:
    """Expanding-window cross validation for temporally ordered samples.

    Fold ``i`` trains on the first ``(i+1)/(n_splits+1)`` fraction of the
    data and validates on the following block — validation data is always
    strictly later than training data, as required for trajectory data.
    """

    def __init__(self, n_splits: int) -> None:
        if n_splits < 1:
            raise ValueError("n_splits must be >= 1")
        self.n_splits = n_splits

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        if n_samples < self.n_splits + 1:
            raise ValueError(
                f"need at least {self.n_splits + 1} samples for {self.n_splits} splits; "
                f"got {n_samples}"
            )
        fold = n_samples // (self.n_splits + 1)
        for i in range(1, self.n_splits + 1):
            train_end = fold * i
            val_end = min(fold * (i + 1), n_samples) if i < self.n_splits else n_samples
            yield np.arange(train_end), np.arange(train_end, val_end)


def grid_search(
    factory: Callable[..., Module],
    param_grid: Dict[str, Sequence],
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    n_splits: int = 3,
    epochs: int = 10,
    batch_size: int = 32,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Dict, List[Tuple[Dict, float]]]:
    """Grid search with time-series CV; returns (best_params, all_scores).

    ``factory`` is called with each parameter combination and must return a
    fresh model; combinations are scored by mean top-1 validation accuracy
    across folds.
    """
    keys = sorted(param_grid)
    combos = [dict(zip(keys, values)) for values in itertools.product(*(param_grid[k] for k in keys))]
    splitter = TimeSeriesSplit(n_splits)
    scores: List[Tuple[Dict, float]] = []
    for combo in combos:
        fold_scores = []
        for train_idx, val_idx in splitter.split(len(inputs)):
            model = factory(**combo)
            fit(
                model,
                inputs[train_idx],
                targets[train_idx],
                epochs=epochs,
                batch_size=batch_size,
                rng=rng,
            )
            fold_scores.append(evaluate_accuracy(model, inputs[val_idx], targets[val_idx]))
        scores.append((combo, float(np.mean(fold_scores))))
    best_params = max(scores, key=lambda item: item[1])[0]
    return best_params, scores

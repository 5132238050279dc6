"""The next-location prediction architecture (paper Figure 1).

One class covers all three variants in the figure:

* **general model** (Fig 1a): ``LSTM stack -> Linear`` trained on pooled
  contributor data;
* **TL feature extraction** (Fig 1b): the general model's LSTM stack frozen,
  a *surplus* LSTM layer appended before the (re-trained) linear head;
* **TL fine-tuning** (Fig 1c): the general model copied, first LSTM layer
  frozen, later layers re-trained.

Every model ends with a :class:`~repro.nn.layers.TemperatureScaling` privacy
layer (identity until Pelican configures it, §V-B).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.nn import (
    LSTM,
    Linear,
    Module,
    TemperatureScaling,
    Tensor,
    as_tensor,
    dtype_policy,
    fused,
    get_default_dtype,
    log_softmax_np,
    lstm_infer_last,
    no_grad,
    profiler,
)
from repro.nn.fused import GroupParams


class NextLocationModel(Module):
    """LSTM next-location predictor over one-hot session sequences.

    Parameters
    ----------
    input_width:
        Width of the encoded session vector (``FeatureSpec.width``).
    num_locations:
        Size of the output location vocabulary.
    hidden_size, num_layers, dropout:
        LSTM stack configuration (paper defaults: 128 hidden, 2 layers,
        dropout 0.1 between layers).
    """

    def __init__(
        self,
        input_width: int,
        num_locations: int,
        hidden_size: int,
        num_layers: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.input_width = input_width
        self.num_locations = num_locations
        self.hidden_size = hidden_size
        self.lstm = LSTM(input_width, hidden_size, num_layers, rng, dropout=dropout)
        self.extra: Optional[LSTM] = None
        self.head = Linear(hidden_size, num_locations, rng)
        self.privacy = TemperatureScaling(1.0)

    def add_surplus_lstm(self, rng: np.random.Generator) -> None:
        """Append the TL-FE surplus LSTM layer (Fig 1b)."""
        if self.extra is not None:
            raise ValueError("surplus LSTM already present")
        self.extra = LSTM(
            self.hidden_size, self.hidden_size, 1, rng, dropout=0.0,
            backend=self.lstm.backend,
        )

    def forward(self, x: Tensor) -> Tensor:
        """Return logits of shape ``(batch, num_locations)``.

        In eval mode the privacy layer divides logits by its temperature;
        downstream consumers apply softmax to obtain confidences.
        """
        x = as_tensor(x)
        hidden = self.lstm(x)
        if self.extra is not None:
            hidden = self.extra(hidden)
        last = hidden[:, hidden.shape[1] - 1, :]
        logits = self.head(last)
        return self.privacy(logits)

    # ------------------------------------------------------------------
    # Graph-free batched inference (DESIGN.md §3)
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The LSTM execution backend (``"fused"`` or ``"reference"``)."""
        return self.lstm.backend

    def set_backend(self, backend: str) -> None:
        """Switch every LSTM stack (and the inference path) between the
        fused kernel and the reference per-timestep graph."""
        self.lstm.backend = backend
        if self.extra is not None:
            self.extra.backend = backend

    def fused_params(self) -> GroupParams:
        """The fused kernels' view of the weights: per-cell ``(w_ih,
        w_hh, bias)`` arrays (surplus layer last) and the head's
        ``(weight, bias)``."""
        cells = list(self.lstm.cells)
        if self.extra is not None:
            cells += list(self.extra.cells)
        return (
            [(c.weight_ih.data, c.weight_hh.data, c.bias.data) for c in cells],
            self.head.weight.data,
            self.head.bias.data,
        )

    def train_step(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> Callable[[np.ndarray], float]:
        """The graph-free fused training step (DESIGN.md §3), or the
        autograd step on the reference backend and when the weights do not
        carry the policy dtype (the graph would cast every op to it)."""
        stacks = [self.lstm] + ([self.extra] if self.extra is not None else [])
        dtype = get_default_dtype()
        if any(s.backend != "fused" for s in stacks) or any(
            p.data.dtype != dtype for p in self.parameters()
        ):
            return super().train_step(inputs, targets)
        layers, dropouts = [], []
        for stack in stacks:
            p = stack.dropout_p if stack.training else 0.0
            for i, cell in enumerate(stack.cells):
                layers.append((cell.weight_ih, cell.weight_hh, cell.bias))
                dropouts.append((p if i < stack.num_layers - 1 else 0.0, stack._rng))
        return fused.train_step(
            inputs, targets, layers, dropouts, (self.head.weight, self.head.bias)
        )

    def infer_logits(self, batch: np.ndarray) -> np.ndarray:
        """Eval-mode logits for a pre-encoded numpy batch, graph-free.

        The fast path for black-box attack queries and evaluation: runs
        the fused inference kernels end to end without any autograd
        bookkeeping.  The privacy layer's temperature scaling is applied
        exactly as in graph-mode eval.  On the reference backend this
        falls back to the graph under :class:`~repro.nn.tensor.no_grad`
        in eval mode, so backend parity extends to inference (under a
        matching dtype policy — graph ops always run in the engine's
        policy dtype).  The fused path never reads the training flag (it
        has no dropout and always applies the temperature), so it leaves
        the module tree's mode alone.
        """
        if self.lstm.backend != "fused":
            self.eval()
            with no_grad():
                return self.forward(Tensor(batch)).numpy()
        layers, head_w, head_b = self.fused_params()
        # The fused kernel casts queries to the weights' dtype, so a model
        # built under one policy keeps answering correctly after the
        # policy changes.
        last = lstm_infer_last(np.asarray(batch, dtype=head_w.dtype), layers)
        logits = last @ head_w + head_b
        profiler.record_gemm(last.shape[0], last.shape[1], self.head.out_features)
        if self.privacy.temperature != 1.0:
            logits = logits / self.privacy.temperature
        return logits

    def infer_confidences(self, batch: np.ndarray) -> np.ndarray:
        """Softmax confidences fused into the final projection.

        One pass: LSTM inference kernel -> linear head -> temperature
        scaling -> stable softmax, all on numpy arrays.  This is what the
        enumeration attacks' batched confidence queries hit.
        """
        probs = self.infer_logits(batch)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs

    def infer_log_confidences(self, batch: np.ndarray) -> np.ndarray:
        """Log-space confidences (precision-safe under the privacy layer)."""
        return log_softmax_np(self.infer_logits(batch))

    # ------------------------------------------------------------------
    # Privacy controls (Pelican §V-B)
    # ------------------------------------------------------------------
    def set_privacy_temperature(self, temperature: float) -> None:
        """Configure the inference-time privacy tuner."""
        self.privacy.set_temperature(temperature)

    @property
    def privacy_temperature(self) -> float:
        return self.privacy.temperature

    def clone_architecture(self, rng: np.random.Generator) -> "NextLocationModel":
        """A freshly initialized model with identical dimensions."""
        clone = NextLocationModel(
            input_width=self.input_width,
            num_locations=self.num_locations,
            hidden_size=self.hidden_size,
            num_layers=self.lstm.num_layers,
            dropout=self.lstm.dropout_p,
            rng=rng,
        )
        return clone

    def copy(self, rng: np.random.Generator) -> "NextLocationModel":
        """A deep copy (same weights, same dtype, independent parameters).

        The clone is built under the source model's dtype policy so a
        float32 model copied under an ambient float64 policy (or vice
        versa) is not silently re-typed.
        """
        with dtype_policy(self.head.weight.data.dtype):
            clone = self.clone_architecture(rng)
            if self.extra is not None:
                clone.add_surplus_lstm(rng)
            clone.load_state_dict(self.state_dict())
        clone.set_privacy_temperature(self.privacy_temperature)
        clone.set_backend(self.backend)
        return clone

"""Long short-term memory layers (Hochreiter & Schmidhuber, 1997).

The paper's next-location predictor is a stack of two LSTM layers followed
by a linear layer (Figure 1a).  This module provides :class:`LSTMCell` (one
time step) and :class:`LSTM` (multi-layer, batch-first sequence runner) with
exact reverse-mode gradients supplied by the ``repro.nn`` autograd engine —
including gradients with respect to the *input sequence*, which the
gradient-descent inversion attack requires.

:class:`LSTM` has two execution backends (DESIGN.md §3):

* ``"fused"`` (default) — the batched kernel in :mod:`repro.nn.fused`: one
  autograd node per call, hand-written BPTT, input projection hoisted out
  of the time loop.
* ``"reference"`` — the original per-timestep :class:`LSTMCell` graph, kept
  as the executable specification the fused path is tested against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import fused
from repro.nn import init as initializers
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor, stack

BACKENDS = ("fused", "reference")


class LSTMCell(Module):
    """A single LSTM time step.

    Gate layout follows the PyTorch convention: the stacked weight matrices
    produce ``[input | forget | cell | output]`` pre-activations.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            initializers.uniform_lstm(rng, (input_size, 4 * hidden_size), hidden_size)
        )
        self.weight_hh = Parameter(
            initializers.uniform_lstm(rng, (hidden_size, 4 * hidden_size), hidden_size)
        )
        self.bias = Parameter(initializers.zeros((4 * hidden_size,)))

    def forward(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Advance one step.

        Parameters
        ----------
        x:
            Input of shape ``(batch, input_size)``.
        state:
            Tuple ``(h, c)`` each of shape ``(batch, hidden_size)``.
        """
        h_prev, c_prev = state
        gates = as_tensor(x) @ self.weight_ih + h_prev @ self.weight_hh + self.bias
        H = self.hidden_size
        i_gate = gates[:, 0 * H : 1 * H].sigmoid()
        f_gate = gates[:, 1 * H : 2 * H].sigmoid()
        g_gate = gates[:, 2 * H : 3 * H].tanh()
        o_gate = gates[:, 3 * H : 4 * H].sigmoid()
        c_next = f_gate * c_prev + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, (h_next, c_next)

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())

    def __repr__(self) -> str:
        return f"LSTMCell(in={self.input_size}, hidden={self.hidden_size})"


class LSTM(Module):
    """Multi-layer batch-first LSTM.

    Input shape ``(batch, seq_len, input_size)``; output shape
    ``(batch, seq_len, hidden_size)`` (the top layer's hidden states).

    ``dropout`` is applied between stacked layers, matching the paper's
    general-model configuration ("dropout rate of 0.1 between the LSTM
    layers").
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
        backend: str = "fused",
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.dropout_p = dropout
        self.backend = backend
        self._rng = rng
        self.cells: List[LSTMCell] = [
            LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            for layer in range(num_layers)
        ]

    def _layer_params(self):
        return [(cell.weight_ih, cell.weight_hh, cell.bias) for cell in self.cells]

    def forward(
        self,
        x: Tensor,
        state: Optional[List[Tuple[Tensor, Tensor]]] = None,
        backend: Optional[str] = None,
    ) -> Tensor:
        """Run the full sequence; return top-layer hidden states per step.

        ``backend`` overrides the instance default for this call — the
        parity test suite runs the same weights through both paths.
        """
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"LSTM expects (batch, seq, features); got shape {x.shape}")
        batch, seq_len, _ = x.shape
        backend = backend if backend is not None else self.backend
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if backend == "fused":
            # Pass ``state`` through unchanged: ``None`` lets the kernel use
            # implicit zeros and skip the zero-contribution t=0 GEMMs.
            return fused.lstm_forward(
                x,
                self._layer_params(),
                state,
                dropout_p=self.dropout_p,
                training=self.training,
                rng=self._rng,
            )
        # Copy: the per-layer running state is updated in place below and
        # must not clobber a caller-supplied list.
        states = list(state) if state else [cell.initial_state(batch) for cell in self.cells]

        layer_input = [x[:, t, :] for t in range(seq_len)]
        for layer_idx, cell in enumerate(self.cells):
            outputs = []
            current = states[layer_idx]
            for step_x in layer_input:
                h, current = cell(step_x, current)
                outputs.append(h)
            states[layer_idx] = current
            if layer_idx < self.num_layers - 1 and self.dropout_p > 0 and self.training:
                keep = 1.0 - self.dropout_p
                outputs = [
                    h * Tensor((self._rng.random(h.shape) < keep) / keep) for h in outputs
                ]
            layer_input = outputs
        return stack(layer_input, axis=1)

    def last_hidden(self, x: Tensor) -> Tensor:
        """Convenience: run the sequence and return the final hidden state."""
        out = self.forward(x)
        return out[:, out.shape[1] - 1, :]

    def __repr__(self) -> str:
        return (
            f"LSTM(in={self.input_size}, hidden={self.hidden_size}, "
            f"layers={self.num_layers}, dropout={self.dropout_p}, "
            f"backend={self.backend})"
        )

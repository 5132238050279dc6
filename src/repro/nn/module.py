"""Module base class: parameter management, train/eval mode, freezing.

Transfer-learning personalization (paper §III-A3) relies on *freezing* the
general model's representation layers while training a small number of new
or re-initialized parameters on single-user data.  :meth:`Module.freeze` and
:meth:`Module.unfreeze` flip ``requires_grad`` on parameter subtrees, and
optimizers only update parameters with ``requires_grad=True``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Tuple

import numpy as np

from repro.nn.functional import softmax_cross_entropy
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter."""

    def __init__(self, data, requires_grad: bool = True, name: str = "") -> None:
        super().__init__(data, requires_grad=requires_grad, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; both are discovered automatically for iteration,
    serialization, and freezing.
    """

    def __init__(self) -> None:
        self._training = True

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for attr, value in vars(self).items():
            if attr.startswith("_") and attr != "_modules":
                continue
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item

    def parameters(self) -> List[Parameter]:
        """Return all parameters as a list."""
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self) -> List[Parameter]:
        """Return only parameters that currently require gradients."""
        return [p for p in self.parameters() if p.requires_grad]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for attr, value in vars(self).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, Module):
                yield from value.named_modules(prefix=f"{prefix}{attr}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{prefix}{attr}.{i}.")

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Put the module (and children) in training mode (enables dropout)."""
        for _, module in self.named_modules():
            module._training = True
        return self

    def eval(self) -> "Module":
        """Put the module (and children) in inference mode."""
        for _, module in self.named_modules():
            module._training = False
        return self

    @property
    def training(self) -> bool:
        return self._training

    # ------------------------------------------------------------------
    # Freezing (transfer learning support)
    # ------------------------------------------------------------------
    def freeze(self) -> "Module":
        """Disable gradient updates for every parameter in this subtree."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        """Re-enable gradient updates for every parameter in this subtree."""
        for param in self.parameters():
            param.requires_grad = True
        return self

    def zero_grad(self) -> None:
        """Clear gradients on all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self, trainable_only: bool = False) -> int:
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return sum(p.size for p in params)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of all parameter arrays keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(
        self,
        state: Mapping[str, np.ndarray],
        strict: bool = True,
        shared: Mapping[str, np.ndarray] = {},
    ) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        With ``strict=True`` (default) the key sets must match exactly.
        Every value is copied except one that *is* ``shared[name]`` (a
        shared read-only trunk array): the parameter holds that array.
        """
        own = dict(self.named_parameters())
        if strict:
            missing = sorted(set(own) - set(state))
            unexpected = sorted(set(state) - set(own))
            if missing or unexpected:
                raise KeyError(
                    f"state_dict mismatch: missing={missing}, unexpected={unexpected}"
                )
        for name, param in own.items():
            if name not in state:
                continue
            # Checkpoints adopt the RECEIVING parameter's dtype, so loading
            # never silently re-types a model built under another policy.
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"checkpoint {value.shape} vs model {param.data.shape}"
                )
            param.data = value if value is shared.get(name) else value.copy()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_step(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> Callable[[np.ndarray], float]:
        """The minibatch body :func:`~repro.nn.train.fit` runs over
        ``(inputs, targets)``: ``step(idx)`` sets the mean cross-entropy
        gradient of rows ``idx`` on the parameters and returns the loss.

        This is the autograd step, the specification that faster bodies
        (the fused backend's graph-free step, DESIGN.md §3) are tested
        against with ``==``.
        """

        def step(idx: np.ndarray) -> float:
            loss = softmax_cross_entropy(self(Tensor(inputs[idx])), targets[idx])
            loss.backward()
            return loss.item()

        return step

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

"""Module and parameter abstractions for the numpy neural-network library.

``Module`` mirrors the familiar PyTorch contract: parameters are discovered
recursively through attributes, ``state_dict``/``load_state_dict`` move
weights in and out (used by the transferability experiments of the paper),
and ``train``/``eval`` toggle behaviour of stochastic layers such as dropout
and the VAE sampling layer.

Flat buffers
    An optimizer keeps the parameters it updates in a :class:`FlatParameters`:
    one contiguous float64 buffer holds their values and one their
    gradients, and each parameter's ``data`` and gradient buffer are views
    into them.  The optimizer owns the buffers; a parameter owns nothing but
    its views, so a pickle or a deep copy of a module carries the views'
    values and never the buffers, and the bytes are those of separate arrays.
    ``load_state_dict`` writes into the existing views.

    ``param.grad`` is ``None`` until a backward pass reaches the parameter:
    the first gradient of the pass is written into its view and becomes
    ``param.grad``, later ones are added in place, and ``zero_grad`` sets it
    back to ``None`` without touching the buffer.  An optimizer step skips a
    parameter whose ``grad`` is ``None``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable weight of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class FlatParameters:
    """A parameter list whose values and gradients live in one buffer each.

    Building it copies each parameter's values into its segment of ``data``
    and rebinds ``param.data`` to that view, and points the parameter's
    gradient buffer (``_grad_view``) at its segment of ``grad``.  Segments
    follow the list's order, so a step over the parameters that hold a
    gradient is one ufunc call per run of consecutive such parameters
    (:meth:`spans`), one call in all when every parameter has one.
    """

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if len({id(param) for param in self.parameters}) != len(self.parameters):
            raise ValueError("a parameter appears more than once in the list")
        bounds = np.cumsum([0] + [param.data.size for param in self.parameters]).tolist()
        self.data = np.empty(bounds[-1])
        self.grad = np.empty(bounds[-1])
        self._segments = []
        for param, lo, hi in zip(self.parameters, bounds, bounds[1:]):
            shape = param.data.shape
            values = self.data[lo:hi].reshape(shape)
            values[...] = param.data
            param.data = values
            param._grad_view = self.grad[lo:hi].reshape(shape)
            self._segments.append((lo, hi, values, param._grad_view))

    def spans(self) -> List[list]:
        """``[lo, hi, sizes]`` of each run of consecutive parameters that hold
        a gradient: its offsets in the buffers and its parameters' sizes.

        Values and gradients that are not the buffers' views are copied in
        first, and the parameter is bound back to its views: a gradient
        assigned to ``param.grad`` directly or computed while another owner
        held the parameter, values rebound to ``param.data``.
        """
        spans: List[list] = []
        for param, (lo, hi, values, grads) in zip(self.parameters, self._segments):
            grad = param.grad
            if grad is None:
                continue
            if param.data is not values:
                values[...] = param.data
                param.data = values
            if grad is not grads:
                grads[...] = grad
                param.grad = grads
            if spans and spans[-1][1] == lo:
                spans[-1][1] = hi
                spans[-1][2].append(hi - lo)
            else:
                spans.append([lo, hi, [hi - lo]])
        return spans


class Module:
    """Base class for all neural network components.

    Subclasses implement :meth:`forward`; parameters and child modules are
    discovered automatically by inspecting instance attributes, so a subclass
    simply assigns ``self.linear = Linear(...)`` or
    ``self.weight = Parameter(...)`` in its ``__init__``.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs, recursing into child modules."""
        for attr, value in vars(self).items():
            if attr == "training":
                continue
            full_name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full_name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{i}.")

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(name, module)`` pairs including ``self``."""
        yield prefix.rstrip("."), self
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_modules(prefix=f"{prefix}{attr}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{prefix}{attr}.{i}.")

    def num_parameters(self) -> int:
        """Total number of scalar weights (useful for model-size reporting)."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------
    # Training mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode on this module and every child module."""
        for _, module in self.named_modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode (disables dropout, deterministic VAE)."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Gradient management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # State dict (weight transfer / persistence)
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Return a name → array copy of every parameter."""
        return OrderedDict((name, param.data.copy()) for name, param in self.named_parameters())

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load weights produced by :meth:`state_dict`, into the parameters' arrays.

        Each value is copied into the parameter's existing ``data`` (a view
        into an optimizer's buffer when one holds it), never rebound.

        Parameters
        ----------
        state:
            Mapping of parameter name to numpy array.
        strict:
            When true, every parameter must be present in ``state`` and have a
            matching shape; otherwise missing entries are silently skipped.
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
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data[...] = value

    def copy_weights_from(self, other: "Module") -> None:
        """Copy weights from a module with an identical parameter layout."""
        self.load_state_dict(other.state_dict())

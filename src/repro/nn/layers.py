"""Neural network layers built on the autograd engine.

Only the layer types actually needed by the paper's architectures are
provided: dense layers with optional non-linearity, dropout, and a
``Sequential`` container.  The VAE-specific Gaussian head lives in
:mod:`repro.core.vae` because its reparameterisation behaviour is part of the
paper's contribution rather than generic library code.

A :class:`Linear` layer records one graph node per call
(:func:`repro.autograd.linear`), and the activation that follows it folds
into that node: ``layer(x, relu=True)`` or ``layer(x, clip=(low, high))``,
and a :class:`Sequential` folds each ``Linear`` followed by a ``ReLU``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, linear
from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine transformation ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to learn an additive bias term.
    activation:
        Initialisation hint: ``"relu"`` selects He initialisation, anything
        else uses Xavier.
    rng:
        Random generator used for reproducible weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        if activation == "relu":
            weight = init.he_normal(in_features, out_features, rng=rng)
        else:
            weight = init.xavier_uniform(in_features, out_features, rng=rng)
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(init.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor, *, relu: bool = False, clip: Optional[Tuple[float, float]] = None) -> Tensor:
        """``x W + b``, then a ReLU (``relu=True``) or a clip to ``clip = (low, high)``."""
        return linear(x, self.weight, self.bias, relu=relu, clip=clip)

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; active only while the module is in training mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = self._rng.binomial(1, keep, size=x.shape) / keep
        return x * Tensor(mask)


class Sequential(Module):
    """Run child modules in order, feeding each output into the next layer.

    A :class:`Linear` followed by a :class:`ReLU` runs as one call,
    ``linear(x, relu=True)``; the ``ReLU`` keeps its place in ``layers`` (and
    so in the ``state_dict`` names).
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers: List[Module] = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        layers = self.layers
        i = 0
        while i < len(layers):
            layer = layers[i]
            if isinstance(layer, Linear) and i + 1 < len(layers) and type(layers[i + 1]) is ReLU:
                x = layer(x, relu=True)
                i += 2
            else:
                x = layer(x)
                i += 1
        return x

    def append(self, module: Module) -> "Sequential":
        self.layers.append(module)
        return self

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class MLP(Module):
    """Multi-layer perceptron with a configurable stack of hidden layers.

    This is the classifier architecture used by the matching layer of the
    Siamese model (Section IV-A: a two-layer MLP with non-linear activations)
    and by the deep baselines.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Iterable[int],
        out_features: int,
        activation: Callable[[], Module] = ReLU,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        sizes = [in_features, *hidden_sizes]
        layers: List[Module] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            layers.append(Linear(fan_in, fan_out, rng=rng))
            layers.append(activation())
            if dropout > 0.0:
                layers.append(Dropout(dropout, rng=rng))
        layers.append(Linear(sizes[-1], out_features, activation="linear", rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

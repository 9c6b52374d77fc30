"""Gradient-descent optimisers for the numpy neural-network library.

The paper trains both the representation VAE and the Siamese matcher with
Adam at a learning rate of 0.001 (Table III); SGD with momentum is included
for ablations and the simpler baselines.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class holding the parameter list and the shared ``zero_grad``."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity, scratch in zip(self.parameters, self._velocity, self._scratch):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= np.multiply(grad, self.lr, out=scratch)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) — the paper's default (Table III)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Two work arrays per parameter: a step allocates nothing.
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data)) for p in self.parameters]

    def step(self) -> None:
        """One update, ``m``, ``v`` and the weights written in place.

        Each line computes the expression in its comment, in that operation
        order, so the weights equal the textbook form bit for bit.
        """
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        for param, m, v, (work, root) in zip(self.parameters, self._m, self._v, self._scratch):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=work)  # m = b1 m + (1 - b1) g
            v *= self.beta2
            np.multiply(grad, grad, out=work)
            v += np.multiply(work, 1.0 - self.beta2, out=work)  # v = b2 v + (1 - b2) (g g)
            np.divide(v, bias_correction2, out=root)
            np.sqrt(root, out=root)
            root += self.epsilon  # sqrt(v_hat) + epsilon
            np.divide(m, bias_correction1, out=work)
            work *= self.lr
            work /= root  # lr m_hat / (sqrt(v_hat) + epsilon)
            param.data -= work


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Rescale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping; parameters whose gradient is ``None``
    are skipped.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    # One work array, as large as the largest gradient, holds each square in turn.
    work = np.empty(max(grad.size for grad in grads))
    total = float(np.sqrt(sum(
        float(np.square(grad, out=work[:grad.size].reshape(grad.shape)).sum()) for grad in grads
    )))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total

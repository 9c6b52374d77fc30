"""Gradient-descent optimisers for the numpy neural-network library.

The paper trains both the representation VAE and the Siamese matcher with
Adam at a learning rate of 0.001 (Table III); SGD with momentum is included
for ablations and the simpler baselines.

An optimizer owns the flat buffers of the parameters it updates (a
:class:`~repro.nn.module.FlatParameters`, built when the optimizer is): the
parameters' values and gradients are views into them, and its state
(momentum, Adam's moments, work arrays) is laid out the same way.  A step
runs each in-place ufunc once per run of consecutive parameters that hold a
gradient, so once over the whole buffer when all do; a parameter whose
``grad`` is ``None`` is skipped.  Every op is elementwise, so each weight
gets the same bytes as from a loop over separate arrays.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.nn.module import FlatParameters, Parameter


class Optimizer:
    """Base class holding the parameter list, its flat buffers, a work array
    laid out like them, and the shared ``zero_grad`` and ``clip_grad_norm``."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self._flat = FlatParameters(self.parameters)
        self._scratch = np.empty_like(self._flat.data)

    def zero_grad(self) -> None:
        """Set every ``grad`` to ``None``; the buffer is left as it is, since
        the next backward pass writes each first gradient over its view."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """:func:`clip_grad_norm` over this optimizer's parameters, one ufunc
        call per run of its flat gradient buffer; returns the same norm and
        leaves the same bytes."""
        grads = self._flat.grad
        runs = [(grads[lo:hi], sizes) for lo, hi, sizes in self._flat.spans()]
        return _clip(runs, max_norm, self._scratch)


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
        self._velocity = np.zeros_like(self._flat.data)

    def step(self) -> None:
        values, grads = self._flat.data, self._flat.grad
        for lo, hi, _ in self._flat.spans():
            grad = grads[lo:hi]
            if self.weight_decay:
                grad = grad + self.weight_decay * values[lo:hi]
            if self.momentum:
                velocity = self._velocity[lo:hi]
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            values[lo:hi] -= np.multiply(grad, self.lr, out=self._scratch[lo:hi])


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
        self._m = np.zeros_like(self._flat.data)
        self._v = np.zeros_like(self._flat.data)
        # A second work array beside ``_scratch``: a step allocates nothing.
        self._root = np.empty_like(self._flat.data)

    def step(self) -> None:
        """One update, ``m``, ``v`` and the weights written in place.

        Each line computes the expression in its comment, in that operation
        order, so the weights equal the textbook form bit for bit.
        """
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        values, grads = self._flat.data, self._flat.grad
        for lo, hi, _ in self._flat.spans():
            param, grad = values[lo:hi], grads[lo:hi]
            m, v, work, root = self._m[lo:hi], self._v[lo:hi], self._scratch[lo:hi], self._root[lo:hi]
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=work)  # m = b1 m + (1 - b1) g
            v *= self.beta2
            np.square(grad, out=work)
            v += np.multiply(work, 1.0 - self.beta2, out=work)  # v = b2 v + (1 - b2) (g g)
            np.divide(v, bias_correction2, out=root)
            np.sqrt(root, out=root)
            root += self.epsilon  # sqrt(v_hat) + epsilon
            np.divide(m, bias_correction1, out=work)
            work *= self.lr
            work /= root  # lr m_hat / (sqrt(v_hat) + epsilon)
            param -= work


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Rescale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping; parameters whose gradient is ``None``
    are skipped.  (:meth:`Optimizer.clip_grad_norm` does the same over an
    optimizer's flat gradient buffer.)
    """
    runs = [(p.grad, [p.grad.size]) for p in parameters if p.grad is not None]
    return _clip(runs, max_norm, np.empty(max((run.size for run, _ in runs), default=0)))


def _clip(runs: List[Tuple[np.ndarray, List[int]]], max_norm: float, work: np.ndarray) -> float:
    """Clip gradients held as ``(array, sizes)`` runs: each array holds, end to
    end, the gradients of the given sizes; ``work`` is a 1-D array at least as
    long as the longest run.

    The norm is ``sqrt(sum(||g||^2))`` over the gradients in order, one
    reduction per gradient, whatever the runs; squaring and scaling are one
    ufunc call per run.
    """
    if not runs:
        return 0.0
    terms = []
    for run, sizes in runs:
        squares = np.square(run, out=work[:run.size].reshape(run.shape)).reshape(-1)
        offset = 0
        for size in sizes:
            terms.append(float(squares[offset:offset + size].sum()))
            offset += size
    total = float(np.sqrt(sum(terms)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for run, _ in runs:
            run *= scale
    return total

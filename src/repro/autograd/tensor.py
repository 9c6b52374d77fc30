"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class used by every neural model in
the reproduction (the VAE representation model, the Siamese matcher, and the
baseline matchers).  It implements a small but complete dynamic computation
graph that mirrors the subset of the PyTorch tensor API the paper's models
need (matmul, elementwise arithmetic, exp/log, reductions, indexing,
concatenation, broadcasting), so the higher-level ``repro.nn`` package reads
like the PyTorch code the original authors would have written.

When an op records, how long a graph lives and which buffers ops reuse are
described in the package docstring (:mod:`repro.autograd`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]


class _GradMode(threading.local):
    """Whether ops record, per thread (every thread starts recording)."""

    enabled = True


_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Whether ops in the calling thread record a graph."""
    return _mode.enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the block without recording a graph, in the calling thread only.

    The previous mode is restored on exit, also when the block raises, so the
    context nests.
    """
    previous = _mode.enabled
    _mode.enabled = False
    try:
        yield
    finally:
        _mode.enabled = previous


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float64 numpy array without copying needlessly."""
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Numpy broadcasting can expand an operand along new leading axes or along
    axes of size one.  The gradient flowing back through a broadcast operation
    must be summed over those expanded axes to recover the operand's shape.
    Returns ``grad`` itself when nothing was expanded, a new array otherwise.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size one.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _released(grad: np.ndarray) -> None:
    """Stands in for the closure of a node :meth:`Tensor.backward` has released."""
    raise RuntimeError(
        "backward() through a graph that has already been released: a backward "
        "pass frees the graph as it walks, so run the forward pass again"
    )


#: The slots a pickle or a deep copy of a tensor carries (all but ``_grad_view``).
_STATE = ("data", "grad", "requires_grad", "_parents", "_backward", "name")


class Tensor:
    """A node in the dynamic computation graph.

    Parameters
    ----------
    data:
        The underlying numpy array (any shape, stored as float64).
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    name:
        Optional label used in error messages and graph dumps.

    A tensor made by this constructor is a *leaf*.  Ops make the other kind:
    a node with ``_parents`` (its operands, in order) and ``_backward`` (a
    closure that takes this node's gradient and accumulates into the parents
    that require one).

    A leaf may also hold ``_grad_view``: the array its first gradient of a
    backward pass is written into (a view into an optimizer's flat gradient
    buffer, see :class:`repro.nn.module.FlatParameters`).  It is not part of
    the tensor's state: a pickle or a deep copy leaves it out.
    """

    __slots__ = _STATE + ("_grad_view",)

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.name = name
        self._grad_view: Optional[np.ndarray] = None

    def __getstate__(self):
        # Exactly what the default would pickle without ``_grad_view``, so a
        # pickled module's bytes do not depend on whether it was trained.
        return getattr(self, "__dict__", None) or None, {name: getattr(self, name) for name in _STATE}

    def __setstate__(self, state) -> None:
        extra, slots = state
        if extra:
            self.__dict__.update(extra)
        for name, value in slots.items():
            setattr(self, name, value)
        self._grad_view = None

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a direct reference, not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _result(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """The tensor an op returns: a recorded node when gradient mode is on
        and a parent requires a gradient, a plain tensor otherwise.

        ``backward`` must not refer to the result (that would be a cycle).
        """
        out = Tensor(data)
        if _mode.enabled:
            for parent in parents:
                if parent.requires_grad:
                    out.requires_grad = True
                    out._parents = parents
                    out._backward = backward
                    break
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``self.grad`` is always an array nothing else refers to, so later
        contributions are added in place.  A first contribution is copied into
        ``_grad_view`` when the tensor has one; otherwise ``owned`` says the
        caller computed ``grad`` for this call and keeps no reference: it is
        then adopted instead of copied.
        """
        grad = _as_array(grad)
        reduced = _unbroadcast(grad, self.data.shape)
        if self.grad is not None:
            self.grad += reduced
        elif self._grad_view is not None:
            self.grad = self._grad_view
            self.grad[...] = reduced
        elif (owned or reduced is not grad) and reduced.flags.c_contiguous:
            self.grad = reduced
        else:
            self.grad = reduced.copy()

    def _add_grad(self, op: Callable[..., np.ndarray], *operands: np.ndarray, **kwargs) -> None:
        """Accumulate ``op(*operands, **kwargs)``, a ufunc-style op taking ``out=``.

        The first contribution is computed straight into ``_grad_view`` (or a
        new array when there is none), later ones are added in place.
        """
        if self.grad is None:
            self.grad = op(*operands, out=self._grad_view, **kwargs)
        else:
            self.grad += op(*operands, **kwargs)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The graph is released as it is walked (see :mod:`repro.autograd`), so
        only leaves hold a gradient afterwards and a second call raises
        ``RuntimeError``.

        Parameters
        ----------
        grad:
            The upstream gradient.  Defaults to ``1.0`` which is only valid
            when ``self`` is a scalar (the usual loss case).
        """
        if grad is None and self.data.size != 1:
            raise ValueError(
                "backward() without an explicit gradient is only defined "
                f"for scalar tensors, got shape {self.shape}"
            )
        if not self.requires_grad:
            return
        if grad is None:
            self._accumulate(np.ones_like(self.data), owned=True)
        else:
            self._accumulate(grad)

        order = self._topological_order()
        while order:
            node = order.pop()
            backward, node_grad = node._backward, node.grad
            node._backward, node._parents = _released, ()
            if node_grad is not None:
                node.grad = None
                backward(node_grad)

    def _topological_order(self) -> list:
        """Recorded nodes reachable from ``self``, parents before children.

        Leaves are left out: they have nothing to propagate.
        """
        order: list = []
        if self._backward is None:
            return order
        visited: set = set()
        stack: list = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        data = self.data + other.data
        def backward(grad: np.ndarray) -> None:
            # ``grad`` is the result's own gradient, dropped after this call:
            # the last operand to take it may keep it.
            if self.requires_grad:
                self._accumulate(grad, owned=not other.requires_grad)
            if other.requires_grad:
                other._accumulate(grad, owned=True)

        return self._result(data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __iadd__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        if self._writable_for(other):
            self.data += other.data
            return self
        return self + other

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        data = self.data - other.data
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad, owned=True)
            if other.requires_grad:
                other._accumulate(-grad, owned=True)

        return self._result(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other) - self

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        data = self.data * other.data
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(grad * self.data, owned=True)

        return self._result(data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __imul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        if self._writable_for(other):
            self.data *= other.data
            return self
        return self * other

    def _writable_for(self, other: "Tensor") -> bool:
        """Whether ``self op= other`` may write into ``self.data``.

        It may when neither the old nor the new value belongs to a graph and
        broadcasting leaves the shape alone.
        """
        if self.requires_grad or (other.requires_grad and _mode.enabled):
            return False
        shape = self.data.shape
        return other.data.shape == shape or np.broadcast_shapes(shape, other.data.shape) == shape

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        data = self.data / other.data
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2), owned=True)

        return self._result(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * (self.data ** (exponent - 1)), owned=True)

        return self._result(data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Matrix product supporting 1-D and 2-D operands."""
        other = self._ensure(other)
        data = self.data @ other.data
        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim > 2 or b.ndim > 2:  # pragma: no cover - guarded by supported model shapes
                raise NotImplementedError(
                    f"matmul backward undefined for shapes {a.shape} @ {b.shape}"
                )
            if self.requires_grad:
                if b.ndim == 1:
                    self._accumulate(grad * b if a.ndim == 1 else np.outer(grad, b), owned=True)
                else:
                    self._accumulate(grad @ b.T, owned=True)
            if other.requires_grad:
                if a.ndim == 1:
                    other._accumulate(grad * a if b.ndim == 1 else np.outer(a, grad), owned=True)
                else:
                    other._accumulate(a.T @ grad, owned=True)

        return self._result(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def _unary(self, data: np.ndarray, local_gradient: Callable[[], np.ndarray]) -> "Tensor":
        """Result of an elementwise op whose gradient is ``grad * local_gradient()``."""

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * local_gradient(), owned=True)

        return self._result(data, (self,), backward)

    def exp(self) -> "Tensor":
        value = np.clip(self.data, -60.0, 60.0)
        np.exp(value, out=value)
        return self._unary(value, lambda: value)

    def scaled_exp(self, scale: float) -> "Tensor":
        """``(self * scale).exp()`` as one node, with the same bytes both ways.

        This is the VAE's sigma head, ``exp(0.5 * log_var)``.
        """
        value = self.data * scale
        np.clip(value, -60.0, 60.0, out=value)
        np.exp(value, out=value)

        def backward(grad: np.ndarray) -> None:
            grad *= value
            grad *= scale
            self._accumulate(grad, owned=True)

        return self._result(value, (self,), backward)

    def log(self) -> "Tensor":
        safe = np.maximum(self.data, 1e-12)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / safe, owned=True)

        return self._result(np.log(safe), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        return self._unary(np.abs(self.data), lambda: np.sign(self.data))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return self._unary(self.data * mask, lambda: mask)

    def relu_(self) -> "Tensor":
        """:meth:`relu`, free to overwrite ``self`` when it is not part of a graph."""
        if self.requires_grad:
            return self.relu()
        np.multiply(self.data, self.data > 0, out=self.data)
        return self

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * value * (1.0 - value), owned=True)

        return self._result(value, (self,), backward)

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        return self._unary(value, lambda: 1.0 - value ** 2)

    def softplus(self) -> "Tensor":
        """Numerically stable ``log(1 + exp(x))``."""
        # d/dx softplus(x) = sigmoid(x); clip to keep exp() in range.
        return self._unary(
            np.logaddexp(0.0, self.data),
            lambda: 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0))),
        )

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; the gradient is passed through inside the bounds."""
        return self._unary(
            np.clip(self.data, low, high), lambda: (self.data >= low) & (self.data <= high)
        )

    def clip_(self, low: float, high: float) -> "Tensor":
        """:meth:`clip`, free to overwrite ``self`` when it is not part of a graph."""
        if self.requires_grad:
            return self.clip(low, high)
        np.clip(self.data, low, high, out=self.data)
        return self

    def maximum(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Elementwise maximum; ties send the full gradient to ``self``."""
        other = self._ensure(other)
        data = np.maximum(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            take_self = self.data >= other.data
            if self.requires_grad:
                self._accumulate(grad * take_self, owned=True)
            if other.requires_grad:
                other._accumulate(grad * (~take_self), owned=True)

        return self._result(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        def backward(grad: np.ndarray) -> None:
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._result(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original), owned=True)

        return self._result(data, (self,), backward)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        data = np.transpose(self.data, axes)
        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.transpose(grad, None if axes is None else np.argsort(axes)))

        return self._result(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        def backward(grad: np.ndarray) -> None:
            scattered = np.zeros_like(self.data)
            np.add.at(scattered, index, grad)
            self._accumulate(scattered, owned=True)

        return self._result(data, (self,), backward)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def linear(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    *,
    relu: bool = False,
    clip: Optional[Tuple[float, float]] = None,
) -> Tensor:
    """``x @ weight + bias``, then a ReLU or a clip to ``clip = (low, high)``.

    When nothing records, the product is the result's own buffer: the bias,
    the ReLU and the clip are applied to it in place.  When the op records it
    is one node, whatever it folds: its backward masks the gradient by the
    activation, then writes the bias, input and weight gradients, in that
    order, the bias and weight ones straight into their ``_grad_view``.  Each
    value equals the one the composed primitive ops (``matmul``, ``+``,
    ``relu``/``clip``) give, byte for byte.
    """
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not (_mode.enabled and any(parent.requires_grad for parent in parents)):
        out = Tensor(data)
        return out.relu_() if relu else out if clip is None else out.clip_(*clip)
    mask = None
    if relu:
        mask = data > 0
        np.multiply(data, mask, out=data)
    elif clip is not None:
        low, high = clip
        mask = (data >= low) & (data <= high)
        np.clip(data, low, high, out=data)

    def backward(grad: np.ndarray) -> None:
        if mask is not None:
            grad *= mask
        # A one-row input is the batch-of-one case of the same products.
        rows = grad if grad.ndim == 2 else grad[None, :]
        if bias is not None and bias.requires_grad:
            bias._add_grad(np.add.reduce, rows, axis=0)
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T, owned=True)
        if weight.requires_grad:
            inputs = x.data if x.data.ndim == 2 else x.data[None, :]
            weight._add_grad(np.matmul, inputs.T, rows)

    return Tensor._result(data, parents, backward)


def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each."""
    tensors = [Tensor._ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * data.ndim
                slicer[axis] = slice(int(start), int(end))
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._result(data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing back to each."""
    tensors = [Tensor._ensure(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    def backward(grad: np.ndarray) -> None:
        for tensor, part in zip(tensors, np.split(grad, len(tensors), axis=axis)):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(part, axis=axis))

    return Tensor._result(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select between two tensors based on a boolean array."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)
    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * condition, owned=True)
        if b.requires_grad:
            b._accumulate(grad * (~condition), owned=True)

    return Tensor._result(data, (a, b), backward)

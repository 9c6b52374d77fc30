"""Reverse-mode automatic differentiation engine used by :mod:`repro.nn`.

The engine is a self-contained substitute for the subset of PyTorch that the
paper's models (VAE representation model, Siamese matcher, deep baselines)
require.  See :mod:`repro.autograd.tensor` for the graph mechanics and
:mod:`repro.autograd.gradcheck` for numerical verification utilities.

When an op records
    An op records its operands and a backward closure only when gradient mode
    is on (the default) *and* at least one operand requires a gradient.
    Otherwise it returns a plain tensor: no parents, no closure,
    ``requires_grad=False``.  Inside :func:`no_grad` nothing records, so a
    forward-only score holds exactly the arrays it returns.  The mode is kept
    per thread: one thread may score under ``no_grad`` while another trains.

Graph lifetime
    A recorded node refers to its parents and to a closure over them; nothing
    refers back to the node, so a graph is acyclic and is freed by reference
    counting the moment its output is dropped.  :meth:`Tensor.backward`
    releases the graph as it walks: each node loses its closure, its parents
    and (unless it is a leaf) its gradient as soon as it has propagated, so
    activations are freed during the backward pass and only leaves keep a
    ``.grad``.  A second backward pass through a released node raises.

Buffers
    A closure skips operands that do not require a gradient, and a gradient
    array the closure computed itself is adopted by the receiving tensor
    rather than copied.  A node's gradient is an array nothing else refers
    to, so its closure may overwrite it.  ``+=``, ``*=``, :meth:`Tensor.relu_`
    and :meth:`Tensor.clip_` write into the left operand's buffer when it is
    not part of a graph, and fall back to the recording op when it is;
    :func:`linear` does the same with its product and
    :meth:`Tensor.scaled_exp` with its own, which spares inference an array
    per bias add and activation.  A leaf an optimizer
    holds has a gradient buffer (``_grad_view``, a view into the optimizer's
    flat buffer, see :mod:`repro.nn.module`): its first gradient of a pass is
    written there, by a fused node straight from the product (``out=``).

Fused nodes
    :func:`linear` (``x @ W + b``, then a ReLU or a clip),
    :meth:`Tensor.scaled_exp` (``exp(scale * x)``, the VAE's sigma head) and
    :func:`repro.nn.siamese_loss` (the matcher's BCE plus contrastive loss)
    each record one node where the composed primitive ops record several.
    The node keeps its operands and what its backward needs (the activation
    mask, the exponentials); its backward computes each gradient with the
    ops the composed graph would use and adds them in the order that graph
    would, so values and gradients are the composed ops' bytes.  Nothing is
    fused when nothing records: inference runs the primitive ops in place.
"""

from repro.autograd.tensor import Tensor, concatenate, is_grad_enabled, linear, no_grad, stack, where
from repro.autograd.gradcheck import numerical_gradient, check_gradient

__all__ = [
    "Tensor",
    "concatenate",
    "linear",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "numerical_gradient",
    "check_gradient",
]

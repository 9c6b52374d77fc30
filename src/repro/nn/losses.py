"""Loss functions used across the reproduction.

The VAE objective (Equation 2 of the paper) combines a reconstruction term
with a KL divergence to the standard normal prior; the matcher objective
(Equation 4) combines binary cross-entropy with a contrastive margin term.
Both are assembled from the primitives in this module.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over every element."""
    diff = prediction - target
    return (diff * diff).mean()


def sum_squared_error(prediction: Tensor, target: Tensor) -> Tensor:
    """Summed squared error per example, averaged over the batch.

    This is the Gaussian log-likelihood reconstruction term used for the VAE:
    with a unit-variance Gaussian decoder, ``-log p(x|z)`` is proportional to
    the squared error summed over feature dimensions.
    """
    diff = prediction - target
    per_example = (diff * diff).sum(axis=-1)
    return per_example.mean()


def binary_cross_entropy(probabilities: Tensor, targets: Tensor, epsilon: float = 1e-7) -> Tensor:
    """Binary cross-entropy for probabilities already passed through sigmoid."""
    probs = probabilities.clip(epsilon, 1.0 - epsilon)
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    loss = -(targets * probs.log() + (1.0 - targets) * (1.0 - probs).log())
    return loss.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Numerically stable BCE computed directly from logits.

    Uses the identity ``BCE(z, y) = max(z, 0) - z * y + softplus(-|z|)``.
    """
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    positive_part = logits.maximum(Tensor(np.zeros(logits.shape)))
    loss = positive_part - logits * targets + (-(logits.abs())).softplus()
    return loss.mean()


def gaussian_kl_divergence(mu: Tensor, log_var: Tensor) -> Tensor:
    """KL( N(mu, sigma^2) || N(0, I) ) for diagonal Gaussians.

    Equation 2 of the paper, analytic form::

        KL = -0.5 * sum(1 + log sigma^2 - mu^2 - sigma^2)

    The sum runs over the latent dimensions; the result is averaged over the
    batch so it can be added directly to a per-example reconstruction loss.
    """
    kl_per_example = -0.5 * (1.0 + log_var - mu * mu - log_var.exp()).sum(axis=-1)
    return kl_per_example.mean()


def contrastive_loss(distances: Tensor, labels: Tensor, margin: float) -> Tensor:
    """Contrastive loss over pairwise distances (second term of Equation 4).

    Duplicate pairs (label 1) are pulled together by minimising their
    distance; non-duplicate pairs (label 0) are pushed apart until the margin
    ``M`` is reached, after which no further effort is spent on them.
    """
    labels = labels if isinstance(labels, Tensor) else Tensor(labels)
    zeros = Tensor(np.zeros(distances.shape))
    margin_term = (Tensor(np.full(distances.shape, margin)) - distances).maximum(zeros)
    loss = labels * distances + (1.0 - labels) * margin_term
    return loss.mean()


def siamese_loss(logits: Tensor, distances: Tensor, labels: Tensor, margin: float, contrastive_weight: float) -> Tensor:
    """Equation 4 as one graph node: ``binary_cross_entropy_with_logits(logits,
    labels) + contrastive_weight * contrastive_loss(distances, labels, margin)``.

    The value and both gradients are the bytes the two composed losses give:
    every array below is one op of theirs, in their order, and the three
    terms of the logits' gradient (from ``max(z, 0)``, ``z * y`` and
    ``softplus(-|z|)``) are added in the order the composed graph's backward
    pass adds them.
    """
    y = labels.data if isinstance(labels, Tensor) else np.asarray(labels, dtype=np.float64)
    z, d = logits.data, distances.data
    neg_abs = np.abs(z) * -1.0
    bce = np.maximum(z, 0.0) - z * y + np.logaddexp(0.0, neg_abs)
    one_minus_y = 1.0 - y
    slack = np.full(d.shape, margin) - d
    contrastive = y * d + one_minus_y * np.maximum(slack, 0.0)
    total = np.asarray(bce.sum() / float(z.size) + (contrastive.sum() / float(d.size)) * contrastive_weight)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            per_row = np.broadcast_to(grad / float(z.size), z.shape)
            term = per_row * (z >= 0.0)
            term += (-per_row) * y
            sigmoid = 1.0 / (1.0 + np.exp(-np.clip(neg_abs, -60.0, 60.0)))
            term += ((per_row * sigmoid) * -1.0) * np.sign(z)
            logits._accumulate(term, owned=True)
        if distances.requires_grad:
            per_row = np.broadcast_to((grad * contrastive_weight) / float(d.size), d.shape)
            term = per_row * y
            term += -((per_row * one_minus_y) * (slack >= 0.0))
            distances._accumulate(term, owned=True)

    return Tensor._result(total, (logits, distances), backward)

"""Distances between diagonal Gaussian entity representations.

The matcher (Figure 3) and the active-learning machinery reason about the
similarity of two tuples through distances between the per-attribute Gaussian
distributions produced by the encoder.  Equation 3 of the paper gives the
squared 2-Wasserstein distance between diagonal Gaussians; the Mahalanobis
variant is provided for the distance ablation mentioned in Section IV-A.

Two flavours are implemented: plain numpy functions (used by evaluation,
bootstrapping and sampling) and Tensor-graph versions (used inside the
matcher where gradients must flow back into the encoder).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor


# ----------------------------------------------------------------------
# numpy versions
# ----------------------------------------------------------------------
def wasserstein2_vector(mu_p: np.ndarray, sigma_p: np.ndarray, mu_q: np.ndarray, sigma_q: np.ndarray) -> np.ndarray:
    """Per-dimension contributions of W2^2 (Equation 3), not yet summed.

    All inputs broadcast; the output has the broadcast shape of the inputs.
    """
    return (mu_p - mu_q) ** 2 + (sigma_p - sigma_q) ** 2


def wasserstein2_squared(mu_p: np.ndarray, sigma_p: np.ndarray, mu_q: np.ndarray, sigma_q: np.ndarray) -> np.ndarray:
    """Squared 2-Wasserstein distance, summed over the last axis."""
    return wasserstein2_vector(mu_p, sigma_p, mu_q, sigma_q).sum(axis=-1)


def mahalanobis_squared(mu_p: np.ndarray, sigma_p: np.ndarray, mu_q: np.ndarray, sigma_q: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Symmetrised squared Mahalanobis distance between diagonal Gaussians.

    The difference of means is scaled by the average of the two diagonal
    covariances, giving a dimension-weighted alternative to W2 used in the
    paper's distance ablation.
    """
    variance = 0.5 * (sigma_p ** 2 + sigma_q ** 2) + epsilon
    return (((mu_p - mu_q) ** 2) / variance).sum(axis=-1)


def euclidean(mu_p: np.ndarray, mu_q: np.ndarray) -> np.ndarray:
    """Euclidean distance between means (the LSH surrogate of Section V-A)."""
    return np.sqrt(((mu_p - mu_q) ** 2).sum(axis=-1))


def tuple_wasserstein(mu_p: np.ndarray, sigma_p: np.ndarray, mu_q: np.ndarray, sigma_q: np.ndarray) -> float:
    """Tuple-level W2^2: mean of the per-attribute distances.

    Inputs have shape (arity, latent_dim); the result is a scalar summarising
    how far apart two complete tuples are in the latent space.  Used by
    Algorithm 1 to rank candidate pairs.
    """
    per_attribute = wasserstein2_squared(mu_p, sigma_p, mu_q, sigma_q)
    return float(np.mean(per_attribute))


# ----------------------------------------------------------------------
# Tensor (differentiable) versions
# ----------------------------------------------------------------------
def wasserstein2_vector_t(mu_p: Tensor, sigma_p: Tensor, mu_q: Tensor, sigma_q: Tensor) -> Tensor:
    """Differentiable per-dimension W2^2 contributions (the Distance layer)."""
    # Augmented assignments: each difference is squared and summed in its own
    # buffer when no graph needs it, and recorded as ``a * a + b * b`` otherwise.
    distance = mu_p - mu_q
    distance *= distance
    sigma_diff = sigma_p - sigma_q
    sigma_diff *= sigma_diff
    distance += sigma_diff
    return distance


def wasserstein2_squared_t(mu_p: Tensor, sigma_p: Tensor, mu_q: Tensor, sigma_q: Tensor) -> Tensor:
    """Differentiable W2^2 summed over the last axis."""
    return wasserstein2_vector_t(mu_p, sigma_p, mu_q, sigma_q).sum(axis=-1)


def mahalanobis_vector_t(mu_p: Tensor, sigma_p: Tensor, mu_q: Tensor, sigma_q: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Differentiable per-dimension Mahalanobis contributions."""
    mu_diff = mu_p - mu_q
    variance = (sigma_p * sigma_p + sigma_q * sigma_q) * 0.5 + epsilon
    return (mu_diff * mu_diff) / variance

"""Univariate Gaussian Kernel Density Estimation.

The diversity property of the active-learning sampler (Section V-B3) relies
on a KDE over the distribution of Euclidean distances between latent samples
of known duplicates (Equation 6).  This is a from-scratch implementation with
Silverman's rule-of-thumb bandwidth so the repo does not depend on
``scipy.stats`` internals; it is validated against direct computation in the
test suite.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.exceptions import NotFittedError

#: Elements of the ``(points, samples)`` kernel matrix :meth:`GaussianKDE.evaluate`
#: holds at once (512 KiB of float64): a block of query points at a time, at
#: least one point per block.
_BLOCK_ELEMENTS = 1 << 16


class GaussianKDE:
    """Kernel density estimator with Gaussian kernels over 1-d samples."""

    def __init__(self, bandwidth: Optional[float] = None) -> None:
        self.bandwidth = bandwidth
        self._samples: Optional[np.ndarray] = None
        self._bandwidth: Optional[float] = None

    # ------------------------------------------------------------------
    def fit(self, samples: Iterable[float]) -> "GaussianKDE":
        samples = np.asarray(list(samples), dtype=np.float64)
        if samples.size == 0:
            raise ValueError("cannot fit a KDE on zero samples")
        self._samples = samples
        self._bandwidth = self.bandwidth or self._silverman_bandwidth(samples)
        return self

    @staticmethod
    def _silverman_bandwidth(samples: np.ndarray) -> float:
        """Silverman's rule of thumb, robust to zero spread."""
        n = samples.size
        std = float(np.std(samples))
        iqr = float(np.subtract(*np.percentile(samples, [75, 25])))
        spread = min(std, iqr / 1.349) if iqr > 0 else std
        if spread <= 0:
            spread = max(abs(float(np.mean(samples))) * 0.1, 1e-3)
        return 0.9 * spread * n ** (-0.2)

    # ------------------------------------------------------------------
    def evaluate(self, points) -> np.ndarray:
        """Density estimate at each point (vectorised).

        ``mean(exp(-0.5 ((p - s) / bw)^2) / sqrt(2 pi)) / bw`` over the
        samples ``s``, computed for a block of points at a time in one
        preallocated row block, each op in place, in that order.
        """
        if self._samples is None or self._bandwidth is None:
            raise NotFittedError("GaussianKDE.evaluate called before fit")
        points = np.atleast_1d(np.asarray(points, dtype=np.float64))
        samples, bandwidth = self._samples, self._bandwidth
        density = np.empty(points.shape[0])
        rows = max(1, _BLOCK_ELEMENTS // samples.size)
        block = np.empty((min(rows, points.shape[0]), samples.size))
        for start in range(0, points.shape[0], rows):
            chunk = points[start:start + rows]
            z = block[:chunk.shape[0]]
            np.subtract(chunk[:, None], samples[None, :], out=z)
            z /= bandwidth
            np.square(z, out=z)
            z *= -0.5
            np.exp(z, out=z)
            z /= np.sqrt(2.0 * np.pi)
            z.mean(axis=1, out=density[start:start + chunk.shape[0]])
        density /= bandwidth
        return density

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)

    def likelihood(self, point: float, floor: float = 1e-9) -> float:
        """Scalar density with a numerical floor (used in score ratios)."""
        return float(max(self.evaluate([point])[0], floor))

    @property
    def fitted_bandwidth(self) -> float:
        if self._bandwidth is None:
            raise NotFittedError("GaussianKDE has not been fitted")
        return self._bandwidth

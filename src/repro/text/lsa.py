"""Latent Semantic Analysis IRs (the paper's best-performing IR type).

LSA builds a TF-IDF document-term matrix over the corpus of attribute-value
sentences and projects it onto its leading singular directions.  The paper
reports LSA as the most robust IR choice (Section VI-B), which is why the
matching and transfer experiments default to VAER-LSA.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
from scipy import linalg

from repro.exceptions import NotFittedError
from repro.text.tfidf import TfidfVectorizer


class LSAModel:
    """Truncated-SVD topic model over TF-IDF sentence vectors."""

    def __init__(
        self,
        dim: int = 64,
        min_count: int = 1,
        max_features: Optional[int] = 1500,
        include_char_ngrams: bool = True,
    ) -> None:
        if dim <= 0:
            raise ValueError("LSA dimensionality must be positive")
        self.dim = dim
        self.vectorizer = TfidfVectorizer(
            min_count=min_count,
            max_features=max_features,
            include_char_ngrams=include_char_ngrams,
        )
        self._components: Optional[np.ndarray] = None
        self._singular_values: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, sentences: Iterable[str]) -> "LSAModel":
        matrix = self.vectorizer.fit_transform(sentences)
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit LSA on an empty corpus")
        effective_dim = min(self.dim, min(matrix.shape) - 1) if min(matrix.shape) > 1 else 1
        # Economy SVD of the document-term matrix; right singular vectors give
        # the term -> topic projection used at transform time.
        _, singular_values, vt = linalg.svd(matrix, full_matrices=False)
        # LAPACK returns ``vt`` column-major, so its leading rows are a strided
        # view; a pickled copy would come back row-major and BLAS would round
        # ``matrix @ components.T`` differently.  The column-major copy keeps
        # the bytes ``transform`` produces and survives pickling as it is.
        self._components = np.asfortranarray(vt[:effective_dim])
        self._singular_values = singular_values[:effective_dim]
        return self

    def transform(self, sentences: Iterable[str]) -> np.ndarray:
        if self._components is None:
            raise NotFittedError("LSAModel.transform called before fit")
        matrix = self.vectorizer.transform(sentences)
        projected = matrix @ self._components.T
        if projected.shape[1] < self.dim:
            padding = np.zeros((projected.shape[0], self.dim - projected.shape[1]))
            projected = np.hstack([projected, padding])
        return projected

    def fit_transform(self, sentences: Iterable[str]) -> np.ndarray:
        sentences = list(sentences)
        self.fit(sentences)
        return self.transform(sentences)

    @property
    def explained_dim(self) -> int:
        if self._components is None:
            raise NotFittedError("LSAModel has not been fitted")
        return self._components.shape[0]

"""Latent Semantic Analysis IRs (the paper's best-performing IR type).

LSA builds a TF-IDF document-term matrix over the corpus of attribute-value
sentences and projects it onto its leading singular directions.  The paper
reports LSA as the most robust IR choice (Section VI-B), which is why the
matching and transfer experiments default to VAER-LSA.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
from scipy import linalg, sparse

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
        try:
            _, singular_values, vt = linalg.svd(matrix, full_matrices=False)
        except linalg.LinAlgError:
            # The default divide-and-conquer driver (gesdd) can fail to
            # converge where the QR-iteration driver does not; retrying only
            # on failure keeps every model gesdd can fit byte-identical.
            _, singular_values, vt = linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")
        # LAPACK returns ``vt`` column-major, so its leading rows are a strided
        # view.  The column-major copy makes ``components.T`` the one
        # C-contiguous ``(vocab, dim)`` operand the sparse product in
        # ``transform`` wants (no per-call copy), and it survives pickling as
        # it is, so pickled and original models share bytes.
        self._components = np.asfortranarray(vt[:effective_dim])
        self._singular_values = singular_values[:effective_dim]
        return self

    def transform(self, sentences: Iterable[str]) -> np.ndarray:
        """LSA IRs, shape (n, dim); each row is a pure function of its sentence.

        The tf-idf rows are L2-normalised and projected as one CSR matrix, so
        memory is O(non-zeros) and a row's bytes do not depend on the batch
        it rides in (a sparse product accumulates row by row, in feature-id
        order).
        """
        if self._components is None:
            raise NotFittedError("LSAModel.transform called before fit")
        sentences = list(sentences)
        rows, cols, data = self.vectorizer.weights(sentences)
        norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=len(sentences)))
        indptr = np.searchsorted(rows, np.arange(len(sentences) + 1))
        matrix = sparse.csr_matrix(
            (data / norms[rows], cols, indptr), shape=(len(sentences), self._components.shape[1])
        )
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

"""TF-IDF vectorisation over attribute-value "sentences"."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import NotFittedError
from repro.text.tokenize import character_ngrams, tokenize
from repro.text.vocab import Vocabulary


class TfidfVectorizer:
    """TF-IDF vectoriser built around one sparse weights pass.

    :meth:`weights` counts ``(sentence, feature)`` pairs for a whole batch
    with a single ``np.unique`` and returns the tf-idf weights as COO
    triplets, so memory is O(non-zeros) and no Python runs per n-gram
    occurrence.  :meth:`transform` scatters them into the dense, L2-normalised
    document-term matrix that LSA's SVD is fitted on; LSA's own transform
    consumes the triplets without ever going dense.

    With ``include_char_ngrams`` the feature space contains word tokens *and*
    their character n-grams, so typo'd duplicates still share most features.
    This is the "morphological factors" requirement the paper places on IRs
    (Section III-B) and is what makes LSA IRs robust on dirty data.
    """

    def __init__(
        self,
        min_count: int = 1,
        max_features: Optional[int] = None,
        sublinear_tf: bool = True,
        include_char_ngrams: bool = False,
        char_ngram_range: tuple = (3, 4),
    ) -> None:
        self.min_count = min_count
        self.max_features = max_features
        self.sublinear_tf = sublinear_tf
        self.include_char_ngrams = include_char_ngrams
        self.char_ngram_range = char_ngram_range
        self.vocabulary: Optional[Vocabulary] = None
        self._idf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _features(self, token: str) -> List[str]:
        """The token itself plus, if enabled, its padded character n-grams."""
        if not self.include_char_ngrams:
            return [token]
        return [token] + character_ngrams(token, *self.char_ngram_range)

    def _fit(self, tokenised: List[List[str]]) -> None:
        features = {token: self._features(token) for tokens in tokenised for token in tokens}
        documents = [[f for token in tokens for f in features[token]] for tokens in tokenised]
        self.vocabulary = Vocabulary(min_count=self.min_count, max_size=self.max_features).fit(documents)
        self._idf = self.vocabulary.idf()

    def _weights(self, tokenised: List[List[str]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.vocabulary is None or self._idf is None:
            raise NotFittedError("TfidfVectorizer used before fit")
        width = len(self.vocabulary)
        # Call-local memo: each distinct token meets the vocabulary once.
        token_ids: Dict[str, List[int]] = {}
        flat: List[int] = []
        ends: List[int] = []
        for tokens in tokenised:
            for token in tokens:
                ids = token_ids.get(token)
                if ids is None:
                    ids = token_ids[token] = self.vocabulary.encode(self._features(token))
                flat += ids
            ends.append(len(flat))
        lengths = np.diff(np.asarray(ends, dtype=np.int64), prepend=0)
        keys = np.repeat(np.arange(len(tokenised), dtype=np.int64) * width, lengths)
        keys += np.asarray(flat, dtype=np.int64)
        keys, counts = np.unique(keys, return_counts=True)
        rows, cols = np.divmod(keys, width)
        data = counts.astype(np.float64)
        if self.sublinear_tf:
            data = 1.0 + np.log(data)
        return rows, cols, data * self._idf[cols]

    def _dense(self, tokenised: List[List[str]]) -> np.ndarray:
        rows, cols, data = self._weights(tokenised)
        matrix = np.zeros((len(tokenised), len(self.vocabulary)), dtype=np.float64)
        matrix[rows, cols] = data
        # L2-normalise non-empty rows so cosine similarity is meaningful.  The
        # norm stays dense: LSA's SVD amplifies a 1e-15 change in this matrix
        # into a different basis, so these bytes must not move.
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        np.divide(matrix, norms, out=matrix, where=norms > 0)
        return matrix

    # ------------------------------------------------------------------
    def fit(self, sentences: Iterable[str]) -> "TfidfVectorizer":
        self._fit([tokenize(sentence) for sentence in sentences])
        return self

    def weights(self, sentences: Iterable[str]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Un-normalised tf-idf weights as COO ``(rows, cols, data)`` triplets.

        Sorted by row, then by feature id, one triplet per distinct pair.
        """
        return self._weights([tokenize(sentence) for sentence in sentences])

    def transform(self, sentences: Iterable[str]) -> np.ndarray:
        """Dense L2-normalised document-term matrix, shape (n, |vocab|)."""
        return self._dense([tokenize(sentence) for sentence in sentences])

    def fit_transform(self, sentences: Iterable[str]) -> np.ndarray:
        tokenised = [tokenize(sentence) for sentence in sentences]
        self._fit(tokenised)
        return self._dense(tokenised)

    @property
    def num_features(self) -> int:
        if self.vocabulary is None:
            raise NotFittedError("TfidfVectorizer has not been fitted")
        return len(self.vocabulary)

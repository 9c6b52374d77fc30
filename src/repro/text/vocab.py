"""Vocabulary with frequency counts, used by TF-IDF, LSA and word2vec."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional

import numpy as np


class Vocabulary:
    """Maps tokens to contiguous integer ids, with document/term frequencies."""

    def __init__(self, min_count: int = 1, max_size: Optional[int] = None) -> None:
        if min_count < 1:
            raise ValueError("min_count must be at least 1")
        self.min_count = min_count
        self.max_size = max_size
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        self.term_frequency: Counter = Counter()
        self.document_frequency: Counter = Counter()
        self.num_documents = 0

    # ------------------------------------------------------------------
    def fit(self, documents: Iterable[List[str]]) -> "Vocabulary":
        """Build the vocabulary from tokenised documents."""
        for tokens in documents:
            self.num_documents += 1
            self.term_frequency.update(tokens)
            self.document_frequency.update(set(tokens))
        candidates = [
            (token, count)
            for token, count in self.term_frequency.items()
            if count >= self.min_count
        ]
        candidates.sort(key=lambda item: (-item[1], item[0]))
        if self.max_size is not None:
            candidates = candidates[: self.max_size]
        self._token_to_id = {token: i for i, (token, _) in enumerate(candidates)}
        self._id_to_token = [token for token, _ in candidates]
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> Optional[int]:
        return self._token_to_id.get(token)

    def token_of(self, index: int) -> str:
        return self._id_to_token[index]

    def tokens(self) -> List[str]:
        return list(self._id_to_token)

    def encode(self, tokens: List[str]) -> List[int]:
        """Map tokens to ids, silently dropping out-of-vocabulary tokens."""
        return [index for index in map(self._token_to_id.get, tokens) if index is not None]

    def idf(self, smooth: bool = True) -> np.ndarray:
        """Inverse document frequency vector aligned with token ids."""
        df = np.array(
            [self.document_frequency[token] for token in self._id_to_token],
            dtype=np.float64,
        )
        n = self.num_documents
        if smooth:
            return np.log((1.0 + n) / (1.0 + df)) + 1.0
        return np.log(np.maximum(n / np.maximum(df, 1.0), 1.0))

    def unigram_distribution(self, power: float = 0.75) -> np.ndarray:
        """Smoothed unigram distribution used for negative sampling."""
        counts = np.array(
            [self.term_frequency[token] for token in self._id_to_token],
            dtype=np.float64,
        )
        if counts.sum() == 0:
            return np.full(len(counts), 1.0 / max(len(counts), 1))
        probabilities = counts ** power
        return probabilities / probabilities.sum()

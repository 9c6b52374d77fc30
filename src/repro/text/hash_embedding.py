"""Character n-gram hashing embeddings.

The paper's W2V IRs average *pre-trained* word embeddings over the tokens of
an attribute value.  Pre-trained vectors cannot be downloaded in this offline
environment, so this module provides the corpus-independent stand-in: each
token is embedded as the mean of deterministic pseudo-random vectors assigned
to its character n-grams (fastText-style).  The property downstream code
relies on is preserved — morphologically similar tokens (including typo'd
duplicates) share most n-grams and therefore land close together — while the
vectors require no training data at all, matching the "pre-trained" usage.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.text.tokenize import character_ngrams, tokenize


def _seed_from_string(text: str) -> int:
    """Stable 64-bit seed derived from a string (process-independent)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class HashEmbedding:
    """Deterministic n-gram hashing embedder for tokens and sentences."""

    def __init__(self, dim: int = 64, n_min: int = 3, n_max: int = 4, cache_size: int = 100_000) -> None:
        if dim <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dim = dim
        self.n_min = n_min
        self.n_max = n_max
        self._cache: Dict[str, np.ndarray] = {}
        self._cache_size = cache_size

    def __getstate__(self) -> dict:
        # The cache is re-derivable from the n-grams' hashes; a pickle (every
        # published pool state) must not carry up to ``cache_size`` vectors.
        return {**self.__dict__, "_cache": {}}

    # ------------------------------------------------------------------
    def ngram_vector(self, ngram: str) -> np.ndarray:
        """Pseudo-random unit-variance vector assigned to one n-gram."""
        cached = self._cache.get(ngram)
        if cached is not None:
            return cached
        rng = np.random.default_rng(_seed_from_string(ngram))
        vector = rng.standard_normal(self.dim) / np.sqrt(self.dim)
        if len(self._cache) < self._cache_size:
            self._cache[ngram] = vector
        return vector

    def embed_token(self, token: str) -> np.ndarray:
        """Mean n-gram vector of a token (zero vector for empty tokens)."""
        grams = character_ngrams(token, self.n_min, self.n_max)
        if not grams:
            grams = [token] if token else []
        if not grams:
            return np.zeros(self.dim)
        return np.mean([self.ngram_vector(g) for g in grams], axis=0)

    def embed_sentence(self, sentence: str) -> np.ndarray:
        """Average token embedding of a sentence (the W2V IR recipe)."""
        tokens = tokenize(sentence)
        if not tokens:
            return np.zeros(self.dim)
        return np.mean([self.embed_token(token) for token in tokens], axis=0)

    def embed_sentences(self, sentences: Iterable[str]) -> np.ndarray:
        """Stack of sentence embeddings, shape (n, dim)."""
        sentences = list(sentences)
        if not sentences:
            return np.zeros((0, self.dim))
        return np.vstack([self.embed_sentence(s) for s in sentences])


class ContextualHashEmbedding(HashEmbedding):
    """BERT-substitute: order- and context-sensitive sentence embeddings.

    The paper only uses BERT as a black box mapping an attribute-value
    sentence to a dense vector.  This substitute keeps two BERT-like
    behaviours that plain averaging lacks: (i) token order matters through a
    position-dependent weighting, and (ii) each token's contribution is
    modulated by a local context window (a bag of its neighbours), so the same
    word in different contexts yields different contributions.
    """

    def __init__(self, dim: int = 64, window: int = 2, position_decay: float = 0.85, **kwargs) -> None:
        super().__init__(dim=dim, **kwargs)
        if window < 0:
            raise ValueError("context window must be non-negative")
        self.window = window
        self.position_decay = position_decay

    def embed_sentence(self, sentence: str) -> np.ndarray:
        tokens = tokenize(sentence)
        if not tokens:
            return np.zeros(self.dim)
        token_vectors = [self.embed_token(token) for token in tokens]
        output = np.zeros(self.dim)
        total_weight = 0.0
        for position, vector in enumerate(token_vectors):
            lo = max(0, position - self.window)
            hi = min(len(tokens), position + self.window + 1)
            context = np.mean(token_vectors[lo:hi], axis=0)
            # Mix the token with its context; modulate by a positional weight
            # so reordering tokens changes the sentence vector.
            weight = self.position_decay ** position
            mixed = 0.7 * vector + 0.3 * context
            gate = np.tanh(mixed * (1.0 + 0.1 * position))
            output += weight * gate
            total_weight += weight
        return output / max(total_weight, 1e-12)

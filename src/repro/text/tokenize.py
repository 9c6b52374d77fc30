"""Tokenisation and string normalisation shared by all IR generators."""

from __future__ import annotations

import re
from typing import List

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")
_WHITESPACE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace; keeps alphanumerics and spaces."""
    text = text.lower()
    text = re.sub(r"[^a-z0-9\s]", " ", text)
    return _WHITESPACE.sub(" ", text).strip()


def tokenize(text: str) -> List[str]:
    """Split ``text`` into lowercase alphanumeric tokens."""
    return _TOKEN_PATTERN.findall(text.lower())


def character_ngrams(token: str, n_min: int = 3, n_max: int = 4, pad: bool = True) -> List[str]:
    """Character n-grams of a token, optionally padded with boundary markers.

    These power the hashing embeddings that stand in for pre-trained word
    vectors: small typos change only a few n-grams, so corrupted duplicates
    stay close in the embedded space.
    """
    if pad:
        token = f"<{token}>"
    return [token[i:i + n] for n in range(n_min, n_max + 1) for i in range(len(token) - n + 1)]


def sentence_of(values: List[str], separator: str = " ") -> str:
    """Join attribute values into the "sentence" form used for IR generation."""
    return separator.join(v for v in values if v)

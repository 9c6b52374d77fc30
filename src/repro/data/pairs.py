"""Labeled tuple pairs and pair sets.

The supervised matcher and every baseline consume sets of
``(left record, right record, label)`` triples.  :class:`PairSet` is the
container used for train/validation/test splits throughout the repo, mirroring
the "Training"/"Test" columns of Table II in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchemaError


@dataclass(frozen=True)
class RecordPair:
    """A candidate pair referencing one record on each side of the task."""

    left_id: str
    right_id: str

    def key(self) -> Tuple[str, str]:
        return (self.left_id, self.right_id)


@dataclass(frozen=True)
class LabeledPair:
    """A record pair together with its duplicate / non-duplicate label."""

    left_id: str
    right_id: str
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise SchemaError(f"pair label must be 0 or 1, got {self.label}")

    @property
    def pair(self) -> RecordPair:
        return RecordPair(self.left_id, self.right_id)

    def key(self) -> Tuple[str, str]:
        return (self.left_id, self.right_id)


class PairSet:
    """An ordered, duplicate-free collection of labeled pairs."""

    def __init__(self, pairs: Optional[Iterable[LabeledPair]] = None) -> None:
        self._pairs: List[LabeledPair] = []
        self._seen: set = set()
        for pair in pairs or []:
            self.add(pair)

    # ------------------------------------------------------------------
    def add(self, pair: LabeledPair) -> bool:
        """Add ``pair`` unless an identical (left, right) key already exists.

        Returns ``True`` when the pair was inserted.
        """
        key = pair.key()
        if key in self._seen:
            return False
        self._seen.add(key)
        self._pairs.append(pair)
        return True

    def extend(self, pairs: Iterable[LabeledPair]) -> int:
        """Add many pairs; return how many were actually inserted."""
        return sum(1 for pair in pairs if self.add(pair))

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[LabeledPair]:
        return iter(self._pairs)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._seen

    def __repr__(self) -> str:
        return f"PairSet(size={len(self)}, positives={self.num_positives()})"

    # ------------------------------------------------------------------
    def pairs(self) -> List[LabeledPair]:
        return list(self._pairs)

    def labels(self) -> np.ndarray:
        return np.array([pair.label for pair in self._pairs], dtype=np.int64)

    def num_positives(self) -> int:
        return int(sum(pair.label for pair in self._pairs))

    def num_negatives(self) -> int:
        return len(self) - self.num_positives()

    def positive_rate(self) -> float:
        return self.num_positives() / len(self) if self._pairs else 0.0

    def positives(self) -> "PairSet":
        return PairSet(pair for pair in self._pairs if pair.label == 1)

    def negatives(self) -> "PairSet":
        return PairSet(pair for pair in self._pairs if pair.label == 0)

    def merge(self, other: "PairSet") -> "PairSet":
        """Return a new pair set containing pairs from both sets."""
        merged = PairSet(self._pairs)
        merged.extend(other.pairs())
        return merged

    def subset(self, indices: Sequence[int]) -> "PairSet":
        return PairSet(self._pairs[i] for i in indices)

    def shuffled(self, rng: np.random.Generator) -> "PairSet":
        order = rng.permutation(len(self._pairs))
        return self.subset(list(order))

    def head(self, n: int) -> "PairSet":
        return PairSet(self._pairs[:n])

    def split(self, fraction: float, rng: Optional[np.random.Generator] = None) -> Tuple["PairSet", "PairSet"]:
        """Split into two disjoint sets, the first holding ``fraction`` of pairs.

        The split is stratified by label so both parts keep a usable balance.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be strictly between 0 and 1")
        rng = rng or np.random.default_rng()
        first: List[LabeledPair] = []
        second: List[LabeledPair] = []
        for label in (1, 0):
            group = [p for p in self._pairs if p.label == label]
            order = rng.permutation(len(group))
            cut = int(round(fraction * len(group)))
            first.extend(group[i] for i in order[:cut])
            second.extend(group[i] for i in order[cut:])
        return PairSet(first), PairSet(second)


@dataclass
class DatasetSplits:
    """Train/validation/test pair splits accompanying an ER task."""

    train: PairSet
    validation: PairSet
    test: PairSet

    def sizes(self) -> Tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))

    def summary(self) -> str:
        return (
            f"train={len(self.train)} (+{self.train.num_positives()}), "
            f"valid={len(self.validation)} (+{self.validation.num_positives()}), "
            f"test={len(self.test)} (+{self.test.num_positives()})"
        )

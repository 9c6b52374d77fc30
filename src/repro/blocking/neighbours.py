"""Top-K nearest-neighbour search over entity representations.

Used in three places that mirror the paper:

* the representation-learning evaluation (Table IV) performs LSH top-K search
  on raw IRs and on VAER encodings and measures P/R/F1 @ K;
* Algorithm 1 (AL bootstrapping) builds the unlabeled candidate pool from
  each tuple's K nearest neighbours;
* the same search doubles as a blocking step for an end-to-end ER pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocking.lsh import EuclideanLSHIndex
from repro.config import BlockingConfig
from repro.data.pairs import RecordPair
from repro.exceptions import NotFittedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.store import EncodingStore


@dataclass
class NeighbourResult:
    """Top-K neighbours of one query record."""

    query_key: object
    neighbours: List[Tuple[object, float]]

    def keys(self) -> List[object]:
        return [key for key, _ in self.neighbours]


def assemble_candidate_pairs(results: Iterable[NeighbourResult]) -> List[RecordPair]:
    """(query, neighbour) results flattened into deduplicated candidate pairs.

    The single definition of blocking-output assembly: every consumer of
    top-K results — :meth:`NearestNeighbourSearch.candidate_pairs`, the
    parallel blocking workers — flattens through here, so the pair order
    (query order, then neighbour rank) and the dedup policy cannot diverge.
    """
    pairs: List[RecordPair] = []
    seen: set = set()
    for result in results:
        for neighbour_key, _ in result.neighbours:
            key = (result.query_key, neighbour_key)
            if key in seen:
                continue
            seen.add(key)
            pairs.append(RecordPair(str(result.query_key), str(neighbour_key)))
    return pairs


def assemble_neighbour_map(results: Iterable[NeighbourResult]) -> Dict[object, List[object]]:
    """(query, neighbour) results as a mapping query key -> neighbour keys."""
    return {result.query_key: result.keys() for result in results}


class NearestNeighbourSearch:
    """LSH-backed top-K search between the two sides of an ER task."""

    def __init__(self, config: Optional[BlockingConfig] = None) -> None:
        self.config = config or BlockingConfig()
        self._index: Optional[EuclideanLSHIndex] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store: "EncodingStore",
        side: str = "right",
        config: Optional[BlockingConfig] = None,
    ) -> "NearestNeighbourSearch":
        """Build a search over one side's cached encodings.

        ``store`` is an :class:`repro.engine.EncodingStore`; the index is
        built from its cached record-level mean vectors, so blocking shares
        the same single encoding pass as matching and active learning.
        """
        encodings = store.table_encodings(side)
        return cls(config).build(encodings.flat_mu(), encodings.keys)

    @classmethod
    def from_index(
        cls, index: EuclideanLSHIndex, config: Optional[BlockingConfig] = None
    ) -> "NearestNeighbourSearch":
        """Wrap an already-built index (e.g. a delta baseline's, mutated in place)."""
        search = cls(config)
        search._index = index
        return search

    def build(self, vectors: np.ndarray, keys: Sequence[object]) -> "NearestNeighbourSearch":
        """Index the right-hand-side (or full) collection of vectors."""
        self._index = EuclideanLSHIndex(
            num_tables=self.config.num_tables,
            hash_size=self.config.hash_size,
            bucket_width=self.config.bucket_width,
            seed=self.config.seed,
        ).build(vectors, keys)
        return self

    @property
    def index(self) -> EuclideanLSHIndex:
        """The underlying LSH index (raises before :meth:`build`)."""
        if self._index is None:
            raise NotFittedError("NearestNeighbourSearch.index accessed before build")
        return self._index

    def top_k(self, query_vectors: np.ndarray, query_keys: Sequence[object], k: int = 10) -> List[NeighbourResult]:
        """Top-K neighbours of every query vector.

        Bucket hashing for the whole query block happens in one vectorized
        pass (:meth:`EuclideanLSHIndex.query_batch`); each query's own key is
        excluded from its results.
        """
        if self._index is None:
            raise NotFittedError("NearestNeighbourSearch.top_k called before build")
        query_keys = list(query_keys)
        neighbour_lists = self._index.query_batch(query_vectors, k=k, exclude=query_keys)
        return [
            NeighbourResult(query_key=key, neighbours=neighbours)
            for key, neighbours in zip(query_keys, neighbour_lists)
        ]

    # ------------------------------------------------------------------
    def candidate_pairs(
        self,
        query_vectors: np.ndarray,
        query_keys: Sequence[object],
        k: int = 10,
    ) -> List[RecordPair]:
        """Blocking output: every (query, neighbour) pair as a candidate."""
        return assemble_candidate_pairs(self.top_k(query_vectors, query_keys, k=k))

    def neighbour_map(
        self,
        query_vectors: np.ndarray,
        query_keys: Sequence[object],
        k: int = 10,
    ) -> Dict[object, List[object]]:
        """Mapping query key → list of neighbour keys."""
        return assemble_neighbour_map(self.top_k(query_vectors, query_keys, k=k))

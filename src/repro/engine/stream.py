"""Bounded-memory streaming resolution on top of the encoding store.

``VAER.resolve`` materialises every candidate pair and its feature tensors at
once, which is fine for benchmark tables but not for production-scale inputs.
This module holds the serial candidate stream the resolve executor
(:mod:`repro.engine.plan`) scores: the right-hand table is indexed once,
left-hand records are queried in blocks, and candidate pairs are packed into
batches of at most ``batch_size`` pairs.  Peak memory is therefore bounded by
the cached table encodings plus one scoring batch, regardless of how many
candidate pairs blocking emits.  A pooled run reuses the exact candidate
enumeration and batch packing below, fanning the blocking queries and
per-batch scoring out across a :class:`~repro.engine.shard.WorkerPool`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.blocking.neighbours import NearestNeighbourSearch
from repro.config import BlockingConfig
from repro.data.pairs import RecordPair
from repro.engine.store import EncodingStore
from repro.exceptions import StaleEncodingError


@dataclass
class ScoredPairs:
    """Candidate pairs with match probabilities and a decision threshold.

    The single definition of the match predicate shared by monolithic
    resolution (:class:`repro.core.pipeline.ResolutionResult`) and the
    streamed batches below — so the two paths cannot diverge on what counts
    as a match.
    """

    pairs: List[RecordPair]
    probabilities: np.ndarray
    threshold: float

    def __len__(self) -> int:
        return len(self.pairs)

    def matches(self) -> List[RecordPair]:
        """Candidate pairs predicted to be duplicates.

        The predicate is strictly ``p > threshold``: a probability exactly
        equal to the threshold is *not* a match, matching the pipeline's
        ``probabilities > self.threshold`` evaluation predicate.
        """
        return [pair for pair, p in zip(self.pairs, self.probabilities) if p > self.threshold]


def pin_store_version(store: EncodingStore) -> int:
    """Pin the representation version a stream was started against."""
    return store.representation.encoding_version


def guard_store_version(store: EncodingStore, pinned: int) -> None:
    """Fail loudly if the store was invalidated mid-stream.

    Encoding caches invalidate transparently on version bumps, which is the
    right behaviour *between* operations but silently wrong *during* one: a
    stream that continued after a refit would mix scores from two different
    encoders.  Streaming and sharded resolution call this before every batch.
    """
    current = store.representation.encoding_version
    if current != pinned:
        raise StaleEncodingError(
            f"encoding store for task {store.task.name!r} was invalidated mid-stream "
            f"(encoding_version {pinned} -> {current}); restart the resolution"
        )


@dataclass
class ResolutionBatch(ScoredPairs):
    """One scored slice of the candidate stream."""

    batch_index: int


def query_chunk_for(batch_size: int, k: int) -> int:
    """Left-table rows per blocking query chunk for a given batch size.

    The single definition of the chunk derivation: every enumerator — the
    streamed path below and the planner's parallel query fan-out — chunks
    query rows through this formula, so they all walk the left table in the
    same strides.
    """
    return max(1, batch_size // max(1, k))


def stream_candidate_pairs(
    store: EncodingStore,
    blocking: Optional[BlockingConfig] = None,
    k: int = 10,
    query_chunk: int = 512,
    search: Optional[NearestNeighbourSearch] = None,
) -> Iterator[List[RecordPair]]:
    """Blocking as a stream: top-K candidates per block of left-hand queries.

    The LSH index over the right-hand side is built once from the store's
    cached encodings; each yielded list covers ``query_chunk`` query records.
    ``search`` optionally supplies an already-built index (the executor
    hands in the one it built or mutated in place); the chunk walk — and
    therefore the emitted pair stream for an equivalent index — is identical
    either way.
    """
    if query_chunk <= 0:
        raise ValueError("query_chunk must be positive")
    pinned = pin_store_version(store)

    def generate() -> Iterator[List[RecordPair]]:
        searcher = search if search is not None else NearestNeighbourSearch.from_store(store, config=blocking)
        left = store.table_encodings("left")
        flat = left.flat_mu()
        for start in range(0, len(left), query_chunk):
            guard_store_version(store, pinned)
            stop = start + query_chunk
            chunk = searcher.candidate_pairs(flat[start:stop], left.keys[start:stop], k=k)
            if chunk:
                yield chunk

    return generate()


def pack_batches(
    chunks: Iterable[List[RecordPair]], batch_size: int
) -> Iterator[Tuple[int, List[RecordPair]]]:
    """Pack a stream of candidate lists into ``(batch_index, pairs)`` batches.

    The one definition of batch packing for streams that are not interleaved
    with scoring: every batch but the last holds exactly ``batch_size``
    pairs, in stream order.  Full batches are walked by offset and the tail
    compacted once per incoming list — re-slicing the remainder per batch
    copies the whole buffer every emission (quadratic in the list's pair
    count).
    """
    buffer: List[RecordPair] = []
    batch_index = 0
    for candidates in chunks:
        buffer.extend(candidates)
        offset = 0
        while len(buffer) - offset >= batch_size:
            yield batch_index, buffer[offset : offset + batch_size]
            batch_index += 1
            offset += batch_size
        del buffer[:offset]
    if buffer:
        yield batch_index, buffer


def iter_candidate_batches(
    store: EncodingStore,
    blocking: Optional[BlockingConfig] = None,
    k: int = 10,
    batch_size: int = 2048,
    search: Optional[NearestNeighbourSearch] = None,
) -> Iterator[Tuple[int, List[RecordPair]]]:
    """The candidate stream packed into ``(batch_index, pairs)`` batches.

    This is the executor's serial source: :func:`stream_candidate_pairs` at
    the :func:`query_chunk_for` stride through :func:`pack_batches`.  Its
    pooled source packs the shard-merged candidate stream with the same
    discipline and stride; the byte-identity between them is pinned by the
    equivalence tests in ``tests/engine/test_plan.py``.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return pack_batches(
        stream_candidate_pairs(
            store, blocking=blocking, k=k, query_chunk=query_chunk_for(batch_size, k), search=search
        ),
        batch_size,
    )

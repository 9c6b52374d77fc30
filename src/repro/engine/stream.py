"""The batch vocabulary of streaming resolution.

``VAER.resolve`` materialises every candidate pair and its feature tensors at
once, which is fine for benchmark tables but not for production-scale inputs.
The resolve executor (:mod:`repro.engine.plan`) streams instead: left-table
query chunks yield candidate lists, :func:`pack_batches` packs them into
batches of at most ``batch_size`` pairs, and each batch is scored and
yielded as a :class:`ResolutionBatch`.  Peak memory is therefore bounded by
the cached table encodings plus a few chunks and scoring batches, however
many candidate pairs blocking emits.  This module holds the pieces every
run shares — the scored-batch types, the one packer, the query-chunk stride
and the store-version guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

import numpy as np

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
    encoders.  The resolve executor calls this before every query chunk and
    every batch.
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

    The single definition of the chunk derivation: the planner partitions
    the left table into chunks of this many rows, the one grain of a
    resolve.
    """
    return max(1, batch_size // max(1, k))


def pack_batches(
    chunks: Iterable[List[RecordPair]], batch_size: int
) -> Iterator[Tuple[int, List[RecordPair]]]:
    """Pack a stream of candidate lists into ``(batch_index, pairs)`` batches.

    The one definition of batch packing: every batch but the last holds
    exactly ``batch_size`` pairs, in stream order.  Full batches are walked
    by offset and the tail compacted once per incoming list — re-slicing
    the remainder per batch copies the whole buffer every emission
    (quadratic in the list's pair count).
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

"""Row-range bounds and the worker pool of the resolve stages.

This module owns the building blocks the planner-driven engine
(:mod:`repro.engine.plan`) runs a resolve with:

* :func:`shard_bounds_for` / :class:`ShardBounds` — the row ranges a table
  is partitioned into (the planner's query chunks), derived from table
  sizes alone, so planning never forces an encode;
* :class:`WorkerPool` — *where a resolve's score units run*: one
  :mod:`concurrent.futures` executor plus its ``workers`` count and a
  ``broken`` flag.  It has two constructors, :class:`ForkWorkerPool`
  (worker processes; each task's arguments are pickled to them) and
  :class:`ThreadWorkerPool` (threads of this process), and
  :func:`make_pool` picks one;
* :func:`merge_scored_batches`, which concatenates a scored stream.

An executor whose plan has ``workers > 1`` borrows the cached local pool
(:func:`acquire_pool` / :func:`release_pool` over a single slot,
instrumented by :data:`POOL_SPAWNS`).  It runs the one schedule a serial
run uses — the parent queries each chunk and packs the pairs into score
batches — only submitting the score tasks to the pool and taking their
results in submission order, so the stream does not depend on completion
order.

Which local pool
----------------
Observed, not configured: :func:`make_pool` forks on Linux when the ``fork``
start method and a process-shared lock both work (:func:`fork_pool_available`),
and falls back to threads everywhere else (NumPy's BLAS releases the GIL in
the kernels that dominate; fork stays off on macOS, where forking after the
parent has touched Accelerate/BLAS aborts the children).  The local pool is
*persistent*: one pool serves the score units of a resolve and is cached
across resolves (delta rounds reuse it), so spawn cost is paid once.
Because the pool can predate any given run's state, workers never rely on
inherited state: each score task carries exactly what it reads — the
matcher, its batch's distinct rows of the two IR tables and the row
indices into them.  Work is deterministic on every pool: workers run the
same NumPy ops on the same arrays, so merged results are byte-identical to
a single-process run over the same store.
"""

from __future__ import annotations

import atexit
import multiprocessing
import sys
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.data.pairs import RecordPair
from repro.engine.stream import ScoredPairs


@dataclass(frozen=True)
class ShardBounds:
    """Half-open row range ``[start, stop)`` of one shard of a table."""

    side: str
    index: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


def shard_bounds_for(side: str, n_rows: int, range_rows: int) -> List[ShardBounds]:
    """Ranges of ``range_rows`` rows covering ``n_rows`` rows of one side, in row order."""
    if range_rows <= 0:
        raise ValueError("range_rows must be positive")
    if n_rows <= 0:
        return []
    return [
        ShardBounds(side=side, index=i, start=start, stop=min(start + range_rows, n_rows))
        for i, start in enumerate(range(0, n_rows, range_rows))
    ]


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------
class WorkerPool:
    """Where a resolve's score units run: one :mod:`concurrent.futures` executor.

    ``submit`` returns a :class:`concurrent.futures.Future`; ``workers``
    sizes the fan-out.  ``broken`` is set by callers that observed the pool
    die (``submit`` or a future raising
    :class:`concurrent.futures.BrokenExecutor`): the caller runs the rest of
    its schedule inline and the pool is never handed out again.
    """

    def __init__(self, executor: Executor, workers: int) -> None:
        self.workers = int(workers)
        self.broken = False
        self._executor: Optional[Executor] = executor

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return self._executor.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        """Stop the workers (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # A broken process pool can raise from shutdown; the pool is being
        # discarded either way.
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - depends on how the pool died
            pass


class ThreadWorkerPool(WorkerPool):
    """Threads of this process: the fallback where fork is unavailable."""

    def __init__(self, workers: int) -> None:
        super().__init__(ThreadPoolExecutor(max_workers=workers), workers)


class ForkWorkerPool(WorkerPool):
    """Forked worker processes; each task's arguments are pickled to them."""

    def __init__(self, workers: int) -> None:
        context = multiprocessing.get_context("fork")
        super().__init__(ProcessPoolExecutor(max_workers=workers, mp_context=context), workers)


#: Pools spawned by :func:`make_pool` since import — the observable cost the
#: cached slot exists to minimise.  Regression tests pin this: one full
#: pooled resolve must spawn exactly one pool, and delta rounds must spawn
#: none.
POOL_SPAWNS = 0

#: Memo of :func:`fork_pool_available` (None until first asked).
_FORK_POOL_AVAILABLE: Optional[bool] = None


def fork_pool_available() -> bool:
    """Whether this process can run a :class:`ForkWorkerPool` (memoized probe).

    Linux with the ``fork`` start method and a working fork-context
    :func:`multiprocessing.Lock` — the POSIX semaphore a process pool's
    queues need, which fails exactly where ``/dev/shm`` is missing (sealed
    sandboxes), so those get threads.
    """
    global _FORK_POOL_AVAILABLE
    if _FORK_POOL_AVAILABLE is None:
        available = sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods()
        if available:
            try:
                multiprocessing.get_context("fork").Lock()
            except (ImportError, OSError):
                available = False
        _FORK_POOL_AVAILABLE = available
    return _FORK_POOL_AVAILABLE


def make_pool(workers: int) -> WorkerPool:
    """Spawn a new local pool (callers normally want :func:`acquire_pool`).

    Workers are stateless — every task carries what it reads — which is
    what makes one pool reusable across resolves and delta rounds.
    """
    global POOL_SPAWNS
    POOL_SPAWNS += 1
    return ForkWorkerPool(workers) if fork_pool_available() else ThreadWorkerPool(workers)


#: Single-slot cache of the local pool: the released pool of the last
#: parallel run, handed back verbatim when the next run wants the same
#: size.  One slot is deliberate — a second cached pool would only pin idle
#: processes.  The only module-level pool state there is.
_CACHED_POOL: Optional[WorkerPool] = None


def acquire_pool(workers: int) -> WorkerPool:
    """The local pool with ``workers`` workers — cached if it fits, else fresh.

    A cached pool of a different size (or one marked broken) is shut down
    *before* the replacement spawns, so forked children never inherit a live
    executor.
    """
    global _CACHED_POOL
    pool, _CACHED_POOL = _CACHED_POOL, None
    if pool is not None:
        if pool.workers == workers and not pool.broken:
            return pool
        pool.shutdown()
    return make_pool(workers)


def release_pool(pool: WorkerPool) -> None:
    """Return an acquired pool to the cache (broken pools are shut down instead)."""
    global _CACHED_POOL
    if pool.broken:
        pool.shutdown()
    elif _CACHED_POOL is None:
        _CACHED_POOL = pool
    elif _CACHED_POOL is not pool:
        pool.shutdown()


def release_engine_resources() -> None:
    """Tear down the cached pool (idempotent).

    A batch CLI run can lean on the ``atexit`` hook below, but a
    long-lived process that ran a pooled resolve and goes idle must not
    keep the cached local pool's workers alive for hours.  Safe to call
    between tasks: the next resolve simply re-acquires a pool on demand.
    """
    global _CACHED_POOL
    pool, _CACHED_POOL = _CACHED_POOL, None
    if pool is not None:
        pool.shutdown()


atexit.register(release_engine_resources)


def merge_scored_batches(batches: Iterable[ScoredPairs]) -> ScoredPairs:
    """Concatenate scored batches into one :class:`ScoredPairs`.

    Batches carrying a ``batch_index`` are ordered by it (then by position
    within the batch — pair order inside a batch is preserved), so merging
    the out-of-order output of a future-based consumer is deterministic.
    An empty input merges to an empty result with threshold 0.5.
    """
    materialized = list(batches)
    indexed = sorted(
        enumerate(materialized),
        key=lambda item: (getattr(item[1], "batch_index", item[0]), item[0]),
    )
    pairs: List[RecordPair] = []
    chunks: List[np.ndarray] = []
    threshold: Optional[float] = None
    for _, batch in indexed:
        pairs.extend(batch.pairs)
        chunks.append(np.asarray(batch.probabilities))
        if threshold is None:
            threshold = batch.threshold
        elif batch.threshold != threshold:
            raise ValueError("cannot merge scored batches with differing thresholds")
    probabilities = np.concatenate(chunks) if chunks else np.zeros(0)
    return ScoredPairs(pairs=pairs, probabilities=probabilities, threshold=0.5 if threshold is None else threshold)

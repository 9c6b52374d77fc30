"""Row-range sharding and the worker pool shared by the resolve stages.

This module owns two building blocks the planner-driven engine
(:mod:`repro.engine.plan`) distributes work with:

* :class:`ShardedEncodingStore` — an :class:`~repro.engine.store.EncodingStore`
  that additionally exposes its cached IR/latent arrays as row-range shard
  views (zero-copy slices), the unit of distribution for parallel work.
  Shard *bounds* are derived from the task's table sizes, so planning never
  forces an encode; :meth:`ShardedEncodingStore.load_shard` serves a single
  shard lazily from the chunked persistent cache when the table is not in
  memory yet.
* the persistent worker pool — :func:`acquire_pool`/:func:`release_pool`
  over a single-slot cache, :func:`make_pool` (instrumented by
  :data:`POOL_SPAWNS`), and the :func:`publish_worker_state` registry that
  hands stage state to pool workers (via shared memory for process pools).

:func:`~repro.engine.stream.resolve_stream` with ``workers > 1`` runs the
:class:`~repro.engine.plan.ResolutionExecutor` on that pool: candidate pairs
are enumerated with *exactly* the same chunking and batch packing as the
serial schedule (so the two are bit-identical), blocking and scoring fan out
across the pool, and results merge back deterministically by
``(batch_index, pair_index)`` regardless of completion order.

Worker strategy
---------------
On Linux the pool is fork-based and *persistent*: one pool survives the
encode → block → score stages of a resolve and is cached across resolves
(delta rounds reuse it), so pool spawn cost is paid once, not per stage.
Because the pool can predate any given stage's state, forked workers no
longer rely on copy-on-write inheritance; instead each stage *publishes* its
state — encoded arrays, the LSH index, the matcher — into
``multiprocessing.shared_memory`` segments (:mod:`repro.engine.sharedmem`)
that workers map as zero-copy NumPy views, attached once per stage and
memoized.  Tasks still ship only small index ranges; results ship only
candidate pairs or probability vectors.  Where fork or shared memory is
unavailable the pool falls back to threads (NumPy's BLAS releases the GIL in
the kernels that dominate), and ``REPRO_ENGINE_POOL=fork|thread|serial``
forces the choice.  Work is deterministic on every path: workers run the
same NumPy ops on the same arrays, so merged results are byte-identical to a
single-process run over the same store.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import sys
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.blocking.neighbours import NearestNeighbourSearch
from repro.data.pairs import RecordPair
from repro.engine.quant import CodecArray
from repro.engine.store import EncodingStore, TableEncodings
from repro.engine.stream import ScoredPairs

#: Default number of rows per table shard.
DEFAULT_SHARD_ROWS = 2048


def shard_bounds_for(side: str, n_rows: int, shard_rows: int) -> List["ShardBounds"]:
    """Row ranges covering ``n_rows`` rows of one side, in row order."""
    if shard_rows <= 0:
        raise ValueError("shard_rows must be positive")
    if n_rows <= 0:
        return []
    return [
        ShardBounds(side=side, index=i, start=start, stop=min(start + shard_rows, n_rows))
        for i, start in enumerate(range(0, n_rows, shard_rows))
    ]


# ----------------------------------------------------------------------
# Row-range sharding of cached encodings
# ----------------------------------------------------------------------
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


class ShardedEncodingStore(EncodingStore):
    """An encoding store whose cached tables are addressable in row shards.

    Sharding is a *view* concern: the underlying cache still holds one
    contiguous array per table (so gathers spanning shards stay a single
    fancy-index), and :meth:`table_shard` hands out zero-copy row-range
    slices for consumers that distribute work — the parallel resolver, the
    scaling benchmark, per-shard diagnostics.

    Parameters
    ----------
    shard_rows:
        Target rows per shard; the last shard of a table may be short.
    codec:
        Passed through to :class:`EncodingStore` — with a quantized codec,
        shard views stay code views (one byte per dimension).
    """

    def __init__(
        self,
        representation,
        task,
        counters=None,
        persistent=None,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        codec: Optional[str] = None,
    ) -> None:
        super().__init__(
            representation, task, counters=counters, persistent=persistent, codec=codec
        )
        if shard_rows <= 0:
            raise ValueError("shard_rows must be positive")
        self.shard_rows = shard_rows

    # ------------------------------------------------------------------
    def shard_bounds(self, side: str) -> List[ShardBounds]:
        """Row ranges covering one side, in row order.

        Derived from the task's table size (a table's encodings always carry
        one row per record), so planning shard layouts never forces an
        encode or a disk load.
        """
        return shard_bounds_for(side, len(self._table_of(side)), self.shard_rows)

    def num_shards(self, side: str) -> int:
        return len(self.shard_bounds(side))

    def table_shard(self, side: str, index: int) -> TableEncodings:
        """Zero-copy row-range view of one shard of a table's encodings.

        The returned object is a full :class:`TableEncodings` (local row
        index included) whose arrays are slices sharing memory with the
        cached table, so handing shards to workers does not duplicate data.
        """
        bounds = self.shard_bounds(side)
        if not 0 <= index < len(bounds):
            raise IndexError(f"shard {index} out of range for side {side!r} ({len(bounds)} shards)")
        b = bounds[index]
        full = self.table_encodings(side)
        keys = full.keys[b.start : b.stop]

        def _slice(array):
            # Keep quantized shards as code views: a plain slice of a
            # CodecArray would decode the whole shard eagerly.
            if isinstance(array, CodecArray):
                return array.row_slice(b.start, b.stop)
            return array[b.start : b.stop]

        return TableEncodings(
            keys=keys,
            irs=_slice(full.irs),
            mu=_slice(full.mu),
            sigma=_slice(full.sigma),
            row_index={key: row for row, key in enumerate(keys)},
        )

    def load_shard(self, side: str, index: int) -> TableEncodings:
        """One shard's encodings without materialising the whole table.

        Serving priority mirrors the store's cache hierarchy: an in-memory
        table serves a zero-copy view; otherwise, when a persistent cache is
        attached, only the chunks overlapping the shard's row range are read
        (counted via ``chunk_loads``); only when both miss is the full table
        computed and the view sliced from it.
        """
        self._check_version()
        bounds = self.shard_bounds(side)
        if not 0 <= index < len(bounds):
            raise IndexError(f"shard {index} out of range for side {side!r} ({len(bounds)} shards)")
        if side in self._cache or self.persistent is None:
            return self.table_shard(side, index)
        b = bounds[index]
        loaded = self.persistent.load_range(
            self.task.name,
            side,
            self.representation.encoding_version,
            # Memoized: repeated shard loads of one table CRC its rows once.
            self.table_fingerprint(side),
            b.start,
            b.stop,
            counters=self.counters,
        )
        if loaded is not None:
            self.counters.record_disk_hit()
            return loaded
        # Miss: fall back to materialising the whole table.  That path runs
        # the store's own persistent probe, which does the miss accounting —
        # counting here too would double-book one logical probe.
        return self.table_shard(side, index)

    def __repr__(self) -> str:
        cached = ",".join(sorted(self._cache)) or "empty"
        return (
            f"ShardedEncodingStore(task={self.task.name!r}, cached=[{cached}], "
            f"shard_rows={self.shard_rows})"
        )


# ----------------------------------------------------------------------
# Worker-pool plumbing
# ----------------------------------------------------------------------
#: Pools spawned since import — the observable cost the persistent-pool
#: cache exists to minimise.  Regression tests pin this: one full pooled
#: resolve must spawn exactly one pool, and delta rounds must spawn none.
POOL_SPAWNS = 0

#: Parent-side state registry, keyed by a token unique to each published
#: stage state so concurrent runs can never cross wires.  Thread pools (and
#: the publishing parent itself) resolve states here; forked workers of the
#: persistent pool resolve them via the shared-memory spec carried on the
#: :class:`StateHandle` instead, because the pool may predate the state.
_WORKER_STATES: Dict[str, object] = {}
_PUBLICATIONS: Dict[str, object] = {}
_POOL_TOKENS = itertools.count()


def new_pool_token() -> str:
    """A process-unique token for one published worker state."""
    return f"{os.getpid()}-{next(_POOL_TOKENS)}"


def release_pool_token(token: str) -> None:
    """Drop a token's parent-side state."""
    _WORKER_STATES.pop(token, None)


@dataclass(frozen=True)
class StateHandle:
    """Small picklable reference to one published stage state.

    Carries the registry token (enough for thread pools, which share the
    parent's address space) plus, for process pools, the shared-memory
    :class:`~repro.engine.sharedmem.StateSpec` a worker attaches on first
    use.
    """

    token: str
    spec: Optional[object] = None


def worker_state(ref) -> object:
    """Resolve a :class:`StateHandle` (or bare token) to its state.

    In the publishing process — and in thread-pool workers — the parent
    registry answers directly.  In a forked pool worker the registry misses
    (the pool predates the state), so the handle's shared-memory spec is
    attached instead; the attachment is memoized per process, so only the
    first task of a stage pays the unpickle.  A spec that carries its own
    ``attach`` method — the distributed runner's artifact-backed specs —
    resolves through it instead, so remote worker processes that share
    nothing but a filesystem can still reach published stage state.
    """
    token = ref if isinstance(ref, str) else ref.token
    try:
        return _WORKER_STATES[token]
    except KeyError:
        if isinstance(ref, str) or ref.spec is None:
            raise
    attach = getattr(ref.spec, "attach", None)
    if attach is not None:
        return attach()
    from repro.engine import sharedmem

    return sharedmem.attach_state(ref.spec)


def publish_worker_state(state: object, pool: Optional["WorkerPool"]) -> StateHandle:
    """Register a stage state and return the handle tasks should carry.

    The state always lands in the parent registry; when ``pool`` is a
    process pool it is additionally published to shared memory (large
    arrays hoisted into segments, zero-copy on both sides) so the
    persistent pool's pre-existing workers can reach it.
    """
    token = new_pool_token()
    _WORKER_STATES[token] = state
    spec = None
    publish = getattr(pool, "publish_state", None)
    if publish is not None:
        # Pools with their own transport (the distributed runner publishes
        # state as content-addressed artifacts on the shared directory)
        # produce the spec themselves; the parent registry entry above
        # still serves in-process consumers.
        spec = publish(token, state)
    elif pool is not None and pool.kind == "fork":
        from repro.engine import sharedmem

        publication = sharedmem.publish_state(token, state)
        _PUBLICATIONS[token] = publication
        spec = publication.spec
    return StateHandle(token=token, spec=spec)


def release_worker_state(handle: StateHandle) -> None:
    """Unregister a published state and unlink its shared-memory segments."""
    _WORKER_STATES.pop(handle.token, None)
    publication = _PUBLICATIONS.pop(handle.token, None)
    if publication is not None:
        publication.close()


@contextmanager
def published_state(pool: Optional["WorkerPool"], state: object) -> Iterator[StateHandle]:
    """Publish ``state`` for the duration of a ``with`` block."""
    handle = publish_worker_state(state, pool)
    try:
        yield handle
    finally:
        release_worker_state(handle)


class WorkerPool:
    """One persistent executor plus the metadata the cache keys on.

    ``broken`` is set by callers that observed the pool die (a worker
    segfault raises :class:`concurrent.futures.BrokenExecutor`); a broken
    pool is never cached and its ``shutdown`` is idempotent, so the failure
    path is: mark broken → release → the executor is torn down and the next
    acquire spawns fresh — while the caller falls back to the serial
    schedule for the remainder of its run.
    """

    def __init__(self, executor: Executor, kind: str, workers: int) -> None:
        self.executor = executor
        self.kind = kind
        self.workers = workers
        self.broken = False
        self._shut_down = False

    def submit(self, fn, /, *args, **kwargs):
        return self.executor.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        if self._shut_down:
            return
        self._shut_down = True
        # A broken process pool can raise from shutdown; the pool is being
        # discarded either way.
        try:
            self.executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - depends on how the pool died
            pass

    def __repr__(self) -> str:
        return f"WorkerPool(kind={self.kind!r}, workers={self.workers}, broken={self.broken})"


def pool_kind_default() -> str:
    """Which pool transport this process should use: fork, thread or serial.

    ``REPRO_ENGINE_POOL`` overrides (``fork``/``thread``/``serial``).
    Otherwise fork is chosen on Linux when shared-memory segments work —
    the persistent pool ships stage state through shared memory, so without
    segments the process path would have to pickle arrays per task and the
    threaded path (NumPy releases the GIL in the kernels that dominate) is
    the better fallback.  Fork stays gated off on macOS: forking after the
    parent has touched Accelerate/BLAS aborts the children, which is why
    CPython made ``spawn`` the macOS default.
    """
    if _POOL_OVERRIDE is not None and not _POOL_OVERRIDE.broken:
        # An installed override (the distributed runner) claims every pooled
        # stage for the duration of its ``pool_override`` block, including
        # on hosts where the env would otherwise force the serial schedule.
        # A broken override falls through: the rest of the run degrades to
        # whatever local transport this host would normally use.
        return _POOL_OVERRIDE.kind
    forced = os.environ.get("REPRO_ENGINE_POOL", "").strip().lower()
    if forced in ("fork", "thread", "serial"):
        return forced
    if forced:
        raise ValueError(
            f"REPRO_ENGINE_POOL={forced!r} is not one of 'fork', 'thread', 'serial'"
        )
    from repro.engine.sharedmem import shared_memory_available

    if (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
        and shared_memory_available()
    ):
        return "fork"
    return "thread"


def make_pool(workers: int, kind: Optional[str] = None) -> WorkerPool:
    """Spawn a new worker pool (callers normally want :func:`acquire_pool`).

    Workers are stateless at spawn time — stage state arrives later through
    :func:`publish_worker_state` — which is what makes one pool reusable
    across encode → block → score and across delta rounds.
    """
    global POOL_SPAWNS
    kind = kind or pool_kind_default()
    if kind == "serial":
        raise ValueError("serial schedules do not use a pool")
    POOL_SPAWNS += 1
    if kind == "fork":
        context = multiprocessing.get_context("fork")
        executor: Executor = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    else:
        executor = ThreadPoolExecutor(max_workers=workers)
    return WorkerPool(executor, kind, workers)


#: Single-slot pool cache: the released pool of the last parallel run,
#: handed back verbatim when the next run wants the same shape.  One slot is
#: deliberate — resolves run one at a time in this engine, and a second
#: cached pool would only pin idle processes.
_CACHED_POOL: Optional[WorkerPool] = None

#: When set, :func:`acquire_pool` hands out this pool instead of a local
#: one — the hook the distributed runner uses to route every pooled stage
#: (build, query, score, tail encode) of the executor through its
#: coordinator/queue transport without touching their control flow.
_POOL_OVERRIDE: Optional[WorkerPool] = None


@contextmanager
def pool_override(pool: WorkerPool) -> Iterator[WorkerPool]:
    """Route :func:`acquire_pool` to ``pool`` for the duration of the block.

    Overrides do not nest (the engine runs one resolve at a time), and the
    override is never cached, shut down or replaced by
    :func:`release_pool`/:func:`shutdown_pools` — its owner manages its
    lifetime.  A pool marked broken inside the block stops being handed
    out, so the executor's serial resume degrades exactly as it
    does for a crashed local pool.
    """
    global _POOL_OVERRIDE
    if _POOL_OVERRIDE is not None:
        raise RuntimeError("a pool override is already active")
    _POOL_OVERRIDE = pool
    try:
        yield pool
    finally:
        _POOL_OVERRIDE = None


def acquire_pool(workers: int, kind: Optional[str] = None) -> WorkerPool:
    """A pool of the requested shape — cached if compatible, else fresh.

    A cached pool of a different shape (or one marked broken) is shut down
    *before* the replacement spawns, so forked children never inherit a live
    executor.  With an active (unbroken) :func:`pool_override` that pool is
    returned verbatim, whatever shape was requested.
    """
    global _CACHED_POOL
    if _POOL_OVERRIDE is not None and not _POOL_OVERRIDE.broken:
        return _POOL_OVERRIDE
    kind = kind or pool_kind_default()
    pool, _CACHED_POOL = _CACHED_POOL, None
    if pool is not None:
        if pool.kind == kind and pool.workers == workers and not pool.broken:
            return pool
        pool.shutdown()
    return make_pool(workers, kind)


def release_pool(pool: WorkerPool) -> None:
    """Return a pool to the cache (broken pools are shut down instead)."""
    global _CACHED_POOL
    if pool is _POOL_OVERRIDE:
        # Override pools are owned by whoever installed them; the engine
        # neither caches nor tears them down (broken or not).
        return
    if pool.broken:
        pool.shutdown()
        return
    if _CACHED_POOL is None:
        _CACHED_POOL = pool
    elif _CACHED_POOL is not pool:
        pool.shutdown()


def shutdown_pools() -> None:
    """Tear down the cached pool (idempotent; registered atexit)."""
    global _CACHED_POOL
    pool, _CACHED_POOL = _CACHED_POOL, None
    if pool is not None:
        pool.shutdown()


def release_engine_resources() -> None:
    """Release everything a long-lived process holds between resolve tasks.

    A batch CLI run can lean on the ``atexit`` hook below, but a daemon
    that stops serving one task (or goes idle) must not keep the persistent
    fork pool, published shared-memory segments, worker-state registry
    entries or open chunk-archive handles alive for hours.  Idempotent and
    safe to call between tasks: the next resolve simply re-acquires a pool
    and re-opens handles on demand.
    """
    shutdown_pools()
    # Leaked publications: states published but never released (an abandoned
    # run that errored between publish and release).  Closing unlinks the
    # shared-memory segments.
    for token in list(_PUBLICATIONS):
        publication = _PUBLICATIONS.pop(token, None)
        if publication is not None:
            publication.close()
    _WORKER_STATES.clear()
    from repro.engine import sharedmem
    from repro.engine.persist import close_chunk_handles

    sharedmem.detach_all()
    close_chunk_handles()


atexit.register(release_engine_resources)


def query_shard_pairs(
    search: NearestNeighbourSearch,
    flat: np.ndarray,
    keys,
    start: int,
    stop: int,
    k: int,
    query_chunk: int,
) -> List[RecordPair]:
    """Top-K candidate pairs of one row range, queried chunk by chunk.

    The one query loop of the planner's serial blocking pass and its pool
    tasks, so the chunk walk that underpins the byte-identity contract has a
    single definition.
    """
    pairs: List[RecordPair] = []
    for chunk_start in range(start, stop, query_chunk):
        chunk_stop = min(chunk_start + query_chunk, stop)
        pairs.extend(
            search.candidate_pairs(flat[chunk_start:chunk_stop], keys[chunk_start:chunk_stop], k=k)
        )
    return pairs


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

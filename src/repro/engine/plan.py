"""Plan/execute layer: the one resolve engine and its entry point, :func:`resolve`.

Resolution is three stages — *encode* the two tables, *block* (LSH index
build + top-K queries) to enumerate candidate pairs, *score* the candidates
in batches.  This module owns the whole of it:

* :class:`ResolutionPlanner` partitions the left table into query chunks of
  :func:`~repro.engine.stream.query_chunk_for` rows — the one grain of a
  resolve — and emits a deterministic stage graph: pure metadata, computed
  from table sizes and knobs alone, so a plan can be printed or inspected
  without encoding a single record (``repro plan`` does exactly that);
* :class:`ResolutionExecutor` runs the stages — the only executor: cold or
  against a :class:`ResolutionBaseline`, serial or on the cached local
  :class:`~repro.engine.shard.WorkerPool`.  Every mode runs one batch source:
  the parent queries each planned chunk in row order, whose pairs
  :func:`~repro.engine.stream.pack_batches` packs into batches, and one
  score task per batch the baseline does not cover.  Only where the score
  tasks run differs — inline, or on the pool with bounded in-flight depth
  and results taken in submission order — so the yielded stream is the
  same bytes whatever the scheduling.  Encoding, the LSH build (or its
  in-place mutation) and every blocking query run in the parent, whose
  BLAS already spreads each chunk's GEMM over the cores.

:func:`resolve` plans a run and constructs its executor — cold without a
baseline, incremental against one, capturing the next baseline on request.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.persist import RowDiff, diff_rows, table_row_crcs

from repro.blocking.lsh import EuclideanLSHIndex
from repro.blocking.neighbours import NearestNeighbourSearch
from repro.config import BlockingConfig
from repro.data.pairs import RecordPair
from repro.data.schema import ERTask
from repro.engine.quant import CodecArray
from repro.engine.shard import ShardBounds, WorkerPool, acquire_pool, release_pool, shard_bounds_for
from repro.engine.store import EncodingStore, TableEncodings
from repro.engine.stream import (
    ResolutionBatch,
    guard_store_version,
    pack_batches,
    pin_store_version,
    query_chunk_for,
)
from repro.eval.timing import StageTimings

#: Pair-probability key used for baseline score reuse across delta resolves.
PairKey = Tuple[str, str]


# ----------------------------------------------------------------------
# The plan: a deterministic stage graph over left-table query chunks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageUnit:
    """One schedulable unit of work within a stage."""

    name: str
    rows: int = 0
    detail: str = ""


@dataclass(frozen=True)
class Stage:
    """One stage of the resolve graph and the stages it depends on."""

    name: str
    depends_on: Tuple[str, ...]
    units: Tuple[StageUnit, ...]

    @property
    def num_units(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class ResolutionPlan:
    """Deterministic description of one resolve run.

    Pure metadata: the plan is computed from table sizes and knobs alone
    (no encoding, no disk access), so it can be printed or compared before
    any expensive work starts.
    """

    task_name: str
    left_rows: int
    right_rows: int
    k: int
    batch_size: int
    workers: int
    query_chunk: int
    blocking: Optional[BlockingConfig]
    query_bounds: Tuple[ShardBounds, ...]
    stages: Tuple[Stage, ...] = field(default=())

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"plan has no stage {name!r}")

    def describe(self, max_units: int = 8) -> str:
        """Human-readable stage graph (the ``repro plan`` output)."""
        lines = [
            f"resolution plan for task {self.task_name!r}",
            f"  knobs: workers={self.workers} k={self.k} batch_size={self.batch_size} "
            f"query_chunk={self.query_chunk}",
            f"  tables: left={self.left_rows} rows ({len(self.query_bounds)} query chunk(s)), "
            f"right={self.right_rows} rows",
        ]
        for position, stage in enumerate(self.stages, start=1):
            dependency = f" <- {', '.join(stage.depends_on)}" if stage.depends_on else ""
            lines.append(f"  [{position}] {stage.name}{dependency} — {stage.num_units} unit(s)")
            for unit in stage.units[:max_units]:
                rows = f" ({unit.rows} rows)" if unit.rows else ""
                detail = f": {unit.detail}" if unit.detail else ""
                lines.append(f"        {unit.name}{rows}{detail}")
            hidden = stage.num_units - max_units
            if hidden > 0:
                lines.append(f"        ... (+{hidden} more)")
        return "\n".join(lines)


class ResolutionPlanner:
    """Partition a task's resolve run into a stage graph over query chunks.

    Parameters mirror the resolve knobs; ``batch_size`` and ``k`` fix the
    left-table query chunk (:func:`~repro.engine.stream.query_chunk_for`).
    """

    def __init__(
        self,
        task: ERTask,
        blocking: Optional[BlockingConfig] = None,
        k: int = 10,
        batch_size: int = 2048,
        workers: int = 1,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.task = task
        self.blocking = blocking
        self.k = k
        self.batch_size = batch_size
        self.workers = workers

    @classmethod
    def from_store(
        cls,
        store: EncodingStore,
        blocking: Optional[BlockingConfig] = None,
        k: int = 10,
        batch_size: int = 2048,
        workers: int = 1,
    ) -> "ResolutionPlanner":
        """Planner over a store's task."""
        return cls(store.task, blocking=blocking, k=k, batch_size=batch_size, workers=workers)

    def plan(self) -> ResolutionPlan:
        """The deterministic stage graph for the current knobs (pure metadata).

        Both tables encode, the right table's LSH index is built, every left
        query chunk is queried and every candidate scored.  A run against a
        baseline executes the same graph, each stage doing only the work the
        mutation since the baseline requires: the store re-encodes edited and
        appended rows, the baseline index is mutated in place instead of
        built, and the matcher scores only pairs the surviving baseline
        scores do not cover (see :class:`ResolutionExecutor`).
        """
        left_rows = len(self.task.left)
        right_rows = len(self.task.right)
        query_chunk = query_chunk_for(self.batch_size, self.k)
        query_bounds = tuple(shard_bounds_for("left", left_rows, query_chunk))
        encode_units = [
            StageUnit(name="left", rows=left_rows, detail="IR transform + VAE forward"),
            StageUnit(name="right", rows=right_rows, detail="IR transform + VAE forward"),
        ]
        block_units = [StageUnit("build right", right_rows, f"hash rows 0..{right_rows}")]
        block_units.extend(
            StageUnit(name=f"query left[{b.index}]", rows=b.rows, detail=f"top-{self.k} rows {b.start}..{b.stop}")
            for b in query_bounds
        )
        score_unit = StageUnit(name="batches", detail=f"streaming, batches of <={self.batch_size} pairs")
        return ResolutionPlan(
            task_name=self.task.name,
            left_rows=left_rows,
            right_rows=right_rows,
            k=self.k,
            batch_size=self.batch_size,
            workers=self.workers,
            query_chunk=query_chunk,
            blocking=self.blocking,
            query_bounds=query_bounds,
            stages=(
                Stage(name="encode", depends_on=(), units=tuple(encode_units)),
                Stage(name="block", depends_on=("encode",), units=tuple(block_units)),
                Stage(name="score", depends_on=("block",), units=(score_unit,)),
            ),
        )


# ----------------------------------------------------------------------
# The score task (it carries everything it reads — a pool can predate any
# run's state, so nothing is inherited)
# ----------------------------------------------------------------------
def _gather_rows(irs: Union[np.ndarray, CodecArray], rows: np.ndarray) -> Tuple[object, np.ndarray]:
    """``irs``'s distinct ``rows`` (code views stay codes) and the inverse index.

    ``np.unique`` of the inverse is ``arange``, so a matcher that encodes
    the distinct rows of what it is given encodes these very rows.
    """
    unique, inverse = np.unique(rows, return_inverse=True)
    distinct = irs.take_rows(unique) if isinstance(irs, CodecArray) else irs[unique]
    return distinct, inverse


def _score_task(matcher, left_irs, right_irs, left_rows: np.ndarray, right_rows: np.ndarray):
    """Score stage: one batch's pairs over its gathered rows, each row encoded once."""
    started = time.perf_counter()
    probabilities = matcher.predict_proba(left_irs, right_irs, rows=(left_rows, right_rows))
    return probabilities, time.perf_counter() - started


# ----------------------------------------------------------------------
# The baseline a drained run leaves for the next one
# ----------------------------------------------------------------------
@dataclass
class ResolutionBaseline:
    """Reusable artefacts of a completed resolve run.

    Captured by a :class:`ResolutionExecutor` run with ``capture`` as its
    batch stream drains, and handed back in on the next incremental run:

    * ``scores`` — per-pair match probabilities; the matcher is a pure
      row-wise function of the two cached IR tensors, so a pair's baseline
      probability equals what a full re-resolve would recompute.  Scores of
      pairs touching rows that were deleted or edited since are *dropped*
      before reuse (their IRs changed or vanished);
    * ``index`` — the LSH index over the right table, mutable in place with
      :meth:`~repro.blocking.lsh.EuclideanLSHIndex.extend` / ``remove`` /
      ``patch``;
    * ``left_keys``/``right_keys`` and the per-row CRCs — the row-identity
      snapshot of both tables at capture time, which is what the next run
      diffs against to classify every current row as clean, dirty, appended
      or (for vanished keys) deleted;
    * the tokens guarding reuse: the pinned ``encoding_version`` (a refit
      invalidates everything), ``matcher`` — the scored-by object itself,
      held strongly so identity cannot be recycled; a different matcher
      invalidates the scores but not the index — and ``blocking_token`` (a
      different LSH configuration invalidates the index).
    """

    encoding_version: int
    matcher: object
    blocking_token: str
    scores: Dict[PairKey, float]
    index: EuclideanLSHIndex
    left_keys: Tuple[str, ...] = ()
    right_keys: Tuple[str, ...] = ()
    left_row_crcs: Tuple[int, ...] = ()
    right_row_crcs: Tuple[int, ...] = ()
    #: ``index.mutations`` at capture time — reuse requires the index to be
    #: untouched since (an abandoned delta stream mutates it in place without
    #: publishing a new baseline; key comparison alone cannot see a
    #: vector-only patch).
    index_mutations: int = 0

    def diff_side(self, side: str, table) -> Optional["RowDiff"]:
        """Row-identity diff of one side's current table vs this baseline."""
        keys = self.left_keys if side == "left" else self.right_keys
        crcs = self.left_row_crcs if side == "left" else self.right_row_crcs
        return diff_rows(keys, crcs, table)

    def index_usable(
        self,
        pinned: int,
        blocking: Optional[BlockingConfig],
        right_diff: Optional["RowDiff"],
    ) -> bool:
        """Whether ``index`` can be mutated into the current right table's index.

        True when nothing invalidated the encodings or the LSH configuration
        and the right table's mutation is a supported shape (``right_diff``
        is the successful diff against the baseline snapshot): the executor
        then applies remove/patch/extend instead of rebuilding.
        """
        if self.encoding_version != pinned:
            return False
        if self.blocking_token != repr(blocking):
            return False
        if right_diff is None:
            return False
        # The index must be the exact snapshot the diff addresses: untouched
        # since capture (mutation counter) and covering the captured keys.
        if self.index.mutations != self.index_mutations:
            return False
        return self.index.live_keys == self.right_keys

    def surviving_scores(
        self, left_diff: Optional["RowDiff"], right_diff: Optional["RowDiff"], table_keys
    ) -> Dict[PairKey, float]:
        """The baseline scores still valid for the current ``(left, right)`` keys.

        A pair's baseline probability is reusable only while both of its
        rows still hold the content they were scored with: deleted rows
        (their keys vanished) and edited rows (same key, new values) both
        poison every score they touch.
        """
        stale_left: set = set()
        stale_right: set = set()
        for stale, diff, keys, current in (
            (stale_left, left_diff, self.left_keys, table_keys[0]),
            (stale_right, right_diff, self.right_keys, table_keys[1]),
        ):
            if diff is None:
                continue
            stale.update(str(keys[j]) for j in diff.deleted_old)
            stale.update(str(current[p]) for p in diff.dirty_new)
        if not (stale_left or stale_right):
            return self.scores
        return {
            pair: probability
            for pair, probability in self.scores.items()
            if pair[0] not in stale_left and pair[1] not in stale_right
        }


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class ResolutionExecutor:
    """Run a :class:`ResolutionPlan` against a store and matcher.

    One flow whatever the mode — a cold run is a delta run with no baseline:

    1. diff both tables against ``baseline`` (while its encodings are
       current), classifying every row as clean, dirty, appended or deleted;
    2. encode — the mutation-aware store re-encodes only dirty and appended
       rows and drops deleted ones for free;
    3. mutate the baseline LSH index in place — deleted right rows
       tombstoned, edited rows rebucketed, appended rows hashed in, each step
       answer-identical to a rebuild — or build it;
    4. run :meth:`_schedule`, the one batch source of every mode: the
       top-K query of each planned left chunk, its pairs packed by
       :func:`~repro.engine.stream.pack_batches`;
    5. score each batch: baseline probabilities for pairs whose rows are
       untouched since, :func:`_score_task` for the rest —
       ``pairs_rescored``; every pair without a baseline.  The matcher gets
       row indices (``predict_proba(..., rows=)``) and encodes each distinct
       record of the batch once — ``records_scored``.

    Steps 1-4 run in the parent whatever the pool; only the score tasks of
    step 5 go to a pool (:meth:`_ordered` decides: inline, or submitted
    with bounded depth).  Batches are emitted strictly in
    ``batch_index`` order, so the stream is byte-identical whatever the
    worker count.  Against a baseline, reused probabilities are the
    baseline's bytes and rescored ones equal a cold run's up to matmul
    batch-composition round-off (~1 ulp), so the match set is identical.  A
    pool that dies hands the rest of the run to the same schedule inline.
    A plan with ``workers > 1`` borrows the cached local pool and hands it
    back afterwards.  With ``capture`` the refreshed
    :class:`ResolutionBaseline` is published on ``baseline_out`` once the
    stream is exhausted (an abandoned stream publishes nothing).
    """

    def __init__(
        self,
        plan: ResolutionPlan,
        store: EncodingStore,
        matcher,
        baseline: Optional[ResolutionBaseline] = None,
        capture: bool = False,
        threshold: float = 0.5,
        stage_timings: Optional[StageTimings] = None,
    ) -> None:
        self.plan = plan
        self.store = store
        self.matcher = matcher
        self.baseline = baseline
        self.capture = capture
        self.threshold = threshold
        self.stage_timings = stage_timings
        self.baseline_out: Optional[ResolutionBaseline] = None

    def _record_stage(self, stage: str, seconds: float, units: int = 1) -> None:
        if self.stage_timings is not None:
            self.stage_timings.record(stage, seconds, units=units)

    def _record_counter(self, name: str, value: int) -> None:
        if self.stage_timings is not None:
            self.stage_timings.record_counter(name, value)

    # ------------------------------------------------------------------
    def run(self) -> Iterator[ResolutionBatch]:
        """The scored batch stream; validation and version pinning are eager."""
        return self._stream(pin_store_version(self.store))

    def _stream(self, pinned: int) -> Iterator[ResolutionBatch]:
        plan, store = self.plan, self.store
        # Row-identity diffs against the baseline snapshot — computed
        # *before* encoding so they describe the transition, not the
        # refreshed state.  A refit invalidates the whole baseline.
        baseline = self.baseline
        if baseline is not None and baseline.encoding_version != pinned:
            baseline = None
        left_diff = right_diff = None
        if baseline is not None:
            left_diff = baseline.diff_side("left", store.task.left)
            right_diff = baseline.diff_side("right", store.task.right)

        # The pool scores.  It predates the run, so workers never inherit
        # the encoded arrays; each score task carries its batch's rows.
        pool = acquire_pool(plan.workers) if plan.workers > 1 else None
        try:
            # Pinned before encoding: a refit landing between the two encodes
            # trips the guard instead of pairing a version-N left table with a
            # version-N+1 right table.
            reencoded = store.counters.rows_reencoded
            tombstoned = store.counters.rows_tombstoned
            started = time.perf_counter()
            left = store.table_encodings("left")
            right = store.table_encodings("right")
            guard_store_version(store, pinned)
            self._record_stage("encode", time.perf_counter() - started, units=2)
            self._record_counter("rows_reencoded", store.counters.rows_reencoded - reencoded)
            self._record_counter("rows_tombstoned", store.counters.rows_tombstoned - tombstoned)

            started = time.perf_counter()
            if baseline is not None and baseline.index_usable(pinned, plan.blocking, right_diff):
                index = baseline.index
                _apply_right_diff(index, baseline.right_keys, right, right_diff)
                search = NearestNeighbourSearch.from_index(index, plan.blocking)
                self._record_stage("block-extend", time.perf_counter() - started)
            else:
                search = NearestNeighbourSearch(plan.blocking).build(right.flat_mu(), right.keys)
                index = search.index
                self._record_stage("block", time.perf_counter() - started)
            guard_store_version(store, pinned)

            scores: Dict[PairKey, float] = {}
            if baseline is not None and baseline.matcher is self.matcher:
                scores = baseline.surviving_scores(left_diff, right_diff, (left.keys, right.keys))
            captured: Dict[PairKey, float] = {}
            for batch in self._batches(pool, search, left, right, pinned, scores):
                if self.capture:
                    for pair, probability in zip(batch.pairs, batch.probabilities):
                        captured[pair.key()] = float(probability)
                yield batch
            guard_store_version(store, pinned)
        finally:
            if pool is not None:
                release_pool(pool)
        if self.capture:
            left_table, right_table = store.task.left, store.task.right
            self.baseline_out = ResolutionBaseline(
                encoding_version=pinned,
                matcher=self.matcher,
                blocking_token=repr(plan.blocking),
                scores=captured,
                index=index,
                left_keys=tuple(left_table.record_ids()),
                right_keys=tuple(right_table.record_ids()),
                left_row_crcs=table_row_crcs(left_table),
                right_row_crcs=table_row_crcs(right_table),
                index_mutations=index.mutations,
            )

    def _batches(
        self,
        pool: Optional[WorkerPool],
        search: NearestNeighbourSearch,
        left: TableEncodings,
        right: TableEncodings,
        pinned: int,
        scores: Dict[PairKey, float],
    ) -> Iterator[ResolutionBatch]:
        """:meth:`_schedule` on the pool while it lives, then inline.

        The schedule is deterministic, so batch ``i`` of the inline run is
        exactly the batch the pooled run emitted as ``i``: after a dead pool
        the inline run skips what was already emitted and consumers see one
        contiguous, duplicate-free stream.
        """
        emitted = 0
        if pool is not None and not pool.broken:
            try:
                for batch in self._schedule(pool, search, left, right, pinned, scores):
                    emitted = batch.batch_index + 1
                    yield batch
                return
            except BrokenExecutor:
                pool.broken = True
        yield from self._schedule(None, search, left, right, pinned, scores, emitted)

    def _schedule(
        self,
        pool: Optional[WorkerPool],
        search: NearestNeighbourSearch,
        left: TableEncodings,
        right: TableEncodings,
        pinned: int,
        scores: Dict[PairKey, float],
        skip: int = 0,
    ) -> Iterator[ResolutionBatch]:
        """The one batch source: query chunks -> :func:`pack_batches` -> score.

        Each planned query chunk is queried here, in row order; its pair
        lists are packed into batches, each batch split against the
        baseline ``scores`` and :func:`_score_task` run on the rows still
        unknown (a batch the baseline covers dispatches nothing).  Batches
        below ``skip`` are enumerated but not scored.  Recorded: ``block``
        (per chunk), ``score`` (per batch), ``merge`` (the parent's seconds
        splitting batches and gathering their rows) and, with a pool,
        ``dispatch`` (see :meth:`_ordered`).
        """
        plan, store = self.plan, self.store
        merge_seconds = 0.0

        def candidates():
            flat, keys = left.flat_mu(), left.keys
            for chunk in plan.query_bounds:
                guard_store_version(store, pinned)
                started = time.perf_counter()
                pairs = search.candidate_pairs(
                    flat[chunk.start : chunk.stop], keys[chunk.start : chunk.stop], k=plan.k
                )
                self._record_stage("block", time.perf_counter() - started)
                yield pairs

        def score_units():
            nonlocal merge_seconds
            for batch_index, pairs in pack_batches(candidates(), plan.batch_size):
                if batch_index < skip:
                    continue
                guard_store_version(store, pinned)
                started = time.perf_counter()
                probabilities, unknown = self._split(pairs, scores)
                call, distinct = None, 0
                if unknown:
                    left_rows = left.rows([pairs[i].left_id for i in unknown])
                    right_rows = right.rows([pairs[i].right_id for i in unknown])
                    left_irs, left_index = _gather_rows(left.irs, left_rows)
                    right_irs, right_index = _gather_rows(right.irs, right_rows)
                    call = (_score_task, self.matcher, left_irs, right_irs, left_index, right_index)
                    distinct = len(left_irs) + len(right_irs)
                merge_seconds += time.perf_counter() - started
                yield (batch_index, pairs, probabilities, unknown, distinct), call

        for unit, result in self._ordered(pool, score_units()):
            batch_index, pairs, probabilities, unknown, distinct = unit
            seconds = 0.0
            if result is not None:
                scored, seconds = result
                probabilities[unknown] = scored
                store.counters.record_pairs_rescored(len(unknown))
            self._record_stage("score", seconds)
            self._record_counter("pairs_rescored", len(unknown))
            store.record_external_gather(len(unknown), distinct)
            yield ResolutionBatch(pairs, probabilities, threshold=self.threshold, batch_index=batch_index)
        self._record_stage("merge", merge_seconds)
        guard_store_version(store, pinned)

    def _ordered(self, pool: Optional[WorkerPool], units) -> Iterator[tuple]:
        """Run ``(tag, call)`` units; yield ``(tag, result)`` in unit order.

        ``call`` is ``(fn, *args)``, run as ``fn(*args)``, or None
        (nothing to run, result None).  Without a pool each call runs
        inline.  With one, at most ``2 × workers`` units are in flight —
        finished-but-unconsumed ones included, so a slow early unit cannot
        make the parent buffer the whole stream — and the seconds spent in
        ``submit`` are ``dispatch``.
        """
        if pool is None:
            for tag, call in units:
                yield tag, None if call is None else call[0](*call[1:])
            return
        inflight: deque = deque()

        def landed():
            tag, future = inflight.popleft()
            return tag, None if future is None else future.result()

        for tag, call in units:
            future = None
            if call is not None:
                started = time.perf_counter()
                future = pool.submit(*call)
                self._record_stage("dispatch", time.perf_counter() - started)
            inflight.append((tag, future))
            if len(inflight) >= 2 * pool.workers:
                yield landed()
        while inflight:
            yield landed()

    @staticmethod
    def _split(pairs: List[RecordPair], scores: Dict[PairKey, float]) -> Tuple[np.ndarray, List[int]]:
        """Baseline probabilities where known, and the positions left to score."""
        probabilities = np.empty(len(pairs))
        if not scores:  # a cold run, or a matcher swap: nothing to look up
            return probabilities, list(range(len(pairs)))
        unknown: List[int] = []
        for position, pair in enumerate(pairs):
            known = scores.get(pair.key())
            if known is None:
                unknown.append(position)
            else:
                probabilities[position] = known
        return probabilities, unknown


def _apply_right_diff(
    index: EuclideanLSHIndex,
    baseline_keys: Sequence[str],
    right: TableEncodings,
    diff: RowDiff,
) -> None:
    """Mutate a baseline index into the index of the current right table."""
    flat = right.flat_mu()
    removed = [str(baseline_keys[j]) for j in diff.deleted_old]
    if removed:
        index.remove(removed)
    if diff.dirty_new:
        dirty = list(diff.dirty_new)
        index.patch(flat[dirty], [str(right.keys[p]) for p in dirty])
    base, total = diff.appended_range
    if total > base:
        tail = (
            flat.row_slice(base, total)  # keep appended rows as codes
            if isinstance(flat, CodecArray)
            else flat[base:total]
        )
        index.extend(tail, [str(key) for key in right.keys[base:total]])


def resolve(
    store: EncodingStore,
    matcher,
    *,
    baseline: Optional[ResolutionBaseline] = None,
    capture: bool = False,
    blocking: Optional[BlockingConfig] = None,
    k: int = 10,
    batch_size: int = 2048,
    threshold: float = 0.5,
    workers: int = 1,
    stage_timings: Optional[StageTimings] = None,
) -> ResolutionExecutor:
    """Plan a resolve run over ``store`` and return its executor.

    The one front-end of the engine.  Without ``baseline`` the run is cold;
    with one it pays only for the rows mutated since (see
    :class:`ResolutionExecutor`).  ``capture`` publishes the refreshed
    :class:`ResolutionBaseline` on ``baseline_out`` once ``.run()`` is
    drained — :meth:`repro.core.pipeline.VAER.resolve_stream` chains
    incremental runs that way.  Knob validation is eager, so a bad
    ``batch_size`` fails here, before any expensive work starts.

    Blocking always runs in this process.  ``workers=1`` scores the batches
    inline too; with ``workers > 1`` they are scored on the cached local
    worker pool (borrowed on first iteration, handed back when the stream
    is exhausted or closed) and consumed in submission order, so identical
    knobs yield the identical batch stream whatever the worker count.
    ``stage_timings`` collects per-stage compute seconds and the delta
    counters.
    """
    plan = ResolutionPlanner.from_store(
        store, blocking=blocking, k=k, batch_size=batch_size, workers=workers
    ).plan()
    return ResolutionExecutor(
        plan,
        store,
        matcher,
        baseline=baseline,
        capture=capture,
        threshold=threshold,
        stage_timings=stage_timings,
    )

"""The coordinator: leased dispatch of executor stage units, with recovery.

The distributed runner deliberately adds **no new resolution logic**.  The
one :class:`~repro.engine.plan.ResolutionExecutor` — cold or against a
baseline — already decomposes a
:class:`~repro.engine.plan.ResolutionPlan` into pool units — one query
shard (``_query_task``) per planned left-table shard and one score batch
(``_score_task``) per batch — and already merges results deterministically
by ``(batch_index, pair_index)``.  What it needs from a pool is the
:class:`~repro.engine.shard.WorkerPool` seam: ``submit(fn, *args) ->
Future``, a ``broken`` flag, a way to publish stage state, and one hook per
run.  :class:`DistributedPool` implements it over a :class:`Coordinator`,
and a caller hands it to the engine like any other pool
(``model.resolve_stream(pool=runtime.pool)``) — so a distributed run
executes the *same* unit graph as a local pooled run, merged by the *same*
code, and inherits its byte-identity contract with the serial stream.

The coordinator's own job is delivery, not computation:

* serialize each submitted unit (function-by-reference plus arguments)
  into a content-addressed payload and enqueue it under a deterministic
  unit id (job id + function + argument fingerprint), so a *restarted*
  coordinator re-submitting the same logical units adopts any results a
  previous run already completed;
* track leases: a unit whose worker stops heartbeating past the lease
  timeout is re-dispatched (bounded by ``max_retries``), and a torn result
  artifact — rejected by its content CRC — is discarded and re-dispatched
  the same way;
* surface unrecoverable failures as
  :class:`concurrent.futures.BrokenExecutor`, which the executor already
  translates into its crash-safe serial resume — a distributed run
  whose workers all die finishes correctly on the coordinator alone;
* account for the distributed overheads in the shared
  :class:`~repro.eval.timing.StageTimings` (``lease`` and ``merge``
  stages; ``units_dispatched`` / ``units_redispatched`` counters).  The
  parent's publish and submit seconds are ``dispatch``, timed by the
  executor as on every other pool.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from concurrent.futures import BrokenExecutor, Future
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.distrib.artifacts import (
    CacheRef,
    DistribStateSpec,
    dump_object,
    load_object,
    strip_cache_refs,
    write_blob,
)
from repro.distrib.queue import FileLeaseQueue
from repro.engine.shard import StateHandle, WorkerPool

#: Default seconds without a heartbeat before a lease is considered dead.
DEFAULT_LEASE_TIMEOUT = 10.0

#: Default re-dispatches per unit before the run falls back to serial.
DEFAULT_MAX_RETRIES = 3


class _UnitRecord:
    """Coordinator-side bookkeeping of one in-flight unit."""

    __slots__ = (
        "unit_id", "base", "future", "enqueued_at", "attempts", "lease_seen_at", "label",
    )

    def __init__(self, unit_id: str, base: str, future: Future, label: str) -> None:
        self.unit_id = unit_id
        self.base = base
        self.future = future
        self.enqueued_at = time.monotonic()
        self.attempts = 0
        self.lease_seen_at: Optional[float] = None
        self.label = label


class Coordinator:
    """Dispatch work units over a queue backend and collect their results."""

    def __init__(
        self,
        queue,
        state_dir: Union[str, Path],
        *,
        job_id: Optional[str] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        poll_interval: float = 0.02,
        claim_timeout: Optional[float] = None,
        stage_timings=None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.queue = queue
        self.state_dir = Path(state_dir)
        self.job_id = job_id or f"job-{os.getpid():x}-{int(time.time() * 1000):x}"
        #: Directory of the shared encoding cache workers resolve cache refs
        #: in: that of the last cache-backed store :meth:`begin_run` saw.
        self.cache_dir: Optional[str] = None
        self.lease_timeout = float(lease_timeout)
        self.max_retries = int(max_retries)
        self.poll_interval = float(poll_interval)
        self.claim_timeout = claim_timeout
        self.stage_timings = stage_timings
        #: Units in flight only: a record leaves when its future completes.
        self._records: Dict[str, _UnitRecord] = {}
        #: Runs begun on this coordinator, and submissions per unit-id base
        #: within the current one (together the ``-rRUN.N`` suffix);
        #: :meth:`begin_run` forgets bases no longer in flight.
        self._run = 0
        self._issued: Dict[str, int] = {}
        #: ``(task, side, array name) -> (array, ref)``.  The pinned array
        #: is what makes ``id()`` matching in ``strip_cache_refs`` safe, so
        #: an entry and its reference are always replaced together.
        self._cache_refs: Dict[Tuple[str, str, str], Tuple[object, CacheRef]] = {}
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._closed = False
        self._poller: Optional[threading.Thread] = None
        self.units_dispatched = 0
        self.units_redispatched = 0
        self.units_resumed = 0

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _record_stage(self, stage: str, seconds: float, units: int = 1) -> None:
        if self.stage_timings is not None:
            self.stage_timings.record(stage, seconds, units=units)

    def _record_counter(self, name: str, value: int) -> None:
        if self.stage_timings is not None and value:
            self.stage_timings.record_counter(name, value)

    # ------------------------------------------------------------------
    # Per-run hook and state publication (the DistributedPool delegates here)
    # ------------------------------------------------------------------
    def begin_run(self, store, stage_timings) -> None:
        """Adopt one resolve's timing sink and its store's cache-resident arrays.

        With a persistent cache on the store, both sides are encoded (and
        written through) here and their IR arrays registered: published
        states carrying that exact array (by identity) ship a
        :class:`CacheRef` instead of the bytes, and workers re-attach it
        through the shared cache's codec-aware loader.  Registration is per
        ``(task, side, array)``, so a later run's arrays replace — and
        un-pin — the ones they supersede.
        """
        self.stage_timings = stage_timings
        with self._lock:
            self._run += 1
            live = {record.base for record in self._records.values()}
            self._issued = {base: n for base, n in self._issued.items() if base in live}
        if store.persistent is None:
            return
        self.cache_dir = str(store.persistent.directory)
        for side in ("left", "right"):
            encodings = store.table_encodings(side)
            self._cache_refs[(store.task.name, side, "irs")] = (
                encodings.irs,
                CacheRef(
                    task_name=store.task.name,
                    side=side,
                    encoding_version=store.representation.encoding_version,
                    fingerprint=store.table_fingerprint(side),
                    array="irs",
                ),
            )

    def publish_state(self, state: object) -> DistribStateSpec:
        stripped, refs = strip_cache_refs(state, self._cache_refs.values())
        path = write_blob(self.state_dir, "state", dump_object(stripped))
        return DistribStateSpec(path=str(path), cache_dir=self.cache_dir, refs=refs)

    # ------------------------------------------------------------------
    # Unit dispatch
    # ------------------------------------------------------------------
    def submit(self, fn, *args, **kwargs) -> Future:
        """Enqueue one unit; the Future completes when a worker publishes
        its validated result (or fails with :class:`BrokenExecutor` after
        retries are exhausted)."""
        future: Future = Future()
        future.set_running_or_notify_cancel()
        unit_id, base = self._unit_id(fn, args, kwargs)
        with self._lock:
            if self._closed:
                raise RuntimeError("coordinator is closed")
            record = _UnitRecord(unit_id, base, future, label=getattr(fn, "__name__", str(fn)))
            self._records[unit_id] = record
        future.add_done_callback(lambda _: self._forget(unit_id))
        resumed = self._try_adopt(record)
        if not resumed:
            self.queue.submit(unit_id, dump_object((fn, args, kwargs)))
        self.units_dispatched += 1
        self._record_counter("units_dispatched", 1)
        self._ensure_poller()
        self._wake.set()
        return future

    def _forget(self, unit_id: str) -> None:
        """Drop a unit whose future completed (delivered, failed or cancelled)."""
        with self._lock:
            self._records.pop(unit_id, None)

    def _unit_id(self, fn, args, kwargs) -> Tuple[str, str]:
        """Deterministic unit identity (and its repeat-free base): job +
        function + argument content.

        A :class:`~repro.engine.shard.StateHandle` argument carries nothing
        but its state's artifact path (content-addressed) and cache refs, so
        the same logical unit re-submitted by a restarted coordinator maps
        to the same id — the hook that lets a restart adopt completed
        results instead of recomputing them.
        """
        logical = (
            getattr(fn, "__module__", ""), getattr(fn, "__qualname__", str(fn)),
            args, tuple(sorted(kwargs.items())),
        )
        crc = zlib.crc32(dump_object(logical)) & 0xFFFFFFFF
        name = getattr(fn, "__name__", "unit").replace("_", "")
        base = f"{self.job_id}-{name}-{crc:08x}"
        with self._lock:
            run = self._run
            repeat = self._issued.get(base, 0)
            self._issued[base] = repeat + 1
        # Only the first instance in a coordinator's first run keeps the
        # restart-stable id.  Re-submissions of an identical logical unit —
        # within one run or by a later run of a long-lived runtime — get a
        # fresh identity, so each is a real round trip and never adopts an
        # earlier result.
        return (base if run <= 1 and repeat == 0 else f"{base}-r{run}.{repeat}"), base

    def _try_adopt(self, record: _UnitRecord) -> bool:
        """Adopt a result a previous coordinator run already completed."""
        data = self.queue.result(record.unit_id)
        if data is None:
            return False
        if self._deliver(record, data, resumed=True):
            self.units_resumed += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Collection / recovery loop
    # ------------------------------------------------------------------
    def _ensure_poller(self) -> None:
        with self._lock:
            if self._poller is None or not self._poller.is_alive():
                self._poller = threading.Thread(
                    target=self._poll_loop, name="distrib-coordinator", daemon=True
                )
                self._poller.start()

    def _poll_loop(self) -> None:
        while True:
            self._wake.wait(timeout=self.poll_interval)
            self._wake.clear()
            with self._lock:
                if self._closed:
                    return
                pending = list(self._records.values())
            for record in pending:
                try:
                    self._poll_unit(record)
                except Exception as error:  # pragma: no cover - defensive
                    if not record.future.done():
                        record.future.set_exception(
                            BrokenExecutor(f"coordinator poll failed: {error}")
                        )

    def _poll_unit(self, record: _UnitRecord) -> None:
        data = self.queue.result(record.unit_id)
        if data is not None:
            if not self._deliver(record, data, resumed=False):
                # Unreadable result object: discard and re-dispatch.
                self.queue.discard_result(record.unit_id)
                self._bump_attempts(record, reason="torn result")
            return
        age = self.queue.lease_age(record.unit_id)
        now = time.monotonic()
        if age is not None:
            if record.lease_seen_at is None:
                record.lease_seen_at = now
                self._record_stage("lease", max(0.0, now - record.enqueued_at))
            if age > self.lease_timeout:
                self.queue.break_lease(record.unit_id)
                record.lease_seen_at = None
                record.enqueued_at = now
                self._bump_attempts(record, reason="lease expired")
            return
        if (
            record.lease_seen_at is None
            and self.claim_timeout is not None
            and now - record.enqueued_at > self.claim_timeout
            and not record.future.done()
        ):
            record.future.set_exception(
                BrokenExecutor(
                    f"unit {record.unit_id} unclaimed for {self.claim_timeout:.0f}s "
                    "(no live workers?)"
                )
            )
            self.queue.cancel(record.unit_id)

    def _bump_attempts(self, record: _UnitRecord, reason: str) -> None:
        record.attempts += 1
        self.units_redispatched += 1
        self._record_counter("units_redispatched", 1)
        if record.attempts > self.max_retries and not record.future.done():
            record.future.set_exception(
                BrokenExecutor(
                    f"unit {record.unit_id} failed after {record.attempts} attempts ({reason})"
                )
            )
            self.queue.cancel(record.unit_id)

    def _deliver(self, record: _UnitRecord, data: bytes, resumed: bool) -> bool:
        """Decode a result payload into the unit's future; ``False`` = torn."""
        started = time.perf_counter()
        try:
            status, value = load_object(data)
        except Exception:
            return False
        if status == "ok":
            if record.lease_seen_at is None and not resumed:
                # The lease came and went between two polls; account the
                # whole wait as lease time.
                self._record_stage("lease", max(0.0, time.monotonic() - record.enqueued_at))
                record.lease_seen_at = time.monotonic()
            if not record.future.done():
                record.future.set_result(value)
            self._record_stage("merge", time.perf_counter() - started)
            return True
        # A worker-side exception: deterministic failures will not heal by
        # retrying, so treat it like an expired attempt (bounded), ending in
        # the executor's serial resume.
        self.queue.discard_result(record.unit_id)
        self._bump_attempts(record, reason=f"worker error: {value}")
        return True

    # ------------------------------------------------------------------
    def pending_units(self) -> int:
        with self._lock:
            return len(self._records)

    def close(self) -> None:
        """Stop the poll loop and cancel anything still outstanding."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            records = list(self._records.values())
        self._wake.set()
        if self._poller is not None:
            self._poller.join(timeout=5.0)
        for record in records:
            if not record.future.done():
                record.future.set_exception(BrokenExecutor("coordinator closed"))
                self.queue.cancel(record.unit_id)


class DistributedPool(WorkerPool):
    """The :class:`~repro.engine.shard.WorkerPool` over a coordinator.

    Passed to the engine as ``pool=``, it receives the executor's stage
    units verbatim; stage state is published as content-addressed artifacts
    on the shared directory (nothing to release: a blob is a file workers
    may still be reading).  Its owner shuts it down.
    """

    def __init__(self, coordinator: Coordinator, workers: int) -> None:
        super().__init__(workers)
        self.coordinator = coordinator

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return self.coordinator.submit(fn, *args, **kwargs)

    def publish(self, state: object) -> StateHandle:
        return StateHandle(spec=self.coordinator.publish_state(state))

    def begin_run(self, store, stage_timings) -> None:
        self.coordinator.begin_run(store, stage_timings)

    def shutdown(self) -> None:
        self.coordinator.close()


class DistributedRuntime:
    """One distributed execution context: queue + coordinator + pool.

    The object a caller holds across a resolve (or a serve session):
    construct with :meth:`file_queue`, pass ``runtime.pool`` as ``pool=`` to
    the resolve entries or :class:`~repro.serve.ServeSession`, ``close()``
    when done.  Usable as a context manager.
    """

    def __init__(
        self,
        queue,
        state_dir: Union[str, Path],
        *,
        workers: int = 2,
        **coordinator_options: Any,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.queue = queue
        self.coordinator = Coordinator(queue, state_dir, **coordinator_options)
        self.pool = DistributedPool(self.coordinator, workers)

    @classmethod
    def file_queue(
        cls, queue_dir: Union[str, Path], *, workers: int = 2, **options: Any
    ) -> "DistributedRuntime":
        """A runtime over a shared-directory lease queue (``queue_dir``)."""
        root = Path(queue_dir)
        return cls(
            FileLeaseQueue(root), root / "state", workers=workers, **options
        )

    @property
    def workers(self) -> int:
        return self.pool.workers

    def close(self) -> None:
        self.coordinator.close()

    def __enter__(self) -> "DistributedRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

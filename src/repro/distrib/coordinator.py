"""The coordinator: leased dispatch of executor stage units, with recovery.

The distributed runner deliberately adds **no new resolution logic**.  The
one :class:`~repro.engine.plan.ResolutionExecutor` — cold or against a
baseline — already decomposes a
:class:`~repro.engine.plan.ResolutionPlan` into stage units — LSH
partial-bucket builds (``_hash_task``), query shards (``_query_task``),
score batches (``_score_task``), delta encode ranges
(``_encode_range_task``) — and already merges results deterministically by
``(batch_index, pair_index)``.  What it needs from a pool is exactly three
things: ``submit(fn, *args) -> Future``, a ``broken`` flag, and a way to
publish stage state.  :class:`DistributedPool` provides those over a
:class:`Coordinator`, and :func:`repro.engine.shard.pool_override` routes
the executor to it — so a distributed run executes the *same* unit graph
as a local pooled run, merged by the *same* code, and inherits its
byte-identity contract with the serial stream.

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
  :class:`~repro.eval.timing.StageTimings` (``dispatch``, ``lease``,
  ``merge`` stages; ``units_dispatched`` / ``units_redispatched``
  counters).
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from concurrent.futures import BrokenExecutor, Future
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.distrib.artifacts import (
    CacheRef,
    DistribStateSpec,
    dump_object,
    load_object,
    strip_cache_refs,
    write_blob,
)
from repro.distrib.queue import FileLeaseQueue, SocketWorkQueue
from repro.engine.shard import WorkerPool, pool_override

#: Default seconds without a heartbeat before a lease is considered dead.
DEFAULT_LEASE_TIMEOUT = 10.0

#: Default re-dispatches per unit before the run falls back to serial.
DEFAULT_MAX_RETRIES = 3


class _UnitRecord:
    """Coordinator-side bookkeeping of one in-flight unit."""

    __slots__ = (
        "unit_id", "future", "enqueued_at", "attempts", "lease_seen_at", "label",
    )

    def __init__(self, unit_id: str, future: Future, label: str) -> None:
        self.unit_id = unit_id
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
        cache_dir: Optional[Union[str, Path]] = None,
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
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.lease_timeout = float(lease_timeout)
        self.max_retries = int(max_retries)
        self.poll_interval = float(poll_interval)
        self.claim_timeout = claim_timeout
        self.stage_timings = stage_timings
        self._records: Dict[str, _UnitRecord] = {}
        self._issued: Dict[str, int] = {}
        self._cache_refs: List[Tuple[object, CacheRef]] = []
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
    # State publication (the DistributedPool delegates here)
    # ------------------------------------------------------------------
    def add_cache_ref(self, array: object, ref: CacheRef) -> None:
        """Register an array the shared cache already holds.

        Published states carrying that exact array (by identity) ship a
        :class:`CacheRef` instead of the bytes, and workers re-attach it
        through the shared cache's codec-aware loader.
        """
        self._cache_refs.append((array, ref))

    def publish_state(self, token: str, state: object) -> DistribStateSpec:
        started = time.perf_counter()
        stripped, refs = strip_cache_refs(state, self._cache_refs)
        path = write_blob(self.state_dir, "state", dump_object(stripped))
        self._record_stage("dispatch", time.perf_counter() - started)
        return DistribStateSpec(path=str(path), cache_dir=self.cache_dir, refs=refs)

    # ------------------------------------------------------------------
    # Unit dispatch
    # ------------------------------------------------------------------
    def submit(self, fn, *args, **kwargs) -> Future:
        """Enqueue one unit; the Future completes when a worker publishes
        its validated result (or fails with :class:`BrokenExecutor` after
        retries are exhausted)."""
        started = time.perf_counter()
        future: Future = Future()
        future.set_running_or_notify_cancel()
        unit_id = self._unit_id(fn, args, kwargs)
        with self._lock:
            if self._closed:
                raise RuntimeError("coordinator is closed")
            record = _UnitRecord(unit_id, future, label=getattr(fn, "__name__", str(fn)))
            self._records[unit_id] = record
        resumed = self._try_adopt(record)
        if not resumed:
            self.queue.submit(unit_id, dump_object((fn, args, kwargs)))
        self.units_dispatched += 1
        self._record_stage("dispatch", time.perf_counter() - started)
        self._record_counter("units_dispatched", 1)
        self._ensure_poller()
        self._wake.set()
        return future

    def _unit_id(self, fn, args, kwargs) -> str:
        """Deterministic unit identity: job + function + argument content.

        :class:`~repro.engine.shard.StateHandle` arguments are identified
        by their published artifact path (content-addressed) rather than
        their process-local token, so the same logical unit re-submitted by
        a restarted coordinator maps to the same id — the hook that lets a
        restart adopt completed results instead of recomputing them.
        """
        logical: List[object] = [getattr(fn, "__module__", ""), getattr(fn, "__qualname__", str(fn))]
        for arg in args:
            spec = getattr(arg, "spec", None)
            if getattr(arg, "token", None) is not None and isinstance(spec, DistribStateSpec):
                logical.append(("state", spec.path, spec.refs))
            else:
                logical.append(arg)
        logical.append(tuple(sorted(kwargs.items())))
        crc = zlib.crc32(dump_object(tuple(logical))) & 0xFFFFFFFF
        name = getattr(fn, "__name__", "unit").replace("_", "")
        base = f"{self.job_id}-{name}-{crc:08x}"
        with self._lock:
            repeat = self._issued.get(base, 0)
            self._issued[base] = repeat + 1
        # Re-submissions of an identical logical unit within one run (the
        # executor's dispatch calibration no-ops) get a fresh identity so
        # each measures a real round trip; the first instance keeps the
        # restart-stable id.
        return base if repeat == 0 else f"{base}-r{repeat}"

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
                pending = [r for r in self._records.values() if not r.future.done()]
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
            return sum(1 for r in self._records.values() if not r.future.done())

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
    """A :class:`~repro.engine.shard.WorkerPool` facade over a coordinator.

    Installed via :func:`repro.engine.shard.pool_override`, it receives the
    executor's stage units verbatim.  ``publish_state`` is the hook
    :func:`~repro.engine.shard.publish_worker_state` duck-types on; the
    engine never touches ``executor`` (``submit`` is overridden), so none
    exists.
    """

    def __init__(self, coordinator: Coordinator, workers: int) -> None:
        super().__init__(executor=None, kind="distrib", workers=int(workers))
        self.coordinator = coordinator

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return self.coordinator.submit(fn, *args, **kwargs)

    def publish_state(self, token: str, state: object) -> DistribStateSpec:
        return self.coordinator.publish_state(token, state)

    def shutdown(self) -> None:  # pragma: no cover - owner-managed lifetime
        self.coordinator.close()


class DistributedRuntime:
    """One distributed execution context: queue + coordinator + pool.

    The object a caller holds across a resolve (or a serve session):
    construct with :meth:`file_queue` or :meth:`socket_queue`, ``activate()``
    around engine work, ``close()`` when done.  Usable as a context
    manager.
    """

    def __init__(
        self,
        queue,
        state_dir: Union[str, Path],
        *,
        workers: int = 2,
        owns_queue: bool = True,
        **coordinator_options: Any,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.queue = queue
        self.coordinator = Coordinator(queue, state_dir, **coordinator_options)
        self.pool = DistributedPool(self.coordinator, workers)
        self._owns_queue = owns_queue

    @classmethod
    def file_queue(
        cls, queue_dir: Union[str, Path], *, workers: int = 2, **options: Any
    ) -> "DistributedRuntime":
        """A runtime over a shared-directory lease queue (``queue_dir``)."""
        root = Path(queue_dir)
        return cls(
            FileLeaseQueue(root), root / "state", workers=workers, **options
        )

    @classmethod
    def socket_queue(
        cls,
        state_dir: Union[str, Path],
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        **options: Any,
    ) -> "DistributedRuntime":
        """A runtime serving units over TCP; state still rides the shared
        filesystem at ``state_dir`` (workers share at least that)."""
        return cls(
            SocketWorkQueue(host=host, port=port), state_dir, workers=workers, **options
        )

    @property
    def workers(self) -> int:
        return self.pool.workers

    def activate(self):
        """Route the engine's pooled stages through this runtime."""
        return pool_override(self.pool)

    def add_cache_ref(self, array: object, ref: CacheRef) -> None:
        self.coordinator.add_cache_ref(array, ref)

    def close(self) -> None:
        self.coordinator.close()
        if self._owns_queue:
            close = getattr(self.queue, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "DistributedRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""The worker loop: claim, heartbeat, execute, publish — repeat.

A worker is deliberately dumb and stateless.  It never sees a plan, a
model or a store up front: each claimed unit carries its function (by
reference) and arguments, and any stage state arrives lazily through the
:class:`~repro.distrib.artifacts.DistribStateSpec` riding the unit's
:class:`~repro.engine.shard.StateHandle` — resolved on first touch from
the shared state artifacts and, for cache-resident arrays, from the shared
:class:`~repro.engine.persist.PersistentEncodingCache` (codec-aware: int8
entries attach as :class:`~repro.engine.quant.CodecArray` code views
without rehydration).  That is what makes one worker process serve any
number of jobs, and what makes killing a worker mid-unit safe: its lease
simply expires and the unit runs elsewhere, producing byte-identical
results because the unit is a pure function of its payload and the shared
state.

While a unit runs, a sidecar thread touches the lease on
``heartbeat_interval``; a SIGKILL stops the heartbeats with the process,
which is exactly the liveness signal the coordinator's lease timeout
watches.  Unit-level exceptions are *reported* (an ``("err", message)``
result), not fatal to the worker — the coordinator decides between retry
and serial fallback.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Optional

from repro.distrib.artifacts import dump_object, load_object
from repro.distrib.queue import FileLeaseQueue, WorkUnit

DEFAULT_POLL_INTERVAL = 0.05
DEFAULT_HEARTBEAT_INTERVAL = 1.0


class Worker:
    """Claim-execute loop over one queue handle."""

    def __init__(
        self,
        queue,
        *,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        max_units: Optional[int] = None,
        idle_timeout: Optional[float] = None,
    ) -> None:
        self.queue = queue
        self.poll_interval = float(poll_interval)
        self.heartbeat_interval = float(heartbeat_interval)
        self.max_units = max_units
        self.idle_timeout = idle_timeout
        self.units_executed = 0
        self.units_failed = 0

    # ------------------------------------------------------------------
    def run(self, stop_event: Optional[threading.Event] = None) -> int:
        """Serve units until stopped; returns how many were executed.

        Stops on ``stop_event``, after ``max_units`` executions, or after
        ``idle_timeout`` seconds without claimable work (``None`` = serve
        forever — the daemon mode ``python -m repro worker`` runs in).
        """
        idle_since = time.monotonic()
        while stop_event is None or not stop_event.is_set():
            unit = self.queue.claim()
            if unit is None:
                if (
                    self.idle_timeout is not None
                    and time.monotonic() - idle_since > self.idle_timeout
                ):
                    break
                if stop_event is not None:
                    stop_event.wait(self.poll_interval)
                else:
                    time.sleep(self.poll_interval)
                continue
            idle_since = time.monotonic()
            self.execute(unit)
            if self.max_units is not None and self.units_executed >= self.max_units:
                break
        return self.units_executed

    def execute(self, unit: WorkUnit) -> None:
        """Run one claimed unit under a heartbeat and publish its result."""
        done = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(unit.unit_id, done), daemon=True
        )
        beat.start()
        try:
            try:
                fn, args, kwargs = load_object(unit.payload)
                value = fn(*args, **kwargs)
                result = dump_object(("ok", value))
            except BaseException as error:
                self.units_failed += 1
                detail = "".join(
                    traceback.format_exception_only(type(error), error)
                ).strip()
                result = dump_object(("err", detail))
        finally:
            done.set()
            beat.join(timeout=self.heartbeat_interval + 1.0)
        self.queue.complete(unit.unit_id, result)
        self.units_executed += 1

    def _heartbeat_loop(self, unit_id: str, done: threading.Event) -> None:
        while not done.wait(self.heartbeat_interval):
            if not self.queue.heartbeat(unit_id):
                # Lease revoked (the coordinator re-dispatched us as a
                # straggler).  Finishing anyway is harmless — results are
                # content-addressed, duplicates converge — so keep going
                # but stop touching the queue's lease state.
                return


def run_worker(
    queue_dir: str,
    *,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    max_units: Optional[int] = None,
    idle_timeout: Optional[float] = None,
) -> int:
    """Entry point behind ``python -m repro worker``."""
    worker = Worker(
        FileLeaseQueue(queue_dir),
        poll_interval=poll_interval,
        heartbeat_interval=heartbeat_interval,
        max_units=max_units,
        idle_timeout=idle_timeout,
    )
    return worker.run()

"""Coordinator behaviour: dispatch, recovery, restart-resume, fallback.

Workers here are real :class:`repro.distrib.Worker` loops running in
threads (same claim/heartbeat/complete protocol a remote process speaks),
so every path below — including the crash-recovery ones — exercises the
production code end to end.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor
from types import SimpleNamespace

import pytest

from repro.distrib import Coordinator, DistributedRuntime, FileLeaseQueue, Worker


def _double(x):
    return 2 * x


def _boom():
    raise ValueError("deterministic worker-side failure")


@pytest.fixture()
def queue(tmp_path):
    return FileLeaseQueue(tmp_path / "queue")


def _start_worker(tmp_path, stop, **kwargs):
    worker = Worker(
        FileLeaseQueue(tmp_path / "queue"), poll_interval=0.01, **kwargs
    )
    thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
    thread.start()
    return worker, thread


class TestDispatch:
    def test_submit_returns_worker_result(self, tmp_path, queue):
        stop = threading.Event()
        coordinator = Coordinator(queue, tmp_path / "state", poll_interval=0.01)
        worker, thread = _start_worker(tmp_path, stop)
        try:
            future = coordinator.submit(_double, 21)
            assert future.result(timeout=10) == 42
            assert coordinator.units_dispatched == 1
        finally:
            stop.set()
            thread.join(timeout=5)
            coordinator.close()

    def test_identical_units_get_distinct_ids(self, tmp_path, queue):
        coordinator = Coordinator(queue, tmp_path / "state", poll_interval=0.01)
        try:
            coordinator.submit(_double, 7)
            coordinator.submit(_double, 7)
            # Two published unit blobs: the second submission was salted,
            # not silently merged with the first.
            assert len(list(queue.units_dir.iterdir())) == 2
        finally:
            coordinator.close()

    def test_worker_error_exhausts_retries_to_broken_executor(self, tmp_path, queue):
        stop = threading.Event()
        coordinator = Coordinator(
            queue, tmp_path / "state", poll_interval=0.01, max_retries=1
        )
        worker, thread = _start_worker(tmp_path, stop)
        try:
            future = coordinator.submit(_boom)
            with pytest.raises(BrokenExecutor):
                future.result(timeout=20)
            assert coordinator.units_redispatched >= 2  # initial + 1 retry
            assert worker.units_failed >= 1
        finally:
            stop.set()
            thread.join(timeout=5)
            coordinator.close()

    def test_claim_timeout_without_workers(self, tmp_path, queue):
        coordinator = Coordinator(
            queue, tmp_path / "state", poll_interval=0.01, claim_timeout=0.2
        )
        try:
            future = coordinator.submit(_double, 1)
            with pytest.raises(BrokenExecutor):
                future.result(timeout=10)
        finally:
            coordinator.close()

    def test_close_fails_pending_units(self, tmp_path, queue):
        coordinator = Coordinator(queue, tmp_path / "state", poll_interval=0.01)
        future = coordinator.submit(_double, 1)
        coordinator.close()
        with pytest.raises(BrokenExecutor):
            future.result(timeout=5)


class TestRecovery:
    def test_expired_lease_redispatches_to_live_worker(self, tmp_path, queue):
        """A worker that claims a unit and dies: lease expiry re-dispatches."""
        coordinator = Coordinator(
            queue, tmp_path / "state", poll_interval=0.02, lease_timeout=0.3
        )
        try:
            future = coordinator.submit(_double, 8)
            # Simulate the crashed worker: claim the unit, never heartbeat,
            # never complete.
            dead = FileLeaseQueue(tmp_path / "queue", worker_id="dead")
            claimed = dead.claim()
            assert claimed is not None
            # Now a healthy worker arrives; it can only run the unit after
            # the coordinator breaks the stale lease.
            stop = threading.Event()
            worker, thread = _start_worker(tmp_path, stop)
            try:
                assert future.result(timeout=20) == 16
                assert coordinator.units_redispatched >= 1
            finally:
                stop.set()
                thread.join(timeout=5)
        finally:
            coordinator.close()

    def test_restarted_coordinator_adopts_completed_units(self, tmp_path, queue):
        """Coordinator crash between completion and merge: the restarted run
        re-submits the same logical units and adopts their results without
        any worker running."""
        stop = threading.Event()
        first = Coordinator(
            queue, tmp_path / "state", job_id="restartable", poll_interval=0.01
        )
        worker, thread = _start_worker(tmp_path, stop)
        try:
            assert first.submit(_double, 5).result(timeout=10) == 10
        finally:
            stop.set()
            thread.join(timeout=5)
            first.close()
        # No workers alive any more; a fresh coordinator with the same job
        # id must complete instantly from the published result.
        second = Coordinator(
            queue, tmp_path / "state", job_id="restartable",
            poll_interval=0.01, claim_timeout=5.0,
        )
        try:
            future = second.submit(_double, 5)
            assert future.result(timeout=1) == 10
            assert second.units_resumed == 1
        finally:
            second.close()

    def test_later_run_does_not_adopt_an_earlier_runs_result(self, tmp_path, queue):
        """Adoption is for restarts: a long-lived coordinator re-submitting an
        identical unit in its next run (a repeated resolve of unchanged
        tables does) gets a real round trip, not the result file the last
        run left."""
        no_cache = SimpleNamespace(persistent=None)
        stop = threading.Event()
        coordinator = Coordinator(queue, tmp_path / "state", poll_interval=0.01)
        worker, thread = _start_worker(tmp_path, stop)
        try:
            for _ in range(2):
                coordinator.begin_run(no_cache, None)
                assert coordinator.submit(_double, 5).result(timeout=10) == 10
                assert coordinator.submit(_double, 5).result(timeout=10) == 10
            assert coordinator.units_resumed == 0
            assert worker.units_executed == 4
        finally:
            stop.set()
            thread.join(timeout=5)
            coordinator.close()


class TestRuntime:
    def test_file_queue_runtime_context(self, tmp_path):
        from repro.engine import WorkerPool

        with DistributedRuntime.file_queue(tmp_path / "queue", workers=3) as runtime:
            assert runtime.workers == 3
            assert isinstance(runtime.pool, WorkerPool) and runtime.pool.workers == 3
            assert not runtime.pool.broken
        with pytest.raises(RuntimeError):
            runtime.pool.submit(_double, 1)  # closed with the runtime

    def test_completed_units_are_forgotten(self, tmp_path, queue):
        """A long-lived coordinator must not grow with every unit it ever
        dispatched: delivered, failed and cancelled units all leave."""
        stop = threading.Event()
        coordinator = Coordinator(
            queue, tmp_path / "state", poll_interval=0.01, max_retries=0
        )
        worker, thread = _start_worker(tmp_path, stop)
        try:
            futures = [coordinator.submit(_double, value) for value in range(5)]
            assert [future.result(timeout=10) for future in futures] == [0, 2, 4, 6, 8]
            with pytest.raises(BrokenExecutor):
                coordinator.submit(_boom).result(timeout=20)
            assert coordinator._records == {} and coordinator.pending_units() == 0
        finally:
            stop.set()
            thread.join(timeout=5)
        stranded = coordinator.submit(_double, 99)  # no worker left to claim it
        assert coordinator.pending_units() == 1
        coordinator.close()
        with pytest.raises(BrokenExecutor):
            stranded.result(timeout=5)
        assert coordinator._records == {}

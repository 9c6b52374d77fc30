"""Distributed resolution vs. the serial stream: the byte-identity gate.

The distributed runner's whole contract is that fanning stage units out to
N workers changes wall-clock, not output: same candidate pairs, same order,
same probability bytes as ``resolve_stream``.  These tests run real
:class:`repro.distrib.Worker` loops (in threads — the same claim/execute
code a remote process runs) against the file-lease queue, including a
worker that abandons its first unit mid-run to force the lease-expiry
recovery path.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import VAEConfig
from repro.core.pipeline import VAER
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import DOMAIN_NAMES, append_rows, load_domain, mutate_rows
from repro.distrib import DistributedRuntime, FileLeaseQueue, Worker, load_object, read_blob
from repro.eval.timing import StageTimings


class DistanceMatcher:
    """Elementwise deterministic matcher (see tests/engine/test_delta.py):
    probabilities are independent of batch composition, so identity checks
    can demand exact float equality."""

    def predict_proba(self, left_irs, right_irs):
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


class AbandonOnceWorker(Worker):
    """Claims its first unit and walks away — the crashed-worker shape."""

    def __init__(self, queue, **kwargs):
        super().__init__(queue, **kwargs)
        self.abandoned = False

    def execute(self, unit):
        if not self.abandoned:
            self.abandoned = True
            return  # lease never heartbeats again; coordinator re-dispatches
        super().execute(unit)


def _build_model(cache_dir=None, domain=None):
    domain = domain or load_domain("beer", scale=0.3)
    model = VAER(cache_dir=cache_dir)
    model.representation = EntityRepresentationModel(
        VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=7),
        ir_method="lsa",
    ).fit(domain.task)
    model.task = domain.task
    model.matcher = DistanceMatcher()
    return model


def _start_workers(queue_dir, count, worker_cls=Worker):
    stop = threading.Event()
    workers, threads = [], []
    for _ in range(count):
        worker = worker_cls(FileLeaseQueue(queue_dir), poll_interval=0.01)
        thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
        thread.start()
        workers.append(worker)
        threads.append(thread)

    def _stop():
        stop.set()
        for thread in threads:
            thread.join(timeout=10)

    return workers, _stop


def _assert_identical(serial, distributed):
    assert [b.batch_index for b in serial] == [b.batch_index for b in distributed]
    for left, right in zip(serial, distributed):
        assert [p.key() for p in left.pairs] == [p.key() for p in right.pairs]
        np.testing.assert_array_equal(left.probabilities, right.probabilities)


@pytest.mark.parametrize("workers", [2, 4])
def test_distributed_matches_serial_stream(tmp_path, workers):
    model = _build_model(cache_dir=str(tmp_path / "cache"))
    serial = list(model.resolve_stream(k=5, batch_size=64))
    _, stop = _start_workers(tmp_path / "queue", workers)
    try:
        stage = StageTimings()
        with DistributedRuntime.file_queue(tmp_path / "queue", workers=workers) as runtime:
            distributed = list(model.resolve_stream(
                pool=runtime.pool, k=5, batch_size=64, stage_timings=stage,
            ))
    finally:
        stop()
    _assert_identical(serial, distributed)
    assert stage.counter("units_dispatched") > 0
    assert stage.seconds("dispatch") >= 0.0
    assert "merge" in stage.stages()


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_distributed_matches_serial_on_every_registry_domain(tmp_path, name):
    model = _build_model(domain=load_domain(name, scale=0.25))
    serial = list(model.resolve_stream(k=8, batch_size=128))
    _, stop = _start_workers(tmp_path / "queue", 2)
    try:
        with DistributedRuntime.file_queue(tmp_path / "queue", workers=2) as runtime:
            distributed = list(model.resolve_stream(pool=runtime.pool, k=8, batch_size=128))
            assert not runtime.pool.broken
    finally:
        stop()
    _assert_identical(serial, distributed)


def test_distributed_survives_abandoned_unit(tmp_path):
    """Worker killed mid-unit: lease expiry -> re-dispatch -> identical output."""
    model = _build_model()
    serial = list(model.resolve_stream(k=5, batch_size=64))
    workers, stop = _start_workers(
        tmp_path / "queue", 1, worker_cls=AbandonOnceWorker
    )
    healthy, stop_healthy = _start_workers(tmp_path / "queue", 1)
    try:
        stage = StageTimings()
        with DistributedRuntime.file_queue(
            tmp_path / "queue", workers=2, lease_timeout=0.5
        ) as runtime:
            distributed = list(model.resolve_stream(
                pool=runtime.pool, k=5, batch_size=64, stage_timings=stage,
            ))
    finally:
        stop()
        stop_healthy()
    assert workers[0].abandoned
    _assert_identical(serial, distributed)
    assert stage.counter("units_redispatched") >= 1


def test_distributed_without_workers_falls_back_serially(tmp_path):
    """Zero live workers: claim_timeout breaks the pool and the executors'
    serial-tail fallback still produces the exact stream."""
    model = _build_model()
    serial = list(model.resolve_stream(k=5, batch_size=64))
    runtime = DistributedRuntime.file_queue(
        tmp_path / "queue", workers=2, claim_timeout=0.3
    )
    with runtime:
        distributed = list(model.resolve_stream(pool=runtime.pool, k=5, batch_size=64))
        assert runtime.pool.broken
    _assert_identical(serial, distributed)


def test_workers_one_degenerates_to_local_serial(tmp_path):
    model = _build_model()
    serial = list(model.resolve_stream(k=5, batch_size=64))
    with DistributedRuntime.file_queue(tmp_path / "queue", workers=1) as runtime:
        distributed = list(model.resolve_stream(pool=runtime.pool, k=5, batch_size=64))
    _assert_identical(serial, distributed)
    assert not list((tmp_path / "queue" / "units").iterdir())


def test_reused_runtime_forgets_units_and_superseded_arrays(tmp_path):
    """Two incremental rounds on one runtime: every dispatched unit is
    forgotten once delivered, no round adopts a result an earlier one left
    behind (adoption is for restarts), and the second round's cache refs
    replace (and un-pin) the first round's instead of piling up beside them."""
    domain = load_domain("beer", scale=0.3)
    model = _build_model(cache_dir=str(tmp_path / "cache"), domain=domain)
    oracle_domain = load_domain("beer", scale=0.3)
    oracle = _build_model(domain=oracle_domain)
    oracle.representation = model.representation
    _, stop = _start_workers(tmp_path / "queue", 2)
    try:
        with DistributedRuntime.file_queue(tmp_path / "queue", workers=2) as runtime:
            coordinator = runtime.coordinator
            for round_index in range(2):
                if round_index:
                    for mutated in (domain, oracle_domain):
                        mutate_rows(mutated, side="right", rows=3)
                        append_rows(mutated, side="right", rows=5)
                distributed = list(model.resolve_stream(
                    pool=runtime.pool, k=5, batch_size=64, incremental=True,
                ))
                _assert_identical(
                    list(oracle.resolve_stream(k=5, batch_size=64, incremental=True)),
                    distributed,
                )
                assert not runtime.pool.broken
                assert len(coordinator._records) == 0 and coordinator.pending_units() == 0
                assert coordinator.units_resumed == 0
                assert sorted(coordinator._cache_refs) == [
                    ("beer", "left", "irs"), ("beer", "right", "irs"),
                ]
                store = model.store
                for side in ("left", "right"):
                    pinned, _ = coordinator._cache_refs[("beer", side, "irs")]
                    assert pinned is store.table_encodings(side).irs
    finally:
        stop()


def test_serve_session_refreshes_through_runtime(tmp_path):
    """ServeSession with a distributed runtime: the cold resolve fans out to
    remote workers and the snapshot matches a local session's exactly."""
    from repro.serve import ServeSession

    local = ServeSession(_build_model(), k=4, batch_size=32).start()
    try:
        reference = local.snapshot
    finally:
        local.close()

    _, stop = _start_workers(tmp_path / "queue", 2)
    runtime = DistributedRuntime.file_queue(tmp_path / "queue", workers=2)
    try:
        session = ServeSession(
            _build_model(), k=4, batch_size=32, pool=runtime.pool
        ).start()
        try:
            snapshot = session.snapshot
            assert snapshot.pairs == reference.pairs
            assert snapshot.match_count == reference.match_count
        finally:
            session.close()
        assert not runtime.pool.broken, "closing a session leaves a supplied pool alone"
    finally:
        runtime.close()
        stop()


def test_daemon_refresh_ships_cache_refs_not_ir_arrays(tmp_path):
    """Library, CLI and daemon share one distributed entry: a daemon refresh
    under a ``cache_dir`` publishes score state that references the shared
    cache instead of carrying the IR arrays."""
    from repro.serve import ServeSession

    model = _build_model(cache_dir=str(tmp_path / "cache"))
    _, stop = _start_workers(tmp_path / "queue", 2)
    runtime = DistributedRuntime.file_queue(tmp_path / "queue", workers=2)
    try:
        session = ServeSession(model, k=4, batch_size=32, pool=runtime.pool).start()
        try:
            assert not runtime.pool.broken
            states = [
                load_object(read_blob(path))
                for path in sorted((tmp_path / "queue" / "state").glob("state-*.bin"))
            ]
            scored = [state for state in states if hasattr(state, "left_irs")]
            assert scored, "the refresh published its query/score state"
            assert all(s.left_irs is None and s.right_irs is None for s in scored)
            oracle = _build_model()
            oracle.representation = model.representation
            reference = list(oracle.resolve_stream(k=4, batch_size=32))
            assert [(p.left_id, p.right_id) for b in reference for p in b.pairs] == [
                pair[:2] for pair in session.snapshot.pairs
            ]
            assert [float(x) for b in reference for x in b.probabilities] == [
                pair[2] for pair in session.snapshot.pairs
            ]
        finally:
            session.close()
    finally:
        runtime.close()
        stop()

"""Worker pools: spawn accounting, borrowing, the fork probe.

Pinned here:

* **Pool reuse** — a full pooled resolve spawns exactly one local pool
  (:data:`repro.engine.shard.POOL_SPAWNS`), and delta rounds after it spawn
  none: the single-slot cache hands the same pool back across the
  encode → block → score stages and across resolves;
* **Transport equivalence** — a thread pool and a fork pool installed as
  the local pool both produce the serial stream's bytes, cold and over one
  delta round, and the local pool is a thread pool wherever the fork probe
  fails;
* **Borrowing** — a ``workers > 1`` run borrows the local pool and hands
  it back to the cache whether the stream is drained or abandoned; a pool
  that dies mid-run is marked broken, shut down and never cached, and the
  run finishes on the serial schedule; two concurrent runs each borrow a
  pool of their own; ``VAER.resolve_stream(workers=2)`` on an installed
  pool yields the serial bytes;
* **Tasks carry their batch** — each submitted score task holds exactly its
  batch's distinct rows of the two IR tables (code tables as codes).
"""

import multiprocessing
import threading
from concurrent.futures import BrokenExecutor, Executor, Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.config import BlockingConfig, VAEConfig
from repro.core.pipeline import VAER
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import append_rows, load_domain
from repro.engine import (
    CodecArray,
    EncodingStore,
    ForkWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
    fork_pool_available,
    merge_scored_batches,
    release_engine_resources,
    resolve,
)
from repro.engine import shard as shard_module
from repro.engine.shard import acquire_pool, make_pool, release_pool
from repro.eval.timing import EngineCounters


class _DistanceMatcher:
    """Deterministic, picklable matcher stand-in (see tests/engine/test_delta.py).

    Purely elementwise per pair, so probabilities are byte-identical
    regardless of batch composition or which transport scored them.
    """

    def predict_proba(self, left_irs: np.ndarray, right_irs: np.ndarray, rows=None) -> np.ndarray:
        if rows is not None:  # whole-table IRs and each pair's row indices
            left_irs, right_irs = left_irs[rows[0]], right_irs[rows[1]]
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


@pytest.fixture(scope="module")
def pool_domain():
    """A registry domain plus a representation fitted on it.

    ``load_domain`` is deterministic, so tests that mutate tables regenerate
    their own identical copy and reuse this representation.
    """
    domain = load_domain("restaurants", scale=0.2)
    representation = EntityRepresentationModel(
        VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=7), ir_method="lsa"
    ).fit(domain.task)
    return domain, representation


def _store(representation, task):
    return EncodingStore(representation, task, counters=EngineCounters())


def _rows(batches):
    return [
        (b.batch_index, [p.key() for p in b.pairs], np.asarray(b.probabilities).tobytes())
        for b in batches
    ]


class TestPoolReuse:
    def test_full_resolve_spawns_exactly_one_pool(self, pool_domain):
        domain, representation = pool_domain
        store = _store(representation, domain.task)
        release_engine_resources()
        before = shard_module.POOL_SPAWNS
        merge_scored_batches(
            resolve(store, _DistanceMatcher(), k=4, batch_size=13, workers=2).run()
        )
        assert shard_module.POOL_SPAWNS == before + 1

    def test_delta_rounds_reuse_the_cached_pool(self, pool_domain):
        _, representation = pool_domain
        domain = load_domain("restaurants", scale=0.2)  # private copy to mutate
        matcher = _DistanceMatcher()
        blocking = BlockingConfig(seed=19)
        store = _store(representation, domain.task)
        release_engine_resources()
        before = shard_module.POOL_SPAWNS
        executor = resolve(
            store, matcher, baseline=None, capture=True, blocking=blocking, k=4, batch_size=13, workers=2
        )
        merge_scored_batches(executor.run())
        assert shard_module.POOL_SPAWNS == before + 1, "cold resolve must spawn one pool"
        append_rows(domain, side="right", rows=7)
        warm = resolve(
            store, matcher, baseline=executor.baseline_out, capture=True, blocking=blocking,
            k=4, batch_size=13, workers=2,
        )
        merge_scored_batches(warm.run())
        assert shard_module.POOL_SPAWNS == before + 1, "delta round must reuse the cached pool"

    def test_broken_pool_is_not_recycled(self):
        release_engine_resources()
        before = shard_module.POOL_SPAWNS
        pool = acquire_pool(2)
        assert shard_module.POOL_SPAWNS == before + 1
        pool.broken = True
        release_pool(pool)
        fresh = acquire_pool(2)
        assert shard_module.POOL_SPAWNS == before + 2, "broken pools must never be handed back"
        assert not fresh.broken
        release_pool(fresh)
        release_engine_resources()

    def test_shape_change_replaces_cached_pool(self):
        release_engine_resources()
        before = shard_module.POOL_SPAWNS
        release_pool(acquire_pool(2))
        assert shard_module.POOL_SPAWNS == before + 1
        release_pool(acquire_pool(2))  # same shape: cached
        assert shard_module.POOL_SPAWNS == before + 1
        release_pool(acquire_pool(3))  # different shape: fresh spawn
        assert shard_module.POOL_SPAWNS == before + 2
        release_engine_resources()


class TestTransportEquivalence:
    def test_thread_fallback_matches_fork_path(self, pool_domain, install_pool):
        """thread == fork == serial bytes, cold and over one delta round
        (the fork side only where this platform can fork)."""
        _, representation = pool_domain
        matcher = _DistanceMatcher()
        knobs = dict(blocking=BlockingConfig(seed=19), k=4, batch_size=13)

        def run(workers):
            domain = load_domain("restaurants", scale=0.2)  # private copy to mutate
            store = _store(representation, domain.task)
            cold = resolve(store, matcher, baseline=None, capture=True, workers=workers, **knobs)
            rounds = [_rows(cold.run())]
            append_rows(domain, side="right", rows=7)
            warm = resolve(store, matcher, baseline=cold.baseline_out, capture=True, workers=workers, **knobs)
            rounds.append(_rows(warm.run()))
            return rounds

        serial = run(1)
        for pool_class in (ThreadWorkerPool, ForkWorkerPool):
            if pool_class is ForkWorkerPool and not fork_pool_available():
                continue
            pool = install_pool(pool_class(2))
            try:
                assert run(2) == serial, pool_class.__name__
                assert shard_module._CACHED_POOL is pool
            finally:
                pool.shutdown()

    def test_serial_override_spawns_nothing_and_matches_stream(self, pool_domain):
        """``workers=1`` is the serial override: no pool, the pooled bytes."""
        domain, representation = pool_domain
        matcher = _DistanceMatcher()
        pooled = _rows(
            resolve(_store(representation, domain.task), matcher, k=4, batch_size=13, workers=2).run()
        )
        release_engine_resources()
        before = shard_module.POOL_SPAWNS
        serial = _rows(
            resolve(_store(representation, domain.task), matcher, k=4, batch_size=13, workers=1).run()
        )
        assert shard_module.POOL_SPAWNS == before and shard_module._CACHED_POOL is None
        assert serial == pooled

    def test_failed_fork_probe_forces_thread_pool(self, monkeypatch):
        """A fork-context lock that cannot be made (no ``/dev/shm``) means no
        fork pool: the probe says so, once, and the local pool is threads."""
        probes = []

        def no_semaphores(self):
            probes.append(True)
            raise OSError("sem_open: no such file or directory")

        monkeypatch.setattr(shard_module, "_FORK_POOL_AVAILABLE", None)  # forget the memo
        monkeypatch.setattr(type(multiprocessing.get_context("fork")), "Lock", no_semaphores)
        assert not fork_pool_available()
        assert not fork_pool_available()
        assert len(probes) == 1, "the probe is memoized"
        pool = make_pool(2)
        try:
            assert isinstance(pool, ThreadWorkerPool)
        finally:
            pool.shutdown()


class _InlineExecutor(Executor):
    """Runs each task in the caller, before ``submit`` returns."""

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class _InlinePool(WorkerPool):
    """Runs each task inline; once ``dead`` is set, ``submit`` fails like a
    pool whose workers are gone."""

    def __init__(self) -> None:
        super().__init__(_InlineExecutor(), workers=2)
        self.dead = False
        self.shut_down = False

    def submit(self, fn, /, *args, **kwargs):
        if self.dead:
            raise BrokenExecutor("workers are gone")
        return super().submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        self.shut_down = True
        super().shutdown()


class TestInstalledPool:
    def test_borrowed_pool_is_handed_back_drained_or_abandoned(self, pool_domain, install_pool):
        """Drained or abandoned mid-way, a run hands the pool it borrowed
        back to the cache slot, alive."""
        domain, representation = pool_domain
        matcher = _DistanceMatcher()
        streamed = _rows(resolve(_store(representation, domain.task), matcher, k=4, batch_size=13).run())
        pool = install_pool(_InlinePool())
        drained = _rows(
            resolve(_store(representation, domain.task), matcher, k=4, batch_size=13, workers=2).run()
        )
        assert shard_module._CACHED_POOL is pool
        abandoned = resolve(
            _store(representation, domain.task), matcher, k=4, batch_size=13, workers=2
        ).run()
        first = next(abandoned)
        assert shard_module._CACHED_POOL is None, "the running stream holds the pool"
        abandoned.close()
        assert drained == streamed and _rows([first]) == streamed[:1]
        assert shard_module._CACHED_POOL is pool
        assert not pool.shut_down and not pool.broken

    def test_pool_that_dies_mid_run_is_marked_broken_and_shut_down(self, pool_domain, install_pool):
        """The run resumes serially (no duplicate or missing batch); the
        dead pool is flagged, shut down and never cached."""
        domain, representation = pool_domain
        matcher = _DistanceMatcher()
        serial = _rows(resolve(_store(representation, domain.task), matcher, k=4, batch_size=13).run())
        pool = install_pool(_InlinePool())
        stream = resolve(
            _store(representation, domain.task), matcher, k=4, batch_size=13, workers=2
        ).run()
        resumed = [next(stream)]
        pool.dead = True
        resumed.extend(stream)
        assert [b.batch_index for b in resumed] == list(range(len(serial)))
        assert _rows(resumed) == serial
        assert pool.broken and pool.shut_down
        assert shard_module._CACHED_POOL is None

    @pytest.mark.parametrize("codec", ["raw", "int8", "pq"])
    @pytest.mark.parametrize("base", [_InlinePool, ThreadWorkerPool], ids=["inline", "thread"])
    def test_each_score_task_carries_exactly_its_batch_rows(self, pool_domain, install_pool, base, codec):
        """Blocking runs in the parent and a task carries what it reads: the
        matcher, its batch's distinct left and right IR rows — codes under a
        quantized codec, as the store holds them — and each pair's index
        into those rows."""
        domain, representation = pool_domain
        matcher = _DistanceMatcher()
        submitted = []

        class _TaskRecordingPool(base):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append((fn.__name__, args))
                return super().submit(fn, *args, **kwargs)

        pool = install_pool(_TaskRecordingPool() if base is _InlinePool else _TaskRecordingPool(2))
        store = EncodingStore(representation, domain.task, counters=EngineCounters(), codec=codec)
        try:
            batches = list(resolve(store, matcher, k=4, batch_size=13, workers=2).run())
        finally:
            pool.shutdown()
        assert [name for name, _ in submitted] == ["_score_task"] * len(batches)
        left, right = store.table_encodings("left"), store.table_encodings("right")
        for batch, (_, args) in zip(batches, submitted):
            task_matcher, left_irs, right_irs, left_index, right_index = args
            assert task_matcher is matcher
            for table, irs, index, ids in (
                (left, left_irs, left_index, [p.left_id for p in batch.pairs]),
                (right, right_irs, right_index, [p.right_id for p in batch.pairs]),
            ):
                rows = table.rows(ids)
                distinct = np.unique(rows)
                assert isinstance(irs, CodecArray) == (codec != "raw")
                assert len(irs) == len(distinct)
                if codec == "raw":
                    assert irs.tobytes() == table.irs[distinct].tobytes()
                else:
                    assert irs.codes.tobytes() == table.irs.codes[distinct].tobytes()
                np.testing.assert_array_equal(distinct[index], rows)

    def test_two_pools_resolve_concurrently(self, pool_domain, monkeypatch):
        """Two resolves on two threads, each with its own store: both are
        mid-stream at once, so each borrows a thread pool of its own."""
        domain, representation = pool_domain
        matcher = _DistanceMatcher()
        knobs = [dict(k=4, batch_size=13), dict(k=3, batch_size=9)]
        serial = [
            _rows(resolve(_store(representation, domain.task), matcher, **knob).run())
            for knob in knobs
        ]
        pools = []

        def make_thread_pool(workers):
            pools.append(ThreadWorkerPool(workers))
            return pools[-1]

        release_engine_resources()
        monkeypatch.setattr(shard_module, "make_pool", make_thread_pool)
        results = [None, None]
        gate = threading.Barrier(2, timeout=60)

        def run(slot):
            stream = resolve(
                _store(representation, domain.task), matcher, workers=2, **knobs[slot]
            ).run()
            first = next(stream)
            gate.wait()  # both runs are mid-stream at once
            results[slot] = _rows([first, *stream])

        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            for pool in pools:
                pool.shutdown()
            release_engine_resources()
        assert results == serial
        assert len(pools) == 2


class _SubmitOnlyPool(WorkerPool):
    """A pool that writes only ``submit``, counting tasks, over an executor
    its owner runs."""

    def __init__(self, executor: ThreadPoolExecutor) -> None:
        super().__init__(executor, workers=2)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


def _vaer(domain, representation):
    model = VAER()
    model.representation = representation
    model.task = domain.task
    model.matcher = _DistanceMatcher()
    return model


class TestPipelinePool:
    @pytest.fixture()
    def submit_only_pool(self, install_pool):
        with ThreadPoolExecutor(max_workers=2) as executor:
            yield install_pool(_SubmitOnlyPool(executor))

    def test_resolve_stream_on_a_submit_only_pool_matches_serial(self, pool_domain, submit_only_pool):
        domain, representation = pool_domain
        serial = _rows(_vaer(domain, representation).resolve_stream(k=4, batch_size=13))
        pooled = _rows(_vaer(domain, representation).resolve_stream(k=4, batch_size=13, workers=2))
        assert pooled == serial
        assert submit_only_pool.submitted > 0, "the score units ran on the installed pool"
        assert not submit_only_pool.broken

"""A pooled run vs. the serial stream: the byte-identity gate.

Running the score units on a pool changes where they run, not what comes
out: same candidate pairs, same order, same probability bytes as the
serial ``VAER.resolve_stream``.  Every test here installs one of three
kinds of pool as the local pool (the ``install_pool`` fixture patches
:func:`repro.engine.shard.make_pool`) and runs :func:`repro.engine.resolve`
with ``workers=`` its worker count, cold and over incremental rounds
against the captured baseline:

* ``submit-only`` — a :class:`WorkerPool` subclass that writes only
  ``submit``, over a thread executor its owner runs;
* ``thread`` — a :class:`ThreadWorkerPool`;
* ``local`` — the pool :func:`repro.engine.shard.make_pool` spawns (a
  :class:`ForkWorkerPool` where this platform can fork, threads
  elsewhere).

The codec oracle adds ``inline`` — a pool whose executor runs the task in
the caller — and runs raw, int8 and pq tables cold and over delta rounds:
score tasks carry their batch's rows, as codes under a quantized codec.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.config import MatcherConfig, VAEConfig, VAERConfig
from repro.core.pipeline import VAER
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import DOMAIN_NAMES, append_rows, delete_rows, load_domain, mutate_rows
from repro.data.schema import Record
from repro.engine import ForkWorkerPool, ThreadWorkerPool, WorkerPool, fork_pool_available, resolve
from repro.engine import shard as shard_module
from repro.eval.timing import StageTimings
from repro.serve import MutationSpec, ServeSession

POOL_KINDS = ("submit-only", "thread", "local")
CODEC_POOL_KINDS = ("inline", "thread", "local")


class DistanceMatcher:
    """Elementwise deterministic matcher (see tests/engine/test_delta.py):
    probabilities are independent of batch composition, so identity checks
    can demand exact float equality."""

    def predict_proba(self, left_irs, right_irs, rows=None):
        if rows is not None:  # whole-table IRs and each pair's row indices
            left_irs, right_irs = left_irs[rows[0]], right_irs[rows[1]]
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


class SubmitOnlyPool(WorkerPool):
    """``submit`` over an executor the caller runs, counting tasks;
    everything else inherited."""

    def __init__(self, executor: ThreadPoolExecutor, workers: int) -> None:
        super().__init__(executor, workers)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class InlineExecutor(Executor):
    """Runs each submitted task in the caller, before ``submit`` returns."""

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


@pytest.fixture()
def installed_pool(install_pool):
    """``installed_pool(kind, workers)`` builds a pool and installs it as
    the local pool; every pool built is shut down (and its executor
    stopped) at teardown."""
    built = []

    def build(kind: str, workers: int = 2) -> WorkerPool:
        if kind == "submit-only":
            executor = ThreadPoolExecutor(max_workers=workers)
            pool = SubmitOnlyPool(executor, workers)
            built.append(executor.shutdown)
        elif kind == "inline":
            pool = WorkerPool(InlineExecutor(), workers)
        elif kind == "thread":
            pool = ThreadWorkerPool(workers)
        else:
            pool = ForkWorkerPool(workers) if fork_pool_available() else ThreadWorkerPool(workers)
        built.append(pool.shutdown)
        return install_pool(pool)

    yield build
    for shutdown in built:
        shutdown()


def _fit(domain):
    return EntityRepresentationModel(
        VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=7),
        ir_method="lsa",
    ).fit(domain.task)


def _build_model(domain, representation, cache_dir=None, codec=None):
    model = VAER(cache_dir=cache_dir, codec=codec)
    model.representation = representation
    model.task = domain.task
    model.matcher = DistanceMatcher()
    return model


def _rows(batches):
    return [
        (b.batch_index, [p.key() for p in b.pairs], np.asarray(b.probabilities).tobytes())
        for b in batches
    ]


def _pooled_run(model, workers, **knobs):
    """The executor of a run with ``workers``: :func:`repro.engine.resolve`
    over the model's store and matcher with the blocking config and
    threshold ``VAER.resolve_stream`` passes."""
    return resolve(
        model.store, model.matcher, workers=workers,
        blocking=model.config.blocking, threshold=model.threshold, **knobs,
    )


@pytest.fixture(scope="module")
def beer():
    """The beer domain and a representation fitted on it; tests that mutate
    tables regenerate their own identical copy of the domain."""
    domain = load_domain("beer", scale=0.3)
    return domain, _fit(domain)


@pytest.fixture(scope="module")
def beer_matcher(beer):
    """A small fitted :class:`~repro.core.matcher.SiameseMatcher` on ``beer``:
    its row-wise encoder is what decodes a code table's rows in the task."""
    domain, representation = beer
    config = VAERConfig(matcher=MatcherConfig(epochs=3, mlp_hidden=(16, 8), seed=5))
    model = VAER(config).use_representation(representation, domain.task)
    return model.fit_matcher(domain.splits.train, domain.splits.validation).matcher


_SERIAL_BY_DOMAIN = {}


def _registry_case(name):
    """(domain, representation, serial rows) per registry domain, built once."""
    if name not in _SERIAL_BY_DOMAIN:
        domain = load_domain(name, scale=0.25)
        representation = _fit(domain)
        serial = _rows(_build_model(domain, representation).resolve_stream(k=8, batch_size=128))
        _SERIAL_BY_DOMAIN[name] = (domain, representation, serial)
    return _SERIAL_BY_DOMAIN[name]


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("kind", POOL_KINDS)
def test_installed_pool_matches_serial_stream(tmp_path, beer, installed_pool, kind, workers):
    domain, representation = beer
    serial = _rows(_build_model(domain, representation).resolve_stream(k=5, batch_size=64))
    pool = installed_pool(kind, workers)
    stage = StageTimings()
    model = _build_model(domain, representation, cache_dir=str(tmp_path / "cache"))
    pooled = _rows(_pooled_run(model, workers, k=5, batch_size=64, stage_timings=stage).run())
    assert pooled == serial
    assert not pool.broken
    # One submitted score task per batch; nothing else reaches the pool.
    assert stage.units("dispatch") == stage.units("score")


@pytest.mark.parametrize("codec", ["raw", "int8", "pq"])
@pytest.mark.parametrize("kind", CODEC_POOL_KINDS)
def test_pooled_stream_equals_serial_on_every_codec(beer, beer_matcher, installed_pool, kind, codec):
    """Cold and over two delta rounds (right-side edits, appends on both
    sides, left-side deletes), a fitted matcher scoring tasks that carry raw
    rows or int8/pq codes, which decode in the task, yields the serial
    stream's bytes."""
    _, representation = beer
    domains = {mode: load_domain("beer", scale=0.3) for mode in ("serial", "pooled")}
    models = {mode: _build_model(domains[mode], representation, codec=codec) for mode in domains}
    for model in models.values():
        model.matcher = beer_matcher
    pool = installed_pool(kind)
    baseline = None
    for round_index in range(3):
        if round_index:
            for domain in domains.values():
                mutate_rows(domain, side="right", rows=3)
                append_rows(domain, side="right", rows=5)
                append_rows(domain, side="left", rows=4)
                delete_rows(domain, side="left", rows=2)
        serial = _rows(models["serial"].resolve_stream(k=5, batch_size=64, incremental=True))
        executor = _pooled_run(models["pooled"], 2, baseline=baseline, capture=True, k=5, batch_size=64)
        pooled = _rows(executor.run())
        baseline = executor.baseline_out
        assert pooled == serial, f"round {round_index}"
        assert not pool.broken
    assert shard_module._CACHED_POOL is pool, "the pooled rounds borrowed the installed pool"


@pytest.mark.parametrize("name", DOMAIN_NAMES)
@pytest.mark.parametrize("kind", POOL_KINDS)
def test_installed_pool_matches_serial_on_every_registry_domain(installed_pool, kind, name):
    domain, representation, serial = _registry_case(name)
    pool = installed_pool(kind)
    pooled = _rows(_pooled_run(_build_model(domain, representation), 2, k=8, batch_size=128).run())
    assert not pool.broken and shard_module._CACHED_POOL is pool
    assert pooled == serial


def _scored_run(model, workers=1):
    """Drain a resolve; return the records it scored and the distinct rows per batch."""
    counters = model.store.counters
    before = counters.records_scored
    batches = list(_pooled_run(model, workers, k=5, batch_size=64).run())
    distinct = sum(
        len({p.left_id for p in b.pairs}) + len({p.right_id for p in b.pairs}) for b in batches
    )
    return counters.records_scored - before, distinct, sum(len(b.pairs) for b in batches)


@pytest.mark.parametrize("kind", POOL_KINDS)
def test_records_scored_is_distinct_rows_per_batch_serial_and_pooled(beer, installed_pool, kind):
    """``records_scored`` counts each batch's distinct left plus distinct
    right rows — in the parent, so a pooled run reports the serial count."""
    domain, representation = beer
    serial, distinct, pairs = _scored_run(_build_model(domain, representation))
    assert serial == distinct
    assert serial < 2 * pairs, "rows recur across a batch's pairs, so the dedupe saves encodes"
    pool = installed_pool(kind)
    pooled, _, _ = _scored_run(_build_model(domain, representation), workers=2)
    assert pooled == serial
    assert shard_module._CACHED_POOL is pool


def _failing_initializer():
    raise RuntimeError("worker could not start")


@pytest.mark.parametrize("death", ["initializer", "submit"])
def test_dead_pool_hands_the_run_to_the_serial_schedule(beer, install_pool, death):
    """A pool that is dead before the run (its workers cannot start, or
    ``submit`` itself refuses work) is marked broken and the serial
    schedule still produces the exact stream."""
    domain, representation = beer
    serial = _rows(_build_model(domain, representation).resolve_stream(k=5, batch_size=64))
    executor = ThreadPoolExecutor(max_workers=2, initializer=_failing_initializer)
    if death == "submit":
        executor.submit(int).exception(timeout=10)  # the failed start breaks the executor
    try:
        pool = install_pool(SubmitOnlyPool(executor, workers=2))
        pooled = _rows(_pooled_run(_build_model(domain, representation), 2, k=5, batch_size=64).run())
    finally:
        executor.shutdown()
    assert pool.broken and pool.submitted >= 1
    assert pooled == serial


@pytest.mark.parametrize("kind", POOL_KINDS)
def test_one_worker_never_borrows_the_pool(beer, installed_pool, kind):
    """With ``workers=1`` the plan is serial: the installed pool receives
    nothing and is never borrowed."""
    domain, representation = beer
    serial = _rows(_build_model(domain, representation).resolve_stream(k=5, batch_size=64))
    pool = installed_pool(kind)
    stage = StageTimings()
    pooled = _rows(_pooled_run(
        _build_model(domain, representation), 1, k=5, batch_size=64, stage_timings=stage,
    ).run())
    assert pooled == serial
    assert "dispatch" not in stage.stages()
    assert getattr(pool, "submitted", 0) == 0
    assert shard_module._CACHED_POOL is None


@pytest.mark.parametrize("kind", POOL_KINDS)
def test_reused_pool_across_incremental_rounds(tmp_path, beer, installed_pool, kind):
    """Two incremental rounds on one pool equal a pool-less oracle's and
    the pool stays healthy."""
    _, representation = beer
    domain = load_domain("beer", scale=0.3)  # private copies to mutate
    oracle_domain = load_domain("beer", scale=0.3)
    model = _build_model(domain, representation, cache_dir=str(tmp_path / "cache"))
    oracle = _build_model(oracle_domain, representation)
    pool = installed_pool(kind)
    baseline = None
    for round_index in range(2):
        if round_index:
            for mutated in (domain, oracle_domain):
                mutate_rows(mutated, side="right", rows=3)
                append_rows(mutated, side="right", rows=5)
        executor = _pooled_run(model, 2, baseline=baseline, capture=True, k=5, batch_size=64)
        pooled = _rows(executor.run())
        baseline = executor.baseline_out
        assert pooled == _rows(oracle.resolve_stream(k=5, batch_size=64, incremental=True))
        assert not pool.broken and shard_module._CACHED_POOL is pool


@pytest.mark.parametrize("kind", POOL_KINDS)
def test_pooled_rounds_equal_the_serial_daemon(tmp_path, beer, installed_pool, kind):
    """The daemon refreshes serially; an engine resolve on the installed
    pool over the same cold and edited tables yields its snapshot exactly,
    and closing the session leaves the pool cached, healthy and still
    taking work."""
    _, representation = beer
    served = load_domain("beer", scale=0.3)  # private copies to mutate
    pooled_domain = load_domain("beer", scale=0.3)
    session_model = _build_model(served, representation, cache_dir=str(tmp_path / "cache"))
    model = _build_model(pooled_domain, representation)
    pool = installed_pool(kind)
    session = ServeSession(session_model, k=4, batch_size=32).start()
    try:
        baseline = None
        for round_index in range(2):
            if round_index:
                target = served.task.right.records()[2]
                edited = Record(target.record_id, tuple(f"EDIT-{value}" for value in target.values))
                session.mutate(MutationSpec(side="right", edit=(edited,)))
                pooled_domain.task.right.replace(edited)
            executor = _pooled_run(model, 2, baseline=baseline, capture=True, k=4, batch_size=32)
            expected = [
                (pair.left_id, pair.right_id, float(p))
                for batch in executor.run()
                for pair, p in zip(batch.pairs, batch.probabilities)
            ]
            baseline = executor.baseline_out
            assert list(session.snapshot.pairs) == expected, f"round {round_index}"
            assert not pool.broken
    finally:
        session.close()
    assert not pool.broken
    assert shard_module._CACHED_POOL is pool
    assert pool.submit(sum, (1, 2)).result(timeout=10) == 3

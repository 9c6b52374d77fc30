"""Persistent worker pool: spawn accounting, transport fallbacks, shared memory.

Three regressions pinned here:

* **Pool reuse** — a full pooled resolve spawns exactly one pool
  (:data:`repro.engine.shard.POOL_SPAWNS`), and delta rounds after it spawn
  none: the single-slot cache hands the same executor back across the
  encode → block → score stages and across resolves;
* **Transport equivalence** — forcing the threaded fallback
  (``REPRO_ENGINE_POOL=thread``) or the serial schedule
  (``REPRO_ENGINE_POOL=serial``) produces a byte-identical candidate stream
  and match set to the fork path on a registry domain;
* **Shared-memory lifecycle** — publish/attach round-trips hoisted arrays
  losslessly, attachments memoize, and publication close is idempotent.
"""

import sys

import numpy as np
import pytest

from repro.config import BlockingConfig, VAEConfig
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import append_rows, load_domain
from repro.engine import (
    ShardedEncodingStore,
    merge_scored_batches,
    resolve_delta,
    resolve_stream,
)
from repro.engine import shard as shard_module
from repro.engine import sharedmem
from repro.engine.shard import acquire_pool, pool_kind_default, release_pool, shutdown_pools
from repro.eval.timing import EngineCounters


class _DistanceMatcher:
    """Deterministic, picklable matcher stand-in (see tests/engine/test_delta.py).

    Purely elementwise per pair, so probabilities are byte-identical
    regardless of batch composition or which transport scored them.
    """

    def predict_proba(self, left_irs: np.ndarray, right_irs: np.ndarray) -> np.ndarray:
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
    return ShardedEncodingStore(
        representation, task, counters=EngineCounters(), shard_rows=16
    )


def _needs_pool():
    if pool_kind_default() == "serial":
        pytest.skip("pool transport forced to serial in this environment")


class TestPoolReuse:
    def test_full_resolve_spawns_exactly_one_pool(self, pool_domain):
        _needs_pool()
        domain, representation = pool_domain
        store = _store(representation, domain.task)
        shutdown_pools()
        before = shard_module.POOL_SPAWNS
        merge_scored_batches(
            resolve_stream(store, _DistanceMatcher(), k=4, batch_size=13, workers=2)
        )
        assert shard_module.POOL_SPAWNS == before + 1

    def test_delta_rounds_reuse_the_cached_pool(self, pool_domain):
        _needs_pool()
        _, representation = pool_domain
        domain = load_domain("restaurants", scale=0.2)  # private copy to mutate
        matcher = _DistanceMatcher()
        blocking = BlockingConfig(seed=19)
        store = _store(representation, domain.task)
        shutdown_pools()
        before = shard_module.POOL_SPAWNS
        executor = resolve_delta(
            store, matcher, baseline=None, blocking=blocking, k=4, batch_size=13, workers=2
        )
        merge_scored_batches(executor.run())
        assert shard_module.POOL_SPAWNS == before + 1, "cold resolve must spawn one pool"
        append_rows(domain, side="right", rows=7)
        warm = resolve_delta(
            store, matcher, baseline=executor.baseline_out, blocking=blocking,
            k=4, batch_size=13, workers=2,
        )
        merge_scored_batches(warm.run())
        assert shard_module.POOL_SPAWNS == before + 1, "delta round must reuse the cached pool"

    def test_broken_pool_is_not_recycled(self):
        _needs_pool()
        shutdown_pools()
        before = shard_module.POOL_SPAWNS
        pool = acquire_pool(2)
        assert shard_module.POOL_SPAWNS == before + 1
        pool.broken = True
        release_pool(pool)
        fresh = acquire_pool(2)
        assert shard_module.POOL_SPAWNS == before + 2, "broken pools must never be handed back"
        assert not fresh.broken
        release_pool(fresh)
        shutdown_pools()

    def test_shape_change_replaces_cached_pool(self):
        _needs_pool()
        shutdown_pools()
        before = shard_module.POOL_SPAWNS
        release_pool(acquire_pool(2))
        assert shard_module.POOL_SPAWNS == before + 1
        release_pool(acquire_pool(2))  # same shape: cached
        assert shard_module.POOL_SPAWNS == before + 1
        release_pool(acquire_pool(3))  # different shape: fresh spawn
        assert shard_module.POOL_SPAWNS == before + 2
        shutdown_pools()


class TestTransportEquivalence:
    def test_thread_fallback_matches_fork_path(self, pool_domain, monkeypatch):
        if pool_kind_default() != "fork":
            pytest.skip("fork transport unavailable here; nothing to compare against")
        domain, representation = pool_domain
        matcher = _DistanceMatcher()

        def run():
            store = _store(representation, domain.task)
            return merge_scored_batches(
                resolve_stream(store, matcher, k=4, batch_size=13, workers=2)
            )

        forked = run()
        shutdown_pools()
        monkeypatch.setenv("REPRO_ENGINE_POOL", "thread")
        threaded = run()
        shutdown_pools()
        assert [p.key() for p in threaded.pairs] == [p.key() for p in forked.pairs]
        np.testing.assert_array_equal(threaded.probabilities, forked.probabilities)
        assert [p.key() for p in threaded.matches()] == [p.key() for p in forked.matches()]

    def test_serial_override_spawns_nothing_and_matches_stream(self, pool_domain, monkeypatch):
        domain, representation = pool_domain
        matcher = _DistanceMatcher()
        store = _store(representation, domain.task)
        streamed = merge_scored_batches(resolve_stream(store, matcher, k=4, batch_size=13))
        monkeypatch.setenv("REPRO_ENGINE_POOL", "serial")
        shutdown_pools()
        before = shard_module.POOL_SPAWNS
        pooled = merge_scored_batches(
            resolve_stream(store, matcher, k=4, batch_size=13, workers=4)
        )
        assert shard_module.POOL_SPAWNS == before, "serial override must not spawn pools"
        assert [p.key() for p in pooled.pairs] == [p.key() for p in streamed.pairs]
        np.testing.assert_array_equal(pooled.probabilities, streamed.probabilities)

    def test_shm_kill_switch_forces_thread_transport(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_SHM", "0")
        monkeypatch.delenv("REPRO_ENGINE_POOL", raising=False)
        monkeypatch.setattr(sharedmem, "_available", None)  # drop the memoized probe
        assert not sharedmem.shared_memory_available()
        if sys.platform.startswith("linux"):
            assert pool_kind_default() == "thread"


class TestSharedMemoryStates:
    def test_publish_attach_roundtrip(self):
        if not sharedmem.shared_memory_available():
            pytest.skip("shared memory unavailable in this environment")
        big = np.arange(32768, dtype=np.float64).reshape(64, 512)  # >= hoist threshold
        state = {
            "big": big,
            "small": np.arange(4, dtype=np.int64),
            "label": "x",
            "nested": {"k": 3},
        }
        publication = sharedmem.publish_state("test-pool-roundtrip", state)
        try:
            assert publication.spec.arrays, "the large array must be hoisted to a segment"
            attached = sharedmem.attach_state(publication.spec)
            np.testing.assert_array_equal(attached["big"], big)
            np.testing.assert_array_equal(attached["small"], state["small"])
            assert attached["label"] == "x"
            assert attached["nested"] == {"k": 3}
            # Re-attaching the same spec is memoized, not re-unpickled.
            assert sharedmem.attach_state(publication.spec) is attached
        finally:
            sharedmem.detach_all()
            publication.close()
            publication.close()  # idempotent

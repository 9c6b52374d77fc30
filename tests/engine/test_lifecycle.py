"""Long-lived-process hygiene: the explicit idle-release path for engine
resources, and eager chunk-handle invalidation across patch generations.

Both were latent bugs while every process was one batch run: the pool and
its shared-memory segments were only torn down ``atexit``, and a ``patch()``
superseding a chunk left the old generation's open handle cached until LRU
eviction.  A daemon that serves for hours needs both released eagerly."""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.data.schema import Record, Table
from repro.engine import (
    PersistentEncodingCache,
    TableEncodings,
    release_engine_resources,
    row_range_crc,
)
from repro.engine import shard as shard_module
from repro.engine import persist as persist_module
from repro.engine.persist import _chunk_handle, invalidate_chunk_handles
from repro.engine.shard import acquire_pool, release_pool, worker_state


N = 20
CHUNK = 8


def _table(n=N, edited=()):
    records = []
    for i in range(n):
        suffix = "-EDITED" if i in edited else ""
        records.append(Record(f"r{i}", (f"alpha-{i}{suffix}", f"beta-{i}")))
    return Table("lifecycle", ("a", "b"), records)


def _encodings(n=N, seed=0):
    rng = np.random.default_rng(seed)
    keys = tuple(f"r{i}" for i in range(n))
    return TableEncodings(
        keys=keys,
        irs=rng.normal(size=(n, 2, 3)),
        mu=rng.normal(size=(n, 2, 3)),
        sigma=rng.normal(size=(n, 2, 3)),
        row_index={key: row for row, key in enumerate(keys)},
    )


def _fingerprint(table):
    return {
        "model": {
            "ir_method": "lsa", "ir_dim": 3, "hidden_dim": 4, "latent_dim": 3,
            "seed": 1, "weights_crc": 1234,
        },
        "n_records": len(table),
        "content_crc": row_range_crc(table, 0, len(table)),
    }


@pytest.fixture()
def patched_entry(tmp_path):
    """A saved entry whose middle chunk has been superseded by a patch.

    Returns ``(cache, fingerprint_after, merged_encodings, old_path,
    new_path)`` where ``old_path`` is the superseded generation-0 archive
    (still on disk) and ``new_path`` its generation-1 replacement.
    """
    cache = PersistentEncodingCache(tmp_path / "cache", chunk_rows=CHUNK)
    table = _table()
    encodings = _encodings()
    cache.save("lifecycle", "right", 1, _fingerprint(table), encodings, table=table)
    # Populate the handle cache for every chunk.
    assert cache.load("lifecycle", "right", 1, _fingerprint(table)) is not None

    edited = _table(edited=(10,))
    fingerprint = _fingerprint(edited)
    delta = cache.delta("lifecycle", "right", 1, fingerprint, edited)
    assert delta is not None and delta.dirty_positions() == (10,)
    merged = TableEncodings(
        keys=tuple(edited.record_ids()),
        irs=np.asarray(encodings.irs).copy(),
        mu=np.asarray(encodings.mu).copy(),
        sigma=np.asarray(encodings.sigma).copy(),
        row_index=dict(encodings.row_index),
    )
    merged.mu[10] += 1.0
    merged.irs[10] += 1.0

    old_path = cache.chunk_path("lifecycle", "right", 1, 8, 16, 0)
    assert str(old_path) in persist_module._handles  # cached by the load above
    cache.patch("lifecycle", "right", 1, fingerprint, edited, delta, merged)
    new_path = cache.chunk_path("lifecycle", "right", 1, 8, 16, 1)
    return cache, fingerprint, merged, old_path, new_path


class TestHandleInvalidation:
    def test_patch_eagerly_drops_superseded_handles(self, patched_entry):
        _, _, _, old_path, new_path = patched_entry
        # The superseded generation's handle left the cache the moment the
        # new manifest landed — not at some later LRU eviction.
        assert str(old_path) not in persist_module._handles
        assert old_path.exists()  # file stays on disk until prune
        assert new_path.exists()

    def test_prune_closes_cached_handle_before_unlink(self, patched_entry):
        cache, fingerprint, merged, old_path, _ = patched_entry
        # Simulate a long-lived process that still holds the dead archive in
        # its LRU (e.g. a reader opened it just before the patch landed).
        stale = _chunk_handle(old_path)
        assert stale is not None and str(old_path) in persist_module._handles
        removed = cache.prune()
        assert removed["files"] >= 1
        assert not old_path.exists()
        assert str(old_path) not in persist_module._handles
        assert stale._file.closed
        # The surviving entry still serves the patched state.
        loaded = cache.load("lifecycle", "right", 1, fingerprint)
        assert loaded is not None
        np.testing.assert_array_equal(np.asarray(loaded.mu), np.asarray(merged.mu))

    def test_invalidate_is_a_noop_for_uncached_paths(self, tmp_path):
        assert invalidate_chunk_handles([tmp_path / "never-opened.npz"]) == 0

    def test_clear_still_closes_everything(self, patched_entry):
        cache, fingerprint, _, _, new_path = patched_entry
        assert cache.load("lifecycle", "right", 1, fingerprint) is not None
        assert persist_module._handles
        cache.clear()
        assert not persist_module._handles
        assert not new_path.exists()


class TestReleaseEngineResources:
    def test_releases_pool_states_and_handles(self, tmp_path):
        pool = acquire_pool(2)
        # A state published and never released — what an abandoned run that
        # errored between publish and release leaves behind.
        state = {"stage": "probe", "big": np.zeros(1 << 14)}
        handle = pool.publish(state)
        assert worker_state(handle)["stage"] == "probe"
        segments = []
        if handle.spec is not None:  # fork pool: the state lives in segments
            segments = [handle.spec.payload_segment, *handle.spec.arrays]
            assert len(segments) == 2
        release_pool(pool)
        assert shard_module._CACHED_POOL is pool

        cache = PersistentEncodingCache(tmp_path / "cache", chunk_rows=CHUNK)
        table = _table()
        cache.save("lifecycle", "right", 1, _fingerprint(table), _encodings(), table=table)
        assert cache.load("lifecycle", "right", 1, _fingerprint(table)) is not None
        assert persist_module._handles

        release_engine_resources()
        assert shard_module._CACHED_POOL is None
        assert not getattr(pool, "_publications", None), "no published state outlives the release"
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert not persist_module._handles
        release_engine_resources()  # idempotent

    def test_next_acquire_spawns_fresh_pool(self):
        release_pool(acquire_pool(2))
        spawns = shard_module.POOL_SPAWNS
        # A compatible cached pool is reused, no new spawn ...
        release_pool(acquire_pool(2))
        assert shard_module.POOL_SPAWNS == spawns
        # ... but after an idle release the next acquire starts fresh.
        release_engine_resources()
        pool = acquire_pool(2)
        try:
            assert shard_module.POOL_SPAWNS == spawns + 1
        finally:
            release_pool(pool)
            release_engine_resources()

"""Long-lived-process hygiene: the explicit idle-release path for engine
resources.

A latent bug while every process was one batch run: the pool and its
shared-memory segments were only torn down ``atexit``.  A daemon that serves
for hours needs them released eagerly.  (The persistent cache holds nothing
between reads, so it has nothing to release.)"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.engine import release_engine_resources
from repro.engine import shard as shard_module
from repro.engine.shard import acquire_pool, release_pool, worker_state


class TestReleaseEngineResources:
    def test_releases_pool_states_and_handles(self):
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

        release_engine_resources()
        assert shard_module._CACHED_POOL is None
        assert not getattr(pool, "_publications", None), "no published state outlives the release"
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
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

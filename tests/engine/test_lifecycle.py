"""Long-lived-process hygiene: the explicit idle-release path for engine
resources.

A latent bug while every process was one batch run: the cached pool was
only torn down ``atexit``.  A long-lived process that ran a pooled resolve
and then idles for hours needs it released eagerly.  (The persistent cache
holds nothing between reads, so it has nothing to release.)"""

from repro.engine import release_engine_resources
from repro.engine import shard as shard_module
from repro.engine.shard import acquire_pool, release_pool


class TestReleaseEngineResources:
    def test_next_acquire_spawns_fresh_pool(self):
        release_pool(acquire_pool(2))
        spawns = shard_module.POOL_SPAWNS
        # A compatible cached pool is reused, no new spawn ...
        release_pool(acquire_pool(2))
        assert shard_module.POOL_SPAWNS == spawns
        # ... but after an idle release the next acquire starts fresh.
        release_engine_resources()
        assert shard_module._CACHED_POOL is None
        release_engine_resources()  # idempotent
        pool = acquire_pool(2)
        try:
            assert shard_module.POOL_SPAWNS == spawns + 1
        finally:
            release_pool(pool)
            release_engine_resources()

"""The batched encoding engine: caching, invalidation and score equality."""

import numpy as np
import pytest

from repro.core.active.sampler import pair_latent_distances
from repro.core.distances import tuple_wasserstein
from repro.core.matcher import pair_ir_arrays
from repro.core.transfer import transfer_representation
from repro.data.pairs import LabeledPair, RecordPair
from repro.engine import EncodingStore
from repro.eval.timing import EngineCounters


class _ZeroMatcher:
    """Scores every pair 0; the counters do not depend on the scores."""

    def predict_proba(self, left_irs, right_irs, rows=None):
        return np.zeros(len(rows[0]) if rows is not None else len(left_irs))


@pytest.fixture()
def store(tiny_domain, tiny_representation):
    return EncodingStore(tiny_representation, tiny_domain.task, counters=EngineCounters())


@pytest.fixture(scope="module")
def some_pairs(tiny_domain):
    """A pair pool referencing many records more than once."""
    left_ids = tiny_domain.task.left.record_ids()
    right_ids = tiny_domain.task.right.record_ids()
    return [
        RecordPair(left_ids[i % len(left_ids)], right_ids[(i * 7 + j) % len(right_ids)])
        for i in range(12)
        for j in range(4)
    ]


def test_engine_importable_before_core():
    """Importing repro.engine first must not trip the engine<->core cycle."""
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-c", "import repro.engine, repro.core"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


class TestCaching:
    def test_first_access_is_a_miss(self, store):
        store.table_encodings("left")
        assert store.counters.cache_misses == 1
        assert store.counters.cache_hits == 0

    def test_repeated_access_hits_and_returns_same_object(self, store):
        first = store.table_encodings("left")
        second = store.table_encodings("left")
        assert first is second
        assert store.counters.cache_hits == 1
        assert store.counters.encodes_avoided == len(first)

    def test_sides_cached_independently(self, store, tiny_domain):
        assert len(store.table_encodings("left")) == len(tiny_domain.task.left)
        assert len(store.table_encodings("right")) == len(tiny_domain.task.right)
        assert store.counters.cache_misses == 2

    def test_unknown_side_rejected(self, store):
        with pytest.raises(ValueError):
            store.table_encodings("middle")

    def test_unknown_record_rejected(self, store):
        with pytest.raises(KeyError):
            store.table_encodings("left").rows(["no-such-record"])

    def test_invalidate_forces_recompute(self, store):
        first = store.table_encodings("left")
        store.invalidate()
        second = store.table_encodings("left")
        assert first is not second
        np.testing.assert_allclose(first.mu, second.mu)


class TestInvalidation:
    def test_refit_ir_invalidates(self, tiny_domain, small_vae_config):
        from repro.core.representation import EntityRepresentationModel

        model = EntityRepresentationModel(small_vae_config, ir_method="w2v").fit(tiny_domain.task)
        store = EncodingStore(model, tiny_domain.task, counters=EngineCounters())
        before = store.table_encodings("left")
        model.refit_ir_only(tiny_domain.task)
        after = store.table_encodings("left")
        assert before is not after
        assert store.counters.cache_misses == 2

    def test_refit_vae_invalidates(self, tiny_domain, tiny_representation, small_vae_config, store):
        store.table_encodings("left")
        version = tiny_representation.encoding_version
        # Refitting bumps the version token, so the next access recomputes.
        # (Use a throwaway model to avoid perturbing the session fixture.)
        from repro.core.representation import EntityRepresentationModel

        model = EntityRepresentationModel(small_vae_config, ir_method="lsa").fit(tiny_domain.task)
        own_store = EncodingStore(model, tiny_domain.task, counters=EngineCounters())
        stale = own_store.table_encodings("left")
        model.fit(tiny_domain.task, epochs=1)
        fresh = own_store.table_encodings("left")
        assert stale is not fresh
        assert tiny_representation.encoding_version == version  # fixture untouched

    def test_transfer_yields_fresh_store_state(self, tiny_domain, tiny_representation):
        transferred = transfer_representation(tiny_representation, tiny_domain.task)
        store = EncodingStore(transferred, tiny_domain.task, counters=EngineCounters())
        encodings = store.table_encodings("left")
        assert encodings.mu.shape[0] == len(tiny_domain.task.left)
        # The transferred model carries its own version counter; mutating it
        # later invalidates this store, not stores of the source model.
        transferred.refit_ir_only(tiny_domain.task)
        assert store.table_encodings("left") is not encodings


class TestBatchedEqualsLegacy:
    def test_encodings_match_encode_table(self, store, tiny_domain, tiny_representation):
        legacy = tiny_representation.encode_table(tiny_domain.task.left)
        cached = store.table_encodings("left")
        assert cached.keys == legacy.keys
        np.testing.assert_allclose(cached.mu, legacy.mu, atol=1e-8)
        np.testing.assert_allclose(cached.sigma, legacy.sigma, atol=1e-8)

    def test_pair_ir_arrays_match_legacy(self, store, tiny_domain, tiny_representation, some_pairs):
        labeled = [LabeledPair(p.left_id, p.right_id, i % 2) for i, p in enumerate(some_pairs)]
        legacy = pair_ir_arrays(tiny_representation, tiny_domain.task, labeled)
        batched = pair_ir_arrays(tiny_representation, tiny_domain.task, labeled, store=store)
        for l_arr, b_arr in zip(legacy, batched):
            np.testing.assert_allclose(b_arr, l_arr, atol=1e-8)

    def test_pair_latent_distances_match_loop(
        self, store, tiny_domain, tiny_representation, some_pairs, pair_distance_loop
    ):
        vectorized = pair_latent_distances(tiny_domain.task, tiny_representation, some_pairs, store=store)
        loop = pair_distance_loop(tiny_domain.task, tiny_representation, some_pairs)
        np.testing.assert_allclose(vectorized, loop, atol=1e-8)

    def test_pair_latent_distances_builds_own_store(
        self, tiny_domain, tiny_representation, some_pairs, pair_distance_loop
    ):
        vectorized = pair_latent_distances(tiny_domain.task, tiny_representation, some_pairs)
        loop = pair_distance_loop(tiny_domain.task, tiny_representation, some_pairs)
        np.testing.assert_allclose(vectorized, loop, atol=1e-8)

    def test_tuple_wasserstein_matches_loop(self, store, tiny_domain, tiny_representation, some_pairs):
        vectorized = store.pair_tuple_wasserstein(some_pairs)
        left = tiny_representation.encode_table(tiny_domain.task.left)
        right = tiny_representation.encode_table(tiny_domain.task.right)
        for pair, got in zip(some_pairs, vectorized):
            mu_s, sigma_s = left.of(pair.left_id)
            mu_t, sigma_t = right.of(pair.right_id)
            assert got == pytest.approx(tuple_wasserstein(mu_s, sigma_s, mu_t, sigma_t), abs=1e-8)


class TestEmptyAndCounters:
    def test_empty_pairs_have_empty_shapes(self, store, tiny_domain, tiny_representation):
        left, right, labels = store.pair_ir_arrays([])
        arity, dim = tiny_domain.task.arity, tiny_representation.config.ir_dim
        assert left.shape == (0, arity, dim) and right.shape == (0, arity, dim)
        assert labels.shape == (0,)
        assert store.pair_latent_distances([]).shape == (0,)
        assert store.pair_tuple_wasserstein([]).shape == (0,)

    def test_pairs_scored_counted(self, store, some_pairs):
        store.pair_latent_distances(some_pairs)
        assert store.counters.pairs_scored == len(some_pairs)

    def test_gather_counts_saved_work_not_raw_lookups(self, store, some_pairs):
        store.gather_pair_irs(some_pairs)  # cold: both sides computed
        assert store.counters.cache_hits == 0
        assert store.counters.cache_misses == 2
        assert store.counters.encodes_avoided == 0
        store.gather_pair_irs(some_pairs)  # warm: one logical hit per side
        assert store.counters.cache_hits == 2
        # The legacy path would have re-encoded each pair's two records.
        assert store.counters.encodes_avoided == 2 * len(some_pairs)

    def test_external_gather_books_what_score_pairs_books(
        self, store, tiny_domain, tiny_representation, some_pairs
    ):
        """A batch scored outside the store, booked with its pair count and
        distinct left-plus-right row count, moves the counters exactly as
        :meth:`score_pairs` does on the same pairs."""
        external = EncodingStore(tiny_representation, tiny_domain.task, counters=EngineCounters())
        for warmed in (store, external):
            warmed.table_encodings("left")
            warmed.table_encodings("right")
        store.score_pairs(_ZeroMatcher(), some_pairs)
        distinct = len({p.left_id for p in some_pairs}) + len({p.right_id for p in some_pairs})
        external.record_external_gather(len(some_pairs), distinct)
        external.record_external_gather(0, 0)  # a batch with nothing to score books nothing
        assert external.stats() == store.stats()
        assert store.counters.records_scored == distinct

    def test_stats_snapshot(self, store):
        store.table_encodings("left")
        stats = store.stats()
        assert set(stats) == {
            "cache_hits", "cache_misses", "encodes_avoided", "pairs_scored",
            "tables_encoded", "disk_hits", "disk_misses", "chunk_loads",
            "rows_reencoded", "rows_tombstoned", "chunks_patched",
            "pairs_rescored", "fingerprints_computed",
            "bytes_stored", "bytes_decoded",
            "blocking_queries", "blocking_fallback_queries", "blocking_candidates_ranked",
            "blocking_candidates_rescored", "records_scored",
        }
        assert stats["cache_misses"] == 1
        assert stats["tables_encoded"] == 1
        assert stats["disk_hits"] == 0 and stats["disk_misses"] == 0  # no cache attached

    def test_stats_is_defensive_copy(self, store):
        """Mutating a snapshot must not perturb the live counters."""
        store.table_encodings("left")
        snapshot = store.stats()
        snapshot["cache_misses"] = 999
        snapshot["tables_encoded"] = 999
        assert store.counters.cache_misses == 1
        assert store.counters.tables_encoded == 1
        assert store.stats()["cache_misses"] == 1
        # Snapshots taken at different times are independent objects.
        assert store.stats() is not store.stats()

    def test_counter_reset(self):
        counters = EngineCounters(
            cache_hits=3, cache_misses=1, encodes_avoided=40, pairs_scored=7,
            tables_encoded=2, disk_hits=1, disk_misses=1,
        )
        assert counters.hit_rate() == pytest.approx(0.75)
        counters.reset()
        assert counters.as_dict() == {
            "cache_hits": 0, "cache_misses": 0, "encodes_avoided": 0, "pairs_scored": 0,
            "tables_encoded": 0, "disk_hits": 0, "disk_misses": 0, "chunk_loads": 0,
            "rows_reencoded": 0, "rows_tombstoned": 0, "chunks_patched": 0,
            "pairs_rescored": 0, "fingerprints_computed": 0,
            "bytes_stored": 0, "bytes_decoded": 0,
            "blocking_queries": 0, "blocking_fallback_queries": 0,
            "blocking_candidates_ranked": 0, "blocking_candidates_rescored": 0,
            "records_scored": 0,
        }
        assert counters.hit_rate() == 0.0

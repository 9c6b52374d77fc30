"""Incremental (delta) resolution: equivalence, chunk reuse, baselines.

Three invariants pin the delta engine:

* **Equivalence** — for every registry domain, resolving base + appended
  rows through an incremental run yields the identical candidate stream and
  match set as a cold full resolve of the grown tables;
* **Chunk-fingerprint reuse** — appending ``k`` rows re-encodes only the
  tail (``rows_reencoded <= chunk-aligned k``; here exactly ``k``) and never
  the whole table (``tables_encoded`` stays 0, untouched sides included);
* **Baseline hygiene** — refitting the representation or swapping the
  matcher invalidates exactly the affected reuse (index, scores) while the
  output stays equivalent to a cold run.
"""

import time
from concurrent.futures import BrokenExecutor, Executor, Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BlockingConfig, VAEConfig
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import (
    DOMAIN_NAMES,
    append_rows,
    delete_rows,
    load_domain,
    mutate_rows,
)
from repro.data.generators.base import DomainSpec, SyntheticDomainGenerator, compose, pick
from repro.engine import (
    CodecArray,
    EncodingStore,
    PersistentEncodingCache,
    ResolutionPlanner,
    merge_scored_batches,
    resolve,
)
from repro.engine.shard import ThreadWorkerPool, WorkerPool, acquire_pool, release_pool
from repro.eval.timing import EngineCounters, StageTimings, engine_counters


class _DistanceMatcher:
    """Deterministic matcher stand-in: probability decays with IR distance.

    Purely elementwise per pair (no matmul), so its output is byte-identical
    regardless of batch composition — which lets the equivalence tests
    compare probabilities exactly instead of to a tolerance.
    """

    def predict_proba(self, left_irs: np.ndarray, right_irs: np.ndarray, rows=None) -> np.ndarray:
        if rows is not None:  # whole-table IRs and each pair's row indices
            left_irs, right_irs = left_irs[rows[0]], right_irs[rows[1]]
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


def _tiny_entity(rng):
    pool_a = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
              "iota", "kappa", "lambda", "sigma", "omega", "nu", "xi", "pi"]
    pool_b = ["london", "paris", "berlin", "madrid", "rome", "vienna", "oslo", "dublin"]
    return (compose(rng, pool_a, 2, 3), pick(rng, pool_b), f"{rng.uniform(5, 200):.2f}")


def _fresh_tiny_domain():
    """A private small domain (regenerated per call, safe to mutate)."""
    spec = DomainSpec(
        name="deltatest",
        attributes=("name", "city", "price"),
        entity_factory=_tiny_entity,
        clean=True,
        numeric_attributes=(False, False, True),
        left_size=40,
        right_size=36,
        overlap_fraction=0.6,
        train_size=60,
        valid_size=12,
        test_size=24,
        positive_fraction=0.3,
    )
    return SyntheticDomainGenerator(spec, seed=77).generate()


@pytest.fixture(scope="module")
def delta_representation():
    """One representation fitted on the (deterministic) delta-test domain.

    Every test regenerates its own identical domain to mutate, so one
    module-scoped fit serves them all.
    """
    domain = _fresh_tiny_domain()
    config = VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=3, seed=5)
    return EntityRepresentationModel(config, ir_method="lsa").fit(domain.task)


class TestRegistryEquivalence:
    @pytest.mark.parametrize("name", DOMAIN_NAMES)
    def test_delta_resolve_equals_cold_full_resolve(self, name):
        """The acceptance contract, on every registry domain: base + append
        through an incremental run == cold full resolve of the grown tables."""
        domain = load_domain(name, scale=0.2)
        representation = EntityRepresentationModel(
            VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=7), ir_method="lsa"
        ).fit(domain.task)
        matcher = _DistanceMatcher()
        blocking = BlockingConfig(seed=19)

        store = EncodingStore(representation, domain.task, counters=EngineCounters())
        executor = resolve(store, matcher, baseline=None, capture=True, blocking=blocking, k=4, batch_size=13)
        base = merge_scored_batches(executor.run())
        baseline = executor.baseline_out
        assert baseline is not None and len(baseline.scores) == len(base)
        assert store.counters.tables_encoded == 2  # the cold encodes

        append_rows(domain, side="right", rows=9)
        append_rows(domain, side="left", rows=5)
        rescored_before = store.counters.pairs_rescored
        warm = resolve(
            store, matcher, baseline=baseline, capture=True, blocking=blocking, k=4, batch_size=13
        )
        delta = merge_scored_batches(warm.run())
        # Only the appended tails were pushed through the encoder.
        assert store.counters.tables_encoded == 2, "delta run must not re-encode tables"
        assert store.counters.rows_reencoded == 14
        rescored = store.counters.pairs_rescored - rescored_before
        assert 0 < rescored < len(delta), "some baseline scores must be reused"

        cold_store = EncodingStore(representation, domain.task, counters=EngineCounters())
        cold = merge_scored_batches(
            resolve(cold_store, matcher, blocking=blocking, k=4, batch_size=13).run()
        )
        assert [p.key() for p in delta.pairs] == [p.key() for p in cold.pairs]
        # Reused pairs are byte-identical; tail rows were encoded in a
        # different matmul batch shape, so rescored pairs agree to float
        # round-off (same tolerance the monolithic-vs-streamed tests use).
        np.testing.assert_allclose(delta.probabilities, cold.probabilities, atol=1e-9)
        assert {p.key() for p in delta.matches()} == {p.key() for p in cold.matches()}

    @pytest.mark.parametrize("name", DOMAIN_NAMES)
    def test_mutation_delta_equals_cold_full_resolve(self, name):
        """The mutation acceptance contract, on every registry domain: after
        k in-place edits + d deletions + a appends to a warm table, the delta
        resolve re-encodes exactly k + a rows, tombstones exactly d, keeps
        deleted rows out of the candidate stream, and yields the identical
        match set as a cold full resolve of the mutated tables."""
        domain = load_domain(name, scale=0.2)
        representation = EntityRepresentationModel(
            VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=7), ir_method="lsa"
        ).fit(domain.task)
        matcher = _DistanceMatcher()
        blocking = BlockingConfig(seed=19)

        store = EncodingStore(representation, domain.task, counters=EngineCounters())
        executor = resolve(store, matcher, baseline=None, capture=True, blocking=blocking, k=4, batch_size=13)
        merge_scored_batches(executor.run())
        baseline = executor.baseline_out

        # Delete first, then edit (edits always target surviving rows), then
        # append — so re-encode work is exactly k edits + a appends.
        deleted = delete_rows(domain, side="right", rows=4)
        edited = mutate_rows(domain, side="right", rows=5)
        mutate_rows(domain, side="left", rows=2)
        appended = append_rows(domain, side="right", rows=6)
        # An append may re-issue a deleted trailing id (delete + re-add); the
        # tombstoned *row* is still gone, so exclude re-issued ids below.
        deleted_ids = {r.record_id for r in deleted} - {r.record_id for r in appended}
        edited_ids = {r.record_id for r in edited}

        rows_before = store.counters.rows_reencoded
        rescored_before = store.counters.pairs_rescored
        warm = resolve(
            store, matcher, baseline=baseline, capture=True, blocking=blocking, k=4, batch_size=13
        )
        delta = merge_scored_batches(warm.run())
        assert store.counters.tables_encoded == 2, "delta run must not re-encode tables"
        assert store.counters.rows_reencoded - rows_before == 5 + 2 + 6
        assert store.counters.rows_tombstoned == 4
        # Tombstoned rows never surface in any candidate pair.
        assert all(p.right_id not in deleted_ids for p in delta.pairs)
        rescored = store.counters.pairs_rescored - rescored_before
        assert 0 < rescored < len(delta), "some baseline scores must be reused"
        # Every pair touching an edited right row was rescored, not reused.
        stale = [p for p in delta.pairs if p.right_id in edited_ids]
        assert stale, "edited rows should still block (they remain similar)"

        cold_store = EncodingStore(representation, domain.task, counters=EngineCounters())
        cold = merge_scored_batches(
            resolve(cold_store, matcher, blocking=blocking, k=4, batch_size=13).run()
        )
        assert [p.key() for p in delta.pairs] == [p.key() for p in cold.pairs]
        np.testing.assert_allclose(delta.probabilities, cold.probabilities, atol=1e-9)
        assert {p.key() for p in delta.matches()} == {p.key() for p in cold.matches()}

    def test_parallel_delta_tail_matches_serial(self):
        self._check_parallel_delta_tail()

    def test_parallel_delta_tail_on_a_pool_that_predates_the_model(self):
        """The production case: the cached pool was spawned by an earlier
        resolve, so its workers cannot have inherited anything of this run
        and score with the (pickled) matcher and rows each task carries."""
        pool = acquire_pool(2)
        try:
            for future in [pool.submit(time.sleep, 0.2) for _ in range(2)]:
                future.result()  # both workers exist before the model does
        finally:
            release_pool(pool)
        self._check_parallel_delta_tail()

    def _check_parallel_delta_tail(self):
        """workers>1 fans the scoring across the pool while the pending rows
        encode and every query chunk is queried in the parent, as in a
        serial run; the pooled delta stream must equal the serial one byte
        for byte — keys, batch packing and probabilities, pairs touching a
        re-encoded row included.  The delta round packs one pair per batch,
        so every query chunk's pairs span many batches."""
        domain = _fresh_tiny_domain()
        twin = _fresh_tiny_domain()
        representation = EntityRepresentationModel(
            VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=3), ir_method="lsa"
        ).fit(domain.task)
        matcher = _DistanceMatcher()
        blocking = BlockingConfig(seed=19)

        def capture(d):
            store = EncodingStore(representation, d.task, counters=EngineCounters())
            executor = resolve(store, matcher, baseline=None, capture=True, blocking=blocking, k=4, batch_size=13)
            merge_scored_batches(executor.run())
            return store, executor.baseline_out

        store_serial, baseline_serial = capture(domain)
        store_pooled, baseline_pooled = capture(twin)
        reencoded = set()
        for d in (domain, twin):
            reencoded.update(r.record_id for r in mutate_rows(d, side="right", rows=3))
            reencoded.update(r.record_id for r in append_rows(d, side="right", rows=20))

        serial = list(resolve(
            store_serial, matcher, baseline=baseline_serial, capture=True, blocking=blocking,
            k=4, batch_size=1, workers=1,
        ).run())
        pooled_executor = resolve(
            store_pooled, matcher, baseline=baseline_pooled, capture=True, blocking=blocking,
            k=4, batch_size=1, workers=2,
        )
        assert pooled_executor.plan.workers == 2
        pooled = list(pooled_executor.run())
        assert store_pooled.counters.rows_reencoded == store_serial.counters.rows_reencoded == 23
        assert _batch_rows(pooled) == _batch_rows(serial)
        touched = [p.right_id in reencoded for b in serial for p in b.pairs]
        assert any(touched) and not all(touched)

    def test_rescored_pairs_all_involve_new_rows(self):
        """The score stage restricts matcher work to pairs touching new rows."""
        domain = _fresh_tiny_domain()
        representation = EntityRepresentationModel(
            VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=3), ir_method="lsa"
        ).fit(domain.task)
        matcher = _DistanceMatcher()
        store = EncodingStore(representation, domain.task, counters=EngineCounters())
        executor = resolve(store, matcher, baseline=None, capture=True, k=4, batch_size=13)
        base = merge_scored_batches(executor.run())
        baseline = executor.baseline_out
        old_left = {p.left_id for p in base.pairs} | {r.record_id for r in domain.task.left}
        old_right = {r.record_id for r in domain.task.right}

        appended = append_rows(domain, side="right", rows=7)
        new_right = {r.record_id for r in appended}
        rescored_before = store.counters.pairs_rescored
        warm = resolve(store, matcher, baseline=baseline, capture=True, k=4, batch_size=13)
        delta = merge_scored_batches(warm.run())
        # Every pair absent from the baseline involves an appended row; all
        # old-old pairs were served from the baseline scores.
        fresh = [p for p in delta.pairs if (p.left_id, p.right_id) not in baseline.scores]
        assert fresh, "growing the right table must surface new candidate pairs"
        assert all(p.right_id in new_right for p in fresh)
        assert store.counters.pairs_rescored - rescored_before == len(fresh)
        assert all(p.left_id in old_left and p.right_id in (old_right | new_right) for p in delta.pairs)


class TestChunkFingerprintReuse:
    @pytest.fixture(scope="module")
    def grown_state(self, delta_representation, tmp_path_factory):
        """A domain + warm chunked cache that hypothesis examples keep growing."""
        domain = _fresh_tiny_domain()
        cache = PersistentEncodingCache(
            tmp_path_factory.mktemp("delta-cache"), chunk_rows=16
        )
        cold = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters(), persistent=cache
        )
        cold.table_encodings("left")
        cold.table_encodings("right")
        assert cold.counters.tables_encoded == 2
        return domain, cache

    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(min_value=1, max_value=40))
    def test_appending_k_rows_reencodes_at_most_chunk_aligned_k(
        self, grown_state, delta_representation, k
    ):
        """Per-chunk fingerprints keep every pre-append chunk valid: a fresh
        store over the grown table re-encodes exactly the k appended rows
        (trivially <= the chunk-aligned bound) and zero whole tables."""
        domain, cache = grown_state
        base_rows = len(domain.task.right)
        append_rows(domain, side="right", rows=k)

        store = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters(), persistent=cache
        )
        grown = store.table_encodings("right")
        store.table_encodings("left")  # untouched side: pure disk hit
        chunk_aligned = -(-k // cache.chunk_rows) * cache.chunk_rows
        assert store.counters.tables_encoded == 0
        assert store.counters.rows_reencoded == k <= chunk_aligned
        assert store.counters.disk_hits == 2
        assert len(grown) == base_rows + k

    def test_mutated_table_served_from_patched_cache(self, delta_representation, tmp_path):
        """A fresh store over a patched entry pays only for the mutation, and
        the store after it pays nothing at all."""
        domain = _fresh_tiny_domain()
        cache = PersistentEncodingCache(tmp_path / "mut-cache", chunk_rows=16)
        cold = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters(), persistent=cache
        )
        cold.table_encodings("right")
        assert cold.counters.tables_encoded == 1

        deleted = delete_rows(domain, side="right", rows=3)
        mutate_rows(domain, side="right", rows=4)
        append_rows(domain, side="right", rows=5)

        warm = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters(), persistent=cache
        )
        served = warm.table_encodings("right")
        assert warm.counters.tables_encoded == 0
        assert warm.counters.rows_reencoded == 4 + 5
        assert warm.counters.rows_tombstoned == 3
        # Write amplification is bounded by the dirt, never the table size.
        assert 1 <= warm.counters.chunks_patched <= 4 + 3
        assert served.keys == tuple(domain.task.right.record_ids())
        assert all(r.record_id not in served.row_index for r in deleted)

        # The patch landed: the next fresh store is a pure disk hit.
        exact = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters(), persistent=cache
        )
        again = exact.table_encodings("right")
        assert exact.counters.tables_encoded == 0
        assert exact.counters.rows_reencoded == 0
        assert exact.counters.disk_hits == 1
        np.testing.assert_array_equal(np.asarray(again.mu), np.asarray(served.mu))
        # And the served encodings equal a from-scratch encode of the table
        # (to float round-off: re-encoded rows rode a different matmul batch
        # shape, like every other delta path).
        scratch = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters()
        ).table_encodings("right")
        np.testing.assert_allclose(np.asarray(again.irs), scratch.irs, atol=1e-12)
        np.testing.assert_allclose(np.asarray(again.mu), scratch.mu, atol=1e-12)

    def test_in_memory_mutation_refresh_without_disk_cache(self, delta_representation):
        """A live store notices edits and deletions on its backing table and
        refreshes through the row-identity diff — no persistent cache."""
        domain = _fresh_tiny_domain()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        first = store.table_encodings("right")
        edited = mutate_rows(domain, side="right", rows=2)
        removed = delete_rows(domain, side="right", rows=2)
        second = store.table_encodings("right")
        assert store.counters.tables_encoded == 1  # only the cold encode
        assert store.counters.rows_reencoded == 2
        assert store.counters.rows_tombstoned == 2
        assert len(second) == len(first) - 2
        assert second.keys == tuple(domain.task.right.record_ids())
        edited_ids = {r.record_id for r in edited}
        removed_ids = {r.record_id for r in removed}
        for key in second.keys:
            if key in edited_ids:
                continue
            np.testing.assert_array_equal(
                second.mu[second.row_index[key]], first.mu[first.row_index[key]]
            )
        assert removed_ids.isdisjoint(second.row_index)
        for key in edited_ids - removed_ids:
            assert not np.array_equal(
                second.mu[second.row_index[key]], first.mu[first.row_index[key]]
            )
        # The refreshed table is served from cache on the next access.
        hits_before = store.counters.cache_hits
        store.table_encodings("right")
        assert store.counters.cache_hits == hits_before + 1

    def test_in_memory_append_refresh_without_disk_cache(self, delta_representation):
        """A live store notices its backing table grew and refreshes via the
        same append-only path — no persistent cache required."""
        domain = _fresh_tiny_domain()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        first = store.table_encodings("right")
        append_rows(domain, side="right", rows=6)
        second = store.table_encodings("right")
        assert store.counters.tables_encoded == 1  # only the cold encode
        assert store.counters.rows_reencoded == 6
        assert second.keys[: len(first)] == first.keys
        np.testing.assert_array_equal(second.mu[: len(first)], first.mu)
        np.testing.assert_array_equal(second.irs[: len(first)], first.irs)
        # The refreshed table is served from cache on the next access.
        hits_before = store.counters.cache_hits
        store.table_encodings("right")
        assert store.counters.cache_hits == hits_before + 1

    def test_fingerprint_memoization(self, delta_representation):
        domain = _fresh_tiny_domain()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        first = store.table_fingerprint("right")
        for _ in range(5):
            assert store.table_fingerprint("right") == first
        assert store.counters.fingerprints_computed == 1
        # Growth changes the identity: exactly one recompute.
        append_rows(domain, side="right", rows=3)
        assert store.table_fingerprint("right") != first
        assert store.counters.fingerprints_computed == 2

    def test_rows_are_hashed_once_per_table_state(
        self, delta_representation, tmp_path, monkeypatch
    ):
        """One identity primitive, hashed once: the fingerprint, the row diff,
        the cache probe, the patch and the baseline capture of a round all
        read one memoised list, so a single-row edit hashes the edited table
        and nothing else, and an unchanged round hashes nothing."""
        from repro.engine import persist

        hashed = []
        real = persist.record_crc
        monkeypatch.setattr(
            persist, "record_crc", lambda record: hashed.append(record.record_id) or real(record)
        )
        domain = _fresh_tiny_domain()
        left_rows, right_rows = len(domain.task.left), len(domain.task.right)
        store = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters(),
            persistent=PersistentEncodingCache(tmp_path / "hash-cache", chunk_rows=16),
        )
        matcher = _DistanceMatcher()

        def round_(baseline):
            del hashed[:]
            executor = resolve(store, matcher, baseline=baseline, capture=True, k=4, batch_size=13)
            merge_scored_batches(executor.run())
            return executor.baseline_out

        baseline = round_(None)
        assert len(hashed) == left_rows + right_rows  # each table, once
        mutate_rows(domain, side="right", rows=1)
        baseline = round_(baseline)
        assert store.counters.rows_reencoded == 1 and store.counters.chunks_patched == 1
        assert len(hashed) == right_rows and set(hashed) == set(domain.task.right.record_ids())
        round_(baseline)
        assert hashed == []


def _batch_rows(batches):
    """``(batch_index, pair keys, probability bytes)`` per batch, in yield order."""
    return [
        (b.batch_index, [p.key() for p in b.pairs], np.asarray(b.probabilities).tobytes())
        for b in batches
    ]


class TestModeEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=6),
        batch_size=st.integers(min_value=1, max_value=40),
        edits=st.integers(min_value=0, max_value=6),
        left_edits=st.integers(min_value=0, max_value=3),
        deletes=st.integers(min_value=0, max_value=6),
        appends=st.integers(min_value=0, max_value=10),
    )
    def test_every_mode_equals_a_cold_serial_resolve(
        self, delta_representation, k, batch_size, edits, left_edits, deletes, appends
    ):
        """One executor, one answer.  Cold: workers in {1, 2} x capture in
        {False, True} yield byte-identical batch streams.  After any mix of
        edits, deletes and appends, the baseline-served stream (serial and
        pooled) equals a cold resolve of the mutated tables — same keys and
        batch packing, same match set, probabilities to float round-off (a
        cold encode of the mutated table is a different matmul batch shape),
        reused pairs carrying the baseline's bytes — while re-encoding exactly the edited and appended
        rows and running the matcher on exactly the pairs the surviving
        baseline does not cover.  The pooled served stream equals the serial
        one byte for byte."""
        matcher = _DistanceMatcher()
        blocking = BlockingConfig(seed=19)
        knobs = dict(blocking=blocking, k=k, batch_size=batch_size)

        def fresh_store(domain):
            return EncodingStore(delta_representation, domain.task, counters=EngineCounters())

        reference = _batch_rows(resolve(fresh_store(_fresh_tiny_domain()), matcher, **knobs).run())
        served_by_workers = {}
        for workers in (1, 2):
            domain = _fresh_tiny_domain()
            assert _batch_rows(
                resolve(fresh_store(domain), matcher, workers=workers, **knobs).run()
            ) == reference
            store = fresh_store(domain)
            capturing = resolve(store, matcher, baseline=None, capture=True, workers=workers, **knobs)
            assert _batch_rows(capturing.run()) == reference
            baseline = capturing.baseline_out
            assert store.counters.tables_encoded == 2

            stale_left, stale_right = set(), set()
            if deletes:
                stale_right |= {r.record_id for r in delete_rows(domain, side="right", rows=deletes)}
            if edits:
                stale_right |= {r.record_id for r in mutate_rows(domain, side="right", rows=edits)}
            if left_edits:
                stale_left |= {r.record_id for r in mutate_rows(domain, side="left", rows=left_edits)}
            # Appends may re-issue deleted trailing ids (delete + re-add, or an
            # in-place edit when the position realigns): new rows either way,
            # so their old scores stay stale and they re-encode once.
            appended = (
                {r.record_id for r in append_rows(domain, side="right", rows=appends)}
                if appends else set()
            )
            gone = stale_right - appended - set(domain.task.right.record_ids())
            surviving = {
                pair for pair in baseline.scores
                if pair[0] not in stale_left and pair[1] not in stale_right
            }

            reencoded = store.counters.rows_reencoded
            tombstoned = store.counters.rows_tombstoned
            timings = StageTimings()
            warm = resolve(
                store, matcher, baseline=baseline, capture=True, workers=workers, stage_timings=timings, **knobs
            )
            served = list(warm.run())
            served_by_workers[workers] = _batch_rows(served)
            assert store.counters.rows_reencoded - reencoded == edits + left_edits + appends
            assert len(gone) <= store.counters.rows_tombstoned - tombstoned <= deletes
            assert store.counters.tables_encoded == 2  # the cold capture only

            cold = list(resolve(fresh_store(domain), matcher, **knobs).run())
            assert [row[:2] for row in _batch_rows(served)] == [row[:2] for row in _batch_rows(cold)]
            served, cold = merge_scored_batches(served), merge_scored_batches(cold)
            assert all(p.right_id not in gone for p in served.pairs)
            assert {p.key() for p in served.matches()} == {p.key() for p in cold.matches()}
            reused = np.array([p.key() in surviving for p in served.pairs], dtype=bool)
            assert timings.counter("pairs_rescored") == int((~reused).sum())
            assert served.probabilities[reused].tolist() == [
                baseline.scores[p.key()] for p in served.pairs if p.key() in surviving
            ]
            np.testing.assert_allclose(served.probabilities, cold.probabilities, atol=1e-9)
            assert len(warm.baseline_out.scores) == len(served)
        # The pool runs only score units, so the served delta streams are
        # the same bytes at either worker count.
        assert served_by_workers[2] == served_by_workers[1]


class _InlineExecutor(Executor):
    """Runs each task in the caller, before ``submit`` returns."""

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class _DyingPool(WorkerPool):
    """Runs each task inline; ``submit`` raises ``BrokenExecutor`` once
    ``budget`` tasks have run — a pool whose workers all died at that point."""

    def __init__(self, budget: int) -> None:
        super().__init__(_InlineExecutor(), workers=2)
        self.budget = budget
        self.refused = False

    def submit(self, fn, /, *args, **kwargs):
        if self.budget <= 0:
            self.refused = True
            raise BrokenExecutor("injected pool death")
        self.budget -= 1
        return super().submit(fn, *args, **kwargs)


class TestDeadPoolResume:
    # Pool tasks of these runs, in submission order: one score task per
    # batch the baseline does not fully cover (all 13 when cold).
    @pytest.mark.parametrize("budget", [0, 2, 4, 6, 8, 10, 14, 22, 10**6])
    @pytest.mark.parametrize("mutated", [False, True], ids=["cold", "baseline"])
    def test_stream_survives_pool_death_at_any_task(self, delta_representation, install_pool, mutated, budget):
        """A pool that dies before, during or after the score fan-out hands
        the rest of the run to the serial source: the stream equals the
        serial one, with no duplicate or missing ``batch_index``."""
        matcher = _DistanceMatcher()
        knobs = dict(blocking=BlockingConfig(seed=19), k=4, batch_size=13)
        runs = []
        for _ in ("serial", "dying"):
            domain = _fresh_tiny_domain()
            store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
            baseline = None
            if mutated:
                capturing = resolve(store, matcher, baseline=None, capture=True, **knobs)
                list(capturing.run())
                baseline = capturing.baseline_out
                delete_rows(domain, side="right", rows=2)
                mutate_rows(domain, side="right", rows=2)
                append_rows(domain, side="right", rows=5)
            runs.append((store, baseline))

        (store, baseline), (twin_store, twin_baseline) = runs
        serial = list(resolve(store, matcher, baseline=baseline, capture=True, **knobs).run())
        pool = install_pool(_DyingPool(budget))
        executor = resolve(twin_store, matcher, baseline=twin_baseline, capture=True, workers=2, **knobs)
        resumed = list(executor.run())
        assert pool.broken == pool.refused
        # A cold pooled run submits one score task per batch.
        if not mutated:
            assert pool.refused == (budget < len(resumed))
        if budget == 10**6:
            assert not pool.refused
        assert [b.batch_index for b in resumed] == list(range(len(resumed)))
        assert _batch_rows(resumed) == _batch_rows(serial)
        assert len(executor.baseline_out.scores) == sum(len(b) for b in serial)


class _RecordingPool(ThreadWorkerPool):
    """A thread pool that records the name of every function submitted to it."""

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self.submitted = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(fn.__name__)
        return super().submit(fn, *args, **kwargs)


_BLOCKING_COUNTERS = (
    "blocking_queries",
    "blocking_fallback_queries",
    "blocking_candidates_ranked",
    "blocking_candidates_rescored",
)


class TestPoolUnits:
    def test_only_score_units_reach_the_pool(self, delta_representation, install_pool):
        """Encodes, the LSH build or mutation and every blocking query run
        in the parent: a cold resolve and a delta round each submit score
        tasks only — one per batch the baseline does not cover — so the
        process-wide blocking counters of a run on a recording pool or on
        the local pool equal a serial run's, round for round."""
        recording = _RecordingPool(2)
        runs = {}
        try:
            for mode, workers in (("serial", 1), ("local", 2), ("recording", 2)):
                if mode == "recording":
                    install_pool(recording)
                domain = _fresh_tiny_domain()
                store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
                baseline = None
                rounds = []
                for mutate in (False, True):
                    if mutate:
                        mutate_rows(domain, side="right", rows=3)
                        append_rows(domain, side="right", rows=20)
                        append_rows(domain, side="left", rows=12)
                    executor = resolve(
                        store, _DistanceMatcher(), baseline=baseline, capture=True,
                        workers=workers, k=4, batch_size=13,
                    )
                    del recording.submitted[:]
                    before = engine_counters().as_dict()
                    batches = list(executor.run())
                    after = engine_counters().as_dict()
                    baseline = executor.baseline_out
                    if mode == "recording":
                        assert set(recording.submitted) == {"_score_task"}
                        assert 0 < len(recording.submitted) <= len(batches)
                        if not mutate:
                            assert len(recording.submitted) == len(batches)
                    rounds.append((
                        _batch_rows(batches),
                        {name: after[name] - before[name] for name in _BLOCKING_COUNTERS},
                    ))
                assert store.counters.rows_reencoded == 3 + 20 + 12
                runs[mode] = rounds
        finally:
            recording.shutdown()
        assert runs["serial"][0][1]["blocking_queries"] == 40
        assert runs["serial"][1][1]["blocking_queries"] == 40 + 12
        assert runs["recording"] == runs["serial"]
        assert runs["local"] == runs["serial"]


class TestBaselineHygiene:
    def _fit(self, domain, seed=3):
        return EntityRepresentationModel(
            VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=seed), ir_method="lsa"
        ).fit(domain.task)

    def test_refit_invalidates_baseline_but_stays_equivalent(self):
        domain = _fresh_tiny_domain()
        representation = self._fit(domain)
        matcher = _DistanceMatcher()
        store = EncodingStore(representation, domain.task, counters=EngineCounters())
        executor = resolve(store, matcher, baseline=None, capture=True, k=4, batch_size=13)
        list(executor.run())
        baseline = executor.baseline_out

        representation.fit(domain.task, epochs=1)  # bumps encoding_version
        warm = resolve(store, matcher, baseline=baseline, capture=True, k=4, batch_size=13)
        refreshed = merge_scored_batches(warm.run())
        assert warm.baseline_out.encoding_version == representation.encoding_version
        # Stale baseline contributed nothing: everything was rescored.
        assert store.counters.pairs_rescored >= len(refreshed)

        cold_store = EncodingStore(representation, domain.task, counters=EngineCounters())
        cold = merge_scored_batches(resolve(cold_store, matcher, k=4, batch_size=13).run())
        assert [p.key() for p in refreshed.pairs] == [p.key() for p in cold.pairs]
        np.testing.assert_array_equal(refreshed.probabilities, cold.probabilities)

    def test_abandoned_stream_cannot_poison_the_baseline(self, delta_representation):
        """An abandoned delta stream mutates the baseline index in place but
        never publishes a new baseline; the next run against the *kept*
        baseline must notice (index mutation counter) and rebuild instead of
        trusting the half-mutated index — even when the mutation was a
        vector-only patch that key comparison cannot see."""
        domain = _fresh_tiny_domain()
        matcher = _DistanceMatcher()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        executor = resolve(store, matcher, baseline=None, capture=True, k=4, batch_size=13)
        merge_scored_batches(executor.run())
        baseline = executor.baseline_out
        mutations_at_capture = baseline.index.mutations

        # Edit one right row in place (keys unchanged), start an incremental
        # resolve, consume a single batch, abandon the stream.
        records_before = {r.record_id: r for r in domain.task.right}
        edited = mutate_rows(domain, side="right", rows=1, seed=31)[0]
        abandoned = resolve(store, matcher, baseline=baseline, capture=True, k=4, batch_size=13)
        stream = abandoned.run()
        next(iter(stream))
        assert abandoned.baseline_out is None, "an abandoned stream publishes nothing"
        assert baseline.index.mutations != mutations_at_capture, (
            "the abandoned run patched the index in place"
        )

        # Revert the edit: the table now matches the baseline snapshot again,
        # but the index does not — reuse must be refused.
        domain.task.right.replace(records_before[edited.record_id])
        assert not baseline.index_usable(
            delta_representation.encoding_version,
            None,
            baseline.diff_side("right", domain.task.right),
        )
        warm = merge_scored_batches(
            resolve(store, matcher, baseline=baseline, capture=True, k=4, batch_size=13).run()
        )
        cold_store = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters()
        )
        cold = merge_scored_batches(resolve(cold_store, matcher, k=4, batch_size=13).run())
        assert [p.key() for p in warm.pairs] == [p.key() for p in cold.pairs]
        np.testing.assert_allclose(warm.probabilities, cold.probabilities, atol=1e-9)
        assert {p.key() for p in warm.matches()} == {p.key() for p in cold.matches()}

    def test_new_matcher_invalidates_scores_not_index(self, delta_representation):
        domain = _fresh_tiny_domain()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        executor = resolve(store, _DistanceMatcher(), baseline=None, capture=True, k=4, batch_size=13)
        base = merge_scored_batches(executor.run())
        baseline = executor.baseline_out

        rescored_before = store.counters.pairs_rescored
        other = _DistanceMatcher()  # different object: scores must not be reused
        warm = resolve(store, other, baseline=baseline, capture=True, k=4, batch_size=13)
        again = merge_scored_batches(warm.run())
        assert store.counters.pairs_rescored - rescored_before == len(again)
        assert [p.key() for p in again.pairs] == [p.key() for p in base.pairs]
        # The index, which depends only on the encodings, was reused as-is.
        assert warm.baseline_out.index is baseline.index


class TestPipelineBaselineLifecycle:
    def test_refitting_matcher_drops_the_captured_baseline(self):
        """Baseline scores belong to the matcher that produced them: a refit
        must clear the pipeline's baseline so a recycled object identity can
        never serve the old matcher's probabilities."""
        from repro.config import MatcherConfig, VAERConfig
        from repro.core import VAER

        domain = _fresh_tiny_domain()
        config = VAERConfig(
            vae=VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=3),
            matcher=MatcherConfig(epochs=5, mlp_hidden=(16, 8), seed=5),
        )
        model = VAER(config).fit_representation(domain.task)
        model.fit_matcher(domain.splits.train, domain.splits.validation)
        list(model.resolve_stream(k=4, batch_size=13, incremental=True))
        assert model._baseline is not None
        assert model._baseline.matcher is model.matcher
        model.fit_matcher(domain.splits.train, domain.splits.validation)
        assert model._baseline is None
        # And a refit representation clears it too.
        list(model.resolve_stream(k=4, batch_size=13, incremental=True))
        model.fit_representation(domain.task)
        assert model._baseline is None


class TestDeltaCounters:
    def test_stage_timings_carry_delta_counters(self, delta_representation):
        """Edits, deletions and appends each show up in the run's counters:
        the executor's report of what a delta run did."""
        domain = _fresh_tiny_domain()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        executor = resolve(store, _DistanceMatcher(), baseline=None, capture=True, k=4, batch_size=13)
        list(executor.run())
        delete_rows(domain, side="right", rows=2)
        mutate_rows(domain, side="right", rows=3)
        append_rows(domain, side="right", rows=4)
        timings = StageTimings()
        warm = resolve(
            store, _DistanceMatcher(), baseline=executor.baseline_out, capture=True,
            k=4, batch_size=13, stage_timings=timings,
        )
        total = sum(len(batch) for batch in warm.run())
        assert timings.counter("rows_reencoded") == 3 + 4
        assert timings.counter("rows_tombstoned") == 2
        assert 0 < timings.counter("pairs_rescored") <= total
        assert "block-extend" in timings.stages()

    @pytest.mark.parametrize("codec", ["raw", "int8", "pq"])
    def test_append_only_refresh_splices_in_place(self, delta_representation, codec):
        """An append-only mutation takes the same splice as edits: cached rows
        come back byte-for-byte, only the tail is encoded, nothing is
        tombstoned."""
        domain = _fresh_tiny_domain()
        store = EncodingStore(
            delta_representation, domain.task, counters=EngineCounters(), codec=codec
        )
        before = store.table_encodings("right")
        appended = append_rows(domain, side="right", rows=5)
        reencoded = store.counters.rows_reencoded
        after = store.table_encodings("right")
        assert after.keys == tuple(domain.task.right.record_ids())
        assert after.keys[-5:] == tuple(r.record_id for r in appended)
        assert store.counters.rows_reencoded - reencoded == 5
        assert store.counters.rows_tombstoned == 0
        assert store.counters.tables_encoded == 1

        def rows(array):
            return array.codes if isinstance(array, CodecArray) else np.asarray(array)

        # The tail holds the appended rows' own encodings, quantized with the
        # side's fixed params.
        cold = EncodingStore(delta_representation, domain.task).table_encodings("right")
        for name in ("irs", "mu", "sigma"):
            old, new = getattr(before, name), getattr(after, name)
            assert isinstance(new, CodecArray) == isinstance(old, CodecArray)
            assert len(rows(new)) == len(before) + 5
            np.testing.assert_array_equal(rows(new)[: len(before)], rows(old))
            tail = np.asarray(getattr(cold, name))[len(before):]
            if isinstance(old, CodecArray):
                np.testing.assert_array_equal(rows(new)[len(before):], old.encode_rows(tail))
            else:
                np.testing.assert_allclose(rows(new)[len(before):], tail, atol=1e-9)


class TestResolveFrontEnd:
    def test_resolve_without_baseline_is_cold(self, delta_representation):
        """No baseline means a cold run, captured or not: same plan, same
        stream, nothing counted as a delta."""
        matcher = _DistanceMatcher()
        streams = []
        for capture in (False, True):
            domain = _fresh_tiny_domain()
            store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
            executor = resolve(store, matcher, capture=capture, k=4, batch_size=13)
            assert executor.plan == ResolutionPlanner.from_store(store, k=4, batch_size=13).plan()
            streams.append(_batch_rows(executor.run()))
            assert store.counters.tables_encoded == 2
            assert store.counters.rows_reencoded == 0
            assert store.counters.rows_tombstoned == 0
        assert streams[0] == streams[1]

    def test_delta_run_plans_the_cold_stage_graph(self, delta_representation):
        """The plan is the grown tables' cold plan: a baseline changes what
        the executor reuses, never the stage graph."""
        domain = _fresh_tiny_domain()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        executor = resolve(store, _DistanceMatcher(), capture=True, k=4, batch_size=13)
        list(executor.run())
        append_rows(domain, side="right", rows=6)
        warm = resolve(
            store, _DistanceMatcher(), baseline=executor.baseline_out, k=4, batch_size=13
        )
        assert [stage.name for stage in warm.plan.stages] == ["encode", "block", "score"]
        assert warm.plan.right_rows == len(domain.task.right)
        assert warm.plan == ResolutionPlanner.from_store(store, k=4, batch_size=13).plan()
        assert "delta:" not in warm.plan.describe()

    def test_capture_off_publishes_no_baseline(self, delta_representation):
        domain = _fresh_tiny_domain()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        matcher = _DistanceMatcher()
        captured = resolve(store, matcher, capture=True, k=4, batch_size=13)
        list(captured.run())
        assert captured.baseline_out is not None
        append_rows(domain, side="right", rows=3)
        warm = resolve(store, matcher, baseline=captured.baseline_out, k=4, batch_size=13)
        list(warm.run())
        assert warm.baseline_out is None

    def test_workers_size_the_plan_and_the_borrowed_pool(self, delta_representation, install_pool):
        """``workers=3`` plans three workers and scores on the local pool of
        that size, with the serial stream's bytes."""
        matcher = _DistanceMatcher()
        serial = _batch_rows(
            resolve(
                EncodingStore(delta_representation, _fresh_tiny_domain().task),
                matcher, k=4, batch_size=13,
            ).run()
        )
        pool = install_pool(_RecordingPool(3))
        executor = resolve(
            EncodingStore(delta_representation, _fresh_tiny_domain().task),
            matcher, workers=3, k=4, batch_size=13,
        )
        assert executor.plan.workers == 3
        assert _batch_rows(executor.run()) == serial
        assert pool.submitted and set(pool.submitted) == {"_score_task"}

    def test_bad_knobs_fail_before_any_work(self, delta_representation):
        domain = _fresh_tiny_domain()
        store = EncodingStore(delta_representation, domain.task, counters=EngineCounters())
        with pytest.raises(ValueError, match="batch_size"):
            resolve(store, _DistanceMatcher(), batch_size=0)
        assert store.counters.tables_encoded == 0

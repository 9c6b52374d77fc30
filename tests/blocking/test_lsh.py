"""Euclidean LSH index correctness and recall behaviour."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking import EuclideanLSHIndex
from repro.blocking import lsh as lsh_module
from repro.engine import quant
from repro.eval.timing import engine_counters
from repro.exceptions import NotFittedError


@pytest.fixture(scope="module")
def clustered_vectors():
    """Three well-separated clusters of 20 points each."""
    rng = np.random.default_rng(3)
    centres = np.array([[0.0] * 8, [50.0] * 8, [-50.0] * 8])
    vectors, labels = [], []
    for c, centre in enumerate(centres):
        vectors.append(centre + rng.normal(scale=0.5, size=(20, 8)))
        labels.extend([c] * 20)
    return np.vstack(vectors), np.array(labels)


def _buckets(index):
    """Per table, ``{bucket key: ascending stored rows}`` read from the
    index's lookups and row labels, empty buckets omitted."""
    tables = []
    for lookup, labels in zip(index._lookups, index._labels):
        table = {}
        for bucket, label in lookup.items():
            rows = np.flatnonzero(labels == label).tolist()
            if rows:
                table[bucket] = rows
        tables.append(table)
    return tables


def _lookup_sizes(index):
    """Buckets each table's lookup holds, an emptied one left behind included."""
    return [len(lookup) for lookup in index._lookups]


class TestEuclideanLSHIndex:
    def test_query_before_build_raises(self):
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().query(np.zeros(4))

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            EuclideanLSHIndex(num_tables=0)
        with pytest.raises(ValueError):
            EuclideanLSHIndex(bucket_width=0.0)

    def test_build_rejects_non_2d(self):
        with pytest.raises(ValueError):
            EuclideanLSHIndex().build(np.zeros(5))

    def test_keys_must_align(self):
        with pytest.raises(ValueError):
            EuclideanLSHIndex().build(np.zeros((3, 2)), keys=["a"])

    def test_exact_match_is_nearest(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        key, distance = index.query(vectors[5], k=1)[0]
        assert key == 5 and distance == pytest.approx(0.0)

    def test_neighbours_come_from_same_cluster(self, clustered_vectors):
        vectors, labels = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        for query_index in (0, 25, 45):
            neighbours = index.query(vectors[query_index], k=5)
            neighbour_labels = [labels[k] for k, _ in neighbours]
            assert all(l == labels[query_index] for l in neighbour_labels)

    def test_exclude_key(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        results = index.query(vectors[0], k=3, exclude=0)
        assert 0 not in [k for k, _ in results]

    def test_custom_keys_returned(self, clustered_vectors):
        vectors, _ = clustered_vectors
        keys = [f"id{i}" for i in range(len(vectors))]
        index = EuclideanLSHIndex(seed=1).build(vectors, keys)
        assert index.query(vectors[0], k=1)[0][0] == "id0"

    def test_distances_sorted_ascending(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        distances = [d for _, d in index.query(vectors[0], k=10)]
        assert distances == sorted(distances)

    def test_fallback_when_buckets_sparse(self):
        """With very few points, recall must not collapse (linear-scan fallback)."""
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(6, 4)) * 100
        index = EuclideanLSHIndex(bucket_width=0.01, seed=2).build(vectors)
        assert len(index.query(vectors[0], k=5)) == 5

    def test_query_batch(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        results = index.query_batch(vectors[:3], k=2)
        assert len(results) == 3 and all(len(r) == 2 for r in results)

    def test_bucket_statistics(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        stats = index.bucket_statistics()
        assert stats["num_buckets"] >= 1 and stats["max_bucket_size"] >= stats["mean_bucket_size"]

    def test_size_property(self, clustered_vectors):
        vectors, _ = clustered_vectors
        assert EuclideanLSHIndex().build(vectors).size == len(vectors)
        assert EuclideanLSHIndex().size == 0


class TestEdgeCases:
    """Regression tests: NotFittedError consistency and degenerate shapes."""

    def test_query_batch_before_build_raises(self):
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().query_batch(np.zeros((3, 4)))

    def test_query_batch_before_build_raises_even_when_empty(self):
        """An empty query block must not silently bypass the fitted check."""
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().query_batch(np.zeros((0, 4)))

    def test_prepared_but_unbuilt_index_is_not_fitted(self):
        """prepare() alone leaves no hash tables: queries must refuse, not
        silently fall back to a linear scan."""
        index = EuclideanLSHIndex().prepare(np.zeros((4, 3)))
        with pytest.raises(NotFittedError):
            index.query(np.zeros(3))

    def test_bucket_statistics_before_build_raises(self):
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().bucket_statistics()

    def test_empty_table_queries_return_empty(self):
        index = EuclideanLSHIndex().build(np.zeros((0, 4)))
        assert index.size == 0
        assert index.query(np.ones(4), k=5) == []
        assert index.query_batch(np.ones((2, 4)), k=5) == [[], []]
        stats = index.bucket_statistics()
        assert stats == {"mean_bucket_size": 0.0, "max_bucket_size": 0.0, "num_buckets": 0.0}

    def test_single_row_table(self):
        index = EuclideanLSHIndex(seed=4).build(np.ones((1, 4)), keys=["only"])
        results = index.query(np.ones(4), k=5)
        assert [key for key, _ in results] == ["only"]
        assert index.query(np.ones(4), k=5, exclude="only") == []

    def test_k_larger_than_index_size(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors[:7])
        assert len(index.query(vectors[0], k=50)) == 7
        assert len(index.query(vectors[0], k=50, exclude=0)) == 6

    def test_non_positive_k_rejected(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        with pytest.raises(ValueError):
            index.query(vectors[0], k=0)
        with pytest.raises(ValueError):
            index.query_batch(vectors[:2], k=-3)

    def test_query_batch_exclude_must_align(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        with pytest.raises(ValueError):
            index.query_batch(vectors[:3], k=2, exclude=[0])

    def test_query_equals_query_batch_row(self, clustered_vectors):
        """The scalar and batched paths share one ranking implementation."""
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        batched = index.query_batch(vectors[:5], k=4)
        for row in range(5):
            assert index.query(vectors[row], k=4) == batched[row]

    def test_rebuild_replaces_previous_index(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=1).build(vectors)
        index.build(vectors[:10], keys=[f"n{i}" for i in range(10)])
        assert index.size == 10
        assert index.query(vectors[0], k=1)[0][0] == "n0"


class TestShardedBuild:
    def test_hash_rows_install_matches_build(self, clustered_vectors):
        """Bucket ids of row ranges installed in row order reproduce the
        serial buckets."""
        vectors, _ = clustered_vectors
        serial = EuclideanLSHIndex(seed=2).build(vectors)
        sharded = EuclideanLSHIndex(seed=2).prepare(vectors)
        partials = [sharded.hash_rows(start, start + 13) for start in range(0, len(vectors), 13)]
        sharded.install_tables(partials)
        assert _buckets(serial) == _buckets(sharded)
        for row in (0, 25, 59):
            assert serial.query(vectors[row], k=5) == sharded.query(vectors[row], k=5)

    def test_hash_rows_before_prepare_raises(self):
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().hash_rows(0, 4)

    def test_hash_rows_clamps_out_of_range(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(seed=2).prepare(vectors)
        empty = index.hash_rows(500, 900)
        assert empty.shape == (index.num_tables, 0, index.hash_size)

    def test_install_rejects_wrong_table_count(self, clustered_vectors):
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(num_tables=4, seed=2).prepare(vectors)
        with pytest.raises(ValueError):
            index.install_tables([np.zeros((2, len(vectors), index.hash_size), dtype=np.int64)])


class TestBucketStatistics:
    """Diagnostics output paths: totals, empty indexes, lifecycle errors."""

    def test_before_build_raises(self, clustered_vectors):
        vectors, _ = clustered_vectors
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().bucket_statistics()
        # prepare alone is not enough: the tables are not installed yet.
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().prepare(vectors).bucket_statistics()

    def test_empty_index_reports_zero_buckets(self):
        index = EuclideanLSHIndex(seed=1).build(np.zeros((0, 4)))
        assert index.bucket_statistics() == {
            "mean_bucket_size": 0.0, "max_bucket_size": 0.0, "num_buckets": 0.0
        }

    def test_occupancy_accounts_for_every_row_in_every_table(self, clustered_vectors):
        """Each of the num_tables hash tables buckets all n rows exactly once,
        so summed occupancy is num_tables * n."""
        vectors, _ = clustered_vectors
        index = EuclideanLSHIndex(num_tables=6, seed=3).build(vectors)
        stats = index.bucket_statistics()
        total = stats["mean_bucket_size"] * stats["num_buckets"]
        assert total == pytest.approx(6 * len(vectors))
        assert stats["max_bucket_size"] <= len(vectors)


class TestExtend:
    """Incremental index growth must be indistinguishable from a rebuild."""

    def test_extend_matches_full_rebuild(self, clustered_vectors):
        vectors, _ = clustered_vectors
        keys = [f"k{i}" for i in range(len(vectors))]
        full = EuclideanLSHIndex(seed=4).build(vectors, keys)
        grown = EuclideanLSHIndex(seed=4).build(vectors[:40], keys[:40])
        grown.extend(vectors[40:], keys[40:])
        assert grown.size == full.size and grown.keys == full.keys
        assert _buckets(full) == _buckets(grown)
        queries = vectors[::7]
        assert full.query_batch(queries, k=5) == grown.query_batch(queries, k=5)

    def test_repeated_extends_match_rebuild(self, clustered_vectors):
        vectors, _ = clustered_vectors
        full = EuclideanLSHIndex(seed=5).build(vectors)
        grown = EuclideanLSHIndex(seed=5).build(vectors[:20], list(range(20)))
        for start in range(20, len(vectors), 11):
            stop = min(start + 11, len(vectors))
            grown.extend(vectors[start:stop], list(range(start, stop)))
        assert _buckets(full) == _buckets(grown)
        assert full.query(vectors[3], k=4) == grown.query(vectors[3], k=4)

    def test_extend_validations(self, clustered_vectors):
        vectors, _ = clustered_vectors
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().extend(vectors[:2], ["a", "b"])
        index = EuclideanLSHIndex(seed=1).build(vectors)
        with pytest.raises(ValueError):
            index.extend(np.zeros((2, vectors.shape[1] + 1)), ["a", "b"])
        with pytest.raises(ValueError):
            index.extend(vectors[:3], ["a"])  # keys misaligned
        with pytest.raises(ValueError):
            index.extend(np.zeros((2, 2, 2)), ["a", "b"])  # not 2-d
        size = index.size
        index.extend(np.zeros((0, vectors.shape[1])), [])  # empty: no-op
        assert index.size == size


class TestRemovePatchCompact:
    """Delete-capable blocking: tombstones, in-place patches, compaction."""

    def _keys(self, n):
        return [f"k{i}" for i in range(n)]

    def test_remove_masks_rows_out_of_answers(self, clustered_vectors):
        vectors, _ = clustered_vectors
        keys = self._keys(len(vectors))
        index = EuclideanLSHIndex(seed=6, compaction_load=1.0).build(vectors, keys)
        removed = ["k3", "k25", "k41"]
        index.remove(removed)
        assert index.size == len(vectors)  # stored rows untouched
        assert index.live_size == len(vectors) - 3
        assert index.tombstoned == 3
        assert set(removed).isdisjoint(index.live_keys)
        alive = [i for i in range(len(vectors)) if f"k{i}" not in removed]
        rebuilt = EuclideanLSHIndex(seed=6).build(vectors[alive], [keys[i] for i in alive])
        queries = vectors[::7]
        assert index.query_batch(queries, k=5) == rebuilt.query_batch(queries, k=5)

    def test_remove_then_fallback_scan_excludes_dead_rows(self):
        """The linear-scan fallback (sparse buckets) must honour tombstones."""
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(6, 4))
        index = EuclideanLSHIndex(seed=2, bucket_width=0.01, compaction_load=1.0)
        index.build(vectors, self._keys(6))
        index.remove(["k0", "k5"])
        results = index.query_batch(vectors, k=6)
        for row_results in results:
            returned = {key for key, _ in row_results}
            assert "k0" not in returned and "k5" not in returned
            assert len(row_results) == 4

    def test_patch_matches_rebuild_over_edited_vectors(self, clustered_vectors):
        vectors, _ = clustered_vectors
        keys = self._keys(len(vectors))
        index = EuclideanLSHIndex(seed=7).build(vectors, keys)
        edited = vectors.copy()
        rng = np.random.default_rng(9)
        dirty = [4, 21, 50]
        edited[dirty] = rng.normal(scale=40.0, size=(len(dirty), vectors.shape[1]))
        index.patch(edited[dirty], [keys[i] for i in dirty])
        rebuilt = EuclideanLSHIndex(seed=7).build(edited, keys)
        # Bucket-identical, not just answer-identical: patch relabels the
        # rows and drops the buckets they emptied.
        assert _buckets(index) == _buckets(rebuilt)
        assert _lookup_sizes(index) == _lookup_sizes(rebuilt)
        queries = edited[::5]
        assert index.query_batch(queries, k=5) == rebuilt.query_batch(queries, k=5)

    def test_compaction_is_bucket_identical_to_rebuild(self, clustered_vectors):
        vectors, _ = clustered_vectors
        keys = self._keys(len(vectors))
        index = EuclideanLSHIndex(seed=8, compaction_load=1.0).build(vectors, keys)
        removed = [f"k{i}" for i in range(0, len(vectors), 4)]
        index.remove(removed)
        index.compact()
        assert index.tombstoned == 0
        alive = [i for i in range(len(vectors)) if f"k{i}" not in set(removed)]
        rebuilt = EuclideanLSHIndex(seed=8).build(vectors[alive], [keys[i] for i in alive])
        assert index.size == rebuilt.size == len(alive)
        assert index.keys == rebuilt.keys
        assert _buckets(index) == _buckets(rebuilt)
        assert _lookup_sizes(index) == _lookup_sizes(rebuilt)

    def test_load_threshold_triggers_automatic_compaction(self, clustered_vectors):
        vectors, _ = clustered_vectors
        keys = self._keys(len(vectors))
        index = EuclideanLSHIndex(seed=9, compaction_load=0.25).build(vectors, keys)
        index.remove(["k0", "k1"])  # 2/60: below the load threshold
        assert index.tombstoned == 2
        index.remove([f"k{i}" for i in range(2, 20)])  # 20/60 > 0.25
        assert index.tombstoned == 0, "crossing the load threshold must compact"
        assert index.size == index.live_size == len(vectors) - 20

    def test_mutation_sequence_matches_rebuild(self, clustered_vectors):
        """remove + patch + extend in one session == rebuild of the end state."""
        vectors, _ = clustered_vectors
        keys = self._keys(len(vectors))
        index = EuclideanLSHIndex(seed=10, compaction_load=1.0).build(vectors[:50], keys[:50])
        edited = vectors.copy()
        edited[7] = edited[7] + 30.0
        index.remove(["k12", "k33"])
        index.patch(edited[7:8], ["k7"])
        index.extend(vectors[50:], keys[50:])
        alive = [i for i in range(len(vectors)) if i not in (12, 33)]
        rebuilt = EuclideanLSHIndex(seed=10).build(edited[alive], [keys[i] for i in alive])
        queries = edited[::6]
        assert index.query_batch(queries, k=5) == rebuilt.query_batch(queries, k=5)
        assert index.live_keys == tuple(keys[i] for i in alive)

    def test_remove_and_patch_validations(self, clustered_vectors):
        vectors, _ = clustered_vectors
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().remove(["a"])
        with pytest.raises(NotFittedError):
            EuclideanLSHIndex().patch(vectors[:1], ["a"])
        with pytest.raises(ValueError):
            EuclideanLSHIndex(compaction_load=0.0)
        index = EuclideanLSHIndex(seed=1).build(vectors, self._keys(len(vectors)))
        with pytest.raises(KeyError):
            index.remove(["unknown"])
        with pytest.raises(KeyError):
            index.patch(vectors[:1], ["unknown"])
        index.remove(["k2"])
        with pytest.raises(KeyError):  # tombstoned keys are gone
            index.patch(vectors[:1], ["k2"])
        with pytest.raises(ValueError):
            index.patch(vectors[:2], ["k0"])  # keys misaligned
        with pytest.raises(ValueError):
            index.patch(np.zeros((1, vectors.shape[1] + 2)), ["k0"])


# ----------------------------------------------------------------------
# Block-at-a-time ranking
# ----------------------------------------------------------------------
def _ranking_table(codec: str):
    """80 clustered rows (with two exact duplicates) as a ``codec`` table."""
    rng = np.random.default_rng(11)
    centres = rng.normal(scale=4.0, size=(5, 10))
    values = centres[rng.integers(0, 5, 80)] + rng.normal(scale=0.5, size=(80, 10))
    values[40] = values[3]  # tied distances
    values[41] = values[3]
    if codec == "raw":
        return values
    return quant.get_codec(codec).encode(values, None)


_RANKING_TABLES = {codec: _ranking_table(codec) for codec in ("raw", "int8", "pq")}
_RANKING_QUERIES = np.concatenate([
    # Near the table (bucket path) and far from it (starved rows).
    _ranking_table("raw")[::3] + np.random.default_rng(12).normal(scale=0.1, size=(27, 10)),
    np.random.default_rng(13).normal(scale=30.0, size=(5, 10)),
])


def _tiny_kernel_blocks(patch: pytest.MonkeyPatch, pairs: int, nbytes: int) -> None:
    """Shrink every internal chunk bound so small inputs cross them."""
    patch.setattr(lsh_module, "_RANK_BLOCK_PAIRS", pairs)
    patch.setattr(lsh_module, "_DIFF_BLOCK_ELEMENTS", nbytes)
    patch.setattr(quant, "_BLOCK_BYTES", nbytes)
    patch.setattr(quant, "_LUT_BYTES", nbytes)


class TestBlockRanking:
    @settings(max_examples=40, deadline=None)
    @given(
        codec=st.sampled_from(["raw", "int8", "pq"]),
        k=st.integers(1, 12),
        width=st.sampled_from([0.5, 4.0]),
        dead=st.sets(st.integers(0, 79), max_size=20),
        cuts=st.sets(st.integers(1, len(_RANKING_QUERIES) - 1), max_size=6),
        block_pairs=st.sampled_from([1, 97, 1 << 20]),
        block_bytes=st.sampled_from([1, 3000, 1 << 22]),
    )
    def test_row_answers_do_not_depend_on_the_block(
        self, codec, k, width, dead, cuts, block_pairs, block_bytes
    ):
        """``query_batch(Q)[i] == query_batch(Q[i:i+1])[0]`` exactly — keys and
        distances — for every split of ``Q``, over raw, int8 and pq (multiprobe)
        tables with tombstones and ``exclude`` keys, whether or not the split
        or the batch crosses the kernels' internal chunk boundaries."""
        keys = [f"k{i}" for i in range(80)]
        index = EuclideanLSHIndex(
            num_tables=4, hash_size=6, bucket_width=width, seed=5, compaction_load=1.0
        ).build(_RANKING_TABLES[codec], keys)
        index.remove([keys[i] for i in sorted(dead)])
        queries = _RANKING_QUERIES
        # Odd rows exclude the table row they were drawn next to.
        exclude = [keys[3 * i % 80] if i % 2 else None for i in range(len(queries))]
        with pytest.MonkeyPatch.context() as patch:
            _tiny_kernel_blocks(patch, block_pairs, block_bytes)
            whole = index.query_batch(queries, k=k, exclude=exclude)
        bounds = [0, *sorted(cuts), len(queries)]
        parts = [
            answer
            for lo, hi in zip(bounds, bounds[1:])
            for answer in index.query_batch(queries[lo:hi], k=k, exclude=exclude[lo:hi])
        ]
        singles = [
            index.query_batch(queries[i : i + 1], k=k, exclude=exclude[i : i + 1])[0]
            for i in range(len(queries))
        ]
        assert whole == parts == singles
        for answer, excluded in zip(whole, exclude):
            assert excluded not in [key for key, _ in answer]
            assert not {key for key, _ in answer} & {keys[i] for i in dead}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_raw_block_kernel_is_bit_equal_to_the_dense_reduction(self, dtype):
        """The CSR kernel against broadcast-subtract + ``einsum`` over all rows."""
        table = _RANKING_TABLES["raw"].astype(dtype)
        queries = _RANKING_QUERIES.astype(dtype)
        diffs = table[None, :, :] - queries[:, None, :]
        dense = np.einsum("bnd,bnd->bn", diffs, diffs)
        rng = np.random.default_rng(14)
        picked = [np.sort(rng.choice(80, size=rng.integers(0, 81), replace=False)) for _ in queries]
        rows = np.concatenate(picked)
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in picked])])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lsh_module, "_DIFF_BLOCK_ELEMENTS", 500)
            flat = lsh_module._raw_sq_distances(queries, table, rows, offsets)
        assert flat.dtype == dense.dtype
        owner = np.repeat(np.arange(len(queries)), np.diff(offsets))
        np.testing.assert_array_equal(flat, dense[owner, rows])

    def test_pq_query_block_scores_only_the_shortlist(self, monkeypatch):
        """One ``query_batch`` over a pq table makes one kernel call per
        ranking block — bucket-ranked and starved rows alike — and that call
        scores only the GEMM shortlist, fewer pairs than the masks hold.  The
        kernel is looked up on the module at call time (the hook the
        benchmark tracer wraps)."""
        scored = []
        original = quant.asymmetric_sq_distances

        def counting(query, table, table_sq_norms=None, candidates=None):
            scored.append(len(candidates[0]))
            return original(query, table, table_sq_norms=table_sq_norms, candidates=candidates)

        monkeypatch.setattr(quant, "asymmetric_sq_distances", counting)
        index = EuclideanLSHIndex(num_tables=4, hash_size=6, seed=5).build(_RANKING_TABLES["pq"])
        counters = engine_counters()
        before = counters.as_dict()
        answers = index.query_batch(_RANKING_QUERIES, k=3)
        after = counters.as_dict()
        starved = after["blocking_fallback_queries"] - before["blocking_fallback_queries"]
        ranked = after["blocking_candidates_ranked"] - before["blocking_candidates_ranked"]
        rescored = after["blocking_candidates_rescored"] - before["blocking_candidates_rescored"]
        assert len(answers) == len(_RANKING_QUERIES)
        assert 0 < starved < len(_RANKING_QUERIES)  # both kinds of row ran
        assert scored == [rescored] and rescored < ranked
        # One query row per block: one call per row, the answers unchanged.
        scored.clear()
        monkeypatch.setattr(lsh_module, "_RANK_BLOCK_PAIRS", index.size)
        assert index.query_batch(_RANKING_QUERIES, k=3) == answers
        assert len(scored) == len(_RANKING_QUERIES)

    def test_query_batch_records_what_blocking_did(self):
        table = _RANKING_TABLES["raw"]
        index = EuclideanLSHIndex(num_tables=4, hash_size=6, seed=5).build(table)
        counters = engine_counters()
        before = counters.as_dict()
        answers = index.query_batch(_RANKING_QUERIES, k=3)
        after = counters.as_dict()
        assert after["blocking_queries"] - before["blocking_queries"] == len(_RANKING_QUERIES)
        fallbacks = after["blocking_fallback_queries"] - before["blocking_fallback_queries"]
        # The five far-away probes collide with nothing and scan every row.
        assert 5 <= fallbacks < len(_RANKING_QUERIES)
        ranked = after["blocking_candidates_ranked"] - before["blocking_candidates_ranked"]
        assert fallbacks * len(table) <= ranked < len(_RANKING_QUERIES) * len(table)
        assert all(len(answer) == 3 for answer in answers)


# ----------------------------------------------------------------------
# Raw ranking against a brute-force reference
# ----------------------------------------------------------------------
def _reference_answers(index, queries, k, exclude):
    """Every bucket candidate (every live row when fewer than the ranked
    ``k``), scored by the table's per-pair kernel — :func:`_raw_sq_distances`
    or the asymmetric kernel's CSR form — and ordered by (distance, row): no
    shortlist.  Code tables rank ``rank_expansion * k`` rows per query and
    probe their ``extra_probes`` neighbour buckets.

    Membership is recomputed from the stored vectors' bucket ids and the
    queries' probed ones, so the reference does not share the index's
    bucket representation."""
    expansion, probes = index._query_policy()
    k *= expansion
    live_keys = set(index.live_keys)
    live = [row for row, key in enumerate(index.keys) if key in live_keys]
    stored_ids = index._bucket_ids(index._vectors)
    scaled = index._scaled_projections(queries)
    probed = [np.floor(scaled).astype(np.int64)]
    probed += index._probe_ids(scaled, probed[0], probes)
    answers = []
    for i in range(len(queries)):
        collides = np.zeros(index.size, dtype=bool)
        for ids in probed:
            collides |= (stored_ids == ids[:, i : i + 1]).all(axis=2).any(axis=0)
        found = [row for row in live if collides[row]]
        rows = np.asarray(found if len(found) >= k else live, dtype=np.intp)
        candidates = (rows, np.asarray([0, len(rows)]))
        if isinstance(index._vectors, quant.CodecArray):
            squared = quant.asymmetric_sq_distances(
                queries[i : i + 1], index._vectors, candidates=candidates
            )
        else:
            squared = lsh_module._raw_sq_distances(queries[i : i + 1], index._vectors, *candidates)
        distances = np.sqrt(squared).tolist()
        answer = []
        for position in sorted(range(len(rows)), key=lambda j: (distances[j], rows[j])):
            key = index.keys[rows[position]]
            if key != exclude[i]:
                answer.append((key, distances[position]))
        answers.append(answer[:k])
    return answers


def _as_bytes(answers):
    return [[(key, np.float64(distance).tobytes()) for key, distance in row] for row in answers]


@st.composite
def _raw_ranking_cases(draw):
    """A float table with duplicated rows and, at large norm, near-ties whose
    ``|q|^2 + |x|^2 - 2 q.x`` cancels; queries near it and far from it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    dtype, query_dtype = (draw(st.sampled_from([np.float64, np.float32])) for _ in range(2))
    n, dim = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        # Rows at 1e4 apart by multiples of a tiny offset: in float32 most
        # collapse into exact ties.
        offset = draw(st.sampled_from([1e-9, 1e-3]))
        table = 1e4 + offset * rng.integers(-3, 4, size=(n, dim))
        noise = offset
    else:
        table = rng.normal(size=(n, dim))
        noise = 0.1
    for row in rng.integers(0, n, size=draw(st.integers(0, n))):
        table[row] = table[rng.integers(0, n)]  # exact duplicates: exact ties
    near = table[rng.integers(0, n, size=draw(st.integers(1, 12)))]
    near = near + noise * rng.integers(-2, 3, size=near.shape)
    far = table.mean(axis=0) + rng.normal(scale=50.0, size=(draw(st.integers(0, 3)), dim))
    return table.astype(dtype), np.concatenate([near, far]).astype(query_dtype)


class TestRawRankingMatchesBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(
        case=_raw_ranking_cases(),
        k=st.integers(1, 34),
        width=st.sampled_from([0.01, 1.0, 1e6]),
        dead_share=st.sampled_from([0.0, 0.3, 0.9]),
        excluding=st.booleans(),
        block_pairs=st.sampled_from([1, 37, 1 << 20]),
    )
    def test_query_batch_equals_the_full_candidate_reference(
        self, case, k, width, dead_share, excluding, block_pairs
    ):
        """Keys and distance bytes of ``query_batch`` equal the reference for
        fp64 and fp32 tables and queries, exact ties and cancelling near-ties,
        tombstones, ``exclude``, starved rows and ``k`` above the live rows."""
        table, queries = case
        keys = [f"k{i}" for i in range(len(table))]
        index = EuclideanLSHIndex(
            num_tables=3, hash_size=4, bucket_width=width, seed=9, compaction_load=1.0
        ).build(table, keys)
        dead = keys[: int(dead_share * len(keys))]
        if dead:
            index.remove(dead)
        exclude = [keys[(3 * i) % len(keys)] if excluding else None for i in range(len(queries))]
        counters = engine_counters()
        before = counters.as_dict()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lsh_module, "_RANK_BLOCK_PAIRS", block_pairs)
            answers = index.query_batch(queries, k=k, exclude=exclude)
        after = counters.as_dict()
        assert _as_bytes(answers) == _as_bytes(_reference_answers(index, queries, k, exclude))
        rescored = after["blocking_candidates_rescored"] - before["blocking_candidates_rescored"]
        ranked = after["blocking_candidates_ranked"] - before["blocking_candidates_ranked"]
        assert min(k, index.live_size) * len(queries) <= rescored <= ranked


@st.composite
def _code_ranking_cases(draw):
    """A raw ranking case encoded as an int8 or pq table, with decoded rows
    among the queries.  Optionally one coarse dimension and fine ones: int8's
    float32 norm term then rounds away the fine gaps, so a decoded row's
    neighbours score around zero and many clip to it (exact ties)."""
    table, queries = draw(_raw_ranking_cases())
    table = table.astype(np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        table[:, 0] = rng.normal(scale=1e3, size=2)[rng.integers(0, 2, size=len(table))]
        fine = 10.0 ** rng.uniform(-3, -1)
        table[:, 1:] = rng.normal(scale=fine, size=(len(table), table.shape[1] - 1))
    codes = quant.get_codec(draw(st.sampled_from(["int8", "pq"]))).encode(table, None)
    decoded = codes[rng.integers(0, len(table), size=draw(st.integers(1, 4)))]
    return codes, np.concatenate([queries, decoded.astype(queries.dtype)])


@st.composite
def _bound_cases(draw):
    """Adversarial tables for the GEMM interval, in every table kind: rows
    around 1e4 (a large int8 offset; large norms with tiny gaps) or at a
    drawn scale, queried at stored rows exactly, next to them and far away."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n, dim = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["offset", "gaps", "scaled"]))
    if kind == "offset":
        values = 1e4 + rng.normal(scale=1e-3, size=(n, dim))
    elif kind == "gaps":
        values = 1e4 + 1e-3 * rng.integers(-3, 4, size=(n, dim))
    else:
        values = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(n, dim))
    codec = draw(st.sampled_from(["raw", "fp32", "int8", "pq"]))
    if codec == "raw":
        table = stored = values
    elif codec == "fp32":
        table = values.astype(np.float32)
        stored = table.astype(np.float64)
    else:
        table = quant.get_codec(codec).encode(values, None)
        stored = table.decode()
    picked = stored[rng.integers(0, n, size=6)]
    spread = np.abs(values - values.mean(axis=0)).max() + 1e-12
    queries = np.concatenate([
        picked,
        picked + 1e-6 * spread * rng.normal(size=picked.shape),
        values.mean(axis=0) + 30.0 * spread * rng.normal(size=(2, dim)),
    ])
    return table, queries


class TestCodeRankingMatchesBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(
        case=_code_ranking_cases(),
        k=st.integers(1, 20),
        width=st.sampled_from([0.01, 1.0, 1e6]),
        dead_share=st.sampled_from([0.0, 0.3, 0.9]),
        excluding=st.booleans(),
        block_pairs=st.sampled_from([1, 37, 1 << 20]),
        block_bytes=st.sampled_from([1, 3000, 1 << 22]),
    )
    def test_query_batch_equals_the_full_candidate_reference(
        self, case, k, width, dead_share, excluding, block_pairs, block_bytes
    ):
        """Keys and distance bytes of ``query_batch`` over int8 and pq tables
        equal the reference that runs the asymmetric kernel on every mask
        candidate: exact ties (duplicated rows), near-ties at norm 1e4,
        queries equal to decoded rows, tombstones, ``exclude``, starved rows
        and ``k`` above the live rows, across the kernels' chunk bounds."""
        table, queries = case
        keys = [f"k{i}" for i in range(len(table))]
        index = EuclideanLSHIndex(
            num_tables=3, hash_size=4, bucket_width=width, seed=9, compaction_load=1.0
        ).build(table, keys)
        dead = keys[: int(dead_share * len(keys))]
        if dead:
            index.remove(dead)
        exclude = [keys[(3 * i) % len(keys)] if excluding else None for i in range(len(queries))]
        counters = engine_counters()
        before = counters.as_dict()
        with pytest.MonkeyPatch.context() as patch:
            _tiny_kernel_blocks(patch, block_pairs, block_bytes)
            answers = index.query_batch(queries, k=k, exclude=exclude)
            reference = _reference_answers(index, queries, k, exclude)
        after = counters.as_dict()
        assert _as_bytes(answers) == _as_bytes(reference)
        rescored = after["blocking_candidates_rescored"] - before["blocking_candidates_rescored"]
        ranked = after["blocking_candidates_ranked"] - before["blocking_candidates_ranked"]
        ranked_k = k * index._query_policy()[0]
        assert min(ranked_k, index.live_size) * len(queries) <= rescored <= ranked

    def test_int8_rows_the_kernel_clips_to_zero_tie_by_row(self):
        """One coarse dimension and fine ones: int8's float32 norm term
        outweighs the fine gaps, so a decoded row's neighbours score below
        zero and the kernel clips them to it — exact ties, which the
        shortlist keeps whole only because its upper ends clip too."""
        rng = np.random.default_rng(21)
        ties = 0
        for _ in range(20):
            n, dim = int(rng.integers(8, 30)), int(rng.integers(2, 6))
            values = rng.normal(scale=10.0 ** rng.uniform(-3, -1), size=(n, dim))
            values[:, 0] = rng.normal(scale=1e3, size=2)[rng.integers(0, 2, size=n)]
            table = quant.get_codec("int8").encode(values, None)
            index = EuclideanLSHIndex(num_tables=3, hash_size=4, bucket_width=1e6, seed=9).build(
                table, [f"k{i}" for i in range(n)]
            )
            queries = table[rng.integers(0, n, size=4)]
            for k in (1, 2, 3):
                answers = index.query_batch(queries, k=k)
                reference = _reference_answers(index, queries, k, [None] * len(queries))
                assert _as_bytes(answers) == _as_bytes(reference)
                ties += sum(distance == 0.0 for answer in answers for _, distance in answer[1:])
        assert ties  # the construction reaches the clip

    @settings(max_examples=200, deadline=None)
    @given(case=_bound_cases(), block_pairs=st.sampled_from([1, 50, 1 << 20]))
    def test_gemm_interval_holds_every_kernel_distance(self, case, block_pairs):
        """``G - B <= K <= max(G + B, 0)`` for every (query, stored row) pair,
        ``K`` the table's exact kernel: the bound the shortlist rests on,
        for float64, float32, int8 and pq tables."""
        table, queries = case
        index = EuclideanLSHIndex(num_tables=2, hash_size=3, seed=3).build(table)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lsh_module, "_RANK_BLOCK_PAIRS", block_pairs)
            approx, bound = index._intervals(queries)
        size = index.size
        rows = np.tile(np.arange(size), len(queries))
        offsets = np.arange(len(queries) + 1) * size
        kernel = index._kernel(queries, rows, offsets).reshape(len(queries), size)
        assert np.all(approx - bound <= kernel)
        assert np.all(kernel <= np.maximum(approx + bound, 0.0))


# ----------------------------------------------------------------------
# Mutation sequences against a rebuild
# ----------------------------------------------------------------------
_SEQUENCE_DIM = 5
_SEQUENCE_CENTRES = np.random.default_rng(15).normal(scale=3.0, size=(4, _SEQUENCE_DIM))


def _sequence_rows(rng, count, codec):
    """``count`` clustered rows in the dtype ``codec`` stores or patches with."""
    rows = _SEQUENCE_CENTRES[rng.integers(0, 4, count)] + rng.normal(
        scale=0.6, size=(count, _SEQUENCE_DIM)
    )
    return rows.astype(np.float32) if codec == "fp32" else rows


def _sequence_index(width):
    return EuclideanLSHIndex(
        num_tables=3, hash_size=4, bucket_width=width, seed=16, compaction_load=0.3
    )


class TestMutationSequences:
    @settings(max_examples=80, deadline=None)
    @given(
        codec=st.sampled_from(["fp64", "fp32", "int8"]),
        seed=st.integers(0, 2 ** 16),
        width=st.sampled_from([0.7, 1.5]),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["extend", "remove", "patch", "compact", "pickle"]),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_every_step_answers_like_a_rebuild(self, codec, seed, width, steps):
        """After each ``extend`` / ``remove`` (crossing ``compaction_load``) /
        ``patch`` / ``compact`` / pickle round trip, ``query_batch`` keys and
        distance bytes equal those of a fresh build over the live vectors in
        ``live_keys`` order; whenever nothing is tombstoned (after every
        compaction, too) the buckets and each lookup's size equal the
        rebuild's, so neither a reused label nor a kept empty bucket hides."""
        rng = np.random.default_rng(seed)
        start = _sequence_rows(rng, 12, codec)
        # The mirror of what the index stores: every stored row, dead ones
        # included, in the same representation (int8 codes under fixed params).
        stored = quant.get_codec("int8").encode(start, None) if codec == "int8" else start
        keys = [f"k{i}" for i in range(len(start))]
        alive = [True] * len(keys)
        # The index stores float tables zero-copy: give it its own rows.
        own = stored.take_rows(np.arange(len(keys))) if codec == "int8" else stored.copy()
        index = _sequence_index(width).build(own, keys)
        for step, count in steps:
            live = [row for row, flag in enumerate(alive) if flag]
            if step == "extend":
                rows = _sequence_rows(rng, count, codec)
                if codec == "int8":
                    stored = stored.concat_rows(rows)
                else:
                    stored = np.concatenate([stored, rows])
                new_keys = [f"k{len(keys) + i}" for i in range(count)]
                keys.extend(new_keys)
                alive.extend([True] * count)
                index.extend(rows, new_keys)
            elif step == "remove":
                doomed = rng.permutation(live)[: min(count, len(live) - 2)].tolist()
                for row in doomed:
                    alive[row] = False
                index.remove([keys[row] for row in doomed])
            elif step == "patch":
                edited = sorted(rng.permutation(live)[:count].tolist())
                rows = _sequence_rows(rng, len(edited), codec)
                # Half the patches move every other row far away, into
                # buckets no row holds yet.
                rows[::2] += rng.choice([0.0, 25.0])
                if codec == "int8":
                    # Edited rows arrive as codes under the table's params,
                    # as the executor hands them over.
                    rows = quant.CodecArray(stored.encode_rows(rows), stored.params)
                    stored.codes[edited] = rows.codes
                else:
                    stored[edited] = rows
                index.patch(rows, [keys[row] for row in edited])
            elif step == "compact":
                index.compact()
            else:
                index = pickle.loads(pickle.dumps(index))
            live = [row for row, flag in enumerate(alive) if flag]
            live_stored = stored.take_rows(live) if codec == "int8" else stored[live]
            rebuilt = _sequence_index(width).build(
                live_stored, [keys[row] for row in live]
            )
            assert index.live_keys == rebuilt.keys
            queries = np.concatenate([
                _sequence_rows(rng, 6, "fp64"),
                rng.normal(scale=40.0, size=(2, _SEQUENCE_DIM)),
            ])
            k = int(rng.integers(1, 9))
            assert _as_bytes(index.query_batch(queries, k=k)) == _as_bytes(
                rebuilt.query_batch(queries, k=k)
            ), step
            if index.tombstoned == 0:
                assert _buckets(index) == _buckets(rebuilt), step
                assert _lookup_sizes(index) == _lookup_sizes(rebuilt), step
                assert index.bucket_statistics() == rebuilt.bucket_statistics()

"""Property-based equivalence: loop, vectorized and sharded scoring agree.

The engine's one non-negotiable invariant is that every scoring path —
the legacy per-pair Python loop, the store's vectorized gather, and gathers
through row-range shard slices — computes the *same numbers*.  These tests
pin that equivalence to 1e-9 over randomized tables and pair sets, including
the degenerate shapes (empty pair sets, single-row tables) where indexing
bugs hide.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import VAEConfig
from repro.core.active.sampler import pair_latent_distances
from repro.core.representation import EntityRepresentationModel
from repro.data.pairs import RecordPair
from repro.data.schema import ERTask, Record, Table
from repro.engine import EncodingStore, shard_bounds_for
from repro.eval.timing import EngineCounters

ATOL = 1e-9


def _random_task(rng: np.random.Generator, left_rows: int, right_rows: int, name: str) -> ERTask:
    """A small random 2-attribute task with overlapping token vocabulary."""
    words = ["ada", "byte", "code", "data", "eval", "flux", "graph", "heap",
             "index", "join", "key", "latch", "merge", "node"]

    def record(side: str, i: int) -> Record:
        tokens = " ".join(rng.choice(words, size=3))
        number = f"{rng.uniform(1, 99):.1f}"
        return Record(record_id=f"{side}{i}", values=(tokens, number))

    left = Table(name=f"{name}_left", attributes=("text", "value"),
                 records=[record("l", i) for i in range(left_rows)])
    right = Table(name=f"{name}_right", attributes=("text", "value"),
                  records=[record("r", i) for i in range(right_rows)])
    return ERTask(name=name, left=left, right=right)


def _fit_store(task: ERTask) -> EncodingStore:
    config = VAEConfig(ir_dim=8, hidden_dim=12, latent_dim=4, epochs=1, seed=7)
    representation = EntityRepresentationModel(config, ir_method="lsa").fit(task)
    return EncodingStore(representation, task, counters=EngineCounters())


def _sharded_latent_distances(store: EncodingStore, pairs, slice_rows: int) -> np.ndarray:
    """Score pairs by gathering mu rows *through row-range shard slices*.

    Each referenced row is fetched from the ``slice_rows``-row slice that
    owns it (at its shard-local row), proving the row-range decomposition
    loses no information relative to the contiguous cached arrays.
    """
    if not pairs:
        return np.zeros(0)

    def gather_mu(side: str, record_ids) -> np.ndarray:
        full = store.table_encodings(side)
        bounds = shard_bounds_for(side, len(full), slice_rows)
        shards = [full.mu[b.start : b.stop] for b in bounds]
        rows = []
        for rid in record_ids:
            global_row = full.row_index[rid]
            owner = bounds[global_row // slice_rows]
            rows.append(shards[owner.index][global_row - owner.start])
        return np.stack(rows)

    mu_left = gather_mu("left", [p.left_id for p in pairs])
    mu_right = gather_mu("right", [p.right_id for p in pairs])
    return np.sqrt(((mu_left - mu_right) ** 2).sum(axis=-1)).mean(axis=-1)


# ----------------------------------------------------------------------
# Hypothesis: randomized pair sets over a fixed fitted store
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixed_store(tiny_domain, tiny_representation):
    return EncodingStore(tiny_representation, tiny_domain.task, counters=EngineCounters())


class TestRandomizedPairSets:
    @given(indices=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 35)), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_three_paths_agree_on_random_pairs(
        self, fixed_store, tiny_domain, tiny_representation, pair_distance_loop, indices
    ):
        left_ids = tiny_domain.task.left.record_ids()
        right_ids = tiny_domain.task.right.record_ids()
        pairs = [RecordPair(left_ids[i], right_ids[j]) for i, j in indices]

        vectorized = fixed_store.pair_latent_distances(pairs)
        loop = pair_distance_loop(tiny_domain.task, tiny_representation, pairs)
        sharded = _sharded_latent_distances(fixed_store, pairs, 7)

        assert vectorized.shape == loop.shape == sharded.shape == (len(pairs),)
        np.testing.assert_allclose(vectorized, loop, atol=ATOL)
        np.testing.assert_allclose(sharded, loop, atol=ATOL)

    @given(indices=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 35)), max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_wasserstein_matches_gathered_latents(self, fixed_store, tiny_domain, indices):
        """pair_tuple_wasserstein equals recomputing from the gathered latents."""
        left_ids = tiny_domain.task.left.record_ids()
        right_ids = tiny_domain.task.right.record_ids()
        pairs = [RecordPair(left_ids[i], right_ids[j]) for i, j in indices]
        scores = fixed_store.pair_tuple_wasserstein(pairs)
        mu_l, sigma_l, mu_r, sigma_r = fixed_store.gather_pair_latents(pairs)
        expected = ((mu_l - mu_r) ** 2 + (sigma_l - sigma_r) ** 2).sum(axis=-1).mean(axis=-1)
        np.testing.assert_allclose(scores, expected, atol=ATOL)


# ----------------------------------------------------------------------
# Randomized tables (parametrized seeds), degenerate shapes included
# ----------------------------------------------------------------------
class TestRandomizedTables:
    @pytest.mark.parametrize("seed,left_rows,right_rows,slice_rows", [
        (0, 6, 9, 4),
        (1, 12, 5, 3),
        (2, 9, 12, 100),  # one shard spanning everything
    ])
    def test_random_tables_agree(self, seed, left_rows, right_rows, slice_rows, pair_distance_loop):
        rng = np.random.default_rng(seed)
        task = _random_task(rng, left_rows, right_rows, f"rand{seed}")
        store = _fit_store(task)
        pairs = [
            RecordPair(f"l{rng.integers(left_rows)}", f"r{rng.integers(right_rows)}")
            for _ in range(25)
        ]
        vectorized = pair_latent_distances(task, store.representation, pairs, store=store)
        loop = pair_distance_loop(task, store.representation, pairs)
        sharded = _sharded_latent_distances(store, pairs, slice_rows)
        np.testing.assert_allclose(vectorized, loop, atol=ATOL)
        np.testing.assert_allclose(sharded, loop, atol=ATOL)

    def test_single_row_tables(self, pair_distance_loop):
        rng = np.random.default_rng(5)
        task = _random_task(rng, 1, 1, "single")
        store = _fit_store(task)
        pairs = [RecordPair("l0", "r0")] * 3  # repeated references to the only row
        vectorized = store.pair_latent_distances(pairs)
        loop = pair_distance_loop(task, store.representation, pairs)
        sharded = _sharded_latent_distances(store, pairs, 4)
        assert len(shard_bounds_for("left", 1, 4)) == 1
        np.testing.assert_allclose(vectorized, loop, atol=ATOL)
        np.testing.assert_allclose(sharded, loop, atol=ATOL)

    def test_empty_pair_set(self, pair_distance_loop):
        rng = np.random.default_rng(6)
        task = _random_task(rng, 3, 3, "emptypairs")
        store = _fit_store(task)
        assert store.pair_latent_distances([]).shape == (0,)
        assert pair_distance_loop(task, store.representation, []).shape == (0,)
        assert _sharded_latent_distances(store, [], 2).shape == (0,)
        left, right, labels = store.pair_ir_arrays([])
        assert left.shape[0] == right.shape[0] == labels.shape[0] == 0

    def test_shard_views_reassemble_to_full_arrays(self):
        """Concatenating every shard slice reproduces the cached arrays exactly."""
        rng = np.random.default_rng(8)
        task = _random_task(rng, 11, 7, "reassemble")
        store = _fit_store(task)
        for side in ("left", "right"):
            full = store.table_encodings(side)
            bounds = shard_bounds_for(side, len(full), 3)
            assert sum(b.rows for b in bounds) == len(full)
            for name in ("irs", "mu", "sigma"):
                array = getattr(full, name)
                slices = [array[b.start : b.stop] for b in bounds]
                np.testing.assert_array_equal(np.concatenate(slices), array)
                # Slices share memory with the cache — sharding copies nothing.
                assert all(np.shares_memory(piece, array) for piece in slices)
            assert tuple(k for b in bounds for k in full.keys[b.start : b.stop]) == full.keys

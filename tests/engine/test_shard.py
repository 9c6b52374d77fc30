"""Row-range bounds, shard loads of the persistent cache and parallel resolve behaviour."""

import numpy as np
import pytest

from repro.config import MatcherConfig, VAERConfig, VAEConfig
from repro.core import VAER
from repro.data.pairs import RecordPair
from repro.engine import (
    EncodingStore,
    PersistentEncodingCache,
    ScoredPairs,
    merge_scored_batches,
    resolve,
    shard_bounds_for,
)
from repro.eval.timing import EngineCounters, StageTimings
from repro.exceptions import StaleEncodingError


@pytest.fixture(scope="module")
def sharded_pipeline(tiny_domain):
    config = VAERConfig(
        vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=3, seed=3),
        matcher=MatcherConfig(epochs=10, mlp_hidden=(24, 12), seed=5),
    )
    model = VAER(config).fit_representation(tiny_domain.task)
    model.fit_matcher(tiny_domain.splits.train, tiny_domain.splits.validation)
    return model


class TestShardViews:
    def test_bounds_cover_table_in_order(self, tiny_domain):
        bounds = shard_bounds_for("left", len(tiny_domain.task.left), 16)
        assert bounds[0].start == 0
        assert bounds[-1].stop == len(tiny_domain.task.left)
        for previous, current in zip(bounds, bounds[1:]):
            assert previous.stop == current.start
        assert all(b.rows <= 16 for b in bounds)
        assert [b.index for b in bounds] == list(range(len(bounds)))
        with pytest.raises(ValueError):
            shard_bounds_for("left", len(tiny_domain.task.left), 0)

    def test_shard_local_row_index(self, tiny_domain, tiny_representation, tmp_path):
        """A shard loaded by row range addresses its own rows 0..len-1 by
        the original keys."""
        cache = PersistentEncodingCache(tmp_path / "cache", chunk_rows=16)
        store = EncodingStore(
            tiny_representation, tiny_domain.task, counters=EngineCounters(),
            persistent=cache,
        )
        full = store.table_encodings("left")
        shard = cache.load_range(
            tiny_domain.task.name, "left", tiny_representation.encoding_version,
            store.table_fingerprint("left"), 16, 32,
        )
        assert len(shard.keys) == 16
        for local_row, key in enumerate(shard.keys):
            assert shard.row_index[key] == local_row
            np.testing.assert_array_equal(shard.mu[local_row], full.mu[full.row_index[key]])


class TestResolveSharded:
    def test_rejects_bad_arguments_eagerly(self, sharded_pipeline):
        store, matcher = sharded_pipeline.store, sharded_pipeline.matcher
        with pytest.raises(ValueError):
            resolve(store, matcher, batch_size=0, workers=2).run()
        with pytest.raises(ValueError):
            resolve(store, matcher, batch_size=8, workers=0).run()

    def test_incremental_fills_a_stage_timings_sink(self, sharded_pipeline):
        """The one executor accounts every batch in every mode: an
        incremental run fills the sink exactly like a cold one."""
        sink = StageTimings()
        batches = list(
            sharded_pipeline.resolve_stream(k=5, batch_size=13, incremental=True, stage_timings=sink)
        )
        assert batches and sink.units("score") == len(batches)
        assert sink.counter("pairs_rescored") == len(merge_scored_batches(batches))

    def test_timing_sinks_do_not_change_what_the_store_does(self, sharded_pipeline, tiny_domain):
        """Observability arguments must not decide when the store encodes:
        the counters after a drained resolve are the same with and without
        ``stage_timings``."""
        def drained(**sinks):
            store = EncodingStore(
                sharded_pipeline.representation, tiny_domain.task,
                counters=EngineCounters(),
            )
            list(resolve(store, sharded_pipeline.matcher, k=5, batch_size=13, **sinks).run())
            return store.stats()

        assert drained(stage_timings=StageTimings()) == drained()

    def test_single_worker_equals_stream(self, sharded_pipeline):
        streamed = merge_scored_batches(
            resolve(sharded_pipeline.store, sharded_pipeline.matcher, k=5, batch_size=13).run()
        )
        serial = merge_scored_batches(
            resolve(
                sharded_pipeline.store, sharded_pipeline.matcher, k=5, batch_size=13, workers=1,
            ).run()
        )
        assert [p.key() for p in serial.pairs] == [p.key() for p in streamed.pairs]
        np.testing.assert_array_equal(serial.probabilities, streamed.probabilities)

    def test_interleaved_parallel_streams_do_not_cross_wires(self, sharded_pipeline):
        """Two concurrent sharded resolves over one process stay independent."""
        first = sharded_pipeline.resolve_stream(k=5, batch_size=13, workers=2)
        second = sharded_pipeline.resolve_stream(k=5, batch_size=13, workers=2)
        batches = []
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.probabilities, b.probabilities)
            batches.append(a)
        reference = merge_scored_batches(
            resolve(sharded_pipeline.store, sharded_pipeline.matcher, k=5, batch_size=13).run()
        )
        merged = merge_scored_batches(batches)
        np.testing.assert_array_equal(
            merged.probabilities, reference.probabilities[: len(merged)]
        )

    def test_mid_stream_invalidation_raises(self, tiny_domain):
        config = VAERConfig(
            vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=2, seed=3),
            matcher=MatcherConfig(epochs=5, mlp_hidden=(24, 12), seed=5),
        )
        model = VAER(config).fit_representation(tiny_domain.task)
        model.fit_matcher(tiny_domain.splits.train)
        stream = model.resolve_stream(k=5, batch_size=13, workers=2)
        next(iter(stream))
        model.representation.fit(tiny_domain.task, epochs=1)
        with pytest.raises(StaleEncodingError):
            for _ in stream:
                pass


class TestMergeScoredBatches:
    def test_out_of_order_batches_merge_by_index(self):
        def batch(index, ids, probs):
            from repro.engine import ResolutionBatch

            return ResolutionBatch(
                pairs=[RecordPair(f"l{i}", f"r{i}") for i in ids],
                probabilities=np.asarray(probs),
                threshold=0.5,
                batch_index=index,
            )

        merged = merge_scored_batches(
            [batch(2, [4, 5], [0.9, 0.1]), batch(0, [0, 1], [0.2, 0.8]), batch(1, [2, 3], [0.6, 0.4])]
        )
        assert [p.left_id for p in merged.pairs] == ["l0", "l1", "l2", "l3", "l4", "l5"]
        np.testing.assert_allclose(merged.probabilities, [0.2, 0.8, 0.6, 0.4, 0.9, 0.1])

    def test_empty_merge(self):
        merged = merge_scored_batches([])
        assert len(merged) == 0
        assert merged.probabilities.shape == (0,)
        assert merged.threshold == 0.5

    def test_mismatched_thresholds_rejected(self):
        a = ScoredPairs(pairs=[RecordPair("a", "b")], probabilities=np.array([0.4]), threshold=0.5)
        b = ScoredPairs(pairs=[RecordPair("c", "d")], probabilities=np.array([0.6]), threshold=0.7)
        with pytest.raises(ValueError):
            merge_scored_batches([a, b])

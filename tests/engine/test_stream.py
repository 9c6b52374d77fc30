"""Streaming resolution: bounded batches, equivalence with monolithic resolve."""

import numpy as np
import pytest

from repro.config import MatcherConfig, VAERConfig, VAEConfig
from repro.core import VAER
from repro.data.pairs import RecordPair
from repro.engine import EncodingStore, ScoredPairs, resolve
from repro.eval.timing import EngineCounters
from repro.exceptions import StaleEncodingError


@pytest.fixture(scope="module")
def resolved_pipeline(tiny_domain):
    config = VAERConfig(
        vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=4, seed=3),
        matcher=MatcherConfig(epochs=15, mlp_hidden=(24, 12), seed=5),
    )
    model = VAER(config).fit_representation(tiny_domain.task)
    model.fit_matcher(tiny_domain.splits.train, tiny_domain.splits.validation)
    return model


class TestCandidateStream:
    def test_covers_same_pairs_as_monolithic_blocking(self, resolved_pipeline, tiny_domain):
        """One-row query chunks enumerate the monolithic candidates."""
        monolithic = resolved_pipeline.candidate_pairs(k=5)
        store = EncodingStore(
            resolved_pipeline.representation, tiny_domain.task, counters=EngineCounters()
        )
        streamed = [
            pair
            for batch in resolve(
                store, resolved_pipeline.matcher, blocking=resolved_pipeline.config.blocking,
                k=5, batch_size=7,
            ).run()
            for pair in batch.pairs
        ]
        assert [p.key() for p in streamed] == [p.key() for p in monolithic]


class TestResolveStream:
    def test_matches_monolithic_resolve(self, resolved_pipeline):
        monolithic = resolved_pipeline.resolve(k=5)
        pairs, probabilities = [], []
        for batch in resolved_pipeline.resolve_stream(k=5, batch_size=13):
            pairs.extend(batch.pairs)
            probabilities.append(batch.probabilities)
        probabilities = np.concatenate(probabilities)
        assert [p.key() for p in pairs] == [p.key() for p in monolithic.pairs]
        np.testing.assert_allclose(probabilities, monolithic.probabilities, atol=1e-8)

    def test_batches_are_bounded(self, resolved_pipeline):
        batch_sizes = [len(batch) for batch in resolved_pipeline.resolve_stream(k=5, batch_size=13)]
        assert all(size <= 13 for size in batch_sizes)
        assert all(size == 13 for size in batch_sizes[:-1])  # only the tail is short

    def test_batch_indices_sequential(self, resolved_pipeline):
        indices = [batch.batch_index for batch in resolved_pipeline.resolve_stream(k=5, batch_size=13)]
        assert indices == list(range(len(indices)))

    def test_batch_matches_respect_threshold(self, resolved_pipeline):
        for batch in resolved_pipeline.resolve_stream(k=5, batch_size=13):
            expected = sum(p > batch.threshold for p in batch.probabilities)
            assert len(batch.matches()) == expected

    def test_rejects_bad_batch_size_eagerly(self, resolved_pipeline, tiny_domain):
        store = EncodingStore(
            resolved_pipeline.representation, tiny_domain.task, counters=EngineCounters()
        )
        # The error must surface at call time, not on first iteration.
        with pytest.raises(ValueError):
            resolve(store, resolved_pipeline.matcher, batch_size=0).run()


class TestResolveStreamEdgeCases:
    def test_batch_size_one(self, resolved_pipeline):
        """The extreme chunking still covers the monolithic resolution exactly."""
        monolithic = resolved_pipeline.resolve(k=5)
        batches = list(resolved_pipeline.resolve_stream(k=5, batch_size=1))
        assert all(len(batch) == 1 for batch in batches)
        assert [b.pairs[0].key() for b in batches] == [p.key() for p in monolithic.pairs]
        probabilities = np.concatenate([b.probabilities for b in batches])
        np.testing.assert_allclose(probabilities, monolithic.probabilities, atol=1e-8)

    def test_k_larger_than_right_table(self, resolved_pipeline, tiny_domain):
        """Top-K clamps to the table size instead of failing or padding."""
        n_right = len(tiny_domain.task.right)
        k = n_right + 25
        pairs = [p for b in resolved_pipeline.resolve_stream(k=k, batch_size=64) for p in b.pairs]
        assert pairs, "oversized k must still produce candidates"
        per_query = {}
        for pair in pairs:
            per_query.setdefault(pair.left_id, []).append(pair.right_id)
        for neighbours in per_query.values():
            assert len(neighbours) <= n_right
            assert len(set(neighbours)) == len(neighbours)  # no duplicate fill

    def test_query_chunk_larger_than_left_table(self, resolved_pipeline, tiny_domain):
        """One oversized chunk equals the many-small-chunks enumeration."""
        rows = len(tiny_domain.task.left)

        def walk(query_chunk):
            executor = resolve(
                resolved_pipeline.store, resolved_pipeline.matcher,
                blocking=resolved_pipeline.config.blocking, k=5, batch_size=5 * query_chunk,
            )
            assert executor.plan.query_chunk == query_chunk
            return [p.key() for batch in executor.run() for p in batch.pairs]

        assert walk(10 * rows) == walk(3)

    def test_store_invalidated_mid_stream_raises(self, tiny_domain):
        """A version bump mid-stream must raise, not silently serve stale scores."""
        config = VAERConfig(
            vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=2, seed=3),
            matcher=MatcherConfig(epochs=5, mlp_hidden=(24, 12), seed=5),
        )
        model = VAER(config).fit_representation(tiny_domain.task)
        model.fit_matcher(tiny_domain.splits.train)
        stream = model.resolve_stream(k=5, batch_size=13)
        first = next(iter(stream))
        assert len(first) == 13
        # Refitting bumps encoding_version: continuing would mix two encoders.
        model.representation.fit(tiny_domain.task, epochs=1)
        with pytest.raises(StaleEncodingError):
            next(stream)

    def test_candidate_stream_invalidation_raises(self, tiny_domain):
        """The query walk also refuses to span a version bump: with one
        batch per query chunk, the next batch first needs the next chunk."""
        config = VAERConfig(
            vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=2, seed=3),
            matcher=MatcherConfig(epochs=5, mlp_hidden=(24, 12), seed=5),
        )
        model = VAER(config).fit_representation(tiny_domain.task)
        model.fit_matcher(tiny_domain.splits.train)
        store = EncodingStore(
            model.representation, tiny_domain.task, counters=EngineCounters()
        )
        stream = resolve(store, model.matcher, k=5, batch_size=8 * 5).run()
        next(stream)
        model.representation.fit(tiny_domain.task, epochs=1)
        with pytest.raises(StaleEncodingError):
            next(stream)


class TestMatchThresholdBoundary:
    """Pin the strict `p > threshold` predicate on both resolution paths."""

    def _scored(self, threshold):
        pairs = [RecordPair("l0", "r0"), RecordPair("l1", "r1"), RecordPair("l2", "r2")]
        probabilities = np.array([threshold - 1e-12, threshold, np.nextafter(threshold, 1.0)])
        return ScoredPairs(pairs=pairs, probabilities=probabilities, threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.5, 0.7])
    def test_probability_equal_to_threshold_is_not_a_match(self, threshold):
        scored = self._scored(threshold)
        matched = scored.matches()
        assert [p.key() for p in matched] == [("l2", "r2")]

    @pytest.mark.parametrize("threshold", [0.5, 0.7])
    def test_matches_agrees_with_pipeline_predicate(self, threshold):
        """ScoredPairs.matches() and the pipeline's `probabilities > threshold`
        evaluation predicate must make identical decisions at the boundary."""
        scored = self._scored(threshold)
        pipeline_decisions = (scored.probabilities > threshold).astype(int)
        stream_decisions = np.array(
            [int(any(p is pair for p in scored.matches())) for pair in scored.pairs]
        )
        np.testing.assert_array_equal(stream_decisions, pipeline_decisions)


class TestPipelineStoreLifecycle:
    def test_store_reused_across_calls(self, resolved_pipeline):
        assert resolved_pipeline.store is resolved_pipeline.store

    def test_new_representation_resets_store(self, tiny_domain):
        config = VAERConfig(vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=2, seed=3))
        model = VAER(config).fit_representation(tiny_domain.task)
        first = model.store
        model.fit_representation(tiny_domain.task, epochs=1)
        assert model.store is not first

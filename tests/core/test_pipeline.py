"""The end-to-end VAER pipeline API."""

import numpy as np
import pytest

from repro.config import (
    ActiveLearningConfig,
    MatcherConfig,
    VAEConfig,
    VAERConfig,
)
from repro.core import VAER
from repro.core.active import GroundTruthOracle
from repro.exceptions import NotFittedError


@pytest.fixture(scope="module")
def pipeline_config():
    return VAERConfig(
        vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=4, seed=3),
        matcher=MatcherConfig(epochs=20, mlp_hidden=(24, 12), seed=5),
        active_learning=ActiveLearningConfig(
            samples_per_iteration=8, top_neighbours=5, iterations=2,
            kde_samples_per_pair=20, retrain_epochs=8, seed=11,
        ),
    )


@pytest.fixture(scope="module")
def fitted_pipeline(tiny_domain, pipeline_config):
    model = VAER(pipeline_config)
    model.fit_representation(tiny_domain.task)
    model.fit_matcher(tiny_domain.splits.train, tiny_domain.splits.validation)
    return model


class TestPipelineLifecycle:
    def test_matcher_before_representation_raises(self, tiny_domain, pipeline_config):
        with pytest.raises(NotFittedError):
            VAER(pipeline_config).fit_matcher(tiny_domain.splits.train)

    def test_predict_before_matcher_raises(self, tiny_domain, pipeline_config):
        model = VAER(pipeline_config).fit_representation(tiny_domain.task)
        with pytest.raises(NotFittedError):
            model.predict_pairs(tiny_domain.splits.test)

    def test_evaluate_returns_sane_metrics(self, fitted_pipeline, tiny_domain):
        metrics = fitted_pipeline.evaluate(tiny_domain.splits.test)
        assert 0.0 <= metrics.f1 <= 1.0
        assert metrics.f1 > 0.3  # far better than an empty prediction

    def test_threshold_tuned_on_validation(self, fitted_pipeline):
        assert 0.05 <= fitted_pipeline.threshold <= 0.95

    def test_predict_pairs_shape(self, fitted_pipeline, tiny_domain):
        probabilities = fitted_pipeline.predict_pairs(tiny_domain.splits.test)
        assert probabilities.shape == (len(tiny_domain.splits.test),)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_summary_reports_state(self, fitted_pipeline, tiny_domain):
        summary = fitted_pipeline.summary()
        assert summary["task"] == tiny_domain.task.name
        assert summary["representation_fitted"] and summary["matcher_fitted"]
        assert summary["vae_parameters"] > 0


class TestBlockingAndResolve:
    def test_candidate_pairs_cover_most_duplicates(self, fitted_pipeline, tiny_domain):
        candidates = fitted_pipeline.candidate_pairs(k=10)
        keys = {(pair.left_id, pair.right_id) for pair in candidates}
        covered = sum((l, r) in keys for l, r in tiny_domain.duplicate_map.items())
        assert covered / len(tiny_domain.duplicate_map) > 0.6

    def test_resolve_returns_scored_candidates(self, fitted_pipeline):
        result = fitted_pipeline.resolve(k=5)
        assert len(result.pairs) == len(result.probabilities)
        matches = result.matches()
        assert all((p.left_id, p.right_id) in {(q.left_id, q.right_id) for q in result.pairs} for p in matches)

    def test_resolve_finds_true_matches(self, fitted_pipeline, tiny_domain):
        result = fitted_pipeline.resolve(k=10)
        matched_keys = {(p.left_id, p.right_id) for p in result.matches()}
        true_found = sum((l, r) in matched_keys for l, r in tiny_domain.duplicate_map.items())
        assert true_found > 0


    @pytest.mark.parametrize("method, option", [
        ("resolve_stream", "pool"),
        ("resolve_delta", "workers"),
        ("resolve_delta", "pool"),
    ])
    def test_pool_options_are_refused(self, fitted_pipeline, method, option):
        """A pool is chosen only in :func:`repro.engine.resolve`: the
        pipeline's streams take no pool, and its delta stream no worker
        count (``resolve_stream(incremental=True, workers=N)`` has one)."""
        with pytest.raises(TypeError):
            getattr(fitted_pipeline, method)(k=4, **{option: 2})


class TestTransferAndActiveLearning:
    def test_use_representation_transfers(self, tiny_domain, pipeline_config, tiny_representation):
        model = VAER(pipeline_config).use_representation(tiny_representation, tiny_domain.task)
        model.fit_matcher(tiny_domain.splits.train)
        metrics = model.evaluate(tiny_domain.splits.test)
        assert metrics.f1 > 0.2

    def test_active_learning_adopts_matcher(self, tiny_domain, pipeline_config):
        model = VAER(pipeline_config).fit_representation(tiny_domain.task)
        oracle = GroundTruthOracle(tiny_domain.task)
        result = model.active_learning(oracle, iterations=2, test_pairs=tiny_domain.splits.test)
        assert model.matcher is result.matcher
        metrics = model.evaluate(tiny_domain.splits.test)
        assert 0.0 <= metrics.f1 <= 1.0
        assert oracle.labels_provided > 0

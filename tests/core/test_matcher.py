"""Siamese matcher: architecture, Equation 4 training, prediction."""

import numpy as np
import pytest

from repro.config import MatcherConfig
from repro.core.matcher import SiameseMatcher, pair_ir_arrays, train_matcher
from repro.exceptions import NotFittedError


@pytest.fixture(scope="module")
def trained_matcher(tiny_domain, tiny_representation, small_matcher_config):
    matcher = SiameseMatcher(
        arity=tiny_domain.task.arity,
        vae_config=tiny_representation.config,
        config=small_matcher_config,
    ).initialize_from(tiny_representation)
    left, right, labels = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.train)
    matcher.fit(left, right, labels)
    return matcher


class TestConstruction:
    def test_invalid_arity(self, small_vae_config):
        with pytest.raises(ValueError):
            SiameseMatcher(arity=0, vae_config=small_vae_config)

    def test_invalid_distance(self, small_vae_config):
        with pytest.raises(ValueError):
            SiameseMatcher(arity=2, vae_config=small_vae_config, distance="cosine")

    def test_initialize_from_copies_encoder_weights(self, tiny_domain, tiny_representation, small_matcher_config):
        matcher = SiameseMatcher(
            arity=tiny_domain.task.arity,
            vae_config=tiny_representation.config,
            config=small_matcher_config,
        ).initialize_from(tiny_representation)
        source = tiny_representation.vae.encoder.state_dict()
        target = matcher.encoder.state_dict()
        for key in source:
            assert np.allclose(source[key], target[key])


class TestPairIRArrays:
    def test_shapes(self, tiny_domain, tiny_representation, small_vae_config):
        left, right, labels = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.test)
        n = len(tiny_domain.splits.test)
        assert left.shape == (n, tiny_domain.task.arity, small_vae_config.ir_dim)
        assert right.shape == left.shape and labels.shape == (n,)

    def test_empty_pairs(self, tiny_domain, tiny_representation):
        left, right, labels = pair_ir_arrays(tiny_representation, tiny_domain.task, [])
        assert left.shape[0] == 0 and labels.shape == (0,)


class TestTrainingAndInference:
    def test_predict_before_fit_raises(self, tiny_domain, tiny_representation, small_matcher_config):
        matcher = SiameseMatcher(tiny_domain.task.arity, tiny_representation.config, small_matcher_config)
        with pytest.raises(NotFittedError):
            matcher.predict_proba(np.zeros((1, 3, 16)), np.zeros((1, 3, 16)))

    def test_fit_reduces_loss(self, trained_matcher):
        assert trained_matcher.training_history.improved()

    def test_fit_validates_shapes(self, tiny_domain, tiny_representation, small_matcher_config):
        matcher = SiameseMatcher(tiny_domain.task.arity, tiny_representation.config, small_matcher_config)
        with pytest.raises(ValueError):
            matcher.fit(np.zeros((4, 3, 16)), np.zeros((5, 3, 16)), np.zeros(4))
        with pytest.raises(ValueError):
            matcher.fit(np.zeros((4, 3, 16)), np.zeros((4, 3, 16)), np.zeros(3))

    def test_probabilities_in_unit_interval(self, trained_matcher, tiny_domain, tiny_representation):
        left, right, _ = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.test)
        probabilities = trained_matcher.predict_proba(left, right)
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)

    def test_predictions_beat_chance(self, trained_matcher, tiny_domain, tiny_representation):
        left, right, labels = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.test)
        predictions = trained_matcher.predict(left, right)
        accuracy = float((predictions == labels.astype(int)).mean())
        majority = max(labels.mean(), 1 - labels.mean())
        assert accuracy >= majority

    def test_separates_train_duplicates_from_non_duplicates(self, trained_matcher, tiny_domain, tiny_representation):
        left, right, labels = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.train)
        probabilities = trained_matcher.predict_proba(left, right)
        assert probabilities[labels == 1].mean() > probabilities[labels == 0].mean()

    def test_pair_distances_positive_smaller(self, trained_matcher, tiny_domain, tiny_representation):
        """The contrastive term must pull duplicates together in the latent space."""
        left, right, labels = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.train)
        distances = trained_matcher.pair_distances(left, right)
        assert distances[labels == 1].mean() < distances[labels == 0].mean()

    def test_mahalanobis_variant_trains(self, tiny_domain, tiny_representation):
        config = MatcherConfig(epochs=10, mlp_hidden=(16,), seed=3)
        matcher = SiameseMatcher(
            tiny_domain.task.arity, tiny_representation.config, config, distance="mahalanobis"
        ).initialize_from(tiny_representation)
        left, right, labels = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.train)
        history = matcher.fit(left, right, labels)
        assert np.isfinite(history.final_loss)

    def test_train_matcher_convenience(self, tiny_domain, tiny_representation, small_matcher_config):
        matcher = train_matcher(
            tiny_representation, tiny_domain.task, tiny_domain.splits.train,
            config=small_matcher_config, epochs=5,
        )
        assert matcher.training_history is not None

    def test_rows_covering_an_array_encode_it_without_a_copy(
        self, trained_matcher, tiny_domain, tiny_representation, monkeypatch
    ):
        """A score task's gathered rows are all referenced, so the encoder
        reads that very ndarray; rows covering part of it are gathered."""
        left, right, _ = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.test)
        seen = []
        encode_side = SiameseMatcher._encode_side

        def spy(self, irs):
            seen.append(irs.data)
            return encode_side(self, irs)

        monkeypatch.setattr(SiameseMatcher, "_encode_side", spy)
        every = np.arange(len(left))[::-1]
        covered = trained_matcher.predict_proba(left, right, rows=(every, every))
        assert seen[0] is left and seen[1] is right
        np.testing.assert_allclose(covered, trained_matcher.predict_proba(left[every], right[every]))
        seen.clear()
        part = every[1:]
        trained_matcher.predict_proba(left, right, rows=(part, part))
        assert not any(np.shares_memory(irs, left) or np.shares_memory(irs, right) for irs in seen)

    def test_custom_threshold_changes_predictions(self, trained_matcher, tiny_domain, tiny_representation):
        left, right, _ = pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.test)
        strict = trained_matcher.predict(left, right, threshold=0.99).sum()
        lenient = trained_matcher.predict(left, right, threshold=0.01).sum()
        assert lenient >= strict

"""Gaussian KDE and labeling oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.active import BudgetedOracle, GaussianKDE, GroundTruthOracle, NoisyOracle
from repro.core.active import kde as kde_module
from repro.data.pairs import RecordPair
from repro.exceptions import NotFittedError


class TestGaussianKDE:
    def test_evaluate_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GaussianKDE().evaluate([0.0])

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            GaussianKDE().fit([])

    def test_density_peaks_at_data(self, rng):
        samples = rng.normal(loc=5.0, scale=0.5, size=500)
        kde = GaussianKDE().fit(samples)
        assert kde.likelihood(5.0) > kde.likelihood(10.0)

    def test_density_integrates_to_one(self, rng):
        samples = rng.normal(size=300)
        kde = GaussianKDE().fit(samples)
        grid = np.linspace(-6, 6, 2000)
        integral = np.trapezoid(kde.evaluate(grid), grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_matches_scipy_reference(self, rng):
        from scipy.stats import gaussian_kde as scipy_kde
        samples = rng.normal(size=200)
        ours = GaussianKDE().fit(samples)
        theirs = scipy_kde(samples)
        grid = np.linspace(-3, 3, 25)
        # Bandwidth rules differ (Silverman variants), so compare shapes loosely.
        correlation = np.corrcoef(ours.evaluate(grid), theirs(grid))[0, 1]
        assert correlation > 0.98

    def test_bimodal_distribution_has_two_peaks(self, rng):
        samples = np.concatenate([rng.normal(-4, 0.3, 200), rng.normal(4, 0.3, 200)])
        kde = GaussianKDE().fit(samples)
        assert kde.likelihood(-4.0) > kde.likelihood(0.0)
        assert kde.likelihood(4.0) > kde.likelihood(0.0)

    def test_constant_samples_do_not_crash(self):
        kde = GaussianKDE().fit(np.zeros(10))
        assert np.isfinite(kde.likelihood(0.0))

    def test_explicit_bandwidth_respected(self, rng):
        kde = GaussianKDE(bandwidth=0.7).fit(rng.normal(size=50))
        assert kde.fitted_bandwidth == 0.7

    def test_likelihood_floor(self, rng):
        kde = GaussianKDE().fit(rng.normal(size=50))
        assert kde.likelihood(1e9) >= 1e-9


def _textbook_density(samples, bandwidth, points):
    """The whole (points x samples) kernel matrix, every step a new array."""
    z = (points[:, None] - samples[None, :]) / bandwidth
    kernel = np.exp(-0.5 * z ** 2) / np.sqrt(2.0 * np.pi)
    return kernel.mean(axis=1) / bandwidth


class TestRowBlockedEvaluate:
    """``evaluate`` works one block of points at a time in one reused buffer;
    its densities must be the textbook expression's bytes."""

    @given(n_points=st.integers(1, 40), n_samples=st.integers(1, 60),
           block=st.sampled_from([1, 7, 16, 64, 1 << 16]), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_textbook_expression(self, n_points, n_samples, block, seed):
        rng = np.random.default_rng(seed)
        samples = rng.gamma(2.0, 1.0, size=n_samples)
        points = rng.gamma(2.0, 1.0, size=n_points) * rng.choice([0.1, 1.0, 10.0])
        kde = GaussianKDE().fit(samples)
        saved = kde_module._BLOCK_ELEMENTS
        kde_module._BLOCK_ELEMENTS = block  # 1 and 7: fewer elements than one row of samples
        try:
            density = kde.evaluate(points)
        finally:
            kde_module._BLOCK_ELEMENTS = saved
        expected = _textbook_density(samples, kde.fitted_bandwidth, points)
        assert density.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_points", [1, 3, 4, 5, 12])
    def test_block_boundaries_and_one_point(self, n_points, monkeypatch):
        # 16 samples and 64-element blocks: 4 points per block, so 4 and 12
        # end on a boundary, 5 starts a block with one point, 1 is one point.
        monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(n_points)
        samples, points = rng.normal(size=16), rng.normal(size=n_points)
        kde = GaussianKDE().fit(samples)
        density = kde.evaluate(points)
        assert density.tobytes() == _textbook_density(samples, kde.fitted_bandwidth, points).tobytes()

    def test_more_samples_than_one_block_holds(self):
        rng = np.random.default_rng(3)
        samples = rng.gamma(2.0, 1.0, size=kde_module._BLOCK_ELEMENTS + 5)
        points = rng.gamma(2.0, 1.0, size=3)
        kde = GaussianKDE().fit(samples)
        assert kde.evaluate(points).tobytes() == _textbook_density(samples, kde.fitted_bandwidth, points).tobytes()


class TestOracles:
    def test_ground_truth_oracle_counts(self, tiny_domain):
        oracle = GroundTruthOracle(tiny_domain.task)
        left_id, right_id = next(iter(tiny_domain.duplicate_map.items()))
        assert oracle.label(RecordPair(left_id, right_id)) == 1
        assert oracle.labels_provided == 1
        oracle.reset()
        assert oracle.labels_provided == 0

    def test_ground_truth_negative(self, tiny_domain):
        oracle = GroundTruthOracle(tiny_domain.task)
        negatives = tiny_domain.splits.train.negatives().pairs()
        assert oracle.label(RecordPair(negatives[0].left_id, negatives[0].right_id)) == 0

    def test_noisy_oracle_flips_sometimes(self, tiny_domain):
        oracle = NoisyOracle(tiny_domain.task, flip_probability=0.4, seed=1)
        left_id, right_id = next(iter(tiny_domain.duplicate_map.items()))
        labels = [oracle.label(RecordPair(left_id, right_id)) for _ in range(100)]
        assert 0 < sum(labels) < 100

    def test_noisy_oracle_invalid_probability(self, tiny_domain):
        with pytest.raises(ValueError):
            NoisyOracle(tiny_domain.task, flip_probability=0.7)

    def test_budgeted_oracle_enforces_budget(self, tiny_domain):
        oracle = BudgetedOracle(GroundTruthOracle(tiny_domain.task), budget=2)
        pair = RecordPair(*next(iter(tiny_domain.duplicate_map.items())))
        oracle.label(pair)
        oracle.label(pair)
        assert oracle.remaining == 0
        with pytest.raises(RuntimeError):
            oracle.label(pair)

    def test_budgeted_oracle_invalid_budget(self, tiny_domain):
        with pytest.raises(ValueError):
            BudgetedOracle(GroundTruthOracle(tiny_domain.task), budget=0)

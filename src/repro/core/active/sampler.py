"""Algorithm 2 of the paper: balanced, informative and diverse AL sampling.

Every iteration, the sampler scores each unlabeled candidate pair with three
ingredients:

* the match probability under the current matcher ``gamma`` (class balance:
  predicted positives and predicted negatives are sampled separately);
* the entropy of that probability (informativeness, Equation 5);
* the likelihood of the pair's latent distance under a KDE fitted on the
  distances between sampled latent codes of known duplicates
  (diversity, Equation 6).

Four candidate types are selected per iteration — certain positives, certain
negatives, uncertain positives and uncertain negatives — exactly following
lines 6-9 of Algorithm 2, generalised to batches by taking the top-k of each
score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ActiveLearningConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.store import EncodingStore
from repro.core.active.kde import GaussianKDE
from repro.core.representation import EntityRepresentationModel
from repro.data.pairs import PairSet, RecordPair
from repro.data.schema import ERTask

_EPS = 1e-9


def entropy_of(probabilities: np.ndarray) -> np.ndarray:
    """Binary entropy of match probabilities (Equation 5)."""
    p = np.clip(np.asarray(probabilities, dtype=np.float64), _EPS, 1.0 - _EPS)
    return -(p * np.log(p) + (1.0 - p) * np.log(1.0 - p))


def duplicate_distance_samples(
    task: ERTask,
    representation: EntityRepresentationModel,
    positives: PairSet,
    samples_per_pair: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Equation 6: Euclidean distances between sampled latents of duplicates.

    For each labeled duplicate pair, ``samples_per_pair`` latent codes are
    drawn per attribute from both tuples' posteriors (the VAE's generative
    facility); the per-sample distance is the mean over attributes of the
    Euclidean distance between the two codes.  The pooled distances estimate
    the distribution ``D+`` from which the KDE is fitted.
    """
    rng = rng or np.random.default_rng()
    all_distances: List[np.ndarray] = []
    for pair in positives:
        left = task.left[pair.left_id]
        right = task.right[pair.right_id]
        z_left = representation.sample_record_latents(left, samples_per_pair, rng=rng)
        z_right = representation.sample_record_latents(right, samples_per_pair, rng=rng)
        # shape (arity, samples, latent) -> per-sample mean over attributes.
        per_attribute = np.sqrt(((z_left - z_right) ** 2).sum(axis=-1))
        all_distances.append(per_attribute.mean(axis=0))
    if not all_distances:
        return np.zeros(0)
    return np.concatenate(all_distances)


def pair_latent_distances(
    task: ERTask,
    representation: EntityRepresentationModel,
    pairs: Sequence[RecordPair],
    store: Optional["EncodingStore"] = None,
) -> np.ndarray:
    """Expected latent distance of each candidate pair (mean over attributes).

    Uses the posterior means, which is the expectation of the sampled
    distances of Equation 6 and keeps the candidate scoring deterministic.
    Scoring is a single gather-then-reduce over the table encodings held by
    an :class:`repro.engine.EncodingStore`; pass ``store`` to reuse encodings
    already cached by other pipeline stages.
    """
    if not pairs:
        return np.zeros(0)
    if store is None:
        from repro.engine.store import EncodingStore

        store = EncodingStore(representation, task)
    return store.pair_latent_distances(pairs)


@dataclass
class SampleSelection:
    """The four candidate groups chosen in one AL iteration."""

    certain_positives: List[RecordPair]
    certain_negatives: List[RecordPair]
    uncertain_positives: List[RecordPair]
    uncertain_negatives: List[RecordPair]

    def all_pairs(self) -> List[RecordPair]:
        return (
            self.certain_positives
            + self.certain_negatives
            + self.uncertain_positives
            + self.uncertain_negatives
        )

    def __len__(self) -> int:
        return len(self.all_pairs())


class LatentSpaceSampler:
    """Scores and selects unlabeled candidates per Algorithm 2."""

    def __init__(self, config: Optional[ActiveLearningConfig] = None) -> None:
        self.config = config or ActiveLearningConfig()

    # ------------------------------------------------------------------
    def fit_positive_kde(
        self,
        task: ERTask,
        representation: EntityRepresentationModel,
        positives: PairSet,
        rng: Optional[np.random.Generator] = None,
    ) -> GaussianKDE:
        """KDE over duplicate latent distances (``f+`` in the paper)."""
        samples = duplicate_distance_samples(
            task, representation, positives,
            samples_per_pair=self.config.kde_samples_per_pair, rng=rng,
        )
        if samples.size == 0:
            # Degenerate but possible on tiny seed sets: fall back to a point
            # mass at zero so certain positives are still the closest pairs.
            samples = np.zeros(8)
        return GaussianKDE().fit(samples)

    # ------------------------------------------------------------------
    def select(
        self,
        pairs: Sequence[RecordPair],
        probabilities: np.ndarray,
        distances: np.ndarray,
        kde: GaussianKDE,
        per_category: Optional[int] = None,
    ) -> SampleSelection:
        """Choose the four candidate groups from scored unlabeled pairs.

        Parameters
        ----------
        pairs, probabilities, distances:
            Aligned candidate pool, match probabilities under the current
            matcher and latent distances.
        kde:
            Density of duplicate distances (``f+``).
        per_category:
            Batch size per candidate type; defaults to a quarter of
            ``samples_per_iteration``.
        """
        if per_category is None:
            per_category = max(1, self.config.samples_per_iteration // 4)
        pairs = list(pairs)
        probabilities = np.asarray(probabilities, dtype=np.float64)
        distances = np.asarray(distances, dtype=np.float64)
        if len(pairs) != probabilities.shape[0] or len(pairs) != distances.shape[0]:
            raise ValueError("pairs, probabilities and distances must align")
        if not pairs:
            return SampleSelection([], [], [], [])

        entropy = entropy_of(probabilities)
        likelihood = np.maximum(kde.evaluate(distances), _EPS)
        predicted_positive = probabilities > 0.5

        # Scores follow lines 6-9 of Algorithm 2 (all are minimised).
        score_certain_pos = entropy / likelihood
        score_certain_neg = entropy * likelihood
        score_uncertain_pos = likelihood / np.maximum(entropy, _EPS)
        score_uncertain_neg = 1.0 / (np.maximum(entropy, _EPS) * likelihood)

        taken: set = set()

        def top(mask: np.ndarray, scores: np.ndarray) -> List[RecordPair]:
            selected: List[RecordPair] = []
            candidate_indices = np.where(mask)[0]
            if candidate_indices.size == 0:
                return selected
            order = candidate_indices[np.argsort(scores[candidate_indices])]
            for index in order:
                if index in taken:
                    continue
                taken.add(int(index))
                selected.append(pairs[int(index)])
                if len(selected) >= per_category:
                    break
            return selected

        return SampleSelection(
            certain_positives=top(predicted_positive, score_certain_pos),
            certain_negatives=top(~predicted_positive, score_certain_neg),
            uncertain_positives=top(predicted_positive, score_uncertain_pos),
            uncertain_negatives=top(~predicted_positive, score_uncertain_neg),
        )


class RandomSampler:
    """Baseline sampler drawing unlabeled pairs uniformly (AL ablation)."""

    def __init__(self, config: Optional[ActiveLearningConfig] = None, seed: int = 61) -> None:
        self.config = config or ActiveLearningConfig()
        self._rng = np.random.default_rng(seed)

    def select(self, pairs: Sequence[RecordPair], batch_size: Optional[int] = None) -> List[RecordPair]:
        pairs = list(pairs)
        batch_size = batch_size or self.config.samples_per_iteration
        if not pairs:
            return []
        count = min(batch_size, len(pairs))
        indices = self._rng.choice(len(pairs), size=count, replace=False)
        return [pairs[int(i)] for i in indices]


class EntropySampler:
    """Baseline sampler using entropy only (AL ablation: no diversity/balance)."""

    def __init__(self, config: Optional[ActiveLearningConfig] = None) -> None:
        self.config = config or ActiveLearningConfig()

    def select(
        self,
        pairs: Sequence[RecordPair],
        probabilities: np.ndarray,
        batch_size: Optional[int] = None,
    ) -> List[RecordPair]:
        pairs = list(pairs)
        batch_size = batch_size or self.config.samples_per_iteration
        if not pairs:
            return []
        entropy = entropy_of(probabilities)
        order = np.argsort(-entropy)
        return [pairs[int(i)] for i in order[:batch_size]]

"""The iterative active-learning loop (Algorithm 2, outer structure).

:class:`ActiveLearningLoop` ties together the bootstrap (Algorithm 1), the
Siamese matcher and the latent-space sampler: every iteration it scores the
unlabeled pool under the current matcher, asks the oracle to label the
selected certain/uncertain positive/negative candidates, grows the labeled
pool and retrains the matcher.  The per-iteration test F1 trace reproduces
Figure 5; the final matcher after a fixed labeling budget reproduces the
"A250" column of Table VIII.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import ActiveLearningConfig, BlockingConfig, MatcherConfig
from repro.core.active.bootstrap import BootstrapResult, bootstrap_training_data
from repro.core.active.oracle import LabelingOracle
from repro.core.active.sampler import (
    EntropySampler,
    LatentSpaceSampler,
    RandomSampler,
    pair_latent_distances,
)
from repro.core.matcher import SiameseMatcher, pair_ir_arrays
from repro.core.representation import EntityRepresentationModel
from repro.data.pairs import LabeledPair, PairSet, RecordPair
from repro.data.schema import ERTask
from repro.engine.store import EncodingStore
from repro.eval.metrics import PRF, precision_recall_f1
from repro.exceptions import ActiveLearningError

STRATEGIES = ("vaer", "entropy", "random")


@dataclass
class ALIterationRecord:
    """Snapshot of the loop state after one iteration."""

    iteration: int
    labels_used: int
    labeled_positives: int
    labeled_negatives: int
    test_metrics: Optional[PRF] = None


@dataclass
class ALResult:
    """Final output of an active-learning run."""

    matcher: SiameseMatcher
    positives: PairSet
    negatives: PairSet
    bootstrap: BootstrapResult
    history: List[ALIterationRecord] = field(default_factory=list)

    @property
    def labels_used(self) -> int:
        return self.history[-1].labels_used if self.history else 0

    def labeled(self) -> PairSet:
        return self.positives.merge(self.negatives)

    def f1_trace(self) -> List[Tuple[int, float]]:
        """(labels used, test F1) series — the data behind Figure 5."""
        return [
            (record.labels_used, record.test_metrics.f1)
            for record in self.history
            if record.test_metrics is not None
        ]


class ActiveLearningLoop:
    """Runs bootstrapping plus iterative sampling / labeling / retraining.

    Parameters
    ----------
    task, representation:
        The ER task and its fitted (or transferred) representation model.
    oracle:
        Source of labels; its call count is the cost metric.
    config, matcher_config, blocking:
        Hyper-parameters (Table III defaults).
    strategy:
        ``"vaer"`` for the paper's sampler, ``"entropy"`` or ``"random"`` for
        the ablation baselines.
    test_pairs:
        Optional held-out labeled pairs evaluated after every iteration.
    verify_bootstrap_positives:
        Whether to drop false positives from the automatic seed set (the
        †-marked manual clean-up of Table VIII).
    store:
        Optional shared :class:`repro.engine.EncodingStore`; when omitted the
        loop creates its own.  Every featurisation in the loop — bootstrap
        distances, candidate scoring, retraining batches, test evaluation —
        gathers from this store, so each record is encoded exactly once per
        representation version regardless of how many pairs reference it.
    """

    def __init__(
        self,
        task: ERTask,
        representation: EntityRepresentationModel,
        oracle: LabelingOracle,
        config: Optional[ActiveLearningConfig] = None,
        matcher_config: Optional[MatcherConfig] = None,
        blocking: Optional[BlockingConfig] = None,
        strategy: str = "vaer",
        test_pairs: Optional[PairSet] = None,
        verify_bootstrap_positives: bool = True,
        store: Optional[EncodingStore] = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ActiveLearningError(f"unknown AL strategy {strategy!r}; expected one of {STRATEGIES}")
        self.task = task
        self.representation = representation
        self.oracle = oracle
        self.config = config or ActiveLearningConfig()
        self.matcher_config = matcher_config or MatcherConfig()
        self.blocking = blocking or BlockingConfig()
        self.strategy = strategy
        self.test_pairs = test_pairs
        self.verify_bootstrap_positives = verify_bootstrap_positives
        self._rng = np.random.default_rng(self.config.seed)
        self._sampler = LatentSpaceSampler(self.config)
        self._entropy_sampler = EntropySampler(self.config)
        self._random_sampler = RandomSampler(self.config, seed=self.config.seed)
        # All featurisation goes through the shared encoding store: records
        # are encoded once per table, pairs are index gathers into that cache
        # (candidate pools reference the same records many times over).
        self.store = store if store is not None else EncodingStore(representation, task)

    # ------------------------------------------------------------------
    # Pair featurisation via the encoding store
    # ------------------------------------------------------------------
    def _train_matcher(self, labeled: PairSet, matcher: Optional[SiameseMatcher] = None) -> SiameseMatcher:
        """(Re)train the matcher on the current labeled pool.

        The first call builds a matcher whose encoder heads are initialised
        from the representation model; later calls warm-start from the
        previous iteration's weights, which is the "iteratively improved"
        behaviour described in Section II of the paper and keeps small-pool
        retraining stable.
        """
        if matcher is None:
            matcher = SiameseMatcher(
                arity=self.task.arity,
                vae_config=self.representation.config,
                config=self.matcher_config,
            ).initialize_from(self.representation)
        left, right, labels = pair_ir_arrays(self.representation, self.task, labeled, store=self.store)
        left, right, labels = self._rebalance(left, right, labels)
        matcher.fit(left, right, labels, epochs=self.config.retrain_epochs)
        return matcher

    @staticmethod
    def _rebalance(left: np.ndarray, right: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Oversample the positive class when negatives dominate the pool.

        The sampler labels four candidate types per iteration but, as in the
        paper's datasets, most candidates turn out to be non-duplicates, so
        the labeled pool drifts towards negatives.  Retraining on a heavily
        imbalanced pool can collapse the matcher into the all-negative
        prediction; duplicating positive rows up to a 1:2 ratio keeps the
        gradient signal for the positive class alive without altering the
        labeled data itself.
        """
        positives = np.where(labels == 1)[0]
        negatives = np.where(labels == 0)[0]
        if len(positives) == 0 or len(negatives) <= 2 * len(positives):
            return left, right, labels
        repeats = int(np.ceil(len(negatives) / (2 * len(positives))))
        oversampled = np.concatenate([np.arange(len(labels))] + [positives] * (repeats - 1))
        return left[oversampled], right[oversampled], labels[oversampled]

    def _evaluate(self, matcher: SiameseMatcher) -> Optional[PRF]:
        if self.test_pairs is None or len(self.test_pairs) == 0:
            return None
        predictions = (self.store.score_pairs(matcher, self.test_pairs) > 0.5).astype(np.int64)
        return precision_recall_f1(self.test_pairs.labels(), predictions)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        iterations: Optional[int] = None,
        label_budget: Optional[int] = None,
    ) -> ALResult:
        """Execute the AL loop.

        The loop stops after ``iterations`` (default from the config), or as
        soon as ``label_budget`` oracle labels have been requested, or when
        the unlabeled pool is exhausted — whichever comes first.
        """
        iterations = iterations if iterations is not None else self.config.iterations

        bootstrap = bootstrap_training_data(
            self.task,
            self.representation,
            config=self.config,
            blocking=self.blocking,
            verify_positives=self.verify_bootstrap_positives,
            store=self.store,
        )
        positives = PairSet(bootstrap.positives.pairs())
        negatives = PairSet(bootstrap.negatives.pairs())
        unlabeled: List[RecordPair] = list(bootstrap.unlabeled)

        matcher = self._train_matcher(positives.merge(negatives))
        history: List[ALIterationRecord] = [
            ALIterationRecord(
                iteration=0,
                labels_used=self.oracle.labels_provided,
                labeled_positives=len(positives),
                labeled_negatives=len(negatives),
                test_metrics=self._evaluate(matcher),
            )
        ]

        # Latent distances of candidates are a property of the (frozen)
        # representation model, so they are computed once — a single
        # vectorized gather over the store's cached encodings.
        distances = pair_latent_distances(self.task, self.representation, unlabeled, store=self.store)
        distance_of = {pair.key(): float(d) for pair, d in zip(unlabeled, distances)}

        for iteration in range(1, iterations + 1):
            if not unlabeled:
                break
            if label_budget is not None and self.oracle.labels_provided >= label_budget:
                break

            selected = self._select_batch(matcher, positives, unlabeled, distance_of)
            if not selected:
                break
            if label_budget is not None:
                remaining = label_budget - self.oracle.labels_provided
                selected = selected[:max(0, remaining)]
                if not selected:
                    break

            newly_labeled: List[LabeledPair] = []
            for pair in selected:
                label = self.oracle.label(pair)
                newly_labeled.append(LabeledPair(pair.left_id, pair.right_id, label))
            selected_keys = {pair.key() for pair in selected}
            unlabeled = [pair for pair in unlabeled if pair.key() not in selected_keys]

            for labeled_pair in newly_labeled:
                (positives if labeled_pair.label == 1 else negatives).add(labeled_pair)

            matcher = self._train_matcher(positives.merge(negatives), matcher)
            history.append(
                ALIterationRecord(
                    iteration=iteration,
                    labels_used=self.oracle.labels_provided,
                    labeled_positives=len(positives),
                    labeled_negatives=len(negatives),
                    test_metrics=self._evaluate(matcher),
                )
            )

        return ALResult(
            matcher=matcher,
            positives=positives,
            negatives=negatives,
            bootstrap=bootstrap,
            history=history,
        )

    # ------------------------------------------------------------------
    def _select_batch(
        self,
        matcher: SiameseMatcher,
        positives: PairSet,
        unlabeled: List[RecordPair],
        distance_of: Dict[Tuple[str, str], float],
    ) -> List[RecordPair]:
        if self.strategy == "random":
            return self._random_sampler.select(unlabeled)

        probabilities = self.store.score_pairs(matcher, unlabeled)

        if self.strategy == "entropy":
            return self._entropy_sampler.select(unlabeled, probabilities)

        kde = self._sampler.fit_positive_kde(self.task, self.representation, positives, rng=self._rng)
        distances = np.array([distance_of[pair.key()] for pair in unlabeled])
        selection = self._sampler.select(unlabeled, probabilities, distances, kde)
        return selection.all_pairs()

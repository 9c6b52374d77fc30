"""Algorithm 1 of the paper: bootstrapping initial training data.

Given the unsupervised representation model, the bootstrap builds the
unlabeled candidate pool ``U`` by LSH top-K nearest-neighbour search in the
latent space (the Euclidean distance over means is a surrogate for the
2-Wasserstein distance, as observed in Section V-A), then automatically
labels the candidate pairs with the smallest tuple distances as positives
(``L+``) and those with the largest as negatives (``L-``).

As in the paper, automatically selected positives can contain false
positives; ``verify_positives`` reproduces the manual clean-up step the
authors apply to the †-marked domains of Table VIII.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.blocking.neighbours import NearestNeighbourSearch
from repro.config import ActiveLearningConfig, BlockingConfig
from repro.core.representation import EntityRepresentationModel
from repro.data.pairs import LabeledPair, PairSet, RecordPair
from repro.data.schema import ERTask
from repro.exceptions import ActiveLearningError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.store import EncodingStore

PairKey = Tuple[str, str]


@dataclass
class BootstrapResult:
    """Output of Algorithm 1: automatic seed labels plus the unlabeled pool."""

    positives: PairSet
    negatives: PairSet
    unlabeled: List[RecordPair]
    distances: Dict[PairKey, float] = field(default_factory=dict)
    false_positives_removed: int = 0

    def labeled(self) -> PairSet:
        """L+ ∪ L- as a single pair set."""
        return self.positives.merge(self.negatives)

    def summary(self) -> str:
        return (
            f"bootstrap: {len(self.positives)} positives, {len(self.negatives)} negatives, "
            f"{len(self.unlabeled)} unlabeled candidates"
            + (f", {self.false_positives_removed} false positives removed" if self.false_positives_removed else "")
        )


def bootstrap_training_data(
    task: ERTask,
    representation: EntityRepresentationModel,
    config: Optional[ActiveLearningConfig] = None,
    blocking: Optional[BlockingConfig] = None,
    verify_positives: bool = False,
    store: Optional["EncodingStore"] = None,
) -> BootstrapResult:
    """Run Algorithm 1 and return seed labels plus the candidate pool.

    Parameters
    ----------
    task:
        The ER task (two aligned tables).
    representation:
        A fitted :class:`EntityRepresentationModel` (``phi`` in the paper).
    config:
        Active-learning configuration (``K`` neighbours, seed-set sizes).
    blocking:
        LSH configuration used for the nearest-neighbour search.
    verify_positives:
        When true, automatically selected positives are checked against the
        ground truth and false positives dropped — the manual clean-up the
        paper applies to the †-marked domains of Table VIII.
    store:
        Optional shared :class:`repro.engine.EncodingStore`; table encodings
        and candidate distances are pulled from / computed through it (one
        batched pass) instead of re-encoding both tables here.
    """
    config = config or ActiveLearningConfig()
    if store is None:
        from repro.engine.store import EncodingStore

        store = EncodingStore(representation, task)
    left, right = store.table_encodings("left"), store.table_encodings("right")
    if len(left) == 0 or len(right) == 0:
        raise ActiveLearningError("cannot bootstrap on an empty table")

    # Lines 3-10: build U from LSH top-K neighbours of every left record.
    search = NearestNeighbourSearch.from_store(store, config=blocking)
    neighbour_map = search.neighbour_map(left.flat_mu(), left.keys, k=config.top_neighbours)

    candidate_keys: List[PairKey] = []
    seen: set = set()
    for left_id, neighbours in neighbour_map.items():
        for right_id in neighbours:
            key = (str(left_id), str(right_id))
            if key in seen:
                continue
            seen.add(key)
            candidate_keys.append(key)

    if not candidate_keys:
        raise ActiveLearningError("LSH search produced no candidate pairs")

    # Lines 11-15 ranking statistic: tuple-level W2^2, one vectorized gather
    # over the cached encodings instead of a per-pair loop.
    candidate_pairs = [RecordPair(l, r) for l, r in candidate_keys]
    tuple_distances = store.pair_tuple_wasserstein(candidate_pairs)
    distances: Dict[PairKey, float] = {
        key: float(d) for key, d in zip(candidate_keys, tuple_distances)
    }

    # Lines 11-15: pairs closest to the minimum distance become L+, pairs
    # closest to the maximum become L-.
    ordered = sorted(distances.items(), key=lambda item: item[1])
    num_pos = min(config.bootstrap_positives, max(1, len(ordered) // 4))
    num_neg = min(config.bootstrap_negatives, max(1, len(ordered) // 4))

    positive_keys = [key for key, _ in ordered[:num_pos]]
    negative_keys = [key for key, _ in ordered[-num_neg:]]

    false_positives = 0
    positives = PairSet()
    for left_id, right_id in positive_keys:
        if verify_positives and not task.true_match(left_id, right_id):
            false_positives += 1
            continue
        positives.add(LabeledPair(left_id, right_id, 1))
    negatives = PairSet(LabeledPair(l, r, 0) for l, r in negative_keys)

    labeled_keys = set(positive_keys) | set(negative_keys)
    unlabeled = [RecordPair(l, r) for (l, r) in distances if (l, r) not in labeled_keys]

    return BootstrapResult(
        positives=positives,
        negatives=negatives,
        unlabeled=unlabeled,
        distances=distances,
        false_positives_removed=false_positives,
    )

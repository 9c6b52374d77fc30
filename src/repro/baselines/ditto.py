"""DITTO-style baseline (Li et al., PVLDB 2020).

DITTO serialises an entity pair into a single token sequence ("COL name VAL
value ... [SEP] COL name VAL value ...") and fine-tunes a pre-trained language
model on the pair-classification task.  Offline, the pre-trained transformer
is replaced by the repo's contextual hashing encoder (the BERT substitute used
for IRs), and "fine-tuning" becomes training a deep classifier over the
serialised-pair embedding together with the two single-side embeddings.  The
serialisation format, the pair-level sequence classification framing and the
per-task end-to-end training — the aspects the paper contrasts with VAER —
are preserved.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.baselines.base import BaselineMatcher, records_of
from repro.data.pairs import LabeledPair, PairSet
from repro.data.schema import ERTask, Record
from repro.nn import Adam, MLP, Trainer, binary_cross_entropy_with_logits
from repro.text.hash_embedding import ContextualHashEmbedding


def serialize_record(record: Record, attributes: Tuple[str, ...]) -> str:
    """DITTO's serialisation: ``COL <name> VAL <value>`` per attribute."""
    parts: List[str] = []
    for name, value in zip(attributes, record.values):
        parts.append(f"COL {name} VAL {value}")
    return " ".join(parts)


def serialize_pair(left: Record, right: Record, attributes: Tuple[str, ...]) -> str:
    """Serialisation of the full pair with a separator token."""
    return f"{serialize_record(left, attributes)} [SEP] {serialize_record(right, attributes)}"


class DittoMatcher(BaselineMatcher):
    """Serialized-pair sequence classification with a contextual encoder."""

    name = "ditto"

    def __init__(
        self,
        embedding_dim: int = 128,
        hidden_sizes: tuple = (256, 128),
        epochs: int = 80,
        batch_size: int = 32,
        learning_rate: float = 0.001,
        seed: int = 79,
    ) -> None:
        super().__init__()
        self.embedding_dim = embedding_dim
        self.hidden_sizes = hidden_sizes
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self._encoder = ContextualHashEmbedding(dim=embedding_dim)
        self._classifier: Optional[MLP] = None

    # ------------------------------------------------------------------
    def _pair_features(self, task: ERTask, left: List[Record], right: List[Record]) -> np.ndarray:
        """[pair embedding, |left - right|, left * right] per pair."""
        attributes = task.left.attributes
        features = []
        for l, r in zip(left, right):
            pair_vec = self._encoder.embed_sentence(serialize_pair(l, r, attributes))
            left_vec = self._encoder.embed_sentence(serialize_record(l, attributes))
            right_vec = self._encoder.embed_sentence(serialize_record(r, attributes))
            features.append(np.concatenate([pair_vec, np.abs(left_vec - right_vec), left_vec * right_vec]))
        return np.vstack(features) if features else np.zeros((0, 3 * self.embedding_dim))

    # ------------------------------------------------------------------
    def fit(self, task: ERTask, training_pairs: PairSet, validation_pairs: Optional[PairSet] = None) -> "DittoMatcher":
        left, right, labels = records_of(task, training_pairs.pairs())
        features = self._pair_features(task, left, right)
        rng = np.random.default_rng(self.seed)
        self._classifier = MLP(
            in_features=features.shape[1],
            hidden_sizes=self.hidden_sizes,
            out_features=1,
            rng=rng,
        )
        optimizer = Adam(self._classifier.parameters(), lr=self.learning_rate)

        def loss_fn(batch_x: np.ndarray, batch_y: np.ndarray):
            logits = self._classifier(Tensor(batch_x)).reshape(batch_x.shape[0])
            return binary_cross_entropy_with_logits(logits, Tensor(batch_y))

        trainer = Trainer(
            module=self._classifier,
            optimizer=optimizer,
            loss_fn=loss_fn,
            batch_size=self.batch_size,
            max_epochs=self.epochs,
            rng=rng,
        )
        self.training_history = trainer.fit(features, labels)
        self._fitted = True
        self.tune_threshold(task, validation_pairs)
        return self

    def predict_proba(self, task: ERTask, pairs: Iterable[LabeledPair]) -> np.ndarray:
        self._require_fitted()
        assert self._classifier is not None
        left, right, _ = records_of(task, pairs)
        if not left:
            return np.zeros(0)
        features = self._pair_features(task, left, right)
        with no_grad():
            logits = self._classifier(Tensor(features)).reshape(features.shape[0])
        return 1.0 / (1.0 + np.exp(-np.clip(logits.data, -60, 60)))

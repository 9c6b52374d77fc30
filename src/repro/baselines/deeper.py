"""DeepER-style baseline (Ebraheem et al., PVLDB 2018).

DeepER represents each tuple by composing word embeddings of its attribute
values (the paper's simpler averaging composition) and learns a similarity
classifier over the pair representation.  This miniature follows that recipe
on the numpy substrate: per-attribute averaged token embeddings, pair
features built from attribute-wise absolute differences and element-wise
products, and a dense classifier trained end to end on labeled pairs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.baselines.base import BaselineMatcher, records_of
from repro.data.pairs import LabeledPair, PairSet
from repro.data.schema import ERTask, Record
from repro.nn import Adam, MLP, Trainer, binary_cross_entropy_with_logits
from repro.text.hash_embedding import HashEmbedding


class DeepERMatcher(BaselineMatcher):
    """Averaged-embedding composition + similarity MLP, trained per task."""

    name = "deeper"

    def __init__(
        self,
        embedding_dim: int = 64,
        hidden_sizes: tuple = (128, 64),
        epochs: int = 60,
        batch_size: int = 32,
        learning_rate: float = 0.001,
        seed: int = 71,
    ) -> None:
        super().__init__()
        self.embedding_dim = embedding_dim
        self.hidden_sizes = hidden_sizes
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self._embedder = HashEmbedding(dim=embedding_dim)
        self._classifier: Optional[MLP] = None
        self._arity: Optional[int] = None

    # ------------------------------------------------------------------
    def _record_embedding(self, record: Record) -> np.ndarray:
        """Per-attribute averaged token embeddings, shape (arity, dim)."""
        return np.vstack([self._embedder.embed_sentence(value) for value in record.values])

    def _pair_features(self, left: List[Record], right: List[Record]) -> np.ndarray:
        """Per-pair feature vector: [|a-b|, a*b] per attribute, concatenated."""
        features = []
        for l, r in zip(left, right):
            a = self._record_embedding(l)
            b = self._record_embedding(r)
            features.append(np.concatenate([np.abs(a - b).ravel(), (a * b).ravel()]))
        return np.vstack(features) if features else np.zeros((0, 1))

    # ------------------------------------------------------------------
    def fit(self, task: ERTask, training_pairs: PairSet, validation_pairs: Optional[PairSet] = None) -> "DeepERMatcher":
        left, right, labels = records_of(task, training_pairs.pairs())
        features = self._pair_features(left, right)
        self._arity = task.arity
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
        features = self._pair_features(left, right)
        with no_grad():
            logits = self._classifier(Tensor(features)).reshape(features.shape[0])
        return 1.0 / (1.0 + np.exp(-np.clip(logits.data, -60, 60)))

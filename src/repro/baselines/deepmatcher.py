"""DeepMatcher-style baseline (Mudgal et al., SIGMOD 2018), hybrid variant.

DeepMatcher structures matching as attribute summarisation followed by
attribute comparison and classification.  The miniature keeps that structure:
per-attribute token embeddings are summarised by a learned non-linear layer
(one shared summariser, applied to both tuples), compared through absolute
difference and element-wise product, and the concatenated attribute
comparison vectors feed a deep classifier.  Everything is trained jointly on
labeled pairs, which is the expensive, task-locked design VAER's decoupling
argues against.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, concatenate, no_grad
from repro.baselines.base import BaselineMatcher, records_of
from repro.data.pairs import LabeledPair, PairSet
from repro.data.schema import ERTask, Record
from repro.nn import Adam, Linear, MLP, Module, Trainer, binary_cross_entropy_with_logits
from repro.text.hash_embedding import HashEmbedding


class _HybridNetwork(Module):
    """Shared attribute summariser + comparison classifier."""

    def __init__(self, arity: int, embedding_dim: int, summary_dim: int, hidden_sizes: tuple, rng: np.random.Generator) -> None:
        super().__init__()
        self.arity = arity
        self.embedding_dim = embedding_dim
        self.summary_dim = summary_dim
        self.summarizer = Linear(embedding_dim, summary_dim, rng=rng)
        self.classifier = MLP(
            in_features=arity * 2 * summary_dim,
            hidden_sizes=hidden_sizes,
            out_features=1,
            rng=rng,
        )

    def forward(self, left: Tensor, right: Tensor) -> Tensor:
        """left/right: (batch, arity, embedding_dim) -> logits (batch,)."""
        batch = left.shape[0]
        left_summary = self.summarizer(left.reshape(batch * self.arity, self.embedding_dim), relu=True)
        right_summary = self.summarizer(right.reshape(batch * self.arity, self.embedding_dim), relu=True)
        difference = (left_summary - right_summary).abs()
        product = left_summary * right_summary
        comparison = concatenate([difference, product], axis=-1)
        features = comparison.reshape(batch, self.arity * 2 * self.summary_dim)
        return self.classifier(features).reshape(batch)


class DeepMatcherMatcher(BaselineMatcher):
    """Attribute summarise-and-compare network trained end to end."""

    name = "deepmatcher"

    def __init__(
        self,
        embedding_dim: int = 64,
        summary_dim: int = 96,
        hidden_sizes: tuple = (256, 128, 64),
        epochs: int = 80,
        batch_size: int = 32,
        learning_rate: float = 0.001,
        seed: int = 73,
    ) -> None:
        super().__init__()
        self.embedding_dim = embedding_dim
        self.summary_dim = summary_dim
        self.hidden_sizes = hidden_sizes
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self._embedder = HashEmbedding(dim=embedding_dim)
        self._network: Optional[_HybridNetwork] = None
        self._arity: Optional[int] = None

    # ------------------------------------------------------------------
    def _embed_records(self, records: List[Record]) -> np.ndarray:
        return np.stack([
            np.vstack([self._embedder.embed_sentence(value) for value in record.values])
            for record in records
        ])

    def _embed_pairs(self, task: ERTask, pairs: Iterable[LabeledPair]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        left, right, labels = records_of(task, pairs)
        if not left:
            arity = task.arity
            empty = np.zeros((0, arity, self.embedding_dim))
            return empty, empty, labels
        return self._embed_records(left), self._embed_records(right), labels

    # ------------------------------------------------------------------
    def fit(self, task: ERTask, training_pairs: PairSet, validation_pairs: Optional[PairSet] = None) -> "DeepMatcherMatcher":
        left, right, labels = self._embed_pairs(task, training_pairs.pairs())
        self._arity = task.arity
        rng = np.random.default_rng(self.seed)
        self._network = _HybridNetwork(task.arity, self.embedding_dim, self.summary_dim, self.hidden_sizes, rng)
        optimizer = Adam(self._network.parameters(), lr=self.learning_rate)

        def loss_fn(batch_left: np.ndarray, batch_right: np.ndarray, batch_y: np.ndarray):
            logits = self._network(Tensor(batch_left), Tensor(batch_right))
            return binary_cross_entropy_with_logits(logits, Tensor(batch_y))

        trainer = Trainer(
            module=self._network,
            optimizer=optimizer,
            loss_fn=loss_fn,
            batch_size=self.batch_size,
            max_epochs=self.epochs,
            rng=rng,
        )
        self.training_history = trainer.fit(left, right, labels)
        self._fitted = True
        self.tune_threshold(task, validation_pairs)
        return self

    def predict_proba(self, task: ERTask, pairs: Iterable[LabeledPair]) -> np.ndarray:
        self._require_fitted()
        assert self._network is not None
        left, right, _ = self._embed_pairs(task, pairs)
        if left.shape[0] == 0:
            return np.zeros(0)
        self._network.eval()
        with no_grad():
            logits = self._network(Tensor(left), Tensor(right))
        return 1.0 / (1.0 + np.exp(-np.clip(logits.data, -60, 60)))

"""Supervised matching in the latent space (Section IV of the paper).

:class:`SiameseMatcher` implements Figure 3: two weight-tied variational
encoders (initialised from the unsupervised representation model) map the
per-attribute IRs of both tuples to diagonal Gaussians; a Distance layer
computes attribute-wise squared 2-Wasserstein vectors; the concatenated
distance vectors feed a two-layer MLP that predicts match / non-match.

Training optimises Equation 4: binary cross-entropy of the prediction plus a
contrastive term that pulls duplicate representations together and pushes
non-duplicates apart up to a margin ``M``, fine-tuning the transferred encoder
weights in the process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.store import EncodingStore

from repro.autograd import Tensor, no_grad
from repro.config import MatcherConfig, VAEConfig
from repro.core.distances import mahalanobis_vector_t, wasserstein2_vector_t
from repro.core.representation import EntityRepresentationModel
from repro.core.vae import GaussianEncoder
from repro.data.pairs import LabeledPair, PairSet
from repro.data.schema import ERTask
from repro.exceptions import NotFittedError
from repro.nn import (
    Adam,
    EarlyStopping,
    MLP,
    Module,
    Trainer,
    TrainingHistory,
    siamese_loss,
)


class SiameseMatcher(Module):
    """Siamese matching network over per-attribute Gaussian representations.

    Parameters
    ----------
    arity:
        Number of aligned attributes of the ER task.
    vae_config:
        Architecture of the encoder heads (must match the representation
        model the weights are transferred from).
    config:
        Matcher hyper-parameters (margin, MLP sizes, training schedule).
    distance:
        ``"wasserstein"`` (default, Equation 3) or ``"mahalanobis"`` for the
        ablation discussed in Section IV-A.
    """

    def __init__(
        self,
        arity: int,
        vae_config: Optional[VAEConfig] = None,
        config: Optional[MatcherConfig] = None,
        distance: str = "wasserstein",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if arity <= 0:
            raise ValueError("arity must be positive")
        if distance not in ("wasserstein", "mahalanobis"):
            raise ValueError(f"unknown distance {distance!r}")
        self.arity = arity
        self.vae_config = vae_config or VAEConfig()
        self.config = config or MatcherConfig()
        self.distance = distance
        rng = rng or np.random.default_rng(self.config.seed)
        # One encoder instance == weight tying between the two Siamese heads:
        # both tuples pass through the same module, so gradient updates are
        # automatically mirrored (Section IV-A).
        self.encoder = GaussianEncoder(
            self.vae_config.ir_dim, self.vae_config.hidden_dim, self.vae_config.latent_dim, rng=rng
        )
        self.classifier = MLP(
            in_features=arity * self.vae_config.latent_dim,
            hidden_sizes=self.config.mlp_hidden,
            out_features=1,
            dropout=self.config.dropout,
            rng=rng,
        )
        self._fitted = False
        self.training_history: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------
    # Weight transfer
    # ------------------------------------------------------------------
    def initialize_from(self, representation: EntityRepresentationModel) -> "SiameseMatcher":
        """Copy the trained VAE encoder weights into both Siamese heads."""
        self.encoder.load_state_dict(representation.vae.encoder.state_dict())
        return self

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------
    def _encode_side(self, irs: Tensor) -> Tuple[Tensor, Tensor]:
        """Encode a (batch, arity, ir_dim) tensor to (mu, sigma) tensors."""
        batch = irs.shape[0]
        flat = irs.reshape(batch * self.arity, self.vae_config.ir_dim)
        mu, log_var = self.encoder(flat)
        sigma = log_var.scaled_exp(0.5)
        latent = self.vae_config.latent_dim
        return (
            mu.reshape(batch, self.arity, latent),
            sigma.reshape(batch, self.arity, latent),
        )

    def _encode_rows(self, irs, rows: np.ndarray) -> Tuple[Tensor, Tensor]:
        """(mu, sigma) of ``irs[rows]``, encoding each distinct row once.

        ``irs`` is a whole table's IRs (an ndarray or a
        :class:`~repro.engine.quant.CodecArray`, which then decodes only the
        distinct rows); the heads of a row depend on that row alone, so
        gathering them by the inverse index equals encoding ``irs[rows]``.
        An ndarray whose every row is referenced is encoded as it is (then
        ``unique`` is ``arange``); a code view is always indexed, because
        indexing is its decode.
        """
        unique, inverse = np.unique(rows, return_inverse=True)
        whole = isinstance(irs, np.ndarray) and len(unique) == len(irs)
        mu, sigma = self._encode_side(Tensor(irs if whole else irs[unique]))
        return Tensor(mu.data[inverse]), Tensor(sigma.data[inverse])

    def forward(self, left_irs: Tensor, right_irs: Tensor) -> Tuple[Tensor, Tensor]:
        """Return (logits, per-pair mean attribute distance).

        ``logits`` has shape (batch,); the distance output is the scalar
        attribute-averaged W2^2 used by the contrastive part of the loss.
        """
        return self._head(*self._encode_side(left_irs), *self._encode_side(right_irs))

    def _head(
        self, mu_left: Tensor, sigma_left: Tensor, mu_right: Tensor, sigma_right: Tensor
    ) -> Tuple[Tensor, Tensor]:
        """The pair half of :meth:`forward`: distance layer, then classifier."""
        if self.distance == "wasserstein":
            distance_vectors = wasserstein2_vector_t(mu_left, sigma_left, mu_right, sigma_right)
        else:
            distance_vectors = mahalanobis_vector_t(mu_left, sigma_left, mu_right, sigma_right)
        batch = distance_vectors.shape[0]
        width = self.arity * self.vae_config.latent_dim
        concatenated = distance_vectors.reshape(batch, width)
        logits = self.classifier(concatenated).reshape(batch)
        # Mean over attributes and latent dimensions: the tuple-level distance.
        pair_distance = distance_vectors.reshape(batch, width).mean(axis=-1)
        return logits, pair_distance

    # ------------------------------------------------------------------
    # Loss (Equation 4)
    # ------------------------------------------------------------------
    def loss(self, left_irs: np.ndarray, right_irs: np.ndarray, labels: np.ndarray) -> Tensor:
        logits, pair_distance = self.forward(Tensor(left_irs), Tensor(right_irs))
        return siamese_loss(
            logits, pair_distance, np.asarray(labels, dtype=np.float64),
            margin=self.config.margin, contrastive_weight=self.config.contrastive_weight,
        )

    # ------------------------------------------------------------------
    # Training / inference
    # ------------------------------------------------------------------
    def fit(
        self,
        left_irs: np.ndarray,
        right_irs: np.ndarray,
        labels: np.ndarray,
        epochs: Optional[int] = None,
    ) -> TrainingHistory:
        """Train on aligned IR arrays of shape (n, arity, ir_dim)."""
        left_irs = np.asarray(left_irs, dtype=np.float64)
        right_irs = np.asarray(right_irs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if left_irs.shape != right_irs.shape:
            raise ValueError("left and right IR arrays must have identical shapes")
        if left_irs.shape[0] != labels.shape[0]:
            raise ValueError("labels must align with IR arrays")
        optimizer = Adam(self.parameters(), lr=self.config.learning_rate)
        # On small labeled pools (e.g. the AL bootstrap's ~30 pairs) a full-size
        # batch would give only one gradient step per epoch; cap the batch so
        # every epoch makes at least ~8 updates.
        n_pairs = left_irs.shape[0]
        effective_batch = min(self.config.batch_size, max(4, int(np.ceil(n_pairs / 8))))
        trainer = Trainer(
            module=self,
            optimizer=optimizer,
            loss_fn=self.loss,
            batch_size=effective_batch,
            max_epochs=epochs if epochs is not None else self.config.epochs,
            grad_clip=self.config.grad_clip,
            early_stopping=EarlyStopping(patience=6),
            rng=np.random.default_rng(self.config.seed),
        )
        history = trainer.fit(left_irs, right_irs, labels)
        self._fitted = True
        self.training_history = history
        return history

    def predict_proba(
        self,
        left_irs: np.ndarray,
        right_irs: np.ndarray,
        rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Match probabilities for aligned IR arrays, or for rows of two tables.

        Without ``rows`` the IR arrays are aligned pairs, (n, arity, ir_dim)
        each.  With ``rows=(left_rows, right_rows)`` they are whole-table IRs
        (ndarrays or :class:`~repro.engine.quant.CodecArray` code views) and pair
        ``i`` is ``(left_irs[left_rows[i]], right_irs[right_rows[i]])``: each
        distinct row is encoded once and the pairs gather its (mu, sigma),
        so a record in many pairs costs one encoder pass, not one per pair.
        """
        if not self._fitted:
            raise NotFittedError("SiameseMatcher.predict_proba called before fit")
        self.eval()
        with no_grad():
            if rows is None:
                logits, _ = self.forward(Tensor(left_irs), Tensor(right_irs))
            else:
                left_rows, right_rows = (np.asarray(r, dtype=np.intp) for r in rows)
                if left_rows.shape != right_rows.shape or left_rows.ndim != 1:
                    raise ValueError("left and right rows must be aligned 1-D index arrays")
                logits, _ = self._head(
                    *self._encode_rows(left_irs, left_rows),
                    *self._encode_rows(right_irs, right_rows),
                )
        return 1.0 / (1.0 + np.exp(-np.clip(logits.data, -60, 60)))

    def predict(self, left_irs: np.ndarray, right_irs: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary match decisions."""
        return (self.predict_proba(left_irs, right_irs) > threshold).astype(np.int64)

    def pair_distances(self, left_irs: np.ndarray, right_irs: np.ndarray) -> np.ndarray:
        """Tuple-level W2^2 distances under the (possibly fine-tuned) encoder."""
        self.eval()
        with no_grad():
            _, distances = self.forward(Tensor(left_irs), Tensor(right_irs))
        return distances.data


# ----------------------------------------------------------------------
# Pair featurisation helpers
# ----------------------------------------------------------------------
def pair_ir_arrays(
    representation: EntityRepresentationModel,
    task: ERTask,
    pairs: Iterable[LabeledPair],
    store: Optional["EncodingStore"] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble (left IRs, right IRs, labels) arrays for a set of labeled pairs.

    With a ``store`` (an :class:`repro.engine.EncodingStore` bound to the same
    representation and task), the IR rows are gathered from the store's cached
    table encodings — each record is encoded at most once per representation
    version, no matter how many pairs reference it.  Without one, IRs are
    computed in one batch per side.  Shapes: (n, arity, ir_dim) for the IR
    arrays and (n,) for the labels.
    """
    pairs = list(pairs)
    if store is not None:
        return store.pair_ir_arrays(pairs)
    if not pairs:
        arity = task.arity
        dim = representation.config.ir_dim
        return np.zeros((0, arity, dim)), np.zeros((0, arity, dim)), np.zeros((0,))
    left_records = [task.left[p.left_id] for p in pairs]
    right_records = [task.right[p.right_id] for p in pairs]
    left_values: List[str] = []
    right_values: List[str] = []
    for record in left_records:
        left_values.extend(record.values)
    for record in right_records:
        right_values.extend(record.values)
    arity = task.arity
    dim = representation.config.ir_dim
    left = representation.ir_generator.transform_values(left_values).reshape(len(pairs), arity, dim)
    right = representation.ir_generator.transform_values(right_values).reshape(len(pairs), arity, dim)
    labels = np.array([p.label for p in pairs], dtype=np.float64)
    return left, right, labels


def train_matcher(
    representation: EntityRepresentationModel,
    task: ERTask,
    training_pairs: PairSet,
    config: Optional[MatcherConfig] = None,
    distance: str = "wasserstein",
    epochs: Optional[int] = None,
) -> SiameseMatcher:
    """Convenience constructor: build, initialise and train a matcher."""
    matcher = SiameseMatcher(
        arity=task.arity,
        vae_config=representation.config,
        config=config,
        distance=distance,
    ).initialize_from(representation)
    left, right, labels = pair_ir_arrays(representation, task, training_pairs)
    matcher.fit(left, right, labels, epochs=epochs)
    return matcher


def fit_matcher_with_threshold(
    representation: EntityRepresentationModel,
    task: ERTask,
    training_pairs: PairSet,
    validation_pairs: Optional[PairSet] = None,
    config: Optional[MatcherConfig] = None,
    distance: str = "wasserstein",
    store: Optional["EncodingStore"] = None,
    epochs: Optional[int] = None,
) -> Tuple[SiameseMatcher, float]:
    """Build, initialise and train a matcher, tuning its decision threshold.

    The single definition of the "train on the given pairs, then pick the
    F1-maximising threshold on validation (0.5 when there is none)" sequence
    shared by :meth:`repro.core.pipeline.VAER.fit_matcher`, the experiment
    harness and the benchmarks — so threshold selection cannot drift between
    entry points.  Returns ``(matcher, threshold)``.
    """
    from repro.eval.metrics import best_threshold

    matcher = SiameseMatcher(
        arity=task.arity,
        vae_config=representation.config,
        config=config,
        distance=distance,
    ).initialize_from(representation)
    left, right, labels = pair_ir_arrays(representation, task, training_pairs, store=store)
    matcher.fit(left, right, labels, epochs=epochs)
    threshold = 0.5
    if validation_pairs is not None and len(validation_pairs) > 0:
        if store is not None:
            probabilities = store.score_pairs(matcher, validation_pairs)
        else:
            v_left, v_right, _ = pair_ir_arrays(representation, task, validation_pairs)
            probabilities = matcher.predict_proba(v_left, v_right)
        threshold = best_threshold(validation_pairs.labels(), probabilities)
    return matcher, threshold

"""Unsupervised entity representation learning (Section III of the paper).

:class:`EntityRepresentationModel` glues together an IR generator and the
shared-parameter VAE of :mod:`repro.core.vae`: it fits the IR model on the
corpus of an ER task, trains the VAE on the flat collection of attribute-value
IRs (no labels involved), and then encodes any record as a collection of
per-attribute diagonal Gaussians ``{(mu_1, sigma_1), ..., (mu_m, sigma_m)}``.

The model is the transferable artefact of the paper: its VAE weights can be
reused on a different ER task (see :mod:`repro.core.transfer`), with only the
cheap IR fitting repeated on the new corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import VAEConfig
from repro.core.vae import VariationalAutoEncoder
from repro.data.schema import ERTask, Record, Table
from repro.exceptions import NotFittedError
from repro.nn import TrainingHistory, load_state_dict, save_state_dict
from repro.text.ir import IRGenerator


@dataclass
class EntityEncoding:
    """Latent representation of a set of records.

    ``mu`` and ``sigma`` have shape (n_records, arity, latent_dim); ``keys``
    holds the record identifiers in row order.
    """

    keys: Tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma must have identical shapes")
        if len(self.keys) != self.mu.shape[0]:
            raise ValueError("keys must align with encoding rows")

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def arity(self) -> int:
        return self.mu.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.mu.shape[2]

    def row_of(self, key: str) -> int:
        try:
            return self.keys.index(key)
        except ValueError as exc:
            raise KeyError(f"record {key!r} not present in encoding") from exc

    def of(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """(mu, sigma) of one record, each with shape (arity, latent_dim)."""
        row = self.row_of(key)
        return self.mu[row], self.sigma[row]

    def flat_mu(self) -> np.ndarray:
        """Record-level vectors for LSH search: concatenated attribute means."""
        return self.mu.reshape(len(self), self.arity * self.latent_dim)


class EntityRepresentationModel:
    """IR generation + VAE training + record encoding, end to end."""

    def __init__(
        self,
        config: Optional[VAEConfig] = None,
        ir_method: str = "lsa",
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or VAEConfig()
        if seed is not None:
            self.config.seed = seed
        self.ir_method = ir_method
        self.ir_generator = IRGenerator(method=ir_method, dim=self.config.ir_dim)
        self.vae = VariationalAutoEncoder(self.config)
        self._fitted = False
        self.training_history: Optional[TrainingHistory] = None
        # Monotonic token consumed by encoding caches (repro.engine): any
        # event that can change what this model would encode a record to —
        # VAE training, IR refitting, weight loading — bumps it, so stale
        # cached encodings are detectable without hashing weights.
        self._encoding_version = 0

    @property
    def encoding_version(self) -> int:
        """Cache-invalidation token: changes whenever encodings would change."""
        return self._encoding_version

    def _bump_encoding_version(self) -> None:
        self._encoding_version += 1

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, task: ERTask, epochs: Optional[int] = None) -> "EntityRepresentationModel":
        """Unsupervised training on all attribute values of both tables."""
        self.ir_generator.fit(task)
        irs = self._flat_irs(task)
        self.training_history = self.vae.fit(irs, epochs=epochs)
        self._fitted = True
        self._bump_encoding_version()
        return self

    def refit_ir_only(self, task: ERTask) -> "EntityRepresentationModel":
        """Refit only the IR generator on a new task, keeping VAE weights.

        This is the transfer-learning path (Section III-D): the VAE encoder is
        domain-agnostic because it operates on numeric IRs, so applying the
        model to a new domain only requires regenerating IRs for that domain.
        """
        self.ir_generator = IRGenerator(method=self.ir_method, dim=self.config.ir_dim).fit(task)
        self._fitted = True
        self._bump_encoding_version()
        return self

    def _flat_irs(self, task: ERTask) -> np.ndarray:
        left = self.ir_generator.transform_table(task.left)
        right = self.ir_generator.transform_table(task.right)
        flat = np.concatenate(
            [left.reshape(-1, self.config.ir_dim), right.reshape(-1, self.config.ir_dim)],
            axis=0,
        )
        return flat

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("EntityRepresentationModel used before fit()")

    def encode_table(self, table: Table) -> EntityEncoding:
        """Encode every record of ``table`` into per-attribute Gaussians."""
        self._require_fitted()
        irs = self.ir_generator.transform_table(table)
        n, arity, _ = irs.shape
        mu, sigma = self.vae.encode_numpy(irs.reshape(n * arity, -1))
        latent = mu.shape[-1]
        return EntityEncoding(
            keys=tuple(table.record_ids()),
            mu=mu.reshape(n, arity, latent),
            sigma=sigma.reshape(n, arity, latent),
        )

    def encode_task(self, task: ERTask) -> Dict[str, EntityEncoding]:
        """Encode both sides of a task, keyed ``"left"``/``"right"``."""
        return {"left": self.encode_table(task.left), "right": self.encode_table(task.right)}

    def encode_record(self, record: Record) -> Tuple[np.ndarray, np.ndarray]:
        """(mu, sigma) of a single record, each of shape (arity, latent_dim)."""
        self._require_fitted()
        irs = self.ir_generator.transform_record(record)
        return self.vae.encode_numpy(irs)

    def sample_record_latents(self, record: Record, num_samples: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Sample latent codes for each attribute of a record.

        Shape: (arity, num_samples, latent_dim).  Used by the AL diversity
        estimator (Equation 6).
        """
        self._require_fitted()
        irs = self.ir_generator.transform_record(record)
        return self.vae.sample_latent(irs, num_samples, rng=rng)

    # ------------------------------------------------------------------
    # Persistence (transfer learning)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist VAE weights and configuration (IRs are refit per task)."""
        metadata = {
            "ir_method": self.ir_method,
            "ir_dim": self.config.ir_dim,
            "hidden_dim": self.config.hidden_dim,
            "latent_dim": self.config.latent_dim,
        }
        save_state_dict(self.vae.state_dict(), path, metadata=metadata)

    @staticmethod
    def load(path, config: Optional[VAEConfig] = None, ir_method: Optional[str] = None) -> "EntityRepresentationModel":
        """Load a representation model saved with :meth:`save`.

        The returned model still needs :meth:`refit_ir_only` (or :meth:`fit`)
        on the target task before it can encode records.
        """
        from repro.nn.serialization import load_metadata

        metadata = load_metadata(path) or {}
        config = config or VAEConfig(
            ir_dim=int(metadata.get("ir_dim", VAEConfig().ir_dim)),
            hidden_dim=int(metadata.get("hidden_dim", VAEConfig().hidden_dim)),
            latent_dim=int(metadata.get("latent_dim", VAEConfig().latent_dim)),
        )
        model = EntityRepresentationModel(
            config=config,
            ir_method=ir_method or str(metadata.get("ir_method", "lsa")),
        )
        model.vae.load_state_dict(load_state_dict(path))
        model._bump_encoding_version()
        return model

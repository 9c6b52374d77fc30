"""The Variational Auto-Encoder underlying entity representation learning.

This is the model of Figure 2 in the paper: an encoder maps an Intermediate
Representation (IR) of an attribute value to the mean and (log-)variance of a
diagonal Gaussian; a sampling layer draws latent codes via the
reparameterisation trick; a decoder reconstructs the IR from the latent code.
Parameters are *shared across attributes* — the model sees a flat batch of
attribute-value IRs regardless of which attribute or record they came from —
which is exactly what makes the representation model transferable across
domains (Section III-D).

The training objective is Equation 2: reconstruction log-likelihood (squared
error under a unit-variance Gaussian decoder) plus the KL divergence of each
approximate posterior from the standard normal prior.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.config import VAEConfig
from repro.nn import (
    Adam,
    EarlyStopping,
    Linear,
    Module,
    Trainer,
    TrainingHistory,
    gaussian_kl_divergence,
    sum_squared_error,
)


class GaussianEncoder(Module):
    """Encoder half of the VAE: IR → (mu, log-variance) of ``q(z | IR)``."""

    def __init__(self, ir_dim: int, hidden_dim: int, latent_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.ir_dim = ir_dim
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.hidden = Linear(ir_dim, hidden_dim, rng=rng)
        self.mu_head = Linear(hidden_dim, latent_dim, activation="linear", rng=rng)
        self.log_var_head = Linear(hidden_dim, latent_dim, activation="linear", rng=rng)

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        hidden = self.hidden(x, relu=True)
        mu = self.mu_head(hidden)
        # Clip the log-variance so sigma stays in a numerically safe range.
        log_var = self.log_var_head(hidden, clip=(-8.0, 8.0))
        return mu, log_var


class GaussianDecoder(Module):
    """Decoder half of the VAE: latent code z → reconstructed IR."""

    def __init__(self, latent_dim: int, hidden_dim: int, ir_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.hidden = Linear(latent_dim, hidden_dim, rng=rng)
        self.output = Linear(hidden_dim, ir_dim, activation="linear", rng=rng)

    def forward(self, z: Tensor) -> Tensor:
        return self.output(self.hidden(z, relu=True))


class VariationalAutoEncoder(Module):
    """Complete VAE with reparameterised sampling (Figure 2 of the paper)."""

    def __init__(self, config: Optional[VAEConfig] = None, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = config or VAEConfig()
        rng = rng or np.random.default_rng(self.config.seed)
        self._rng = rng
        self.encoder = GaussianEncoder(
            self.config.ir_dim, self.config.hidden_dim, self.config.latent_dim, rng=rng
        )
        self.decoder = GaussianDecoder(
            self.config.latent_dim, self.config.hidden_dim, self.config.ir_dim, rng=rng
        )

    # ------------------------------------------------------------------
    def encode(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Return (mu, log_var) of the approximate posterior for each row."""
        return self.encoder(x)

    def reparameterize(self, mu: Tensor, log_var: Tensor) -> Tensor:
        """Sampling layer: ``z = mu + sigma * eps`` with ``eps ~ N(0, I)``.

        In evaluation mode the sample collapses to the mean, making encoding
        deterministic — matching how the paper uses the trained encoder to
        produce entity representations.
        """
        if not self.training:
            return mu
        sigma = log_var.scaled_exp(0.5)
        epsilon = Tensor(self._rng.standard_normal(mu.shape))
        return mu + sigma * epsilon

    def decode(self, z: Tensor) -> Tensor:
        return self.decoder(z)

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """Full pass: returns (reconstruction, mu, log_var)."""
        mu, log_var = self.encode(x)
        z = self.reparameterize(mu, log_var)
        return self.decode(z), mu, log_var

    # ------------------------------------------------------------------
    def loss(self, x: Tensor) -> Tensor:
        """ELBO-derived loss of Equation 2 (negated, to be minimised)."""
        reconstruction, mu, log_var = self.forward(x)
        reconstruction_error = sum_squared_error(reconstruction, x)
        kl = gaussian_kl_divergence(mu, log_var)
        return reconstruction_error + self.config.kl_weight * kl

    def fit(self, irs: np.ndarray, epochs: Optional[int] = None) -> TrainingHistory:
        """Train the VAE on a flat batch of IRs, shape (n_values, ir_dim)."""
        irs = np.asarray(irs, dtype=np.float64)
        if irs.ndim != 2 or irs.shape[1] != self.config.ir_dim:
            raise ValueError(
                f"expected IRs of shape (n, {self.config.ir_dim}), got {irs.shape}"
            )
        optimizer = Adam(self.parameters(), lr=self.config.learning_rate)
        trainer = Trainer(
            module=self,
            optimizer=optimizer,
            loss_fn=lambda batch: self.loss(Tensor(batch)),
            batch_size=self.config.batch_size,
            max_epochs=epochs if epochs is not None else self.config.epochs,
            grad_clip=self.config.grad_clip,
            early_stopping=EarlyStopping(patience=4),
            rng=np.random.default_rng(self.config.seed),
        )
        return trainer.fit(irs)

    # ------------------------------------------------------------------
    def encode_numpy(self, irs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Deterministic encoding of IRs to (mu, sigma) numpy arrays."""
        irs = np.asarray(irs, dtype=np.float64)
        squeeze = False
        if irs.ndim == 1:
            irs = irs[None, :]
            squeeze = True
        with no_grad():
            mu, log_var = self.encode(Tensor(irs))
        sigma = np.exp(0.5 * log_var.data)
        if squeeze:
            return mu.data[0], sigma[0]
        return mu.data, sigma

    def sample_latent(self, irs: np.ndarray, num_samples: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``num_samples`` latent codes per IR row.

        Returns an array of shape (n, num_samples, latent_dim).  This is the
        generative facility exploited by the diversity component of the
        active-learning sampler (Equation 6 of the paper).
        """
        rng = rng or self._rng
        mu, sigma = self.encode_numpy(irs)
        noise = rng.standard_normal((mu.shape[0], num_samples, mu.shape[1]))
        return mu[:, None, :] + sigma[:, None, :] * noise

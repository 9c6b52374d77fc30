"""Generic training utilities: mini-batch iteration, early stopping, history.

The representation model, the Siamese matcher and the baselines all train
through :class:`Trainer`, which keeps the training loops across the repo
consistent and the per-epoch loss history available to the benchmarks that
report training behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import Optimizer


def batch_indices(
    n: int,
    batch_size: int,
    shuffle: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(n)`` in batches of ``batch_size``."""
    if n <= 0:
        return
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = np.arange(n)
    if shuffle:
        rng = rng or np.random.default_rng()
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def iterate_minibatches(
    arrays: Sequence[np.ndarray],
    batch_size: int,
    shuffle: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Yield aligned batches from several arrays with the same leading dim."""
    if not arrays:
        return
    n = len(arrays[0])
    for array in arrays[1:]:
        if len(array) != n:
            raise ValueError("all arrays must have the same number of rows")
    for idx in batch_indices(n, batch_size, shuffle=shuffle, rng=rng):
        yield tuple(array[idx] for array in arrays)


@dataclass
class EarlyStopping:
    """Stop training when the monitored loss stops improving.

    Parameters
    ----------
    patience:
        Number of epochs without improvement tolerated before stopping.
    min_delta:
        Minimum decrease in the monitored value to count as an improvement.
    """

    patience: int = 5
    min_delta: float = 1e-4
    best: float = field(default=float("inf"), init=False)
    epochs_without_improvement: int = field(default=0, init=False)

    def update(self, value: float) -> bool:
        """Record ``value``; return ``True`` when training should stop."""
        if value < self.best - self.min_delta:
            self.best = value
            self.epochs_without_improvement = 0
            return False
        self.epochs_without_improvement += 1
        return self.epochs_without_improvement >= self.patience


@dataclass
class TrainingHistory:
    """Per-epoch record of losses, used for reporting and testing convergence."""

    epoch_losses: List[float] = field(default_factory=list)
    extra: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, loss: float, **extras: float) -> None:
        self.epoch_losses.append(float(loss))
        for key, value in extras.items():
            self.extra.setdefault(key, []).append(float(value))

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("history is empty")
        return self.epoch_losses[-1]

    @property
    def initial_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("history is empty")
        return self.epoch_losses[0]

    def improved(self) -> bool:
        """Whether the loss at the end of training beats the first epoch."""
        return len(self.epoch_losses) >= 2 and self.final_loss < self.initial_loss


class Trainer:
    """Drives mini-batch training of a module given a batch-loss callback.

    Parameters
    ----------
    module:
        The model being optimised (used to toggle train/eval mode and clear
        gradients).
    optimizer:
        Any :class:`repro.nn.optim.Optimizer`.
    loss_fn:
        Callback mapping a tuple of numpy batches to a scalar loss Tensor.
    batch_size:
        Mini-batch size.
    max_epochs:
        Upper bound on training epochs.
    grad_clip:
        Optional global-norm gradient clipping threshold, applied to the
        gradients of the parameters the optimizer updates.
    early_stopping:
        Optional :class:`EarlyStopping` monitor on the epoch training loss.
    rng:
        Random generator controlling batch shuffling.
    """

    def __init__(
        self,
        module: Module,
        optimizer: Optimizer,
        loss_fn: Callable[..., "object"],
        batch_size: int = 32,
        max_epochs: int = 20,
        grad_clip: Optional[float] = 5.0,
        early_stopping: Optional[EarlyStopping] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.module = module
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.grad_clip = grad_clip
        self.early_stopping = early_stopping
        self.rng = rng or np.random.default_rng()

    def fit(self, *arrays: np.ndarray) -> TrainingHistory:
        """Train on the given aligned arrays and return the loss history."""
        history = TrainingHistory()
        self.module.train()
        for _ in range(self.max_epochs):
            epoch_loss = 0.0
            batches = 0
            for batch in iterate_minibatches(arrays, self.batch_size, rng=self.rng):
                self.optimizer.zero_grad()
                loss = self.loss_fn(*batch)
                loss.backward()
                if self.grad_clip is not None:
                    self.optimizer.clip_grad_norm(self.grad_clip)
                self.optimizer.step()
                epoch_loss += float(loss.data)
                batches += 1
            if batches == 0:
                break
            mean_loss = epoch_loss / batches
            history.record(mean_loss)
            if self.early_stopping is not None and self.early_stopping.update(mean_loss):
                break
        # The last batch's gradients are views into the optimizer's flat
        # buffer; left on the parameters they double a fitted model's pickle.
        self.optimizer.zero_grad()
        self.module.eval()
        return history

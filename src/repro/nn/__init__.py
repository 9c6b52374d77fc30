"""Minimal neural-network library over :mod:`repro.autograd`.

Provides the layers, losses, optimisers and training utilities needed by the
paper's models (the per-attribute VAE, the Siamese matcher) and the deep
baselines (DeepER-, DeepMatcher- and DITTO-style matchers).
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, ReLU, Sigmoid, Tanh, Dropout, Sequential, MLP
from repro.nn.losses import (
    mse_loss,
    sum_squared_error,
    binary_cross_entropy,
    binary_cross_entropy_with_logits,
    gaussian_kl_divergence,
    contrastive_loss,
    siamese_loss,
)
from repro.nn.optim import Optimizer, SGD, Adam, clip_grad_norm
from repro.nn.train import (
    Trainer,
    TrainingHistory,
    EarlyStopping,
    batch_indices,
    iterate_minibatches,
)
from repro.nn.serialization import (
    save_state_dict,
    load_state_dict,
    load_metadata,
    save_module,
    load_module,
)

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "Sequential",
    "MLP",
    "mse_loss",
    "sum_squared_error",
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "gaussian_kl_divergence",
    "contrastive_loss",
    "siamese_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "Trainer",
    "TrainingHistory",
    "EarlyStopping",
    "batch_indices",
    "iterate_minibatches",
    "save_state_dict",
    "load_state_dict",
    "load_metadata",
    "save_module",
    "load_module",
]

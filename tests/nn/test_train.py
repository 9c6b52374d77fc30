"""Trainer loop, batching utilities and early stopping."""

import copy
import pickle

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.config import VAERConfig
from repro.core import VAER
from repro.engine import model_fingerprint
from repro.nn import (
    Adam,
    EarlyStopping,
    MLP,
    Trainer,
    TrainingHistory,
    batch_indices,
    binary_cross_entropy_with_logits,
    iterate_minibatches,
    mse_loss,
)
from repro.nn.optim import Optimizer


class TestBatching:
    def test_batches_cover_all_indices(self, rng):
        seen = np.concatenate(list(batch_indices(53, 8, rng=rng)))
        assert sorted(seen.tolist()) == list(range(53))

    def test_batch_sizes(self, rng):
        sizes = [len(b) for b in batch_indices(20, 6, shuffle=False)]
        assert sizes == [6, 6, 6, 2]

    def test_no_shuffle_is_ordered(self):
        batches = list(batch_indices(10, 4, shuffle=False))
        assert batches[0].tolist() == [0, 1, 2, 3]

    def test_empty_input(self):
        assert list(batch_indices(0, 4)) == []

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_indices(10, 0))

    def test_minibatches_aligned(self, rng):
        x = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        for bx, by in iterate_minibatches([x, y], 3, shuffle=False):
            assert np.all(bx[:, 0] // 2 == by)

    def test_minibatches_mismatched_lengths(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches([np.zeros(3), np.zeros(4)], 2))


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0)
        assert not stopper.update(1.0)
        assert not stopper.update(1.0)
        assert stopper.update(1.0)

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2, min_delta=0.01)
        stopper.update(1.0)
        stopper.update(1.0)
        assert not stopper.update(0.5)
        assert not stopper.update(0.5)

    def test_min_delta_threshold(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        stopper.update(1.0)
        # An improvement smaller than min_delta does not count.
        assert stopper.update(0.95)


class TestTrainingHistory:
    def test_record_and_final(self):
        history = TrainingHistory()
        history.record(2.0)
        history.record(1.0, accuracy=0.8)
        assert history.final_loss == 1.0
        assert history.initial_loss == 2.0
        assert history.extra["accuracy"] == [0.8]
        assert history.improved()

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().final_loss


class TestTrainer:
    def test_learns_linear_classification(self, rng):
        x = rng.normal(size=(150, 5))
        weights = rng.normal(size=5)
        y = (x @ weights > 0).astype(float)
        model = MLP(5, [16], 1, rng=rng)
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=0.01),
            lambda bx, by: binary_cross_entropy_with_logits(model(Tensor(bx)).reshape(-1), Tensor(by)),
            batch_size=32,
            max_epochs=25,
            rng=rng,
        )
        history = trainer.fit(x, y)
        assert history.final_loss < history.initial_loss
        assert history.final_loss < 0.3

    def test_learns_regression(self, rng):
        x = rng.normal(size=(100, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        model = MLP(3, [8], 1, rng=rng)
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=0.01),
            lambda bx, by: mse_loss(model(Tensor(bx)).reshape(-1), Tensor(by)),
            max_epochs=30,
            rng=rng,
        )
        history = trainer.fit(x, y)
        assert history.improved()

    def test_early_stopping_limits_epochs(self, rng):
        x = rng.normal(size=(20, 2))
        y = np.zeros(20)
        model = MLP(2, [4], 1, rng=rng)
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=1e-6),  # learning rate too small to improve
            lambda bx, by: mse_loss(model(Tensor(bx)).reshape(-1), Tensor(by)),
            max_epochs=50,
            early_stopping=EarlyStopping(patience=2, min_delta=1e-3),
            rng=rng,
        )
        history = trainer.fit(x, y)
        assert len(history.epoch_losses) < 50

    def test_model_left_in_eval_mode(self, rng):
        x = rng.normal(size=(10, 2))
        y = np.zeros(10)
        model = MLP(2, [4], 1, dropout=0.2, rng=rng)
        trainer = Trainer(
            model,
            Adam(model.parameters()),
            lambda bx, by: mse_loss(model(Tensor(bx)).reshape(-1), Tensor(by)),
            max_epochs=2,
            rng=rng,
        )
        trainer.fit(x, y)
        assert not model.training

    def test_empty_data_returns_empty_history(self, rng):
        model = MLP(2, [4], 1, rng=rng)
        trainer = Trainer(
            model,
            Adam(model.parameters()),
            lambda bx, by: mse_loss(model(Tensor(bx)).reshape(-1), Tensor(by)),
            max_epochs=3,
            rng=rng,
        )
        history = trainer.fit(np.zeros((0, 2)), np.zeros(0))
        assert history.epoch_losses == []


class TestFittedModelsHoldNoGradients:
    """``fit`` ends by clearing gradients: the last batch's ``grad`` arrays
    (views into the optimizer's flat buffer) would otherwise ride along in
    every pickle of a fitted model.  Clearing them touches no weight byte."""

    def test_fitted_vae_and_matcher(self, tiny_domain, small_vae_config, small_matcher_config, monkeypatch):
        before_clear = []
        original = Optimizer.zero_grad

        def recording(self):
            before_clear.append([param.data.tobytes() for param in self.parameters])
            original(self)

        monkeypatch.setattr(Optimizer, "zero_grad", recording)
        model = VAER(VAERConfig(vae=small_vae_config, matcher=small_matcher_config))
        representation = model.fit_representation(tiny_domain.task).representation
        vae_weights = before_clear[-1]
        model.fit_matcher(tiny_domain.splits.train)
        matcher_weights = before_clear[-1]

        for module, last_step in ((representation.vae, vae_weights), (model.matcher, matcher_weights)):
            assert all(param.grad is None for param in module.parameters())
            assert [array.tobytes() for array in module.state_dict().values()] == last_step
            weight_bytes = sum(param.data.nbytes for param in module.parameters())
            assert len(pickle.dumps(module)) < 1.5 * weight_bytes

        reference = copy.deepcopy(representation)
        names = list(reference.vae.state_dict())
        reference.vae.load_state_dict({
            name: np.frombuffer(raw).reshape(array.shape)
            for name, raw, array in zip(names, vae_weights, reference.vae.state_dict().values())
        })
        assert model_fingerprint(representation) == model_fingerprint(reference)

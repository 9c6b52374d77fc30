"""Inference under ``no_grad`` and the in-place optimisers change no byte.

The forward pass has one implementation; what differs between training and
inference is whether ops record and whether they may reuse a buffer.  These
properties pin that neither changes a result: the ``no_grad`` forward equals
the recording forward byte for byte, and the optimisers working in
preallocated arrays equal the textbook expressions evaluated with temporaries.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, no_grad
from repro.baselines.deepmatcher import _HybridNetwork
from repro.config import MatcherConfig, VAEConfig
from repro.core.matcher import SiameseMatcher
from repro.core.vae import GaussianEncoder
from repro.engine.quant import ProductQuantizer, ScalarQuantizer
from repro.exceptions import NotFittedError
from repro.nn import MLP, SGD, Adam, Trainer, clip_grad_norm, mse_loss
from repro.nn.module import Parameter

sizes = st.integers(min_value=1, max_value=9)
seeds = st.integers(min_value=0, max_value=2 ** 16)


def _both_modes(forward):
    """``forward()`` evaluated recording and under ``no_grad``, as byte strings."""
    recorded = forward()
    with no_grad():
        plain = forward()
    as_tuple = lambda out: out if isinstance(out, tuple) else (out,)
    assert all(t.requires_grad for t in as_tuple(recorded))
    assert not any(t.requires_grad for t in as_tuple(plain))
    return [t.data.tobytes() for t in as_tuple(recorded)], [t.data.tobytes() for t in as_tuple(plain)]


class TestNoGradForwardEqualsRecordingForward:
    @given(batch=sizes, fan_in=sizes, hidden=st.lists(sizes, min_size=1, max_size=3), fan_out=sizes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_mlp(self, batch, fan_in, hidden, fan_out, seed):
        rng = np.random.default_rng(seed)
        model = MLP(fan_in, hidden, fan_out, rng=rng).eval()
        x = rng.normal(size=(batch, fan_in))
        recorded, plain = _both_modes(lambda: model(Tensor(x)))
        assert recorded == plain

    @given(batch=sizes, ir_dim=sizes, hidden=sizes, latent=sizes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_gaussian_encoder(self, batch, ir_dim, hidden, latent, seed):
        rng = np.random.default_rng(seed)
        encoder = GaussianEncoder(ir_dim, hidden, latent, rng=rng)
        x = rng.normal(size=(batch, ir_dim)) * 30.0  # wide enough to reach the log-variance clip
        before = x.copy()
        recorded, plain = _both_modes(lambda: encoder(Tensor(x)))
        assert recorded == plain
        assert np.array_equal(x, before)

    @given(batch=sizes, arity=st.integers(1, 4), ir_dim=sizes, hidden=sizes, latent=sizes, seed=seeds,
           distance=st.sampled_from(["wasserstein", "mahalanobis"]))
    @settings(max_examples=40, deadline=None)
    def test_siamese_matcher(self, batch, arity, ir_dim, hidden, latent, seed, distance):
        rng = np.random.default_rng(seed)
        matcher = SiameseMatcher(
            arity,
            vae_config=VAEConfig(ir_dim=ir_dim, hidden_dim=hidden, latent_dim=latent),
            config=MatcherConfig(mlp_hidden=(5, 3), seed=seed),
            distance=distance,
        ).eval()
        left, right = rng.normal(size=(2, batch, arity, ir_dim))
        before = left.copy(), right.copy()
        recorded, plain = _both_modes(lambda: matcher.forward(Tensor(left), Tensor(right)))
        assert recorded == plain
        assert np.array_equal(left, before[0]) and np.array_equal(right, before[1])
        matcher._fitted = True
        logits = np.frombuffer(recorded[0])
        assert matcher.predict_proba(left, right).tobytes() == (1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))).tobytes()
        assert matcher.pair_distances(left, right).tobytes() == recorded[1]

    @given(batch=sizes, arity=st.integers(1, 4), embedding=sizes, summary=sizes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_deepmatcher_network(self, batch, arity, embedding, summary, seed):
        rng = np.random.default_rng(seed)
        network = _HybridNetwork(arity, embedding, summary, (6, 4), rng).eval()
        left, right = rng.normal(size=(2, batch, arity, embedding))
        recorded, plain = _both_modes(lambda: network(Tensor(left), Tensor(right)))
        assert recorded == plain


#: How far ``predict_proba(L, R, rows=(l, r))`` may sit from the per-pair
#: ``predict_proba(L[l], R[r])``, in ulps of 1.0 (probabilities lie in [0, 1]).
#: Encoding distinct rows changes only how many rows each encoder GEMM has,
#: and a product with few rows takes a different BLAS kernel (gemv for one
#: row; on OpenBLAS 0.3.31 a one-row logit is up to ~3e-14 off the same row
#: inside a gemm).  Measured over these sizes: <= 4 ulps.
ROWS_PATH_ULPS = 64


def _random_matcher(arity, ir_dim, hidden, latent, seed, distance):
    matcher = SiameseMatcher(
        arity,
        vae_config=VAEConfig(ir_dim=ir_dim, hidden_dim=hidden, latent_dim=latent),
        config=MatcherConfig(mlp_hidden=(5, 3), seed=seed),
        distance=distance,
    )
    matcher._fitted = True
    return matcher


def _assert_within_ulps(actual, expected):
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= ROWS_PATH_ULPS * np.spacing(1.0))


class TestScoringDistinctRows:
    """``predict_proba(..., rows=)`` encodes each distinct table row once
    and gathers (mu, sigma) per pair; it must answer like the per-pair path."""

    @given(arity=st.integers(1, 4), ir_dim=sizes, hidden=sizes, latent=sizes, seed=seeds,
           distance=st.sampled_from(["wasserstein", "mahalanobis"]),
           left_size=st.integers(1, 6), right_size=st.integers(1, 6),
           pairs=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_pair_scoring(self, arity, ir_dim, hidden, latent, seed, distance,
                                     left_size, right_size, pairs):
        rng = np.random.default_rng(seed)
        matcher = _random_matcher(arity, ir_dim, hidden, latent, seed, distance)
        left = rng.normal(size=(left_size, arity, ir_dim))
        right = rng.normal(size=(right_size, arity, ir_dim))
        # Small tables and up to 40 pairs: most rows recur many times.
        left_rows = np.array([l % left_size for l, _ in pairs], dtype=np.intp)
        right_rows = np.array([r % right_size for _, r in pairs], dtype=np.intp)
        before = left.copy(), right.copy()
        scored = matcher.predict_proba(left, right, rows=(left_rows, right_rows))
        assert np.array_equal(left, before[0]) and np.array_equal(right, before[1])
        if not pairs:
            assert scored.shape == (0,)
            return
        _assert_within_ulps(scored, matcher.predict_proba(left[left_rows], right[right_rows]))

    @given(codec=st.sampled_from([ScalarQuantizer, ProductQuantizer]), arity=st.integers(1, 4),
           seed=seeds, distance=st.sampled_from(["wasserstein", "mahalanobis"]),
           n_pairs=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_codec_tables_equal_decode_then_score(self, codec, arity, seed, distance, n_pairs):
        rng = np.random.default_rng(seed)
        matcher = _random_matcher(arity, 8, 6, 4, seed, distance)
        floats = [rng.normal(size=(rows, arity, 8)) for rows in (12, 9)]
        decoded_bytes = []
        left, right = (codec().encode(values, None, on_decode=decoded_bytes.append) for values in floats)
        left_rows = rng.integers(0, 12, n_pairs)
        right_rows = rng.integers(0, 9, n_pairs)
        scored = matcher.predict_proba(left, right, rows=(left_rows, right_rows))
        # Only the distinct rows are decoded.
        distinct = np.unique(left_rows).size + np.unique(right_rows).size
        assert sum(decoded_bytes) == distinct * arity * 8 * 8
        plain_left, plain_right = left.decode(), right.decode()
        same_rows = matcher.predict_proba(plain_left, plain_right, rows=(left_rows, right_rows))
        assert scored.tobytes() == same_rows.tobytes()
        _assert_within_ulps(scored, matcher.predict_proba(plain_left[left_rows], plain_right[right_rows]))

    def test_unfitted_matcher_refuses(self):
        matcher = SiameseMatcher(2, vae_config=VAEConfig(ir_dim=4, hidden_dim=4, latent_dim=2))
        table = np.zeros((3, 2, 4))
        empty = np.zeros(0, dtype=np.intp)
        with pytest.raises(NotFittedError):
            matcher.predict_proba(table, table, rows=(empty, empty))

    def test_misaligned_rows_refused(self):
        matcher = _random_matcher(2, 4, 4, 2, 0, "wasserstein")
        table = np.zeros((3, 2, 4))
        with pytest.raises(ValueError):
            matcher.predict_proba(table, table, rows=(np.array([0, 1]), np.array([2])))
        with pytest.raises(IndexError):
            matcher.predict_proba(table, table, rows=(np.array([3]), np.array([0])))


def _textbook_adam(data, grads, lr, betas, epsilon, weight_decay):
    """Kingma & Ba's update, every intermediate a new array."""
    beta1, beta2 = betas
    m, v = np.zeros_like(data), np.zeros_like(data)
    for step, grad in enumerate(grads, start=1):
        if weight_decay:
            grad = grad + weight_decay * data
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * (grad * grad)
        m_hat = m / (1.0 - beta1 ** step)
        v_hat = v / (1.0 - beta2 ** step)
        data = data - lr * m_hat / (np.sqrt(v_hat) + epsilon)
    return data


def _textbook_sgd(data, grads, lr, momentum, weight_decay):
    velocity = np.zeros_like(data)
    for grad in grads:
        if weight_decay:
            grad = grad + weight_decay * data
        if momentum:
            velocity = momentum * velocity + grad
            grad = velocity
        data = data - lr * grad
    return data


shapes = st.sampled_from([(1,), (7,), (3, 5), (4, 1), (2, 3, 2)])


class TestOptimisersInScratchEqualTextbook:
    @given(shape=shapes, seed=seeds, lr=st.floats(1e-4, 0.5), weight_decay=st.sampled_from([0.0, 0.01]))
    @settings(max_examples=25, deadline=None)
    def test_adam_over_50_steps(self, shape, seed, lr, weight_decay):
        rng = np.random.default_rng(seed)
        start = rng.normal(size=shape)
        grads = [rng.normal(size=shape) * rng.choice([1e-6, 1.0, 1e3]) for _ in range(50)]
        param = Parameter(start.copy())
        optimizer = Adam([param], lr=lr, betas=(0.9, 0.999), epsilon=1e-8, weight_decay=weight_decay)
        for grad in grads:
            param.grad = grad.copy()
            optimizer.step()
        expected = _textbook_adam(start, grads, lr, (0.9, 0.999), 1e-8, weight_decay)
        assert param.data.tobytes() == expected.tobytes()

    @given(shape=shapes, seed=seeds, lr=st.floats(1e-4, 0.5), momentum=st.sampled_from([0.0, 0.9]),
           weight_decay=st.sampled_from([0.0, 0.01]))
    @settings(max_examples=25, deadline=None)
    def test_sgd_over_50_steps(self, shape, seed, lr, momentum, weight_decay):
        rng = np.random.default_rng(seed)
        start = rng.normal(size=shape)
        grads = [rng.normal(size=shape) for _ in range(50)]
        param = Parameter(start.copy())
        optimizer = SGD([param], lr=lr, momentum=momentum, weight_decay=weight_decay)
        for grad in grads:
            param.grad = grad.copy()
            optimizer.step()
        assert param.data.tobytes() == _textbook_sgd(start, grads, lr, momentum, weight_decay).tobytes()

    @given(shape_list=st.lists(shapes, min_size=1, max_size=4), seed=seeds, max_norm=st.floats(0.01, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_clip_grad_norm(self, shape_list, seed, max_norm):
        rng = np.random.default_rng(seed)
        grads = [rng.normal(size=shape) for shape in shape_list]
        params = [Parameter(np.zeros(shape)) for shape in shape_list]
        for param, grad in zip(params, grads):
            param.grad = grad.copy()
        ungraded = Parameter(np.zeros(3))
        total = clip_grad_norm(params + [ungraded], max_norm)
        expected_total = float(np.sqrt(sum(float((grad ** 2).sum()) for grad in grads)))
        assert total == expected_total and ungraded.grad is None
        scale = max_norm / expected_total if expected_total > max_norm else None
        for param, grad in zip(params, grads):
            expected = grad if scale is None else grad * scale
            assert param.grad.tobytes() == expected.tobytes()


class TestTrainingBesideInference:
    def _fit(self, x, y):
        """A short deterministic fit; returns the weights and how many
        parameter gradients were missing at any optimiser step."""
        model = MLP(4, [6], 1, rng=np.random.default_rng(5))
        missing = []

        class Checking(SGD):
            def step(self) -> None:
                missing.append(sum(p.grad is None for p in self.parameters))
                super().step()

        trainer = Trainer(
            model, Checking(model.parameters(), lr=0.05),
            loss_fn=lambda bx, by: mse_loss(model(Tensor(bx)), Tensor(by)),
            batch_size=8, max_epochs=3, rng=np.random.default_rng(9),
        )
        trainer.fit(x, y)
        return model.state_dict(), missing

    def test_a_thread_trains_while_another_sits_in_no_grad(self, rng):
        x, y = rng.normal(size=(32, 4)), rng.normal(size=(32, 1))
        reference, _ = self._fit(x, y)
        entered, release, outcome = threading.Event(), threading.Event(), {}

        def scorer():
            with no_grad():
                entered.set()
                release.wait(timeout=60)

        def trainer():
            outcome["state"], outcome["missing"] = self._fit(x, y)

        scoring = threading.Thread(target=scorer)
        scoring.start()
        assert entered.wait(timeout=60)
        with no_grad():  # the spawning thread's mode is not inherited either
            training = threading.Thread(target=trainer)
            training.start()
            training.join(timeout=120)
        release.set()
        scoring.join(timeout=60)
        assert not training.is_alive() and not scoring.is_alive()
        assert outcome["missing"] and not any(outcome["missing"])
        assert all(np.array_equal(outcome["state"][name], reference[name]) for name in reference)

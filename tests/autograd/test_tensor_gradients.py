"""Analytic gradients of every primitive operation versus finite differences."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradient, concatenate, linear, stack, where
from repro.nn import binary_cross_entropy_with_logits, contrastive_loss, siamese_loss


@pytest.fixture
def arr(rng):
    return rng.normal(size=(3, 4))


class TestElementwiseGradients:
    def test_add(self, rng):
        check_gradient(lambda a, b: (a + b).sum(), [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])

    def test_add_broadcast(self, rng):
        check_gradient(lambda a, b: (a + b).sum(), [rng.normal(size=(2, 3)), rng.normal(size=(3,))])

    def test_mul(self, rng):
        check_gradient(lambda a, b: (a * b).sum(), [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])

    def test_mul_broadcast(self, rng):
        check_gradient(lambda a, b: (a * b).sum(), [rng.normal(size=(4,)), rng.normal(size=(2, 4))])

    def test_div(self, rng):
        a = rng.normal(size=(3,))
        b = rng.normal(size=(3,)) + 3.0
        check_gradient(lambda x, y: (x / y).sum(), [a, b])

    def test_pow(self, rng):
        check_gradient(lambda x: (x ** 3).sum(), [rng.normal(size=(3,))])

    def test_sub(self, rng):
        check_gradient(lambda a, b: (a - b).sum(), [rng.normal(size=(3,)), rng.normal(size=(3,))])


class TestNonlinearityGradients:
    def test_relu(self, rng):
        x = rng.normal(size=(5,)) + 0.3  # avoid points exactly at zero
        check_gradient(lambda t: t.relu().sum(), [x])

    def test_sigmoid(self, arr):
        check_gradient(lambda t: t.sigmoid().sum(), [arr])

    def test_tanh(self, arr):
        check_gradient(lambda t: t.tanh().sum(), [arr])

    def test_exp(self, arr):
        check_gradient(lambda t: t.exp().sum(), [arr])

    def test_log(self, rng):
        x = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda t: t.log().sum(), [x])

    def test_softplus(self, arr):
        check_gradient(lambda t: t.softplus().sum(), [arr])

    def test_abs(self, rng):
        x = rng.normal(size=(5,)) + np.sign(rng.normal(size=(5,))) * 0.5
        check_gradient(lambda t: t.abs().sum(), [x])

    def test_sqrt(self, rng):
        x = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda t: t.sqrt().sum(), [x])

    def test_maximum(self, rng):
        a = rng.normal(size=(5,))
        b = a + np.sign(rng.normal(size=(5,)))  # keep a gap so ties don't occur
        check_gradient(lambda x, y: x.maximum(y).sum(), [a, b])

    def test_clip(self, rng):
        x = rng.normal(size=(6,)) * 3
        check_gradient(lambda t: t.clip(-1.0, 1.0).sum(), [x])


class TestMatmulGradients:
    def test_2d_2d(self, rng):
        check_gradient(lambda a, b: (a @ b).sum(), [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])

    def test_1d_2d(self, rng):
        check_gradient(lambda a, b: (a @ b).sum(), [rng.normal(size=4), rng.normal(size=(4, 2))])

    def test_2d_1d(self, rng):
        check_gradient(lambda a, b: (a @ b).sum(), [rng.normal(size=(3, 4)), rng.normal(size=4)])

    def test_1d_1d(self, rng):
        check_gradient(lambda a, b: a @ b, [rng.normal(size=4), rng.normal(size=4)])


ACTIVATIONS = {"none": {}, "relu": {"relu": True}, "clip": {"clip": (-0.5, 0.5)}}


@pytest.fixture
def own_rng():
    """A generator of these tests' own, so the session ``rng`` stream the
    other tests draw from is the same with or without them."""
    return np.random.default_rng(37)


class TestFusedOpGradients:
    """``linear`` (with and without bias, each folded activation, the input
    requiring a gradient or not), ``scaled_exp`` and ``siamese_loss`` against
    finite differences, and byte for byte against the ops they fold."""

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("x_shape", [(5, 4), (4,)])
    def test_linear(self, own_rng, activation, bias, input_grad, x_shape):
        kwargs = ACTIVATIONS[activation]
        x = own_rng.normal(size=x_shape)
        coeff = Tensor(own_rng.normal(size=x_shape[:-1] + (3,)))
        params = [own_rng.normal(size=(4, 3))] + ([own_rng.normal(size=(3,)) * 0.3] if bias else [])

        def loss(x_t, w, b=None):
            return (linear(x_t, w, b, **kwargs) * coeff).sum()

        if input_grad:
            check_gradient(loss, [x] + params)
        else:
            constant = Tensor(x)
            check_gradient(lambda *ps: loss(constant, *ps), params)
            assert constant.grad is None

    def test_linear_input_reached_twice_accumulates(self, own_rng):
        # The Siamese encoder case: one weight, two inputs, one backward.
        def f(a, b, w, bias):
            return (linear(a, w, bias, relu=True).sum() + (linear(b, w, bias, clip=(-1.0, 1.0)) ** 2).sum())

        check_gradient(f, [own_rng.normal(size=(3, 4)), own_rng.normal(size=(2, 4)),
                           own_rng.normal(size=(4, 5)), own_rng.normal(size=(5,))])

    def test_scaled_exp(self, own_rng):
        check_gradient(lambda t: (t.scaled_exp(0.5) * t).sum(), [own_rng.normal(size=(3, 4))])

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_linear_equals_composed_ops_byte_for_byte(self, own_rng, activation):
        kwargs = ACTIVATIONS[activation]
        x, w, b = own_rng.normal(size=(6, 4)), own_rng.normal(size=(4, 3)), own_rng.normal(size=(3,))
        upstream = own_rng.normal(size=(6, 3))
        fused = [Tensor(v.copy(), requires_grad=True) for v in (x, w, b)]
        composed = [Tensor(v.copy(), requires_grad=True) for v in (x, w, b)]
        out = linear(*fused, **kwargs)
        reference = composed[0].matmul(composed[1]) + composed[2]
        if "relu" in kwargs:
            reference = reference.relu()
        elif "clip" in kwargs:
            reference = reference.clip(*kwargs["clip"])
        assert out.data.tobytes() == reference.data.tobytes()
        out.backward(upstream)
        reference.backward(upstream)
        for ours, theirs in zip(fused, composed):
            assert ours.grad.tobytes() == theirs.grad.tobytes()

    @pytest.mark.parametrize("wrt", ["both", "logits", "distances"])
    def test_siamese_loss(self, own_rng, wrt):
        logits, distances = own_rng.normal(size=6) * 3.0, np.abs(own_rng.normal(size=6)) * 0.6
        labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        if wrt == "both":
            check_gradient(lambda z, d: siamese_loss(z, d, labels, 0.5, 0.7), [logits, distances])
        elif wrt == "logits":
            check_gradient(lambda z: siamese_loss(z, Tensor(distances), labels, 0.5, 0.7), [logits])
        else:
            check_gradient(lambda d: siamese_loss(Tensor(logits), d, labels, 0.5, 0.7), [distances])

    def test_siamese_loss_equals_composed_losses_byte_for_byte(self, own_rng):
        for _ in range(20):
            n = int(own_rng.integers(1, 12))
            logits, distances = own_rng.normal(size=n) * 10.0, np.abs(own_rng.normal(size=n))
            labels = (own_rng.random(n) > 0.5).astype(np.float64)
            fused = [Tensor(logits.copy(), requires_grad=True), Tensor(distances.copy(), requires_grad=True)]
            composed = [Tensor(logits.copy(), requires_grad=True), Tensor(distances.copy(), requires_grad=True)]
            out = siamese_loss(*fused, labels, 0.5, 1.3)
            reference = (binary_cross_entropy_with_logits(composed[0], Tensor(labels))
                         + 1.3 * contrastive_loss(composed[1], Tensor(labels), margin=0.5))
            assert out.data.tobytes() == reference.data.tobytes()
            out.backward()
            reference.backward()
            for ours, theirs in zip(fused, composed):
                assert ours.grad.tobytes() == theirs.grad.tobytes()

    def test_scaled_exp_equals_composed_ops_byte_for_byte(self, own_rng):
        data, upstream = own_rng.normal(size=(5, 4)) * 40.0, own_rng.normal(size=(5, 4))
        fused, composed = Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)
        out, reference = fused.scaled_exp(0.5), (composed * 0.5).exp()
        assert out.data.tobytes() == reference.data.tobytes()
        out.backward(upstream)
        reference.backward(upstream)
        assert fused.grad.tobytes() == composed.grad.tobytes()


class TestReductionAndShapeGradients:
    def test_sum_axis(self, arr):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), [arr])

    def test_mean(self, arr):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), [arr])

    def test_reshape(self, arr):
        check_gradient(lambda t: (t.reshape(4, 3) ** 2).sum(), [arr])

    def test_transpose(self, arr):
        check_gradient(lambda t: (t.T ** 2).sum(), [arr])

    def test_getitem(self, arr):
        check_gradient(lambda t: (t[1:, :2] ** 2).sum(), [arr])

    def test_concatenate(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        check_gradient(lambda x, y: (concatenate([x, y], axis=1) ** 2).sum(), [a, b])

    def test_stack(self, rng):
        a, b = rng.normal(size=(3,)), rng.normal(size=(3,))
        check_gradient(lambda x, y: (stack([x, y], axis=0) ** 2).sum(), [a, b])

    def test_where(self, rng):
        a, b = rng.normal(size=(4,)), rng.normal(size=(4,))
        mask = rng.random(4) > 0.5
        check_gradient(lambda x, y: (where(mask, x, y) ** 2).sum(), [a, b])


class TestCompositeGradients:
    def test_mlp_like_composition(self, rng):
        def f(x, w1, w2):
            return ((x @ w1).relu() @ w2).sigmoid().sum()
        check_gradient(f, [rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=(5, 1))])

    def test_vae_like_objective(self, rng):
        def f(mu, log_var):
            kl = -0.5 * (1.0 + log_var - mu * mu - log_var.exp()).sum(axis=-1)
            return kl.mean()
        check_gradient(f, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])

    def test_wasserstein_like_objective(self, rng):
        def f(mu_a, mu_b, sig_a, sig_b):
            d = (mu_a - mu_b) * (mu_a - mu_b) + (sig_a - sig_b) * (sig_a - sig_b)
            return d.sum(axis=-1).mean()
        inputs = [rng.normal(size=(2, 3)) for _ in range(4)]
        check_gradient(f, inputs)

    def test_reused_tensor_accumulates(self, rng):
        # The same tensor used twice must receive the sum of both gradient paths.
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = (x * 2.0 + x * 3.0).sum()
        y.backward()
        assert np.allclose(x.grad, np.full(3, 5.0))


class TestBackwardSemantics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3).backward(np.ones((2, 2)))
        assert np.allclose(x.grad, 3 * np.ones((2, 2)))

    def test_no_grad_for_untracked_tensor(self):
        x = Tensor([1.0, 2.0])
        y = (x * 2).sum()
        y.backward()
        assert x.grad is None

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3).sum().backward()
        (x * 3).sum().backward()
        assert np.allclose(x.grad, [6.0])

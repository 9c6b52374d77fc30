"""Forward-pass correctness of Tensor operations against plain numpy."""

import numpy as np
import pytest

from repro.autograd import Tensor, concatenate, stack, where


class TestArithmetic:
    def test_add(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])

    def test_add_scalar(self):
        assert np.allclose((Tensor([1.0, 2.0]) + 1.5).data, [2.5, 3.5])

    def test_radd(self):
        assert np.allclose((2.0 + Tensor([1.0])).data, [3.0])

    def test_sub(self):
        assert np.allclose((Tensor([5.0]) - Tensor([2.0])).data, [3.0])

    def test_rsub(self):
        assert np.allclose((10.0 - Tensor([4.0])).data, [6.0])

    def test_mul(self):
        assert np.allclose((Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])).data, [8.0, 15.0])

    def test_neg(self):
        assert np.allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_div(self):
        assert np.allclose((Tensor([6.0]) / Tensor([3.0])).data, [2.0])

    def test_rdiv(self):
        assert np.allclose((6.0 / Tensor([2.0])).data, [3.0])

    def test_pow(self):
        assert np.allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_broadcast_add(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.arange(4.0))
        assert (a + b).shape == (3, 4)
        assert np.allclose((a + b).data[0], np.arange(4.0) + 1)


class TestMatmul:
    def test_2d_2d(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_1d_1d(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_1d_2d(self, rng):
        a, b = rng.normal(size=4), rng.normal(size=(4, 3))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_2d_1d(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestNonlinearities:
    def test_relu(self):
        assert np.allclose(Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])

    def test_sigmoid_range(self):
        # float64 rounds sigmoid(x) to exactly 1.0 once x exceeds ~36.7, so
        # ``< 1`` holds only on a bounded range; ``> 0`` holds everywhere.
        x = np.concatenate([np.random.default_rng(7).normal(size=100) * 10, [-1000.0, -30.0, 30.0, 1000.0]])
        out = Tensor(x).sigmoid().data
        assert np.all(out > 0) and np.all(out <= 1)
        assert np.all(out[np.abs(x) <= 30] < 1)

    def test_sigmoid_midpoint(self):
        assert np.isclose(Tensor([0.0]).sigmoid().data[0], 0.5)

    def test_tanh(self):
        x = np.array([-1.0, 0.0, 1.0])
        assert np.allclose(Tensor(x).tanh().data, np.tanh(x))

    def test_exp_log_roundtrip(self, rng):
        x = np.abs(rng.normal(size=10)) + 0.1
        assert np.allclose(Tensor(x).log().exp().data, x)

    def test_softplus_matches_numpy(self, rng):
        x = rng.normal(size=20) * 5
        assert np.allclose(Tensor(x).softplus().data, np.logaddexp(0, x))

    def test_abs(self):
        assert np.allclose(Tensor([-2.0, 3.0]).abs().data, [2.0, 3.0])

    def test_sqrt(self):
        assert np.allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])

    def test_clip(self):
        assert np.allclose(Tensor([-5.0, 0.5, 5.0]).clip(-1.0, 1.0).data, [-1.0, 0.5, 1.0])

    def test_maximum(self):
        out = Tensor([1.0, 5.0]).maximum(Tensor([3.0, 2.0]))
        assert np.allclose(out.data, [3.0, 5.0])


class TestReductions:
    def test_sum_all(self, rng):
        x = rng.normal(size=(3, 4))
        assert np.isclose(Tensor(x).sum().data, x.sum())

    def test_sum_axis(self, rng):
        x = rng.normal(size=(3, 4))
        assert np.allclose(Tensor(x).sum(axis=0).data, x.sum(axis=0))

    def test_sum_keepdims(self, rng):
        x = rng.normal(size=(3, 4))
        assert Tensor(x).sum(axis=1, keepdims=True).shape == (3, 1)

    def test_mean_all(self, rng):
        x = rng.normal(size=(5, 2))
        assert np.isclose(Tensor(x).mean().data, x.mean())

    def test_mean_axis(self, rng):
        x = rng.normal(size=(5, 2))
        assert np.allclose(Tensor(x).mean(axis=-1).data, x.mean(axis=-1))


class TestShapes:
    def test_reshape(self, rng):
        x = rng.normal(size=(2, 6))
        assert Tensor(x).reshape(3, 4).shape == (3, 4)

    def test_reshape_tuple(self, rng):
        x = rng.normal(size=(2, 6))
        assert Tensor(x).reshape((4, 3)).shape == (4, 3)

    def test_transpose(self, rng):
        x = rng.normal(size=(2, 5))
        assert np.allclose(Tensor(x).T.data, x.T)

    def test_getitem(self, rng):
        x = rng.normal(size=(4, 3))
        assert np.allclose(Tensor(x)[1:3].data, x[1:3])

    def test_len(self):
        assert len(Tensor(np.zeros((7, 2)))) == 7

    def test_item(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_repr_contains_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


class TestConstructorsAndHelpers:
    def test_zeros_ones(self):
        assert np.all(Tensor.zeros(2, 3).data == 0)
        assert np.all(Tensor.ones(2, 3).data == 1)

    def test_randn_shape(self, rng):
        assert Tensor.randn(4, 5, rng=rng).shape == (4, 5)

    def test_detach_breaks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_concatenate(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        out = concatenate([Tensor(a), Tensor(b)], axis=1)
        assert np.allclose(out.data, np.concatenate([a, b], axis=1))

    def test_stack(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=3)
        out = stack([Tensor(a), Tensor(b)], axis=0)
        assert np.allclose(out.data, np.stack([a, b]))

    def test_where(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        mask = a > b
        assert np.allclose(where(mask, Tensor(a), Tensor(b)).data, np.where(mask, a, b))

    def test_float64_coercion(self):
        assert Tensor(np.array([1, 2], dtype=np.int32)).data.dtype == np.float64

"""When ops record, how long a graph lives, and which buffers ops may reuse."""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradient, concatenate, is_grad_enabled, no_grad, stack, where


def _leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _is_plain(tensor: Tensor) -> bool:
    return tensor._parents == () and tensor._backward is None and not tensor.requires_grad


class TestWhenAnOpRecords:
    def test_records_only_when_an_operand_requires_a_gradient(self, rng):
        x, w = Tensor(rng.normal(size=(4, 3))), _leaf(rng, 3, 2)
        recorded = x.matmul(w)
        assert recorded.requires_grad and recorded._parents == (x, w) and recorded._backward is not None
        assert _is_plain(x.matmul(Tensor(w.data)))

    def test_every_op_is_plain_under_no_grad(self, rng):
        a, b = Tensor(np.abs(rng.normal(size=(3, 4))) + 0.1, requires_grad=True), _leaf(rng, 3, 4)
        with no_grad():
            results = [
                a + b, a - b, a * b, a / b, a ** 2, -a, a.matmul(b.T), a.exp(), a.log(), a.sqrt(),
                a.abs(), a.relu(), a.sigmoid(), a.tanh(), a.softplus(), a.clip(-1, 1), a.maximum(b),
                a.sum(axis=0), a.mean(), a.reshape(4, 3), a.transpose(), a[1:], 1.0 - a, 2.0 / a,
                concatenate([a, b]), stack([a, b]), where(a.data > 0, a, b),
            ]
        assert all(_is_plain(result) for result in results)

    def test_no_grad_restores_the_previous_mode(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_the_mode_when_the_block_raises(self):
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("boom")
        assert is_grad_enabled()

    def test_mode_is_per_thread(self):
        seen = {}

        def other_thread():
            seen["started_enabled"] = is_grad_enabled()
            with no_grad():
                seen["inside"] = is_grad_enabled()

        with no_grad():
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert not is_grad_enabled()
        assert seen == {"started_enabled": True, "inside": False}
        assert is_grad_enabled()


class TestGraphLifetime:
    def test_backward_releases_the_graph_and_keeps_leaf_gradients(self, rng):
        x, w = _leaf(rng, 4, 3), _leaf(rng, 3, 2)
        hidden = x.matmul(w)
        activated = hidden.relu()
        loss = activated.sum()
        loss.backward()
        assert x.grad is not None and w.grad is not None
        for node in (hidden, activated, loss):
            assert node._parents == () and node.grad is None

    def test_second_backward_raises(self, rng):
        x = _leaf(rng, 3)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()

    def test_backward_through_a_released_subgraph_raises(self, rng):
        x = _leaf(rng, 3)
        shared = x * 2.0
        shared.sum().backward()
        with pytest.raises(RuntimeError, match="released"):
            (shared * 3.0).sum().backward()

    def test_graph_holds_no_reference_cycle(self, rng):
        import gc
        import weakref

        class Probe(Tensor):
            __slots__ = ("__weakref__",)

        gc.collect()
        gc.disable()
        try:
            x = Probe(rng.normal(size=(3,)), requires_grad=True)
            alive = weakref.ref(x)
            loss = ((x * x).relu() + x).sum()
            del x
            assert alive() is not None  # the graph keeps its leaf...
            del loss
            assert alive() is None  # ...and dropping the output frees it, uncollected
        finally:
            gc.enable()

    def test_gradient_accumulates_in_place_across_graphs(self, rng):
        x = _leaf(rng, 5)
        (x * 3.0).sum().backward()
        first = x.grad
        (x * 4.0).sum().backward()
        assert x.grad is first
        assert np.array_equal(first, np.full(5, 7.0))

    def test_explicit_upstream_gradient_is_not_adopted(self, rng):
        x = _leaf(rng, 2, 2)
        upstream = np.ones((2, 2))
        (x + 0.0).backward(upstream)
        x.grad += 1.0
        assert np.array_equal(upstream, np.ones((2, 2)))


class TestSkippedOperands:
    def test_matmul_skips_the_input_batch(self, rng):
        x, w = Tensor(rng.normal(size=(4, 3))), _leaf(rng, 3, 2)
        x.matmul(w).sum().backward()
        assert x.grad is None and w.grad.shape == (3, 2)

    def test_constant_operands_get_no_gradient(self, rng):
        a, constant = _leaf(rng, 3), Tensor(rng.normal(size=3))
        ((a * constant - constant) / constant).maximum(constant).sum().backward()
        assert constant.grad is None and a.grad is not None

    def test_subtraction_gradients(self, rng):
        check_gradient(lambda a, b: ((a - b) * (a - b) - a).sum(), [rng.normal(size=(3, 2)), rng.normal(size=(2,))])
        check_gradient(lambda a: (a - a * 2.0).sum() + (1.0 - a).sum(), [rng.normal(size=(4,))])


class TestBufferReuse:
    def test_augmented_ops_write_in_place_outside_a_graph(self, rng):
        data = rng.normal(size=(3, 4))
        bias = rng.normal(size=(4,))
        for op, expected in (("add", data + bias), ("mul", data * bias)):
            tensor = Tensor(data.copy())
            buffer = tensor.data
            if op == "add":
                tensor += Tensor(bias)
            else:
                tensor *= Tensor(bias)
            assert tensor.data is buffer
            assert tensor.data.tobytes() == expected.tobytes()

    def test_augmented_ops_record_inside_a_graph(self, rng):
        a, b = _leaf(rng, 3), _leaf(rng, 3)
        before = a.data.copy()
        out = a
        out += b
        out *= b
        assert out is not a and np.array_equal(a.data, before)
        out.sum().backward()
        assert np.allclose(a.grad, b.data) and np.allclose(b.grad, (before + b.data) + b.data)

    def test_augmented_op_with_a_parameter_on_the_right_records_unless_no_grad(self, rng):
        product, bias = Tensor(rng.normal(size=(2, 3))), _leaf(rng, 3)
        recorded = product
        recorded += bias
        assert recorded is not product and recorded.requires_grad
        with no_grad():
            reused = product
            reused += bias
        assert reused is product and _is_plain(reused)

    def test_augmented_op_that_would_grow_the_shape_allocates(self, rng):
        small = Tensor(rng.normal(size=(3,)))
        buffer = small.data
        small += Tensor(rng.normal(size=(2, 3)))
        assert small.shape == (2, 3) and buffer.shape == (3,)

    @pytest.mark.parametrize("inplace, reference", [
        (lambda t: t.relu_(), lambda t: t.relu()),
        (lambda t: t.clip_(-0.5, 0.5), lambda t: t.clip(-0.5, 0.5)),
    ])
    def test_underscore_ops_reuse_a_plain_buffer_and_spare_a_graph(self, rng, inplace, reference):
        data = rng.normal(size=(4, 5)) * 40.0
        expected = reference(Tensor(data.copy())).data
        plain = Tensor(data.copy())
        assert inplace(plain) is plain and plain.data.tobytes() == expected.tobytes()
        tracked = Tensor(data.copy(), requires_grad=True)
        with no_grad():
            result = inplace(tracked)
        assert result is not tracked and np.array_equal(tracked.data, data)
        assert result.data.tobytes() == expected.tobytes()

    def test_underscore_ops_record_like_their_plain_forms(self, rng):
        check_gradient(lambda a: ((a * 1.0).relu_() + (a * 1.0).clip_(-0.3, 0.3)).sum(),
                       [rng.normal(size=(3, 3))])

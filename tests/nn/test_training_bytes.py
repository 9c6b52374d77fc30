"""Training through fused nodes and flat buffers leaves the reference's bytes.

The reference lives here: every ``Linear`` composed of primitive ops
(``matmul``, ``+``, ``relu``/``clip``), the sigma head as ``(x * 0.5).exp()``,
the matcher's loss as the BCE and contrastive losses added, and
per-parameter Adam, SGD and gradient clipping over separate arrays.  Each
case trains one model the library's way and an identical one the reference
way, step by step, and compares the loss, every gradient and every weight
byte for byte; a pickled, deep-copied or reloaded module must train the same.
"""

import copy
import itertools
import pickle
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.baselines.deepmatcher import _HybridNetwork
from repro.config import MatcherConfig, VAEConfig
from repro.core import matcher as matcher_module
from repro.core.matcher import SiameseMatcher
from repro.core.vae import VariationalAutoEncoder
from repro.nn import (
    SGD,
    Adam,
    Linear,
    Module,
    binary_cross_entropy_with_logits,
    clip_grad_norm,
    contrastive_loss,
    mse_loss,
)
from repro.nn.module import Parameter

STEPS = 6
MAX_NORM = 1.0  # low enough that most steps clip


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------
def _composed_linear(self, x, *, relu=False, clip=None):
    out = x.matmul(self.weight)
    if self.bias is not None:
        out += self.bias
    if relu:
        return out.relu_()
    return out if clip is None else out.clip_(*clip)


def _composed_scaled_exp(self, scale):
    return (self * scale).exp()


def _composed_siamese_loss(logits, distances, labels, margin, contrastive_weight):
    labels = Tensor(labels)
    classification = binary_cross_entropy_with_logits(logits, labels)
    return classification + contrastive_weight * contrastive_loss(distances, labels, margin=margin)


@contextmanager
def _composed_ops():
    saved = Linear.forward, Tensor.scaled_exp, matcher_module.siamese_loss
    Linear.forward, Tensor.scaled_exp = _composed_linear, _composed_scaled_exp
    matcher_module.siamese_loss = _composed_siamese_loss
    try:
        yield
    finally:
        Linear.forward, Tensor.scaled_exp, matcher_module.siamese_loss = saved


class _ReferenceAdam:
    def __init__(self, parameters, lr=0.001, betas=(0.9, 0.999), epsilon=1e-8, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr, (self.beta1, self.beta2), self.epsilon, self.weight_decay = lr, betas, epsilon, weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self):
        for param in self.parameters:
            param.grad = None

    def step(self):
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += grad * (1.0 - self.beta1)
            v *= self.beta2
            v += (grad * grad) * (1.0 - self.beta2)
            root = np.sqrt(v / bias_correction2) + self.epsilon
            param.data -= (m / bias_correction1) * self.lr / root


class _ReferenceSGD:
    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr, self.momentum, self.weight_decay = lr, momentum, weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self):
        for param in self.parameters:
            param.grad = None

    def step(self):
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= grad * self.lr


def _reference_clip(parameters, max_norm):
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float(np.square(grad).sum()) for grad in grads)))
    if total > max_norm and total > 0:
        for grad in grads:
            grad *= max_norm / total
    return total


OPTIMIZERS = {
    "adam": (lambda ps: Adam(ps, lr=0.01), lambda ps: _ReferenceAdam(ps, lr=0.01)),
    "adam-weight-decay": (lambda ps: Adam(ps, lr=0.01, weight_decay=0.05),
                          lambda ps: _ReferenceAdam(ps, lr=0.01, weight_decay=0.05)),
    "sgd-momentum-weight-decay": (lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01),
                                  lambda ps: _ReferenceSGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01)),
}


# ----------------------------------------------------------------------
# The models
# ----------------------------------------------------------------------
class _Branchy(Module):
    """A ReLU MLP with a side branch used on odd steps only: on even steps the
    middle parameters hold no gradient and the optimizers must skip them."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(4)
        self.first = Linear(5, 7, rng=rng)
        self.side = Linear(5, 3, activation="linear", rng=rng)
        self.second = Linear(7, 3, bias=False, activation="linear", rng=rng)

    def forward(self, x, step):
        out = self.second(self.first(x, relu=True))
        return out + self.side(x) if step % 2 else out


def _data(step, *shape):
    return np.random.default_rng(1000 + step).normal(size=shape)


def _labels(step, n):
    return (np.random.default_rng(2000 + step).random(n) > 0.5).astype(np.float64)


CASES = {
    "vae": (
        lambda: VariationalAutoEncoder(VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, seed=2)),
        lambda model, step: model.loss(Tensor(_data(step, 9, 12) * 3.0)),
    ),
    "siamese-matcher": (
        lambda: SiameseMatcher(
            3, vae_config=VAEConfig(ir_dim=10, hidden_dim=14, latent_dim=5),
            config=MatcherConfig(mlp_hidden=(8, 4), seed=5),
        ),
        lambda model, step: model.loss(_data(step, 7, 3, 10) * 5.0, _data(step + 50, 7, 3, 10), _labels(step, 7)),
    ),
    "deepmatcher": (
        lambda: _HybridNetwork(3, 8, 6, (10, 5), np.random.default_rng(6)),
        lambda model, step: binary_cross_entropy_with_logits(
            model(Tensor(_data(step, 5, 3, 8)), Tensor(_data(step + 50, 5, 3, 8))), Tensor(_labels(step, 5))
        ),
    ),
    "branchy": (
        _Branchy,
        lambda model, step: mse_loss(model(Tensor(_data(step, 6, 5)), step), Tensor(_data(step + 50, 6, 3))),
    ),
}


def _step(model, optimizer, loss_fn, step, reference):
    """One training step; returns (loss bytes, norm before clipping)."""
    with _composed_ops() if reference else nullcontext():
        optimizer.zero_grad()
        loss = loss_fn(model, step)
        loss.backward()
    norm = _reference_clip(optimizer.parameters, MAX_NORM) if reference else optimizer.clip_grad_norm(MAX_NORM)
    optimizer.step()
    return loss.data.tobytes(), norm


def _assert_same_bytes(model, reference):
    ours, theirs = model.state_dict(), reference.state_dict()
    assert list(ours) == list(theirs)
    for name in ours:
        assert ours[name].tobytes() == theirs[name].tobytes(), name
    for (name, param), other in zip(model.named_parameters(), reference.parameters()):
        assert (param.grad is None) == (other.grad is None), name
        if param.grad is not None:
            assert param.grad.tobytes() == other.grad.tobytes(), name


def _train_both(case, optimizer, model, reference, steps=range(STEPS)):
    build_optimizer, build_reference = OPTIMIZERS[optimizer]
    opt, ref_opt = build_optimizer(model.parameters()), build_reference(reference.parameters())
    loss_fn = CASES[case][1]
    for step in steps:
        assert _step(model, opt, loss_fn, step, False) == _step(reference, ref_opt, loss_fn, step, True)
        _assert_same_bytes(model, reference)


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_flat_training_equals_the_reference(case, optimizer):
    build = CASES[case][0]
    model, reference = build(), build()
    _train_both(case, optimizer, model, reference)
    # A trained module pickles to the bytes of separate arrays: the flat
    # buffers its parameters are views into stay behind.
    assert pickle.dumps(model) == pickle.dumps(reference)


@pytest.mark.parametrize("duplicate", ["pickle", "deepcopy"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_duplicated_module_trains_like_the_original(case, duplicate):
    build = CASES[case][0]
    model, reference = build(), build()
    _train_both(case, "adam", model, reference, steps=range(2))
    twin = pickle.loads(pickle.dumps(model)) if duplicate == "pickle" else copy.deepcopy(model)
    # The twin holds separate arrays and no gradient buffer.
    params = twin.parameters()
    assert all(param._grad_view is None for param in params)
    assert not any(np.shares_memory(a.data, b.data) for a, b in itertools.combinations(params, 2))
    # The original and its twin go on, each with a fresh optimizer, and each
    # against a copy of the reference.
    reference_copy = copy.deepcopy(reference)
    _train_both(case, "adam", twin, reference, steps=range(2, STEPS))
    _train_both(case, "adam", model, reference_copy, steps=range(2, STEPS))
    _assert_same_bytes(twin, model)


@pytest.mark.parametrize("case", sorted(CASES))
def test_load_state_dict_mid_training_writes_into_the_views(case):
    build = CASES[case][0]
    model, reference = build(), build()
    opt, ref_opt = OPTIMIZERS["adam"][0](model.parameters()), OPTIMIZERS["adam"][1](reference.parameters())
    loss_fn = CASES[case][1]
    for step in range(STEPS):
        if step == 3:
            state = {name: value * 0.5 for name, value in build().state_dict().items()}
            views = [param.data for param in model.parameters()]
            model.load_state_dict(state)
            reference.load_state_dict(state)
            assert all(param.data is view for param, view in zip(model.parameters(), views))
            assert all(np.shares_memory(param.data, opt._flat.data) for param in model.parameters())
        assert _step(model, opt, loss_fn, step, False) == _step(reference, ref_opt, loss_fn, step, True)
        _assert_same_bytes(model, reference)


# ----------------------------------------------------------------------
# The flat optimizer step and clip against the per-parameter reference
# ----------------------------------------------------------------------
shapes = st.lists(st.sampled_from([(1,), (7,), (3, 5), (4, 1), (2, 3, 2)]), min_size=1, max_size=5)


@given(shape_list=shapes, seed=st.integers(0, 2 ** 16), optimizer=st.sampled_from(sorted(OPTIMIZERS)),
       data=st.data())
@settings(max_examples=30, deadline=None)
def test_flat_step_and_clip_equal_the_reference(shape_list, seed, optimizer, data):
    rng = np.random.default_rng(seed)
    start = [rng.normal(size=shape) for shape in shape_list]
    params = [Parameter(value.copy()) for value in start]
    reference = [Parameter(value.copy()) for value in start]
    build_optimizer, build_reference = OPTIMIZERS[optimizer]
    opt, ref_opt = build_optimizer(params), build_reference(reference)
    for _ in range(8):
        # Some gradients missing, the others assigned from outside the buffer.
        present = data.draw(st.lists(st.booleans(), min_size=len(shape_list), max_size=len(shape_list)))
        for param, other, shape, has in zip(params, reference, shape_list, present):
            param.grad = other.grad = None
            if has:
                param.grad = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3])
                other.grad = param.grad.copy()
        max_norm = float(rng.choice([0.01, 1.0, 1e6]))
        assert opt.clip_grad_norm(max_norm) == _reference_clip(reference, max_norm)
        opt.step()
        ref_opt.step()
        for param, other in zip(params, reference):
            assert param.data.tobytes() == other.data.tobytes()
            assert (param.grad is None) == (other.grad is None)
            if other.grad is not None:
                assert param.grad.tobytes() == other.grad.tobytes()


def test_backward_writes_first_gradients_into_the_flat_buffer():
    model = CASES["siamese-matcher"][0]()
    opt = Adam(model.parameters())
    CASES["siamese-matcher"][1](model, 0).backward()
    for param in model.parameters():
        assert param.grad is param._grad_view and np.shares_memory(param.grad, opt._flat.grad)
    opt.zero_grad()
    assert all(param.grad is None for param in model.parameters())


def test_free_clip_grad_norm_equals_the_flat_one():
    model, reference = CASES["deepmatcher"][0](), CASES["deepmatcher"][0]()
    opt = Adam(model.parameters())
    for module in (model, reference):
        CASES["deepmatcher"][1](module, 0).backward()
    assert opt.clip_grad_norm(0.1) == clip_grad_norm(reference.parameters(), 0.1)
    for param, other in zip(model.parameters(), reference.parameters()):
        assert param.grad.tobytes() == other.grad.tobytes()


def test_a_parameter_listed_twice_is_refused():
    param = Parameter(np.zeros(3))
    with pytest.raises(ValueError):
        Adam([param, param])

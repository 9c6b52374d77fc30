"""Training and inference leave nothing for the cyclic garbage collector.

A finished step and a forward-only score are freed by reference counting:
with the collector switched off, each call below must leave
``gc.collect() == 0``, and ``fit`` must return with no graph alive.
"""

import gc
import types
from contextlib import contextmanager

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.config import MatcherConfig
from repro.core.active import ActiveLearningLoop, GroundTruthOracle
from repro.core.matcher import SiameseMatcher, pair_ir_arrays
from repro.core.vae import VariationalAutoEncoder
from repro.nn.module import Parameter


@contextmanager
def no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


def reachable_tensors(root):
    """Every ``Tensor`` reachable from ``root`` by following references
    (not through classes, functions or modules: those lead to every global)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def assert_only_parameters(module):
    tensors = reachable_tensors(module)
    assert tensors and len(tensors) == len(module.parameters())
    for tensor in tensors:
        assert isinstance(tensor, Parameter)
        assert tensor._parents == () and tensor._backward is None


@pytest.fixture(scope="module")
def pair_arrays(tiny_domain, tiny_representation):
    return pair_ir_arrays(tiny_representation, tiny_domain.task, tiny_domain.splits.train)


@pytest.fixture(scope="module")
def matcher(tiny_domain, tiny_representation, pair_arrays):
    model = SiameseMatcher(
        arity=tiny_domain.task.arity,
        vae_config=tiny_representation.config,
        config=MatcherConfig(epochs=3, mlp_hidden=(8, 4), seed=5),
    ).initialize_from(tiny_representation)
    model.fit(*pair_arrays)
    return model


def test_vae_fit_leaves_no_garbage_and_no_graph(small_vae_config, rng):
    vae = VariationalAutoEncoder(small_vae_config)
    irs = rng.normal(size=(96, small_vae_config.ir_dim))
    with no_cyclic_garbage():
        vae.fit(irs, epochs=2)
    assert_only_parameters(vae)


def test_encode_numpy_leaves_no_garbage(tiny_representation, small_vae_config, rng):
    irs = rng.normal(size=(50, small_vae_config.ir_dim))
    with no_cyclic_garbage():
        tiny_representation.vae.encode_numpy(irs)
        tiny_representation.vae.sample_latent(irs, num_samples=3, rng=np.random.default_rng(0))


def test_matcher_fit_leaves_no_garbage_and_no_graph(matcher, pair_arrays):
    with no_cyclic_garbage():
        matcher.fit(*pair_arrays, epochs=2)
    assert_only_parameters(matcher)


def test_matcher_scoring_leaves_no_garbage(matcher, pair_arrays):
    left, right, _ = pair_arrays
    with no_cyclic_garbage():
        matcher.predict_proba(left, right)
    with no_cyclic_garbage():
        matcher.pair_distances(left, right)


def test_one_active_learning_iteration_leaves_no_garbage(tiny_domain, tiny_representation, small_al_config):
    loop = ActiveLearningLoop(
        task=tiny_domain.task,
        representation=tiny_representation,
        oracle=GroundTruthOracle(tiny_domain.task),
        config=small_al_config,
        matcher_config=MatcherConfig(epochs=3, mlp_hidden=(8, 4), seed=17),
        test_pairs=tiny_domain.splits.test,
    )
    with no_cyclic_garbage():
        result = loop.run(iterations=1)
    assert len(result.history) == 2
    assert_only_parameters(result.matcher)

"""Shared oracles for the engine tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from repro.core.representation import EntityRepresentationModel
from repro.data.pairs import RecordPair
from repro.data.schema import ERTask
from repro.engine import release_engine_resources
from repro.engine import shard as shard_module


def _pair_latent_distances_loop(
    task: ERTask,
    representation: EntityRepresentationModel,
    pairs: Sequence[RecordPair],
) -> np.ndarray:
    """Per-pair reference for :func:`repro.core.active.sampler.pair_latent_distances`.

    Re-encodes both tables and walks the pairs one at a time — the ground
    truth the store's vectorized gather must reproduce.
    """
    if not pairs:
        return np.zeros(0)
    left_encoding = representation.encode_table(task.left)
    right_encoding = representation.encode_table(task.right)
    distances = np.zeros(len(pairs))
    for i, pair in enumerate(pairs):
        mu_s, _ = left_encoding.of(pair.left_id)
        mu_t, _ = right_encoding.of(pair.right_id)
        distances[i] = float(np.sqrt(((mu_s - mu_t) ** 2).sum(axis=-1)).mean())
    return distances


@pytest.fixture(scope="session")
def pair_distance_loop():
    """The per-pair oracle as a fixture, so tests avoid cross-module imports."""
    return _pair_latent_distances_loop


@pytest.fixture()
def install_pool(monkeypatch):
    """``install_pool(pool)`` makes ``pool`` the local pool a ``workers > 1``
    resolve borrows: the cached slot is emptied and
    :func:`repro.engine.shard.make_pool` patched to hand ``pool`` out (for
    its own worker count only).  The slot is emptied again at teardown,
    shutting down the pool a run handed back to it."""

    def install(pool):
        def make_pool(workers):
            assert workers == pool.workers, "the run asked for a different pool size"
            return pool

        release_engine_resources()
        monkeypatch.setattr(shard_module, "make_pool", make_pool)
        return pool

    yield install
    release_engine_resources()

"""Shared helpers for the serving-layer tests.

The serving tests mutate their task tables, so every helper builds a
*fresh* domain (deterministic generation — two builds with the same name
and scale are identical) instead of touching the session-scoped fixtures.

The matcher is the delta suite's distance matcher: a pure elementwise
function of the two IR tensors, so probabilities are independent of batch
composition and the daemon-vs-batch-oracle comparisons can demand exact
float equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import VAEConfig
from repro.core.pipeline import VAER
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import load_domain


class DistanceMatcher:
    """Deterministic elementwise matcher (see tests/engine/test_delta.py)."""

    def predict_proba(self, left_irs, right_irs, rows=None):
        if rows is not None:  # whole-table IRs and each pair's row indices
            left_irs, right_irs = left_irs[rows[0]], right_irs[rows[1]]
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


TINY_VAE = dict(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=7)


def build_served_model(name: str = "restaurants", scale: float = 0.2):
    """(domain, model) pair ready for ServeSession — fresh and mutable."""
    domain = load_domain(name, scale=scale)
    model = VAER()
    model.representation = EntityRepresentationModel(
        VAEConfig(**TINY_VAE), ir_method="lsa"
    ).fit(domain.task)
    model.task = domain.task
    model.matcher = DistanceMatcher()
    return domain, model


@pytest.fixture()
def build_model():
    """The model builder as a fixture, so tests avoid cross-module imports."""
    return build_served_model


@pytest.fixture()
def served(request):
    """A started session over a fresh restaurants domain; closed on teardown."""
    from repro.serve import ServeSession

    domain, model = build_served_model()
    session = ServeSession(model, k=4, batch_size=13).start()
    request.addfinalizer(session.close)
    return domain, session

"""Evaluation: metrics, timing, the experiment harness and table formatting.

The harness imports the core models (which themselves use
:mod:`repro.eval.metrics`), so harness and reporting symbols are loaded
lazily to keep the import graph acyclic.
"""

from repro.eval.metrics import (
    PRF,
    precision_recall_f1,
    best_threshold,
    neighbour_prf_at_k,
    recall_at_k,
)
from repro.eval.timing import (
    EngineCounters,
    engine_counters,
    reset_engine_counters,
)

_HARNESS_EXPORTS = {
    "HarnessConfig",
    "MatchingRow",
    "TransferRow",
    "ActiveLearningRow",
    "fit_representation",
    "raw_ir_neighbour_map",
    "vaer_neighbour_map",
    "representation_experiment",
    "recall_at_k_experiment",
    "run_vaer_matching",
    "run_baseline_matching",
    "matching_experiment",
    "transfer_experiment",
    "active_learning_experiment",
    "load_domains",
}

__all__ = [
    "PRF",
    "precision_recall_f1",
    "best_threshold",
    "neighbour_prf_at_k",
    "recall_at_k",
    "EngineCounters",
    "engine_counters",
    "reset_engine_counters",
    "reporting",
    *sorted(_HARNESS_EXPORTS),
]


def __getattr__(name: str):
    """Lazily resolve harness/reporting attributes to avoid import cycles."""
    import importlib

    if name in _HARNESS_EXPORTS:
        return getattr(importlib.import_module("repro.eval.harness"), name)
    if name == "reporting":
        return importlib.import_module("repro.eval.reporting")
    raise AttributeError(f"module 'repro.eval' has no attribute {name!r}")

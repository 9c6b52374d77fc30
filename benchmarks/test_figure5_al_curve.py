"""Figure 5 — test F1 as a function of actively labeled samples.

Uses the traces produced by the Table VIII runs: for each domain, the test F1
is recorded after every AL iteration together with the cumulative number of
oracle labels.  Expected shape (paper): the curves rise (or stay flat once
saturated) as labels accumulate; they do not trend downwards.
"""

from __future__ import annotations

import numpy as np

from repro.eval.harness import active_learning_experiment
from repro.eval.reporting import format_f1_trace

from benchmarks.test_table8_active_learning import compute_al_rows


def test_figure5_f1_vs_labels(benchmark, domains, harness_config):
    rows_by_domain = compute_al_rows(domains, harness_config)
    traces = {name: row.f1_trace for name, row in rows_by_domain.items()}

    benchmark.pedantic(lambda: active_learning_experiment(
        domains["restaurants"], harness_config, label_budget=12, iterations=1,
    ), rounds=1, iterations=1)

    print("\n\nFigure 5 — active learning F1 curves (labels:F1 per iteration)\n")
    print(format_f1_trace(traces))

    for name, trace in traces.items():
        assert len(trace) >= 2, name
        labels = [l for l, _ in trace]
        f1s = [f for _, f in trace]
        # Labels accumulate monotonically.
        assert labels == sorted(labels), name
        # The curve must not trend downwards: the final F1 stays within a
        # small tolerance of the best F1 seen along the way.
        assert f1s[-1] >= max(f1s) - 0.15, name

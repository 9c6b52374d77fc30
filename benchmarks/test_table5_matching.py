"""Table V — supervised matching effectiveness (VAER vs DeepER/DeepMatcher/DITTO).

Each system is trained on the domain's training pairs (threshold tuned on the
validation pairs) and evaluated on the test pairs.  Expected shape (paper):
VAER lands in the same F1 band as the end-to-end deep baselines — sometimes a
little above, sometimes a little below, never collapsing.
"""

from __future__ import annotations

import numpy as np

from repro.eval.harness import matching_experiment
from repro.eval.reporting import format_matching_table

SYSTEMS = ("deeper", "deepmatcher", "ditto")

#: Shared across the Table V and Table VI benchmarks (computed once).
_RESULTS_CACHE = {}


def compute_matching_results(domains, harness_config):
    if not _RESULTS_CACHE:
        for name, domain in domains.items():
            _RESULTS_CACHE[name] = matching_experiment(domain, harness_config, systems=SYSTEMS)
    return _RESULTS_CACHE


def test_table5_matching_effectiveness(benchmark, domains, harness_config):
    results = compute_matching_results(domains, harness_config)

    benchmark.pedantic(lambda: matching_experiment(
        domains["restaurants"], harness_config, systems=("deeper",)
    ), rounds=1, iterations=1)

    print("\n\nTable V — supervised matching P/R/F1\n")
    print(format_matching_table(results))

    vaer_f1 = np.array([rows[0].metrics.f1 for rows in results.values()])
    baseline_best_f1 = np.array([
        max(row.metrics.f1 for row in rows[1:]) for rows in results.values()
    ])
    # Shape check: VAER is comparable to the best baseline on average (within
    # 0.15 F1) and never degenerates to an unusable matcher.
    assert vaer_f1.mean() >= baseline_best_f1.mean() - 0.15
    assert (vaer_f1 > 0.4).all()
    # And the baselines themselves must be real matchers, not straw men.
    assert baseline_best_f1.mean() > 0.5

"""Table VI — training times.

Reports the wall-clock cost of VAER's representation and matching training
against the end-to-end baselines.  Expected shape (paper): VAER's *matching*
step is much cheaper than training any baseline end to end (that is what
makes iterative active learning affordable); representation training is a
one-off cost dominated by table size and is reusable across tasks
(Table VII).  Absolute numbers differ from the paper's GPU setting.
"""

from __future__ import annotations

import numpy as np

from repro.eval.harness import run_vaer_matching
from repro.eval.reporting import format_timing_table

from benchmarks.test_table5_matching import compute_matching_results


def test_table6_training_times(benchmark, domains, harness_config):
    results = compute_matching_results(domains, harness_config)

    benchmark.pedantic(lambda: run_vaer_matching(domains["restaurants"], harness_config), rounds=1, iterations=1)

    print("\n\nTable VI — training times in seconds (repr + matching)\n")
    print(format_timing_table(results))

    vaer_matching = np.array([rows[0].matching_seconds for rows in results.values()])
    baseline_times = np.array([
        np.mean([row.matching_seconds for row in rows[1:]]) for rows in results.values()
    ])
    # Shape check: averaged over domains, VAER's matcher trains faster than
    # the average end-to-end baseline.
    assert vaer_matching.mean() < baseline_times.mean()
    # All timings must be real measurements.
    assert (vaer_matching > 0).all() and (baseline_times > 0).all()

"""Table VII — transferability of the representation model.

A VAER-LSA representation model is trained on the Citations 2 domain (the
paper's source) and transferred to the other benchmark domains, arity-adapted
to the source schema.  Recall@K and matching F1 with the transferred model
are compared against locally trained representation models.

Expected shape (paper): the transferred model loses at most a few points of
recall/F1 relative to the local one, while paying zero representation
training time on the target domain.
"""

from __future__ import annotations

import numpy as np

from repro.data.generators import load_domain
from repro.eval.harness import transfer_experiment
from repro.eval.reporting import format_transfer_table

from benchmarks.conftest import bench_scale


def test_table7_transferability(benchmark, domains, harness_config):
    source = load_domain("citations2", scale=bench_scale())
    targets = [domain for name, domain in domains.items() if name != "citations2"]

    rows = transfer_experiment(source, targets, harness_config)

    benchmark.pedantic(lambda: transfer_experiment(source, targets[:1], harness_config), rounds=1, iterations=1)

    print("\n\nTable VII — local vs transferred representation model (source: citations2)\n")
    print(format_transfer_table(rows))

    recall_deltas = np.array([row.recall_delta for row in rows])
    f1_deltas = np.array([row.f1_delta for row in rows])
    # Shape check: transferring costs little — the average drop stays small
    # and no domain collapses.
    assert recall_deltas.mean() >= -0.15
    assert f1_deltas.mean() >= -0.15
    assert all(row.transferred_recall > 0.2 for row in rows)
    assert all(row.transferred_f1 > 0.25 for row in rows)

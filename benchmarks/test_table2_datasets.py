"""Table II — dataset inventory.

Regenerates the dataset-statistics table: per domain, the two-table
cardinalities, arity, and train/test pair-set sizes, alongside the figures
the paper reports (kept in each spec's ``paper_stats``).  The benchmark times
dataset generation itself, which is the substrate substituted for the
DeepMatcher benchmark downloads.
"""

from __future__ import annotations

from repro.data.generators import DOMAIN_NAMES, load_domain
from repro.eval.reporting import format_table

from benchmarks.conftest import bench_scale


def _dataset_rows(domains):
    rows = []
    for name in DOMAIN_NAMES:
        domain = domains[name]
        stats = domain.spec.paper_stats
        rows.append([
            name,
            f"{domain.task.cardinality[0]}/{domain.task.cardinality[1]}",
            str(domain.task.arity),
            str(len(domain.splits.train)),
            str(len(domain.splits.test)),
            "clean" if domain.task.clean else "noisy",
            f"{stats.cardinality[0]}/{stats.cardinality[1]}",
            str(stats.training),
            str(stats.test),
        ])
    return rows


def test_table2_dataset_statistics(benchmark, all_domains):
    """Generate one domain under the benchmark timer and print Table II."""
    benchmark.pedantic(lambda: load_domain("restaurants", scale=bench_scale()), rounds=1, iterations=1)

    headers = [
        "Domain", "Card.", "Arity", "Train", "Test", "Kind",
        "Paper card.", "Paper train", "Paper test",
    ]
    print("\n\nTable II — datasets (this repo vs the paper)\n")
    print(format_table(headers, _dataset_rows(all_domains)))

    # The reproduction must preserve the schema shape of every domain.
    for name in DOMAIN_NAMES:
        domain = all_domains[name]
        assert domain.task.arity == domain.spec.paper_stats.arity
        assert len(domain.splits.train) > 0 and len(domain.splits.test) > 0
        assert domain.splits.train.num_positives() > 0

"""Figure 4 — VAER-LSA recall@K as K increases.

The paper shows that the domains whose recall@10 is not already near 1.0
recover most missed duplicates as K grows.  This benchmark reproduces the
curve on the benchmark domains and asserts its monotonicity and its growth
on the hardest domain.
"""

from __future__ import annotations

from repro.eval.harness import fit_representation, recall_at_k_experiment
from repro.eval.reporting import format_recall_curve

KS = (10, 20, 30, 50)


def test_figure4_recall_at_k_curve(benchmark, domains, harness_config):
    curves = {}
    models = {}
    for name, domain in domains.items():
        models[name], _ = fit_representation(domain, harness_config, ir_method="lsa")
        curves[name] = recall_at_k_experiment(
            domain, harness_config, ks=KS, representation=models[name]
        )

    benchmark.pedantic(
        lambda: recall_at_k_experiment(
            domains["restaurants"], harness_config, ks=(10,), representation=models["restaurants"]
        ),
        rounds=1,
        iterations=1,
    )

    print("\n\nFigure 4 — VAER-LSA recall@K as K increases\n")
    print(format_recall_curve(curves))

    for name, curve in curves.items():
        values = [curve[k] for k in KS]
        # Recall@K is non-decreasing in K by construction of top-K retrieval.
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:])), name
    # The paper's point: raising K helps the domains that start below 1.0.
    hardest = min(curves, key=lambda n: curves[n][10])
    assert curves[hardest][50] >= curves[hardest][10]

"""Compare two benchmark result files against the bounds in BENCHMARK.json.

    python3 bench/check.py A.json B.json

``A`` is the baseline, ``B`` the candidate; both are ``results.json`` files
written by ``python3 -m bench run --out DIR``.  Every workload x end-to-end
metric gets one row:

* a **timing or memory** metric compares the medians over the runs in each
  file against the metric's relative bound.  ``regressed``: B is worse than A
  by more than the bound.  ``unresolved``: the run-to-run spread
  (interquartile range over the median, of either file) is wider than the
  bound, or a file has fewer than three samples to take a spread from, so
  the comparison decides nothing.  ``ok`` otherwise;
* a **quality** metric (``bench.spec.QUALITY``) is seeded and repeats exactly,
  so it is compared seed by seed against ``QUALITY_BOUND``, an absolute drop:
  ``regressed`` if any seed both files ran lost more than that,
  ``unresolved`` if they share no seed.

Exits non-zero on a regression, on a larger share of failed operations in B,
or when a workload is missing from either file.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

if __package__ in (None, ""):  # run as a script: make ``bench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.spec import QUALITY, QUALITY_BOUND, Metric, load_spec

#: Fewer samples than this give no spread worth comparing a bound with.
MIN_SAMPLES = 3


def _by_workload(path: str) -> Dict[str, List[dict]]:
    runs = json.loads(Path(path).read_text(encoding="utf-8"))["runs"]
    grouped: Dict[str, List[dict]] = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _median_and_spread(runs: List[dict], metric: str) -> Tuple[float, float]:
    """Median over runs, and the interquartile range as a share of it.

    A file with a single run falls back on the quartiles of that run's own
    passes; with fewer than ``MIN_SAMPLES`` samples either way the spread is
    unknown (infinite), never zero.
    """
    values = [run["metrics"][metric]["value"] for run in runs]
    middle = statistics.median(values)
    if len(values) >= MIN_SAMPLES:
        q1, _, q3 = statistics.quantiles(values, n=4)
    elif len(runs) == 1 and runs[0]["metrics"][metric]["n"] >= MIN_SAMPLES:
        q1, q3 = runs[0]["metrics"][metric]["q1"], runs[0]["metrics"][metric]["q3"]
    else:
        return middle, math.inf
    return middle, (q3 - q1) / abs(middle) if middle else math.inf


def _failed_share(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def worse_by(metric: Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (0 when not worse)."""
    loss = b - a if metric.better == "lower" else a - b
    if loss <= 0:
        return 0.0
    return loss / abs(a) if a else math.inf


def verdict(metric: Metric, a: float, b: float, spread: float) -> str:
    if worse_by(metric, a, b) > metric.bound:
        return "regressed"
    if spread > metric.bound:
        return "unresolved"
    return "ok"


def quality_verdict(metric: Metric, base: List[dict], candidate: List[dict]) -> Tuple[str, float]:
    """Seed-by-seed verdict and the largest absolute loss over the shared seeds."""
    a = {run["seed"]: run["metrics"][metric.name]["value"] for run in base}
    b = {run["seed"]: run["metrics"][metric.name]["value"] for run in candidate}
    shared = sorted(set(a) & set(b))
    if not shared:
        return "unresolved", 0.0
    loss = max(a[seed] - b[seed] for seed in shared)  # every quality metric is higher-is-better
    return ("regressed" if loss > QUALITY_BOUND else "ok"), max(loss, 0.0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = load_spec()
    base, candidate = _by_workload(argv[0]), _by_workload(argv[1])
    bad = False
    print(f"{'workload':<14}{'metric':<14}{'A':>12}{'B':>12}{'worse by':>10}{'spread':>9}{'bound':>11}  verdict")
    for workload in spec.workloads:
        if workload not in base or workload not in candidate:
            print(f"{workload:<14}missing from {'A' if workload not in base else 'B'}")
            bad = True
            continue
        for metric in spec.end_to_end:
            a, spread_a = _median_and_spread(base[workload], metric.name)
            b, spread_b = _median_and_spread(candidate[workload], metric.name)
            if metric.name in QUALITY:
                result, loss = quality_verdict(metric, base[workload], candidate[workload])
                detail = f"{loss:>10.4f}{'per seed':>9}{QUALITY_BOUND:>7.2f} abs"
            else:
                spread = max(spread_a, spread_b)
                result = verdict(metric, a, b, spread)
                detail = f"{worse_by(metric, a, b):>10.1%}{spread:>9.1%}{metric.bound:>7.0%} rel"
            bad |= result == "regressed"
            print(f"{workload:<14}{metric.name:<14}{a:>12.5g}{b:>12.5g}{detail}  {result}")
        failed_a, failed_b = _failed_share(base[workload]), _failed_share(candidate[workload])
        if failed_b > failed_a:
            print(f"{workload:<14}failed share rose from {failed_a:.4f} to {failed_b:.4f}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""One run of one workload in this process: set-up, timed passes, checks, result.

``python3 -m bench.worker`` is what ``python3 -m bench run`` starts for each
workload, in a fresh process with the BLAS pools pinned, so ``peak_rss_mb``
and ``setup_s`` belong to that workload alone.  The result is written as JSON
under ``--out``; nothing is printed.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()  # before numpy and repro load: imports are set-up

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

from bench.spec import FROZEN, Sizes, load_spec, require_source_tree
from bench.tracer import Total, Tracer, nesting_problems, totals_of


def summarise(samples: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's per-pass samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    repeats: int,
    trace: bool,
    sizes: Sizes,
    out_dir: Path,
    started: Optional[float] = None,
) -> Dict[str, object]:
    """Run ``name`` once and return its result record.

    Passes repeat until ``seconds`` of measuring have elapsed and at least
    ``repeats`` of them are made.
    """
    started = time.perf_counter() if started is None else started
    require_source_tree()
    from bench import env, layers
    from bench.workloads import WORKLOADS
    from bench.workloads.common import Context, load_system

    spec = load_spec()
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(trace).install()
    ctx = Context(workload=name, seed=seed, sizes=sizes, tracer=tracer, out_dir=out_dir, nproc=env.nproc())
    workload = WORKLOADS[name]()
    passes = []
    try:
        with tracer.span("setup"):
            load_system()
            workload.setup(ctx)
        setup_s = time.perf_counter() - started

        measuring = time.perf_counter()
        while len(passes) < repeats or time.perf_counter() - measuring < seconds:
            gc.collect()  # garbage of earlier passes is not this pass's cost
            passes.append(workload.run_pass(ctx))
        measured_s = time.perf_counter() - measuring

        if trace and workload.model is not None:
            layers.probe(ctx, workload.model)
        workload.finish(ctx)
    finally:
        workload.stop()
        tracer.uninstall()

    samples = {
        "phase_a_ms": [p.phase_a_s * 1e3 for p in passes],
        "phase_b_ms": [p.phase_b_s * 1e3 for p in passes],
        "recall_at_k": [p.quality.recall_at_k for p in passes],
        "match_recall": [p.quality.match_recall for p in passes],
    }
    measured: Dict[str, Dict[str, float]] = {key: summarise(values) for key, values in samples.items()}
    measured["setup_s"] = summarise([setup_s])
    if workload.peak_rss_mb is None:
        workload.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured["peak_rss_mb"] = summarise([workload.peak_rss_mb])

    if trace:
        totals = totals_of(tracer.spans)
        for key, total in workload.daemon_totals.items():
            totals.setdefault(key, Total()).add(total)
        found = layers.layer_metrics(totals, len(passes), ctx.layer_values, workload.point_p50_s)
        measured = {m.name: summarise([float(found.get(m.name, 0.0))]) for m in spec.per_layer}
        tracer.write(out_dir / f"trace-{name}.jsonl", name, f"seed{seed}")
        problems = nesting_problems(tracer.spans)
        ctx.op(not problems, f"trace does not nest: {problems[:3]}")

    metrics = {}
    for metric in spec.metrics(trace):
        metrics[metric.name] = dict(measured[metric.name], unit=metric.unit)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "passes": len(passes),
        "measured_s": measured_s,
        "wall_s": time.perf_counter() - started,
        "metrics": metrics,
        "sizes": asdict(sizes),
        "env": dict(env.capture(), seed=seed, repeats=repeats, seconds=seconds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.worker", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, args.repeats, bool(args.trace),
        FROZEN, args.out, started=PROCESS_STARTED,
    )
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

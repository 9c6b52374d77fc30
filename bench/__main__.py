"""``python3 -m bench run``: run the benchmark workloads and print every metric.

    python3 -m bench run [--workload W] [--seed S] [--seconds T] [--repeats N]
                         [--trace [0|1|both]] [--runs R] [--out DIR]

Each workload runs in a fresh child process with the BLAS pools pinned to
``nproc`` and the allocator pinned (``bench/env.py``).  ``--trace 0`` (the default) measures the end-to-end metrics,
``--trace 1`` does a traced run and reports the per-layer metrics, a bare
``--trace`` does both and prints the tracing overhead.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` for the last run made — the form ``BENCHMARK.json``'s driver reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from bench.env import pinned_environment
from bench.spec import ROOT, load_spec, require_source_tree

#: The driver allows a run 180 s; a worker still going by then is killed.
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, trace: int, args, out_dir: Path) -> Dict[str, object]:
    """Run one workload in a child process and load the result it wrote."""
    result_path = out_dir / f"result-{workload}-seed{seed}-trace{trace}.json"
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--repeats", str(args.repeats), "--trace", str(trace),
        "--out", str(out_dir), "--result", str(result_path),
    ]
    child = subprocess.Popen(command, cwd=ROOT, env=pinned_environment())
    try:
        code = child.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise SystemExit(f"bench: {workload} did not finish within {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise SystemExit(f"bench: {workload} failed with exit code {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def print_result(result: Dict[str, object], why: str) -> None:
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end"
    print(f"\n== {result['workload']} · seed {result['seed']} · {kind} · {result['passes']} passes "
          f"in {result['measured_s']:.1f} s (run {result['wall_s']:.1f} s)")
    print(f"   why: {why}")
    print(f"   {'metric':<36}{'median':>14} {'unit':<6}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, m in result["metrics"].items():
        print(f"   {name:<36}{m['value']:>14.6g} {m['unit']:<6}{m['q1']:>14.6g}{m['q3']:>14.6g}{m['n']:>4}")
    print(f"   operations: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def contract_line(result: Dict[str, object]) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in result["metrics"].items()},
    })


def run_all(args, spec, workloads: List[str], modes: List[int], out_dir: Path) -> List[Dict[str, object]]:
    """Every requested run, in fresh child processes; prints each as it ends."""
    results: List[Dict[str, object]] = []
    for index in range(args.runs):
        for workload in workloads:
            by_mode = {}
            for trace in modes:
                result = run_worker(workload, args.seed + index, trace, args, out_dir)
                print_result(result, spec.why[workload])
                results.append(result)
                by_mode[trace] = result
            if len(by_mode) == 2:
                plain = by_mode[0]["measured_s"] / by_mode[0]["passes"]
                traced = by_mode[1]["measured_s"] / by_mode[1]["passes"]
                print(f"   trace_overhead_share {traced / plain - 1.0:+.4f} "
                      f"(traced {traced:.3f} s vs untraced {plain:.3f} s per pass)")
    return results


def run(args) -> int:
    require_source_tree()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec.run_seconds)
    workloads = [args.workload] if args.workload else spec.workloads
    unknown = [w for w in workloads if w not in spec.workloads]
    if unknown:
        raise SystemExit(f"bench: unknown workload {unknown[0]!r}; BENCHMARK.json names {spec.workloads}")
    modes = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        results = run_all(args, spec, workloads, modes, out_dir)
        (out_dir / "results.json").write_text(json.dumps({"runs": results}, indent=1), encoding="utf-8")
        print(f"\nresults and traces under {out_dir}")
    else:
        # Inside the checkout, not the system's temp directory: the driver's
        # contract is that a run reads and writes nowhere else.
        with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as scratch:
            results = run_all(args, spec, workloads, modes, Path(scratch))
    print()
    for result in results:
        print(contract_line(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run workloads and print their metrics")
    run_parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    run_parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    run_parser.add_argument("--seconds", type=float, default=None,
                            help="measure for this long (default: run_seconds of BENCHMARK.json)")
    run_parser.add_argument("--repeats", type=int, default=3,
                            help="make at least this many passes, however short --seconds is (default 3)")
    run_parser.add_argument("--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
                            help="0: end-to-end run; 1: traced run, per-layer metrics; bare: both")
    run_parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds S, S+1, ...")
    run_parser.add_argument("--out", default=None,
                            help="keep results.json and trace-*.jsonl here (default: a temporary "
                                 "directory, removed afterwards)")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

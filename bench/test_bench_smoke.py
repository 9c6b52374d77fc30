"""Smoke test of the benchmark harness: all four workloads at a tiny scale.

Checks the harness, not the system's speed: every workload and metric named
in ``BENCHMARK.json`` is reported with its unit, names are well-formed, the
trace nests and reconciles, and ``check.py`` tells a regression from noise.
"""

from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from bench import check
from bench.spec import ROOT, SMOKE, load_spec
from bench.tracer import Span, nesting_problems, self_times
from bench.worker import run_workload

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("bench")
    return {
        (workload, trace): run_workload(
            workload, seed=1, seconds=0.0, repeats=1, trace=bool(trace),
            sizes=SMOKE, out_dir=out / f"{workload}-{trace}",
        )
        for workload in SPEC.workloads
        for trace in (0, 1)
    }, out


def test_contract_file_is_well_formed():
    raw = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(raw) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC.workloads == ["cold_session", "bulk_resolve", "warm_delta", "serve_mixed"]
    names = SPEC.workloads + [m.name for m in SPEC.end_to_end + SPEC.per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m.bound <= 0.25 for m in SPEC.end_to_end)
    setup = next(m for m in SPEC.end_to_end if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in SPEC.end_to_end)


def test_every_metric_is_reported_with_its_unit(runs):
    results, _ = runs
    for (workload, trace), result in results.items():
        expected = SPEC.metrics(bool(trace))
        assert list(result["metrics"]) == [m.name for m in expected], (workload, trace)
        for metric in expected:
            reported = result["metrics"][metric.name]
            assert reported["unit"] == metric.unit
            assert math.isfinite(reported["value"]), (workload, metric.name)
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"], (workload, trace, result["failures"])
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_trace_reconciles(runs):
    results, out = runs
    for workload in SPEC.workloads:
        metrics = results[(workload, 1)]["metrics"]
        assert metrics["engine.plan.unattributed_s"]["value"] >= 0.0
        lines = (out / f"{workload}-1" / f"trace-{workload}.jsonl").read_text(encoding="utf-8").splitlines()
        spans = [
            Span(id=s["id"], name=s["name"], parent=s["parent"], phase=s["phase"], thread=s["thread"],
                 start=s["start"], end=s["end"], count=s["count"])
            for s in map(json.loads, lines)
        ]
        assert spans and not nesting_problems(spans)
        # Layer self times plus the phase roots' own (unattributed) time are the wall.
        own = self_times(spans)
        roots = [s for s in spans if s.parent is None]
        assert sum(own.values()) == pytest.approx(sum(s.duration for s in roots), rel=1e-6)


def test_check_tells_regression_from_noise(runs, tmp_path, capsys):
    results, _ = runs
    untraced = [results[(workload, 0)] for workload in SPEC.workloads]
    slower = copy.deepcopy(untraced)
    slower[1]["metrics"]["phase_a_ms"]["value"] *= 2.0
    lossy = copy.deepcopy(untraced)  # one seed loses 0.02 of recall: inside the relative bound, a regression all the same
    lossy[1]["metrics"]["match_recall"]["value"] -= 0.02
    broken = copy.deepcopy(untraced)  # a pipeline that finds nothing, on both sides
    broken[1]["metrics"]["match_recall"]["value"] = 0.0
    broken[1]["metrics"]["phase_a_ms"]["value"] = 0.0
    files = {"a": untraced, "b": untraced, "slow": slower, "lossy": lossy, "broken": broken}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"runs": payload}), encoding="utf-8")

    def verdict_of(other: str) -> int:
        return check.main([str(tmp_path / "a.json"), str(tmp_path / f"{other}.json")])

    assert verdict_of("b") == 0
    # One pass per run is no spread to judge by: undecided, not "ok".
    assert "unresolved" in capsys.readouterr().out
    assert verdict_of("slow") == 1
    assert verdict_of("lossy") == 1
    assert verdict_of("broken") == 1
    assert check.main([str(tmp_path / "broken.json"), str(tmp_path / "broken.json")]) == 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    """Where only BENCHMARK.json and bench/ exist it exits non-zero, result-less."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "bulk_resolve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

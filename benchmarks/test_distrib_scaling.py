"""Distributed resolution benchmark — determinism gate and worker scaling.

Two halves, emitted together as ``BENCH_distrib.json``:

* **Determinism gate** (always enforced): every registry domain is resolved
  serially and through the coordinator/worker runner at 2 and 4 workers
  (real :class:`repro.distrib.Worker` loops over the file-lease queue); the
  distributed match stream must be byte-identical — same batch order, same
  pair keys, same probability bytes.  One domain additionally runs with a
  worker that abandons its first claimed unit mid-run, so the lease-expiry
  re-dispatch path is part of the gate, not just the happy path.
* **Scaling sweep**: one scaled-up domain with a deliberately compute-heavy
  (but deterministic, batch-composition-independent) scorer is resolved at
  1, 2 and 4 workers — workers are *separate* ``python -m repro worker``
  subprocesses sharing only the queue directory and encoding cache — and
  the wall clock plus the coordinator's dispatch/lease/merge stage seconds
  and re-dispatch counters are recorded per worker count.  ``workers=1``
  is the serial in-process reference (the engine's documented degenerate
  case).

Performance gates arm only under ``REPRO_BENCH_REQUIRE_SPEEDUP`` (hosted
multi-core runners): the 4-worker distributed run must not be slower than
the serial reference.  ``REPRO_BENCH_SCALE`` multiplies both halves' row
counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import bench_scale
from repro.config import VAEConfig
from repro.core.pipeline import VAER
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import DOMAIN_NAMES, load_domain
from repro.distrib import DistributedRuntime, FileLeaseQueue, Worker
from repro.eval.timing import StageTimings

REQUIRE_SPEEDUP = bool(os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP", "").strip())

#: Domain that runs the worker-kill variant inside the determinism gate.
KILL_DOMAIN = "beer"

#: Domain and scale multiplier for the subprocess scaling sweep.
SWEEP_DOMAIN = "music"
SWEEP_SCALE = 2.0
WORKER_SWEEP = (1, 2, 4)

#: Iterations of the heavy scorer's elementwise loop — sized so the serial
#: sweep reference runs for several seconds and one score batch carries
#: enough compute to amortize queue-transport and worker-startup overheads.
HEAVY_ROUNDS = 6000


class DistanceMatcher:
    """Elementwise deterministic scorer: batch-composition independent."""

    def predict_proba(self, left_irs, right_irs):
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


class HeavyMatcher:
    """Deterministic scorer with a tunable compute cost.

    Every operation is elementwise over the pair axis, so probabilities are
    independent of batch composition (exact equality across worker counts)
    while each score batch costs real CPU — the shape that makes
    distribution worthwhile.  Picklable by reference from the
    ``benchmarks`` package, so subprocess workers can execute it.
    """

    def predict_proba(self, left_irs, right_irs):
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        x = diffs
        for _ in range(HEAVY_ROUNDS):
            x = np.tanh(x * 1.0009) + 1e-7 * np.square(diffs)
        distances = np.sqrt((x ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


class AbandonOnceWorker(Worker):
    """Claims its first unit and never completes it — a crashed worker."""

    def __init__(self, queue, **kwargs):
        super().__init__(queue, **kwargs)
        self.abandoned = False

    def execute(self, unit):
        if not self.abandoned:
            self.abandoned = True
            return
        super().execute(unit)


def _build_model(name: str, scale: float, matcher, cache_dir=None) -> VAER:
    domain = load_domain(name, scale=scale)
    model = VAER(cache_dir=cache_dir)
    model.representation = EntityRepresentationModel(
        VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=1, seed=7),
        ir_method="lsa",
    ).fit(domain.task)
    model.task = domain.task
    model.matcher = matcher
    return model


def _start_thread_workers(queue_dir, count, worker_cls=Worker, after=None):
    stop = threading.Event()
    workers, threads = [], []

    def _run(worker):
        # ``after`` holds the workers back until it is true: three pollers
        # race for the one or two units of each stage of a tiny domain, and
        # the kill variant must win one before the live workers take them all.
        while after is not None and not after() and not stop.is_set():
            time.sleep(0.005)
        worker.run(stop)

    for _ in range(count):
        worker = worker_cls(FileLeaseQueue(queue_dir), poll_interval=0.01)
        thread = threading.Thread(target=_run, args=(worker,), daemon=True)
        thread.start()
        workers.append(worker)
        threads.append(thread)

    def _stop():
        stop.set()
        for thread in threads:
            thread.join(timeout=10)

    return workers, _stop


def _identical(serial, distributed) -> bool:
    if [b.batch_index for b in serial] != [b.batch_index for b in distributed]:
        return False
    for left, right in zip(serial, distributed):
        if [p.key() for p in left.pairs] != [p.key() for p in right.pairs]:
            return False
        if not np.array_equal(left.probabilities, right.probabilities):
            return False
    return True


def _spawn_worker_processes(queue_dir: Path, count: int):
    repo_root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    src = str(repo_root / "src")
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    processes = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--queue-dir", str(queue_dir), "--poll-interval", "0.01"],
            cwd=str(repo_root), env=env,
        )
        for _ in range(count)
    ]

    def _stop():
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                process.kill()

    return processes, _stop


def test_distrib_determinism_and_scaling(tmp_path):
    scale = 0.25 * bench_scale()
    k, batch_size = 8, 128

    # ------------------------------------------------------------------
    # Half 1: determinism gate over every registry domain.
    # ------------------------------------------------------------------
    domain_reports = {}
    for name in DOMAIN_NAMES:
        model = _build_model(name, scale, DistanceMatcher())
        serial = list(model.resolve_stream(k=k, batch_size=batch_size))
        report = {"workers": {}, "worker_kill": False}
        for workers in (2, 4):
            queue_dir = tmp_path / "gate" / name / f"w{workers}"
            kill_run = name == KILL_DOMAIN and workers == 2
            if kill_run:
                killed, stop_killed = _start_thread_workers(
                    queue_dir, 1, worker_cls=AbandonOnceWorker
                )
                live, stop_live = _start_thread_workers(
                    queue_dir, workers, after=lambda: killed[0].abandoned
                )
            else:
                live, stop_live = _start_thread_workers(queue_dir, workers)
            stage = StageTimings()
            options = {"lease_timeout": 0.5} if kill_run else {}
            try:
                with DistributedRuntime.file_queue(queue_dir, workers=workers, **options) as runtime:
                    distributed = list(model.resolve_stream(
                        pool=runtime.pool, k=k, batch_size=batch_size, stage_timings=stage,
                    ))
            finally:
                stop_live()
                if kill_run:
                    stop_killed()
            identical = _identical(serial, distributed)
            report["workers"][str(workers)] = {
                "identical": identical,
                "units_dispatched": stage.counter("units_dispatched"),
                "units_redispatched": stage.counter("units_redispatched"),
            }
            if kill_run:
                report["worker_kill"] = True
                assert killed[0].abandoned, f"{name}: kill variant never claimed a unit"
                assert stage.counter("units_redispatched") >= 1, (
                    f"{name}: abandoned unit was not re-dispatched"
                )
            assert identical, (
                f"{name}: distributed ({workers} workers) diverged from serial"
            )
        domain_reports[name] = report
    assert any(r["worker_kill"] for r in domain_reports.values())

    # ------------------------------------------------------------------
    # Half 2: subprocess scaling sweep with the heavy scorer.
    # ------------------------------------------------------------------
    sweep_scale = SWEEP_SCALE * bench_scale()
    cache_dir = tmp_path / "sweep-cache"
    model = _build_model(
        SWEEP_DOMAIN, sweep_scale, HeavyMatcher(), cache_dir=str(cache_dir)
    )
    # Warm the shared cache once so every sweep point (and every worker)
    # attaches the same encodings instead of re-encoding.
    model.store.table_encodings("left")
    model.store.table_encodings("right")

    started = time.perf_counter()
    serial = list(model.resolve_stream(k=k, batch_size=batch_size))
    serial_seconds = time.perf_counter() - started

    runs = [{
        "workers": 1, "transport": "serial", "wall_seconds": serial_seconds,
        "dispatch_seconds": 0.0, "lease_seconds": 0.0, "merge_seconds": 0.0,
        "units_dispatched": 0, "units_redispatched": 0,
    }]
    for workers in WORKER_SWEEP[1:]:
        queue_dir = tmp_path / "sweep" / f"w{workers}"
        queue_dir.mkdir(parents=True)
        _, stop = _spawn_worker_processes(queue_dir, workers)
        stage = StageTimings()
        try:
            started = time.perf_counter()
            with DistributedRuntime.file_queue(queue_dir, workers=workers) as runtime:
                distributed = list(model.resolve_stream(
                    pool=runtime.pool, k=k, batch_size=batch_size, stage_timings=stage,
                ))
            wall = time.perf_counter() - started
        finally:
            stop()
        assert _identical(serial, distributed), (
            f"sweep: distributed ({workers} subprocess workers) diverged from serial"
        )
        runs.append({
            "workers": workers, "transport": "file-queue", "wall_seconds": wall,
            "dispatch_seconds": stage.seconds("dispatch"),
            "lease_seconds": stage.seconds("lease"),
            "merge_seconds": stage.seconds("merge"),
            "units_dispatched": stage.counter("units_dispatched"),
            "units_redispatched": stage.counter("units_redispatched"),
        })

    task = model.task
    payload = {
        "scale": scale,
        "sweep_scale": sweep_scale,
        "k": k,
        "batch_size": batch_size,
        "require_speedup": REQUIRE_SPEEDUP,
        "domains": domain_reports,
        "sweep": {
            "domain": SWEEP_DOMAIN,
            "rows": [len(task.left), len(task.right)],
            "heavy_rounds": HEAVY_ROUNDS,
            "runs": runs,
        },
    }
    Path("BENCH_distrib.json").write_text(json.dumps(payload, indent=2) + "\n")

    print("\nDistributed scaling sweep "
          f"({SWEEP_DOMAIN}, {len(task.left)}x{len(task.right)} rows)\n")
    for run in runs:
        print(
            f"  workers={run['workers']} ({run['transport']}): "
            f"{run['wall_seconds']:.3f}s wall, "
            f"dispatch {run['dispatch_seconds']:.3f}s, "
            f"lease {run['lease_seconds']:.3f}s, "
            f"merge {run['merge_seconds']:.3f}s, "
            f"{run['units_dispatched']} units "
            f"({run['units_redispatched']} re-dispatched)"
        )

    if REQUIRE_SPEEDUP:
        four = next(run for run in runs if run["workers"] == 4)
        assert four["wall_seconds"] <= serial_seconds, (
            f"4-worker distributed run ({four['wall_seconds']:.3f}s) slower than "
            f"serial ({serial_seconds:.3f}s) with REPRO_BENCH_REQUIRE_SPEEDUP set"
        )

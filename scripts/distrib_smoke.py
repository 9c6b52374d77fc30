#!/usr/bin/env python
"""CI smoke test for the distributed coordinator/worker runner.

Trains a real model, resolves it serially, then resolves it again through
the file-lease queue with two separate ``python -m repro worker``
subprocesses sharing only the queue directory and the persistent encoding
cache.  One worker is SIGKILLed while it holds the lease of a unit — the
coordinator must recover via lease expiry and re-dispatch — and the
distributed match stream must still be byte-identical to the serial one:
same batch order, same pair keys, same probability bytes.

Usage: PYTHONPATH=src python scripts/distrib_smoke.py [--domain beer]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.cli import _harness_config  # noqa: E402
from repro.core import VAER  # noqa: E402
from repro.data.generators import load_domain  # noqa: E402
from repro.distrib import DistributedRuntime  # noqa: E402
from repro.distrib.artifacts import find_blob  # noqa: E402
from repro.eval.timing import StageTimings  # noqa: E402

SCALE = 0.4
SEED = 7
K = 6
BATCH = 128
WORKERS = 2
LEASE_TIMEOUT = 2.0


def build_model(domain_name: str, cache_dir: str) -> VAER:
    domain = load_domain(domain_name, scale=SCALE)
    config = _harness_config(SEED).vaer_config(ir_method="lsa")
    model = VAER(config, cache_dir=cache_dir)
    model.fit_representation(domain.task)
    model.fit_matcher(domain.splits.train, domain.splits.validation)
    return model


def spawn_workers(queue_dir: Path, count: int) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--queue-dir", str(queue_dir), "--poll-interval", "0.02"],
            env=env,
        )
        for _ in range(count)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domain", default="beer")
    args = parser.parse_args()

    print(f"distrib smoke: domain={args.domain} scale={SCALE} "
          f"workers={WORKERS} (one SIGKILLed mid-run)")
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = str(Path(tmp) / "cache")
        queue_dir = Path(tmp) / "queue"
        model = build_model(args.domain, cache_dir)
        # Warm the shared cache so workers attach encodings instead of
        # shipping them.
        model.store.table_encodings("left")
        model.store.table_encodings("right")

        serial = list(model.resolve_stream(k=K, batch_size=BATCH))
        print(f"  serial reference: {len(serial)} batches")

        # Deterministic kill: only the victim runs at first, so every lease
        # is its claim.  A kill landing between two units leaves no lease to
        # expire and nothing to re-dispatch, so the victim is frozen first
        # and killed only if it still holds the lease of an undelivered
        # unit; otherwise it resumes and the watch re-arms.  Then the
        # healthy worker spawns and the coordinator must recover via lease
        # expiry and re-dispatch.
        processes = spawn_workers(queue_dir, 1)
        victim = processes[0]
        leases_dir = queue_dir / "leases"

        def _holds_real_lease() -> bool:
            # A unit whose result is already out is delivered, not re-dispatched.
            return leases_dir.is_dir() and any(
                find_blob(queue_dir / "results", lease.name[: -len(".lease")]) is None
                for lease in leases_dir.iterdir()
            )

        def _kill_while_holding_a_lease():
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if _holds_real_lease():
                    victim.send_signal(signal.SIGSTOP)
                    time.sleep(0.05)  # let the stop land before looking again
                    if _holds_real_lease():
                        victim.send_signal(signal.SIGKILL)
                        processes.extend(spawn_workers(queue_dir, WORKERS - 1))
                        return
                    victim.send_signal(signal.SIGCONT)
                time.sleep(0.005)

        killer = threading.Thread(target=_kill_while_holding_a_lease, daemon=True)
        killer.start()
        stage = StageTimings()
        try:
            started = time.perf_counter()
            with DistributedRuntime.file_queue(
                queue_dir, workers=WORKERS, lease_timeout=LEASE_TIMEOUT
            ) as runtime:
                distributed = list(model.resolve_stream(
                    pool=runtime.pool, k=K, batch_size=BATCH, stage_timings=stage,
                ))
            wall = time.perf_counter() - started
        finally:
            killer.join(timeout=130)
            for process in processes:
                if process.poll() is None:
                    process.terminate()
            for process in processes:
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
        print(f"  victim worker exit code: {victim.returncode} (expected {-signal.SIGKILL})")
        print(
            f"  distributed: {len(distributed)} batches in {wall:.2f}s, "
            f"{stage.counter('units_dispatched')} units dispatched, "
            f"{stage.counter('units_redispatched')} re-dispatched"
        )

    if victim.returncode != -signal.SIGKILL:
        print("FAIL: victim worker was not killed mid-run (smoke too slow?)")
        return 1
    if stage.counter("units_redispatched") < 1:
        print("FAIL: the killed worker's unit was never re-dispatched")
        return 1
    if [b.batch_index for b in serial] != [b.batch_index for b in distributed]:
        print("FAIL: batch order diverged")
        return 1
    for left, right in zip(serial, distributed):
        if [p.key() for p in left.pairs] != [p.key() for p in right.pairs]:
            print(f"FAIL: pair keys diverged in batch {left.batch_index}")
            return 1
        if not np.array_equal(left.probabilities, right.probabilities):
            print(f"FAIL: probabilities diverged in batch {left.batch_index}")
            return 1
    print("PASS: distributed stream byte-identical to serial, "
          "with a worker killed mid-run")
    return 0


if __name__ == "__main__":
    sys.exit(main())

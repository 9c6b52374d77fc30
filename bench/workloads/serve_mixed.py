"""serve_mixed: the match daemon under a closed-loop read/write mix.

``ServeSession`` + ``MatchServer`` run in a child process over ``restaurants``
grown with ``append_rows``.  One client process, at most two connections:
phase A, one connection sends point ``/resolve`` and probe ``/query`` requests
interleaved by seed; phase B, that reader keeps going while a second
connection applies single-row mutations (ingest, edit, delete in turn) back to
back.  It measures request latency rather than batch throughput, and reads
with and without a concurrent writer (snapshot isolation under the GIL).
"""

from __future__ import annotations

import itertools
import json
import pickle
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

from bench.env import pinned_environment
from bench.spec import RESOLVE, ROOT
from bench.tracer import totals_from_json
from bench.workloads.common import (
    Context, Pass, Workload, drain, fit, generate, grow, quality, truth_pairs,
)


def percentile(values: List[float], share: float) -> float:
    return float(np.percentile(values, share)) if values else 0.0


class ServeMixed(Workload):
    name = "serve_mixed"
    daemon = None

    # ------------------------------------------------------------------
    def setup(self, ctx: Context) -> None:
        from repro.serve import MatchClient

        self.domain = generate(ctx, ctx.sizes.serve_domain, ctx.sizes.serve_base_scale)
        self.model = fit(ctx, self.domain)
        grow(ctx, self.domain, ctx.sizes.serve_rows)
        state = ctx.out_dir / "serve-state.pkl"
        with open(state, "wb") as handle:
            pickle.dump(self.model, handle)
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "bench.daemon", str(state), "1" if ctx.tracer.enabled else "0", str(ctx.out_dir)],
            cwd=ROOT, env=pinned_environment(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # The batch oracle for the daemon's answers, computed while it warms up.
        self.reference = drain(self.model.resolve_delta(**RESOLVE))
        ready = self.daemon.stdout.readline()
        if not ready:
            raise RuntimeError(f"match daemon exited with code {self.daemon.wait()} before it was ready")
        hello = json.loads(ready)
        state.unlink()  # the daemon has loaded it
        ctx.layer_values["serve.session_start_s"] = hello["session_start_s"]
        self.client = MatchClient(hello["url"])
        self.rng = np.random.default_rng(ctx.sub_seed("requests"))
        self.sent_mutations = 0

        full = self._answer(self.client.resolve())
        ctx.op(self._same(full, self.reference, exact=True), "daemon /resolve differs from batch resolve_delta")
        self.quality = quality(truth_pairs(self.domain.task), self.reference.keys, self.reference.matches)
        ctx.op(
            ctx.floor("recall_at_k", self.quality.recall_at_k)
            and ctx.floor("match_recall", self.quality.match_recall),
            f"served answers below their quality floor (recall@k {self.quality.recall_at_k:.3f}, "
            f"match recall {self.quality.match_recall:.3f})",
        )
        self._expected_by_left()

    def _expected_by_left(self) -> None:
        """Index the reference stream by left id for the point-read checks."""
        self.by_left: Dict[str, List[Tuple[str, float]]] = {}
        for (left_id, right_id), probability in zip(self.reference.keys, self.reference.probabilities):
            self.by_left.setdefault(left_id, []).append((right_id, float(probability)))

    @staticmethod
    def _answer(body: Dict) -> List[Tuple[str, str, float]]:
        return [(str(l), str(r), float(p)) for l, r, p in body["pairs"]]

    @staticmethod
    def _same(answer, reference, exact: bool) -> bool:
        keys = [(l, r) for l, r, _ in answer]
        probabilities = np.array([p for _, _, p in answer])
        if keys != reference.keys:
            return False
        if exact:
            return probabilities.tobytes() == reference.probabilities.tobytes()
        return bool(np.all(np.abs(probabilities - reference.probabilities) <= 1e-9))

    def _same_candidates(self, got: List[Tuple[str, float]], left_id: str) -> bool:
        """Right ids in order and probabilities to round-off (rescored pairs
        differ from the batch oracle's in the last digits)."""
        expected = self.by_left.get(left_id, [])
        return [r for r, _ in got] == [r for r, _ in expected] and all(
            abs(p - q) <= 1e-9 for (_, p), (_, q) in zip(got, expected)
        )

    # ------------------------------------------------------------------
    # Requests (each is one operation)
    # ------------------------------------------------------------------
    def _point(self, ctx: Context, left_id: str, check: bool, generation: int = 0) -> Tuple[float, int]:
        """One point read; returns its latency and the generation that answered.

        ``generation`` is the newest snapshot this connection has seen: an
        answer from an older one means the snapshot pointer went backwards.
        """
        started = time.perf_counter()
        body = self.client.resolve([left_id])
        seconds = time.perf_counter() - started
        if check:
            ok = self._same_candidates([(r, p) for _, r, p in self._answer(body)], left_id)
        else:  # a writer is active: any published snapshot may answer
            ok = all(str(l) == left_id for l, _, _ in body["pairs"])
        ctx.op(ok and body["generation"] >= generation, f"/resolve answer for {left_id} is wrong")
        return seconds, int(body["generation"])

    def _probe(self, ctx: Context, record, check: bool) -> float:
        from repro.serve import record_payload

        payload = [record_payload(f"probe-{record.record_id}", record.values)]
        started = time.perf_counter()
        body = self.client.query(payload)
        seconds = time.perf_counter() - started
        candidates = body["results"][0]["candidates"]
        if check:  # an existing left row's values must retrieve that row's candidates
            ok = self._same_candidates([(c["right_id"], c["probability"]) for c in candidates], record.record_id)
        else:
            ok = 0 < len(candidates) <= RESOLVE["k"]
        ctx.op(ok, f"/query answer for a probe of {record.record_id} is wrong")
        return seconds

    def _reads(self, count_points: int, count_probes: int) -> List[Tuple[str, object]]:
        """``count_points`` point and ``count_probes`` probe requests, interleaved by seed."""
        left = self.domain.task.left.records()
        points = [("point", left[i].record_id) for i in self.rng.integers(0, len(left), count_points)]
        probes = [("probe", left[i]) for i in self.rng.integers(0, len(left), count_probes)]
        plan = points + probes
        self.rng.shuffle(plan)
        return plan

    def _mutation(self, ctx: Context, turn: int) -> float:
        """Apply one single-row mutation to the reference tables and the daemon."""
        from repro.data.generators import append_rows, delete_rows, mutate_rows
        from repro.serve import record_payload

        seed = ctx.sub_seed(f"mutation-{self.sent_mutations}")
        kind = ("ingest", "edit", "delete")[turn % 3]
        if kind == "ingest":
            record = append_rows(self.domain, "right", 1, seed=seed)[0]
            payload = {"ingest": [record_payload(record.record_id, record.values, record.entity_id)]}
        elif kind == "edit":
            record = mutate_rows(self.domain, "right", 1, seed=seed)[0]
            payload = {"edit": [record_payload(record.record_id, record.values, record.entity_id)]}
        else:
            payload = {"delete": [delete_rows(self.domain, "right", 1, seed=seed)[0].record_id]}
        started = time.perf_counter()
        report = self.client.mutate("right", **payload)
        seconds = time.perf_counter() - started
        self.sent_mutations += 1
        ctx.op(
            report["ingested"] + report["edited"] + report["deleted"] == 1,
            f"/mutate {kind} was not applied as one row",
        )
        return seconds

    # ------------------------------------------------------------------
    def run_pass(self, ctx: Context) -> Pass:
        sizes = ctx.sizes
        latencies: Dict[str, List[float]] = {"point": [], "probe": [], "under_write": [], "mutate": []}

        with ctx.timed("phase_a") as reads_time:
            for kind, target in self._reads(sizes.serve_points, sizes.serve_probes):
                if kind == "point":
                    latencies["point"].append(self._point(ctx, target, check=True)[0])
                else:
                    latencies["probe"].append(self._probe(ctx, target, check=True))

        # Phase B: the reader (second connection) runs until the writer is done.
        writing = threading.Event()
        writing.set()
        reads = self._reads(sizes.serve_points, sizes.serve_probes)
        reader_error: List[BaseException] = []

        def reader() -> None:
            generation = 0
            try:
                for kind, target in itertools.cycle(reads):
                    if not writing.is_set():
                        return
                    if kind == "point":
                        seconds, generation = self._point(ctx, target, check=False, generation=generation)
                        latencies["under_write"].append(seconds)
                    else:
                        self._probe(ctx, target, check=False)
            except BaseException as error:  # surfaced on the main thread below
                reader_error.append(error)

        thread = threading.Thread(target=reader, name="bench-reader")
        with ctx.timed("phase_b") as writes_time:
            thread.start()
            try:
                for turn in range(sizes.serve_mutations):
                    latencies["mutate"].append(self._mutation(ctx, turn))
            finally:
                writing.clear()
                thread.join(timeout=60)
        if thread.is_alive() or reader_error:
            raise RuntimeError(f"phase B reader did not finish cleanly: {reader_error}")

        # The daemon's state after the writes must match the batch oracle's.
        with ctx.tracer.span("check"):
            self.reference = drain(self.model.resolve_delta(**RESOLVE))
            served = self._answer(self.client.resolve())
        ctx.op(self._same(served, self.reference, exact=False),
               "daemon /resolve after the mutations differs from batch resolve_delta")
        self._expected_by_left()

        requests = sum(len(v) for v in latencies.values())
        ctx.layer_values["serve.point_p99_ms"] = percentile(latencies["point"], 99) * 1e3
        ctx.layer_values["serve.probe_p50_ms"] = percentile(latencies["probe"], 50) * 1e3
        ctx.layer_values["serve.probe_p95_ms"] = percentile(latencies["probe"], 95) * 1e3
        ctx.layer_values["serve.read_under_write_p50_ms"] = percentile(latencies["under_write"], 50) * 1e3
        ctx.layer_values["serve.requests_per_s"] = requests / (reads_time.seconds + writes_time.seconds)
        ctx.layer_values["core.matcher.match_f1"] = self.quality.f1
        self.point_p50_s = median(latencies["point"])
        return Pass(phase_a_s=self.point_p50_s, phase_b_s=median(latencies["mutate"]), quality=self.quality)

    # ------------------------------------------------------------------
    def finish(self, ctx: Context) -> None:
        stats = self.client.stats()
        ctx.op(stats["mutations_applied"] == self.sent_mutations,
               f"daemon applied {stats['mutations_applied']} mutations, {self.sent_mutations} were sent")
        ctx.layer_values["engine.store.resident_mb"] = (stats["store_resident_bytes"] or 0) / 1e6
        self.client.shutdown()
        farewell = self.daemon.stdout.readline()
        if not farewell:
            raise RuntimeError("match daemon exited without its closing report")
        report = json.loads(farewell)
        self.peak_rss_mb = report["peak_rss_mb"]
        self.daemon_totals = totals_from_json(report["totals"])

    def stop(self) -> None:
        """Make sure the daemon is gone (also the error path)."""
        daemon = self.daemon
        if daemon is None:
            return
        if daemon.poll() is None:
            daemon.stdin.close()  # the daemon shuts down when its stdin closes
            try:
                daemon.wait(timeout=20)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        for pipe in (daemon.stdin, daemon.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()

"""Delta scaling micro-benchmark — append cost tracks delta size, not table size.

One curve, emitted as ``BENCH_delta.json`` so CI can track it: a table is
resolved cold (capturing a baseline), then grown by successively larger
appends, each followed by an incremental re-resolve through the delta engine
against a warm chunked cache.  For every append the benchmark records the
encode work actually paid (``rows_reencoded``, ``tables_encoded``), the
matcher work (``pairs_rescored`` vs total candidates) and wall clock.

Correctness gates (the benchmark fails on divergence, not on slowness —
CI runners are too noisy for hard speedup thresholds on small tables):

* every incremental step re-encodes exactly the appended rows and zero
  whole tables — the content-addressed chunk reuse contract;
* the final incremental stream matches a cold full resolve of the fully
  grown table (identical candidate stream and match set), and that cold run
  does strictly *more* encode operations than all warm appends combined.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import BlockingConfig
from repro.data.generators import append_rows
from repro.engine import (
    EncodingStore,
    PersistentEncodingCache,
    merge_scored_batches,
    resolve_delta,
    resolve_stream,
)
from repro.eval.harness import fit_representation
from repro.eval.timing import EngineCounters, StageTimings

from benchmarks.conftest import bench_scale
from repro.data.generators import load_domain

TOP_K = 10
BATCH_SIZE = 512
CHUNK_ROWS = 64
#: Successive appends to the right table, in rows.  The spread is what shows
#: cost scaling with the delta, not the (growing) table.
DELTA_SWEEP = (16, 64, 256)


class _DistanceMatcher:
    """Deterministic elementwise matcher stand-in (no training cost)."""

    def predict_proba(self, left_irs: np.ndarray, right_irs: np.ndarray) -> np.ndarray:
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


def test_delta_scaling(harness_config):
    # A private domain instance: append_rows mutates it, so the shared
    # session fixture must not be used here.
    domain = load_domain("restaurants", scale=bench_scale())
    representation, _ = fit_representation(domain, harness_config)
    matcher = _DistanceMatcher()
    blocking = BlockingConfig(seed=harness_config.seed)

    with tempfile.TemporaryDirectory(prefix="delta-bench-cache") as tmp:
        cache = PersistentEncodingCache(Path(tmp), chunk_rows=CHUNK_ROWS)
        store = EncodingStore(
            representation, domain.task,
            counters=EngineCounters(), persistent=cache, shard_rows=CHUNK_ROWS,
        )

        start = time.perf_counter()
        executor = resolve_delta(
            store, matcher, baseline=None, blocking=blocking, k=TOP_K, batch_size=BATCH_SIZE
        )
        merge_scored_batches(executor.run())
        cold_seconds = time.perf_counter() - start
        baseline = executor.baseline_out
        base_left, base_right = len(domain.task.left), len(domain.task.right)
        assert store.counters.tables_encoded == 2

        steps = []
        for delta_rows in DELTA_SWEEP:
            append_rows(domain, side="right", rows=delta_rows)
            rows_before = store.counters.rows_reencoded
            tables_before = store.counters.tables_encoded
            rescored_before = store.counters.pairs_rescored
            timings = StageTimings()
            start = time.perf_counter()
            executor = resolve_delta(
                store, matcher, baseline=baseline, blocking=blocking,
                k=TOP_K, batch_size=BATCH_SIZE, stage_timings=timings,
            )
            scored = merge_scored_batches(executor.run())
            seconds = time.perf_counter() - start
            baseline = executor.baseline_out

            rows_reencoded = store.counters.rows_reencoded - rows_before
            assert store.counters.tables_encoded == tables_before, (
                f"append of {delta_rows} rows must not re-encode a whole table"
            )
            assert rows_reencoded == delta_rows, (
                f"append of {delta_rows} rows re-encoded {rows_reencoded}"
            )
            steps.append({
                "appended_rows": delta_rows,
                "right_rows_after": len(domain.task.right),
                "seconds": seconds,
                "rows_reencoded": rows_reencoded,
                "tables_encoded": 0,
                "pairs_rescored": store.counters.pairs_rescored - rescored_before,
                "candidate_pairs": len(scored),
                "encode_seconds": timings.seconds("encode"),
                "block_extend_seconds": timings.seconds("block-extend"),
            })
        warm = scored

        # Cold reference on the fully grown table: a fresh store with a cold
        # cache must encode both whole tables from scratch.
        cold_store = EncodingStore(
            representation, domain.task, counters=EngineCounters(), shard_rows=CHUNK_ROWS
        )
        start = time.perf_counter()
        cold = merge_scored_batches(
            resolve_stream(cold_store, matcher, blocking=blocking, k=TOP_K, batch_size=BATCH_SIZE)
        )
        cold_grown_seconds = time.perf_counter() - start
        cold_rows_encoded = len(domain.task.left) + len(domain.task.right)
        warm_rows_encoded = sum(step["rows_reencoded"] for step in steps)

        # The acceptance gate: warm append resolves do strictly fewer encode
        # operations than the cold run on the same grown table.
        assert cold_store.counters.tables_encoded == 2
        assert warm_rows_encoded < cold_rows_encoded, (
            f"warm appends encoded {warm_rows_encoded} rows, "
            f"cold run encoded {cold_rows_encoded}"
        )
        # Equivalence gate on the final state.
        assert [p.key() for p in warm.pairs] == [p.key() for p in cold.pairs]
        assert {p.key() for p in warm.matches()} == {p.key() for p in cold.matches()}

    payload = {
        "domain": domain.name,
        "k": TOP_K,
        "batch_size": BATCH_SIZE,
        "chunk_rows": CHUNK_ROWS,
        "base_rows": {"left": base_left, "right": base_right},
        "cold_base_seconds": cold_seconds,
        "steps": steps,
        "cold_grown": {
            "seconds": cold_grown_seconds,
            "rows_encoded": cold_rows_encoded,
            "tables_encoded": 2,
        },
        "warm_rows_encoded_total": warm_rows_encoded,
    }
    Path("BENCH_delta.json").write_text(json.dumps(payload, indent=2) + "\n")

    print("\n\nDelta scaling — append cost vs delta size\n")
    print(f"  domain           : {domain.name} (base {base_left}x{base_right} rows)")
    print(f"  cold base resolve: {cold_seconds:.3f}s (2 tables encoded)")
    for step in steps:
        print(f"  append +{step['appended_rows']:4d}     : {step['seconds']:.3f}s — "
              f"{step['rows_reencoded']} rows re-encoded, 0 tables, "
              f"{step['pairs_rescored']}/{step['candidate_pairs']} pairs rescored")
    print(f"  cold grown run   : {cold_grown_seconds:.3f}s — "
          f"{cold_rows_encoded} rows ({payload['cold_grown']['tables_encoded']} tables) encoded "
          f"vs {warm_rows_encoded} across all warm appends")

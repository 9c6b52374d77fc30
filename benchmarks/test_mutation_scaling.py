"""Mutation scaling micro-benchmark — edit/delete cost tracks the mutation, not the table.

One curve, emitted as ``BENCH_mutation.json`` so CI can track it: a table is
resolved cold (capturing a baseline), then repeatedly *mutated in place* —
each step edits ``e`` rows, deletes ``d`` rows and appends a handful — and
incrementally re-resolved through the delta engine against a warm chunked
cache.  For every step the benchmark records the encode work actually paid
(``rows_reencoded``, ``rows_tombstoned``, ``chunks_patched``,
``tables_encoded``), the matcher work (``pairs_rescored`` vs total
candidates) and wall clock.

Correctness gates (the benchmark fails on divergence, not on slowness —
CI runners are too noisy for hard speedup thresholds on small tables):

* every incremental step re-encodes exactly ``edits + appends`` rows and
  zero whole tables — deletions cost no encode work at all;
* superseding chunk generations are bounded by the chunks the edits touch,
  never the table size (write amplification stays proportional to dirt);
* the final incremental stream matches a cold full resolve of the fully
  mutated table (identical candidate stream and match set), and that cold
  run does strictly *more* encode operations than all warm steps combined.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import BlockingConfig
from repro.data.generators import append_rows, delete_rows, load_domain, mutate_rows
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

TOP_K = 10
BATCH_SIZE = 512
CHUNK_ROWS = 64
APPENDS_PER_STEP = 8
#: Successive (edits, deletes) mutations of the right table.  The spread is
#: what shows cost scaling with the mutation, not the table.
MUTATION_SWEEP = ((4, 2), (16, 8), (64, 32))


class _DistanceMatcher:
    """Deterministic elementwise matcher stand-in (no training cost)."""

    def predict_proba(self, left_irs: np.ndarray, right_irs: np.ndarray) -> np.ndarray:
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


def test_mutation_scaling(harness_config):
    # A private domain instance: the mutation helpers rewrite it in place, so
    # the shared session fixture must not be used here.
    domain = load_domain("citations1", scale=max(1.0, bench_scale()))
    representation, _ = fit_representation(domain, harness_config)
    matcher = _DistanceMatcher()
    blocking = BlockingConfig(seed=harness_config.seed)

    with tempfile.TemporaryDirectory(prefix="mutation-bench-cache") as tmp:
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
        for edit_rows, delete_count in MUTATION_SWEEP:
            deleted = delete_rows(domain, side="right", rows=delete_count)
            mutate_rows(domain, side="right", rows=edit_rows)
            appended = append_rows(domain, side="right", rows=APPENDS_PER_STEP)
            reissued = len({r.record_id for r in deleted} & {r.record_id for r in appended})
            rows_before = store.counters.rows_reencoded
            tombstoned_before = store.counters.rows_tombstoned
            patched_before = store.counters.chunks_patched
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
            rows_tombstoned = store.counters.rows_tombstoned - tombstoned_before
            chunks_patched = store.counters.chunks_patched - patched_before
            assert store.counters.tables_encoded == tables_before, (
                f"mutation of {edit_rows}+{delete_count} rows must not re-encode a whole table"
            )
            assert rows_reencoded == edit_rows + APPENDS_PER_STEP, (
                f"{edit_rows} edits + {APPENDS_PER_STEP} appends re-encoded {rows_reencoded}"
            )
            assert delete_count - reissued <= rows_tombstoned <= delete_count
            # Write amplification is bounded by the chunks the dirt touches.
            dirty_rows = edit_rows + rows_tombstoned
            assert chunks_patched <= dirty_rows, (
                f"{dirty_rows} dirty rows superseded {chunks_patched} chunks"
            )
            steps.append({
                "edit_rows": edit_rows,
                "delete_rows": delete_count,
                "appended_rows": APPENDS_PER_STEP,
                "right_rows_after": len(domain.task.right),
                "seconds": seconds,
                "rows_reencoded": rows_reencoded,
                "rows_tombstoned": rows_tombstoned,
                "chunks_patched": chunks_patched,
                "tables_encoded": 0,
                "pairs_rescored": store.counters.pairs_rescored - rescored_before,
                "candidate_pairs": len(scored),
                "encode_seconds": timings.seconds("encode"),
                "block_extend_seconds": timings.seconds("block-extend"),
            })
        warm = scored

        # Cold reference on the fully mutated table: a fresh store with a
        # cold cache must encode both whole tables from scratch.
        cold_store = EncodingStore(
            representation, domain.task, counters=EngineCounters(), shard_rows=CHUNK_ROWS
        )
        start = time.perf_counter()
        cold = merge_scored_batches(
            resolve_stream(cold_store, matcher, blocking=blocking, k=TOP_K, batch_size=BATCH_SIZE)
        )
        cold_mutated_seconds = time.perf_counter() - start
        cold_rows_encoded = len(domain.task.left) + len(domain.task.right)
        warm_rows_encoded = sum(step["rows_reencoded"] for step in steps)

        # The acceptance gate: warm mutation resolves do strictly fewer
        # encode operations than the cold run on the same mutated table.
        assert cold_store.counters.tables_encoded == 2
        assert warm_rows_encoded < cold_rows_encoded, (
            f"warm mutations encoded {warm_rows_encoded} rows, "
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
        "cold_mutated": {
            "seconds": cold_mutated_seconds,
            "rows_encoded": cold_rows_encoded,
            "tables_encoded": 2,
        },
        "warm_rows_encoded_total": warm_rows_encoded,
    }
    Path("BENCH_mutation.json").write_text(json.dumps(payload, indent=2) + "\n")

    print("\n\nMutation scaling — edit/delete cost vs mutation size\n")
    print(f"  domain           : {domain.name} (base {base_left}x{base_right} rows)")
    print(f"  cold base resolve: {cold_seconds:.3f}s (2 tables encoded)")
    for step in steps:
        print(f"  edit {step['edit_rows']:3d} / del {step['delete_rows']:3d} / "
              f"app {step['appended_rows']:2d} : {step['seconds']:.3f}s — "
              f"{step['rows_reencoded']} rows re-encoded, "
              f"{step['rows_tombstoned']} tombstoned, "
              f"{step['chunks_patched']} chunks patched, "
              f"{step['pairs_rescored']}/{step['candidate_pairs']} pairs rescored")
    print(f"  cold mutated run : {cold_mutated_seconds:.3f}s — "
          f"{cold_rows_encoded} rows (2 tables) encoded "
          f"vs {warm_rows_encoded} across all warm steps")

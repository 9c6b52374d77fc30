"""Blocking scaling micro-benchmark — LSH worker sweep and chunked-cache loads.

Two curves, emitted as ``BENCH_blocking.json`` so CI can track them:

* **LSH build + query sweep** at 1, 2 and 4 workers over one benchmark
  domain's record vectors: hash tables built from worker-computed partial
  maps, query shards coarsened by the measured cost model and fanned across
  the persistent pool, with the per-stage breakdown (dispatch, IPC sample,
  compute, merge) recorded per worker count.
* **Warm cache load**: best-of-3 wall clock of a full load from the
  row-range-chunked cache, plus the lazy single-shard load that only
  touches one chunk — the case the chunked layout exists for.

Correctness gates always apply (every worker count must produce the
identical candidate-pair list; full and lazy loads must serve the arrays
that were saved).  The *performance* gate only applies when
``REPRO_BENCH_REQUIRE_SPEEDUP`` is set — single-core or noisy runners
cannot meaningfully enforce it: workers=4 must not be slower than the
serial reference pass.

``REPRO_BENCH_SCALE`` multiplies the tiled row counts (default 1.0) so a
beefy runner can push the sweep to larger tables.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.blocking import NearestNeighbourSearch
from repro.config import BlockingConfig
from repro.data.schema import Record, Table
from repro.engine import (
    EncodingStore,
    PersistentEncodingCache,
    encoding_fingerprint,
    sharded_candidate_pairs,
)
from repro.engine.shard import fork_pool_available, shutdown_pools
from repro.eval.harness import fit_representation
from repro.eval.timing import EngineCounters, StageTimings

WORKER_SWEEP = (1, 2, 4)
TOP_K = 10
#: Rows per shard for the sweep — several shards per worker at the tiled
#: table sizes below, so the fan-out path is genuinely exercised.
CHUNK_ROWS = 256


def _bench_scale() -> float:
    raw = os.environ.get("REPRO_BENCH_SCALE", "").strip()
    try:
        scale = float(raw)
    except ValueError:
        return 1.0
    return scale if scale > 0 else 1.0


#: The benchmark domains are deliberately small; blocking at that size is
#: milliseconds and any pool measurement would just time fork(2).  Tiling
#: the domain's record vectors (unique keys, deterministic jitter) scales
#: the workload to production-shaped row counts without touching the
#: domain generators.
LEFT_ROWS = int(4096 * _bench_scale())
RIGHT_ROWS = int(3072 * _bench_scale())

#: Set (e.g. in the CI multi-core job) to turn the speedup expectations into
#: hard failures instead of reported numbers.
REQUIRE_SPEEDUP = bool(os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP", "").strip())


def _tile_vectors(vectors: np.ndarray, keys, rows: int, seed: int):
    """Deterministically tile ``vectors`` up to ``rows`` with unique keys."""
    rng = np.random.default_rng(seed)
    repeats = -(-rows // len(vectors))  # ceil
    tiled = np.tile(vectors, (repeats, 1))[:rows]
    tiled = tiled + rng.normal(scale=0.01, size=tiled.shape)
    tiled_keys = [f"{key}~{repeat}" for repeat in range(repeats) for key in keys][:rows]
    return tiled, tiled_keys


def _best_of(runs: int, fn):
    """(best seconds, last result) of ``runs`` timed calls."""
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_blocking_scaling(domains, harness_config):
    domain = domains["restaurants"]
    representation, _ = fit_representation(domain, harness_config)
    store = EncodingStore(
        representation, domain.task, counters=EngineCounters(), shard_rows=CHUNK_ROWS
    )
    left = store.table_encodings("left")
    right = store.table_encodings("right")
    blocking = BlockingConfig(seed=harness_config.seed)
    query_vectors, query_keys = _tile_vectors(left.flat_mu(), left.keys, LEFT_ROWS, seed=11)
    index_vectors, index_keys = _tile_vectors(right.flat_mu(), right.keys, RIGHT_ROWS, seed=13)

    # Serial reference: one whole-table build + query pass.
    start = time.perf_counter()
    reference = (
        NearestNeighbourSearch(blocking)
        .build(index_vectors, index_keys)
        .candidate_pairs(query_vectors, query_keys, k=TOP_K)
    )
    reference_seconds = time.perf_counter() - start
    reference_keys = [pair.key() for pair in reference]

    shutdown_pools()  # pay the first spawn inside the sweep, visibly
    sweep = {}
    for workers in WORKER_SWEEP:
        timings = StageTimings()
        start = time.perf_counter()
        pairs = sharded_candidate_pairs(
            index_vectors, index_keys, query_vectors, query_keys,
            blocking=blocking, k=TOP_K, workers=workers,
            shard_rows=CHUNK_ROWS, stage_timings=timings,
        )
        seconds = time.perf_counter() - start
        assert [pair.key() for pair in pairs] == reference_keys, (
            f"workers={workers} diverged from the serial candidate stream"
        )
        sweep[workers] = {
            "seconds": seconds,
            "build_seconds": timings.seconds("block-build"),
            "query_compute_seconds": timings.seconds("block-query"),
            "query_shards": timings.units("block-query"),
            "query_tasks": timings.counter("query_tasks"),
            "dispatch_seconds": timings.seconds("dispatch"),
            "ipc_sample_seconds": timings.seconds("block-ipc"),
            "merge_seconds": timings.seconds("merge"),
            "speedup_vs_serial": (
                reference_seconds / seconds if seconds > 0 else 0.0
            ),
        }
    shutdown_pools()
    baseline = sweep[1]["seconds"]
    for workers, row in sweep.items():
        row["speedup_vs_1"] = baseline / row["seconds"] if row["seconds"] > 0 else 0.0

    # ------------------------------------------------------------------
    # Warm loads (best of 3): the full entry and one lazy shard.  The entry
    # is tiled to the sweep's row count so it spans many chunks — the table
    # shape the chunked layout exists for.
    # ------------------------------------------------------------------
    import tempfile

    from repro.engine import TableEncodings

    repeats = -(-LEFT_ROWS // len(left))  # ceil
    big = TableEncodings(
        keys=tuple(query_keys),
        irs=np.tile(left.irs, (repeats, 1, 1))[:LEFT_ROWS],
        mu=np.tile(left.mu, (repeats, 1, 1))[:LEFT_ROWS],
        sigma=np.tile(left.sigma, (repeats, 1, 1))[:LEFT_ROWS],
        row_index={key: row for row, key in enumerate(query_keys)},
    )
    with tempfile.TemporaryDirectory(prefix="blocking-bench-cache") as tmp:
        cache = PersistentEncodingCache(Path(tmp), chunk_rows=CHUNK_ROWS)
        version = representation.encoding_version
        fingerprint = encoding_fingerprint(representation, domain.task.left)
        # The tiled rows have no records behind them: a keys-only table is
        # the identity a load-only entry needs.
        identity = Table(
            "tiled", domain.task.left.attributes,
            [Record(key, ("",) * domain.task.left.arity) for key in query_keys],
        )
        cache.save(domain.task.name, "left", version, fingerprint, big, identity)

        chunked_full_seconds, chunked_full = _best_of(
            3, lambda: cache.load(domain.task.name, "left", version, fingerprint)
        )

        counters = EngineCounters()
        chunked_shard_seconds, one_shard = _best_of(
            3,
            lambda: cache.load_range(
                domain.task.name, "left", version, fingerprint, 0, CHUNK_ROWS, counters=counters
            ),
        )
        assert counters.chunk_loads == 3, "a one-shard load must read exactly one chunk"

        assert chunked_full is not None and one_shard is not None
        np.testing.assert_array_equal(chunked_full.mu, big.mu)
        np.testing.assert_array_equal(one_shard.mu, big.mu[:CHUNK_ROWS])
        total_chunks = len(list(cache.dir_for(domain.task.name, "left", version).glob("chunk-*.npz")))
        assert total_chunks == -(-LEFT_ROWS // CHUNK_ROWS), "entry must span many chunks"

    payload = {
        "domain": domain.name,
        "k": TOP_K,
        "shard_rows": CHUNK_ROWS,
        "left_rows": len(query_keys),
        "right_rows": len(index_keys),
        "pool_kind": "fork" if fork_pool_available() else "thread",
        "candidate_pairs": len(reference_keys),
        "serial_reference_seconds": reference_seconds,
        "workers": {str(workers): row for workers, row in sweep.items()},
        "cache": {
            "rows": LEFT_ROWS,
            "chunks": total_chunks,
            "chunked_full_load_seconds": chunked_full_seconds,
            "chunked_one_shard_load_seconds": chunked_shard_seconds,
        },
    }
    Path("BENCH_blocking.json").write_text(json.dumps(payload, indent=2) + "\n")

    print("\n\nBlocking scaling — LSH build + query worker sweep "
          f"(pool kind: {payload['pool_kind']})\n")
    print(f"  domain            : {domain.name} (tiled to {len(query_keys)}x{len(index_keys)} rows, "
          f"{len(reference_keys)} candidate pairs)")
    print(f"  serial reference  : {reference_seconds:.3f}s")
    for workers, row in sweep.items():
        print(f"  workers={workers}         : {row['seconds']:.3f}s "
              f"({row['speedup_vs_serial']:.2f}x vs serial; build {row['build_seconds']:.3f}s, "
              f"query compute {row['query_compute_seconds']:.3f}s over {row['query_shards']} shards "
              f"in {row['query_tasks']} tasks; dispatch {row['dispatch_seconds'] * 1e3:.2f}ms, "
              f"ipc sample {row['ipc_sample_seconds'] * 1e3:.2f}ms, "
              f"merge {row['merge_seconds'] * 1e3:.2f}ms)")
    print("\nWarm cache loads (best of 3)\n")
    print(f"  chunked full load : {chunked_full_seconds * 1e3:.2f}ms ({total_chunks} chunks)")
    print(f"  one-shard load    : {chunked_shard_seconds * 1e3:.2f}ms")

    if REQUIRE_SPEEDUP:
        assert sweep[4]["seconds"] <= reference_seconds, (
            f"workers=4 ({sweep[4]['seconds']:.3f}s) slower than the serial "
            f"reference ({reference_seconds:.3f}s) with REPRO_BENCH_REQUIRE_SPEEDUP set"
        )

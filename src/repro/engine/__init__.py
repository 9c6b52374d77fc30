"""Batched encoding engine shared by blocking, matching and active learning.

The engine layer owns *where encodings live* and *how the resolve path is
planned and executed*:

* :class:`EncodingStore` — keyed, invalidation-aware cache of per-table IR
  arrays and latent Gaussians, with vectorized gather-then-matmul pair
  featurisation and scoring;
* :class:`PersistentEncodingCache` — on-disk extension of the store's cache,
  row-range-chunked (``<task>/<side>-vN/chunk-<a>-<b>.npz`` + manifest) so
  warm loads are lazy per shard; one on-disk format, anything else is a miss;
* :class:`ResolutionPlanner` / :class:`ResolutionExecutor` — the plan/execute
  core: a deterministic encode → block → score stage graph over left-table
  query chunks, run by the one executor — cold or against a baseline,
  scoring inline or on a :class:`WorkerPool` — with results merged
  deterministically by ``(batch_index, pair_index)``;
* :class:`WorkerPool` — *where score units run*: one
  :mod:`concurrent.futures` executor, built as a :class:`ForkWorkerPool`
  (worker processes) or, where fork is unavailable, a
  :class:`ThreadWorkerPool`.  ``workers > 1`` borrows the cached,
  persistent local pool (``VAER.resolve_stream(workers=N)``); each score
  task carries its batch's rows; the daemon runs serially;
* :func:`resolve` — the one front-end: plans a run and constructs its
  executor.  Its batch stream is byte-identical at every ``workers`` count
  and on every pool.  Without a baseline the run is cold; against the
  :class:`ResolutionBaseline` a previous run captured (``capture=True``) a
  row-identity diff (per-row CRCs keyed on stable record ids) classifies
  every current row as clean, dirty, appended or deleted, so only edited and
  appended rows are re-encoded (patch/tombstone chunk generations on disk),
  the LSH index is mutated in place (extend/remove/patch, compaction past a
  load threshold) and the matcher rescores only pairs the surviving baseline
  scores do not cover — with a match stream identical to a cold full
  resolve.

Batching, caching, persistence, sharding and scheduling decisions belong
here, not in the pipeline stages that consume the encodings.
"""

from repro.engine.persist import (
    DEFAULT_CHUNK_ROWS,
    PersistentEncodingCache,
    RowDiff,
    TableDelta,
    diff_rows,
    encoding_fingerprint,
    model_fingerprint,
    record_crc,
    rows_crc,
    table_row_crcs,
)
from repro.engine.quant import (
    CodecArray,
    CodecParams,
    PQParams,
    ProductQuantizer,
    ScalarQuantizer,
    asymmetric_sq_distances,
    available_codecs,
    get_codec,
    params_from_json,
    resolve_codec_name,
    table_sq_norms_of,
)
from repro.engine.plan import (
    ResolutionBaseline,
    ResolutionExecutor,
    ResolutionPlan,
    ResolutionPlanner,
    Stage,
    StageUnit,
    resolve,
)
from repro.engine.shard import (
    ForkWorkerPool,
    ShardBounds,
    ThreadWorkerPool,
    WorkerPool,
    acquire_pool,
    fork_pool_available,
    make_pool,
    merge_scored_batches,
    release_engine_resources,
    release_pool,
    shard_bounds_for,
)
from repro.engine.store import (
    EncodingStore,
    TableEncodings,
    encode_table_rows,
)
from repro.engine.stream import (
    ResolutionBatch,
    ScoredPairs,
    guard_store_version,
    pin_store_version,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "CodecArray",
    "CodecParams",
    "EncodingStore",
    "ForkWorkerPool",
    "PQParams",
    "PersistentEncodingCache",
    "ProductQuantizer",
    "ResolutionBaseline",
    "ResolutionBatch",
    "ResolutionExecutor",
    "ResolutionPlan",
    "ResolutionPlanner",
    "RowDiff",
    "ScalarQuantizer",
    "ScoredPairs",
    "ShardBounds",
    "Stage",
    "StageUnit",
    "TableDelta",
    "TableEncodings",
    "ThreadWorkerPool",
    "WorkerPool",
    "acquire_pool",
    "asymmetric_sq_distances",
    "available_codecs",
    "get_codec",
    "params_from_json",
    "resolve_codec_name",
    "table_sq_norms_of",
    "fork_pool_available",
    "make_pool",
    "release_engine_resources",
    "release_pool",
    "diff_rows",
    "encode_table_rows",
    "encoding_fingerprint",
    "guard_store_version",
    "merge_scored_batches",
    "model_fingerprint",
    "pin_store_version",
    "record_crc",
    "resolve",
    "rows_crc",
    "table_row_crcs",
    "shard_bounds_for",
]

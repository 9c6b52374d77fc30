"""Engine instrumentation: cache and throughput counters, per-stage resolve timings."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


# ----------------------------------------------------------------------
# Engine instrumentation
# ----------------------------------------------------------------------
@dataclass
class EngineCounters:
    """Cache and throughput counters for the batched encoding engine.

    ``cache_hits``/``cache_misses`` count logical store operations served
    from / added to an :class:`repro.engine.EncodingStore` (one per side per
    operation, not raw internal lookups); ``encodes_avoided`` counts the
    record encodings the legacy path would have recomputed for those
    operations — the whole table for table-level accesses, the referenced
    pair records for gathers; ``pairs_scored`` counts candidate pairs
    featurised or scored through the store's vectorized gather paths.

    The persistence layer (:mod:`repro.engine.persist`) adds four more:
    ``tables_encoded`` counts tables actually pushed through the IR generator
    and VAE (the expensive work a warm disk cache eliminates entirely),
    ``disk_hits``/``disk_misses`` count probes of the persistent on-disk cache
    that served / failed to serve a table, and ``chunk_loads`` counts the
    row-range chunk archives actually read off disk — a lazy shard load
    touches only the chunks overlapping its range, so the counter exposes how
    much of a table a warm load really paid for.  A warm second run therefore
    shows ``tables_encoded == 0``, one disk hit per side, and one chunk load
    per chunk the run consumed.

    The blocking layer (:mod:`repro.blocking.lsh`) reports what its queries
    did: ``blocking_queries`` counts query rows, ``blocking_fallback_queries``
    those whose buckets held fewer than ``k`` candidates and were ranked
    against every live row instead, ``blocking_candidates_ranked`` the
    (query, candidate row) pairs ranked — their ratio to ``queries x table
    rows`` is how much the hash tables actually prune — and
    ``blocking_candidates_rescored`` the pair distances the per-pair kernel
    computed: the exact rescore of the GEMM shortlist, on float and code
    tables alike (at least the ranked ``k`` per query whenever that many
    rows live, at most the ranked candidates).  Every blocking query runs
    in the resolving process on the same query chunks whatever the pool,
    so all four blocking counters are equal between serial and pooled
    runs.

    ``records_scored`` counts the records the matcher actually encoded: per
    scored batch, the distinct left rows plus the distinct right rows.  Its
    gap to twice the scored pairs is the encoder work that scoring each
    distinct record once per batch saves.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    encodes_avoided: int = 0
    pairs_scored: int = 0
    tables_encoded: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    chunk_loads: int = 0
    rows_reencoded: int = 0
    rows_tombstoned: int = 0
    chunks_patched: int = 0
    pairs_rescored: int = 0
    fingerprints_computed: int = 0
    bytes_stored: int = 0
    bytes_decoded: int = 0
    blocking_queries: int = 0
    blocking_fallback_queries: int = 0
    blocking_candidates_ranked: int = 0
    blocking_candidates_rescored: int = 0
    records_scored: int = 0

    def record_hit(self, records_served: int = 0) -> None:
        self.cache_hits += 1
        self.encodes_avoided += int(records_served)

    def record_miss(self) -> None:
        self.cache_misses += 1

    def record_pairs(self, count: int) -> None:
        self.pairs_scored += int(count)

    def record_encode(self) -> None:
        """One table actually encoded (IR transform + VAE forward)."""
        self.tables_encoded += 1

    def record_disk_hit(self) -> None:
        """One table served from the persistent on-disk cache."""
        self.disk_hits += 1

    def record_disk_miss(self) -> None:
        """One persistent-cache probe that found no valid entry."""
        self.disk_misses += 1

    def record_chunk_load(self, count: int = 1) -> None:
        """``count`` row-range chunk archives read from the persistent cache."""
        self.chunk_loads += int(count)

    def record_rows_reencoded(self, count: int) -> None:
        """``count`` rows encoded through the append-only delta path.

        Distinct from ``tables_encoded``: a delta re-encode pushes only the
        new tail rows of a grown table through the IR transform and VAE, so
        the whole-table counter stays put and this one carries the cost.
        """
        self.rows_reencoded += int(count)

    def record_rows_tombstoned(self, count: int) -> None:
        """``count`` rows dropped from cached encodings after a deletion.

        Tombstoned rows cost no encode work — the counter exists so the
        mutation path can prove a deletion re-encoded nothing: a delete-only
        delta shows ``rows_tombstoned > 0`` with ``rows_reencoded == 0``.
        """
        self.rows_tombstoned += int(count)

    def record_chunks_patched(self, count: int) -> None:
        """``count`` superseding chunk generations written by a cache patch.

        Each in-place edit dirties at most the chunks holding the edited
        rows, so the counter bounds the write amplification of the mutation
        layer: proportional to dirty chunks, never to table size.
        """
        self.chunks_patched += int(count)

    def record_pairs_rescored(self, count: int) -> None:
        """``count`` candidate pairs a resolve actually ran the matcher on.

        Pairs whose probabilities were reused from the baseline run are
        *not* counted — the gap to ``pairs_scored`` is the scoring work an
        incremental run saved (none for a run without a baseline).
        """
        self.pairs_rescored += int(count)

    def record_fingerprint(self) -> None:
        """One table fingerprint actually computed (rows CRC'd)."""
        self.fingerprints_computed += 1

    def record_bytes_stored(self, count: int) -> None:
        """``count`` bytes held resident for freshly stored encodings.

        With the ``raw`` codec this is the float array size; with a
        quantized codec it is the code array size — the ratio between the
        two is the memory win the codec tier delivers.
        """
        self.bytes_stored += int(count)

    def record_bytes_decoded(self, count: int) -> None:
        """``count`` float bytes rehydrated from quantized codes.

        Counted at gather time (pair scoring, candidate ranking, hashed
        row blocks), so it measures how much of the float store the run
        actually materialised — the lazy-decode contract keeps this far
        below ``rows * dims * 8`` for blocking-dominated workloads.
        """
        self.bytes_decoded += int(count)

    def record_blocking(self, queries: int, fallback: int, candidates: int, rescored: int) -> None:
        """One ``query_batch`` call: rows queried, rows ranked by linear
        scan, candidates ranked and pair distances the kernel computed over
        the whole call."""
        self.blocking_queries += int(queries)
        self.blocking_fallback_queries += int(fallback)
        self.blocking_candidates_ranked += int(candidates)
        self.blocking_candidates_rescored += int(rescored)

    def record_records_scored(self, count: int) -> None:
        """``count`` records one scored batch ran through the matcher's encoder."""
        self.records_scored += int(count)

    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {counter.name: getattr(self, counter.name) for counter in fields(self)}

    def reset(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, counter.default)


# ----------------------------------------------------------------------
# Planner-stage instrumentation
# ----------------------------------------------------------------------
#: Stage names of the planner's resolve graph, in dependency order.
RESOLUTION_STAGES = ("encode", "block", "score")


class StageTimings:
    """Per-stage compute-time sink for planner-driven resolution.

    The :class:`repro.engine.plan.ResolutionExecutor` reports every timed
    work unit here under its stage name (``encode``, ``block``, ``score``),
    accumulating seconds and unit counts per stage, plus ``merge`` (the
    parent's seconds splitting batches against the baseline and gathering
    their rows).  Pooled runs add ``dispatch``: the parent's seconds in
    ``submit``, one unit per score task.  So a sweep can
    show where the wall clock went, not just that it moved.  ``encode`` and
    ``block`` always run in the parent; ``score`` seconds are *worker
    compute* time, so with a pool the summed figure can exceed the run's
    wall clock — the gap is the parallel speedup.
    """

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._units: Dict[str, int] = {}
        self._counters: Dict[str, int] = {}

    def record(self, stage: str, seconds: float, units: int = 1) -> None:
        self._seconds[stage] = self._seconds.get(stage, 0.0) + float(seconds)
        self._units[stage] = self._units.get(stage, 0) + int(units)

    def record_counter(self, name: str, value: int) -> None:
        """Accumulate a named work counter (every resolve reports
        ``rows_reencoded``, ``rows_tombstoned`` and ``pairs_rescored`` here
        so the timing sink carries the full incremental-cost picture)."""
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def seconds(self, stage: str) -> float:
        return self._seconds.get(stage, 0.0)

    def units(self, stage: str) -> int:
        return self._units.get(stage, 0)

    def stages(self) -> list:
        """Recorded stages, canonical resolution stages first."""
        ordered = [stage for stage in RESOLUTION_STAGES if stage in self._seconds]
        ordered.extend(sorted(set(self._seconds) - set(RESOLUTION_STAGES)))
        return ordered

    def total(self) -> float:
        return sum(self._seconds.values())

    def __len__(self) -> int:
        return len(self._seconds)


#: Process-wide default counters: stores created without explicit counters
#: report here, so harness runs and benchmarks can read one aggregate.
ENGINE_COUNTERS = EngineCounters()


def engine_counters() -> EngineCounters:
    """The process-wide engine counters instance."""
    return ENGINE_COUNTERS


def reset_engine_counters() -> None:
    """Zero the process-wide engine counters (between benchmark phases)."""
    ENGINE_COUNTERS.reset()

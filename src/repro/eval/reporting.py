"""Plain-text table formatting matching the layout of the paper's tables."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.eval.harness import ActiveLearningRow, MatchingRow, TransferRow
from repro.eval.metrics import PRF
from repro.eval.timing import EngineCounters, StageTimings, engine_counters


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Render a simple fixed-width table."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def format_representation_table(results: Mapping[str, Mapping[str, Mapping[str, PRF]]]) -> str:
    """Table IV layout: per domain and IR type, raw-IR vs VAER P/R/F1."""
    headers = ["Domain", "IR", "P raw/vaer", "R raw/vaer", "F1 raw/vaer"]
    rows: List[List[str]] = []
    for domain, by_method in results.items():
        for method, pair in by_method.items():
            raw, vaer = pair["raw"], pair["vaer"]
            rows.append([
                domain,
                method,
                f"{_fmt(raw.precision)}/{_fmt(vaer.precision)}",
                f"{_fmt(raw.recall)}/{_fmt(vaer.recall)}",
                f"{_fmt(raw.f1)}/{_fmt(vaer.f1)}",
            ])
    return format_table(headers, rows)


def format_recall_curve(results: Mapping[str, Mapping[int, float]]) -> str:
    """Figure 4 layout: recall@K per domain as K grows."""
    all_ks = sorted({k for series in results.values() for k in series})
    headers = ["Domain"] + [f"R@{k}" for k in all_ks]
    rows = [
        [domain] + [_fmt(series.get(k, 0.0)) for k in all_ks]
        for domain, series in results.items()
    ]
    return format_table(headers, rows)


def format_matching_table(results: Mapping[str, Sequence[MatchingRow]]) -> str:
    """Table V layout: P/R/F1 of every system per domain."""
    headers = ["Domain", "System", "P", "R", "F1"]
    rows = [
        [domain, row.system, _fmt(row.metrics.precision), _fmt(row.metrics.recall), _fmt(row.metrics.f1)]
        for domain, domain_rows in results.items()
        for row in domain_rows
    ]
    return format_table(headers, rows)


def format_timing_table(results: Mapping[str, Sequence[MatchingRow]]) -> str:
    """Table VI layout: representation and matching training times."""
    headers = ["Domain", "System", "Repr (s)", "Match (s)", "Total (s)"]
    rows = [
        [
            domain,
            row.system,
            _fmt(row.representation_seconds, 2),
            _fmt(row.matching_seconds, 2),
            _fmt(row.total_seconds, 2),
        ]
        for domain, domain_rows in results.items()
        for row in domain_rows
    ]
    return format_table(headers, rows)


def format_transfer_table(rows: Sequence[TransferRow]) -> str:
    """Table VII layout: local vs transferred recall@K and F1 with deltas."""
    headers = ["Domain", "R local", "R transf", "ΔR", "F1 local", "F1 transf", "ΔF1"]
    body = [
        [
            row.domain,
            _fmt(row.local_recall),
            _fmt(row.transferred_recall),
            f"{row.recall_delta:+.2f}",
            _fmt(row.local_f1),
            _fmt(row.transferred_f1),
            f"{row.f1_delta:+.2f}",
        ]
        for row in rows
    ]
    return format_table(headers, body)


def format_active_learning_table(rows: Sequence[ActiveLearningRow]) -> str:
    """Table VIII layout: Bootstrap / Active / Full plus cost percentages."""
    headers = [
        "Domain", "Boot F1", "Active F1", "Full F1", "F1 %", "Labels", "Train size", "Training %",
    ]
    body = [
        [
            row.domain,
            _fmt(row.bootstrap.f1),
            _fmt(row.active.f1),
            _fmt(row.full.f1),
            f"{100 * row.f1_percentage:.0f}%",
            str(row.labels_used),
            str(row.full_training_size),
            f"{100 * row.training_percentage:.0f}%",
        ]
        for row in rows
    ]
    return format_table(headers, body)


def format_engine_stats(counters: Optional[EngineCounters] = None) -> str:
    """Encoding-engine cache report: memory and disk traffic, work saved.

    Defaults to the process-wide counters, so benchmark output can show how
    much re-encoding the shared :class:`repro.engine.EncodingStore` saved.
    ``Tables encoded`` counts tables actually pushed through the encoder —
    zero on a run fully served by a warm persistent cache (``Disk hits``).
    """
    counters = counters if counters is not None else engine_counters()
    headers = [
        "Cache hits", "Cache misses", "Hit rate", "Encodes avoided", "Pairs scored",
        "Tables encoded", "Disk hits", "Disk misses", "Chunk loads",
        "Rows re-encoded", "Rows tombstoned", "Chunks patched",
        "Pairs rescored", "Fingerprints", "Bytes stored", "Bytes decoded",
        "Blocking queries", "Blocking fallbacks", "Candidates ranked", "Candidates rescored",
        "Records scored",
    ]
    row = [
        str(counters.cache_hits),
        str(counters.cache_misses),
        f"{100 * counters.hit_rate():.0f}%",
        str(counters.encodes_avoided),
        str(counters.pairs_scored),
        str(counters.tables_encoded),
        str(counters.disk_hits),
        str(counters.disk_misses),
        str(counters.chunk_loads),
        str(counters.rows_reencoded),
        str(counters.rows_tombstoned),
        str(counters.chunks_patched),
        str(counters.pairs_rescored),
        str(counters.fingerprints_computed),
        str(counters.bytes_stored),
        str(counters.bytes_decoded),
        str(counters.blocking_queries),
        str(counters.blocking_fallback_queries),
        str(counters.blocking_candidates_ranked),
        str(counters.blocking_candidates_rescored),
        str(counters.records_scored),
    ]
    return format_table(headers, [row])


def format_stage_timings(timings: StageTimings) -> str:
    """Per-stage compute report of a planner-driven resolve.

    Stages appear in graph order (encode, block, score); the seconds are
    summed worker compute per stage, so with a pool the total exceeds the
    run's wall clock — the gap is the parallel speedup.
    """
    headers = ["Stage", "Units", "Seconds"]
    rows = [
        [stage, str(timings.units(stage)), f"{timings.seconds(stage):.4f}"]
        for stage in timings.stages()
    ]
    rows.append(["total", str(sum(timings.units(s) for s in timings.stages())), f"{timings.total():.4f}"])
    table = format_table(headers, rows)
    counters = timings.counters()
    if counters:
        # Delta resolves annotate their timing sink with work counters
        # (rows_reencoded, pairs_rescored) — the incremental-cost picture.
        table += "\n" + "\n".join(
            f"{name} = {value}" for name, value in sorted(counters.items())
        )
    return table


def format_f1_trace(traces: Mapping[str, Sequence[Tuple[int, float]]]) -> str:
    """Figure 5 layout: test F1 as a function of actively labeled samples."""
    headers = ["Domain", "Labels -> F1"]
    rows = [
        [domain, ", ".join(f"{labels}:{_fmt(f1)}" for labels, f1 in trace)]
        for domain, trace in traces.items()
    ]
    return format_table(headers, rows)

"""Per-layer metrics: layer probes, and the mapping from spans to metric names.

Every ``*_s`` layer metric is a *self* time (the span's duration minus its
child spans), so on one phase the layers and ``engine.plan.unattributed_s``
add up to the wall.  Times under the body phases are per pass; set-up work
(model fitting on the non-cold workloads, cache population) is counted once.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional

import numpy as np

from bench.spec import BATCH_SIZE, K
from bench.tracer import Total, Totals
from bench.workloads.common import Context

BODY = ("phase_a", "phase_b", "daemon")


# ----------------------------------------------------------------------
# Probes: layer numbers no span can give (run once, on a traced run)
# ----------------------------------------------------------------------
def _exact_top_k(queries: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """Brute-force squared-distance top-K by one GEMM (row indices, unordered)."""
    distances = (
        (queries ** 2).sum(axis=1)[:, None] - 2.0 * queries @ table.T + (table ** 2).sum(axis=1)[None, :]
    )
    k = min(k, table.shape[0])
    return np.argpartition(distances, k - 1, axis=1)[:, :k]


def _overlap(found: Iterable[Iterable[str]], exact_rows: np.ndarray, keys) -> float:
    useful = attempts = 0
    for neighbours, rows in zip(found, exact_rows):
        wanted = {keys[row] for row in rows}
        useful += len(wanted & set(neighbours))
        attempts += len(wanted)
    return useful / attempts if attempts else 0.0


def probe(ctx: Context, model) -> None:
    """Bucket occupancy, LSH recall against brute force, codec ratios, plan size."""
    from repro.blocking.neighbours import NearestNeighbourSearch
    from repro.engine.quant import CodecArray
    from repro.engine.store import encode_table_rows

    values = ctx.layer_values
    with ctx.tracer.span("probe"):
        started = time.perf_counter()
        plan = model.plan_resolution(k=K, batch_size=BATCH_SIZE, workers=ctx.nproc)
        values["engine.plan.plan_s"] = time.perf_counter() - started
        values["engine.plan.units"] = sum(stage.num_units for stage in plan.stages)

        store = model.store
        left, right = store.table_encodings("left"), store.table_encodings("right")
        search = NearestNeighbourSearch.from_store(store, config=model.config.blocking)
        buckets = search.index.bucket_statistics()
        values["blocking.lsh.mean_bucket_size"] = buckets["mean_bucket_size"]
        values["blocking.lsh.max_bucket_size"] = buckets["max_bucket_size"]

        sample = min(256, len(left))
        queries = np.asarray(left.flat_mu()[0:sample], dtype=np.float64)
        found = [result.keys() for result in search.top_k(queries, left.keys[:sample], k=K)]
        stored = np.asarray(right.flat_mu()[0:len(right)], dtype=np.float64)
        values["blocking.lsh.recall_vs_exact"] = _overlap(found, _exact_top_k(queries, stored, K), right.keys)

        arrays = [a for side in (left, right) for a in (side.irs, side.mu, side.sigma)]
        codes = [a for a in arrays if isinstance(a, CodecArray)]
        if codes:
            logical = sum(int(np.prod(a.shape)) * 8 for a in codes)
            values["engine.quant.compression_ratio"] = logical / sum(a.nbytes for a in codes)
            _, raw_left, _ = encode_table_rows(model.representation, model.task.left)
            _, raw_right, _ = encode_table_rows(model.representation, model.task.right)
            exact = _exact_top_k(
                raw_left[:sample].reshape(sample, -1), raw_right.reshape(len(right), -1), K
            )
            values["engine.quant.recall_vs_raw"] = _overlap(found, exact, right.keys)


# ----------------------------------------------------------------------
# Spans -> metric names
# ----------------------------------------------------------------------
class _Reader:
    def __init__(self, totals: Totals, passes: int) -> None:
        self.totals = totals
        self.passes = max(1, passes)

    def total(self, name: str, phases: Iterable[str]) -> Total:
        merged = Total()
        for phase in phases:
            found = self.totals.get((name, phase))
            if found is not None:
                merged.add(found)
        return merged

    def body(self, name: str, field: str = "self_s", phases: Iterable[str] = BODY) -> float:
        """Per-pass figure over the body phases."""
        return getattr(self.total(name, phases), field) / self.passes

    def run(self, name: str, field: str = "self_s", phases: Iterable[str] = BODY) -> float:
        """Set-up work counted once plus the per-pass body figure."""
        return getattr(self.total(name, ("setup",)), field) + self.body(name, field, phases)

    def rate(self, name: str, phases: Iterable[str] = BODY + ("setup",)) -> float:
        """Work items per second of self time."""
        total = self.total(name, phases)
        return total.count / total.self_s if total.self_s > 0 else 0.0


def layer_metrics(
    totals: Totals,
    passes: int,
    values: Dict[str, float],
    point_p50_s: Optional[float],
) -> Dict[str, float]:
    """Every per-layer metric this run can state; the caller fills the rest with 0."""
    r = _Reader(totals, passes)
    iterations = values.get("core.active.iterations", 0.0)
    loop_s = r.body("core.active.loop", "duration_s")
    unattributed = r.body("phase_a", "self_s", ("phase_a",))
    phase_a_s = r.body("phase_a", "duration_s", ("phase_a",))
    served = r.total("serve.resolve", ("daemon",))
    refreshed = r.total("serve.refresh", ("daemon",))
    out = {
        "data.generate_s": r.run("data.generate", "duration_s"),
        "data.append_rows_per_s": r.rate("data.append"),
        "text.ir_fit_s": r.run("text.ir_fit"),
        "text.ir_transform_s": r.body("text.ir_transform"),
        "text.ir_values_per_s": r.rate("text.ir_transform", BODY),
        "core.representation.fit_s": r.run("core.representation.fit"),
        "core.vae.encode_s": r.body("core.vae.encode"),
        "core.vae.rows_per_s": r.rate("core.vae.encode", BODY),
        "core.matcher.fit_s": r.run("core.matcher.fit", phases=("phase_a",)),
        "core.matcher.score_s": r.body("core.matcher.score"),
        "core.matcher.pairs_per_s": r.rate("core.matcher.score", BODY),
        "core.active.loop_s": loop_s,
        "core.active.iteration_s": loop_s / iterations if iterations else 0.0,
        "blocking.lsh.build_s": r.body("blocking.lsh.build"),
        "blocking.lsh.query_s": r.body("blocking.lsh.query"),
        "blocking.lsh.queries_per_s": r.rate("blocking.lsh.query", BODY),
        "blocking.lsh.extend_s": r.body("blocking.lsh.extend"),
        "blocking.lsh.patch_s": r.body("blocking.lsh.patch"),
        "blocking.lsh.remove_s": r.body("blocking.lsh.remove"),
        "blocking.assemble_s": r.body("blocking.assemble"),
        "engine.store.encode_s": r.body("engine.store.encode"),
        "engine.store.gather_s": r.body("engine.store.gather"),
        "engine.persist.save_s": r.run("engine.persist.save"),
        "engine.persist.load_s": r.body("engine.persist.load"),
        "engine.persist.patch_s": r.body("engine.persist.patch"),
        "engine.quant.fit_encode_s": r.run("engine.quant.fit_encode"),
        "engine.quant.decode_s": r.body("engine.quant.decode"),
        "engine.quant.adc_s": r.body("engine.quant.adc"),
        "engine.plan.unattributed_s": unattributed,
        "engine.plan.unattributed_share": unattributed / phase_a_s if phase_a_s > 0 else 0.0,
        "serve.refresh_s": refreshed.duration_s / refreshed.calls if refreshed.calls else 0.0,
    }
    if point_p50_s is not None and served.calls:
        out["serve.http_overhead_ms"] = (point_p50_s - served.duration_s / served.calls) * 1e3
    out.update(values)
    return out

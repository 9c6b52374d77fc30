"""warm_delta: the bulk tables again, quantised, cached on disk, then mutated.

The same table recipe as ``bulk_resolve`` with ``codec="pq"`` and a cache
directory that a cold run fills during set-up.  Phase A is a fresh
``VAER``/store over that directory draining an incremental ``resolve_stream``
(zero encodes: ``engine.persist`` load, ``engine.quant`` ADC and decode,
blocking, scoring, baseline capture).  Phase B is three mutation rounds on the
right table (delete, edit, append), each followed by ``resolve_delta``.  It
uses the layers ``bulk_resolve`` reads on their write side — index
``extend``/``patch``/``remove``, cache ``patch`` — so a read-side gain paid for
by writes shows.
"""

from __future__ import annotations

import copy
import shutil
from statistics import fmean

from bench.spec import RESOLVE
from bench.workloads.common import (
    Context, Pass, Workload, adopt, directory_bytes, drain, fit, generate, grow, quality,
    truth_pairs,
)


class WarmDelta(Workload):
    name = "warm_delta"

    def setup(self, ctx: Context) -> None:
        self.domain = generate(ctx, ctx.sizes.bulk_domain, ctx.sizes.bulk_base_scale)
        self.fitted = fit(ctx, self.domain)
        grow(ctx, self.domain, ctx.sizes.warm_rows)
        self.truth = truth_pairs(self.domain.task)
        self.base_cache = ctx.out_dir / "cache-cold"
        cold = adopt(ctx, self.fitted, self.domain.task, self.base_cache, ctx.sizes.warm_codec)
        self.cold = drain(cold.resolve_stream(**RESOLVE))
        self.cache_bytes = directory_bytes(self.base_cache)
        self.rows = len(self.domain.task.left) + len(self.domain.task.right)
        self.last = None  # (model, domain, cache dir, final delta stream) of the latest pass
        self.passes = 0

    def _rounds(self, ctx: Context, domain):
        """The three mutation rounds as ``(kind, helper, rows)``."""
        from repro.data.generators import append_rows, delete_rows, mutate_rows

        rows = len(domain.task.right)
        return [
            ("delete", delete_rows, max(1, round(rows * ctx.sizes.delete_share))),
            ("edit", mutate_rows, max(1, round(rows * ctx.sizes.edit_share))),
            ("append", append_rows, max(1, round(rows * ctx.sizes.append_share))),
        ]

    def run_pass(self, ctx: Context) -> Pass:
        from repro.eval.timing import StageTimings, engine_counters

        # Every pass starts from the cold run's cache and tables (untimed copy).
        self._drop_last()
        domain = copy.deepcopy(self.domain)
        cache = ctx.out_dir / f"cache-pass-{self.passes}"
        self.passes += 1
        shutil.copytree(self.base_cache, cache)
        patched_before = engine_counters().chunks_patched

        with ctx.timed("phase_a") as warm_time:
            model = adopt(ctx, self.fitted, domain.task, cache, ctx.sizes.warm_codec)
            warm = drain(model.resolve_stream(incremental=True, **RESOLVE))
        ctx.op(warm.same_bytes(self.cold), "warm-from-disk stream is not byte-identical to the cold stream")
        found = quality(self.truth, warm.keys, warm.matches)
        ctx.op(
            ctx.floor("recall_at_k", found.recall_at_k) and ctx.floor("match_recall", found.match_recall),
            f"warm resolve below its quality floor "
            f"(recall@k {found.recall_at_k:.3f}, match recall {found.match_recall:.3f})",
        )

        rounds, unattributed, reencoded, rescored = [], [], 0, 0
        delta = warm
        for kind, helper, count in self._rounds(ctx, domain):
            helper(domain, "right", count, seed=ctx.sub_seed(kind))
            stages = StageTimings()
            with ctx.timed("phase_b") as delta_time:
                delta = drain(model.resolve_delta(stage_timings=stages, **RESOLVE))
            rounds.append(delta_time.seconds)
            unattributed.append(delta_time.seconds - stages.total())
            reencoded += stages.counter("rows_reencoded")
            rescored += stages.counter("pairs_rescored")
            ctx.op(len(delta.keys) > 0, f"delta resolve after {kind} returned no pairs")
        self.last = (model, domain, cache, delta)
        self.model = model

        store = model.store
        ctx.layer_values["core.matcher.match_f1"] = found.f1
        ctx.layer_values["engine.plan.delta_unattributed_s"] = fmean(unattributed)
        ctx.layer_values["engine.plan.rows_reencoded"] = reencoded
        ctx.layer_values["engine.plan.pairs_rescored"] = rescored
        ctx.layer_values["engine.persist.chunks_patched"] = engine_counters().chunks_patched - patched_before
        ctx.layer_values["engine.persist.disk_mb"] = self.cache_bytes / 1e6
        ctx.layer_values["engine.persist.bytes_per_row"] = self.cache_bytes / self.rows
        ctx.layer_values["engine.store.resident_mb"] = store.resident_bytes() / 1e6
        ctx.layer_values["blocking.lsh.tombstoned"] = model.baseline.index.tombstoned
        return Pass(phase_a_s=warm_time.seconds, phase_b_s=fmean(rounds), quality=found)

    def _drop_last(self) -> None:
        if self.last is not None:
            shutil.rmtree(self.last[2], ignore_errors=True)
            self.last = None

    def finish(self, ctx: Context) -> None:
        """The final delta stream must equal a full resolve of the mutated tables."""
        from repro.engine import release_engine_resources

        if self.last is not None:
            _, domain, cache, delta = self.last
            with ctx.tracer.span("check"):
                full = drain(adopt(ctx, self.fitted, domain.task, cache, ctx.sizes.warm_codec)
                             .resolve_stream(**RESOLVE))
            ctx.op(delta.same_answer(full), "final delta stream differs from a full resolve of the mutated tables")
        release_engine_resources()
        self._drop_last()
        shutil.rmtree(self.base_cache, ignore_errors=True)

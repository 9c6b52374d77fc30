"""bulk_resolve: encode + block + score over grown tables, serial then pooled.

``software`` is fitted during set-up, both tables are grown with
``append_rows``; codec ``raw``, no cache directory.  Phase A drains a fresh
store's ``resolve_stream(workers=1)``, phase B the same with
``workers=nproc``.  Blocking query, IR transform and matcher scoring share
the wall and training is zero, so this is where a blocking kernel, a fused
top-k or a pool change must show.
"""

from __future__ import annotations

import time

from bench.spec import RESOLVE
from bench.workloads.common import (
    Context, Pass, Workload, drain, fit, generate, grow, quality, truth_pairs,
)


class BulkResolve(Workload):
    name = "bulk_resolve"

    def setup(self, ctx: Context) -> None:
        self.domain = generate(ctx, ctx.sizes.bulk_domain, ctx.sizes.bulk_base_scale)
        self.model = fit(ctx, self.domain)
        grow(ctx, self.domain, ctx.sizes.bulk_rows)
        self.truth = truth_pairs(self.domain.task)
        # Warm-up: BLAS threads, the persistent worker pool and lazy imports
        # are paid here, as a long-lived process pays them once.
        self._serial()
        started = time.perf_counter()
        self._pooled(ctx)
        self.first_pooled_s = time.perf_counter() - started

    def _serial(self):
        self.model.use_cache_dir(None)  # drops the store: every pass encodes cold
        return drain(self.model.resolve_stream(workers=1, **RESOLVE))

    def _pooled(self, ctx: Context):
        from repro.eval.timing import StageTimings

        self.model.use_cache_dir(None)
        stages = StageTimings()
        resolved = drain(self.model.resolve_stream(workers=ctx.nproc, stage_timings=stages, **RESOLVE))
        return resolved, stages

    def run_pass(self, ctx: Context) -> Pass:
        with ctx.timed("phase_a") as serial_time:
            serial = self._serial()
        found = quality(self.truth, serial.keys, serial.matches)
        ctx.op(
            ctx.floor("recall_at_k", found.recall_at_k) and ctx.floor("match_recall", found.match_recall),
            f"serial resolve below its quality floor "
            f"(recall@k {found.recall_at_k:.3f}, match recall {found.match_recall:.3f})",
        )
        with ctx.timed("phase_b") as pooled_time:
            pooled, stages = self._pooled(ctx)
        ctx.op(pooled.same_bytes(serial), "pooled stream is not byte-identical to the serial stream")

        ctx.layer_values["core.matcher.match_f1"] = found.f1
        ctx.layer_values["engine.shard.dispatch_s"] = stages.seconds("dispatch")
        ctx.layer_values["engine.shard.ipc_s"] = stages.seconds("block-ipc")
        ctx.layer_values["engine.shard.merge_s"] = stages.seconds("merge")
        ctx.layer_values["engine.shard.pool_start_s"] = self.first_pooled_s - pooled_time.seconds
        ctx.layer_values["engine.shard.speedup"] = serial_time.seconds / pooled_time.seconds
        ctx.layer_values["engine.store.resident_mb"] = self.model.store.resident_bytes() / 1e6
        return Pass(phase_a_s=serial_time.seconds, phase_b_s=pooled_time.seconds, quality=found)

    def finish(self, ctx: Context) -> None:
        from repro.engine import release_engine_resources

        release_engine_resources()

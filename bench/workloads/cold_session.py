"""cold_session: the paper's own cost story on two registry-size domains.

Per domain ``fit_representation -> fit_matcher -> evaluate -> resolve``
(phase A), then active learning with a ground-truth oracle from the same
representation (phase B).  ``text`` IR fitting, ``autograd``/``nn`` training,
``core.matcher`` and ``core.active`` do nearly all the work and
``blocking``/``engine`` almost none, so a blocking or cache optimisation must
not move it.
"""

from __future__ import annotations

from statistics import fmean

import numpy as np

from bench.spec import K, model_config
from bench.workloads.common import Context, Pass, Quality, Workload, generate, quality, truth_pairs


class ColdSession(Workload):
    name = "cold_session"

    def setup(self, ctx: Context) -> None:
        self.domains = [generate(ctx, name, ctx.sizes.cold_scale) for name in ctx.sizes.cold_domains]
        for domain in self.domains:
            domain.splits = self._resplit(ctx, domain)

    @staticmethod
    def _resplit(ctx: Context, domain):
        """Deal the labelled pairs into train/validation/test afresh, by seed.

        Same sizes, stratified by label: which labels a user happens to hold
        is this workload's seeded input.
        """
        from repro.data.pairs import DatasetSplits

        old = domain.splits
        rng = np.random.default_rng(ctx.sub_seed(f"split-{domain.name}"))
        pool = old.train.merge(old.validation).merge(old.test)
        train, rest = pool.split(len(old.train) / len(pool), rng)
        validation, test = rest.split(len(old.validation) / len(rest), rng)
        return DatasetSplits(train=train, validation=validation, test=test)

    def run_pass(self, ctx: Context) -> Pass:
        from repro.core.active.oracle import GroundTruthOracle
        from repro.core.pipeline import VAER

        phase_a = phase_b = 0.0
        qualities = []
        al_f1 = []
        labels = iterations = 0
        within_budget = []
        for domain in self.domains:
            task, splits = domain.task, domain.splits
            with ctx.timed("phase_a") as watch:
                model = VAER(model_config(ctx.sizes))
                model.fit_representation(task)
                model.fit_matcher(splits.train, splits.validation)
                test = model.evaluate(splits.test)
                resolved = model.resolve(k=K)
            phase_a += watch.seconds
            self.model = model
            found = quality(
                truth_pairs(task),
                [pair.key() for pair in resolved.pairs],
                {pair.key() for pair in resolved.matches()},
            )
            qualities.append(found)
            ctx.layer_values[f"core.matcher.f1.{domain.name}"] = test.f1
            ctx.op(
                len(resolved) > 0
                and ctx.floor("recall_at_k", found.recall_at_k)
                and ctx.floor("match_recall", found.match_recall),
                f"{domain.name}: supervised pipeline below its quality floor "
                f"(recall@k {found.recall_at_k:.3f}, match recall {found.match_recall:.3f})",
            )

            oracle = GroundTruthOracle(task)
            with ctx.timed("phase_b") as watch:
                learned = model.active_learning(
                    oracle, label_budget=ctx.sizes.al_label_budget, test_pairs=splits.test
                )
            phase_b += watch.seconds
            al_f1.append(learned.history[-1].test_metrics.f1)
            labels += learned.labels_used
            iterations += len(learned.history) - 1
            within_budget.append(learned.labels_used <= ctx.sizes.al_label_budget)
        # One domain's test split holds a handful of positives, so the F1 floor
        # is on the mean of the domains; below it, every AL run of the pass fails.
        learned_enough = ctx.floor("al_f1", fmean(al_f1))
        for domain, ok in zip(self.domains, within_budget):
            ctx.op(ok and learned_enough,
                   f"{domain.name}: active learning over budget or mean test F1 {fmean(al_f1):.3f} below its floor")
        ctx.layer_values["core.matcher.match_f1"] = fmean(q.f1 for q in qualities)
        ctx.layer_values["core.active.f1"] = fmean(al_f1)
        ctx.layer_values["core.active.labels_used"] = labels
        ctx.layer_values["core.active.iterations"] = iterations
        return Pass(
            phase_a_s=phase_a,
            phase_b_s=phase_b,
            quality=Quality(
                recall_at_k=fmean(q.recall_at_k for q in qualities),
                match_recall=fmean(q.match_recall for q in qualities),
                f1=fmean(q.f1 for q in qualities),
            ),
        )

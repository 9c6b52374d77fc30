"""Scenario regressions: every resolution path agrees on real generated domains.

Each scenario pulls a domain from the generator registry (clean and noisy —
exercising the corruption model end to end), trains one representation and
one matcher, and resolves the task three ways:

* monolithic :meth:`VAER.resolve` (everything scored at once);
* streamed :meth:`VAER.resolve_stream` (bounded-memory batches);
* sharded ``resolve(workers=N).run()`` (parallel worker-pool scoring).

The three paths must produce the same candidate enumeration, the same match
set and the same threshold; streamed and sharded must be *byte-identical*.
Worker count is taken from ``REPRO_ENGINE_WORKERS`` (default 2) so CI can
re-run the suite at different pool sizes.
"""

import os

import numpy as np
import pytest

from repro.config import MatcherConfig, VAERConfig, VAEConfig
from repro.core import VAER
from repro.data.generators import CLEAN_DOMAINS, NOISY_DOMAINS, domain_spec, load_domain
from repro.engine import merge_scored_batches
from repro.eval.timing import StageTimings

WORKERS = int(os.environ.get("REPRO_ENGINE_WORKERS", "2"))

#: One clean and one noisy registry domain: the corruption model is a no-typo
#: configuration for the former and the full typo/abbreviation/drop mix for
#: the latter, so both generator paths flow through resolution.
SCENARIOS = ["restaurants", "beer"]


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario(request):
    domain = load_domain(request.param, scale=0.3)
    config = VAERConfig(
        vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=3, seed=11),
        matcher=MatcherConfig(epochs=10, mlp_hidden=(24, 12), seed=13),
    )
    model = VAER(config).fit_representation(domain.task)
    model.fit_matcher(domain.splits.train, domain.splits.validation)
    return domain, model


class TestScenarioEquivalence:
    def test_registry_covers_clean_and_noisy(self):
        kinds = {name: domain_spec(name).clean for name in SCENARIOS}
        assert True in kinds.values() and False in kinds.values()
        assert set(CLEAN_DOMAINS) & set(kinds) and set(NOISY_DOMAINS) & set(kinds)

    def test_three_paths_identical(self, scenario):
        domain, model = scenario
        monolithic = model.resolve(k=5)

        streamed_batches = list(model.resolve_stream(k=5, batch_size=17))
        streamed = merge_scored_batches(streamed_batches)

        timings = StageTimings()
        sharded_batches = list(
            model.resolve_stream(k=5, batch_size=17, workers=WORKERS, stage_timings=timings)
        )
        sharded = merge_scored_batches(sharded_batches)

        # Identical candidate enumeration, in order.
        keys = [p.key() for p in monolithic.pairs]
        assert [p.key() for p in streamed.pairs] == keys
        assert [p.key() for p in sharded.pairs] == keys

        # Streamed and sharded score the same batches: byte-identical.
        np.testing.assert_array_equal(sharded.probabilities, streamed.probabilities)
        # Monolithic scores in one batch; agreement to tight tolerance.
        np.testing.assert_allclose(streamed.probabilities, monolithic.probabilities, atol=1e-8)

        # Identical thresholds and identical match sets on every path.
        assert monolithic.threshold == streamed.threshold == sharded.threshold == model.threshold
        monolithic_matches = {p.key() for p in monolithic.matches()}
        assert {p.key() for p in streamed.matches()} == monolithic_matches
        assert {p.key() for p in sharded.matches()} == monolithic_matches

        # The pool actually timed every batch it scored.
        assert timings.units("score") == len(sharded_batches)
        assert timings.counter("pairs_rescored") == len(sharded)

    def test_sharded_batches_arrive_in_order(self, scenario):
        _, model = scenario
        indices = [b.batch_index for b in model.resolve_stream(k=5, batch_size=17, workers=WORKERS)]
        assert indices == list(range(len(indices)))

    def test_incremental_scenario_appended_table(self):
        """The growing-table scenario end to end through ``VAER``.

        Resolve once incrementally (captures the baseline), append rows to
        the right table (``REPRO_ENGINE_APPEND_ROWS`` sizes the delta — CI's
        third engine run raises it), resolve incrementally again, and demand
        (a) only the appended rows were re-encoded and (b) the same match
        set as a cold full resolve of the grown task.
        """
        from repro.data.generators import append_rows
        from repro.engine import EncodingStore, resolve
        from repro.eval.timing import EngineCounters

        append = int(os.environ.get("REPRO_ENGINE_APPEND_ROWS", "10"))
        domain = load_domain("citations2", scale=0.25)
        config = VAERConfig(
            vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=2, seed=7),
            matcher=MatcherConfig(epochs=8, mlp_hidden=(16, 8), seed=9),
        )
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        model = VAER(config, cache_dir=cache_dir).fit_representation(domain.task)
        model.fit_matcher(domain.splits.train, domain.splits.validation)

        base = merge_scored_batches(model.resolve_stream(k=5, batch_size=17, incremental=True))
        append_rows(domain, side="right", rows=append)

        timings = StageTimings()
        counters = model.store.counters
        rows_before, tables_before = counters.rows_reencoded, counters.tables_encoded
        delta = merge_scored_batches(
            model.resolve_stream(k=5, batch_size=17, incremental=True, stage_timings=timings)
        )
        assert counters.tables_encoded == tables_before, "delta must not re-encode tables"
        assert counters.rows_reencoded - rows_before == append
        assert timings.counter("rows_reencoded") == append
        assert 0 < timings.counter("pairs_rescored") <= len(delta)
        assert len(delta) >= len(base)

        cold_store = EncodingStore(
            model.representation, domain.task, counters=EngineCounters()
        )
        cold = merge_scored_batches(
            resolve(cold_store, model.matcher, blocking=config.blocking,
                           k=5, batch_size=17, threshold=model.threshold).run()
        )
        assert [p.key() for p in delta.pairs] == [p.key() for p in cold.pairs]
        np.testing.assert_allclose(delta.probabilities, cold.probabilities, atol=1e-9)
        assert {p.key() for p in delta.matches()} == {p.key() for p in cold.matches()}

    def test_incremental_scenario_mutated_table(self):
        """The mixed mutation scenario end to end through ``VAER``.

        Resolve once incrementally (captures the baseline), edit
        ``REPRO_ENGINE_EDIT_ROWS`` rows in place, delete
        ``REPRO_ENGINE_DELETE_ROWS`` rows, append a few, resolve
        incrementally again — CI's fourth engine run raises the knobs — and
        demand (a) re-encode work equals exactly edits + appends, (b) no
        deleted row in the candidate stream, and (c) the same match set as a
        cold full resolve of the mutated task.
        """
        from repro.data.generators import append_rows, delete_rows, mutate_rows
        from repro.engine import EncodingStore, resolve
        from repro.eval.timing import EngineCounters

        edits = int(os.environ.get("REPRO_ENGINE_EDIT_ROWS", "6"))
        deletes = int(os.environ.get("REPRO_ENGINE_DELETE_ROWS", "4"))
        appends = 8
        domain = load_domain("software", scale=0.25)
        config = VAERConfig(
            vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=2, seed=7),
            matcher=MatcherConfig(epochs=8, mlp_hidden=(16, 8), seed=9),
        )
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        model = VAER(config, cache_dir=cache_dir).fit_representation(domain.task)
        model.fit_matcher(domain.splits.train, domain.splits.validation)

        merge_scored_batches(model.resolve_stream(k=5, batch_size=17, incremental=True))
        deleted = delete_rows(domain, side="right", rows=deletes)
        mutate_rows(domain, side="right", rows=edits)
        appended = append_rows(domain, side="right", rows=appends)
        gone = {r.record_id for r in deleted} - {r.record_id for r in appended}

        timings = StageTimings()
        counters = model.store.counters
        rows_before, tables_before = counters.rows_reencoded, counters.tables_encoded
        delta = merge_scored_batches(
            model.resolve_stream(k=5, batch_size=17, incremental=True, stage_timings=timings)
        )
        assert counters.tables_encoded == tables_before, "delta must not re-encode tables"
        assert counters.rows_reencoded - rows_before == edits + appends
        assert timings.counter("rows_reencoded") == edits + appends
        assert timings.counter("rows_tombstoned") <= deletes
        assert 0 < timings.counter("pairs_rescored") <= len(delta)
        assert all(p.right_id not in gone for p in delta.pairs)

        cold_store = EncodingStore(
            model.representation, domain.task, counters=EngineCounters()
        )
        cold = merge_scored_batches(
            resolve(cold_store, model.matcher, blocking=config.blocking,
                           k=5, batch_size=17, threshold=model.threshold).run()
        )
        assert [p.key() for p in delta.pairs] == [p.key() for p in cold.pairs]
        np.testing.assert_allclose(delta.probabilities, cold.probabilities, atol=1e-9)
        assert {p.key() for p in delta.matches()} == {p.key() for p in cold.matches()}

    def test_corruption_registry_end_to_end(self):
        """A freshly generated noisy domain (new seed) resolves identically too."""
        domain = load_domain("cosmetics", scale=0.25, seed=123)
        config = VAERConfig(
            vae=VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=2, seed=3),
            matcher=MatcherConfig(epochs=6, mlp_hidden=(16, 8), seed=5),
        )
        model = VAER(config).fit_representation(domain.task)
        model.fit_matcher(domain.splits.train, domain.splits.validation)
        streamed = merge_scored_batches(model.resolve_stream(k=4, batch_size=23))
        sharded = merge_scored_batches(model.resolve_stream(k=4, batch_size=23, workers=WORKERS))
        assert [p.key() for p in sharded.pairs] == [p.key() for p in streamed.pairs]
        np.testing.assert_array_equal(sharded.probabilities, streamed.probabilities)
        assert {p.key() for p in sharded.matches()} == {p.key() for p in streamed.matches()}

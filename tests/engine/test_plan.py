"""ResolutionPlanner/Executor: stage graph, blocking equivalence, warm runs.

Three invariants pin the plan/execute refactor:

* the plan is pure metadata — stage graph and query chunks derive from table
  sizes and knobs alone, no encoding;
* a pooled resolve (chunked queries in the parent, score tasks on the pool)
  produces the *identical* candidate-pair list as a serial search, on every
  registry domain;
* pooled resolution is byte-identical to the serial ``resolve`` stream for
  any (k, batch_size, workers) combination, and a warm run against a chunked
  persistent cache encodes zero tables.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.blocking import NearestNeighbourSearch
from repro.config import BlockingConfig, MatcherConfig, VAERConfig, VAEConfig
from repro.core import VAER
from repro.core.representation import EntityRepresentationModel
from repro.data.generators import DOMAIN_NAMES, load_domain
from repro.data.schema import ERTask, Table
from repro.engine import (
    EncodingStore,
    PersistentEncodingCache,
    ResolutionExecutor,
    ResolutionPlanner,
    merge_scored_batches,
    resolve,
    shard_bounds_for,
)
from repro.engine.stream import query_chunk_for
from repro.eval.timing import EngineCounters, StageTimings

WORKERS = 2


@pytest.fixture(scope="module")
def planned_pipeline(tiny_domain):
    config = VAERConfig(
        vae=VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=3, seed=3),
        matcher=MatcherConfig(epochs=10, mlp_hidden=(24, 12), seed=5),
    )
    model = VAER(config).fit_representation(tiny_domain.task)
    model.fit_matcher(tiny_domain.splits.train, tiny_domain.splits.validation)
    return model


class TestPlannerGraph:
    def test_plan_is_pure_metadata(self, tiny_domain, tiny_representation):
        """Planning must not encode a single record."""
        counters = EngineCounters()
        store = EncodingStore(tiny_representation, tiny_domain.task, counters=counters)
        ResolutionPlanner.from_store(store, k=5, batch_size=32, workers=4).plan()
        assert counters.tables_encoded == 0
        assert counters.cache_misses == 0

    def test_stage_graph_shape(self, tiny_domain):
        plan = ResolutionPlanner(tiny_domain.task, k=5, batch_size=32, workers=4).plan()
        assert [stage.name for stage in plan.stages] == ["encode", "block", "score"]
        assert plan.stage("encode").depends_on == ()
        assert plan.stage("block").depends_on == ("encode",)
        assert plan.stage("score").depends_on == ("block",)
        with pytest.raises(KeyError):
            plan.stage("transmogrify")

    def test_cold_plan_units(self, tiny_domain):
        """The stage graph every run executes, unit for unit."""
        left, right = len(tiny_domain.task.left), len(tiny_domain.task.right)
        plan = ResolutionPlanner(tiny_domain.task, k=5, batch_size=32).plan()
        chunk = plan.query_chunk
        assert chunk == 32 // 5
        assert [(u.name, u.rows, u.detail) for u in plan.stage("encode").units] == [
            ("left", left, "IR transform + VAE forward"),
            ("right", right, "IR transform + VAE forward"),
        ]
        assert [(u.name, u.rows, u.detail) for u in plan.stage("block").units] == [
            ("build right", right, f"hash rows 0..{right}"),
        ] + [
            (f"query left[{i}]", min(chunk, left - s), f"top-5 rows {s}..{min(s + chunk, left)}")
            for i, s in enumerate(range(0, left, chunk))
        ]
        assert [(u.name, u.rows, u.detail) for u in plan.stage("score").units] == [
            ("batches", 0, "streaming, batches of <=32 pairs"),
        ]

    def test_bounds_cover_both_tables(self, tiny_domain):
        plan = ResolutionPlanner(tiny_domain.task, k=5, batch_size=32).plan()
        assert plan.query_bounds[0].start == 0
        assert plan.query_bounds[-1].stop == len(tiny_domain.task.left)
        for previous, current in zip(plan.query_bounds, plan.query_bounds[1:]):
            assert previous.stop == current.start
        # The block stage schedules one build unit for the whole right table
        # and one query unit per left chunk.
        assert plan.stage("block").num_units == 1 + len(plan.query_bounds)

    def test_describe_mentions_every_stage(self, tiny_domain):
        plan = ResolutionPlanner(tiny_domain.task, k=5, batch_size=32, workers=4).plan()
        text = plan.describe()
        for token in ("encode", "block", "score", "workers=4", "query_chunk=6", tiny_domain.task.name):
            assert token in text

    def test_describe_elides_units_past_the_limit(self, tiny_domain):
        """Long stages are cut at max_units with an explicit '+N more' line."""
        plan = ResolutionPlanner(tiny_domain.task, k=5, batch_size=20).plan()
        block = plan.stage("block")
        assert block.num_units > 3
        text = plan.describe(max_units=2)
        assert f"... (+{block.num_units - 2} more)" in text
        # A generous limit prints every unit and no ellipsis.
        full = plan.describe(max_units=1000)
        assert "more)" not in full
        for unit in block.units:
            assert unit.name in full

    def test_describe_lists_rows_and_details(self, tiny_domain):
        plan = ResolutionPlanner(tiny_domain.task, k=5).plan()
        text = plan.describe()
        assert f"({len(tiny_domain.task.left)} rows)" in text  # encode unit annotation
        assert "IR transform + VAE forward" in text
        assert "top-5" in text
        # Stage positions and dependency arrows appear in graph order.
        assert text.index("[1] encode") < text.index("[2] block <- encode") < text.index("[3] score <- block")

    def test_invalid_knobs_rejected(self, tiny_domain):
        for kwargs in ({"k": 0}, {"batch_size": 0}, {"workers": 0}):
            with pytest.raises(ValueError):
                ResolutionPlanner(tiny_domain.task, **kwargs)

    def test_from_store_plans_query_chunks(self, tiny_domain, tiny_representation):
        """The query units are the chunks a serial run walks: one grain."""
        store = EncodingStore(tiny_representation, tiny_domain.task, counters=EngineCounters())
        plan = ResolutionPlanner.from_store(store, k=4, batch_size=13, workers=2).plan()
        assert plan.query_chunk == query_chunk_for(13, 4) == 3
        assert [(b.start, b.stop) for b in plan.query_bounds] == [
            (b.start, b.stop)
            for b in shard_bounds_for("left", len(tiny_domain.task.left), plan.query_chunk)
        ]

    def test_pipeline_plan_resolution(self, planned_pipeline, tiny_domain):
        plan = planned_pipeline.plan_resolution(k=5, batch_size=32, workers=3)
        assert plan.workers == 3 and plan.query_chunk == 6
        assert plan.left_rows == len(tiny_domain.task.left)


class TestOneGrain:
    """A resolve has one grain, the query chunk of ``query_chunk_for(batch_size,
    k)`` rows: the plan's query units are those chunks, and a serial run
    queries each of them once."""

    # k > batch_size (7, 10) floors the chunk at one row; 2048 / 10 covers
    # the whole tiny left table in one chunk.
    @pytest.mark.parametrize("batch_size,k", [(1, 4), (7, 10), (13, 4), (32, 5), (2048, 10)])
    def test_serial_run_queries_each_planned_chunk_once(self, planned_pipeline, batch_size, k):
        store, matcher = planned_pipeline.store, planned_pipeline.matcher
        plan = ResolutionPlanner.from_store(store, k=k, batch_size=batch_size).plan()
        chunk = query_chunk_for(batch_size, k)
        assert plan.query_chunk == chunk
        assert plan.query_bounds == tuple(shard_bounds_for("left", len(store.task.left), chunk))
        assert [u.rows for u in plan.stage("block").units[1:]] == [b.rows for b in plan.query_bounds]
        stage_timings = StageTimings()
        list(resolve(store, matcher, k=k, batch_size=batch_size, stage_timings=stage_timings).run())
        assert stage_timings.units("block") == 1 + len(plan.query_bounds)

    def test_empty_left_table_plans_no_query_units(self, tiny_domain):
        right = tiny_domain.task.right
        task = ERTask(name="empty-left", left=Table("left", right.attributes, []), right=right)
        plan = ResolutionPlanner(task, k=5, batch_size=32).plan()
        assert plan.query_bounds == ()
        assert [u.name for u in plan.stage("block").units] == ["build right"]
        assert "left=0 rows (0 query chunk(s))" in plan.describe()


@pytest.fixture(scope="module")
def restaurants_representation():
    domain = load_domain("restaurants", scale=0.2)
    return EntityRepresentationModel(
        VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=7), ir_method="lsa"
    ).fit(domain.task)


class TestEmptyTables:
    @pytest.mark.parametrize("workers", [1, WORKERS], ids=["serial", "pooled"])
    @pytest.mark.parametrize("empty", ["left", "right"])
    @pytest.mark.parametrize("codec", ["raw", "int8", "pq"])
    def test_an_empty_table_resolves_to_no_pairs(self, restaurants_representation, codec, empty, workers):
        """Every resolve entry point returns zero pairs when either table
        has no rows, on every codec, serial or pooled."""
        task = load_domain("restaurants", scale=0.2).task
        tables = {"left": task.left, "right": task.right}
        tables[empty] = Table(empty, tables[empty].attributes, [])
        model = VAER(codec=codec)
        model.representation = restaurants_representation
        model.task = ERTask(name=f"empty-{empty}", left=tables["left"], right=tables["right"])
        model.matcher = _ConstantMatcher()
        assert list(model.resolve_stream(k=4, batch_size=13, workers=workers)) == []
        assert list(model.resolve_stream(k=4, batch_size=13, workers=workers, incremental=True)) == []
        assert list(model.resolve_stream(k=4, batch_size=13, workers=workers, incremental=True)) == []
        assert len(model.resolve(k=4)) == 0
        assert model.candidate_pairs(k=4) == []


class _ConstantMatcher:
    """A matcher stand-in for tests that compare candidate keys only."""

    def predict_proba(self, left_irs, right_irs, rows=None):
        return np.full(len(left_irs) if rows is None else len(rows[0]), 0.5)


class TestShardedBlockingEquivalence:
    @pytest.mark.parametrize("name", DOMAIN_NAMES)
    def test_identical_candidate_pairs_on_every_registry_domain(self, name):
        """The executor's pooled source — one-row query chunks in the parent,
        score tasks on the pool — enumerates exactly the serial candidates."""
        domain = load_domain(name, scale=0.25)
        representation = EntityRepresentationModel(
            VAEConfig(ir_dim=12, hidden_dim=16, latent_dim=6, epochs=1, seed=7), ir_method="lsa"
        ).fit(domain.task)
        store = EncodingStore(representation, domain.task, counters=EngineCounters())
        config = BlockingConfig(seed=17)
        left, right = store.table_encodings("left"), store.table_encodings("right")
        serial = (
            NearestNeighbourSearch(config)
            .build(right.flat_mu(), right.keys)
            .candidate_pairs(left.flat_mu(), left.keys, k=5)
        )
        pooled = merge_scored_batches(
            resolve(store, _ConstantMatcher(), blocking=config, k=5, batch_size=7, workers=WORKERS).run()
        )
        assert len(pooled) > 0
        assert [p.key() for p in pooled.pairs] == [p.key() for p in serial]


class TestPlannerResolveEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        batch_size=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=8),
        workers=st.integers(min_value=2, max_value=3),
    )
    # One pair per batch: the schedule packs many batches out of each query chunk.
    @example(batch_size=1, k=4, workers=2)
    def test_planner_resolve_byte_identical_to_stream(self, planned_pipeline, batch_size, k, workers):
        store, matcher = planned_pipeline.store, planned_pipeline.matcher
        streamed = merge_scored_batches(resolve(store, matcher, k=k, batch_size=batch_size).run())
        planned = merge_scored_batches(
            resolve(store, matcher, k=k, batch_size=batch_size, workers=workers).run()
        )
        assert [p.key() for p in planned.pairs] == [p.key() for p in streamed.pairs]
        np.testing.assert_array_equal(planned.probabilities, streamed.probabilities)

    def test_executor_run_equals_stream(self, planned_pipeline):
        """Driving the executor directly (no front-end) stays byte-identical."""
        store, matcher = planned_pipeline.store, planned_pipeline.matcher
        plan = ResolutionPlanner.from_store(store, k=5, batch_size=13, workers=2).plan()
        stage_timings = StageTimings()
        executor = ResolutionExecutor(
            plan, store, matcher, threshold=planned_pipeline.threshold, stage_timings=stage_timings,
        )
        planned = merge_scored_batches(executor.run())
        streamed = merge_scored_batches(
            resolve(store, matcher, k=5, batch_size=13, threshold=planned_pipeline.threshold).run()
        )
        assert [p.key() for p in planned.pairs] == [p.key() for p in streamed.pairs]
        np.testing.assert_array_equal(planned.probabilities, streamed.probabilities)
        # Every stage of the graph reported compute time, plus the pooled
        # dispatch and the merge.
        assert set(stage_timings.stages()) == {"encode", "block", "score", "dispatch", "merge"}
        # One build, then one query per planned chunk, in the parent.
        assert stage_timings.units("block") == 1 + len(plan.query_bounds)
        # Dispatch: one submitted score task per batch.
        assert stage_timings.units("dispatch") == stage_timings.units("score")
        assert stage_timings.counter("pairs_rescored") == len(planned)

    def test_oversized_k_and_batch(self, planned_pipeline):
        store, matcher = planned_pipeline.store, planned_pipeline.matcher
        streamed = merge_scored_batches(resolve(store, matcher, k=100, batch_size=10_000).run())
        planned = merge_scored_batches(
            resolve(store, matcher, k=100, batch_size=10_000, workers=2).run()
        )
        assert [p.key() for p in planned.pairs] == [p.key() for p in streamed.pairs]
        np.testing.assert_array_equal(planned.probabilities, streamed.probabilities)

    def test_batches_emitted_in_index_order(self, planned_pipeline):
        indices = [
            batch.batch_index
            for batch in resolve(
                planned_pipeline.store, planned_pipeline.matcher, k=5, batch_size=13, workers=2
            ).run()
        ]
        assert indices == list(range(len(indices)))


class TestWarmChunkedCacheResolve:
    def test_warm_run_encodes_nothing_and_loads_every_chunk_once(self, tiny_domain, tiny_representation, tmp_path):
        cache = PersistentEncodingCache(tmp_path / "plan-cache", chunk_rows=16)
        matcher_config = MatcherConfig(epochs=8, mlp_hidden=(24, 12), seed=5)
        from repro.core.matcher import fit_matcher_with_threshold

        matcher, threshold = fit_matcher_with_threshold(
            tiny_representation, tiny_domain.task,
            tiny_domain.splits.train, tiny_domain.splits.validation,
            config=matcher_config,
        )

        cold_store = EncodingStore(
            tiny_representation, tiny_domain.task,
            counters=EngineCounters(), persistent=cache,
        )
        cold = merge_scored_batches(
            resolve(cold_store, matcher, k=5, batch_size=13, threshold=threshold, workers=2).run()
        )
        assert cold_store.counters.tables_encoded == 2

        expected_chunks = sum(
            len(list(cache.dir_for(tiny_domain.task.name, side, tiny_representation.encoding_version).glob("chunk-*.npz")))
            for side in ("left", "right")
        )
        warm_store = EncodingStore(
            tiny_representation, tiny_domain.task,
            counters=EngineCounters(), persistent=cache,
        )
        warm = merge_scored_batches(
            resolve(warm_store, matcher, k=5, batch_size=13, threshold=threshold, workers=2).run()
        )
        assert warm_store.counters.tables_encoded == 0, "warm planner run must not encode"
        assert warm_store.counters.disk_hits == 2
        assert warm_store.counters.chunk_loads == expected_chunks, (
            "warm run must load each chunk it needs exactly once"
        )
        assert [p.key() for p in warm.pairs] == [p.key() for p in cold.pairs]
        np.testing.assert_array_equal(warm.probabilities, cold.probabilities)

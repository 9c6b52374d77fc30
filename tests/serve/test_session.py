"""ServeSession: snapshots, point queries, the single-writer mutation queue,
snapshot isolation under concurrent readers, and graceful close."""

import threading

import pytest

from repro.data.schema import Record
from repro.engine import merge_scored_batches, release_engine_resources
from repro.engine import plan as plan_module
from repro.engine import shard as shard_module
from repro.engine.shard import acquire_pool, release_pool
from repro.serve import (
    MutationSpec,
    ServeError,
    ServeSession,
    ServeSessionClosed,
)

def _edited_values(record, tag="EDIT"):
    return tuple(f"{tag}-{value}" for value in record.values)


class TestSnapshotAndPointQueries:
    def test_start_builds_generation_zero(self, served):
        domain, session = served
        snapshot = session.snapshot
        assert snapshot.generation == 0
        assert snapshot.left_rows == len(domain.task.left)
        assert snapshot.right_rows == len(domain.task.right)
        assert len(snapshot.pairs) > 0
        assert snapshot.match_count == sum(
            1 for _, _, p in snapshot.pairs if p > snapshot.threshold
        )

    def test_snapshot_matches_batch_resolve(self, served):
        domain, session = served
        merged = merge_scored_batches(list(session.model.resolve_delta(k=4, batch_size=13)))
        expected = [
            (pair.left_id, pair.right_id, float(p))
            for pair, p in zip(merged.pairs, merged.probabilities)
        ]
        assert list(session.snapshot.pairs) == expected

    def test_point_query_preserves_enumeration_order(self, served):
        _, session = served
        snapshot, all_pairs = session.resolve()
        left_id = all_pairs[0][0]
        _, selected = session.resolve([left_id])
        assert selected == [entry for entry in all_pairs if entry[0] == left_id]
        assert snapshot.generation == 0

    def test_point_query_unknown_left_id_is_empty(self, served):
        _, session = served
        _, selected = session.resolve(["no-such-record"])
        assert selected == []

    def test_query_records_scores_candidates(self, served):
        domain, session = served
        probe_source = domain.task.left.records()[0]
        snapshot, answers = session.query_records(
            [Record("probe-1", probe_source.values)], k=3
        )
        assert snapshot.generation == 0
        (answer,) = answers
        assert answer["record_id"] == "probe-1"
        assert 1 <= len(answer["candidates"]) <= 3
        for candidate in answer["candidates"]:
            assert candidate["right_id"] in domain.task.right
            assert 0.0 < candidate["probability"] <= 1.0
            assert candidate["match"] == (candidate["probability"] > snapshot.threshold)

    def test_query_records_validation(self, served):
        _, session = served
        with pytest.raises(ServeError):
            session.query_records([])
        with pytest.raises(ServeError):
            session.query_records([Record("p", ("only-one-value",))])
        with pytest.raises(ServeError):
            session.query_records([Record("p", ("a", "b", "c", "d", "e"))], k=0)


class TestMutations:
    def test_edit_delete_ingest_refresh(self, served):
        domain, session = served
        right = domain.task.right
        before = session.snapshot
        target = right.records()[3]
        victim_id = right.record_ids()[5]
        report = session.mutate(MutationSpec(
            side="right",
            edit=(Record(target.record_id, _edited_values(target)),),
            delete=(victim_id,),
            ingest=(Record("fresh-1", target.values),),
        ))
        after = session.snapshot
        assert after.generation == before.generation + 1
        assert report.generation == after.generation
        assert (report.edited, report.deleted, report.ingested) == (1, 1, 1)
        assert report.rows_reencoded >= 2  # the edit and the ingest
        assert report.rows_tombstoned >= 1
        assert report.pairs == len(after.pairs)
        assert victim_id not in right
        assert "fresh-1" in right
        assert right[target.record_id].values == _edited_values(target)

    def test_mutation_matches_batch_oracle(self, served):
        domain, session = served
        right = domain.task.right
        target = right.records()[2]
        session.mutate(MutationSpec(
            side="right", edit=(Record(target.record_id, _edited_values(target)),)
        ))
        merged = merge_scored_batches(list(session.model.resolve_delta(k=4, batch_size=13)))
        expected = [
            (pair.left_id, pair.right_id, float(p))
            for pair, p in zip(merged.pairs, merged.probabilities)
        ]
        assert list(session.snapshot.pairs) == expected

    def test_bad_mutation_is_atomic(self, served):
        domain, session = served
        right = domain.task.right
        revision = right.revision
        good = right.records()[0]
        with pytest.raises(ServeError):
            session.mutate(MutationSpec(
                side="right",
                edit=(Record(good.record_id, _edited_values(good)),),
                delete=("no-such-record",),
            ))
        # Nothing was applied and no snapshot was published.
        assert right.revision == revision
        assert right[good.record_id].values == good.values
        assert session.snapshot.generation == 0

    def test_mutation_spec_parsing(self):
        with pytest.raises(ServeError):
            MutationSpec.from_payload({"side": "middle", "delete": ["x"]})
        with pytest.raises(ServeError):
            MutationSpec.from_payload({"side": "right"})  # no-op mutation
        with pytest.raises(ServeError):
            MutationSpec.from_payload({"ingest": [{"record_id": "a"}]})  # no values
        with pytest.raises(ServeError):
            MutationSpec.from_payload({"delete": "not-a-list"})
        spec = MutationSpec.from_payload({
            "side": "right",
            "ingest": [{"record_id": "a", "values": ["x", "y"]}],
            "delete": ["b"],
        })
        assert spec.ingest[0].record_id == "a"
        assert spec.delete == ("b",)


class TestSnapshotIsolation:
    def test_readers_never_see_torn_state(self, served):
        """Concurrent point queries during mutations always observe one of
        the published snapshots, never a mix."""
        domain, session = served
        right = domain.task.right
        observed = []
        failures = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                snapshot, pairs = session.resolve()
                if len(pairs) != len(snapshot.pairs):
                    failures.append("pair list inconsistent with snapshot")
                observed.append(snapshot.generation)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for iteration in range(3):
                target = right.records()[iteration]
                session.mutate(MutationSpec(
                    side="right",
                    edit=(Record(target.record_id, _edited_values(target, f"G{iteration}")),),
                ))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        assert session.snapshot.generation == 3
        # Readers saw only published generations, in non-decreasing order
        # per thread is not checkable after the merge, but the set must be
        # a subset of what the writer actually published.
        assert set(observed) <= {0, 1, 2, 3}


class TestLifecycle:
    def test_close_rejects_new_mutations(self, build_model):
        domain, model = build_model()
        session = ServeSession(model, k=4, batch_size=13).start()
        session.close()
        assert session.closed
        with pytest.raises(ServeSessionClosed):
            session.mutate(MutationSpec(side="right", delete=(domain.task.right.record_ids()[0],)))
        session.close()  # idempotent

    def test_reads_survive_close(self, served):
        _, session = served
        session.close()
        snapshot, pairs = session.resolve()
        assert snapshot.generation == 0 and pairs

    def test_constructor_validation(self, build_model):
        _, model = build_model()
        with pytest.raises(ValueError):
            ServeSession(model, batch_size=0)
        for removed in ("workers", "pool"):  # the daemon always refreshes serially
            with pytest.raises(TypeError):
                ServeSession(model, **{removed: 1})
        with pytest.raises(ValueError):
            ServeSession(model, k=-1)

    def test_refreshes_acquire_no_pool(self, build_model, monkeypatch):
        """The cold refresh and a mutation's delta refresh both run serially
        in the writer: neither asks the engine for a worker pool."""
        domain, model = build_model()
        acquired = []
        acquire = plan_module.acquire_pool
        monkeypatch.setattr(
            plan_module, "acquire_pool", lambda workers: acquired.append(workers) or acquire(workers)
        )
        session = ServeSession(model, k=4, batch_size=13).start()
        try:
            target = domain.task.right.records()[2]
            report = session.mutate(MutationSpec(
                side="right", edit=(Record(target.record_id, _edited_values(target)),)
            ))
        finally:
            session.close()
        assert report.generation == 1
        assert acquired == []

    def test_close_leaves_the_cached_pool(self, build_model):
        """A session holds no pool, so closing it does not release the
        process's cached one: the next pooled resolve reuses it."""
        _, model = build_model()
        pool = acquire_pool(2)
        release_pool(pool)
        spawns = shard_module.POOL_SPAWNS
        try:
            ServeSession(model, k=4, batch_size=13).start().close()
            assert shard_module._CACHED_POOL is pool
            assert shard_module.POOL_SPAWNS == spawns
        finally:
            release_engine_resources()

    def test_unstarted_session_raises(self, build_model):
        _, model = build_model()
        session = ServeSession(model, k=4)
        with pytest.raises(RuntimeError):
            session.snapshot
        with pytest.raises(RuntimeError):
            session.mutate(MutationSpec(side="right", delete=("r0",)))

"""MatchServer: the JSON/HTTP protocol, error handling, graceful shutdown,
the CLI entry point, and daemon-vs-batch-oracle byte identity on every
registry domain."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.data.generators import DOMAIN_NAMES
from repro.data.schema import Record
from repro.engine import merge_scored_batches
from repro.serve import MatchClient, MatchServer, ServeClientError, ServeSession, record_payload

K = 4
BATCH = 13


@pytest.fixture()
def server(build_model, request):
    domain, model = build_model()
    session = ServeSession(model, k=K, batch_size=BATCH).start()
    match_server = MatchServer(session).start()
    request.addfinalizer(match_server.shutdown)
    return domain, match_server, MatchClient(match_server.url)


class TestProtocol:
    def test_health(self, server):
        domain, _, client = server
        health = client.health()
        assert health["status"] == "ok"
        assert health["task"] == domain.task.name
        assert health["generation"] == 0
        assert health["left_rows"] == len(domain.task.left)
        assert health["right_rows"] == len(domain.task.right)
        assert health["pairs"] > 0

    def test_stats(self, server):
        _, _, client = server
        stats = client.stats()
        assert stats["generation"] == 0
        assert stats["queue_depth"] == 0
        assert stats["mutations_applied"] == 0
        assert stats["uptime_seconds"] >= 0
        assert stats["closed"] is False
        # The session start blocked every left row once.
        assert stats["blocking_queries"] > 0
        assert 0 <= stats["blocking_fallback_queries"] <= stats["blocking_queries"]
        assert stats["blocking_candidates_ranked"] >= stats["blocking_queries"]
        # Exact rescores: at least one per query, at most every candidate.
        assert (
            stats["blocking_queries"]
            <= stats["blocking_candidates_rescored"]
            <= stats["blocking_candidates_ranked"]
        )

    def test_resolve_roundtrips_floats_exactly(self, server):
        _, match_server, client = server
        response = client.resolve()
        snapshot = match_server.session.snapshot
        assert response["generation"] == snapshot.generation
        assert response["pairs"] == [list(entry) for entry in snapshot.pairs]
        # JSON floats use shortest-repr: the wire values are bit-exact.
        for (_, _, probability), (_, _, wire) in zip(snapshot.pairs, response["pairs"]):
            assert wire == probability

    def test_resolve_point_query(self, server):
        _, match_server, client = server
        all_pairs = client.resolve()["pairs"]
        left_id = all_pairs[0][0]
        selected = client.resolve([left_id])["pairs"]
        assert selected == [entry for entry in all_pairs if entry[0] == left_id]

    def test_query_endpoint(self, server):
        domain, _, client = server
        probe = domain.task.left.records()[0]
        response = client.query([record_payload("probe-1", probe.values)], k=3)
        (result,) = response["results"]
        assert result["record_id"] == "probe-1"
        assert result["candidates"]
        for candidate in result["candidates"]:
            assert set(candidate) == {"right_id", "probability", "distance", "match"}

    def test_mutate_endpoint(self, server):
        domain, _, client = server
        right = domain.task.right
        target = right.records()[1]
        report = client.mutate(
            edit=[record_payload(target.record_id, [f"X-{v}" for v in target.values])],
            delete=[right.record_ids()[4]],
        )
        assert report["generation"] == 1
        assert report["edited"] == 1 and report["deleted"] == 1
        assert client.health()["generation"] == 1
        assert client.stats()["mutations_applied"] == 1
        # Each accepted request is one mutation and one generation, whatever it holds.
        client.mutate(ingest=[record_payload("fresh-1", target.values)])
        client.mutate(delete=[right.record_ids()[0]])
        stats = client.stats()
        assert stats["mutations_applied"] == stats["generation"] == 3

    def test_index_mutations_counts_right_index_changes(self, server):
        """``index_mutations`` moves only when the right table's LSH index
        is mutated in place: a left-side edit leaves it, a right-side edit
        and a right-side delete each raise it by one, and ``/stats``,
        ``/health`` and ``/resolve`` all report the snapshot's value."""
        domain, match_server, client = server

        def index_mutations():
            value = match_server.session.snapshot.index_mutations
            assert client.stats()["index_mutations"] == value
            assert client.health()["index_mutations"] == value
            assert client.resolve([])["index_mutations"] == value
            return value

        start = index_mutations()
        left_target = domain.task.left.records()[1]
        client.mutate(
            side="left", edit=[record_payload(left_target.record_id, [f"L-{v}" for v in left_target.values])]
        )
        assert index_mutations() == start
        right_target = domain.task.right.records()[1]
        client.mutate(edit=[record_payload(right_target.record_id, [f"R-{v}" for v in right_target.values])])
        assert index_mutations() == start + 1
        client.mutate(delete=[domain.task.right.record_ids()[4]])
        assert index_mutations() == start + 2
        assert client.stats()["generation"] == 3


class TestErrors:
    def test_unknown_paths_404(self, server):
        _, _, client = server
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            with pytest.raises(ServeClientError) as err:
                client._request(method, path, {} if method == "POST" else None)
            assert err.value.status == 404

    def test_invalid_json_400(self, server):
        import urllib.request

        _, match_server, _ = server
        request = urllib.request.Request(
            f"{match_server.url}/resolve", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_bad_resolve_payload_400(self, server):
        _, _, client = server
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/resolve", {"left_ids": "not-a-list"})
        assert err.value.status == 400

    def test_bad_query_payload_400(self, server):
        _, _, client = server
        for payload in ({}, {"records": []}, {"records": [{"record_id": "x"}]},
                        {"records": [{"record_id": "x", "values": ["a"] * 5}], "k": "three"}):
            with pytest.raises(ServeClientError) as err:
                client._request("POST", "/query", payload)
            assert err.value.status == 400

    def test_unknown_mutation_record_400_and_atomic(self, server):
        domain, _, client = server
        with pytest.raises(ServeClientError) as err:
            client.mutate(delete=["no-such-record"])
        assert err.value.status == 400
        assert client.health()["generation"] == 0


class TestShutdown:
    def test_shutdown_endpoint_drains_and_stops(self, build_model):
        _, model = build_model()
        session = ServeSession(model, k=K, batch_size=BATCH).start()
        match_server = MatchServer(session).start()
        client = MatchClient(match_server.url)
        assert client.shutdown()["status"] == "shutting down"
        deadline = time.monotonic() + 30
        while not session.closed and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session.closed
        match_server.shutdown()  # idempotent

    def test_mutations_after_close_refused(self, build_model):
        domain, model = build_model()
        session = ServeSession(model, k=K, batch_size=BATCH).start()
        match_server = MatchServer(session).start()
        client = MatchClient(match_server.url)
        session.close()
        with pytest.raises(ServeClientError) as err:
            client.mutate(delete=[domain.task.right.record_ids()[0]])
        assert err.value.status == 503
        match_server.shutdown()


class TestRegistryEquivalence:
    """Acceptance criterion: daemon point-query results byte-identical to a
    batch ``VAER.resolve_delta`` over the same mutation sequence, on all 9
    registry domains."""

    @pytest.mark.parametrize("name", DOMAIN_NAMES)
    def test_daemon_matches_batch_oracle(self, name, build_model):
        domain, model = build_model(name)
        session = ServeSession(model, k=K, batch_size=BATCH).start()
        match_server = MatchServer(session).start()
        client = MatchClient(match_server.url)
        try:
            right_ids = domain.task.right.record_ids()
            edited = domain.task.right[right_ids[3]]
            new_values = tuple(f"X-{v}" for v in edited.values)
            client.mutate(
                edit=[record_payload(edited.record_id, new_values)],
                delete=[right_ids[5]],
            )
            client.mutate(ingest=[record_payload("fresh-1", edited.values)])
            daemon_pairs = client.resolve()["pairs"]
        finally:
            match_server.shutdown()

        oracle_domain, oracle = build_model(name)
        table = oracle_domain.task.right
        list(oracle.resolve_delta(k=K, batch_size=BATCH))
        table.replace(Record(right_ids[3], new_values))
        table.remove(right_ids[5])
        list(oracle.resolve_delta(k=K, batch_size=BATCH))
        table.add(Record("fresh-1", edited.values))
        merged = merge_scored_batches(list(oracle.resolve_delta(k=K, batch_size=BATCH)))
        oracle_pairs = [
            [pair.left_id, pair.right_id, float(p)]
            for pair, p in zip(merged.pairs, merged.probabilities)
        ]
        # Byte identity through the same serialisation the wire uses.
        assert json.dumps(daemon_pairs) == json.dumps(oracle_pairs)


class TestCLIEntryPoint:
    def test_python_m_repro_serve(self, tmp_path):
        """Boot the real daemon via the CLI, query it, shut it down."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--domain", "beer",
             "--scale", "0.2", "--k", "4", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        url = None
        try:
            deadline = time.monotonic() + 180
            for line in proc.stdout:
                match = re.search(r"serving on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
                assert time.monotonic() < deadline, "daemon never reported its address"
            assert url is not None
            client = MatchClient(url)
            health = client.health()
            assert health["status"] == "ok" and health["pairs"] > 0
            report = client.mutate(delete=[client.resolve()["pairs"][0][1]])
            assert report["generation"] == 1
            client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

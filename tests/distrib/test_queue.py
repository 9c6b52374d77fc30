"""The file-lease queue: lease semantics, exclusivity, torn blobs.

One contract — coordinator submits, exactly one worker claims, heartbeats
keep the lease alive, complete publishes a result.
"""

from __future__ import annotations

import pytest

from repro.distrib import FileLeaseQueue
from repro.distrib.artifacts import find_blob


@pytest.fixture()
def file_queue(tmp_path):
    return FileLeaseQueue(tmp_path / "queue", worker_id="w1")


class TestFileLeaseQueue:
    def test_submit_claim_complete_roundtrip(self, file_queue):
        assert file_queue.claim() is None
        file_queue.submit("u1", b"\x00\x01payload")
        unit = file_queue.claim()
        assert unit is not None and unit.unit_id == "u1" and unit.payload == b"\x00\x01payload"
        assert file_queue.heartbeat("u1")
        file_queue.complete("u1", b"result")
        assert file_queue.result("u1") == b"result"

    def test_claim_is_exclusive(self, tmp_path):
        q1 = FileLeaseQueue(tmp_path / "q", worker_id="w1")
        q2 = FileLeaseQueue(tmp_path / "q", worker_id="w2")
        q1.submit("u1", b"payload")
        assert q1.claim() is not None
        assert q2.claim() is None  # O_EXCL lease file: one claimant wins

    def test_broken_lease_is_reclaimable(self, tmp_path):
        q1 = FileLeaseQueue(tmp_path / "q", worker_id="w1")
        q2 = FileLeaseQueue(tmp_path / "q", worker_id="w2")
        q1.submit("u1", b"payload")
        assert q1.claim() is not None
        assert q1.lease_age("u1") is not None
        q1.break_lease("u1")
        assert q1.lease_age("u1") is None
        assert not q1.heartbeat("u1")  # revoked: the old holder learns on beat
        reclaimed = q2.claim()
        assert reclaimed is not None and reclaimed.unit_id == "u1"

    def test_resulted_units_are_not_claimable(self, file_queue):
        file_queue.submit("u1", b"payload")
        unit = file_queue.claim()
        file_queue.complete(unit.unit_id, b"result")
        assert file_queue.claim() is None

    def test_torn_unit_blob_is_skipped_and_released(self, file_queue):
        file_queue.submit("u1", b"x" * 128)
        blob = find_blob(file_queue.units_dir, "u1")
        blob.write_bytes(blob.read_bytes()[:50])  # torn write
        assert file_queue.claim() is None
        # The failed claim must not leave a dangling lease: once the
        # coordinator republishes the payload, the unit is claimable again.
        file_queue.submit("u1", b"x" * 128)
        assert file_queue.claim() is not None

    def test_torn_result_reads_as_missing(self, file_queue):
        file_queue.submit("u1", b"payload")
        unit = file_queue.claim()
        file_queue.complete(unit.unit_id, b"r" * 128)
        blob = find_blob(file_queue.results_dir, "u1")
        blob.write_bytes(blob.read_bytes()[:40])
        assert file_queue.result("u1") is None
        file_queue.discard_result("u1")
        assert find_blob(file_queue.results_dir, "u1") is None

    def test_cancel_withdraws_unit(self, file_queue):
        file_queue.submit("u1", b"payload")
        file_queue.cancel("u1")
        assert file_queue.claim() is None

    def test_claims_are_ordered_by_unit_name(self, file_queue):
        file_queue.submit("b-unit", b"second")
        file_queue.submit("a-unit", b"first")
        assert file_queue.claim().unit_id == "a-unit"

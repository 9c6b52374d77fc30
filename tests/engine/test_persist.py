"""Persistent encoding cache: chunked layout, keying, invalidation, laziness,
and the content-addressed delta path (probe → prefix load → extend)."""

import copy
import errno
import json
import os
import pickle
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import VAEConfig
from repro.core.representation import EntityRepresentationModel
from repro.data.schema import ERTask, Record, Table
from repro.engine import (
    CodecArray,
    EncodingStore,
    PersistentEncodingCache,
    TableEncodings,
    encoding_fingerprint,
    rows_crc,
    table_row_crcs,
)
from repro.engine.persist import CACHE_FORMAT_VERSION, MANIFEST_NAME
from repro.nn.serialization import load_metadata, save_state_dict
from repro.eval.timing import EngineCounters


@pytest.fixture()
def cache(tmp_path):
    return PersistentEncodingCache(tmp_path / "enc-cache")


@pytest.fixture()
def small_chunk_cache(tmp_path):
    """Chunk rows smaller than the tiny tables, so entries span many chunks."""
    return PersistentEncodingCache(tmp_path / "enc-cache-chunked", chunk_rows=16)


def _store(representation, task, cache):
    return EncodingStore(representation, task, counters=EngineCounters(), persistent=cache)


def _chunks_of(cache, task_name, side, version):
    return sorted(cache.dir_for(task_name, side, version).glob("chunk-*.npz"))


def _flip_payload_byte(chunk, member="mu.npy"):
    """Flip the last data byte of one stored archive member, in place."""
    with zipfile.ZipFile(chunk) as archive:
        info = archive.getinfo(member)
    raw = bytearray(chunk.read_bytes())
    # The local header's own name/extra lengths (they can differ from the
    # central directory's) locate the member's data.
    name_length = int.from_bytes(raw[info.header_offset + 26 : info.header_offset + 28], "little")
    extra_length = int.from_bytes(raw[info.header_offset + 28 : info.header_offset + 30], "little")
    data_start = info.header_offset + 30 + name_length + extra_length
    raw[data_start + info.file_size - 1] ^= 0x01
    chunk.write_bytes(bytes(raw))


class TestLayoutAndRoundtrip:
    def test_cold_run_encodes_and_writes(self, tiny_domain, tiny_representation, cache):
        store = _store(tiny_representation, tiny_domain.task, cache)
        store.table_encodings("left")
        store.table_encodings("right")
        assert store.counters.tables_encoded == 2
        assert store.counters.disk_misses == 2
        assert store.counters.disk_hits == 0
        version = tiny_representation.encoding_version
        expected = {
            cache.manifest_path(tiny_domain.task.name, side, version) for side in ("left", "right")
        }
        assert set(cache.entries()) == expected

    def test_documented_directory_layout(self, tiny_domain, tiny_representation, cache):
        """Layout contract: <cache_dir>/<task>/<side>-vN/{manifest.json,chunk-a-b.npz}"""
        version = tiny_representation.encoding_version
        chunk_dir = cache.dir_for(tiny_domain.task.name, "left", version)
        assert chunk_dir == cache.directory / tiny_domain.task.name / f"left-v{version}"
        assert cache.manifest_path(tiny_domain.task.name, "left", version) == chunk_dir / MANIFEST_NAME
        assert (
            cache.chunk_path(tiny_domain.task.name, "left", version, 0, 16)
            == chunk_dir / "chunk-0-16.npz"
        )

    def test_entry_spans_row_range_chunks(self, tiny_domain, tiny_representation, small_chunk_cache):
        store = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        left = store.table_encodings("left")
        version = tiny_representation.encoding_version
        chunks = _chunks_of(small_chunk_cache, tiny_domain.task.name, "left", version)
        n = len(left)
        expected = [
            small_chunk_cache.chunk_path(
                tiny_domain.task.name, "left", version, start, min(start + 16, n)
            )
            for start in range(0, n, 16)
        ]
        assert chunks == sorted(expected)
        assert len(chunks) > 1
        manifest = json.loads(
            small_chunk_cache.manifest_path(tiny_domain.task.name, "left", version).read_text()
        )
        assert [chunk[:2] for chunk in manifest["chunks"]] == [
            [start, min(start + 16, n)] for start in range(0, n, 16)
        ]
        # Every chunk is content-addressed: its CRC covers exactly its rows.
        row_crcs = table_row_crcs(tiny_domain.task.left)
        assert manifest["row_crcs"] == list(row_crcs)
        assert [chunk[2] for chunk in manifest["chunks"]] == [
            rows_crc(row_crcs[start : start + 16]) for start in range(0, n, 16)
        ]
        assert manifest["keys"] == list(left.keys)

    def test_warm_store_skips_encoding_entirely(self, tiny_domain, tiny_representation, small_chunk_cache):
        cold = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        cold_left = cold.table_encodings("left")
        cold.table_encodings("right")

        warm = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        warm_left = warm.table_encodings("left")
        warm.table_encodings("right")
        assert warm.counters.tables_encoded == 0
        assert warm.counters.disk_hits == 2
        assert warm.counters.disk_misses == 0
        # Every chunk of both sides was read exactly once, and nothing else.
        version = tiny_representation.encoding_version
        total_chunks = sum(
            len(_chunks_of(small_chunk_cache, tiny_domain.task.name, side, version))
            for side in ("left", "right")
        )
        assert warm.counters.chunk_loads == total_chunks

        assert warm_left.keys == cold_left.keys
        np.testing.assert_array_equal(warm_left.irs, cold_left.irs)
        np.testing.assert_array_equal(warm_left.mu, cold_left.mu)
        np.testing.assert_array_equal(warm_left.sigma, cold_left.sigma)
        # The reloaded row index must gather identically.
        ids = tiny_domain.task.left.record_ids()[:5]
        np.testing.assert_array_equal(warm_left.rows(ids), cold_left.rows(ids))

    def test_warm_pq_store_holds_and_pickles_codes(
        self, tiny_domain, tiny_representation, small_chunk_cache
    ):
        """A pq entry reloaded through a fresh cache handle stays codes end
        to end: the warm array is a :class:`CodecArray` whose uint8 codes
        and codebooks equal the cold ones, and neither the load nor a
        pickle round trip rehydrates floats (``bytes_decoded`` stays zero
        until a consumer actually gathers)."""
        cold = EncodingStore(
            tiny_representation, tiny_domain.task, counters=EngineCounters(),
            persistent=small_chunk_cache, codec="pq",
        )
        cold_mu = cold.table_encodings("left").mu
        counters = EngineCounters()
        warm = EncodingStore(
            tiny_representation, tiny_domain.task, counters=counters,
            persistent=PersistentEncodingCache(small_chunk_cache.directory, chunk_rows=16),
            codec="pq",
        )
        warm_mu = warm.table_encodings("left").mu
        assert counters.disk_hits == 1 and counters.tables_encoded == 0
        assert isinstance(warm_mu, CodecArray)
        assert warm_mu.codes.dtype == np.uint8
        np.testing.assert_array_equal(warm_mu.codes, cold_mu.codes)
        assert warm_mu.params == cold_mu.params  # codebooks roundtrip bit-exact
        wire = pickle.dumps(warm_mu)
        assert counters.bytes_decoded == 0
        clone = pickle.loads(wire)
        np.testing.assert_array_equal(clone.codes, warm_mu.codes)
        assert clone.params == warm_mu.params
        decoded = cold_mu.decode()
        assert len(wire) < decoded.nbytes  # codes are the smaller payload
        np.testing.assert_array_equal(clone.decode(), decoded)

    def test_clear_removes_entries(self, tiny_domain, tiny_representation, cache):
        store = _store(tiny_representation, tiny_domain.task, cache)
        store.table_encodings("left")
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_invalid_chunk_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PersistentEncodingCache(tmp_path, chunk_rows=0)


class TestLazyRangeLoads:
    def test_load_range_reads_only_overlapping_chunks(
        self, tiny_domain, tiny_representation, small_chunk_cache
    ):
        cold = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        full = cold.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)

        counters = EngineCounters()
        loaded = small_chunk_cache.load_range(
            tiny_domain.task.name, "left", version, fingerprint, 16, 32, counters=counters
        )
        assert loaded is not None
        assert counters.chunk_loads == 1  # rows 16..32 live in exactly one chunk
        assert loaded.keys == full.keys[16:32]
        np.testing.assert_array_equal(loaded.mu, full.mu[16:32])
        # Row indices are local to the range.
        assert [loaded.row_index[key] for key in loaded.keys] == list(range(16))

    def test_load_range_spanning_chunks(self, tiny_domain, tiny_representation, small_chunk_cache):
        cold = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        full = cold.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)

        counters = EngineCounters()
        loaded = small_chunk_cache.load_range(
            tiny_domain.task.name, "left", version, fingerprint, 10, 20, counters=counters
        )
        assert loaded is not None
        assert counters.chunk_loads == 2  # rows 10..20 straddle the 16-row boundary
        np.testing.assert_array_equal(loaded.irs, full.irs[10:20])

    def test_load_range_clamps_and_rejects(self, tiny_domain, tiny_representation, small_chunk_cache):
        cold = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        full = cold.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        loaded = small_chunk_cache.load_range(
            tiny_domain.task.name, "left", version, fingerprint, 32, 10_000
        )
        assert loaded is not None and loaded.keys == full.keys[32:]
        with pytest.raises(ValueError):
            small_chunk_cache.load_range(tiny_domain.task.name, "left", version, fingerprint, -1, 4)
        with pytest.raises(ValueError):
            small_chunk_cache.load_range(tiny_domain.task.name, "left", version, fingerprint, 8, 4)

    def test_sharded_store_lazy_shard_load(self, tiny_domain, tiny_representation, small_chunk_cache):
        cold = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        full = cold.table_encodings("left")
        cold.table_encodings("right")

        counters = EngineCounters()
        shard = small_chunk_cache.load_range(
            tiny_domain.task.name, "left", tiny_representation.encoding_version,
            encoding_fingerprint(tiny_representation, tiny_domain.task.left),
            16, 32, counters=counters,
        )
        assert counters.tables_encoded == 0, "lazy shard load must not encode"
        assert counters.chunk_loads == 1, "only the one overlapping chunk is read"
        assert shard.keys == full.keys[16:32]
        np.testing.assert_array_equal(shard.mu, full.mu[16:32])


class TestInvalidationRules:
    def test_version_bump_is_a_disk_miss(self, tiny_domain, small_vae_config, cache):
        model = EntityRepresentationModel(small_vae_config, ir_method="lsa").fit(tiny_domain.task)
        first = _store(model, tiny_domain.task, cache)
        first.table_encodings("left")
        model.fit(tiny_domain.task, epochs=1)  # bumps encoding_version
        second = _store(model, tiny_domain.task, cache)
        second.table_encodings("left")
        assert second.counters.disk_hits == 0
        assert second.counters.disk_misses == 1
        assert second.counters.tables_encoded == 1
        # Both versions now live side by side in the task directory.
        assert len(cache.entries()) == 2

    def test_fingerprint_mismatch_is_a_miss(self, tiny_domain, tiny_representation, cache):
        store = _store(tiny_representation, tiny_domain.task, cache)
        store.table_encodings("left")
        version = tiny_representation.encoding_version
        good = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        assert cache.load(tiny_domain.task.name, "left", version, good) is not None
        tampered = dict(good, n_records=good["n_records"] + 1)
        assert cache.load(tiny_domain.task.name, "left", version, tampered) is None

    def test_differently_seeded_model_is_a_miss(self, tiny_domain, cache):
        """Same config shape, different training seed: the weights CRC in the
        fingerprint must reject the entry even though both fresh processes
        sit at the same encoding_version."""
        config_a = VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=2, seed=1)
        config_b = VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=2, seed=2)
        model_a = EntityRepresentationModel(config_a, ir_method="lsa").fit(tiny_domain.task)
        model_b = EntityRepresentationModel(config_b, ir_method="lsa").fit(tiny_domain.task)
        assert model_a.encoding_version == model_b.encoding_version  # same key!

        first = _store(model_a, tiny_domain.task, cache)
        first.table_encodings("left")
        second = _store(model_b, tiny_domain.task, cache)
        second.table_encodings("left")
        assert second.counters.disk_hits == 0
        assert second.counters.tables_encoded == 1  # recomputed, not served stale

    def test_fingerprint_tracks_weights_and_values(self, tiny_domain, tiny_representation):
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        assert {"model", "n_records", "content_crc"} <= set(fingerprint)
        assert {"seed", "weights_crc", "ir_method"} <= set(fingerprint["model"])
        again = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        assert fingerprint == again  # deterministic
        other_table = encoding_fingerprint(tiny_representation, tiny_domain.task.right)
        assert other_table["content_crc"] != fingerprint["content_crc"]
        # The model half is table-independent (it is what chunks embed).
        assert other_table["model"] == fingerprint["model"]

    def test_wrong_side_or_task_is_a_miss(self, tiny_domain, tiny_representation, cache):
        store = _store(tiny_representation, tiny_domain.task, cache)
        store.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        assert cache.load("other-task", "left", version, fingerprint) is None
        assert cache.load(tiny_domain.task.name, "right", version, fingerprint) is None

    def test_corrupt_chunk_is_a_miss_not_an_error(self, tiny_domain, tiny_representation, small_chunk_cache):
        store = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        before = store.table_encodings("left")
        version = tiny_representation.encoding_version
        chunk = _chunks_of(small_chunk_cache, tiny_domain.task.name, "left", version)[1]
        chunk.write_bytes(b"not an npz archive")
        warm = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        after = warm.table_encodings("left")  # must recompute, not raise
        assert warm.counters.disk_hits == 0
        assert warm.counters.tables_encoded == 1
        np.testing.assert_array_equal(after.mu, before.mu)

    def test_truncated_chunk_is_a_miss_not_an_error(self, tiny_domain, tiny_representation, small_chunk_cache):
        """A killed writer leaves a valid zip header but a truncated body."""
        store = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        before = store.table_encodings("left")
        version = tiny_representation.encoding_version
        chunk = _chunks_of(small_chunk_cache, tiny_domain.task.name, "left", version)[0]
        raw = chunk.read_bytes()
        assert raw[:2] == b"PK"  # still looks like an archive
        chunk.write_bytes(raw[: len(raw) // 2])
        warm = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        after = warm.table_encodings("left")  # must recompute, not raise
        assert warm.counters.disk_hits == 0
        assert warm.counters.tables_encoded == 1
        np.testing.assert_array_equal(after.mu, before.mu)

    @pytest.mark.parametrize("codec", ["raw", "pq"])
    def test_flipped_payload_byte_is_a_miss_and_fails_verify(
        self, tiny_domain, tiny_representation, small_chunk_cache, codec
    ):
        """One damaged payload byte: the archive still opens and its metadata
        still matches, so only the member CRC stands between the reader and
        different arrays served as a hit."""
        task, table = tiny_domain.task.name, tiny_domain.task.left
        store = EncodingStore(
            tiny_representation, tiny_domain.task, counters=EngineCounters(),
            persistent=small_chunk_cache, codec=codec,
        )
        store.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = store.table_fingerprint("left")
        assert small_chunk_cache.load(task, "left", version, fingerprint) is not None
        assert [report["ok"] for report in small_chunk_cache.verify_entries()] == [True]

        damaged = _chunks_of(small_chunk_cache, task, "left", version)[1]
        _flip_payload_byte(damaged)
        assert small_chunk_cache.load(task, "left", version, fingerprint) is None
        # Rows 16..32 live in the damaged chunk; ranges elsewhere still serve.
        assert small_chunk_cache.load_range(task, "left", version, fingerprint, 16, 32) is None
        assert small_chunk_cache.load_range(task, "left", version, fingerprint, 0, 16) is not None
        delta = small_chunk_cache.delta(task, "left", version, fingerprint, table)
        assert delta is not None  # the probe reads the manifest only
        assert small_chunk_cache.load_reused(task, "left", version, delta) is None
        (report,) = small_chunk_cache.verify_entries()
        assert not report["ok"]
        assert [damaged.name in problem for problem in report["problems"]] == [True]
        # A store over the damaged entry recomputes instead of raising.
        warm = EncodingStore(
            tiny_representation, tiny_domain.task, counters=EngineCounters(),
            persistent=small_chunk_cache, codec=codec,
        )
        warm.table_encodings("left")
        assert warm.counters.disk_hits == 0 and warm.counters.tables_encoded == 1

    def test_stale_manifest_missing_chunk_is_a_miss(self, tiny_domain, tiny_representation, small_chunk_cache):
        """A manifest referencing a deleted chunk must degrade to a miss."""
        store = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        store.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        _chunks_of(small_chunk_cache, tiny_domain.task.name, "left", version)[1].unlink()
        assert small_chunk_cache.load(tiny_domain.task.name, "left", version, fingerprint) is None
        # Ranges not touching the missing chunk still serve.
        assert (
            small_chunk_cache.load_range(tiny_domain.task.name, "left", version, fingerprint, 0, 8)
            is not None
        )

    def test_foreign_chunk_under_valid_manifest_is_a_miss(
        self, tiny_domain, tiny_representation, small_chunk_cache
    ):
        """A chunk overwritten by a different-fingerprint writer must be
        rejected even though the manifest still validates — the mixed-writer
        race the per-chunk fingerprint exists to catch."""
        store = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        encodings = store.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        # Simulate the concurrent writer: rewrite one chunk in place with a
        # different fingerprint, leaving the original manifest untouched.
        manifest_path = small_chunk_cache.manifest_path(tiny_domain.task.name, "left", version)
        original_manifest = manifest_path.read_bytes()
        foreign_model = dict(fingerprint["model"], weights_crc=fingerprint["model"]["weights_crc"] + 1)
        foreign = dict(fingerprint, model=foreign_model)
        small_chunk_cache.save(
            tiny_domain.task.name, "left", version, foreign, encodings, table=tiny_domain.task.left
        )
        manifest_path.write_bytes(original_manifest)
        assert small_chunk_cache.load(tiny_domain.task.name, "left", version, fingerprint) is None

    def test_corrupt_manifest_is_a_miss(self, tiny_domain, tiny_representation, small_chunk_cache):
        store = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        store.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        manifest_path = small_chunk_cache.manifest_path(tiny_domain.task.name, "left", version)
        manifest_path.write_text("{not json")
        assert small_chunk_cache.load(tiny_domain.task.name, "left", version, fingerprint) is None

    def test_non_contiguous_manifest_is_a_miss(self, tiny_domain, tiny_representation, small_chunk_cache):
        """Chunk lists that do not tile [0, n) are stale manifests: miss."""
        store = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        store.table_encodings("left")
        version = tiny_representation.encoding_version
        fingerprint = encoding_fingerprint(tiny_representation, tiny_domain.task.left)
        manifest_path = small_chunk_cache.manifest_path(tiny_domain.task.name, "left", version)
        manifest = json.loads(manifest_path.read_text())
        manifest["chunks"] = manifest["chunks"][1:]  # drop the first range
        manifest_path.write_text(json.dumps(manifest))
        assert small_chunk_cache.load(tiny_domain.task.name, "left", version, fingerprint) is None

    def test_save_is_atomic_rename(self, tiny_domain, tiny_representation, cache):
        """No temp files survive a save; the entry appears complete."""
        store = _store(tiny_representation, tiny_domain.task, cache)
        store.table_encodings("left")
        version = tiny_representation.encoding_version
        chunk_dir = cache.dir_for(tiny_domain.task.name, "left", version)
        leftovers = [p for p in chunk_dir.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    @pytest.mark.parametrize("failing", ["chunk", "manifest"])
    def test_failed_write_leaves_no_temporary_and_the_old_entry(
        self, tmp_path, monkeypatch, failing
    ):
        """ENOSPC mid-write: the error propagates, nothing half-written stays
        behind to be counted or pruned, and the live entry is untouched."""
        from repro.engine import persist

        cache = PersistentEncodingCache(tmp_path / "full-disk", chunk_rows=8)
        table = _synthetic_table(20)
        fingerprint = _synthetic_fingerprint(table)
        encodings = _synthetic_encodings(20)
        cache.save("t", "right", 1, fingerprint, encodings, table=table)
        chunk_dir = cache.dir_for("t", "right", 1)
        before = {path.name: path.read_bytes() for path in chunk_dir.iterdir()}

        if failing == "chunk":
            real = persist.save_state_dict

            def disk_full(arrays, path, metadata=None):
                real(arrays, path, metadata=metadata)  # the bytes that did fit
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(persist, "save_state_dict", disk_full)
        else:
            real = Path.write_text

            def disk_full(self, data, *args, **kwargs):
                real(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError) as raised:
            cache.save("t", "right", 1, fingerprint, _synthetic_encodings(20, seed=1), table=table)
        assert raised.value.errno == errno.ENOSPC
        monkeypatch.undo()

        after = {path.name: path.read_bytes() for path in chunk_dir.iterdir()}
        assert [name for name in after if ".tmp" in name] == []
        if failing == "chunk":
            assert after == before
        assert after[MANIFEST_NAME] == before[MANIFEST_NAME]
        assert cache.describe_entries()[0]["bytes"] == sum(
            len(data) for name, data in after.items() if name.endswith(".npz")
        )

    def test_failed_patch_leaves_the_previous_entry_loadable(self, tmp_path, monkeypatch):
        """The same fault on the write-through of a mutation: chunks land
        before the manifest, so the old manifest still names only archives
        that are intact."""
        from repro.engine import persist

        cache = PersistentEncodingCache(tmp_path / "full-disk", chunk_rows=8)
        table = _synthetic_table(20)
        fingerprint = _synthetic_fingerprint(table)
        encodings = _synthetic_encodings(20)
        cache.save("t", "right", 1, fingerprint, encodings, table=table)
        edited = _synthetic_table(20)
        edited.replace(Record("r10", ("EDITED", "beta-10")))
        delta = cache.delta("t", "right", 1, _synthetic_fingerprint(edited), edited)

        def disk_full(arrays, path, metadata=None):
            Path(path).write_bytes(b"PK half an archive")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(persist, "save_state_dict", disk_full)
        with pytest.raises(OSError):
            cache.patch(
                "t", "right", 1, _synthetic_fingerprint(edited), edited, delta,
                _synthetic_encodings(20, seed=2),
            )
        monkeypatch.undo()
        assert [p.name for p in cache.dir_for("t", "right", 1).iterdir() if ".tmp" in p.name] == []
        loaded = cache.load("t", "right", 1, fingerprint)
        assert loaded is not None
        np.testing.assert_array_equal(np.asarray(loaded.mu), encodings.mu)
        assert [report["ok"] for report in cache.verify_entries()] == [True]

    def test_store_without_cache_never_touches_disk_counters(self, tiny_domain, tiny_representation):
        store = EncodingStore(tiny_representation, tiny_domain.task, counters=EngineCounters())
        store.table_encodings("left")
        assert store.counters.disk_hits == 0
        assert store.counters.disk_misses == 0
        assert store.counters.chunk_loads == 0
        assert store.counters.tables_encoded == 1


def _synthetic_table(n, name="synthetic"):
    """A hand-built table (no model needed) for pure persist-layer tests."""
    return Table(
        name, ("a", "b"),
        [Record(f"r{i}", (f"alpha-{i}", f"beta-{i}")) for i in range(n)],
    )


def _synthetic_encodings(n, seed=0, arity=2, dim=3):
    rng = np.random.default_rng(seed)
    keys = tuple(f"r{i}" for i in range(n))
    return TableEncodings(
        keys=keys,
        irs=rng.normal(size=(n, arity, dim)),
        mu=rng.normal(size=(n, arity, dim)),
        sigma=rng.normal(size=(n, arity, dim)),
        row_index={key: row for row, key in enumerate(keys)},
    )


def _synthetic_fingerprint(table, weights_crc=1234):
    return {
        "model": {
            "ir_method": "lsa", "ir_dim": 3, "hidden_dim": 4, "latent_dim": 3,
            "seed": 1, "weights_crc": weights_crc,
        },
        "n_records": len(table),
        "content_crc": rows_crc(table_row_crcs(table)),
    }


class TestDeltaProbeAndExtend:
    """The content-addressed chunk machinery, exercised without any model."""

    CHUNK = 8

    def _cache(self, tmp_path):
        return PersistentEncodingCache(tmp_path / "delta", chunk_rows=self.CHUNK)

    def _saved(self, tmp_path, n=20):
        cache = self._cache(tmp_path)
        table = _synthetic_table(n)
        encodings = _synthetic_encodings(n)
        fingerprint = _synthetic_fingerprint(table)
        cache.save("t", "right", 1, fingerprint, encodings, table=table)
        return cache, table, encodings, fingerprint

    def test_probe_recognises_appended_table(self, tmp_path):
        cache, table, encodings, _ = self._saved(tmp_path, n=20)
        for i in range(20, 25):
            table.add(Record(f"r{i}", (f"alpha-{i}", f"beta-{i}")))
        grown_fp = _synthetic_fingerprint(table)
        # The full load misses (the table-level fingerprint changed) ...
        assert cache.load("t", "right", 1, grown_fp) is None
        # ... but the probe reports every old chunk valid.
        delta = cache.delta("t", "right", 1, grown_fp, table)
        assert delta is not None
        assert delta.base_rows == 20 and delta.total_rows == 25 and delta.new_rows == 5
        counters = EngineCounters()
        prefix = cache.load_prefix("t", "right", 1, delta, counters=counters)
        assert prefix is not None and len(prefix) == 20
        assert counters.chunk_loads == 3  # 20 rows in 8-row chunks
        np.testing.assert_array_equal(np.asarray(prefix.mu), encodings.mu)

    def test_probe_rejects_foreign_model(self, tmp_path):
        cache, table, _, fingerprint = self._saved(tmp_path, n=20)
        foreign = dict(
            fingerprint,
            model=dict(fingerprint["model"], weights_crc=fingerprint["model"]["weights_crc"] + 1),
        )
        assert cache.delta("t", "right", 1, foreign, table) is None

    def test_probe_classifies_edits_row_precisely(self, tmp_path):
        """An in-place edit dirties exactly the edited row — any position."""
        cache, _, _, _ = self._saved(tmp_path, n=20)
        edited = _synthetic_table(20)
        edited.replace(Record("r10", ("EDITED", "beta-10")))
        delta = cache.delta("t", "right", 1, _synthetic_fingerprint(edited), edited)
        assert delta is not None
        assert delta.base_rows == 20 and delta.new_rows == 0
        assert delta.diff.dirty_new == (10,)
        assert delta.deleted_rows == ()
        # An edit in the first chunk is equally recoverable (no prefix rule).
        edited.replace(Record("r0", ("EDITED", "beta-0")))
        again = cache.delta("t", "right", 1, _synthetic_fingerprint(edited), edited)
        assert again is not None and again.diff.dirty_new == (0, 10)
        assert again.encode_positions() == (0, 10)
        positions, stored = again.reused_rows()
        assert 0 not in positions and 10 not in positions and len(positions) == 18
        assert stored == positions  # nothing deleted: stored == current

    def test_probe_classifies_deletions_and_reorders(self, tmp_path):
        cache, _, _, _ = self._saved(tmp_path, n=20)
        shrunk = _synthetic_table(20)
        shrunk.remove("r5")
        shrunk.remove("r13")
        delta = cache.delta("t", "right", 1, _synthetic_fingerprint(shrunk), shrunk)
        assert delta is not None
        assert delta.deleted_rows == (5, 13)
        assert delta.encode_positions() == () and delta.new_rows == 0
        assert delta.base_rows == 18 == delta.total_rows
        positions, stored = delta.reused_rows()
        assert len(positions) == 18
        assert 5 not in stored and 13 not in stored
        # A reorder degrades to delete + re-add: a fully reversed table keeps
        # one survivor (the first current row) and rewrites everything else.
        shuffled = Table("t", ("a", "b"), list(reversed(_synthetic_table(20).records())))
        reversed_delta = cache.delta("t", "right", 1, _synthetic_fingerprint(shuffled), shuffled)
        assert reversed_delta is not None
        assert reversed_delta.base_rows == 1
        assert len(reversed_delta.deleted_rows) == 19
        assert reversed_delta.appended_range == (1, 20)

    def test_probe_mixed_edit_delete_append(self, tmp_path):
        cache, _, _, _ = self._saved(tmp_path, n=20)
        table = _synthetic_table(20)
        table.replace(Record("r3", ("EDITED", "beta-3")))
        table.remove("r11")
        for i in range(20, 24):
            table.add(Record(f"r{i}", (f"alpha-{i}", f"beta-{i}")))
        delta = cache.delta("t", "right", 1, _synthetic_fingerprint(table), table)
        assert delta is not None
        assert delta.diff.dirty_new == (3,)
        assert delta.deleted_rows == (11,)
        assert delta.appended_range == (19, 23)
        assert delta.new_rows == 4 and delta.dirty_rows == 1
        assert not delta.is_append_only
        # Encode exactly the edited row plus the appended tail.
        assert delta.encode_positions() == (3, 19, 20, 21, 22)

    def test_extend_appends_chunks_and_serves_exact_loads(self, tmp_path):
        cache, table, encodings, _ = self._saved(tmp_path, n=20)
        for i in range(20, 31):
            table.add(Record(f"r{i}", (f"alpha-{i}", f"beta-{i}")))
        grown_fp = _synthetic_fingerprint(table)
        delta = cache.delta("t", "right", 1, grown_fp, table)
        # The full current table's encodings, as patch takes them: only the
        # appended rows are written, the first 20 are never looked at.
        grown = _synthetic_encodings(31, seed=9)
        cache.extend("t", "right", 1, grown_fp, table, delta, grown)

        # Old chunk archives were not rewritten; new ones continue from row 20.
        manifest = json.loads(cache.manifest_path("t", "right", 1).read_text())
        assert [chunk[:2] for chunk in manifest["chunks"]] == [
            [0, 8], [8, 16], [16, 20], [20, 28], [28, 31]
        ]
        # The extended entry now serves an exact full load.
        loaded = cache.load("t", "right", 1, grown_fp)
        assert loaded is not None and len(loaded) == 31
        np.testing.assert_array_equal(np.asarray(loaded.mu[:20]), encodings.mu)
        np.testing.assert_array_equal(np.asarray(loaded.mu[20:]), grown.mu[20:])
        # A second append extends again, from the new boundary.
        for i in range(31, 33):
            table.add(Record(f"r{i}", (f"alpha-{i}", f"beta-{i}")))
        again = cache.delta("t", "right", 1, _synthetic_fingerprint(table), table)
        assert again is not None and again.base_rows == 31

    def test_write_through_rejects_a_delta_of_another_entry(self, tmp_path):
        cache, table, _, _ = self._saved(tmp_path, n=20)
        table.add(Record("r20", ("alpha-20", "beta-20")))
        grown_fp = _synthetic_fingerprint(table)
        delta = cache.delta("t", "right", 1, grown_fp, table)
        with pytest.raises(ValueError, match="another entry"):
            cache.extend("t", "left", 1, grown_fp, table, delta, _synthetic_encodings(21))
        assert cache.entries() == [cache.manifest_path("t", "right", 1)]

    def test_patch_writes_superseding_generations_and_tombstones(self, tmp_path):
        """Edits supersede chunks (old generation untouched on disk), deletes
        tombstone manifest rows, appends extend — and the patched entry then
        serves a full load equal to the mutated table's state."""
        cache, table, encodings, _ = self._saved(tmp_path, n=20)
        table.replace(Record("r10", ("EDITED", "beta-10")))
        table.remove("r2")
        for i in range(20, 23):
            table.add(Record(f"r{i}", (f"alpha-{i}", f"beta-{i}")))
        fingerprint = _synthetic_fingerprint(table)
        delta = cache.delta("t", "right", 1, fingerprint, table)
        assert delta is not None and not delta.is_append_only

        # What the store would splice: reused rows + freshly encoded ones.
        fresh = _synthetic_encodings(23, seed=4)
        merged = TableEncodings(
            keys=tuple(table.record_ids()),
            irs=fresh.irs[:19].copy(), mu=fresh.mu[:19].copy(), sigma=fresh.sigma[:19].copy(),
            row_index={},
        )
        positions, stored = delta.reused_rows()
        old = np.asarray(encodings.mu)
        for position, stored_index in zip(positions, stored):
            merged.mu[position] = old[stored_index]
            merged.irs[position] = np.asarray(encodings.irs)[stored_index]
            merged.sigma[position] = np.asarray(encodings.sigma)[stored_index]
        merged = TableEncodings(
            keys=tuple(table.record_ids()),
            irs=np.concatenate([merged.irs, fresh.irs[19:22]]),
            mu=np.concatenate([merged.mu, fresh.mu[19:22]]),
            sigma=np.concatenate([merged.sigma, fresh.sigma[19:22]]),
            row_index={key: row for row, key in enumerate(table.record_ids())},
        )
        _, stats = cache.patch("t", "right", 1, fingerprint, table, delta, merged)
        assert stats["rows_tombstoned"] == 1
        assert stats["chunks_patched"] == 1  # only the chunk holding row 10
        assert stats["chunks_appended"] == 1  # rows 20..23

        manifest = json.loads(cache.manifest_path("t", "right", 1).read_text())
        assert manifest["format"] == CACHE_FORMAT_VERSION
        assert manifest["tombstones"] == [2]
        by_range = {(chunk[0], chunk[1]): chunk for chunk in manifest["chunks"]}
        assert by_range[(8, 16)][3] == 1  # superseded generation
        assert by_range[(0, 8)][3] == 0  # deletion alone does not rewrite
        assert (20, 23) in by_range
        # Both generations exist on disk until prune sweeps the stale one.
        assert cache.chunk_path("t", "right", 1, 8, 16, 0).is_file()
        assert cache.chunk_path("t", "right", 1, 8, 16, 1).is_file()

        loaded = cache.load("t", "right", 1, fingerprint)
        assert loaded is not None and len(loaded) == len(table) == 22
        assert loaded.keys == tuple(table.record_ids())
        np.testing.assert_array_equal(np.asarray(loaded.mu), merged.mu)

        # Prune sweeps exactly the superseded generation file.
        removed = cache.prune()
        assert removed["files"] == 1
        assert not cache.chunk_path("t", "right", 1, 8, 16, 0).is_file()
        assert cache.load("t", "right", 1, fingerprint) is not None

    def test_prune_dry_run_reports_without_deleting(self, tmp_path):
        cache, table, encodings, _ = self._saved(tmp_path, n=20)
        stray = cache.chunk_path("t", "right", 1, 99, 120)
        stray.write_bytes(b"leftover of a superseded generation")
        preview = cache.prune(dry_run=True)
        assert preview["files"] == 1 and preview["bytes"] > 0
        assert stray.is_file(), "dry run must not delete"
        assert cache.prune() == preview
        assert not stray.is_file()

    def test_keys_only_entries_are_opaque_to_delta(self, tmp_path):
        """Entries saved under a keys-only identity (synthetic benchmarks:
        the ids of the encoded rows, no values) serve full loads but never
        claim a delta prefix against the real table."""
        cache = self._cache(tmp_path)
        table = _synthetic_table(20)
        encodings = _synthetic_encodings(20)
        fingerprint = _synthetic_fingerprint(table)
        keys_only = Table("t", ("a", "b"), [Record(key, ("", "")) for key in encodings.keys])
        cache.save("t", "right", 1, fingerprint, encodings, table=keys_only)
        assert cache.load("t", "right", 1, fingerprint) is not None
        assert cache.delta("t", "right", 1, fingerprint, table) is None


class TestCacheInspection:
    def test_describe_entries_reports_layout(self, tiny_domain, tiny_representation, small_chunk_cache):
        store = _store(tiny_representation, tiny_domain.task, small_chunk_cache)
        store.table_encodings("left")
        store.table_encodings("right")
        rows = small_chunk_cache.describe_entries()
        assert {row["side"] for row in rows} == {"left", "right"}
        for row in rows:
            assert row["task"] == tiny_domain.task.name
            assert "layout" not in row  # one layout: the field is gone
            assert row["rows"] > 0 and row["chunks"] > 1 and row["bytes"] > 0
            assert row["content_crc"] is not None and row["weights_crc"] is not None

    def test_prune_removes_stale_generations(self, tiny_domain, small_vae_config, small_chunk_cache):
        model = EntityRepresentationModel(small_vae_config, ir_method="lsa").fit(tiny_domain.task)
        _store(model, tiny_domain.task, small_chunk_cache).table_encodings("left")
        model.fit(tiny_domain.task, epochs=1)  # bumps encoding_version
        _store(model, tiny_domain.task, small_chunk_cache).table_encodings("left")
        assert len(small_chunk_cache.entries()) == 2
        removed = small_chunk_cache.prune()
        assert removed["entries"] == 1 and removed["files"] > 0 and removed["bytes"] > 0
        survivors = small_chunk_cache.describe_entries()
        assert len(survivors) == 1
        assert survivors[0]["version"] == model.encoding_version
        # Pruning again is a no-op.
        assert small_chunk_cache.prune() == {
            "entries": 0, "files": 0, "bytes": 0, "bytes_by_codec": {},
        }

    def test_prune_sweeps_unreferenced_chunks(self, tmp_path):
        cache = PersistentEncodingCache(tmp_path / "sweep", chunk_rows=8)
        table = _synthetic_table(20)
        cache.save("t", "right", 1, _synthetic_fingerprint(table), _synthetic_encodings(20), table=table)
        stray = cache.chunk_path("t", "right", 1, 99, 120)
        stray.write_bytes(b"leftover of a superseded extension")
        removed = cache.prune()
        assert removed["files"] == 1 and not stray.is_file()
        # The referenced chunks still serve.
        assert cache.load("t", "right", 1, _synthetic_fingerprint(table)) is not None


class TestOldFormats:
    """There is one on-disk format.  Whatever else sits under a key is a plain
    miss that no read path rewrites or removes; the next save replaces it."""

    @pytest.mark.parametrize(
        "case",
        [
            "v3-manifest", "v4-manifest", "v5-manifest", "null-row-crcs",
            "untagged-chunk", "stray-flat-archive",
        ],
    )
    def test_old_format_is_an_untouched_miss(self, tmp_path, case):
        cache = PersistentEncodingCache(tmp_path / "old", chunk_rows=8)
        table = _synthetic_table(20)
        encodings = _synthetic_encodings(20)
        fingerprint = _synthetic_fingerprint(table)
        cache.save("t", "right", 1, fingerprint, encodings, table=table)
        manifest_path = cache.manifest_path("t", "right", 1)
        manifest = json.loads(manifest_path.read_text())
        stray = cache.directory / "t" / "right-v1.npz"
        if case == "v3-manifest":  # per-chunk CRCs only
            old = {
                key: value for key, value in manifest.items()
                if key not in ("row_crcs", "tombstones", "codec")
            }
            old.update(format=3, chunks=[chunk[:3] for chunk in manifest["chunks"]])
            manifest_path.write_text(json.dumps(old))
        elif case == "v4-manifest":  # everything but the codec field
            old = dict(manifest, format=4)
            del old["codec"]
            manifest_path.write_text(json.dumps(old))
        elif case == "v5-manifest":  # same layout, CRCs that meant something else
            manifest_path.write_text(json.dumps(dict(manifest, format=5)))
        elif case == "null-row-crcs":  # what a table-less format-5 save wrote
            manifest_path.write_text(json.dumps(dict(manifest, row_crcs=None)))
        elif case == "untagged-chunk":  # current manifest, pre-codec chunk metadata
            chunk = cache.chunk_path("t", "right", 1, 0, 8)
            metadata = load_metadata(chunk)
            del metadata["codec"]
            with np.load(chunk) as archive:
                arrays = {name: archive[name] for name in ("irs", "mu", "sigma")}
            save_state_dict(arrays, chunk, metadata=metadata)
        else:  # a single archive next to (not inside) the chunk directories
            cache.clear()
            stray.parent.mkdir(parents=True, exist_ok=True)
            save_state_dict(
                {name: getattr(encodings, name) for name in ("irs", "mu", "sigma")},
                stray,
                metadata={
                    "format": 1, "task": "t", "side": "right", "encoding_version": 1,
                    "fingerprint": fingerprint, "keys": list(encodings.keys),
                },
            )

        def files():
            return {
                path: path.read_bytes() for path in cache.directory.rglob("*") if path.is_file()
            }

        before = files()
        assert cache.load("t", "right", 1, fingerprint) is None
        assert cache.load_range("t", "right", 1, fingerprint, 0, 8) is None
        delta = cache.delta("t", "right", 1, fingerprint, table)
        # The probe reads manifests only, so under a current manifest it is
        # the reuse load that meets the untagged chunk.
        assert delta is None or cache.load_reused("t", "right", 1, delta) is None
        reports = cache.verify_entries()
        if case == "stray-flat-archive":
            assert reports == [] and cache.describe_entries() == []
        else:
            assert [report["ok"] for report in reports] == [False]
        assert files() == before, "a miss must not write, migrate or delete anything"

        cache.save("t", "right", 1, fingerprint, encodings, table=table)
        loaded = cache.load("t", "right", 1, fingerprint)
        assert loaded is not None and loaded.keys == encodings.keys
        np.testing.assert_array_equal(np.asarray(loaded.mu), encodings.mu)
        assert json.loads(manifest_path.read_text())["format"] == CACHE_FORMAT_VERSION
        assert [report["ok"] for report in cache.verify_entries()] == [True]
        if case == "stray-flat-archive":
            assert stray.read_bytes() == before[stray]


class TestCrossProcessWarmth:
    def test_warm_cache_across_processes(self, tiny_domain, tiny_representation, tmp_path):
        """Second *run* served entirely from disk.

        With ``REPRO_CACHE_DIR`` set (as in CI's warm-cache re-run), the
        cache directory outlives the process: the first invocation encodes
        and writes, every later invocation must encode nothing.  Without the
        variable the test degrades to a tmp_path cold-then-warm check.
        Either way, served encodings must equal a from-scratch encode.
        """
        cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", tmp_path / "cross-run"))
        cache = PersistentEncodingCache(cache_dir)
        version = tiny_representation.encoding_version
        pre_existing = all(
            cache.manifest_path(tiny_domain.task.name, side, version).is_file()
            for side in ("left", "right")
        )
        store = _store(tiny_representation, tiny_domain.task, cache)
        served = store.table_encodings("left")
        store.table_encodings("right")
        if pre_existing:
            assert store.counters.tables_encoded == 0, "warm run must not encode any table"
            assert store.counters.disk_hits == 2
            assert store.counters.chunk_loads >= 2
        else:
            assert store.counters.tables_encoded == 2
        # Whatever the source, the encodings must match a fresh computation.
        fresh = tiny_representation.encode_table(tiny_domain.task.left)
        assert served.keys == fresh.keys
        np.testing.assert_allclose(served.mu, fresh.mu, atol=1e-12)
        np.testing.assert_allclose(served.sigma, fresh.sigma, atol=1e-12)


class TestMalformedEntries:
    """A malformed manifest field or chunk is a miss on every path, never a
    raise, and verify fails exactly the entries a load misses.  ``shapes``
    must be ``[stored rows, per-row dims...]`` of non-negative ints."""

    @pytest.mark.parametrize("shape", [None, [], "6x2x3", [6, "3", 3], [5, 2, 3], [6, -2, 3]])
    def test_malformed_shape_is_listed_unreadable_and_missed(self, tmp_path, shape):
        cache = PersistentEncodingCache(tmp_path / "shapes", chunk_rows=4)
        table = _synthetic_table(6)
        fingerprint = _synthetic_fingerprint(table)
        cache.save("t", "right", 1, fingerprint, _synthetic_encodings(6), table=table)
        manifest_path = cache.manifest_path("t", "right", 1)
        manifest = json.loads(manifest_path.read_text())
        manifest["shapes"]["irs"] = shape
        manifest_path.write_text(json.dumps(manifest))

        (row,) = cache.describe_entries()
        assert row["rows"] is None
        assert [report["ok"] for report in cache.verify_entries()] == [False]
        assert cache.load("t", "right", 1, fingerprint) is None
        assert cache.delta("t", "right", 1, fingerprint, table) is None

    def test_store_over_malformed_shapes_reencodes(self, tiny_domain, tiny_representation, tmp_path):
        """The write-through of an appended row must not trip over the
        corrupted field: the store encodes the table and saves it afresh."""
        task = copy.deepcopy(tiny_domain.task)
        cache = PersistentEncodingCache(tmp_path / "shapes-store", chunk_rows=8)
        _store(tiny_representation, task, cache).table_encodings("right")
        manifest_path = cache.manifest_path(task.name, "right", tiny_representation.encoding_version)
        manifest = json.loads(manifest_path.read_text())
        manifest["shapes"]["irs"] = None
        manifest_path.write_text(json.dumps(manifest))
        task.right.add(Record("appended-0", ("omega nu", "oslo", "12.50")))

        store = _store(tiny_representation, task, cache)
        served = store.table_encodings("right")
        assert store.counters.tables_encoded == 1 and store.counters.disk_misses == 1
        assert served.keys == tuple(task.right.record_ids())
        assert [report["ok"] for report in cache.verify_entries()] == [True]


    def test_chunk_rows_disagreeing_with_the_manifest_fail_verify_and_load(self, tmp_path):
        """A chunk whose metadata matches but whose arrays hold another row
        count: verify runs the load's own chunk check, so both reject it."""
        cache = PersistentEncodingCache(tmp_path / "short", chunk_rows=4)
        table = _synthetic_table(6)
        fingerprint = _synthetic_fingerprint(table)
        cache.save("t", "right", 1, fingerprint, _synthetic_encodings(6), table=table)
        chunk = cache.chunk_path("t", "right", 1, 0, 4)
        metadata = load_metadata(chunk)
        with np.load(chunk) as archive:
            arrays = {name: archive[name][:3] for name in ("irs", "mu", "sigma")}
        save_state_dict(arrays, chunk, metadata=metadata)

        assert cache.load("t", "right", 1, fingerprint) is None
        (report,) = cache.verify_entries()
        assert not report["ok"] and [chunk.name in problem for problem in report["problems"]] == [True]

#: One mutation of a generated sequence: (kind, selector, use a fresh store).
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "edit", "delete", "reorder"]),
        st.integers(min_value=0, max_value=10 ** 6),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def _stored_form(array):
    return array.codes if isinstance(array, CodecArray) else np.asarray(array)


class TestGeneratedWriteThrough:
    """Random append / edit / delete / reorder sequences through a store
    with a small-chunk cache: after every step the entry the write-through
    left must load as exactly what the store serves, carry the table's live
    row CRCs and pass verify before and after a prune.  A step either reuses
    the store (the in-memory refresh path) or starts a fresh one (the disk
    delta path)."""

    @pytest.mark.parametrize("codec", ["raw", "int8"])
    def test_write_through_leaves_a_loadable_entry(self, tiny_representation, codec):
        @settings(max_examples=20, deadline=None)
        @given(steps=_STEPS)
        def run(steps):
            with tempfile.TemporaryDirectory() as directory:
                self._check_sequence(tiny_representation, codec, Path(directory), steps)

        run()

    @staticmethod
    def _check_sequence(representation, codec, directory, steps):
        rng = np.random.default_rng(len(steps))

        def record(tag):
            return Record(tag, (f"alpha {tag}", ("paris", "oslo", "rome")[rng.integers(3)], f"{rng.uniform(5, 200):.2f}"))

        left = Table("gen-left", ("name", "city", "price"), [record(f"l{i}") for i in range(3)])
        right = Table("gen-right", ("name", "city", "price"), [record(f"r{i}") for i in range(10)])
        task = ERTask("generated", left, right)
        cache = PersistentEncodingCache(directory, chunk_rows=4)

        def fresh():
            return EncodingStore(
                representation, task, counters=EngineCounters(), persistent=cache, codec=codec
            )

        store = fresh()
        store.table_encodings("right")
        appended = 0
        for step, (kind, selector, restart) in enumerate(steps):
            ids = right.record_ids()
            if kind == "append":
                for _ in range(1 + selector % 5):
                    right.add(record(f"a{appended}"))
                    appended += 1
            elif kind == "edit":
                right.replace(record(ids[selector % len(ids)]))
            elif kind == "delete" and len(ids) > 2:
                right.remove(ids[selector % len(ids)])
            elif kind == "reorder":
                # Re-add a suffix of rows in another order: every moved row
                # is a deletion plus an append of the same id.
                moved = [right.remove(rid) for rid in ids[selector % len(ids):]]
                for position in np.random.default_rng(selector).permutation(len(moved)):
                    right.add(moved[position])
            if restart:
                store = fresh()
            served = store.table_encodings("right")

            version = representation.encoding_version
            fingerprint = store.table_fingerprint("right")
            loaded = cache.load(task.name, "right", version, fingerprint)
            assert loaded is not None, f"step {step} ({kind}) left no loadable entry"
            assert loaded.keys == served.keys == tuple(right.record_ids())
            for name in ("irs", "mu", "sigma"):
                expected = _stored_form(getattr(served, name))
                actual = _stored_form(getattr(loaded, name))
                assert actual.dtype == expected.dtype and actual.shape == expected.shape
                assert actual.tobytes() == expected.tobytes()
            manifest = json.loads(cache.manifest_path(task.name, "right", version).read_text())
            dead = set(manifest["tombstones"])
            live_crcs = [crc for row, crc in enumerate(manifest["row_crcs"]) if row not in dead]
            assert live_crcs == list(table_row_crcs(right))
            assert all(report["ok"] for report in cache.verify_entries())
            cache.prune()
            assert all(report["ok"] for report in cache.verify_entries())

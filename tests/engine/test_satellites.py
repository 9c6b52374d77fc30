"""Engine regressions: ``pq`` codec ergonomics and the cache audit commands.

* the ``pq`` codec must resolve end to end — name resolution and
  CLI flag parsing both accept it now that the trained
  product quantizer replaced the stub (unknown codecs still fail fast with
  the catalogue named);
* ``cache verify`` must audit a shared cache directory — manifest structure
  plus per-chunk fingerprints — without loading arrays, and ``cache list
  --json`` must emit machine-readable rows.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    EncodingStore,
    PersistentEncodingCache,
    available_codecs,
    get_codec,
    resolve_codec_name,
)
from repro.eval.timing import EngineCounters


class TestPqCodecErgonomics:
    def test_pq_stays_registered_for_discovery(self):
        assert "pq" in available_codecs()
        assert get_codec("pq").name == "pq"

    def test_pq_is_usable(self):
        """Every registered codec encodes: the catalogue is the one list."""
        assert set(available_codecs()) == {"raw", "int8", "pq"}
        assert get_codec("pq").encode(np.ones((4, 2)), None).decode().shape == (4, 2)

    def test_resolving_pq_resolves(self):
        assert resolve_codec_name("pq") == "pq"

    def test_unknown_codec_still_fails_with_catalogue(self):
        with pytest.raises(ValueError, match="available"):
            resolve_codec_name("zstd")

    def test_cli_rejects_unknown_codec_at_flag_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["resolve", "--codec", "zstd"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "int8" in err and "raw" in err and "pq" in err


class TestCacheVerify:
    @pytest.fixture()
    def populated(self, tmp_path, tiny_domain, tiny_representation):
        cache = PersistentEncodingCache(tmp_path / "cache", chunk_rows=16)
        store = EncodingStore(
            tiny_representation, tiny_domain.task,
            counters=EngineCounters(), persistent=cache,
        )
        store.table_encodings("left")
        store.table_encodings("right")
        return cache

    def test_intact_cache_verifies_clean(self, populated):
        reports = populated.verify_entries()
        assert len(reports) == 2
        assert all(report["ok"] for report in reports)
        assert all(report["chunks_checked"] > 0 for report in reports)
        assert all(report["problems"] == [] for report in reports)

    def test_missing_chunk_is_reported(self, populated):
        victim = next(populated.directory.glob("*/*/chunk-*.npz"))
        victim.unlink()
        reports = populated.verify_entries()
        bad = [r for r in reports if not r["ok"]]
        assert len(bad) == 1
        assert any("missing chunk archive" in p for p in bad[0]["problems"])

    def test_torn_chunk_is_reported(self, populated):
        victim = next(populated.directory.glob("*/*/chunk-*.npz"))
        victim.write_bytes(victim.read_bytes()[:64])
        reports = populated.verify_entries()
        bad = [r for r in reports if not r["ok"]]
        assert len(bad) == 1
        assert any("unreadable" in p for p in bad[0]["problems"])

    def test_invalid_manifest_is_reported(self, populated):
        manifest = next(populated.directory.glob("*/*/manifest.json"))
        manifest.write_text("{ not json")
        reports = populated.verify_entries()
        bad = [r for r in reports if not r["ok"]]
        assert len(bad) == 1
        assert "manifest unreadable or structurally invalid" in bad[0]["problems"]

    def test_cli_verify_exit_codes(self, populated, capsys):
        assert main(["cache", "verify", "--cache-dir", str(populated.directory)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        next(populated.directory.glob("*/*/chunk-*.npz")).unlink()
        assert main(["cache", "verify", "--cache-dir", str(populated.directory)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_cli_verify_json(self, populated, capsys):
        assert main([
            "cache", "verify", "--cache-dir", str(populated.directory), "--json"
        ]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 2
        assert all(report["ok"] for report in reports)

    def test_cli_list_json(self, populated, capsys):
        assert main([
            "cache", "list", "--cache-dir", str(populated.directory), "--json"
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {row["side"] for row in rows} == {"left", "right"}
        assert all("layout" not in row for row in rows)

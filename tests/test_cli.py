"""Command-line interface smoke tests (argument parsing and light commands)."""

import pytest

from repro.cli import _build_parser, main
from repro.data.generators import load_domain
from repro.engine import plan as plan_module


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    def test_supervised_defaults(self):
        args = _build_parser().parse_args(["supervised"])
        assert args.domain == "restaurants" and args.ir == "lsa"

    def test_active_arguments(self):
        args = _build_parser().parse_args(["active", "--domain", "beer", "--budget", "30"])
        assert args.domain == "beer" and args.budget == 30

    def test_transfer_arguments(self):
        args = _build_parser().parse_args(["transfer", "--source", "crm", "--target", "music"])
        assert args.source == "crm" and args.target == "music"

    def test_invalid_ir_rejected(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["supervised", "--ir", "elmo"])

    def test_resolve_arguments(self):
        args = _build_parser().parse_args(["resolve", "--k", "5", "--batch-size", "128"])
        assert args.domain == "restaurants" and args.k == 5 and args.batch_size == 128
        assert args.cache_dir is None  # default

    def test_resolve_cache_dir_argument(self):
        args = _build_parser().parse_args(["resolve", "--cache-dir", ".repro-cache"])
        assert args.cache_dir == ".repro-cache"

    def test_plan_arguments(self):
        args = _build_parser().parse_args(["plan", "--domain", "music"])
        assert args.domain == "music"
        assert args.k == 10 and args.batch_size == 2048  # defaults
        with pytest.raises(SystemExit):  # the plan has no shard knob
            _build_parser().parse_args(["plan", "--shard-rows", "512"])

    def test_resolve_incremental_arguments(self):
        args = _build_parser().parse_args(["resolve", "--incremental", "--append-rows", "96"])
        assert args.incremental is True and args.append_rows == 96
        defaults = _build_parser().parse_args(["resolve"])
        assert defaults.incremental is False and defaults.append_rows == 48

    def test_cache_arguments(self):
        args = _build_parser().parse_args(["cache", "list", "--cache-dir", ".enc"])
        assert args.action == "list" and args.cache_dir == ".enc"
        with pytest.raises(SystemExit):  # action is mandatory and closed
            _build_parser().parse_args(["cache", "defragment", "--cache-dir", ".enc"])
        with pytest.raises(SystemExit):  # --cache-dir is mandatory
            _build_parser().parse_args(["cache", "list"])


class TestCommands:
    def test_list_domains_prints_all_nine(self, capsys):
        assert main(["list-domains"]) == 0
        output = capsys.readouterr().out
        for name in ("restaurants", "citations2", "crm", "stocks"):
            assert name in output
        assert len(output.strip().splitlines()) == 9

    def test_plan_prints_stage_graph_without_training(self, capsys):
        """The plan subcommand fits no model: it must return in well under a
        training run's time and still print the full stage graph."""
        assert main([
            "plan", "--domain", "restaurants", "--scale", "0.3",
            "--batch-size", "20", "--k", "5",
        ]) == 0
        output = capsys.readouterr().out
        for token in ("encode", "block", "score", "workers=1", "query_chunk=4"):
            assert token in output

    def test_plan_rejects_bad_arguments(self, capsys):
        assert main(["plan", "--k", "0"]) == 2
        assert "--k" in capsys.readouterr().err
        assert main(["plan", "--batch-size", "-1"]) == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_plan_prints_one_query_unit_per_chunk(self, capsys):
        """The block stage is one build plus one query unit per
        ``batch_size // k``-row chunk of the left table."""
        assert main([
            "plan", "--domain", "beer", "--batch-size", "100", "--k", "10",
        ]) == 0
        output = capsys.readouterr().out
        chunks = -(-len(load_domain("beer").task.left) // 10)
        assert f"({chunks} query chunk(s))" in output
        assert f"block <- encode — {1 + chunks} unit(s)" in output
        assert "query_chunk=10" in output

    def test_plan_has_no_shard_rows_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--domain", "beer", "--shard-rows", "8"])
        assert excinfo.value.code == 2
        assert "--shard-rows" in capsys.readouterr().err

    def test_resolve_rejects_bad_mutation_arguments(self, capsys):
        assert main(["resolve", "--incremental", "--append-rows", "-1"]) == 2
        assert "--append-rows" in capsys.readouterr().err
        assert main(["resolve", "--incremental", "--edit-rows", "-2"]) == 2
        assert "--edit-rows" in capsys.readouterr().err
        # --incremental with nothing to mutate has no second pass to run.
        assert main([
            "resolve", "--incremental", "--append-rows", "0",
            "--edit-rows", "0", "--delete-rows", "0",
        ]) == 2
        assert "--incremental" in capsys.readouterr().err


class TestCacheCommand:
    @staticmethod
    def _populate(cache_dir, versions=(1,)):
        """Write synthetic chunked entries (no model fitting needed)."""
        import numpy as np

        from repro.data.schema import Record, Table
        from repro.engine import PersistentEncodingCache, TableEncodings, rows_crc, table_row_crcs

        cache = PersistentEncodingCache(cache_dir, chunk_rows=8)
        table = Table("clitask", ("a", "b"),
                      [Record(f"r{i}", (f"x{i}", f"y{i}")) for i in range(20)])
        rng = np.random.default_rng(0)
        keys = tuple(table.record_ids())
        encodings = TableEncodings(
            keys=keys,
            irs=rng.normal(size=(20, 2, 3)),
            mu=rng.normal(size=(20, 2, 3)),
            sigma=rng.normal(size=(20, 2, 3)),
            row_index={key: row for row, key in enumerate(keys)},
        )
        fingerprint = {
            "model": {"ir_method": "lsa", "ir_dim": 3, "hidden_dim": 4,
                      "latent_dim": 3, "seed": 1, "weights_crc": 42},
            "n_records": 20,
            "content_crc": rows_crc(table_row_crcs(table)),
        }
        for version in versions:
            cache.save("clitask", "right", version, fingerprint, encodings, table=table)
        return cache

    def test_cache_list_prints_entries(self, tmp_path, capsys):
        self._populate(tmp_path / "enc", versions=(1,))
        assert main(["cache", "list", "--cache-dir", str(tmp_path / "enc")]) == 0
        output = capsys.readouterr().out
        assert "clitask" in output and "right" in output and "raw" in output
        assert "20" in output  # row count from the manifest

    def test_cache_list_empty_directory(self, tmp_path, capsys):
        assert main(["cache", "list", "--cache-dir", str(tmp_path / "nothing")]) == 0
        assert "no cache entries" in capsys.readouterr().out

    def test_cache_prune_removes_stale_generations(self, tmp_path, capsys):
        cache = self._populate(tmp_path / "enc", versions=(1, 2, 3))
        assert len(cache.entries()) == 3
        assert main(["cache", "prune", "--cache-dir", str(tmp_path / "enc")]) == 0
        assert "pruned 2 stale entr(ies)" in capsys.readouterr().out
        survivors = cache.describe_entries()
        assert [row["version"] for row in survivors] == [3]

    def test_cache_prune_dry_run_deletes_nothing(self, tmp_path, capsys):
        cache = self._populate(tmp_path / "enc", versions=(1, 2))
        assert len(cache.entries()) == 2
        assert main(["cache", "prune", "--cache-dir", str(tmp_path / "enc"), "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "would prune 1 stale entr(ies)" in output
        # Nothing was actually removed; a real prune then removes exactly it.
        assert len(cache.entries()) == 2
        assert main(["cache", "prune", "--cache-dir", str(tmp_path / "enc")]) == 0
        assert "pruned 1 stale entr(ies)" in capsys.readouterr().out
        assert [row["version"] for row in cache.describe_entries()] == [2]

    def test_cache_list_shows_chunks_generations_and_bytes(self, tmp_path, capsys):
        self._populate(tmp_path / "enc", versions=(1,))
        assert main(["cache", "list", "--cache-dir", str(tmp_path / "enc")]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        for column in ("Chunks", "Generations", "Tombstones", "Bytes"):
            assert column in header


class TestServeParser:
    def test_serve_arguments(self):
        args = _build_parser().parse_args(
            ["serve", "--domain", "music", "--host", "0.0.0.0", "--port", "8123",
             "--k", "5", "--cache-dir", ".enc"]
        )
        assert args.domain == "music" and args.host == "0.0.0.0" and args.port == 8123
        assert args.k == 5 and args.cache_dir == ".enc"

    def test_serve_defaults(self):
        args = _build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 0
        assert args.k == 10 and args.batch_size == 2048 and args.cache_dir is None


class TestArgumentValidation:
    """The centralised positive-argument guard, across every subcommand."""

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--k", "0"], "--k"),
        (["serve", "--batch-size", "-5"], "--batch-size"),
        (["resolve", "--k", "-1"], "--k"),
        (["resolve", "--batch-size", "0"], "--batch-size"),
        (["plan", "--k", "0"], "--k"),
        (["plan", "--batch-size", "-1"], "--batch-size"),
    ])
    def test_non_positive_arguments_exit_2(self, argv, flag, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be positive" in err

    def test_serve_rejects_negative_port(self, capsys):
        assert main(["serve", "--port", "-1"]) == 2
        assert "--port must be non-negative" in capsys.readouterr().err



class TestWorkersDefault:
    """The CLI plans and resolves serially; no environment variable moves
    the worker count."""

    @pytest.mark.parametrize("raw", ["4", "junk"])
    @pytest.mark.parametrize("command", ["resolve", "plan"])
    def test_default_is_one_whatever_the_environment(self, command, raw, capsys, monkeypatch):
        """With the variable set, a resolve never borrows a pool and a plan
        schedules one worker."""
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", raw)
        borrowed = []
        monkeypatch.setattr(plan_module, "acquire_pool", borrowed.append)
        assert main([
            command, "--domain", "restaurants", "--scale", "0.2", "--batch-size", "64", "--k", "5",
        ]) == 0
        assert borrowed == []
        assert command == "resolve" or "knobs: workers=1 " in capsys.readouterr().out

    def test_plan_schedules_one_worker_by_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "4")
        assert main(["plan", "--domain", "restaurants", "--scale", "0.2"]) == 0
        assert "knobs: workers=1 " in capsys.readouterr().out


class TestNoDistributedRunner:
    """The distributed runner's subcommand and flags, and the pool size of
    the daemon, resolve and plan, are gone: argparse refuses them like any
    unknown argument."""

    @pytest.mark.parametrize("argv", [
        ["worker", "--queue-dir", "queue"],
        ["resolve", "--distributed", "2"],
        ["resolve", "--queue-dir", "queue"],
        ["serve", "--workers", "2"],
        ["resolve", "--workers", "2"],
        ["plan", "--workers", "2"],
    ])
    def test_removed_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_help_lists_no_worker_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["--help"])
        usage = capsys.readouterr().out
        assert "serve" in usage and "worker" not in usage

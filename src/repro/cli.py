"""Command-line interface for running VAER experiments.

Usage (after installing the package)::

    python -m repro list-domains
    python -m repro supervised --domain restaurants
    python -m repro active --domain cosmetics --budget 60
    python -m repro transfer --source citations2 --target beer
    python -m repro representation --domain beer --ir lsa
    python -m repro resolve --domain restaurants --k 10 --batch-size 2048
    python -m repro resolve --domain music --cache-dir .repro-cache
    python -m repro resolve --domain music --incremental --append-rows 64
    python -m repro resolve --domain music --incremental --edit-rows 16 --delete-rows 8
    python -m repro plan --domain music
    python -m repro cache list --cache-dir .repro-cache --json
    python -m repro cache prune --cache-dir .repro-cache --dry-run
    python -m repro cache verify --cache-dir .repro-cache
    python -m repro serve --domain music --cache-dir .repro-cache --port 8123

Each sub-command drives the same harness functions the benchmark suite uses,
so the CLI is a convenient way to reproduce a single cell of the paper's
tables without running the whole pytest-benchmark sweep.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _codec_arg(value: str) -> str:
    """Validate ``--codec`` at flag-parse time.

    Runs the engine's own :func:`repro.engine.resolve_codec_name`, so an
    unknown codec name is refused here — with the available codecs
    named — instead of surfacing as an error deep inside the first encode.
    """
    from repro.engine import resolve_codec_name

    try:
        return resolve_codec_name(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _check_positive(*checks: tuple) -> int:
    """Shared positive-argument validation for every subcommand.

    ``checks`` are ``(flag, value)`` pairs; the first non-positive one
    prints the canonical ``error: <flag> must be positive`` line to stderr
    and returns exit code 2 (argparse's own usage-error convention).
    Returns 0 when every value is positive, so callers can write
    ``if code := _check_positive(...): return code``.
    """
    for flag, value in checks:
        if value <= 0:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Cost-effective Variational Active Entity Resolution' (ICDE 2021).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-domains", help="List the nine synthetic benchmark domains (Table II).")

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--domain", default="restaurants", help="Benchmark domain name (see list-domains).")
        sub.add_argument("--ir", default="lsa", choices=["lsa", "w2v", "bert", "embdi"], help="IR type.")
        sub.add_argument("--scale", type=float, default=1.0, help="Dataset size multiplier.")
        sub.add_argument("--seed", type=int, default=7, help="Random seed for the harness.")

    supervised = subparsers.add_parser("supervised", help="Representation + supervised matching (Tables V/VI).")
    add_common(supervised)

    representation = subparsers.add_parser("representation", help="Raw-IR vs VAER nearest-neighbour search (Table IV).")
    add_common(representation)
    representation.add_argument("--k", type=int, default=10, help="Top-K for the neighbour search.")

    active = subparsers.add_parser("active", help="Active-learning run (Table VIII / Figure 5).")
    add_common(active)
    active.add_argument("--budget", type=int, default=60, help="Oracle labeling budget.")
    active.add_argument("--iterations", type=int, default=12, help="Maximum AL iterations.")
    active.add_argument("--strategy", default="vaer", choices=["vaer", "entropy", "random"], help="Sampling strategy.")

    transfer = subparsers.add_parser("transfer", help="Transfer a representation model across domains (Table VII).")
    transfer.add_argument("--source", default="citations2", help="Source domain for the representation model.")
    transfer.add_argument("--target", default="beer", help="Target domain to transfer to.")
    transfer.add_argument("--scale", type=float, default=1.0, help="Dataset size multiplier.")

    resolve = subparsers.add_parser(
        "resolve",
        help="End-to-end streamed resolution (blocking + matching) through the encoding engine.",
    )
    add_common(resolve)
    resolve.add_argument("--k", type=int, default=10, help="Top-K neighbours per record for blocking.")
    resolve.add_argument("--batch-size", type=int, default=2048, help="Candidate pairs scored per batch.")
    resolve.add_argument(
        "--cache-dir", default=None,
        help="Directory for the persistent encoding cache; repeated runs skip table encoding.",
    )
    resolve.add_argument(
        "--codec", default=None, type=_codec_arg,
        help="Encoding storage codec. raw: float64, exact. int8: per-dimension "
             "affine scalar quantization (~8x smaller, near-exact blocking). "
             "pq: trained product quantization (~16-32x smaller codes; blocking "
             "ranks an ADC lookup-table shortlist, matcher still scores "
             "rehydrated floats). Defaults to raw.",
    )
    resolve.add_argument(
        "--incremental", action="store_true",
        help="Resolve, mutate the right table (append/edit/delete), then re-resolve "
             "against the captured baseline (only new and dirty rows are encoded and rescored).",
    )
    resolve.add_argument(
        "--append-rows", type=int, default=48,
        help="Rows appended to the right table between the two --incremental passes.",
    )
    resolve.add_argument(
        "--edit-rows", type=int, default=0,
        help="Rows edited in place in the right table between the two --incremental passes.",
    )
    resolve.add_argument(
        "--delete-rows", type=int, default=0,
        help="Rows deleted from the right table between the two --incremental passes.",
    )

    plan = subparsers.add_parser(
        "plan",
        help="Print the encode -> block -> score stage graph a resolve run would execute (no training, no encoding).",
    )
    plan.add_argument("--domain", default="restaurants", help="Benchmark domain name (see list-domains).")
    plan.add_argument("--scale", type=float, default=1.0, help="Dataset size multiplier.")
    plan.add_argument("--k", type=int, default=10, help="Top-K neighbours per record for blocking.")
    plan.add_argument("--batch-size", type=int, default=2048, help="Candidate pairs scored per batch.")

    cache = subparsers.add_parser(
        "cache",
        help="Inspect (list) or clean up (prune) a persistent encoding cache directory.",
    )
    cache.add_argument(
        "action", choices=["list", "prune", "verify"],
        help="list: one summary row per entry; prune: remove stale generations; "
             "verify: audit every manifest and chunk fingerprint without "
             "loading arrays (non-zero exit if anything fails).",
    )
    cache.add_argument("--cache-dir", required=True, help="Root of the persistent encoding cache.")
    cache.add_argument(
        "--dry-run", action="store_true",
        help="With prune: report what would be removed without deleting anything.",
    )
    cache.add_argument(
        "--json", action="store_true",
        help="With list/verify: emit machine-readable JSON instead of a table.",
    )

    serve = subparsers.add_parser(
        "serve",
        help="Run the warm match daemon: load a domain once, answer point "
             "queries and mutations over JSON/HTTP at interactive latency.",
    )
    add_common(serve)
    serve.add_argument("--host", default="127.0.0.1", help="Interface to bind.")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks an ephemeral port; the bound port is printed).",
    )
    serve.add_argument("--k", type=int, default=10, help="Top-K neighbours per record for blocking.")
    serve.add_argument("--batch-size", type=int, default=2048, help="Candidate pairs scored per batch.")
    serve.add_argument(
        "--cache-dir", default=None,
        help="Directory for the persistent encoding cache; warm restarts skip table encoding.",
    )
    serve.add_argument(
        "--codec", default=None, type=_codec_arg,
        help="Encoding storage codec for the resident store. int8 keeps the warm "
             "daemon's encodings quantized (~8x smaller RSS); pq stores trained "
             "product-quantization codes (~16-32x smaller, point queries rank "
             "via ADC lookup tables); raw keeps float64.",
    )

    return parser


def _harness_config(seed: int = 7):
    from repro.eval.harness import HarnessConfig

    return HarnessConfig(
        ir_dim=48, hidden_dim=96, latent_dim=32,
        vae_epochs=10, matcher_epochs=50, al_retrain_epochs=12, seed=seed,
    )


def _cmd_list_domains() -> int:
    from repro.data.generators import DOMAIN_NAMES, domain_spec

    for name in DOMAIN_NAMES:
        spec = domain_spec(name)
        kind = "clean" if spec.clean else "noisy"
        print(f"{name:12s} arity={spec.arity:2d} {kind:5s}  {spec.description}")
    return 0


def _cmd_supervised(args: argparse.Namespace) -> int:
    from repro.data.generators import load_domain
    from repro.eval.harness import run_vaer_matching

    domain = load_domain(args.domain, scale=args.scale)
    row = run_vaer_matching(domain, _harness_config(args.seed), ir_method=args.ir)
    print(f"domain={args.domain} ir={args.ir}")
    print(f"  representation training: {row.representation_seconds:.2f}s")
    print(f"  matcher training:        {row.matching_seconds:.2f}s")
    print(f"  test effectiveness:      {row.metrics}")
    return 0


def _cmd_representation(args: argparse.Namespace) -> int:
    from repro.data.generators import load_domain
    from repro.eval.harness import representation_experiment

    domain = load_domain(args.domain, scale=args.scale)
    results = representation_experiment(
        domain, _harness_config(args.seed), ir_methods=(args.ir,), k=args.k
    )[args.ir]
    print(f"domain={args.domain} ir={args.ir} K={args.k}")
    print(f"  raw IR search : {results['raw']}")
    print(f"  VAER search   : {results['vaer']}")
    return 0


def _cmd_active(args: argparse.Namespace) -> int:
    from repro.data.generators import load_domain
    from repro.eval.harness import active_learning_experiment

    domain = load_domain(args.domain, scale=args.scale)
    row = active_learning_experiment(
        domain, _harness_config(args.seed),
        label_budget=args.budget, iterations=args.iterations,
        strategy=args.strategy, ir_method=args.ir,
    )
    print(f"domain={args.domain} strategy={args.strategy} budget={args.budget}")
    print(f"  bootstrap matcher: {row.bootstrap}")
    print(f"  active matcher   : {row.active}  ({row.labels_used} oracle labels)")
    print(f"  full-data matcher: {row.full}  ({row.full_training_size} given labels)")
    print("  F1 trace:", ", ".join(f"{labels}:{f1:.2f}" for labels, f1 in row.f1_trace))
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    from repro.data.generators import load_domain
    from repro.eval.harness import transfer_experiment

    source = load_domain(args.source, scale=args.scale)
    target = load_domain(args.target, scale=args.scale)
    row = transfer_experiment(source, [target], _harness_config())[0]
    print(f"source={args.source} target={args.target}")
    print(f"  recall@10 local/transferred: {row.local_recall:.2f} / {row.transferred_recall:.2f} ({row.recall_delta:+.2f})")
    print(f"  matching F1 local/transferred: {row.local_f1:.2f} / {row.transferred_f1:.2f} ({row.f1_delta:+.2f})")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.data.generators import load_domain
    from repro.engine import ResolutionPlanner

    code = _check_positive(("--k", args.k), ("--batch-size", args.batch_size))
    if code:
        return code
    domain = load_domain(args.domain, scale=args.scale)
    plan = ResolutionPlanner(domain.task, k=args.k, batch_size=args.batch_size).plan()
    print(plan.describe())
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    from repro.core import VAER
    from repro.data.generators import load_domain
    from repro.eval.reporting import format_engine_stats, format_stage_timings
    from repro.eval.timing import StageTimings, reset_engine_counters

    code = _check_positive(("--batch-size", args.batch_size), ("--k", args.k))
    if code:
        return code
    if args.append_rows < 0 or args.edit_rows < 0 or args.delete_rows < 0:
        print("error: --append-rows/--edit-rows/--delete-rows must be non-negative", file=sys.stderr)
        return 2
    if args.incremental and args.append_rows + args.edit_rows + args.delete_rows == 0:
        print("error: --incremental needs at least one of --append-rows/--edit-rows/--delete-rows", file=sys.stderr)
        return 2
    reset_engine_counters()
    domain = load_domain(args.domain, scale=args.scale)
    config = _harness_config(args.seed).vaer_config(ir_method=args.ir)
    model = VAER(config, cache_dir=args.cache_dir, codec=args.codec)
    model.fit_representation(domain.task)
    model.fit_matcher(domain.splits.train, domain.splits.validation)

    def _drain(stage_timings):
        """(candidates, matches, batches) of one fully drained resolve."""
        candidates = matches = batches = 0
        for batch in model.resolve_stream(
            k=args.k, batch_size=args.batch_size,
            stage_timings=stage_timings, incremental=args.incremental,
        ):
            candidates += len(batch)
            matches += len(batch.matches())
            batches += 1
        return candidates, matches, batches

    stage_timings = StageTimings()
    candidates, matches, batches = _drain(stage_timings)

    print(
        f"domain={args.domain} ir={args.ir} k={args.k} batch_size={args.batch_size} "
        f"codec={model.codec}"
    )
    print(f"  candidate pairs scored: {candidates} (in {batches} batches)")
    print(f"  predicted matches:      {matches} (threshold {model.threshold:.2f})")
    if args.cache_dir:
        print(f"  encoding cache:         {args.cache_dir}")

    if args.incremental:
        from repro.data.generators import append_rows, delete_rows, mutate_rows

        mutations = []
        if args.edit_rows:
            mutate_rows(domain, side="right", rows=args.edit_rows)
            mutations.append(f"{args.edit_rows} edited")
        if args.delete_rows:
            delete_rows(domain, side="right", rows=args.delete_rows)
            mutations.append(f"{args.delete_rows} deleted")
        if args.append_rows:
            append_rows(domain, side="right", rows=args.append_rows)
            mutations.append(f"{args.append_rows} appended")
        reset_engine_counters()
        delta_timings = StageTimings()
        candidates, matches, _ = _drain(delta_timings)
        print(f"\nIncremental re-resolve after mutating the right table ({', '.join(mutations)} rows)\n")
        print(f"  candidate pairs:        {candidates}")
        print(f"  predicted matches:      {matches}")
        print(f"  rows re-encoded:        {delta_timings.counter('rows_reencoded')}")
        print(f"  rows tombstoned:        {delta_timings.counter('rows_tombstoned')}")
        print(f"  pairs rescored:         {delta_timings.counter('pairs_rescored')} "
              f"(of {candidates} candidates)")
        print("\nDelta-stage timings\n")
        print(format_stage_timings(delta_timings))

    print("\nEngine cache statistics\n")
    print(format_engine_stats())
    print("\nPer-stage timings (encode -> block -> score, plus merge)\n")
    print(format_stage_timings(stage_timings))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.engine import PersistentEncodingCache
    from repro.eval.reporting import format_table

    cache = PersistentEncodingCache(args.cache_dir)
    if args.action == "verify":
        reports = cache.verify_entries()
        if args.json:
            print(json.dumps(reports, indent=2, default=str))
        elif not reports:
            print(f"no cache entries under {args.cache_dir}")
        else:
            for report in reports:
                status = "ok" if report["ok"] else "FAIL"
                print(
                    f"{status:4s} {report['task']}/{report['side']}-v{report['version']} "
                    f"({report['chunks_checked']} chunk(s) checked)"
                )
                for problem in report["problems"]:
                    print(f"       {problem}")
        return 0 if all(report["ok"] for report in reports) else 1
    if args.action == "prune":
        removed = cache.prune(dry_run=args.dry_run)
        verb = "would prune" if args.dry_run else "pruned"
        print(
            f"{verb} {removed['entries']} stale entr(ies) and unreferenced chunks: "
            f"{removed['files']} file(s), {removed['bytes']} bytes"
        )
        by_codec = removed.get("bytes_by_codec") or {}
        for codec in sorted(by_codec):
            label = "reclaimable" if args.dry_run else "reclaimed"
            print(f"  {label} from codec={codec}: {by_codec[codec]} bytes")
        return 0
    rows = cache.describe_entries()
    if args.json:
        print(json.dumps(rows, indent=2, default=str))
        return 0
    if not rows:
        print(f"no cache entries under {args.cache_dir}")
        return 0

    def _show(value) -> str:
        return "?" if value is None else str(value)

    def _ratio(value) -> str:
        return "?" if value is None else f"{value:.1f}x"

    print(format_table(
        ["Task", "Side", "Version", "Codec", "Rows", "Tombstones",
         "Chunks", "Generations", "Bytes", "Decoded", "Ratio",
         "Content CRC", "Weights CRC"],
        [
            [row["task"], row["side"], _show(row["version"]),
             _show(row.get("codec")), _show(row["rows"]), _show(row["tombstones"]),
             _show(row["chunks"]), _show(row["generations"]), _show(row["bytes"]),
             _show(row.get("decoded_bytes")),
             _ratio(row.get("compression_ratio")),
             _show(row["content_crc"]), _show(row["weights_crc"])]
            for row in rows
        ],
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core import VAER
    from repro.data.generators import load_domain
    from repro.serve import MatchServer, ServeSession

    code = _check_positive(("--k", args.k), ("--batch-size", args.batch_size))
    if code:
        return code
    if args.port < 0:
        print("error: --port must be non-negative", file=sys.stderr)
        return 2

    domain = load_domain(args.domain, scale=args.scale)
    config = _harness_config(args.seed).vaer_config(ir_method=args.ir)
    model = VAER(config, cache_dir=args.cache_dir, codec=args.codec)
    print(
        f"loading domain={args.domain} ir={args.ir} scale={args.scale} "
        f"codec={model.codec} ...", flush=True,
    )
    model.fit_representation(domain.task)
    model.fit_matcher(domain.splits.train, domain.splits.validation)

    session = ServeSession(model, k=args.k, batch_size=args.batch_size).start()
    server = MatchServer(session, host=args.host, port=args.port)
    snapshot = session.snapshot
    print(
        f"warm: {snapshot.left_rows}x{snapshot.right_rows} rows, "
        f"{len(snapshot.pairs)} candidate pairs, {snapshot.match_count} matches "
        f"(threshold {snapshot.threshold:.2f})"
    )
    print(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.shutdown()
    print("daemon stopped: queue drained, cache flushed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "list-domains":
        return _cmd_list_domains()
    if args.command == "supervised":
        return _cmd_supervised(args)
    if args.command == "representation":
        return _cmd_representation(args)
    if args.command == "active":
        return _cmd_active(args)
    if args.command == "transfer":
        return _cmd_transfer(args)
    if args.command == "resolve":
        return _cmd_resolve(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

"""Pieces the four workloads share: run context, seeded inputs, quality, checks."""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from bench.spec import FLOORS, Sizes, model_config
from bench.tracer import Tracer

PairKey = Tuple[str, str]


@dataclass
class Context:
    """One run of one workload: its seed, sizes, tracer and operation counts."""

    workload: str
    seed: int
    sizes: Sizes
    tracer: Tracer
    out_dir: Path
    nproc: int
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Layer numbers a workload reads off the system directly (counters,
    #: sizes on disk, probe results); merged into the per-layer metrics.
    layer_values: Dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def sub_seed(self, label: str) -> int:
        """A stable seed for one input of this run, derived from ``--seed``."""
        return zlib.crc32(f"{self.seed}/{self.workload}/{label}".encode("utf-8")) % (2 ** 31)

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed output check fails the operation."""
        with self._lock:  # serve_mixed counts from its reader thread too
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok

    def floor(self, metric: str, value: float) -> bool:
        """Whether a seeded quality number clears its recorded floor."""
        if self.sizes.smoke:
            return True
        return value >= FLOORS[self.workload][metric]

    @contextmanager
    def timed(self, phase: str) -> Iterator["Stopwatch"]:
        """Time a block as one root span of ``phase``."""
        watch = Stopwatch()
        with self.tracer.span(phase):
            started = time.perf_counter()
            try:
                yield watch
            finally:
                watch.seconds = time.perf_counter() - started


@dataclass
class Stopwatch:
    """Filled in when its ``Context.timed`` block ends."""

    seconds: float = 0.0


@dataclass
class Resolved:
    """A drained resolve stream."""

    keys: List[PairKey]
    probabilities: np.ndarray
    matches: Set[PairKey]

    def same_bytes(self, other: "Resolved") -> bool:
        return self.keys == other.keys and self.probabilities.tobytes() == other.probabilities.tobytes()

    def same_answer(self, other: "Resolved", tolerance: float = 1e-9) -> bool:
        """Same pair keys in order, same match set, probabilities to round-off."""
        return (
            self.keys == other.keys
            and self.matches == other.matches
            and bool(np.all(np.abs(self.probabilities - other.probabilities) <= tolerance))
        )


def drain(stream) -> Resolved:
    """Consume a ``resolve_stream``/``resolve_delta`` iterator completely.

    Batches are kept in the order they were yielded (the engine's
    ``merge_scored_batches`` would sort them), because the order is part of
    what the identity checks compare.
    """
    batches = list(stream)
    keys = [pair.key() for batch in batches for pair in batch.pairs]
    probabilities = (
        np.concatenate([np.asarray(batch.probabilities, dtype=np.float64) for batch in batches])
        if batches else np.zeros(0)
    )
    matches = {pair.key() for batch in batches for pair in batch.matches()}
    return Resolved(keys, probabilities, matches)


def truth_pairs(task) -> Set[PairKey]:
    """Ground-truth duplicate pairs of the task's *current* tables.

    Read from entity ids rather than the generator's ``duplicate_map`` so it
    stays right after rows are edited (new entity) or deleted.
    """
    right_of: Dict[str, List[str]] = {}
    for record in task.right:
        if record.entity_id is not None:
            right_of.setdefault(record.entity_id, []).append(record.record_id)
    return {
        (record.record_id, right_id)
        for record in task.left
        if record.entity_id is not None
        for right_id in right_of.get(record.entity_id, ())
    }


@dataclass
class Quality:
    recall_at_k: float
    match_recall: float
    f1: float


def quality(truth: Set[PairKey], candidates, matches: Set[PairKey]) -> Quality:
    """Blocking recall, match-set recall and match-set F1 against ``truth``."""
    hit = len(truth & matches)
    precision = hit / len(matches) if matches else 0.0
    recall = hit / len(truth) if truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Quality(
        recall_at_k=len(truth & set(candidates)) / len(truth) if truth else 0.0,
        match_recall=recall,
        f1=f1,
    )


def load_system() -> None:
    """Import everything the workloads call, so imports are paid in set-up."""
    import repro.core.active.oracle  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.data.generators  # noqa: F401
    import repro.serve  # noqa: F401


def generate(ctx: Context, name: str, scale: float):
    """The registry's own dataset for ``name`` (its fixed per-domain seed).

    The base tables and labels are the repository's stand-ins for the paper's
    Table II datasets, the same on every run, so model fitting costs the same
    on every seed; ``--seed`` drives everything laid over them — grown rows,
    mutations, request order, and ``cold_session``'s labelled split.
    """
    from repro.data.generators import load_domain

    with ctx.tracer.span("data.generate"):
        return load_domain(name, scale=scale)


def grow(ctx: Context, domain, rows: int) -> None:
    """Grow both tables to ``rows`` with fresh entities (``append_rows``)."""
    from repro.data.generators import append_rows

    for side, table in (("left", domain.task.left), ("right", domain.task.right)):
        missing = rows - len(table)
        if missing > 0:
            with ctx.tracer.span("data.append") as span:
                append_rows(domain, side, missing, seed=ctx.sub_seed(f"grow-{side}"))
                if span is not None:
                    span.count = missing


def fit(ctx: Context, domain):
    """A ``VAER`` with representation and matcher fitted on ``domain``."""
    from repro.core.pipeline import VAER

    model = VAER(model_config(ctx.sizes))
    model.fit_representation(domain.task)
    model.fit_matcher(domain.splits.train, domain.splits.validation)
    return model


def adopt(ctx: Context, fitted, task, cache_dir: Optional[Path] = None, codec: Optional[str] = None):
    """A fresh ``VAER`` (new store, no baseline) around an already fitted model."""
    from repro.core.pipeline import VAER

    model = VAER(model_config(ctx.sizes), cache_dir=cache_dir, codec=codec)
    model.representation = fitted.representation
    model.matcher = fitted.matcher
    model.threshold = fitted.threshold
    model.task = task
    return model


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


@dataclass
class Pass:
    """What one pass through a workload's timed body measured."""

    phase_a_s: float
    phase_b_s: float
    quality: Quality


class Workload:
    """What the worker drives: ``setup``, ``run_pass`` until time is up, ``finish``."""

    name: str
    #: A fitted pipeline the layer probes of a traced run may inspect.
    model = None
    #: Peak RSS of the process running the engine when that is not the worker.
    peak_rss_mb: Optional[float] = None
    #: Span totals recorded in a child process, and the p50 point latency they
    #: are read against (``serve_mixed``).
    daemon_totals: Dict = {}
    point_p50_s: Optional[float] = None

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def run_pass(self, ctx: Context) -> Pass:
        raise NotImplementedError

    def finish(self, ctx: Context) -> None:
        """Final output checks and an orderly release of what set-up started."""

    def stop(self) -> None:
        """Stop child processes; also runs when the run failed."""

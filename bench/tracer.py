"""Benchmark-side tracer: spans around the calls into each layer.

The program under test is not edited.  For a traced run the benchmark swaps
the layers' public functions for wrappers (:data:`LAYER_CALLS`) that record a
span ``{name, start, end, parent}`` around the original call, so the traced
program *is* the engine path — a composition re-written by hand could drift
from it.  Spans are kept in memory and written out when the run ends; a
layer's self time is its span's duration minus its direct children.

With tracing off (:class:`Tracer` constructed with ``enabled=False``)
``span()`` returns a shared no-op context and nothing is patched, so the
workload code is the same in both kinds of run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Root spans the workloads open themselves; every other span nests in one.
PHASES = ("setup", "phase_a", "phase_b", "check", "probe", "daemon")


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    phase: str
    thread: int
    start: float
    end: float = 0.0
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _first_arg_rows(args, kwargs, result) -> int:
    """Rows of the first argument after ``self`` (vectors, pairs, IRs)."""
    return len(args[1]) if len(args) > 1 and args[1] is not None else 0


def _ir_values(args, kwargs, result) -> int:
    return int(result.shape[0] * result.shape[1])


#: (module, class or None, attribute, span name, count of work items or None).
#: The span name's dotted prefix is the layer the self time is charged to.
LAYER_CALLS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.text.ir", "IRGenerator", "fit", "text.ir_fit", None),
    ("repro.text.ir", "IRGenerator", "transform_table", "text.ir_transform", _ir_values),
    ("repro.core.representation", "EntityRepresentationModel", "fit", "core.representation.fit", None),
    ("repro.core.vae", "VariationalAutoEncoder", "encode_numpy", "core.vae.encode", _first_arg_rows),
    ("repro.core.matcher", "SiameseMatcher", "fit", "core.matcher.fit", None),
    ("repro.core.matcher", "SiameseMatcher", "predict_proba", "core.matcher.score", _first_arg_rows),
    ("repro.core.active.loop", "ActiveLearningLoop", "run", "core.active.loop", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "build", "blocking.lsh.build", _first_arg_rows),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "prepare", "blocking.lsh.build", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "hash_rows", "blocking.lsh.build", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "install_tables", "blocking.lsh.build", None),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "query_batch", "blocking.lsh.query", _first_arg_rows),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "extend", "blocking.lsh.extend", _first_arg_rows),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "patch", "blocking.lsh.patch", _first_arg_rows),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "remove", "blocking.lsh.remove", _first_arg_rows),
    ("repro.blocking.lsh", "EuclideanLSHIndex", "compact", "blocking.lsh.build", None),
    ("repro.blocking.neighbours", "NearestNeighbourSearch", "top_k", "blocking.assemble", None),
    ("repro.blocking.neighbours", "NearestNeighbourSearch", "candidate_pairs", "blocking.assemble", None),
    ("repro.engine.store", "EncodingStore", "table_encodings", "engine.store.encode", None),
    ("repro.engine.store", "EncodingStore", "gather_pair_irs", "engine.store.gather", _first_arg_rows),
    ("repro.engine.persist", "PersistentEncodingCache", "save", "engine.persist.save", None),
    ("repro.engine.persist", "PersistentEncodingCache", "extend", "engine.persist.save", None),
    ("repro.engine.persist", "PersistentEncodingCache", "load", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "load_range", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "load_prefix", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "load_reused", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "delta", "engine.persist.load", None),
    ("repro.engine.persist", "PersistentEncodingCache", "patch", "engine.persist.patch", None),
    ("repro.engine.quant", "ScalarQuantizer", "fit", "engine.quant.fit_encode", None),
    ("repro.engine.quant", "ScalarQuantizer", "encode", "engine.quant.fit_encode", None),
    ("repro.engine.quant", "ProductQuantizer", "fit", "engine.quant.fit_encode", None),
    ("repro.engine.quant", "ProductQuantizer", "encode", "engine.quant.fit_encode", None),
    ("repro.engine.quant", "CodecParams", "encode_values", "engine.quant.fit_encode", None),
    ("repro.engine.quant", "PQParams", "encode_values", "engine.quant.fit_encode", None),
    ("repro.engine.quant", "CodecParams", "decode_codes", "engine.quant.decode", _first_arg_rows),
    ("repro.engine.quant", "PQParams", "decode_codes", "engine.quant.decode", _first_arg_rows),
    ("repro.engine.quant", None, "asymmetric_sq_distances", "engine.quant.adc", None),
    ("repro.engine.plan", "ResolutionPlanner", "plan", "engine.plan.plan", None),
    ("repro.serve.session", "ServeSession", "start", "serve.session_start", None),
    ("repro.serve.session", "ServeSession", "resolve", "serve.resolve", None),
    ("repro.serve.session", "ServeSession", "query_records", "serve.query", None),
    ("repro.serve.session", "ServeSession", "mutate", "serve.refresh", None),
)


class Tracer:
    """Collects spans; patches the layer calls while installed."""

    def __init__(self, enabled: bool, default_phase: Optional[str] = None) -> None:
        self.enabled = enabled
        #: Phase of spans opened on a thread with no root span (the daemon's
        #: request threads); ``None`` makes such a span a nesting problem.
        self.default_phase = default_phase
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span (a no-op when disabled)."""
        if not self.enabled:
            return nullcontext()
        return self._record(name)

    @contextmanager
    def _record(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent else None,
            phase=parent.phase if parent else (name if name in PHASES else self.default_phase or "unrooted"),
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every call in :data:`LAYER_CALLS` (no-op when disabled)."""
        if not self.enabled or self._patched:
            return self
        for module_name, class_name, attribute, name, count in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrapper(original, name, count))
            self._patched.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _wrapper(self, original, name: str, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer._record(name) as span:
                result = original(*args, **kwargs)
                if count is not None:
                    span.count = count(args, kwargs, result)
                return result

        return traced

    # ------------------------------------------------------------------
    def write(self, path: Path, workload: str, run: str) -> None:
        """One JSON object per span: name, start, end, parent, workload, run."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "phase": span.phase, "thread": span.thread,
                    "count": span.count, "workload": workload, "run": run,
                }) + "\n")


# ----------------------------------------------------------------------
# Reading spans
# ----------------------------------------------------------------------
@dataclass
class Total:
    """Everything recorded under one ``(span name, phase)``."""

    self_s: float = 0.0
    duration_s: float = 0.0
    calls: int = 0
    count: int = 0

    def add(self, other: "Total") -> None:
        self.self_s += other.self_s
        self.duration_s += other.duration_s
        self.calls += other.calls
        self.count += other.count


Totals = Dict[Tuple[str, str], Total]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the direct children's durations."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


def totals_of(spans: List[Span]) -> Totals:
    """Aggregate spans by ``(name, phase)``.

    ``duration_s`` counts only outermost spans of a name, so a function that
    calls a same-named one (``build`` -> ``prepare``) is not counted twice.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    totals: Totals = {}
    for span in spans:
        total = totals.setdefault((span.name, span.phase), Total())
        total.self_s += own[span.id]
        total.calls += 1
        total.count += span.count
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            total.duration_s += span.duration
    return totals


def totals_to_json(totals: Totals) -> List[List[object]]:
    return [[name, phase, t.self_s, t.duration_s, t.calls, t.count] for (name, phase), t in totals.items()]


def totals_from_json(rows: List[List[object]]) -> Totals:
    return {(str(r[0]), str(r[1])): Total(float(r[2]), float(r[3]), int(r[4]), int(r[5])) for r in rows}


def nesting_problems(spans: List[Span]) -> List[str]:
    """Spans must close after they open, inside their parent, on its thread."""
    by_id = {span.id: span for span in spans}
    problems: List[str] = []
    for span in spans:
        if span.end < span.start:
            problems.append(f"span {span.id} {span.name} ends before it starts")
        if span.parent is None:
            if span.phase not in PHASES:
                problems.append(f"span {span.id} {span.name} has no phase root")
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.id} {span.name} names a missing parent {span.parent}")
        elif parent.thread != span.thread or span.start < parent.start or span.end > parent.end:
            problems.append(f"span {span.id} {span.name} is not inside its parent {parent.name}")
    return problems

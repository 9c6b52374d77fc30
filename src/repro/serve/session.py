"""Warm resolution sessions: the state machine behind the match daemon.

A :class:`ServeSession` wraps a fitted :class:`repro.core.pipeline.VAER`
and keeps its warm artefacts — the encoding store, the LSH index and the
delta :class:`~repro.engine.ResolutionBaseline` — alive across requests, so
a point query costs a dictionary lookup and a mutation costs one delta
resolve instead of a cold rebuild.

Concurrency model (the snapshot-isolation contract the server documents):

* **Snapshots are immutable.**  Every fully drained delta resolve publishes
  a frozen :class:`Snapshot` carrying the complete scored-pair stream in
  candidate-enumeration order plus the ``(generation, encoding_version,
  index_mutations)`` triple it was computed under.  Readers grab the
  current snapshot with one atomic attribute read and keep answering from
  it even while a mutation is mid-flight — they never observe a half
  -applied mutation.
* **Mutations are single-writer.**  All ingest/edit/delete traffic funnels
  through one queue drained by one writer thread; each job applies its
  table mutations and refreshes the baseline through the delta engine
  (``Table.replace/remove/add`` → ``EuclideanLSHIndex.remove/patch/extend``
  → cache ``patch()``/tombstones) under an exclusive lock, then swaps the
  snapshot pointer.  Two concurrent mutations can therefore never interleave.
* **Ad-hoc queries share-lock the live index.**  ``query_records`` encodes
  records that are not part of the task and ranks them against the live
  (in-place mutated) LSH index, so it holds the read side of a
  readers-writer lock for the duration of the search; snapshot reads need
  no lock at all.

Every refresh runs serially in the writer thread, so the session holds
no worker pool.  Shutdown drains the queue (pending mutations complete,
late ones are refused) and joins the writer.
Persistent-cache manifests are flushed synchronously by each mutation's
write-then-rename, so a drained queue implies a consistent on-disk cache.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.blocking.neighbours import NearestNeighbourSearch
from repro.data.schema import Record, Table
from repro.engine import merge_scored_batches
from repro.engine.store import distinct_rows, encode_table_rows
from repro.eval.timing import StageTimings, engine_counters


def process_rss_bytes() -> Optional[int]:
    """Resident set size of this process in bytes (stdlib only).

    Reads ``/proc/self/status`` where procfs exists (Linux), falling back
    to ``resource.getrusage`` (``ru_maxrss`` is the *peak*, in KiB on
    Linux, bytes on macOS); returns ``None`` where neither works.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak) if sys.platform == "darwin" else int(peak) * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return None


class ServeError(ValueError):
    """A request the session cannot honour (bad payload, unknown record)."""


class ServeSessionClosed(RuntimeError):
    """The session is shutting down; no further mutations are accepted."""


class _ReadWriteLock:
    """Readers-writer lock with writer preference.

    Many concurrent readers, one exclusive writer; new readers queue behind
    a waiting writer so a steady query stream cannot starve mutations.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
                self._writing = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


@dataclass(frozen=True)
class Snapshot:
    """One immutable, fully consistent view of the resolved task.

    ``pairs`` is the complete scored candidate stream in the engine's
    deterministic enumeration order — exactly the concatenation a batch
    ``VAER.resolve_delta`` over the same table state yields, which is what makes
    daemon answers byte-comparable to the batch oracle.
    """

    generation: int
    encoding_version: int
    index_mutations: int
    threshold: float
    left_rows: int
    right_rows: int
    pairs: Tuple[Tuple[str, str, float], ...]
    by_left: Mapping[str, Tuple[Tuple[str, float], ...]]
    match_count: int

    def pairs_for(self, left_ids: Optional[Sequence[str]] = None) -> List[Tuple[str, str, float]]:
        """The scored pairs of ``left_ids`` (all pairs when ``None``).

        Selection preserves enumeration order; unknown left ids simply
        contribute nothing (a record with no candidates is not an error).
        """
        if left_ids is None:
            return list(self.pairs)
        selected: List[Tuple[str, str, float]] = []
        for left_id in left_ids:
            for right_id, probability in self.by_left.get(str(left_id), ()):
                selected.append((str(left_id), right_id, probability))
        return selected


@dataclass(frozen=True)
class MutationSpec:
    """One validated ingest/edit/delete request against one side's table."""

    side: str = "right"
    ingest: Tuple[Record, ...] = ()
    edit: Tuple[Record, ...] = ()
    delete: Tuple[str, ...] = ()

    @staticmethod
    def _records(payload: object, field_name: str) -> Tuple[Record, ...]:
        if payload is None:
            return ()
        if not isinstance(payload, list):
            raise ServeError(f"{field_name!r} must be a list of record objects")
        records: List[Record] = []
        for item in payload:
            if not isinstance(item, dict) or "record_id" not in item or "values" not in item:
                raise ServeError(
                    f"each {field_name!r} entry needs 'record_id' and 'values'"
                )
            values = item["values"]
            if not isinstance(values, (list, tuple)):
                raise ServeError(f"record {item['record_id']!r}: 'values' must be a list")
            records.append(Record(
                record_id=str(item["record_id"]),
                values=tuple(str(value) for value in values),
                entity_id=item.get("entity_id"),
            ))
        return tuple(records)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "MutationSpec":
        """Parse and validate one ``/mutate`` JSON body."""
        if not isinstance(payload, dict):
            raise ServeError("mutation body must be a JSON object")
        side = str(payload.get("side", "right"))
        if side not in ("left", "right"):
            raise ServeError(f"side must be 'left' or 'right', got {side!r}")
        delete = payload.get("delete")
        if delete is None:
            delete = ()
        elif isinstance(delete, list):
            delete = tuple(str(record_id) for record_id in delete)
        else:
            raise ServeError("'delete' must be a list of record ids")
        spec = cls(
            side=side,
            ingest=cls._records(payload.get("ingest"), "ingest"),
            edit=cls._records(payload.get("edit"), "edit"),
            delete=delete,
        )
        if not (spec.ingest or spec.edit or spec.delete):
            raise ServeError("mutation needs at least one of 'ingest', 'edit', 'delete'")
        return spec


@dataclass(frozen=True)
class MutationReport:
    """What one applied mutation did, as returned to the requester."""

    generation: int
    side: str
    ingested: int
    edited: int
    deleted: int
    rows_reencoded: int
    rows_tombstoned: int
    pairs_rescored: int
    pairs: int
    matches: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "side": self.side,
            "ingested": self.ingested,
            "edited": self.edited,
            "deleted": self.deleted,
            "rows_reencoded": self.rows_reencoded,
            "rows_tombstoned": self.rows_tombstoned,
            "pairs_rescored": self.pairs_rescored,
            "pairs": self.pairs,
            "matches": self.matches,
        }


_SENTINEL = object()


@dataclass
class _Job:
    spec: MutationSpec
    done: threading.Event = field(default_factory=threading.Event)
    report: Optional[MutationReport] = None
    error: Optional[BaseException] = None


class ServeSession:
    """A warm, mutable resolution session over one fitted pipeline.

    ``start()`` pays the cold resolve once (capturing the delta baseline
    and snapshot generation 0) and spawns the single writer thread; after
    that, point queries answer from the current :class:`Snapshot` and
    mutations queue through :meth:`mutate`.
    """

    def __init__(
        self,
        model,
        k: Optional[int] = None,
        batch_size: int = 2048,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if model.task is None:
            raise ValueError("model must be fitted to a task before serving")
        self.model = model
        self.task = model.task
        self.k = int(k) if k is not None else int(model.config.active_learning.top_neighbours)
        if self.k <= 0:
            raise ValueError("k must be positive")
        self.batch_size = int(batch_size)
        self._snapshot: Optional[Snapshot] = None
        self._generation = -1
        self._index_lock = _ReadWriteLock()
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._writer: Optional[threading.Thread] = None
        self._closed = False
        self._close_lock = threading.Lock()
        self._started_at = time.monotonic()
        self._mutations_applied = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeSession":
        """Warm up (cold resolve + snapshot 0) and start the writer thread."""
        if self._writer is not None:
            return self
        self._refresh()
        self._writer = threading.Thread(
            target=self._writer_loop, name="serve-writer", daemon=True
        )
        self._writer.start()
        return self

    def close(self) -> None:
        """Graceful shutdown: refuse new mutations, drain the queue.

        Pending mutations complete (their requesters get real reports);
        anything enqueued after the close flag flips is failed with
        :class:`ServeSessionClosed`.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_SENTINEL)
        if self._writer is not None:
            self._writer.join()
            self._writer = None

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> Snapshot:
        """The current immutable snapshot (raises before :meth:`start`)."""
        snapshot = self._snapshot
        if snapshot is None:
            raise RuntimeError("session not started; call start() first")
        return snapshot

    def resolve(self, left_ids: Optional[Sequence[str]] = None) -> Tuple[Snapshot, List[Tuple[str, str, float]]]:
        """Point query: the scored pairs of ``left_ids`` under one snapshot.

        Wait-free — a single atomic snapshot read plus dictionary lookups,
        so the per-request cost depends on the answer size, not the table
        size, and is untouched by concurrent mutations.
        """
        snapshot = self.snapshot
        return snapshot, snapshot.pairs_for(left_ids)

    def query_records(
        self,
        records: Sequence[Record],
        k: Optional[int] = None,
    ) -> Tuple[Snapshot, List[Dict[str, object]]]:
        """Resolve ad-hoc records (a micro-batch) against the live right table.

        The records are encoded through the same representation model as the
        task's rows, ranked against the live LSH index, and their candidate
        pairs scored by the matcher — the interactive "resolve this record
        now" path.  Holds the read side of the index lock, so results are
        consistent with exactly one snapshot generation.
        """
        if not records:
            raise ServeError("query needs at least one record")
        top = int(k) if k is not None else self.k
        if top <= 0:
            raise ServeError("k must be positive")
        matcher = self.model._require_matcher()
        representation = self.model._require_representation()
        arity = self.task.arity
        for record in records:
            if len(record.values) != arity:
                raise ServeError(
                    f"record {record.record_id!r} has {len(record.values)} values, "
                    f"task schema has {arity}"
                )
        probe = Table(f"{self.task.name}-query", self.task.left.attributes, list(records))
        with self._index_lock.read():
            snapshot = self.snapshot
            baseline = self.model.baseline
            if baseline is None:  # pragma: no cover - start() always captures one
                raise RuntimeError("session has no baseline; call start() first")
            irs, mu, _ = encode_table_rows(representation, probe)
            search = NearestNeighbourSearch.from_index(
                baseline.index, config=self.model.config.blocking
            )
            results = search.top_k(
                mu.reshape(len(records), -1),
                [record.record_id for record in records],
                k=top,
            )
            right = self.model.store.table_encodings("right")
            answers: List[Dict[str, object]] = []
            pending: List[Tuple[int, int, str, float]] = []
            for position, result in enumerate(results):
                candidates: List[Dict[str, object]] = []
                answers.append({
                    "record_id": str(result.query_key),
                    "candidates": candidates,
                })
                for right_key, distance in result.neighbours:
                    row = right.row_index.get(str(right_key))
                    if row is None:  # pragma: no cover - index/store drift guard
                        continue
                    pending.append((position, row, str(right_key), float(distance)))
            if pending:
                left_rows = np.array([position for position, _, _, _ in pending], dtype=np.intp)
                right_rows = np.array([row for _, row, _, _ in pending], dtype=np.intp)
                probabilities = matcher.predict_proba(irs, right.irs, rows=(left_rows, right_rows))
                self.model.store.counters.record_records_scored(distinct_rows(left_rows, right_rows))
                for (position, _, right_key, distance), probability in zip(pending, probabilities):
                    answers[position]["candidates"].append({
                        "right_id": right_key,
                        "probability": float(probability),
                        "distance": distance,
                        "match": bool(float(probability) > snapshot.threshold),
                    })
        return snapshot, answers

    def stats(self) -> Dict[str, object]:
        """Operational counters for the ``/stats`` endpoint."""
        snapshot = self._snapshot
        try:
            store = self.model.store
            store_codec: Optional[str] = store.codec_name
            store_resident: Optional[int] = store.resident_bytes()
        except Exception:  # pragma: no cover - unfitted model edge
            store_codec, store_resident = None, None
        return {
            "task": self.task.name,
            "generation": None if snapshot is None else snapshot.generation,
            "encoding_version": None if snapshot is None else snapshot.encoding_version,
            "index_mutations": None if snapshot is None else snapshot.index_mutations,
            "pairs": None if snapshot is None else len(snapshot.pairs),
            "matches": None if snapshot is None else snapshot.match_count,
            "left_rows": len(self.task.left),
            "right_rows": len(self.task.right),
            "queue_depth": self._queue.qsize(),
            "mutations_applied": self._mutations_applied,
            "uptime_seconds": time.monotonic() - self._started_at,
            "closed": self._closed,
            # Memory picture: what the resident encodings cost (codes for a
            # quantized store, floats for raw) and what the process pays.
            "store_codec": store_codec,
            "store_resident_bytes": store_resident,
            "process_rss_bytes": process_rss_bytes(),
            # What blocking did since the process started: queries, how many
            # fell back to a linear scan, candidate distances computed.
            **{
                name: value
                for name, value in engine_counters().as_dict().items()
                if name.startswith("blocking_")
            },
        }

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def mutate(self, spec: MutationSpec, timeout: Optional[float] = None) -> MutationReport:
        """Apply one mutation through the single-writer queue and wait.

        Blocks until the writer thread has applied the tables' changes and
        refreshed the snapshot (or failed); raises the writer's error in
        the caller so bad payloads surface on the requesting connection.
        """
        if self._closed:
            raise ServeSessionClosed(f"session for task {self.task.name!r} is closed")
        if self._writer is None:
            raise RuntimeError("session not started; call start() first")
        job = _Job(spec)
        self._queue.put(job)
        if not job.done.wait(timeout):
            raise TimeoutError("mutation not applied within timeout")
        if job.error is not None:
            raise job.error
        assert job.report is not None
        return job.report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SENTINEL:
                break
            assert isinstance(job, _Job)
            try:
                job.report = self._apply(job.spec)
            except BaseException as exc:  # noqa: BLE001 - surfaced to the requester
                job.error = exc
            finally:
                job.done.set()
        # Fail any stragglers that raced the close flag so no requester hangs.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is _SENTINEL or not isinstance(job, _Job):
                continue
            job.error = ServeSessionClosed(
                f"session for task {self.task.name!r} closed before the mutation ran"
            )
            job.done.set()

    def _apply(self, spec: MutationSpec) -> MutationReport:
        table = self.task.left if spec.side == "left" else self.task.right
        # Validate the whole request before touching the table, so a bad
        # entry cannot leave a half-applied mutation behind (the requester
        # gets a 400, the table state is exactly what it was).
        arity = table.arity
        for record in spec.edit:
            if record.record_id not in table:
                raise ServeError(f"edit: record {record.record_id!r} not in table {table.name!r}")
            if len(record.values) != arity:
                raise ServeError(f"edit: record {record.record_id!r} has arity {len(record.values)}, expected {arity}")
        pending_deletes = set()
        for record_id in spec.delete:
            if record_id not in table:
                raise ServeError(f"delete: record {record_id!r} not in table {table.name!r}")
            pending_deletes.add(record_id)
        seen_ingest = set()
        for record in spec.ingest:
            if record.record_id in seen_ingest:
                raise ServeError(f"ingest: record id {record.record_id!r} appears twice")
            seen_ingest.add(record.record_id)
            if record.record_id in table and record.record_id not in pending_deletes:
                raise ServeError(f"ingest: duplicate record id {record.record_id!r} in table {table.name!r}")
            if len(record.values) != arity:
                raise ServeError(f"ingest: record {record.record_id!r} has arity {len(record.values)}, expected {arity}")
        with self._index_lock.write():
            for record in spec.edit:
                table.replace(record)
            for record_id in spec.delete:
                table.remove(record_id)
            for record in spec.ingest:
                table.add(record)
            snapshot, stage = self._refresh_locked()
        self._mutations_applied += 1
        return MutationReport(
            generation=snapshot.generation,
            side=spec.side,
            ingested=len(spec.ingest),
            edited=len(spec.edit),
            deleted=len(spec.delete),
            rows_reencoded=stage.counter("rows_reencoded"),
            rows_tombstoned=stage.counter("rows_tombstoned"),
            pairs_rescored=stage.counter("pairs_rescored"),
            pairs=len(snapshot.pairs),
            matches=snapshot.match_count,
        )

    def _refresh(self) -> Snapshot:
        with self._index_lock.write():
            snapshot, _ = self._refresh_locked()
        return snapshot

    def _refresh_locked(self) -> Tuple[Snapshot, StageTimings]:
        """Drain one delta resolve and publish the resulting snapshot.

        Caller holds the index write lock: the executor mutates the
        LSH index and the encoding store in place while it runs, and the
        snapshot pointer swap is the linearisation point for readers.
        """
        stage = StageTimings()
        batches = list(self.model.resolve_delta(
            k=self.k, batch_size=self.batch_size, stage_timings=stage,
        ))
        merged = merge_scored_batches(batches)
        pairs: List[Tuple[str, str, float]] = []
        by_left: Dict[str, List[Tuple[str, float]]] = {}
        matches = 0
        for pair, probability in zip(merged.pairs, merged.probabilities):
            probability = float(probability)
            left_id, right_id = str(pair.left_id), str(pair.right_id)
            pairs.append((left_id, right_id, probability))
            by_left.setdefault(left_id, []).append((right_id, probability))
            if probability > self.model.threshold:
                matches += 1
        baseline = self.model.baseline
        self._generation += 1
        snapshot = Snapshot(
            generation=self._generation,
            encoding_version=self.model.store.representation.encoding_version,
            index_mutations=0 if baseline is None else baseline.index.mutations,
            threshold=float(self.model.threshold),
            left_rows=len(self.task.left),
            right_rows=len(self.task.right),
            pairs=tuple(pairs),
            by_left={left: tuple(entries) for left, entries in by_left.items()},
            match_count=matches,
        )
        self._snapshot = snapshot
        return snapshot, stage

"""Stdlib HTTP front-end for a :class:`~repro.serve.session.ServeSession`.

The wire protocol is deliberately tiny — JSON request/response bodies over
``http.server`` (no dependencies beyond the standard library):

========  ==========  ====================================================
method    path        semantics
========  ==========  ====================================================
GET       /health     liveness + the current snapshot coordinates
GET       /stats      operational counters (queue depth, uptime, pairs)
POST      /resolve    point query: scored pairs for ``left_ids`` (or all)
POST      /query      resolve ad-hoc records against the live right table
POST      /mutate     ingest/edit/delete through the single-writer queue
POST      /shutdown   graceful shutdown (drain, flush, stop)
========  ==========  ====================================================

Every response carries the ``(generation, encoding_version,
index_mutations)`` triple of the snapshot it was answered under, so a
client interleaving queries with mutations can tell exactly which table
state produced each answer.  Floats are serialised with :func:`json.dumps`
(shortest-repr round-trip), so probabilities survive the wire bit-exactly —
the property the byte-identity tests against the batch oracle rely on.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.data.schema import Record
from repro.serve.session import (
    MutationSpec,
    ServeError,
    ServeSession,
    ServeSessionClosed,
    Snapshot,
)

#: Largest accepted request body; a point-query protocol has no business
#: receiving multi-megabyte payloads, and the cap bounds a stuck client.
MAX_BODY_BYTES = 8 * 1024 * 1024


def _snapshot_header(snapshot: Snapshot) -> Dict[str, object]:
    return {
        "generation": snapshot.generation,
        "encoding_version": snapshot.encoding_version,
        "index_mutations": snapshot.index_mutations,
        "threshold": snapshot.threshold,
    }


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def _session(self) -> ServeSession:
        return self.server.match_server.session  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _read_body(self) -> Optional[Dict[str, object]]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Quiet by default; the CLI front-end decides what to print."""
        quiet = getattr(self.server, "quiet", True)  # type: ignore[attr-defined]
        if not quiet:  # pragma: no cover - exercised only by the CLI
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        session = self._session()
        if self.path == "/health":
            try:
                snapshot = session.snapshot
            except RuntimeError:
                self._error(503, "session warming up")
                return
            payload: Dict[str, object] = {"status": "ok", "task": session.task.name}
            payload.update(_snapshot_header(snapshot))
            payload.update({
                "left_rows": snapshot.left_rows,
                "right_rows": snapshot.right_rows,
                "pairs": len(snapshot.pairs),
                "matches": snapshot.match_count,
            })
            self._reply(200, payload)
        elif self.path == "/stats":
            self._reply(200, session.stats())
        else:
            self._error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        session = self._session()
        payload = self._read_body()
        if payload is None:
            return
        try:
            if self.path == "/resolve":
                self._handle_resolve(session, payload)
            elif self.path == "/query":
                self._handle_query(session, payload)
            elif self.path == "/mutate":
                self._handle_mutate(session, payload)
            elif self.path == "/shutdown":
                self._reply(200, {"status": "shutting down", "task": session.task.name})
                self.server.match_server.shutdown_async()  # type: ignore[attr-defined]
            else:
                self._error(404, f"unknown path {self.path!r}")
        except ServeSessionClosed as exc:
            self._error(503, str(exc))
        except ServeError as exc:
            self._error(400, str(exc))

    # ------------------------------------------------------------------
    def _handle_resolve(self, session: ServeSession, payload: Dict[str, object]) -> None:
        left_ids = payload.get("left_ids")
        if left_ids is not None and not isinstance(left_ids, list):
            raise ServeError("'left_ids' must be a list of record ids")
        snapshot, pairs = session.resolve(
            None if left_ids is None else [str(record_id) for record_id in left_ids]
        )
        body: Dict[str, object] = _snapshot_header(snapshot)
        body["pairs"] = [list(entry) for entry in pairs]
        body["matches"] = sum(1 for _, _, p in pairs if p > snapshot.threshold)
        self._reply(200, body)

    def _handle_query(self, session: ServeSession, payload: Dict[str, object]) -> None:
        raw_records = payload.get("records")
        if not isinstance(raw_records, list) or not raw_records:
            raise ServeError("'records' must be a non-empty list of record objects")
        records = [
            Record(
                record_id=str(item["record_id"]),
                values=tuple(str(value) for value in item["values"]),
            )
            if isinstance(item, dict) and "record_id" in item and "values" in item
            and isinstance(item["values"], (list, tuple))
            else None
            for item in raw_records
        ]
        if any(record is None for record in records):
            raise ServeError("each record needs 'record_id' and a list of 'values'")
        k = payload.get("k")
        if k is not None and not isinstance(k, int):
            raise ServeError("'k' must be an integer")
        snapshot, answers = session.query_records(records, k=k)
        body: Dict[str, object] = _snapshot_header(snapshot)
        body["results"] = answers
        self._reply(200, body)

    def _handle_mutate(self, session: ServeSession, payload: Dict[str, object]) -> None:
        report = session.mutate(MutationSpec.from_payload(payload))
        self._reply(200, report.as_dict())


class MatchServer:
    """The daemon: one warm session behind a threaded stdlib HTTP server."""

    def __init__(
        self,
        session: ServeSession,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        self.session = session
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.match_server = self  # type: ignore[attr-defined]
        self._http.quiet = quiet  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._shut_down = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    def start(self) -> "MatchServer":
        """Serve in a background thread (tests, benchmarks, embedding)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._http.serve_forever, name="serve-http", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (the CLI path)."""
        self._http.serve_forever()

    def shutdown(self) -> None:
        """Graceful stop: drain the mutation queue, then stop the listener.

        The session closes first — new mutations are refused while queued
        ones complete — then the HTTP loop exits.  Idempotent.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        self.session.close()
        self._http.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._http.server_close()

    def shutdown_async(self) -> None:
        """Trigger :meth:`shutdown` off the handler thread (``POST /shutdown``)."""
        threading.Thread(target=self.shutdown, name="serve-shutdown", daemon=True).start()

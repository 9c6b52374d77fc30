"""Resolution as a service: a warm match daemon over the delta engine.

Batch resolution pays the cold setup — encoding, LSH build, baseline
capture — on every CLI invocation.  This package keeps those artefacts
warm in one long-lived process and answers point requests at interactive
latency:

* :class:`ServeSession` — the state machine: an immutable
  :class:`Snapshot` per fully drained delta resolve, a single-writer
  mutation queue applying ingest/edit/delete through the PR 5 mutation
  layer, and a readers-writer lock guarding ad-hoc queries against the
  live in-place-mutated LSH index;
* :class:`MatchServer` — a stdlib ``http.server`` front-end speaking JSON
  bodies (``/health``, ``/stats``, ``/resolve``, ``/query``, ``/mutate``,
  ``/shutdown``);
* :class:`MatchClient` — the matching :mod:`urllib` client used by tests,
  benchmarks and the CI smoke script.

Start one from the CLI with ``python -m repro serve --domain music`` or
programmatically::

    session = ServeSession(model, k=10, batch_size=2048).start()
    server = MatchServer(session, port=0).start()
    ...
    server.shutdown()   # drain queue, flush cache, stop listening
"""

from repro.serve.client import MatchClient, ServeClientError, record_payload
from repro.serve.server import MatchServer
from repro.serve.session import (
    MutationReport,
    MutationSpec,
    ServeError,
    ServeSession,
    ServeSessionClosed,
    Snapshot,
)

__all__ = [
    "MatchClient",
    "MatchServer",
    "MutationReport",
    "MutationSpec",
    "ServeClientError",
    "ServeError",
    "ServeSession",
    "ServeSessionClosed",
    "Snapshot",
    "record_payload",
]

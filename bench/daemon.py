"""The match daemon of ``serve_mixed``, run as a child process.

``python3 -m bench.daemon STATE.pkl TRACE OUT_DIR`` loads the fitted pipeline
the benchmark pickled, starts ``ServeSession`` + ``MatchServer`` on a free
port, prints one JSON line ``{"url", "session_start_s"}`` and serves until
``POST /shutdown`` (or until its stdin closes, so it cannot outlive the
benchmark).  On exit it prints a second JSON line with its peak RSS and, on a
traced run, the per-layer totals of its spans.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
import threading
import time
from pathlib import Path

from bench.spec import BATCH_SIZE, K, require_source_tree
from bench.tracer import Tracer, totals_of, totals_to_json


def main(argv) -> int:
    state_path, trace, out_dir = Path(argv[0]), argv[1] == "1", Path(argv[2])
    require_source_tree()
    from repro.serve import MatchServer, ServeSession

    tracer = Tracer(trace, default_phase="daemon").install()
    # Only bytes the benchmark parent wrote a moment ago are unpickled here.
    with open(state_path, "rb") as handle:
        model = pickle.load(handle)

    started = time.perf_counter()
    with tracer.span("setup"):
        session = ServeSession(model, k=K, batch_size=BATCH_SIZE).start()
    server = MatchServer(session, port=0)
    print(json.dumps({"url": server.url, "session_start_s": time.perf_counter() - started}), flush=True)

    def stop_when_parent_goes() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_when_parent_goes, name="bench-parent-watch", daemon=True).start()
    server.serve_forever()  # returns once shutdown() has closed the session

    tracer.uninstall()
    if trace:
        tracer.write(out_dir / "trace-serve_mixed-daemon.jsonl", "serve_mixed", "daemon")
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "totals": totals_to_json(totals_of(tracer.spans)),
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

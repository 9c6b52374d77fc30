"""The repository benchmark: four workloads, end-to-end metrics, a per-layer trace.

``python3 -m bench run`` (from the repository root) is the single entry
point; ``BENCHMARK.json`` at the root names the workloads and metrics and is
the contract this package prints against.  See ``bench/README.md``.

Nothing here is imported by ``src/repro``; the package only calls the
system's public API, and finds it by putting ``<root>/src`` on ``sys.path``.
"""

"""Environment capture, BLAS thread pinning and allocator pinning, recorded in every result file."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Dict

from bench.spec import ROOT

#: Thread-count variables of the BLAS builds numpy ships with.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: glibc malloc, told to keep freed blocks up to 32 MB (its largest threshold)
#: on the heap rather than hand them back to the kernel.  By default every
#: multi-megabyte temporary of a scoring batch is mapped, zero-filled by page
#: faults and unmapped again, and how long the kernel takes over that varied
#: between identical passes by more than any bound here: serial
#: ``bulk_resolve`` passes ran 0.7-1.4 s unpinned and 0.62-0.69 s pinned, nearly
#: all of the difference in the scoring stage.  Other allocators ignore these.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024), "MALLOC_TRIM_THRESHOLD_": str(4 * 1024 ** 3)}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pinned_environment() -> Dict[str, str]:
    """A copy of ``os.environ`` with the BLAS pools pinned to ``nproc`` and
    the allocator pinned as :data:`MALLOC_VARS` says.

    The variables are read when the process and numpy load, which is why
    every workload runs in a child process started with this environment.
    """
    env = dict(os.environ, **MALLOC_VARS)
    for name in BLAS_THREAD_VARS:
        env[name] = str(nproc())
    return env


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def capture() -> Dict[str, object]:
    """nproc, BLAS vendor/version and pinned threads, Python/numpy, git commit."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get(BLAS_THREAD_VARS[0], "unpinned"),
        "malloc": {name: os.environ.get(name, "unpinned") for name in MALLOC_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "commit": _git_commit(),
    }

"""Distributed multi-node resolution over the shared encoding cache.

A coordinator/worker execution layer that partitions the plan/execute
engine's stage units — LSH partial-bucket builds, query shards, score
batches, delta encode ranges — across N worker processes or hosts that
share only a filesystem (the queue directory and, when one is used, the
encoding cache directory).  :class:`DistributedPool` is a
:class:`repro.engine.WorkerPool`: pass it as ``pool=`` and the one executor
runs its units there.  See :mod:`repro.distrib.coordinator` for the
execution model, :mod:`repro.distrib.queue` for the lease queue and
:mod:`repro.distrib.artifacts` for the content-addressed data plane.

Typical use::

    runtime = DistributedRuntime.file_queue("/shared/queue", workers=4)
    # start workers:  python -m repro worker --queue-dir /shared/queue
    for batch in model.resolve_stream(pool=runtime.pool):
        ...
    runtime.close()

or, one-shot through the CLI::

    python -m repro resolve --domain beer --distributed 4 --queue-dir /shared/queue
"""

from repro.distrib.artifacts import (
    CacheRef,
    DistribStateSpec,
    blob_crc,
    dump_object,
    find_blob,
    load_object,
    read_blob,
    write_blob,
)
from repro.distrib.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    Coordinator,
    DistributedPool,
    DistributedRuntime,
)
from repro.distrib.queue import FileLeaseQueue, WorkUnit
from repro.distrib.worker import Worker, run_worker

__all__ = [
    "CacheRef",
    "Coordinator",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_RETRIES",
    "DistribStateSpec",
    "DistributedPool",
    "DistributedRuntime",
    "FileLeaseQueue",
    "WorkUnit",
    "Worker",
    "blob_crc",
    "dump_object",
    "find_blob",
    "load_object",
    "read_blob",
    "run_worker",
    "write_blob",
]

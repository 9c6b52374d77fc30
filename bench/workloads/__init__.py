"""The four benchmark workloads, by name."""

from bench.workloads.bulk_resolve import BulkResolve
from bench.workloads.cold_session import ColdSession
from bench.workloads.serve_mixed import ServeMixed
from bench.workloads.warm_delta import WarmDelta

WORKLOADS = {cls.name: cls for cls in (ColdSession, BulkResolve, WarmDelta, ServeMixed)}

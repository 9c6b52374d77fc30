"""The work queue: leased units between a coordinator and workers.

:class:`FileLeaseQueue` moves work units (opaque byte payloads, see
:mod:`repro.distrib.artifacts`) from one coordinator to N workers through a
directory on a filesystem they all reach — the same one that holds the
published stage state and the shared encoding cache.  Three subdirectories::

    <root>/units/    unit-<id>-<crc>.bin      (work payloads)
    <root>/leases/   <id>.lease               (claim markers)
    <root>/results/  <id>-<crc>.bin           (result payloads)

A worker claims a unit by creating its lease file with ``O_EXCL`` — exactly
one claimant wins, atomically, with no server.  Liveness is the lease
file's mtime: the worker touches it on a heartbeat interval, and a
coordinator that observes a stale mtime breaks the lease so another worker
can claim the unit.  Results are content-addressed blobs, so a re-dispatched
unit completed twice converges on identical bytes and a torn result (worker
killed mid-write) is indistinguishable from no result.  Because every state
transition is a file, a *restarted* coordinator recovers completed units by
rescanning ``results/``.

The queue has two narrow sides: the *worker* side (``claim`` /
``heartbeat`` / ``complete``) and the *coordinator* side (``submit`` /
``result`` / ``lease_age`` / ``break_lease`` / ``cancel``).
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.distrib.artifacts import find_blob, read_blob, write_blob

PathLike = Union[str, Path]


@dataclass(frozen=True)
class WorkUnit:
    """One leased work item, as handed to a worker."""

    unit_id: str
    payload: bytes


class FileLeaseQueue:
    """Lease-directory queue over a shared filesystem (serverless)."""

    def __init__(self, root: PathLike, worker_id: Optional[str] = None) -> None:
        self.root = Path(root)
        self.units_dir = self.root / "units"
        self.leases_dir = self.root / "leases"
        self.results_dir = self.root / "results"
        for directory in (self.units_dir, self.leases_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    def submit(self, unit_id: str, payload: bytes) -> None:
        """Publish a unit for claiming (idempotent for identical payloads)."""
        write_blob(self.units_dir, unit_id, payload)

    def result(self, unit_id: str) -> Optional[bytes]:
        """The validated result payload of a unit, or ``None``."""
        path = find_blob(self.results_dir, unit_id)
        if path is None:
            return None
        return read_blob(path)

    def discard_result(self, unit_id: str) -> None:
        """Drop a (typically torn) result blob so the unit can run again."""
        path = find_blob(self.results_dir, unit_id)
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass

    def lease_age(self, unit_id: str) -> Optional[float]:
        """Seconds since the unit's lease last heartbeat, or ``None``."""
        try:
            return max(0.0, time.time() - self._lease_path(unit_id).stat().st_mtime)
        except OSError:
            return None

    def break_lease(self, unit_id: str) -> None:
        """Revoke a lease (expired holder), making the unit claimable again."""
        try:
            self._lease_path(unit_id).unlink()
        except OSError:
            pass

    def cancel(self, unit_id: str) -> None:
        """Withdraw a unit entirely (shutdown path)."""
        self.break_lease(unit_id)
        path = find_blob(self.units_dir, unit_id)
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim(self) -> Optional[WorkUnit]:
        """Lease one available unit, or ``None`` when nothing is claimable.

        Availability means: a published unit blob with no live lease file
        and no published result.  The ``O_EXCL`` create of the lease file is
        the atomic claim; losers simply move to the next unit.
        """
        try:
            names = sorted(path.name for path in self.units_dir.iterdir())
        except OSError:
            return None
        for name in names:
            unit_id = self._unit_id_of(name)
            if unit_id is None:
                continue
            if self._lease_path(unit_id).exists():
                continue
            if find_blob(self.results_dir, unit_id) is not None:
                continue
            if not self._try_lease(unit_id):
                continue
            payload = read_blob(self.units_dir / name)
            if payload is None:
                # Torn unit blob: release the claim and let the coordinator
                # republish (its submit is idempotent).
                self.break_lease(unit_id)
                continue
            return WorkUnit(unit_id=unit_id, payload=payload)
        return None

    def heartbeat(self, unit_id: str) -> bool:
        """Refresh the lease's liveness; ``False`` if it was revoked."""
        try:
            os.utime(self._lease_path(unit_id))
            return True
        except OSError:
            return False

    def complete(self, unit_id: str, result: bytes) -> None:
        """Publish a unit's result and release its lease."""
        write_blob(self.results_dir, unit_id, result)
        self.break_lease(unit_id)

    # ------------------------------------------------------------------
    def _lease_path(self, unit_id: str) -> Path:
        return self.leases_dir / f"{unit_id}.lease"

    def _try_lease(self, unit_id: str) -> bool:
        try:
            descriptor = os.open(
                self._lease_path(unit_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        except OSError:
            return False
        try:
            os.write(descriptor, self.worker_id.encode("utf-8", "replace"))
        finally:
            os.close(descriptor)
        return True

    @staticmethod
    def _unit_id_of(blob_name: str) -> Optional[str]:
        if not blob_name.endswith(".bin"):
            return None
        stem = blob_name[: -len(".bin")]
        unit_id, _, crc = stem.rpartition("-")
        if not unit_id or len(crc) != 8:
            return None
        return unit_id

"""Shared-memory state transport of the fork worker pool.

The fork pool (:class:`repro.engine.shard.ForkWorkerPool`) outlives any
single resolve, so its workers cannot inherit stage state by copy-on-write —
the state does not exist yet when the pool's processes are forked.  This
module is the transport instead: :func:`publish_state` pickles a state
object with a pickler that *hoists* every large ndarray into its own
:class:`multiprocessing.shared_memory.SharedMemory` segment (the pickle
stream itself lands in one more segment), and returns the owner handle of a
tiny picklable :class:`StateSpec` naming the segments.  Workers call
:meth:`StateSpec.attach`: the arrays come back as zero-copy NumPy views over
the mapped segments, so publishing a gigabyte of encodings ships gigabytes
through the page cache exactly once and every task afterwards carries only
the spec.

Only the fork pool publishes through here; where
:func:`shared_memory_available` finds the platform cannot provide segments
(``/dev/shm`` missing, sealed sandbox) the local pool is a thread pool,
whose workers share the parent's address space.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

#: Arrays at or above this many bytes are hoisted into their own segment;
#: smaller ones ride along inside the pickled payload, where the fixed
#: per-segment cost (open/mmap/close) would exceed the copy they avoid.
ARRAY_HOIST_BYTES = 1 << 16

#: Worker-side memo depth: attached states are cached per process so every
#: task of a resolve pays the unpickle once, and old resolves' segments are
#: let go once this many newer states have been attached.
ATTACHED_STATE_CACHE = 4

_PID_MARKER = "repro-shm-ndarray"

_available: Optional[bool] = None


def shared_memory_available() -> bool:
    """Whether POSIX shared-memory segments work here (memoized probe)."""
    global _available
    if _available is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _available = True
        except (OSError, ValueError):
            _available = False
    return _available


@dataclass(frozen=True)
class StateSpec:
    """Everything a worker needs to attach one published state.

    Small and picklable by construction — segment *names*, not contents —
    so shipping it with every task costs bytes, not arrays.  Hoisted array
    layout (dtype/shape) travels inside the pickle payload itself via the
    persistent-id records, so the spec only lists segment names for
    accounting.
    """

    token: str
    payload_segment: str
    payload_bytes: int
    arrays: Tuple[str, ...]

    def attach(self) -> object:
        """Materialise the published state in this process (memoized by token).

        Hoisted arrays come back as zero-copy views over the mapped segments;
        everything else is unpickled from the payload segment.  The memo
        keeps the last :data:`ATTACHED_STATE_CACHE` states alive so a worker
        pays the unpickle once per resolve, not once per task.
        """
        cached = _attached.get(self.token)
        if cached is not None:
            _attached.move_to_end(self.token)
            return cached[0]
        attachments: List[shared_memory.SharedMemory] = []
        payload_segment = _open_segment(self.payload_segment)
        attachments.append(payload_segment)
        payload = bytes(payload_segment.buf[: self.payload_bytes])
        state = _AttachingUnpickler(io.BytesIO(payload), attachments).load()
        _attached[self.token] = (state, attachments)
        while len(_attached) > ATTACHED_STATE_CACHE:
            _, (_, old_attachments) = _attached.popitem(last=False)
            for segment in old_attachments:
                _close_segment(segment)
        return state


class _HoistingPickler(pickle.Pickler):
    """Pickler that spills large ndarrays into shared-memory segments."""

    def __init__(self, file: io.BytesIO, segments: List[shared_memory.SharedMemory]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._segments = segments

    def persistent_id(self, obj):  # noqa: D102 - pickle protocol hook
        if (
            isinstance(obj, np.ndarray)
            and obj.nbytes >= ARRAY_HOIST_BYTES
            and not obj.dtype.hasobject
        ):
            data = np.ascontiguousarray(obj)
            segment = shared_memory.SharedMemory(create=True, size=data.nbytes)
            self._segments.append(segment)
            view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
            view[...] = data
            del view  # release the exported buffer so close() can succeed later
            return (_PID_MARKER, segment.name, data.dtype.str, tuple(data.shape))
        return None


class _AttachingUnpickler(pickle.Unpickler):
    """Unpickler resolving hoisted arrays to views over attached segments."""

    def __init__(self, file: io.BytesIO, attachments: List[shared_memory.SharedMemory]) -> None:
        super().__init__(file)
        self._attachments = attachments

    def persistent_load(self, pid):  # noqa: D102 - pickle protocol hook
        marker, name, dtype, shape = pid
        if marker != _PID_MARKER:
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        segment = _open_segment(name)
        self._attachments.append(segment)
        return np.frombuffer(segment.buf, dtype=np.dtype(dtype)).reshape(shape)


def _open_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting ownership of it.

    On Python < 3.13 attaching registers the segment with the resource
    tracker, which would unlink it when the worker exits — destroying a
    segment the publisher still owns.  Worse, the tracker's cache is a set,
    so register/unregister chatter from several workers collapses and the
    publisher's final unlink trips a tracker ``KeyError``.  Suppressing the
    register during attach keeps the tracker's view exactly one
    create/unlink pair per segment, owned by the publisher.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


#: Segments whose unmap failed because live ndarray views still reference
#: their buffer.  The views pin the mapping regardless, so the handle is
#: kept here forever — otherwise its ``__del__`` would retry the close
#: during GC and raise an unraisable ``BufferError``.
_pinned_segments: List[shared_memory.SharedMemory] = []


def _close_segment(segment: shared_memory.SharedMemory) -> None:
    """Close a segment handle, pinning it if exported views block the unmap."""
    try:
        segment.close()
    except BufferError:
        _pinned_segments.append(segment)


class StatePublication:
    """Owner handle of one published state: the spec plus segment lifetimes.

    ``close()`` is idempotent and unlinks every segment; attached workers
    keep their existing mappings (POSIX unlink semantics), so releasing a
    publication after the resolve drains never races in-flight tasks.
    """

    def __init__(self, spec: StateSpec, segments: List[shared_memory.SharedMemory]) -> None:
        self.spec = spec
        self._segments = segments
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            _close_segment(segment)
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


#: Numbers this process's publications; with the pid, a token no other
#: publication a worker could have memoized shares.
_TOKENS = itertools.count()


def publish_state(state: object) -> StatePublication:
    """Pickle ``state`` into shared memory and return the owner handle.

    Large ndarrays anywhere in the object graph (encodings, LSH projections,
    packed bucket tables, model weights) are hoisted into their own
    segments; the residual pickle stream — object structure, keys, scalars —
    lands in one payload segment, so per-task arguments stay a few hundred
    bytes no matter how big the state is.
    """
    segments: List[shared_memory.SharedMemory] = []
    try:
        buffer = io.BytesIO()
        pickler = _HoistingPickler(buffer, segments)
        pickler.dump(state)
        payload = buffer.getbuffer()
        payload_segment = shared_memory.SharedMemory(create=True, size=max(1, payload.nbytes))
        segments.append(payload_segment)
        payload_segment.buf[: payload.nbytes] = payload
        spec = StateSpec(
            token=f"{os.getpid()}-{next(_TOKENS)}",
            payload_segment=payload_segment.name,
            payload_bytes=payload.nbytes,
            arrays=tuple(s.name for s in segments[:-1]),
        )
        return StatePublication(spec, segments)
    except BaseException:
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass
        raise


#: Worker-side memo of attached states: token -> (state, segment handles).
_attached: "OrderedDict[str, Tuple[object, List[shared_memory.SharedMemory]]]" = OrderedDict()


def detach_all() -> None:
    """Drop every memoized attachment (worker teardown / test isolation)."""
    while _attached:
        _, (_, attachments) = _attached.popitem(last=False)
        for segment in attachments:
            _close_segment(segment)

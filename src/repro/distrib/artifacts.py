"""Content-addressed artifacts: the distributed runner's only data plane.

Every payload that crosses a process (or host) boundary in the distributed
runner — work-unit descriptions, published stage state, unit results — is
written as a *blob*: a single file whose name embeds the CRC-32 of its
bytes (``<name>-<crc32>.bin``), written to a temporary sibling and moved
into place with :func:`os.replace`.  The rules that fall out are the whole
correctness story of the transport:

* a blob is valid iff its content CRC matches its filename — a torn or
  truncated write (a worker killed mid-``write``), a half-synced network
  filesystem, or a corrupted disk block all surface as *missing*, never as
  wrong data;
* blobs are content-addressed, so writing the same payload twice (a
  re-dispatched unit completed by both the original and the replacement
  worker) lands on the same path with the same bytes — duplicate completion
  is idempotent by construction;
* readers never need locks: they see either no file or a complete one.

:class:`CacheRef` and :class:`DistribStateSpec` are the codec-aware bridge
to the shared :class:`~repro.engine.persist.PersistentEncodingCache`: a
published stage state whose big arrays are already resident in the shared
cache ships a tiny reference instead of the arrays, and the worker attaches
them through the cache's own loader — int8 entries come back as
:class:`~repro.engine.quant.CodecArray` code views, never rehydrated to
floats in transit.
"""

from __future__ import annotations

import copy
import os
import pickle
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

BLOB_SUFFIX = ".bin"

#: Errors a blob read treats as "missing" (validation does the rest).
_READ_ERRORS = (OSError, ValueError, pickle.UnpicklingError, EOFError, AttributeError, ImportError)


def blob_crc(data: bytes) -> int:
    """The content fingerprint blobs are addressed by."""
    return zlib.crc32(data) & 0xFFFFFFFF


def blob_name(name: str, crc: int) -> str:
    """Filename of a blob: logical name plus content CRC."""
    return f"{name}-{crc:08x}{BLOB_SUFFIX}"


def write_blob(directory: Path, name: str, data: bytes) -> Path:
    """Atomically publish ``data`` under ``name``; returns the final path.

    Content-addressed: if the exact payload is already published the
    existing file is kept (duplicate completions are free).  The temporary
    sibling carries the writer's pid and thread id, so concurrent writers
    of the *same* payload race only at the final ``os.replace`` — which is
    atomic and lands identical bytes either way.
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / blob_name(name, blob_crc(data))
    # Validate, don't just stat: an existing file at the content-addressed
    # path is normally the same bytes (rename is atomic), but in-place disk
    # corruption would otherwise make this republish a silent no-op.
    if path.is_file() and read_blob(path) is not None:
        return path
    temporary = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    return path


def read_blob(path: Path) -> Optional[bytes]:
    """The validated bytes of one blob, or ``None`` on any defect.

    The filename's CRC is recomputed over the content; a mismatch (torn
    write, corruption) reads as *missing*, so callers re-dispatch instead
    of consuming garbage.
    """
    stem = path.name
    if not stem.endswith(BLOB_SUFFIX):
        return None
    try:
        expected = int(stem[: -len(BLOB_SUFFIX)].rsplit("-", 1)[1], 16)
    except (IndexError, ValueError):
        return None
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if blob_crc(data) != expected:
        return None
    return data


def find_blob(directory: Path, name: str) -> Optional[Path]:
    """The published path of ``name``, if any generation of it exists."""
    if not directory.is_dir():
        return None
    prefix = f"{name}-"
    for path in sorted(directory.iterdir()):
        stem = path.name
        if not (stem.startswith(prefix) and stem.endswith(BLOB_SUFFIX)):
            continue
        # The logical name itself may contain dashes; require the remainder
        # to be exactly one 8-hex-digit CRC so "unit-1" never matches
        # "unit-10"'s blobs.
        candidate = stem[len(prefix): -len(BLOB_SUFFIX)]
        if len(candidate) == 8 and all(c in "0123456789abcdef" for c in candidate):
            return path
    return None


def dump_object(obj: Any) -> bytes:
    """Pickle an object for transport (functions ship by reference)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def load_object(data: bytes) -> Any:
    """Inverse of :func:`dump_object` (trusted-cluster assumption: the
    queue directory is as trusted as the code itself)."""
    return pickle.loads(data)


# ----------------------------------------------------------------------
# Cache-aware state shipping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheRef:
    """A pointer into the shared encoding cache replacing an in-state array.

    Resolution goes through the cache's own fingerprint-validated loader,
    so a worker can never pair a stale cache entry with a fresh plan: any
    mismatch loads ``None`` and the unit fails (and is retried / falls back
    serially on the coordinator).  ``array`` names which of the entry's
    arrays stands in (``irs``/``mu``/``sigma``).
    """

    task_name: str
    side: str
    encoding_version: int
    fingerprint: Dict[str, Any]
    array: str = "irs"

    def resolve(self, cache) -> Any:
        encodings = cache.load(
            self.task_name, self.side, self.encoding_version, self.fingerprint
        )
        if encodings is None:
            raise RuntimeError(
                f"shared cache has no matching entry for {self.task_name!r}/"
                f"{self.side}-v{self.encoding_version} (fingerprint mismatch or torn entry)"
            )
        return getattr(encodings, self.array)


_CACHE_HANDLES: Dict[str, object] = {}
_CACHE_LOCK = threading.Lock()


def _cache_for(cache_dir: str):
    """Per-process memo of attached shared caches (one handle per dir)."""
    with _CACHE_LOCK:
        handle = _CACHE_HANDLES.get(cache_dir)
        if handle is None:
            from repro.engine.persist import PersistentEncodingCache

            handle = PersistentEncodingCache(cache_dir)
            _CACHE_HANDLES[cache_dir] = handle
        return handle


#: Worker-side memo of attached states: a unit stream touches at most a
#: couple of live states at once (index build, then query+score), so a
#: small LRU keeps re-attachment free without pinning every job a
#: long-lived worker ever served.
_ATTACHED_STATES: "OrderedDict[str, object]" = OrderedDict()
_ATTACH_DEPTH = 4
_ATTACH_LOCK = threading.Lock()


@dataclass(frozen=True)
class DistribStateSpec:
    """How a remote worker reaches one published stage state.

    ``path`` is the state blob (content-addressed, so the path doubles as
    the state's identity); ``refs`` lists attributes that were stripped
    before pickling and must be re-attached from the shared cache at
    ``cache_dir``.  ``attach`` is what
    :func:`repro.engine.shard.worker_state` calls in the worker.
    """

    path: str
    cache_dir: Optional[str] = None
    refs: Tuple[Tuple[str, CacheRef], ...] = ()

    def attach(self) -> object:
        with _ATTACH_LOCK:
            state = _ATTACHED_STATES.get(self.path)
            if state is not None:
                _ATTACHED_STATES.move_to_end(self.path)
                return state
        data = read_blob(Path(self.path))
        if data is None:
            raise RuntimeError(f"state artifact missing or torn: {self.path}")
        state = load_object(data)
        for attr, ref in self.refs:
            if self.cache_dir is None:
                raise RuntimeError("state carries cache refs but no cache_dir")
            setattr(state, attr, ref.resolve(_cache_for(self.cache_dir)))
        with _ATTACH_LOCK:
            _ATTACHED_STATES[self.path] = state
            _ATTACHED_STATES.move_to_end(self.path)
            while len(_ATTACHED_STATES) > _ATTACH_DEPTH:
                _ATTACHED_STATES.popitem(last=False)
        return state


def strip_cache_refs(
    state: object, refs: Iterable[Tuple[object, CacheRef]]
) -> Tuple[object, Tuple[Tuple[str, CacheRef], ...]]:
    """Replace registered arrays inside ``state`` with cache references.

    Matching is by object identity against the coordinator's registered
    ``(array, ref)`` pairs — the store memoizes its table encodings, so the
    arrays the executor builds its stage state from *are* the registered
    objects when the shared cache holds them.  States without a ``__dict__``
    or without any registered attribute ship unchanged (correctness never
    depends on the substitution; it only shrinks the artifact).
    """
    index = {id(array): ref for array, ref in refs}
    if not index or not hasattr(state, "__dict__"):
        return state, ()
    stripped: List[Tuple[str, CacheRef]] = []
    replaced = None
    for attr, value in list(vars(state).items()):
        ref = index.get(id(value))
        if ref is None:
            continue
        if replaced is None:
            replaced = copy.copy(state)
        setattr(replaced, attr, None)
        stripped.append((attr, ref))
    if replaced is None:
        return state, ()
    return replaced, tuple(stripped)

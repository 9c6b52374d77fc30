"""Persistent on-disk cache of table encodings, chunked by row range.

The in-memory :class:`repro.engine.EncodingStore` already guarantees each
table is encoded at most once *per process*; this module extends that
guarantee *across* processes and runs.  A :class:`PersistentEncodingCache`
serialises :class:`~repro.engine.store.TableEncodings` to row-range-chunked
``.npz`` archives via the same :mod:`repro.nn.serialization` helpers used for
model weights, so a repeated ``resolve`` or harness run on the same task and
representation skips the IR transform and VAE forward pass entirely — and a
consumer that only needs one row-range shard of a huge table reads only the
chunks covering it instead of the whole archive.

A cache entry is a JSON manifest plus archives that numpy reads
---------------------------------------------------------------
One subdirectory per task, one *chunk directory* per (side, encoding
version), holding the manifest plus one archive per row-range chunk::

    <cache_dir>/
        <task-name>/
            left-v4/
                manifest.json
                chunk-0-2048.npz
                chunk-2048-4096.npz
                chunk-2048-4096-g1.npz   (superseding generation of a patch)
                ...
            right-v4/
                ...

The manifest (format :data:`CACHE_FORMAT_VERSION`) carries the entry's
``fingerprint``, its codec and quantization params, the stored ``keys``,
one ``row_crcs`` element per stored row, the ``tombstones`` (stored rows
deleted from the table since), the logical array ``shapes`` and the chunk
list, each chunk ``[start, stop, crc, generation]`` in stored-row
coordinates.  It is written last (write-then-rename), so its presence marks
a complete entry; a reader that finds a manifest referencing a missing,
foreign or corrupt chunk treats the whole entry as a miss.  A manifest or
chunk of any other format is a plain miss too — a load neither serves,
rewrites nor removes it — and a stray ``<task>/<side>-vN.npz`` is not an
entry at all.

There is one chunk check, :meth:`PersistentEncodingCache._read_chunk`, and
both every load and ``repro cache verify`` run it: it opens the archive once,
compares the metadata embedded in it with the identity the manifest implies
(format, task, side, encoding version, model fingerprint and codec — one
header per entry — plus the chunk's row range, CRC and generation) and reads
the three arrays, which verifies each member's zip CRC-32 — a payload damaged
on disk is a miss, never an answer, and a verify that passes is an entry a
load serves.  Nothing stays open between reads, so a long-lived process pins
no descriptors and no superseded archives.  Chunk reads are reported through
the ``chunk_loads`` counter of whatever
:class:`~repro.eval.timing.EngineCounters` the caller passes in.

Keying and invalidation rules
-----------------------------
Entries are keyed by ``(task.name, side, encoding_version)`` — the same
monotonic version token the in-memory store watches.  Because the token is
process-local, every manifest additionally embeds a *fingerprint* with two
parts: a **model** fingerprint (IR method, dimensions, seed and a CRC of the
VAE weights) and a **table** identity (record count plus ``content_crc``).
A full load only succeeds when both the key and the complete fingerprint
match; anything else — missing manifest, foreign task, refit or
differently-seeded model, resized or edited table, corrupt or missing chunk,
stale manifest — is a miss.  Bumping ``encoding_version`` therefore never
serves stale encodings: the old entries simply stop being addressed.

One identity rule
-----------------
:func:`record_crc` is the only function that hashes row content: one CRC per
record, covering its id and values alone.  :func:`table_row_crcs` memoises
that list per table state, so a table is hashed once however many consumers
ask; every coarser identity is :func:`rows_crc` over a run of it — a
chunk's CRC covers the ``row_crcs`` of its stored rows, the fingerprint's
``content_crc`` those of the whole table.  Appending rows therefore leaves
every existing chunk's CRC, and its archive, valid.

Row-identity mutation layer
---------------------------
The *stored* layout is append-only — a row keeps its stored index forever;
deletions tombstone it and edits write a *superseding generation* of the
chunk holding it (``chunk-a-b-gN.npz``) — while the *live* view (stored rows
minus tombstones, in stored order) always equals the current table.

:meth:`PersistentEncodingCache.delta` diffs a manifest against the current
table *by record id*: surviving rows are matched by key, compared by row
CRC, and classified clean or dirty; vanished rows become tombstone
candidates; trailing new rows are the appended range.  The resulting
:class:`TableDelta` — the probed manifest, its live -> stored row map and
that :class:`RowDiff` — tells the store exactly which current rows need
encoding (``encode_positions()``) and which can be served from disk
(:meth:`PersistentEncodingCache.load_reused`).

There is one writer: :meth:`~PersistentEncodingCache.save`,
:meth:`~PersistentEncodingCache.extend` and
:meth:`~PersistentEncodingCache.patch` are one write-through, a new entry
being a write-through onto an empty manifest.  It writes the superseding
generations of chunks holding edited rows and the appended chunks first —
each one gather per array of the rows at the chunk's current positions —
and the manifest last, so concurrent readers see either the old complete
entry or the new one, never a torn state.  Old generations are swept by
:meth:`~PersistentEncodingCache.prune`.
:meth:`~PersistentEncodingCache.load_range` reads only the chunks
overlapping a ``[start, stop)`` *live*-row range; nothing in the engine calls
it today.
"""

from __future__ import annotations

import json
import math
import os
import struct
import weakref
import zipfile
import zlib
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.quant import CodecArray, params_from_json
from repro.nn.serialization import _META_KEY, save_state_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.representation import EntityRepresentationModel
    from repro.data.schema import Record, Table
    from repro.engine.store import TableEncodings
    from repro.eval.timing import EngineCounters

PathLike = Union[str, Path]

#: Bump when the on-disk layout changes; manifests and chunks tagged with any
#: other value are treated as misses, never as errors, and never migrated.
#: Version 6 derives every chunk CRC and the fingerprint's ``content_crc``
#: from the per-row CRCs (:func:`rows_crc`) and requires ``row_crcs`` in every
#: manifest; the layout is otherwise version 5's (tombstones, chunk
#: generations, a per-entry and per-chunk ``codec`` field with quantization
#: params, so chunk arrays may hold codes, not floats).  Version 7 keeps that
#: layout: LSA IRs moved by up to ~2e-15 when their transform went sparse, and
#: an entry extended or patched across that change would splice two roundings
#: into one table.
CACHE_FORMAT_VERSION = 7

#: The identity codec: chunk arrays are the plain float encodings.
RAW_CODEC = "raw"

#: Default rows per chunk archive.
DEFAULT_CHUNK_ROWS = 2048

MANIFEST_NAME = "manifest.json"

_ARRAY_KEYS = ("irs", "mu", "sigma")

_LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError, zlib.error, zipfile.BadZipFile, struct.error)


def _slug(name: str) -> str:
    """Filesystem-safe task directory name."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return safe or "task"


def model_fingerprint(representation: "EntityRepresentationModel") -> Dict[str, Any]:
    """The model half of an entry's identity.

    The ``encoding_version`` key only covers changes *within* a process (it
    restarts from zero every run), so the fingerprint carries everything that
    determines what a record encodes to across processes: the architecture
    (IR method and dimensions), the training seed, and a CRC of the VAE
    weights — two models fitted with different seeds, epochs or data produce
    different weights and therefore different fingerprints, even though both
    sit at ``encoding_version == 1``.
    """
    state = representation.vae.state_dict()
    weights_crc = 0
    for name in sorted(state):
        weights_crc = zlib.crc32(name.encode("utf-8"), weights_crc)
        weights_crc = zlib.crc32(np.ascontiguousarray(state[name]).tobytes(), weights_crc)
    return {
        "ir_method": representation.ir_method,
        "ir_dim": int(representation.config.ir_dim),
        "hidden_dim": int(representation.config.hidden_dim),
        "latent_dim": int(representation.config.latent_dim),
        "seed": int(representation.config.seed),
        "weights_crc": int(weights_crc),
    }


def record_crc(record: "Record") -> int:
    """Independent CRC of one record's id and values.

    The one row-identity primitive: each record's CRC stands alone, so a
    manifest storing one CRC per row can tell exactly *which* rows of a
    mutated table changed, and every coarser identity (a chunk's, a whole
    table's) is :func:`rows_crc` over a run of these.
    """
    crc = zlib.crc32(str(record.record_id).encode("utf-8"))
    for value in record.values:
        crc = zlib.crc32(value.encode("utf-8"), crc)
    return int(crc)


#: ``table -> ((len(table), table.revision), row CRCs)``: the hashed-once memo
#: behind :func:`table_row_crcs`.  Keyed weakly by the table object, so an
#: entry dies with its table, and valid only for the state it was taken at —
#: every ``add`` / ``replace`` / ``remove`` bumps ``revision``.
_row_crc_memo: "weakref.WeakKeyDictionary[Table, Tuple[Tuple[int, int], Tuple[int, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def table_row_crcs(table: "Table") -> Tuple[int, ...]:
    """Per-row :func:`record_crc` of every record, hashed once per table state.

    The fingerprint, the chunk CRCs, the row diff, the cache write-through
    and the baseline capture of one resolve round all need this list for the
    same table state; the memo makes the first of them pay for the walk and
    the rest read it.
    """
    state = (len(table), table.revision)
    memo = _row_crc_memo.get(table)
    if memo is not None and memo[0] == state:
        return memo[1]
    crcs = tuple(record_crc(record) for record in table)
    _row_crc_memo[table] = (state, crcs)
    return crcs


def rows_crc(row_crcs: Sequence[int]) -> int:
    """CRC of a run of per-row CRCs: the identity of a chunk or a whole table.

    Derived from the row CRCs rather than from table content because a
    chunk's stored rows may include tombstoned ones with no backing record.
    """
    return int(zlib.crc32(np.asarray(row_crcs, dtype="<i8").tobytes(), zlib.crc32(b"row-crcs")))


def _encodings_codec(encodings: "TableEncodings") -> Tuple[str, Optional[Dict[str, Any]]]:
    """Codec name and JSON params of in-memory encodings.

    Encodings whose arrays are :class:`~repro.engine.quant.CodecArray`
    instances persist as code chunks (int8 affine codes or uint8 PQ codes)
    with their params — affine scale/offset or PQ codebooks — in the
    manifest; plain ndarrays persist as the ``raw`` codec.  Mixed arrays
    are a store bug, not a degradable condition.
    """
    arrays = {name: getattr(encodings, name) for name in _ARRAY_KEYS}
    coded = {name for name, array in arrays.items() if isinstance(array, CodecArray)}
    if not coded:
        return RAW_CODEC, None
    if coded != set(_ARRAY_KEYS):
        raise ValueError(f"mixed raw/coded encoding arrays: only {sorted(coded)} are coded")
    names = {arrays[name].params.codec_name for name in _ARRAY_KEYS}
    if len(names) != 1:
        raise ValueError(f"mixed codecs across encoding arrays: {sorted(names)}")
    return names.pop(), {name: arrays[name].params.to_json() for name in _ARRAY_KEYS}


def _manifest_codec(manifest: Dict[str, Any]) -> Tuple[str, Optional[Dict[str, Any]]]:
    """``(name, params)`` of a validated manifest's codec field."""
    codec = manifest["codec"]
    params = codec.get("params")
    return codec["name"], params if isinstance(params, dict) else None


def _check_writable(manifest: Dict[str, Any], encodings: "TableEncodings") -> None:
    """Raise unless ``encodings`` can be written into the manifest's entry.

    Quantize-once: rows written into an existing entry must carry its codec
    *and* its fixed params, or old and new chunks would decode inconsistently.
    """
    old_codec, old_params = _manifest_codec(manifest)
    codec, params = _encodings_codec(encodings)
    if codec != old_codec:
        raise ValueError(f"cannot write {codec!r} encodings into a {old_codec!r}-codec entry")
    if params is not None and params != old_params:
        raise ValueError("cannot write: encodings use different codec params than the entry")


@contextmanager
def _renamed_into(temporary: Path, path: Path) -> Iterator[None]:
    """Land what the body writes to ``temporary`` at ``path`` atomically.

    A body that raises (ENOSPC, EIO) never touches ``path``, and its
    half-written temporary is removed so it neither counts towards the
    entry's bytes nor waits for a ``prune``; the error propagates unchanged.
    """
    try:
        yield
        os.replace(temporary, path)
    finally:
        try:
            temporary.unlink()
        except OSError:  # FileNotFoundError: the rename happened
            pass


def encoding_fingerprint(representation: "EntityRepresentationModel", table: "Table") -> Dict[str, Any]:
    """Identity check binding an entry to the exact model and table state.

    Two parts: the nested ``model`` fingerprint (see :func:`model_fingerprint`)
    and the table identity — record count plus :func:`rows_crc` of the whole
    table's row CRCs (renamed, resized or edited tables all miss a full load;
    *mutated* tables are recovered row-wise via
    :meth:`PersistentEncodingCache.delta`).
    """
    return {
        "model": model_fingerprint(representation),
        "n_records": len(table),
        "content_crc": rows_crc(table_row_crcs(table)),
    }


# ----------------------------------------------------------------------
# Row-identity diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RowDiff:
    """Result of diffing an *old* row sequence against a current table, by id.

    All ``old`` positions index the old sequence; all ``new`` positions
    index the current table.  ``survivor_old[j]`` is the old position of the
    current row ``j`` (for ``j < len(survivor_old)``); rows past that are
    appended.  ``dirty_new`` lists the surviving rows whose content changed.
    """

    survivor_old: Tuple[int, ...]
    deleted_old: Tuple[int, ...]
    dirty_new: Tuple[int, ...]
    total_rows: int

    @property
    def appended_range(self) -> Tuple[int, int]:
        return (len(self.survivor_old), self.total_rows)

    @property
    def appended_rows(self) -> int:
        return self.total_rows - len(self.survivor_old)

    def encode_positions(self) -> Tuple[int, ...]:
        """Current rows that must go through the encoder (dirty + appended)."""
        return self.dirty_new + tuple(range(*self.appended_range))

    def reused_rows(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(current positions, old positions) of the clean surviving rows."""
        dirty = set(self.dirty_new)
        positions = tuple(p for p in range(len(self.survivor_old)) if p not in dirty)
        return positions, tuple(self.survivor_old[p] for p in positions)


def diff_rows(
    old_keys: Sequence[object],
    old_row_crcs: Sequence[int],
    table: "Table",
) -> Optional[RowDiff]:
    """Classify every row of ``table`` against an old key/CRC sequence.

    Mutation shapes resolved cheaply: in-place edits (same id, same
    position among survivors), deletions anywhere, and appends at the end.
    Rows that moved — a deleted id re-added later, or genuine reorders —
    degrade to delete + re-add: survivors are the old rows matched greedily
    at their (deletion-adjusted) positions, and any displaced row lands in
    the appended region, so the classification is *total* for tables with
    unique record ids (a reversed table keeps one survivor and rewrites the
    rest).  Returns ``None`` only for pathological inputs (duplicate old
    keys breaking the position invariant).
    """
    position_of: Dict[object, int] = {}
    for position, rid in enumerate(table.record_ids()):
        position_of[rid] = position
    survivor_old: List[int] = []
    deleted_old: List[int] = []
    displaced: List[Tuple[int, int]] = []
    for old_position, key in enumerate(old_keys):
        current = position_of.get(str(key))
        if current is None:
            deleted_old.append(old_position)
        elif current == len(survivor_old):
            survivor_old.append(old_position)
        else:
            displaced.append((old_position, current))
    survivors = len(survivor_old)
    for old_position, current in displaced:
        if current < survivors:
            return None  # genuine reorder among surviving rows
        # Landed in the appended region: treat as deleted + re-added.
        deleted_old.append(old_position)
    deleted_old.sort()
    row_crcs = table_row_crcs(table)
    dirty_new = tuple(
        new_position
        for new_position, old_position in enumerate(survivor_old)
        if row_crcs[new_position] != int(old_row_crcs[old_position])
    )
    return RowDiff(
        survivor_old=tuple(survivor_old),
        deleted_old=tuple(deleted_old),
        dirty_new=dirty_new,
        total_rows=len(table),
    )


@dataclass(frozen=True)
class TableDelta:
    """A cache entry probed against a (possibly mutated) table.

    ``diff`` is :func:`diff_rows` of the entry's *live* rows (stored rows
    minus tombstones, in stored order) against the table, and
    ``live_stored[i]`` is the *stored* index — the manifest's append-only
    row layout — of live row ``i``.  Everything else is a view of the two:
    ``deleted_rows`` are the stored indices whose records vanished
    (tombstone candidates for :meth:`PersistentEncodingCache.patch`),
    ``appended_range`` the current rows the manifest has never seen.
    """

    manifest: Dict[str, Any]
    live_stored: Tuple[int, ...]
    diff: RowDiff

    @property
    def deleted_rows(self) -> Tuple[int, ...]:
        return tuple(self.live_stored[j] for j in self.diff.deleted_old)

    @property
    def appended_range(self) -> Tuple[int, int]:
        return self.diff.appended_range

    @property
    def base_rows(self) -> int:
        """Current rows covered by the stored entry (clean or dirty)."""
        return len(self.diff.survivor_old)

    @property
    def total_rows(self) -> int:
        return self.diff.total_rows

    @property
    def new_rows(self) -> int:
        return self.diff.appended_rows

    @property
    def dirty_rows(self) -> int:
        return len(self.diff.dirty_new)

    @property
    def is_append_only(self) -> bool:
        return not self.diff.dirty_new and not self.diff.deleted_old

    def encode_positions(self) -> Tuple[int, ...]:
        """Current rows that must go through the encoder (dirty + appended)."""
        return self.diff.encode_positions()

    def reused_rows(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(current positions, stored indices) of clean surviving rows."""
        positions, live = self.diff.reused_rows()
        return positions, tuple(self.live_stored[j] for j in live)


# ----------------------------------------------------------------------
# One entry, seen from its chunks
# ----------------------------------------------------------------------
def _addresses(manifest: Dict[str, Any], task_name: str, side: str, encoding_version: int) -> bool:
    """Whether a validated manifest is the entry of ``(task, side, version)``."""
    return (manifest["task"], manifest["side"], manifest["encoding_version"]) == (
        task_name, side, int(encoding_version)
    )


def _entry_header(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The identity every chunk of an entry embeds, built once per entry.

    The model fingerprint rides in every chunk, not just the manifest:
    concurrent writers of the same key (e.g. differently-seeded models at
    the same version) overwrite chunk paths in place, so a reader holding
    the *other* writer's manifest must be able to reject a foreign chunk
    instead of mixing encodings.  Deliberately *not* the whole-table CRC —
    chunks must stay addressable after an append changes it.  The codec
    name rides along for the same reason: a reader must never decode codes
    as floats or vice versa.
    """
    return {
        "format": CACHE_FORMAT_VERSION,
        "task": manifest["task"],
        "side": manifest["side"],
        "encoding_version": manifest["encoding_version"],
        "model": manifest["fingerprint"].get("model"),
        "codec": manifest["codec"]["name"],
    }


def _chunk_metadata(header: Dict[str, Any], chunk: Sequence[int]) -> Dict[str, Any]:
    """One chunk's embedded metadata: the entry header plus its own fields."""
    start, stop, crc, generation = chunk
    metadata = dict(header)
    # The key order chunks are written in: the codec name comes last.
    metadata.update(
        start=start, stop=stop, row_crc=crc, generation=generation, codec=metadata.pop("codec")
    )
    return metadata


def _stored_layout(manifest: Dict[str, Any]) -> Dict[str, Tuple[Any, Tuple[int, ...]]]:
    """Per array: the codec params (``None`` for raw) and the per-row shape
    chunks store — for PQ codes ``(m,)``, not the manifest's logical shape.

    Raises one of ``_LOAD_ERRORS`` when the manifest's params do not parse.
    """
    codec_name, codec_params = _manifest_codec(manifest)
    layout: Dict[str, Tuple[Any, Tuple[int, ...]]] = {}
    for name in _ARRAY_KEYS:
        if codec_name == RAW_CODEC:
            layout[name] = (None, tuple(manifest["shapes"][name][1:]))
        else:
            params = params_from_json(codec_name, codec_params[name])
            layout[name] = (params, tuple(params.code_trailing))
    return layout


def _stored_gather(array, positions: np.ndarray) -> np.ndarray:
    """The stored rows of ``array`` at ``positions`` in one gather; a ``-1``
    position (a tombstoned row) is a zero row, never read again.

    A :class:`CodecArray` gives its code rows — indexing it would rehydrate
    floats, exactly what a chunk write must not do.
    """
    stored = array.codes if isinstance(array, CodecArray) else np.asarray(array)
    rows = stored[np.maximum(positions, 0)]
    rows[positions < 0] = 0
    return rows


class PersistentEncodingCache:
    """Directory-backed, row-range-chunked archive of table encodings.

    The cache is deliberately dumb storage: all counting (disk hits/misses,
    tables encoded, chunk loads) lives in the
    :class:`~repro.eval.timing.EngineCounters` callers pass into the load
    methods, so one cache directory can be shared by many stores without
    entangling their instrumentation.  The one exception is the *work
    report* of :meth:`patch`, returned to the caller for its own counters.

    Parameters
    ----------
    directory:
        Root of the cache tree.
    chunk_rows:
        Rows per chunk archive written by :meth:`save`; the last chunk of a
        table may be short.  Readers honour whatever chunking the manifest
        records, so caches written with different ``chunk_rows`` interoperate.
    """

    def __init__(self, directory: PathLike, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.directory = Path(directory)
        self.chunk_rows = chunk_rows

    # ------------------------------------------------------------------
    # Paths and layout
    # ------------------------------------------------------------------
    def dir_for(self, task_name: str, side: str, encoding_version: int) -> Path:
        """Chunk directory of the ``(task, side, version)`` key."""
        return self.directory / _slug(task_name) / f"{side}-v{int(encoding_version)}"

    def manifest_path(self, task_name: str, side: str, encoding_version: int) -> Path:
        """Manifest path of the ``(task, side, version)`` key."""
        return self.dir_for(task_name, side, encoding_version) / MANIFEST_NAME

    @staticmethod
    def chunk_name(start: int, stop: int, generation: int = 0) -> str:
        """Archive filename of one chunk generation."""
        if generation:
            return f"chunk-{int(start)}-{int(stop)}-g{int(generation)}.npz"
        return f"chunk-{int(start)}-{int(stop)}.npz"

    def chunk_path(
        self, task_name: str, side: str, encoding_version: int, start: int, stop: int,
        generation: int = 0,
    ) -> Path:
        """Archive path of one row-range chunk generation."""
        return self.dir_for(task_name, side, encoding_version) / self.chunk_name(start, stop, generation)

    def _entry_dir(self, entry: Dict[str, Any]) -> Path:
        """Chunk directory of a manifest (or of its chunk header)."""
        return self.dir_for(entry["task"], entry["side"], entry["encoding_version"])

    def entries(self) -> List[Path]:
        """The manifest path of every entry, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"*/*/{MANIFEST_NAME}"))

    def clear(self) -> int:
        """Delete every entry; returns how many entries were removed."""
        entries = self.entries()
        for entry in entries:
            self._remove_chunk_dir(entry.parent)
        return len(entries)

    @staticmethod
    def _remove_chunk_dir(chunk_dir: Path, dry_run: bool = False) -> int:
        """Delete one chunked entry directory; returns bytes (to be) removed."""
        removed_bytes = 0
        for path in list(chunk_dir.iterdir()):
            if path.is_file():
                removed_bytes += path.stat().st_size
                if not dry_run:
                    path.unlink()
        if not dry_run:
            try:
                chunk_dir.rmdir()
            except OSError:  # pragma: no cover - foreign files left behind
                pass
        return removed_bytes

    @staticmethod
    def _parse_generation(stem: str) -> Optional[Tuple[str, int]]:
        """``side-vN`` -> (side, N); ``None`` for foreign names."""
        side, separator, version = stem.rpartition("-v")
        if not separator or not side or not version.isdigit():
            return None
        return side, int(version)

    def _scan(self) -> Iterator[Tuple[Path, Dict[str, Any], Optional[Dict[str, Any]]]]:
        """``(chunk dir, {task, side, version}, manifest)`` of every entry.

        The one entry scan behind ``list``, ``verify`` and ``prune``.  The
        location comes from the directory names (version ``-1`` for a
        foreign name); the manifest is validated as a load reads it, and is
        ``None`` when no load would serve it — unreadable, malformed, of
        another format, or naming another entry than its directory.
        """
        for path in self.entries():
            chunk_dir = path.parent
            side, version = self._parse_generation(chunk_dir.name) or (chunk_dir.name, -1)
            manifest = self._valid_manifest(self._read_json(path))
            if manifest is not None and self._entry_dir(manifest) != chunk_dir:
                manifest = None
            yield chunk_dir, {"task": chunk_dir.parent.name, "side": side, "version": version}, manifest

    def describe_entries(self) -> List[Dict[str, Any]]:
        """One summary row per entry (the ``repro cache list`` data).

        Entries report live rows, tombstones, chunk count, the number of
        distinct chunk generations referenced by the manifest, on-disk bytes
        (stale generations included — what ``prune`` would reclaim) and the
        fingerprint CRCs.  Unreadable entries — a manifest of another format
        included — are listed with ``rows == None`` rather than skipped, so
        stale garbage is visible.
        """
        rows: List[Dict[str, Any]] = []
        for chunk_dir, where, manifest in self._scan():
            total_bytes = sum(p.stat().st_size for p in chunk_dir.glob("*.npz"))
            if manifest is None:
                rows.append(dict(
                    where, rows=None, tombstones=None, chunks=None, generations=None,
                    bytes=total_bytes, codec=None, decoded_bytes=None, compression_ratio=None,
                    content_crc=None, weights_crc=None,
                ))
                continue
            fingerprint = manifest["fingerprint"]
            chunks = manifest["chunks"]
            # What the entry would occupy fully rehydrated: the float64 size
            # of the stored shapes, codec-independent — against on-disk
            # bytes it shows the compression ratio.
            decoded_bytes = sum(8 * math.prod(shape) for shape in manifest["shapes"].values())
            rows.append(dict(
                where,
                rows=len(manifest["keys"]) - len(manifest["tombstones"]),
                tombstones=len(manifest["tombstones"]),
                chunks=len(chunks),
                generations=len({chunk[3] for chunk in chunks}),
                bytes=total_bytes,
                codec=_manifest_codec(manifest)[0],
                decoded_bytes=decoded_bytes,
                # Compression vs raw float64: decoded size over the stored
                # chunk bytes (~1.0 for raw entries — npz framing only; >1
                # for coded entries).
                compression_ratio=round(decoded_bytes / total_bytes, 2) if total_bytes else None,
                content_crc=fingerprint.get("content_crc"),
                weights_crc=fingerprint["model"].get("weights_crc"),
            ))
        return rows

    def verify_entries(self) -> List[Dict[str, Any]]:
        """Audit manifests and chunk archives (``repro cache verify``).

        Runs what :meth:`load` runs: the manifest validation, then the one
        chunk check (:meth:`_read_chunk`) on every referenced chunk — its
        embedded metadata against the identity the manifest implies, every
        member read (which verifies its zip CRC-32) and its stored shape.
        The audit reads every referenced archive once and holds one
        chunk's arrays at a time.  Returns one report per entry::

            {"task", "side", "version", "chunks_checked", "ok", "problems": [...]}

        An entry with ``ok == False`` is exactly one that ``load`` would
        treat as a miss.
        """
        reports: List[Dict[str, Any]] = []
        for _, where, manifest in self._scan():
            problems: List[str] = []
            checked = 0
            if manifest is None:
                problems.append("manifest unreadable or structurally invalid")
            else:
                try:
                    layout = _stored_layout(manifest)
                except _LOAD_ERRORS:
                    problems.append("manifest codec params unreadable")
                else:
                    header = _entry_header(manifest)
                    for chunk in manifest["chunks"]:
                        checked += 1
                        found = self._read_chunk(header, layout, chunk)
                        if isinstance(found, str):
                            problems.append(found)
            reports.append(dict(where, chunks_checked=checked, ok=not problems, problems=problems))
        return reports

    def prune(self, dry_run: bool = False) -> Dict[str, Any]:
        """Remove stale generations (the ``repro cache prune`` action).

        For each ``(task, side)`` only the highest ``-vN`` generation is
        kept; within kept entries, chunk archives no longer referenced by
        the manifest — superseded chunk generations and leftovers of
        abandoned extensions — are removed too.  With ``dry_run`` nothing is
        deleted; the counts report what a real prune would remove.
        """
        generations: Dict[Tuple[str, str], List[Tuple[int, Path, Optional[Dict[str, Any]]]]] = {}
        for chunk_dir, where, manifest in self._scan():
            if where["version"] >= 0:
                generations.setdefault((where["task"], where["side"]), []).append(
                    (where["version"], chunk_dir, manifest)
                )
        removed: Dict[str, Any] = {"entries": 0, "files": 0, "bytes": 0, "bytes_by_codec": {}}

        def _count_codec(codec: str, nbytes: int) -> None:
            by_codec = removed["bytes_by_codec"]
            by_codec[codec] = by_codec.get(codec, 0) + int(nbytes)

        for group in generations.values():
            group.sort(key=lambda generation: generation[0])
            for _, chunk_dir, stale in group[:-1]:
                removed["entries"] += 1
                codec = _manifest_codec(stale)[0] if stale is not None else "unknown"
                removed["files"] += len(list(chunk_dir.glob("*")))
                reclaimed = self._remove_chunk_dir(chunk_dir, dry_run=dry_run)
                removed["bytes"] += reclaimed
                _count_codec(codec, reclaimed)
            # Sweep unreferenced chunk archives out of the surviving entry.
            _, chunk_dir, manifest = group[-1]
            if manifest is None:
                continue
            referenced = {self.chunk_name(a, b, gen) for a, b, _, gen in manifest["chunks"]}
            for chunk in chunk_dir.glob("*.npz"):
                if chunk.name not in referenced:
                    size = chunk.stat().st_size
                    removed["files"] += 1
                    removed["bytes"] += size
                    _count_codec(_manifest_codec(manifest)[0], size)
                    if not dry_run:
                        chunk.unlink()
        return removed

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        fingerprint: Dict[str, Any],
        encodings: "TableEncodings",
        table: "Table",
    ) -> Path:
        """Persist one table's encodings in row-range chunks; returns the manifest path.

        A write-through onto an empty entry — no keys, chunks or tombstones,
        codec and shapes taken from ``encodings`` — so every row is appended.
        Chunks are written first (write-then-rename each), the manifest last,
        so concurrent readers (shared cache dirs across processes/nodes)
        never observe a partial entry: either the manifest is present and
        every chunk it references is complete, or the entry misses.

        ``table`` is the table ``encodings`` describe, row for row: its row
        CRCs become the manifest's ``row_crcs`` and every chunk's CRC, which
        is what makes the entry delta-probeable.
        """
        codec_name, codec_params = _encodings_codec(encodings)
        empty = {
            "format": CACHE_FORMAT_VERSION,
            "task": task_name,
            "side": side,
            "encoding_version": int(encoding_version),
            "fingerprint": fingerprint,
            "keys": [],
            "row_crcs": [],
            "tombstones": [],
            "chunk_rows": int(self.chunk_rows),
            "chunks": [],
            "shapes": {
                name: [0] + [int(d) for d in getattr(encodings, name).shape[1:]]
                for name in _ARRAY_KEYS
            },
            "codec": {"name": codec_name, "params": codec_params},
        }
        every_row_appended = TableDelta(empty, (), RowDiff((), (), (), len(encodings)))
        return self._write_through(
            task_name, side, encoding_version, fingerprint, table, every_row_appended, encodings
        )[0]

    def extend(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        fingerprint: Dict[str, Any],
        table: "Table",
        delta: "TableDelta",
        encodings: "TableEncodings",
    ) -> Path:
        """Append-only extension of an entry whose base ``delta`` validated.

        :meth:`patch` restricted to a delta without edits or deletions: the
        appended rows of ``encodings`` (the *full current table's*, like
        ``patch`` takes them) are written as *new* chunk archives after the
        existing stored rows and the manifest is rewritten last.  No existing
        chunk is touched — the whole point of content-addressed chunks is
        that an append re-encodes and rewrites only the tail.
        """
        if not delta.is_append_only:
            raise ValueError("extend() only handles append-only deltas; use patch()")
        return self._write_through(
            task_name, side, encoding_version, fingerprint, table, delta, encodings
        )[0]

    def patch(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        fingerprint: Dict[str, Any],
        table: "Table",
        delta: "TableDelta",
        encodings: "TableEncodings",
    ) -> Tuple[Path, Dict[str, int]]:
        """Write a mutated table state through to an existing entry.

        ``encodings`` are the *full current table's* encodings (live order).
        Three kinds of append-only writes happen, chunks before manifest:

        * chunks containing edited rows get a **superseding generation**
          (``chunk-a-b-gN.npz``) holding the updated rows — tombstoned rows
          inside them are zero-filled, they are never read again;
        * appended rows become new chunks after the stored rows;
        * deleted rows become **tombstone entries** in the manifest — no
          chunk is rewritten for a pure deletion, the old archive still
          serves the surviving rows.

        The manifest lands last (write-then-rename), so readers see the old
        complete entry or the new one, never a torn state; superseded chunk
        generations stay on disk until :meth:`prune` sweeps them.  Returns
        the manifest path and a work report (``chunks_patched``,
        ``rows_tombstoned``, ``chunks_appended``).
        """
        return self._write_through(
            task_name, side, encoding_version, fingerprint, table, delta, encodings
        )

    def _write_through(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        fingerprint: Dict[str, Any],
        table: "Table",
        delta: "TableDelta",
        encodings: "TableEncodings",
    ) -> Tuple[Path, Dict[str, int]]:
        """The one writer behind :meth:`save`, :meth:`extend` and :meth:`patch`.

        Chunks holding no edited row are kept as they are.  Every chunk
        written — a superseding generation or a chunk appended after the
        stored rows — is one gather per array of the stored rows at the
        chunk's current positions (:func:`_stored_gather`).
        """
        old, diff = delta.manifest, delta.diff
        if not _addresses(old, task_name, side, encoding_version):
            raise ValueError(f"the delta was probed from another entry than {task_name!r} {side}")
        _check_writable(old, encodings)
        current_crcs = table_row_crcs(table)
        if len(current_crcs) != len(encodings):
            raise ValueError(
                f"table has {len(current_crcs)} rows but encodings describe {len(encodings)}"
            )
        stored = len(old["keys"])
        base, total = diff.appended_range
        # Stored row -> current position, -1 for a tombstone: survivors keep
        # their stored index, appended rows continue the layout.
        survivors = np.asarray([delta.live_stored[j] for j in diff.survivor_old], dtype=np.intp)
        position_of = np.full(stored + total - base, -1, dtype=np.intp)
        position_of[survivors] = np.arange(base)
        position_of[stored:] = np.arange(base, total)
        # Live rows take the current table's CRC (an edit changed it),
        # tombstoned rows keep the one they were stored with.
        crcs = np.zeros(len(position_of), dtype=np.int64)
        crcs[:stored] = old["row_crcs"]
        live = position_of >= 0
        crcs[live] = np.asarray(current_crcs, dtype=np.int64)[position_of[live]]
        dirty = np.zeros(len(position_of), dtype=bool)
        dirty[survivors[list(diff.dirty_new)]] = True

        chunks = [list(chunk) for chunk in old["chunks"]]
        written = [chunk for chunk in chunks if dirty[chunk[0] : chunk[1]].any()]
        for chunk in written:
            chunk[3] += 1
        patched = len(written)
        for start in range(stored, len(position_of), self.chunk_rows):
            chunks.append([start, min(start + self.chunk_rows, len(position_of)), 0, 0])
            written.append(chunks[-1])
        for chunk in written:
            chunk[2] = rows_crc(crcs[chunk[0] : chunk[1]])
        manifest = dict(
            old,
            fingerprint=fingerprint,
            keys=old["keys"] + [str(key) for key in encodings.keys[base:total]],
            row_crcs=crcs.tolist(),
            tombstones=sorted(set(old["tombstones"]).union(delta.deleted_rows)),
            chunk_rows=int(self.chunk_rows),
            chunks=chunks,
            shapes={name: [len(position_of)] + old["shapes"][name][1:] for name in _ARRAY_KEYS},
        )
        header = _entry_header(manifest)
        path = self._entry_dir(manifest) / MANIFEST_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        for chunk in written:
            rows = position_of[chunk[0] : chunk[1]]
            self._write_chunk(
                header, chunk,
                {name: _stored_gather(getattr(encodings, name), rows) for name in _ARRAY_KEYS},
            )
        temporary = path.with_name(f".{MANIFEST_NAME}.{os.getpid()}.tmp")
        with _renamed_into(temporary, path):
            temporary.write_text(json.dumps(manifest))
        return path, {
            "chunks_patched": patched,
            "rows_tombstoned": len(delta.deleted_rows),
            "chunks_appended": len(written) - patched,
        }

    def _write_chunk(
        self, header: Dict[str, Any], chunk: Sequence[int], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Land one chunk archive atomically, its metadata the entry header
        plus the chunk's own row range, CRC and generation."""
        path = self._entry_dir(header) / self.chunk_name(chunk[0], chunk[1], chunk[3])
        # The temp name keeps the .npz suffix (np.savez appends it
        # otherwise) and the pid so parallel writers cannot collide.
        temporary = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
        with _renamed_into(temporary, path):
            save_state_dict(arrays, temporary, metadata=_chunk_metadata(header, chunk))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        fingerprint: Dict[str, Any],
        counters: Optional["EngineCounters"] = None,
    ) -> Optional["TableEncodings"]:
        """Load a matching entry in full, or ``None`` on any kind of miss.

        Corrupt, foreign or other-format entries are treated as misses
        rather than errors — a cache must never be able to fail a resolution
        run — and a miss never writes: whatever was found stays as it was.
        """
        manifest = self._read_manifest(task_name, side, encoding_version, fingerprint)
        if manifest is None:
            return None
        live = len(manifest["keys"]) - len(manifest["tombstones"])
        return self._load_rows(manifest, 0, live, counters)

    def load_range(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        fingerprint: Dict[str, Any],
        start: int,
        stop: int,
        counters: Optional["EngineCounters"] = None,
    ) -> Optional["TableEncodings"]:
        """Load only the live rows ``[start, stop)`` of a matching entry.

        Reads just the chunks overlapping the range.  Row indices in the
        returned encodings are local to the range (0-based).  Returns
        ``None`` on any miss, exactly like :meth:`load`.
        """
        if start < 0 or stop < start:
            raise ValueError(f"invalid row range [{start}, {stop})")
        manifest = self._read_manifest(task_name, side, encoding_version, fingerprint)
        if manifest is None:
            return None
        return self._load_rows(manifest, start, stop, counters)

    # ------------------------------------------------------------------
    # Delta probing (the incremental-resolution entry point)
    # ------------------------------------------------------------------
    def delta(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        fingerprint: Dict[str, Any],
        table: "Table",
    ) -> Optional["TableDelta"]:
        """Probe an entry against the *current* table state, row by row.

        Requires the model half of ``fingerprint`` to match the manifest's
        (a different model invalidates every chunk), then diffs the stored
        live rows against the table by record id: surviving rows are
        compared by per-row CRC (clean or *dirty*), vanished rows become
        ``deleted_rows``, and trailing new rows the ``appended_range``.
        Returns ``None`` when nothing is reusable (no clean surviving rows).
        """
        manifest = self._read_manifest_loose(task_name, side, encoding_version)
        if manifest is None or manifest["fingerprint"].get("model") != fingerprint.get("model"):
            return None
        live_stored = self._live_stored_indices(manifest)
        diff = diff_rows(
            [manifest["keys"][i] for i in live_stored],
            [manifest["row_crcs"][i] for i in live_stored],
            table,
        )
        if diff is None or len(diff.dirty_new) >= len(diff.survivor_old):
            return None  # nothing provably clean to reuse
        return TableDelta(manifest=manifest, live_stored=tuple(live_stored), diff=diff)

    def load_prefix(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        delta: "TableDelta",
        counters: Optional["EngineCounters"] = None,
    ) -> Optional["TableEncodings"]:
        """The first ``delta.base_rows`` live rows of a probed entry.

        The append-only reuse path (and its historical name): for a pure
        append the base rows are exactly the reusable prefix.  Reads only
        the chunks covering it; returns ``None`` if any chunk vanished or
        was overwritten since the probe (the usual degrade-to-miss
        contract).
        """
        return self._load_rows(delta.manifest, 0, delta.base_rows, counters)

    def load_reused(
        self,
        task_name: str,
        side: str,
        encoding_version: int,
        delta: "TableDelta",
        counters: Optional["EngineCounters"] = None,
    ) -> Optional[Tuple[Tuple[int, ...], "TableEncodings"]]:
        """The clean surviving rows of a probed entry, with their positions.

        Returns ``(current_positions, encodings)`` where row ``j`` of the
        encodings is the current table's row ``current_positions[j]`` —
        everything the store can serve from disk; dirty and appended rows
        must be encoded and spliced in by the caller.  Dirty chunks still
        serve their *clean* rows (the superseding generation has not been
        written yet at probe time).  ``None`` on any chunk-level miss.
        """
        positions, stored_indices = delta.reused_rows()
        loaded = self._load_stored_rows(delta.manifest, stored_indices, counters)
        if loaded is None:
            return None
        return positions, loaded

    # ------------------------------------------------------------------
    def _read_json(self, path: Path) -> Optional[Dict[str, Any]]:
        if not path.is_file():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _read_manifest(
        self, task_name: str, side: str, encoding_version: int, fingerprint: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The validated manifest of a key, or ``None`` on any mismatch."""
        manifest = self._read_manifest_loose(task_name, side, encoding_version)
        if manifest is None or manifest["fingerprint"] != fingerprint:
            return None
        return manifest

    def _read_manifest_loose(
        self, task_name: str, side: str, encoding_version: int
    ) -> Optional[Dict[str, Any]]:
        """A structurally valid manifest of a key, *without* checking the
        table fingerprint — the delta probe validates content row-wise."""
        path = self.manifest_path(task_name, side, encoding_version)
        manifest = self._valid_manifest(self._read_json(path))
        if manifest is None or not _addresses(manifest, task_name, side, encoding_version):
            return None
        return manifest

    @staticmethod
    def _valid_manifest(manifest: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        """The manifest if it is structurally valid and of the current format.

        Pure validation — nothing is filled in or rewritten: a manifest of
        any other format is ``None``, exactly like a corrupt one.  Every
        field a reader or the writer uses is checked here, so a malformed
        one is a miss rather than a raise deep in a load, probe or patch.
        """
        if not isinstance(manifest, dict) or manifest.get("format") != CACHE_FORMAT_VERSION:
            return None
        if not (isinstance(manifest.get("task"), str) and isinstance(manifest.get("side"), str)):
            return None
        if not isinstance(manifest.get("encoding_version"), int):
            return None
        fingerprint = manifest.get("fingerprint")
        if not (isinstance(fingerprint, dict) and isinstance(fingerprint.get("model"), dict)):
            return None
        codec = manifest.get("codec")
        if not (isinstance(codec, dict) and isinstance(codec.get("name"), str)):
            return None
        if codec["name"] != RAW_CODEC and not isinstance(codec.get("params"), dict):
            return None
        keys = manifest.get("keys")
        chunks = manifest.get("chunks")
        shapes = manifest.get("shapes")
        tombstones = manifest.get("tombstones")
        row_crcs = manifest.get("row_crcs")
        if not isinstance(keys, list) or not isinstance(chunks, list) or not isinstance(shapes, dict):
            return None
        # Each array's shape is [stored rows, per-row dims...].
        if set(shapes) != set(_ARRAY_KEYS) or not all(
            isinstance(shape, list)
            and shape[:1] == [len(keys)]
            and all(isinstance(d, int) and d >= 0 for d in shape)
            for shape in shapes.values()
        ):
            return None
        if not isinstance(tombstones, list):
            return None
        if not all(isinstance(t, int) and 0 <= t < len(keys) for t in tombstones):
            return None
        if len(set(tombstones)) != len(tombstones):
            return None
        if not isinstance(row_crcs, list) or len(row_crcs) != len(keys):
            return None
        # A corrupt element would otherwise surface as a raise deep in the
        # delta probe — a cache must never fail a resolution run.
        if not all(isinstance(crc, int) and 0 <= crc < 2 ** 32 for crc in row_crcs):
            return None
        # Chunks must tile [0, n) contiguously and in order — anything else
        # (hand-edited manifest, mixed-up files) is a stale manifest: miss.
        position = 0
        for chunk in chunks:
            if not (isinstance(chunk, list) and len(chunk) == 4):
                return None
            if not all(isinstance(field, int) for field in chunk):
                return None
            chunk_start, chunk_stop, _, generation = chunk
            if chunk_start != position or chunk_stop <= chunk_start or generation < 0:
                return None
            position = chunk_stop
        if position != len(keys):
            return None
        return manifest

    def _live_stored_indices(self, manifest: Dict[str, Any]) -> List[int]:
        """Stored index of every live row, ascending (live -> stored map)."""
        tombstones = manifest["tombstones"]
        if not tombstones:
            return list(range(len(manifest["keys"])))
        dead = set(tombstones)
        return [i for i in range(len(manifest["keys"])) if i not in dead]

    def _load_rows(
        self,
        manifest: Dict[str, Any],
        start: int,
        stop: int,
        counters: Optional["EngineCounters"],
    ) -> Optional["TableEncodings"]:
        """Materialise live rows ``[start, stop)`` from the chunks covering them."""
        live = self._live_stored_indices(manifest)
        return self._load_stored_rows(manifest, live[start:stop], counters)

    def _load_stored_rows(
        self,
        manifest: Dict[str, Any],
        stored_indices: Sequence[int],
        counters: Optional["EngineCounters"],
    ) -> Optional["TableEncodings"]:
        """Materialise the given stored rows (ascending) as local encodings.

        For quantized entries the materialised arrays are
        :class:`~repro.engine.quant.CodecArray` views over the chunk codes —
        floats are rehydrated only when a consumer gathers rows, so a cold
        table never builds its full float store.
        """
        from repro.engine.store import TableEncodings

        try:
            layout = _stored_layout(manifest)
        except _LOAD_ERRORS:
            return None
        header = _entry_header(manifest)
        pieces: Dict[str, List[np.ndarray]] = {name: [] for name in _ARRAY_KEYS}
        for chunk in manifest["chunks"]:
            first = bisect_left(stored_indices, chunk[0])
            last = bisect_right(stored_indices, chunk[1] - 1)
            if first == last:
                continue
            arrays = self._read_chunk(header, layout, chunk)
            if isinstance(arrays, str):
                return None
            if counters is not None:
                counters.record_chunk_load()
            local = [stored_indices[j] - chunk[0] for j in range(first, last)]
            if local[-1] - local[0] + 1 == len(local):
                rows = slice(local[0], local[-1] + 1)  # a view of the chunk's array, not a copy
            else:
                rows = np.asarray(local, dtype=np.intp)
            for name in _ARRAY_KEYS:
                pieces[name].append(arrays[name][rows])
        on_decode = counters.record_bytes_decoded if counters is not None else None
        merged: Dict[str, Any] = {}
        for name, (params, trailing) in layout.items():
            parts = pieces[name]
            if not parts:
                dtype = np.float64 if params is None else params.code_dtype
                parts = [np.zeros((0,) + trailing, dtype=dtype)]
            # A range served by a single chunk stays a zero-copy view;
            # multi-chunk ranges concatenate.
            array = parts[0] if len(parts) == 1 else np.concatenate(parts)
            merged[name] = array if params is None else CodecArray(array, params, on_decode=on_decode)
        keys = tuple(manifest["keys"][i] for i in stored_indices)
        return TableEncodings(
            keys=keys, row_index={key: row for row, key in enumerate(keys)}, **merged
        )

    def _read_chunk(
        self,
        header: Dict[str, Any],
        layout: Dict[str, Tuple[Any, Tuple[int, ...]]],
        chunk: Sequence[int],
    ) -> Union[Dict[str, np.ndarray], str]:
        """One chunk generation's arrays, or why no load can serve them.

        The one chunk check, run by every load and by :meth:`verify_entries`:
        opens the archive once, compares its embedded metadata with what the
        entry ``header`` and the manifest's ``chunk`` entry imply, then reads
        each member — which verifies its zip CRC-32, so an archive damaged on
        disk is a problem, never an answer — and checks its stored shape
        (and code dtype) against ``layout`` (:func:`_stored_layout`).
        """
        start, stop = chunk[0], chunk[1]
        path = self._entry_dir(header) / self.chunk_name(start, stop, chunk[3])
        if not path.is_file():
            return f"{path.name}: missing chunk archive"
        arrays: Dict[str, np.ndarray] = {}
        member = None
        try:
            with np.load(path, allow_pickle=False) as archive:
                metadata = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
                if metadata != _chunk_metadata(header, chunk):
                    return (
                        f"{path.name}: chunk metadata does not match manifest "
                        "(format, fingerprint, row range, CRC, generation or codec)"
                    )
                for member in _ARRAY_KEYS:
                    arrays[member] = archive[member]
        except _LOAD_ERRORS:
            # OSError covers a vanished archive; BadZipFile/struct.error
            # cover truncated ones (killed writer) whose zip header still
            # looks plausible, and a failed member CRC.
            if member is None:
                return f"{path.name}: chunk metadata unreadable (torn write?)"
            return f"{path.name}: member {member} unreadable or fails its CRC-32 (damaged payload)"
        for name, (params, trailing) in layout.items():
            array = arrays[name]
            if array.shape != (stop - start,) + trailing or (
                params is not None and array.dtype != params.code_dtype
            ):
                return (
                    f"{path.name}: member {name} is {array.dtype} {array.shape}, "
                    f"not the entry's stored rows {(stop - start,) + trailing}"
                )
        return arrays

    def __repr__(self) -> str:
        return (
            f"PersistentEncodingCache({str(self.directory)!r}, "
            f"chunk_rows={self.chunk_rows}, entries={len(self.entries())})"
        )

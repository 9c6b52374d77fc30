"""The batched encoding engine: one shared, invalidation-aware cache.

Every stage of the decoupled pipeline (blocking, matching, active learning,
evaluation) consumes the same two transferable artefacts of a fitted
representation model: the IR arrays of a table and the latent Gaussians
``(mu, sigma)`` its VAE encodes them to.  Historically each stage recomputed
both — the representation model was asked to re-tokenize, re-project and
re-encode whole tables per call, and candidate scoring walked per-pair Python
loops.

:class:`EncodingStore` computes each table's encodings exactly once, in one
batched pass, and hands shared read-only views to every consumer.  Candidate
pairs become *index arrays* into the row-major cached encodings, so pair
featurisation and scoring are pure gather-then-matmul operations:

* :meth:`pair_ir_arrays` — the matcher's (left, right, labels) input tensors;
* :meth:`pair_latent_distances` — the AL sampler's diversity distances;
* :meth:`pair_tuple_wasserstein` — Algorithm 1's bootstrap ranking distances.

The store is invalidation-aware: it watches the representation model's
``encoding_version`` token (bumped on every (re)fit, IR refit and weight
load) and transparently recomputes when the model changed, so transferred or
fine-tuned representations can never serve stale encodings.  Cache traffic is
reported through :class:`repro.eval.timing.EngineCounters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.pairs import LabeledPair, RecordPair
from repro.data.schema import ERTask, Table
from repro.engine.quant import CodecArray, CodecParams, get_codec, resolve_codec_name
from repro.eval.timing import EngineCounters, engine_counters

if TYPE_CHECKING:  # pragma: no cover - break the engine <-> core import cycle
    from repro.core.representation import EntityRepresentationModel
    from repro.engine.persist import PersistentEncodingCache, TableDelta

SIDES = ("left", "right")

#: The three encoded arrays a :class:`TableEncodings` carries.
_ARRAY_FIELDS = ("irs", "mu", "sigma")

#: Anything with ``left_id``/``right_id`` attributes addresses a pair.
PairLike = Union[RecordPair, LabeledPair]


def distinct_rows(left_rows: np.ndarray, right_rows: np.ndarray) -> int:
    """Records a batch of pairs makes the matcher encode: distinct rows per side."""
    return int(np.unique(left_rows).size + np.unique(right_rows).size)


@dataclass(frozen=True)
class _SideState:
    """Memoized identity of one side's table at its last encode/fingerprint.

    ``row_crcs`` (one :func:`repro.engine.persist.record_crc` per row) is
    what lets a later access diff the *mutated* table against the state the
    cached encodings describe — by record id, not position.
    """

    version: int
    n_rows: int
    revision: int
    fingerprint: Dict[str, Any]
    row_crcs: Tuple[int, ...]


@dataclass(frozen=True)
class TableEncodings:
    """Immutable batched encodings of one table.

    ``irs`` has shape (n_records, arity, ir_dim); ``mu`` and ``sigma`` have
    shape (n_records, arity, latent_dim).  ``row_index`` maps record ids to
    row positions, making record-id lookups O(1) and pair lookups gathers.
    """

    keys: Tuple[str, ...]
    irs: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    row_index: Dict[str, int]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def arity(self) -> int:
        return self.irs.shape[1]

    def rows(self, record_ids: Sequence[str]) -> np.ndarray:
        """Row positions of ``record_ids`` as an integer gather index."""
        index = self.row_index
        try:
            return np.fromiter((index[rid] for rid in record_ids), dtype=np.intp, count=len(record_ids))
        except KeyError as exc:
            raise KeyError(f"record {exc.args[0]!r} not present in cached encodings") from exc

    def flat_mu(self) -> np.ndarray:
        """Record-level vectors for LSH search: concatenated attribute means."""
        _, arity, latent = self.mu.shape
        return self.mu.reshape(len(self), arity * latent)


class EncodingStore:
    """Keyed cache of a task's table encodings with vectorized pair scoring.

    Parameters
    ----------
    representation:
        A fitted (or transferred) :class:`EntityRepresentationModel`.
    task:
        The ER task whose two tables the store serves.
    counters:
        Instrumentation sink; defaults to the process-wide
        :func:`repro.eval.timing.engine_counters`.
    persistent:
        Optional :class:`repro.engine.persist.PersistentEncodingCache`.
        When set, in-memory misses probe the disk cache before encoding and
        computed encodings are written back, so repeated runs on the same
        task and representation skip table encoding entirely.
    codec:
        Encoding codec name (``"raw"``, ``"int8"`` or ``"pq"``); ``None``
        is ``raw``.  With a
        quantized codec the resident arrays are
        :class:`~repro.engine.quant.CodecArray` code views — one byte per
        dimension — and floats are rehydrated only for gathered rows
        (surviving pairs, ranked candidates).  Quantization params are
        fitted once per table at the first full encode and reused for
        every mutation re-encode, so codes splice consistently across
        chunks and generations.  The codec rides in the persistent-cache
        fingerprint, so raw and quantized entries never serve each other.
    """

    def __init__(
        self,
        representation: EntityRepresentationModel,
        task: ERTask,
        counters: Optional[EngineCounters] = None,
        persistent: Optional["PersistentEncodingCache"] = None,
        codec: Optional[str] = None,
    ) -> None:
        self.representation = representation
        self.task = task
        self.counters = counters if counters is not None else engine_counters()
        self.persistent = persistent
        self.codec_name = resolve_codec_name(codec)
        self._codec = get_codec(self.codec_name)
        #: Fixed quantization params per side (quantize-once): fitted at the
        #: first full encode of an entry, adopted from disk on a warm load,
        #: reused for every delta re-encode.
        self._codec_params: Dict[str, Dict[str, CodecParams]] = {}
        self._cache: Dict[str, TableEncodings] = {}
        self._cached_version: Optional[int] = None
        #: Memoized table identities: side -> :class:`_SideState`.  A state
        #: is recomputed when the model version, the row count or the
        #: table's mutation ``revision`` changes, so repeated probes of an
        #: unchanged table never re-CRC its rows while any in-place edit or
        #: deletion (which bumps the revision) invalidates immediately.
        self._fingerprints: Dict[str, _SideState] = {}

    # ------------------------------------------------------------------
    # Cache lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached encodings (next access recomputes)."""
        self._cache.clear()
        self._fingerprints.clear()
        self._codec_params.clear()
        self._cached_version = None

    def _check_version(self) -> None:
        version = self.representation.encoding_version
        if self._cached_version != version:
            self._cache.clear()
            self._fingerprints.clear()
            self._codec_params.clear()
            self._cached_version = version

    def table_fingerprint(self, side: str) -> Dict[str, Any]:
        """The (memoized) persistent-cache fingerprint of one side's table.

        Computing a fingerprint CRCs the model weights and folds the table's
        row CRCs, so the result is cached per ``(side, encoding_version, row
        count, table revision)`` and the ``fingerprints_computed`` counter
        reports how many times it was actually derived.
        """
        return self._side_state(side).fingerprint

    def _side_state(self, side: str) -> _SideState:
        """Memoized fingerprint *and* per-row CRCs of one side's table."""
        from repro.engine.persist import table_row_crcs

        table = self._table_of(side)
        version = self.representation.encoding_version
        memo = self._fingerprints.get(side)
        if (
            memo is not None
            and memo.version == version
            and memo.n_rows == len(table)
            and memo.revision == table.revision
        ):
            return memo
        state = _SideState(
            version=version,
            n_rows=len(table),
            revision=table.revision,
            fingerprint=self._fingerprint_of(table),
            row_crcs=table_row_crcs(table),
        )
        self.counters.record_fingerprint()
        self._fingerprints[side] = state
        return state

    def _fingerprint_of(self, table: Table) -> Dict[str, Any]:
        """The persistent-cache fingerprint, codec-gated when quantized.

        Quantized entries store int8 codes on disk and raw entries store
        floats — the two are not interchangeable, so a non-raw codec rides
        inside the ``model`` fingerprint and makes both the exact-load and
        the row-wise delta probes miss across codecs.  Raw fingerprints
        carry no codec key at all, keeping them byte-identical to pre-codec
        output (and pre-codec cache entries warm).
        """
        from repro.engine.persist import encoding_fingerprint

        fingerprint = encoding_fingerprint(self.representation, table)
        if not self._codec.is_identity:
            fingerprint = dict(
                fingerprint,
                model=dict(fingerprint["model"], codec=self.codec_name),
            )
        return fingerprint

    def _table_of(self, side: str) -> Table:
        if side == "left":
            return self.task.left
        if side == "right":
            return self.task.right
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")

    def _lookup(self, side: str) -> Tuple[TableEncodings, bool]:
        """(encodings, served_from_cache) — computes on miss, never counts hits.

        A cached table is a hit only while the backing :class:`Table` is
        bit-for-bit the state it was encoded from (same length *and* same
        mutation revision).  A mutated table — rows appended, edited in
        place or deleted — is refreshed through the row-identity diff:
        unchanged rows are reused from the cached arrays, dirty and appended
        rows re-encoded, deleted rows dropped.  On a true in-memory miss the
        persistent cache (when attached) is probed first — an exact match,
        then the row-wise *delta* probe that serves every clean surviving
        row from disk; only a full miss pays for the whole IR transform and
        VAE forward pass, and every computed result is written back to disk
        for the next run.
        """
        self._check_version()
        table = self._table_of(side)
        cached = self._cache.get(side)
        if cached is not None:
            memo = self._fingerprints.get(side)
            if (
                memo is not None
                and memo.version == self.representation.encoding_version
                and memo.n_rows == len(table)
                and memo.revision == table.revision
            ):
                return cached, True
            refreshed = self._refresh_mutated(side, cached)
            if refreshed is not None:
                self.counters.record_miss()
                self._cache[side] = refreshed
                return refreshed, False
            # Reordered (or untracked) mutation: nothing provably reusable.
            del self._cache[side]
        self.counters.record_miss()
        encodings = self._load_persistent(side, table)
        if encodings is None:
            encodings = self._compute(side, table)
            self._write_through(side, table, encodings, None)
        self._cache[side] = encodings
        # Memoize the identity at encode time: the mutation refresh above
        # needs the previous table state's per-row CRCs to classify rows,
        # and computing them now (one CRC pass) is cheap next to the encode
        # that just happened.
        self._side_state(side)
        return encodings, False

    def _compute(self, side: str, table: Table) -> TableEncodings:
        """Encode one table from scratch (the work both caches exist to avoid)."""
        irs, mu, sigma = encode_table_rows(self.representation, table)
        self.counters.record_encode()
        keys = tuple(table.record_ids())
        encodings = TableEncodings(
            keys=keys,
            irs=irs,
            mu=mu,
            sigma=sigma,
            row_index={key: row for row, key in enumerate(keys)},
        )
        # A from-scratch encode starts a new cache entry, so new params.
        return self._quantize(side, encodings, fit=True)

    def _compute_records(self, side: str, table: Table, positions: Sequence[int]) -> TableEncodings:
        """Encode only the rows at ``positions`` (the delta re-encode path).

        Row encodings are independent of batch composition (per-value IR
        transform, row-wise VAE forward), so rows encoded here match what a
        whole-table encode would have produced for the same rows.  Counts
        ``rows_reencoded``, *not* ``tables_encoded``.
        """
        all_records = table.records()
        records = [all_records[position] for position in positions]
        sub_table = Table(table.name, table.attributes, records)
        irs, mu, sigma = encode_table_rows(self.representation, sub_table)
        self.counters.record_rows_reencoded(len(records))
        keys = tuple(record.record_id for record in records)
        encodings = TableEncodings(
            keys=keys,
            irs=irs,
            mu=mu,
            sigma=sigma,
            row_index={key: row for row, key in enumerate(keys)},
        )
        # Delta rows splice into an existing entry: quantize with its fixed
        # params (quantize-once) so codes stay chunk-compatible.
        return self._quantize(side, encodings, fit=False)

    def _quantize(self, side: str, encodings: TableEncodings, fit: bool) -> TableEncodings:
        """Wrap freshly encoded float arrays into the codec's resident form.

        ``fit=True`` derives new params (a from-scratch table encode starts
        a new entry); ``fit=False`` reuses the side's fixed params so delta
        rows splice into existing code chunks bit-compatibly.  The ``raw``
        codec only does the ``bytes_stored`` accounting.
        """
        if self._codec.is_identity:
            self.counters.record_bytes_stored(
                sum(np.asarray(getattr(encodings, name)).nbytes for name in _ARRAY_FIELDS)
            )
            return encodings
        params_by = self._codec_params.get(side)
        if fit or params_by is None:
            params_by = {
                name: self._codec.fit(np.asarray(getattr(encodings, name)))
                for name in _ARRAY_FIELDS
            }
            self._codec_params[side] = params_by
        coded: Dict[str, CodecArray] = {}
        for name in _ARRAY_FIELDS:
            array = self._codec.encode(
                np.asarray(getattr(encodings, name)),
                params_by[name],
                on_decode=self.counters.record_bytes_decoded,
            )
            self.counters.record_bytes_stored(array.codes.nbytes)
            coded[name] = array
        return TableEncodings(
            keys=encodings.keys,
            irs=coded["irs"],
            mu=coded["mu"],
            sigma=coded["sigma"],
            row_index=encodings.row_index,
        )

    def _adopt_params(self, side: str, encodings: TableEncodings) -> None:
        """Fix the side's quantization params to those of ``encodings``.

        Called when a quantized table arrives from outside ``_compute`` —
        a persistent load or an in-memory refresh base — so subsequent
        delta re-encodes quantize with the params the existing codes carry.
        """
        if self._codec.is_identity or not isinstance(encodings.irs, CodecArray):
            return
        self._codec_params[side] = {
            name: getattr(encodings, name).params for name in _ARRAY_FIELDS
        }

    def _refresh_mutated(self, side: str, cached: TableEncodings) -> Optional[TableEncodings]:
        """Row-identity refresh of an in-memory table whose backing table mutated.

        Diffs the current table against the memoized per-row CRCs of the
        state ``cached`` was encoded from: unchanged rows are reused from the
        cached arrays by key, dirty (edited) and appended rows are pushed
        through the encoder, deleted rows are dropped.  Returns ``None``
        when surviving rows were reordered or the previous state cannot be
        verified — the caller then falls back to the cold path.
        """
        from repro.engine.persist import diff_rows

        table = self._table_of(side)
        version = self.representation.encoding_version
        memo = self._fingerprints.get(side)
        if memo is None or memo.version != version or memo.n_rows != len(cached):
            return None
        diff = diff_rows(cached.keys, memo.row_crcs, table)
        if diff is None:
            return None
        reused_positions, reused_rows = diff.reused_rows()
        merged = self._reencode_and_splice(
            side,
            table,
            reused=cached,
            reused_positions=reused_positions,
            reused_rows=reused_rows,
            encode_positions=diff.encode_positions(),
            deleted=len(diff.deleted_old),
        )
        fingerprint = self.table_fingerprint(side)  # recomputed for the new state
        if self.persistent is not None:
            # The disk entry may lag the in-memory state (or not exist at
            # all), so the probe decides what the write-through builds on.
            delta = self.persistent.delta(self.task.name, side, version, fingerprint, table)
            self._write_through(side, table, merged, delta)
        return merged

    def _load_persistent(self, side: str, table: Table) -> Optional[TableEncodings]:
        if self.persistent is None:
            return None
        fingerprint = self.table_fingerprint(side)
        loaded = self.persistent.load(
            self.task.name,
            side,
            self.representation.encoding_version,
            fingerprint,
            counters=self.counters,
        )
        if loaded is not None:
            self._adopt_params(side, loaded)
        else:
            loaded = self._load_persistent_delta(side, table, fingerprint)
        if loaded is None:
            self.counters.record_disk_miss()
        else:
            self.counters.record_disk_hit()
        return loaded

    def _load_persistent_delta(
        self, side: str, table: Table, fingerprint: Dict[str, Any]
    ) -> Optional[TableEncodings]:
        """Serve a mutated table from its clean on-disk rows plus a re-encode.

        The row-wise probe classifies every current row; clean surviving
        rows are read from the chunks covering them, dirty and appended rows
        are pushed through the encoder, and the entry is patched in place
        (superseding chunk generations + tombstones + appended chunks,
        manifest last) so the next run gets an exact hit.
        """
        assert self.persistent is not None
        version = self.representation.encoding_version
        delta = self.persistent.delta(self.task.name, side, version, fingerprint, table)
        if delta is None:
            return None
        reused = self.persistent.load_reused(
            self.task.name, side, version, delta, counters=self.counters
        )
        if reused is None:
            return None
        positions, base = reused
        merged = self._reencode_and_splice(
            side,
            table,
            reused=base,
            reused_positions=positions,
            reused_rows=range(len(base)),
            encode_positions=delta.diff.encode_positions(),
            deleted=len(delta.diff.deleted_old),
        )
        self._write_through(side, table, merged, delta)
        return merged

    def _reencode_and_splice(
        self,
        side: str,
        table: Table,
        reused: TableEncodings,
        reused_positions: Sequence[int],
        reused_rows: Sequence[int],
        encode_positions: Sequence[int],
        deleted: int,
    ) -> TableEncodings:
        """A mutated table's encodings: reused rows plus a re-encode of the rest.

        The one refresh of both mutation paths, whether ``reused`` came from
        memory or from disk: row ``reused_rows[i]`` of ``reused`` fills
        current row ``reused_positions[i]``, the rows at ``encode_positions``
        (edited and appended) go through the encoder with the side's fixed
        quantization params, and ``deleted`` vanished rows are counted as
        tombstoned.
        """
        self._adopt_params(side, reused)
        fresh = (
            self._compute_records(side, table, encode_positions)
            if encode_positions
            else None
        )
        self.counters.record_rows_tombstoned(deleted)
        return _splice_encodings(
            keys=tuple(table.record_ids()),
            reused_positions=reused_positions,
            reused=reused,
            reused_rows=reused_rows,
            fresh_positions=encode_positions,
            fresh=fresh,
        )

    def _write_through(
        self, side: str, table: Table, encodings: TableEncodings, delta: Optional["TableDelta"]
    ) -> None:
        """Bring the persistent entry up to ``encodings`` (the current table's).

        ``delta`` is the probe of the entry against the current table: with
        nothing reusable on disk (``None``) the entry is saved whole, an
        append-only delta extends it, anything else patches it.
        """
        if self.persistent is None:
            return
        version = self.representation.encoding_version
        key = (self.task.name, side, version, self.table_fingerprint(side))
        if delta is None:
            self.persistent.save(*key, encodings, table)
        elif not delta.is_append_only:
            _, stats = self.persistent.patch(*key, table, delta, encodings)
            self.counters.record_chunks_patched(stats["chunks_patched"])
        elif delta.new_rows:
            self.persistent.extend(*key, table, delta, encodings)

    def _serve(self, side: str, records: Optional[int] = None) -> TableEncodings:
        """Serve one side, counting a cache hit when no compute was needed.

        ``records`` is what the legacy path would have re-encoded for this
        operation (the whole table when omitted, the referenced pair records
        for gathers); it feeds the ``encodes_avoided`` counter so the counter
        measures work actually saved, not raw cache accesses.
        """
        encodings, from_cache = self._lookup(side)
        if from_cache:
            self.counters.record_hit(
                records_served=len(encodings) if records is None else records
            )
        return encodings

    def table_encodings(self, side: str) -> TableEncodings:
        """Cached batched encodings of one side, computing them on first use."""
        return self._serve(side)

    # ------------------------------------------------------------------
    # Pair gathering
    # ------------------------------------------------------------------
    def gather_pair_irs(self, pairs: Sequence[PairLike]) -> Tuple[np.ndarray, np.ndarray]:
        """IR input tensors of a pair sequence, each (n, arity, ir_dim)."""
        pairs = list(pairs)
        if not pairs:
            arity = self.task.arity
            dim = self.representation.config.ir_dim
            empty = np.zeros((0, arity, dim))
            return empty, empty.copy()
        # The legacy path re-encoded the referenced pair records per call.
        left = self._serve("left", records=len(pairs))
        right = self._serve("right", records=len(pairs))
        left_rows = left.rows([p.left_id for p in pairs])
        right_rows = right.rows([p.right_id for p in pairs])
        self.counters.record_pairs(len(pairs))
        return left.irs[left_rows], right.irs[right_rows]

    def score_pairs(self, matcher, pairs: Sequence[PairLike]) -> np.ndarray:
        """The matcher's probabilities for a pair sequence, (n,).

        The pairs become row indices into the cached tables and the matcher
        encodes each distinct record once (``predict_proba(..., rows=)``);
        accounted like :meth:`gather_pair_irs`, plus ``records_scored``.
        """
        pairs = list(pairs)
        if not pairs:
            return matcher.predict_proba(*self.gather_pair_irs(pairs))
        left = self._serve("left", records=len(pairs))
        right = self._serve("right", records=len(pairs))
        left_rows = left.rows([p.left_id for p in pairs])
        right_rows = right.rows([p.right_id for p in pairs])
        probabilities = matcher.predict_proba(left.irs, right.irs, rows=(left_rows, right_rows))
        self.counters.record_pairs(len(pairs))
        self.counters.record_records_scored(distinct_rows(left_rows, right_rows))
        return probabilities

    def pair_ir_arrays(self, pairs: Sequence[PairLike]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(left IRs, right IRs, labels): the matcher's featurisation input.

        Unlabeled pairs (plain :class:`RecordPair`) get label 0, matching the
        legacy convention for candidate featurisation.
        """
        pairs = list(pairs)
        left, right = self.gather_pair_irs(pairs)
        labels = np.array([getattr(p, "label", 0) for p in pairs], dtype=np.float64)
        return left, right, labels

    def gather_pair_latents(
        self, pairs: Sequence[PairLike]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(mu_left, sigma_left, mu_right, sigma_right), each (n, arity, latent)."""
        pairs = list(pairs)
        if not pairs:
            arity = self.task.arity
            latent = self.representation.config.latent_dim
            empty = np.zeros((0, arity, latent))
            return empty, empty.copy(), empty.copy(), empty.copy()
        left = self._serve("left", records=len(pairs))
        right = self._serve("right", records=len(pairs))
        left_rows = left.rows([p.left_id for p in pairs])
        right_rows = right.rows([p.right_id for p in pairs])
        return left.mu[left_rows], left.sigma[left_rows], right.mu[right_rows], right.sigma[right_rows]

    # ------------------------------------------------------------------
    # Vectorized pair scoring
    # ------------------------------------------------------------------
    def pair_latent_distances(self, pairs: Sequence[PairLike]) -> np.ndarray:
        """Expected latent distance per pair (the AL diversity statistic).

        Mean over attributes of the Euclidean distance between posterior
        means — the vectorized equivalent of the per-pair loop formerly in
        :func:`repro.core.active.sampler.pair_latent_distances`.
        """
        pairs = list(pairs)
        if not pairs:
            return np.zeros(0)
        mu_left, _, mu_right, _ = self.gather_pair_latents(pairs)
        self.counters.record_pairs(len(pairs))
        return np.sqrt(((mu_left - mu_right) ** 2).sum(axis=-1)).mean(axis=-1)

    def pair_tuple_wasserstein(self, pairs: Sequence[PairLike]) -> np.ndarray:
        """Tuple-level W2^2 per pair (Algorithm 1's bootstrap ranking).

        Vectorized equivalent of calling
        :func:`repro.core.distances.tuple_wasserstein` pair by pair.
        """
        pairs = list(pairs)
        if not pairs:
            return np.zeros(0)
        mu_left, sigma_left, mu_right, sigma_right = self.gather_pair_latents(pairs)
        self.counters.record_pairs(len(pairs))
        per_attribute = ((mu_left - mu_right) ** 2 + (sigma_left - sigma_right) ** 2).sum(axis=-1)
        return per_attribute.mean(axis=-1)

    def record_external_gather(self, n_pairs: int, distinct: int) -> None:
        """Counter bookkeeping for a batch scored outside the store.

        The resolve executor hands each batch's gathered rows to a score
        task; this mirrors the accounting :meth:`score_pairs` would have
        done (one logical hit per side plus the ``n_pairs`` scored pairs
        and the ``distinct`` left plus right rows they reference) so serial
        and pooled runs report equal counters.
        """
        if n_pairs <= 0:
            return
        self.counters.record_hit(records_served=n_pairs)
        self.counters.record_hit(records_served=n_pairs)
        self.counters.record_pairs(n_pairs)
        self.counters.record_records_scored(distinct)

    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Bytes held by the resident encodings of all cached sides.

        For the ``raw`` codec this is the float array footprint; for a
        quantized codec the code footprint (plus the tiny params) — the
        number the serve daemon's ``/stats`` reports as its working set.
        """
        total = 0
        for encodings in self._cache.values():
            for name in _ARRAY_FIELDS:
                total += int(getattr(encodings, name).nbytes)
        return total

    def stats(self) -> Dict[str, int]:
        """Defensive snapshot of the attached counters.

        The returned dict is a fresh copy on every call: mutating it (or
        holding it across further store operations) cannot perturb the live
        counters, so harnesses can diff successive snapshots safely.
        """
        return dict(self.counters.as_dict())

    def __repr__(self) -> str:
        cached = ",".join(sorted(self._cache)) or "empty"
        return f"EncodingStore(task={self.task.name!r}, cached=[{cached}])"


def encode_table_rows(
    representation: "EntityRepresentationModel", table: Table
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(irs, mu, sigma) of one table-shaped record collection.

    Standalone so callers without a store — the serve daemon's probe
    queries — encode through the same code.  Each IR row is a pure function
    of its value (the same bytes in any batch, table, process or request),
    and the row-wise VAE forward keeps a row's ``mu``/``sigma`` within the
    documented 1 ulp of any other batch's, which is what lets delta paths
    splice rows encoded at different times into one table.
    """
    irs = representation.ir_generator.transform_table(table)
    n, arity, _ = irs.shape
    if n == 0:
        latent = representation.config.latent_dim
        mu = np.zeros((0, arity, latent))
        sigma = np.zeros((0, arity, latent))
    else:
        flat_mu, flat_sigma = representation.vae.encode_numpy(irs.reshape(n * arity, -1))
        latent = flat_mu.shape[-1]
        mu = flat_mu.reshape(n, arity, latent)
        sigma = flat_sigma.reshape(n, arity, latent)
    return irs, mu, sigma


def _splice_encodings(
    keys: Tuple[str, ...],
    reused_positions: Sequence[int],
    reused: TableEncodings,
    reused_rows: Sequence[int],
    fresh_positions: Sequence[int],
    fresh: Optional[TableEncodings],
) -> TableEncodings:
    """Assemble a mutated table's encodings from reused and fresh rows.

    ``reused_positions[i]`` (a current-table row) is filled from row
    ``reused_rows[i]`` of ``reused``; ``fresh_positions[j]`` from row ``j``
    of ``fresh``.  Together the two position sets must tile ``range(len(
    keys))`` — edits, deletions and appends alike — and the result is
    indistinguishable from a whole-table encode of the current table.
    """
    n = len(keys)
    reference = fresh if fresh is not None else reused
    out: Dict[str, np.ndarray] = {}
    for name in _ARRAY_FIELDS:
        reused_array = getattr(reused, name)
        fresh_array = getattr(fresh, name) if fresh is not None else None
        if isinstance(reused_array, CodecArray):
            # Code-space splice: scatter int8 codes, never decode. Fresh
            # rows were quantized with the entry's fixed params, so their
            # codes drop straight in.
            codes = np.empty(
                (n,) + reused_array.codes.shape[1:], dtype=reused_array.codes.dtype
            )
            if len(reused_positions):
                codes[np.asarray(reused_positions, dtype=np.intp)] = reused_array.codes[
                    np.asarray(reused_rows, dtype=np.intp)
                ]
            if fresh_array is not None and len(fresh_positions):
                codes[np.asarray(fresh_positions, dtype=np.intp)] = (
                    fresh_array.codes
                    if isinstance(fresh_array, CodecArray)
                    else reused_array.encode_rows(fresh_array)
                )
            out[name] = CodecArray(
                codes, reused_array.params, on_decode=reused_array.on_decode
            )
            continue
        sample = np.asarray(getattr(reference, name))
        array = np.empty((n,) + sample.shape[1:], dtype=sample.dtype)
        if len(reused_positions):
            array[np.asarray(reused_positions, dtype=np.intp)] = np.asarray(
                reused_array
            )[np.asarray(reused_rows, dtype=np.intp)]
        if fresh_array is not None and len(fresh_positions):
            array[np.asarray(fresh_positions, dtype=np.intp)] = fresh_array
        out[name] = array
    return TableEncodings(
        keys=keys,
        irs=out["irs"],
        mu=out["mu"],
        sigma=out["sigma"],
        row_index={key: row for row, key in enumerate(keys)},
    )

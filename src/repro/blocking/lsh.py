"""Locality Sensitive Hashing for Euclidean distance (p-stable scheme).

Algorithm 1 of the paper generates the unlabeled candidate pool by LSH
nearest-neighbour search over entity representations, exploiting the fact
that the 2-Wasserstein distance between diagonal Gaussians is positively
correlated with the Euclidean distance between their means.  This module
implements the classic p-stable LSH of Datar et al. (2004): each hash table
projects vectors onto random Gaussian directions, shifts and quantises them
into buckets of width ``w``; near vectors collide in at least one table with
high probability.

The index holds its buckets once, as labels: per hash table a ``{bucket
key: label}`` lookup holding exactly the buckets some stored row is in, a
``(tables, stored rows)`` array with the label of each row's bucket, and a
live-row mask.  The build is three steps: :meth:`prepare` fixes the random
projections and registers the vectors, :meth:`hash_rows` computes the
bucket ids of a row range, and :meth:`install_tables` labels them in row
order.  :meth:`build` composes the three over the whole table and
:meth:`extend` hashes only the appended rows.  Queries run
block-at-a-time: :meth:`query_batch` computes the bucket ids of a whole
block of query vectors in one projection pass, looks up their labels and
compares them with the stored rows' labels, table by table, into one
boolean (queries x stored rows) membership mask ANDed with the live mask;
only the bucket lookups and the final top-k cut remain per row.  Every
table kind is ranked by one routine: one GEMM gives the table's exact
kernel in the form ``|a|^2 + |b|^2 - 2 a.b`` for every stored row — the
float rows themselves, int8 codes in the kernel's shifted frame, pq rows
decoded one bounded block at a time — a rounding-error bound per table
kind turns it into an interval that holds the kernel's value, and only
members whose lower end reaches the ``(k + 1)``-th smallest upper end are
scored by the kernel (:func:`_raw_sq_distances` on float tables, the
asymmetric kernel on code tables) — the answer of ranking every candidate
with it, to the byte.  Answers are ordered by (distance, stored row) for
every codec, so exact ties break by row.  Quantized tables additionally
declare a query-time policy through their codec params (rank-cut
expansion and low-margin multiprobe — see :meth:`_query_policy`) so
approximate codes trade a wider exact-scored shortlist for recall instead
of losing it.

The index is additionally *mutable in place* — the incremental-blocking
layer of delta resolution — and every mutation writes the labels directly:
:meth:`extend` appends label columns, :meth:`remove` tombstones rows by key
(clears their live bit; labels are untouched until compaction), and
:meth:`patch` swaps a row's vector, relabels just that row and drops any
bucket it emptied.  Once the tombstoned fraction passes ``compaction_load``
the index :meth:`compact`\\ s: dead rows' label columns go, and so do the
buckets no survivor holds, leaving the buckets — and the rows in each — of
a from-scratch build over the live vectors.  A new bucket always takes a
fresh label, so a label names one bucket for the life of the index.  Query
answers are identical to a rebuild at every point before and after
compaction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.timing import engine_counters
from repro.exceptions import NotFittedError

#: Tombstoned fraction above which :meth:`EuclideanLSHIndex.remove` compacts.
DEFAULT_COMPACTION_LOAD = 0.3

#: Rows hashed per decode block when the stored vectors are int8 codes —
#: bounds the transient float materialisation of a build/extend hash pass.
_HASH_BLOCK_ROWS = 4096

#: (query, stored row) cells of one ranking block — bounds its membership
#: mask and each float temporary of the shortlist GEMM (~8 MB of float64;
#: three of them plus the masks stay near 32 MB) — and elements of one block
#: of stored rows a code table decodes for that GEMM.
_RANK_BLOCK_PAIRS = 1 << 20

#: Safety factor ``c`` of the shortlist bound ``c * (d + 2) * u * (|a|^2 +
#: |b|^2)``; the rounding analysis in :meth:`EuclideanLSHIndex._intervals`
#: needs a little under 4.
_SHORTLIST_SLACK = 8.0

#: Elements of one difference block of the exact raw kernel (~32 MB of float64).
_DIFF_BLOCK_ELEMENTS = 1 << 22


def _quant():
    """:mod:`repro.engine.quant`, imported lazily.

    A module-scope import would initialise the :mod:`repro.engine` package,
    whose hub imports the planner, which imports this module — a cycle when
    ``repro.blocking.lsh`` is imported first.  The function-level import is
    a ``sys.modules`` hit after the first call.
    """
    from repro.engine import quant

    return quant


def _is_code_array(vectors) -> bool:
    if isinstance(vectors, np.ndarray):
        return False
    return isinstance(vectors, _quant().CodecArray)


def _raw_sq_distances(
    queries: np.ndarray, table: np.ndarray, rows: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Squared distances of a float query block to its CSR candidate rows.

    Query ``i`` is scored against ``table[rows[offsets[i]:offsets[i + 1]]]``;
    the result is flat, aligned with ``rows``.  Each query's gathered
    differences are reduced row by row (``einsum("ij,ij->i")``), so a pair's
    distance is the same whatever else shares the block.
    """
    out = np.empty(len(rows), dtype=np.result_type(table.dtype, queries.dtype))
    block = max(1, _DIFF_BLOCK_ELEMENTS // max(1, table.shape[1]))
    for query, entries in _quant().candidate_chunks(offsets, block):
        diffs = table[rows[entries]] - queries[query]
        out[entries] = np.einsum("ij,ij->i", diffs, diffs)
    return out


def _float_rows(vectors) -> np.ndarray:
    """Vectors read once as floats: code arrays decoded, fp32/fp64 passed
    through, any other dtype upcast to fp64.

    For the rows a call only reads — query blocks, patched rows, hash
    blocks; tables the index stores go through :func:`_coerce_vectors`.
    """
    if _is_code_array(vectors):
        vectors = vectors.decode()
    vectors = np.asarray(vectors)
    if vectors.dtype not in (np.float32, np.float64):
        vectors = vectors.astype(np.float64)
    return vectors


def _coerce_vectors(vectors):
    """Vectors as stored: zero-copy for fp32/fp64 and code arrays.

    Float inputs pass through unchanged (only exotic dtypes are upcast)
    and :class:`repro.engine.quant.CodecArray` inputs stay compressed.
    """
    return vectors if _is_code_array(vectors) else _float_rows(vectors)


class EuclideanLSHIndex:
    """Multi-table p-stable LSH index over dense vectors.

    Parameters
    ----------
    num_tables:
        Number of independent hash tables; more tables raise recall.
    hash_size:
        Number of random projections concatenated into one bucket key.
    bucket_width:
        Quantisation width ``w``; larger widths make collisions more likely.
    seed:
        Seed of the random projections.
    compaction_load:
        Tombstoned-row fraction above which :meth:`remove` triggers
        :meth:`compact`.
    """

    def __init__(
        self,
        num_tables: int = 8,
        hash_size: int = 12,
        bucket_width: float = 4.0,
        seed: int = 41,
        compaction_load: float = DEFAULT_COMPACTION_LOAD,
    ) -> None:
        if num_tables <= 0 or hash_size <= 0:
            raise ValueError("num_tables and hash_size must be positive")
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if not 0.0 < compaction_load <= 1.0:
            raise ValueError("compaction_load must be in (0, 1]")
        self.num_tables = num_tables
        self.hash_size = hash_size
        self.bucket_width = bucket_width
        self.seed = seed
        self.compaction_load = compaction_load
        self._projections: Optional[np.ndarray] = None
        self._projections32: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None
        self._vectors: Optional[np.ndarray] = None
        self._keys: List[object] = []
        # Per hash table, bucket key -> label: exactly the buckets some
        # stored row is in (empty until install_tables).
        self._lookups: List[Dict[Tuple[int, ...], int]] = []
        # (tables, stored rows): the label of each row's bucket.
        self._labels = np.empty((num_tables, 0), dtype=np.intp)
        # Stored rows that are not tombstoned.
        self._live = np.ones(0, dtype=bool)
        # The next fresh label; labels are never reused.
        self._next_label = 0
        self._key_rows: Optional[Dict[object, int]] = None
        self._mutations: int = 0
        # Per-row squared norms of the stored table (||x||^2, or ||c*s||^2
        # over code vectors), keyed by the mutation counter: (mutations, norms).
        self._norms_cache: Optional[Tuple[int, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Build: prepare -> hash_rows -> install_tables
    # ------------------------------------------------------------------
    def prepare(self, vectors: np.ndarray, keys: Optional[Sequence[object]] = None) -> "EuclideanLSHIndex":
        """Fix the projections and register ``vectors`` without hashing them.

        After ``prepare`` the index is *not* queryable yet: the buckets are
        installed by feeding :meth:`hash_rows` output to
        :meth:`install_tables`.

        ``vectors`` may be float64, float32 (hashed through the fp32
        projection fast path, no upcast copy) or a
        :class:`repro.engine.quant.CodecArray` — the index then keeps the
        codes resident, hashes in bounded decode blocks and scores its
        ranking shortlist with the asymmetric distance kernel.
        """
        vectors = _coerce_vectors(vectors)
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-d array of vectors, got shape {vectors.shape}")
        n, dim = vectors.shape
        rng = np.random.default_rng(self.seed)
        self._projections = rng.standard_normal((self.num_tables, self.hash_size, dim))
        self._projections32 = None
        self._offsets = rng.uniform(0.0, self.bucket_width, size=(self.num_tables, self.hash_size))
        self._norms_cache = None
        self._vectors = vectors
        self._keys = list(keys) if keys is not None else list(range(n))
        if len(self._keys) != n:
            raise ValueError("keys must align with vectors")
        self._lookups = []
        self._live = np.ones(n, dtype=bool)
        self._key_rows = None
        self._mutations += 1
        return self

    def hash_rows(self, start: int, stop: int) -> np.ndarray:
        """Bucket ids of rows ``[start, stop)`` (global indices), as a
        ``(tables, rows, hash_size)`` int64 array.

        Pure function of the prepared projections and vectors, computed in
        one array-at-a-time projection pass; :meth:`install_tables` labels
        the ids of consecutive ranges.
        """
        if self._vectors is None:
            raise NotFittedError("EuclideanLSHIndex.hash_rows called before prepare")
        start, stop = max(0, start), min(len(self._vectors), stop)
        # Code vectors decode block by block, so hashing a cold table never
        # materialises more than one block of floats at a time.
        block = _HASH_BLOCK_ROWS if _is_code_array(self._vectors) else max(1, stop - start)
        ids = [np.empty((self.num_tables, 0, self.hash_size), dtype=np.int64)]
        for block_start in range(start, stop, block):
            ids.append(self._bucket_ids(self._vectors[block_start : min(stop, block_start + block)]))
        return np.concatenate(ids, axis=1)

    def install_tables(self, bucket_ids: Iterable[np.ndarray]) -> "EuclideanLSHIndex":
        """Install :meth:`hash_rows` output, given in ascending row-range
        order and covering every prepared row, as the index's buckets.

        Each distinct bucket key of a table gets a fresh label and every
        row the label of its bucket, so the buckets are those one
        :meth:`build` over all the rows installs.
        """
        if self._vectors is None:
            raise NotFittedError("EuclideanLSHIndex.install_tables called before prepare")
        bucket_ids = list(bucket_ids)
        if any(ids.ndim != 3 or len(ids) != self.num_tables for ids in bucket_ids):
            raise ValueError("bucket ids must cover every hash table")
        self._lookups = [{} for _ in range(self.num_tables)]
        self._next_label = 0
        labels = [np.empty((self.num_tables, 0), dtype=np.intp)]
        labels += [self._labels_of(ids, grow=True) for ids in bucket_ids]
        self._labels = np.concatenate(labels, axis=1)
        return self

    def build(self, vectors: np.ndarray, keys: Optional[Sequence[object]] = None) -> "EuclideanLSHIndex":
        """Index ``vectors``; ``keys`` are the identifiers returned by queries."""
        self.prepare(vectors, keys)
        return self.install_tables([self.hash_rows(0, self.size)])

    def extend(self, vectors: np.ndarray, keys: Sequence[object]) -> "EuclideanLSHIndex":
        """Install additional rows into a built index without a rebuild.

        The incremental-blocking primitive: appended rows are hashed with
        the *existing* projections through :meth:`hash_rows` (the step
        :meth:`build` uses) and their label columns appended — O(delta)
        bucket work, not O(table).  New rows receive the next global
        indices and join the buckets their keys name, so the buckets are
        exactly what a from-scratch :meth:`build` over the concatenated
        vectors installs; query answers are therefore identical to a full
        rebuild.
        """
        self._require_built("extend")
        vectors = _coerce_vectors(vectors)
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-d array of vectors, got shape {vectors.shape}")
        assert self._vectors is not None
        if vectors.shape[1] != self._vectors.shape[1]:
            raise ValueError(
                f"extension vectors have dimension {vectors.shape[1]}, "
                f"index was built over dimension {self._vectors.shape[1]}"
            )
        keys = list(keys)
        if len(keys) != len(vectors):
            raise ValueError("keys must align with vectors")
        if len(vectors) == 0:
            return self
        start = len(self._vectors)
        if _is_code_array(self._vectors):
            # Code-space append: quantized tails drop their codes straight
            # in, float tails are encoded with the index's fixed params.
            self._vectors = self._vectors.concat_rows(vectors)
        else:
            self._vectors = np.concatenate([self._vectors, np.asarray(vectors)])
        self._keys.extend(keys)
        self._key_rows = None
        self._mutations += 1
        labels = self._labels_of(self.hash_rows(start, len(self._vectors)), grow=True)
        self._labels = np.concatenate([self._labels, labels], axis=1)
        self._live = np.concatenate([self._live, np.ones(len(keys), dtype=bool)])
        return self

    def _labels_of(self, bucket_ids: np.ndarray, grow: bool = False) -> np.ndarray:
        """``(tables, rows)`` labels of ``(tables, rows, hash_size)`` bucket ids.

        A key the table's lookup does not hold gets ``-1``, which no row
        holds — or, with ``grow``, the next fresh label, which the lookup
        then holds.  Labels are never reused, not even after the bucket
        that held one is dropped, so two buckets never share a label.
        """
        labels = np.empty(bucket_ids.shape[:2], dtype=np.intp)
        for table_index, lookup in enumerate(self._lookups):
            # One tolist() per table: native-int keys hash faster than
            # np.int64 tuples and compare equal to them.
            buckets = list(map(tuple, bucket_ids[table_index].tolist()))
            if grow:
                for bucket in buckets:
                    if bucket not in lookup:
                        lookup[bucket] = self._next_label
                        self._next_label += 1
            get = lookup.get
            labels[table_index] = np.fromiter(
                (get(bucket, -1) for bucket in buckets), dtype=np.intp, count=len(buckets)
            )
        return labels

    # ------------------------------------------------------------------
    # In-place mutation: remove (tombstones), patch, compaction
    # ------------------------------------------------------------------
    def _rows_of(self, keys: Sequence[object]) -> List[int]:
        """Live row indices of ``keys`` (raises ``KeyError`` on unknown keys)."""
        if self._key_rows is None:
            stored = self._keys
            self._key_rows = {stored[row]: row for row in np.flatnonzero(self._live).tolist()}
        mapping = self._key_rows
        rows = []
        for key in keys:
            try:
                rows.append(mapping[key])
            except KeyError as exc:
                raise KeyError(f"key {key!r} not present (or tombstoned) in index") from exc
        return rows

    def remove(self, keys: Sequence[object]) -> "EuclideanLSHIndex":
        """Tombstone rows by key: clear their live bit, keep their labels.

        Deleted rows are masked out during candidate gathering, so query
        answers immediately equal a from-scratch build over the surviving
        vectors — O(1) per removal.  Once the tombstoned fraction exceeds
        ``compaction_load`` the index compacts (see :meth:`compact`), after
        which its buckets themselves are those of a rebuild.
        """
        self._require_built("remove")
        rows = self._rows_of(keys)
        self._mutations += 1
        self._live[rows] = False
        if self._key_rows is not None:
            for key in keys:
                self._key_rows.pop(key, None)
        if self.tombstoned > self.compaction_load * self.size:
            self.compact()
        return self

    def patch(self, vectors: np.ndarray, keys: Sequence[object]) -> "EuclideanLSHIndex":
        """Swap the vectors of existing rows in place and relabel them.

        The edited row keeps its row index and takes the labels of its new
        vector's buckets (a bucket no row held yet gets a fresh label); a
        bucket it left that no stored row holds any more is dropped from the
        lookup, so the buckets are those of a from-scratch build over the
        edited vectors.
        """
        self._require_built("patch")
        vectors = _float_rows(vectors)
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-d array of vectors, got shape {vectors.shape}")
        assert self._vectors is not None
        if vectors.shape[1] != self._vectors.shape[1]:
            raise ValueError(
                f"patch vectors have dimension {vectors.shape[1]}, "
                f"index was built over dimension {self._vectors.shape[1]}"
            )
        keys = list(keys)
        if len(keys) != len(vectors):
            raise ValueError("keys must align with vectors")
        if not keys:
            return self
        rows = self._rows_of(keys)
        self._mutations += 1
        old_buckets = self._bucket_ids(self._vectors[rows])
        old_labels = self._labels[:, rows]
        for position, row in enumerate(rows):
            self._vectors[row] = vectors[position]
        self._labels[:, rows] = self._labels_of(self._bucket_ids(vectors), grow=True)
        for table_index, lookup in enumerate(self._lookups):
            emptied = ~self._held_labels(table_index)[old_labels[table_index]]
            for bucket in map(tuple, old_buckets[table_index, emptied].tolist()):
                lookup.pop(bucket, None)
        return self

    def compact(self) -> "EuclideanLSHIndex":
        """Drop tombstoned rows and renumber the survivors.

        Surviving rows keep their relative order and their labels; buckets
        no survivor holds are dropped from the lookups, like a rebuild would
        never have created them.  The buckets — and the rows in each — are
        then those of a serial :meth:`build` over the live vectors.  A no-op
        when nothing is tombstoned.
        """
        self._require_built("compact")
        if self._live.all():
            return self
        assert self._vectors is not None
        self._mutations += 1
        alive = np.flatnonzero(self._live)
        if _is_code_array(self._vectors):
            # A plain fancy-index would decode; keep the survivors as codes.
            self._vectors = self._vectors.take_rows(alive)
        else:
            self._vectors = self._vectors[alive]
        self._keys = [self._keys[row] for row in alive.tolist()]
        self._labels = self._labels[:, alive]
        for table_index, lookup in enumerate(self._lookups):
            held = self._held_labels(table_index).tolist()
            self._lookups[table_index] = {
                bucket: label for bucket, label in lookup.items() if held[label]
            }
        self._live = np.ones(len(alive), dtype=bool)
        self._key_rows = None
        return self

    def _held_labels(self, table_index: int) -> np.ndarray:
        """Bool mask over every label issued: held by some stored row of the table."""
        held = np.zeros(self._next_label, dtype=bool)
        held[self._labels[table_index]] = True
        return held

    def _scaled_projections(self, vectors) -> np.ndarray:
        """Projections shifted and scaled to bucket units (floor = bucket id).

        The fractional part is each coordinate's position inside its
        bucket — the margin signal query-time multiprobe perturbs.
        """
        assert self._projections is not None and self._offsets is not None
        vectors = _float_rows(vectors)  # callers pass bounded row blocks
        if vectors.dtype == np.float32:
            # fp32 fast path: project with a (lazily cached) fp32 copy of
            # the projections instead of upcasting the whole vector block.
            projections = self._projections32
            if projections is None:
                projections = self._projections.astype(np.float32)
                self._projections32 = projections
        else:
            projections = self._projections
        # shape: (num_tables, n, hash_size)
        projected = np.einsum("thd,nd->tnh", projections, vectors)
        return (projected + self._offsets[:, None, :]) / self.bucket_width

    def _bucket_ids(self, vectors) -> np.ndarray:
        return np.floor(self._scaled_projections(vectors)).astype(np.int64)

    def _query_policy(self) -> Tuple[int, int]:
        """Per-query (rank-cut multiplier, extra probed buckets per table).

        Declared by the stored table's codec params: a quantized table
        ranks an expanded approximate shortlist and probes neighbouring
        low-margin buckets so decode error cannot silently shrink recall.
        Raw float tables (and codecs that rank exactly enough, like int8)
        use ``(1, 0)`` — behaviour identical to an unexpanded query.
        """
        if _is_code_array(self._vectors):
            params = self._vectors.params
            return (
                max(1, int(getattr(params, "rank_expansion", 1))),
                max(0, int(getattr(params, "extra_probes", 0))),
            )
        return 1, 0

    @staticmethod
    def _probe_ids(scaled: np.ndarray, base: np.ndarray, probes: int) -> List[np.ndarray]:
        """Multiprobe bucket ids: perturb the lowest-margin coordinates.

        For each (table, query) the hash coordinates closest to a bucket
        boundary are the likeliest to have flipped under quantization
        noise; probe ``probes`` of them, each stepped one bucket toward
        its nearest boundary.  Deterministic (stable argsort on margins).
        """
        frac = scaled - base
        margins = np.minimum(frac, 1.0 - frac)
        direction = np.where(frac < 0.5, -1, 1)
        order = np.argsort(margins, axis=-1, kind="stable")
        tables_index = np.arange(scaled.shape[0])[:, None]
        rows_index = np.arange(scaled.shape[1])[None, :]
        out: List[np.ndarray] = []
        for position in range(min(probes, scaled.shape[2])):
            coordinate = order[:, :, position]
            perturbed = base.copy()
            perturbed[tables_index, rows_index, coordinate] += direction[
                tables_index, rows_index, coordinate
            ]
            out.append(perturbed)
        return out

    def _require_built(self, operation: str) -> None:
        if self._vectors is None or not self._lookups:
            raise NotFittedError(f"EuclideanLSHIndex.{operation} called before build")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, vector: np.ndarray, k: int = 10, exclude: Optional[object] = None) -> List[Tuple[object, float]]:
        """Return up to ``k`` (key, distance) pairs nearest to ``vector``.

        Candidates are gathered from colliding buckets across all tables and
        re-ranked by exact Euclidean distance.  If the buckets yield fewer
        than ``k`` candidates, the index transparently falls back to a linear
        scan so recall never collapses on small datasets.  An empty index
        yields an empty result; ``k`` larger than the index size simply
        returns every (non-excluded) vector.
        """
        vector = _float_rows(np.atleast_1d(vector)).reshape(1, -1)
        return self.query_batch(vector, k=k, exclude=[exclude])[0]

    def query_batch(
        self,
        vectors: np.ndarray,
        k: int = 10,
        exclude: Optional[Sequence[object]] = None,
    ) -> List[List[Tuple[object, float]]]:
        """Top-``k`` results for a whole block of query vectors.

        Bucket hashing is array-at-a-time (one projection pass computes the
        bucket ids of every query row) and so is candidate gathering: each
        block of query rows — at most ``_RANK_BLOCK_PAIRS`` (query, stored
        row) cells — gets one boolean membership mask (:meth:`_members`)
        from its buckets' labels.  A row whose mask holds fewer than ``k``
        candidates takes every live row instead: the linear-scan fallback
        is the same mask, filled.  Every table kind ranks the mask the same
        way (:meth:`_rank`): a GEMM shortlist under a rigorous rounding
        bound, then the table's exact per-pair kernel on the shortlist.

        Every answer is ordered by (distance, stored row) — exact ties break
        by row — so a row's answer never depends on the rows sharing its
        block.  It equals ranking the full candidate set with the table's
        per-pair kernel — :func:`_raw_sq_distances` on float tables, the CSR
        form of :func:`repro.engine.quant.asymmetric_sq_distances` on code
        tables — in keys and in distance bytes.  One call is recorded in the
        engine counters (queries, linear-scan fallbacks, candidates ranked,
        distances computed by the per-pair kernel).
        ``exclude`` optionally supplies one key per query row to drop from
        that row's results (the per-row counterpart of :meth:`query`'s
        ``exclude``); keys are unique, so it drops at most one row.

        Over quantized tables the stored codec's query policy applies
        (see :meth:`_query_policy`): results may carry up to
        ``rank_expansion * k`` entries per query — the approximate-distance
        shortlist downstream exact scoring prunes — and each hash table is
        probed at its ``extra_probes`` lowest-margin neighbour buckets.
        """
        self._require_built("query_batch")
        if k <= 0:
            raise ValueError("k must be positive")
        vectors = _float_rows(vectors)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-d array of query vectors, got shape {vectors.shape}")
        n = len(vectors)
        if exclude is not None and len(exclude) != n:
            raise ValueError("exclude must align with query vectors")
        if n == 0:
            return []
        expansion, probes = self._query_policy()
        k_effective = k * expansion
        scaled = self._scaled_projections(vectors)
        id_blocks = [np.floor(scaled).astype(np.int64)]
        if probes:
            id_blocks.extend(self._probe_ids(scaled, id_blocks[0], probes))
        results: List[Optional[List[Tuple[object, float]]]] = [None] * n
        step = max(1, _RANK_BLOCK_PAIRS // max(1, self.size))
        fallback = ranked = rescored = 0
        for start in range(0, n, step):
            rows = range(start, min(n, start + step))
            members = self._members(id_blocks, rows)
            starved = np.count_nonzero(members, axis=1) < k_effective
            if starved.any():
                # Every live row is a candidate: recall never collapses on
                # small tables.
                members[starved] = self._live
            fallback += int(np.count_nonzero(starved))
            ranked += int(np.count_nonzero(members))
            queries = vectors[rows.start : rows.stop]
            rescored += self._rank(queries, rows, members, k_effective, exclude, results)
        engine_counters().record_blocking(n, fallback, ranked, rescored)
        return results  # type: ignore[return-value]

    def _members(self, id_blocks: List[np.ndarray], rows: range) -> np.ndarray:
        """Candidate mask of query ``rows``.

        ``id_blocks`` holds every query's bucket ids, one ``(tables,
        queries, hash_size)`` array per probe; :meth:`_labels_of` turns
        those of ``rows`` into labels (``-1`` for a bucket no stored row is
        in).  Cell ``(i, j)`` of the ``(len(rows), stored rows)`` mask is set
        when stored row ``j`` is live and holds the label of query
        ``rows[i]``'s bucket in some table.
        """
        members = np.zeros((len(rows), self.size), dtype=bool)
        hits = np.empty_like(members)
        for ids in id_blocks:
            wanted = self._labels_of(ids[:, rows.start : rows.stop])
            for table_index in range(self.num_tables):
                np.equal(wanted[table_index, :, None], self._labels[table_index], out=hits)
                members |= hits
        # Tombstones: deleted rows never surface as candidates, so answers
        # equal a rebuild over the live vectors alone.
        members &= self._live
        return members

    def _rank(
        self,
        queries: np.ndarray,
        rows: range,
        members: np.ndarray,
        k: int,
        exclude: Optional[Sequence[object]],
        results: List[Optional[List[Tuple[object, float]]]],
    ) -> int:
        """Rank one block of query rows; returns the number of (query, row)
        pairs the table's exact kernel scored.

        The exact top ``k`` of each row's members, on every table kind,
        without running the exact kernel on all of them:

        1. ``G``, the kernel's distance in GEMM form (:meth:`_intervals`),
           against every stored row, and ``B`` with ``|G - K| <= B`` for the
           kernel's result ``K`` on every pair.
        2. ``tau``, the ``(k + 1)``-th smallest ``G + B`` among members, and
           the shortlist: members with ``G - B <= tau`` (non-finite bounds
           stay in).  A member left out has ``K > tau``, above the ``K`` of
           ``k + 1`` members, so it ranks below ``k + 1`` and cannot reach
           the top ``k`` even after ``exclude`` drops one row.  No kernel
           returns a negative distance (the asymmetric one clips at zero),
           so ``G + B`` is clipped there too.
        3. The shortlist is scored by the kernel (:meth:`_kernel`), so
           returned distances are the bytes ranking every member with it
           returns.

        Starved rows arrive with their members already widened to every live
        row and need nothing else.
        """
        approx, bound = self._intervals(queries)
        upper = approx + bound
        np.maximum(upper, 0.0, out=upper)
        lower = np.subtract(approx, bound, out=approx)
        np.copyto(upper, np.inf, where=~members)
        if k < upper.shape[1]:
            upper.partition(k, axis=1)
            tau = upper[:, k]
        else:
            tau = np.full(len(upper), np.inf, dtype=upper.dtype)
        shortlist = np.greater(lower, tau[:, None])
        np.logical_not(shortlist, out=shortlist)
        shortlist &= members
        offsets = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(shortlist, axis=1), out=offsets[1:])
        candidates = np.nonzero(shortlist)[1]
        squared = self._kernel(queries, candidates, offsets)
        self._emit(rows, candidates, offsets, np.sqrt(squared, out=squared), k, exclude, results)
        return len(candidates)

    def _intervals(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(G, B)`` of a query block against every stored row.

        ``G = |a|^2 + |b|^2 - 2 a.b`` is the table's kernel in GEMM form
        (:meth:`_gemm_frame`), one BLAS product per block of stored rows
        holding at most ``_RANK_BLOCK_PAIRS`` elements (code tables decode
        that block, and only that block), and ``B`` bounds ``|G - K|``, ``K``
        the kernel's result:

        * ``B0 = c (d + 2) u (|a|^2 + |b|^2)``, ``u`` the unit roundoff of
          the product's dtype, ``d`` its inner dimension.  Raw tables (``a =
          q``, ``b = x``, ``K`` from :func:`_raw_sq_distances`): whatever the
          summation order of the BLAS and the reductions, with or without
          FMA, ``K`` lies within ``gamma_(d+2) |q - x|^2 <= 2 gamma_(d+2)
          (|q|^2 + |x|^2)`` of the true squared distance, and ``G`` within
          ``gamma_d`` of each norm, ``gamma_d |q||x|`` of the product and
          two roundings more: ``c`` a little under 4 suffices.  ``c = 8``
          also covers rounding the norms and ``G +- B``, and float64
          queries rounded to a float32 table (at most ``3 u (|q|^2 +
          |x|^2)`` more).  An absolute ``c (d + 2)`` smallest normals
          covers underflow.
        * int8 (``a = (q - o) s``, ``b`` the codes, the norm terms ``|q -
          o|^2`` and ``|c s|^2`` the very floats the kernel adds): ``G`` and
          ``K`` differ only in the float64 dot product's summation order and
          the two additions each makes.  Each dot is within ``gamma_d
          sum|a_i b_i| <= gamma_d (|q - o|^2 + |c s|^2) / 2`` of the exact
          one (``|a_i b_i|`` is ``|q_i - o_i| |c_i s_i|`` up to one rounding,
          and ``|c s|^2`` is the float32 norm term up to ``~4 u_32``, which
          the slack absorbs), and each addition adds at most ``2 u (|q -
          o|^2 + |c s|^2)``: ``|G - K| <= (2 gamma_d + 8 u) (...)``, inside
          ``B0`` with room to spare.
        * pq (``a = q32``, ``b`` the decoded rows): ``G`` is within ``B0`` of
          ``E = |q32 - x|^2``, as for a raw table.  The ADC kernel rounds a
          difference and its square (three factors ``1 + delta`` on a
          non-negative term), then adds non-negative terms, ``dsub - 1``
          times along a cell and ``m - 1`` times across cells, all in
          float32: its result is ``sum e_i (1 + theta_i)`` with ``|theta_i|
          <= gamma_32(m + dsub + 1)``, within ``rho E`` of ``E`` for ``rho =
          gamma_32(m + dsub + 3)``.  ``E <= G + B0``, so ``B = B0 + rho
          max(G + B0, 0)``; the spare half of ``B0`` covers rounding that
          product.
        """
        a, a_norms, read_rows, rho = self._gemm_frame(queries)
        dim = a.shape[1]
        approx = np.empty((len(a), self.size), dtype=a.dtype)
        bound = np.empty_like(approx)
        step = max(1, _RANK_BLOCK_PAIRS // max(1, dim))
        for start in range(0, self.size, step):
            stop = min(self.size, start + step)
            b, b_norms = read_rows(start, stop)
            approx[:, start:stop] = a @ b.T
            np.add.outer(a_norms, b_norms, out=bound[:, start:stop])
        approx *= -2.0
        approx += bound
        unit = np.finfo(approx.dtype)
        bound *= _SHORTLIST_SLACK * (dim + 2) * float(unit.eps) / 2
        bound += _SHORTLIST_SLACK * (dim + 2) * float(unit.tiny)
        if rho:
            bound += rho * np.maximum(approx + bound, 0.0)
        return approx, bound

    def _gemm_frame(self, queries: np.ndarray):
        """``(a, a_norms, rows, rho)``: the table's kernel as a GEMM (see
        :func:`repro.engine.quant.gemm_frame`, which code tables take).

        A float table is its own frame: the queries in the table's dtype,
        the stored rows and the cached ``|x|^2``; ``rho`` is 0.
        """
        table, norms = self._vectors, self._table_norms()
        if _is_code_array(table):
            return _quant().gemm_frame(queries, table, norms)
        a = queries.astype(table.dtype, copy=False)
        a_norms = np.einsum("ij,ij->i", a, a)
        return a, a_norms, lambda start, stop: (table[start:stop], norms[start:stop]), 0.0

    def _kernel(self, queries: np.ndarray, candidates: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Exact squared distances of the CSR pairs ``(candidates, offsets)``:
        :func:`_raw_sq_distances` on float tables, the asymmetric kernel on
        code tables (looked up on its module at call time)."""
        table = self._vectors
        if _is_code_array(table):
            return _quant().asymmetric_sq_distances(
                queries, table, table_sq_norms=self._table_norms(), candidates=(candidates, offsets)
            )
        return _raw_sq_distances(queries, table, candidates, offsets)

    def _emit(
        self,
        query_rows: Sequence[int],
        candidates: np.ndarray,
        offsets: np.ndarray,
        distances: np.ndarray,
        k: int,
        exclude: Optional[Sequence[object]],
        results: List[Optional[List[Tuple[object, float]]]],
    ) -> None:
        """Each query's top ``k`` out of its CSR segment of ``candidates``."""
        for position, row in enumerate(query_rows):
            span = slice(offsets[position], offsets[position + 1])
            excluded = exclude[row] if exclude is not None else None
            results[row] = self._top_k(candidates[span], distances[span], k, excluded)

    def _top_k(
        self, rows: np.ndarray, distances: np.ndarray, k: int, excluded: Optional[object]
    ) -> List[Tuple[object, float]]:
        """The ``k`` nearest ``(key, distance)`` of one query, ``excluded``
        skipped, ordered by (distance, row): exact ties break by stored row,
        so the answer does not depend on how many candidates were ranked.

        Only the head — every candidate within the ``(k + 1)``-th smallest
        distance, ties included — is sorted; the rest is read only when
        exclusions leave the head short of ``k``.
        """
        if len(distances) > k + 1:
            head = np.flatnonzero(distances <= np.partition(distances, k)[k])
            ranked = self._ranked(rows[head], distances[head], k, excluded)
            if len(ranked) >= k:
                return ranked
        return self._ranked(rows, distances, k, excluded)

    def _ranked(
        self, rows: np.ndarray, distances: np.ndarray, k: int, excluded: Optional[object]
    ) -> List[Tuple[object, float]]:
        """The first ``k`` non-excluded ``(key, distance)`` in (distance, row) order."""
        order = np.lexsort((rows, distances))
        keys = self._keys
        ranked: List[Tuple[object, float]] = []
        for row, distance in zip(rows[order].tolist(), distances[order].tolist()):
            key = keys[row]
            if excluded is not None and key == excluded:
                continue
            ranked.append((key, distance))
            if len(ranked) >= k:
                break
        return ranked

    def _table_norms(self) -> np.ndarray:
        """Per-row squared norms of the stored table, cached per mutation.

        ``||x||^2`` of a float table (the GEMM shortlist's norm term, in the
        table's dtype) or ``||c*s||^2`` of code vectors (the constant term
        of the asymmetric distance kernel); amortised across every ranked
        block of a mutation epoch.
        """
        cache = self._norms_cache
        if cache is not None and cache[0] == self._mutations:
            return cache[1]
        vectors = self._vectors
        if _is_code_array(vectors):
            norms = _quant().table_sq_norms_of(vectors)
        else:
            norms = np.einsum("ij,ij->i", vectors, vectors)
        self._norms_cache = (self._mutations, norms)
        return norms

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Drop the derived caches and pickle each lookup as two arrays.

        The index never travels to pool workers (blocking runs in the
        resolving process); a pickle is a copy made by a caller.  A dict of
        tuple keys would be pickled entry by entry, so each lookup is stored
        as ``(int64 bucket keys (buckets, hash_size), intp labels)``.
        """
        state = self.__dict__.copy()
        state.update(_key_rows=None, _norms_cache=None, _projections32=None)
        state["_lookups"] = [
            (
                np.array(list(lookup), dtype=np.int64).reshape(-1, self.hash_size),
                np.fromiter(lookup.values(), dtype=np.intp, count=len(lookup)),
            )
            for lookup in self._lookups
        ]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lookups = [
            dict(zip(map(tuple, keys.tolist()), labels.tolist()))
            for keys, labels in state["_lookups"]
        ]

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Stored rows, tombstoned ones included (the append frontier)."""
        return 0 if self._vectors is None else len(self._vectors)

    @property
    def live_size(self) -> int:
        """Rows actually searchable (stored minus tombstoned)."""
        return int(np.count_nonzero(self._live))

    @property
    def tombstoned(self) -> int:
        """Rows tombstoned but not yet compacted away."""
        return self.size - self.live_size

    @property
    def mutations(self) -> int:
        """Monotonic count of structural changes (build/extend/remove/patch/compact).

        Lets a holder of a reference detect that someone else mutated the
        index since a snapshot was taken — a capturing executor records it in
        its baseline so an abandoned half-mutated run can never be mistaken
        for the published state.
        """
        return self._mutations

    @property
    def keys(self) -> Tuple[object, ...]:
        """The registered row keys, in row order (empty before prepare)."""
        return tuple(self._keys)

    @property
    def live_keys(self) -> Tuple[object, ...]:
        """Keys of the searchable rows, in row order."""
        return tuple(self._keys[row] for row in np.flatnonzero(self._live).tolist())

    def bucket_statistics(self) -> Dict[str, float]:
        """Mean and max bucket occupancy across tables (diagnostics).

        Every stored row counts, tombstoned ones included, until
        :meth:`compact` drops them.
        """
        self._require_built("bucket_statistics")
        sizes = np.concatenate([np.bincount(labels) for labels in self._labels])
        sizes = sizes[sizes > 0]
        if not len(sizes):  # built over an empty table: no buckets at all
            return {"mean_bucket_size": 0.0, "max_bucket_size": 0.0, "num_buckets": 0.0}
        return {
            "mean_bucket_size": float(np.mean(sizes)),
            "max_bucket_size": float(np.max(sizes)),
            "num_buckets": float(len(sizes)),
        }

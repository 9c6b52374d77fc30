"""Locality Sensitive Hashing for Euclidean distance (p-stable scheme).

Algorithm 1 of the paper generates the unlabeled candidate pool by LSH
nearest-neighbour search over entity representations, exploiting the fact
that the 2-Wasserstein distance between diagonal Gaussians is positively
correlated with the Euclidean distance between their means.  This module
implements the classic p-stable LSH of Datar et al. (2004): each hash table
projects vectors onto random Gaussian directions, shifts and quantises them
into buckets of width ``w``; near vectors collide in at least one table with
high probability.

The index build is three steps: :meth:`prepare` fixes the random
projections and registers the vectors, :meth:`hash_rows` hashes a row range
into per-table bucket maps, and :meth:`install_tables` merges maps in row
order.  :meth:`build` composes the three over the whole table and
:meth:`extend` hashes only the appended rows.  Queries run
block-at-a-time: :meth:`query_batch` computes the bucket ids of a whole
block of query vectors in one projection pass and turns them into one
boolean (queries x stored rows) membership mask — bucket labels per stored
row, compared per table, ANDed with the live mask; only the bucket lookups
and the final top-k cut remain per row.  Over float tables one GEMM gives
``|q|^2 + |x|^2 - 2 q.x`` for every stored row, a rounding-error bound
``B = c (d + 2) u (|q|^2 + |x|^2)`` turns it into an interval that holds
the exact kernel's value, and only members whose lower end reaches the
``(k + 1)``-th smallest upper end are rescored exactly
(:func:`_raw_sq_distances`) — the answer of ranking every candidate, to the
byte.  Answers are ordered by (distance, stored row) for every codec, so
exact ties break by row.  Quantized tables score the mask's CSR form with
the asymmetric kernel and additionally declare a query-time policy through
their codec params (rank-cut expansion and low-margin multiprobe — see
:meth:`_query_policy`) so approximate codes trade a wider exact-scored
shortlist for recall instead of losing it.

The index is additionally *mutable in place* — the incremental-blocking
layer of delta resolution: :meth:`extend` appends rows into the existing
buckets, :meth:`remove` tombstones rows by key (a mask consulted during
candidate gathering; bucket lists are untouched until compaction),
:meth:`patch` swaps a row's vector and rebuckets just that row.  Once the
tombstoned fraction passes ``compaction_load`` the index :meth:`compact`\\ s:
dead rows are dropped and the survivors renumbered, leaving hash tables
*bucket-identical* to a from-scratch build over the live vectors.  Query
answers are identical to a rebuild at every point before and after
compaction.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.eval.timing import engine_counters
from repro.exceptions import NotFittedError

#: One hash table: bucket key -> row indices of the vectors hashed into it.
BucketMap = Dict[Tuple[int, ...], List[int]]

#: Tombstoned fraction above which :meth:`EuclideanLSHIndex.remove` compacts.
DEFAULT_COMPACTION_LOAD = 0.3

#: Rows hashed per decode block when the stored vectors are int8 codes —
#: bounds the transient float materialisation of a build/extend hash pass.
_HASH_BLOCK_ROWS = 4096

#: (query, stored row) cells of one ranking block — bounds its membership
#: mask and, on raw tables, each float temporary of the shortlist GEMM
#: (~8 MB of float64; three of them plus the masks stay near 32 MB).
_RANK_BLOCK_PAIRS = 1 << 20

#: Safety factor ``c`` of the shortlist bound ``c * (d + 2) * u * (|q|^2 +
#: |x|^2)``; the rounding analysis in :meth:`EuclideanLSHIndex._rank_raw`
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


def _coerce_vectors(vectors):
    """Vectors as stored/queried: zero-copy for fp32/fp64 and code arrays.

    Historically every entry point forced ``np.asarray(..., dtype=np.float64)``
    — a silent full-table upcast *copy* for float32 inputs and a full decode
    for code arrays.  Float inputs now pass through unchanged (only exotic
    dtypes are upcast) and :class:`repro.engine.quant.CodecArray` inputs stay
    compressed.
    """
    if _is_code_array(vectors):
        return vectors
    vectors = np.asarray(vectors)
    if vectors.dtype not in (np.float32, np.float64):
        vectors = vectors.astype(np.float64)
    return vectors


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
        self._tables: List[BucketMap] = []
        self._vectors: Optional[np.ndarray] = None
        self._keys: List[object] = []
        self._dead: Set[int] = set()
        self._key_rows: Optional[Dict[object, int]] = None
        self._mutations: int = 0
        # Code-table linear-scan working set, keyed by the mutation counter:
        # (mutations, live row indices, gathered live codes).
        self._live_cache: Optional[Tuple[int, np.ndarray, object]] = None
        # Per-row squared norms of the stored table (||x||^2, or ||c*s||^2
        # over code vectors), keyed likewise: (mutations, norms).
        self._norms_cache: Optional[Tuple[int, np.ndarray]] = None
        # Membership-mask working set, keyed likewise: (mutations, per-table
        # bucket key -> label, (tables, rows) label of every stored row,
        # live-row mask or None).
        self._bucket_cache: Optional[
            Tuple[int, List[Dict], np.ndarray, Optional[np.ndarray]]
        ] = None

    # ------------------------------------------------------------------
    # Build: prepare -> hash_rows -> install_tables
    # ------------------------------------------------------------------
    def prepare(self, vectors: np.ndarray, keys: Optional[Sequence[object]] = None) -> "EuclideanLSHIndex":
        """Fix the projections and register ``vectors`` without hashing them.

        After ``prepare`` the index is *not* queryable yet: the hash tables
        are built by feeding :meth:`hash_rows` output to
        :meth:`install_tables`.

        ``vectors`` may be float64, float32 (hashed through the fp32
        projection fast path, no upcast copy) or a
        :class:`repro.engine.quant.CodecArray` — the index then keeps the
        int8 codes resident, hashes in bounded decode blocks and ranks
        candidates through the asymmetric distance kernel.
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
        self._tables = []
        self._dead = set()
        self._key_rows = None
        self._mutations += 1
        return self

    def hash_rows(self, start: int, stop: int) -> List[BucketMap]:
        """Per-table bucket maps of rows ``[start, stop)`` (global indices).

        Pure function of the prepared projections and vectors; the maps of
        consecutive ranges merge with :meth:`install_tables`.  Bucket ids for
        the whole range are computed in one array-at-a-time projection
        pass.
        """
        if self._vectors is None:
            raise NotFittedError("EuclideanLSHIndex.hash_rows called before prepare")
        start = max(0, start)
        stop = min(len(self._vectors), stop)
        partial: List[BucketMap] = [defaultdict(list) for _ in range(self.num_tables)]
        if start >= stop:
            return [dict(table) for table in partial]
        # Code vectors decode block by block, so hashing a cold table never
        # materialises more than one block of floats at a time.
        block = _HASH_BLOCK_ROWS if _is_code_array(self._vectors) else stop - start
        for block_start in range(start, stop, block):
            block_stop = min(stop, block_start + block)
            bucket_ids = self._bucket_ids(self._vectors[block_start:block_stop])
            for table_index in range(self.num_tables):
                table = partial[table_index]
                # One tolist() per table: native-int keys hash faster than
                # np.int64 tuples and compare equal to them.
                for local, bucket in enumerate(map(tuple, bucket_ids[table_index].tolist())):
                    table[bucket].append(block_start + local)
        return [dict(table) for table in partial]

    def install_tables(self, partials: Iterable[List[BucketMap]]) -> "EuclideanLSHIndex":
        """Merge partial bucket maps (in ascending row-range order) into the index.

        Feeding the ranges in row order keeps each bucket's row list sorted
        exactly as one :meth:`build` over all the rows would produce it.
        """
        if self._vectors is None:
            raise NotFittedError("EuclideanLSHIndex.install_tables called before prepare")
        tables: List[BucketMap] = [defaultdict(list) for _ in range(self.num_tables)]
        for partial in partials:
            if len(partial) != self.num_tables:
                raise ValueError("partial bucket maps must cover every hash table")
            for table_index, bucket_map in enumerate(partial):
                table = tables[table_index]
                for bucket, rows in bucket_map.items():
                    table[bucket].extend(rows)
        self._tables = tables
        self._bucket_cache = None  # new tables under the same mutation count
        return self

    def build(self, vectors: np.ndarray, keys: Optional[Sequence[object]] = None) -> "EuclideanLSHIndex":
        """Index ``vectors``; ``keys`` are the identifiers returned by queries."""
        self.prepare(vectors, keys)
        assert self._vectors is not None
        return self.install_tables([self.hash_rows(0, len(self._vectors))])

    def extend(self, vectors: np.ndarray, keys: Sequence[object]) -> "EuclideanLSHIndex":
        """Install additional rows into a built index without a rebuild.

        The incremental-blocking primitive: appended rows are hashed with
        the *existing* projections through :meth:`hash_rows` (the step
        :meth:`build` uses) and appended into the existing bucket lists in
        place — O(delta) bucket work, not O(table).
        New rows receive the next global indices, so every bucket's row list
        stays exactly what a from-scratch :meth:`build` over the
        concatenated vectors produces; query answers are therefore
        identical to a full rebuild.
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
        for table, bucket_map in zip(self._tables, self.hash_rows(start, len(self._vectors))):
            for bucket, rows in bucket_map.items():
                existing = table.get(bucket)
                if existing is None:
                    table[bucket] = rows
                else:
                    existing.extend(rows)
        return self

    # ------------------------------------------------------------------
    # In-place mutation: remove (tombstones), patch, compaction
    # ------------------------------------------------------------------
    def _rows_of(self, keys: Sequence[object]) -> List[int]:
        """Live row indices of ``keys`` (raises ``KeyError`` on unknown keys)."""
        if self._key_rows is None:
            self._key_rows = {
                key: row for row, key in enumerate(self._keys) if row not in self._dead
            }
        mapping = self._key_rows
        rows = []
        for key in keys:
            try:
                rows.append(mapping[key])
            except KeyError as exc:
                raise KeyError(f"key {key!r} not present (or tombstoned) in index") from exc
        return rows

    def remove(self, keys: Sequence[object]) -> "EuclideanLSHIndex":
        """Tombstone rows by key, without touching any bucket list.

        Deleted rows are masked out during candidate gathering, so query
        answers immediately equal a from-scratch build over the surviving
        vectors — O(1) per removal.  Once the tombstoned fraction exceeds
        ``compaction_load`` the index compacts (see :meth:`compact`), after
        which the hash tables themselves are bucket-identical to a rebuild.
        """
        self._require_built("remove")
        rows = self._rows_of(keys)
        self._mutations += 1
        self._dead.update(rows)
        if self._key_rows is not None:
            for key in keys:
                self._key_rows.pop(key, None)
        assert self._vectors is not None
        if self._dead and len(self._dead) > self.compaction_load * len(self._vectors):
            self.compact()
        return self

    def patch(self, vectors: np.ndarray, keys: Sequence[object]) -> "EuclideanLSHIndex":
        """Swap the vectors of existing rows in place and rebucket them.

        The edited row keeps its row index, is pulled out of the buckets its
        old vector hashed to and inserted — in row order, via ``insort`` —
        into the buckets of the new vector, so the resulting tables are
        bucket-identical to a from-scratch build over the edited vectors.
        """
        self._require_built("patch")
        if _is_code_array(vectors):
            # Patches touch few rows: decode them once, re-encoding happens
            # row-wise against the stored representation below.
            vectors = vectors.decode()
        vectors = np.asarray(vectors)
        if vectors.dtype not in (np.float32, np.float64):
            vectors = vectors.astype(np.float64)
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
        new_buckets = self._bucket_ids(vectors)
        for position, row in enumerate(rows):
            self._vectors[row] = vectors[position]
            for table_index in range(self.num_tables):
                table = self._tables[table_index]
                old_bucket = tuple(old_buckets[table_index, position])
                new_bucket = tuple(new_buckets[table_index, position])
                if old_bucket == new_bucket:
                    continue
                members = table.get(old_bucket)
                if members is not None:
                    try:
                        members.remove(row)
                    except ValueError:  # pragma: no cover - inconsistent table
                        pass
                    if not members:
                        del table[old_bucket]
                insort(table.setdefault(new_bucket, []), row)
        return self

    def compact(self) -> "EuclideanLSHIndex":
        """Drop tombstoned rows and renumber the survivors.

        Surviving rows keep their relative order, so every bucket's row list
        — renumbered through the same old-to-new map — stays sorted exactly
        as a serial :meth:`build` over the live vectors would produce it;
        buckets left empty are deleted like a rebuild would never have
        created them.  A no-op when nothing is tombstoned.
        """
        self._require_built("compact")
        if not self._dead:
            return self
        assert self._vectors is not None
        self._mutations += 1
        alive = [row for row in range(len(self._vectors)) if row not in self._dead]
        renumber = {old: new for new, old in enumerate(alive)}
        if _is_code_array(self._vectors):
            # A plain fancy-index would decode; keep the survivors as codes.
            self._vectors = self._vectors.take_rows(alive)
        else:
            self._vectors = self._vectors[alive]
        self._keys = [self._keys[row] for row in alive]
        tables: List[BucketMap] = []
        for table in self._tables:
            compacted: BucketMap = {}
            for bucket, rows in table.items():
                survivors = [renumber[row] for row in rows if row in renumber]
                if survivors:
                    compacted[bucket] = survivors
            tables.append(compacted)
        self._tables = tables
        self._dead = set()
        self._key_rows = None
        return self

    def _scaled_projections(self, vectors) -> np.ndarray:
        """Projections shifted and scaled to bucket units (floor = bucket id).

        The fractional part is each coordinate's position inside its
        bucket — the margin signal query-time multiprobe perturbs.
        """
        assert self._projections is not None and self._offsets is not None
        if _is_code_array(vectors):
            vectors = vectors.decode()  # callers pass bounded row blocks
        vectors = np.asarray(vectors)
        if vectors.dtype == np.float32:
            # fp32 fast path: project with a (lazily cached) fp32 copy of
            # the projections instead of upcasting the whole vector block.
            projections = self._projections32
            if projections is None:
                projections = self._projections.astype(np.float32)
                self._projections32 = projections
        else:
            if vectors.dtype != np.float64:
                vectors = vectors.astype(np.float64)
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
        if self._vectors is None or not self._tables:
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
        vector = _coerce_vectors(np.atleast_1d(vector)).reshape(1, -1)
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
        row) cells — gets one boolean membership mask (:meth:`_members`).  A
        row whose mask holds fewer than ``k`` candidates takes every live row
        instead: the linear-scan fallback is the same mask, filled.  Raw
        tables rank the mask through one GEMM shortlist and an exact rescore
        (:meth:`_rank_raw`), code tables through the asymmetric kernel
        (:meth:`_rank_codes`).

        Every answer is ordered by (distance, stored row) — exact ties break
        by row — so a row's answer never depends on the rows sharing its
        block.  On raw tables it equals ranking the full candidate set with
        :func:`_raw_sq_distances`, in keys and in distance bytes.  One call
        is recorded in the engine counters (queries, linear-scan fallbacks,
        candidates ranked, distances computed by the per-pair kernel).
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
        if _is_code_array(vectors):
            vectors = vectors.decode()  # queries are per-row floats anyway
        vectors = np.asarray(vectors)
        if vectors.dtype not in (np.float32, np.float64):
            vectors = vectors.astype(np.float64)
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
        # Bucket keys as native ints: one tolist() converts the whole id
        # block for the per-row dict lookups of _members.
        bucket_blocks = [ids.tolist() for ids in id_blocks]
        results: List[Optional[List[Tuple[object, float]]]] = [None] * n
        codes = _is_code_array(self._vectors)
        step = max(1, _RANK_BLOCK_PAIRS // max(1, self.size))
        fallback = ranked = rescored = 0
        for start in range(0, n, step):
            rows = range(start, min(n, start + step))
            members, live = self._members(bucket_blocks, rows)
            starved = np.count_nonzero(members, axis=1) < k_effective
            if starved.any():
                # Every live row is a candidate: recall never collapses on
                # small tables.
                members[starved] = True if live is None else live
            fallback += int(np.count_nonzero(starved))
            ranked += int(np.count_nonzero(members))
            queries = vectors[rows.start : rows.stop]
            if codes:
                rescored += self._rank_codes(
                    queries, rows, members, starved, k_effective, exclude, results
                )
            else:
                rescored += self._rank_raw(queries, rows, members, k_effective, exclude, results)
        engine_counters().record_blocking(n, fallback, ranked, rescored)
        return results  # type: ignore[return-value]

    def _members(
        self, bucket_blocks: List[list], rows: range
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Candidate mask of query ``rows`` and the live-row mask.

        ``bucket_blocks`` holds every query's bucket ids, one nested list
        ``(tables, queries, hash_size)`` per probe.  Cell ``(i, j)`` of the
        ``(len(rows), stored rows)`` mask is set when stored row ``j`` shares
        a bucket with query ``rows[i]`` in some table and is not tombstoned.
        The live mask is ``None`` when nothing is tombstoned.
        """
        lookups, labels, live = self._bucket_labels()
        members = np.zeros((len(rows), self.size), dtype=bool)
        hits = np.empty_like(members)
        for table_index, lookup in enumerate(lookups):
            get = lookup.get
            for buckets in bucket_blocks:
                # -2 marks a bucket the table does not hold; no row has it.
                block = buckets[table_index][rows.start : rows.stop]
                wanted = np.fromiter(
                    (get(tuple(bucket), -2) for bucket in block), dtype=np.intp, count=len(rows)
                )
                np.equal(wanted[:, None], labels[table_index], out=hits)
                members |= hits
        if live is not None:
            # Tombstones: deleted rows never surface as candidates, so
            # answers equal a rebuild over the live vectors alone.
            members &= live
        return members, live

    def _rank_raw(
        self,
        queries: np.ndarray,
        rows: range,
        members: np.ndarray,
        k: int,
        exclude: Optional[Sequence[object]],
        results: List[Optional[List[Tuple[object, float]]]],
    ) -> int:
        """Rank one block of query rows over a float table; returns the
        number of exactly scored (query, row) pairs.

        The exact top ``k`` of each row's members, without gathering them:

        1. ``G = |q|^2 + |x|^2 - 2 q.x`` against every stored row, one GEMM.
        2. ``B = c (d + 2) u (|q|^2 + |x|^2)``, ``u`` the unit roundoff of
           the table's dtype (the GEMM's), bounds ``|G - E|`` where ``E`` is
           what :func:`_raw_sq_distances` returns.  Whatever the summation
           order of the BLAS and the reductions, with or without FMA, ``E``
           lies within ``gamma_(d+2) |q - x|^2 <= 2 gamma_(d+2) (|q|^2 +
           |x|^2)`` of the true squared distance, and ``G`` within
           ``gamma_d`` of each norm, ``gamma_d |q||x|`` of the product and
           two roundings more: ``c`` a little under 4 suffices.  ``c = 8``
           also covers rounding the norms and ``G +- B``, and float64
           queries rounded to a float32 table (at most ``3 u (|q|^2 +
           |x|^2)`` more).  An absolute ``c (d + 2)`` smallest normals
           covers underflow.
        3. ``tau``, the ``(k + 1)``-th smallest ``G + B`` among members, and
           the shortlist: members with ``G - B <= tau`` (non-finite bounds
           stay in).  A member left out has ``E > tau``, above the ``E`` of
           ``k + 1`` members, so it ranks below ``k + 1`` and cannot reach
           the top ``k`` even after ``exclude`` drops one row.
        4. The shortlist is scored by :func:`_raw_sq_distances`, so returned
           distances are the bytes a full-candidate ranking returns.

        Starved rows arrive with their members already widened to every live
        row and need nothing else.
        """
        table = self._vectors
        dim = table.shape[1]
        unit = np.finfo(table.dtype)
        gemm_queries = queries.astype(table.dtype, copy=False)
        approx = gemm_queries @ table.T
        approx *= -2.0
        query_norms = np.einsum("ij,ij->i", gemm_queries, gemm_queries)
        bound = np.add.outer(query_norms, self._table_norms())
        approx += bound
        bound *= _SHORTLIST_SLACK * (dim + 2) * float(unit.eps) / 2
        bound += _SHORTLIST_SLACK * (dim + 2) * float(unit.tiny)
        upper = approx + bound
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
        squared = _raw_sq_distances(queries, table, candidates, offsets)
        self._emit(rows, candidates, offsets, np.sqrt(squared, out=squared), k, exclude, results)
        return len(candidates)

    def _rank_codes(
        self,
        queries: np.ndarray,
        rows: range,
        members: np.ndarray,
        starved: np.ndarray,
        k: int,
        exclude: Optional[Sequence[object]],
        results: List[Optional[List[Tuple[object, float]]]],
    ) -> int:
        """Rank one block of query rows over a code table; returns the
        number of kernel distances.

        Bucket-ranked rows score their mask's CSR form (``np.nonzero``: row
        ids ascending per query) in one asymmetric-kernel call; starved rows
        score every live row in one dense call.  The distances are exact
        w.r.t. the *decoded* table, so ranking error against the raw index
        is bounded by the codec's quantization error.
        """
        norms = self._table_norms()
        bucketed = np.flatnonzero(~starved)
        scored = 0
        if len(bucketed):
            mask = members[bucketed]
            offsets = np.zeros(len(bucketed) + 1, dtype=np.intp)
            np.cumsum(np.count_nonzero(mask, axis=1), out=offsets[1:])
            candidates = np.nonzero(mask)[1]
            squared = _quant().asymmetric_sq_distances(
                queries[bucketed],
                self._vectors,
                table_sq_norms=norms,
                candidates=(candidates, offsets),
            )
            distances = np.sqrt(squared, out=squared)
            bucketed_rows = [rows[position] for position in bucketed]
            self._emit(bucketed_rows, candidates, offsets, distances, k, exclude, results)
            scored += len(candidates)
        if len(bucketed) < len(rows):
            live_rows, base = self._live_rows()
            squared = _quant().asymmetric_sq_distances(
                queries[starved], base, table_sq_norms=norms[live_rows]
            )
            # The dense (starved, live) block as a CSR list, for _emit.
            count = len(squared)
            offsets = np.arange(count + 1, dtype=np.intp) * len(live_rows)
            distances = np.sqrt(squared, out=squared).ravel()
            starved_rows = [rows[position] for position in np.flatnonzero(starved)]
            candidates = np.tile(live_rows, count)
            self._emit(starved_rows, candidates, offsets, distances, k, exclude, results)
            scored += squared.size
        return scored

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

    def _live_rows(self) -> Tuple[np.ndarray, object]:
        """Live row indices and their code vectors, cached per mutation.

        The working set of a code table's linear-scan fallback (the dense
        asymmetric kernel).  With no tombstones the codes are served
        zero-copy; the cache is keyed by :attr:`mutations`, so any
        structural change (extend/remove/patch/compact) invalidates it on
        next use.
        """
        assert self._vectors is not None
        cache = self._live_cache
        if cache is not None and cache[0] == self._mutations:
            return cache[1], cache[2]
        live = self._bucket_labels()[2]
        if live is None:
            rows, base = np.arange(self.size, dtype=np.intp), self._vectors
        else:
            rows = np.flatnonzero(live)
            base = self._vectors.take_rows(rows)
        self._live_cache = (self._mutations, rows, base)
        return rows, base

    def _bucket_labels(self) -> Tuple[List[Dict], np.ndarray, Optional[np.ndarray]]:
        """Bucket labels for the membership mask, cached per mutation.

        Per table, a bucket key -> label map and the ``(tables, stored
        rows)`` label of every stored row; plus the live-row mask (``None``
        when nothing is tombstoned).  Derived from the bucket-list tables,
        which stay the mutable truth: every mutation invalidates it.
        """
        cache = self._bucket_cache
        if cache is not None and cache[0] == self._mutations:
            return cache[1], cache[2], cache[3]
        lookups: List[Dict] = []
        labels = np.full((self.num_tables, self.size), -1, dtype=np.intp)
        for table_index, table in enumerate(self._tables):
            lookups.append({bucket: label for label, bucket in enumerate(table)})
            counts = [len(rows) for rows in table.values()]
            rows = np.fromiter(
                chain.from_iterable(table.values()), dtype=np.intp, count=sum(counts)
            )
            labels[table_index, rows] = np.repeat(np.arange(len(table)), counts)
        live = None
        if self._dead:
            live = np.ones(self.size, dtype=bool)
            live[list(self._dead)] = False
        self._bucket_cache = (self._mutations, lookups, labels, live)
        return lookups, labels, live

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
    # Pickling (worker-pool state transport)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pack bucket tables into numpy triples for efficient transport.

        A built index travels to pool workers through the shared-memory
        publisher, which hoists large ndarrays into zero-copy segments —
        but dicts of tuple-keyed Python lists would still be pickled
        element by element.  Packing each table as ``(bucket keys array,
        per-bucket counts, concatenated row lists)`` turns the dominant
        payload into three hoistable arrays; insertion order (and hence
        query behaviour) round-trips exactly.  Derived caches are dropped
        and rebuilt lazily on the other side.
        """
        state = self.__dict__.copy()
        state["_key_rows"] = None
        state["_live_cache"] = None
        state["_norms_cache"] = None
        state["_bucket_cache"] = None
        state["_projections32"] = None
        tables = state.pop("_tables")
        packed = []
        for table in tables:
            keys = np.asarray(list(table.keys()), dtype=np.int64).reshape(-1, self.hash_size)
            counts = np.asarray([len(rows) for rows in table.values()], dtype=np.int64)
            rows = np.asarray(
                [row for rows in table.values() for row in rows], dtype=np.int64
            )
            packed.append((keys, counts, rows))
        state["_packed_tables"] = packed
        return state

    def __setstate__(self, state):
        packed = state.pop("_packed_tables")
        self.__dict__.update(state)
        # States packed by older builds predate the derived caches.
        self.__dict__.setdefault("_projections32", None)
        self.__dict__.setdefault("_norms_cache", None)
        self.__dict__.setdefault("_bucket_cache", None)
        tables: List[BucketMap] = []
        for keys, counts, rows in packed:
            table: BucketMap = {}
            rows_list = rows.tolist()
            offset = 0
            for bucket, count in zip(keys.tolist(), counts.tolist()):
                table[tuple(bucket)] = rows_list[offset : offset + count]
                offset += count
            tables.append(table)
        self._tables = tables

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Stored rows, tombstoned ones included (the append frontier)."""
        return 0 if self._vectors is None else len(self._vectors)

    @property
    def live_size(self) -> int:
        """Rows actually searchable (stored minus tombstoned)."""
        return self.size - len(self._dead)

    @property
    def tombstoned(self) -> int:
        """Rows tombstoned but not yet compacted away."""
        return len(self._dead)

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
        if not self._dead:
            return tuple(self._keys)
        return tuple(
            key for row, key in enumerate(self._keys) if row not in self._dead
        )

    def bucket_statistics(self) -> Dict[str, float]:
        """Mean and max bucket occupancy across tables (diagnostics)."""
        self._require_built("bucket_statistics")
        sizes = [len(bucket) for table in self._tables for bucket in table.values()]
        if not sizes:  # built over an empty table: no buckets at all
            return {"mean_bucket_size": 0.0, "max_bucket_size": 0.0, "num_buckets": 0.0}
        return {
            "mean_bucket_size": float(np.mean(sizes)),
            "max_bucket_size": float(np.max(sizes)),
            "num_buckets": float(len(sizes)),
        }

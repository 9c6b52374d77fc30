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
block-at-a-time: :meth:`query_batch` computes the
bucket ids of a whole block of query vectors in one projection pass, gathers
every row's bucket candidates into one CSR list and scores the block with a
single distance-kernel call; only the bucket lookups and the final top-k cut
remain per row.  Quantized tables additionally
declare a query-time policy through their codec params (rank-cut expansion
and low-margin multiprobe — see :meth:`_query_policy`) so approximate codes
trade a wider exact-scored shortlist for recall instead of losing it.

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

#: (query, bucket candidate) pairs one ranking block gathers before it is
#: scored — bounds the CSR id and distance arrays of a kernel call.
_RANK_BLOCK_PAIRS = 1 << 20

#: Elements of one difference block in the raw kernels (~32 MB of float64).
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
        # Linear-scan fallback working set, keyed by the mutation counter:
        # (mutations, live row indices, gathered live vectors).
        self._live_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        # Asymmetric-ranking working set over code vectors, keyed likewise:
        # (mutations, per-row ||c*s||^2 norms).
        self._norms_cache: Optional[Tuple[int, np.ndarray]] = None

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
                for local, bucket in enumerate(map(tuple, bucket_ids[table_index])):
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
        bucket ids of every query row) and so is ranking: rows are scored in
        blocks of at most ``_RANK_BLOCK_PAIRS`` candidate pairs, one distance
        kernel call per block (see :meth:`_rank_block`).  A row whose buckets
        hold fewer than ``k`` candidates is ranked against every live row.
        One call is recorded in the engine counters (queries, linear-scan
        fallbacks, candidate distances).  ``exclude`` optionally supplies one key
        per query row to drop from that row's results (the per-row
        counterpart of :meth:`query`'s ``exclude``).

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
        # Bucket keys as native-int tuples: one tolist() converts the whole
        # id block, and hashing int tuples is measurably cheaper than
        # hashing np.int64 tuples in this per-row loop.
        bucket_blocks = [ids.tolist() for ids in id_blocks]
        results: List[Optional[List[Tuple[object, float]]]] = [None] * n
        starved_rows: List[int] = []
        block_rows: List[int] = []
        block_ids: List[np.ndarray] = []
        block_pairs = ranked = 0
        for row in range(n):
            candidates: set = set()
            for table_index in range(self.num_tables):
                table = self._tables[table_index]
                for buckets in bucket_blocks:
                    bucket = tuple(buckets[table_index][row])
                    candidates.update(table.get(bucket, ()))
            if self._dead:
                # Tombstone mask: deleted rows never surface as candidates,
                # so answers equal a rebuild over the live vectors alone.
                candidates -= self._dead
            if len(candidates) < k_effective:
                # Linear-scan fallback, ranked densely below.
                starved_rows.append(row)
                continue
            block_rows.append(row)
            block_ids.append(np.fromiter(sorted(candidates), dtype=np.intp, count=len(candidates)))
            block_pairs += len(candidates)
            if block_pairs >= _RANK_BLOCK_PAIRS:
                self._rank_block(vectors, block_rows, block_ids, k_effective, exclude, results)
                ranked += block_pairs
                block_rows, block_ids, block_pairs = [], [], 0
        if block_rows:
            self._rank_block(vectors, block_rows, block_ids, k_effective, exclude, results)
        ranked += block_pairs
        if starved_rows:
            # Every live row is a candidate: recall never collapses on small
            # tables.  Blocks keep the dense difference temp to ~32 MB.
            live = len(self._live_rows()[0])
            step = max(1, _DIFF_BLOCK_ELEMENTS // max(1, live * self._vectors.shape[1]))
            for start in range(0, len(starved_rows), step):
                self._rank_block(
                    vectors, starved_rows[start : start + step], None, k_effective, exclude, results
                )
            ranked += live * len(starved_rows)
        engine_counters().record_blocking(n, len(starved_rows), ranked)
        return results  # type: ignore[return-value]

    def _rank_block(
        self,
        vectors: np.ndarray,
        query_rows: List[int],
        candidate_ids: Optional[List[np.ndarray]],
        k: int,
        exclude: Optional[Sequence[object]],
        results: List[Optional[List[Tuple[object, float]]]],
    ) -> None:
        """Rank one block of query rows with a single distance-kernel call.

        ``candidate_ids`` holds each row's sorted bucket candidates; the block
        scores them as one CSR list (flat row ids + per-query offsets) and
        each query's top ``k`` comes out of its own segment.  ``None`` ranks
        the block against every live row, computed densely.  Over code
        vectors the distances come from the asymmetric kernel — exact w.r.t.
        the *decoded* table, so ranking error against the raw index is
        bounded by the codec's quantization error.  A row's answer does not
        depend on the rows sharing its block: the kernels reduce per pair.
        """
        assert self._vectors is not None
        queries = vectors[query_rows]
        codes = _is_code_array(self._vectors)
        if candidate_ids is None:
            rows, base = self._live_rows()
            if codes:
                squared = _quant().asymmetric_sq_distances(
                    queries, base, table_sq_norms=self._code_norms()[rows]
                )
            else:
                diffs = base[None, :, :] - queries[:, None, :]
                squared = np.einsum("bnd,bnd->bn", diffs, diffs)
        else:
            offsets = np.zeros(len(query_rows) + 1, dtype=np.intp)
            np.cumsum([len(ids) for ids in candidate_ids], out=offsets[1:])
            rows = np.concatenate(candidate_ids)
            if codes:
                squared = _quant().asymmetric_sq_distances(
                    queries,
                    self._vectors,
                    table_sq_norms=self._code_norms(),
                    candidates=(rows, offsets),
                )
            else:
                squared = _raw_sq_distances(queries, self._vectors, rows, offsets)
        distances = np.sqrt(squared, out=squared)
        for position, row in enumerate(query_rows):
            if candidate_ids is None:
                segment_rows, segment = rows, distances[position]
            else:
                span = slice(offsets[position], offsets[position + 1])
                segment_rows, segment = rows[span], distances[span]
            excluded = exclude[row] if exclude is not None else None
            results[row] = self._top_k(segment_rows, segment, k, excluded)

    def _top_k(
        self, rows: np.ndarray, distances: np.ndarray, k: int, excluded: Optional[object]
    ) -> List[Tuple[object, float]]:
        """The ``k`` nearest ``(key, distance)`` of one query, ``excluded`` skipped."""
        order = np.argsort(distances)
        keys = self._keys
        ranked: List[Tuple[object, float]] = []
        # The head almost always suffices; the tail is read only when
        # exclusions (or a short candidate list) leave it short of k.
        for part in (order[: k + 1], order[k + 1 :]):
            for row, distance in zip(rows[part].tolist(), distances[part].tolist()):
                key = keys[row]
                if excluded is not None and key == excluded:
                    continue
                ranked.append((key, distance))
                if len(ranked) >= k:
                    return ranked
        return ranked

    def _live_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted live row indices and their vectors, cached per mutation.

        The linear-scan fallback's working set: rebuilding the live-row
        gather for every starved query row used to dominate small-index
        queries.  With no tombstones the vectors are served zero-copy; the
        cache is keyed by :attr:`mutations`, so any structural change
        (extend/remove/patch/compact) invalidates it on next use.
        """
        assert self._vectors is not None
        cache = self._live_cache
        if cache is not None and cache[0] == self._mutations:
            return cache[1], cache[2]
        if self._dead:
            rows = np.asarray(
                sorted(set(range(len(self._vectors))) - self._dead), dtype=np.intp
            )
            base = (
                self._vectors.take_rows(rows)
                if _is_code_array(self._vectors)
                else self._vectors[rows]
            )
        else:
            rows = np.arange(len(self._vectors), dtype=np.intp)
            base = self._vectors
        self._live_cache = (self._mutations, rows, base)
        return rows, base

    def _code_norms(self) -> np.ndarray:
        """Per-row ``||c*s||^2`` of the stored code vectors, cached per mutation.

        The constant term of the asymmetric distance kernel; amortised
        across every ranked block of a mutation epoch.
        """
        cache = self._norms_cache
        if cache is not None and cache[0] == self._mutations:
            return cache[1]
        norms = _quant().table_sq_norms_of(self._vectors)
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

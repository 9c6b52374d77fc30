"""Quantized encoding codecs: int8/PQ codes with lazy, gather-time decoding.

The dense float64 encodings are the memory wall at scale: the persistent
cache stores 8 bytes per dimension and the LSH working set mirrors that
resident. This module adds a codec tier in the PQ/IVF tradition —
candidate generation runs on compressed codes, and floats are rehydrated
only for the rows a consumer actually gathers (surviving pairs, ranked
candidates, hashed blocks).

Three pieces:

``Codec``
    The pluggable protocol: ``fit`` derives per-table parameters once,
    ``encode`` wraps floats into their resident form, a
    :class:`CodecArray` of codes that decodes itself on a gather or
    ``CodecArray.decode``. ``raw`` is the identity codec (the default —
    ``encode`` returns the floats, every pre-existing path is untouched),
    ``int8`` is per-dimension scale/zero-point scalar quantization, and
    ``pq`` is trained product quantization: each row is split into ``m``
    subvectors and every subvector is replaced by the index of its
    nearest centroid in a per-subspace k-means codebook (up to 256
    entries, so one uint8 per subspace — roughly ``8 * dsub`` bytes of
    float compressed into one).

``CodecArray``
    A lazy array: compact codes plus codec parameters that decode on
    ``__getitem__``. Fancy-indexing a ``CodecArray`` gathers *codes* and
    decodes only the gathered rows, so ``TableEncodings`` fields can hold
    one and the whole gather-then-reduce scoring engine rehydrates
    surviving pairs without materialising the full float store. Code-
    preserving structural ops (``take_rows``, ``row_slice``, ``reshape``,
    ``concat``) exist for the index/persist layers that must keep codes
    compressed end-to-end. ``shape`` is the *logical* float shape — for
    PQ the stored code shape ``(rows, m)`` is decoupled from it.

``asymmetric_sq_distances``
    Float-query × code-table squared Euclidean distances without
    decoding the table — the dense ``(queries, rows)`` matrix, or, given
    a CSR candidate list, a whole query block against each query's own
    rows in one call. For ``int8`` the kernel folds the per-dimension
    scale into the query and multiplies against the raw codes (the
    de-scaled identity). For ``pq`` it is a classic ADC (asymmetric
    distance computation) kernel: the dense form builds every query's
    lookup tables of partial squared distances once per query block and
    indexes them with the stored codes; the candidate form computes only
    the listed pairs' partial distances, to the same bytes.
    :func:`gemm_frame` states either kernel as one matrix product plus a
    relative rounding term — what the LSH index ranks a whole table by
    before it scores a shortlist with the kernel itself.

The quantize-once invariant: parameters are fitted at the first full
encode of a table and then *fixed*; appended or edited rows are encoded
with the existing parameters (int8 clips into range, PQ assigns to the
fixed codebooks). Quantization error therefore enters exactly once,
codes from different chunks/generations splice consistently, and disk
round-trips are byte-identical.
"""

from __future__ import annotations

import base64
import math
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Codec",
    "CodecArray",
    "CodecParams",
    "PQParams",
    "RawCodec",
    "ScalarQuantizer",
    "ProductQuantizer",
    "asymmetric_sq_distances",
    "candidate_chunks",
    "gemm_frame",
    "table_sq_norms_of",
    "available_codecs",
    "get_codec",
    "params_from_json",
    "resolve_codec_name",
    "DEFAULT_CODEC",
]

DEFAULT_CODEC = "raw"

# int8 code range. Symmetric [-127, 127] (−128 unused) so negation and
# midpoint arithmetic stay exact.
_QMIN = -127
_QMAX = 127
_QLEVELS = _QMAX - _QMIN  # 254 steps


class CodecParams:
    """Per-array affine quantization parameters (the ``int8`` codec).

    ``scale`` and ``offset`` carry the array's trailing shape (everything
    after the row axis) so ``codes * scale + offset`` broadcasts directly.
    JSON round-trips exactly: Python float repr is shortest-exact.
    """

    __slots__ = ("scale", "offset")

    #: Name of the codec these params drive (persisted per cache entry).
    codec_name = "int8"
    #: Storage dtype of the codes this codec emits.
    code_dtype = np.dtype(np.int8)
    #: Blocking rank-cut multiplier over this codec's tables (see
    #: :class:`PQParams` — affine int8 ranks accurately enough at 1).
    rank_expansion = 1
    #: Extra low-margin LSH buckets probed per hash table at query time.
    extra_probes = 0

    def __init__(self, scale: np.ndarray, offset: np.ndarray) -> None:
        self.scale = np.asarray(scale, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)

    # -- geometry ------------------------------------------------------
    @property
    def logical_trailing(self) -> Tuple[int, ...]:
        """Trailing shape of the decoded float array."""
        return tuple(self.scale.shape)

    @property
    def code_trailing(self) -> Tuple[int, ...]:
        """Trailing shape of the stored code array (== logical for int8)."""
        return tuple(self.scale.shape)

    @property
    def nbytes(self) -> int:
        return int(self.scale.nbytes + self.offset.nbytes)

    # -- code mapping --------------------------------------------------
    def decode_codes(self, codes: np.ndarray) -> np.ndarray:
        out = codes.astype(np.float64)
        out *= self.scale
        out += self.offset
        return out

    def encode_values(self, values: np.ndarray) -> np.ndarray:
        return _encode_with(np.asarray(values, dtype=np.float64), self)

    # -- serialization -------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "shape": [int(d) for d in self.scale.shape],
            "scale": [float(v) for v in self.scale.reshape(-1)],
            "offset": [float(v) for v in self.offset.reshape(-1)],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CodecParams":
        shape = tuple(int(d) for d in payload["shape"])  # type: ignore[index]
        scale = np.asarray(payload["scale"], dtype=np.float64).reshape(shape)
        offset = np.asarray(payload["offset"], dtype=np.float64).reshape(shape)
        return cls(scale, offset)

    def reshaped(self, trailing_shape: Tuple[int, ...]) -> "CodecParams":
        return CodecParams(
            self.scale.reshape(trailing_shape), self.offset.reshape(trailing_shape)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodecParams):
            return NotImplemented
        return (
            self.scale.shape == other.scale.shape
            and np.array_equal(self.scale, other.scale)
            and np.array_equal(self.offset, other.offset)
        )

    def __hash__(self) -> int:  # pragma: no cover - parity with __eq__
        return hash((self.scale.tobytes(), self.offset.tobytes(), self.scale.shape))


def _b64_f16(array: np.ndarray) -> str:
    """Exact, deterministic wire form of an f16-representable float array.

    Codebook centroids are rounded to float16 at construction (see
    :class:`PQParams`), so the half-precision wire form loses nothing and
    halves the manifest payload relative to float32.
    """
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f2").tobytes()).decode("ascii")


def _f16_b64(data: str, shape: Tuple[int, ...]) -> np.ndarray:
    array = np.frombuffer(base64.b64decode(data.encode("ascii")), dtype="<f2")
    return array.reshape(shape).astype(np.float32)


class PQLayout(NamedTuple):
    """A :class:`PQParams`' codebooks stacked for array-at-a-time kernels.

    ``centroids`` is ``(m, ksub, dsub)`` float32, subspace ``j``'s codebook
    zero-padded in ``centroids[j]``; coordinate ``t`` of subspace ``j``
    reads query dimension ``dims[j, t]`` — ``d`` in padded slots, which
    address an appended zero column, so they add exactly zero.  Float
    dimension ``i`` of a decoded row is ``values[start[i] +
    code[subspace[i]]]``, ``values`` being ``centroids`` laid out ``(m,
    dsub, ksub)`` as flat float64.
    """

    centroids: np.ndarray
    dims: np.ndarray
    subspace: np.ndarray
    start: np.ndarray
    values: np.ndarray


class PQParams:
    """Trained product-quantization parameters (the ``pq`` codec).

    A row's flattened ``d`` float dimensions are partitioned into ``m``
    contiguous subspaces (``splits`` holds the ``m + 1`` boundaries) and
    each subspace ``j`` carries a float32 codebook of up to 256 centroids;
    a stored code row is the ``(m,)`` uint8 vector of per-subspace
    centroid indices. ``trailing`` is the *logical* trailing shape the
    decoded floats are returned in — decoupled from the ``(m,)`` code
    shape, which is what lets ``CodecArray.reshape`` (``flat_mu``-style
    views) swap the logical view without touching codes.

    Codebooks are float32 in memory but rounded to float16-representable
    values at construction: quantization noise dwarfs the half-precision
    rounding, the base64 f16 JSON wire form round-trips bit-exactly (so
    warm-loaded params encode byte-identically to the cold fit) and the
    manifest payload halves relative to float32 centroids.
    """

    # ``_layout`` caches the stacked codebooks (see :meth:`layout`); it is
    # derived, so pickles carry only the three fields above it.
    __slots__ = ("codebooks", "splits", "trailing", "_layout")

    codec_name = "pq"
    code_dtype = np.dtype(np.uint8)
    #: Blocking rank-cut multiplier: over PQ tables the LSH index ranks an
    #: expanded ADC shortlist (``rank_expansion * k`` per query) so the
    #: true top-``k`` survives approximate-distance rank flips — the
    #: classic shortlist-then-exact-score pattern; the matcher rehydrates
    #: only surviving pairs either way.
    rank_expansion = 2
    #: Query-time multiprobe: per hash table, also probe this many
    #: neighbouring buckets across the query's lowest-margin hyperplane
    #: boundaries, compensating bucket flips induced by decode error.
    extra_probes = 1

    def __init__(
        self,
        codebooks: Sequence[np.ndarray],
        splits: Sequence[int],
        trailing: Sequence[int],
    ) -> None:
        self.codebooks = tuple(
            np.ascontiguousarray(cb, dtype=np.float32)
            .astype(np.float16)
            .astype(np.float32)
            for cb in codebooks
        )
        self.splits = tuple(int(s) for s in splits)
        self.trailing = tuple(int(t) for t in trailing)
        if len(self.splits) != len(self.codebooks) + 1:
            raise ValueError("PQParams splits must carry m + 1 boundaries")
        d = self.splits[-1] if self.splits else 0
        if int(np.prod(self.trailing, dtype=np.int64)) != d:
            raise ValueError(
                f"PQ logical trailing {self.trailing} does not flatten to d={d}"
            )
        for j, cb in enumerate(self.codebooks):
            if cb.ndim != 2 or cb.shape[1] != self.splits[j + 1] - self.splits[j]:
                raise ValueError(f"PQ codebook {j} has shape {cb.shape}")
            if not 1 <= cb.shape[0] <= 256:
                raise ValueError(f"PQ codebook {j} holds {cb.shape[0]} entries")
        self._layout: Optional[PQLayout] = None

    def __getstate__(self):
        # The default slot state, minus the derived layout cache.
        return None, {"codebooks": self.codebooks, "splits": self.splits, "trailing": self.trailing}

    def layout(self) -> "PQLayout":
        """The codebooks stacked once per params object (see :class:`PQLayout`)."""
        layout = getattr(self, "_layout", None)  # unset on unpickled params
        if layout is None:
            m, d = self.m, self.d
            ksub = max((cb.shape[0] for cb in self.codebooks), default=1)
            dsub = max((cb.shape[1] for cb in self.codebooks), default=1)
            centroids = np.zeros((m, ksub, dsub), dtype=np.float32)
            for j, cb in enumerate(self.codebooks):
                centroids[j, : cb.shape[0], : cb.shape[1]] = cb
            subspace = np.repeat(np.arange(m, dtype=np.intp), np.diff(self.splits))
            coordinate = np.arange(d) - np.asarray(self.splits[:-1], dtype=np.intp)[subspace]
            dims = np.full((m, dsub), d, dtype=np.intp)
            dims[subspace, coordinate] = np.arange(d)
            layout = PQLayout(
                centroids,
                dims,
                subspace,
                (subspace * dsub + coordinate) * ksub,
                centroids.transpose(0, 2, 1).astype(np.float64).reshape(-1),
            )
            self._layout = layout
        return layout

    # -- geometry ------------------------------------------------------
    @property
    def m(self) -> int:
        return len(self.codebooks)

    @property
    def d(self) -> int:
        return self.splits[-1] if self.splits else 0

    @property
    def logical_trailing(self) -> Tuple[int, ...]:
        return self.trailing

    @property
    def code_trailing(self) -> Tuple[int, ...]:
        return (self.m,)

    @property
    def nbytes(self) -> int:
        return int(sum(cb.nbytes for cb in self.codebooks))

    # -- code mapping --------------------------------------------------
    def decode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Float64 rows of ``codes``: one gather from the stacked codebooks
        per block of at most :data:`_BLOCK_BYTES` of index."""
        codes = np.asarray(codes)
        single = codes.ndim == 1
        rows = codes.reshape(-1, self.m) if not single else codes.reshape(1, self.m)
        layout = self.layout()
        out = np.empty((rows.shape[0], self.d), dtype=np.float64)
        block = max(1, _BLOCK_BYTES // (8 * max(1, self.d)))
        for start in range(0, len(rows), block):
            index = rows[start : start + block, layout.subspace] + layout.start
            np.take(layout.values, index, out=out[start : start + block], mode="clip")
        shaped = out.reshape((rows.shape[0],) + self.trailing)
        return shaped[0] if single else shaped

    def encode_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        single = values.shape == self.trailing
        flat = values.reshape(1, self.d) if single else values.reshape(-1, self.d)
        codes = np.empty((flat.shape[0], self.m), dtype=np.uint8)
        for j, cb in enumerate(self.codebooks):
            sub = flat[:, self.splits[j]:self.splits[j + 1]].astype(np.float32)
            codes[:, j] = _pq_assign(sub, cb)[0]
        return codes[0] if single else codes

    # -- serialization -------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "trailing": [int(t) for t in self.trailing],
            "splits": [int(s) for s in self.splits],
            "ksub": [int(cb.shape[0]) for cb in self.codebooks],
            "codebooks": [_b64_f16(cb) for cb in self.codebooks],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "PQParams":
        splits = [int(s) for s in payload["splits"]]  # type: ignore[index]
        ksub = [int(k) for k in payload["ksub"]]  # type: ignore[index]
        blobs = payload["codebooks"]  # type: ignore[index]
        codebooks = [
            _f16_b64(blob, (ksub[j], splits[j + 1] - splits[j]))
            for j, blob in enumerate(blobs)
        ]
        return cls(codebooks, splits, tuple(int(t) for t in payload["trailing"]))  # type: ignore[arg-type]

    def reshaped(self, trailing_shape: Tuple[int, ...]) -> "PQParams":
        trailing = _resolve_trailing(trailing_shape, self.d)
        params = PQParams(self.codebooks, self.splits, trailing)
        params._layout = self.layout()  # built once, shared by every view: no trailing shape in it
        return params

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PQParams):
            return NotImplemented
        return (
            self.splits == other.splits
            and self.trailing == other.trailing
            and len(self.codebooks) == len(other.codebooks)
            and all(
                a.shape == b.shape and np.array_equal(a, b)
                for a, b in zip(self.codebooks, other.codebooks)
            )
        )

    def __hash__(self) -> int:  # pragma: no cover - parity with __eq__
        return hash(
            (self.splits, self.trailing, tuple(cb.tobytes() for cb in self.codebooks))
        )


AnyParams = Union[CodecParams, PQParams]


def params_from_json(codec_name: str, payload: Dict[str, object]) -> AnyParams:
    """Rebuild codec params from their manifest JSON by codec name."""
    if codec_name == CodecParams.codec_name:
        return CodecParams.from_json(payload)
    if codec_name == PQParams.codec_name:
        return PQParams.from_json(payload)
    raise ValueError(f"no parameterised codec named {codec_name!r}")


def _resolve_trailing(shape: Tuple[int, ...], total: int) -> Tuple[int, ...]:
    """Resolve a single ``-1`` in a trailing shape against ``total`` dims."""
    shape = tuple(int(t) for t in shape)
    negatives = [i for i, t in enumerate(shape) if t < 0]
    if not negatives:
        if int(np.prod(shape, dtype=np.int64)) != total:
            raise ValueError(f"trailing shape {shape} does not flatten to {total}")
        return shape
    if len(negatives) > 1:
        raise ValueError("at most one trailing dimension may be -1")
    known = int(np.prod([t for t in shape if t >= 0], dtype=np.int64))
    if known == 0 or total % known:
        raise ValueError(f"trailing shape {shape} does not flatten to {total}")
    resolved = list(shape)
    resolved[negatives[0]] = total // known
    return tuple(resolved)


class CodecArray:
    """Compact codes + codec params, decoding lazily on indexed access.

    ``a[idx]`` gathers codes and returns *decoded float64* for exactly the
    gathered rows — ndarray-compatible read semantics, so gather-based
    consumers (pair scoring, ranking, hashing a row block) work unchanged
    while the resident representation stays one byte per dimension (int8)
    or one byte per subspace (pq). ``shape`` is the logical float shape;
    for PQ the stored ``codes`` are ``(rows, m)`` uint8.

    Structural operations that must stay compressed use explicit methods:
    ``take_rows`` / ``row_slice`` (code-preserving gathers), ``reshape``
    (row-count-preserving, for ``flat_mu``-style views), and ``concat``.
    ``__setitem__`` re-encodes float rows in place with the fixed params.
    """

    __slots__ = ("codes", "params", "on_decode")

    def __init__(
        self,
        codes: np.ndarray,
        params: AnyParams,
        on_decode=None,
    ) -> None:
        codes = np.asarray(codes)
        if codes.dtype != params.code_dtype:
            raise TypeError(
                f"CodecArray codes must be {params.code_dtype} for the "
                f"{params.codec_name!r} codec, got {codes.dtype}"
            )
        if isinstance(params, CodecParams):
            if params.scale.shape != codes.shape[1:]:
                params = params.reshaped(codes.shape[1:])
        else:
            if codes.ndim != 2 or codes.shape[1:] != params.code_trailing:
                raise ValueError(
                    f"PQ codes must be (rows, {params.m}); got {codes.shape}"
                )
        self.codes = codes
        self.params = params
        self.on_decode = on_decode

    # -- ndarray-compatible surface ------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return (len(self),) + self.params.logical_trailing

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self) -> np.dtype:
        # The *logical* dtype: what indexed reads produce.
        return np.dtype(np.float64)

    @property
    def nbytes(self) -> int:
        return int(self.codes.nbytes + self.params.nbytes)

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        out = self.params.decode_codes(codes)
        if self.on_decode is not None:
            self.on_decode(int(out.nbytes))
        return out

    def __getitem__(self, idx) -> np.ndarray:
        if isinstance(self.params, CodecParams):
            # Code space == logical space: any ndarray index works directly.
            return self._decode(np.asarray(self.codes[idx]))
        # PQ: the leading index selects rows in code space; any trailing
        # index applies to the decoded logical rows.
        rows, rest = (idx[0], idx[1:]) if isinstance(idx, tuple) else (idx, ())
        decoded = self._decode(np.asarray(self.codes[rows]))
        if rest:
            scalar_row = isinstance(rows, (int, np.integer))
            decoded = decoded[rest if scalar_row else (slice(None),) + rest]
        return decoded

    def __setitem__(self, idx, values) -> None:
        if isinstance(idx, tuple) and isinstance(self.params, PQParams):
            raise TypeError("PQ CodecArray only supports whole-row assignment")
        self.codes[idx] = self.params.encode_values(values)

    def __array__(self, dtype=None) -> np.ndarray:
        full = self._decode(self.codes)
        return full if dtype is None else full.astype(dtype)

    def decode(self) -> np.ndarray:
        """Materialise the full float array (rarely wanted — prefer gathers)."""
        return self._decode(self.codes)

    # -- code-preserving structure -------------------------------------
    def take_rows(self, rows) -> "CodecArray":
        return CodecArray(self.codes[rows], self.params, on_decode=self.on_decode)

    def row_slice(self, start: int, stop: int) -> "CodecArray":
        return CodecArray(self.codes[start:stop], self.params, on_decode=self.on_decode)

    def reshape(self, *shape) -> "CodecArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if not shape or shape[0] not in (len(self), -1):
            raise ValueError(
                f"CodecArray.reshape must preserve the row axis; got {shape}"
            )
        if isinstance(self.params, PQParams):
            # Codes never move: only the logical trailing view changes.
            return CodecArray(
                self.codes,
                self.params.reshaped(tuple(shape[1:])),
                on_decode=self.on_decode,
            )
        codes = self.codes.reshape((len(self),) + tuple(shape[1:]))
        return CodecArray(
            codes,
            CodecParams(
                self.params.scale.reshape(codes.shape[1:]),
                self.params.offset.reshape(codes.shape[1:]),
            ),
            on_decode=self.on_decode,
        )

    def encode_rows(self, values: np.ndarray) -> np.ndarray:
        """Quantize float rows with this array's fixed params."""
        return self.params.encode_values(np.asarray(values, dtype=np.float64))

    def concat_rows(self, values) -> "CodecArray":
        """Append rows (floats or a params-compatible CodecArray)."""
        if isinstance(values, CodecArray):
            if values.params != self.params:
                raise ValueError("cannot concat CodecArrays with different params")
            tail = values.codes
        else:
            tail = self.encode_rows(values)
        return CodecArray(
            np.concatenate([self.codes, tail], axis=0),
            self.params,
            on_decode=self.on_decode,
        )

    # -- pickling: drop the counter hook (process-local) ----------------
    def __getstate__(self):
        return {"codes": self.codes, "params": self.params}

    def __setstate__(self, state):
        # Bypass __init__ validation: state comes from a trusted pickle.
        object.__setattr__(self, "codes", state["codes"])
        object.__setattr__(self, "params", state["params"])
        object.__setattr__(self, "on_decode", None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CodecArray(shape={self.shape}, nbytes={self.nbytes})"


def _encode_with(values: np.ndarray, params: CodecParams) -> np.ndarray:
    scaled = (values - params.offset) / params.scale
    np.rint(scaled, out=scaled)
    np.clip(scaled, _QMIN, _QMAX, out=scaled)
    return scaled.astype(np.int8)


# ----------------------------------------------------------------------
# Codec protocol + implementations
# ----------------------------------------------------------------------
class Codec:
    """Pluggable codec protocol.

    ``fit(values)`` derives per-table params from a full float array
    (quantize-once: call it exactly once per table/array, at the first
    full encode). ``encode`` wraps floats into the compressed resident
    form, a :class:`CodecArray` that rehydrates the rows a consumer
    gathers. The ``raw`` codec is the identity on plain ndarrays, so
    codec-agnostic code can call these unconditionally.
    """

    name: str = "abstract"
    is_identity: bool = False

    def fit(self, values: np.ndarray) -> Optional[AnyParams]:
        raise NotImplementedError

    def encode(self, values: np.ndarray, params: Optional[AnyParams], on_decode=None):
        raise NotImplementedError


class RawCodec(Codec):
    """Identity codec: floats in, the same floats out. The default tier."""

    name = "raw"
    is_identity = True

    def fit(self, values: np.ndarray) -> Optional[CodecParams]:
        return None

    def encode(self, values: np.ndarray, params: Optional[CodecParams], on_decode=None):
        return values


class ScalarQuantizer(Codec):
    """Per-dimension int8 affine quantizer (scale + zero-point midpoint).

    Each trailing dimension gets ``scale = (max - min) / 254`` and
    ``offset = (max + min) / 2`` (the midpoint maps to code 0), so the
    worst-case absolute error per dimension is ``scale / 2`` — the
    epsilon the blocking-recall guarantee is pinned against. Constant
    (zero-range) dimensions get scale 1 and decode exactly.
    """

    name = "int8"

    def fit(self, values: np.ndarray) -> CodecParams:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim < 2:
            raise ValueError("ScalarQuantizer.fit expects a (rows, ...) array")
        trailing = values.shape[1:]
        if values.shape[0] == 0:
            return CodecParams(np.ones(trailing), np.zeros(trailing))
        vmin = values.min(axis=0)
        vmax = values.max(axis=0)
        span = vmax - vmin
        scale = span / float(_QLEVELS)
        flat = np.where(scale <= 0.0, 1.0, scale)
        offset = (vmax + vmin) / 2.0
        return CodecParams(flat, offset)

    def encode(
        self, values: np.ndarray, params: Optional[CodecParams], on_decode=None
    ) -> CodecArray:
        if params is None:
            params = self.fit(values)
        codes = _encode_with(np.asarray(values, dtype=np.float64), params)
        return CodecArray(codes, params, on_decode=on_decode)


# -- PQ training knobs --------------------------------------------------
#: Target subvector width when ``m`` is derived (4 floats -> 1 byte = 32x
#: on the code payload; accuracy-leaning vs the classic 8).
#: ``ProductQuantizer(m=...)`` overrides the derived count.
_PQ_DSUB = 4
#: Hard cap on codebook entries (uint8 codes).
_PQ_KSUB_MAX = 256
#: Codebook floor — blocking recall needs this much resolution per
#: subspace regardless of table size (tables with fewer distinct rows
#: take the exact-decode guard instead, so small tables stay cheap).
_PQ_KSUB_MIN = 64
#: Centroid budget grows with the table: ~one centroid per this many rows;
#: f16 codebooks amortise against code bytes from a few hundred rows up.
_PQ_ROWS_PER_CENTROID = 8
#: Cap on Lloyd passes. A fit stops earlier, at its fixed point: most
#: subspaces repeat their assignment by the fourth to seventh pass.
_PQ_ITERS = 15
#: Distortion-adaptive refinement target: a fitted subspace whose mean
#: squared quantization error exceeds this fraction of its total variance
#: is split in half and refit (recursively, down to single dimensions) —
#: rate allocation by distortion, so hard tables spend extra code bytes
#: where easy tables spend none.
_PQ_DISTORTION_TARGET = 0.02
#: Training subsample cap: k-means cost stays bounded on huge tables.
_PQ_TRAIN_CAP = 1 << 16
#: Deterministic training seed (fresh generator per fit: refits agree).
_PQ_SEED = 0x5EED


def _pq_assign(sub: np.ndarray, codebook: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment by exact, per-dimension squared differences.

    Each subspace dimension contributes one ``(rows, ksub)`` plane
    ``(sub[:, t] - codebook[:, t]) ** 2``. The planes add in one fixed
    order: four lanes, lane ``l`` summing dimensions ``l, l + 4, ...`` in
    turn, then ``((l0 + l1) + (l2 + l3))``. That is sequential at widths
    1-3 and the order numpy's 4-wide SIMD ``einsum`` reduction uses below
    width 16, but it is written out, so it does not depend on how numpy
    was built. The difference of bit-equal float32 values is exactly
    ``0.0``, so a subvector that *is* a codebook entry always assigns to it
    with distance exactly zero — the property the low-variance
    exact-decode guard relies on (a matmul-based expansion would round).
    Ties go to the lowest index. Returns ``(indices, squared distances)``.
    """
    n = sub.shape[0]
    ksub, dsub = codebook.shape
    columns = np.ascontiguousarray(codebook.T)  # one contiguous row per dimension
    indices = np.empty(n, dtype=np.intp)
    dists = np.empty(n, dtype=np.float32)
    block = max(1, _BLOCK_BYTES // (4 * max(1, ksub * max(1, dsub))))
    for start in range(0, n, block):
        stop = min(n, start + block)
        lanes: List[np.ndarray] = []
        for t in range(dsub):
            plane = sub[start:stop, t, None] - columns[t]
            np.multiply(plane, plane, out=plane)
            if t < 4:
                lanes.append(plane)
            else:
                lanes[t % 4] += plane
        if len(lanes) > 1:
            lanes[0] += lanes[1]
        if len(lanes) > 3:
            lanes[2] += lanes[3]
        if len(lanes) > 2:
            lanes[0] += lanes[2]
        sq = lanes[0]
        indices[start:stop] = sq.argmin(axis=1)
        dists[start:stop] = sq[np.arange(stop - start), indices[start:stop]]
    return indices, dists


def _pq_kmeans(
    sub: np.ndarray, unique_rows: np.ndarray, ksub: int, rng: np.random.Generator
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Seeded Lloyd k-means over one float32 subspace; float32 centroids.

    Deterministic end to end: seeded init from distinct rows, stable
    argmin assignment, and empty clusters reseeded to the points farthest
    from their current centroid (largest distance first, lowest row index
    on ties). Means accumulate in float64 and round once to float32.

    Lloyd stops at its fixed point (at most ``_PQ_ITERS`` passes): when a
    pass repeats the assignment of the pass before it and that pass left
    no cluster empty, every centre is already the mean of the same
    members, so further passes cannot change a byte. A pass that reseeds
    is never the reference for that check. Returns ``(codebook, dists)``:
    ``dists`` are the squared distances of every row of ``sub`` to its
    codebook entry when the fixed-point pass computed them over the whole
    subspace (no ``_PQ_TRAIN_CAP`` subsample), else ``None``.
    """
    train = sub
    if train.shape[0] > _PQ_TRAIN_CAP:
        picked = np.sort(rng.choice(train.shape[0], _PQ_TRAIN_CAP, replace=False))
        train = train[picked]
    init = rng.choice(unique_rows.shape[0], ksub, replace=False)
    centers = unique_rows[np.sort(init)].astype(np.float64)
    x = train.astype(np.float64)
    settled: Optional[np.ndarray] = None  # last assignment that left no cluster empty
    for _ in range(_PQ_ITERS):
        codebook = centers.astype(np.float32)
        assign, dist = _pq_assign(train, codebook)
        if settled is not None and np.array_equal(assign, settled):
            return codebook, (dist if train is sub else None)
        counts = np.bincount(assign, minlength=ksub)
        sums = np.zeros((ksub, x.shape[1]), dtype=np.float64)
        for dim in range(x.shape[1]):
            sums[:, dim] = np.bincount(assign, weights=x[:, dim], minlength=ksub)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        empties = np.flatnonzero(~filled)
        settled = None if empties.size else assign
        if empties.size:
            far = np.argsort(-dist.astype(np.float64), kind="stable")
            for empty, point in zip(empties, far[: empties.size]):
                centers[empty] = x[point]
    return centers.astype(np.float32), None


class ProductQuantizer(Codec):
    """Trained product quantization: per-subspace k-means codebooks.

    ``fit`` flattens the trailing dims to ``d`` float dimensions, splits
    them into ``m`` contiguous subspaces (``ProductQuantizer(m=...)``
    overrides the ``d / 4`` default) and trains one codebook per subspace
    with seeded, deterministic Lloyd k-means that stops at its fixed point
    (at most ``_PQ_ITERS`` passes). The codebook budget scales with the
    table — ``min(256, max(64, rows / 8))`` centroids — floored high
    enough for blocking-grade fidelity; tables smaller than the floor
    fall into the exact-decode guard, so the budget never degenerates.
    Subspaces whose fitted distortion misses ``_PQ_DISTORTION_TARGET``
    are split in half and refit (see :meth:`_fit_subspace`), so code
    bytes concentrate on the tables that actually need them.

    The exact-decode guard: a subspace with at most ``ksub`` distinct
    (float32) subvectors skips k-means and uses the distinct rows
    themselves as the codebook, so empty, constant and low-variance
    subspaces decode exactly (at float32 precision) instead of producing
    degenerate centroids.
    """

    name = "pq"

    def __init__(self, m: Optional[int] = None, seed: int = _PQ_SEED) -> None:
        self.m = m
        self.seed = int(seed)

    def _subspaces(self, d: int) -> List[int]:
        """Split boundaries: ``m + 1`` monotone offsets covering ``d``."""
        m = self.m
        if m is None or m <= 0:
            m = math.ceil(d / _PQ_DSUB)
        m = max(1, min(int(m), d)) if d else 0
        sizes = [len(part) for part in np.array_split(np.arange(d), m)] if m else []
        return [0] + list(np.cumsum(sizes, dtype=int))

    def _fit_subspace(
        self,
        sub: np.ndarray,
        ksub: int,
        rng: np.random.Generator,
        codebooks: List[np.ndarray],
        widths: List[int],
    ) -> None:
        """Fit one subspace, splitting and recursing when distortion misses.

        Appends the fitted codebook(s) and their widths in dimension order.
        A subspace whose mean squared k-means error stays above
        ``_PQ_DISTORTION_TARGET`` of its total variance is halved and each
        half refit — recursive rate allocation that stops at single
        dimensions (where a 256-entry codebook is plain scalar k-means).
        """
        unique_rows = np.unique(sub, axis=0)
        if unique_rows.shape[0] <= ksub:
            # Exact-decode guard: the data *is* the codebook.
            codebooks.append(unique_rows)
            widths.append(sub.shape[1])
            return
        codebook, dists = _pq_kmeans(sub, unique_rows, ksub, rng)
        if sub.shape[1] >= 2:
            if dists is None:
                _, dists = _pq_assign(sub, codebook)
            variance = float(sub.var(axis=0, dtype=np.float64).sum())
            if variance > 0.0 and float(dists.mean(dtype=np.float64)) > (
                _PQ_DISTORTION_TARGET * variance
            ):
                half = sub.shape[1] // 2
                self._fit_subspace(
                    np.ascontiguousarray(sub[:, :half]), ksub, rng, codebooks, widths
                )
                self._fit_subspace(
                    np.ascontiguousarray(sub[:, half:]), ksub, rng, codebooks, widths
                )
                return
        codebooks.append(codebook)
        widths.append(sub.shape[1])

    def fit(self, values: np.ndarray) -> PQParams:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim < 2:
            raise ValueError("ProductQuantizer.fit expects a (rows, ...) array")
        trailing = values.shape[1:]
        n = values.shape[0]
        d = int(np.prod(trailing, dtype=np.int64))
        flat = values.reshape(n, d).astype(np.float32)
        splits = self._subspaces(d)
        ksub = min(
            _PQ_KSUB_MAX, max(_PQ_KSUB_MIN, n // _PQ_ROWS_PER_CENTROID)
        )
        rng = np.random.default_rng(self.seed)
        codebooks: List[np.ndarray] = []
        widths: List[int] = []
        for j in range(len(splits) - 1):
            lo, hi = splits[j], splits[j + 1]
            if n == 0:
                codebooks.append(np.zeros((1, hi - lo), dtype=np.float32))
                widths.append(hi - lo)
                continue
            self._fit_subspace(
                np.ascontiguousarray(flat[:, lo:hi]), ksub, rng, codebooks, widths
            )
        return PQParams(codebooks, [0] + list(np.cumsum(widths, dtype=int)), trailing)

    def encode(
        self, values: np.ndarray, params: Optional[PQParams], on_decode=None
    ) -> CodecArray:
        if params is None:
            params = self.fit(values)
        codes = params.encode_values(np.asarray(values, dtype=np.float64))
        return CodecArray(codes, params, on_decode=on_decode)


_CODECS: Dict[str, Codec] = {
    RawCodec.name: RawCodec(),
    ScalarQuantizer.name: ScalarQuantizer(),
    ProductQuantizer.name: ProductQuantizer(),
}


def available_codecs() -> List[str]:
    return sorted(_CODECS)


def get_codec(name: str) -> Codec:
    try:
        return _CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        ) from None


def resolve_codec_name(name: Optional[str] = None) -> str:
    """The codec ``name`` selects (validated loudly), or ``raw`` when unset."""
    if name:
        get_codec(name)  # validate explicit choices loudly
        return name
    return DEFAULT_CODEC


# ----------------------------------------------------------------------
# Asymmetric distance kernels
# ----------------------------------------------------------------------
_BLOCK_BYTES = 1 << 22  # ~4 MiB of float32 per decode block
#: Bound on the float32 lookup tables one ADC query block holds; larger
#: query blocks are scored in row slices, each building its tables once.
_LUT_BYTES = 1 << 24

#: A CSR candidate list: flat table row ids and ``len(queries) + 1`` offsets;
#: query ``i`` is scored against ``rows[offsets[i]:offsets[i + 1]]``.
Candidates = Tuple[np.ndarray, np.ndarray]


def candidate_chunks(offsets: np.ndarray, block: int) -> Iterator[Tuple[int, slice]]:
    """``(query, entries)`` pieces of a CSR candidate list, query by query.

    ``entries`` slices at most ``block`` of the query's candidate entries,
    so a kernel's gathered working set is one query's candidates (cache
    resident at blocking sizes) and never more than ``block`` rows.
    """
    for query in range(len(offsets) - 1):
        for start in range(offsets[query], offsets[query + 1], block):
            yield query, slice(start, min(offsets[query + 1], start + block))


def asymmetric_sq_distances(
    query: np.ndarray,
    table: CodecArray,
    table_sq_norms: Optional[np.ndarray] = None,
    candidates: Optional[Candidates] = None,
) -> np.ndarray:
    """Squared Euclidean distances from float queries to a code table.

    ``query`` is ``(d,)`` or ``(m, d)`` float; ``table`` is an ``(n, d)``
    :class:`CodecArray`. The kernel never materialises the decoded table.
    Without ``candidates`` the result is the dense ``(m, n)`` matrix (the
    reference the candidate form is tested against). With ``candidates``
    (a CSR ``(rows, offsets)`` pair, see :data:`Candidates`; the offsets
    start at 0, never decrease and end at ``len(rows)``) every query is
    scored against its own table rows only and the result is the flat
    float64 array aligned with ``rows`` — the whole block in one call.
    In both forms a query's distances do not depend on which other
    queries share the block: every reduction is per pair and none goes
    through BLAS, whose kernel choice follows the block's shape.

    For ``int8`` it shifts queries by the offset and folds the
    per-dimension scale into the query side — the de-scaled identity

        ||q - (c s + o)||^2 = ||q - o||^2 - 2 ((q - o) s) . c + ||c s||^2

    — and takes one dot product against the raw codes per pair (float32
    and blockwise in the dense form, float64 in the candidate form).
    ``table_sq_norms`` (the ``||c s||^2`` term) can be precomputed with
    :func:`table_sq_norms_of` and cached across queries.

    For ``pq`` it is the ADC kernel over ``q32``, the query rounded to
    float32. A (query, row, subspace) cell is the squared distance of the
    query's subvector to the row's centroid: float32 differences, squared
    and accumulated one subspace dimension at a time from zero. The dense
    form builds every query's lookup tables of cells once per query block
    (as wide as the largest codebook present, at most :data:`_LUT_BYTES`
    per block) and adds ``lut[q, j, code[i, j]]`` over ``j`` in turn. The
    candidate form evaluates only the listed pairs' ``m`` cells, in flat
    blocks across queries, and sums them with ``.sum(axis=1)`` — the same
    bytes the lookup-table gather summed the same way gives. The cells
    carry the full distance, so the norm-cache term is zero for PQ tables
    and the argument is ignored.
    """
    if table.ndim != 2:
        raise ValueError("asymmetric distances expect a 2-D code table")
    q = np.asarray(query, dtype=np.float64)
    squeeze = q.ndim == 1
    q = np.atleast_2d(q)
    if candidates is not None:
        rows, offsets = (np.asarray(part, dtype=np.intp) for part in candidates)
        if (
            len(offsets) != len(q) + 1
            or offsets[0] != 0
            or offsets[-1] != len(rows)
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise ValueError("candidate offsets must bracket every query's rows")
        candidates = (rows, offsets)
    if isinstance(table.params, PQParams):
        out = _pq_adc_sq_distances(q, table, candidates)
    else:
        if table_sq_norms is None:
            table_sq_norms = table_sq_norms_of(table)
        out = _int8_sq_distances(q, table, table_sq_norms, candidates)
    np.maximum(out, 0.0, out=out)
    return out[0] if squeeze and candidates is None else out


def gemm_frame(
    query: np.ndarray, table: CodecArray, table_sq_norms: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, Callable[[int, int], Tuple[np.ndarray, np.ndarray]], float]:
    """:func:`asymmetric_sq_distances` in the form one BLAS product ranks.

    Returns ``(a, a_norms, rows, rounding)``, ``rows(start, stop) -> (b,
    b_norms)`` reading table rows ``[start, stop)``, all float64.  In exact
    arithmetic the kernel's distance of query ``i`` to row ``r`` is ``a_norms[i]
    + b_norms[r] - 2 a[i] . b[r]``; its float result strays from that by the
    rounding the same form costs a float table plus ``rounding`` times it.

    * ``int8``: the kernel's own frame — ``a = (q - o) s`` and ``||q - o||^2``
      as the kernel computes them, ``b`` the codes and ``b_norms`` the
      ``||c s||^2`` the kernel adds; ``rounding`` is 0.
    * ``pq``: ``a = q32``, ``b`` the rows decoded by ``decode_codes`` (one
      block per call, nothing kept) and their squared norms; ``rounding``
      is ``gamma(m + dsub + 3)`` in float32, every ADC summand being
      non-negative.
    """
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    params = table.params
    if isinstance(params, PQParams):
        a = q.astype(np.float32).astype(np.float64)

        def rows(start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
            b = table[start:stop]
            return b, np.einsum("ij,ij->i", b, b)

        dsub = params.layout().centroids.shape[2]
        steps = (params.m + dsub + 3) * float(np.finfo(np.float32).eps) / 2
        return a, np.einsum("ij,ij->i", a, a), rows, steps / (1.0 - steps)
    if table_sq_norms is None:
        table_sq_norms = table_sq_norms_of(table)
    a, a_norms = _int8_query_frame(q, params)

    def code_rows(start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        return table.codes[start:stop].astype(np.float64), table_sq_norms[start:stop]

    return a, a_norms, code_rows, 0.0


def _int8_query_frame(q: np.ndarray, params: CodecParams) -> Tuple[np.ndarray, np.ndarray]:
    """``((q - o) s, ||q - o||^2)``: the query side of the de-scaled identity."""
    shifted = q - params.offset
    return shifted * params.scale, (shifted * shifted).sum(axis=1)


def _int8_sq_distances(
    q: np.ndarray,
    table: CodecArray,
    table_sq_norms: np.ndarray,
    candidates: Optional[Candidates],
) -> np.ndarray:
    """The de-scaled identity: a dot product per (query, row) pair, all rows
    of the table (float32, blockwise) or the listed candidates (float64)."""
    scaled_q, query_sq_norms = _int8_query_frame(q, table.params)
    d = max(1, table.codes.shape[1])
    if candidates is None:
        n = len(table)
        scaled_q = scaled_q.astype(np.float32)
        out = np.empty((q.shape[0], n), dtype=np.float64)
        block = max(1, _BLOCK_BYTES // (4 * d))
        for start in range(0, n, block):
            stop = min(n, start + block)
            codes_f32 = table.codes[start:stop].astype(np.float32)
            # einsum, not sgemm: BLAS picks its kernel by the block's row
            # count, which moves a query's last bits with its neighbours.
            out[:, start:stop] = np.einsum("qd,nd->qn", scaled_q, codes_f32)
        out *= -2.0
        out += query_sq_norms[:, None]
        out += table_sq_norms[None, :]
        return out
    rows, offsets = candidates
    out = np.empty(len(rows), dtype=np.float64)
    for query, entries in candidate_chunks(offsets, max(1, _BLOCK_BYTES // (8 * d))):
        codes = table.codes[rows[entries]].astype(np.float64)
        out[entries] = np.einsum("ij,j->i", codes, scaled_q[query])
    out *= -2.0
    out += np.repeat(query_sq_norms, np.diff(offsets))
    out += table_sq_norms[rows]
    return out


def _pq_query_slots(q: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """``(queries, m, dsub)`` float32: each slot's query coordinate, zero
    in padded slots (``dims`` addresses an appended zero column)."""
    padded = np.concatenate(
        [q.astype(np.float32), np.zeros((len(q), 1), dtype=np.float32)], axis=1
    )
    return padded[:, dims]


def _pq_lookup_tables(
    q: np.ndarray, centroids: np.ndarray, dims: np.ndarray
) -> np.ndarray:
    """``lut[i, j, c]``: squared distance of query ``i``'s subvector ``j`` to
    centroid ``c`` — one ``(len(q), m, ksub)`` float32 block.

    ``centroids`` and ``dims`` are the :class:`PQLayout` fields. The squared
    differences accumulate one subspace dimension at a time, element by
    element, so a query's tables are the same in every block it joins.
    """
    padded = _pq_query_slots(q, dims)  # (nq, m, dsub)
    luts = np.zeros((len(q),) + centroids.shape[:2], dtype=np.float32)
    diff = np.empty_like(luts)
    for t in range(centroids.shape[2]):
        np.subtract(padded[:, :, t, None], centroids[:, :, t], out=diff)
        np.multiply(diff, diff, out=diff)
        luts += diff
    return luts


def _pq_adc_sq_distances(
    q: np.ndarray, table: CodecArray, candidates: Optional[Candidates]
) -> np.ndarray:
    """ADC over the whole table (lookup tables once per query block) or
    over the listed pairs' cells (:func:`_pq_cell_sq_distances`)."""
    params = table.params
    if q.shape[1] != params.d:
        raise ValueError(
            f"query dimension {q.shape[1]} does not match PQ table d={params.d}"
        )
    layout = params.layout()
    codes = table.codes
    if candidates is not None:
        return _pq_cell_sq_distances(q, codes, layout, *candidates)
    nq, n = q.shape[0], len(table)
    m, ksub = layout.centroids.shape[:2]
    out = np.empty((nq, n), dtype=np.float64)
    query_block = max(1, _LUT_BYTES // (4 * max(1, m * ksub)))
    for q_start in range(0, nq, query_block):
        q_stop = min(nq, q_start + query_block)
        luts = _pq_lookup_tables(q[q_start:q_stop], layout.centroids, layout.dims)
        block = max(1, _BLOCK_BYTES // (4 * (q_stop - q_start)))
        for start in range(0, n, block):
            stop = min(n, start + block)
            acc = np.zeros((q_stop - q_start, stop - start), dtype=np.float32)
            for j in range(m):
                acc += luts[:, j, codes[start:stop, j]]
            out[q_start:q_stop, start:stop] = acc
    return out


def _pq_cell_sq_distances(
    q: np.ndarray, codes: np.ndarray, layout: PQLayout, rows: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """The candidate form of ADC: each listed pair's ``m`` cells, no tables.

    Pairs run in flat blocks across queries, at most :data:`_BLOCK_BYTES`
    of float32 differences each: one gather of every pair's centroids, one
    of its query's slots.  A cell takes the float32 operations of its
    lookup-table entry in the same order, and a pair's ``(m,)`` row of
    cells is summed with ``.sum(axis=1)``.
    """
    m, ksub, dsub = layout.centroids.shape
    slots = _pq_query_slots(q, layout.dims)
    centroids = layout.centroids.reshape(m * ksub, dsub)
    subspace_start = np.arange(m, dtype=np.intp) * ksub
    owner = np.repeat(np.arange(len(q), dtype=np.intp), np.diff(offsets))
    out = np.empty(len(rows), dtype=np.float64)
    block = max(1, _BLOCK_BYTES // (4 * max(1, m * dsub)))
    for start in range(0, len(rows), block):
        entries = slice(start, min(len(rows), start + block))
        index = codes[rows[entries]] + subspace_start  # (pairs, m) centroid ids
        diff = slots.take(owner[entries], axis=0)
        diff -= centroids.take(index, axis=0)
        np.multiply(diff, diff, out=diff)
        cells = np.zeros(index.shape, dtype=np.float32)
        for t in range(dsub):
            cells += diff[:, :, t]
        out[entries] = cells.sum(axis=1)
    return out


def table_sq_norms_of(table: CodecArray) -> np.ndarray:
    """Per-row norm term for the asymmetric kernel, computed blockwise.

    For int8 this is ``||c * s||^2`` (cached across queries by the LSH
    index). PQ lookup tables already carry the complete distance, so PQ
    tables report zeros — the norm-cache machinery stays codec-agnostic.
    """
    if table.ndim != 2:
        raise ValueError("table norms expect a 2-D code table")
    n = len(table)
    if isinstance(table.params, PQParams):
        return np.zeros(n, dtype=np.float64)
    d = max(1, table.codes.shape[1])
    scale32 = table.params.scale.astype(np.float32)
    norms = np.empty(n, dtype=np.float64)
    block = max(1, _BLOCK_BYTES // (4 * d))
    for start in range(0, n, block):
        stop = min(n, start + block)
        scaled = table.codes[start:stop].astype(np.float32) * scale32
        norms[start:stop] = (scaled.astype(np.float64) ** 2).sum(axis=1)
    return norms

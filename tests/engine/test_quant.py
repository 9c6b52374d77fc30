"""Quantized encoding tier: codecs, code arrays, asymmetric distances.

Three contracts pin the int8 tier:

* **Bounded reconstruction** — per-dimension affine int8 decode is within
  ``scale / 2`` of the original everywhere (constant dimensions exactly),
  and every explicit code-space op (slice, gather, splice, concat) commutes
  with decoding;
* **Rank fidelity** — the asymmetric float-query x int8-table distance
  kernel agrees with exact distances against the decoded table to float
  tolerance, so blocking neighbour order is pinned, not approximated;
* **Store equivalence** — an int8-codec :class:`EncodingStore` produces the
  same candidate pairs as a raw store while storing ~8x fewer bytes, and a
  quantize -> patch -> prune roundtrip re-encodes exactly as many rows as
  the raw codec does (the delta machinery is codec-blind).

And four more pin the trained ``pq`` tier:

* **Deterministic training** — seeded k-means refits to identical
  codebooks, the f16 wire form round-trips params bit-exactly, and the
  exact-decode guard makes low-cardinality subspaces decode exactly;
* **ADC fidelity** — the lookup-table kernel equals exact distances
  against the decoded table (the approximation lives in the codebooks,
  never in the kernel);
* **Store equivalence under expansion** — a pq store's candidates *cover*
  the raw candidates (``rank_expansion`` makes the pq shortlist a
  superset, so recall — not symmetric difference — is the contract);
* **Quantize-once warm path** — a warm load serves byte-identical codes
  and re-resolves to the identical match stream without re-encoding.
"""

import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BlockingConfig, VAEConfig
from repro.core.representation import EntityRepresentationModel
from repro.data.generators.base import DomainSpec, SyntheticDomainGenerator, compose, pick
from repro.engine import (
    EncodingStore,
    PersistentEncodingCache,
    merge_scored_batches,
    resolve,
)
from repro.engine import quant as quant_module
from repro.engine.quant import (
    CodecArray,
    CodecParams,
    PQParams,
    ProductQuantizer,
    ScalarQuantizer,
    asymmetric_sq_distances,
    available_codecs,
    get_codec,
    params_from_json,
    resolve_codec_name,
    table_sq_norms_of,
)
from repro.eval.timing import EngineCounters


def _random_floats(shape, seed=0, scale=3.0):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=scale, size=shape)


class TestCodecParams:
    def test_json_roundtrip(self):
        params = ScalarQuantizer().fit(_random_floats((10, 2, 4)))
        clone = CodecParams.from_json(params.to_json())
        assert clone == params
        assert clone.scale.shape == (2, 4) and clone.offset.shape == (2, 4)

    def test_reshaped_preserves_values(self):
        params = ScalarQuantizer().fit(_random_floats((10, 8)))
        flat = params.reshaped((2, 4))
        assert flat.scale.shape == (2, 4)
        np.testing.assert_array_equal(flat.scale.ravel(), params.scale.ravel())

    def test_inequality(self):
        a = ScalarQuantizer().fit(_random_floats((10, 4), seed=1))
        b = ScalarQuantizer().fit(_random_floats((10, 4), seed=2))
        assert a != b and a == a


class TestScalarQuantizer:
    def test_reconstruction_error_bounded_by_half_step(self):
        values = _random_floats((64, 3, 5), seed=3)
        array = ScalarQuantizer().encode(values, None)
        error = np.abs(array.decode() - values)
        assert np.all(error <= array.params.scale / 2 + 1e-12)

    def test_codes_symmetric_range(self):
        array = ScalarQuantizer().encode(_random_floats((128, 6), seed=4), None)
        assert array.codes.dtype == np.int8
        assert array.codes.min() >= -127 and array.codes.max() <= 127

    def test_constant_dimension_decodes_exactly(self):
        values = _random_floats((32, 3), seed=5)
        values[:, 1] = 2.5  # zero-span dimension
        array = ScalarQuantizer().encode(values, None)
        np.testing.assert_array_equal(array.decode()[:, 1], values[:, 1])

    def test_encode_with_adopted_params_is_fit_free(self):
        base = _random_floats((40, 4), seed=6)
        params = ScalarQuantizer().fit(base)
        tail = ScalarQuantizer().encode(_random_floats((8, 4), seed=7), params)
        assert tail.params is params  # adopted, not re-fitted

    def test_extremes_clip_instead_of_wrapping(self):
        params = ScalarQuantizer().fit(np.array([[0.0], [1.0]]))
        wild = ScalarQuantizer().encode(np.array([[100.0], [-100.0]]), params)
        assert wild.codes.max() == 127 and wild.codes.min() == -127


class TestCodecArray:
    def _array(self, n=24, trailing=(2, 3), seed=8):
        values = _random_floats((n,) + trailing, seed=seed)
        return values, ScalarQuantizer().encode(values, None)

    def test_ndarray_compatible_reads(self):
        values, array = self._array()
        assert array.shape == values.shape and len(array) == len(values)
        assert array.dtype == np.float64  # logical dtype: consumers see floats
        np.testing.assert_array_equal(np.asarray(array), array.decode())
        np.testing.assert_array_equal(array[np.array([3, 1, 3])], array.decode()[[3, 1, 3]])

    def test_nbytes_counts_codes_plus_params(self):
        _, array = self._array()
        params_bytes = array.params.scale.nbytes + array.params.offset.nbytes
        assert array.nbytes == array.codes.nbytes + params_bytes
        assert array.decode().nbytes == 8 * array.codes.nbytes

    def test_setitem_reencodes_rows(self):
        values, array = self._array()
        replacement = _random_floats((2, 3), seed=9)
        array[4] = replacement
        assert np.all(np.abs(array[4] - replacement) <= array.params.scale / 2 + 1e-12)

    def test_code_ops_commute_with_decode(self):
        _, array = self._array()
        rows = np.array([5, 0, 17, 5])
        np.testing.assert_array_equal(array.take_rows(rows).decode(), array.decode()[rows])
        np.testing.assert_array_equal(array.row_slice(4, 11).decode(), array.decode()[4:11])
        flat = array.reshape(len(array), -1)
        np.testing.assert_array_equal(flat.decode(), array.decode().reshape(len(array), -1))

    def test_concat_rows_floats_and_codes(self):
        _, array = self._array()
        tail_floats = _random_floats((4, 2, 3), seed=10)
        grown = array.concat_rows(tail_floats)
        assert len(grown) == len(array) + 4 and grown.params == array.params
        _, other = self._array(n=6)
        grown2 = array.concat_rows(CodecArray(other.codes, array.params))
        np.testing.assert_array_equal(grown2.codes[len(array):], other.codes)

    def test_on_decode_hook_counts_float_bytes(self):
        seen = []
        values = _random_floats((16, 4), seed=11)
        array = ScalarQuantizer().encode(values, None, on_decode=seen.append)
        _ = array[np.array([0, 1, 2])]
        assert seen == [3 * 4 * 8]  # 3 rows x 4 dims x float64

    def test_pickle_drops_decode_hook(self):
        values = _random_floats((8, 4), seed=12)
        array = ScalarQuantizer().encode(values, None, on_decode=lambda _: None)
        clone = pickle.loads(pickle.dumps(array))
        assert clone.on_decode is None
        np.testing.assert_array_equal(clone.codes, array.codes)
        np.testing.assert_array_equal(clone.decode(), array.decode())


class TestRegistry:
    def test_available_codecs(self):
        names = available_codecs()
        assert "raw" in names and "int8" in names

    def test_get_codec_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown codec"):
            get_codec("float16")

    def test_resolve_explicit_and_default(self):
        assert resolve_codec_name(None) == "raw"
        assert resolve_codec_name("int8") == "int8"
        with pytest.raises(ValueError):
            resolve_codec_name("zstd")

    def test_environment_never_selects_a_codec(self, monkeypatch):
        """The codec comes from the caller or the ``raw`` default; a variable
        left in the environment changes nothing."""
        monkeypatch.setenv("REPRO_ENGINE_CODEC", "pq")
        assert resolve_codec_name(None) == "raw"
        assert resolve_codec_name("int8") == "int8"

    def test_raw_codec_is_identity(self):
        codec = get_codec("raw")
        values = _random_floats((4, 2))
        assert codec.is_identity and codec.encode(values, None) is values

    def test_pq_codec_is_usable(self):
        assert available_codecs() == ["int8", "pq", "raw"]
        assert get_codec("pq").name == "pq"
        assert resolve_codec_name("pq") == "pq"


def _clustered_floats(n=400, d=8, centers=12, noise=0.01, seed=23, scale=3.0):
    """Clusterable data: what PQ codebooks are actually good at."""
    rng = np.random.default_rng(seed)
    mus = rng.normal(scale=scale, size=(centers, d))
    return mus[rng.integers(0, centers, size=n)] + rng.normal(scale=noise, size=(n, d))


class TestProductQuantizer:
    def test_codes_are_uint8_and_reconstruction_tracks_clusters(self):
        values = _clustered_floats()
        array = ProductQuantizer().encode(values, None)
        assert array.codes.dtype == np.uint8
        assert array.codes.shape == (len(values), array.params.m)
        # Error is bounded by cluster noise + f16 centroid rounding, both
        # orders of magnitude below the cluster scale.
        assert float(np.abs(array.decode() - values).mean()) < 0.05

    def test_exact_decode_guard_on_low_cardinality_tables(self):
        rng = np.random.default_rng(24)
        base = rng.normal(scale=2.0, size=(6, 8)).astype(np.float16).astype(np.float64)
        values = base[rng.integers(0, 6, size=50)]
        array = ProductQuantizer().encode(values, None)
        # Few distinct subvectors: the data is the codebook, decode is exact
        # (f16-representable inputs survive the f16 codebook rounding).
        np.testing.assert_array_equal(array.decode(), values)

    def test_refit_is_deterministic(self):
        values = _clustered_floats(seed=25)
        quantizer = ProductQuantizer()
        first, second = quantizer.fit(values), quantizer.fit(values)
        assert first == second
        np.testing.assert_array_equal(
            first.encode_values(values), second.encode_values(values)
        )

    def test_params_json_roundtrip_is_bit_exact(self):
        params = ProductQuantizer().fit(_clustered_floats(seed=26))
        payload = json.loads(json.dumps(params.to_json()))
        clone = PQParams.from_json(payload)
        assert clone == params  # f16 wire: bit-exact, not approximate
        assert params_from_json("pq", payload) == params
        values = _clustered_floats(n=40, seed=27)
        np.testing.assert_array_equal(
            clone.encode_values(values), params.encode_values(values)
        )

    def test_distortion_refinement_splits_hard_subspaces_only(self):
        rng = np.random.default_rng(28)
        # Unclusterable white noise: one 4-wide subspace cannot hit the
        # distortion target, so the fit splits it and spends more bytes.
        hard = rng.normal(size=(2000, 4))
        assert ProductQuantizer(m=1).fit(hard).m >= 2
        # Tightly clustered data of the same shape fits in one subspace.
        easy = _clustered_floats(n=2000, d=4, centers=100, noise=0.005, seed=29)
        assert ProductQuantizer(m=1).fit(easy).m == 1

    def test_code_shape_decoupled_from_logical_shape(self):
        values = _clustered_floats(n=50, d=8, seed=30).reshape(50, 2, 4)
        array = ProductQuantizer().encode(values, None)
        assert array.shape == (50, 2, 4)
        flat = array.reshape(50, -1)
        assert flat.shape == (50, 8)
        assert flat.codes is array.codes  # a view change, codes never move
        np.testing.assert_array_equal(flat.decode(), array.decode().reshape(50, 8))

    def test_code_ops_commute_with_decode(self):
        array = ProductQuantizer().encode(_clustered_floats(n=40, seed=31), None)
        rows = np.array([7, 0, 33, 7])
        np.testing.assert_array_equal(array.take_rows(rows).decode(), array.decode()[rows])
        np.testing.assert_array_equal(array.row_slice(5, 21).decode(), array.decode()[5:21])
        grown = array.concat_rows(_clustered_floats(n=8, seed=32))
        assert len(grown) == 48 and grown.params is array.params

    def test_decode_is_the_per_subspace_gather(self, monkeypatch):
        """Decoding gathers from the stacked codebooks: the bytes of a
        per-subspace ``codebook[codes[:, j]]`` copy, for subspaces of uneven
        width and codebooks of uneven size, single rows and row blocks that
        cross the decode chunk bound.  Building the stack changes neither the
        pickle bytes nor equality."""
        rng = np.random.default_rng(40)
        codebooks = [rng.normal(size=(ksub, width)) for ksub, width in ((3, 2), (7, 1), (5, 4))]
        params = PQParams(codebooks, [0, 2, 3, 7], (7,))
        codes = np.stack([rng.integers(0, cb.shape[0], size=30) for cb in codebooks], axis=1)
        codes = codes.astype(np.uint8)
        want = np.concatenate(
            [cb[codes[:, j]].astype(np.float64) for j, cb in enumerate(params.codebooks)], axis=1
        )
        wire = pickle.dumps(params)
        monkeypatch.setattr(quant_module, "_BLOCK_BYTES", 8 * 7 * 4)  # four rows per block
        decoded = params.decode_codes(codes)
        assert decoded.dtype == np.float64
        np.testing.assert_array_equal(decoded, want)
        np.testing.assert_array_equal(params.decode_codes(codes[5]), want[5])
        assert pickle.dumps(params) == wire
        clone = pickle.loads(wire)
        assert clone == params
        np.testing.assert_array_equal(clone.decode_codes(codes), want)

    def test_m_override_via_constructor(self):
        values = _clustered_floats(n=100, d=8, seed=33)
        assert ProductQuantizer(m=2).fit(values).m == 2
        assert ProductQuantizer(m=4).fit(values).m == 4
        assert ProductQuantizer().fit(values).m == 2  # the d / 4 default

    def test_query_policy_attributes(self):
        # The LSH index reads these off the table params: int8 ranks
        # accurately enough to keep the exact cut, PQ asks for an expanded
        # ADC shortlist plus one extra bucket probe per table.
        assert (CodecParams.rank_expansion, CodecParams.extra_probes) == (1, 0)
        assert (PQParams.rank_expansion, PQParams.extra_probes) == (2, 1)


def _reference_assign(sub, codebook):
    """The broadcast-difference ``einsum`` assignment the per-dimension
    kernel replaced (blocking never changed a row's answer, so none here)."""
    diff = sub[:, None, :] - codebook[None, :, :]
    sq = np.einsum("ikd,ikd->ik", diff, diff)
    indices = sq.argmin(axis=1)
    return indices, sq[np.arange(len(sub)), indices]


def _reference_kmeans(sub, unique_rows, ksub, rng):
    """Lloyd as it ran before the fixed-point exit: always ``_PQ_ITERS``
    passes. Returns ``(centres, passes that reseeded an empty cluster)``."""
    train = sub
    if train.shape[0] > quant_module._PQ_TRAIN_CAP:
        picked = np.sort(rng.choice(train.shape[0], quant_module._PQ_TRAIN_CAP, replace=False))
        train = train[picked]
    init = rng.choice(unique_rows.shape[0], ksub, replace=False)
    centers = unique_rows[np.sort(init)].astype(np.float64)
    x = train.astype(np.float64)
    reseeds = 0
    for _ in range(quant_module._PQ_ITERS):
        assign, dist = _reference_assign(train, centers.astype(np.float32))
        counts = np.bincount(assign, minlength=ksub)
        sums = np.zeros((ksub, x.shape[1]), dtype=np.float64)
        for dim in range(x.shape[1]):
            sums[:, dim] = np.bincount(assign, weights=x[:, dim], minlength=ksub)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        empties = np.flatnonzero(~filled)
        if empties.size:
            reseeds += 1
            far = np.argsort(-dist.astype(np.float64), kind="stable")
            for empty, point in zip(empties, far[: empties.size]):
                centers[empty] = x[point]
    return centers.astype(np.float32), reseeds


def _reference_fit(values, m=None):
    """``ProductQuantizer.fit`` on the reference kernel and the full Lloyd
    loop, with the separate distortion pass that follows it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quant_module, "_pq_assign", _reference_assign)
        patch.setattr(quant_module, "_pq_kmeans", lambda *args: (_reference_kmeans(*args)[0], None))
        return ProductQuantizer(m=m).fit(values)


def _duplicated_rows(rng, width, rows=400):
    """Every one of 70-120 distinct values — more than the 64-entry
    codebook — then heavy repeats (1/rank multiplicities), shuffled."""
    distinct = rng.normal(size=(int(rng.integers(70, 120)), width)).astype(np.float32)
    weights = 1.0 / np.arange(1, len(distinct) + 1)
    picked = rng.choice(len(distinct), size=rows - len(distinct), p=weights / weights.sum())
    return distinct[rng.permutation(np.concatenate([np.arange(len(distinct)), picked]))]


class TestLloydEquivalence:
    """PQ training stops at its fixed point and assigns with a per-dimension
    kernel; against the full fifteen-pass loop on the ``einsum`` kernel not a
    byte moves (at widths 1-4, the widths the default split produces)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        width=st.integers(1, 4),
        rows=st.integers(1, 90),
        ksub=st.integers(1, 64),
        grid=st.booleans(),
        block_bytes=st.sampled_from([1 << 22, 600]),
    )
    def test_assign_kernel_matches_einsum_reference(
        self, seed, width, rows, ksub, grid, block_bytes
    ):
        rng = np.random.default_rng(seed)
        if grid:  # few values on a coarse grid: exact ties everywhere
            draw = lambda n: rng.integers(-3, 4, size=(n, width)) / 4.0
        else:  # per-dimension scales far apart: the sum order shows in the bits
            scales = 10.0 ** rng.uniform(-3, 3, size=width)
            draw = lambda n: rng.normal(size=(n, width)) * scales
        codebook = draw(ksub).astype(np.float32)
        codebook[rng.integers(0, ksub, size=ksub // 4)] = codebook[0]  # duplicate entries
        sub = np.concatenate([draw(rows), codebook[rng.integers(0, ksub, size=rows)]])
        sub = sub[rng.integers(0, len(sub), size=2 * rows)].astype(np.float32)  # duplicate rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quant_module, "_BLOCK_BYTES", block_bytes)
            indices, dists = quant_module._pq_assign(sub, codebook)
        want_indices, want_dists = _reference_assign(sub, codebook)
        np.testing.assert_array_equal(indices, want_indices)
        assert dists.dtype == np.float32 and dists.tobytes() == want_dists.tobytes()

    @pytest.mark.parametrize("width", range(1, 9))
    def test_codebook_entries_assign_to_themselves_at_distance_zero(self, width):
        """The exact-decode guard's property, at every width an ``m=``
        override can produce."""
        rng = np.random.default_rng(width)
        scales = 10.0 ** rng.uniform(-3, 3, size=width)
        codebook = (rng.normal(size=(64, width)) * scales).astype(np.float32)
        sub = np.concatenate([codebook[::-1], (rng.normal(size=(20, width)) * scales).astype(np.float32)])
        indices, dists = quant_module._pq_assign(sub, codebook)
        np.testing.assert_array_equal(indices[:64], np.arange(64)[::-1])
        assert np.all(dists[:64] == 0.0)

    @pytest.mark.parametrize("repeated_init", [False, True], ids=["distinct-init", "repeated-init"])
    def test_kmeans_matches_the_fifteen_pass_reference(self, repeated_init):
        """Byte-equal centres over 24 seeds, and byte-equal distances when
        the fixed-point pass hands them back. Drawing the initial centres
        from rows with repeats puts equal centres into the first pass, so
        the higher-index twin is empty and reseeds."""
        reseeded = reused = 0
        for seed in range(24):
            sub = _duplicated_rows(np.random.default_rng(seed), width=1 + seed % 4)
            unique_rows = sub if repeated_init else np.unique(sub, axis=0)
            want, reseeds = _reference_kmeans(sub, unique_rows, 64, np.random.default_rng(seed))
            got, dists = quant_module._pq_kmeans(sub, unique_rows, 64, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), f"seed {seed}"
            if dists is not None:
                assert dists.tobytes() == _reference_assign(sub, want)[1].tobytes(), f"seed {seed}"
            reseeded += reseeds > 0
            reused += dists is not None
        assert reused >= 12  # most runs reach their fixed point well inside the cap
        if repeated_init:
            assert reseeded >= 12  # the reseed branch is exercised, not just present

    @pytest.mark.parametrize("m", [None, 2])
    @pytest.mark.parametrize("kind", ["noise", "clustered", "duplicated"])
    def test_fit_matches_the_reference_fit(self, kind, m):
        rng = np.random.default_rng(41)
        if kind == "noise":
            values = rng.normal(size=(300, 8))
        elif kind == "clustered":
            values = _clustered_floats(n=300, d=8, centers=40, noise=0.05, seed=42)
        else:
            values = _duplicated_rows(rng, width=8).astype(np.float64)
        assert ProductQuantizer(m=m).fit(values) == _reference_fit(values, m)

    def test_subsampled_fit_recomputes_distortion_over_the_whole_subspace(self, monkeypatch):
        """Under a ``_PQ_TRAIN_CAP`` subsample the fixed-point pass saw only
        the sample, so every distortion check assigns all rows again."""
        monkeypatch.setattr(quant_module, "_PQ_TRAIN_CAP", 150)
        values = np.random.default_rng(43).normal(size=(400, 8))
        want = _reference_fit(values)
        assigned, widths = [], []
        assign, kmeans = quant_module._pq_assign, quant_module._pq_kmeans

        def recording_assign(sub, codebook):
            assigned.append(len(sub))
            return assign(sub, codebook)

        def recording_kmeans(sub, unique_rows, ksub, rng):
            widths.append(sub.shape[1])
            return kmeans(sub, unique_rows, ksub, rng)

        monkeypatch.setattr(quant_module, "_pq_assign", recording_assign)
        monkeypatch.setattr(quant_module, "_pq_kmeans", recording_kmeans)
        assert ProductQuantizer().fit(values) == want
        assert set(assigned) == {150, 400}  # Lloyd on the sample, checks on every row
        assert assigned.count(400) == sum(width >= 2 for width in widths) > 0


class TestAsymmetricDistance:
    def test_matches_exact_distances_on_decoded_table(self):
        table_values = _random_floats((50, 12), seed=13)
        table = ScalarQuantizer().encode(table_values, None)
        queries = _random_floats((7, 12), seed=14)
        approx = asymmetric_sq_distances(queries, table)
        exact = ((queries[:, None, :] - table.decode()[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(approx, exact, rtol=1e-4, atol=1e-4)

    def test_single_query_squeezes(self):
        table = ScalarQuantizer().encode(_random_floats((20, 6), seed=15), None)
        distances = asymmetric_sq_distances(_random_floats((6,), seed=16), table)
        assert distances.shape == (20,)

    def test_precomputed_norms_change_nothing(self):
        table = ScalarQuantizer().encode(_random_floats((30, 8), seed=17), None)
        query = _random_floats((8,), seed=18)
        np.testing.assert_allclose(
            asymmetric_sq_distances(query, table),
            asymmetric_sq_distances(query, table, table_sq_norms=table_sq_norms_of(table)),
            rtol=1e-6, atol=1e-6,
        )

    def test_norms_of_gather_equal_gather_of_norms(self):
        table = ScalarQuantizer().encode(_random_floats((40, 5), seed=19), None)
        rows = np.array([7, 3, 22, 3])
        np.testing.assert_allclose(
            table_sq_norms_of(table.take_rows(rows)),
            table_sq_norms_of(table)[rows],
            rtol=1e-6, atol=1e-6,
        )

    def test_pq_adc_matches_exact_distances_on_decoded_table(self):
        """The ADC LUT kernel is exact against the *decoded* table — all
        approximation lives in the codebooks, none in the kernel."""
        rng = np.random.default_rng(34)
        table = ProductQuantizer().encode(rng.normal(scale=2.0, size=(80, 12)), None)
        queries = rng.normal(scale=2.0, size=(5, 12))
        approx = asymmetric_sq_distances(queries, table)
        exact = ((queries[:, None, :] - table.decode()[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(approx, exact, rtol=1e-4, atol=1e-3)

    def test_pq_single_query_squeezes_and_norm_cache_is_inert(self):
        rng = np.random.default_rng(35)
        table = ProductQuantizer().encode(rng.normal(size=(30, 8)), None)
        query = rng.normal(size=8)
        distances = asymmetric_sq_distances(query, table)
        assert distances.shape == (30,)
        # PQ LUTs carry the whole distance; the codec-agnostic norm cache
        # contributes zeros and changes nothing.
        np.testing.assert_array_equal(table_sq_norms_of(table), np.zeros(30))
        np.testing.assert_allclose(
            distances,
            asymmetric_sq_distances(query, table, table_sq_norms=table_sq_norms_of(table)),
            rtol=1e-6, atol=1e-6,
        )

    @pytest.mark.parametrize("codec", [ScalarQuantizer(), ProductQuantizer()])
    def test_candidate_form_matches_the_dense_kernel(self, codec, monkeypatch):
        """The block kernel (CSR candidates) against the dense reference:
        same distances for the listed pairs, across internal chunk bounds,
        empty candidate lists included."""
        rng = np.random.default_rng(36)
        table = codec.encode(rng.normal(scale=2.0, size=(90, 14)), None)
        queries = rng.normal(scale=2.0, size=(9, 14))
        dense = asymmetric_sq_distances(queries, table)
        picked = [
            np.sort(rng.choice(90, size=size, replace=False))
            for size in (90, 0, 1, 33, 0, 90, 7, 64, 2)
        ]
        rows = np.concatenate(picked)
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in picked])])
        owner = np.repeat(np.arange(len(queries)), np.diff(offsets))
        scale = float(dense.max())
        for nbytes in (1 << 22, 2000, 1):
            monkeypatch.setattr(quant_module, "_BLOCK_BYTES", nbytes)
            monkeypatch.setattr(quant_module, "_LUT_BYTES", nbytes)
            flat = asymmetric_sq_distances(queries, table, candidates=(rows, offsets))
            assert flat.shape == rows.shape and flat.dtype == np.float64
            # float32 accumulation on both sides: 1e-5 relative, with the
            # absolute floor the int8 identity's cancellation needs.
            np.testing.assert_allclose(flat, dense[owner, rows], rtol=1e-5, atol=1e-6 * scale)

    def test_candidate_offsets_are_validated(self):
        """Offsets must start at 0, never decrease and end at ``len(rows)``,
        one per query plus one — on both codecs (a decreasing pair used to
        hand one query's rows another's distances)."""
        values = _random_floats((10, 4), seed=37)
        queries = _random_floats((3, 4), seed=38)
        rows = np.arange(6)
        for codec in (ScalarQuantizer(), ProductQuantizer()):
            table = codec.encode(values, None)
            for offsets in ([0, 3, 6], [0, 3, 5, 5], [1, 3, 4, 6], [0, 5, 3, 6]):
                with pytest.raises(ValueError, match="offsets"):
                    asymmetric_sq_distances(queries, table, candidates=(rows, offsets))

    def test_pq_candidate_form_sums_the_lookup_table_cells(self, monkeypatch):
        """The candidate form builds no lookup tables, yet returns the bytes
        of gathering each pair's ``m`` entries from its query's tables and
        summing them with ``.sum(axis=1)``, across its flat block bound."""
        rng = np.random.default_rng(41)
        table = ProductQuantizer().encode(rng.normal(scale=2.0, size=(90, 14)), None)
        queries = rng.normal(scale=2.0, size=(9, 14))
        layout = table.params.layout()
        luts = quant_module._pq_lookup_tables(queries, layout.centroids, layout.dims)
        picked = [np.sort(rng.choice(90, size=size, replace=False)) for size in (90, 0, 1, 33, 0, 90, 7, 64, 2)]
        rows = np.concatenate(picked)
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in picked])])
        owner = np.repeat(np.arange(len(queries)), np.diff(offsets))
        m = table.params.m
        want = luts[owner[:, None], np.arange(m), table.codes[rows]].sum(axis=1)

        def no_tables(*args):
            raise AssertionError("the candidate form built lookup tables")

        monkeypatch.setattr(quant_module, "_pq_lookup_tables", no_tables)
        for nbytes in (1 << 22, 4 * m * 5, 1):
            monkeypatch.setattr(quant_module, "_BLOCK_BYTES", nbytes)
            flat = asymmetric_sq_distances(queries, table, candidates=(rows, offsets))
            np.testing.assert_array_equal(flat, want.astype(np.float64))

    def test_pq_lookup_tables_are_as_wide_as_the_largest_codebook(self):
        """A table whose codebooks hold 64 entries builds 64-wide lookup
        tables (not 256), and a large query block builds them in bounded
        row slices."""
        rng = np.random.default_rng(39)
        table = ProductQuantizer().encode(rng.normal(size=(200, 8)), None)
        widest = max(cb.shape[0] for cb in table.params.codebooks)
        assert widest < 256
        shapes = []
        original = quant_module._pq_lookup_tables

        def recording(q, centroids, dims):
            luts = original(q, centroids, dims)
            shapes.append(luts.shape)
            return luts

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quant_module, "_pq_lookup_tables", recording)
            patch.setattr(quant_module, "_LUT_BYTES", 4 * table.params.m * widest * 10)
            asymmetric_sq_distances(rng.normal(size=(25, 8)), table)
        assert shapes == [(10, table.params.m, widest)] * 2 + [(5, table.params.m, widest)]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(4, 60), dim=st.integers(2, 24))
    def test_rank_order_pinned_to_exact_within_epsilon(self, seed, rows, dim):
        """The hypothesis contract: neighbour order under the asymmetric
        kernel equals the order of exact distances against the decoded
        table, up to exact ties (distance gap below float tolerance)."""
        rng = np.random.default_rng(seed)
        table = ScalarQuantizer().encode(rng.normal(size=(rows, dim)), None)
        query = rng.normal(size=dim)
        approx = asymmetric_sq_distances(query, table)
        exact = ((query[None, :] - table.decode()) ** 2).sum(axis=1)
        np.testing.assert_allclose(approx, exact, rtol=1e-4, atol=1e-6)
        approx_order, exact_order = np.argsort(approx), np.argsort(exact)
        disagree = approx_order != exact_order
        if np.any(disagree):
            # Any disagreement must be a tie: the exact distances of the
            # swapped entries are equal to float tolerance.
            np.testing.assert_allclose(
                exact[approx_order[disagree]], exact[exact_order[disagree]],
                rtol=1e-7, atol=1e-9,
            )


def _quant_entity(rng):
    pool_a = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
              "iota", "kappa", "lambda", "sigma", "omega", "nu"]
    pool_b = ["london", "paris", "berlin", "madrid", "rome", "vienna"]
    return (compose(rng, pool_a, 2, 3), pick(rng, pool_b), f"{rng.uniform(5, 200):.2f}")


def _fresh_quant_domain():
    spec = DomainSpec(
        name="quanttest",
        attributes=("name", "city", "price"),
        entity_factory=_quant_entity,
        clean=True,
        numeric_attributes=(False, False, True),
        left_size=40,
        right_size=36,
        overlap_fraction=0.6,
        train_size=60,
        valid_size=12,
        test_size=24,
        positive_fraction=0.3,
    )
    return SyntheticDomainGenerator(spec, seed=91).generate()


class _DistanceMatcher:
    def predict_proba(self, left_irs: np.ndarray, right_irs: np.ndarray, rows=None) -> np.ndarray:
        if rows is not None:  # whole-table IRs and each pair's row indices
            left_irs, right_irs = left_irs[rows[0]], right_irs[rows[1]]
        diffs = np.asarray(left_irs) - np.asarray(right_irs)
        distances = np.sqrt((diffs ** 2).sum(axis=(1, 2)))
        return 1.0 / (1.0 + distances)


@pytest.fixture(scope="module")
def quant_representation():
    domain = _fresh_quant_domain()
    config = VAEConfig(ir_dim=16, hidden_dim=24, latent_dim=8, epochs=3, seed=5)
    return EntityRepresentationModel(config, ir_method="lsa").fit(domain.task)


def _resolve(representation, domain, codec, cache=None, baseline=None, store=None):
    if store is None:
        store = EncodingStore(
            representation, domain.task, counters=EngineCounters(),
            persistent=cache, codec=codec,
        )
    executor = resolve(
        store, _DistanceMatcher(), baseline=baseline, capture=True,
        blocking=BlockingConfig(seed=19), k=4, batch_size=13,
    )
    scored = merge_scored_batches(executor.run())
    return store, executor.baseline_out, scored


class TestStoreEquivalence:
    def test_int8_store_matches_raw_candidates_and_compresses(self, quant_representation):
        """Candidate sets agree except at the k-th-neighbour boundary (where
        a sub-epsilon distance perturbation may swap the final slot), and the
        int8 store is at least 4x smaller resident and stored."""
        domain = _fresh_quant_domain()
        raw_store, _, raw_scored = _resolve(quant_representation, domain, "raw")
        int8_store, _, int8_scored = _resolve(quant_representation, domain, "int8")
        raw_pairs, int8_pairs = set(raw_scored.pairs), set(int8_scored.pairs)
        jaccard = len(raw_pairs & int8_pairs) / len(raw_pairs | int8_pairs)
        assert jaccard >= 0.95, f"blocking recall vs exact collapsed: {jaccard:.3f}"
        # int8 resident bytes are ~8x smaller than the raw float store.
        assert raw_store.resident_bytes() >= 4 * int8_store.resident_bytes()
        assert raw_store.counters.bytes_stored >= 4 * int8_store.counters.bytes_stored
        assert int8_store.counters.bytes_decoded > 0
        assert raw_store.counters.bytes_decoded == 0

    def test_match_probabilities_within_quantization_epsilon(self, quant_representation):
        """Matcher scoring runs on rehydrated floats, so shared pairs score
        within the quantization epsilon of the exact run — the match set can
        only differ where a probability sits within epsilon of a threshold."""
        domain = _fresh_quant_domain()
        _, _, raw_scored = _resolve(quant_representation, domain, "raw")
        _, _, int8_scored = _resolve(quant_representation, domain, "int8")
        raw_by_pair = dict(zip(raw_scored.pairs, raw_scored.probabilities))
        shared = [p for p in int8_scored.pairs if p in raw_by_pair]
        assert len(shared) >= 0.95 * len(raw_by_pair)
        for pair, probability in zip(int8_scored.pairs, int8_scored.probabilities):
            if pair in raw_by_pair:
                assert abs(probability - raw_by_pair[pair]) < 0.05

    def test_pq_store_covers_raw_candidates_and_compresses(self, quant_representation):
        """PQ blocking ranks an *expanded* ADC shortlist (rank_expansion),
        so the contract is coverage: the raw candidate set survives inside
        the pq set, and shared pairs score within decode epsilon."""
        domain = _fresh_quant_domain()
        raw_store, _, raw_scored = _resolve(quant_representation, domain, "raw")
        pq_store, _, pq_scored = _resolve(quant_representation, domain, "pq")
        raw_pairs, pq_pairs = set(raw_scored.pairs), set(pq_scored.pairs)
        recall = len(raw_pairs & pq_pairs) / len(raw_pairs)
        assert recall >= 0.95, f"pq shortlist lost raw candidates: {recall:.3f}"
        assert pq_store.resident_bytes() < raw_store.resident_bytes()
        assert pq_store.counters.bytes_stored < raw_store.counters.bytes_stored
        assert pq_store.counters.bytes_decoded > 0
        raw_by_pair = dict(zip(raw_scored.pairs, raw_scored.probabilities))
        for pair, probability in zip(pq_scored.pairs, pq_scored.probabilities):
            if pair in raw_by_pair:
                assert abs(probability - raw_by_pair[pair]) < 0.05

    def test_pq_shortlist_outgrows_k_pairs_per_left_row(self, quant_representation):
        """Raw blocking emits at most ``k`` pairs per left row; pq ranks
        ``rank_expansion * k``, so its stream is longer than any batch count
        derived from the table sizes and ``k`` alone."""
        domain = _fresh_quant_domain()
        _, _, raw_scored = _resolve(quant_representation, domain, "raw")
        _, _, pq_scored = _resolve(quant_representation, domain, "pq")
        per_k = len(domain.task.left) * 4  # _resolve blocks with k=4
        assert len(raw_scored.pairs) <= per_k
        assert per_k < len(pq_scored.pairs) <= PQParams.rank_expansion * per_k

    def test_pq_cold_warm_byte_identical(self, quant_representation, tmp_path):
        """The quantize-once warm path: a fresh store serves the *same
        bytes* from disk — codes equal, params equal, no re-encode — and
        re-resolves to the identical match stream. (This is the fast
        ``-k pq`` equivalence pass CI runs on every push.)"""
        cache = PersistentEncodingCache(tmp_path / "pq", chunk_rows=8)
        domain = _fresh_quant_domain()
        cold_store, _, cold_scored = _resolve(
            quant_representation, domain, "pq", cache=cache
        )
        cold_mu = cold_store.table_encodings("right").mu
        warm_store = EncodingStore(
            quant_representation, domain.task, counters=EngineCounters(),
            persistent=cache, codec="pq",
        )
        warm_mu = warm_store.table_encodings("right").mu
        assert warm_store.counters.disk_hits >= 1
        assert warm_store.counters.tables_encoded == 0
        assert np.array_equal(warm_mu.codes, cold_mu.codes)
        assert warm_mu.params == cold_mu.params
        _, _, warm_scored = _resolve(
            quant_representation, domain, "pq", cache=cache, store=warm_store
        )
        assert warm_store.counters.tables_encoded == 0
        assert list(warm_scored.pairs) == list(cold_scored.pairs)
        np.testing.assert_array_equal(
            np.asarray(warm_scored.probabilities), np.asarray(cold_scored.probabilities)
        )


class TestQuantizePatchPruneRoundtrip:
    def _mutate(self, domain):
        from repro.data.generators import append_rows, delete_rows, mutate_rows

        mutate_rows(domain, side="right", rows=3)
        delete_rows(domain, side="right", rows=2)
        append_rows(domain, side="right", rows=5)

    def _roundtrip(self, representation, tmp_path, codec):
        cache = PersistentEncodingCache(tmp_path / codec, chunk_rows=8)
        domain = _fresh_quant_domain()
        store, baseline, _ = _resolve(representation, domain, codec, cache=cache)
        self._mutate(domain)
        store, _, scored = _resolve(
            representation, domain, codec, cache=cache, baseline=baseline, store=store
        )
        return cache, store, scored

    def test_reencode_parity_with_raw_and_prune_keeps_serving(
        self, quant_representation, tmp_path
    ):
        raw_cache, raw_store, raw_scored = self._roundtrip(quant_representation, tmp_path, "raw")
        int8_cache, int8_store, int8_scored = self._roundtrip(quant_representation, tmp_path, "int8")
        # The delta machinery is codec-blind: identical mutations re-encode
        # identical row counts and produce the identical candidate set.
        assert int8_store.counters.rows_reencoded == raw_store.counters.rows_reencoded > 0
        assert int8_store.counters.rows_tombstoned == raw_store.counters.rows_tombstoned > 0
        raw_pairs, int8_pairs = set(raw_scored.pairs), set(int8_scored.pairs)
        jaccard = len(raw_pairs & int8_pairs) / len(raw_pairs | int8_pairs)
        assert jaccard >= 0.95  # boundary-of-k swaps only

        # Prune sweeps superseded generations; the survivor still serves the
        # quantized entry and a fresh store warm-loads it without encoding.
        removed = int8_cache.prune()
        assert set(removed["bytes_by_codec"]) <= {"int8"}
        warm = EncodingStore(
            quant_representation, int8_store.task, counters=EngineCounters(),
            persistent=int8_cache, codec="int8",
        )
        warm.table_encodings("right")
        assert warm.counters.disk_hits >= 1
        assert warm.counters.tables_encoded == 0

    def test_pq_reencode_parity_and_prune_keeps_serving(
        self, quant_representation, tmp_path
    ):
        """Same contract for the pq tier: the delta machinery re-encodes
        exactly the dirty rows (in code space, against the fixed
        codebooks), raw candidates stay covered, and a pruned cache still
        warm-serves the quantized entry."""
        raw_cache, raw_store, raw_scored = self._roundtrip(quant_representation, tmp_path, "raw")
        pq_cache, pq_store, pq_scored = self._roundtrip(quant_representation, tmp_path, "pq")
        assert pq_store.counters.rows_reencoded == raw_store.counters.rows_reencoded > 0
        assert pq_store.counters.rows_tombstoned == raw_store.counters.rows_tombstoned > 0
        raw_pairs, pq_pairs = set(raw_scored.pairs), set(pq_scored.pairs)
        # Appended rows encode against codebooks fitted before they
        # existed, so their decode error is the codec's worst case — the
        # expanded shortlist is what keeps raw candidates covered anyway.
        assert len(raw_pairs & pq_pairs) / len(raw_pairs) >= 0.9

        removed = pq_cache.prune()
        assert set(removed["bytes_by_codec"]) <= {"pq"}
        warm = EncodingStore(
            quant_representation, pq_store.task, counters=EngineCounters(),
            persistent=pq_cache, codec="pq",
        )
        warm.table_encodings("right")
        assert warm.counters.disk_hits >= 1
        assert warm.counters.tables_encoded == 0

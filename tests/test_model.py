import json
import math

import numpy as np
import pytest

import cwishart as cw
from cwishart.errors import (
    DimensionError,
    ShapeParityError,
    TraceNormalizationError,
)
from cwishart.linalg import mix_seed
from cwishart.model import (
    STREAM_COUPLED_Y,
    STREAM_DECOUPLED_Y,
    STREAM_DECOUPLED_YPRIME,
    apply_shape,
    model_to_dict,
    shape_frobenius_norm,
    shape_spectral_norm,
    shape_trace,
)


def zero_shape(n):
    return cw.ShapeSpec.custom(np.zeros((n, n)))


class TestBuildShape:
    def test_skew_block_n4(self):
        expected = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
        )
        assert np.array_equal(cw.build_shape(cw.ShapeSpec.skew_block(), 4), expected)

    def test_identity(self):
        assert np.array_equal(cw.build_shape(cw.ShapeSpec.identity(), 3), np.eye(3))

    def test_diagonal(self):
        b = cw.build_shape(cw.ShapeSpec.diagonal([1, 2, 3]), 3)
        assert np.array_equal(b, np.diag([1.0, 2.0, 3.0]))
        assert np.trace(b) == 6.0

    def test_skew_block_odd_n_rejected(self):
        with pytest.raises(ShapeParityError):
            cw.build_shape(cw.ShapeSpec.skew_block(), 5)

    def test_diagonal_length_mismatch(self):
        with pytest.raises(DimensionError):
            cw.build_shape(cw.ShapeSpec.diagonal([1, 2]), 3)

    def test_custom_size_mismatch(self):
        with pytest.raises(DimensionError):
            cw.build_shape(cw.ShapeSpec.custom(np.eye(3)), 4)

    def test_skew_block_is_skew_orthogonal(self):
        for n in (2, 4, 10):
            b = cw.build_shape(cw.ShapeSpec.skew_block(), n)
            assert np.array_equal(b + b.T, np.zeros((n, n)))
            assert np.array_equal(b @ b.T, np.eye(n))

    def test_apply_shape_matches_dense_product(self):
        rng = cw.generator(404)
        y = rng.standard_normal((3, 6))
        specs = [
            cw.ShapeSpec.identity(),
            cw.ShapeSpec.diagonal(rng.standard_normal(6)),
            cw.ShapeSpec.skew_block(),
            cw.ShapeSpec.custom(rng.standard_normal((6, 6))),
        ]
        for spec in specs:
            dense = y @ cw.build_shape(spec, 6)
            assert np.allclose(apply_shape(y, spec, 6), dense, atol=1e-13)

    def test_closed_form_norms_match_dense(self):
        rng = cw.generator(405)
        specs = [
            cw.ShapeSpec.identity(),
            cw.ShapeSpec.diagonal(rng.standard_normal(8)),
            cw.ShapeSpec.skew_block(),
            cw.ShapeSpec.custom(rng.standard_normal((8, 8))),
        ]
        for spec in specs:
            b = cw.build_shape(spec, 8)
            assert shape_spectral_norm(spec, 8) == pytest.approx(
                cw.spectral_norm(b), rel=1e-12
            )
            assert shape_frobenius_norm(spec, 8) == pytest.approx(
                cw.frobenius_norm(b), rel=1e-12
            )
            assert shape_trace(spec, 8) == pytest.approx(np.trace(b), abs=1e-12)


class TestSampleWishart:
    def test_zero_shape_gives_zero(self):
        m = cw.WishartModel(2, 3, cw.SpdMatrix.identity(2), zero_shape(3))
        for seed in (0, 1, 99):
            assert np.array_equal(cw.sample_wishart(m, seed), np.zeros((2, 2)))

    def test_chi_square_mean(self):
        # p=1, theta=[1], B=I_64: W = chi2_64 / 64, mean 1.
        m = cw.WishartModel(1, 64, cw.SpdMatrix.identity(1), cw.ShapeSpec.identity())
        vals = np.array([cw.sample_wishart(m, mix_seed(17, i))[0, 0] for i in range(10**5)])
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 4 * stderr

    def test_skew_shape_trace_centered(self):
        # Tr B = 0 so E Tr(W) = 0.
        m = cw.WishartModel(2, 8, cw.SpdMatrix.identity(2), cw.ShapeSpec.skew_block())
        traces = np.array(
            [np.trace(cw.sample_wishart(m, mix_seed(23, i))) for i in range(10**5)]
        )
        stderr = traces.std(ddof=1) / math.sqrt(traces.size)
        assert abs(traces.mean()) <= 4 * stderr

    def test_symmetric_shape_gives_symmetric_sample(self):
        m = cw.WishartModel(3, 5, cw.SpdMatrix.diagonal([1, 2, 3]),
                            cw.ShapeSpec.diagonal([1, 2, 0.5, 1, 0.5]))
        w = cw.sample_wishart(m, 7)
        assert np.max(np.abs(w - w.T)) <= 1e-12

    def test_psd_shape_gives_psd_sample(self):
        m = cw.WishartModel(4, 8, cw.SpdMatrix.identity(4), cw.ShapeSpec.identity())
        for seed in range(20):
            w = cw.sample_wishart(m, seed)
            assert np.linalg.eigvalsh(w)[0] >= -1e-10

    def test_scale_equivariance(self):
        # Same seed: W(theta) equals theta^{1/2} W(I) theta^{1/2} exactly.
        theta = cw.SpdMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
        shape = cw.ShapeSpec.diagonal([1.5, 0.5, 1.0, 1.0])
        m_theta = cw.WishartModel(2, 4, theta, shape)
        m_id = cw.WishartModel(2, 4, cw.SpdMatrix.identity(2), shape)
        root = cw.spd_sqrt(theta).array
        for seed in (3, 14, 159):
            w = cw.sample_wishart(m_theta, seed)
            conj = root @ cw.sample_wishart(m_id, seed) @ root
            assert np.allclose(w, conj, rtol=1e-12, atol=1e-14)

    def test_documented_stream_contract(self):
        # The coupled draw uses substream tag 0 of the seed.
        m = cw.WishartModel(2, 4, cw.SpdMatrix.identity(2), cw.ShapeSpec.identity())
        seed = 2024
        y = cw.sample_standard_gaussian_matrix(2, 4, mix_seed(seed, STREAM_COUPLED_Y))
        assert np.allclose(cw.sample_wishart(m, seed), y @ y.T / 4, atol=1e-14)


class TestSampleDecoupled:
    def test_zero_shape_gives_zero(self):
        m = cw.WishartModel(2, 3, cw.SpdMatrix.identity(2), zero_shape(3))
        assert np.array_equal(cw.sample_decoupled(m, 5), np.zeros((2, 2)))

    def test_mean_is_zero(self):
        # Independence of Y and Y' kills the trace term.
        m = cw.WishartModel(2, 6, cw.SpdMatrix.diagonal([1.0, 2.0]),
                            cw.ShapeSpec.identity())
        draws = np.stack([cw.sample_decoupled(m, mix_seed(37, i)) for i in range(10**5)])
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(mean) <= 4 * stderr)

    def test_streams_are_disjoint(self):
        # Decoupled Y-substream differs from the coupled sampler's Y stream.
        seed = 31337
        tags = (STREAM_COUPLED_Y, STREAM_DECOUPLED_Y, STREAM_DECOUPLED_YPRIME)
        mats = [cw.sample_standard_gaussian_matrix(3, 5, mix_seed(seed, t)) for t in tags]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.any(mats[i] != mats[j])

    def test_decoupled_stream_contract(self):
        m = cw.WishartModel(2, 4, cw.SpdMatrix.identity(2), cw.ShapeSpec.identity())
        seed = 555
        y = cw.sample_standard_gaussian_matrix(2, 4, mix_seed(seed, STREAM_DECOUPLED_Y))
        yp = cw.sample_standard_gaussian_matrix(2, 4, mix_seed(seed, STREAM_DECOUPLED_YPRIME))
        assert np.allclose(cw.sample_decoupled(m, seed), yp @ y.T / 4, atol=1e-14)


class TestExpectedWishart:
    def test_identity_shape(self):
        theta = cw.SpdMatrix.diagonal([1.0, 3.0])
        m = cw.WishartModel(2, 5, theta, cw.ShapeSpec.identity())
        assert np.array_equal(cw.expected_wishart(m), theta.array)

    def test_skew_shape_zero_mean(self):
        m = cw.WishartModel(2, 4, cw.SpdMatrix.identity(2), cw.ShapeSpec.skew_block())
        assert np.array_equal(cw.expected_wishart(m), np.zeros((2, 2)))

    def test_partial_trace_diagonal(self):
        theta = cw.SpdMatrix.diagonal([1.0, 4.0])
        m = cw.WishartModel(2, 4, theta, cw.ShapeSpec.diagonal([2.0, 0.0, 0.0, 0.0]))
        expected = cw.expected_wishart(m)
        assert np.allclose(expected, np.diag([0.5, 2.0]), atol=1e-14)
        # Monte Carlo cross-check of the closed form.
        draws = np.stack([cw.sample_wishart(m, mix_seed(41, i)) for i in range(10**5)])
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - expected) <= 4 * stderr)


def sequence(index_set, family):
    return cw.WishartSequenceSpec(2, cw.SpdMatrix.identity(2), index_set, family)


class TestTraceNormalization:
    """The sequence spec accepts a family exactly when every Tr(B_n) = n."""

    def test_identity(self):
        seq = sequence((5,), lambda n: cw.ShapeSpec.custom(np.eye(n)))
        assert seq.index_set == (5,)

    def test_skew_block(self):
        # Identity at n = 2 but skew-block, of trace 0, at n = 4.
        def family(n):
            return cw.ShapeSpec.identity() if n == 2 else cw.ShapeSpec.skew_block()

        with pytest.raises(TraceNormalizationError, match="n = 4: scaled trace is 0.0"):
            sequence((2, 4), family)

    def test_partial_diagonal(self):
        seq = sequence((2,), lambda n: cw.ShapeSpec.custom(np.diag([2.0, 0.0])))
        assert seq.index_set == (2,)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            sequence((2,), lambda n: cw.ShapeSpec.custom(np.eye(3)))


class TestSequenceSpec:
    def test_identity_family_valid(self):
        seq = cw.WishartSequenceSpec(
            2, cw.SpdMatrix.identity(2), (2, 4, 8), cw.identity_family
        )
        assert seq.index_set == (2, 4, 8)
        assert cw.sequence_bound(seq, 4).n == 4

    def test_trace_mismatch_rejected(self):
        with pytest.raises(TraceNormalizationError):
            cw.WishartSequenceSpec(
                2, cw.SpdMatrix.identity(2), (2, 4), cw.skew_block_family
            )

    def test_non_integral_index_rejected(self):
        with pytest.raises(ValueError, match="index_set entry must be an integer"):
            cw.WishartSequenceSpec(
                2, cw.SpdMatrix.identity(2), (2, 4.5), cw.identity_family
            )

    def test_normalized_diagonal_family(self):
        fam = cw.normalized_diagonal_family(123)
        for n in (4, 17, 1024):
            spec = fam(n)
            assert abs(shape_trace(spec, n) / n - 1.0) <= 1e-12
        assert fam(8).entries == cw.normalized_diagonal_family(123)(8).entries
        assert fam(8).entries != cw.normalized_diagonal_family(124)(8).entries


class TestModelSerialization:
    def test_round_trip_variants(self):
        rng = cw.generator(321)
        theta = cw.SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        shapes = [
            cw.ShapeSpec.identity(),
            cw.ShapeSpec.diagonal(rng.standard_normal(6)),
            cw.ShapeSpec.skew_block(),
            cw.ShapeSpec.custom(rng.standard_normal((6, 6))),
        ]
        for shape in shapes:
            m = cw.WishartModel(2, 6, theta, shape)
            d = model_to_dict(m)
            m2 = cw.model_from_dict(json.loads(json.dumps(d)))
            assert m2.p == m.p and m2.n == m.n
            assert np.array_equal(m2.theta.array, m.theta.array)
            assert np.array_equal(
                cw.build_shape(m2.shape, 6), cw.build_shape(m.shape, 6)
            )

    def test_variant_names(self):
        assert model_to_dict(
            cw.WishartModel(1, 2, cw.SpdMatrix.identity(1), cw.ShapeSpec.skew_block())
        )["shape"]["variant"] == "skew_block"
        with pytest.raises(ValueError):
            cw.model_from_dict(
                {"p": 1, "n": 1,
                 "theta": {"rows": 1, "cols": 1, "entries": [1.0]},
                 "shape": {"variant": "skewblock"}}
            )

    def test_theta_dimension_checked(self):
        with pytest.raises(DimensionError):
            cw.WishartModel(3, 2, cw.SpdMatrix.identity(2), cw.ShapeSpec.identity())

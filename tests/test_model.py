import copy
import json
import math
import pickle

import numpy as np
import pytest

import cwishart as cw
from cwishart import model as model_module
from cwishart.errors import DimensionError, InvalidMatrixError, ShapeParityError
from cwishart.linalg import mix_seed
from cwishart.model import (
    STREAM_COUPLED_Y,
    STREAM_DECOUPLED_Y,
    STREAM_DECOUPLED_YPRIME,
    _gram_factor,
    apply_shape,
    model_to_dict,
    shape_frobenius_norm,
    shape_spectral_norm,
    shape_trace,
)
from dense import build_shape


def zero_shape(n):
    return cw.ShapeSpec.custom(np.zeros((n, n)))


class TestBuildShape:
    def test_skew_block_n4(self):
        expected = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
        )
        assert np.array_equal(build_shape(cw.ShapeSpec.skew_block(), 4), expected)

    def test_identity(self):
        assert np.array_equal(build_shape(cw.ShapeSpec.identity(), 3), np.eye(3))

    def test_diagonal(self):
        b = build_shape(cw.ShapeSpec.diagonal([1, 2, 3]), 3)
        assert np.array_equal(b, np.diag([1.0, 2.0, 3.0]))
        assert np.trace(b) == 6.0

    def test_skew_block_odd_n_rejected(self):
        with pytest.raises(ShapeParityError):
            build_shape(cw.ShapeSpec.skew_block(), 5)

    def test_diagonal_length_mismatch(self):
        with pytest.raises(DimensionError):
            build_shape(cw.ShapeSpec.diagonal([1, 2]), 3)

    def test_diagonal_entries_are_finite_numbers(self):
        for bad in (["1", "2"], [True, 1.0], [1.0, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="diagonal entries"):
                cw.ShapeSpec.diagonal(bad)

    def test_diagonal_entries_are_a_read_only_copy(self):
        given = np.array([3.0, 0.0, 1.5])
        spec = cw.ShapeSpec.diagonal(given)
        given[0] = 7.0
        assert spec.entries.dtype == np.float64 and spec.entries.tolist() == [3.0, 0.0, 1.5]
        for stored in (spec.entries, spec._nonzero_entries):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 7.0
        assert spec._nonzero_entries.tolist() == [3.0, 1.5]

    def test_custom_size_mismatch(self):
        with pytest.raises(DimensionError):
            build_shape(cw.ShapeSpec.custom(np.eye(3)), 4)

    def test_skew_block_is_skew_orthogonal(self):
        for n in (2, 4, 10):
            b = build_shape(cw.ShapeSpec.skew_block(), n)
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
            dense = y @ build_shape(spec, 6)
            assert np.allclose(apply_shape(y, spec, 6), dense, atol=1e-13)

    @pytest.mark.parametrize("k,p,n", [(1, 1, 1), (7, 3, 6), (5, 4, 96), (3, 2, 200)])
    def test_custom_shape_on_a_stack_equals_per_draw_products(self, k, p, n):
        # The stack is one GEMM; each row's dot products are the per-draw ones, bit for bit.
        rng = cw.generator(406)
        spec = cw.ShapeSpec.custom(rng.standard_normal((n, n)))
        y = rng.standard_normal((k, p, n))
        stacked = apply_shape(y, spec, n)
        assert stacked.shape == (k, p, n)
        assert np.array_equal(stacked, np.stack([y[i] @ spec.matrix for i in range(k)]))

    def test_closed_form_norms_match_dense(self):
        rng = cw.generator(405)
        specs = [
            cw.ShapeSpec.identity(),
            cw.ShapeSpec.diagonal(rng.standard_normal(8)),
            cw.ShapeSpec.skew_block(),
            cw.ShapeSpec.custom(rng.standard_normal((8, 8))),
        ]
        for spec in specs:
            b = build_shape(spec, 8)
            assert shape_spectral_norm(spec, 8) == pytest.approx(
                cw.spectral_norm(b), rel=1e-12
            )
            assert shape_frobenius_norm(spec, 8) == pytest.approx(
                cw.frobenius_norm(b), rel=1e-12
            )
            assert shape_trace(spec, 8) == pytest.approx(np.trace(b), abs=1e-12)

    def test_trace_past_the_largest_float_is_rejected(self):
        # Every entry fits in a float, their sum does not: fsum raises OverflowError
        # and np.trace gives inf; both become the ValueError that names the trace.
        huge = [1e308, 1e308]
        for spec in (cw.ShapeSpec.diagonal(huge), cw.ShapeSpec.custom(np.diag(huge))):
            with pytest.raises(ValueError, match="trace of B"):
                shape_trace(spec, 2)


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
        root = cw.spd_sqrt(theta)
        for seed in (3, 14, 159):
            w = cw.sample_wishart(m_theta, seed)
            conj = root @ cw.sample_wishart(m_id, seed) @ root
            assert np.allclose(w, conj, rtol=1e-12, atol=1e-14)

    def test_documented_stream_contract(self):
        # The coupled draw uses substream tag 0 of the seed.
        m = cw.WishartModel(2, 4, cw.SpdMatrix.identity(2), cw.ShapeSpec.identity())
        seed = 2024
        y = cw.generator(mix_seed(seed, STREAM_COUPLED_Y)).standard_normal((2, 4))
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
        mats = [cw.generator(mix_seed(seed, t)).standard_normal((3, 5)) for t in tags]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.any(mats[i] != mats[j])

    def test_decoupled_stream_contract(self):
        m = cw.WishartModel(2, 4, cw.SpdMatrix.identity(2), cw.ShapeSpec.identity())
        seed = 555
        y = cw.generator(mix_seed(seed, STREAM_DECOUPLED_Y)).standard_normal((2, 4))
        yp = cw.generator(mix_seed(seed, STREAM_DECOUPLED_YPRIME)).standard_normal((2, 4))
        assert np.allclose(cw.sample_decoupled(m, seed), yp @ y.T / 4, atol=1e-14)


class TestSamplerContract:
    """The documented streams for every shape variant, under a dense theta.

    W = (1/n) theta^{1/2} Y_l B Y_r^T theta^{1/2} with the dense B of
    build_shape: Y_l = Y_r from tag 0 for sample_wishart, Y_l from tag 2 and
    Y_r from tag 1 for sample_decoupled, each from generator(mix_seed(seed, tag)).
    """

    THETA = cw.SpdMatrix(np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]]))
    SHAPES = {
        "identity": cw.ShapeSpec.identity(),
        "diagonal-with-zeros": cw.ShapeSpec.diagonal([1.5, 0.0, -0.5, 0.0, 2.0, 0.0]),
        "skew-block": cw.ShapeSpec.skew_block(),
        "custom": cw.ShapeSpec.custom(cw.generator(11).standard_normal((6, 6))),
    }

    @pytest.mark.parametrize("seed", [0, 2024, 2**64 - 1])
    @pytest.mark.parametrize("variant", SHAPES)
    def test_draws_follow_the_tag_streams(self, variant, seed):
        p, n, spec = 3, 6, self.SHAPES[variant]
        m = cw.WishartModel(p, n, self.THETA, spec)
        root, b = cw.spd_sqrt(self.THETA), build_shape(spec, n)
        y = {tag: cw.generator(mix_seed(seed, tag)).standard_normal((p, n))
             for tag in (STREAM_COUPLED_Y, STREAM_DECOUPLED_Y, STREAM_DECOUPLED_YPRIME)}
        for got, left, right in (
            (cw.sample_wishart(m, seed), STREAM_COUPLED_Y, STREAM_COUPLED_Y),
            (cw.sample_decoupled(m, seed), STREAM_DECOUPLED_YPRIME, STREAM_DECOUPLED_Y),
        ):
            want = root @ (y[left] @ b @ y[right].T) @ root / n
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("seed,n", [(123, 1), (123, 17), (2**64 - 1, 1024)])
    def test_diagonal_family_follows_its_stream(self, seed, n):
        g = cw.generator(mix_seed(seed, n)).standard_normal(n)
        entries = cw.normalized_diagonal_family(seed)(n).entries
        assert entries.tolist() == (1.0 + (g - g.mean())).tolist()

    def test_diagonal_family_has_trace_n(self):
        fam = cw.normalized_diagonal_family(123)
        for n in (4, 17, 1024):
            spec = fam(n)
            assert abs(shape_trace(spec, n) / n - 1.0) <= 1e-12
        assert fam(8).entries.tolist() == cw.normalized_diagonal_family(123)(8).entries.tolist()
        assert fam(8).entries.tolist() != cw.normalized_diagonal_family(124)(8).entries.tolist()

    def test_diagonal_family_rejects_nonpositive_n(self, monkeypatch):
        # Checked before the stream is built: a negative n is no stream tag error.
        monkeypatch.setattr(model_module, "generator", lambda seed: pytest.fail("drew"))
        for n in (0, -3):
            with pytest.raises(DimensionError, match=f"n must be positive, got n={n}"):
                cw.normalized_diagonal_family(123)(n)


class TestGramFactor:
    """F F^T ~ Wishart_d(m, I) from a (k, d, min(d, m)) factor stack."""

    @pytest.mark.parametrize("d,m", [(1, 1), (3, 3), (3, 10), (4, 256), (5, 2), (16, 4)])
    def test_factor_shape(self, d, m):
        f = _gram_factor(cw.generator(mix_seed(71, d * 1000 + m)), 50, d, m)
        assert f.shape == (50, d, min(d, m))
        if m >= d:
            # Bartlett's factor: lower-triangular with a positive diagonal.
            assert np.all(np.triu(f, 1) == 0.0)
            assert np.all(np.diagonal(f, axis1=1, axis2=2) > 0.0)

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 8), (4, 64), (6, 3)])
    def test_mean_is_m_times_identity(self, d, m):
        k = 20_000
        f = _gram_factor(cw.generator(mix_seed(73, d * 1000 + m)), k, d, m)
        g = f @ f.swapaxes(-1, -2)
        stderr = g.std(axis=0, ddof=1) / math.sqrt(k)
        assert np.all(np.abs(g.mean(axis=0) - m * np.eye(d)) <= 4 * stderr)

    def test_fewer_columns_than_rows_is_the_gaussian_matrix(self):
        # Equal seeds: at m < d the factor is the d x m Gaussian draw itself.
        assert np.array_equal(_gram_factor(cw.generator(79), 3, 5, 2),
                              cw.generator(79).standard_normal((3, 5, 2)))


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


class TestTraceNormalization:
    """Tr(B_n) = n, the normalization of the paper's sequences, read from shape_trace."""

    def test_identity(self):
        assert shape_trace(cw.ShapeSpec.custom(np.eye(5)), 5) == 5.0
        assert shape_trace(cw.ShapeSpec.identity(), 5) == 5.0

    def test_skew_block(self):
        b = build_shape(cw.ShapeSpec.skew_block(), 4)
        assert shape_trace(cw.ShapeSpec.skew_block(), 4) == np.trace(b) == 0.0

    def test_partial_diagonal(self):
        assert shape_trace(cw.ShapeSpec.custom(np.diag([2.0, 0.0])), 2) == 2.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            shape_trace(cw.ShapeSpec.custom(np.eye(3)), 2)

    @pytest.mark.parametrize("family,normalized", [
        (cw.identity_family, True),
        (cw.normalized_diagonal_family(123), True),
        (cw.skew_block_family, False),
    ], ids=["identity", "normalized-diagonal", "skew-block"])
    def test_families(self, family, normalized):
        for n in (2, 4, 8):
            assert (abs(shape_trace(family(n), n) - n) <= 1e-12 * n) is normalized


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
                build_shape(m2.shape, 6), build_shape(m.shape, 6)
            )

    @pytest.mark.parametrize("shape,entries", [
        (cw.ShapeSpec.diagonal([3, 0.1, -0.0, 2.5e-300]), "[3.0, 0.1, -0.0, 2.5e-300]"),
        (cw.ShapeSpec.diagonal(np.array([3, 0, 1, -2])), "[3.0, 0.0, 1.0, -2.0]"),
        (cw.normalized_diagonal_family(123)(4), "[2.9188798791421195, -0.6857051974331883, "
                                                "1.721971368203675, 0.044853950087393124]"),
    ])
    def test_diagonal_model_bytes(self, shape, entries):
        m = cw.WishartModel(1, 4, cw.SpdMatrix.identity(1), shape)
        assert json.dumps(model_to_dict(m)) == (
            '{"p": 1, "n": 4, "theta": {"rows": 1, "cols": 1, "entries": [1.0]}, '
            f'"shape": {{"variant": "diagonal", "entries": {entries}}}}}'
        )

    @pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_are_rebuilt_read_only(self, copy_of):
        # A copy goes through the constructor, so its arrays are read-only like the
        # original's, and nothing cached on the original (a root, a norm) rides along.
        theta = cw.SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        custom = cw.ShapeSpec.custom(cw.generator(5).standard_normal((3, 3)))
        _ = theta._root, custom._custom_sigma  # cached before the copy
        diagonal = cw.ShapeSpec.diagonal([2.0, 0.0, 1.0])
        for original, copied in [(theta.array, copy_of(theta).array),
                                 (custom.matrix, copy_of(custom).matrix),
                                 (diagonal.entries, copy_of(diagonal).entries)]:
            assert not copied.flags.writeable
            assert copied is not original and np.array_equal(copied, original)
        m = copy_of(cw.WishartModel(2, 3, theta, custom))
        assert "_root" not in vars(m.theta) and "_custom_sigma" not in vars(m.shape)
        assert m.theta._root.tolist() == theta._root.tolist()

    @pytest.mark.parametrize("cls,state,error", [
        (cw.SpdMatrix, {"array": np.array([[1.0, 2.0], [0.0, 1.0]])}, InvalidMatrixError),
        (cw.ShapeSpec, {"variant": "diagonal", "entries": np.array([1.0, np.nan]),
                        "matrix": None}, ValueError),
    ], ids=["asymmetric-theta", "nan-diagonal"])
    def test_an_invalid_pickled_state_is_rejected(self, cls, state, error):
        forged = object.__new__(cls)
        for name, value in state.items():
            object.__setattr__(forged, name, value)
        data = pickle.dumps(forged)
        with pytest.raises(error):
            pickle.loads(data)

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

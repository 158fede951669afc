import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import cwishart as cw
from cwishart import linalg, verify
from cwishart import model as model_module
from cwishart.errors import DimensionError, NotAchievableError
from cwishart.linalg import _spectral_norms, canonical_dumps, mix_seed
from cwishart.verify import (
    BLOCK_TRIALS,
    EQUALITY_MARGIN,
    MAX_TRIALS,
    DecouplingReport,
    TrialConfig,
    check_expectation,
    emit_report,
    empirical_sample_complexity,
    identity_theta_rule,
    sweep_scaling,
)


def model(p, n, shape=None, theta=None):
    return cw.WishartModel(
        p, n, theta or cw.SpdMatrix.identity(p), shape or cw.ShapeSpec.identity()
    )


def zero_model(p=2, n=3):
    return model(p, n, shape=cw.ShapeSpec.custom(np.zeros((n, n))))


class TestEstimateMeanDeviation:
    def test_zero_shape(self):
        stats = cw.estimate_mean_deviation(TrialConfig(zero_model(), 100, 1))
        assert stats.mean == 0.0 and stats.stderr == 0.0 and stats.max == 0.0

    def test_scalar_chi_square_oracle(self):
        # p=1, B=I_64: deviation is |chi2_64/64 - 1|.  Compare against an
        # independent scalar chi-square simulation on a separate stream.
        n_trials = 10**5
        stats = cw.estimate_mean_deviation(
            TrialConfig(model(1, 64), n_trials, 271828)
        )
        oracle_draws = np.abs(cw.generator(999).chisquare(64, size=n_trials) / 64.0 - 1.0)
        oracle_mean = float(oracle_draws.mean())
        oracle_se = float(oracle_draws.std(ddof=1) / math.sqrt(n_trials))
        combined = math.hypot(stats.stderr, oracle_se)
        assert abs(stats.mean - oracle_mean) <= 4 * combined

    def test_theta_scaling_is_exact(self):
        shape = cw.ShapeSpec.diagonal([2.0, 1.0, 1.0, 0.0])
        base = cw.estimate_mean_deviation(
            TrialConfig(model(2, 4, shape=shape), 200, 7)
        )
        scaled = cw.estimate_mean_deviation(
            TrialConfig(model(2, 4, shape=shape, theta=cw.SpdMatrix.diagonal([3.0, 3.0])), 200, 7)
        )
        assert scaled.mean == pytest.approx(3.0 * base.mean, rel=1e-12)

    def test_stderr_shrinks_like_sqrt_n(self):
        small = cw.estimate_mean_deviation(TrialConfig(model(2, 8), 2000, 5))
        large = cw.estimate_mean_deviation(TrialConfig(model(2, 8), 8000, 5))
        assert large.stderr == pytest.approx(small.stderr / 2.0, rel=0.3)

    def test_deterministic_across_worker_counts(self):
        cfg = TrialConfig(model(3, 16), 400, 12345)
        s1 = cw.estimate_mean_deviation(cfg, workers=1)
        s2 = cw.estimate_mean_deviation(cfg, workers=2)
        assert s1 == s2

    @pytest.mark.parametrize("p,n,shape", [
        (3, 16, cw.ShapeSpec.identity()), (3, 2, cw.ShapeSpec.identity()),
        (3, 16, cw.ShapeSpec.skew_block()), (3, 4, cw.ShapeSpec.skew_block()),
    ], ids=["identity", "identity-n-below-p", "skew", "skew-n-below-2p"])
    def test_gram_draws_do_not_depend_on_workers(self, p, n, shape):
        # Three blocks, so that two workers run blocks at once.
        m = model(p, n, shape, cw.SpdMatrix.diagonal([1.0, 2.0, 0.5]))
        cfg = TrialConfig(m, 2 * BLOCK_TRIALS + 5, 12345)
        s1 = cw.estimate_mean_deviation(cfg, workers=1)
        s2 = cw.estimate_mean_deviation(cfg, workers=2)
        assert s1 == s2
        assert (canonical_dumps(cw.check_wishart_decoupling(cfg, 1).to_dict())
                == canonical_dumps(cw.check_wishart_decoupling(cfg, 2).to_dict()))

    def test_trials_validated(self):
        # The config holds the count as given; the engine rejects it when the check runs.
        cfg = TrialConfig(model(2, 4), 1, 0)
        with pytest.raises(ValueError, match="trials must be from 2"):
            cw.estimate_mean_deviation(cfg)

    def test_stream_contract_of_first_block(self):
        # One block: every Gaussian comes from one (k, p, m) draw of the
        # generator for mix_seed(seed, 0), trial t using the slice [t], over the
        # m columns whose diagonal entry is nonzero, in order: all n of them
        # when no entry is zero.
        theta = cw.SpdMatrix.diagonal([2.0, 0.5])
        p, n, k, seed = 2, 5, BLOCK_TRIALS, 4242
        root = np.diag(np.sqrt([2.0, 0.5]))
        for entries, drawn in (([1.5, 0.5, 1.0, 2.0, 0.25], [1.5, 0.5, 1.0, 2.0, 0.25]),
                               ([1.5, 0.0, 1.0, 2.0, 0.0], [1.5, 1.0, 2.0])):
            shape = cw.ShapeSpec.diagonal(entries)
            stats = cw.estimate_mean_deviation(TrialConfig(model(p, n, shape, theta), k, seed))
            y = cw.generator(mix_seed(seed, 0)).standard_normal((k, p, len(drawn)))
            w = root @ (y @ np.diag(drawn) @ y.transpose(0, 2, 1)) @ root / n
            w0 = sum(entries) / n * np.diag([2.0, 0.5])
            dev = np.linalg.svd(w - w0, compute_uv=False)[:, 0]
            assert stats.trials == k
            assert stats.mean == pytest.approx(dev.mean(), rel=1e-12)
            assert stats.max == pytest.approx(dev.max(), rel=1e-12)
            assert stats.stderr == pytest.approx(dev.std(ddof=1) / math.sqrt(k), rel=1e-9)


def _x_path_draws(m, root, rng, k, decoupled):
    """W (or W') from (k, p, n) Gaussian stacks, the way diagonal and custom B draw them."""
    y = rng.standard_normal((k, m.p, m.n))
    y_left = rng.standard_normal((k, m.p, m.n)) if decoupled else y
    return model_module._whitened_sample(m, y_left, y, root)


def _norm_summary(draws, m, trials, seed):
    """Merged summary of the per-trial (||W - E(W)||, ||W'||) under ``draws``."""
    root, w0 = m.theta._root, cw.expected_wishart(m)
    return verify._run_blocks(lambda rng, k: np.stack((
        _spectral_norms(draws(m, root, rng, k, False) - w0),
        _spectral_norms(draws(m, root, rng, k, True)),
    ), axis=1), trials, seed)


def _max_z(a, b):
    """Largest two-sample z of the entrywise means of two summaries."""
    se = np.hypot(a.std / math.sqrt(a.trials), b.std / math.sqrt(b.trials))
    return float(np.max(np.abs(a.mean - b.mean) / se))


STRUCTURED_SIZES = [(2, 8), (3, 10), (8, 8), (4, 256)]


def _structured_model(p, n, variant, entries=None):
    theta = cw.SpdMatrix(np.diag(np.linspace(0.5, 2.0, p)) + 0.25)
    return model(p, n, cw.ShapeSpec(variant, entries=entries), theta)


class TestStructuredDraws:
    """Identity and skew-block B draw Gram factors, and a diagonal B with a zero
    entry draws its nonzero columns only; the laws match the (k, p, n) X path."""

    TRIALS = 20_000

    @pytest.mark.parametrize("variant", ["identity", "skew_block"])
    @pytest.mark.parametrize("p,n", STRUCTURED_SIZES)
    def test_norms_match_the_x_path(self, p, n, variant):
        m = _structured_model(p, n, variant)
        structured = _norm_summary(verify._wishart_draws, m, self.TRIALS, mix_seed(191, p * n))
        direct = _norm_summary(_x_path_draws, m, self.TRIALS, mix_seed(193, p * n))
        assert _max_z(structured, direct) <= EQUALITY_MARGIN

    @pytest.mark.parametrize("p,n,variant", [
        (2, 8, "identity"), (3, 10, "identity"), (8, 8, "identity"),
        (2, 8, "skew_block"), (3, 10, "skew_block"),
    ])
    def test_off_by_one_degrees_of_freedom_are_rejected(self, p, n, variant, monkeypatch):
        # Bartlett's diagonal with chi-square degrees m - i + 1 instead of m - i,
        # at the sizes where the factor is Bartlett's (m >= d).  At (4, 256) the
        # off-by-one shifts E(W) by I / 256, about 2 standard errors here.
        def wrong_factor(rng, k, d, m):
            f = np.zeros((k, d, d))
            for i in range(d):
                f[:, i, i] = np.sqrt(rng.chisquare(m - i + 1, k))
                f[:, i, :i] = rng.standard_normal((k, i))
            return f

        monkeypatch.setattr(verify, "_gram_factor", wrong_factor)
        m = _structured_model(p, n, variant)
        structured = _norm_summary(verify._wishart_draws, m, self.TRIALS, mix_seed(191, p * n))
        direct = _norm_summary(_x_path_draws, m, self.TRIALS, mix_seed(193, p * n))
        assert _max_z(structured, direct) > EQUALITY_MARGIN

    @pytest.mark.parametrize("p,n,entries", [
        (3, 10, [10.0] + [0.0] * 9),
        (2, 8, [0.0, 2.0, 0.0, 0.5, 1.5, 0.0, 3.0, 1.0]),
        (4, 6, [1.0, -2.0, 0.0, 0.0, 0.5, 0.0]),
    ], ids=["rank-one", "half-zero", "signed"])
    def test_zero_columns_match_the_x_path(self, p, n, entries):
        # W and W' from the nonzero columns only, against the full (k, p, n) draws.
        m = _structured_model(p, n, "diagonal", entries)
        reduced = _norm_summary(verify._wishart_draws, m, self.TRIALS, mix_seed(223, p * n))
        direct = _norm_summary(_x_path_draws, m, self.TRIALS, mix_seed(227, p * n))
        assert _max_z(reduced, direct) <= EQUALITY_MARGIN

    def test_dropping_a_nonzero_column_is_rejected(self):
        # The same comparison tells a draw over one nonzero column too few.
        m = _structured_model(2, 8, "diagonal", [0.0, 2.0, 0.0, 0.5, 1.5, 0.0, 3.0, 1.0])
        vars(m.shape)["_nonzero_entries"] = np.array([2.0, 0.5, 1.5, 3.0])
        reduced = _norm_summary(verify._wishart_draws, m, self.TRIALS, mix_seed(223, 16))
        direct = _norm_summary(_x_path_draws, m, self.TRIALS, mix_seed(227, 16))
        assert _max_z(reduced, direct) > EQUALITY_MARGIN

    def test_diagonal_and_custom_b_draw_the_x_path(self):
        # Same stream, same arithmetic: byte-identical draws.  A diagonal with
        # every entry nonzero, however small or negative, draws every column.
        for shape in (cw.ShapeSpec.diagonal([1.5, 0.5, 1.0, 2.0]),
                      cw.ShapeSpec.diagonal([1.5, -0.5, 1e-300, 2.0]),
                      cw.ShapeSpec.custom(cw.generator(197).standard_normal((4, 4)))):
            m = model(2, 4, shape, cw.SpdMatrix.diagonal([2.0, 0.5]))
            for decoupled in (False, True):
                got = verify._wishart_draws(m, m.theta._root, cw.generator(199), 7, decoupled)
                want = _x_path_draws(m, m.theta._root, cw.generator(199), 7, decoupled)
                assert np.array_equal(got, want)


class TestBoundDominance:
    def test_zero_shape(self):
        report = cw.check_bound_dominance(TrialConfig(zero_model(), 50, 3))
        assert report.ratio == 0.0 and report.holds

    def test_identity_grid_cell(self):
        report = cw.check_bound_dominance(TrialConfig(model(4, 32), 2000, 11))
        assert report.holds
        assert report.ratio < 1.0

    def test_skew_cell_with_scaled_theta(self):
        m = model(2, 8, shape=cw.ShapeSpec.skew_block(),
                  theta=cw.SpdMatrix.diagonal([1.0, 3.0]))
        report = cw.check_bound_dominance(TrialConfig(m, 2000, 13))
        assert report.holds


class TestWishartDecoupling:
    def test_zero_shape(self):
        report = cw.check_wishart_decoupling(TrialConfig(zero_model(), 50, 1))
        assert report.holds

    def test_identity_shape(self):
        report = cw.check_wishart_decoupling(TrialConfig(model(3, 16), 5000, 17))
        assert report.holds

    def test_skew_shape(self):
        m = model(2, 8, shape=cw.ShapeSpec.skew_block())
        report = cw.check_wishart_decoupling(TrialConfig(m, 5000, 19))
        assert report.holds


class TestChaosDecoupling:
    def test_zero_singleton(self):
        report = cw.check_chaos_decoupling(
            [np.zeros((2, 2))], cw.SpdMatrix.identity(2), 100, 23
        )
        assert report.lhs.mean == 0.0 and report.rhs.mean == 0.0 and report.holds

    def test_identity_singleton_scalar_oracle(self):
        # For {I_p} with theta = I the decoupled variable is sum Z_i Z'_i.
        p, n_trials = 3, 10**5
        report = cw.check_chaos_decoupling(
            [np.eye(p)], cw.SpdMatrix.identity(p), n_trials, 29
        )
        assert report.holds
        rng = cw.generator(888)
        oracle_draws = np.abs(
            (rng.standard_normal((n_trials, p)) * rng.standard_normal((n_trials, p))).sum(axis=1)
        )
        oracle_mean = float(oracle_draws.mean())
        oracle_se = float(oracle_draws.std(ddof=1) / math.sqrt(n_trials))
        combined = math.hypot(report.rhs.stderr, oracle_se)
        assert abs(report.rhs.mean - oracle_mean) <= 4 * combined

    def test_random_family_with_diagonal_theta(self):
        rng = cw.generator(31)
        mats = [rng.standard_normal((3, 3)) for _ in range(4)]
        report = cw.check_chaos_decoupling(
            mats, cw.SpdMatrix.diagonal([1.0, 2.0, 3.0]), 10**5, 37
        )
        assert report.holds

    def test_list_size_validated(self):
        with pytest.raises(ValueError):
            cw.check_chaos_decoupling([], cw.SpdMatrix.identity(2), 10, 0)
        with pytest.raises(DimensionError):
            cw.check_chaos_decoupling([np.eye(3)], cw.SpdMatrix.identity(2), 10, 0)


class TestLinearFormStd:
    def test_zero_vector(self):
        report = cw.check_linear_form_std(cw.SpdMatrix.identity(2), [0.0, 0.0], 100, 41)
        assert report.sample_std == 0.0 and report.target == 0.0 and report.holds

    def test_standard_coordinate(self):
        report = cw.check_linear_form_std(
            cw.SpdMatrix.identity(2), [1.0, 0.0], 10**5, 43
        )
        assert report.target == pytest.approx(1.0)
        assert report.holds

    def test_closed_form_target(self):
        report = cw.check_linear_form_std(
            cw.SpdMatrix.diagonal([4.0, 1.0]), [1.0, 1.0], 10**5, 47
        )
        assert report.target == pytest.approx(math.sqrt(5.0))
        assert report.norm_inequality_ok
        assert report.holds

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cw.check_linear_form_std(cw.SpdMatrix.identity(3), [1.0, 0.0], 10, 0)

    def test_a_is_a_list_of_finite_numbers(self):
        theta = cw.SpdMatrix.identity(2)
        with pytest.raises(ValueError, match="a must be a list of numbers"):
            cw.check_linear_form_std(theta, ["1", True], 10, 0)
        with pytest.raises(ValueError, match="a must hold finite numbers"):
            cw.check_linear_form_std(theta, [math.nan, 1.0], 10, 0)


class TestTrialCounts:
    """The block engine is the one reader of trials and workers."""

    @pytest.mark.parametrize("pairs", [0, 1, -5])
    def test_lipschitz_pair_count_is_a_trial_count(self, pairs):
        with pytest.raises(ValueError, match="trials must be from 2"):
            cw.count_lipschitz_violations(model(3, 16), [1, 0, 0], pairs, 67)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            cw.check_linear_form_std(cw.SpdMatrix.identity(2), [1.0, 0.0], 100, 41, workers=0)

    def test_non_integral_trials_name_the_field(self):
        with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
            cw.estimate_mean_deviation(TrialConfig(model(2, 4), 2.5, 0))
        with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
            cw.check_chaos_decoupling([np.eye(2)], cw.SpdMatrix.identity(2), 2.5, 0)

    @pytest.mark.parametrize("trials,workers",
                             [(1, 1), (MAX_TRIALS + 1, 1), (True, 1), (100, 0), (100, None)],
                             ids=["one", "beyond-cap", "bool", "no-workers", "none-workers"])
    def test_counts_are_checked_before_any_block(self, trials, workers):
        def kernel(rng, k):
            raise AssertionError("a block ran")

        with pytest.raises(ValueError, match="trials|workers"):
            verify._run_blocks(kernel, trials, 0, workers)

    def test_overflowing_statistics_are_rejected(self):
        # Norms near 1e306: a block's sum over 1024 trials overflows, so no mean can be reported.
        m = model(2, 8, theta=cw.SpdMatrix.diagonal([1e306, 1e306]))
        for check in (cw.check_wishart_decoupling, cw.check_bound_dominance):
            with pytest.raises(ValueError, match="overflow"):
                check(TrialConfig(m, 2048, 1))

    @staticmethod
    def assert_statistics_scale_exactly(scale):
        """Every statistic of B = 2^scale I (as a diagonal) is B = I's scaled by 2^scale."""
        def reports(b):
            cfg = TrialConfig(model(2, 8, shape=cw.ShapeSpec.diagonal([b] * 8)), 2000, 5)
            return check_expectation(cfg), cw.check_wishart_decoupling(cfg)

        (exp_one, dec_one), (exp_scaled, dec_scaled) = reports(1.0), reports(2.0**scale)
        for field in ("max_abs_deviation", "max_stderr", "mean_matrix", "expected_matrix",
                      "stderr_matrix"):
            assert np.array_equal(np.ldexp(getattr(exp_one, field), scale),
                                  getattr(exp_scaled, field))
        for one, scaled in ((dec_one.lhs, dec_scaled.lhs), (dec_one.rhs, dec_scaled.rhs)):
            assert (scaled.mean, scaled.stderr, scaled.max) == tuple(
                math.ldexp(v, scale) for v in (one.mean, one.stderr, one.max))
        assert exp_scaled.max_stderr > 0.0 and exp_scaled.holds and exp_one.holds
        assert dec_scaled.holds and dec_one.holds

    def test_tiny_statistics_scale_exactly(self):
        # Values near 2^-560 have squared deviations far below the least float;
        # the summary squares them at a power-of-two scale.
        self.assert_statistics_scale_exactly(-560)

    def test_huge_statistics_scale_exactly(self):
        # Values near 2^560 have squared deviations far above the largest float.
        self.assert_statistics_scale_exactly(560)

    def test_integral_float_trials_report_an_int_count(self):
        theta, m = cw.SpdMatrix.diagonal([4.0, 1.0]), model(2, 4)
        for run in (lambda t: cw.check_linear_form_std(theta, [1.0, 1.0], t, 5),
                    lambda t: cw.check_concentration(m, [1.0, 0.0], [0.0, 0.5], t, 5),
                    lambda t: check_expectation(TrialConfig(m, t, 5))):
            as_float, as_int = run(2000.0), run(2000)
            assert type(as_float.trials) is int
            assert canonical_dumps(as_float.to_dict()) == canonical_dumps(as_int.to_dict())

    def test_theta_root_is_computed_once(self, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s.p)
            return exact(s)

        exact = linalg.spd_sqrt
        for module in (linalg, model_module, verify):
            monkeypatch.setattr(module, "spd_sqrt", counted, raising=False)
        theta = cw.SpdMatrix.diagonal([4.0, 1.0])
        for seed in (1, 2, 3):
            cw.check_linear_form_std(theta, [1.0, 1.0], 100, seed)
        assert calls == [2]
        cw.check_chaos_decoupling([np.eye(2)], theta, 100, 4)
        cw.estimate_mean_deviation(TrialConfig(model(2, 4, theta=theta), 100, 5))
        assert calls == [2]
        assert np.array_equal(theta._root, exact(theta))


class TestConditionalStd:
    def test_zero_shape(self):
        x = cw.sample_standard_gaussian_matrix(2, 4, 1)
        zero = cw.ShapeSpec.diagonal([0.0] * 4)
        assert verify._conditional_stds(zero, np.array([1.0, 0.0]) @ x, 2) == 0.0

    def test_identity_shape_row_norm(self):
        x = cw.sample_standard_gaussian_matrix(3, 8, 2)
        expected = math.sqrt(3) / 8 * float(np.linalg.norm(x[0]))
        d = np.array([1.0, 0.0, 0.0])
        identity = cw.ShapeSpec.identity()
        assert verify._conditional_stds(identity, d @ x, 3) == pytest.approx(expected)

    def test_double_sum_definition(self):
        # sigma^2 = p/n^2 * sum_l [sum_m sum_j b_lm x_j X_jm]^2
        rng = cw.generator(53)
        p, n = 3, 5
        b = rng.standard_normal((n, n))
        x = rng.standard_normal((p, n))
        d = rng.standard_normal(p)
        d /= np.linalg.norm(d)
        total = 0.0
        for l in range(n):
            inner = sum(
                b[l, m] * d[j] * x[j, m] for m in range(n) for j in range(p)
            )
            total += inner**2
        oracle = math.sqrt(p) / n * math.sqrt(total)
        shape = cw.ShapeSpec.custom(b)
        assert verify._conditional_stds(shape, d @ x, p) == pytest.approx(oracle, rel=1e-12)

    def test_unit_vector_required(self):
        # The Lipschitz claim is stated for unit d only: [3, 0, 0] on this
        # model, seed and pair count would otherwise count one "violation".
        m = model(3, 16)
        for direction, message in (([1.0, 1.0, 0.0], "unit vector"),
                                   ([3.0, 0.0, 0.0], "unit vector"),
                                   ([math.nan, 0.0, 0.0], "direction must hold finite numbers"),
                                   (["1", 0, 0], "direction must be a list of numbers"),
                                   ([True, 0, 0], "direction must be a list of numbers")):
            with pytest.raises(ValueError, match=message):
                cw.check_concentration(m, direction, [0.0], 10, 0)
            with pytest.raises(ValueError, match=message):
                cw.count_lipschitz_violations(m, direction, 1000, 67)


class TestConcentration:
    def cfgmodel(self):
        return model(3, 16)

    def test_zero_t_has_half_tail_bound(self):
        report = cw.check_concentration(self.cfgmodel(), [1, 0, 0], [0.0], 2000, 59)
        assert report.theoretical_tails == (0.5,)
        assert report.holds

    def test_tail_dominance_and_mean(self):
        report = cw.check_concentration(
            self.cfgmodel(), [1, 0, 0], [0.0, 0.1, 0.2, 0.3, 0.4], 2 * 10**4, 61
        )
        assert report.holds and report.mean_ok
        assert report.lipschitz == pytest.approx(math.sqrt(3) / 16)
        assert report.mean_bound == pytest.approx(math.sqrt(3) / 16 * 4.0)
        assert report.u_floor == pytest.approx(3 * math.sqrt(3))
        for t, theo in zip(report.t_grid, report.theoretical_tails):
            if t > 0:
                assert theo == pytest.approx(
                    0.5 * math.exp(-t * t / (2 * report.lipschitz**2)), rel=1e-12
                )

    def test_lipschitz_constant_whose_square_underflows(self):
        # ||B|| = 1.5e-174 gives L = 7.6e-175, and L^2 = 0 in floating point.
        m = model(1, 2, shape=cw.ShapeSpec.diagonal([0.0, 1.5171931716174968e-174]))
        lipschitz = 1.5171931716174968e-174 / 2
        report = cw.check_concentration(m, [1.0], [0.0, lipschitz, 1.0], 2, 0)
        assert report.lipschitz == lipschitz and lipschitz * lipschitz == 0.0
        assert report.theoretical_tails == (0.5, 0.5 * math.exp(-0.5), 0.0)

    def test_t_grid_length_is_capped(self):
        # 64 points run; 65 are rejected before any block draws its indicators.
        grid = [0.01 * i for i in range(verify.MAX_T_GRID + 1)]
        report = cw.check_concentration(self.cfgmodel(), [1, 0, 0], grid[:-1], 2, 0)
        assert len(report.empirical_tails) == verify.MAX_T_GRID == 64
        with pytest.raises(ValueError, match="t_grid must have at most 64 points, got 65"):
            cw.check_concentration(self.cfgmodel(), [1, 0, 0], grid, 2, 0)

    def test_non_identity_theta_rejected_with_hint(self):
        m = model(2, 4, theta=cw.SpdMatrix.diagonal([1.0, 2.0]))
        with pytest.raises(ValueError, match="whiten"):
            cw.check_concentration(m, [1, 0], [0.0], 10, 0)

    def test_lipschitz_never_violated(self):
        violations = cw.count_lipschitz_violations(self.cfgmodel(), [1, 0, 0], 1000, 67)
        assert violations == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_sigma_past_the_largest_float_is_rejected(self):
        # s(X) = (sqrt(3) / 16) 1e308 ||g|| overflows: inf - inf is NaN, and
        # NaN > x is false, so the violation count alone would read 0.
        m = model(3, 16, shape=cw.ShapeSpec.diagonal([1e308] * 16))
        with pytest.raises(ValueError, match="overflow"):
            cw.count_lipschitz_violations(m, [1, 0, 0], 1000, 67)
        with pytest.raises(ValueError, match="overflow"):
            cw.check_concentration(m, [1, 0, 0], [0.0], 1000, 67)

    def test_sigma_never_builds_the_n_by_n_shape(self):
        # A dense 4096 x 4096 B alone takes 128 MB.
        n = 4096
        diagonal = cw.ShapeSpec.diagonal(np.linspace(0.5, 1.5, n).tolist())
        runs = [lambda: cw.check_concentration(model(3, n, diagonal), [1, 0, 0], [0.0], 2, 0)]
        runs += [lambda s=s: cw.count_lipschitz_violations(model(3, n, s), [1, 0, 0], 2, 0)
                 for s in (cw.ShapeSpec.identity(), cw.ShapeSpec.skew_block(), diagonal)]
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    def test_lipschitz_at_one_row(self):
        # p = 1: X1 - X2 has no part orthogonal to d, so no chi-square term is drawn.
        for n in (1, 16):
            for d in ([1.0], [-1.0]):
                assert cw.count_lipschitz_violations(model(1, n), d, 5000, 71) == 0


def _x_path_concentration(m, d, thresholds, trials, seed):
    """Summary of (sigma, tail indicators) per trial from full p x n draws of X."""
    b = model_module.build_shape(m.shape, m.n)

    def kernel(rng, k):
        x = rng.standard_normal((k, m.p, m.n))
        s = math.sqrt(m.p) / m.n * np.linalg.norm(np.einsum("lj,tij,i->tl", b, x, d), axis=-1)
        return np.column_stack((s, s[:, None] >= thresholds))

    return verify._run_blocks(kernel, trials, seed)


CONCENTRATION_SHAPES = {
    "identity": (3, 16, cw.ShapeSpec.identity()),
    "skew": (3, 16, cw.ShapeSpec.skew_block()),
    "diagonal-with-zero": (2, 8, cw.ShapeSpec.diagonal([0.0, 2.0, 0.0, 0.5, 1.5, 0.0, 3.0, 1.0])),
    "custom": (3, 8, cw.ShapeSpec.custom(cw.generator(233).standard_normal((8, 8)))),
}


class TestConcentrationDraws:
    """The concentration check draws g = X^T d (or ||g||); its law matches X's."""

    TRIALS = 20_000

    def compare(self, name, monkeypatch):
        """Max two-sample |z| of the (sigma, tail) means against the X path."""
        p, n, shape = CONCENTRATION_SHAPES[name]
        m = model(p, n, shape)
        d = [2 / 3, -1 / 3, 2 / 3] if p == 3 else [0.6, 0.8]
        lipschitz = math.sqrt(p) * model_module.shape_spectral_norm(shape, n) / n
        grid = [0.0, 0.25 * lipschitz, 0.5 * lipschitz, lipschitz]
        seed = list(CONCENTRATION_SHAPES).index(name)
        summaries, run = [], verify._run_blocks
        monkeypatch.setattr(verify, "_run_blocks",
                            lambda *a: summaries.append(run(*a)) or summaries[-1])
        report = cw.check_concentration(m, d, grid, self.TRIALS, mix_seed(239, seed))
        monkeypatch.setattr(verify, "_run_blocks", run)
        direct = _x_path_concentration(m, np.array(d), report.mean_bound + np.array(grid),
                                       self.TRIALS, mix_seed(241, seed))
        return _max_z(summaries[0], direct)

    @pytest.mark.parametrize("name", list(CONCENTRATION_SHAPES))
    def test_sigma_and_tails_match_the_x_path(self, name, monkeypatch):
        assert self.compare(name, monkeypatch) <= EQUALITY_MARGIN

    def test_chi_with_one_degree_too_few_is_rejected(self, monkeypatch):
        # ||g|| drawn as sqrt(chi-square(n - 1)) at n = 16: |z| from 7.5 to 18.
        class OneDegreeShort:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def chisquare(self, df, size):
                return self.rng.chisquare(df - 1, size)

        exact = verify.generator
        monkeypatch.setattr(verify, "generator", lambda seed: OneDegreeShort(exact(seed)))
        assert self.compare("identity", monkeypatch) > EQUALITY_MARGIN


class TestSweepScaling:
    def test_degenerate_zero_family(self):
        def zero_family(n):
            return cw.ShapeSpec.custom(np.zeros((n, n)))

        sweep = sweep_scaling(2, [4, 8, 16], zero_family, cw.SpdMatrix.identity(2), 50, 71)
        assert sweep.degenerate and sweep.slope is None

    def test_identity_family_slope(self):
        sweep = sweep_scaling(
            4, [16, 64, 256], cw.identity_family, cw.SpdMatrix.identity(4), 500, 73
        )
        assert not sweep.degenerate
        assert -0.7 <= sweep.slope <= -0.3

    def test_identity_family_at_a_million_columns(self):
        # Identity B draws a p x p Gram factor, so n = 2^20 costs what n = p does.
        sweep = sweep_scaling(4, [2**18, 2**19, 2**20], cw.identity_family,
                              cw.SpdMatrix.identity(4), 200, 211)
        assert -0.6 <= sweep.slope <= -0.4

    def test_rerun_is_bit_identical(self):
        args = (3, [8, 16, 32], cw.identity_family, cw.SpdMatrix.identity(3), 100, 79)
        assert sweep_scaling(*args).to_dict() == sweep_scaling(*args).to_dict()

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            sweep_scaling(2, [8, 16], cw.identity_family, cw.SpdMatrix.identity(2), 10, 0)
        with pytest.raises(ValueError):
            sweep_scaling(2, [8, 8, 16], cw.identity_family, cw.SpdMatrix.identity(2), 10, 0)


class TestSampleComplexity:
    def test_huge_tolerance_returns_first_n(self):
        table = empirical_sample_complexity(
            [2, 4], 10**6, cw.identity_family, identity_theta_rule, 50, 83
        )
        assert all(row.empirical_n == 1 for row in table.rows)

    def test_theoretical_dominates_empirical(self):
        # Tolerance 2.5 keeps the inverted bound below the 2**20 cap at p=8.
        table = empirical_sample_complexity(
            [2, 4, 8], 2.5, cw.identity_family, identity_theta_rule, 400, 89
        )
        for row in table.rows:
            assert row.theoretical_n >= row.empirical_n

    def test_empirical_n_nondecreasing_in_p(self):
        table = empirical_sample_complexity(
            [2, 4, 8], 2.5, cw.identity_family, identity_theta_rule, 400, 97
        )
        ns = [row.empirical_n for row in table.rows]
        assert ns == sorted(ns)

    def test_cap_exceeded(self):
        with pytest.raises(NotAchievableError):
            empirical_sample_complexity(
                [2], 1e-6, cw.identity_family, identity_theta_rule, 50, 101, cap=2**8
            )

    def test_each_n_builds_its_shape_once(self, monkeypatch):
        calls, evaluated = [], []

        def counting(n):
            calls.append(n)
            return cw.ShapeSpec.identity()

        def recording(cfg, workers):
            evaluated.append(cfg.model.n)
            return estimate(cfg, workers)

        estimate = verify.estimate_mean_deviation
        monkeypatch.setattr(verify, "estimate_mean_deviation", recording)
        # The bound inversion has its own test; here only the Monte Carlo walk counts.
        monkeypatch.setattr(verify, "invert_bound_for_n", lambda *args: 0)
        table = empirical_sample_complexity([2], 1.0, counting, identity_theta_rule, 50, 7)
        assert table.rows[0].empirical_n == evaluated[-1] > 1
        assert calls == evaluated

    def test_p_grid_entries_are_integers(self):
        with pytest.raises(ValueError, match="p_grid entry must be an integer"):
            empirical_sample_complexity([2.5], 1e6, cw.identity_family, identity_theta_rule, 50, 1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 10**400, 0, -1.0, "1", True],
                             ids=["nan", "inf", "int-beyond-float", "zero", "negative",
                                  "string", "bool"])
    def test_tolerance_rejected_before_any_trial(self, monkeypatch, tol):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(verify, "estimate_mean_deviation", no_trials)
        with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
            empirical_sample_complexity([2], tol, cw.identity_family, identity_theta_rule, 50, 1)


class TestReports:
    def test_envelope_fields_and_digest(self):
        payload = {"holds": True, "mean": 1.0}
        r1 = emit_report("dominance", {"a": 1, "b": 2}, 5, payload)
        r2 = emit_report("dominance", {"b": 2, "a": 1}, 5, payload)
        assert r1 == r2  # key order does not matter
        assert r1["check_name"] == "dominance"
        assert r1["master_seed"] == 5
        assert len(r1["config_digest"]) == 16
        r3 = emit_report("dominance", {"a": 1, "b": 3}, 5, payload)
        assert r3["config_digest"] != r1["config_digest"]

    def test_expectation_report_holds(self):
        report = check_expectation(TrialConfig(model(2, 6), 2000, 103))
        assert report.holds
        assert canonical_dumps(report.to_dict())  # serializable

    @pytest.mark.parametrize("trials", [BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS + 3])
    def test_block_boundaries_do_not_depend_on_workers(self, trials):
        # A partial last block (1 and 3 trials) with 1, 2 and 3 threads.
        m = model(3, 8, shape=cw.ShapeSpec.skew_block(),
                  theta=cw.SpdMatrix.diagonal([1.0, 2.0, 0.5]))
        mats = [cw.generator(109).standard_normal((3, 3)) for _ in range(2)]
        m_identity = model(3, 8)
        b_custom = cw.ShapeSpec.custom(cw.generator(151).standard_normal((8, 8)))
        m_custom = model(3, 8, shape=b_custom, theta=cw.SpdMatrix.diagonal([1.0, 2.0, 0.5]))
        outputs = set()
        for workers in (1, 2, 3):
            reports = [
                cw.check_wishart_decoupling(TrialConfig(m, trials, 113), workers).to_dict(),
                cw.check_chaos_decoupling(
                    mats, cw.SpdMatrix.identity(3), trials, 127, workers
                ).to_dict(),
                cw.check_linear_form_std(
                    cw.SpdMatrix.diagonal([4.0, 1.0]), [1.0, 1.0], trials, 131, workers
                ).to_dict(),
                check_expectation(TrialConfig(m, trials, 133), workers).to_dict(),
                cw.check_bound_dominance(TrialConfig(m, trials, 137), workers=workers).to_dict(),
                cw.check_concentration(
                    m_identity, [1.0, 0.0, 0.0], [0.0, 0.02, 0.05], trials, 139, workers
                ).to_dict(),
                cw.count_lipschitz_violations(m_identity, [0.0, 1.0, 0.0], trials, 149, workers),
                cw.check_wishart_decoupling(TrialConfig(m_custom, trials, 157), workers).to_dict(),
            ]
            assert reports[0]["lhs"]["trials"] == trials
            outputs.add(canonical_dumps(reports))
        assert len(outputs) == 1

    def test_merged_summary_matches_one_pass(self):
        # The block-order merge against numpy over all trials at once, on
        # uneven blocks (the last one a single trial) with a nonzero mean.
        x = 3.0 + cw.generator(167).standard_normal((2 * BLOCK_TRIALS + 1, 2, 3))
        parts = (x[:BLOCK_TRIALS], x[BLOCK_TRIALS:-1], x[-1:])
        merged = verify._Summary.of_block(parts[0])
        for part in parts[1:]:
            merged = merged.merge(verify._Summary.of_block(part))
        assert merged.trials == len(x)
        np.testing.assert_allclose(merged.mean, x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(merged.std, x.std(axis=0, ddof=1), rtol=1e-12)
        assert np.array_equal(merged.max, x.max(axis=0))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_trials(self, workers):
        # Blocks are reduced as they finish: 2 * 10^6 per-trial values alone
        # would take 16 MB.
        theta = cw.SpdMatrix.diagonal([4.0, 1.0])
        tracemalloc.start()
        try:
            cw.check_linear_form_std(theta, [1.0, 1.0], 2 * 10**6, 163, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_worker_counts_do_not_change_reports(self):
        m = model(3, 8)
        reports = []
        for workers in (1, 3):
            rep = cw.check_wishart_decoupling(TrialConfig(m, 300, 107), workers=workers)
            reports.append(canonical_dumps(rep.to_dict()))
        assert reports[0] == reports[1]


class TestNegativeControls:
    """Each check returns holds: false when its claim is false by a known amount."""

    def test_decoupling_rejects_lhs_three_times_rhs(self):
        rhs = 1.0 + 0.1 * cw.generator(137).standard_normal(1000)

        def report(lhs):
            return DecouplingReport.from_summary(
                verify._Summary.of_block(np.column_stack((lhs, rhs))))

        assert report(1.5 * rhs).holds
        assert not report(3.0 * rhs).holds

    def test_expectation_rejects_five_percent_error(self, monkeypatch):
        cfg = TrialConfig(model(2, 8), 8000, 139)
        assert check_expectation(cfg).holds
        exact = verify.expected_wishart
        monkeypatch.setattr(verify, "expected_wishart", lambda m: 1.05 * exact(m))
        report = check_expectation(cfg)
        assert 0.05 > EQUALITY_MARGIN * report.max_stderr
        assert not report.holds

    def test_dominance_rejects_bound_below_empirical_mean(self, monkeypatch):
        cfg = TrialConfig(model(2, 8), 2000, 149)
        honest = cw.check_bound_dominance(cfg)
        assert honest.holds
        exact = verify.deviation_bound
        monkeypatch.setattr(
            verify, "deviation_bound",
            lambda m, conv: dataclasses.replace(
                exact(m, conv), bound_value=honest.empirical.mean / 2
            ),
        )
        report = cw.check_bound_dominance(cfg)
        assert report.empirical == honest.empirical
        assert not report.holds

    def test_concentration_rejects_shrunk_lipschitz_constant(self, monkeypatch):
        # Identity B, p=3, n=16: at t = L/2 the empirical tail is about 0.21;
        # with L shrunk fourfold the claimed tail is 0.5 exp(-2) = 0.068.
        m, lipschitz = model(3, 16), math.sqrt(3) / 16
        args = (m, [1, 0, 0], [0.5 * lipschitz], 2 * 10**4, 151)
        assert cw.check_concentration(*args).holds
        exact = verify.shape_spectral_norm
        monkeypatch.setattr(verify, "shape_spectral_norm", lambda spec, n: 0.25 * exact(spec, n))
        report = cw.check_concentration(*args)
        assert report.lipschitz == pytest.approx(0.25 * lipschitz)
        assert report.asserted == (True,)
        assert not report.holds

    def test_lipschitz_count_rejects_shrunk_constant(self, monkeypatch):
        # With the constant cut tenfold about a third of the pairs violate it.
        args = (model(3, 16), [1, 0, 0], 1000, 67)
        assert cw.count_lipschitz_violations(*args) == 0
        exact = verify.shape_spectral_norm
        monkeypatch.setattr(verify, "shape_spectral_norm", lambda spec, n: 0.1 * exact(spec, n))
        assert cw.count_lipschitz_violations(*args) > 100

    def test_linear_form_rejects_five_percent_error(self, monkeypatch):
        # At 10^5 trials a 5% error in the standard deviation is about 22 of
        # its standard errors, far past the margin of 5.
        args = (cw.SpdMatrix.diagonal([4.0, 1.0]), [1.0, 1.0], 10**5, 157)
        assert cw.check_linear_form_std(*args).holds
        run = verify._run_blocks
        monkeypatch.setattr(verify, "_run_blocks",
                            lambda kernel, *a: run(lambda rng, k: 1.05 * kernel(rng, k), *a))
        report = cw.check_linear_form_std(*args)
        assert report.target == pytest.approx(math.sqrt(5.0))
        assert abs(report.sample_std - report.target) > 20 * report.std_stderr
        assert not report.holds

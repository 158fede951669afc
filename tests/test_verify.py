import dataclasses
import math

import numpy as np
import pytest

import cwishart as cw
from cwishart import verify
from cwishart.errors import DimensionError, NotAchievableError
from cwishart.linalg import canonical_dumps, mix_seed
from cwishart.verify import (
    BLOCK_TRIALS,
    EQUALITY_MARGIN,
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

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            TrialConfig(model(2, 4), 1, 0)

    def test_stream_contract_of_first_block(self):
        # One block: every Gaussian comes from one (k, p, n) draw of the
        # generator for mix_seed(seed, 0), trial t using the slice [t].
        theta = cw.SpdMatrix.diagonal([2.0, 0.5])
        shape = cw.ShapeSpec.diagonal([1.5, 0.5, 1.0, 2.0, 0.0])
        p, n, k, seed = 2, 5, BLOCK_TRIALS, 4242
        stats = cw.estimate_mean_deviation(TrialConfig(model(p, n, shape, theta), k, seed))
        y = cw.generator(mix_seed(seed, 0)).standard_normal((k, p, n))
        root = np.diag(np.sqrt([2.0, 0.5]))
        b = np.diag([1.5, 0.5, 1.0, 2.0, 0.0])
        w = root @ (y @ b @ y.transpose(0, 2, 1)) @ root / n
        w0 = np.trace(b) / n * np.diag([2.0, 0.5])
        dev = np.linalg.svd(w - w0, compute_uv=False)[:, 0]
        assert stats.trials == k
        assert stats.mean == pytest.approx(dev.mean(), rel=1e-12)
        assert stats.max == pytest.approx(dev.max(), rel=1e-12)
        assert stats.stderr == pytest.approx(dev.std(ddof=1) / math.sqrt(k), rel=1e-9)


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


class TestConditionalStd:
    def test_zero_shape(self):
        x = cw.sample_standard_gaussian_matrix(2, 4, 1)
        assert verify._conditional_stds(np.zeros((4, 4)), x, np.array([1.0, 0.0])) == 0.0

    def test_identity_shape_row_norm(self):
        x = cw.sample_standard_gaussian_matrix(3, 8, 2)
        expected = math.sqrt(3) / 8 * float(np.linalg.norm(x[0]))
        d = np.array([1.0, 0.0, 0.0])
        assert verify._conditional_stds(np.eye(8), x, d) == pytest.approx(expected)

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
        assert verify._conditional_stds(b, x, d) == pytest.approx(oracle, rel=1e-12)

    def test_unit_vector_required(self):
        # The Lipschitz claim is stated for unit d only: [3, 0, 0] on this
        # model, seed and pair count would otherwise count one "violation".
        m = model(3, 16)
        for direction in ([1.0, 1.0, 0.0], [3.0, 0.0, 0.0], [math.nan, 0.0, 0.0]):
            with pytest.raises(ValueError, match="unit vector"):
                cw.check_concentration(m, direction, [0.0], 10, 0)
            with pytest.raises(ValueError, match="unit vector"):
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

    def test_non_identity_theta_rejected_with_hint(self):
        m = model(2, 4, theta=cw.SpdMatrix.diagonal([1.0, 2.0]))
        with pytest.raises(ValueError, match="whiten"):
            cw.check_concentration(m, [1, 0], [0.0], 10, 0)

    def test_lipschitz_never_violated(self):
        violations = cw.count_lipschitz_violations(self.cfgmodel(), [1, 0, 0], 1000, 67)
        assert violations == 0


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
            ]
            assert reports[0]["lhs"]["trials"] == trials
            outputs.add(canonical_dumps(reports))
        assert len(outputs) == 1

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
        assert DecouplingReport.from_pairs(np.column_stack((1.5 * rhs, rhs))).holds
        assert not DecouplingReport.from_pairs(np.column_stack((3.0 * rhs, rhs))).holds

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

    def test_linear_form_rejects_five_percent_error(self, monkeypatch):
        # At 10^5 trials a 5% error in the standard deviation is about 22 of
        # its standard errors, far past the margin of 5.
        args = (cw.SpdMatrix.diagonal([4.0, 1.0]), [1.0, 1.0], 10**5, 157)
        assert cw.check_linear_form_std(*args).holds
        run = verify._run_blocks
        monkeypatch.setattr(verify, "_run_blocks", lambda *a: 1.05 * run(*a))
        report = cw.check_linear_form_std(*args)
        assert report.target == pytest.approx(math.sqrt(5.0))
        assert abs(report.sample_std - report.target) > 20 * report.std_stderr
        assert not report.holds

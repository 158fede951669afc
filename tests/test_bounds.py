import dataclasses
import math
import re

import numpy as np
import pytest

import cwishart as cw
from cwishart import bounds, linalg
from cwishart import model as model_module
from cwishart.bounds import KappaConvention
from cwishart.errors import (
    DimensionError,
    NotAchievableError,
    ZeroSpectralNormError,
)


def identity_model(p, n, theta=None):
    theta = theta or cw.SpdMatrix.identity(p)
    return cw.WishartModel(p, n, theta, cw.ShapeSpec.identity())


class TestLogFactor:
    def test_hand_values(self):
        # ln 2 = 0.6931 -> 1; ln 4 = 1.3863 -> 4; ln 8 = 2.0794 -> 9
        assert cw.log_factor(1) == 1
        assert cw.log_factor(2) == 4
        assert cw.log_factor(4) == 9

    def test_matches_definition(self):
        for p in range(1, 200):
            assert cw.log_factor(p) == math.ceil(math.log(2 * p)) ** 2


class TestDeviationBound:
    def test_scalar_case_both_conventions(self):
        # p = n = 1, B = [1], theta = [1]: sigma = kappa = 1 under either
        # convention, so the bound is 24 * (4 + sqrt(pi)).
        m = cw.WishartModel(1, 1, cw.SpdMatrix.identity(1),
                            cw.ShapeSpec.custom([[1.0]]))
        expected = 24.0 * (4.0 + math.sqrt(math.pi))
        for conv in KappaConvention:
            report = cw.deviation_bound(m, conv)
            assert report.bound_value == pytest.approx(expected, rel=1e-12)
            assert report.sigma == 1.0 and report.kappa == 1.0

    def test_frobenius_norm_whose_squares_overflow(self):
        # ||B||_F = 4e200 fits in a float, though each squared entry 1e400 does not.
        m = cw.WishartModel(2, 16, cw.SpdMatrix.identity(2), cw.ShapeSpec.diagonal([1e200] * 16))
        report = cw.deviation_bound(m)
        assert report.kappa == pytest.approx(4e200, rel=1e-15) and report.sigma == 1e200
        assert math.isfinite(report.bound_value) and report.bound_value > 0.0

    def test_doubling_n_with_fixed_norms_halves(self):
        # diag(2, 0) at n=2 and diag(2, 0, 0, 0) at n=4 share sigma and kappa.
        m2 = cw.WishartModel(2, 2, cw.SpdMatrix.identity(2),
                             cw.ShapeSpec.diagonal([2.0, 0.0]))
        m4 = cw.WishartModel(2, 4, cw.SpdMatrix.identity(2),
                             cw.ShapeSpec.diagonal([2.0, 0.0, 0.0, 0.0]))
        b2 = cw.deviation_bound(m2)
        b4 = cw.deviation_bound(m4)
        assert b2.sigma == b4.sigma
        assert b2.kappa == b4.kappa
        assert b4.bound_value == pytest.approx(b2.bound_value / 2.0, rel=1e-15)

    def test_identity_shape_formula(self):
        # p=4, n=16, B=I_16, theta=I: 24 * 9 * 2 * (4 + sqrt(16 pi)) / 16.
        report = cw.deviation_bound(identity_model(4, 16))
        assert report.kappa == pytest.approx(4.0)
        assert report.sigma == 1.0
        assert report.bound_value == pytest.approx(
            27.0 * (4.0 + math.sqrt(16.0 * math.pi)), rel=1e-12
        )

    def test_conventions_coincide_for_unit_spectral_norm(self):
        m = identity_model(3, 9)
        frob = cw.deviation_bound(m, KappaConvention.FROBENIUS)
        ratio = cw.deviation_bound(m, KappaConvention.RATIO)
        assert frob.kappa == ratio.kappa == 3.0
        assert frob.bound_value == ratio.bound_value

    def test_conventions_differ_in_general(self):
        m = cw.WishartModel(2, 4, cw.SpdMatrix.identity(2),
                            cw.ShapeSpec.diagonal([2.0, 0.0, 0.0, 2.0]))
        frob = cw.deviation_bound(m, KappaConvention.FROBENIUS)
        ratio = cw.deviation_bound(m, KappaConvention.RATIO)
        assert frob.kappa == pytest.approx(math.sqrt(8.0))
        assert ratio.kappa == pytest.approx(math.sqrt(2.0))
        assert frob.bound_value > ratio.bound_value

    def test_zero_shape_ratio_divides_by_zero(self):
        m = cw.WishartModel(2, 3, cw.SpdMatrix.identity(2),
                            cw.ShapeSpec.custom(np.zeros((3, 3))))
        with pytest.raises(ZeroSpectralNormError):
            cw.deviation_bound(m, KappaConvention.RATIO)
        assert issubclass(ZeroSpectralNormError, ZeroDivisionError)
        assert cw.deviation_bound(m, KappaConvention.FROBENIUS).bound_value == 0.0

    def test_report_self_consistent(self):
        report = cw.deviation_bound(identity_model(5, 12))
        assert report.recompute() == pytest.approx(report.bound_value, rel=1e-12)

    def test_report_dict_fields(self):
        d = cw.deviation_bound(identity_model(2, 8)).to_dict()
        assert set(d) == {"p", "n", "sigma", "kappa", "convention",
                          "log_factor", "theta_norm", "bound_value"}
        assert d["convention"] == "frobenius"

    def test_monotonicity(self):
        base = dict(p=3, n=10, sigma=1.0, kappa=2.0, theta_norm=1.5)

        def value(**kw):
            report = cw.BoundReport(**{**base, **kw}, convention=KappaConvention.FROBENIUS,
                                    log_factor=cw.log_factor(3), bound_value=0.0)
            return report.recompute()

        assert value(n=20) < value()
        assert value(sigma=1.1) > value()
        assert value(kappa=2.1) > value()
        assert value(theta_norm=1.6) > value()

    @pytest.mark.parametrize(
        "kw,error,message",
        [
            (dict(p=0), DimensionError, "p and n must be positive, got p=0, n=10"),
            (dict(n=0), DimensionError, "p and n must be positive, got p=3, n=0"),
            (dict(p=0, sigma=-1.0), DimensionError, "p and n must be positive"),
            (dict(sigma=-1.0), ValueError, "sigma must be finite and nonnegative, got -1.0"),
            (dict(sigma=math.nan, kappa=-1.0), ValueError, "sigma must be finite"),
            (dict(kappa=math.inf), ValueError, "kappa must be finite and nonnegative, got inf"),
            (dict(kappa=-1.0, theta_norm=-1.0), ValueError, "kappa must be finite"),
            (dict(theta_norm=math.nan), ValueError, "theta_norm must be finite and nonnegative"),
        ],
        ids=["p", "n", "p-before-sigma", "sigma", "sigma-before-kappa", "kappa",
             "kappa-before-theta-norm", "theta-norm"])
    def test_inputs_are_checked_in_order(self, kw, error, message):
        args = {**dict(p=3, n=10, sigma=1.0, kappa=2.0, theta_norm=1.5), **kw}
        with pytest.raises(error, match=re.escape(message)):
            cw.BoundReport(**args, convention=KappaConvention.FROBENIUS)

    @pytest.mark.parametrize(
        "kw,message",
        [
            (dict(p=2.5), "p must be an integer, got 2.5"),
            (dict(n=10.5), "n must be an integer, got 10.5"),
            (dict(p=True), "p must be an integer, got True"),
            (dict(n="10"), "n must be an integer, got '10'"),
            (dict(p=2.5, n=0), "p must be an integer"),
            (dict(n=0.5, sigma=-1.0), "n must be an integer"),
            (dict(sigma=-0.0), "sigma must be finite and nonnegative, got -0.0"),
            (dict(kappa=-0.0), "kappa must be finite and nonnegative, got -0.0"),
            (dict(theta_norm=-0.0), "theta_norm must be finite and nonnegative, got -0.0"),
        ],
        ids=["fractional-p", "fractional-n", "bool-p", "string-n", "p-before-range",
             "n-before-sigma", "negative-zero-sigma", "negative-zero-kappa",
             "negative-zero-theta-norm"])
    def test_fractional_dimensions_and_negative_zeros_are_rejected(self, kw, message):
        args = {**dict(p=3, n=10, sigma=1.0, kappa=2.0, theta_norm=1.5), **kw}
        with pytest.raises(ValueError, match=re.escape(message)):
            cw.BoundReport(**args, convention=KappaConvention.FROBENIUS)

    def test_integral_float_dimensions_are_read_as_ints(self):
        report = cw.BoundReport(3.0, np.int64(10), 1.0, 2.0, 0.0, KappaConvention.FROBENIUS)
        assert (report.p, report.n) == (3, 10)
        assert type(report.p) is int and type(report.n) is int
        assert report == cw.BoundReport(3, 10, 1.0, 2.0, 0.0, KappaConvention.FROBENIUS)
        assert math.copysign(1.0, report.bound_value) == 1.0

    def test_report_computes_what_it_is_not_given(self):
        report = cw.BoundReport(3, 10, 1.0, 2.0, 1.5, KappaConvention.FROBENIUS)
        assert report.log_factor == cw.log_factor(3)
        assert report.bound_value == report.recompute()
        # replace() passes both, so a negative control can set a wrong bound_value.
        assert dataclasses.replace(report, bound_value=1.0).bound_value == 1.0

    def test_norms_are_computed_once_per_model(self, monkeypatch):
        # The SVDs of B and theta run on the first call only; later calls reuse them.
        rng = cw.generator(41)
        m = cw.WishartModel(3, 64, cw.SpdMatrix(np.diag([1.0, 2.0, 3.0])),
                            cw.ShapeSpec.custom(rng.standard_normal((64, 64))))
        calls = []

        def counted(a):
            calls.append(np.shape(a))
            return exact(a)

        exact = linalg.spectral_norm
        for module in (linalg, model_module, bounds):
            monkeypatch.setattr(module, "spectral_norm", counted, raising=False)
        first = [cw.deviation_bound(m, conv) for conv in KappaConvention]
        assert sorted(calls) == [(3, 3), (64, 64)]
        calls.clear()
        second = [cw.deviation_bound(m, conv) for conv in KappaConvention]
        assert calls == []
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


def identity_inversion_oracle(p, theta_norm, tol):
    """Quadratic inversion of the bound for B = I_n: closed-form minimal n.

    With kappa = sqrt(n) and sigma = 1 the bound is c (4 + sqrt(pi n)) / n
    for c = 24 ceil(ln 2p)^2 sqrt(p) theta_norm; solving for sqrt(n) gives the
    positive root of tol m^2 - c sqrt(pi) m - 4c = 0.
    """
    c = 24.0 * cw.log_factor(p) * math.sqrt(p) * theta_norm
    m_star = (c * math.sqrt(math.pi)
              + math.sqrt(c * c * math.pi + 16.0 * tol * c)) / (2.0 * tol)
    base = m_star * m_star

    def g(n):
        return c * (4.0 + math.sqrt(math.pi * n)) / n

    for n in range(max(1, math.floor(base) - 2), math.ceil(base) + 3):
        if g(n) <= tol:
            return n
    raise AssertionError("oracle scan failed")


class TestInvertBound:
    def test_self_consistency(self):
        tol = cw.deviation_bound(identity_model(4, 100)).bound_value
        n = cw.invert_bound_for_n(4, 1.0, tol, cw.identity_family)
        assert n <= 100

    def test_monotone_in_tolerance(self):
        n_loose = cw.invert_bound_for_n(4, 1.0, 50.0, cw.identity_family)
        n_tight = cw.invert_bound_for_n(4, 1.0, 5.0, cw.identity_family)
        assert n_tight >= n_loose

    @pytest.mark.parametrize(
        "p,tolerances",
        [(2, (100.0, 10.0, 1.0)), (4, (100.0, 10.0, 1.0)),
         (8, (100.0, 10.0, 2.0)), (16, (100.0, 10.0, 4.0))],
    )
    def test_matches_closed_form_oracle(self, p, tolerances):
        # Tolerances chosen so the minimal n stays below the 2**20 search cap.
        for tol in tolerances:
            searched = cw.invert_bound_for_n(p, 1.0, tol, cw.identity_family)
            assert searched == identity_inversion_oracle(p, 1.0, tol)

    def test_theta_norm_scales_requirement(self):
        small = cw.invert_bound_for_n(2, 1.0, 10.0, cw.identity_family)
        large = cw.invert_bound_for_n(2, 3.0, 10.0, cw.identity_family)
        assert large >= small

    def test_skew_family_returns_even_n(self):
        n = cw.invert_bound_for_n(3, 1.0, 7.0, cw.skew_block_family)
        assert n % 2 == 0
        # Minimality on the even lattice: the previous even point fails.
        m = cw.WishartModel(3, n, cw.SpdMatrix.identity(3), cw.ShapeSpec.skew_block())
        assert cw.deviation_bound(m).bound_value <= 7.0
        if n > 2:
            prev = cw.WishartModel(3, n - 2, cw.SpdMatrix.identity(3),
                                   cw.ShapeSpec.skew_block())
            assert cw.deviation_bound(prev).bound_value > 7.0

    def test_cap_exceeded(self):
        with pytest.raises(NotAchievableError, match="up to the cap 1048576") as exc:
            cw.invert_bound_for_n(2, 1.0, 1e-9, cw.identity_family)
        assert exc.value.at_cap > 1e-9

    @pytest.mark.parametrize(
        "tol", [0, -1.0, math.nan, math.inf, 10**400, "1", True, None],
        ids=["zero", "negative", "nan", "inf", "int-beyond-float", "string", "bool", "none"])
    def test_tolerance_must_be_finite_positive_number(self, tol):
        with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
            cw.invert_bound_for_n(2, 1.0, tol, cw.identity_family)

    def test_returned_n_is_minimal(self):
        tol = 3.0
        n = cw.invert_bound_for_n(2, 1.0, tol, cw.identity_family)
        assert cw.deviation_bound(identity_model(2, n)).bound_value <= tol
        assert cw.deviation_bound(identity_model(2, n - 1)).bound_value > tol

    def test_family_bugs_propagate(self):
        # Only infeasible-n errors mean "skip this n"; any other error is a bug
        # in the family and must surface, not become "no feasible n".
        def broken(n):
            raise TypeError("broken family")

        with pytest.raises(TypeError, match="broken family"):
            cw.invert_bound_for_n(2, 1.0, 1.0, broken)
        with pytest.raises(TypeError, match="broken family"):
            bounds._feasible(broken, range(16, 0, -1))

    def test_each_n_builds_its_shape_once(self):
        calls = []

        def counting(n):
            calls.append(n)
            return cw.ShapeSpec.identity()

        n = cw.invert_bound_for_n(2, 1.0, 3.0, counting)
        assert n == cw.invert_bound_for_n(2, 1.0, 3.0, cw.identity_family)
        assert len(calls) > 10 and len(set(calls)) == len(calls)

    def test_at_cap_is_the_bound_at_the_last_doubling_point(self):
        # Defined at multiples of 3 only: the doubling walks 3, 6, ..., 3 * 2^18 and
        # stops there, since 3 * 2^19 is past SEARCH_CAP = 2^20.
        def thirds(n):
            if n % 3:
                raise DimensionError(f"defined at multiples of 3 only, got {n}")
            return cw.ShapeSpec.identity()

        with pytest.raises(NotAchievableError) as exc:
            cw.invert_bound_for_n(2, 1.0, 1e-9, thirds)
        last = 3 * 2**18
        assert last <= bounds.SEARCH_CAP < 2 * last
        assert exc.value.at_cap == cw.deviation_bound(identity_model(2, last)).bound_value

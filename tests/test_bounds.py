import math

import numpy as np
import pytest

import cwishart as cw
from cwishart import bounds
from cwishart.bounds import BoundInputs, KappaConvention
from cwishart.errors import (
    NotAchievableError,
    TraceNormalizationError,
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
        base = BoundInputs(p=3, n=10, sigma=1.0, kappa=2.0, theta_norm=1.5)

        def value(**kw):
            inputs = BoundInputs(**{**base.__dict__, **kw})
            report = cw.BoundReport(**inputs.__dict__, convention=KappaConvention.FROBENIUS,
                                    log_factor=cw.log_factor(inputs.p), bound_value=0.0)
            return report.recompute()

        assert value(n=20) < value()
        assert value(sigma=1.1) > value()
        assert value(kappa=2.1) > value()
        assert value(theta_norm=1.6) > value()


class TestSequenceBound:
    def seq(self, index_set=(2, 4)):
        return cw.WishartSequenceSpec(
            2, cw.SpdMatrix.identity(2), index_set, cw.identity_family
        )

    def test_uniform_constants(self):
        report = cw.sequence_bound(self.seq(), 4)
        # Identity family over {2, 4}: kappa = max(sqrt 2, 2), sigma = 1.
        assert report.kappa == 2.0
        assert report.sigma == 1.0

    def test_singleton_equals_single_bound(self):
        seq = self.seq(index_set=(6,))
        single = cw.deviation_bound(identity_model(2, 6), KappaConvention.FROBENIUS)
        assert cw.sequence_bound(seq, 6).bound_value == single.bound_value

    def test_dominates_per_index_bound(self):
        seq = self.seq(index_set=(2, 4, 8))
        for n in seq.index_set:
            per_n = cw.deviation_bound(identity_model(2, n), KappaConvention.FROBENIUS)
            assert cw.sequence_bound(seq, n).bound_value >= per_n.bound_value

    def test_skew_family_violates_normalization(self):
        # The spec rejects the family when it is built, before any bound.
        with pytest.raises(TraceNormalizationError):
            cw.WishartSequenceSpec(
                2, cw.SpdMatrix.identity(2), (2, 4), cw.skew_block_family
            )

    def test_n_outside_index_set(self):
        with pytest.raises(ValueError):
            cw.sequence_bound(self.seq(), 3)


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
        with pytest.raises(NotAchievableError) as exc:
            cw.invert_bound_for_n(2, 1.0, 1e-9, cw.identity_family, cap=2**12)
        assert exc.value.at_cap > 1e-9

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
            bounds._first_feasible(broken, range(16, 0, -1))

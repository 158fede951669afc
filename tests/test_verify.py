import concurrent.futures
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
import warnings
from typing import NamedTuple

import numpy as np
import pytest

import cwishart as cw
from cwishart import linalg, verify
from cwishart import model as model_module
from cwishart.bounds import KappaConvention
from cwishart.errors import DimensionError, InvalidMatrixError, NotAchievableError
from cwishart.linalg import _spectral_norms, canonical_dumps, mix_seed
from cwishart.verify import (
    BLOCK_TRIALS,
    EQUALITY_MARGIN,
    MAX_TRIALS,
    DecouplingReport,
    DominanceReport,
    TrialConfig,
    check_expectation,
    emit_report,
    empirical_sample_complexity,
    identity_theta_rule,
    sweep_scaling,
)
from dense import build_shape


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
        # Three blocks, the last a partial one, merged in order at either worker count.
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


def _mean_abs_chi_square_deviation(n):
    """E|chi2_n - n| / n = 2^(2 - n/2) n^(n/2) e^(-n/2) / (Gamma(n/2) n), through logs."""
    return math.exp((2 - n / 2) * math.log(2) + (n / 2 - 1) * math.log(n) - n / 2
                    - math.lgamma(n / 2))


def _exact_mean_deviation(p, n):
    """E||W - I|| for theta = I and B = I_n, at p = 1 or 2.

    At p = 2, with T = l1 + l2 and r = (l1 - l2) / T for the eigenvalues of
    n W ~ Wishart_2(n, I): T ~ chi2_2n is independent of r, r^2 ~ Beta(1, (n - 1)/2),
    and ||W - I|| = |T/2n - 1| + (T/2n) r, so
    E||W - I|| = E|chi2_2n - 2n| / 2n + (sqrt(pi)/2) Gamma((n + 1)/2) / Gamma(n/2 + 1).
    """
    if p == 1:
        return _mean_abs_chi_square_deviation(n)
    return (_mean_abs_chi_square_deviation(2 * n)
            + math.sqrt(math.pi) / 2 * math.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2 + 1)))


def _exact_skew_block_mean_deviation(n):
    """E||W - E(W)|| for p = 2, theta = I and the skew-block B_n.

    E(W) = 0 and W is antisymmetric, so ||W|| = |W_12|, and n W_12 = x1^T B x2
    is |B^T x1| = chi_n times an independent standard normal:
    E|W_12| = (2 / sqrt(pi)) Gamma((n + 1)/2) / (Gamma(n/2) n).
    """
    return 2 / math.sqrt(math.pi) * math.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2)) / n


def _exact_p_1_mean_deviation(lam, n):
    """E|W - Tr B / n| for p = 1, theta = 1 and any B with (B + B^T)/2 of eigenvalues lam.

    E|W - E(W)| = (2/pi) int_0^inf (1 - Re phi(t)) / t^2 dt, phi(t) = prod_i (1 - 2i
    lam_i t/n)^(-1/2) e^(-it sum(lam)/n): by 200-point Gauss-Legendre in s, t = c s / (1 - s)
    for c = n / ||lam||.  1 - Re phi = 2 sin^2(b/2) - expm1(a) cos b, for log phi = a + ib.
    """
    scale = n / math.sqrt(np.sum(lam * lam))
    x, w = np.polynomial.legendre.leggauss(200)
    s = (x + 1) / 2
    t = scale * s / (1 - s)
    r = np.outer(t, 2 * lam / n)
    a = -0.25 * np.log1p(r * r).sum(axis=1)
    b = 0.5 * np.arctan(r).sum(axis=1) - t * lam.sum() / n
    f = 2 * np.sin(b / 2) ** 2 - np.expm1(a) * np.cos(b)
    return float(np.sum(w * f / s**2)) / (math.pi * scale)


class TestExactMeanDeviation:
    """estimate_mean_deviation against E||W - E(W)|| in closed form, two-sided at 4 se.

    At theta = I_p and B = I_n, W = (1/n) Wishart_p(n, I) and E(W) = I: at p = 1
    W = chi2_n / n, and p = 2 is the first spectral norm of a matrix the oracle
    sees (``_exact_mean_deviation``).  Identity B takes the Gram path (a
    Bartlett factor per trial); a diagonal of ones draws X itself.  The
    skew-block B at p = 2 has its own form (``_exact_skew_block_mean_deviation``),
    checked on its structured path and on the X path with B as a dense matrix.
    At p = 1 any B has E|W - E(W)| as a one-dimensional integral
    (``_exact_p_1_mean_deviation``), pinned to the closed form at B = I.
    """

    TRIALS = 10**5

    def z(self, p, n, ones):
        shape = cw.ShapeSpec.diagonal([1.0] * n) if ones else cw.ShapeSpec.identity()
        return self.z_of(model(p, n, shape), _exact_mean_deviation(p, n))

    def z_of(self, m, exact):
        stats = cw.estimate_mean_deviation(TrialConfig(m, self.TRIALS, mix_seed(277, m.n)))
        return (stats.mean - exact) / stats.stderr

    @pytest.mark.parametrize("ones", [False, True], ids=["gram", "x-path"])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_the_closed_form(self, p, n, ones):
        assert abs(self.z(p, n, ones)) <= EQUALITY_MARGIN

    @pytest.mark.parametrize("dense", [False, True], ids=["gram", "x-path"])
    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_skew_block_matches_the_closed_form(self, n, dense):
        shape = cw.ShapeSpec.skew_block()
        if dense:
            shape = cw.ShapeSpec.custom(build_shape(shape, n))
        z = self.z_of(model(2, n, shape), _exact_skew_block_mean_deviation(n))
        assert abs(z) <= EQUALITY_MARGIN

    @pytest.mark.parametrize("p", [1, 2])
    def test_gram_factor_one_degree_short_is_rejected(self, p, monkeypatch):
        # chi-square(n - i - 1) on the Gram factor's diagonal.  At p = 1 a lost degree
        # shifts and narrows W, and the two nearly cancel in E|W - 1|: |z| = 9.5 at n = 4
        # (8.5 expected), but 3.6 at n = 16 (2.2 expected).  At p = 2, 42.9 and 8.0.
        exact = verify.generator
        monkeypatch.setattr(verify, "generator", lambda seed: _OneDegreeShort(exact(seed)))
        assert abs(self.z(p, 4, ones=False)) > EQUALITY_MARGIN

    @pytest.mark.parametrize("ones", [False, True], ids=["gram", "x-path"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_whitening_by_n_minus_one_is_rejected(self, p, ones, monkeypatch):
        # W scaled by n / (n - 1) at n = 16 on either path: |z| = 24.3 (Gram) and
        # 22.5 (X path) at p = 1, 42.3 and 40.6 at p = 2.
        exact = verify._whiten
        monkeypatch.setattr(verify, "_whiten", lambda w, root, n: exact(w, root, n - 1))
        assert abs(self.z(p, 16, ones)) > EQUALITY_MARGIN

    @pytest.mark.parametrize("n,rel", [(1, 2e-4), (4, 1e-5), (16, 1e-9), (64, 1e-12)])
    def test_p_1_quadrature_matches_the_closed_form(self, n, rel):
        # B = I_n: |phi| falls like t^(-n/2), so the rank-one n = 1 converges slowest.
        assert (_exact_p_1_mean_deviation(np.ones(n), n)
                == pytest.approx(_exact_mean_deviation(1, n), rel=rel))

    @pytest.mark.parametrize("n,shape", [
        (4, cw.ShapeSpec.diagonal([2.0, 0.0, 1.0, -0.5])),
        (6, cw.ShapeSpec.custom(cw.generator(307).standard_normal((6, 6))))],
        ids=["diagonal-with-zero", "custom"])
    def test_p_1_any_shape_matches_the_quadrature(self, n, shape):
        # z = +0.37 for the diagonal, -1.30 for the custom B.
        b = build_shape(shape, n)
        exact = _exact_p_1_mean_deviation(np.linalg.eigvalsh((b + b.T) / 2), n)
        assert abs(self.z_of(model(1, n, shape), exact)) <= EQUALITY_MARGIN

    def test_bound_over_exact_at_p_2(self):
        # The README table: bound / E||W - I|| at p = 2, B = I, theta = I.  Both
        # fall like n^(-1/2); the ratio tends to 96 sqrt(2 pi) / (sqrt(2/pi) + sqrt(pi/2)).
        ratios = [cw.deviation_bound(model(2, n)).bound_value / _exact_mean_deviation(2, n)
                  for n in (1, 4, 16, 64, 256, 1024, 4096)]
        assert [round(r) for r in ratios] == [451, 261, 186, 151, 134, 126, 121]
        limit = 96 * math.sqrt(2 * math.pi) / (math.sqrt(2 / math.pi) + math.sqrt(math.pi / 2))
        assert round(limit) == 117 and limit < ratios[-1]


def _x_path_pairs(m, root, rng, k):
    """(W, W') of the paper: one (k, p, n) Gaussian Y for both, and a fresh Y' for W'."""
    y = rng.standard_normal((k, m.p, m.n))
    y_prime = rng.standard_normal((k, m.p, m.n))
    y_t = y.swapaxes(-1, -2)
    return tuple(model_module._whiten(model_module.apply_shape(a, m.shape, m.n) @ y_t, root, m.n)
                 for a in (y, y_prime))


def _pair_summary(pairs, m, trials, seed):
    """Merged summary of the per-trial (||W - E(W)||, ||W'||, ||W + W'||) under ``pairs``.

    The third entry tells a pair drawn with the right marginals but the wrong
    joint law (independent W and W', say) from the paper's.
    """
    root, w0 = m.theta._root, cw.expected_wishart(m)

    def kernel(rng, k):
        w, w_prime = pairs(m, root, rng, k)
        return np.stack([_spectral_norms(a) for a in (w - w0, w_prime, w + w_prime)])

    return verify._run_blocks(kernel, trials, seed)


def _max_z(a, b):
    """Largest two-sample z of the entrywise means of two summaries."""
    se = np.hypot(a.std / math.sqrt(a.trials), b.std / math.sqrt(b.trials))
    return float(np.max(np.abs(a.mean - b.mean) / se))


STRUCTURED_SIZES = [(2, 8), (3, 10), (8, 8), (4, 256)]
# A diagonal B with 9 nonzero entries: at p = 2 they are past 4p = 8 columns.
PAST_4P_ENTRIES = [0.0, 2.0, 0.0, 0.5, 1.5, 0.0, 3.0, 1.0, 2.5, 0.25, 1.75, 0.5]


def _structured_model(p, n, variant, entries=None):
    theta = cw.SpdMatrix(np.diag(np.linspace(0.5, 2.0, p)) + 0.25)
    return model(p, n, cw.ShapeSpec(variant, entries=entries), theta)


class TestStructuredDraws:
    """The decoupling pair (W, W') shares Y and draws W' as Z R: identity and
    skew-block B from Gram factors, a diagonal B over its nonzero columns only,
    a custom B from the factor of B Y^T; the joint law matches the X path of
    (k, p, n) Gaussian stacks Y and Y'."""

    TRIALS = 20_000

    @pytest.mark.parametrize("variant", ["identity", "skew_block"])
    @pytest.mark.parametrize("p,n", STRUCTURED_SIZES)
    def test_norms_match_the_x_path(self, p, n, variant):
        m = _structured_model(p, n, variant)
        structured = _pair_summary(verify._decoupled_pairs, m, self.TRIALS, mix_seed(191, p * n))
        direct = _pair_summary(_x_path_pairs, m, self.TRIALS, mix_seed(193, p * n))
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
        structured = _pair_summary(verify._decoupled_pairs, m, self.TRIALS, mix_seed(191, p * n))
        direct = _pair_summary(_x_path_pairs, m, self.TRIALS, mix_seed(193, p * n))
        assert _max_z(structured, direct) > EQUALITY_MARGIN

    @pytest.mark.parametrize("p,n,entries", [
        (3, 10, [10.0] + [0.0] * 9),
        (2, 8, [0.0, 2.0, 0.0, 0.5, 1.5, 0.0, 3.0, 1.0]),
        (4, 6, [1.0, -2.0, 0.0, 0.0, 0.5, 0.0]),
        (3, 5, [1.5, -0.5, 0.25, 2.0, -1.0]),
        (2, 12, PAST_4P_ENTRIES),
    ], ids=["rank-one", "half-zero", "signed", "no-zero", "past-4p"])
    def test_zero_columns_match_the_x_path(self, p, n, entries):
        # The nonzero columns only, against the full (k, p, n) draws.  Up to
        # m = 4p columns drawn R is C^T itself; past-4p (m = 9) takes the QR
        # factor.
        m = _structured_model(p, n, "diagonal", entries)
        reduced = _pair_summary(verify._decoupled_pairs, m, self.TRIALS, mix_seed(223, p * n))
        direct = _pair_summary(_x_path_pairs, m, self.TRIALS, mix_seed(227, p * n))
        assert _max_z(reduced, direct) <= EQUALITY_MARGIN

    @pytest.mark.parametrize("p,n", [(3, 8), (4, 3), (2, 12)],
                             ids=["n-above-p", "n-below-p", "n-above-4p"])
    def test_custom_b_pairs_match_the_x_path(self, p, n):
        # A non-symmetric B; with n <= 4p columns R is C^T itself, above 4p its QR factor.
        b = cw.generator(229).standard_normal((n, n)) + np.triu(np.ones((n, n)))
        m = model(p, n, cw.ShapeSpec.custom(b), _structured_model(p, n, "identity").theta)
        pairs = _pair_summary(verify._decoupled_pairs, m, self.TRIALS, mix_seed(233, p * n))
        direct = _pair_summary(_x_path_pairs, m, self.TRIALS, mix_seed(239, p * n))
        assert _max_z(pairs, direct) <= EQUALITY_MARGIN

    def test_dropping_a_nonzero_column_is_rejected(self):
        # The same comparison tells a draw over one nonzero column too few.
        m = _structured_model(2, 8, "diagonal", [0.0, 2.0, 0.0, 0.5, 1.5, 0.0, 3.0, 1.0])
        vars(m.shape)["_nonzero_entries"] = np.array([2.0, 0.5, 1.5, 3.0])
        reduced = _pair_summary(verify._decoupled_pairs, m, self.TRIALS, mix_seed(223, 16))
        direct = _pair_summary(_x_path_pairs, m, self.TRIALS, mix_seed(227, 16))
        assert _max_z(reduced, direct) > EQUALITY_MARGIN

    def test_factor_of_y_alone_is_rejected(self, monkeypatch):
        # R from the QR of Y^T in place of B Y^T: W' = Y' Y^T, the right law
        # only when every nonzero entry of the diagonal is 1.  Nine columns
        # drawn at p = 2 are past 4p, so R is the QR factor.
        entries = np.array([v for v in PAST_4P_ENTRIES if v != 0.0])
        factors = verify._triangular_factors
        monkeypatch.setattr(verify, "_triangular_factors",
                            lambda a: factors(a / entries[:, None]))
        m = _structured_model(2, 12, "diagonal", PAST_4P_ENTRIES)
        reduced = _pair_summary(verify._decoupled_pairs, m, self.TRIALS, mix_seed(223, 24))
        direct = _pair_summary(_x_path_pairs, m, self.TRIALS, mix_seed(227, 24))
        assert _max_z(reduced, direct) > EQUALITY_MARGIN

    def test_diagonal_and_custom_b_draw_the_x_path(self):
        # Same stream, same arithmetic: byte-identical draws of W, also as the
        # first of a decoupling pair.  A diagonal with every entry nonzero,
        # however small or negative, draws every column.
        for shape in (cw.ShapeSpec.diagonal([1.5, 0.5, 1.0, 2.0]),
                      cw.ShapeSpec.diagonal([1.5, -0.5, 1e-300, 2.0]),
                      cw.ShapeSpec.custom(cw.generator(197).standard_normal((4, 4)))):
            m = model(2, 4, shape, cw.SpdMatrix.diagonal([2.0, 0.5]))
            got = verify._wishart_draws(m, m.theta._root, cw.generator(199), 7)
            want = _x_path_pairs(m, m.theta._root, cw.generator(199), 7)[0]
            pair = verify._decoupled_pairs(m, m.theta._root, cw.generator(199), 7)[0]
            assert np.array_equal(got, want) and np.array_equal(pair, want)


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


class TestDecouplingLhsContract:
    """Decoupling's lhs is estimate_mean_deviation on the same config, bit for bit.

    A block draws W as _wishart_draws does and Z after it, so one decoupling
    run gives the dominance statistics too (the acceptance grid relies on it).
    Custom B is taken at m <= 4p (R = M) and at m > 4p (the QR factor).
    """

    SHAPES = {
        "identity": (3, 16, cw.ShapeSpec.identity()),
        "skew": (3, 16, cw.ShapeSpec.skew_block()),
        "diagonal-with-zeros": (3, 8, cw.ShapeSpec.diagonal(
            [2.0, 0.0, 1.0, 0.0, -1.0, 3.0, 0.0, 1.0])),
        "custom": (3, 8, cw.ShapeSpec.custom(cw.generator(283).standard_normal((8, 8)))),
        "custom-qr": (2, 12, cw.ShapeSpec.custom(cw.generator(293).standard_normal((12, 12)))),
    }

    @pytest.mark.parametrize("trials", [2, BLOCK_TRIALS, 2500])
    @pytest.mark.parametrize("name", list(SHAPES))
    def test_lhs_is_the_mean_deviation(self, name, trials):
        p, n, shape = self.SHAPES[name]
        theta = cw.SpdMatrix.diagonal([1.0, 2.0, 0.5][:p])
        cfg = TrialConfig(model(p, n, shape, theta), trials, mix_seed(281, trials))
        for workers in (1, 2, 3):
            lhs = cw.check_wishart_decoupling(cfg, workers).lhs
            stats = cw.estimate_mean_deviation(cfg, workers)
            assert canonical_dumps(lhs.to_dict()) == canonical_dumps(stats.to_dict())


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

    @pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense"])
    @pytest.mark.parametrize("size", [1, 16])
    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_per_trial_sides_match_a_per_matrix_loop(self, p, size, dense, monkeypatch):
        rng = cw.generator(mix_seed(263, 100 * p + size))
        mats = list(rng.standard_normal((size, p, p)))
        g = rng.standard_normal((p, p))
        theta = cw.SpdMatrix(g @ g.T + np.eye(p)) if dense else cw.SpdMatrix.identity(p)
        kernels, run = [], verify._run_blocks
        monkeypatch.setattr(verify, "_run_blocks",
                            lambda kernel, *a: kernels.append(kernel) or run(kernel, *a))
        cw.check_chaos_decoupling(mats, theta, 2, 0)
        k = 300
        got = kernels[0](cw.generator(269), k)
        z, z_prime = cw.generator(269).standard_normal((2, k, p)) @ theta._root
        want, scale = np.zeros((k, 2)), np.zeros((k, 2))
        for b in mats:
            trace = float(np.trace(b @ theta.array))
            sides = (np.abs((z @ b.T * z).sum(axis=1) - trace),
                     np.abs((z @ b.T * z_prime).sum(axis=1)))
            # The sums of absolute terms, the scale of each side's rounding error.
            terms = (np.abs(z) @ np.abs(b).T * np.abs(z)).sum(axis=1) + abs(trace), (
                np.abs(z) @ np.abs(b).T * np.abs(z_prime)).sum(axis=1)
            want = np.maximum(want, np.column_stack(sides))
            scale = np.maximum(scale, np.column_stack(terms))
        assert got.shape == (2, k)
        assert np.all(np.abs(got.T - want) <= 1e-13 * scale)

    def test_block_memory_of_a_large_family(self, monkeypatch):
        # p = 60, M = 16: B_m z for one block of the whole family is 7.9 MB.
        # The reference is the same kernel with the trials first, (t, m, i).
        mats = list(cw.generator(5).standard_normal((16, 60, 60)))
        theta = cw.SpdMatrix.identity(60)
        stack, root = np.stack(mats), theta._root
        traces = np.einsum("kij,ji->k", stack, theta.array)

        def trials_first(rng, k):
            z, z_prime = rng.standard_normal((2, k, 60)) @ root
            bz = np.einsum("mij,tj->tmi", stack, z)
            lhs = np.abs(np.einsum("tmi,ti->tm", bz, z) - traces).max(axis=1)
            rhs = np.abs(np.einsum("tmi,ti->tm", bz, z_prime)).max(axis=1)
            return np.stack((lhs, rhs), axis=1)

        kernels, run = [trials_first], verify._run_blocks
        monkeypatch.setattr(verify, "_run_blocks",
                            lambda kernel, *a: kernels.append(kernel) or run(kernel, *a))
        cw.check_chaos_decoupling(mats, theta, 2, 1)
        peaks, results = [], []
        for kernel in kernels:
            tracemalloc.start()
            try:
                results.append(kernel(cw.generator(3), BLOCK_TRIALS))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        np.testing.assert_allclose(results[1], results[0].T, rtol=1e-12)
        assert peaks[1] <= peaks[0]

    def test_list_size_validated(self):
        with pytest.raises(ValueError):
            cw.check_chaos_decoupling([], cw.SpdMatrix.identity(2), 10, 0)
        with pytest.raises(DimensionError):
            cw.check_chaos_decoupling([np.eye(3)], cw.SpdMatrix.identity(2), 10, 0)

    @pytest.mark.parametrize("bad,error,message", [
        (lambda fam: fam.__setitem__(2, np.full((2, 2), np.nan)), InvalidMatrixError,
         "matrices[2] contains non-finite entries"),
        (lambda fam: fam.__setitem__(1, [[1.0, math.inf], [0.0, 1.0]]), InvalidMatrixError,
         "matrices[1] contains non-finite entries"),
        (lambda fam: fam.__setitem__(1, np.eye(3)), DimensionError,
         "matrices[1] is (3, 3), expected (2, 2)"),
        (lambda fam: fam.__setitem__(3, np.ones((2, 3))), DimensionError,
         "matrices[3] is (2, 3), expected (2, 2)"),
        (lambda fam: fam.__setitem__(0, [1.0, 2.0]), InvalidMatrixError,
         "matrices[0] must be 2-dimensional, got ndim=1"),
        (lambda fam: fam.__setitem__(1, "ab"), ValueError, "could not convert string"),
        (lambda fam: fam.clear(), ValueError, "1..16 members, got 0"),
        (lambda fam: fam.extend([np.eye(2)] * 13), ValueError, "1..16 members, got 17"),
        # A bad member of an overlong list is named first, as it always was.
        (lambda fam: fam.extend([np.eye(2)] * 12 + [np.full((2, 2), np.inf)]),
         InvalidMatrixError, "matrices[16] contains non-finite entries"),
        (lambda fam: fam.extend([np.eye(3)] * 13), ValueError, "1..16 members, got 17"),
    ], ids=["nan", "inf-in-a-list", "wrong-size", "ragged", "one-dimensional", "string",
            "empty", "seventeen", "seventeen-with-inf", "seventeen-and-wrong-size"])
    def test_bad_family_names_its_member(self, bad, error, message):
        family = [cw.generator(281).standard_normal((2, 2)) for _ in range(4)]
        bad(family)
        with pytest.raises(error, match=re.escape(message)):
            cw.check_chaos_decoupling(family, cw.SpdMatrix.identity(2), 10, 0)

    def test_family_as_one_array_or_as_members(self):
        # A (M, p, p) array, a list of lists and a list of arrays are one family.
        family = cw.generator(283).standard_normal((5, 3, 3))
        theta = cw.SpdMatrix.diagonal([1.0, 2.0, 3.0])
        reports = {canonical_dumps(cw.check_chaos_decoupling(f, theta, 1500, 7).to_dict())
                   for f in (family, family.tolist(), list(family))}
        assert len(reports) == 1


def _oracle_blocks(seed, trials):
    """(generator, k) of each block of the engine, in block order."""
    for b in range(-(-trials // BLOCK_TRIALS)):
        yield cw.generator(mix_seed(seed, b)), min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS)


def _oracle_root(theta):
    values, vectors = np.linalg.eigh(theta)
    return vectors @ np.diag(np.sqrt(values)) @ vectors.T


def _chaos_oracle(mats, theta, trials, seed):
    """Per-trial (lhs, rhs) rows of the chaos check, one matrix-vector product at a time.

    A block draws its (2, k, p) standard normals; trial t takes z from row t of
    the first (k, p) half and z' from row t of the second, each times theta^{1/2}.
    """
    root, traces = _oracle_root(theta), [float(np.trace(b @ theta)) for b in mats]
    rows = []
    for rng, k in _oracle_blocks(seed, trials):
        draws = rng.standard_normal((2, k, theta.shape[0]))
        for t in range(k):
            z, z_prime = root @ draws[0, t], root @ draws[1, t]
            rows.append((max(abs((b @ z) @ z - trace) for b, trace in zip(mats, traces)),
                         max(abs((b @ z) @ z_prime) for b in mats)))
    return np.array(rows)


def _expectation_oracle(entries, n, theta, trials, seed):
    """Per-trial W for a diagonal B, one matrix-vector product at a time.

    A block draws a (k, p, m) standard normal Y over the m nonzero entries b_j
    of B, and W = (1/n) sum_j b_j (root y_j)(root y_j)^T for the columns y_j.
    """
    root, p = _oracle_root(theta), theta.shape[0]
    draws = []
    for rng, k in _oracle_blocks(seed, trials):
        y = rng.standard_normal((k, p, len(entries)))
        for t in range(k):
            w = np.zeros((p, p))
            for j, b in enumerate(entries):
                u = root @ y[t, :, j]
                w += b * np.outer(u, u)
            draws.append(w / n)
    return np.array(draws)


def _oracle_stats(values):
    """(mean, stderr, max) over the trials on axis 0."""
    return (values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(len(values)),
            values.max(axis=0))


class TestKernelsMatchAPerTrialOracle:
    """The chaos and expectation kernels against a plain per-trial loop on the same stream.

    1500 trials are one full block and one partial block.  Means and maxima
    agree to 1e-12 relative, standard errors (summed at another scale and in
    another order) to 1e-9; an oracle with theta = I in place of the SPD theta
    does not.
    """

    TRIALS = 1500
    SEED = 311

    @staticmethod
    def agrees(got, want, rel):
        return all(np.allclose(g, w, rtol=r, atol=0.0) for g, w, r in zip(got, want, rel))

    def chaos(self, oracle_theta):
        rng = cw.generator(313)
        mats = list(rng.standard_normal((5, 3, 3)))
        g = rng.standard_normal((3, 3))
        theta = g @ g.T + np.eye(3)
        report = cw.check_chaos_decoupling(mats, cw.SpdMatrix(theta), self.TRIALS, self.SEED)
        mean, stderr, high = _oracle_stats(
            _chaos_oracle(mats, theta if oracle_theta is None else oracle_theta,
                          self.TRIALS, self.SEED))
        got = [[getattr(side, key) for side in (report.lhs, report.rhs)]
               for key in ("mean", "max", "stderr")]
        return self.agrees(got, (mean, high, stderr), (1e-12, 1e-12, 1e-9))

    def expectation(self, oracle_theta):
        # The benchmark's expectation model: p = 3, n = 10, B = diag(10, 0, ..., 0).
        theta = np.diag([1.0, 2.0, 3.0])
        m = model(3, 10, cw.ShapeSpec.diagonal([10.0] + [0.0] * 9), cw.SpdMatrix(theta))
        report = check_expectation(TrialConfig(m, self.TRIALS, self.SEED))
        mean, stderr, _ = _oracle_stats(
            _expectation_oracle([10.0], 10, theta if oracle_theta is None else oracle_theta,
                                self.TRIALS, self.SEED))
        return self.agrees((report.mean_matrix, report.stderr_matrix), (mean, stderr),
                           (1e-12, 1e-9))

    @pytest.mark.parametrize("check", ["chaos", "expectation"])
    def test_matches_the_oracle(self, check):
        assert getattr(self, check)(None)

    @pytest.mark.parametrize("check", ["chaos", "expectation"])
    def test_an_unwhitened_oracle_is_rejected(self, check):
        assert not getattr(self, check)(np.eye(3))


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


def _scaled(value, exp, keep=frozenset({"margin", "ratio", "sigma", "kappa"})):
    """A report dict with every float scaled by 2**exp, except the scale-free fields."""
    if isinstance(value, dict):
        return {k: v if k in keep else _scaled(v, exp) for k, v in value.items()}
    if isinstance(value, list):
        return [_scaled(v, exp) for v in value]
    return float(np.ldexp(value, exp)) if type(value) is float else value


def _theta_reports(theta):
    """(report dict, k) for each theta check on theta: 4**j theta scales the report by 2**(k j)."""
    diagonal = cw.ShapeSpec.diagonal([2.0, 0.0, 1.0, 1.0, 0.5, 1.5, 0.0, 2.0])
    mats = list(cw.generator(61).standard_normal((3, 3, 3)))
    reports = [
        check_expectation(TrialConfig(model(3, 8, diagonal, theta), 300, 53)),
        cw.check_bound_dominance(TrialConfig(model(3, 8, theta=theta), 300, 54)),
        cw.check_wishart_decoupling(TrialConfig(model(3, 8, diagonal, theta), 300, 55)),
        cw.check_chaos_decoupling(mats, theta, 300, 56),
    ]
    return [(r.to_dict(), 2) for r in reports] + [
        (cw.check_linear_form_std(theta, [1.0, -2.0, 0.5], 300, 57).to_dict(), 1)]


class TestThetaScaling:
    """4**j theta gives every theta check's report scaled by 2**j or 4**j, bit for bit."""

    g = cw.generator(0).standard_normal((3, 3))
    theta = cw.SpdMatrix(g @ g.T + np.eye(3))

    @pytest.mark.parametrize("j", [-300, -255, -100, -20, 1, 200, 255, 300, 500])
    def test_reports_scale_exactly(self, j):
        scaled = cw.SpdMatrix(np.ldexp(self.theta.array, 2 * j))
        for (base, power), (got, _) in zip(_theta_reports(self.theta), _theta_reports(scaled)):
            assert got == _scaled(base, power * j)


class TestShapeScaling:
    """2^j (B, t_grid) scales the concentration report's norms and statistics by
    2^j, bit for bit, and leaves its tails and verdicts as they are; 2^j B
    scales the decoupling statistics by 2^j and leaves the verdict."""

    TRIALS = 64
    grid = [0.0, 0.1, 0.3, 1.0]
    shapes = {
        "diagonal": (np.array([2.0, 0.0, 1.0, 1.0, 0.5, 1.5, 0.0, 2.0]),
                     lambda b: cw.ShapeSpec.diagonal(b.tolist())),
        "custom": (cw.generator(3).standard_normal((8, 8)), cw.ShapeSpec.custom),
    }

    def run(self, name, j):
        b, shape = self.shapes[name]
        return cw.check_concentration(model(3, 8, shape(np.ldexp(b, j))), [0.6, 0.0, 0.8],
                                      [math.ldexp(t, j) for t in self.grid], self.TRIALS, 5)

    @pytest.mark.parametrize("name", ["diagonal", "custom"])
    def test_concentration_scales_exactly(self, name):
        b = self.shapes[name][0]
        base = self.run(name, 0)
        values = [abs(float(v)) for v in (*b.ravel(), *self.grid, base.lipschitz,
                                          base.mean_bound, base.mean_value) if v != 0.0]
        exps = [math.frexp(v)[1] for v in values]
        # Every j at which all of them stay normal floats, with 2^9 to spare at
        # the top for the Gaussian draws (|g| < 8) and the sum over 64 trials.
        for j in range(-1021 - min(exps), 1016 - max(exps)):
            got = self.run(name, j)
            for field in ("lipschitz", "mean_bound", "mean_value", "mean_stderr"):
                assert getattr(got, field) == math.ldexp(getattr(base, field), j), (j, field)
            for field in ("theoretical_tails", "empirical_tails", "tail_stderr", "asserted",
                          "mean_ok", "holds"):
                assert getattr(got, field) == getattr(base, field), (j, field)

    def run_decoupling(self, name, j):
        b, shape = self.shapes[name]
        return cw.check_wishart_decoupling(
            TrialConfig(model(3, 8, shape(np.ldexp(b, j))), self.TRIALS, 5))

    @pytest.mark.parametrize("name", ["diagonal", "custom"])
    def test_decoupling_scales_exactly(self, name):
        # W' = Z R takes R from a Householder QR of the scaled B Y^T.
        b = self.shapes[name][0]
        base = self.run_decoupling(name, 0)
        stats = [getattr(side, f) for side in (base.lhs, base.rhs)
                 for f in ("mean", "stderr", "max")]
        exps = [math.frexp(abs(float(v)))[1] for v in (*b.ravel(), *stats) if v != 0.0]
        for j in range(-1021 - min(exps), 1016 - max(exps)):
            got = self.run_decoupling(name, j)
            for side in ("lhs", "rhs"):
                for field in ("mean", "stderr", "max"):
                    want = math.ldexp(getattr(getattr(base, side), field), j)
                    assert getattr(getattr(got, side), field) == want, (j, side, field)
            assert got.holds == base.holds, j


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

    def test_overflowing_draws_are_rejected(self):
        # B near 2^1021: some draws of W overflow to inf (inf - inf to NaN) before
        # any sum.  Their norms are inf, not a LAPACK failure to converge, and the
        # engine's finite check reports the overflow.
        b = cw.ShapeSpec.diagonal([math.ldexp(v, 1019) for v in (2, 0, 1, 1, 0.5, 1.5, 0, 2)])
        with pytest.raises(ValueError, match="Monte Carlo statistics overflow"):
            cw.check_wishart_decoupling(TrialConfig(model(3, 8, shape=b), 64, 5))

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
        x = cw.generator(1).standard_normal((2, 4))
        zero = cw.ShapeSpec.diagonal([0.0] * 4)
        assert verify._conditional_stds(zero, np.array([1.0, 0.0]) @ x, 2) == 0.0

    def test_identity_shape_row_norm(self):
        x = cw.generator(2).standard_normal((3, 8))
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

    def test_theta_must_be_identity(self):
        # Both checks draw g = X^T d ~ N(0, I_n), which needs theta = I; drawn so
        # at theta = diag(4, 1), the Lipschitz count read 0 for a law it never sampled.
        m = model(2, 8, theta=cw.SpdMatrix.diagonal([4.0, 1.0]))
        with pytest.raises(ValueError, match="^concentration check requires theta = I"):
            cw.check_concentration(m, [1.0, 0.0], [0.0], 2000, 5)
        with pytest.raises(ValueError, match="^Lipschitz count requires theta = I"):
            cw.count_lipschitz_violations(m, [1.0, 0.0], 2000, 5)


class TestConcentration:
    def cfgmodel(self):
        return model(3, 16)

    def test_zero_t_has_half_tail_bound(self):
        report = cw.check_concentration(self.cfgmodel(), [1, 0, 0], [0.0], 2000, 59)
        assert report.theoretical_tails == (0.5,)
        assert report.holds

    @pytest.mark.parametrize("shape", [cw.ShapeSpec.diagonal([0.0] * 4),
                                       cw.ShapeSpec.custom(np.zeros((4, 4)))],
                             ids=["diagonal", "custom"])
    def test_zero_shape(self, shape):
        # sigma = mean_bound = 0 in every trial, so no trial is past mean_bound + t.
        report = cw.check_concentration(model(2, 4, shape), [1.0, 0.0], [0.0, 0.5], 2000, 59)
        assert report.mean_bound == 0.0 and report.mean_value == 0.0
        assert report.empirical_tails == (0.0, 0.0) and report.theoretical_tails == (0.5, 0.0)
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

    def test_sigma_past_the_largest_float_is_rejected(self):
        # s(X) = (sqrt(3) / 16) 1e308 ||g|| overflows: inf - inf is NaN, and
        # NaN > x is false, so the violation count alone would read 0.  The
        # engine's finite check is the only overflow signal from the blocks.
        m = model(3, 16, shape=cw.ShapeSpec.diagonal([1e308] * 16))
        for workers in (1, 2):
            with pytest.raises(ValueError, match="overflow"):
                cw.count_lipschitz_violations(m, [1, 0, 0], 3000, 67, workers)
        # ||B||_F = 4e308 is itself past the float range, so computing the mean
        # bound warns once, before any block runs.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="overflow"):
                cw.check_concentration(m, [1, 0, 0], [0.0], 1000, 67)
        assert len(caught) == 1 and str(caught[0].message).startswith("overflow encountered")

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


def _x_path_sigma(m, b, x, d):
    """sigma = (sqrt(p) / n) ||B X^T d|| of each X in a (k, p, n) stack, B dense."""
    return math.sqrt(m.p) / m.n * np.linalg.norm(np.einsum("lj,tij,i->tl", b, x, d), axis=-1)


def _x_path_concentration(m, d, thresholds, trials, seed):
    """Summary of (sigma, tail indicators) per trial from full p x n draws of X."""
    b = build_shape(m.shape, m.n)

    def kernel(rng, k):
        s = _x_path_sigma(m, b, rng.standard_normal((k, m.p, m.n)), d)
        return np.vstack((s, s > thresholds[:, None]), dtype=np.float64)

    return verify._run_blocks(kernel, trials, seed)


CONCENTRATION_SHAPES = {
    "identity": (3, 16, cw.ShapeSpec.identity()),
    "skew": (3, 16, cw.ShapeSpec.skew_block()),
    "diagonal-with-zero": (2, 8, cw.ShapeSpec.diagonal([0.0, 2.0, 0.0, 0.5, 1.5, 0.0, 3.0, 1.0])),
    "custom": (3, 8, cw.ShapeSpec.custom(cw.generator(233).standard_normal((8, 8)))),
}


class _OneDegreeShort:
    """A generator whose chi-square variates have one degree of freedom too few."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def chisquare(self, df, size):
        return self.rng.chisquare(df - 1, size)


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
        exact = verify.generator
        monkeypatch.setattr(verify, "generator", lambda seed: _OneDegreeShort(exact(seed)))
        assert self.compare("identity", monkeypatch) > EQUALITY_MARGIN


def _lipschitz_row(s1, s2, dist_sq):
    """Per pair: |s1 - s2|, ||X1 - X2||_F^2, their Lipschitz ratio, and (s1^2 + s2^2) ||X1 - X2||_F^2.

    The last one tells the joint law from one with the same marginals at any
    n: ||g1 - g2||^2 and ||g1||^2 + ||g2||^2 have covariance 4n, and
    independent draws of the two would have none.
    """
    lhs = np.abs(s1 - s2)
    return np.stack((lhs, dist_sq, lhs / np.sqrt(dist_sq), (s1 * s1 + s2 * s2) * dist_sq))


def _x_path_lipschitz(m, d, trials, seed):
    """Summary of _lipschitz_row per pair from full p x n draws of X1 and X2."""
    b = build_shape(m.shape, m.n)

    def kernel(rng, k):
        x1, x2 = rng.standard_normal((2, k, m.p, m.n))
        return _lipschitz_row(_x_path_sigma(m, b, x1, d), _x_path_sigma(m, b, x2, d),
                              np.square(x1 - x2).sum(axis=(1, 2)))

    return verify._run_blocks(kernel, trials, seed)


class TestLipschitzDraws:
    """A Lipschitz pair for orthogonal B is three variates; its law matches two full X draws."""

    TRIALS = 20_000
    CASES = [("identity", 1), ("identity", 2), ("identity", 16), ("skew_block", 2),
             ("skew_block", 16)]

    def compare(self, variant, n):
        """Max two-sample |z| of the _lipschitz_row means against the X path (p = 2)."""
        m, d = model(2, n, cw.ShapeSpec(variant)), np.array([0.6, 0.8])
        seed = mix_seed(271, self.CASES.index((variant, n)))
        drawn = verify._run_blocks(
            lambda rng, k: _lipschitz_row(*verify._lipschitz_pairs(m, rng, k)), self.TRIALS, seed)
        direct = _x_path_lipschitz(m, d, self.TRIALS, mix_seed(277, seed))
        return _max_z(drawn, direct)

    @pytest.mark.parametrize("variant,n", CASES)
    def test_pairs_match_the_x_path(self, variant, n):
        assert self.compare(variant, n) <= EQUALITY_MARGIN

    def test_chi_square_one_degree_short_is_rejected(self, monkeypatch):
        # Every chi-square of the pair and of the rest of ||X1 - X2||_F one
        # degree short at n = 16: ||X1 - X2||_F^2 has mean 60, not 64.
        exact = verify.generator
        monkeypatch.setattr(verify, "generator", lambda seed: _OneDegreeShort(exact(seed)))
        assert self.compare("identity", 16) > EQUALITY_MARGIN


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

    def test_diagonal_family_search(self):
        # The bound inversion builds 46 seeded diagonals, up to n of about 10^6.
        table = empirical_sample_complexity(
            [8], 2.0, cw.normalized_diagonal_family(5), cw.SpdMatrix.identity, 200, 3
        )
        assert [(row.empirical_n, row.theoretical_n) for row in table.rows] == [(32, 599880)]

    def test_cap_exceeded(self):
        # The doubling reaches SEARCH_CAP = 2^20 in 21 cheap Gram-factor estimates.
        with pytest.raises(NotAchievableError, match="up to the cap 1048576 at p = 2"):
            empirical_sample_complexity(
                [2], 1e-6, cw.identity_family, identity_theta_rule, 50, 101
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
        # A partial last block (1 and 3 trials) with 1, 2 and 3 workers.
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
        x = 3.0 + cw.generator(167).standard_normal((2, 3, 2 * BLOCK_TRIALS + 1))
        parts = (x[..., :BLOCK_TRIALS], x[..., BLOCK_TRIALS:-1], x[..., -1:])
        merged = verify._Summary.of_block(np.ascontiguousarray(parts[0]))
        for part in parts[1:]:
            merged = merged.merge(verify._Summary.of_block(np.ascontiguousarray(part)))
        assert merged.trials == x.shape[-1]
        np.testing.assert_allclose(merged.mean, x.mean(axis=-1), rtol=1e-12)
        np.testing.assert_allclose(merged.std, x.std(axis=-1, ddof=1), rtol=1e-12)
        assert np.array_equal(merged.max, x.max(axis=-1))

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


class _TrialsFirstSummary(NamedTuple):
    """The summary of per-trial results with the trials first, kept as the reference.

    The engine's summary reads kernels' results with the trials last; its
    statistics must equal these bit for bit.
    """

    trials: int
    total: np.ndarray
    sq_dev: np.ndarray
    max: np.ndarray
    exp: np.ndarray

    @classmethod
    def of_block(cls, results):
        x = np.ascontiguousarray(np.moveaxis(np.asarray(results, dtype=np.float64), 0, -1))
        total, high = x.sum(axis=-1), x.max(axis=-1)
        exp = np.frexp(np.maximum(high, -x.min(axis=-1)))[1]
        dev = np.ldexp(x - (total / x.shape[-1])[..., None], -exp[..., None])
        return cls(x.shape[-1], total, (dev * dev).sum(axis=-1), high, exp)

    def merge(self, other):
        trials = self.trials + other.trials
        exp = np.maximum(self.exp, other.exp)
        with np.errstate(over="ignore", invalid="ignore"):
            delta = np.ldexp(other.total / other.trials - self.total / self.trials, -exp)
            sq_dev = (np.ldexp(self.sq_dev, 2 * (self.exp - exp))
                      + np.ldexp(other.sq_dev, 2 * (other.exp - exp))
                      + delta * delta * (self.trials * other.trials / trials))
            total = self.total + other.total
        return _TrialsFirstSummary(trials, total, sq_dev, np.maximum(self.max, other.max), exp)


def _trials_first_run(draw, trials, seed):
    """The reference summary of ``draw(rng, k)``, a (k, ...) array, merged in block order."""
    summary = None
    for b in range(-(-trials // BLOCK_TRIALS)):
        k = min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS)
        with np.errstate(over="ignore", invalid="ignore"):
            part = _TrialsFirstSummary.of_block(draw(cw.generator(mix_seed(seed, b)), k))
        summary = part if summary is None else summary.merge(part)
    return summary


def _trials_last(draw):
    """The engine kernel of ``draw``: its (k, ...) result with the trials moved last."""
    return lambda rng, k: np.ascontiguousarray(np.moveaxis(draw(rng, k), 0, -1))


def _scaled_normals(shape, scale, offset=0.0):
    return lambda rng, k: offset + scale * rng.standard_normal((k,) + shape)


class TestTrialsLastSummary:
    """The engine's trials-last summary equals the trials-first reference bit for bit."""

    SHAPES = [(), (2,), (6,), (3, 3)]

    @staticmethod
    def assert_bit_equal(got, want):
        assert got.trials == want.trials
        for field in ("total", "sq_dev", "max", "exp"):
            g, w = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes()), field

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("values", [
        (1.0, 3.0), (2.0**1000, 0.0), (2.0**-1000, 2.0**-999), (0.0, 0.0), (0.0, -7.25),
    ], ids=["unit", "near-2^1000", "near-2^-1000", "all-zero", "constant"])
    @pytest.mark.parametrize("trials", [2, BLOCK_TRIALS + 1, 3 * BLOCK_TRIALS + 5],
                             ids=["two", "partial-last-block", "four-blocks"])
    def test_statistics_equal_the_trials_first_reference(self, shape, values, trials):
        draw = _scaled_normals(shape, *values)
        want = _trials_first_run(draw, trials, 293)
        self.assert_bit_equal(verify._run_blocks(_trials_last(draw), trials, 293), want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_worker_counts_equal_the_reference(self, monkeypatch, shape, workers):
        # Four blocks, the last a partial one, with one to three workers: with
        # the floor at 0, two threads do run blocks 2 and 3.
        monkeypatch.setattr(verify, "_POOL_MIN_BLOCK_S", 0.0)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        draw = _scaled_normals(shape, 2.0, 1.0)
        want = _trials_first_run(draw, 3 * BLOCK_TRIALS + 5, 307)
        got = verify._run_blocks(_trials_last(draw), 3 * BLOCK_TRIALS + 5, 307, workers)
        self.assert_bit_equal(got, want)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_blocks_with_distant_means(self, shape):
        # Each block is shifted by its own offset, so the merge's term in the
        # difference of the means dominates the squared deviations.
        def draw(rng, k):
            return 1e3 * rng.standard_normal() + rng.standard_normal((k,) + shape)

        want = _trials_first_run(draw, 5 * BLOCK_TRIALS + 7, 317)
        self.assert_bit_equal(
            verify._run_blocks(_trials_last(draw), 5 * BLOCK_TRIALS + 7, 317, 2), want)

    def test_zero_and_constant_rows_have_no_spread(self):
        def draw(rng, k):
            x = rng.standard_normal((k, 3, 3))
            x[:, 0] = 0.0
            x[:, 1] = -2.5
            return x

        trials = 2 * BLOCK_TRIALS + 3
        got = verify._run_blocks(_trials_last(draw), trials, 311, 2)
        self.assert_bit_equal(got, _trials_first_run(draw, trials, 311))
        assert not got.sq_dev[:2].any() and not got.std[:2].any()
        assert np.array_equal(got.mean[:2], [[0.0] * 3, [-2.5] * 3])

    @staticmethod
    def deviation_past_the_largest_float(rng, k):
        # One trial at the largest float, the rest pulling the mean to about
        # -0.2 * 1.8e308 / k: every sum is finite, that trial's deviation is not.
        x = np.full(k, -1.2 / (k - 1) * np.finfo(float).max)
        x[0] = np.finfo(float).max
        return x

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("draw,total_finite", [
        (_scaled_normals((2,), 2.0**1022, 2.0**1023), False),
        (_scaled_normals((), 1.0, math.inf), False),
        (deviation_past_the_largest_float, True),
    ], ids=["block-sum", "inf-value", "deviation-only"])
    def test_overflow_raises_where_the_reference_is_not_finite(self, draw, total_finite, workers):
        draw = getattr(draw, "__func__", draw)
        want = _trials_first_run(draw, 3 * BLOCK_TRIALS, 313)
        assert np.isfinite(want.total).all() == total_finite
        assert not np.isfinite(want.sq_dev).all() or not total_finite
        assert not all(np.isfinite(a).all() for a in want[1:])
        with pytest.raises(ValueError, match="Monte Carlo statistics overflow"):
            verify._run_blocks(_trials_last(draw), 3 * BLOCK_TRIALS, 313, workers)


class _InlinePool:
    """A stand-in for ThreadPoolExecutor that starts no thread.

    It runs each block when it is submitted, and records the pool size asked
    for and the most blocks submitted but not yet read at once.
    """

    def __init__(self, max_workers):
        self.max_workers, self.pending, self.peak = max_workers, 0, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        summary = fn(*args)
        self.pending += 1
        self.peak = max(self.peak, self.pending)
        return _InlineFuture(self, summary)


class _InlineFuture(NamedTuple):
    pool: _InlinePool
    summary: object

    def result(self):
        self.pool.pending -= 1
        return self.summary


@pytest.fixture
def inline_pools(monkeypatch):
    """Every pool the engine asks for, as an _InlinePool: no thread starts."""
    pools = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda max_workers: pools.append(_InlinePool(max_workers)) or pools[-1])
    return pools


class TestThreadPool:
    """Threads run only blocks that are heavy enough to pay, never more than the CPUs."""

    @staticmethod
    def normals(rng, k):
        return rng.standard_normal(k)

    @staticmethod
    def clock(monkeypatch):
        """verify's clock, as a list whose one entry a kernel may advance."""
        now = [0.0]
        monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        return now

    def test_light_checks_start_no_pool(self, monkeypatch):
        # Each block is read as 0.3 ms, the slowest light block measured, so
        # the choice does not depend on the load of the machine running it.
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        now = self.clock(monkeypatch)
        of_block = verify._Summary.of_block
        monkeypatch.setattr(verify._Summary, "of_block",
                            lambda x: now.__setitem__(0, now[0] + 3e-4) or of_block(x))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        mats = [cw.generator(341).standard_normal((3, 3)) for _ in range(4)]
        assert cw.check_linear_form_std(
            cw.SpdMatrix.diagonal([4.0, 1.0, 2.0]), [1.0, 0.5, -1.0], 4000, 11, 2).holds
        assert cw.check_chaos_decoupling(mats, cw.SpdMatrix.identity(3), 10**4, 13, 2).holds
        assert cw.check_concentration(
            model(3, 16), [1.0, 0.0, 0.0], [0.0, 0.1], 10**4, 17, 2).holds
        assert now[0] == pytest.approx(3e-4 * (4 + 10 + 10))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_reports_equal_one_worker(self, monkeypatch, workers):
        # Five blocks, the last a partial one: two run in the calling thread,
        # three in the pool, for every kernel and every summary shape.
        sizes, shapes = [], set()
        real_pool, merge = concurrent.futures.ThreadPoolExecutor, verify._Summary.merge
        monkeypatch.setattr(verify, "_POOL_MIN_BLOCK_S", 0.0)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(
            concurrent.futures, "ThreadPoolExecutor",
            lambda max_workers: sizes.append(max_workers) or real_pool(max_workers))
        monkeypatch.setattr(verify._Summary, "merge",
                            lambda a, b: shapes.add(a.total.shape) or merge(a, b))
        trials = 4 * BLOCK_TRIALS + 5
        m = model(3, 8, shape=cw.ShapeSpec.skew_block(),
                  theta=cw.SpdMatrix.diagonal([1.0, 2.0, 0.5]))
        m_custom = model(3, 8, shape=cw.ShapeSpec.custom(cw.generator(151).standard_normal((8, 8))),
                         theta=cw.SpdMatrix.diagonal([1.0, 2.0, 0.5]))
        mats = [cw.generator(109).standard_normal((3, 3)) for _ in range(2)]
        checks = [
            lambda w: cw.check_linear_form_std(
                cw.SpdMatrix.diagonal([4.0, 1.0]), [1.0, 1.0], trials, 131, w).to_dict(),
            lambda w: cw.check_wishart_decoupling(TrialConfig(m, trials, 113), w).to_dict(),
            lambda w: cw.check_wishart_decoupling(TrialConfig(m_custom, trials, 157), w).to_dict(),
            lambda w: cw.check_chaos_decoupling(
                mats, cw.SpdMatrix.identity(3), trials, 127, w).to_dict(),
            lambda w: cw.check_concentration(
                model(3, 8), [1.0, 0.0, 0.0], [0.0, 0.02, 0.05, 0.1, 0.2], trials, 139,
                w).to_dict(),
            lambda w: check_expectation(TrialConfig(m, trials, 133), w).to_dict(),
            lambda w: cw.check_bound_dominance(TrialConfig(m, trials, 137), workers=w).to_dict(),
            lambda w: cw.count_lipschitz_violations(model(3, 8), [0.0, 1.0, 0.0], trials, 149, w),
        ]
        for run in checks:
            assert canonical_dumps(run(1)) == canonical_dumps(run(workers))
        assert sizes == [workers] * len(checks)
        assert shapes == {(), (2,), (6,), (3, 3)}

    @pytest.mark.parametrize("draw", [
        _scaled_normals((2,), 2.0**1022, 2.0**1023),
        _scaled_normals((), 1.0, math.inf),
        TestTrialsLastSummary.deviation_past_the_largest_float,
    ], ids=["block-sum", "inf-value", "deviation-only"])
    def test_pooled_overflow_raises(self, monkeypatch, draw):
        # Each pool thread sets its own error state: no warning escapes it.
        monkeypatch.setattr(verify, "_POOL_MIN_BLOCK_S", 0.0)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="Monte Carlo statistics overflow"):
                verify._run_blocks(_trials_last(getattr(draw, "__func__", draw)),
                                   5 * BLOCK_TRIALS, 313, 2)
        assert caught == []

    @pytest.mark.parametrize("slow,pooled", [((0, 1), True), ((0,), False), ((1,), False),
                                             ((), False)],
                             ids=["both-slow", "first-slow", "second-slow", "both-fast"])
    def test_the_faster_timed_block_decides(self, inline_pools, monkeypatch, slow, pooled):
        # A first block slowed by a fresh process's set-up does not start the pool.
        # A slow block reads as twice the floor and a fast one as no time at all.
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        now, ran = self.clock(monkeypatch), []

        def kernel(rng, k):
            if len(ran) in slow:
                now[0] += 2 * verify._POOL_MIN_BLOCK_S
            ran.append(k)
            return rng.standard_normal(k)

        got = verify._run_blocks(kernel, 4 * BLOCK_TRIALS, 337, 2)
        assert [(p.max_workers, p.peak) for p in inline_pools] == ([(2, 2)] if pooled else [])
        TestTrialsLastSummary.assert_bit_equal(
            got, verify._run_blocks(self.normals, 4 * BLOCK_TRIALS, 337))

    @pytest.mark.parametrize("workers,trials", [(1, 4 * BLOCK_TRIALS), (2, 2 * BLOCK_TRIALS)],
                             ids=["one-worker", "two-blocks"])
    def test_untimed_paths(self, inline_pools, monkeypatch, workers, trials):
        # One worker, or too few blocks to share, reads no clock and starts no pool.
        def no_clock():
            raise AssertionError("a block was timed")

        monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=no_clock))
        monkeypatch.setattr(verify, "_POOL_MIN_BLOCK_S", 0.0)
        verify._run_blocks(self.normals, trials, 347, workers)
        assert inline_pools == []

    @pytest.mark.parametrize("cpus,blocks,threads", [
        (64, 40, 38), (4, 40, 4), (64, 5, 3), (1, 40, None), (64, 3, None),
    ], ids=["blocks-left", "cpus", "few-blocks", "one-cpu", "one-block-left"])
    def test_the_pool_never_outgrows_the_cpus(self, inline_pools, monkeypatch, cpus, blocks,
                                              threads):
        # 10^4 workers ask for no more threads, and no more blocks in flight,
        # than the CPUs and the blocks left after the two timed ones.
        monkeypatch.setattr(verify, "_POOL_MIN_BLOCK_S", 0.0)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        got = verify._run_blocks(self.normals, blocks * BLOCK_TRIALS - 7, 349, 10**4)
        assert ([(p.max_workers, p.peak, p.pending) for p in inline_pools]
                == ([] if threads is None else [(threads, threads, 0)]))
        TestTrialsLastSummary.assert_bit_equal(
            got, verify._run_blocks(self.normals, blocks * BLOCK_TRIALS - 7, 349))

    def test_ten_thousand_workers_on_ten_million_trials(self, inline_pools, monkeypatch):
        # 9766 blocks: the pool had asked for a thread per submission, 9.8k of them.
        monkeypatch.setattr(verify, "_POOL_MIN_BLOCK_S", 0.0)
        verify._run_blocks(lambda rng, k: np.zeros(k), 10**7, 353, 10**4)
        cpus = verify._usable_cpus()
        assert ([(p.max_workers, p.peak, p.pending) for p in inline_pools]
                == ([] if cpus < 2 else [(cpus, cpus, 0)]))

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert verify._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert verify._usable_cpus() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert verify._usable_cpus() == 1

    def test_a_process_that_never_pools_loads_no_pool_module(self):
        # In a fresh interpreter: importing the package loads its submodules; the
        # package, the CLI and a light check at two workers, which starts no pool,
        # load neither concurrent.futures nor logging (which it imports); a pool
        # started with the floor at 0 loads concurrent.futures, with the same bytes.
        script = textwrap.dedent("""\
            import json, sys
            import cwishart
            imported = sorted(m for m in sys.modules if m.startswith("cwishart."))
            import cwishart.cli
            from cwishart import verify

            def run():
                return cwishart.linalg.canonical_dumps(cwishart.check_linear_form_std(
                    cwishart.SpdMatrix.diagonal([4.0, 1.0, 2.0]), [1.0, 0.5, -1.0], 4000, 11,
                    2).to_dict())

            def loaded():
                return [m for m in ("concurrent.futures", "logging") if m in sys.modules]

            light = run()
            after_light = loaded()
            verify._POOL_MIN_BLOCK_S = 0.0
            verify._usable_cpus = lambda: 2
            pooled = run()
            print(json.dumps([imported, after_light, loaded(), light == pooled]))
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert done.returncode == 0, done.stderr
        imported, after_light, after_pool, same = json.loads(done.stdout)
        assert {"cwishart.verify", "cwishart.netcert", "cwishart.bounds",
                "cwishart.model"} <= set(imported)
        assert after_light == []
        assert "concurrent.futures" in after_pool
        assert same


class TestNegativeControls:
    """Each check returns holds: false when its claim is false by a known amount."""

    def test_decoupling_rejects_lhs_three_times_rhs(self):
        rhs = 1.0 + 0.1 * cw.generator(137).standard_normal(1000)

        def report(lhs):
            return DecouplingReport.from_summary(
                verify._Summary.of_block(np.stack((lhs, rhs))))

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

    def test_dominance_rejects_bound_below_empirical_mean(self):
        honest = cw.check_bound_dominance(TrialConfig(model(2, 8), 2000, 149))
        assert honest.holds
        halved = dataclasses.replace(honest.bound, bound_value=honest.empirical.mean / 2)
        report = DominanceReport.from_stats(honest.empirical, halved)
        assert report.ratio == 2.0
        assert not report.holds

    def test_dominance_refutes_the_ratio_convention(self):
        # The ratio form's kappa = ||B||_F / ||B|| does not grow with B, but the
        # deviation does: W(c B) = c W(B) in law.  Statistics of identity B
        # scaled by c = 2^20 (exact, a power of two) are those of B = c I_n:
        # mean 4342 +- 133 against a ratio-form bound of 2173, and against
        # the Frobenius form's 4.95e5.
        p, n, c = 2, 2**18, 2.0**20
        stats = cw.estimate_mean_deviation(TrialConfig(model(p, n), 200, 7))
        scaled = dataclasses.replace(stats, mean=c * stats.mean, stderr=c * stats.stderr,
                                     max=c * stats.max)
        big = model(p, n, cw.ShapeSpec.diagonal([c] * n))
        ratio_form = cw.deviation_bound(big, KappaConvention.RATIO)
        report = DominanceReport.from_stats(scaled, ratio_form)
        assert not report.holds
        # Refuted, not just unconfirmed: the mean is 3 se above the bound.
        assert scaled.mean - 3 * scaled.stderr > ratio_form.bound_value
        assert DominanceReport.from_stats(scaled, cw.deviation_bound(big)).holds
        # At c = 1 the two forms agree, and both hold.
        unit = model(p, n, cw.ShapeSpec.diagonal([1.0] * n))
        forms = [cw.deviation_bound(unit, conv) for conv in KappaConvention]
        assert forms[0].bound_value == pytest.approx(forms[1].bound_value, rel=1e-12)
        assert all(DominanceReport.from_stats(stats, b).holds for b in forms)

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

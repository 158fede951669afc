"""Monte Carlo verification of every probabilistic claim about the models.

Determinism contract: every check is a pure function of its inputs including
the master seed.  Trials run in fixed blocks of BLOCK_TRIALS; block b draws
every variate it needs from generator(mix_seed(master_seed, b)) and computes
its trials as one vectorized kernel.  Kernel contract: a kernel returns a
C-contiguous float64 (..., k) array with the block's k trials on the last
axis: (k,) for a scalar result, (2, k) for the two sides of a decoupling check
or a Lipschitz count, (1 + T, k) for a concentration sigma and its T tail
indicators, (p, p, k) for the expectation.  The block's summary reduces each
contiguous row of k trials where it lies (_Summary.of_block): the count, and
per result entry the sum, the sum of squared deviations from the mean (at the
power-of-two scale of the entry's largest |value|, see _Summary) and the max.
Blocks run one after another in the calling thread, and their summaries
merge in block order (the pairwise update of Chan, Golub and LeVeque, 1979),
so memory holds one block whatever the trial count.  Every check reads its
statistics from the merged summary; tail frequencies and violation counts are
sums of 0/1 indicators, so they are exact.  Statistics of values scaled by
2**j are scaled by 2**j, bit for bit; they overflow (ValueError) only when a
per-trial value, or a sum over the trials, does not fit in a float.  Spectral
norms of the per-trial matrices come from linalg's one exact rule, applied to
a block's whole stack.  A concentration check takes at most MAX_T_GRID tail
points.  Fixed costs (2-core VM, Python 3.11, numpy 2.4, one BLAS thread): a
2-trial chaos check takes about 60 us; a 1024-trial block spends 15-45 us in
its summary and merge (scalar to (3, 3) results) and about 10 us building its
generator.

The law of (1/n) X B X^T depends on X only through a Gram matrix when B is
the identity or the skew block, so the norm checks (mean deviation, bound
dominance, Wishart decoupling, expectation, sweeps and the complexity search)
draw that Gram matrix exactly instead of X (_wishart_draws): a factor with
O(p^2) chi-square and normal variates per trial instead of p n normals, and
exact in law, not in value.  A diagonal B draws X over its nonzero columns
only (all n when no entry is zero); a custom B draws (k, p, n) Gaussian
stacks.  The Wishart decoupling pair (W, W') shares Y, as the paper's X B X^T
and X' B X^T share X, and W' = Z R for a factor R of B Y^T, which is B Y^T
itself up to 4p columns of Y (_decoupled_pairs).  W is drawn as
_wishart_draws draws it, and Z after it, so decoupling's lhs equals
estimate_mean_deviation on the same (model, trials, seed), bit for bit.  The
concentration and Lipschitz checks read X only through g = X^T d ~ N(0, I_n)
(theta = I, unit d), so they draw g, or for orthogonal B only ||g||; a
Lipschitz pair for orthogonal B takes three variates for ||g1||, ||g2|| and
||g1 - g2||, and one chi-square for the rest of ||X1 - X2||_F
(_lipschitz_pairs); ||B g|| never builds the n x n B (_conditional_stds).
Concentration tails count sigma > mean_bound + t.

The engine, _run_blocks, is the only code that reads a trial count or a worker
count: trials is an integer from 2 to MAX_TRIALS (a Lipschitz pair count
included), workers an integer of at least 1, both checked before any block
runs.  The worker count changes nothing else: blocks run in the calling
thread whatever it is, so reports are bit-identical for any worker count.
Each check reports the trial count of the engine's summary.

Acceptance margins, in standard errors of the compared statistic, with one
comparison's false-failure probability under a normal approximation:
INEQUALITY_MARGIN = 3, P(Z > 3) = 1.35e-3, for the one-sided checks (bound
dominance, both decoupling checks, as 3 (se_lhs + 2 se_rhs), which bounds 3
standard deviations of mean lhs - 2 mean rhs however the sides correlate, and
the concentration tails and mean);
EQUALITY_MARGIN = 4, P(|Z| > 4) = 6.3e-5, for the entrywise expectation check;
STD_MARGIN = 5, P(|Z| > 5) = 5.7e-7, for the linear-form standard deviation,
whose standard error is the Gaussian-sample approximation s / sqrt(2 (N - 1)).
The dominance margin lies against its claim (mean + 3 se <= bound): a true
mean above the bound passes with probability at most 1.35e-3, and a true mean
6 se or more below it fails with probability at most 1.35e-3.  Family-wise
false-failure bounds per acceptance criterion (Bonferroni over its
comparisons, each claim at its boundary; a union bound needs no independence,
so criteria 2 and 3 may read one draw per cell): 1, 9 entries at 4 se, 5.7e-4;
2, 27 cells (means 6 se below the bound), 3.6e-2; 3, 27 cells, 3.6e-2; 4, 20
runs, 2.7e-2; 7, 5 tails and the mean, 8.1e-3; 9, one at 5 se, 5.7e-7; 0.11
over the suite.  Criteria 5, 6 and 10 make no Monte Carlo comparison, and
criterion 8's slope range is no standard-error margin.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bounds import (
    SEARCH_CAP,
    BoundReport,
    _check_tolerance,
    _doubling,
    deviation_bound,
    invert_bound_for_n,
)
from .errors import DimensionError, NotAchievableError
from .linalg import (
    Report,
    SpdMatrix,
    _spectral_norms,
    _triangular_factors,
    as_matrix,
    canonical_dumps,
    check_floats,
    check_int,
    generator,
    mix_seed,
    spectral_norm,
)
from .model import (
    _ORTHOGONAL_VARIANTS,
    ShapeSpec,
    WishartModel,
    _gram_factor,
    _whiten,
    apply_shape,
    expected_wishart,
    shape_frobenius_norm,
    shape_spectral_norm,
)

__all__ = [
    "TrialConfig",
    "DeviationStats",
    "ConcentrationCheck",
    "ExpectationReport",
    "DominanceReport",
    "DecouplingReport",
    "LinearFormReport",
    "ScalingSweep",
    "ComplexityTable",
    "estimate_mean_deviation",
    "check_expectation",
    "check_bound_dominance",
    "check_wishart_decoupling",
    "check_chaos_decoupling",
    "check_linear_form_std",
    "check_concentration",
    "count_lipschitz_violations",
    "sweep_scaling",
    "empirical_sample_complexity",
    "identity_theta_rule",
    "emit_report",
]

# Statistical acceptance margins in standard errors (see the module docstring).
INEQUALITY_MARGIN = 3.0
EQUALITY_MARGIN = 4.0
STD_MARGIN = 5.0

# Trials per block: the unit of random streams and of vectorized work, fixed so
# that results never depend on it being tuned (it also caps peak memory).  A check
# takes at most MAX_TRIALS trials: about 110 s of the cheapest one on one core.
BLOCK_TRIALS = 1024
MAX_TRIALS = 10**9

# Tail points per concentration check: each holds a 0/1 indicator per trial in a block.
MAX_T_GRID = 64


class _Summary(NamedTuple):
    """Trial count, and per result entry the sum, sum of squared deviations and max.

    The squared deviations of an entry are summed in units of 4**exp, where
    exp is the exponent of the entry's largest |value| v (v = f 2**exp,
    0.5 <= f < 1): every scaled deviation is below 2 in magnitude, so no
    square overflows and none goes subnormal unless it is negligible next to
    the largest.  A merge rescales both sides to the larger exp.  Scaling by
    a power of two is exact, so statistics of values in the normal range
    keep their exact bits, and values scaled by 2**j give statistics scaled
    by 2**j.  Only a value, or a sum over the trials, that does not fit in a
    float leaves an inf or NaN.
    """

    trials: int
    total: np.ndarray
    sq_dev: np.ndarray
    max: np.ndarray
    exp: np.ndarray

    @classmethod
    def of_block(cls, x: np.ndarray) -> "_Summary":
        """Summary of a kernel's result: a C-contiguous float64 (..., k) array, trials last.

        Every reduction runs along a contiguous row of k trials, and the
        scaled deviations reuse one temporary.
        """
        k = x.shape[-1]
        total, high = x.sum(axis=-1), x.max(axis=-1)
        exp = np.frexp(np.maximum(high, -x.min(axis=-1)))[1]
        dev = x - (total / k)[..., None]
        np.ldexp(dev, -exp[..., None], out=dev)
        dev *= dev
        return cls(k, total, dev.sum(axis=-1), high, exp)

    def merge(self, other: "_Summary") -> "_Summary":
        """Summary of both samples: the Chan-Golub-LeVeque pairwise update.

        Runs inside the engine's error state: an overflow leaves inf or NaN
        for its finite check.
        """
        trials = self.trials + other.trials
        exp = np.maximum(self.exp, other.exp)
        delta = np.ldexp(other.total / other.trials - self.total / self.trials, -exp)
        sq_dev = np.ldexp(self.sq_dev, 2 * (self.exp - exp))
        sq_dev += np.ldexp(other.sq_dev, 2 * (other.exp - exp))
        sq_dev += delta * delta * (self.trials * other.trials / trials)
        return _Summary(trials, self.total + other.total, sq_dev,
                        np.maximum(self.max, other.max), exp)

    @property
    def mean(self) -> np.ndarray:
        return self.total / self.trials

    @property
    def std(self) -> np.ndarray:
        """Sample standard deviation (ddof = 1) of each entry."""
        return np.ldexp(np.sqrt(self.sq_dev / (self.trials - 1)), self.exp)

    def stats(self, entry=()) -> DeviationStats:
        """DeviationStats of one result entry (the only one for scalar results), read alone."""
        trials = self.trials
        std = np.ldexp(np.sqrt(self.sq_dev[entry] / (trials - 1)), self.exp[entry])
        return DeviationStats(
            mean=float(self.total[entry] / trials),
            stderr=float(std / math.sqrt(trials)),
            max=float(self.max[entry]),
            trials=trials,
        )


def _run_blocks(
    kernel: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> _Summary:
    """The merged summary of ``kernel(rng, k)`` over all blocks, in block order.

    Block b holds k = min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS) trials and
    draws from generator(mix_seed(master_seed, b)); the kernel returns a
    C-contiguous float64 (..., k) array, its trials on the last axis, which
    is reduced to a _Summary before the next block runs.  Blocks run one
    after another in the calling thread.  The one check of trials and workers
    (see the module docstring) runs before any block; workers changes
    nothing else.
    A merged summary holding inf or NaN (a per-trial value, or a sum over the
    trials, that does not fit in a float) raises ValueError rather than being
    reported.
    """
    trials, workers = check_int(trials, "trials"), check_int(workers, "workers")
    if not 2 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be from 2 to {MAX_TRIALS}, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    blocks = -(-trials // BLOCK_TRIALS)

    def block(b: int) -> _Summary:
        return _Summary.of_block(kernel(generator(mix_seed(master_seed, b)),
                                        min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS)))

    # Overflow leaves inf or NaN for the finite check below.
    with np.errstate(over="ignore", invalid="ignore"):
        summary = functools.reduce(_Summary.merge, map(block, range(blocks)))
    # Every non-finite per-trial value, and every overflowed sum, reaches the
    # total (inf and NaN propagate through sums), and every overflowed square
    # the squared deviations; the max and the integer exponents need no check.
    if not (np.isfinite(summary.total).all() and np.isfinite(summary.sq_dev).all()):
        raise ValueError(
            "Monte Carlo statistics overflow floating point; scale theta or B down and rerun"
        )
    return summary


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """A model, a trial count, and the master seed driving all substreams."""

    model: WishartModel
    trials: int
    master_seed: int


@dataclass(frozen=True)
class DeviationStats(Report):
    """Summary of one scalar Monte Carlo sample: mean, stderr, max, count."""

    mean: float
    stderr: float
    max: float
    trials: int


# ---------------------------------------------------------------------------
# Mean deviation and the expectation formula
# ---------------------------------------------------------------------------

def _gram_draws(
    model: WishartModel, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k draws of Y B Y^T for identity or skew-block B, unwhitened, with their Gram factors.

    Y B Y^T depends on the standard Gaussian p x n Y only through the Gram
    matrix A A^T of A = Y for identity B (d = p rows, m = n columns), or of
    the column halves of Y stacked as A = [Y1; Y2] for skew-block B (d = 2p,
    m = n/2), where Y B Y^T = Y1 Y2^T - Y2 Y1^T.  So each draw takes one Gram
    factor F (model._gram_factor), a (d, min(d, m)) matrix with F F^T equal
    in law to A A^T.
    """
    p, skew = model.p, model.shape.variant == "skew_block"
    f = _gram_factor(rng, k, 2 * p if skew else p, model.n // 2 if skew else model.n)
    if not skew:
        return f, f @ f.swapaxes(-1, -2)
    # The off-diagonal blocks of A A^T: Y1 Y2^T - Y2 Y1^T.
    g = f[:, :p] @ f[:, p:].swapaxes(-1, -2)
    return f, g - g.swapaxes(-1, -2)


def _column_draws(
    model: WishartModel, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k standard Gaussian Y for diagonal or custom B, with Y B: W = (Y B) Y^T, unwhitened.

    One (k, p, n) stack; a diagonal B draws it over its nonzero columns only
    (ShapeSpec._nonzero_entries): W is a sum over the columns j of b_j times
    a product of column j, so a zero column adds nothing, and a diagonal with
    no zero entry draws all n.
    """
    entries = model.shape._nonzero_entries
    y = rng.standard_normal((k, model.p, model.n if entries is None else entries.size))
    return y, apply_shape(y, model.shape, model.n) if entries is None else y * entries


def _unwhitened_draws(model: WishartModel, rng: np.random.Generator, k: int) -> np.ndarray:
    """k draws of Y B Y^T, W before its whitening, as a (k, p, p) stack.

    Identity and skew-block B take one Gram factor per draw (_gram_draws):
    p(p + 1)/2 variates per factor once n >= p (p(2p + 1) once n >= 4p for
    skew-block B), and never more than the p n of Y.  Every other B draws Y
    (_column_draws).
    """
    if model.shape.variant in _ORTHOGONAL_VARIANTS:
        return _gram_draws(model, rng, k)[1]
    y, yb = _column_draws(model, rng, k)
    return yb @ y.swapaxes(-1, -2)


def _wishart_draws(
    model: WishartModel, root: np.ndarray, rng: np.random.Generator, k: int
) -> np.ndarray:
    """k draws of W = (1/n) root (Y B Y^T) root as a (k, p, p) stack (model._whiten)."""
    return _whiten(_unwhitened_draws(model, rng, k), root, model.n)


def estimate_mean_deviation(cfg: TrialConfig, workers: int = 1) -> DeviationStats:
    """Monte Carlo statistics of ||W - E(W)|| over blocks of trials."""
    model = cfg.model
    root, w0 = model.theta._root, expected_wishart(model)
    return _run_blocks(
        lambda rng, k: _spectral_norms(_wishart_draws(model, root, rng, k) - w0),
        cfg.trials, cfg.master_seed, workers,
    ).stats()


@dataclass(frozen=True, eq=False)
class ExpectationReport(Report):
    """Entrywise comparison of the Monte Carlo mean against (Tr B / n) theta."""

    trials: int
    margin: float
    max_abs_deviation: float
    max_stderr: float
    mean_matrix: np.ndarray
    expected_matrix: np.ndarray
    stderr_matrix: np.ndarray
    holds: bool


def check_expectation(cfg: TrialConfig, workers: int = 1) -> ExpectationReport:
    """Verify E(W) = (Tr B / n) theta entrywise within 4 standard errors."""
    model = cfg.model
    p, root = model.p, model.theta._root

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # (1/n) root w root as _whiten forms it, but the second product, root
        # times the columns of w root, writes the (p, p, k) rows, trials last.
        w = _unwhitened_draws(model, rng, k)
        u = (w.reshape(-1, p) @ root).reshape(w.shape)
        return (root @ u.transpose(1, 2, 0).reshape(p, -1)).reshape(p, p, k) / model.n

    summary = _run_blocks(kernel, cfg.trials, cfg.master_seed, workers)
    mean = summary.mean
    stderr = summary.std / math.sqrt(summary.trials)
    expected = expected_wishart(model)
    dev = np.abs(mean - expected)
    return ExpectationReport(
        trials=summary.trials,
        margin=EQUALITY_MARGIN,
        max_abs_deviation=float(dev.max()),
        max_stderr=float(stderr.max()),
        mean_matrix=mean,
        expected_matrix=expected,
        stderr_matrix=stderr,
        holds=bool(np.all(dev <= EQUALITY_MARGIN * stderr)),
    )


# ---------------------------------------------------------------------------
# Bound dominance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceReport(Report):
    """Empirical mean deviation against the closed-form bound."""

    empirical: DeviationStats
    bound: BoundReport
    ratio: float
    holds: bool

    @classmethod
    def from_stats(cls, stats: DeviationStats, bound: BoundReport) -> "DominanceReport":
        """Holds when mean + 3 stderr <= bound_value; ratio mean / bound_value, 0 for a zero bound."""
        value = bound.bound_value
        holds = stats.mean + INEQUALITY_MARGIN * stats.stderr <= value
        return cls(stats, bound, stats.mean / value if value > 0 else 0.0, holds)


def check_bound_dominance(cfg: TrialConfig, workers: int = 1) -> DominanceReport:
    """Check empirical mean + 3 stderr <= bound_value, for the Frobenius-form bound."""
    return DominanceReport.from_stats(estimate_mean_deviation(cfg, workers),
                                      deviation_bound(cfg.model))


# ---------------------------------------------------------------------------
# Decoupling checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecouplingReport(Report):
    """A coupled deviation (lhs) against twice its decoupled counterpart (rhs)."""

    lhs: DeviationStats
    rhs: DeviationStats
    holds: bool

    @classmethod
    def from_summary(cls, summary: _Summary) -> "DecouplingReport":
        """Report on the summary of per-trial (lhs, rhs) rows.

        Holds when mean lhs <= 2 mean rhs + 3 (se_lhs + 2 se_rhs).
        """
        lhs, rhs = summary.stats(0), summary.stats(1)
        holds = lhs.mean <= 2.0 * rhs.mean + INEQUALITY_MARGIN * (lhs.stderr + 2.0 * rhs.stderr)
        return cls(lhs, rhs, holds)


def _decoupled_pairs(
    model: WishartModel, root: np.ndarray, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k draws of the pair (W, W') = (1/n) root (Y B Y^T, Y' B Y^T) root, as two (k, p, p) stacks.

    Given Y, the rows of Y' M, M = B Y^T, are independent N(0, M^T M), so
    Y' M equals Z R in law, jointly with W, for any R with R^T R = M^T M and a
    standard Gaussian Z drawn after Y.  For identity and skew-block B,
    M^T M = Y Y^T, and R^T is the Gram factor F of W (_gram_draws), or for
    skew-block B its row halves side by side, [F1, F2].  Diagonal and custom B
    draw Y and W as _wishart_draws does (_column_draws), and R is M itself
    for m <= 4p columns drawn, else the p x p factor of M = Q R: below 4p
    the batched QR costs more than the p (m - p) normals of Z it saves (1.1
    to 3.5 times as long at p = 2..8, m = p..4p, one BLAS thread).
    """
    p, n = model.p, model.n
    if model.shape.variant in _ORTHOGONAL_VARIANTS:
        f, w = _gram_draws(model, rng, k)
        r = np.concatenate(np.split(f, f.shape[1] // p, axis=1), axis=-1).swapaxes(-1, -2)
    else:
        y, yb = _column_draws(model, rng, k)
        # M = C^T for C = Y B^T, which is Y B for a diagonal B.
        c = yb if model.shape.variant == "diagonal" else (
            (y.reshape(-1, n) @ model.shape.matrix.T).reshape(y.shape))
        ct = c.swapaxes(-1, -2)
        w, r = yb @ y.swapaxes(-1, -2), ct if ct.shape[-2] <= 4 * p else _triangular_factors(ct)
    w_prime = rng.standard_normal(r.swapaxes(-1, -2).shape) @ r
    return _whiten(w, root, n), _whiten(w_prime, root, n)


def check_wishart_decoupling(cfg: TrialConfig, workers: int = 1) -> DecouplingReport:
    """Check mean||W - E(W)|| <= 2 mean||W'|| + 3 (se_lhs + 2 se_rhs), W and W' sharing Y.

    The margin holds for any correlation of the sides: the standard deviation
    of mean lhs - 2 mean rhs is at most se_lhs + 2 se_rhs (Minkowski).
    """
    model = cfg.model
    root, w0 = model.theta._root, expected_wishart(model)

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        w, w_prime = _decoupled_pairs(model, root, rng, k)
        return np.stack((_spectral_norms(w - w0), _spectral_norms(w_prime)))

    return DecouplingReport.from_summary(_run_blocks(kernel, cfg.trials, cfg.master_seed, workers))


def _chaos_family(matrices: Sequence, p: int) -> np.ndarray:
    """The family as one (M, p, p) float64 stack, 1 <= M <= 16, every entry finite.

    A valid family is checked as one array; any other goes member by member,
    so that the error names the first bad ``matrices[i]``.
    """
    matrices = list(matrices)
    try:
        stack = np.asarray(matrices, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        stack = None
    if (stack is not None and 1 <= len(matrices) <= 16
            and stack.shape == (len(matrices), p, p) and np.isfinite(stack).all()):
        return stack
    mats = [as_matrix(m, f"matrices[{i}]") for i, m in enumerate(matrices)]
    if not mats or len(mats) > 16:
        raise ValueError(f"matrix list must have 1..16 members, got {len(mats)}")
    for i, m in enumerate(mats):
        if m.shape != (p, p):
            raise DimensionError(f"matrices[{i}] is {m.shape}, expected {(p, p)}")
    return np.stack(mats)


def check_chaos_decoupling(
    matrices: Sequence,
    theta: SpdMatrix,
    trials: int,
    seed: int,
    workers: int = 1,
) -> DecouplingReport:
    """Check E sup|(BZ, Z) - E(BZ, Z)| <= 2 E sup|(BZ, Z')| over a matrix list.

    The supremum over the finite list is computed exactly per draw, and
    E(BZ, Z) = Tr(B theta) in closed form.  A block whitens z and z' straight
    into (p, k) rows, forms every B_m z as one product of the stacked family
    rows with z, an (M, p, k) array with the trials on the last axis, and both
    quadratic forms as one product with z and z', so the forms and the maxima
    over the family run along contiguous rows of length k.
    """
    p = theta.p
    stack = _chaos_family(matrices, p)
    rows = stack.reshape(-1, p)
    traces = np.einsum("kij,ji->k", stack, theta.array)[:, None]
    root = theta._root

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # z and z' of N(0, theta) as contiguous (p, k) rows: the symmetric root
        # times the standard (k, p) draws, transposed.
        zz = root @ rng.standard_normal((2, k, p)).transpose(0, 2, 1)
        bz = (rows @ zz[0]).reshape(len(stack), p, k)
        # Side 0 is the lhs, side 1 the rhs: each the family maximum of |form|.
        forms = np.einsum("mik,sik->smk", bz, zz)
        forms[0] -= traces
        return np.abs(forms, out=forms).max(axis=1)

    return DecouplingReport.from_summary(_run_blocks(kernel, trials, seed, workers))


# ---------------------------------------------------------------------------
# Linear forms and the conditional standard deviation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFormReport(Report):
    """Sample standard deviation of (a, Z) against ||theta^{1/2} a||."""

    sample_std: float
    std_stderr: float
    target: float
    trials: int
    norm_inequality_ok: bool
    holds: bool


def check_linear_form_std(
    theta: SpdMatrix,
    a,
    trials: int,
    seed: int,
    workers: int = 1,
) -> LinearFormReport:
    """Check the standard deviation of (a, Z), Z ~ N(0, theta), is ||theta^{1/2} a||.

    Holds when the sample standard deviation sits within STD_MARGIN of its own
    standard errors of the target; also records the bound ||theta^{1/2} a|| <=
    ||theta^{1/2}|| * ||a||.
    """
    a = check_floats(a, "a")
    if a.size != theta.p:
        raise DimensionError(f"vector has length {a.size} but theta is {theta.p} x {theta.p}")
    root = theta._root
    target = float(np.linalg.norm(root @ a))
    norm_ok = target <= spectral_norm(root) * float(np.linalg.norm(a)) * (1.0 + 1e-12)
    summary = _run_blocks(
        lambda rng, k: (rng.standard_normal((k, theta.p)) @ root) @ a, trials, seed, workers
    )
    sample_std = float(summary.std)
    # Gaussian-sample stderr of the standard deviation itself.
    std_stderr = sample_std / math.sqrt(2.0 * (summary.trials - 1))
    holds = abs(sample_std - target) <= STD_MARGIN * std_stderr
    return LinearFormReport(sample_std, std_stderr, target, summary.trials, norm_ok, holds)


def _conditional_stds(shape: ShapeSpec, g: np.ndarray, p: int) -> np.ndarray:
    """(sqrt(p)/n) ||B g|| for g = X^T d, one length-n vector or each of a (..., n) stack.

    Identity, diagonal and skew-block B are symmetric or antisymmetric, so
    ||B g|| = ||g B|| = ||apply_shape(g)||, and no n x n matrix is built.
    """
    n = g.shape[-1]
    bg = g @ shape.matrix.T if shape.variant == "custom" else apply_shape(g, shape, n)
    # Normed at unit scale (exact), so 2^j B gives 2^j times the stds, bit for bit.
    _, exp = np.frexp(np.abs(bg).max())
    return np.ldexp(math.sqrt(p) / n * np.linalg.norm(np.ldexp(bg, -exp), axis=-1), exp)


def _standard_direction(model: WishartModel, direction, check: str) -> np.ndarray:
    """``direction``, a list of finite numbers, checked to have length p and unit norm.

    The guard of the checks that draw g = X^T d ~ N(0, I_n): theta must be I.
    """
    if not model.theta.is_identity():
        raise ValueError(f"{check} requires theta = I; whiten the model first "
                         "(conjugate by theta^{-1/2}) and rerun")
    p = model.p
    d = check_floats(direction, "direction")
    if d.size != p:
        raise DimensionError(f"direction has length {d.size} but p = {p}")
    if abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, got norm {np.linalg.norm(d)!r}")
    return d


# ---------------------------------------------------------------------------
# Concentration of the conditional standard deviation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationCheck(Report):
    """Tail comparison for the conditional standard deviation under theta = I.

    theoretical_tails[i] = 0.5 * exp(-t_i^2 / (2 * lipschitz^2)) is
    recomputable from the stored fields; tails with theoretical mass below
    10 / trials are recorded but not asserted.
    """

    direction: tuple[float, ...]
    t_grid: tuple[float, ...]
    lipschitz: float
    mean_bound: float
    empirical_tails: tuple[float, ...]
    theoretical_tails: tuple[float, ...]
    tail_stderr: tuple[float, ...]
    asserted: tuple[bool, ...]
    u_floor: float
    trials: int
    mean_value: float
    mean_stderr: float
    mean_ok: bool
    holds: bool


def check_concentration(
    model: WishartModel,
    direction,
    t_grid: Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
) -> ConcentrationCheck:
    """Verify the sub-Gaussian tail of the conditional standard deviation.

    Requires theta = I (whiten first otherwise: replace theta by I and absorb
    theta^{1/2} into the deviation being studied).  The empirical tail at t
    is the share of trials with sigma > mean_bound + t, counted strictly, so
    a sigma that sits at mean_bound (every trial of B = 0) is in no tail.
    Holds when the empirical tail stays below the theoretical one plus 3
    binomial standard errors at every grid point with theoretical mass
    >= 10 / trials.

    With theta = I and a unit d, the std depends on X only through
    g = X^T d ~ N(0, I_n), so each trial draws g alone.  For identity and
    skew-block B, which are orthogonal, ||B g|| = ||g||, and each trial draws
    only ||g|| = sqrt(chi-square(n)).
    """
    d = _standard_direction(model, direction, "concentration check")
    t_grid = tuple(check_floats(t_grid, "t_grid").tolist())
    if len(t_grid) > MAX_T_GRID:
        raise ValueError(f"t_grid must have at most {MAX_T_GRID} points, got {len(t_grid)}")
    if not all(t >= 0 for t in t_grid):
        raise ValueError(f"t_grid must be nonnegative, got {t_grid}")

    p, n = model.p, model.n
    orthogonal = model.shape.variant in _ORTHOGONAL_VARIANTS
    lipschitz = math.sqrt(p) * shape_spectral_norm(model.shape, n) / n
    mean_bound = math.sqrt(p) * shape_frobenius_norm(model.shape, n) / n

    thresholds = (mean_bound + np.array(t_grid))[:, None]

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # Row 0 is the conditional std, row 1 + i its 0/1 indicator of tail i.
        rows = np.empty((1 + thresholds.size, k))
        if orthogonal:
            np.multiply(math.sqrt(p) / n, np.sqrt(rng.chisquare(n, k)), out=rows[0])
        else:
            rows[0] = _conditional_stds(model.shape, rng.standard_normal((k, n)), p)
        np.greater(rows[0], thresholds, out=rows[1:])
        return rows

    summary = _run_blocks(kernel, trials, seed, workers)
    stats, trials = summary.stats(0), summary.trials
    empirical = (summary.total[1:] / trials).tolist()
    # The exponent -t^2 / (2 L^2) as -(t / L)^2 / 2: the same for 2^j (t, L), and
    # -inf, not an error, where t / L overflows.
    theoretical = [0.5 if t == 0.0 else 0.0 if lipschitz == 0.0
                   else 0.5 * math.exp(-0.5 * (t / lipschitz) * (t / lipschitz)) for t in t_grid]
    stderrs = [math.sqrt(e * (1.0 - e) / trials) for e in empirical]
    asserted = [theo >= 10.0 / trials for theo in theoretical]
    holds = not any(a and e > theo + INEQUALITY_MARGIN * se
                    for a, e, theo, se in zip(asserted, empirical, theoretical, stderrs))

    mean_ok = stats.mean <= mean_bound + INEQUALITY_MARGIN * stats.stderr
    return ConcentrationCheck(
        direction=tuple(float(v) for v in d),
        t_grid=t_grid,
        lipschitz=lipschitz,
        mean_bound=mean_bound,
        empirical_tails=tuple(empirical),
        theoretical_tails=tuple(theoretical),
        tail_stderr=tuple(stderrs),
        asserted=tuple(asserted),
        u_floor=3.0 * math.sqrt(p),
        trials=trials,
        mean_value=stats.mean,
        mean_stderr=stats.stderr,
        mean_ok=mean_ok,
        holds=holds and mean_ok,
    )


def _lipschitz_pairs(
    model: WishartModel, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k draws of (s(X1), s(X2), ||X1 - X2||_F^2) for independent X1, X2, theta = I, unit d.

    s(X) depends on X only through g = X^T d ~ N(0, I_n), and
    ||X1 - X2||_F^2 splits into ||g1 - g2||^2 plus the squared norm of the
    part of X1 - X2 orthogonal to d, which is 2 chi-square((p - 1) n) and
    independent of (g1, g2); for p > 1 it is drawn last, one variate per pair.
    For identity and skew-block B, ||B g|| = ||g||, so a pair is drawn in a
    basis whose first vector is g1 / ||g1||: g1 = (sqrt(a), 0) and
    g2 = (c, h) with a ~ chi-square(n), c ~ N(0, 1) and ||h||^2 = b ~
    chi-square(n - 1) (b = 0 for n = 1), all independent, so ||g2||^2 = c^2 + b
    and ||g1 - g2||^2 = (sqrt(a) - c)^2 + b: three variates per pair, exact in
    law.  Diagonal and custom B draw (g1, g2) as one (2, k, n) stack.
    """
    p, n = model.p, model.n
    if model.shape.variant in _ORTHOGONAL_VARIANTS:
        root_a, c = np.sqrt(rng.chisquare(n, k)), rng.standard_normal(k)
        b = rng.chisquare(n - 1, k) if n > 1 else np.zeros(k)
        scale = math.sqrt(p) / n
        s1, s2, dist_sq = scale * root_a, scale * np.sqrt(c * c + b), np.square(root_a - c) + b
    else:
        g1, g2 = rng.standard_normal((2, k, n))
        s1, s2 = _conditional_stds(model.shape, g1, p), _conditional_stds(model.shape, g2, p)
        dist_sq = np.square(g1 - g2).sum(axis=-1)
    if p > 1:
        dist_sq += 2.0 * rng.chisquare((p - 1) * n, k)
    return s1, s2, dist_sq


def count_lipschitz_violations(
    model: WishartModel,
    direction,
    pairs: int,
    seed: int,
    workers: int = 1,
) -> int:
    """Count pairs violating |s(X1) - s(X2)| <= (sqrt(p) ||B|| / n) ||X1 - X2||_F.

    Each block draws its pairs with _lipschitz_pairs: three variates per
    pair for identity and skew-block B, 2n for diagonal and custom B, and
    one more for p > 1.  The left-hand sides go through the engine as well,
    so a pair whose s does not fit in a float raises ValueError as the
    concentration check does.  Requires theta = I, as the concentration
    check does.
    """
    _standard_direction(model, direction, "Lipschitz count")
    p, n = model.p, model.n
    lipschitz = math.sqrt(p) * shape_spectral_norm(model.shape, n) / n

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # Row 0 is |s(X1) - s(X2)|, row 1 its 0/1 indicator of a violation.
        s1, s2, dist_sq = _lipschitz_pairs(model, rng, k)
        rows = np.empty((2, k))
        np.abs(s1 - s2, out=rows[0])
        np.greater(rows[0], lipschitz * np.sqrt(dist_sq), out=rows[1])
        return rows

    return int(_run_blocks(kernel, pairs, seed, workers).total[1])


# ---------------------------------------------------------------------------
# Scaling sweeps and empirical sample complexity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow(DeviationStats):
    """One grid point of a sweep: its deviation stats, the bound, and their ratio."""

    p: int
    n: int
    bound: float
    ratio: float


def _sweep_row(model: WishartModel, stats: DeviationStats) -> SweepRow:
    dom = DominanceReport.from_stats(stats, deviation_bound(model))
    return SweepRow(**vars(stats), p=model.p, n=model.n, bound=dom.bound.bound_value,
                    ratio=dom.ratio)


@dataclass(frozen=True)
class ScalingSweep(Report):
    """Mean deviation across an n grid plus the log-log slope."""

    rows: tuple[SweepRow, ...]
    slope: float | None
    degenerate: bool


def sweep_scaling(
    p: int,
    n_grid: Sequence[int],
    shape_family: Callable[[int], ShapeSpec],
    theta: SpdMatrix,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ScalingSweep:
    """Estimate mean deviation over an increasing n grid and fit the log-log slope.

    Each grid point runs under the substream seed mix_seed(seed, n), so the
    table is reproducible row by row.
    """
    n_grid = [check_int(n, "n_grid entry") for n in n_grid]
    if len(n_grid) < 3 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"n grid must be increasing with at least 3 points, got {n_grid}")
    rows = []
    for n in n_grid:
        model = WishartModel(p, n, theta, shape_family(n))
        stats = estimate_mean_deviation(
            TrialConfig(model, trials, mix_seed(seed, n)), workers
        )
        rows.append(_sweep_row(model, stats))
    means = np.array([r.mean for r in rows])
    if np.any(means <= 0.0):
        return ScalingSweep(tuple(rows), None, True)
    slope = float(np.polyfit(np.log(n_grid), np.log(means), 1)[0])
    return ScalingSweep(tuple(rows), slope, False)


@dataclass(frozen=True)
class ComplexityRow(Report):
    """One p: the accepted n with its sweep row, next to the bound's required n."""

    p: int
    empirical_n: int
    theoretical_n: int
    stats: SweepRow


@dataclass(frozen=True)
class ComplexityTable(Report):
    rows: tuple[ComplexityRow, ...]
    tolerance: float


def identity_theta_rule(p: int) -> SpdMatrix:
    return SpdMatrix.identity(p)


def empirical_sample_complexity(
    p_grid: Sequence[int],
    tolerance: float,
    shape_family: Callable[[int], ShapeSpec],
    theta_rule: Callable[[int], SpdMatrix],
    trials: int,
    seed: int,
    workers: int = 1,
) -> ComplexityTable:
    """Doubling search for the smallest n with empirical mean + 2 stderr <= tolerance.

    Reports the accepted n per p, with its sweep row, next to the theoretical
    requirement from inverting the closed-form bound; the theoretical value
    dominates whenever the bound itself does.
    """
    tolerance = _check_tolerance(tolerance)
    p_grid = [check_int(p, "p_grid entry") for p in p_grid]
    if any(p < 1 for p in p_grid):
        raise ValueError(f"p_grid entries must be positive, got {p_grid}")
    rows = []
    for p in p_grid:
        theta = theta_rule(p)
        for n, spec in _doubling(shape_family):
            model = WishartModel(p, n, theta, spec)
            stats = estimate_mean_deviation(
                TrialConfig(model, trials, mix_seed(mix_seed(seed, p), n)), workers
            )
            if stats.mean + 2.0 * stats.stderr <= tolerance:
                break
        else:
            raise NotAchievableError(
                f"empirical deviation stays above tolerance {tolerance!r} "
                f"up to the cap {SEARCH_CAP} at p = {p}",
                at_cap=stats.mean,
            )
        theoretical = invert_bound_for_n(p, theta._norm, tolerance, shape_family)
        rows.append(ComplexityRow(p, n, theoretical, _sweep_row(model, stats)))
    return ComplexityTable(tuple(rows), tolerance)


# ---------------------------------------------------------------------------
# Report envelope
# ---------------------------------------------------------------------------

def _config_digest(config: dict) -> str:
    """The truncated SHA-256 of the canonical JSON text of ``config``.

    A config holding inf or NaN, which JSON cannot represent, raises ValueError.
    """
    try:
        text = canonical_dumps(config)
    except ValueError as exc:
        raise ValueError("config holds inf or NaN, which JSON cannot represent") from exc
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def emit_report(check_name: str, config: dict, master_seed: int, payload: dict) -> dict:
    """Wrap a check result in the standard report envelope.

    The config digest is _config_digest(config), so identical configurations
    always produce identical reports.
    """
    report = {"check_name": check_name, "config_digest": _config_digest(config),
              "master_seed": master_seed}
    report.update(payload)
    return report

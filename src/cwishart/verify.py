"""Monte Carlo verification of every probabilistic claim about the models.

Determinism contract: every check is a pure function of its inputs including
the master seed.  Trials run in fixed blocks of BLOCK_TRIALS; block b draws
every variate it needs from generator(mix_seed(master_seed, b)), computes its
trials as one vectorized kernel, and reduces its per-trial results to a
summary: the count, and per result entry the sum, the sum of squared
deviations from the mean (at the power-of-two scale of the entry's largest
|value|, see _Summary) and the max.  Summaries merge in block order (the
pairwise update of Chan, Golub and LeVeque, 1979), so memory holds one block
per worker whatever the trial count.  Block boundaries and the merge order do
not depend on the worker count, which only sets how many threads run blocks at
once, so reports are bit-identical for any worker count.  Every check reads
its statistics from the merged summary; tail frequencies and violation counts
are sums of 0/1 indicators, so they are exact.  Statistics of values scaled by
2**j are scaled by 2**j, bit for bit; they overflow (ValueError) only when a
per-trial value, or a sum over the trials, does not fit in a float.  Spectral
norms of the per-trial matrices come from linalg's one exact rule, applied to a
block's whole stack.  A concentration check takes at most MAX_T_GRID tail points.

The law of (1/n) X B X^T depends on X only through a Gram matrix when B is
the identity or the skew block, so the norm checks (mean deviation, bound
dominance, Wishart decoupling, expectation, sweeps and the complexity search)
draw that Gram matrix exactly instead of X (_wishart_draws): a factor with
O(p^2) chi-square and normal variates per trial instead of p n normals, and
exact in law, not in value.  A diagonal B draws X over its nonzero columns
only (all n when no entry is zero); a custom B draws (k, p, n) Gaussian
stacks.  The concentration and Lipschitz checks read X only through
g = X^T d ~ N(0, I_n) (theta = I, unit d), so they draw g, or for orthogonal
B only ||g||, and for the Lipschitz distance one chi-square for the rest of
||X1 - X2||_F; ||B g|| never builds the n x n B (_conditional_stds).

The engine, _run_blocks, is the only code that reads a trial count or a worker
count: trials is an integer from 2 to MAX_TRIALS (a Lipschitz pair count
included), workers an integer of at least 1, both checked before any block
runs.  Each check reports the trial count of the engine's summary.

Acceptance margins, in standard errors of the compared statistic, each with
a false-failure probability below 1e-3 per comparison: INEQUALITY_MARGIN = 3
for the one-sided checks (bound dominance, both decoupling checks, and the
concentration tails and mean); EQUALITY_MARGIN = 4 for the entrywise
expectation check; STD_MARGIN = 5 for the linear-form standard deviation,
whose standard error is the Gaussian-sample approximation s / sqrt(2 (N - 1)).
"""
from __future__ import annotations

import functools
import hashlib
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bounds import (
    SEARCH_CAP,
    BoundReport,
    KappaConvention,
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
    _whitened_sample,
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
    def of_block(cls, results: np.ndarray) -> "_Summary":
        """Summary of a (k, ...) array of per-trial results."""
        # Trials on the last, contiguous axis: reducing a leading axis is several times slower.
        x = np.ascontiguousarray(np.moveaxis(np.asarray(results, dtype=np.float64), 0, -1))
        # An overflow leaves an inf, which _run_blocks rejects once the merge is done.
        with np.errstate(over="ignore", invalid="ignore"):
            total, high = x.sum(axis=-1), x.max(axis=-1)
            exp = np.frexp(np.maximum(high, -x.min(axis=-1)))[1]
            dev = np.ldexp(x - (total / x.shape[-1])[..., None], -exp[..., None])
            return cls(x.shape[-1], total, (dev * dev).sum(axis=-1), high, exp)

    def merge(self, other: "_Summary") -> "_Summary":
        """Summary of both samples: the Chan-Golub-LeVeque pairwise update."""
        trials = self.trials + other.trials
        exp = np.maximum(self.exp, other.exp)
        with np.errstate(over="ignore", invalid="ignore"):
            delta = np.ldexp(other.total / other.trials - self.total / self.trials, -exp)
            sq_dev = (np.ldexp(self.sq_dev, 2 * (self.exp - exp))
                      + np.ldexp(other.sq_dev, 2 * (other.exp - exp))
                      + delta * delta * (self.trials * other.trials / trials))
            total = self.total + other.total
        return _Summary(trials, total, sq_dev, np.maximum(self.max, other.max), exp)

    @property
    def mean(self) -> np.ndarray:
        return self.total / self.trials

    @property
    def std(self) -> np.ndarray:
        """Sample standard deviation (ddof = 1) of each entry."""
        return np.ldexp(np.sqrt(self.sq_dev / (self.trials - 1)), self.exp)

    def stats(self, entry=()) -> DeviationStats:
        """DeviationStats of one result entry (the only one for scalar results)."""
        return DeviationStats(
            mean=float(self.mean[entry]),
            stderr=float(self.std[entry] / math.sqrt(self.trials)),
            max=float(self.max[entry]),
            trials=self.trials,
        )


def _run_blocks(
    kernel: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> _Summary:
    """The merged summary of ``kernel(rng, k)`` over all blocks, in block order.

    Block b holds k = min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS) trials and
    draws from generator(mix_seed(master_seed, b)); the kernel returns an
    array whose first axis has length k, which the thread that ran it reduces
    to a _Summary.  workers > 1 runs blocks on a thread pool (numpy releases
    the GIL in its RNG and BLAS calls), submitted at most 4 * workers blocks
    ahead of the merge so that pending work stays bounded; kernels must only
    read shared inputs.  The one check of trials and workers (see the module
    docstring) runs before any block.  A merged summary holding inf or NaN
    (a per-trial value, or a sum over the trials, that does not fit in a
    float) raises ValueError rather than being reported.
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

    if workers == 1 or blocks < 2:
        summary = functools.reduce(_Summary.merge, map(block, range(blocks)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            window = deque(ex.submit(block, b) for b in range(min(blocks, 4 * workers)))
            summary = window.popleft().result()
            for b in range(4 * workers, blocks):
                window.append(ex.submit(block, b))
                summary = summary.merge(window.popleft().result())
            summary = functools.reduce(_Summary.merge, (f.result() for f in window), summary)
    if not all(np.isfinite(a).all() for a in summary[1:]):
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
    model: WishartModel, rng: np.random.Generator, k: int, decoupled: bool
) -> np.ndarray:
    """k draws of Y B Y^T (or, decoupled, Y' B Y^T) for identity or skew-block B, unwhitened.

    Both depend on the standard Gaussian p x n Y only through the Gram matrix
    A A^T of A = Y for identity B (d = p rows, m = n columns), or of the column
    halves of Y stacked as A = [Y1; Y2] for skew-block B (d = 2p, m = n/2),
    where Y B Y^T = Y1 Y2^T - Y2 Y1^T.  So each draw takes one Gram factor F
    (model._gram_factor), with F F^T equal in law to A A^T; the decoupled draw
    also takes a standard Gaussian Z of F's shape, drawn after F, and Z F^T is
    equal in law to A' A^T for an independent copy A' of A (A = F Q with Q's
    rows orthonormal and independent of F, so A' Q^T is standard Gaussian).
    """
    p, skew = model.p, model.shape.variant == "skew_block"
    f = _gram_factor(rng, k, 2 * p if skew else p, model.n // 2 if skew else model.n)
    ft = f.swapaxes(-1, -2)
    if not skew:
        return (rng.standard_normal(f.shape) if decoupled else f) @ ft
    if decoupled:
        # With A' = [-Y2'; Y1'], Y' B Y^T is the sum of the diagonal blocks of A' A^T.
        z = rng.standard_normal(f.shape)
        return z[:, :p] @ ft[..., :p] + z[:, p:] @ ft[..., p:]
    # The off-diagonal blocks of A A^T: Y1 Y2^T - Y2 Y1^T.
    g = f[:, :p] @ ft[..., p:]
    return g - g.swapaxes(-1, -2)


def _wishart_draws(
    model: WishartModel,
    root: np.ndarray,
    rng: np.random.Generator,
    k: int,
    decoupled: bool = False,
) -> np.ndarray:
    """k draws of W, or with ``decoupled`` of W', as a (k, p, p) stack.

    Identity and skew-block B take one Gram factor per draw, and for W' a
    standard Gaussian Z after it (_gram_draws): p(p + 1)/2 variates per
    factor once n >= p (p(2p + 1) once n >= 4p for skew-block B), and never
    more than the p n of Y.  Every other B draws Y as one (k, p, n) stack, or
    for W' the pair (Y, Y') as one (2, k, p, n) draw, so a decoupling check's
    block stream stays one (3, k, p, n) draw: the coupled Y, then Y and Y'.
    A diagonal B draws those stacks over its nonzero columns only
    (ShapeSpec._nonzero_entries): W and W' are sums over the columns j of
    b_j times a product of column j, so a zero column adds nothing, and a
    diagonal with no zero entry draws all n.  All whiten as root (...) root / n.
    """
    if model.shape.variant in _ORTHOGONAL_VARIANTS:
        return root @ _gram_draws(model, rng, k, decoupled) @ root / model.n
    entries = model.shape._nonzero_entries
    shape = (k, model.p, model.n if entries is None else entries.size)
    if decoupled:
        y, y_left = rng.standard_normal((2, *shape))
    else:
        y = y_left = rng.standard_normal(shape)
    if entries is None:
        return _whitened_sample(model, y_left, y, root)
    return root @ ((y_left * entries) @ y.swapaxes(-1, -2)) @ root / model.n


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
    root = model.theta._root
    summary = _run_blocks(
        lambda rng, k: _wishart_draws(model, root, rng, k), cfg.trials, cfg.master_seed, workers
    )
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


def _ratio(mean: float, bound: float) -> float:
    """Empirical mean over the bound; 0 for a zero bound."""
    return mean / bound if bound > 0 else 0.0


def check_bound_dominance(
    cfg: TrialConfig,
    convention: KappaConvention = KappaConvention.FROBENIUS,
    workers: int = 1,
) -> DominanceReport:
    """Check empirical mean + 3 stderr <= bound_value."""
    stats = estimate_mean_deviation(cfg, workers)
    bound = deviation_bound(cfg.model, convention)
    holds = stats.mean + INEQUALITY_MARGIN * stats.stderr <= bound.bound_value
    return DominanceReport(stats, bound, _ratio(stats.mean, bound.bound_value), holds)


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


def check_wishart_decoupling(cfg: TrialConfig, workers: int = 1) -> DecouplingReport:
    """Check mean||W - E(W)|| <= 2 mean||W'|| + 3 (se_lhs + 2 se_rhs)."""
    model = cfg.model
    root, w0 = model.theta._root, expected_wishart(model)

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # The coupled draws, then the decoupled ones, all from the block's stream.
        lhs = _spectral_norms(_wishart_draws(model, root, rng, k) - w0)
        rhs = _spectral_norms(_wishart_draws(model, root, rng, k, decoupled=True))
        return np.stack((lhs, rhs), axis=1)

    return DecouplingReport.from_summary(_run_blocks(kernel, cfg.trials, cfg.master_seed, workers))


def check_chaos_decoupling(
    matrices: Sequence,
    theta: SpdMatrix,
    trials: int,
    seed: int,
    workers: int = 1,
) -> DecouplingReport:
    """Check E sup|(BZ, Z) - E(BZ, Z)| <= 2 E sup|(BZ, Z')| over a matrix list.

    The supremum over the finite list is computed exactly per draw, and
    E(BZ, Z) = Tr(B theta) in closed form.
    """
    mats = [as_matrix(m, f"matrices[{i}]") for i, m in enumerate(matrices)]
    if not mats or len(mats) > 16:
        raise ValueError(f"matrix list must have 1..16 members, got {len(mats)}")
    p = theta.p
    for i, m in enumerate(mats):
        if m.shape != (p, p):
            raise DimensionError(f"matrices[{i}] is {m.shape}, expected {(p, p)}")
    stack = np.stack(mats)
    traces = np.einsum("kij,ji->k", stack, theta.array)
    root = theta._root

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # Rows z and z' of N(0, theta): standard rows times the symmetric root.
        z, z_prime = rng.standard_normal((2, k, p)) @ root
        bz = np.einsum("mij,tj->tmi", stack, z)
        lhs = np.abs(np.einsum("tmi,ti->tm", bz, z) - traces).max(axis=1)
        rhs = np.abs(np.einsum("tmi,ti->tm", bz, z_prime)).max(axis=1)
        return np.stack((lhs, rhs), axis=1)

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
    norm_ok = target <= spectral_norm(root) * float(np.linalg.norm(a)) + 1e-12
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
    return math.sqrt(p) / n * np.linalg.norm(bg, axis=-1)


def _unit_direction(direction, p: int) -> np.ndarray:
    """``direction``, a list of finite numbers, checked to have length p and unit norm."""
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
    theta^{1/2} into the deviation being studied).  Holds when the empirical
    tail stays below the theoretical one plus 3 binomial standard errors at
    every grid point with theoretical mass >= 10 / trials.

    With theta = I and a unit d, the std depends on X only through
    g = X^T d ~ N(0, I_n), so each trial draws g alone.  For identity and
    skew-block B, which are orthogonal, ||B g|| = ||g||, and each trial draws
    only ||g|| = sqrt(chi-square(n)).
    """
    if not model.theta.is_identity():
        raise ValueError(
            "concentration check requires theta = I; whiten the model first "
            "(conjugate by theta^{-1/2}) and rerun"
        )
    d = _unit_direction(direction, model.p)
    t_grid = tuple(check_floats(t_grid, "t_grid").tolist())
    if len(t_grid) > MAX_T_GRID:
        raise ValueError(f"t_grid must have at most {MAX_T_GRID} points, got {len(t_grid)}")
    if not all(t >= 0 for t in t_grid):
        raise ValueError(f"t_grid must be nonnegative, got {t_grid}")

    p, n = model.p, model.n
    orthogonal = model.shape.variant in _ORTHOGONAL_VARIANTS
    lipschitz = math.sqrt(p) * shape_spectral_norm(model.shape, n) / n
    mean_bound = math.sqrt(p) * shape_frobenius_norm(model.shape, n) / n

    thresholds = mean_bound + np.array(t_grid)

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # Column 0 is the conditional std, column 1 + i its 0/1 indicator of tail i.
        if orthogonal:
            s = math.sqrt(p) / n * np.sqrt(rng.chisquare(n, k))
        else:
            s = _conditional_stds(model.shape, rng.standard_normal((k, n)), p)
        return np.column_stack((s, s[:, None] >= thresholds))

    summary = _run_blocks(kernel, trials, seed, workers)
    stats, trials = summary.stats(0), summary.trials
    empirical = (summary.total[1:] / trials).tolist()
    # The exponent -t^2 / (2 L^2) is taken as -(t / L)^2 / 2 when L^2 underflows to 0.
    theoretical = [0.5 if t == 0.0 else 0.0 if lipschitz == 0.0 else 0.5 * math.exp(
        -t * t / (2.0 * lipschitz * lipschitz) if lipschitz * lipschitz > 0.0
        else -0.5 * (t / lipschitz) * (t / lipschitz)) for t in t_grid]
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


def count_lipschitz_violations(
    model: WishartModel,
    direction,
    pairs: int,
    seed: int,
    workers: int = 1,
) -> int:
    """Count pairs violating |s(X1) - s(X2)| <= (sqrt(p) ||B|| / n) ||X1 - X2||_F.

    s(X) depends on X only through g = X^T d, and ||X1 - X2||_F^2 splits
    into ||g1 - g2||^2 plus the squared norm R^2 of the part of X1 - X2
    orthogonal to d, which is 2 chi-square((p - 1) n) and independent of
    (g1, g2).  So each block draws the (g1, g2) pairs as one (2, k, n) stack,
    then, for p > 1, the k values of R^2: 2n + 1 variates per pair.  The
    left-hand sides go through the engine as well, so a pair whose s does
    not fit in a float raises ValueError as the concentration check does.
    """
    _unit_direction(direction, model.p)
    p, n = model.p, model.n
    lipschitz = math.sqrt(p) * shape_spectral_norm(model.shape, n) / n

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # Column 0 is |s(X1) - s(X2)|, column 1 its 0/1 indicator of a violation.
        g1, g2 = rng.standard_normal((2, k, n))
        dist_sq = np.square(g1 - g2).sum(axis=-1)
        if p > 1:
            dist_sq += 2.0 * rng.chisquare((p - 1) * n, k)
        lhs = np.abs(_conditional_stds(model.shape, g1, p) - _conditional_stds(model.shape, g2, p))
        return np.column_stack((lhs, lhs > lipschitz * np.sqrt(dist_sq)))

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
    bound = deviation_bound(model).bound_value
    return SweepRow(**vars(stats), p=model.p, n=model.n, bound=bound,
                    ratio=_ratio(stats.mean, bound))


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
    cap: int = SEARCH_CAP,
) -> ComplexityTable:
    """Doubling search for the smallest n with empirical mean + 2 stderr <= tolerance.

    Reports the accepted n per p, with its sweep row, next to the theoretical
    requirement from inverting the closed-form bound; the theoretical value
    dominates whenever the bound itself does.
    """
    tolerance = _check_tolerance(tolerance)
    p_grid = [check_int(p, "p_grid entry") for p in p_grid]
    rows = []
    for p in p_grid:
        theta = theta_rule(p)
        for n, spec in _doubling(shape_family, cap):
            model = WishartModel(p, n, theta, spec)
            stats = estimate_mean_deviation(
                TrialConfig(model, trials, mix_seed(mix_seed(seed, p), n)), workers
            )
            if stats.mean + 2.0 * stats.stderr <= tolerance:
                break
        else:
            raise NotAchievableError(
                f"empirical deviation stays above tolerance {tolerance!r} "
                f"up to the cap {cap} at p = {p}",
                at_cap=stats.mean,
            )
        theoretical = invert_bound_for_n(p, theta._norm, tolerance, shape_family, cap)
        rows.append(ComplexityRow(p, n, theoretical, _sweep_row(model, stats)))
    return ComplexityTable(tuple(rows), tolerance)


# ---------------------------------------------------------------------------
# Report envelope
# ---------------------------------------------------------------------------

def emit_report(check_name: str, config: dict, master_seed: int, payload: dict) -> dict:
    """Wrap a check result in the standard report envelope.

    The config digest is the truncated SHA-256 of the canonical JSON text of
    ``config``, so identical configurations always produce identical reports.
    """
    digest = hashlib.sha256(canonical_dumps(config).encode("utf-8")).hexdigest()[:16]
    report = {"check_name": check_name, "config_digest": digest, "master_seed": master_seed}
    report.update(payload)
    return report

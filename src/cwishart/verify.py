"""Monte Carlo verification of every probabilistic claim about the models.

Determinism contract: every check is a pure function of its inputs including
the master seed.  Trials run in fixed blocks of BLOCK_TRIALS; block b draws
every Gaussian it needs from generator(mix_seed(master_seed, b)), computes its
trials as one vectorized kernel, and the per-trial results are concatenated
in block order before any reduction.  Block boundaries do not depend on the
worker count, which only sets how many threads run blocks at once, so reports
are bit-identical for any worker count.
"""
from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    SEARCH_CAP,
    BoundReport,
    KappaConvention,
    _first_feasible,
    deviation_bound,
    invert_bound_for_n,
)
from .errors import DimensionError, NotAchievableError
from .linalg import (
    Report,
    SpdMatrix,
    as_matrix,
    canonical_dumps,
    check_int,
    check_seed,
    generator,
    mix_seed,
    spd_sqrt,
    spectral_norm,
)
from .model import (
    ShapeSpec,
    WishartModel,
    _whitened_sample,
    build_shape,
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

# Statistical acceptance margins: 3 standard errors for inequality checks,
# 4 for equality-of-means checks (false-failure probability < 1e-3 per check).
INEQUALITY_MARGIN = 3.0
EQUALITY_MARGIN = 4.0

# Trials per block: the unit of random streams and of vectorized work.  Fixed,
# so that results never depend on it being tuned; it also caps peak memory.
BLOCK_TRIALS = 1024


def _run_blocks(
    kernel: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    master_seed: int,
    workers: int | None = 1,
) -> np.ndarray:
    """Per-trial results of ``kernel(rng, k)`` over all blocks, in block order.

    Block b holds k = min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS) trials and
    draws from generator(mix_seed(master_seed, b)); the kernel returns an
    array whose first axis has length k.  workers > 1 runs blocks on a thread
    pool (numpy releases the GIL in its RNG and BLAS calls); kernels must only
    read shared inputs.
    """
    master_seed = check_seed(master_seed)
    sizes = [min(BLOCK_TRIALS, trials - start) for start in range(0, trials, BLOCK_TRIALS)]

    def block(b: int) -> np.ndarray:
        return kernel(generator(mix_seed(master_seed, b)), sizes[b])

    if workers is None or workers <= 1 or len(sizes) < 2:
        return np.concatenate([block(b) for b in range(len(sizes))])
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return np.concatenate(list(ex.map(block, range(len(sizes)))))


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """A model, a trial count, and the master seed driving all substreams."""

    model: WishartModel
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError(f"need at least 2 trials for a standard error, got {self.trials}")
        check_seed(self.master_seed)


@dataclass(frozen=True)
class DeviationStats(Report):
    """Summary of one scalar Monte Carlo sample: mean, stderr, max, count."""

    mean: float
    stderr: float
    max: float
    trials: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "DeviationStats":
        samples = np.asarray(samples, dtype=np.float64)
        n = samples.size
        return cls(
            mean=float(samples.mean()),
            stderr=float(samples.std(ddof=1) / math.sqrt(n)),
            max=float(samples.max()),
            trials=n,
        )


# ---------------------------------------------------------------------------
# Mean deviation and the expectation formula
# ---------------------------------------------------------------------------

def _wishart_draws(
    model: WishartModel, root: np.ndarray, rng: np.random.Generator, k: int
) -> np.ndarray:
    """k coupled draws W, a (k, p, p) stack, from one (k, p, n) Gaussian stack."""
    y = rng.standard_normal((k, model.p, model.n))
    return _whitened_sample(model, y, y, root)


def estimate_mean_deviation(cfg: TrialConfig, workers: int | None = 1) -> DeviationStats:
    """Monte Carlo statistics of ||W - E(W)|| over blocks of trials."""
    model = cfg.model
    root, w0 = model.theta_sqrt, expected_wishart(model)
    samples = _run_blocks(
        lambda rng, k: np.linalg.norm(_wishart_draws(model, root, rng, k) - w0, 2, axis=(-2, -1)),
        cfg.trials, cfg.master_seed, workers,
    )
    return DeviationStats.from_samples(samples)


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


def check_expectation(cfg: TrialConfig, workers: int | None = 1) -> ExpectationReport:
    """Verify E(W) = (Tr B / n) theta entrywise within 4 standard errors."""
    model = cfg.model
    root = model.theta_sqrt
    stack = _run_blocks(
        lambda rng, k: _wishart_draws(model, root, rng, k), cfg.trials, cfg.master_seed, workers
    )
    mean = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
    expected = expected_wishart(model)
    dev = np.abs(mean - expected)
    return ExpectationReport(
        trials=cfg.trials,
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


def check_bound_dominance(
    cfg: TrialConfig,
    convention: KappaConvention = KappaConvention.FROBENIUS,
    workers: int | None = 1,
) -> DominanceReport:
    """Check empirical mean + 3 stderr <= bound_value."""
    stats = estimate_mean_deviation(cfg, workers)
    bound = deviation_bound(cfg.model, convention)
    ratio = stats.mean / bound.bound_value if bound.bound_value > 0 else 0.0
    holds = stats.mean + INEQUALITY_MARGIN * stats.stderr <= bound.bound_value
    return DominanceReport(stats, bound, ratio, holds)


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
    def from_pairs(cls, pairs) -> "DecouplingReport":
        """Report on per-trial (lhs, rhs) rows.

        Holds when mean lhs <= 2 mean rhs + 3 (se_lhs + 2 se_rhs).
        """
        pairs = np.asarray(pairs, dtype=np.float64)
        lhs = DeviationStats.from_samples(pairs[:, 0])
        rhs = DeviationStats.from_samples(pairs[:, 1])
        holds = lhs.mean <= 2.0 * rhs.mean + INEQUALITY_MARGIN * (lhs.stderr + 2.0 * rhs.stderr)
        return cls(lhs, rhs, holds)


def check_wishart_decoupling(cfg: TrialConfig, workers: int | None = 1) -> DecouplingReport:
    """Check mean||W - E(W)|| <= 2 mean||W'|| + 3 (se_lhs + 2 se_rhs)."""
    model = cfg.model
    root, w0 = model.theta_sqrt, expected_wishart(model)

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # Coupled Y, then the decoupled pair (Y, Y'), all from the block's stream.
        y, y_dec, y_prime = rng.standard_normal((3, k, model.p, model.n))
        lhs = np.linalg.norm(_whitened_sample(model, y, y, root) - w0, 2, axis=(-2, -1))
        rhs = np.linalg.norm(_whitened_sample(model, y_prime, y_dec, root), 2, axis=(-2, -1))
        return np.stack((lhs, rhs), axis=1)

    return DecouplingReport.from_pairs(_run_blocks(kernel, cfg.trials, cfg.master_seed, workers))


def check_chaos_decoupling(
    matrices: Sequence,
    theta: SpdMatrix,
    trials: int,
    seed: int,
    workers: int | None = 1,
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
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    stack = np.stack(mats)
    traces = np.einsum("kij,ji->k", stack, theta.array)
    root = spd_sqrt(theta).array

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        # Rows z and z' of N(0, theta): standard rows times the symmetric root.
        z, z_prime = rng.standard_normal((2, k, p)) @ root
        bz = np.einsum("mij,tj->tmi", stack, z)
        lhs = np.abs(np.einsum("tmi,ti->tm", bz, z) - traces).max(axis=1)
        rhs = np.abs(np.einsum("tmi,ti->tm", bz, z_prime)).max(axis=1)
        return np.stack((lhs, rhs), axis=1)

    return DecouplingReport.from_pairs(_run_blocks(kernel, trials, seed, workers))


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
    workers: int | None = 1,
) -> LinearFormReport:
    """Check the standard deviation of (a, Z), Z ~ N(0, theta), is ||theta^{1/2} a||.

    Holds when the sample standard deviation sits within 5 of its own standard
    errors of the target; also records the bound ||theta^{1/2} a|| <=
    ||theta^{1/2}|| * ||a||.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size != theta.p:
        raise DimensionError(f"vector has length {a.size} but theta is {theta.p} x {theta.p}")
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    root = spd_sqrt(theta).array
    target = float(np.linalg.norm(root @ a))
    norm_ok = target <= spectral_norm(root) * float(np.linalg.norm(a)) + 1e-12
    samples = _run_blocks(
        lambda rng, k: (rng.standard_normal((k, theta.p)) @ root) @ a, trials, seed, workers
    )
    sample_std = float(samples.std(ddof=1))
    # Gaussian-sample stderr of the standard deviation itself.
    std_stderr = sample_std / math.sqrt(2.0 * (trials - 1))
    holds = abs(sample_std - target) <= 5.0 * std_stderr
    return LinearFormReport(sample_std, std_stderr, target, trials, norm_ok, holds)


def _conditional_stds(b: np.ndarray, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(sqrt(p)/n) ||B X^T d|| for one p x n draw or each of a (..., p, n) stack."""
    p, n = x.shape[-2:]
    return math.sqrt(p) / n * np.linalg.norm((d @ x) @ b.T, axis=-1)


def _unit_direction(direction, p: int) -> np.ndarray:
    """``direction`` as a float vector, checked to have length p and unit norm."""
    d = np.asarray(direction, dtype=np.float64).ravel()
    if d.size != p:
        raise DimensionError(f"direction has length {d.size} but p = {p}")
    if not abs(np.linalg.norm(d) - 1.0) <= 1e-9:  # also rejects a NaN norm
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
    workers: int | None = 1,
) -> ConcentrationCheck:
    """Verify the sub-Gaussian tail of the conditional standard deviation.

    Requires theta = I (whiten first otherwise: replace theta by I and absorb
    theta^{1/2} into the deviation being studied).  Holds when the empirical
    tail stays below the theoretical one plus 3 binomial standard errors at
    every grid point with theoretical mass >= 10 / trials.
    """
    if not model.theta.is_identity():
        raise ValueError(
            "concentration check requires theta = I; whiten the model first "
            "(conjugate by theta^{-1/2}) and rerun"
        )
    d = _unit_direction(direction, model.p)
    t_grid = tuple(float(t) for t in t_grid)
    if not all(math.isfinite(t) and t >= 0 for t in t_grid):
        raise ValueError(f"t_grid must be finite and nonnegative, got {t_grid}")
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")

    p, n = model.p, model.n
    b = build_shape(model.shape, n)
    lipschitz = math.sqrt(p) * shape_spectral_norm(model.shape, n) / n
    mean_bound = math.sqrt(p) * shape_frobenius_norm(model.shape, n) / n

    samples = _run_blocks(
        lambda rng, k: _conditional_stds(b, rng.standard_normal((k, p, n)), d),
        trials, seed, workers,
    )
    empirical, theoretical, stderrs, asserted = [], [], [], []
    floor = 10.0 / trials
    holds = True
    for t in t_grid:
        emp = float(np.mean(samples >= mean_bound + t))
        if t == 0.0:
            theo = 0.5
        elif lipschitz == 0.0:
            theo = 0.0
        else:
            theo = 0.5 * math.exp(-t * t / (2.0 * lipschitz * lipschitz))
        se = math.sqrt(emp * (1.0 - emp) / trials)
        check_here = theo >= floor
        if check_here and emp > theo + INEQUALITY_MARGIN * se:
            holds = False
        empirical.append(emp)
        theoretical.append(theo)
        stderrs.append(se)
        asserted.append(check_here)

    mean_value = float(samples.mean())
    mean_stderr = float(samples.std(ddof=1) / math.sqrt(trials))
    mean_ok = mean_value <= mean_bound + INEQUALITY_MARGIN * mean_stderr
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
        mean_value=mean_value,
        mean_stderr=mean_stderr,
        mean_ok=mean_ok,
        holds=holds and mean_ok,
    )


def count_lipschitz_violations(
    model: WishartModel,
    direction,
    pairs: int,
    seed: int,
    workers: int | None = 1,
) -> int:
    """Count pairs violating |s(X1) - s(X2)| <= (sqrt(p) ||B|| / n) ||X1 - X2||_F."""
    d = _unit_direction(direction, model.p)
    b = build_shape(model.shape, model.n)
    lipschitz = math.sqrt(model.p) * shape_spectral_norm(model.shape, model.n) / model.n
    if pairs < 1:
        return 0

    def kernel(rng: np.random.Generator, k: int) -> np.ndarray:
        x1, x2 = rng.standard_normal((2, k, model.p, model.n))
        lhs = np.abs(_conditional_stds(b, x1, d) - _conditional_stds(b, x2, d))
        return lhs > lipschitz * np.linalg.norm(x1 - x2, axis=(-2, -1))

    return int(_run_blocks(kernel, pairs, seed, workers).sum())


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
                    ratio=stats.mean / bound if bound > 0 else 0.0)


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
    workers: int | None = 1,
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
    workers: int | None = 1,
    cap: int = SEARCH_CAP,
) -> ComplexityTable:
    """Doubling search for the smallest n with empirical mean + 2 stderr <= tolerance.

    Reports the accepted n per p, with its sweep row, next to the theoretical
    requirement from inverting the closed-form bound; the theoretical value
    dominates whenever the bound itself does.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    rows = []
    for p in p_grid:
        theta = theta_rule(p)
        n = _first_feasible(shape_family, range(1, cap + 1))
        if n is None:
            raise ValueError("shape family has no feasible n below the cap")
        while True:
            model = WishartModel(p, n, theta, shape_family(n))
            stats = estimate_mean_deviation(
                TrialConfig(model, trials, mix_seed(mix_seed(seed, p), n)), workers
            )
            if stats.mean + 2.0 * stats.stderr <= tolerance:
                break
            n = _first_feasible(shape_family, range(2 * n, cap + 1))
            if n is None:
                raise NotAchievableError(
                    f"empirical deviation stays above tolerance {tolerance!r} "
                    f"up to the cap {cap} at p = {p}",
                    at_cap=stats.mean,
                )
        theoretical = invert_bound_for_n(
            p, spectral_norm(theta.array), tolerance, shape_family, cap
        )
        rows.append(ComplexityRow(p, n, theoretical, _sweep_row(model, stats)))
    return ComplexityTable(tuple(rows), float(tolerance))


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

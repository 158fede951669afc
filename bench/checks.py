"""Independent checks of cwishart outputs, using numpy and the stdlib only.

Every check takes a program output in its JSON form (the dict that the
report's ``to_dict`` returns, or the bytes the CLI wrote) together with the
inputs that produced it, recomputes what it can without calling cwishart, and
returns a list of problems.  A problem is a string ``"<field>: <message>"``;
an empty list means the output is right.  The benchmark sorts a failing
operation by the fields of its problems (see ``run.py``).
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

# The bound is exact arithmetic on exact norms; a relative error of 1e-9 is
# far above float rounding (1e-15) and far below the 1e-7 errors of an
# approximate spectral norm.
BOUND_RTOL = 1e-9
# Closed forms (E(W), linear-form target, tail formula) are a few flops apart.
FORMULA_RTOL = 1e-12
# Program statistics against the benchmark's own Monte Carlo estimate.
REFERENCE_Z = 5.0
# The slope of log E||W - E(W)|| against log n, from the paper's 1/sqrt(n) rate.
SLOPE_RANGE = (-0.6, -0.4)

INEQUALITY_MARGIN = 3.0
EQUALITY_MARGIN = 4.0
STD_MARGIN = 5.0


def _close(actual, expected, rtol) -> bool:
    return abs(actual - expected) <= rtol * max(abs(expected), abs(actual))


def _field(out: list, name: str, actual, expected, rtol) -> None:
    if not _close(float(actual), float(expected), rtol):
        out.append(f"{name}: program {actual!r} != reference {expected!r} (rtol {rtol:g})")


def _verdict(out: list, name: str, reported, recomputed) -> None:
    if reported is not True:
        out.append(f"{name}: verdict is {reported!r}, expected true")
    if bool(reported) != bool(recomputed):
        out.append(f"{name}: verdict {reported!r} disagrees with its own statistics")


# ---------------------------------------------------------------------------
# Shape matrices and the bound
# ---------------------------------------------------------------------------

def shape_matrix(variant: str, n: int, entries=None, matrix=None) -> np.ndarray:
    """The n x n shape matrix B, built from its description."""
    if variant == "identity":
        return np.eye(n)
    if variant == "diagonal":
        return np.diag(np.asarray(entries, dtype=np.float64))
    if variant == "skew_block":
        h = n // 2
        b = np.zeros((n, n))
        b[:h, h:] = np.eye(h)
        b[h:, :h] = -np.eye(h)
        return b
    return np.asarray(matrix, dtype=np.float64)


def reference_bound(p: int, n: int, b: np.ndarray, theta: np.ndarray,
                    convention: str = "frobenius") -> dict:
    """The deviation bound from SVD singular values, ||B||_F and ||theta||."""
    sigma = float(np.linalg.svd(b, compute_uv=False)[0])
    frob = float(np.linalg.norm(b, "fro"))
    theta_norm = float(np.linalg.svd(theta, compute_uv=False)[0])
    log_fac = math.ceil(math.log(2 * p)) ** 2
    kappa = frob if convention == "frobenius" else frob / sigma
    value = 24.0 * log_fac * math.sqrt(p) * (4.0 * sigma + kappa * math.sqrt(math.pi)) / n * theta_norm
    return {"p": p, "n": n, "sigma": sigma, "kappa": kappa, "convention": convention,
            "log_factor": log_fac, "theta_norm": theta_norm, "bound_value": value}


def check_bound(report: dict, ref: dict, prefix: str = "") -> list:
    out: list = []
    for key in ("p", "n", "log_factor", "convention"):
        if report.get(key) != ref[key]:
            out.append(f"{prefix}{key}: program {report.get(key)!r} != reference {ref[key]!r}")
    for key in ("sigma", "kappa", "theta_norm", "bound_value"):
        _field(out, prefix + key, report[key], ref[key], BOUND_RTOL)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------

def _stats_ok(out: list, name: str, stats: dict, trials: int) -> None:
    if stats["trials"] != trials:
        out.append(f"{name}.trials: {stats['trials']!r} != {trials}")
    if not (stats["stderr"] >= 0.0 and stats["max"] >= stats["mean"] >= 0.0):
        out.append(f"{name}: inconsistent statistics {stats!r}")


def check_dominance(report: dict, ref_bound: dict, trials: int) -> list:
    """Bound recomputed, ratio = mean / bound, mean + 3 se <= bound, verdict true."""
    out = check_bound(report["bound"], ref_bound, "bound.")
    emp = report["empirical"]
    _stats_ok(out, "empirical", emp, trials)
    bound = report["bound"]["bound_value"]
    _field(out, "ratio", report["ratio"], emp["mean"] / bound, FORMULA_RTOL)
    _verdict(out, "holds", report["holds"], emp["mean"] + INEQUALITY_MARGIN * emp["stderr"] <= bound)
    return out


def check_decoupling(report: dict, trials: int) -> list:
    """mean lhs <= 2 mean rhs + 3 (se_lhs + 2 se_rhs), verdict true."""
    out: list = []
    lhs, rhs = report["lhs"], report["rhs"]
    _stats_ok(out, "lhs", lhs, trials)
    _stats_ok(out, "rhs", rhs, trials)
    ok = lhs["mean"] <= 2.0 * rhs["mean"] + INEQUALITY_MARGIN * (lhs["stderr"] + 2.0 * rhs["stderr"])
    _verdict(out, "holds", report["holds"], ok)
    return out


def check_expectation(report: dict, shape_trace: float, n: int, theta: np.ndarray,
                      trials: int) -> list:
    """E(W) = (Tr B / n) theta recomputed; every entry within 4 standard errors."""
    out: list = []
    expected = (shape_trace / n) * theta
    got = np.asarray(report["expected_matrix"]).reshape(theta.shape)
    if not np.allclose(got, expected, rtol=FORMULA_RTOL, atol=0.0):
        out.append(f"expected_matrix: program {got.ravel()!r} != reference {expected.ravel()!r}")
    if report["trials"] != trials:
        out.append(f"trials: {report['trials']!r} != {trials}")
    mean = np.asarray(report["mean_matrix"])
    se = np.asarray(report["stderr_matrix"])
    ok = bool(np.all(np.abs(mean - expected.ravel()) <= EQUALITY_MARGIN * se))
    _verdict(out, "holds", report["holds"], ok)
    return out


def check_linear_form(report: dict, theta: np.ndarray, a: np.ndarray, trials: int) -> list:
    """Target sqrt(a^T theta a) recomputed; sample std within 5 of its standard errors."""
    out: list = []
    target = math.sqrt(float(a @ theta @ a))
    _field(out, "target", report["target"], target, FORMULA_RTOL)
    _field(out, "std_stderr", report["std_stderr"],
           report["sample_std"] / math.sqrt(2.0 * (trials - 1)), FORMULA_RTOL)
    if report["trials"] != trials:
        out.append(f"trials: {report['trials']!r} != {trials}")
    if report["norm_inequality_ok"] is not True:
        out.append("norm_inequality_ok: expected true")
    ok = abs(report["sample_std"] - target) <= STD_MARGIN * report["std_stderr"]
    _verdict(out, "holds", report["holds"], ok)
    return out


def check_concentration(report: dict, p: int, n: int, b: np.ndarray, trials: int) -> list:
    """Tail formula 0.5 exp(-t^2 / 2L^2) with L = sqrt(p) ||B|| / n recomputed."""
    out: list = []
    lipschitz = math.sqrt(p) * float(np.linalg.svd(b, compute_uv=False)[0]) / n
    mean_bound = math.sqrt(p) * float(np.linalg.norm(b, "fro")) / n
    _field(out, "lipschitz", report["lipschitz"], lipschitz, FORMULA_RTOL)
    _field(out, "mean_bound", report["mean_bound"], mean_bound, FORMULA_RTOL)
    ok = True
    for i, t in enumerate(report["t_grid"]):
        theo = 0.5 if t == 0.0 else 0.5 * math.exp(-t * t / (2.0 * lipschitz * lipschitz))
        _field(out, f"theoretical_tails[{i}]", report["theoretical_tails"][i], theo, FORMULA_RTOL)
        if not report["asserted"][i]:
            out.append(f"asserted[{i}]: tail at t={t!r} is not asserted")
        emp = report["empirical_tails"][i]
        ok = ok and emp <= theo + INEQUALITY_MARGIN * report["tail_stderr"][i]
    ok = ok and report["mean_value"] <= mean_bound + INEQUALITY_MARGIN * report["mean_stderr"]
    if report["trials"] != trials:
        out.append(f"trials: {report['trials']!r} != {trials}")
    _verdict(out, "holds", report["holds"], ok)
    return out


def check_lipschitz(violations) -> list:
    return [] if violations == 0 else [f"violations: {violations!r} Lipschitz violations, expected 0"]


def check_sweep(report: dict, p: int, n_grid, theta: np.ndarray, trials: int) -> list:
    """Row bounds recomputed (identity family), slope refitted and in [-0.6, -0.4]."""
    out: list = []
    rows = report["rows"]
    if [r["n"] for r in rows] != list(n_grid):
        out.append(f"rows: n grid {[r['n'] for r in rows]!r} != {list(n_grid)!r}")
        return out
    for r in rows:
        ref = reference_bound(p, r["n"], np.eye(r["n"]), theta)
        _field(out, f"rows[n={r['n']}].bound", r["bound"], ref["bound_value"], BOUND_RTOL)
        if r["trials"] != trials:
            out.append(f"rows[n={r['n']}].trials: {r['trials']!r} != {trials}")
    slope = report["slope"]
    if report["degenerate"] or slope is None:
        return out + ["slope: sweep reported degenerate"]
    fit = float(np.polyfit(np.log([r["n"] for r in rows]), np.log([r["mean"] for r in rows]), 1)[0])
    _field(out, "slope", slope, fit, 1e-9)
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        out.append(f"slope: {slope!r} outside {SLOPE_RANGE}")
    return out


# ---------------------------------------------------------------------------
# Regular-vector certificates
# ---------------------------------------------------------------------------

def all_regular_vectors(p: int) -> np.ndarray:
    """Every vector with entries in {0, +1, -1}, scaled to unit norm, as rows."""
    rows = np.array([v for v in itertools.product((0.0, 1.0, -1.0), repeat=p) if any(v)])
    return rows / np.sqrt(np.count_nonzero(rows, axis=1))[:, None]


def brute_force_reg_max(a: np.ndarray) -> float:
    """max (A x, y) over all pairs of regular vectors, by full enumeration."""
    r = all_regular_vectors(a.shape[0])
    return float((r @ a @ r.T).max())


def check_certificate(cert: dict, a: np.ndarray, brute_force: bool) -> list:
    """reg_max <= ||A|| <= 12 ceil(ln 2p)^2 reg_max, exact norm from SVD."""
    out: list = []
    p = a.shape[0]
    factor = 12 * math.ceil(math.log(2 * p)) ** 2
    if cert["p"] != p or cert["factor"] != factor:
        out.append(f"factor: p={cert['p']!r} factor={cert['factor']!r}, expected p={p} factor={factor}")
    _field(out, "exact_norm", cert["exact_norm"], np.linalg.svd(a, compute_uv=False)[0], BOUND_RTOL)
    if brute_force:
        _field(out, "reg_max", cert["reg_max"], brute_force_reg_max(a), FORMULA_RTOL)
    exact, reg = cert["exact_norm"], cert["reg_max"]
    sandwich = reg <= exact * (1 + FORMULA_RTOL) and exact <= factor * reg * (1 + FORMULA_RTOL)
    if not sandwich:
        out.append(f"reg_max: sandwich reg_max={reg!r} <= norm={exact!r} <= {factor}*reg_max fails")
    _verdict(out, "holds", cert["holds"], sandwich)
    return out


# ---------------------------------------------------------------------------
# The benchmark's own Monte Carlo estimate
# ---------------------------------------------------------------------------

def reference_mean_deviation(p: int, n: int, b: np.ndarray, theta: np.ndarray,
                             trials: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of ||W - E(W)|| from numpy draws with the given seed."""
    rng = np.random.default_rng(seed)
    w, v = np.linalg.eigh(theta)
    root = (v * np.sqrt(w)) @ v.T
    y = rng.standard_normal((trials, p, n))
    wish = root @ (y @ b @ np.swapaxes(y, 1, 2)) @ root / n
    dev = np.linalg.svd(wish - (np.trace(b) / n) * theta, compute_uv=False)[:, 0]
    return float(dev.mean()), float(dev.std(ddof=1) / math.sqrt(trials))


def check_against_reference(stats: dict, ref: tuple[float, float]) -> list:
    mean, se = ref
    z = abs(stats["mean"] - mean) / math.hypot(stats["stderr"], se)
    if z > REFERENCE_Z:
        return [f"empirical.mean: program {stats['mean']!r} is {z:.1f} standard errors "
                f"from the reference {mean!r}"]
    return []


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def check_bytes(name: str, actual, expected) -> list:
    """Byte identity of a CLI output against the library call at workers=1."""
    if actual == expected:
        return []
    if actual is None:
        return [f"{name}: missing"]
    a, e = str(actual), str(expected)
    at = next((i for i, (x, y) in enumerate(zip(a, e)) if x != y), min(len(a), len(e)))
    return [f"{name}: differs from the library output at byte {at} "
            f"({a[at:at + 20]!r} != {e[at:at + 20]!r})"]


def check_draw(w_text, wprime_text, p: int, n: int, b: np.ndarray, theta: np.ndarray,
               seed: int, mix_seed) -> list:
    """First coupled and decoupled draws recomputed from numpy PCG64 streams.

    Follows the documented stream contract: the coupled Y uses tag 0, the
    decoupled Y and Y' tags 1 and 2 of the draw's seed.
    """
    w, v = np.linalg.eigh(theta)
    root = (v * np.sqrt(w)) @ v.T

    def gauss(tag):
        return np.random.Generator(np.random.PCG64(mix_seed(seed, tag))).standard_normal((p, n))

    y = gauss(0)
    y1, y2 = gauss(1), gauss(2)
    out = []
    for name, text, ref in (("W.000.json", w_text, root @ (y @ b @ y.T) @ root / n),
                            ("Wprime.000.json", wprime_text, root @ (y2 @ b @ y1.T) @ root / n)):
        if text is None:
            out.append(f"{name}: missing")
            continue
        d = json.loads(text)
        got = np.asarray(d["entries"], dtype=np.float64).reshape(d["rows"], d["cols"])
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=0.0,
                                                     atol=1e-10 * np.abs(ref).max()):
            out.append(f"{name}: draw differs from the numpy recomputation")
    return out


def check_exit(code) -> list:
    return [] if code == 0 else [f"exit: code {code!r}, expected 0"]

"""Closed-form deviation bound for compound Wishart matrices and its inversion.

The bound on E||W - E(W)|| is

    24 * ceil(ln 2p)^2 * sqrt(p) * (4*sigma + kappa*sqrt(pi)) / n * ||theta||

with sigma the spectral norm of the shape matrix and kappa either its
Frobenius norm or the Frobenius-to-spectral ratio, depending on the chosen
convention.  Both conventions are exposed; reports label which one was used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import (
    DimensionError,
    NotAchievableError,
    ShapeParityError,
    ZeroSpectralNormError,
)
from .linalg import Report, spectral_norm
from .model import (
    ShapeSpec,
    WishartModel,
    WishartSequenceSpec,
    _validate_shape,
    shape_frobenius_norm,
    shape_spectral_norm,
)

__all__ = [
    "KappaConvention",
    "BoundInputs",
    "BoundReport",
    "log_factor",
    "deviation_bound",
    "sequence_bound",
    "invert_bound_for_n",
]

SEARCH_CAP = 2**20


class KappaConvention(str, Enum):
    """How kappa is derived from the shape matrix B."""

    FROBENIUS = "frobenius"          # kappa = ||B||_Frob
    RATIO = "ratio"                  # kappa = ||B||_Frob / ||B||

    def kappa(self, frob: float, spec: float) -> float:
        if self is KappaConvention.FROBENIUS:
            return frob
        if spec == 0.0:
            raise ZeroSpectralNormError(
                "ratio kappa convention divides by the spectral norm, which is zero"
            )
        return frob / spec


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs of the bound formula."""

    p: int
    n: int
    sigma: float
    kappa: float
    theta_norm: float

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise DimensionError(f"p and n must be positive, got p={self.p}, n={self.n}")
        for name in ("sigma", "kappa", "theta_norm"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")


def log_factor(p: int) -> int:
    """ceil(ln(2p))^2 with the natural logarithm."""
    if p < 1:
        raise DimensionError(f"p must be positive, got {p}")
    return math.ceil(math.log(2 * p)) ** 2


def _formula(inputs: BoundInputs, log_fac: int) -> float:
    return (
        24.0
        * log_fac
        * math.sqrt(inputs.p)
        * (4.0 * inputs.sigma + inputs.kappa * math.sqrt(math.pi))
        / inputs.n
        * inputs.theta_norm
    )


@dataclass(frozen=True)
class BoundReport(BoundInputs, Report):
    """Evaluated bound together with everything needed to recompute it."""

    convention: KappaConvention
    log_factor: int
    bound_value: float

    def recompute(self) -> float:
        return _formula(self, self.log_factor)


def _report(p: int, n: int, sigma: float, kappa: float, theta_norm: float,
            convention: KappaConvention) -> BoundReport:
    inputs = BoundInputs(p=p, n=n, sigma=sigma, kappa=kappa, theta_norm=theta_norm)
    log_fac = log_factor(p)
    return BoundReport(**vars(inputs), convention=convention, log_factor=log_fac,
                       bound_value=_formula(inputs, log_fac))


def deviation_bound(
    model: WishartModel,
    convention: KappaConvention = KappaConvention.FROBENIUS,
) -> BoundReport:
    """Evaluate the deviation bound for one model."""
    convention = KappaConvention(convention)
    sigma = shape_spectral_norm(model.shape, model.n)
    frob = shape_frobenius_norm(model.shape, model.n)
    return _report(
        model.p,
        model.n,
        sigma,
        convention.kappa(frob, sigma),
        spectral_norm(model.theta.array),
        convention,
    )


def sequence_bound(seq: WishartSequenceSpec, n: int) -> BoundReport:
    """Evaluate the bound at n using constants uniform over the whole sequence.

    kappa and sigma are the maxima of the per-index Frobenius and spectral
    norms; the spec has already checked the trace normalization Tr(B_m) = m.
    """
    if n not in seq.index_set:
        raise ValueError(f"n = {n} is not in the index set {seq.index_set}")
    sigma = max(shape_spectral_norm(seq.shape_family(m), m) for m in seq.index_set)
    kappa = max(shape_frobenius_norm(seq.shape_family(m), m) for m in seq.index_set)
    return _report(
        seq.p, n, sigma, kappa, spectral_norm(seq.theta.array), KappaConvention.FROBENIUS
    )


def _bound_at(p: int, theta_norm: float, shape_family: Callable[[int], ShapeSpec],
              n: int) -> float:
    spec = shape_family(n)
    return _report(p, n, shape_spectral_norm(spec, n), shape_frobenius_norm(spec, n),
                   theta_norm, KappaConvention.FROBENIUS).bound_value


def _first_feasible(shape_family: Callable[[int], ShapeSpec], ns: range) -> int | None:
    """First n of ``ns`` (ascending or descending) the family is defined for.

    Only the first 64 members of ``ns`` are tried.
    """
    for n in ns[:64]:
        try:
            _validate_shape(shape_family(n), n)
        except (ShapeParityError, DimensionError):
            continue
        return n
    return None


def invert_bound_for_n(
    p: int,
    theta_norm: float,
    tolerance: float,
    shape_family: Callable[[int], ShapeSpec],
    cap: int = SEARCH_CAP,
) -> int:
    """Minimal n in the family's domain with bound <= tolerance.

    Uses the Frobenius kappa convention and a doubling-then-bisection search;
    ties break toward the smaller n.  Raises when the bound still exceeds the
    tolerance at the cap.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    start = _first_feasible(shape_family, range(1, cap + 1))
    if start is None:
        raise ValueError("shape family has no feasible n below the cap")
    if _bound_at(p, theta_norm, shape_family, start) <= tolerance:
        return start

    lo = start
    hi = None
    n = start
    while hi is None:
        n *= 2
        if n > cap:
            probe = _first_feasible(shape_family, range(cap, 0, -1))
            raise NotAchievableError(
                f"bound stays above tolerance {tolerance!r} up to the cap {cap}",
                at_cap=_bound_at(p, theta_norm, shape_family, lo if probe is None else probe),
            )
        m = _first_feasible(shape_family, range(n, cap + 1))
        if m is None:
            continue
        if _bound_at(p, theta_norm, shape_family, m) <= tolerance:
            hi = m
        else:
            lo = m
        n = m

    # Invariant: bound(hi) <= tolerance, and lo < hi was evaluated above it.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        m = _first_feasible(shape_family, range(mid, hi))
        if m is None:
            break
        if _bound_at(p, theta_norm, shape_family, m) <= tolerance:
            hi = m
        else:
            lo = m
    return hi

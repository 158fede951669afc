"""Closed-form deviation bound for compound Wishart matrices and its inversion.

The bound on E||W - E(W)|| is

    24 * ceil(ln 2p)^2 * sqrt(p) * (4*sigma + kappa*sqrt(pi)) / n * ||theta||

with sigma the spectral norm of the shape matrix and kappa either its
Frobenius norm or the Frobenius-to-spectral ratio, depending on the chosen
convention.  Both conventions are exposed; reports label which one was used.

Sample-complexity searches double n through a shape family's domain; the walk
stops past SEARCH_CAP = 2**20 or at the first window of 64 n values with no
feasible member.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .errors import (
    DimensionError,
    NotAchievableError,
    ShapeParityError,
    ZeroSpectralNormError,
)
from .linalg import Report, check_int
from .model import (
    ShapeSpec,
    WishartModel,
    _validate_shape,
    shape_frobenius_norm,
    shape_spectral_norm,
)

__all__ = [
    "KappaConvention",
    "BoundReport",
    "log_factor",
    "deviation_bound",
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


def log_factor(p: int) -> int:
    """ceil(ln(2p))^2 with the natural logarithm."""
    if p < 1:
        raise DimensionError(f"p must be positive, got {p}")
    return math.ceil(math.log(2 * p)) ** 2


@dataclass(frozen=True)
class BoundReport(Report):
    """Evaluated bound together with everything needed to recompute it.

    Construction checks the inputs (p and n under ``check_int``'s rule) and
    computes ``log_factor`` and ``bound_value`` unless given.
    """

    p: int
    n: int
    sigma: float
    kappa: float
    theta_norm: float
    convention: KappaConvention
    log_factor: int | None = None
    bound_value: float | None = None

    def __post_init__(self):
        for name in ("p", "n"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        if self.p < 1 or self.n < 1:
            raise DimensionError(f"p and n must be positive, got p={self.p}, n={self.n}")
        for name in ("sigma", "kappa", "theta_norm"):
            v = getattr(self, name)
            # copysign also rejects -0.0, which a bound would carry into its sign.
            if not math.isfinite(v) or math.copysign(1.0, v) < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")
        if self.log_factor is None:
            object.__setattr__(self, "log_factor", log_factor(self.p))
        if self.bound_value is None:
            object.__setattr__(self, "bound_value", self.recompute())

    def recompute(self) -> float:
        return (24.0 * self.log_factor * math.sqrt(self.p)
                * (4.0 * self.sigma + self.kappa * math.sqrt(math.pi)) / self.n * self.theta_norm)


def deviation_bound(
    model: WishartModel,
    convention: KappaConvention = KappaConvention.FROBENIUS,
) -> BoundReport:
    """Evaluate the deviation bound for one model."""
    convention = KappaConvention(convention)
    sigma = shape_spectral_norm(model.shape, model.n)
    frob = shape_frobenius_norm(model.shape, model.n)
    return BoundReport(model.p, model.n, sigma, convention.kappa(frob, sigma), model.theta._norm,
                       convention)


def _feasible(shape_family: Callable[[int], ShapeSpec],
              ns: range) -> tuple[int, ShapeSpec] | None:
    """``(n, spec)`` at the first of the first 64 members of ``ns`` the family is defined for."""
    for n in ns[:64]:
        try:
            spec = shape_family(n)
            _validate_shape(spec, n)
        except (ShapeParityError, DimensionError):
            continue
        return n, spec
    return None


def _doubling(shape_family: Callable[[int], ShapeSpec]) -> Iterator[tuple[int, ShapeSpec]]:
    """``(n, spec)`` at the first feasible n, then at the first feasible n from twice the last.

    Stops past SEARCH_CAP or at a window of 64 n values with no feasible member;
    raises when the family has no feasible n at all.
    """
    found = _feasible(shape_family, range(1, SEARCH_CAP + 1))
    if found is None:
        raise ValueError("shape family has no feasible n below the cap")
    while found is not None:
        yield found
        found = _feasible(shape_family, range(2 * found[0], SEARCH_CAP + 1))


def _check_tolerance(tolerance) -> float:
    """``tolerance`` as a float, checked to be a finite, positive real number (not a bool)."""
    # Comparing with the largest float also rejects NaN and ints too large for a float.
    if (isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real)
            or not abs(tolerance) <= sys.float_info.max or tolerance <= 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tolerance!r:.80}")
    return float(tolerance)


def invert_bound_for_n(
    p: int,
    theta_norm: float,
    tolerance: float,
    shape_family: Callable[[int], ShapeSpec],
) -> int:
    """Minimal n in the family's domain with bound <= tolerance.

    Uses the Frobenius kappa convention and a doubling-then-bisection search;
    ties break toward the smaller n.  Raises when the bound still exceeds the
    tolerance at the last n the doubling reaches.
    """
    tolerance = _check_tolerance(tolerance)

    def bound(n: int, spec: ShapeSpec) -> float:
        return BoundReport(p, n, shape_spectral_norm(spec, n), shape_frobenius_norm(spec, n),
                           theta_norm, KappaConvention.FROBENIUS).bound_value

    lo = None
    for hi, spec in _doubling(shape_family):
        value = bound(hi, spec)
        if value <= tolerance:
            break
        lo = hi
    else:
        raise NotAchievableError(
            f"bound stays above tolerance {tolerance!r} up to the cap {SEARCH_CAP}", at_cap=value)

    # Invariant: bound(hi) <= tolerance, and lo < hi was evaluated above it.
    while lo is not None and hi - lo > 1:
        found = _feasible(shape_family, range((lo + hi) // 2, hi))
        if found is None:
            break
        if bound(*found) <= tolerance:
            hi = found[0]
        else:
            lo = found[0]
    return hi

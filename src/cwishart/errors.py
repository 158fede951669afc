"""Exception hierarchy for the cwishart package."""
from __future__ import annotations


class WishartError(Exception):
    """Base class for all cwishart errors."""


class InvalidMatrixError(WishartError):
    """Matrix input is malformed or contains non-finite entries."""


class DimensionError(WishartError):
    """Dimensions of the inputs are inconsistent."""


class NotPositiveDefiniteError(WishartError):
    """Matrix is not positive definite; carries the offending eigenvalue."""

    def __init__(self, eigenvalue: float, tolerance: float):
        self.eigenvalue = float(eigenvalue)
        self.tolerance = float(tolerance)
        super().__init__(
            f"matrix is not positive definite: minimal eigenvalue "
            f"{self.eigenvalue:.6e} <= tolerance {self.tolerance:.1e}"
        )


class ShapeParityError(WishartError):
    """Skew-block shape matrices require an even dimension."""


class EnumerationCapError(WishartError):
    """Regular-vector enumeration would exceed the supported dimension cap."""

    def __init__(self, message: str, count: int):
        self.count = int(count)
        super().__init__(f"{message} ({self.count} vectors would be enumerated)")


class NotAchievableError(WishartError):
    """A doubling search exceeded its cap; carries the value at the last n it evaluated."""

    def __init__(self, message: str, at_cap: float):
        self.at_cap = float(at_cap)
        super().__init__(f"{message} (value at cap: {self.at_cap:.6e})")


class ZeroSpectralNormError(WishartError, ZeroDivisionError):
    """Ratio kappa convention is undefined for a shape matrix with zero norm."""

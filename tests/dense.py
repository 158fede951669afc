"""The dense n x n shape matrix B: the tests' reference for what the package applies.

The package never realizes B (``apply_shape`` and the closed-form norms work
on the spec), so the dense form lives here, next to the tests that compare
against it.
"""
import numpy as np

from cwishart.model import ShapeSpec, _validate_shape


def build_shape(spec: ShapeSpec, n: int) -> np.ndarray:
    """Realize the n x n shape matrix for ``spec``."""
    _validate_shape(spec, n)
    if spec.variant == "identity":
        return np.eye(n)
    if spec.variant == "diagonal":
        return np.diag(spec.entries)
    if spec.variant == "skew_block":
        half = n // 2
        b = np.zeros((n, n))
        b[:half, half:] = np.eye(half)
        b[half:, :half] = -np.eye(half)
        return b
    return np.array(spec.matrix)

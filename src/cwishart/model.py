"""Compound Wishart models: shape matrices, samplers, and exact expectations.

A model is the tuple (p, n, theta, shape) describing the law of
W = (1/n) * X B X^T with X_i ~ N(0, theta).  Sampling uses the whitened
representation W = (1/n) * theta^{1/2} Y B Y^T theta^{1/2} with standard
Gaussian Y, so that one seed fixes the draw for every theta.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionError, InvalidMatrixError, ShapeParityError
from .linalg import (
    SpdMatrix,
    as_matrix,
    check_floats,
    check_int,
    frobenius_norm,
    generator,
    matrix_from_dict,
    matrix_to_dict,
    mix_seed,
    spectral_norm,
)

__all__ = [
    "ShapeSpec",
    "WishartModel",
    "shape_trace",
    "shape_spectral_norm",
    "shape_frobenius_norm",
    "apply_shape",
    "sample_wishart",
    "sample_decoupled",
    "expected_wishart",
    "identity_family",
    "skew_block_family",
    "normalized_diagonal_family",
    "model_to_dict",
    "model_from_dict",
    "load_model",
]

# Disjoint substream tags: one seed reproduces the whole experiment while the
# coupled Y, decoupled Y, and decoupled Y' streams never overlap.
STREAM_COUPLED_Y = 0
STREAM_DECOUPLED_Y = 1
STREAM_DECOUPLED_YPRIME = 2

_VARIANTS = ("identity", "diagonal", "skew_block", "custom")
# The variants whose B is orthogonal, so every singular value is 1 and ||B g|| = ||g||.
_ORTHOGONAL_VARIANTS = ("identity", "skew_block")


@dataclass(frozen=True, eq=False)
class ShapeSpec:
    """Declarative description of the n x n shape matrix B.

    Variants: "identity", "diagonal" (carries the diagonal entries),
    "skew_block" (the block matrix [[0, I], [-I, 0]], even n only), and
    "custom" (an arbitrary square matrix, accepted unvalidated beyond
    dimensions).  Diagonal entries are a list of finite numbers
    (``linalg.check_floats``), stored as a read-only float64 copy.
    """

    variant: str
    entries: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown shape variant {self.variant!r}; expected one of {_VARIANTS}")
        if self.variant == "diagonal":
            if self.entries is None:
                raise InvalidMatrixError("diagonal shape requires entries")
            ent = check_floats(self.entries, "diagonal entries")
            ent.setflags(write=False)
            object.__setattr__(self, "entries", ent)
        elif self.entries is not None:
            raise ValueError(f"entries only apply to the diagonal variant, not {self.variant!r}")
        if self.variant == "custom":
            if self.matrix is None:
                raise InvalidMatrixError("custom shape requires a matrix")
            arr = np.array(as_matrix(self.matrix, "shape matrix"), order="C")
            if arr.shape[0] != arr.shape[1]:
                raise DimensionError(f"custom shape matrix must be square, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, "matrix", arr)
        elif self.matrix is not None:
            raise ValueError(f"matrix only applies to the custom variant, not {self.variant!r}")

    def __reduce__(self):  # pickle and copy through __init__: a copy is validated too
        return type(self), (self.variant, self.entries, self.matrix)

    @cached_property
    def _custom_sigma(self) -> float:
        """Spectral norm of the custom matrix, computed once per spec."""
        return spectral_norm(self.matrix)

    @cached_property
    def _custom_frobenius(self) -> float:
        """Frobenius norm of the custom matrix, computed once per spec."""
        return frobenius_norm(self.matrix)

    @cached_property
    def _nonzero_entries(self) -> np.ndarray | None:
        """The nonzero diagonal entries, in order, for a diagonal; else None."""
        if self.variant != "diagonal":
            return None
        entries = self.entries[self.entries != 0]
        entries.setflags(write=False)
        return entries

    @classmethod
    def identity(cls) -> "ShapeSpec":
        return cls("identity")

    @classmethod
    def diagonal(cls, entries: Sequence[float]) -> "ShapeSpec":
        return cls("diagonal", entries=entries)

    @classmethod
    def skew_block(cls) -> "ShapeSpec":
        return cls("skew_block")

    @classmethod
    def custom(cls, matrix) -> "ShapeSpec":
        return cls("custom", matrix=matrix)


def _validate_shape(spec: ShapeSpec, n: int) -> None:
    if n < 1:
        raise DimensionError(f"shape dimension must be positive, got {n}")
    if n > sys.float_info.max:
        raise DimensionError(
            f"n must be at most {sys.float_info.max:.6g}, got a {len(str(n))}-digit n"
        )
    if spec.variant == "skew_block" and n % 2 != 0:
        raise ShapeParityError(f"skew-block shape requires even n, got {n}")
    if spec.variant == "diagonal" and len(spec.entries) != n:
        raise DimensionError(
            f"diagonal shape has {len(spec.entries)} entries but n = {n}"
        )
    if spec.variant == "custom" and spec.matrix.shape[0] != n:
        raise DimensionError(
            f"custom shape matrix is {spec.matrix.shape[0]} x {spec.matrix.shape[1]} but n = {n}"
        )


def shape_trace(spec: ShapeSpec, n: int) -> float:
    """Tr(B); a trace that does not fit in a float raises ValueError."""
    _validate_shape(spec, n)
    if spec.variant == "identity":
        return float(n)
    if spec.variant == "skew_block":
        return 0.0
    try:
        with np.errstate(over="ignore"):
            trace = (math.fsum(spec.entries) if spec.variant == "diagonal"
                     else float(np.trace(spec.matrix)))
    except OverflowError:
        trace = math.inf
    if not math.isfinite(trace):
        raise ValueError("the trace of B overflows floating point; scale B down")
    return trace


def shape_spectral_norm(spec: ShapeSpec, n: int) -> float:
    _validate_shape(spec, n)
    if spec.variant in _ORTHOGONAL_VARIANTS:
        return 1.0
    if spec.variant == "diagonal":
        return float(np.abs(spec.entries).max())
    return spec._custom_sigma


def shape_frobenius_norm(spec: ShapeSpec, n: int) -> float:
    _validate_shape(spec, n)
    if spec.variant in _ORTHOGONAL_VARIANTS:
        return math.sqrt(n)
    if spec.variant == "diagonal":
        # At unit scale, as in linalg.frobenius_norm.
        _, exp = np.frexp(np.abs(spec.entries).max())
        return float(np.ldexp(np.linalg.norm(np.ldexp(spec.entries, -exp)), exp))
    return spec._custom_frobenius


def apply_shape(y: np.ndarray, spec: ShapeSpec, n: int) -> np.ndarray:
    """Compute Y @ B over the last axis of ``y`` (one draw or a stack of draws).

    The structured variants never materialize B.
    """
    _validate_shape(spec, n)
    if spec.variant == "identity":
        return y
    if spec.variant == "diagonal":
        return y * spec.entries
    if spec.variant == "skew_block":
        half = n // 2
        return np.concatenate((-y[..., half:], y[..., :half]), axis=-1)
    # One GEMM over every row of every draw: a broadcast matmul repacks B per draw.
    return (y.reshape(-1, n) @ spec.matrix).reshape(y.shape)


@dataclass(frozen=True, eq=False)
class WishartModel:
    """One compound Wishart law: dimension p, sample count n, scale, shape."""

    p: int
    n: int
    theta: SpdMatrix
    shape: ShapeSpec

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise DimensionError(f"p and n must be positive, got p={self.p}, n={self.n}")
        if self.theta.p != self.p:
            raise DimensionError(
                f"scale matrix is {self.theta.p} x {self.theta.p} but p = {self.p}"
            )
        _validate_shape(self.shape, self.n)


def _whiten(w: np.ndarray, theta: SpdMatrix, n: int) -> np.ndarray:
    """(1/n) root w root for a (..., p, p) stack, root = theta^{1/2} (symmetric).

    Two GEMMs over all its rows (a broadcast matmul runs one tiny product per
    matrix), or at an exact identity root only w / n: the GEMMs' bits for a
    finite w with no -0 entry, as every matrix product is.
    """
    if theta._root_is_identity:
        return w / n
    root, p = theta._root, theta.p
    v = (w.reshape(-1, p) @ root).reshape(w.shape).swapaxes(-1, -2)
    return (v.reshape(-1, p) @ root).reshape(w.shape).swapaxes(-1, -2) / n


def _gram_factor(rng: np.random.Generator, k: int, d: int, m: int) -> np.ndarray:
    """A (k, d, min(d, m)) stack F with F F^T ~ Wishart_d(m, I), the Gram law of a d x m Gaussian.

    For m >= d, F is Bartlett's lower-triangular factor (Bartlett 1933; Odell
    and Feiveson 1966), drawn row by row: for i = 0 .. d - 1, the k diagonal
    entries sqrt(chisquare(m - i)), then the (k, i) standard normals left of
    them.  For m < d, F is the d x m Gaussian matrix itself.  So F never takes
    more variates than the matrix it stands for.
    """
    if m < d:
        return rng.standard_normal((k, d, m))
    f = np.zeros((k, d, d))
    for i in range(d):
        f[:, i, i] = np.sqrt(rng.chisquare(m - i, k))
        f[:, i, :i] = rng.standard_normal((k, i))
    return f


def sample_wishart(model: WishartModel, seed: int) -> np.ndarray:
    """Draw W = (1/n) theta^{1/2} Y B Y^T theta^{1/2} from the coupled stream."""
    y = generator(mix_seed(seed, STREAM_COUPLED_Y)).standard_normal((model.p, model.n))
    return _whiten(apply_shape(y, model.shape, model.n) @ y.T, model.theta, model.n)


def sample_decoupled(model: WishartModel, seed: int) -> np.ndarray:
    """Draw W' = (1/n) theta^{1/2} Y' B Y^T theta^{1/2} with independent Y, Y'.

    Y and Y' come from substreams disjoint from each other and from the
    coupled sampler's stream, so coupled and decoupled draws for one seed are
    mutually independent.
    """
    y, y_prime = (generator(mix_seed(seed, tag)).standard_normal((model.p, model.n))
                  for tag in (STREAM_DECOUPLED_Y, STREAM_DECOUPLED_YPRIME))
    return _whiten(apply_shape(y_prime, model.shape, model.n) @ y.T, model.theta, model.n)


def expected_wishart(model: WishartModel) -> np.ndarray:
    """Exact expectation (Tr B / n) * theta."""
    return (shape_trace(model.shape, model.n) / model.n) * model.theta.array


# ---------------------------------------------------------------------------
# Shape families
# ---------------------------------------------------------------------------

def identity_family(n: int) -> ShapeSpec:
    return ShapeSpec.identity()


def skew_block_family(n: int) -> ShapeSpec:
    return ShapeSpec.skew_block()


@dataclass(frozen=True)
class normalized_diagonal_family:
    """Seeded diagonal family with Tr(B_n) = n exactly.

    Entries are 1 + (g - mean(g)) for standard normal g drawn from the
    substream (seed, n), so each n has a deterministic spec and the scaled
    trace is 1 up to rounding.
    """

    seed: int

    def __call__(self, n: int) -> ShapeSpec:
        if n < 1:
            raise DimensionError(f"n must be positive, got n={n}")
        g = generator(mix_seed(self.seed, n)).standard_normal((1, n))[0]
        return ShapeSpec.diagonal(1.0 + (g - g.mean()))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def shape_to_dict(spec: ShapeSpec) -> dict:
    d: dict = {"variant": spec.variant}
    if spec.variant == "diagonal":
        d["entries"] = spec.entries.tolist()
    elif spec.variant == "custom":
        d["matrix"] = matrix_to_dict(spec.matrix)
    return d


def shape_from_dict(d: dict) -> ShapeSpec:
    if not isinstance(d, dict):
        raise ValueError(f"shape must be an object, got {d!r:.80}")
    variant = d.get("variant")
    if variant == "identity":
        return ShapeSpec.identity()
    if variant == "diagonal":
        return ShapeSpec.diagonal(d["entries"])
    if variant == "skew_block":
        return ShapeSpec.skew_block()
    if variant == "custom":
        return ShapeSpec.custom(matrix_from_dict(d["matrix"]))
    raise ValueError(f"unknown shape variant {variant!r}; expected one of {_VARIANTS}")


def model_to_dict(model: WishartModel) -> dict:
    return {
        "p": model.p,
        "n": model.n,
        "theta": matrix_to_dict(model.theta.array),
        "shape": shape_to_dict(model.shape),
    }


def model_from_dict(d: dict) -> WishartModel:
    if not isinstance(d, dict):
        raise ValueError(f"model must be an object, got {d!r:.80}")
    try:
        p, n = check_int(d["p"], "p"), check_int(d["n"], "n")
        theta = SpdMatrix(matrix_from_dict(d["theta"]))
        shape = shape_from_dict(d["shape"])
    except KeyError as exc:
        raise ValueError(f"model object is missing field {exc}") from exc
    return WishartModel(p, n, theta, shape)


def load_model(path) -> WishartModel:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

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
from typing import Callable, Iterable

import numpy as np

from .errors import (
    DimensionError,
    InvalidMatrixError,
    ShapeParityError,
    TraceNormalizationError,
)
from .linalg import (
    SpdMatrix,
    as_matrix,
    check_floats,
    check_int,
    check_seed,
    frobenius_norm,
    matrix_from_dict,
    matrix_to_dict,
    mix_seed,
    sample_standard_gaussian_matrix,
    spd_sqrt,
    spectral_norm,
)

__all__ = [
    "ShapeSpec",
    "WishartModel",
    "WishartSequenceSpec",
    "build_shape",
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

TRACE_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ShapeSpec:
    """Declarative description of the n x n shape matrix B.

    Variants: "identity", "diagonal" (carries the diagonal entries),
    "skew_block" (the block matrix [[0, I], [-I, 0]], even n only), and
    "custom" (an arbitrary square matrix, accepted unvalidated beyond
    dimensions).
    """

    variant: str
    entries: tuple[float, ...] | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown shape variant {self.variant!r}; expected one of {_VARIANTS}")
        if self.variant == "diagonal":
            if self.entries is None:
                raise InvalidMatrixError("diagonal shape requires entries")
            ent = tuple(float(v) for v in self.entries)
            if not all(math.isfinite(v) for v in ent):
                raise InvalidMatrixError("diagonal entries must be finite")
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

    @classmethod
    def identity(cls) -> "ShapeSpec":
        return cls("identity")

    @classmethod
    def diagonal(cls, entries: Iterable[float]) -> "ShapeSpec":
        return cls("diagonal", entries=tuple(entries))

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


def build_shape(spec: ShapeSpec, n: int) -> np.ndarray:
    """Realize the n x n shape matrix for ``spec``."""
    _validate_shape(spec, n)
    if spec.variant == "identity":
        return np.eye(n)
    if spec.variant == "diagonal":
        return np.diag(np.asarray(spec.entries, dtype=np.float64))
    if spec.variant == "skew_block":
        half = n // 2
        b = np.zeros((n, n))
        b[:half, half:] = np.eye(half)
        b[half:, :half] = -np.eye(half)
        return b
    return np.array(spec.matrix)


def shape_trace(spec: ShapeSpec, n: int) -> float:
    _validate_shape(spec, n)
    if spec.variant == "identity":
        return float(n)
    if spec.variant == "diagonal":
        return float(math.fsum(spec.entries))
    if spec.variant == "skew_block":
        return 0.0
    return float(np.trace(spec.matrix))


def shape_spectral_norm(spec: ShapeSpec, n: int) -> float:
    # Identity and skew-block matrices are orthogonal: all singular values 1.
    _validate_shape(spec, n)
    if spec.variant in ("identity", "skew_block"):
        return 1.0
    if spec.variant == "diagonal":
        return float(np.max(np.abs(spec.entries)))
    return spectral_norm(spec.matrix)


def shape_frobenius_norm(spec: ShapeSpec, n: int) -> float:
    _validate_shape(spec, n)
    if spec.variant in ("identity", "skew_block"):
        return math.sqrt(n)
    if spec.variant == "diagonal":
        return float(np.linalg.norm(spec.entries))
    return frobenius_norm(spec.matrix)


def apply_shape(y: np.ndarray, spec: ShapeSpec, n: int) -> np.ndarray:
    """Compute Y @ B over the last axis of ``y`` (one draw or a stack of draws).

    The structured variants never materialize B.
    """
    _validate_shape(spec, n)
    if spec.variant == "identity":
        return y
    if spec.variant == "diagonal":
        return y * np.asarray(spec.entries, dtype=np.float64)
    if spec.variant == "skew_block":
        half = n // 2
        return np.concatenate((-y[..., half:], y[..., :half]), axis=-1)
    return y @ spec.matrix


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

    @cached_property
    def theta_sqrt(self) -> np.ndarray:
        """theta^{1/2}, computed once per model (read-only)."""
        return spd_sqrt(self.theta).array


def _whitened_sample(
    model: WishartModel, y_left: np.ndarray, y_right: np.ndarray, root: np.ndarray
) -> np.ndarray:
    """(1/n) root Y_left B Y_right^T root over the last two axes, root = theta^{1/2}.

    Serves one p x n draw and a (k, p, n) stack of draws alike.
    """
    yb = apply_shape(y_left, model.shape, model.n)
    return root @ (yb @ y_right.swapaxes(-1, -2)) @ root / model.n


def sample_wishart(model: WishartModel, seed: int) -> np.ndarray:
    """Draw W = (1/n) theta^{1/2} Y B Y^T theta^{1/2} from the coupled stream."""
    check_seed(seed)
    y = sample_standard_gaussian_matrix(model.p, model.n, mix_seed(seed, STREAM_COUPLED_Y))
    return _whitened_sample(model, y, y, model.theta_sqrt)


def sample_decoupled(model: WishartModel, seed: int) -> np.ndarray:
    """Draw W' = (1/n) theta^{1/2} Y' B Y^T theta^{1/2} with independent Y, Y'.

    Y and Y' come from substreams disjoint from each other and from the
    coupled sampler's stream, so coupled and decoupled draws for one seed are
    mutually independent.
    """
    check_seed(seed)
    y = sample_standard_gaussian_matrix(model.p, model.n, mix_seed(seed, STREAM_DECOUPLED_Y))
    y_prime = sample_standard_gaussian_matrix(
        model.p, model.n, mix_seed(seed, STREAM_DECOUPLED_YPRIME)
    )
    return _whitened_sample(model, y_prime, y, model.theta_sqrt)


def expected_wishart(model: WishartModel) -> np.ndarray:
    """Exact expectation (Tr B / n) * theta."""
    return (shape_trace(model.shape, model.n) / model.n) * model.theta.array


@dataclass(frozen=True, eq=False)
class WishartSequenceSpec:
    """A family of shape matrices over an ordered index set, normalized by Tr(B_n) = n.

    ``shape_family`` maps each n in ``index_set`` to its ShapeSpec.  Every
    scaled trace Tr(B_n)/n must equal 1 within TRACE_NORMALIZATION_TOL; it is
    checked here, at construction, so code holding a spec can rely on it.
    """

    p: int
    theta: SpdMatrix
    index_set: tuple[int, ...]
    shape_family: Callable[[int], ShapeSpec]

    def __post_init__(self):
        if self.p < 1:
            raise DimensionError(f"p must be positive, got {self.p}")
        if self.theta.p != self.p:
            raise DimensionError(
                f"scale matrix is {self.theta.p} x {self.theta.p} but p = {self.p}"
            )
        index_set = tuple(
            check_int(n, "index_set entry") for n in self.index_set
        )
        if not index_set:
            raise ValueError("index_set must be nonempty")
        if any(n < 1 for n in index_set) or list(index_set) != sorted(set(index_set)):
            raise ValueError(f"index_set must be ordered distinct positive integers, got {index_set}")
        object.__setattr__(self, "index_set", index_set)
        for n in index_set:
            scaled = shape_trace(self.shape_family(n), n) / n
            if abs(scaled - 1.0) > TRACE_NORMALIZATION_TOL:
                raise TraceNormalizationError(
                    f"trace normalization Tr(B) = n violated at n = {n}: "
                    f"scaled trace is {scaled!r}, not 1"
                )


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
        g = sample_standard_gaussian_matrix(1, n, mix_seed(self.seed, n))[0]
        return ShapeSpec.diagonal(1.0 + (g - g.mean()))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def shape_to_dict(spec: ShapeSpec) -> dict:
    d: dict = {"variant": spec.variant}
    if spec.variant == "diagonal":
        d["entries"] = [float(v) for v in spec.entries]
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
        return ShapeSpec.diagonal(check_floats(d["entries"], "diagonal entries"))
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

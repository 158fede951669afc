"""Dense linear algebra kernels, seeded random generators, and matrix JSON IO.

Everything downstream (models, bounds, certificates, Monte Carlo checks) is
built on the functions in this module.  All values are immutable after
construction and every sampler is a pure function of its seed, so the whole
module is safe to use from concurrent workers without synchronization.
"""
from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionError, InvalidMatrixError, NotPositiveDefiniteError

__all__ = [
    "Report",
    "SpdMatrix",
    "as_matrix",
    "check_int",
    "check_floats",
    "spectral_norm",
    "frobenius_norm",
    "spd_sqrt",
    "check_seed",
    "splitmix64",
    "mix_seed",
    "generator",
    "matrix_to_dict",
    "matrix_from_dict",
    "dumps_matrix",
    "load_matrix",
    "canonical_dumps",
]

# Symmetry and positivity tolerances for SPD inputs, at the scale of the largest entry.
SYMMETRY_RTOL = 1e-12
SPD_EIG_TOL = 1e-10

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidMatrixError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidMatrixError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    return arr


def check_int(value, name: str) -> int:
    """Return ``value`` as an int, naming ``name`` when it is not integral.

    Integral floats such as 2.0 are accepted; bools, strings and numbers such
    as 2.7 raise instead of being truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_floats(value, name: str) -> np.ndarray:
    """Return ``value``, a list of finite real numbers, as a 1-D float64 array.

    The one rule for number lists: strings, bools and every other non-number
    are rejected, not coerced, and so are inf and NaN; errors name ``name``.
    """
    # A 1-D integer or float array's dtype already guarantees real, non-bool numbers.
    typed = isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iuf"
    items = value.tolist() if isinstance(value, np.ndarray) and not typed else value
    # Checked per distinct element type, so a long list costs one pass in C.
    if not typed and (not isinstance(items, (list, tuple)) or not all(
        issubclass(t, numbers.Real) and not issubclass(t, bool) for t in set(map(type, items))
    )):
        raise ValueError(f"{name} must be a list of numbers, got {value!r:.80}")
    try:
        arr = np.array(items, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError(f"{name} holds a number too large for a float") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must hold finite numbers, got {value!r:.80}")
    return arr


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries, sqrt(Tr(A A^T)).

    Summed on A scaled by a power of two (exact), its largest entry in
    [0.5, 1), as in ``_spectral_norms``: a norm that fits in a float is finite.
    """
    arr = as_matrix(a)
    _, exp = np.frexp(np.abs(arr).max())
    unit = np.ldexp(arr, -exp)
    return float(np.ldexp(np.sqrt(np.sum(unit * unit)), exp))


def _spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., r, c) stack.

    The one spectral-norm rule: each matrix is scaled by a power of two (exact)
    so that its largest entry lies in [0.5, 1) and its Gram matrix can neither
    overflow nor underflow; the top eigenvalue of the smaller Gram matrix, from
    LAPACK ``eigvalsh``, is its squared norm.  Exact to rounding for every
    size and every gap between the top singular values.  A matrix with an inf
    or NaN entry (an overflowed Monte Carlo draw) has norm inf, and never
    reaches ``eigvalsh``.
    """
    peak = np.abs(a).max(axis=(-2, -1), keepdims=True)
    finite = np.isfinite(peak[..., 0, 0])
    if not finite.all():
        norms = np.full(finite.shape, np.inf)
        if finite.any():
            norms[finite] = _spectral_norms(a[finite])
        return norms
    _, exp = np.frexp(peak)
    s = np.ldexp(a, -exp)
    st = s.swapaxes(-1, -2)
    gram = s @ st if s.shape[-2] <= s.shape[-1] else st @ s
    top = np.linalg.eigvalsh(gram)[..., -1]
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), exp[..., 0, 0])


def _triangular_factors(a: np.ndarray) -> np.ndarray:
    """R of a = Q R (R^T R = a^T a) for each matrix of a (..., r, c) stack: (..., min(r, c), c)."""
    return np.linalg.qr(a, mode="r")


def spectral_norm(a) -> float:
    """Largest singular value of a rectangular matrix (``_spectral_norms`` of one)."""
    return float(_spectral_norms(as_matrix(a)))


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive definite matrix with certified positivity.

    Construction writes it exactly as 4**h U, U's largest |entry| in [0.25, 1),
    and certifies U: |u_ij - u_ji| <= SYMMETRY_RTOL and minimal eigenvalue >
    SPD_EIG_TOL (a condition-number cap of about 1e10), so 4**j theta passes or
    fails with theta.  The stored array is a read-only copy.  This is the one
    place positivity is certified.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(as_matrix(self.array, "SPD matrix"), order="C")
        if arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"SPD matrix must be square, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        h, unit = self._unit
        if np.any(np.abs(unit - unit.T) > SYMMETRY_RTOL):
            raise InvalidMatrixError("SPD matrix is not symmetric within tolerance")
        min_eig = float(np.linalg.eigvalsh(unit)[0])
        if min_eig <= SPD_EIG_TOL:
            raise NotPositiveDefiniteError(np.ldexp(min_eig, 2 * h), np.ldexp(SPD_EIG_TOL, 2 * h))

    def __reduce__(self):  # pickle and copy through __init__: a copy is certified too
        return type(self), (self.array,)

    @property
    def p(self) -> int:
        return self.array.shape[0]

    @cached_property
    def _unit(self) -> tuple[int, np.ndarray]:
        """(h, U) with array = 4**h U exactly and U's largest |entry| in [0.25, 1)."""
        h = -(-int(np.frexp(np.abs(self.array).max())[1]) // 2)
        return h, np.ldexp(self.array, -2 * h)

    @cached_property
    def _norm(self) -> float:
        """Spectral norm, computed once per matrix."""
        return spectral_norm(self.array)

    @cached_property
    def _root(self) -> np.ndarray:
        """Symmetric square root (``spd_sqrt``), computed once per matrix."""
        return spd_sqrt(self)

    @classmethod
    def identity(cls, p: int) -> "SpdMatrix":
        return cls(np.eye(p))

    @classmethod
    def diagonal(cls, entries) -> "SpdMatrix":
        return cls(np.diag(check_floats(entries, "diagonal entries")))

    def is_identity(self) -> bool:
        return bool(np.allclose(self.array, np.eye(self.p), rtol=0.0, atol=1e-12))


def spd_sqrt(s: SpdMatrix) -> np.ndarray:
    """Symmetric positive definite square root (read-only): U's by eigh, times 2**h (SpdMatrix)."""
    h, unit = s._unit
    eigvals, eigvecs = np.linalg.eigh(unit)
    root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    root = np.ldexp(0.5 * (root + root.T), h)
    root.setflags(write=False)
    return root


# ---------------------------------------------------------------------------
# Seeds and generators
# ---------------------------------------------------------------------------

def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed: an integer under check_int's rule."""
    seed = check_int(seed, "seed")
    if not 0 <= seed <= _U64_MASK:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def splitmix64(z: int) -> int:
    """One output of the splitmix64 mixing function (Steele et al.)."""
    z = (z + 0x9E3779B97F4A7C15) & _U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def mix_seed(seed: int, tag: int) -> int:
    """Derive a disjoint substream seed from ``seed`` and a small ``tag``.

    Substream seeds are splitmix64(seed XOR splitmix64(tag + 1)); the mixing
    is the documented determinism contract for per-trial and per-stream seeds.
    """
    seed = check_seed(seed)
    if tag < 0:
        raise ValueError(f"stream tag must be nonnegative, got {tag}")
    return splitmix64(seed ^ splitmix64(int(tag) + 1))


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for ``seed``; the sample stream is a release-level contract."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------

def matrix_to_dict(a) -> dict:
    """Row-major JSON object {"rows", "cols", "entries"} for a matrix."""
    arr = as_matrix(a)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "entries": [float(v) for v in arr.ravel(order="C")],
    }


def matrix_from_dict(d: dict) -> np.ndarray:
    """Parse the {"rows", "cols", "entries"} matrix object."""
    try:
        rows, cols = check_int(d["rows"], "rows"), check_int(d["cols"], "cols")
        arr = check_floats(d["entries"], "entries")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidMatrixError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise InvalidMatrixError(f"matrix dimensions must be positive, got {rows} x {cols}")
    if arr.size != rows * cols:
        raise InvalidMatrixError(
            f"entries length {arr.size} does not equal rows*cols = {rows * cols}"
        )
    return arr.reshape(rows, cols)


def dumps_matrix(a) -> str:
    """Serialize a matrix with all floats at 17 significant digits."""
    arr = as_matrix(a)
    # One %-format over the Python floats (tolist()), not one format call per entry.
    entries = ", ".join(["%.17g"] * arr.size) % tuple(arr.ravel().tolist())
    return (
        f'{{"rows": {arr.shape[0]}, "cols": {arr.shape[1]}, '
        f'"entries": [{entries}]}}'
    )


def _write_texts(outputs) -> None:
    """Write each ``(path, text)`` of ``outputs`` (UTF-8): all of them or none.

    The one way the package writes files.  Every target is opened and closed
    before any is written, so one that cannot be opened raises with no file
    changed; on any error the files this call created are unlinked.  Files are
    opened without O_TRUNC and cut at the end of the new text: rewritten in
    place, never emptied on the way (on ext4, truncating to zero frees the
    blocks and can force a flush on close), and not atomically.  A new file gets
    mode 0o666 less the umask, as with ``open(path, "w")``; symlinks are
    followed.  Raw fd writes: a file object costs more than a small report.
    """
    created = []
    try:
        for path, _ in outputs:
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
            except FileExistsError:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
        for path, text in outputs:
            data = memoryview(text.encode("utf-8"))
            size = len(data)
            fd = os.open(path, os.O_WRONLY)
            try:
                while data:  # os.write may write fewer bytes than asked
                    data = data[os.write(fd, data):]
                os.ftruncate(fd, size)
            finally:
                os.close(fd)
    except BaseException:
        for path in created:
            os.unlink(path)
        raise


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh))


def _jsonable(value):
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel(order="C")]
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


class Report:
    """Base of every report dataclass: its JSON object is exactly its fields.

    Nested dataclasses become objects, enums their values, arrays flat
    row-major lists of floats, and tuples or lists JSON lists.
    """

    def to_dict(self) -> dict:
        return _jsonable(self)


def canonical_dumps(obj) -> str:
    """Deterministic, strict JSON text: sorted keys, fixed separators.

    An inf or NaN anywhere in ``obj`` raises ValueError: JSON has no such values.
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(", ", ": "), allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"result holds inf or NaN, which JSON cannot represent: {exc}") from exc

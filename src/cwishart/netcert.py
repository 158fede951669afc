"""Regular vectors, bilinear maxima over them, and spectral-norm certificates.

A regular vector of sparsity s has s coordinates equal to +-1/sqrt(s) and the
rest zero; there are C(p, s) * 2^s of them per level and 3^p - 1 in total.
The spectral norm of any p x p matrix is certified against the maximum of the
bilinear form over regular vector pairs, inflated by 12 * ceil(ln 2p)^2.

That maximum is exact but takes only part of the enumeration: the best
response y to A x depends only on |A x|, so x and -x are one case and only
the x whose first support sign is +1 are enumerated; and since (u, y) <= ||u||
for a unit y, a response u whose norm is below the running maximum (less a
1e-9 relative margin for rounding) cannot carry it and is never sorted.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bounds import log_factor
from .errors import DimensionError, EnumerationCapError
from .linalg import Report, as_matrix, spectral_norm

__all__ = [
    "RegularVector",
    "NetCertificate",
    "enumerate_regular",
    "regular_count",
    "max_regular_response",
    "max_bilinear_over_regular",
    "certify_norm_bound",
]

LEVEL_ENUM_CAP = 16     # single-level enumeration
BILINEAR_CAP = 14       # exhaustive loop over all 3^p - 1 regular vectors
_BATCH_ROWS = 200_000

CERT_SLACK = 1e-9


@dataclass(frozen=True)
class RegularVector:
    """Sparse signed unit vector with coordinates +-1/sqrt(s) on its support."""

    p: int
    s: int
    support: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.s <= self.p:
            raise DimensionError(f"sparsity s must lie in [1, p], got s={self.s}, p={self.p}")
        if len(self.support) != self.s or len(self.signs) != self.s:
            raise DimensionError("support and signs must both have length s")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError(f"support must be sorted distinct indices, got {self.support}")
        if self.support[0] < 0 or self.support[-1] >= self.p:
            raise ValueError(f"support indices must lie in [0, p), got {self.support}")
        if any(v not in (-1, 1) for v in self.signs):
            raise ValueError(f"signs must be +-1, got {self.signs}")

    def to_array(self) -> np.ndarray:
        x = np.zeros(self.p)
        x[list(self.support)] = np.asarray(self.signs, dtype=np.float64) / math.sqrt(self.s)
        return x


def regular_count(p: int, s: int) -> int:
    """Exact size of the sparsity-s level: C(p, s) * 2^s."""
    return math.comb(p, s) * 2**s


def enumerate_regular(p: int, s: int) -> Iterator[RegularVector]:
    """Yield every regular vector of sparsity s, in deterministic order."""
    if not 1 <= s <= p:
        raise DimensionError(f"sparsity s must lie in [1, p], got s={s}, p={p}")
    if p > LEVEL_ENUM_CAP:
        raise EnumerationCapError(
            f"enumeration supports p <= {LEVEL_ENUM_CAP}, got p={p}",
            count=regular_count(p, s),
        )
    for support in itertools.combinations(range(p), s):
        for signs in itertools.product((1, -1), repeat=s):
            yield RegularVector(p, s, support, signs)


def max_regular_response(v) -> tuple[float, RegularVector]:
    """Maximize the inner product (v, y) over all regular vectors y.

    Closed form: for each sparsity s the optimum is the sum of the s largest
    |v_i| divided by sqrt(s), with signs matching v on the chosen support.
    Ties in |v_i| break toward the lower index, ties in s toward the smaller s.
    """
    vec = np.asarray(v, dtype=np.float64).ravel()
    p = vec.size
    if p < 1:
        raise DimensionError("vector must be nonempty")
    order = np.argsort(-np.abs(vec), kind="stable")
    prefix = np.cumsum(np.abs(vec)[order])
    values = prefix / np.sqrt(np.arange(1, p + 1))
    best_s = int(np.argmax(values)) + 1
    chosen = sorted(int(i) for i in order[:best_s])
    signs = tuple(1 if vec[i] >= 0 else -1 for i in chosen)
    return float(values[best_s - 1]), RegularVector(p, best_s, tuple(chosen), signs)


def _batch_response_max(u: np.ndarray) -> float:
    # Rows of u are response vectors; the inner closed-form max, vectorized.
    p = u.shape[1]
    mags = np.sort(np.abs(u), axis=1)[:, ::-1]
    prefix = np.cumsum(mags, axis=1)
    return float((prefix / np.sqrt(np.arange(1, p + 1))).max(initial=-math.inf))


def _level_batches(arr: np.ndarray, s: int) -> Iterator[np.ndarray]:
    # Responses A x of the sparsity-s regular x whose first support sign is +1,
    # in memory-bounded batches; x itself is never built.
    p = arr.shape[0]
    signs = np.array(list(itertools.product((1.0,), *[(1.0, -1.0)] * (s - 1)))) / math.sqrt(s)
    combos_per_batch = max(1, _BATCH_ROWS // len(signs))
    combos = itertools.combinations(range(p), s)
    while chunk := list(itertools.islice(combos, combos_per_batch)):
        yield (signs @ arr.T[np.asarray(chunk, dtype=np.intp)]).reshape(-1, p)


def max_bilinear_over_regular(a) -> float:
    """Maximum of (A x, y) over all pairs of regular vectors x, y.

    The outer loop is exhaustive over the regular x; the inner maximization
    over y is the closed form of :func:`max_regular_response`, which depends
    only on |A x|.  Two savings keep the result exact:

    * x and -x give the same value, so only the (3^p - 1) / 2 vectors whose
      first support sign is +1 are enumerated.
    * For a unit y, (u, y) <= ||u||, so a response u can beat the running
      maximum ``best`` only if ||u||^2 > best^2.  Each batch seeds ``best``
      with its row of largest norm and sorts only the rows above
      best^2 * (1 - 1e-9).  The margin is far above the relative rounding
      of ||u||^2 and of the closed form (about p ulps), so no pruned row can
      carry the maximum, and the result is the same, bit for bit, as that
      of the full enumeration.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"matrix must be square, got {arr.shape}")
    p = arr.shape[0]
    if p > BILINEAR_CAP:
        raise EnumerationCapError(
            f"bilinear maximization supports p <= {BILINEAR_CAP}, got p={p}",
            count=3**p - 1,
        )
    # Enumerate on A scaled by a power of two (exact) so that its largest entry
    # lies in [0.5, 1): no ||u||^2 overflows or underflows.
    exp = int(np.frexp(np.abs(arr).max())[1])
    arr = np.ldexp(arr, -exp)
    best = -math.inf
    for s in range(1, p + 1):
        for u in _level_batches(arr, s):
            sq = np.einsum("ij,ij->i", u, u)
            top = int(np.argmax(sq))
            best = max(best, _batch_response_max(u[top:top + 1]))
            keep = sq > best * best * (1.0 - 1e-9)
            best = max(best, _batch_response_max(u[keep]))
    return math.ldexp(best, exp)


@dataclass(frozen=True)
class NetCertificate(Report):
    """Outcome of certifying ||A|| against its regular-vector maximum."""

    p: int
    matrix_id: str
    exact_norm: float
    reg_max: float
    factor: int
    holds: bool


def certify_norm_bound(a, matrix_id: str | None = None) -> NetCertificate:
    """Check ||A|| <= 12 * ceil(ln 2p)^2 * max over regular pairs of (Ax, y)."""
    arr = as_matrix(a)
    p = arr.shape[0]
    exact = spectral_norm(arr)
    reg_max = max_bilinear_over_regular(arr)  # raises DimensionError unless A is square
    factor = 12 * log_factor(p)
    if matrix_id is None:
        matrix_id = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:12]
    return NetCertificate(
        p=p, matrix_id=matrix_id, exact_norm=exact, reg_max=reg_max, factor=factor,
        holds=exact <= factor * reg_max * (1.0 + CERT_SLACK),
    )

"""Regular vectors, bilinear maxima over them, and spectral-norm certificates.

A regular vector of sparsity s has s coordinates equal to +-1/sqrt(s) and the
rest zero; there are C(p, s) * 2^s of them per level and 3^p - 1 in total.
The spectral norm of any p x p matrix is certified against the maximum of the
bilinear form over regular vector pairs, inflated by 12 * ceil(ln 2p)^2.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bounds import log_factor
from .errors import DimensionError, EnumerationCapError, InvalidNetError
from .linalg import Report, as_matrix, spectral_norm

__all__ = [
    "RegularVector",
    "NetCertificate",
    "enumerate_regular",
    "regular_count",
    "max_regular_response",
    "max_bilinear_over_regular",
    "certify_norm_bound",
    "delta_net_check",
    "angular_net",
    "net_covering_radius_2d",
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


def max_regular_response(v, p: int | None = None) -> tuple[float, RegularVector]:
    """Maximize the inner product (v, y) over all regular vectors y.

    Closed form: for each sparsity s the optimum is the sum of the s largest
    |v_i| divided by sqrt(s), with signs matching v on the chosen support.
    Ties in |v_i| break toward the lower index, ties in s toward the smaller s.
    """
    vec = np.asarray(v, dtype=np.float64).ravel()
    if p is not None and vec.size != p:
        raise DimensionError(f"vector has length {vec.size} but p = {p}")
    p = vec.size
    if p < 1:
        raise DimensionError("vector must be nonempty")
    order = np.argsort(-np.abs(vec), kind="stable")
    prefix = np.cumsum(np.abs(vec)[order])
    values = prefix / np.sqrt(np.arange(1, p + 1))
    best_s = 1
    for s in range(2, p + 1):
        if values[s - 1] > values[best_s - 1]:
            best_s = s
    chosen = sorted(int(i) for i in order[:best_s])
    signs = tuple(1 if vec[i] >= 0 else -1 for i in chosen)
    return float(values[best_s - 1]), RegularVector(p, best_s, tuple(chosen), signs)


def _batch_response_max(u: np.ndarray) -> float:
    # Rows of u are response vectors; the inner closed-form max, vectorized.
    p = u.shape[1]
    mags = np.sort(np.abs(u), axis=1)[:, ::-1]
    prefix = np.cumsum(mags, axis=1)
    return float((prefix / np.sqrt(np.arange(1, p + 1))).max())


def _level_batches(p: int, s: int) -> Iterator[np.ndarray]:
    # Build regular vectors of one level in memory-bounded batches.
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=s))) / math.sqrt(s)
    per_combo = signs.shape[0]
    combos_per_batch = max(1, _BATCH_ROWS // per_combo)
    combos = itertools.combinations(range(p), s)
    while True:
        chunk = list(itertools.islice(combos, combos_per_batch))
        if not chunk:
            return
        rows = len(chunk) * per_combo
        x = np.zeros((rows, p))
        cols = np.repeat(np.asarray(chunk, dtype=np.intp), per_combo, axis=0)
        x[np.arange(rows)[:, None], cols] = np.tile(signs, (len(chunk), 1))
        yield x


def max_bilinear_over_regular(a, cap: int = BILINEAR_CAP) -> float:
    """Maximum of (A x, y) over all pairs of regular vectors x, y.

    The outer loop is exhaustive over the 3^p - 1 regular x; the inner
    maximization over y is the closed form of :func:`max_regular_response`.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"matrix must be square, got {arr.shape}")
    p = arr.shape[0]
    if p > cap:
        raise EnumerationCapError(
            f"bilinear maximization supports p <= {cap}, got p={p}",
            count=3**p - 1,
        )
    best = -math.inf
    for s in range(1, p + 1):
        for x_batch in _level_batches(p, s):
            best = max(best, _batch_response_max(x_batch @ arr.T))
    return best


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
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"matrix must be square, got {arr.shape}")
    p = arr.shape[0]
    exact = spectral_norm(arr)
    reg_max = max_bilinear_over_regular(arr)
    factor = 12 * log_factor(p)
    if matrix_id is None:
        matrix_id = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:12]
    return NetCertificate(
        p=p,
        matrix_id=matrix_id,
        exact_norm=exact,
        reg_max=reg_max,
        factor=factor,
        holds=exact <= factor * reg_max + CERT_SLACK,
    )


# ---------------------------------------------------------------------------
# Delta nets on the sphere
# ---------------------------------------------------------------------------

def delta_net_check(a, delta: float, net: Sequence) -> bool:
    """Check ||A|| <= (1 - delta)^-2 * max over net pairs of (Ax, y).

    Every net member must be a unit vector within 1e-9.  Coverage of the
    sphere at radius delta is the caller's assertion; it can be verified
    exhaustively only for p = 2 via :func:`net_covering_radius_2d`, so for
    p >= 3 the check is conditional on that assertion.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"matrix must be square, got {arr.shape}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    pts = np.asarray(net, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != arr.shape[0]:
        raise DimensionError(
            f"net must be a list of vectors of length {arr.shape[0]}, got shape {pts.shape}"
        )
    norms = np.linalg.norm(pts, axis=1)
    bad = np.abs(norms - 1.0) > 1e-9
    if np.any(bad):
        raise InvalidNetError(
            f"net member {int(np.argmax(bad))} has norm {norms[bad][0]!r}, not 1"
        )
    pair_max = float((pts @ arr @ pts.T).max())
    return spectral_norm(arr) <= pair_max / (1.0 - delta) ** 2 + CERT_SLACK


def angular_net(m: int) -> np.ndarray:
    """Uniform m-point angular grid on the unit circle."""
    if m < 1:
        raise ValueError(f"net size must be positive, got {m}")
    angles = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack((np.cos(angles), np.sin(angles)))


def net_covering_radius_2d(net) -> float:
    """Exact covering radius of a finite subset of the unit circle.

    The farthest sphere point sits mid-way across the largest angular gap g,
    at chord distance 2 sin(g / 4) from its nearest neighbor.
    """
    pts = np.asarray(net, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionError(f"expected points on the unit circle, got shape {pts.shape}")
    angles = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * np.pi - angles[-1]
    largest = float(max(gaps.max(initial=0.0), wrap))
    return 2.0 * math.sin(largest / 4.0)

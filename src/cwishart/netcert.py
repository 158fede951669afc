"""Regular vectors, bilinear maxima over them, and spectral-norm certificates.

A regular vector of sparsity s has s coordinates equal to +-1/sqrt(s) and the
rest zero; there are C(p, s) * 2^s of them per level and 3^p - 1 in total.
The spectral norm of any p x p matrix is certified against the maximum of the
bilinear form over regular vector pairs, inflated by 12 * ceil(ln 2p)^2.

That maximum is exact, and computed by a meet in the middle.  The best
response y to A x depends only on |A x|, so x and -x are one case.  Each x is
a pair (x_L, x_R) of {0, +-1} vectors over the first p // 2 and the last
coordinates, scaled by 1/sqrt(s) for its support size s; two half tables of
3^(p/2) rows or fewer and their partial responses P_L = A_L x_L and
P_R = A_R x_R give every ||A x||^2 = (||P_L||^2 + 2 P_L.P_R + ||P_R||^2) / s,
one GEMM per block of cells.  Since (u, y) <= ||u|| for a unit y, a cell whose
norm is below the running maximum (less a 1e-9 relative margin, far above the
rounding of the expansion) cannot carry it.  A surviving cell's response
A x = (P_L + P_R) / sqrt(s) is read from the same stored partials, so the
pruning test and the maximum take A x from one computation.

The maximum works on a (k, p, p) stack, a single matrix being a stack of one,
and :func:`certify_norm_bounds` certifies a list as one stack per size.  Each
matrix has its own running maximum ``best`` and survivors, so each result is
bit for bit that of the matrix alone.  A block holds at most ``_BLOCK_CELLS``
(matrix, cell) pairs, so memory grows neither with p nor with k.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .bounds import log_factor
from .errors import DimensionError, EnumerationCapError
from .linalg import Report, _spectral_norms, as_matrix

__all__ = [
    "RegularVector",
    "NetCertificate",
    "max_regular_response",
    "max_bilinear_over_regular",
    "certify_norm_bound",
    "certify_norm_bounds",
]

BILINEAR_CAP = 14       # exhaustive loop over all 3^p - 1 regular vectors
_BLOCK_CELLS = 2**15    # cells (pairs of half-table rows) per block
_MARGIN = 1e-9          # relative slack of the pruning test on ||A x||^2

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


def _response_maxima(u: np.ndarray) -> np.ndarray:
    # Rows of u are response vectors; the inner closed-form max of each, vectorized.
    p = u.shape[1]
    mags = np.abs(u)
    mags.sort(axis=1)
    prefix = np.cumsum(mags[:, ::-1], axis=1)
    prefix /= np.sqrt(np.arange(1, p + 1))
    return prefix.max(axis=1)


def _ternary_rows(m: int, lo: int) -> np.ndarray:
    # The t in {0, +1, -1}^m whose balanced-ternary value sum_k t_k 3^(m-1-k)
    # runs from lo to (3^m - 1) / 2, as float rows in that order.  The value has
    # the sign of t's first nonzero entry, so lo = 0 gives the zero row first and
    # then one of each pair +-t.
    top = (3**m - 1) // 2
    digits = np.arange(lo + top, 2 * top + 1)[:, None] // 3 ** np.arange(m - 1, -1, -1) % 3
    return (digits - 1).astype(np.float64)


@functools.cache
def _half_tables(p: int, block_cells: int) -> tuple:
    """The two half tables of x = (x_L, x_R), their support sizes, and the blocks of cells.

    The left table holds x_L = 0 (row 0) and one of each pair +-x_L; the right
    table holds every x_R, x_R = 0 at row (3^(p - p // 2) - 1) / 2.  The cells
    of row 0 past that row, and every cell of the other rows, are the regular
    x whose first nonzero entry is +1, each once.  The support sizes s of the
    rows are floats, ready to divide by.  Blocks are rectangles of at most
    ``block_cells`` cells (one cell at least).  Cached per (p, block_cells),
    with read-only tables.
    """
    h = p // 2
    top_r = (3 ** (p - h) - 1) // 2
    left, right = _ternary_rows(h, 0), _ternary_rows(p - h, -top_r)
    n_left, n_right = len(left), len(right)
    cols = min(n_right, block_cells)
    rows = max(1, block_cells // cols)
    blocks = [(slice(0, 1), slice(j, j + cols)) for j in range(top_r + 1, n_right, cols)]
    blocks += [(slice(i, i + rows), slice(j, j + cols))
               for i in range(1, n_left, rows) for j in range(0, n_right, cols)]
    tables = left, right, np.abs(left).sum(axis=1), np.abs(right).sum(axis=1)
    for table in tables:
        table.setflags(write=False)
    return *tables, tuple(blocks)


def _square(a) -> np.ndarray:
    # A finite square matrix within BILINEAR_CAP, else the error that says why not.
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"matrix must be square, got {arr.shape}")
    p = arr.shape[0]
    if p > BILINEAR_CAP:
        raise EnumerationCapError(
            f"bilinear maximization supports p <= {BILINEAR_CAP}, got p={p}",
            count=3**p - 1,
        )
    return arr


def _bilinear_maxima(stack: np.ndarray) -> np.ndarray:
    """Maximum of (A x, y) over all pairs of regular vectors x, y, for each A of a (k, p, p) stack.

    The outer maximization is exhaustive over the regular x, up to sign; the
    inner one over y is the closed form of :func:`max_regular_response`, which
    depends only on |A x|.  The x are the cells of :func:`_half_tables`, and a
    block of cells gets every s ||A x||^2 = ||P_L||^2 + 2 P_L.P_R + ||P_R||^2
    from the partial responses of its two half-table rows, one batched GEMM
    per block for a chunk of the stack: as many matrices as keep the (matrix,
    cell) pairs within ``_BLOCK_CELLS``, one at least.

    Each matrix has its own ``best``, which starts at m = max |a_ij|, the
    value of the regular pair (e_j, +-e_i).  In a block where a matrix's
    largest ||A x|| exceeds its best, that cell seeds best, and then every
    cell with ||A x||^2 > best^2 (1 - 1e-9) has the closed form taken of its
    u = (P_L + P_R) / sqrt(s), from the stored partials.  For a unit y,
    (A x, y) <= ||A x||, so no other cell can carry the maximum.  A matrix's
    partials are its own GEMMs in any chunk, and u is elementwise, so each
    result is bit for bit the closed form over every u of that matrix alone.

    Why the margin covers the rounding.  Each A is scaled by a power of two
    so that m lies in [0.5, 1).  The test and u read the same P_L and P_R,
    so the partials' own rounding needs no margin.  Their entries are below
    s m (s <= p), so the three dot products over p coordinates, their two
    sums and the division by s put ||A x||^2 within (p^3 + 2 p^2 + 1)
    u best^2 (u = 2^-53) of ||P_L + P_R||^2 / s: 3.5e-13 best^2 at p = 14,
    against the 1e-9 margin.  The entries of u round within two ulps, and
    its closed form within about 3 p ulps of its norm.
    """
    p = stack.shape[1]
    # Work on each A scaled by a power of two (exact) so that its largest entry
    # lies in [0.5, 1): no ||A x||^2 overflows or underflows.
    m = np.abs(stack).max(axis=(1, 2))
    exp = np.frexp(m)[1]
    unit = np.ldexp(stack, -exp[:, None, None])
    best = np.ldexp(m, -exp)
    left, right, s_left, s_right, blocks = _half_tables(p, _BLOCK_CELLS)
    h = left.shape[1]
    chunk = max(1, _BLOCK_CELLS // ((3**p - 1) // 2))
    for lo in range(0, len(unit), chunk):
        arr, run = unit[lo:lo + chunk], best[lo:lo + chunk]
        p_left = left @ arr[:, :, :h].transpose(0, 2, 1)
        p_right = right @ arr[:, :, h:].transpose(0, 2, 1)
        sq_left = np.einsum("kij,kij->ki", p_left, p_left)
        sq_right = np.einsum("kij,kij->ki", p_right, p_right)
        every = np.arange(len(arr))
        for rows, cols in blocks:
            s = s_left[rows, None] + s_right[cols]
            sq = (2 * p_left[:, rows]) @ p_right[:, cols].transpose(0, 2, 1)
            sq += sq_left[:, rows, None]
            sq += sq_right[:, None, cols]
            sq /= s

            def raise_best(which: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
                # best = max(best, closed form of cell (i, j)) for each cell, of matrix which.
                u = p_left[which, rows.start + i] + p_right[which, cols.start + j]
                u /= np.sqrt(s[i, j])[:, None]
                np.maximum.at(run, which, _response_maxima(u))

            top = sq.reshape(len(arr), -1).argmax(axis=1)
            i, j = np.unravel_index(top, s.shape)
            lead = np.flatnonzero(sq[every, i, j] > run * run * (1.0 - _MARGIN))
            if lead.size:
                raise_best(lead, i[lead], j[lead])
                raise_best(*np.nonzero(sq > (run * run * (1.0 - _MARGIN))[:, None, None]))
    return np.ldexp(best, exp)


def max_bilinear_over_regular(a) -> float:
    """Maximum of (A x, y) over all pairs of regular vectors x, y.

    Exact: :func:`_bilinear_maxima` of the stack of one.
    """
    return float(_bilinear_maxima(_square(a)[None])[0])


@dataclass(frozen=True)
class NetCertificate(Report):
    """Outcome of certifying ||A|| against its regular-vector maximum."""

    p: int
    matrix_id: str
    exact_norm: float
    reg_max: float
    factor: int
    holds: bool


def certify_norm_bounds(matrices, matrix_ids=None) -> list[NetCertificate]:
    """Certify each matrix as :func:`certify_norm_bound` does, as one stack per size.

    Each matrix of the iterable is checked (finite, square, p <= BILINEAR_CAP)
    as it is drawn, before any is certified, so the first bad one raises.
    ``matrix_ids`` holds one id per matrix; an id of None (or no list) is a
    hash of the matrix bytes.  Each certificate is bit for bit its matrix's alone.
    """
    arrs = [_square(a) for a in matrices]
    ids = [None] * len(arrs) if matrix_ids is None else list(matrix_ids)
    if len(ids) != len(arrs):
        raise ValueError(f"{len(arrs)} matrices but {len(ids)} matrix ids")
    certs: list = [None] * len(arrs)
    for p in dict.fromkeys(arr.shape[0] for arr in arrs):
        members = [i for i, arr in enumerate(arrs) if arr.shape[0] == p]
        stack = np.array([arrs[i] for i in members])
        factor = 12 * log_factor(p)
        for i, exact, reg_max in zip(members, _spectral_norms(stack).tolist(),
                                     _bilinear_maxima(stack).tolist()):
            matrix_id = ids[i]
            if matrix_id is None:
                digest = hashlib.sha256(np.ascontiguousarray(arrs[i]).tobytes())
                matrix_id = digest.hexdigest()[:12]
            certs[i] = NetCertificate(
                p=p, matrix_id=matrix_id, exact_norm=exact, reg_max=reg_max, factor=factor,
                holds=exact <= factor * reg_max * (1.0 + CERT_SLACK),
            )
    return certs


def certify_norm_bound(a, matrix_id: str | None = None) -> NetCertificate:
    """Check ||A|| <= 12 * ceil(ln 2p)^2 * max over regular pairs of (Ax, y) (a list of one)."""
    return certify_norm_bounds([a], [matrix_id])[0]

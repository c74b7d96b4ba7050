"""Matrices over a division algebra with both biring products.

The row-column (rc) product is the familiar contraction
(a rc b)[i][j] = sum_k a[i][k] b[k][j]; the column-row (cr) product is its
transpose dual, (a cr b)[i][j] = sum_k a[k][j] b[i][k], with the left
factor's entries staying on the left in every summand. Transposition swaps
the two worlds: (a rc b)^T = a^T cr b^T, and likewise for powers, inverses
and quasideterminants, so the cr routines here delegate to the rc ones
through transposes wherever the duality makes that exact.

Every rc operation goes through the real representation rho(A) = [L(a_ij)]
(see _kernels), an injective algebra homomorphism for the rc product:
products and powers are real matrix products, the inverse is the LU inverse
of rho(A), linear systems are one LU solve, and rank is the SVD rank of
rho(A) over d. A quasideterminant is the Schur expression
a_ij - r . B^-1 . c with B^-1 from the inverse; it is the pivot that
noncommutative Gaussian elimination meets at (i, j).

The checked inverse (_inverse) takes a stack of square matrices and makes
the rank decision and the residual test for each member alone, so every
member gets the bits it would get alone. rc_inv, left_dependency and
quasidet_rc call it with a stack of one; quasidets_rc builds the n^2
interiors of a matrix by fancy indexing and inverts them in one call,
giving the n x n matrix of all quasideterminants |A|_ij of Gelfand,
Gelfand, Retakh and Wilson.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .algebra import (
    AlgebraDesc,
    AlgebraError,
    Element,
    NotInvertibleError,
    inv_stack,
    one,
    zero,
)
from .report import Report
from .tensor import SlotTensor, Tensor, eval_power, pure, star_product

# Singular values of rho(A) at or below this share of the largest count as zero.
PIVOT_RTOL = 1e-10


class SingularMatrixError(ArithmeticError):
    """Matrix has no inverse under the requested product."""


class QuasideterminantUndefinedError(ArithmeticError):
    """The interior submatrix of the requested quasideterminant is singular."""


class BiMatrix:
    """Rectangular matrix of Elements, stored as an (m, n, dim) array."""

    __slots__ = ("algebra", "data")

    def __init__(self, algebra: AlgebraDesc, data: np.ndarray):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != algebra.dim:
            raise AlgebraError(f"matrix data must be (m, n, {algebra.dim}), got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("BiMatrix is immutable")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_elements(cls, rows: Sequence[Sequence[Element]]) -> "BiMatrix":
        algebra = rows[0][0].algebra
        m, n = len(rows), len(rows[0])
        arr = np.zeros((m, n, algebra.dim))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise AlgebraError("ragged rows")
            for j, e in enumerate(row):
                if e.algebra != algebra:
                    raise AlgebraError("mixed algebras in matrix")
                arr[i, j] = e.coeffs
        return cls(algebra, arr)

    @classmethod
    def identity(cls, algebra: AlgebraDesc, n: int) -> "BiMatrix":
        arr = np.zeros((n, n, algebra.dim))
        arr[np.arange(n), np.arange(n), 0] = 1.0
        return cls(algebra, arr)

    @classmethod
    def zeros(cls, algebra: AlgebraDesc, m: int, n: int) -> "BiMatrix":
        return cls(algebra, np.zeros((m, n, algebra.dim)))

    # -- shape and access -----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def entry(self, i: int, j: int) -> Element:
        # data is read-only and owned by this immutable matrix, so the row can be shared
        return Element._trusted(self.algebra, self.data[i, j])

    def max_entry_norm(self) -> float:
        return float(_max_entry_norm(self.data))

    def __add__(self, other: "BiMatrix") -> "BiMatrix":
        if other.algebra != self.algebra or other.data.shape != self.data.shape:
            raise AlgebraError("shape or algebra mismatch in matrix sum")
        return BiMatrix(self.algebra, self.data + other.data)

    def __sub__(self, other: "BiMatrix") -> "BiMatrix":
        if other.algebra != self.algebra or other.data.shape != self.data.shape:
            raise AlgebraError("shape or algebra mismatch in matrix difference")
        return BiMatrix(self.algebra, self.data - other.data)

    def __mul__(self, s: float) -> "BiMatrix":
        return BiMatrix(self.algebra, self.data * float(s))

    __rmul__ = __mul__

    def close(self, other: "BiMatrix", tol: float = 1e-9) -> bool:
        return (
            self.algebra == other.algebra
            and self.data.shape == other.data.shape
            and float(np.abs(self.data - other.data).max()) <= tol
        )

    def __repr__(self):
        return f"BiMatrix({self.algebra.tag}, {self.rows}x{self.cols})"


def _max_entry_norm(data: np.ndarray) -> np.ndarray:
    """Largest entry norm of each member of an (..., m, n, d) stack; 0 for an empty member.

    Each member is scaled by 2^-e, e the binary exponent of its largest
    coefficient, as inv scales an element, so no square over- or underflows
    at any magnitude; scaling by a power of two is exact.
    """
    e = np.frexp(np.abs(data).max(axis=(-3, -2, -1), keepdims=True, initial=0.0))[1]
    return np.ldexp(np.sqrt((np.ldexp(data, -e) ** 2).sum(axis=-1)).max(axis=(-2, -1), initial=0.0), e[..., 0, 0, 0])


def diff_norm(a: BiMatrix, b: BiMatrix) -> float:
    return float(np.abs(a.data - b.data).max())


# ---------------------------------------------------------------------------
# products, transpose, Hadamard inverse, powers


def rc_mul(a: BiMatrix, b: BiMatrix) -> BiMatrix:
    if a.algebra != b.algebra:
        raise AlgebraError("algebra mismatch")
    if a.cols != b.rows:
        raise AlgebraError(f"rc shape mismatch: {a.cols} columns vs {b.rows} rows")
    return BiMatrix(a.algebra, _kernels.rc_contract(a.algebra.table, a.data, b.data))


def cr_mul(a: BiMatrix, b: BiMatrix) -> BiMatrix:
    if a.algebra != b.algebra:
        raise AlgebraError("algebra mismatch")
    if a.rows != b.cols:
        raise AlgebraError(f"cr shape mismatch: {a.rows} rows vs {b.cols} columns")
    return BiMatrix(a.algebra, _kernels.cr_contract(a.algebra.table, a.data, b.data))


def _rho(a: BiMatrix) -> np.ndarray:
    return _kernels.rho(a.algebra.table, a.data)


def transpose(a: BiMatrix) -> BiMatrix:
    return BiMatrix(a.algebra, a.data.transpose(1, 0, 2))


def hadamard_inv(a: BiMatrix) -> BiMatrix:
    """Entrywise inverse combined with transposition: (Ha)[i][j] = a[j][i]^-1."""
    out, ok = inv_stack(a.algebra, a.data.transpose(1, 0, 2))
    if not ok.all():
        raise NotInvertibleError("Hadamard inverse undefined: a zero, subnormal or non-finite entry")
    return BiMatrix(a.algebra, out)


def _require_square(a: BiMatrix) -> int:
    if a.rows != a.cols:
        raise AlgebraError("square matrix required")
    return a.rows


def rc_pow(a: BiMatrix, n: int) -> BiMatrix:
    _require_square(a)
    if n < 0:
        raise ValueError("power must be >= 0")
    return BiMatrix(a.algebra, _kernels.unrho(a.algebra.table, np.linalg.matrix_power(_rho(a), n)))


def cr_pow(a: BiMatrix, n: int) -> BiMatrix:
    """cr-power via duality: transpose of the rc-power of the transpose."""
    return transpose(rc_pow(transpose(a), n))


# ---------------------------------------------------------------------------
# minors


@dataclass(frozen=True)
class MinorSelector:
    """Sorted row/column index sets picking a square minor."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]


def submatrix(a: BiMatrix, rows: Iterable[int], cols: Iterable[int]) -> BiMatrix:
    rows = list(rows)
    cols = list(cols)
    return BiMatrix(a.algebra, a.data[np.ix_(rows, cols)])


# ---------------------------------------------------------------------------
# inverses, quasideterminants, linear systems and rank, all through rho


def _rc_ranks(table: np.ndarray, data: np.ndarray,
              smax: float | None = None) -> tuple[np.ndarray, list[int], list[float]]:
    """rho of a (k, m, n, d) stack of arrays, each member's rc rank, and its largest singular value.

    Singular values at or below PIVOT_RTOL * smax count as zero, smax being
    each member's largest unless given, so the rule does not depend on
    scale; each occurs d times in rho. A square member is rc-nonsingular iff
    its rank is n > 0. An empty member has rank 0, and so does a non-finite
    one, which is replaced by the zero matrix before rho (whose table
    product would turn inf into NaN).
    """
    if not np.isfinite(data).all():
        data = np.where(np.isfinite(data).all(axis=(1, 2, 3), keepdims=True), data, 0.0)
    r = _kernels.rho(table, data)
    if r.size == 0:
        return r, [0] * len(r), [0.0] * len(r)
    s = np.linalg.svd(r, compute_uv=False).tolist()  # Python costs less than numpy on a short stack
    bounds = [PIVOT_RTOL * (row[0] if smax is None else smax) for row in s]
    return r, [sum(v > b for v in row) // table.shape[0] for row, b in zip(s, bounds)], [row[0] for row in s]


def _inverse(table: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, Sequence[int]]:
    """rc-inverses of a (k, n, n, d) stack of square arrays, and the members without one.

    Each member's inverse is the LU inverse of its rho, projected by unrho
    and residual-checked on both sides, and it has the bits it would have
    alone. The second result lists, in ascending order, the members that
    are rc-singular or fail their residual check; their entries in the
    first result are meaningless. rho(data) @ vec(out) is
    vec(data rc out), so that residual reuses rho(data).
    """
    k, n, d = data.shape[0], data.shape[1], table.shape[0]
    r, rank, _ = _rc_ranks(table, data)
    flags = [0 < n == m for m in rank]  # Python costs less than numpy on a short stack
    regular = all(flags)
    if not regular:
        if not any(flags):
            return data, range(k)
        ok = np.array(flags)
        # the identity stands in for the failed members, so that LU and the
        # residuals meet no singular or non-finite matrix
        data = np.where(ok[:, None, None, None], data, np.eye(n)[:, :, None] * np.eye(d)[0])
        r = np.where(ok[:, None, None], r, np.eye(n * d))
    out = _kernels.unrho(table, np.linalg.inv(r))
    # vec(a rc b) = rho(a) @ vec(b), vec stacking coefficients down each
    # column; the identity's vec has its ones at flat index t (n d + 1),
    # one stride apart
    left = r @ out.swapaxes(-1, -2).reshape(k, n * d, n)
    right = _kernels.rho(table, out) @ data.swapaxes(-1, -2).reshape(k, n * d, n)
    resid = np.concatenate((left, right), axis=1)
    resid.reshape(k, 2, n * d * n)[..., ::n * d + 1] -= 1.0
    resid = np.abs(resid)
    if regular and resid.max() <= 1e-9:  # a NaN anywhere fails this
        return out, ()
    # scale the acceptance with the conditioning actually encountered; the
    # bound is at least 1e-9, so the norms are needed only above that, and
    # a NaN or infinite residual passes neither test, even where an
    # overflowed inverse makes the bound infinite
    resid = resid.max(axis=(1, 2))
    bound = 1e-9 * (1.0 + _max_entry_norm(data) * _max_entry_norm(out) * n)
    return out, np.flatnonzero(~(np.array(flags) & ((resid <= 1e-9) | (resid < bound))))


@lru_cache(maxsize=32)
def _complements(n: int) -> np.ndarray:
    """Read-only (n, n - 1) array whose row i is range(n) without i."""
    k = np.arange(n - 1)
    out = k + (k >= np.arange(n)[:, None])
    out.flags.writeable = False
    return out


def _quasidets(a: BiMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(k, d) array of the (rows[t], cols[t]) rc-quasideterminants of square a, n >= 2.

    The k interiors are inverted in one stacked call; the first undefined
    pair in the given order raises QuasideterminantUndefinedError.
    """
    table, data = a.algebra.table, a.data
    others = _complements(a.rows)
    keep_r, keep_c = others[rows], others[cols]
    interior_inv, failed = _inverse(table, data[keep_r[:, :, None], keep_c[:, None, :]])
    if len(failed):
        t = failed[0]
        raise QuasideterminantUndefinedError(
            f"quasideterminant undefined at ({rows[t]}, {cols[t]}): interior submatrix is rc-singular"
        )
    row = data[rows[:, None, None], keep_c[:, None, :]]
    col = data[keep_r[:, :, None], cols[:, None, None]]
    acc = _kernels.rc_contract(table, _kernels.rc_contract(table, row, interior_inv), col)
    return data[rows, cols] - acc[:, 0, 0]


def quasidet_rc(a: BiMatrix, i: int, j: int) -> Element:
    """(i, j) rc-quasideterminant; the inverse matrix's (j, i) entry inverted.

    It is a_ij - r . B^-1 . c, where B is a without row i and column j, and
    r and c are row i and column j without their shared entry.
    """
    n = _require_square(a)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("quasideterminant index out of range")
    if n == 1:
        return a.entry(0, 0)
    return Element._trusted(a.algebra, _quasidets(a, np.array([i]), np.array([j]))[0])


def quasidets_rc(a: BiMatrix) -> BiMatrix:
    """Matrix of all rc-quasideterminants, entry (i, j) = quasidet_rc(a, i, j).

    The n^2 interiors are inverted in one stacked call, and every entry has
    the bits of its own quasidet_rc call. The first undefined entry in
    row-major order raises QuasideterminantUndefinedError. A 1 x 1 (or
    empty) matrix is its own quasideterminant matrix.
    """
    n = _require_square(a)
    if n <= 1:
        return a
    rows, cols = np.divmod(np.arange(n * n), n)
    return BiMatrix(a.algebra, _quasidets(a, rows, cols).reshape(n, n, a.algebra.dim))


def quasidet_cr(a: BiMatrix, i: int, j: int) -> Element:
    """cr-quasideterminant via the transpose duality."""
    return quasidet_rc(transpose(a), j, i)


def rc_inv(a: BiMatrix) -> BiMatrix:
    """rc-inverse: the LU inverse of rho(a), projected by unrho and residual-checked."""
    _require_square(a)
    out, failed = _inverse(a.algebra.table, a.data[None])
    if len(failed):
        raise SingularMatrixError("rc-singular: rank test or inverse residual check failed")
    return BiMatrix(a.algebra, out[0])


def cr_inv(a: BiMatrix) -> BiMatrix:
    """cr-inverse via duality: transpose of the rc-inverse of the transpose."""
    return transpose(rc_inv(transpose(a)))


def is_rc_singular(a: BiMatrix) -> bool:
    n = _require_square(a)
    return not 0 < n == _rc_ranks(a.algebra.table, a.data[None])[1][0]


def solve_rc(a: BiMatrix, b: Sequence[Element]) -> list[Element]:
    """Unique solution x of a rc x = b for rc-nonsingular square a.

    x comes from one LU solve on rho(a) and is accepted by its backward
    error: ||a x - b|| <= 1e-8 (||b|| + ||rho(a)||_2 ||x||).
    """
    n = _require_square(a)
    b = list(b)
    if len(b) != n:
        raise AlgebraError("right-hand side height mismatch")
    if any(e.algebra != a.algebra for e in b):
        raise AlgebraError("algebra mismatch")
    (r,), (rank,), (smax,) = _rc_ranks(a.algebra.table, a.data[None])
    if not 0 < n == rank:
        raise SingularMatrixError("rc-singular")
    rhs = np.concatenate([e.coeffs for e in b])
    x = np.linalg.solve(r, rhs)
    resid = float(np.linalg.norm(r @ x - rhs))
    if not resid <= 1e-8 * (np.linalg.norm(rhs) + smax * np.linalg.norm(x)):  # NaN fails too
        raise SingularMatrixError("solution residual above tolerance")
    return [Element._trusted(a.algebra, c) for c in x.reshape(n, a.algebra.dim)]


def rc_rank(a: BiMatrix) -> tuple[int, MinorSelector]:
    """Largest k with an rc-nonsingular k x k minor, plus one such selector.

    k is the rank of rho(a) over d, and every submatrix is measured against
    the whole matrix's threshold. The rows are picked greedily, each joining when it
    raises the rank, then the columns within those rows. In a matroid the
    greedy basis is the lexicographically first one, so the selector is the
    first nonsingular k x k minor, row sets then column sets in that order.
    A square matrix of full rank is its own major minor, and k = n agrees
    with is_rc_singular, which applies the same test to the whole matrix.
    Otherwise a singular value within rounding of the threshold can leave a
    minor below it while the whole matrix is above; the search then narrows
    the rows within the picked columns and the columns within those rows
    until the selector is square, and k is its size.
    """
    table = a.algebra.table
    _, (k,), (smax,) = _rc_ranks(table, a.data[None])
    if k == a.rows == a.cols:
        return k, MinorSelector(tuple(range(k)), tuple(range(k)))

    def greedy(candidates, part):
        picked = ()
        for idx in candidates:
            if len(picked) == k:
                break
            if _rc_ranks(table, part(picked + (idx,))[None], smax)[1][0] > len(picked):
                picked += (idx,)
        return picked

    rows, cols = range(a.rows), range(a.cols)
    while True:
        rows = greedy(rows, lambda rows: a.data[np.ix_(rows, cols)])
        cols = greedy(cols, lambda cols: a.data[np.ix_(rows, cols)])
        if len(rows) == len(cols):
            return len(rows), MinorSelector(rows, cols)
        k = len(cols)


def left_dependency(a: BiMatrix, rank: int, sel: MinorSelector) -> list[Element] | None:
    """Row coefficients lam with lam rc a = 0 when rank < number of rows.

    Expresses the first row outside the major minor as a left combination of
    the minor's rows (coefficients from row . inv(major)); returns the full
    length-m coefficient list with -1 at that row, or None when rank is full.
    At rank 0 the minor is empty, and lam is -1 at that row and zero
    elsewhere when the row is exactly zero and a is finite.
    """
    m = a.rows
    if rank >= m:
        return None
    table, cols = a.algebra.table, list(sel.cols)
    p = next(r for r in range(m) if r not in sel.rows)
    if not sel.rows and not a.data[p].any() and np.isfinite(a.data).all():
        return [-one(a.algebra) if r == p else zero(a.algebra) for r in range(m)]
    major_inv, failed = _inverse(table, a.data[list(sel.rows)][:, cols][None])
    if len(failed):
        raise SingularMatrixError("major minor is rc-singular")
    coeffs = _kernels.rc_contract(table, a.data[[p]][:, cols], major_inv[0])  # 1 x k
    lam = [zero(a.algebra) for _ in range(m)]
    for idx, r in enumerate(sel.rows):
        lam[r] = Element._trusted(a.algebra, coeffs[0, idx])
    lam[p] = -one(a.algebra)
    return lam


def bordered_quasidet(a: BiMatrix, sel: MinorSelector, p: int, r: int) -> Element:
    """Quasideterminant of the minor bordered by row p and column r, at (p, r).

    The border lies outside the minor: a row or column already in it would
    repeat in the bordered matrix.
    """
    if not (0 <= p < a.rows and 0 <= r < a.cols):
        raise IndexError("border index out of range")
    if p in sel.rows or r in sel.cols:
        raise ValueError("border row or column already in the minor")
    rows = tuple(sorted(sel.rows + (p,)))
    cols = tuple(sorted(sel.cols + (r,)))
    sub = submatrix(a, rows, cols)
    return quasidet_rc(sub, rows.index(p), cols.index(r))


# ---------------------------------------------------------------------------
# eigenvalue utilities


def verify_eigen_rc(a: BiMatrix, b: Element, v: Sequence[Element], tol: float = 1e-9) -> Report:
    """Check a rc v = b v and report the residual plus singularity of a - bE."""
    n = _require_square(a)
    v = list(v)
    col = BiMatrix.from_elements([[e] for e in v])
    av = rc_mul(a, col)
    bv = BiMatrix.from_elements([[b * e] for e in v])
    residual = diff_norm(av, bv)
    shifted = a - BiMatrix.from_elements(
        [[b if i == j else Element(a.algebra, np.zeros(a.algebra.dim)) for j in range(n)] for i in range(n)]
    )
    singular = is_rc_singular(shifted)
    return Report(
        verdict=residual <= tol,
        residual=residual,
        metrics={"shifted_matrix_singular": singular},
    )


def eigen_offdiag(f: Element) -> tuple[Element, Element]:
    """Both eigenvalues of [[0, f], [f, 0]]: f and -f."""
    if not f.coeffs.any():
        raise ValueError("off-diagonal entry must be nonzero")
    return f, -f


def elliptic_eigen_sample(algebra: AlgebraDesc, seed: int) -> Element:
    """A unit pure-imaginary quaternion b (so b*b = -1), seed-deterministic."""
    if algebra.tag != "quaternion":
        raise AlgebraError("pure-imaginary unit samples need the quaternions")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Element(algebra, np.concatenate(([0.0], v)))


# ---------------------------------------------------------------------------
# matrices of tensors (entrywise star product under the rc pattern)


def tmat_identity(algebra: AlgebraDesc, n: int) -> list[list[Tensor]]:
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(pure([one(algebra)]))
            else:
                row.append(SlotTensor(algebra, 0, 0, ()))
        out.append(row)
    return out


def tmat_rc(a: Sequence[Sequence[Tensor]], b: Sequence[Sequence[Tensor]]) -> list[list[Tensor]]:
    m, p, n = len(a), len(b), len(b[0])
    out = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = None
            for k in range(p):
                term = star_product(a[i][k], b[k][j])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def tmat_pow(a: Sequence[Sequence[Tensor]], n: int) -> list[list[Tensor]]:
    algebra = a[0][0].algebra
    acc = tmat_identity(algebra, len(a))
    for _ in range(n):
        acc = tmat_rc(acc, a)
    return acc


def tmat_eval(a: Sequence[Sequence[Tensor]], x: Element) -> BiMatrix:
    return BiMatrix.from_elements([[eval_power(t, x) for t in row] for row in a])


def random_matrix(algebra: AlgebraDesc, m: int, n: int, rng, scale: float = 1.0) -> BiMatrix:
    if not hasattr(rng, "uniform"):
        rng = np.random.default_rng(rng)
    return BiMatrix(algebra, rng.uniform(-scale, scale, (m, n, algebra.dim)))

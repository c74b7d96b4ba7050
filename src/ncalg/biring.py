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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .algebra import (
    AlgebraDesc,
    AlgebraError,
    Element,
    element_from_data,
    element_to_data,
    inv as el_inv,
    make_algebra,
    one,
    random_element,
)
from .report import Report
from .tensor import Tensor, eval_power, star_product

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
        return Element(self.algebra, self.data[i, j])

    def column(self, j: int) -> list[Element]:
        return [self.entry(i, j) for i in range(self.rows)]

    def row_elements(self, i: int) -> list[Element]:
        return [self.entry(i, j) for j in range(self.cols)]

    def max_entry_norm(self) -> float:
        if self.data.size == 0:
            return 0.0
        return float(np.sqrt((self.data ** 2).sum(axis=2)).max())

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


def add(a: BiMatrix, b: BiMatrix) -> BiMatrix:
    return a + b


def hadamard_inv(a: BiMatrix) -> BiMatrix:
    """Entrywise inverse combined with transposition: (Ha)[i][j] = a[j][i]^-1."""
    m, n = a.rows, a.cols
    out = np.zeros((n, m, a.algebra.dim))
    for i in range(n):
        for j in range(m):
            e = a.entry(j, i)
            if e.norm() == 0.0:
                raise ZeroDivisionError("Hadamard inverse undefined: zero entry")
            out[i, j] = el_inv(e).coeffs
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


def _rank(r: np.ndarray, d: int, smax: float | None = None) -> tuple[int, float]:
    """rc rank of the matrix whose real representation is r, and smax.

    Singular values at or below PIVOT_RTOL * smax count as zero, smax being
    r's largest unless given, so the rule does not depend on scale. Each
    occurs d times in rho(A). An empty or non-finite r has rank 0.
    """
    if r.size == 0 or not np.isfinite(r).all():
        return 0, 0.0
    s = np.linalg.svd(r, compute_uv=False)
    smax = s[0] if smax is None else smax
    return int((s > PIVOT_RTOL * smax).sum()) // d, smax


def _nonsingular_rho(a: BiMatrix) -> tuple[np.ndarray, float]:
    """rho(a) and its largest singular value; raises if a is rc-singular or empty."""
    n = _require_square(a)
    r = _rho(a)
    k, smax = _rank(r, a.algebra.dim)
    if n == 0 or k < n:
        raise SingularMatrixError("rc-singular")
    return r, smax


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
    keep_r = [r for r in range(n) if r != i]
    keep_c = [c for c in range(n) if c != j]
    try:
        interior_inv = rc_inv(submatrix(a, keep_r, keep_c))
    except SingularMatrixError as err:
        raise QuasideterminantUndefinedError(
            f"quasideterminant undefined at ({i}, {j}): interior submatrix is rc-singular"
        ) from err
    acc = rc_mul(rc_mul(submatrix(a, [i], keep_c), interior_inv), submatrix(a, keep_r, [j]))
    return a.entry(i, j) - acc.entry(0, 0)


def quasidet_cr(a: BiMatrix, i: int, j: int) -> Element:
    """cr-quasideterminant via the transpose duality."""
    return quasidet_rc(transpose(a), j, i)


def rc_inv(a: BiMatrix) -> BiMatrix:
    """rc-inverse: the LU inverse of rho(a), projected by unrho and residual-checked."""
    n = _require_square(a)
    r, _ = _nonsingular_rho(a)
    out = BiMatrix(a.algebra, _kernels.unrho(a.algebra.table, np.linalg.inv(r)))
    delta = BiMatrix.identity(a.algebra, n)
    resid = max(diff_norm(rc_mul(a, out), delta), diff_norm(rc_mul(out, a), delta))
    # scale the acceptance with the conditioning actually encountered
    if resid > 1e-9 * (1.0 + a.max_entry_norm() * out.max_entry_norm() * n):
        raise SingularMatrixError("inverse failed residual check")
    return out


def cr_inv(a: BiMatrix) -> BiMatrix:
    """cr-inverse via duality: transpose of the rc-inverse of the transpose."""
    return transpose(rc_inv(transpose(a)))


def is_rc_singular(a: BiMatrix) -> bool:
    try:
        _nonsingular_rho(a)
    except SingularMatrixError:
        return True
    return False


def solve_rc(a: BiMatrix, b: Sequence[Element]) -> list[Element]:
    """Unique solution x of a rc x = b for rc-nonsingular square a.

    x comes from one LU solve on rho(a) and is accepted by its backward
    error: ||a x - b|| <= 1e-8 (||b|| + ||rho(a)||_2 ||x||).
    """
    n = _require_square(a)
    b = list(b)
    if len(b) != n:
        raise AlgebraError("right-hand side height mismatch")
    d = a.algebra.dim
    r, smax = _nonsingular_rho(a)
    rhs = BiMatrix.from_elements([[e] for e in b]).data.reshape(n * d)
    x = np.linalg.solve(r, rhs)
    resid = float(np.linalg.norm(r @ x - rhs))
    if resid > 1e-8 * (np.linalg.norm(rhs) + smax * np.linalg.norm(x)):
        raise SingularMatrixError("solution residual above tolerance")
    return [Element(a.algebra, c) for c in x.reshape(n, d)]


def rc_rank(a: BiMatrix) -> tuple[int, MinorSelector]:
    """Largest k with an rc-nonsingular k x k minor, plus one such selector.

    k is the rank of rho(a) over d, and every submatrix is measured against
    the whole matrix's threshold. The rows are picked greedily, each joining when it
    raises the rank, then the columns within those rows. In a matroid the
    greedy basis is the lexicographically first one, so the selector is the
    first nonsingular k x k minor, row sets then column sets in that order.
    """
    d = a.algebra.dim
    k, smax = _rank(_rho(a), d)

    def greedy(count, part):
        picked = ()
        for idx in range(count):
            if len(picked) == k:
                break
            if _rank(_rho(part(picked + (idx,))), d, smax)[0] > len(picked):
                picked += (idx,)
        return picked

    rows = greedy(a.rows, lambda rows: submatrix(a, rows, range(a.cols)))
    cols = greedy(a.cols, lambda cols: submatrix(a, rows, cols))
    return k, MinorSelector(rows, cols)


def left_dependency(a: BiMatrix, rank: int, sel: MinorSelector) -> list[Element] | None:
    """Row coefficients lam with lam rc a = 0 when rank < number of rows.

    Expresses the first row outside the major minor as a left combination of
    the minor's rows (coefficients from row . inv(major)); returns the full
    length-m coefficient list with -1 at that row, or None when rank is full.
    """
    m = a.rows
    if rank >= m:
        return None
    major_inv = rc_inv(submatrix(a, sel.rows, sel.cols))
    p = next(r for r in range(m) if r not in sel.rows)
    row_p = BiMatrix(a.algebra, a.data[[p]][:, list(sel.cols)])
    coeffs = rc_mul(row_p, major_inv)  # 1 x k
    lam = [Element(a.algebra, np.zeros(a.algebra.dim)) for _ in range(m)]
    for idx, r in enumerate(sel.rows):
        lam[r] = coeffs.entry(0, idx)
    lam[p] = -one(a.algebra)
    return lam


def bordered_quasidet(a: BiMatrix, sel: MinorSelector, p: int, r: int) -> Element:
    """Quasideterminant of the minor bordered by row p and column r, at (p, r)."""
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
    if f.norm() == 0.0:
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
                row.append(Tensor(algebra, 0, ((one(algebra),),)))
            else:
                row.append(Tensor(algebra, 0, ()))
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


# ---------------------------------------------------------------------------
# data form


def matrix_to_data(a: BiMatrix) -> dict:
    return {
        "algebra": a.algebra.tag,
        "entries": [[element_to_data(a.entry(i, j)) for j in range(a.cols)] for i in range(a.rows)],
    }


def matrix_from_data(data: dict) -> BiMatrix:
    entries = [[element_from_data(e) for e in row] for row in data["entries"]]
    mat = BiMatrix.from_elements(entries)
    if mat.algebra != make_algebra(data["algebra"]):
        raise AlgebraError("entry algebras disagree with the declared tag")
    return mat


def random_matrix(algebra: AlgebraDesc, m: int, n: int, rng, scale: float = 1.0) -> BiMatrix:
    if not hasattr(rng, "uniform"):
        rng = np.random.default_rng(rng)
    return BiMatrix.from_elements(
        [[random_element(algebra, rng, scale) for _ in range(n)] for _ in range(m)]
    )

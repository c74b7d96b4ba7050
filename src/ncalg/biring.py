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
products and powers are real matrix products, a power read back off column
0 of each block, the inverse is the LU inverse of rho(A), projected back by
unrho (but a 1 x 1 matrix [a] has the inverse [inv(a)]), linear systems are
one LU solve, and rank is the SVD rank of rho(A) over d. A
quasideterminant is the Schur expression a_ij - r . B^-1 . c with B^-1
from the inverse; it is the pivot that noncommutative Gaussian elimination
meets at (i, j).

The checked inverse (_inverse) takes a stack of square matrices and makes
the rank decision and the residual test for each member alone, so every
member gets the bits it would get alone. A stack of 1 x 1 matrices is
decided by the element rule: the rc-inverse of [a] is [inv(a)], with
algebra.inv's bits, refused where inv refuses a and checked on both sides,
so the interior of a 2 x 2 quasideterminant and the 1 x 1 minors of a
rank-1 matrix cost one element's inverse, and a zero entry pays no LU
inverse before its refusal. For n >= 2 it takes the LU inverse X of rho
first, and _certificate proves the stack regular when
||rho(a)||_F ||rho(unrho X)||_F < 1 / (4 PIVOT_RTOL) and a rc unrho(X)
is within 1 / (2 n d) of E in every coefficient: then rho(a) rho(unrho X)
is within 1/2 of I, so cond_2(rho(a)) < 1 / (2 PIVOT_RTOL), and the SVD
rule could only say rank n. The SVD runs only when the certificate fails.
rc_inv and left_dependency call it with a stack of one. Quasideterminants
are taken over a stack of matrices in one inverse call: _quasidets gathers
the interior of each member at its own (i, j) by fancy indexing and
inverts them all at once. quasidet_rc and bordered_quasidet pass one
matrix and one pair; quasidets_rc passes one matrix with all n^2 pairs,
giving the n x n matrix of all quasideterminants |A|_ij of Gelfand,
Gelfand, Retakh and Wilson.

Linear systems and rank are stacked the same way. _solve takes a stack of
square systems and decides their regularity for all of them at once: a
stack of more than one tries the same certificate with X itself, and one
SVD rank call decides where it fails or for a single system. One LU solve
serves the stack, then the backward-error test of each member with its
own norms, ||rho(a)||_F among them, which neither route changes.
_rank_search runs rc_rank's greedy minor search of every member in
lockstep, with one SVD call per step and submatrix shape, each member
judged against its own largest singular value. solve_rc and rc_rank are
their calls with a stack of one, and every member gets the bits, rank,
selector and error of its own call. The solve-quaternion-system and
rank-demo scenarios solve and rank all their matrices in one call each.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .algebra import (
    CLOSE_RTOL,
    AlgebraDesc,
    AlgebraError,
    Element,
    NotInvertibleError,
    _frobenius_rows,
    _inv_floats,
    _inv_rows,
    _scaled,
    close,
    inv_stack,
    one,
    zero,
)
from .report import Report

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
        arr.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("BiMatrix is immutable")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_elements(cls, rows: Sequence[Sequence[Element]]) -> "BiMatrix":
        if not rows or not rows[0]:
            raise AlgebraError("an empty list of rows names no algebra")
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

    def close(self, other: "BiMatrix", tol: float = CLOSE_RTOL) -> bool:
        """Same algebra and shape, and close under the one rule, algebra.close, over all coefficients."""
        return (self.algebra == other.algebra and self.data.shape == other.data.shape
                and close(self.data, other.data, tol))

    def __repr__(self):
        return f"BiMatrix({self.algebra.tag}, {self.rows}x{self.cols})"


def _max_entry_norm(data: np.ndarray) -> np.ndarray:
    """Largest entry norm of each member of an (..., m, n, d) stack; 0 for an empty member.

    Each member is scaled as algebra.frobenius scales an array, so no
    square over- or underflows at any magnitude.
    """
    s, e = _scaled(data, (-3, -2, -1))
    with np.errstate(over="ignore"):  # a norm past the largest float is inf
        return np.ldexp(np.sqrt((s ** 2).sum(axis=-1)).max(axis=(-2, -1), initial=0.0), e[..., 0, 0, 0])


def diff_norm(a: BiMatrix, b: BiMatrix) -> float:
    """The largest coefficient difference; 0.0 for empty matrices."""
    return float(np.abs(a.data - b.data).max(initial=0.0))


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


def _rc_power(a: BiMatrix, data: np.ndarray, n: int) -> np.ndarray:
    """data^n under rc, for data a's array or its transpose: column 0 of each block of rho(data)^n."""
    _require_square(a)
    if n < 0:
        raise ValueError("power must be >= 0")
    return _kernels.column(np.linalg.matrix_power(_kernels.rho(a.algebra.table, data), n), a.algebra.dim)


def rc_pow(a: BiMatrix, n: int) -> BiMatrix:
    return BiMatrix(a.algebra, _rc_power(a, a.data, n))


def cr_pow(a: BiMatrix, n: int) -> BiMatrix:
    """cr-power via duality: transpose of the rc-power of the transpose."""
    return BiMatrix(a.algebra, _rc_power(a, a.data.transpose(1, 0, 2), n).transpose(1, 0, 2))


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


def _rc_ranks(table: np.ndarray, data: np.ndarray, smax: Sequence[float] | None = None,
              r: np.ndarray | None = None) -> tuple[np.ndarray, list[int], list[float]]:
    """rho of a (k, m, n, d) stack of arrays, each member's rc rank, and its largest singular value.

    Singular values at or below PIVOT_RTOL * smax count as zero, smax being
    each member's largest unless given, one value per member, so the rule
    does not depend on scale; each occurs d times in rho. A square member
    is rc-nonsingular iff its rank is n > 0. An empty member has rank 0,
    and so does a non-finite one, which is replaced by the zero matrix
    before rho (whose table product would turn inf into NaN). A caller that
    has built rho of a finite stack passes it as r.
    """
    if r is None:
        if not np.isfinite(data).all():
            data = np.where(np.isfinite(data).all(axis=(1, 2, 3), keepdims=True), data, 0.0)
        r = _kernels.rho(table, data)
    if r.size == 0:
        return r, [0] * len(r), [0.0] * len(r)
    s = np.linalg.svd(r, compute_uv=False).tolist()  # Python costs less than numpy on a short stack
    tops = [row[0] for row in s]
    bounds = [PIVOT_RTOL * top for top in (tops if smax is None else smax)]
    return r, [sum(v > b for v in row) // table.shape[0] for row, b in zip(s, bounds)], tops


# Largest magnitude of a stack, and of its LU inverse, that _certificate certifies: within it no
# square of the certificate and no product of its residuals overflows.
_CERT_RANGE = 2.0 ** 500
# Largest finite float: unrho sums d entries of X, so an X above _X_RANGE / d is refused.
_X_RANGE = float(np.finfo(np.float64).max)


def _residuals(table: np.ndarray, data: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|data rc out - E| stacked over |out rc data - E|, (k, 2 n d, n), for r = rho(data).

    vec(a rc b) = rho(a) @ vec(b), vec stacking coefficients down each
    column; the identity's vec has its ones at flat index t (n d + 1), one
    stride apart.
    """
    k, n, d = data.shape[0], data.shape[1], table.shape[0]
    left = r @ out.swapaxes(-1, -2).reshape(k, n * d, n)
    right = _kernels.rho(table, out) @ data.swapaxes(-1, -2).reshape(k, n * d, n)
    resid = np.concatenate((left, right), axis=1)
    resid.reshape(k, 2, n * d * n)[..., ::n * d + 1] -= 1.0
    return np.abs(resid)


def _certificate(table: np.ndarray, data: np.ndarray,
                 project: bool) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """rho of a (k, n, n, d) stack and, when it proves every member regular, the LU inverse that does.

    The proof takes Y, the LU inverse X of rho(a), or with project the
    projection rho(unrho X). The stack and X must be finite and within
    _CERT_RANGE, max|a| max|X| below 1 / (4 PIVOT_RTOL), and for each
    member ||rho(a)||_F ||Y||_F too, and every entry of rho(a) Y - I must be
    below 1 / (2 n d). Then ||rho(a) Y - I||_2 < 1/2, so
    ||rho(a)^-1||_2 < 2 ||Y||_2 and cond_2(rho(a)) < 1 / (2 PIVOT_RTOL): the
    SVD rule of _rc_ranks could only give rank n, with a margin far above
    its rounding. With project the entries of rho(a) Y - I are the
    coefficients of a rc unrho(X) - E up to sign, taken by _residuals on
    both sides, which _inverse's own test reads.

    Returns rho, or None when the stack is empty, not finite or beyond
    _CERT_RANGE; unrho X with project, else X, or None when the certificate
    fails; and with project the residuals of _residuals.
    """
    k, n, d = data.shape[0], data.shape[1], table.shape[0]
    if not data.size or not (big := np.abs(data).max()) <= _CERT_RANGE:  # NaN fails too
        return None, None, None
    r = _kernels.rho(table, data)
    try:
        x = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        return r, None, None
    # a singular member makes big * top of the order of 1 / u, so it stops here
    if not ((top := np.abs(x).max()) <= _CERT_RANGE and big * top < 0.25 / PIVOT_RTOL):
        return r, None, None
    y = _kernels.unrho(table, x) if project else x
    ps, qs = ((f[:, None] @ f[:, :, None]).ravel().tolist() for f in (data.reshape(k, -1), y.reshape(k, -1)))
    # ||rho(a)||_F^2 = d ||a||_F^2, and so for unrho X. Python floats: a product too large for the
    # certificate overflows to inf without a warning; d is a power of two and every p and q is
    # finite, so scaling the largest product by it decides as each member's own product would
    if not (d * d if project else d) * max(map(operator.mul, ps, qs)) < 0.0625 / PIVOT_RTOL ** 2:
        return r, None, None
    if project:
        resid = _residuals(table, data, r, y)
        left = resid[:, :n * d].max()
    else:
        resid = r @ x
        resid.reshape(k, -1)[:, ::n * d + 1] -= 1.0
        left, resid = np.abs(resid).max(), None
    return (r, y, resid) if left < 0.5 / (n * d) else (r, None, None)


def _inverse(table: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, Sequence[int]]:
    """rc-inverses of a (k, n, n, d) stack of square arrays, and the members without one.

    Each member's inverse is checked on both sides, and it has the bits it
    would have alone. The second result lists, in ascending order, the
    members that are rc-singular or fail their residual check; their
    entries in the first result are meaningless. A residual passes at 1e-9,
    or below 1e-9 (1 + n ||a|| ||out||), the entry norms at their largest.

    A stack of 1 x 1 matrices is decided by the element rule of
    _element_inverses: the rc-inverse of [a] is [inv(a)], and a member is
    refused where inv refuses a, with no LU inverse or SVD, singular or
    not. For n >= 2 the inverse is the LU inverse X of each member's rho,
    projected by unrho.

    Rank is decided without an SVD when _certificate proves the stack
    regular by out = unrho(X), whose residuals the test above reads.
    Otherwise (a LinAlgError, a magnitude above _CERT_RANGE or a failed
    certificate) the SVD rule of _rc_ranks decides for the whole stack,
    reusing rho, and LU inverts its regular members alone. A regular member
    whose X is not finite or exceeds _X_RANGE / d, as at tiny scale, fails
    there too, before unrho, and the identity stands in for every failed
    member in a, rho and X.
    """
    if data.shape[1] == 1:
        return _element_inverses(table, data)
    k, n, d = data.shape[0], data.shape[1], table.shape[0]
    r, out, resid = _certificate(table, data, True)
    if out is not None:
        flags = [True] * k
    else:
        r, rank, _ = _rc_ranks(table, data, r=r)
        flags = [0 < n == m for m in rank]  # Python costs less than numpy on a short stack
        if not any(flags):
            return data, range(k)
        # the LU meets the regular members only; a regular member at tiny scale
        # can have an X that is not finite, or so large that unrho's sums
        # overflow, and it leaves no answer to check
        ok, x = np.array(flags), np.zeros_like(r)
        x[ok] = np.linalg.inv(r[ok])
        ok &= np.abs(x).max(axis=(1, 2)) <= _X_RANGE / d  # NaN fails too
        if not ok.all():
            # the identity stands in for the failed members, so that unrho and
            # the residuals meet no singular or non-finite matrix
            data = np.where(ok[:, None, None, None], data, np.eye(n)[:, :, None] * np.eye(d)[0])
            r, x = (np.where(ok[:, None, None], m, np.eye(n * d)) for m in (r, x))
            flags = ok.tolist()
        out = _kernels.unrho(table, x)
        resid = _residuals(table, data, r, out)
    if all(flags) and resid.max() <= 1e-9:  # a NaN anywhere fails this
        return out, ()
    return out, _refused(data, out, flags, resid.max(axis=(1, 2)))


def _refused(data: np.ndarray, out: np.ndarray, flags: Sequence[bool], resid: np.ndarray) -> np.ndarray:
    """The members of _inverse's stack that fail: not flagged, or a largest residual past the acceptance.

    The acceptance scales with the conditioning actually encountered; the
    bound is at least 1e-9, so the norms are needed only above that, and a
    NaN or infinite residual passes neither test, even where an overflowed
    inverse makes the bound infinite.
    """
    size, out_size = _max_entry_norm(np.stack((data, out)))  # every member scaled alone, so each keeps its bits
    bound = 1e-9 * (1.0 + size * out_size * data.shape[1])
    return np.flatnonzero(~(np.array(flags) & ((resid <= 1e-9) | (resid < bound))))


def _element_inverses(table: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, Sequence[int]]:
    """_inverse of a (k, 1, 1, d) stack: each entry a inverted by inv's rule and checked on both sides.

    One member is inverted by algebra._inv_floats, a stack by
    algebra._inv_rows, which gives every member the same bits, and a member
    that inv refuses fails. The check is |a b - 1| and |b a - 1| for the
    inverse b, each product the contraction of Element.__mul__, a with the
    table as d x d^2 and the other factor with that: ndarray.dot for one
    member and a matmul of (1, d) rows for a stack, the same BLAS call, so
    a member's residual, and its verdict, are those of its own call.
    """
    k, d = len(data), table.shape[0]
    flat = table.reshape(d, d * d)
    if k == 1:
        a = data[0, 0, 0]
        b = _inv_floats(a)
        if b is None:
            return data, [0]
        b = np.array(b)
        ab, ba = (y.dot(x.dot(flat).reshape(d, d)).tolist() for x, y in ((a, b), (b, a)))
        ab[0] -= 1.0
        ba[0] -= 1.0
        out = b.reshape(1, 1, 1, d)
        resid = max(map(abs, ab + ba))
        return (out, ()) if resid <= 1e-9 else (out, _refused(data, out, [True], np.array([resid])))
    out, ok = _inv_rows(data[:, 0, 0])
    a, b = data[:, 0, 0], out
    if not ok.all():
        # the unit stands in for the failed members, whose products could warn
        unit = np.eye(1, d)
        a, b = (np.where(ok[:, None], m, unit) for m in (a, b))
    x, y = np.stack((a, b)), np.stack((b, a))
    prods = (y[..., None, :] @ (x[..., None, :] @ flat).reshape(2, k, d, d))[..., 0, :]  # a b and b a
    prods[..., 0] -= 1.0
    resid = np.abs(prods).max(axis=(0, 2))
    out = out.reshape(k, 1, 1, d)
    if (resid <= 1e-9).all():  # a stand-in's residual is 0
        return out, np.flatnonzero(~ok)
    return out, _refused(data, out, ok.tolist(), resid)


@lru_cache(maxsize=32)
def _complements(n: int) -> np.ndarray:
    """Read-only (n, n - 1) array whose row i is range(n) without i."""
    k = np.arange(n - 1)
    out = k + (k >= np.arange(n)[:, None])
    out.flags.writeable = False
    return out


def _quasidets(table: np.ndarray, data: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(k, d) array whose row t is the (rows[t], cols[t]) rc-quasideterminant of member t of a (k, n, n, d) stack.

    A stack of one matrix serves every pair; a scalar index gathers from it
    at the cost of the two-index gather of one matrix. The k interiors are
    inverted in one stacked call, so every row has the bits of its member's
    own call; the first undefined pair in the given order raises
    QuasideterminantUndefinedError. At n = 1 the interior is empty and the
    quasideterminant is the entry itself.
    """
    t = 0 if len(data) == 1 else np.arange(len(rows))[:, None, None]
    entries = data[t, rows[:, None, None], cols[:, None, None]][:, 0, 0]
    if data.shape[1] == 1:
        return entries
    others = _complements(data.shape[1])
    keep_r, keep_c = others[rows], others[cols]
    interior_inv, failed = _inverse(table, data[t, keep_r[:, :, None], keep_c[:, None, :]])
    if len(failed):
        f = failed[0]
        raise QuasideterminantUndefinedError(
            f"quasideterminant undefined at ({rows[f]}, {cols[f]}): interior submatrix is rc-singular"
        )
    row = data[t, rows[:, None, None], keep_c[:, None, :]]
    col = data[t, keep_r[:, :, None], cols[:, None, None]]
    return entries - _kernels.rc_contract(table, _kernels.rc_contract(table, row, interior_inv), col)[:, 0, 0]


def quasidet_rc(a: BiMatrix, i: int, j: int) -> Element:
    """(i, j) rc-quasideterminant; the inverse matrix's (j, i) entry inverted.

    It is a_ij - r . B^-1 . c, where B is a without row i and column j, and
    r and c are row i and column j without their shared entry.
    """
    n = _require_square(a)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("quasideterminant index out of range")
    return Element._trusted(a.algebra, _quasidets(a.algebra.table, a.data[None], np.array([i]), np.array([j]))[0])


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
    return BiMatrix(a.algebra, _quasidets(a.algebra.table, a.data[None], rows, cols).reshape(n, n, a.algebra.dim))


def quasidet_cr(a: BiMatrix, i: int, j: int) -> Element:
    """cr-quasideterminant via the transpose duality."""
    return quasidet_rc(transpose(a), j, i)


def rc_inv(a: BiMatrix) -> BiMatrix:
    """rc-inverse: the LU inverse of rho(a), projected by unrho, or [inv(a_00)] at n = 1, residual-checked."""
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


def _solve(table: np.ndarray, data: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """Solutions x of a rc x = b for a (k, n, n, d) stack of square arrays a and a (k, n, d) stack of b.

    Each member is decided alone and has the bits of its own solve_rc call:
    it fails when a is rc-singular by the SVD rule of _rc_ranks, when b is
    not finite, or when x fails the backward-error test
    ||a x - b|| <= 1e-8 (||b|| + ||rho(a)||_F ||x||) with its own norms,
    ||rho(a)||_F being sqrt(d) ||a||_F. A stack of more than one system with
    finite b first tries _certificate with the LU inverse X of rho(a): when
    it holds, every member is regular, as the SVD rule would find, and no
    SVD runs; otherwise one SVD call decides the stack. A single system goes
    to the SVD at once, so a singular one pays no LU inverse first. One LU
    solve serves the stack; the identity and a zero b stand in for the
    members already failed, so that LU meets no singular or non-finite
    matrix. The second result maps each failed member, in ascending order,
    to its error; its rows in the first are meaningless.
    """
    k, n, d = data.shape[0], data.shape[1], table.shape[0]
    vec = rhs.reshape(k, n * d)
    finite = np.isfinite(vec).all(axis=1).tolist()
    r = certified = None
    if k > 1 and all(finite):
        r, certified, _ = _certificate(table, data, False)
    failed: dict[int, Exception] = {}
    if certified is None:
        r, ranks, _ = _rc_ranks(table, data, r=r)
        for t, (rank, fin) in enumerate(zip(ranks, finite)):
            if not 0 < n == rank:
                failed[t] = SingularMatrixError("rc-singular")
            elif not fin:
                failed[t] = AlgebraError("right-hand side is not finite")
    if len(failed) == k:
        return np.zeros((k, n, d)), failed
    if failed:
        ok = np.ones(k, dtype=bool)
        ok[list(failed)] = False
        r, vec = np.where(ok[:, None, None], r, np.eye(n * d)), np.where(ok[:, None], vec, 0.0)
    x = np.linalg.solve(r, vec[..., None])
    # the norms of the residual, of b, of x and of each row of a, each with the bits of its frobenius
    # call; an x that overflows makes r x inf or NaN quietly, and the test below refutes it
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _frobenius_rows(np.concatenate(((r @ x)[..., 0] - vec, vec, x[..., 0],
                                                data.reshape(k * n, n * d)))).tolist()
    root_d = math.sqrt(d)
    for t, (res, nb, nx) in enumerate(zip(norms[:k], norms[k:2 * k], norms[2 * k:3 * k])):
        na = math.hypot(*norms[3 * k + t * n:3 * k + (t + 1) * n])
        # NaN fails too; a stand-in's residual is 0, and it keeps its error
        if not res <= 1e-8 * (nb + root_d * na * nx):
            failed.setdefault(t, SingularMatrixError("solution residual above tolerance"))
    return x.reshape(k, n, d), dict(sorted(failed.items()))


def solve_rc(a: BiMatrix, b: Sequence[Element]) -> list[Element]:
    """Unique solution x of a rc x = b for rc-nonsingular square a: _solve of the one system.

    Regularity is the SVD rule of _rc_ranks, and x comes from one LU solve
    on rho(a) and is accepted by its backward error:
    ||a x - b|| <= 1e-8 (||b|| + ||rho(a)||_F ||x||), each vector norm
    algebra.frobenius, so the test holds at every scale. A b that is not
    finite raises AlgebraError.
    """
    n = _require_square(a)
    b = list(b)
    if len(b) != n:
        raise AlgebraError("right-hand side height mismatch")
    if any(e.algebra != a.algebra for e in b):
        raise AlgebraError("algebra mismatch")
    d = a.algebra.dim
    x, failed = _solve(a.algebra.table, a.data[None], np.array([e.coeffs for e in b]).reshape(1, n, d))
    if failed:
        raise failed[0]
    return [Element._trusted(a.algebra, c) for c in x[0]]


def _greedy_minor(k: int, m: int, n: int):
    """rc_rank's search of an m x n matrix whose whole rank is k, as a generator.

    It yields the (rows, cols) index tuples of each submatrix whose rank it
    needs, is sent that rank, and returns the rank and the selector.
    """
    def greedy(candidates, part):
        picked = ()
        for idx in candidates:
            if len(picked) == k:
                break
            if (yield part(picked + (idx,))) > len(picked):
                picked += (idx,)
        return picked

    rows, cols = range(m), range(n)
    while True:
        rows = yield from greedy(rows, lambda rows: (rows, cols))
        cols = yield from greedy(cols, lambda cols: (rows, cols))
        if len(rows) == len(cols):
            return len(rows), MinorSelector(rows, cols)
        k = len(cols)


def _rank_search(table: np.ndarray, data: np.ndarray) -> list[tuple[int, MinorSelector]]:
    """rc_rank of each member of a (k, m, n, d) stack: its rank and selector, with those of its own call.

    One SVD call ranks every whole member. The greedy searches of the
    others then run in lockstep: each round ranks the next submatrix of
    every unfinished member, in one _rc_ranks call per submatrix shape,
    against that member's own largest singular value.
    """
    m, n = data.shape[1:3]
    _, ranks, smax = _rc_ranks(table, data)
    out: list = [None] * len(data)
    asks = []  # (member, its search, the (rows, cols) it asks to rank)

    def advance(t, search, rank):
        try:
            asks.append((t, search, search.send(rank)))
        except StopIteration as done:
            out[t] = done.value

    for t, k in enumerate(ranks):
        if k == m == n:
            out[t] = k, MinorSelector(tuple(range(k)), tuple(range(k)))
        else:
            advance(t, _greedy_minor(k, m, n), None)
    while asks:
        shapes: dict[tuple[int, int], list] = {}
        for ask in asks:
            shapes.setdefault((len(ask[2][0]), len(ask[2][1])), []).append(ask)
        asks = []
        for group in shapes.values():
            members, _, sels = zip(*group)
            rows, cols = (np.array(idx) for idx in zip(*sels))
            sub = data[np.array(members)[:, None, None], rows[:, :, None], cols[:, None, :]]
            # a member with a search is finite, so rho needs no check
            got = _rc_ranks(table, sub, [smax[t] for t in members], _kernels.rho(table, sub))[1]
            for (t, search, _), rank in zip(group, got):
                advance(t, search, rank)
    return out


def rc_rank(a: BiMatrix) -> tuple[int, MinorSelector]:
    """Largest k with an rc-nonsingular k x k minor, plus one such selector: _rank_search of the one matrix.

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
    return _rank_search(a.algebra.table, a.data[None])[0]


def left_dependency(a: BiMatrix, rank: int, sel: MinorSelector) -> list[Element] | None:
    """Row coefficients lam with lam rc a = 0 when rank < number of rows.

    Expresses the first row outside the major minor as a left combination of
    the minor's rows (coefficients from row . inv(major)); returns the full
    length-m coefficient list with -1 at that row, or None when rank is full.
    At rank 0 the minor is empty, and lam is -1 at that row and zero
    elsewhere when the row is exactly zero and a is finite.
    """
    if len(sel.rows) != len(sel.cols):
        raise ValueError("selector must pick as many rows as columns")
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


def _bordered_minors(data: np.ndarray, members: Sequence[int], sels: Sequence[MinorSelector],
                     ps: Sequence[int], rs: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minors of an (s, m, n, d) stack bordered by a row p and a column r, and the position of (p, r) in each.

    Minor t is member members[t]'s minor of sels[t] bordered by row ps[t]
    and column rs[t]: its rows are the selector's rows and p, sorted, and
    its columns likewise. One fancy index gathers them all, so the
    selectors have one size.
    """
    rows = [sorted(sel.rows + (p,)) for sel, p in zip(sels, ps)]
    cols = [sorted(sel.cols + (r,)) for sel, r in zip(sels, rs)]
    minors = data[np.array(members)[:, None, None], np.array(rows)[:, :, None], np.array(cols)[:, None, :]]
    return (minors, np.array([row.index(p) for row, p in zip(rows, ps)]),
            np.array([col.index(r) for col, r in zip(cols, rs)]))


def bordered_quasidet(a: BiMatrix, sel: MinorSelector, p: int, r: int) -> Element:
    """Quasideterminant of the minor bordered by row p and column r, at (p, r).

    The border lies outside the minor: a row or column already in it would
    repeat in the bordered matrix.
    """
    if not (0 <= p < a.rows and 0 <= r < a.cols):
        raise IndexError("border index out of range")
    if len(sel.rows) != len(sel.cols):
        raise ValueError("selector must pick as many rows as columns")
    if p in sel.rows or r in sel.cols:
        raise ValueError("border row or column already in the minor")
    sub, i, j = _bordered_minors(a.data[None], [0], [sel], [p], [r])
    return Element._trusted(a.algebra, _quasidets(a.algebra.table, sub, i, j)[0])


# ---------------------------------------------------------------------------
# eigenvalue utilities


def verify_eigen_rc(a: BiMatrix, b: Element, v: Sequence[Element], tol: float = CLOSE_RTOL) -> Report:
    """Check a rc v = b v and report the residual plus singularity of a - bE.

    The verdict is BiMatrix.close of a rc v and b v; the residual is their
    diff_norm.
    """
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
        verdict=av.close(bv, tol),
        residual=residual,
        metrics={"shifted_matrix_singular": singular},
    )


def random_matrix(algebra: AlgebraDesc, m: int, n: int, rng, scale: float = 1.0) -> BiMatrix:
    """m x n matrix with coefficients uniform on [-scale, scale]; rng is a seed or a Generator, as in random_element."""
    return BiMatrix(algebra, np.random.default_rng(rng).uniform(-scale, scale, (m, n, algebra.dim)))

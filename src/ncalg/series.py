"""Series-defined maps on algebra elements and matrices.

Every map here is the exponential of a real matrix, computed by one routine,
``_expm``, by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl.
26(4), 2005): the argument a is halved until its 1-norm is at most 1/2, its
Taylor series is summed to the first degree n with ||a||_1^n / n! at most
TAYLOR_RTOL, and the sum is squared back. That bound caps term n itself,
so the degree, fixed from the norm before the sum and at most 14, is never
below what a rule on the computed terms would stop at. There is no term
budget to set. The degree-n polynomial is evaluated by Paterson-Stockmeyer
(SIAM J. Comput. 2(1), 1973) in blocks of four: 3 + n // 4 matrix
products, at most 6, instead of n, plus one per squaring. ``_expm`` also
takes a (k, p, p) stack, for a curve on a whole time grid: each member
keeps the squaring count and degree of its own norm, a lower degree is
padded with zero coefficient rows, which add exactly nothing, and only
the members of degree at most 3, whose one coefficient row takes another
BLAS kernel, go through the sum as a group of their own. So every member
gets the bits it gets alone.

The private _exp_els and _pairs take exp_el, and the (cosh, sinh) or
(cos, sin) pair, of every row of a (k, d) array of coefficients in one
stacked exponential, for callers that need many at once: the elliptic
curves on a time grid and the exponent-law and Euler scenarios. Row i has
the bits of the public map of that row alone; the public maps keep their
single calls.

Each map is one exponential exp(rho(E)) of a small matrix E of elements
(rho as in _kernels, so L(x) = rho([x]) and L(exp x) = exp(L(x))), and it
reads column 0 of a d-row block, since L(a) e_0 = a: exp_el takes E = [x],
sinh, cosh, sin and cos take E = [[0, x], [+-x, 0]], mexp_rc takes its
own argument and maps the whole result back with unrho, and quasiexp takes
a 2^n x 2^n subset lattice. Arguments or results that are not finite, and
arguments too large for any digit of the result to be accurate, raise
SeriesBudgetError. The quasiexponent generalizes the exponent: it is the
order-n derivative of exp evaluated at fixed directions, and like exp it
satisfies dy/dx o 1 = y.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _kernels
from .algebra import AlgebraError, Element, scale as el_scale
from .biring import BiMatrix, transpose


TAYLOR_RTOL = 1e-14


class SeriesBudgetError(ArithmeticError):
    """Argument or value not finite, or too large to be accurate."""


def _norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max(initial=0.0))


def _taylor_degree(norm: float) -> int:
    """Fewest Taylor terms n with norm^n / n! <= TAYLOR_RTOL; 14 at most for norm <= 1/2."""
    n, bound = 1, norm
    while bound > TAYLOR_RTOL:
        n += 1
        bound *= norm / n
    return n


def _ps_coeffs(n: int) -> np.ndarray:
    """1/k! for k <= n, and zeros after, as a 4 x 4 array, row j holding k = 4j .. 4j + 3."""
    c = np.zeros(16)
    c[:n + 1] = [1.0 / math.factorial(k) for k in range(n + 1)]
    return c.reshape(4, 4)


# row n: the coefficients of every degree _taylor_degree gives for a norm of at most 1/2
_PS_COEFFS = np.array([_ps_coeffs(n) for n in range(_taylor_degree(0.5) + 1)])


def _taylor(a: np.ndarray, n) -> np.ndarray:
    """sum_{k<=n} a^k / k! by Paterson-Stockmeyer in blocks of four.

    With B_j = sum_{i<4} a^i / (4j + i)!, the sum is B_0 + a^4 (B_1 + a^4 (B_2
    + ...)). One product of the coefficient rows with the stacked I, a, a^2,
    a^3 builds every B_j at once, and Horner's rule in a^4 adds n // 4
    matrix products to the 3 that form a^2, a^3 and a^4. At n = 14 that is
    6 products and about 15 numpy calls, where the term-by-term sum takes
    14 products and 42 calls.

    a is one (d, d) matrix of degree n, whose products are ndarray.dot, or
    a (k, d, d) stack with an integer array n of degrees, one pass of
    matmul for all members. A member of lower degree gets zero coefficient
    rows up to the highest degree's rows: its B_j there are exactly zero,
    and Horner's rule carries them as exact zeros up to its own last row,
    so it gets the bits it gets alone. A one-row product takes another BLAS
    kernel than a product of several rows, so the members of a stack must
    all have degree at most 3 (one row) or all above 3.
    """
    *stack, d, _ = a.shape
    dot = np.matmul if stack else np.ndarray.dot
    eye = _kernels.identity(d)
    a2 = dot(a, a)
    powers = np.concatenate((np.broadcast_to(eye, a.shape) if stack else eye, a, a2, dot(a2, a)), axis=-2)
    rows = (n.max() if stack else n) // 4 + 1
    blocks = dot(_PS_COEFFS[n, :rows], powers.reshape(*stack, 4, d * d))
    blocks = (blocks.swapaxes(0, 1) if stack else blocks).reshape(rows, *stack, d, d)  # B_j first
    total = blocks[-1]
    if rows > 1:
        a4 = dot(a2, a2)
        for b in blocks[-2::-1]:
            total = dot(total, a4)
            total += b
    return total


def _scaling(norm: float, m: np.ndarray) -> tuple[int, int]:
    """The squaring count s and Taylor degree n of a matrix m of 1-norm norm; raises past 2^52."""
    if not norm < 2.0 ** 52:  # NaN or inf when m is not finite
        if not np.isfinite(m).all():
            raise SeriesBudgetError("exponential of a non-finite argument")
        raise SeriesBudgetError("argument too large for an accurate exponential")
    s = math.frexp(norm)[1] + 1 if norm > 0.5 else 0
    return s, _taylor_degree(math.ldexp(norm, -s))


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) of a real square matrix, or of each member of a (k, p, p) stack, by scaling and squaring.

    The scaled argument a = m / 2^s has ||a||_1 <= 1/2, so term n, a^n / n!,
    is at most ||a||_1^n / n!, and the tail after a term is no larger than
    that term. The sum stops at the first n where this bound is within
    TAYLOR_RTOL, which needs no norm of the terms and holds by n = 14. It
    never stops earlier than a rule on the computed terms, since the bound
    caps term n itself by TAYLOR_RTOL, where such a rule would allow
    TAYLOR_RTOL (1 + ||sum||_1). The degree-n polynomial is evaluated by
    Paterson-Stockmeyer (_taylor): 3 + n // 4 matrix products, at most 6,
    where summing term by term takes n. The s squarings then take s more,
    and multiply the sum's relative rounding error by up to 2^s, so past
    ||m||_1 = 2^52 no digit of the result is left and it raises instead.

    Each member of a stack takes s and n from its own 1-norm and gets the
    bits it gets alone. The members of degree at most 3 go through _taylor
    as one group and the others as another, and member i is squared only
    while r < s_i, selected with np.where; the squarings it skips are never
    read and run with overflow warnings off. A member that raises alone
    raises the same error in the stack, the first such member's.
    """
    if m.ndim == 2:
        s, n = _scaling(_norm1(m), m)
        total = _taylor(np.ldexp(m, -s), n)
    else:
        norms = np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0).tolist()
        s, n = np.array([_scaling(norm, member) for norm, member in zip(norms, m)], dtype=int).reshape(-1, 2).T
        a = np.ldexp(m, -s[:, None, None])
        total = np.empty_like(a)
        low = n <= 3
        for group in (low, ~low):
            if group.any():
                total[group] = _taylor(a[group], n[group])
    top = s if m.ndim == 2 else s.max(initial=0)
    if top:
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(top):
                if m.ndim == 2:
                    total = total.dot(total)
                else:
                    total = np.where((r < s)[:, None, None], total @ total, total)
        if not np.isfinite(total).all():
            raise SeriesBudgetError("exponential overflows")
    return total


def _exp_rho(alg, e: np.ndarray) -> np.ndarray:
    """exp(rho(E)) for an (m, m, d) matrix E of elements, or for each member of a (k, m, m, d) stack.

    A non-finite E is refused before rho multiplies inf by the table's zeros.
    """
    if not all(map(math.isfinite, e.ravel().tolist())):
        raise SeriesBudgetError("exponential of a non-finite argument")
    return _expm(_kernels.rho(alg.table, e))


def exp_el(x: Element) -> Element:
    """exp(x) = sum x^n / n!: column 0 of exp(L(x)), E = [x]."""
    return Element._trusted(x.algebra, _exp_rho(x.algebra, x.coeffs[None, None])[:, 0])


def _require_finite_time(t: float) -> None:
    """Refuse a non-finite time before a product with it turns 0 * inf into NaN."""
    if not math.isfinite(t):
        raise SeriesBudgetError(f"exponential at the non-finite time {t}")


def exp_at(a: Element, t: float) -> Element:
    """exp(a t) for real t; (a t)^n = a^n t^n, so this is exp_el(a*t)."""
    _require_finite_time(t)
    return exp_el(el_scale(a, t))


def _exp_els(alg, c: np.ndarray) -> np.ndarray:
    """The coefficients of exp_el of each row of a (k, d) array c, as one (k, d) array.

    One stacked exponential of the L(c_i), so row i has the bits of exp_el
    of that row alone. An empty stack gives an empty (0, d) array.
    """
    return _exp_rho(alg, c[:, None, None])[:, :, 0]


def _pair(x: Element, sign: float, block: int) -> Element:
    """Block (0, block), column 0, of exp(rho(E)) for E = [[0, x], [sign x, 0]].

    With L = L(x), that exponential is [[cosh L, sinh L], [sinh L, cosh L]]
    for sign = 1 and [[cos L, sin L], [-sin L, cos L]] for sign = -1.
    """
    d = x.algebra.dim
    e = np.zeros((2, 2, d))
    e[0, 1] = x.coeffs
    e[1, 0] = sign * x.coeffs
    return Element._trusted(x.algebra, _exp_rho(x.algebra, e)[:d, block * d])


def sinh_el(x: Element) -> Element:
    return _pair(x, 1.0, 1)


def cosh_el(x: Element) -> Element:
    return _pair(x, 1.0, 0)


def sin_el(x: Element) -> Element:
    return _pair(x, -1.0, 1)


def cos_el(x: Element) -> Element:
    return _pair(x, -1.0, 0)


def _pairs(alg, c: np.ndarray, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """(cosh, sinh) of each row of a (k, d) array c for sign = 1, (cos, sin) for sign = -1.

    Blocks (0, 0) and (0, 1), column 0, of one stacked exponential of the
    [[0, c_i], [sign c_i, 0]], so row i has the bits of cosh_el and sinh_el
    (or cos_el and sin_el) of that row alone.
    """
    k, d = c.shape
    e = np.zeros((k, 2, 2, d))
    e[:, 0, 1] = c
    e[:, 1, 0] = sign * c
    out = _exp_rho(alg, e)
    return out[:, :d, 0], out[:, :d, d]


# ---------------------------------------------------------------------------
# quasiexponent


def quasiexp(cs: Sequence[Element], x: Element) -> Element:
    """e[c_1..c_n]^x: the order-n derivative of exp at directions c_1..c_n.

    Degree N of x^N contributes (1/N!) times the sum over all placements of
    the n directions, in every order, among the N gaps (x fills the rest).
    E is the 2^n x 2^n subset lattice: x on the diagonal and c_i at
    (S, S + {i}) for each i not in S. A walk of N steps from the empty set
    to the full set adds the directions in one order and stays put at the
    other steps, so block (0, 2^n - 1) of exp(rho(E)) sums all n! orders at
    once (Van Loan, IEEE TAC 23(3), 1978; Higham and Relton, SIAM J. Matrix
    Anal. Appl. 35(3), 2014), in O(8^n d^3) time and O(4^n d^2) memory.
    """
    cs = list(cs)
    if not cs:
        raise ValueError("need at least one direction")
    if any(c.algebra != x.algebra for c in cs):
        raise AlgebraError("algebra mismatch in quasiexp")
    n, d = len(cs), x.algebra.dim
    subsets = np.arange(2 ** n)
    e = np.zeros((2 ** n, 2 ** n, d))
    e[subsets, subsets] = x.coeffs
    for i, c in enumerate(cs):
        without = subsets[(subsets & (1 << i)) == 0]
        e[without, without | (1 << i)] = c.coeffs
    return Element._trusted(x.algebra, _exp_rho(x.algebra, e)[:d, (2 ** n - 1) * d])


def quasiexp_at(c: Element, a: Element, t: float) -> Element:
    """e[c]^{at} = sum_n t^n/(n+1)! sum_{m<=n} a^m c a^{n-m}, i.e. quasiexp([c], a t)."""
    _require_finite_time(t)
    return quasiexp([c], el_scale(a, t))


# ---------------------------------------------------------------------------
# matrix exponentials, one per product


def mexp_rc(x: BiMatrix) -> BiMatrix:
    """Sum of rc-powers x^n/n!; solves y' = x rc y with y(0) = identity.

    rho turns rc into the real matrix product, so this is unrho(exp(rho(x))).
    """
    if x.rows != x.cols:
        raise ValueError("square matrix required")
    return BiMatrix(x.algebra, _kernels.unrho(x.algebra.table, _exp_rho(x.algebra, x.data)))


def mexp_cr(x: BiMatrix) -> BiMatrix:
    """Sum of cr-powers x^n/n!; transpose-dual of mexp_rc."""
    return transpose(mexp_rc(transpose(x)))

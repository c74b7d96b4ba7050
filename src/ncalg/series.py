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
products, at most 6, instead of n, plus one per squaring.

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
    """1/k! for k <= n as a (n // 4 + 1) x 4 array, row j holding k = 4j .. 4j + 3."""
    c = np.zeros(4 * (n // 4 + 1))
    c[:n + 1] = [1.0 / math.factorial(k) for k in range(n + 1)]
    return c.reshape(-1, 4)


# every degree _taylor_degree gives for a norm of at most 1/2
_PS_COEFFS = {n: _ps_coeffs(n) for n in range(1, _taylor_degree(0.5) + 1)}


def _taylor(a: np.ndarray, n: int) -> np.ndarray:
    """sum_{k<=n} a^k / k! by Paterson-Stockmeyer in blocks of four.

    With B_j = sum_{i<4} a^i / (4j + i)!, the sum is B_0 + a^4 (B_1 + a^4 (B_2
    + ...)). One product of the coefficient rows with the stacked I, a, a^2,
    a^3 builds every B_j at once, and Horner's rule in a^4 adds n // 4
    matrix products to the 3 that form a^2, a^3 and a^4. At n = 14 that is
    6 products and about 15 numpy calls, where the term-by-term sum takes
    14 products and 42 calls.
    """
    d = a.shape[0]
    a2 = a.dot(a)
    powers = np.concatenate((np.eye(d), a, a2, a2.dot(a))).reshape(4, d * d)
    blocks = _PS_COEFFS[n].dot(powers).reshape(-1, d, d)
    total = blocks[-1]
    if len(blocks) > 1:
        a4 = a2.dot(a2)
        for b in blocks[-2::-1]:
            total = total.dot(a4)
            total += b
    return total


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) of a real square matrix by scaling and squaring.

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
    """
    norm = _norm1(m)  # NaN or inf when m is not finite
    if not norm < 2.0 ** 52:
        if not np.isfinite(m).all():
            raise SeriesBudgetError("exponential of a non-finite argument")
        raise SeriesBudgetError("argument too large for an accurate exponential")
    s = math.frexp(norm)[1] + 1 if norm > 0.5 else 0
    total = _taylor(np.ldexp(m, -s), _taylor_degree(math.ldexp(norm, -s)))
    if s:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                total = total.dot(total)
        if not np.isfinite(total).all():
            raise SeriesBudgetError("exponential overflows")
    return total


def _exp_rho(alg, e: np.ndarray) -> np.ndarray:
    """exp(rho(E)) for an (m, m, d) matrix E of elements.

    A non-finite E is refused before rho multiplies inf by the table's zeros.
    """
    if not all(map(math.isfinite, e.ravel().tolist())):
        raise SeriesBudgetError("exponential of a non-finite argument")
    return _expm(_kernels.rho(alg.table, e))


def exp_el(x: Element) -> Element:
    """exp(x) = sum x^n / n!: column 0 of exp(L(x)), E = [x]."""
    return Element._trusted(x.algebra, _exp_rho(x.algebra, x.coeffs[None, None])[:, 0])


def exp_at(a: Element, t: float) -> Element:
    """exp(a t) for real t; (a t)^n = a^n t^n, so this is exp_el(a*t)."""
    return exp_el(el_scale(a, t))


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

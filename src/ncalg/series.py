"""Series-defined maps on algebra elements and matrices.

The element maps exp_el, sinh_el, cosh_el, sin_el and cos_el take the
complex slice. In the reals, the complex numbers and the quaternions, an
element x = a + v with real part a and imaginary part v has v^2 = -|v|^2,
so 1 and v/|v| span a copy of C that holds every power of x, and any real
power series f has f(x) = Re f(z) + (v/|v|) Im f(z) with z = a + i|v|. One
scalar cmath call gives f(z) (_slice). The private _exp_els and _pairs take
exp_el, and the (cosh, sinh) pair, of every row of a (k, d) array of
coefficients, for callers that need many at once: the elliptic curves on a
time grid and the exponent-law and Euler scenarios. Row i goes through the
arithmetic of the single call of that row, so it has its bits; _slice
itself takes any tuple of cmath maps, such as (cos, sin).

The matrix maps are the exponential of a real matrix, computed by one
routine, ``_expm``, by scaling and squaring (Higham, SIAM J. Matrix Anal.
Appl. 26(4), 2005): the argument a is halved until its 1-norm is at most
1/2, its Taylor series is summed to degree 15, and the sum is squared
back. At that norm the terms after degree 15 sum to less than 1.5e-18,
far within TAYLOR_RTOL, so one fixed degree serves every argument and
there is no term budget to set. The polynomial is evaluated by
Paterson-Stockmeyer (SIAM J. Comput. 2(1), 1973) in four blocks of four:
6 matrix products instead of 15, plus one per squaring. ``_expm`` also
takes a (k, p, p) stack, for a curve on a whole time grid: one pass of the
polynomial sums every member, each member keeps the squaring count of its
own norm, and every member gets the bits it gets alone.

mexp_rc exponentiates rho of its argument (rho as in _kernels, so
L(x) = rho([x])) and maps the result back with unrho; quasiexp of n >= 2
directions takes exp(rho(E)) of a 2^n x 2^n subset lattice E and reads
column 0 of a d-row block, since L(a) e_0 = a. quasiexp of one
direction, and so quasiexp_at, takes the complex slice instead
(_directional): with theta = |v|, u = v / theta and w = exp(a + i theta),
D exp(x)[c] = e^x c_par + (Im w / theta) c_perp, where c_par = c_0 +
(c_v . u) u commutes with x, c_perp = c_v - (c_v . u) u anticommutes with
v, and e^x c_par is w (c_0 + i c_v . u) read back on 1 and u. Arguments or
results that are not finite, and arguments too large for any digit of the
result to be accurate, raise SeriesBudgetError; for an element argument
that rule is _slice_values. The quasiexponent generalizes the exponent: it
is the order-n derivative of exp evaluated at fixed directions, and like
exp it satisfies dy/dx o 1 = y.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from . import _kernels
from .algebra import AlgebraError, Element, scale as el_scale
from .biring import BiMatrix, _require_square, transpose


TAYLOR_RTOL = 1e-14


class SeriesBudgetError(ArithmeticError):
    """Argument or value not finite, or too large to be accurate."""


def _norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max(initial=0.0))


# 1/k! for k = 0 .. 15 as a 4 x 4 array, row j holding k = 4j .. 4j + 3
_PS_COEFFS = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)
_PS_COEFFS.flags.writeable = False


def _taylor(a: np.ndarray) -> np.ndarray:
    """sum_{k<=15} a^k / k! by Paterson-Stockmeyer in blocks of four.

    With B_j = sum_{i<4} a^i / (4j + i)!, the sum is B_0 + a^4 (B_1 + a^4 (B_2
    + a^4 B_3)). One product of the coefficient rows with the stacked I, a,
    a^2, a^3 builds the four B_j at once, and Horner's rule in a^4 adds 3
    matrix products to the 3 that form a^2, a^3 and a^4: 6 products and
    about 15 numpy calls, where the term-by-term sum takes 15 products and
    45 calls.

    a is one (d, d) matrix, whose products are ndarray.dot, or a (k, d, d)
    stack, one pass of matmul for all members, each of which goes through
    the arithmetic of its single call.
    """
    *stack, d, _ = a.shape
    dot = np.matmul if stack else np.ndarray.dot
    eye = _kernels.identity(d)
    a2 = dot(a, a)
    powers = np.concatenate((np.broadcast_to(eye, a.shape) if stack else eye, a, a2, dot(a2, a)), axis=-2)
    blocks = dot(_PS_COEFFS, powers.reshape(*stack, 4, d * d)).reshape(*stack, 4, d, d)
    a4 = dot(a2, a2)
    total = blocks[..., 3, :, :]
    for j in (2, 1, 0):
        total = dot(total, a4)
        total += blocks[..., j, :, :]
    return total


def _scaling(norm: float, m: np.ndarray) -> int:
    """The squaring count s that takes a matrix m of 1-norm norm to at most 1/2; raises past 2^52."""
    if not norm < 2.0 ** 52:  # NaN or inf when m is not finite
        if not np.isfinite(m).all():
            raise SeriesBudgetError("exponential of a non-finite argument")
        raise SeriesBudgetError("argument too large for an accurate exponential")
    return math.frexp(norm)[1] + 1 if norm > 0.5 else 0


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) of a real square matrix, or of each member of a (k, p, p) stack, by scaling and squaring.

    The scaled argument a = m / 2^s has ||a||_1 <= 1/2, so term k, a^k / k!,
    is at most 2^-k / k!, and the terms after degree 15 sum to less than
    twice 2^-16 / 16!, below 1.5e-18: far within TAYLOR_RTOL, for every
    argument, so every argument takes degree 15. It fills exactly four
    blocks of _taylor's Paterson-Stockmeyer sum: 6 matrix products, where
    summing term by term takes 15. The s squarings then take s more, and
    multiply the sum's relative rounding error by up to 2^s, so past
    ||m||_1 = 2^52 no digit of the result is left and it raises instead.

    Each member of a stack takes s from its own 1-norm and gets the bits it
    gets alone: one _taylor pass sums every member, and member i is squared
    only while r < s_i, selected with np.where; the squarings it skips are
    never read and run with overflow warnings off. A member that raises
    alone raises the same error in the stack, the first such member's.
    """
    if m.ndim == 2:
        s = _scaling(_norm1(m), m)
        total = _taylor(np.ldexp(m, -s))
    else:
        norms = np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0).tolist()
        s = np.array([_scaling(norm, member) for norm, member in zip(norms, m)], dtype=int)
        total = _taylor(np.ldexp(m, -s[:, None, None]))
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
    """exp(rho(E)) for an (m, m, d) matrix E of elements.

    A non-finite E is refused before rho multiplies inf by the table's zeros.
    """
    if not all(map(math.isfinite, e.ravel().tolist())):
        raise SeriesBudgetError("exponential of a non-finite argument")
    return _expm(_kernels.rho(alg.table, e))


def _slice_values(fs, row: list[float]) -> tuple[list[float], float, list[complex]]:
    """The imaginary part v and its norm |v| of x = a + v, given as its coefficient list, and f(a + i|v|) for each cmath function f of fs.

    x is refused first when it is not finite, or when its coefficients'
    absolute sum, the 1-norm of L(x) and of [[0, x], [+-x, 0]], is 2^52 or
    more, where no digit of the phase is left; then a value that overflows
    raises. math.hypot takes |v| with no over- or underflow.
    """
    if not sum(map(abs, row)) < 2.0 ** 52:  # NaN or inf when the row is not finite
        if not all(map(math.isfinite, row)):
            raise SeriesBudgetError("exponential of a non-finite argument")
        raise SeriesBudgetError("argument too large for an accurate exponential")
    v = row[1:]
    norm = math.hypot(*v)
    z = complex(row[0], norm)
    ws = []
    for f in fs:
        try:
            w = f(z)
            if not cmath.isfinite(w):
                raise OverflowError
        except OverflowError:
            raise SeriesBudgetError("exponential overflows") from None
        ws.append(w)
    return v, norm, ws


def _slice(fs, c: np.ndarray) -> list[np.ndarray]:
    """f(x) of each row x of a (k, d) coefficient array c for each cmath function f of fs, one (k, d) array per f.

    With x = a + v, z = a + i|v| and w = f(z), f(x) has real part Re w and
    imaginary part (Im w / |v|) v, with 0 for the quotient when v = 0. A row
    is refused, and a value that overflows raises, as in _slice_values. The
    rows go one at a time in plain Python floats, so each has the bits it
    has alone, and the first row that fails raises its error.
    """
    k, d = c.shape
    outs = [[] for _ in fs]
    for row in c.tolist():
        v, norm, ws = _slice_values(fs, row)
        for w, out in zip(ws, outs):
            q = w.imag / norm if norm else 0.0
            out.append(w.real)
            out += [q * x for x in v]
    return [np.array(out).reshape(k, d) for out in outs]


def _el(f, x: Element) -> Element:
    return Element._trusted(x.algebra, _slice((f,), x.coeffs[None])[0][0])


def exp_el(x: Element) -> Element:
    """exp(x) = sum x^n / n!, through the complex slice (_slice)."""
    return _el(cmath.exp, x)


def _require_finite_time(t: float) -> None:
    """Refuse a non-finite time before a product with it turns 0 * inf into NaN."""
    if not math.isfinite(t):
        raise SeriesBudgetError(f"exponential at the non-finite time {t}")


def _argument_at(a: Element, t: float) -> Element:
    """a t for real t, refusing a non-finite t or a before the product turns 0 * inf into NaN."""
    _require_finite_time(t)
    if not all(map(math.isfinite, a.coeffs.tolist())):
        raise SeriesBudgetError("exponential of a non-finite argument")
    return el_scale(a, t)


def exp_at(a: Element, t: float) -> Element:
    """exp(a t) for real t; (a t)^n = a^n t^n, so this is exp_el(a*t)."""
    return exp_el(_argument_at(a, t))


def _exp_els(c: np.ndarray) -> np.ndarray:
    """The coefficients of exp_el of each row of a (k, d) array c of element coefficients, as one (k, d) array.

    Row i has the bits of exp_el of that row alone, and the first row whose
    exp_el raises raises its error. An empty stack gives an empty (0, d)
    array.
    """
    return _slice((cmath.exp,), c)[0]


def sinh_el(x: Element) -> Element:
    return _el(cmath.sinh, x)


def cosh_el(x: Element) -> Element:
    return _el(cmath.cosh, x)


def sin_el(x: Element) -> Element:
    return _el(cmath.sin, x)


def cos_el(x: Element) -> Element:
    return _el(cmath.cos, x)


def _pairs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cosh, sinh) of each row of a (k, d) array c of element coefficients.

    Row i has the bits of cosh_el and sinh_el of that row alone, and the
    first row where either raises raises its error.
    """
    return tuple(_slice((cmath.cosh, cmath.sinh), c))


# ---------------------------------------------------------------------------
# quasiexponent


def _directional(c: list[float], x: list[float]) -> list[float]:
    """quasiexp([c], x) = D exp(x)[c] = int_0^1 e^{sx} c e^{(1-s)x} ds on the complex slice, as coefficient lists.

    With x = a + v, theta = |v|, u = v / theta and w = exp(a + i theta), c
    splits into c_par = c_0 + (c_v . u) u, which commutes with x, and
    c_perp = c_v - (c_v . u) u, which anticommutes with v, so e^{sx} c_perp
    = c_perp e^{s(a - v)} and, as int_0^1 e^{(1-2s)v} ds = sin(theta) /
    theta, the integral is e^x c_par + (Im w / theta) c_perp (Higham,
    Functions of Matrices, SIAM 2008, ch. 10). e^x c_par is the complex
    product w (c_0 + i c_v . u) read back on 1 and u. At theta = 0 it is
    e^a c; over R and C, u = v / |v| is exactly +-1, so c_perp is exactly 0.
    A non-finite c is refused, then x and an overflowing w as in
    _slice_values, and a result that overflows raises. Being linear in c, a
    huge finite c is answered.
    """
    if not all(map(math.isfinite, c)):
        raise SeriesBudgetError("exponential of a non-finite argument")
    v, theta, (w,) = _slice_values((cmath.exp,), x)
    if theta:
        u = [vi / theta for vi in v]
        p = sum(ci * ui for ci, ui in zip(c[1:], u))
        par = w * complex(c[0], p)
        q = w.imag / theta
        out = [par.real, *(par.imag * ui + q * (ci - p * ui) for ci, ui in zip(c[1:], u))]
    else:
        out = [w.real * ci for ci in c]
    if not all(map(math.isfinite, out)):
        raise SeriesBudgetError("exponential overflows")
    return out


def quasiexp(cs: Sequence[Element], x: Element) -> Element:
    """e[c_1..c_n]^x: the order-n derivative of exp at directions c_1..c_n.

    Degree N of x^N contributes (1/N!) times the sum over all placements of
    the n directions, in every order, among the N gaps (x fills the rest).
    One direction takes the complex slice in closed form (_directional).
    Two or more take the 2^n x 2^n subset lattice E: x on the diagonal and
    c_i at (S, S + {i}) for each i not in S. A walk of N steps from the
    empty set to the full set adds the directions in one order and stays
    put at the other steps, so block (0, 2^n - 1) of exp(rho(E)) sums all
    n! orders at once (Van Loan, IEEE TAC 23(3), 1978; Higham and Relton,
    SIAM J. Matrix Anal. Appl. 35(3), 2014), in O(8^n d^3) time and
    O(4^n d^2) memory.
    """
    cs = list(cs)
    if not cs:
        raise ValueError("need at least one direction")
    if any(c.algebra != x.algebra for c in cs):
        raise AlgebraError("algebra mismatch in quasiexp")
    n, d = len(cs), x.algebra.dim
    if n == 1:
        return Element._trusted(x.algebra, np.array(_directional(cs[0].coeffs.tolist(), x.coeffs.tolist())))
    subsets = np.arange(2 ** n)
    e = np.zeros((2 ** n, 2 ** n, d))
    e[subsets, subsets] = x.coeffs
    for i, c in enumerate(cs):
        without = subsets[(subsets & (1 << i)) == 0]
        e[without, without | (1 << i)] = c.coeffs
    return Element._trusted(x.algebra, _exp_rho(x.algebra, e)[:d, (2 ** n - 1) * d])


def quasiexp_at(c: Element, a: Element, t: float) -> Element:
    """e[c]^{at} = sum_n t^n/(n+1)! sum_{m<=n} a^m c a^{n-m}, i.e. quasiexp([c], a t), on the complex slice."""
    return quasiexp([c], _argument_at(a, t))


# ---------------------------------------------------------------------------
# matrix exponentials, one per product


def mexp_rc(x: BiMatrix) -> BiMatrix:
    """Sum of rc-powers x^n/n!; solves y' = x rc y with y(0) = identity.

    rho turns rc into the real matrix product, so this is unrho(exp(rho(x))).
    """
    _require_square(x)
    return BiMatrix(x.algebra, _kernels.unrho(x.algebra.table, _exp_rho(x.algebra, x.data)))


def mexp_cr(x: BiMatrix) -> BiMatrix:
    """Sum of cr-powers x^n/n!; transpose-dual of mexp_rc."""
    return transpose(mexp_rc(transpose(x)))

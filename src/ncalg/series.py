"""Series-defined maps on algebra elements and matrices.

The element maps exp_el, sinh_el, cosh_el, sin_el and cos_el take the
complex slice. In the reals, the complex numbers and the quaternions, an
element x = a + v with real part a and imaginary part v has v^2 = -|v|^2,
so 1 and v/|v| span a copy of C that holds every power of x, and any real
power series f has f(x) = Re f(z) + (v/|v|) Im f(z) with z = a + i|v|. One
scalar cmath call gives f(z) (_slice_values), and a single element reads
it straight into its coefficient list (_el). The private _exp_els and
_pairs take exp_el, and the (cosh, sinh) pair, of every row of a (k, d)
array of coefficients, for callers that need many at once: the elliptic
curves on a time grid and the exponent-law and Euler scenarios. They go
through _slice, which takes coefficient lists and any tuple of cmath maps,
such as (cos, sin), and gives one flat coefficient list per map. Row i goes
through the arithmetic of the single call of that row, so it has its bits.

The matrix maps are the exponential of a real matrix, computed by one
routine, ``_expm``, by scaling and squaring (Higham, SIAM J. Matrix Anal.
Appl. 26(4), 2005): the argument a is halved until its 1-norm is at most
1/2, its Taylor series is summed to degree 15, and the sum is squared
back. At that norm the terms after degree 15 sum to less than 1.5e-18 in
the 1-norm, under a twentieth of a unit of roundoff of the sum, whose
1-norm is at least 2 - e^(1/2) > 1/3, so one fixed degree serves every
argument and there is no term budget to set. The polynomial is evaluated
by Paterson-Stockmeyer (SIAM J. Comput. 2(1), 1973) in four blocks of
four: 6 matrix products instead of 15, plus one per squaring. The curves
of the closed form, e^{tM} x(0) on a time grid, take ``_expm_grid``: e^{tM}
of k systems at T times, with the same degree and squaring counts, whose
powers of M are taken once per system and shared by all its times, as
every power of tM is a power of t times the same power of M. Its
one-matrix mirror ``_expm_at`` does the same arithmetic at one time, so
each member of a grid has the bits of that call.

mexp_rc exponentiates rho of its argument (rho as in _kernels, so
L(x) = rho([x])) and reads the result back off column 0 of each block,
since L(a) e_0 = a (_kernels.column); mexp_cr does the same on the
transposed array and transposes the result once. quasiexp of one or
two directions, and so quasiexp_at, takes the complex slice in closed
form. With theta = |v|, u = v / theta and E = exp(a + i theta), each
direction c splits into p = c_0 + i (c_v . u), a slice number that
commutes with x, and q = c_v - (c_v . u) u, which anticommutes with v.
One direction gives D exp(x)[c] = p E + (Im E / theta) q (_directional),
and two give slice(p_1 p_2 E - (q_1 . q_2) B) + Re(p_2 B) q_1 + Re(p_1 B)
q_2 with B = Im E / theta + i |E| j1(theta) (_second), where a slice
number is read back on 1 and u. Both read x in one frame, _frame: x =
a + theta u, with E and u, and split each direction by _split. Three or
more directions take the rc exponential of a 2^n x 2^n subset lattice E,
_mexp, and read its corner entry (_lattice). Arguments or results that
are not finite, and arguments too large for any digit of the result to
be accurate, raise SeriesBudgetError; for an element argument that rule
is _slice_values. The closed forms of one and two directions are linear
in exp(a + i theta), so near the top of the float range, where its parts
are finite but its modulus or Im / theta may not be, it is scaled down by
a power of two first and the result scaled back (_frame, _finite_result).
The quasiexponent generalizes the exponent: it is the order-n derivative
of exp evaluated at fixed directions, and like exp it satisfies
dy/dx o 1 = y.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from . import _kernels
from .algebra import AlgebraError, Element
from .biring import BiMatrix, _require_square


class SeriesBudgetError(ArithmeticError):
    """Argument or value not finite, or too large to be accurate."""


def _norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max(initial=0.0))


# 1/k! for k = 0 .. 15 as a 4 x 4 array, row j holding k = 4j .. 4j + 3
_PS_COEFFS = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)
_PS_COEFFS.flags.writeable = False


def _taylor(a: np.ndarray) -> np.ndarray:
    """sum_{k<=15} a^k / k! of one (d, d) matrix a by Paterson-Stockmeyer in blocks of four.

    With B_j = sum_{i<4} a^i / (4j + i)!, the sum is B_0 + a^4 (B_1 + a^4 (B_2
    + a^4 B_3)). One product of the coefficient rows with the stacked I, a,
    a^2, a^3 builds the four B_j at once, and Horner's rule in a^4 adds 3
    matrix products to the 3 that form a^2, a^3 and a^4: 6 products and
    about 15 numpy calls, where the term-by-term sum takes 15 products and
    45 calls.
    """
    d = a.shape[0]
    a2 = a.dot(a)
    powers = np.concatenate((_kernels.identity(d), a, a2, a2.dot(a)))
    blocks = _PS_COEFFS.dot(powers.reshape(4, d * d)).reshape(4, d, d)
    a4 = a2.dot(a2)
    total = blocks[3]
    for j in (2, 1, 0):
        total = total.dot(a4)
        total += blocks[j]
    return total


def _scaling(norm: float, m: np.ndarray) -> int:
    """The squaring count s that takes a matrix m of 1-norm norm to at most 1/2; raises past 2^52."""
    if not norm < 2.0 ** 52:  # NaN or inf when m is not finite
        if not np.isfinite(m).all():
            raise SeriesBudgetError("exponential of a non-finite argument")
        raise SeriesBudgetError("argument too large for an accurate exponential")
    return math.frexp(norm)[1] + 1 if norm > 0.5 else 0


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) of a real square matrix, by scaling and squaring.

    The scaled argument a = m / 2^s has ||a||_1 <= 1/2, so term k, a^k / k!,
    is at most 2^-k / k!, and the terms after degree 15 sum to less than
    twice 2^-16 / 16!, below 1.5e-18, for every argument, so every
    argument takes degree 15. It fills exactly four blocks of _taylor's
    Paterson-Stockmeyer sum: 6 matrix products, where summing term by
    term takes 15. The s squarings then take s more, and
    multiply the sum's relative rounding error by up to 2^s, so past
    ||m||_1 = 2^52 no digit of the result is left and it raises instead.
    The norm runs inside the squarings' block with overflow warnings off,
    so a finite m whose column sums pass the float range is refused as
    too large, with no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = _scaling(_norm1(m), m)
        total = _taylor(np.ldexp(m, -s))
        for _ in range(s):
            total = total.dot(total)
    if s and not np.isfinite(total).all():
        raise SeriesBudgetError("exponential overflows")
    return total


def _shifted(m: np.ndarray) -> tuple[float, int]:
    """(||m / 2^64||_1, 64) for an m whose 1-norm passes the float range, or (NaN, 0) where m is not finite."""
    if np.isfinite(m).all():
        return _norm1(np.ldexp(m, -64)), 64
    return math.nan, 0


# the orders 1 .. 15 of the Taylor terms after the first, as floats
_ORDERS = np.arange(1.0, 16.0)
_ORDERS.flags.writeable = False


def _tau_rows(tau: np.ndarray) -> np.ndarray:
    """tau^k / k! for k = 0 .. 15 and each tau of an array, as a 4 x 4 array whose row j holds k = 4j .. 4j + 3.

    Term k is the running product 1 (tau / 1) (tau / 2) ... (tau / k),
    left to right, as np.multiply.accumulate takes it, so _expm_at, which
    takes the same products in Python floats, has its bits.
    """
    terms = np.empty((*tau.shape, 16))
    terms[..., 0] = 1.0
    np.divide(tau[..., None], _ORDERS, out=terms[..., 1:])
    return np.multiply.accumulate(terms, axis=-1, out=terms).reshape(*tau.shape, 4, 4)


def _expm_grid(m: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(t M_i) for each member M_i of a (k, p, p) stack and each finite t of ts, as a (k, len(ts), p, p) array.

    Every power of t M is a power of t times the same power of M, so the
    Taylor setup is taken once per system, not once per (system, time)
    member:

    - M_i is scaled to M' = M_i / 2^sigma_i with ||M'||_1 in [1/4, 1/2),
      so no power of M' over- or underflows at any scale of M_i, and
      M'^2, M'^3 and M'^4 are taken once per system.
    - Member (i, t) takes _expm's squaring count s from |t| ||M_i||_1,
      with its refusals, and its argument is tau M' with tau = t
      2^(sigma_i - s), exact, so ||tau M'||_1 <= 1/2, |tau| <= 2 and
      degree 15 serves it as in _expm. _taylor's sum is then sum_j
      C_j M'^(4j), with C_j = sum_{i<4} tau^(4j+i) / (4j+i)! M'^i: each
      C_j is the row product of _tau_rows' row j with the stacked I, M',
      M'^2, M'^3, and Horner's rule in M'^4 takes 3 products per member.
      The coefficients are running products of tau / k, not powers with
      **, so _expm_at forms them bit for bit.
    - Member (i, t) is squared s times; round r squares only the members
      with s > r.

    Every matrix product is one member's own, so each member has the bits
    of _expm_at(M_i, t). A zero M_i gives I at every t. Where ||M_i||_1
    passes the float range, |t| ||M_i||_1 is read as |t| 2^64 ||M_i /
    2^64||_1 (_shifted). A grid raises what its members raise alone, in
    this order: first the argument refusals, as the first refused member's
    error in (system, time) order, then "exponential overflows" if any
    member overflows. The whole pass runs with overflow warnings off.
    """
    k, p, _ = m.shape
    with np.errstate(over="ignore", invalid="ignore"):
        norms, shifts = np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0), np.zeros(k, dtype=int)
        for i in np.flatnonzero(norms == np.inf):
            norms[i], shifts[i] = _shifted(m[i])
        x = np.abs(ts) * np.ldexp(1.0, shifts)[:, None] * norms[:, None]  # |t| ||M_i||_1, NaN where M_i is not finite
        for i, j in np.argwhere(~(x < 2.0 ** 52))[:1]:
            _scaling(float(x[i, j]), m[i])  # raises the first refused member's error
        s = np.where(x > 0.5, np.frexp(x)[1] + 1, 0)
        sigma = np.frexp(norms)[1] + 1 + shifts
        tau = np.where((norms > 0.0)[:, None], np.ldexp(ts, sigma[:, None] - s), 0.0)
        a = np.ldexp(m, -sigma[:, None, None])
        a2 = a @ a
        powers = np.concatenate((np.broadcast_to(_kernels.identity(p), a.shape), a, a2, a2 @ a), axis=-2)
        powers = powers.reshape(k, 1, 4, p * p)
        a4 = (a2 @ a2)[:, None]
        rows = _tau_rows(tau)[..., None, :]  # rows[i, t, j]: the (1, 4) coefficients of block j of member (i, t)
        total = (rows[..., 3, :, :] @ powers).reshape(k, -1, p, p)
        for j in (2, 1, 0):
            total = total @ a4
            total += (rows[..., j, :, :] @ powers).reshape(total.shape)
        flat, s = total.reshape(-1, p, p), s.ravel()
        for r in range(s.max(initial=0)):
            need = np.flatnonzero(s > r)
            square = flat[need]
            flat[need] = square @ square
    if s.any() and not np.isfinite(total).all():
        raise SeriesBudgetError("exponential overflows")
    return total


def _expm_at(m: np.ndarray, t: float) -> np.ndarray:
    """exp(t m) of one real square matrix m at one finite time t, by _expm_grid's arithmetic.

    This is _expm_grid of one system at one time, with one-matrix products,
    the time's arithmetic in Python floats (IEEE products, as numpy's) and
    the four block rows in one batched row product, so it has the bits of
    its member of a grid and refuses as that member does.
    """
    p = m.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norm, shift = _norm1(m), 0
        if norm == math.inf:
            norm, shift = _shifted(m)
        s = _scaling(abs(t) * 2.0 ** shift * norm, m)
        sigma = math.frexp(norm)[1] + 1 + shift
        tau = math.ldexp(t, sigma - s) if norm else 0.0
        a = np.ldexp(m, -sigma)
        a2 = a.dot(a)
        powers = np.concatenate((_kernels.identity(p), a, a2, a2.dot(a))).reshape(4, p * p)
        term, terms = 1.0, [1.0]
        for k in range(1, 16):
            term *= tau / k
            terms.append(term)
        blocks = (np.array(terms).reshape(4, 1, 4) @ powers).reshape(4, p, p)
        a4 = a2.dot(a2)
        total = blocks[3]
        for j in (2, 1, 0):
            total = total.dot(a4)
            total += blocks[j]
        for _ in range(s):
            total = total.dot(total)
    if s and not np.isfinite(total).all():
        raise SeriesBudgetError("exponential overflows")
    return total


def _require_finite(*rows: list[float]) -> None:
    for row in rows:
        if not all(map(math.isfinite, row)):
            raise SeriesBudgetError("exponential of a non-finite argument")


def _slice_values(fs, row: list[float]) -> tuple[list[float], float, list[complex]]:
    """The imaginary part v and its norm |v| of x = a + v, given as its coefficient list, and f(a + i|v|) for each cmath function f of fs.

    x is refused first when it is not finite, or when its coefficients'
    absolute sum, the 1-norm of L(x) and of [[0, x], [+-x, 0]], is 2^52 or
    more, where no digit of the phase is left; then a value that overflows
    raises. math.hypot takes |v| with no over- or underflow.
    """
    if not sum(map(abs, row)) < 2.0 ** 52:  # NaN or inf when the row is not finite
        _require_finite(row)
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


def _slice(fs, rows) -> list[list[float]]:
    """f(x) of each coefficient list x of rows for each cmath function f of fs, as one flat list of coefficients per f.

    With x = a + v, z = a + i|v| and w = f(z), f(x) has real part Re w and
    imaginary part (Im w / |v|) v, with 0 for the quotient when v = 0. A row
    is refused, and a value that overflows raises, as in _slice_values. The
    rows go one at a time in plain Python floats, so each has the bits it
    has alone, and the first row that fails raises its error. The caller
    makes the one array it needs from each list. _el writes the same two
    lines out again for one row and one map: every shared helper measured
    costs the stacks a call per row and map (CHANGES.md), and the byte
    tests of tests/test_series.py hold the two to the same bits.
    """
    outs = [[] for _ in fs]
    for row in rows:
        v, norm, ws = _slice_values(fs, row)
        for w, out in zip(ws, outs):
            q = w.imag / norm if norm else 0.0
            out.append(w.real)
            out += [q * x for x in v]
    return outs


def _el(f, alg, row: list[float]) -> Element:
    """f of the element of alg with coefficient list row, its _slice_values read straight into one coefficient list.

    This is _slice's formula for one row and one map, Re w then
    (Im w / |v|) v, with no output list per map and no loop over rows, so
    one element costs its own arithmetic and has the bits of its row in a
    stack; it refuses and raises as _slice_values does.
    """
    v, norm, (w,) = _slice_values((f,), row)
    q = w.imag / norm if norm else 0.0
    return Element._trusted(alg, np.array([w.real, *[q * x for x in v]]))


def exp_el(x: Element) -> Element:
    """exp(x) = sum x^n / n!, through the complex slice (_el)."""
    return _el(cmath.exp, x.algebra, x.coeffs.tolist())


def _require_finite_time(*ts: float) -> None:
    """Refuse the first non-finite time of ts before a product with it turns 0 * inf into NaN."""
    for t in ts:
        if not math.isfinite(t):
            raise SeriesBudgetError(f"exponential at the non-finite time {t}")


def _argument_at(a: list[float], t: float) -> list[float]:
    """The coefficient list of a t for real t, given a's coefficient list, in plain floats.

    A non-finite t or a is refused before the product turns 0 * inf into
    NaN, and a product that overflows is refused as too large. Each
    coefficient has the IEEE bits of numpy's product.
    """
    _require_finite_time(t)
    _require_finite(a)
    t = float(t)
    row = [x * t for x in a]
    if not all(map(math.isfinite, row)):
        raise SeriesBudgetError("argument too large for an accurate exponential")
    return row


def exp_at(a: Element, t: float) -> Element:
    """exp(a t) for real t; (a t)^n = a^n t^n, so this is exp_el(a*t)."""
    return _el(cmath.exp, a.algebra, _argument_at(a.coeffs.tolist(), t))


def _exp_els(c: np.ndarray) -> np.ndarray:
    """The coefficients of exp_el of each row of a (k, d) array c of element coefficients, as one (k, d) array.

    Row i has the bits of exp_el of that row alone, and the first row whose
    exp_el raises raises its error. An empty stack gives an empty (0, d)
    array.
    """
    return np.array(_slice((cmath.exp,), c.tolist())[0]).reshape(c.shape)


def sinh_el(x: Element) -> Element:
    return _el(cmath.sinh, x.algebra, x.coeffs.tolist())


def cosh_el(x: Element) -> Element:
    return _el(cmath.cosh, x.algebra, x.coeffs.tolist())


def sin_el(x: Element) -> Element:
    return _el(cmath.sin, x.algebra, x.coeffs.tolist())


def cos_el(x: Element) -> Element:
    return _el(cmath.cos, x.algebra, x.coeffs.tolist())


def _pairs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cosh, sinh) of each row of a (k, d) array c of element coefficients.

    Row i has the bits of cosh_el and sinh_el of that row alone, and the
    first row where either raises raises its error.
    """
    return tuple(np.array(out).reshape(c.shape) for out in _slice((cmath.cosh, cmath.sinh), c.tolist()))


# ---------------------------------------------------------------------------
# quasiexponent


def _finite_result(out: list[float], shift: int = 0) -> list[float]:
    """out times 2^shift, exactly; a result past the float range raises."""
    try:
        out = [math.ldexp(r, shift) for r in out] if shift else out
        if not all(map(math.isfinite, out)):
            raise OverflowError
    except OverflowError:
        raise SeriesBudgetError("exponential overflows") from None
    return out


def _frame(x: list[float]) -> tuple[list[float], float, complex, int]:
    """(u, theta, E / 2^k, k) for x = a + theta u, given as its coefficient list, and E = exp(a + i theta).

    u is v / theta, or 0 at theta = 0. x and an overflowing E are refused
    as in _slice_values. The closed forms of _directional and _second are
    linear in E, but |E| and Im E / theta, which is at most about |E|, can
    overflow where both parts of E are finite, so E is scaled by 2^-k, k
    the least k >= 0 that leaves both its parts below 2^1021, where neither
    does; a scaling by a power of two is exact, so an E that needs none
    keeps every bit, and _finite_result scales the answer back.
    """
    v, theta, (e,) = _slice_values((cmath.exp,), x)
    k = max(0, math.frexp(max(abs(e.real), abs(e.imag)))[1] - 1021)
    e = complex(math.ldexp(e.real, -k), math.ldexp(e.imag, -k)) if k else e
    return [vi / theta for vi in v] if theta else [0.0] * len(v), theta, e, k


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
    w and u come from _frame. A non-finite c is refused, then x and an
    overflowing w as in _slice_values, and a result that overflows raises.
    Being linear in c, a huge finite c is answered. c is split by
    _split, as in _second, and theta = 0 keeps its own branch, e^a c, each
    zero of which keeps its sign.
    """
    _require_finite(c)
    u, theta, w, shift = _frame(x)
    if theta:
        p, q = _split(c, u)
        par, r = w * p, w.imag / theta
        out = [par.real, *(par.imag * ui + r * qi for ui, qi in zip(u, q))]
    else:
        out = [w.real * ci for ci in c]
    return _finite_result(out, shift)


# j1(theta) = (sin theta - theta cos theta) / theta^2 = theta sum_{k>=1} (-1)^(k+1) 2k theta^(2k-2) / (2k+1)!:
# below theta = 1 the direct form loses digits to cancellation, and these
# eight terms, highest first for Horner's rule in theta^2, leave out less
# than 5e-16 of it
_J1_TERMS = tuple((-1) ** (k + 1) * 2 * k / math.factorial(2 * k + 1) for k in range(8, 0, -1))


def _j1(theta: float) -> float:
    if theta >= 1.0:
        return (math.sin(theta) - theta * math.cos(theta)) / (theta * theta)
    t2, total = theta * theta, 0.0
    for term in _J1_TERMS:
        total = total * t2 + term
    return total * theta


def _second(c1: list[float], c2: list[float], x: list[float]) -> list[float]:
    """quasiexp([c1, c2], x) = D^2 exp(x)[c1, c2] on the complex slice, as coefficient lists.

    With x = a + theta u, E = exp(a + i theta), p_k = c_k0 + i (c_kv . u)
    and q_k = c_kv - (c_kv . u) u as in _directional, the p_k commute with
    x and the q_k anticommute with u, so the integral over s1 + s2 + s3 = 1
    of e^{s1 x} c1 e^{s2 x} c2 e^{s3 x}, plus the same with c1 and c2
    swapped, is

        slice(p1 p2 E - (q1 . q2) B) + Re(p2 B) q1 + Re(p1 B) q2,

    B = Im E / theta + i |E| j1(theta), a slice number read back on 1 and
    u. At theta = 0, u is taken as 0, so p_k = c_k0, q_k = c_kv and B = e^a;
    over R and C, q_k is exactly 0 where theta > 0, which leaves c1 c2 e^x.
    u, theta and E come from _frame, as in _directional, and so do the
    refusals: a non-finite c1 or c2, then x and an overflowing E as in
    _slice_values, then a result that overflows. Being
    linear in each direction, huge finite directions are answered when the
    result is finite.
    """
    _require_finite(c1, c2)
    u, theta, e, shift = _frame(x)
    b = complex(e.imag / theta, abs(e) * _j1(theta)) if theta else complex(e.real)
    (p1, q1), (p2, q2) = (_split(c, u) for c in (c1, c2))
    s = p1 * p2 * e - sum(g * h for g, h in zip(q1, q2)) * b
    r1, r2 = (p2 * b).real, (p1 * b).real
    return _finite_result([s.real, *(s.imag * ui + r1 * a1 + r2 * a2 for ui, a1, a2 in zip(u, q1, q2))], shift)


def _split(c: list[float], u: list[float]) -> tuple[complex, list[float]]:
    """(p, q) = (c_0 + i (c_v . u), c_v - (c_v . u) u) for a direction c and a unit, or zero, imaginary u."""
    p = sum(ci * ui for ci, ui in zip(c[1:], u))
    return complex(c[0], p), [ci - p * ui for ci, ui in zip(c[1:], u)]


def _lattice(alg, cs: list[list[float]], x: list[float]) -> list[float]:
    """quasiexp(cs, x) on the 2^n x 2^n subset lattice, for n >= 1 directions given as coefficient lists.

    E has x on the diagonal and c_i at (S, S + {i}) for each i not in S. A
    walk of N steps from the empty set to the full set adds the directions
    in one order and stays put at the other steps, so entry (0, 2^n - 1) of
    E's rc exponential, _mexp, sums all n! orders at once (Van Loan, IEEE
    TAC 23(3), 1978; Higham and Relton, SIAM J. Matrix Anal. Appl. 35(3),
    2014), in O(8^n d^3) time and O(4^n d^2) memory. The quasiexponent is linear in each
    direction, so each is first scaled by a power of two to a largest
    coefficient in [1/2, 1), and the result is scaled back exactly; a
    result past the float range raises. A zero direction gives zero. A
    non-finite direction is refused, then x: as a non-finite lattice or by
    the lattice's 1-norm in _mexp, or as in _slice_values when a direction
    is zero.
    """
    _require_finite(*cs)
    n, d = len(cs), alg.dim
    tops = [max(map(abs, c)) for c in cs]
    if not all(tops):
        _slice_values((), x)  # x is refused as at orders 1 and 2
        return [0.0] * d
    shifts = [math.frexp(top)[1] for top in tops]
    scaled = np.array([[math.ldexp(ci, -shift) for ci in c] for c, shift in zip(cs, shifts)])
    subsets = np.arange(2 ** n)
    e = np.zeros((2 ** n, 2 ** n, d))
    e[subsets, subsets] = np.array(x)
    for i, row in enumerate(scaled):
        without = subsets[(subsets & (1 << i)) == 0]
        e[without, without | (1 << i)] = row
    return _finite_result(_mexp(alg, e)[0, -1].tolist(), sum(shifts))


def _quasiexp(cs: list[Element], alg, x: list[float]) -> Element:
    """quasiexp(cs, x) for the element of alg with coefficient list x."""
    if not cs:
        raise ValueError("need at least one direction")
    if any(c.algebra != alg for c in cs):
        raise AlgebraError("algebra mismatch in quasiexp")
    rows = [c.coeffs.tolist() for c in cs]
    if len(rows) == 1:
        out = _directional(rows[0], x)
    elif len(rows) == 2:
        out = _second(*rows, x)
    else:
        out = _lattice(alg, rows, x)
    return Element._trusted(alg, np.array(out))


def quasiexp(cs: Sequence[Element], x: Element) -> Element:
    """e[c_1..c_n]^x: the order-n derivative of exp at directions c_1..c_n.

    Degree N of x^N contributes (1/N!) times the sum over all placements of
    the n directions, in every order, among the N gaps (x fills the rest).
    One and two directions take the complex slice in closed form
    (_directional, _second); three or more take the subset lattice
    (_lattice), in O(8^n d^3) time.
    """
    return _quasiexp(list(cs), x.algebra, x.coeffs.tolist())


def quasiexp_at(c: Element, a: Element, t: float) -> Element:
    """e[c]^{at} = sum_n t^n/(n+1)! sum_{m<=n} a^m c a^{n-m}, i.e. quasiexp([c], a t), on the complex slice."""
    return _quasiexp([c], a.algebra, _argument_at(a.coeffs.tolist(), t))


# ---------------------------------------------------------------------------
# matrix exponentials, one per product


def _mexp(alg, data: np.ndarray) -> np.ndarray:
    """exp under rc of an (m, m, d) matrix of elements of alg: column 0 of each block of exp(rho(data)).

    A non-finite matrix is refused before rho multiplies inf by the table's zeros.
    """
    _require_finite(data.ravel().tolist())
    return _kernels.column(_expm(_kernels.rho(alg.table, data)), alg.dim)


def mexp_rc(x: BiMatrix) -> BiMatrix:
    """Sum of rc-powers x^n/n!; solves y' = x rc y with y(0) = identity.

    rho turns rc into the real matrix product, so this is exp(rho(x)) read
    back off column 0 of each block (_kernels.column).
    """
    _require_square(x)
    return BiMatrix(x.algebra, _mexp(x.algebra, x.data))


def mexp_cr(x: BiMatrix) -> BiMatrix:
    """Sum of cr-powers x^n/n!; transpose-dual of mexp_rc."""
    _require_square(x)
    return BiMatrix(x.algebra, _mexp(x.algebra, x.data.transpose(1, 0, 2)).transpose(1, 0, 2))

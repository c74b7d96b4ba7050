"""Differential-equation layer: integrability, exactness, and linear systems.

Derivative verification here is numeric: central finite differences certify
or refute stated solutions instead of re-deriving them symbolically. The
linear systems come in four product forms (row-column / column-row product,
coefficient matrix on either side), each one real system x' = M x on the
stacked coefficients, with M built only by `LinearOde.real_matrix`. The
right-hand side is M x and the closed form e^{tM} x(0); RK4 integrates M as
an independent algorithm, and the tests check M x against Element products.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _kernels
from .algebra import (
    AlgebraDesc,
    AlgebraError,
    Element,
    basis,
    element_from_data,
    element_to_data,
    in_centralizer,
    inv as el_inv,
    one,
    random_element,
    zero,
)
from .biring import BiMatrix, cr_pow, matrix_from_data, matrix_to_data, rc_pow
from .report import Report
from .series import _expm, exp_at
from .tensor import SlotTensor, TensorPolynomial, X, poly_derivative

FD_STEP = 1e-5
FD_TOL = 1e-6
DEFAULT_PROBES = 32
WITNESS_FLOOR = 1e-3
LINEARITY_CHECK_SEED = 7  # seeds BiForm's spot check, so a rejection is reproducible


def _fd_step(scale: float) -> float:
    return FD_STEP * (1.0 + scale)


def _central(f: Callable[[float], Element | np.ndarray], s: float) -> Element | np.ndarray:
    """Central difference (f(s) - f(-s)) / (2s) of a function of the signed step.

    x + (-s) h equals x - s h exactly, so callers shift by the signed step.
    f may return an Element or a coefficient array.
    """
    return (f(s) - f(-s)) * (1.0 / (2 * s))


def _probes(alg: AlgebraDesc, probes: int, seed: int, k: int) -> Iterator[tuple[Element, ...]]:
    """`probes` k-tuples of random elements, drawn in order from one seeded generator."""
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        yield tuple(random_element(alg, rng) for _ in range(k))


def _witness(**fields) -> Callable[[], dict]:
    """A witness thunk; Elements become coefficient lists when it is called."""
    return lambda: {k: list(v.coeffs) if isinstance(v, Element) else v for k, v in fields.items()}


def _worse(r: float, worst: float) -> bool:
    """Does residual r displace worst? A NaN outranks every number, and the first NaN stays."""
    return r > worst or (r != r and worst == worst)


def _worst(residuals: Iterable[float]) -> float:
    """The largest residual, or NaN if any is NaN; 0.0 for none."""
    worst = 0.0
    for r in residuals:
        if _worse(r, worst):
            worst = r
    return worst


def _judge(gaps: Iterable[tuple[float, Callable[[], dict]]], tol: float, **metrics) -> Report:
    """The verdict rule of every checker, over (residual, witness thunk) per probe.

    The first probe with the largest residual is the witness, built only when
    the check fails; the check passes iff that residual is within tol. A NaN
    residual counts as the largest, so it refutes the check. A check that saw
    no probe proves nothing, so it raises ValueError.
    """
    worst, witness, count = 0.0, None, 0
    for count, (r, thunk) in enumerate(gaps, 1):
        if _worse(r, worst):
            worst, witness = r, thunk
    if not count:
        raise ValueError("a check needs at least one probe")
    verdict = worst <= tol
    return Report(verdict=verdict, residual=worst, metrics=metrics,
                  witness=None if verdict or witness is None else witness())


# ---------------------------------------------------------------------------
# one-variable differential forms


# a form x -> (h -> g(x) o h) is the one-slot case of the one polynomial type
FormPoly = TensorPolynomial


def sandwich_form(algebra: AlgebraDesc, left_xpow: int, right_xpow: int, coeff: float = 1.0) -> SlotTensor:
    """The form h -> coeff * x^left_xpow . h . x^right_xpow as one labelled term."""
    n = left_xpow + 1 + right_xpow
    coeffs = [one(algebra)] * (n + 1)
    coeffs[0] = coeff * coeffs[0]
    labels = (X,) * left_xpow + (0,) + (X,) * right_xpow
    return SlotTensor(algebra, left_xpow + right_xpow, 1, [(coeffs, labels)])


def integrability_check(g: FormPoly, probes: int = DEFAULT_PROBES, seed: int = 0,
                        tol: float = 1e-9) -> Report:
    """Integrable iff the x-derivative of the form is a symmetric bilinear map.

    g must have exactly one argument slot, else ValueError. The derivative
    is formed symbolically (one more labelled slot) and antisymmetry is
    probed at seeded random (x, h1, h2) triples; a non-integrable verdict
    carries a witness triple whose violation clears the separation floor.
    """
    if g.arg_slots != 1:
        raise ValueError("integrability needs a form with exactly one argument slot")
    dg = poly_derivative(g, 1)

    def gap(x: Element, h1: Element, h2: Element):
        violation = (dg(x, h1, h2) - dg(x, h2, h1)).norm()
        return violation, _witness(x=x, h1=h1, h2=h2, violation=violation)

    rep = _judge((gap(*p) for p in _probes(g.algebra, probes, seed, 3)), tol, probes=probes)
    if not rep.verdict:
        rep.metrics["violation_above_floor"] = rep.residual > WITNESS_FLOOR
    return rep


def antiderivative_residual(y: Callable[[Element], Element], g, points: Sequence[Element],
                            dirs: Sequence[Element], tol: float = FD_TOL) -> Report:
    """Does dy/dx = g hold? Central differences of y against g over a probe grid.

    g may be a FormPoly or any callable (x, h) -> Element.
    """
    def gap(x: Element, h: Element):
        r = (_central(lambda e: y(x + e * h), _fd_step(x.norm())) - g(x, h)).norm()
        return r, _witness(x=x, h=h, residual=r)

    return _judge((gap(x, h) for x in points for h in dirs), tol)


# ---------------------------------------------------------------------------
# two-variable forms and exact equations


class BiForm:
    """One piece M(x, y) o dx of a two-variable equation, as an evaluator.

    The callable must be linear in its differential argument; that is spot
    checked at construction on seeded probes.
    """

    __slots__ = ("algebra", "fn")

    def __init__(self, algebra: AlgebraDesc, fn: Callable[[Element, Element, Element], Element]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "fn", fn)
        rng = np.random.default_rng(LINEARITY_CHECK_SEED)
        for _ in range(3):
            x, y, d1, d2 = (random_element(algebra, rng) for _ in range(4))
            a, b = rng.uniform(-2, 2, 2)
            lhs = fn(x, y, float(a) * d1 + float(b) * d2)
            rhs = float(a) * fn(x, y, d1) + float(b) * fn(x, y, d2)
            if not lhs.close(rhs, 1e-8 * (1 + lhs.norm())):
                raise ValueError("BiForm evaluator is not linear in its differential")

    def __setattr__(self, name, value):
        raise AttributeError("BiForm is immutable")

    def __call__(self, x: Element, y: Element, d: Element) -> Element:
        return self.fn(x, y, d)


def _sym_defect(form: BiForm, x: Element, y: Element, d1: Element, d2: Element, s: float,
                wrt_x: bool) -> float:
    """Symmetry defect of the form's own-variable derivative at one probe, step s."""
    def moved(e: float, d: Element) -> tuple[Element, Element]:
        return (x + e * d, y) if wrt_x else (x, y + e * d)

    d_a = _central(lambda e: form(*moved(e, d2), d1), s)
    d_b = _central(lambda e: form(*moved(e, d1), d2), s)
    return (d_a - d_b).norm()


def exactness_check(m: BiForm, n: BiForm, probes: int = DEFAULT_PROBES, seed: int = 0,
                    tol: float = 1e-5) -> Report:
    """Three conditions for M o dx + N o dy = 0 to admit a potential.

    dM/dx and dN/dy must be symmetric, and the cross condition matches
    dM/dy o (dx, dy) with dN/dx o (dy, dx) - the argument order matters, the
    first slot is the form's own differential, the second the direction of
    differentiation. A refutation's witness is the probe with the largest of
    the three violations and names its condition.
    """
    def violations(x: Element, y: Element, dx1: Element, dx2: Element, dy: Element):
        s = _fd_step(max(x.norm(), y.norm()))
        v = {"sym_x": _sym_defect(m, x, y, dx1, dx2, s, wrt_x=True),
             "sym_y": _sym_defect(n, x, y, dx1, dy, s, wrt_x=False),
             "cross": (_central(lambda e: m(x, y + e * dy, dx1), s)
                       - _central(lambda e: n(x + e * dx1, y, dy), s)).norm()}
        c = "sym_x"
        for k in ("sym_y", "cross"):
            if _worse(v[k], v[c]):
                c = k
        return v, c, _witness(condition=c, x=x, y=y, dx1=dx1, dx2=dx2, dy=dy, violation=v[c])

    probed = [violations(*p) for p in _probes(m.algebra, probes, seed, 5)]
    worst = {k: _worst(v[k] for v, _, _ in probed) for k in ("sym_x", "sym_y", "cross")}
    return _judge(((v[c], w) for v, c, w in probed), tol, **worst)


def implicit_solution_check(u: Callable[[Element, Element], Element], m: BiForm, n: BiForm,
                            probes: int = DEFAULT_PROBES, seed: int = 0,
                            tol: float = FD_TOL) -> Report:
    """Do the partials of u reproduce M and N? Checked by central differences."""
    def gap(x: Element, y: Element, dx: Element, dy: Element):
        s = _fd_step(max(x.norm(), y.norm()))
        rx = (_central(lambda e: u(x + e * dx, y), s) - m(x, y, dx)).norm()
        ry = (_central(lambda e: u(x, y + e * dy), s) - n(x, y, dy)).norm()
        r = _worst((rx, ry))
        return r, _witness(x=x, y=y, residual=r)

    return _judge((gap(*p) for p in _probes(m.algebra, probes, seed, 4)), tol)


# ---------------------------------------------------------------------------
# homogeneous linear systems in the four product forms


class OdeForm(enum.Enum):
    RC_LEFT = "rc_left"     # x' = a rc x, column state
    CR_RIGHT = "cr_right"   # x' = x cr a, column state
    CR_LEFT = "cr_left"     # x' = a cr x, row state
    RC_RIGHT = "rc_right"   # x' = x rc a, row state


@dataclass(frozen=True)
class LinearOde:
    """x' = (a, x product per form) with x(0) = init."""

    a: BiMatrix
    form: OdeForm
    init: tuple[Element, ...]

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise ValueError("coefficient matrix must be square")
        object.__setattr__(self, "init", self._state(self.init))

    @property
    def size(self) -> int:
        return self.a.rows

    @property
    def algebra(self) -> AlgebraDesc:
        return self.a.algebra

    def _state(self, xs: Sequence[Element]) -> tuple[Element, ...]:
        """xs as a tuple, once it has one entry per equation, each in the system's algebra."""
        xs, alg = tuple(xs), self.algebra
        if len(xs) != self.size or any(x.algebra is not alg and x.algebra != alg for x in xs):
            raise AlgebraError(f"a state of this system is {self.size} elements of the {alg.tag} algebra")
        return xs

    def rhs(self, xs: Sequence[Element]) -> tuple[Element, ...]:
        return _unvec(self.algebra, self.real_matrix() @ _vec(self._state(xs)))

    def real_matrix(self) -> np.ndarray:
        """M with vec(x)' = M vec(x), vec stacking the state's coefficient vectors.

        As (a cr x)^T = a^T rc x^T and (x rc a)^T = x^T cr a^T, every form reads
        col' = c rc col or col' = col cr c with c = a or a^T. M is rho of c:
        left-multiplication blocks for c rc col, else right-multiplication
        blocks from the transposed structure table.
        """
        c, table = self.a.data, self.algebra.table
        if self.form in (OdeForm.CR_LEFT, OdeForm.RC_RIGHT):
            c = c.swapaxes(0, 1)
        if self.form in (OdeForm.CR_RIGHT, OdeForm.RC_RIGHT):
            table = table.transpose(1, 0, 2)
        return _kernels.rho(table, c)


def _vec(xs: Sequence[Element]) -> np.ndarray:
    return np.concatenate([x.coeffs for x in xs])


def _unvec(alg: AlgebraDesc, v: np.ndarray) -> tuple[Element, ...]:
    return tuple(Element._trusted(alg, row) for row in v.reshape(-1, alg.dim))


@dataclass(frozen=True)
class SolutionCurve:
    """Evaluable candidate solution with a provenance tag."""

    evaluator: Callable[[float], tuple[Element, ...]]
    provenance: str

    def __call__(self, t: float) -> tuple[Element, ...]:
        return self.evaluator(float(t))


def closed_form_solution(ode: LinearOde) -> SolutionCurve:
    """x(t) = e^{tM} vec(x(0)) for M = ode.real_matrix(), as rho(e^{ta}) = e^{t rho(a)}."""
    m, x0, alg = ode.real_matrix(), _vec(ode.init), ode.algebra

    def evaluate(t: float) -> tuple[Element, ...]:
        if t == 0.0:
            return ode.init
        return _unvec(alg, _expm(t * m) @ x0)

    return SolutionCurve(evaluate, "closed-form")


def successive_powers(ode: LinearOde, n: int) -> list[BiMatrix]:
    """[a^0, ..., a^n] under the ode's product; the k-th gives d^k x/dt^k."""
    power = rc_pow if ode.form in (OdeForm.RC_LEFT, OdeForm.RC_RIGHT) else cr_pow
    return [power(ode.a, k) for k in range(n + 1)]


def eigen_solution(b: Element, c: Sequence[Element], side: str = "left") -> SolutionCurve:
    """Curve t -> e^{bt} c (side="left") or t -> c e^{bt} (side="right")."""
    c = tuple(c)
    if not any(e.coeffs.any() for e in c):
        raise ValueError("eigen solution needs a nonzero vector")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")

    def evaluate(t: float) -> tuple[Element, ...]:
        e = exp_at(b, t)
        if side == "left":
            return tuple(e * ci for ci in c)
        return tuple(ci * e for ci in c)

    return SolutionCurve(evaluate, "eigen")


def eigen_conditions(ode: LinearOde, b: Element, c: Sequence[Element],
                     tol: float = 1e-9) -> Report:
    """Sufficient conditions for e^{bt}-type curves to solve the system.

    Either every coefficient entry or every component of c must commute
    with b; when neither holds the report flags "conditions not met".
    """
    a_ok = all(
        in_centralizer(ode.a.entry(i, j), b, tol)
        for i in range(ode.size)
        for j in range(ode.size)
    )
    c_ok = all(in_centralizer(ci, b, tol) for ci in c)
    met = a_ok or c_ok
    return Report(
        verdict=met,
        metrics={
            "matrix_entries_commute": a_ok,
            "vector_entries_commute": c_ok,
            "note": None if met else "conditions not met",
        },
    )


def solution_residual(ode: LinearOde, curve: SolutionCurve, ts: Sequence[float],
                      tol: float = FD_TOL) -> Report:
    """Max over ts of |finite-difference d curve/dt - rhs(curve(t))|."""
    def gaps():
        for t in ts:
            fd = _central(lambda e: np.stack([x.coeffs for x in curve(t + e)]), _fd_step(abs(t)))
            rhs = ode.rhs(curve(t))
            for i in range(ode.size):
                r = float(np.linalg.norm(fd[i] - rhs[i].coeffs))
                yield r, _witness(t=t, component=i, residual=r)

    return _judge(gaps(), tol, provenance=curve.provenance)


def rk4_steps_for(t_end: float, tol: float = FD_TOL) -> int:
    """Step count making the O(h^4) global error a tenth of the tolerance."""
    return max(1, math.ceil(abs(t_end) / (0.1 * tol) ** 0.25))


def rk4_integrate(ode: LinearOde, t_end: float, steps: int) -> SolutionCurve:
    """Classical RK4 on the flattened real coefficient representation.

    The returned curve re-integrates from 0 on every evaluation, keeping the
    step size at or below t_end/steps (so the stated global error bound holds
    at every requested time, including slightly outside [0, t_end] for
    finite-difference probes).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    m, x0, alg = ode.real_matrix(), _vec(ode.init), ode.algebra
    h_target = abs(t_end) / steps if t_end else 1.0 / steps

    def evaluate(t: float) -> tuple[Element, ...]:
        if t == 0.0:
            return ode.init
        nsteps = max(1, math.ceil(abs(t) / h_target))
        return _unvec(alg, _kernels.rk4_linear(m, x0, t, nsteps))

    return SolutionCurve(evaluate, "rk4")


# ---------------------------------------------------------------------------
# the elliptic quaternion system and its constructed curves


def elliptic_ode(algebra: AlgebraDesc) -> LinearOde:
    """x1' = x2, x2' = -x1 with x(0) = (0, 1), in rc-left form."""
    o, z = one(algebra), zero(algebra)
    a = BiMatrix.from_elements([[z, o], [-o, z]])
    return LinearOde(a, OdeForm.RC_LEFT, (z, o))


def hyperbolic_ode(algebra: AlgebraDesc, f: Element | None = None) -> LinearOde:
    """x1' = f x2, x2' = f x1 with x(0) = (0, 1), in rc-left form."""
    if f is None:
        f = one(algebra)
    z = zero(algebra)
    a = BiMatrix.from_elements([[z, f], [f, z]])
    return LinearOde(a, OdeForm.RC_LEFT, (z, one(algebra)))


def elliptic_two_exp_curve(algebra: AlgebraDesc, b1: Element | None = None,
                           b2: Element | None = None) -> SolutionCurve:
    """Left-combination of two imaginary-axis exponentials matching x(0) = (0, 1).

    x1 = C (e^{b1 t} - e^{b2 t}), x2 = C (b1 e^{b1 t} - b2 e^{b2 t}) with
    C = (b1 - b2)^{-1}; both b's square to -1, so each summand solves the
    elliptic system and the combination pins the initial condition.
    """
    if algebra.tag != "quaternion":
        raise ValueError("the constructed elliptic curves live in the quaternions")
    if b1 is None:
        b1 = basis(algebra, 1)
    if b2 is None:
        b2 = basis(algebra, 2)
    c = el_inv(b1 - b2)

    def evaluate(t: float) -> tuple[Element, Element]:
        e1 = exp_at(b1, t)
        e2 = exp_at(b2, t)
        return (c * (e1 - e2), c * (b1 * e1 - b2 * e2))

    return SolutionCurve(evaluate, "two-exponential")


def elliptic_family(c_param: Element) -> SolutionCurve:
    """Three-exponential family solving the elliptic system for every parameter.

    x1 = C1 e^{it} + C2 e^{jt} + C3 e^{kt} and x2 = x1' with
    C1 = C, C2 = ((k - j) + C(-1 + i + j + k))/2,
    C3 = ((j - k) - C(1 + i + j + k))/2; for every C the curve satisfies
    x(0) = (0, 1).
    """
    algebra = c_param.algebra
    if algebra.tag != "quaternion":
        raise ValueError("the three-exponential family lives in the quaternions")
    e0, i, j, k = (basis(algebra, m) for m in range(4))
    c1 = c_param
    c2 = 0.5 * (-(j - k) + c_param * (-e0 + i + j + k))
    c3 = 0.5 * ((j - k) - c_param * (e0 + i + j + k))
    pairs = ((c1, i), (c2, j), (c3, k))

    def evaluate(t: float) -> tuple[Element, Element]:
        x1 = zero(algebra)
        x2 = zero(algebra)
        for coeff, b in pairs:
            e = exp_at(b, t)
            x1 = x1 + coeff * e
            x2 = x2 + coeff * (b * e)
        return (x1, x2)

    return SolutionCurve(evaluate, "three-exponential-family")


# ---------------------------------------------------------------------------
# data forms


def ode_to_data(ode: LinearOde) -> dict:
    return {
        "matrix": matrix_to_data(ode.a),
        "form": ode.form.value,
        "init": [element_to_data(e) for e in ode.init],
    }


def ode_from_data(data: dict) -> LinearOde:
    return LinearOde(
        matrix_from_data(data["matrix"]),
        OdeForm(data["form"]),
        tuple(element_from_data(e) for e in data["init"]),
    )


def run_ode_fixture(data: dict) -> Report:
    """Run a scenario fixture: {"ode": {...}, "checks": [...]}.

    Supported checks: {"kind": "residual", "ts": [...], "tol": ...} verifies
    the closed-form curve against the equation, and {"kind": "rk4-match",
    "t_end": ..., "steps": ..., "points": ..., "tol": ...} compares it with
    the RK4 oracle. The combined verdict requires every check to pass.
    """
    ode = ode_from_data(data["ode"])
    closed = closed_form_solution(ode)
    verdict = True
    residuals = []
    details = []
    for check in data["checks"]:
        kind = check["kind"]
        tol = float(check.get("tol", FD_TOL))
        if kind == "residual":
            rep = solution_residual(ode, closed, check["ts"], tol=tol)
            r, ok = rep.residual, rep.verdict
            details.append({"kind": kind, "residual": r, "ok": ok})
        elif kind == "rk4-match":
            rk = rk4_integrate(ode, float(check["t_end"]), int(check["steps"]))
            ts = np.linspace(0.0, float(check["t_end"]), int(check.get("points", 11)))
            r = _worst((u - v).norm() for t in ts for u, v in zip(closed(t), rk(t)))
            ok = r <= tol
            details.append({"kind": kind, "gap": r, "ok": ok})
        else:
            raise ValueError(f"unknown check kind {kind!r}")
        verdict = verdict and ok
        residuals.append(r)
    return Report(verdict=verdict, residual=_worst(residuals), metrics={"checks": details})

"""Differential-equation layer: integrability, exactness, and linear systems.

Forms and potentials are :class:`TensorPolynomial`s in x (and y), so the
form checkers differentiate them symbolically and take the symmetric part
of each bidegree of every source polynomial once. Each condition is
linear in its sources, so the polynomial that must vanish is never built:
its parts are differences of the sources' parts, one of them transposed
in its two argument axes where the condition exchanges the slots. The
norm of each of its bidegrees is judged against FORM_TOL times the same
norm of that bidegree of the sources: no probe point is drawn, so the
verdict is exact up to rounding and scale-free. A symmetric part holds
one weighted coefficient per monomial, a number of floats polynomial in
the degree, so a form of any degree is judged. Curves and
opaque callables have no symbolic derivative: central finite differences
certify or refute them. The linear systems come in four
product forms (row-column / column-row product, coefficient matrix on
either side), each one real system x' = M x on the stacked coefficients,
with M built only by _real_matrices, for a stack of systems of one form,
which `LinearOde.real_matrix` calls on one system. The right-hand side is M x
and the closed form e^{tM} x(0); RK4 integrates M as an independent
algorithm, and the tests check M x against Element products. A solution
curve is read at one time, ``curve(t)``, or on a whole time grid at once,
``curve.values(ts)``: the closed form through one exponential grid, RK4
through one stacked power of its step matrices, the elliptic curves
through one series._exp_els call on all their b t and row-wise array
products for their states (their ``curve(t)`` reads the one-time grid),
and each time with the bits ``curve(t)`` gives it. The closed-form and
RK4 grids are the one-system case of the private _closed_form_states and
_rk4_states, which read many systems of one size at once, every system
and distinct nonzero time one member of the same stacked call, from a
stack of real_matrix() values and one of initial vectors.
``solution_residual`` is the report of _read_residual, the one
read-and-judge step: it reads all its probe times (_probe_times) in one
such call, judges the states it read (_judge_states), and returns the
states at ts too. _judge_states judges a stack of systems of one size at
once, from their real_matrix() values and states, with one stacked
right-hand side and every residual's norm in one call; a caller that has
read many systems' states with other states, as ode-forms-cross-check
does, judges them all in one call, and _read_residual passes a stack of
one. The exponential grid behind the closed-form grids (series._expm_grid)
takes the powers of each system's M once for all its times, and
closed_form_solution(ode)(t) takes its one-matrix mirror
(series._expm_at), which does the same arithmetic.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernels
from .algebra import (
    CLOSE_RTOL,
    AlgebraDesc,
    AlgebraError,
    Element,
    _frobenius_rows,
    _mul_rows,
    basis,
    frobenius,
    in_centralizer,
    inv,
    one,
    zero,
)
from .biring import BiMatrix
from .report import Report, severity, worst
from .series import SeriesBudgetError, _argument_at, _exp_els, _expm_at, _expm_grid, _require_finite_time, exp_at
from .tensor import X, Y, TensorPolynomial, largest_entry, poly_derivative, symmetric_part

FD_STEP = 1e-5
FD_TOL = 1e-6
FORM_TOL = 1e-12  # relative: the form checks' vanishing norms are 0.0, or rounding, when they hold


def _fd_step(scale: float) -> float:
    return FD_STEP * (1.0 + scale)


def _central(f: Callable[[float], Element], s: float) -> Element:
    """Central difference (f(s) - f(-s)) / (2s) of a function of the signed step.

    x + (-s) h equals x - s h exactly, so callers shift by the signed step.
    """
    return (f(s) - f(-s)) * (1.0 / (2 * s))


def _judge(gaps: Iterable[tuple[float, bool, dict | None]], **metrics) -> Report:
    """The verdict rule of every checker, over (residual, held, witness) triples.

    A triple is a probe of a finite-difference check, held when its residual
    is within the check's tol, or a polynomial that must vanish, held per
    :func:`_vanishing`; a NaN residual never holds. A witness is plain
    Python data, a dict, and only a triple that holds may have None. The
    check passes iff every triple holds. It reports the worst residual, a
    NaN the worst of all (report.worst), and on failure the witness of the
    first failing triple with the worst residual. A check that saw no probe
    proves nothing, so it raises ValueError.
    """
    gaps = list(gaps)
    if not gaps:
        raise ValueError("a check needs at least one probe")
    failing = [(r, w) for r, held, w in gaps if not held]
    witness = max(failing, key=lambda f: severity(f[0]))[1] if failing else None
    return Report(verdict=not failing, residual=worst(r for r, _, _ in gaps), metrics=metrics, witness=witness)


# ---------------------------------------------------------------------------
# differential forms and exact equations


Parts = dict[tuple[int, int], np.ndarray]  # symmetric parts of a polynomial's components, by bidegree


def _parts(p: TensorPolynomial) -> Parts:
    """The symmetric part of each component of p, keyed by its bidegree (x gaps, y gaps)."""
    return {(c.x_gaps, c.y_gaps): symmetric_part(c) for c in p.components}


def _transposed(parts: Parts) -> Parts:
    """The parts of a two-slot polynomial with its argument slots exchanged.

    symmetric_part puts the arguments last, in slot order, and symmetrizes
    only the x and y gaps, so exchanging the argument labels 0 and 1
    exchanges the last two axes.
    """
    return {b: s.swapaxes(-1, -2) for b, s in parts.items()}


def _difference(p: Parts, q: Parts) -> Parts:
    """The parts of the difference of two polynomials, in ascending bidegree.

    symmetric_part is linear in the terms, so these are the differences of
    the parts; a bidegree one side lacks counts as zero.
    """
    return {b: p.get(b, 0.0) - q.get(b, 0.0) for b in sorted(p.keys() | q.keys())}


def _check_forms(*forms: TensorPolynomial) -> None:
    if any(f.arg_slots != 1 for f in forms):
        raise ValueError("a form needs exactly one argument slot")


def _vanishing(gap: Parts, sources: Sequence[Parts], tol: float, **fields) -> tuple[float, bool, dict | None]:
    """The norm of a polynomial that must vanish, whether it does, and a witness, for _judge.

    gap holds the symmetric parts of that polynomial's components and each
    of sources those of a polynomial it was built from, all keyed by
    bidegree (x gaps, y gaps). The polynomial vanishes iff the Frobenius
    norm of each of its parts is within tol times the summed norms of the
    sources' parts of the same bidegree. Rounding stays within a bidegree,
    so a large part of another condition, or of another bidegree of the same
    one, cannot hide it. Its norm, reported as the residual and as the
    witness's violation, sums the norms of the failing parts, or of all
    parts when none fails. The witness, None when none fails, holds the
    fields and the largest entry of the averaged map over the failing parts,
    :func:`tensor.largest_entry`, named by its part's bidegree and one
    coordinate per gap, each variable's monomial by its sorted coordinates;
    a NaN entry counts as the largest.
    """
    scale = defaultdict(float)  # bidegree: the summed norms of the sources' parts
    for b, s in (bs for parts in sources for bs in parts.items()):
        scale[b] += frobenius(s)
    norms = {b: frobenius(s) for b, s in gap.items()}
    failing = [b for b, r in norms.items() if not r <= tol * scale[b]]
    violation = sum(norms[b] for b in failing or norms)
    if not failing:
        return violation, True, None
    _, index, b = max((largest_entry(gap[b], *b) + (b,) for b in failing), key=lambda entry: entry[0])
    return violation, False, dict(fields, violation=violation, bidegree=list(b), index=index)


def integrability_check(g: TensorPolynomial, tol: float = FORM_TOL) -> Report:
    """Integrable iff the x-derivative of the form is a symmetric bilinear map.

    g must have exactly one argument slot, else ValueError. The derivative
    D g is formed symbolically (one more labelled slot). Its antisymmetric
    part is S - S^T for the symmetric part S of each bidegree, transposed
    in its two argument axes; the check passes iff the norm of each
    bidegree of that part is within tol times the norm of S. A
    refutation's witness is the largest entry of the part's failing
    bidegrees.
    """
    _check_forms(g)
    dg = _parts(poly_derivative(g))
    return _judge([_vanishing(_difference(dg, _transposed(dg)), [dg], tol)])


def antiderivative_residual(y: Callable[[Element], Element], g, points: Sequence[Element],
                            dirs: Sequence[Element], tol: float = FD_TOL) -> Report:
    """Does dy/dx = g hold? Central differences of y against g over a probe grid.

    g may be a TensorPolynomial or any callable (x, h) -> Element.
    """
    def gap(x: Element, h: Element):
        r = (_central(lambda e: y(x + e * h), _fd_step(x.norm())) - g(x, h)).norm()
        return r, r <= tol, {"x": x.coeffs.tolist(), "h": h.coeffs.tolist(), "residual": r}

    return _judge(gap(x, h) for x in points for h in dirs)


def exactness_check(m: TensorPolynomial, n: TensorPolynomial, tol: float = FORM_TOL) -> Report:
    """Three conditions for M o dx + N o dy = 0 to admit a potential.

    M and N are one-slot polynomials in x and y. D_x M and D_y N must be
    symmetric, and the cross condition matches D_y M o (dx, dy) with
    D_x N o (dy, dx) - the argument order matters, the first slot is the
    form's own differential, the second the direction of differentiation.
    Each condition compares the symmetric parts of the partials, bidegree by
    bidegree: S - S^T for sym_x and sym_y, and A - B^T for cross, with the
    argument axes transposed; the metrics give their norms. Each must be
    within tol times the norms of the partials it compares (D_x M for sym_x,
    D_y N for sym_y, D_y M and D_x N for cross), bidegree by bidegree, and a
    refutation's witness names its condition.
    """
    _check_forms(m, n)
    dxm, dym, dxn, dyn = (_parts(poly_derivative(f, var=v)) for f in (m, n) for v in (X, Y))
    conditions = {"sym_x": (_difference(dxm, _transposed(dxm)), [dxm]),
                  "sym_y": (_difference(dyn, _transposed(dyn)), [dyn]),
                  "cross": (_difference(dym, _transposed(dxn)), [dym, dxn])}
    gaps = {k: _vanishing(p, sources, tol, condition=k) for k, (p, sources) in conditions.items()}
    return _judge(gaps.values(), **{k: v for k, (v, _, _) in gaps.items()})


def implicit_solution_check(u: TensorPolynomial, m: TensorPolynomial, n: TensorPolynomial,
                            tol: float = FORM_TOL) -> Report:
    """Do the partials of the potential u reproduce M and N?

    u has no argument slot, else ValueError. D_x u and D_y u are formed
    symbolically, and D_x u - M and D_y u - N are the differences of the
    symmetric parts; the check passes iff each one's norm is within tol
    times the summed norms of the two polynomials it subtracts, bidegree by
    bidegree.
    """
    if u.arg_slots:
        raise ValueError("the potential needs no argument slot")
    _check_forms(m, n)
    partials = [(_parts(poly_derivative(u, var=v)), _parts(f)) for v, f in ((X, m), (Y, n))]
    return _judge(_vanishing(_difference(du, f), [du, f], tol) for du, f in partials)


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
        init = self._state(self.init)
        if not (np.isfinite(self.a.data).all() and np.isfinite(_vec(init)).all()):
            raise AlgebraError("a linear system needs finite coefficients and initial value")
        object.__setattr__(self, "init", init)

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
        """M with vec(x)' = M vec(x), vec stacking the state's coefficient vectors: _real_matrices of one system."""
        return _real_matrices(self.algebra, self.a.data, self.form)


def _real_matrices(alg: AlgebraDesc, a: np.ndarray, form: OdeForm) -> np.ndarray:
    """M of each system in form over alg, for a (..., n, n, d) stack a of their coefficients: (..., n d, n d).

    As (a cr x)^T = a^T rc x^T and (x rc a)^T = x^T cr a^T, every form reads
    col' = c rc col or col' = col cr c with c = a or a^T. M is rho of c:
    left-multiplication blocks for c rc col, else right-multiplication
    blocks from the transposed structure table. The stack takes one rho
    call, and every entry of rho is exact, so each system gets the bits it
    gets alone.
    """
    if form in (OdeForm.CR_LEFT, OdeForm.RC_RIGHT):
        a = a.swapaxes(-3, -2)
    return _kernels.rho(alg.table.transpose(1, 0, 2) if form in (OdeForm.CR_RIGHT, OdeForm.RC_RIGHT) else alg.table, a)


def _vec(xs: Sequence[Element]) -> np.ndarray:
    return np.concatenate([x.coeffs for x in xs])


def _unvec(alg: AlgebraDesc, v: np.ndarray) -> tuple[Element, ...]:
    return tuple(Element._trusted(alg, row) for row in v.reshape(-1, alg.dim))


@dataclass(frozen=True)
class SolutionCurve:
    """Evaluable candidate solution with a provenance tag.

    curve(t) is the state at one time, a tuple of elements, from evaluator.
    values(ts) is the state at every time of ts at once, a (k, n, d) array
    of coefficients, from batch when the curve has one, else from
    evaluator at each time.
    """

    evaluator: Callable[[float], tuple[Element, ...]]
    provenance: str
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t: float) -> tuple[Element, ...]:
        return self.evaluator(float(t))

    def values(self, ts: Sequence[float]) -> np.ndarray:
        """The states at every time of ts, a (len(ts), n, d) array of coefficients.

        Without a batch, an empty ts reads n and d from the initial value, curve(0).
        """
        ts = np.asarray(ts, dtype=float)
        if self.batch is not None:
            return self.batch(ts)
        states = [[x.coeffs for x in self.evaluator(t)] for t in ts.tolist()]
        if not states:
            return np.empty((0,) + np.shape([x.coeffs for x in self.evaluator(0.0)]))
        return np.array(states, dtype=float)


def _grid_states(x0: np.ndarray, ts: np.ndarray, states: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """A (k, len(ts), p) array: x0[i] at each t = 0 of ts, and states(the other times)[i] elsewhere.

    x0 is a (k, p) stack of initial vectors, one per system. curve(t) returns
    the initial value itself at t = 0, so the grid does too. states reads
    each distinct nonzero time once, in ascending order, and its states are
    scattered back to every place the time holds in ts; a repeated time has
    the bits of its one read. The sort moves NaN and inf, so the callers
    refuse a non-finite time before, in the order of ts.
    """
    out, moving = np.repeat(x0[:, None], len(ts), axis=1), ts != 0.0
    if moving.any():
        distinct, where = np.unique(ts[moving], return_inverse=True)
        out[:, moving] = states(distinct)[:, where]
    return out


def _closed_form_states(m: np.ndarray, x0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """e^{tM_i} x0_i for each system i and t of ts, a (k, len(ts), p) array.

    m is a (k, p, p) stack of real_matrix() values and x0 a (k, p) stack of
    initial vectors. Every system's e^{tM} at every distinct nonzero t is
    one member of one exponential grid, series._expm_grid of m and those
    times, which takes each system's powers once for all its times; its
    one-matrix mirror is what closed_form_solution(ode)(t) takes, so each
    state has the bits of that call. A non-finite t raises
    SeriesBudgetError, the first one in the order of ts, before it meets
    M, and a member whose argument |t| ||M||_1 is too large, or whose
    exponential overflows, raises as in series._expm_grid; a state that
    overflows comes back as it is, non-finite, with no numpy warning.
    """
    _require_finite_time(*ts.tolist())

    def states(moving: np.ndarray) -> np.ndarray:
        e = _expm_grid(m, moving)
        with np.errstate(over="ignore", invalid="ignore"):
            return (e @ x0[:, None, :, None])[..., 0]

    return _grid_states(x0, ts, states)


def _rk4_steps(t: float, h: float) -> float:
    """The fewest RK4 steps of at most h from 0 to t, as a float.

    A non-finite t, or a count past the float range, raises AlgebraError.
    The ceil of a float is a float64 value, so every count, past int64
    too, is exact in float64.
    """
    if not math.isfinite(t):
        raise AlgebraError(f"an RK4 time must be finite, got {t}")
    if (n := abs(t) / h) == math.inf:
        raise AlgebraError(f"RK4 to t = {t} in steps of at most {h} takes more steps than a float counts")
    return float(max(1, math.ceil(n)))


def _rk4_step_target(t_end: float, steps: int) -> float:
    """The largest RK4 step of a curve integrated to t_end in steps steps.

    steps < 1 raises ValueError, and a step that is not positive and
    finite raises AlgebraError: that of a non-finite t_end, and one that
    underflows to zero.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    try:
        h = abs(t_end) / steps if t_end else 1.0 / steps
    except OverflowError:  # a count past the float range: the step underflows
        h = 0.0
    if not 0.0 < h < math.inf:
        raise AlgebraError(f"the RK4 step to t = {t_end} is {h}, not positive and finite")
    return h


def _rk4_states(m: np.ndarray, x0: np.ndarray, ts: np.ndarray, h: float) -> np.ndarray:
    """RK4 states of x' = M_i x from x0_i for each system i and t of ts, a (k, len(ts), p) array.

    m and x0 are stacks as in _closed_form_states; each t takes the fewest
    steps of at most h. Every system's step matrix at every distinct
    nonzero t is one member of one stacked rk4_linear power, so each state
    has the bits of rk4_integrate(ode, ...)(t), and one that overflows comes
    back as it is, non-finite. A non-finite t raises AlgebraError, the
    first one in the order of ts.
    """
    k, p = x0.shape
    counts = {t: _rk4_steps(t, h) for t in ts.tolist()}  # refuses the first non-finite t of ts

    def states(moving: np.ndarray) -> np.ndarray:
        steps = np.tile([counts[t] for t in moving.tolist()], k)
        ms, xs, times = np.repeat(m, len(moving), axis=0), np.repeat(x0, len(moving), axis=0), np.tile(moving, k)
        return _kernels.rk4_linear(ms, xs, times, steps).reshape(k, len(moving), p)

    return _grid_states(x0, ts, states)


def _linear_curve(ode: LinearOde, provenance: str, state: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
                  states: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> SolutionCurve:
    """The curve of a linear system from its one-time kernel step and its grid function.

    M = ode.real_matrix() and x0 = vec(x(0)) are built once. curve(t) is
    x(0) itself at t = 0 and state(M, x0, t) elsewhere, which raises its
    curve's typed error; values(ts) is states of this one system, a stack
    of one M and one x0.
    """
    m, x0, alg = ode.real_matrix(), _vec(ode.init), ode.algebra

    def evaluate(t: float) -> tuple[Element, ...]:
        return ode.init if t == 0.0 else _unvec(alg, state(m, x0, t))

    def batch(ts: np.ndarray) -> np.ndarray:
        return states(m[None], x0[None], ts)[0].reshape(len(ts), ode.size, alg.dim)

    return SolutionCurve(evaluate, provenance, batch)


def closed_form_solution(ode: LinearOde) -> SolutionCurve:
    """x(t) = e^{tM} vec(x(0)) for M = ode.real_matrix(), as rho(e^{ta}) = e^{t rho(a)}.

    Built by _linear_curve, as rk4_integrate is. curve(t) takes e^{tM}
    from series._expm_at, the mirror of the grid that values(ts) reads, so
    the two give a time the same bits. A non-finite t raises
    SeriesBudgetError before it meets M, and so does a state that
    overflows at curve(t). values(ts) is _closed_form_states of this one
    system, and returns an overflowing state as it is, non-finite, for the
    residual and cross checks to refute.
    """

    def state(m: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
        _require_finite_time(t)
        e = _expm_at(m, t)
        with np.errstate(over="ignore", invalid="ignore"):
            x = e @ x0
        if not all(map(math.isfinite, x.tolist())):
            raise SeriesBudgetError(f"the closed-form state at t = {t} overflows")
        return x

    return _linear_curve(ode, "closed-form", state, _closed_form_states)


def successive_powers(ode: LinearOde, n: int) -> list[BiMatrix]:
    """[a^0, ..., a^n] under the ode's product; the k-th gives d^k x/dt^k.

    rho(a) is built once and each power is the one before it times rho(a),
    read back with _kernels.column; the cr forms power the transpose and
    transpose back, as cr_pow does. One product per step, where rc_pow and
    cr_pow square from scratch for each k, so the last bits may differ from
    theirs. A negative n raises ValueError, as in rc_pow and cr_pow.
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    alg, cr = ode.algebra, ode.form in (OdeForm.CR_LEFT, OdeForm.CR_RIGHT)
    r = _kernels.rho(alg.table, ode.a.data.transpose(1, 0, 2) if cr else ode.a.data)
    powers = [_kernels.identity(len(r))]
    for _ in range(n):
        powers.append(powers[-1] @ r)
    elements = _kernels.column(np.stack(powers), alg.dim)
    return [BiMatrix(alg, e.transpose(1, 0, 2) if cr else e) for e in elements]


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
                     tol: float = CLOSE_RTOL) -> Report:
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


def _probe_times(ts: Sequence[float]) -> list[float]:
    """t + h, t - h and t, with h = _fd_step(|t|), for every t of ts: the states a residual judges.

    The state at ts[i] is read at index 3 i + 2.
    """
    hs = [_fd_step(abs(t)) for t in ts]
    return [u for t, h in zip(ts, hs) for u in (t + h, t - h, t)]


def _judge_states(alg: AlgebraDesc, m: np.ndarray, states: np.ndarray, ts: Sequence[float], provenance: str,
                  tol: float = FD_TOL) -> list[Report]:
    """solution_residual of k curves of systems over alg whose states at _probe_times(ts) are read, one report each.

    m is the (k, p, p) stack of the systems' real_matrix() values and
    states their (k, 3 len(ts), n, d) states, n d = p. The right-hand sides
    are one stacked matmul and every norm is one _frobenius_rows call, so
    each system's report has the bits of a stack of that system alone.
    Over an empty ts a system proves nothing and raises ValueError, as
    _judge does.
    """
    ts = [float(t) for t in ts]
    hs = [_fd_step(abs(t)) for t in ts]
    k, n, d = len(m), m.shape[-1] // alg.dim, alg.dim
    if states.shape[:1] + states.shape[2:] != (k, n, d):
        raise AlgebraError(f"a state of this system is {n} elements of the {alg.tag} algebra")
    states = states.reshape(k, len(ts), 3, n, d)
    with np.errstate(over="ignore", invalid="ignore"):
        fd = (states[:, :, 0] - states[:, :, 1]) * np.array([1.0 / (2 * h) for h in hs])[:, None, None]
        rhs = (m[:, None] @ states[:, :, 2].reshape(k, len(ts), n * d, 1)).reshape(k, len(ts), n, d)
        res = _frobenius_rows(fd - rhs).tolist()  # res[s][j][i]: system s's residual of component i at ts[j]
    return [_judge(((r, True, None) if r <= tol else (r, False, {"t": t, "component": i, "residual": r})
                    for t, row in zip(ts, rows) for i, r in enumerate(row)), provenance=provenance)
            for rows in res]


def _read_residual(ode: LinearOde, curve: SolutionCurve, ts: Sequence[float],
                   tol: float = FD_TOL) -> tuple[Report, np.ndarray]:
    """solution_residual of curve over ts, and the (len(ts), n, d) states it read at ts.

    All the probe times are read in one curve.values call and judged by
    _judge_states, as a stack of one system; an empty ts raises ValueError
    before the curve is read.
    """
    ts = [float(t) for t in ts]
    if not ts:
        _judge(())  # raises: no probe
    states = curve.values(_probe_times(ts))
    return _judge_states(ode.algebra, ode.real_matrix()[None], states[None], ts, curve.provenance, tol)[0], states[2::3]


def solution_residual(ode: LinearOde, curve: SolutionCurve, ts: Sequence[float],
                      tol: float = FD_TOL) -> Report:
    """Max over ts of |finite-difference d curve/dt - rhs(curve(t))|.

    The curve is read at t + h, t - h and t for every t of ts in one
    curve.values call, and the right-hand side M x(t) takes M =
    ode.real_matrix() once. A state that is not finite gives a residual that
    is not finite, which refutes, and no numpy warning.
    """
    return _read_residual(ode, curve, ts, tol)[0]


def rk4_integrate(ode: LinearOde, t_end: float, steps: int) -> SolutionCurve:
    """Classical RK4 on the flattened real coefficient representation.

    The returned curve re-integrates from 0 on every evaluation, keeping the
    step size at or below t_end/steps (so the stated global error bound holds
    at every requested time, including slightly outside [0, t_end] for
    finite-difference probes); each time takes the _rk4_steps count.
    Built by _linear_curve, as closed_form_solution is. A non-finite
    t_end, or evaluation time, raises AlgebraError, and so does a state
    that overflows at curve(t). values(ts) is _rk4_states of this one
    system, and returns an overflowing state as it is, non-finite, for the
    residual and cross checks to refute.
    """
    h = _rk4_step_target(t_end, steps)

    def state(m: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
        n = int(_rk4_steps(t, h))
        with np.errstate(over="ignore", invalid="ignore"):
            x = _kernels.rk4_linear(m, x0, t, n)
        if not np.isfinite(x).all():
            raise AlgebraError(f"the RK4 state at t = {t} overflows in {n} steps")
        return x

    return _linear_curve(ode, "rk4", state, lambda m, x0, ts: _rk4_states(m, x0, ts, h))


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


def _exps_at(bs: Sequence[Element], ts: np.ndarray) -> np.ndarray:
    """The coefficients of exp_at(b, t) for each b of bs and t of ts, a (len(bs), len(ts), d) array.

    One _exp_els call on every b t; numpy's product t b has the IEEE bits
    of exp_at's float product, so each row has the bits of its exp_at call.
    A non-finite time raises first, then the first row whose argument
    exp_at refuses: a non-finite b, or a b t that overflows.
    """
    _require_finite_time(*ts.tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        args = np.concatenate([ts[:, None] * b.coeffs for b in bs])
    if not np.isfinite(args).all():
        row = int(np.isfinite(args).all(axis=1).argmin())
        _argument_at(bs[row // len(ts)].coeffs.tolist(), ts[row % len(ts)])  # raises that row's refusal
    return _exp_els(args).reshape(len(bs), len(ts), bs[0].algebra.dim)


def _batch_curve(alg: AlgebraDesc, batch: Callable[[np.ndarray], np.ndarray], provenance: str) -> SolutionCurve:
    """A curve read only through batch: curve(t) is the one-time grid [t]."""
    return SolutionCurve(lambda t: _unvec(alg, batch(np.array([t]))[0]), provenance, batch)


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
    c, bs = inv(b1 - b2).coeffs, np.array([b1.coeffs, b2.coeffs])

    def batch(ts: np.ndarray) -> np.ndarray:
        e = _exps_at((b1, b2), ts)
        be = _mul_rows(algebra, bs[:, None], e)  # b1 e1 and b2 e2
        return _mul_rows(algebra, c, np.stack((e[0] - e[1], be[0] - be[1]), axis=1))

    return _batch_curve(algebra, batch, "two-exponential")


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
    cs, bs = (np.array([x.coeffs for x in xs])[:, None] for xs in ((c1, c2, c3), (i, j, k)))

    def batch(ts: np.ndarray) -> np.ndarray:
        e = _exps_at((i, j, k), ts)
        terms = _mul_rows(algebra, cs[:, None], np.stack((e, _mul_rows(algebra, bs, e)), axis=2))
        return sum(terms, np.zeros(terms.shape[1:]))  # 0 + C1 (...) + C2 (...) + C3 (...), in that order

    return _batch_curve(algebra, batch, "three-exponential-family")

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All ten criteria are expected to pass at the stated tolerances.
Criterion 9 checks the paper's quaternion example x1' = x2, x2' = -x1,
x(0) = (0, 1): the RK4 solution, the two-exponential curves and the
three-exponential family each solve the system and match x(0), and all of
them coincide with the unique solution (sin t, cos t) (see README).
"""

import math

import numpy as np

from ncalg.algebra import basis, from_scalar, make_algebra, one, random_element, zero
from ncalg.biring import (
    BiMatrix,
    SingularMatrixError,
    bordered_quasidet,
    cr_inv,
    cr_mul,
    cr_pow,
    quasidet_cr,
    quasidet_rc,
    random_matrix,
    rc_inv,
    rc_mul,
    rc_pow,
    rc_rank,
    transpose,
)
from ncalg.diffeq import (
    LinearOde,
    OdeForm,
    antiderivative_residual,
    closed_form_solution,
    elliptic_family,
    elliptic_ode,
    elliptic_two_exp_curve,
    exactness_check,
    implicit_solution_check,
    integrability_check,
    rk4_integrate,
    solution_residual,
)
from ncalg.series import exp_el, quasiexp
from ncalg.tensor import (
    SlotTensor,
    X,
    eval_args,
    monomial_derivative,
    ones_tensor,
    pure,
    slot_tensors_equal,
    so_set,
)
from conftest import complex_matrix

from test_diffeq import exact_723, exact_724, exact_725, separable_712, three_x_form, x_square_form


def _line(num: int, name: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} [{name}]: {state}{suffix}")


def test_criterion_01_quasideterminant_closed_forms():
    rng = np.random.default_rng(101)
    worst_closed = 0.0
    worst_classical = 0.0
    for tag in ("real", "complex", "quaternion"):
        alg = make_algebra(tag)
        produced = 0
        while produced < 200:
            a = random_matrix(alg, 2, 2, rng)
            if np.sqrt((a.data ** 2).sum(axis=2)).min() < 5e-2:
                continue
            try:
                inv = rc_inv(a)
            except SingularMatrixError:
                continue
            produced += 1
            for i in range(2):
                for j in range(2):
                    closed = a.entry(i, j) - a.entry(i, 1 - j) * a.entry(1 - i, 1 - j).inv() * a.entry(1 - i, j)
                    worst_closed = max(worst_closed, (quasidet_rc(a, i, j) - closed).norm())
                    worst_closed = max(worst_closed, (inv.entry(j, i) - closed.inv()).norm())
            if tag == "real":
                worst_classical = max(
                    worst_classical,
                    float(np.abs(inv.data[:, :, 0] - np.linalg.inv(a.data[:, :, 0])).max()),
                )
            elif tag == "complex":
                gap = np.abs(complex_matrix(inv) - np.linalg.inv(complex_matrix(a))).max()
                worst_classical = max(worst_classical, float(gap))
    passed = worst_closed <= 1e-9 and worst_classical <= 1e-9
    _line(1, "quasideterminant closed forms", passed,
          f"closed {worst_closed:.2e}, classical {worst_classical:.2e}")
    assert passed


def test_criterion_02_duality_suite():
    HH = make_algebra("quaternion")
    rng = np.random.default_rng(102)
    worst = 0.0

    def gap(m1, m2):
        return float(np.abs(m1.data - m2.data).max())

    for size in (2, 3):
        for _ in range(25):
            a = random_matrix(HH, size, size, rng)
            b = random_matrix(HH, size, size, rng)
            worst = max(worst, gap(transpose(rc_mul(a, b)), cr_mul(transpose(a), transpose(b))))
            worst = max(worst, gap(transpose(cr_mul(a, b)), rc_mul(transpose(a), transpose(b))))
            for n in (2, 3):
                worst = max(worst, gap(cr_pow(transpose(a), n), transpose(rc_pow(a, n))))
            try:
                inv = rc_inv(a)
            except SingularMatrixError:
                continue
            worst = max(worst, gap(cr_inv(transpose(a)), transpose(inv)))
            for i in range(size):
                for j in range(size):
                    worst = max(
                        worst,
                        (quasidet_cr(transpose(a), j, i) - quasidet_rc(a, i, j)).norm(),
                    )
    passed = worst <= 1e-10
    _line(2, "biring duality suite", passed, f"worst {worst:.2e}")
    assert passed


def test_criterion_03_tensor_derivative_engine():
    HH = make_algebra("quaternion")
    o = one(HH)
    d2 = monomial_derivative(ones_tensor(HH, 2), 1)
    expected2 = SlotTensor(HH, 1, 1, [((o, o, o), (X, 0)), ((o, o, o), (0, X))])
    match2 = slot_tensors_equal(d2, expected2, tol=1e-9)
    d3 = monomial_derivative(ones_tensor(HH, 3), 1)
    expected3 = SlotTensor(
        HH, 2, 1,
        [((o,) * 4, (0, X, X)), ((o,) * 4, (X, 0, X)), ((o,) * 4, (X, X, 0))],
    )
    match3 = slot_tensors_equal(d3, expected3, tol=1e-9)

    rng = np.random.default_rng(103)
    worst_sym = 0.0
    for degree in range(2, 6):
        t = pure([random_element(HH, rng) for _ in range(degree + 1)])
        d = monomial_derivative(t, 2)
        for _ in range(5):
            x = random_element(HH, rng)
            h1, h2 = random_element(HH, rng), random_element(HH, rng)
            worst_sym = max(
                worst_sym,
                (eval_args(d, [h1, h2], x) - eval_args(d, [h2, h1], x)).norm(),
            )

    counts_ok = all(
        len(so_set(k, n)) == math.factorial(n) // math.factorial(n - k)
        for n in range(0, 6)
        for k in range(0, n + 1)
    )
    passed = match2 and match3 and worst_sym <= 1e-9 and counts_ok
    _line(3, "tensor derivative engine", passed,
          f"symmetry {worst_sym:.2e}, counts {'ok' if counts_ok else 'bad'}")
    assert passed


def test_criterion_04_integrability_verdicts():
    HH = make_algebra("quaternion")
    CC = make_algebra("complex")
    rng = np.random.default_rng(104)

    r_sq = integrability_check(x_square_form(HH))
    r_hh = integrability_check(three_x_form(HH))
    r_cc = integrability_check(three_x_form(CC))

    points = [random_element(HH, rng) for _ in range(8)]
    dirs = [random_element(HH, rng) for _ in range(4)]
    r_x2 = antiderivative_residual(lambda x: x * x, x_square_form(HH), points, dirs)
    r_x3 = antiderivative_residual(lambda x: x * x * x, three_x_form(HH), points, dirs)

    passed = (
        r_sq.verdict
        and (not r_hh.verdict)
        and r_hh.witness is not None
        and r_hh.witness["violation"] > 1e-3
        and r_cc.verdict
        and r_x2.verdict
        and r_x2.residual <= 1e-6
        and (not r_x3.verdict)
        and r_x3.residual > 1e-2
    )
    _line(4, "integrability verdicts", passed,
          f"witness {r_hh.residual:.2e}, x^2 {r_x2.residual:.2e}, x^3 {r_x3.residual:.2e}")
    assert passed


def test_criterion_05_exact_equation_verdicts():
    HH = make_algebra("quaternion")
    tol = 1e-5

    m3, n3, p3 = exact_723(HH)
    r3 = exactness_check(m3, n3, tol=tol)
    u3 = implicit_solution_check(p3, m3, n3, tol=tol)

    r4 = exactness_check(*exact_724(HH), tol=tol)

    r5 = exactness_check(*exact_725(HH), tol=tol)

    m1, n1, p1 = separable_712(HH)
    u1 = implicit_solution_check(p1, m1, n1, tol=tol)

    passed = (
        r3.verdict and u3.verdict
        and (not r4.verdict)
        and (not r5.verdict)
        and r5.metrics["cross"] > 1e-3
        and r5.metrics["sym_x"] <= tol
        and r5.metrics["sym_y"] <= tol
        and u1.verdict
    )
    _line(5, "exact equation verdicts", passed,
          f"potentials {max(u3.residual, u1.residual):.2e}, cross {r5.metrics['cross']:.2e}")
    assert passed


def test_criterion_06_exponent_properties():
    HH = make_algebra("quaternion")
    rng = np.random.default_rng(106)
    worst_mul = 0.0
    for _ in range(20):
        a = random_element(HH, rng)
        b = float(rng.uniform(-1, 1)) * one(HH) + float(rng.uniform(-1, 1)) * a
        worst_mul = max(worst_mul, (exp_el(a + b) - exp_el(a) * exp_el(b)).norm())
    i, j = basis(HH, 1), basis(HH, 2)
    gap_ij = (exp_el(i + j) - exp_el(i) * exp_el(j)).norm()
    worst_swap = 0.0
    for _ in range(20):
        a, x = random_element(HH, rng), random_element(HH, rng)
        worst_swap = max(worst_swap, (a * exp_el(x * a) - exp_el(a * x) * a).norm())
    worst_ode = 0.0
    for _ in range(5):
        c, x = random_element(HH, rng), random_element(HH, rng)
        s = 1e-5 * (1 + x.norm())
        fd = (quasiexp([c], x + s * one(HH)) - quasiexp([c], x - s * one(HH))) * (1 / (2 * s))
        worst_ode = max(worst_ode, (fd - quasiexp([c], x)).norm())
    passed = worst_mul <= 1e-10 and gap_ij > 1e-3 and worst_swap <= 1e-10 and worst_ode <= 1e-6
    _line(6, "exponent properties", passed,
          f"commuting {worst_mul:.2e}, gap {gap_ij:.2e}, swap {worst_swap:.2e}, ode {worst_ode:.2e}")
    assert passed


def test_criterion_07_euler_formulas():
    from ncalg.series import cosh_el, sinh_el

    worst = 0.0
    RR = make_algebra("real")
    for t in (0.1, 0.5, 1.0, 2.0):
        x = from_scalar(RR, t)
        worst = max(worst, abs(sinh_el(x).coeffs[0] - 0.5 * (math.exp(t) - math.exp(-t))))
        worst = max(worst, abs(cosh_el(x).coeffs[0] - 0.5 * (math.exp(t) + math.exp(-t))))
    HH = make_algebra("quaternion")
    i, j, k = basis(HH, 1), basis(HH, 2), basis(HH, 3)
    worst_comm = 0.0
    for f in (i, (i + j) * (1 / math.sqrt(2)), 2 * k):
        for t in (0.1, 0.5, 1.0, 2.0):
            tf = t * f
            sh, ch = sinh_el(tf), cosh_el(tf)
            worst = max(worst, (sh - 0.5 * (exp_el(tf) - exp_el(-tf))).norm())
            worst = max(worst, (ch - 0.5 * (exp_el(tf) + exp_el(-tf))).norm())
            worst_comm = max(worst_comm, (sh * f - f * sh).norm(), (ch * f - f * ch).norm())
    passed = worst <= 1e-10 and worst_comm <= 1e-10
    _line(7, "Euler formulas", passed, f"split {worst:.2e}, commutation {worst_comm:.2e}")
    assert passed


def test_criterion_08_ode_cross_check():
    HH = make_algebra("quaternion")
    rng = np.random.default_rng(108)
    ts = np.linspace(0.0, 1.0, 11)
    worst_gap = 0.0
    worst_resid = 0.0
    for form in OdeForm:
        for _ in range(20):
            a = random_matrix(HH, 2, 2, rng, scale=0.5)  # entry norms <= 1
            init = tuple(random_element(HH, rng) for _ in range(2))
            ode = LinearOde(a, form, init)
            closed = closed_form_solution(ode)
            rk = rk4_integrate(ode, 1.0, 10_000)
            for t in ts:
                gap = max((u - v).norm() for u, v in zip(closed(t), rk(t)))
                worst_gap = max(worst_gap, gap)
            worst_resid = max(
                worst_resid, solution_residual(ode, closed, (0.0, 0.5, 1.0)).residual
            )
    passed = worst_gap <= 1e-6 and worst_resid <= 1e-6
    _line(8, "ODE forms vs RK4", passed, f"gap {worst_gap:.2e}, residual {worst_resid:.2e}")
    assert passed


def test_criterion_09_elliptic_nonuniqueness():
    HH = make_algebra("quaternion")
    ode = elliptic_ode(HH)
    ts = (0.0, 0.5, 1.0, 2.0)
    i, j, k = (basis(HH, m) for m in (1, 2, 3))

    rk_steps = 20_000
    rk = rk4_integrate(ode, 2.0, rk_steps)
    sin_cos_gap = max(
        max(abs(rk(t)[0].coeffs[0] - math.sin(t)), abs(rk(t)[1].coeffs[0] - math.cos(t)))
        for t in (0.5, 1.0, 2.0)
    )
    two = elliptic_two_exp_curve(HH)
    r_rk = solution_residual(ode, rk, ts)
    r_two = solution_residual(ode, two, ts)
    init_gap = max((u - v).norm() for u, v in zip(two(0.0), ode.init))
    family_resid = 0.0
    family_init = 0.0
    family = [elliptic_family(c) for c in (zero(HH), one(HH), i)]
    for curve in family:
        family_resid = max(family_resid, solution_residual(ode, curve, ts).residual)
        family_init = max(
            family_init, max((u - v).norm() for u, v in zip(curve(0.0), ode.init))
        )

    base_ok = (
        sin_cos_gap <= 1e-7
        and r_rk.verdict
        and r_two.verdict
        and init_gap == 0.0
        and family_resid <= 1e-6
        and family_init <= 1e-15
    )

    def coeff_gap(x, y):
        return max(float(np.max(np.abs(u.coeffs - v.coeffs))) for u, v in zip(x, y))

    def sin_cos(t):
        return (from_scalar(HH, math.sin(t)), from_scalar(HH, math.cos(t)))

    # (a) Every exponential construction is (sin t, cos t) on all four
    # quaternion coefficients.  The closed forms are a handful of products and
    # sums of O(1) values, so they agree to a few ulps; 1e-14 is about 45 ulps
    # of 1.  The extra pair ((i + j)/sqrt 2, k) covers "any unit imaginary b",
    # not only the default pair (i, j).
    closed = [two, elliptic_two_exp_curve(HH, (i + j) * (1 / math.sqrt(2)), k), *family]
    closed_gap = max(coeff_gap(curve(t), sin_cos(t)) for curve in closed for t in ts)
    # (b) RK4 matches the two-exponential curve.  Its truncation error after
    # rk_steps steps of h = 1e-4 is about t h^4 / 120, below 1e-17; what is left
    # is rounding accumulated over the steps, at most about rk_steps * eps
    # (4.4e-12) for O(1) values.
    rk_bound = rk_steps * np.finfo(float).eps
    rk_gap = max(coeff_gap(rk(t), two(t)) for t in ts)
    coincide = closed_gap <= 1e-14 and rk_gap <= rk_bound

    passed = base_ok and coincide
    _line(9, "elliptic: the second curve coincides with the unique solution", passed,
          f"residuals {max(r_rk.residual, r_two.residual):.2e}, family {family_resid:.2e}, "
          f"closed forms vs (sin, cos) {closed_gap:.2e}, RK4 vs two-exp {rk_gap:.2e}")
    assert base_ok
    assert coincide, (
        "every curve must be the unique solution (sin t, cos t): for b with "
        "b^2 = -1, e^{bt} = cos t + b sin t, so sum C_m e^{b_m t} with "
        "sum C_m = 0 and sum C_m b_m = 1 equals sin t, and the system is "
        "R-linear on the eight real coordinates, so its initial-value problem "
        "has exactly one solution (Picard-Lindeloef); measured closed forms vs "
        f"(sin, cos) {closed_gap:.3e} (bound 1e-14), RK4 vs two-exponential "
        f"{rk_gap:.3e} (bound {rk_bound:.1e})"
    )


def test_criterion_10_rank_and_singularity():
    HH = make_algebra("quaternion")
    rng = np.random.default_rng(110)
    worst_border = 0.0
    ranks_ok = True
    for case in range(50):
        want = 1 + case % 2
        u1 = [random_element(HH, rng) for _ in range(3)]
        v1 = [random_element(HH, rng) for _ in range(3)]
        entries = [[u1[i] * v1[j] for j in range(3)] for i in range(3)]
        if want == 2:
            u2 = [random_element(HH, rng) for _ in range(3)]
            v2 = [random_element(HH, rng) for _ in range(3)]
            entries = [
                [entries[i][j] + u2[i] * v2[j] for j in range(3)] for i in range(3)
            ]
        a = BiMatrix.from_elements(entries)
        k, sel = rc_rank(a)
        ranks_ok = ranks_ok and k == want
        for p in range(3):
            for r in range(3):
                if p in sel.rows or r in sel.cols:
                    continue
                worst_border = max(worst_border, bordered_quasidet(a, sel, p, r).norm())

    rng2 = np.random.default_rng(111)
    classical_ok = True
    for tag, count in (("real", 25), ("complex", 25)):
        alg = make_algebra(tag)
        for idx in range(count):
            if idx % 5 == 4:
                u = [random_element(alg, rng2) for _ in range(3)]
                v = [random_element(alg, rng2) for _ in range(3)]
                a = BiMatrix.from_elements([[u[i] * v[j] for j in range(3)] for i in range(3)])
            else:
                a = random_matrix(alg, 3, 3, rng2)
            k, _ = rc_rank(a)
            arr = a.data[:, :, 0] if tag == "real" else complex_matrix(a)
            classical_ok = classical_ok and k == np.linalg.matrix_rank(arr)
    passed = ranks_ok and worst_border <= 1e-8 and classical_ok
    _line(10, "rank and singularity", passed,
          f"border {worst_border:.2e}, ranks {'ok' if ranks_ok and classical_ok else 'bad'}")
    assert passed

import math
from functools import partial

import numpy as np
import pytest

from ncalg import _kernels, diffeq
from ncalg.algebra import AlgebraError, Element, basis, frobenius, from_scalar, make_algebra, one, random_element, zero
from ncalg.biring import BiMatrix, cr_mul, cr_pow, random_matrix, rc_mul, rc_pow, transpose
from ncalg.diffeq import (
    LinearOde,
    OdeForm,
    SolutionCurve,
    antiderivative_residual,
    closed_form_solution,
    eigen_conditions,
    eigen_solution,
    elliptic_family,
    elliptic_ode,
    elliptic_two_exp_curve,
    exactness_check,
    hyperbolic_ode,
    implicit_solution_check,
    integrability_check,
    rk4_integrate,
    solution_residual,
    successive_powers,
)
from ncalg.report import worst
from ncalg.series import SeriesBudgetError, cosh_el, exp_at, exp_el, mexp_cr, mexp_rc, sinh_el
from ncalg.tensor import (SlotTensor, TensorPolynomial, X, Y, monomial, monomial_derivative, ones_tensor, poly_derivative,
                          symmetric_part, tensor_scale)

import exact
from conftest import dense_symmetric_part, is_plain


def poly(alg, *words, scale=1.0) -> TensorPolynomial:
    """scale times the sum of the unit-coefficient words with these gap labels."""
    return TensorPolynomial([monomial(alg, labels, scale) for labels in words])


def x_square_form(alg) -> TensorPolynomial:
    """h -> x h + h x, the derivative form of x^2."""
    return poly(alg, (X, 0), (0, X))


def three_x_form(alg, scale=1.0) -> TensorPolynomial:
    """h -> 3 x h x."""
    return poly(alg, (X, 0, X), scale=3.0 * scale)


def exact_723(alg, scale=1.0):
    """M = dx + dx y, N = x dy + dy and the potential u = x + x y + y."""
    return (poly(alg, (0,), (0, Y), scale=scale), poly(alg, (X, 0), (0,), scale=scale),
            poly(alg, (X,), (X, Y), (Y,), scale=scale))


def exact_724(alg, scale=1.0):
    """M = 3 x x dx + dx y and N = x dy: exact only where x and dx commute."""
    m = TensorPolynomial([monomial(alg, (X, X, 0), 3.0 * scale), monomial(alg, (0, Y), scale)])
    return m, poly(alg, (X, 0), scale=scale)


def exact_725(alg, scale=1.0):
    """M = dx y and N = dy x: exact only where dx and dy commute."""
    return poly(alg, (0, Y), scale=scale), poly(alg, (0, X), scale=scale)


def separable_712(alg, scale=1.0):
    """M = dx x + x dx, N = dy y + y dy and the potential u = x x + y y."""
    return (poly(alg, (0, X), (X, 0), scale=scale), poly(alg, (0, Y), (Y, 0), scale=scale),
            poly(alg, (X, X), (Y, Y), scale=scale))


def probe_elements(alg, seed, count):
    rng = np.random.default_rng(seed)
    return [random_element(alg, rng) for _ in range(count)]


class TestIntegrability:
    def test_square_form_integrable(self, HH):
        rep = integrability_check(x_square_form(HH))
        assert rep.verdict and rep.residual <= 1e-9

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_cubic_form_not_integrable_quaternion(self, HH, scale):
        rep = integrability_check(three_x_form(HH, scale))
        assert not rep.verdict
        assert rep.residual > 1e-3 * scale
        assert rep.witness is not None and rep.witness["violation"] == rep.residual

    def test_cubic_form_integrable_complex(self, CC):
        rep = integrability_check(three_x_form(CC))
        assert rep.verdict

    @pytest.mark.parametrize("slots", [0, 2])
    def test_form_needs_exactly_one_slot(self, HH, slots):
        g = TensorPolynomial([monomial_derivative(ones_tensor(HH, 2), slots)])
        with pytest.raises(ValueError, match="exactly one argument slot"):
            integrability_check(g)

    @pytest.mark.parametrize("k", [10, 12])
    def test_high_degree_derivative_forms_are_integrable(self, HH, k):
        # D of the derivative form of x^k has order k: C(k + 1, 3) x monomials times 4^3 over H,
        # against 4^(k + 1) entries of the multilinear map
        assert integrability_check(poly_derivative(TensorPolynomial([ones_tensor(HH, k)]))).verdict

    def test_x4_h_x5_integrable_over_c_only(self, HH, CC):
        # x^4 h x^5 = x^9 h over C, the derivative form of x^10 / 10; over H it is not one
        form = poly(CC, (X,) * 4 + (0,) + (X,) * 5)
        assert integrability_check(form).verdict
        rep = integrability_check(poly(HH, (X,) * 4 + (0,) + (X,) * 5))
        assert not rep.verdict
        assert rep.witness["bidegree"] == [8, 0] and len(rep.witness["index"]) == 1 + 8 + 2

    @pytest.mark.parametrize("seed", range(4))
    def test_witness_is_the_largest_entry_of_the_averaged_map(self, HH, seed):
        # D g has two x gaps: monomials of one and of two orderings, which an entry weighted by
        # its orderings would rank differently (it would, for each of these seeds)
        g = random_form(HH, np.random.default_rng(seed), (X, X, 0, X), (X, 0, X, X))
        rep = integrability_check(g)
        (c,) = poly_derivative(g).components
        ref = dense_symmetric_part(c)
        antisym = np.abs(ref - ref.swapaxes(-1, -2))
        at = [int(i) for i in np.unravel_index(np.argmax(antisym), antisym.shape)]
        at[1:3] = sorted(at[1:3])  # the orbit's sorted representative
        assert rep.witness["bidegree"] == [2, 0] and rep.witness["index"] == at


class TestAntiderivative:
    def test_square_solves(self, HH):
        points = probe_elements(HH, 1, 8)
        dirs = probe_elements(HH, 2, 4)
        rep = antiderivative_residual(lambda x: x * x, x_square_form(HH), points, dirs)
        assert rep.verdict and rep.residual <= 1e-6

    def test_cube_fails_over_quaternions(self, HH):
        points = probe_elements(HH, 3, 8)
        dirs = probe_elements(HH, 4, 4)
        rep = antiderivative_residual(lambda x: x * x * x, three_x_form(HH), points, dirs)
        assert not rep.verdict
        assert rep.residual > 1e-2

    def test_cube_solves_over_complexes(self, CC):
        points = probe_elements(CC, 3, 8)
        dirs = probe_elements(CC, 4, 4)
        rep = antiderivative_residual(lambda x: x * x * x, three_x_form(CC), points, dirs)
        assert rep.verdict

    def test_a_refuted_witness_is_plain_data(self, HH):
        points = probe_elements(HH, 3, 8)
        dirs = probe_elements(HH, 4, 4)
        rep = antiderivative_residual(lambda x: x * x * x, three_x_form(HH), points, dirs)
        assert not rep.verdict and is_plain(rep.witness)
        assert rep.witness["residual"] == rep.residual
        assert all(type(c) is float for c in rep.witness["x"] + rep.witness["h"])

    def test_constant_solves_zero_form(self, HH, rng):
        c = random_element(HH, rng)
        rep = antiderivative_residual(
            lambda x: c, lambda x, h: zero(HH), probe_elements(HH, 5, 4), probe_elements(HH, 6, 3)
        )
        assert rep.verdict and rep.residual <= 1e-9


class TestDerivativeTableFixtures:
    def test_sandwich_rule(self, HH, rng):
        # d(b x c) o h = b h c
        b, c = random_element(HH, rng), random_element(HH, rng)
        y = lambda x: b * x * c
        g = lambda x, h: b * h * c
        rep = antiderivative_residual(y, g, probe_elements(HH, 7, 6), probe_elements(HH, 8, 3))
        assert rep.verdict

    def test_product_rule(self, HH, rng):
        # d(f g) o h = (df o h) g + f (dg o h) with f = x^2, g = x^3
        y = lambda x: (x * x) * (x * x * x)

        def g(x, h):
            df = x * h + h * x
            dg = x * x * h + x * h * x + h * x * x
            return df * (x * x * x) + (x * x) * dg

        rep = antiderivative_residual(y, g, probe_elements(HH, 9, 6), probe_elements(HH, 10, 3))
        assert rep.verdict

    def test_integral_table_polynomial_entries(self, HH, rng):
        # primitives certified through the derivative check: b x c, x^2, x^3
        b, c = random_element(HH, rng), random_element(HH, rng)
        points = probe_elements(HH, 11, 5)
        dirs = probe_elements(HH, 12, 3)
        cases = [
            (lambda x: b * x * c, lambda x, h: b * h * c),
            (lambda x: x * x, x_square_form(HH)),
            (lambda x: x * x * x, lambda x, h: x * x * h + x * h * x + h * x * x),
        ]
        for y, g in cases:
            rep = antiderivative_residual(y, g, points, dirs)
            assert rep.verdict, rep.residual

    def test_integral_table_series_entries(self, CC):
        # the exp/cosh/sinh/cos/sin pairs need x and h to commute, so they
        # are certified over the complexes
        from ncalg.series import cos_el, sin_el

        points = probe_elements(CC, 11, 5)
        dirs = probe_elements(CC, 12, 3)
        cases = [
            (lambda x: 2.0 * exp_el(x), lambda x, h: exp_el(x) * h + h * exp_el(x)),
            (lambda x: 2.0 * cosh_el(x), lambda x, h: sinh_el(x) * h + h * sinh_el(x)),
            (lambda x: 2.0 * sinh_el(x), lambda x, h: cosh_el(x) * h + h * cosh_el(x)),
            (lambda x: -2.0 * cos_el(x), lambda x, h: sin_el(x) * h + h * sin_el(x)),
            (lambda x: 2.0 * sin_el(x), lambda x, h: cos_el(x) * h + h * cos_el(x)),
        ]
        for y, g in cases:
            rep = antiderivative_residual(y, g, points, dirs)
            assert rep.verdict, rep.residual

    def test_symmetric_exp_form_fails_over_quaternions(self, HH):
        # e^x h + h e^x is NOT the derivative of 2 e^x once x and h stop
        # commuting; the divided-difference derivative picks up the mixed
        # x^i h x^{n-i} placements
        rep = antiderivative_residual(
            lambda x: 2.0 * exp_el(x),
            lambda x, h: exp_el(x) * h + h * exp_el(x),
            probe_elements(HH, 11, 5),
            probe_elements(HH, 12, 3),
        )
        assert not rep.verdict and rep.residual > 1e-2


class TestExactness:
    def test_exact_with_potential(self, HH):
        m, n, u = exact_723(HH)
        rep = exactness_check(m, n)
        assert rep.verdict and rep.residual <= 1e-5
        sol = implicit_solution_check(u, m, n)
        assert sol.verdict and sol.residual <= 1e-6

    def test_cubic_term_breaks_symmetry(self, HH):
        rep = exactness_check(*exact_724(HH))
        assert not rep.verdict
        assert rep.metrics["sym_x"] > 1e-3  # the x-part fails
        # D_x of 3 x x dx keeps one x gap: value, x and two argument axes
        assert rep.witness["bidegree"] == [1, 0] and len(rep.witness["index"]) == 4

    def test_order_sensitive_cross_condition(self, HH):
        rep = exactness_check(*exact_725(HH))
        assert not rep.verdict
        assert rep.metrics["sym_x"] <= 1e-6 and rep.metrics["sym_y"] <= 1e-6
        assert rep.metrics["cross"] > 1e-3  # dx dy vs dy dx
        assert rep.witness["bidegree"] == [0, 0] and len(rep.witness["index"]) == 3

    def test_separated_variables_potential(self, HH):
        m, n, u = separable_712(HH)
        rep = implicit_solution_check(u, m, n)
        assert rep.verdict

    def test_zero_everything(self, HH):
        z = TensorPolynomial([SlotTensor(HH, 0, 1)])
        rep = implicit_solution_check(TensorPolynomial([SlotTensor(HH, 0, 0)]), z, z)
        assert rep.verdict

    @pytest.mark.parametrize("tag", ["real", "complex"])
    def test_inexact_over_h_is_exact_over_a_commutative_algebra(self, tag):
        alg = make_algebra(tag)
        for forms in (exact_724(alg), exact_725(alg)):
            rep = exactness_check(*forms)
            assert rep.verdict and rep.residual <= 1e-12

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_random_coefficient_forms_pass_at_the_default_tolerance(self, tag, rng):
        # the partials of a potential with random coefficients: their vanishing norms are rounding
        alg = make_algebra(tag)

        def random_poly(*words):
            return TensorPolynomial([SlotTensor(alg, w.count(X), 0, [([random_element(alg, rng) for _ in range(len(w) + 1)], w)
                                                             for _ in range(3)], w.count(Y)) for w in words])

        u = random_poly((X, Y, X), (Y, X, Y, X), (X, X), (Y,))
        m, n = poly_derivative(u), poly_derivative(u, var=Y)
        assert exactness_check(m, n).verdict and implicit_solution_check(u, m, n).verdict
        assert integrability_check(poly_derivative(random_poly((X, X, X), (X, X, X, X)))).verdict

    @pytest.mark.parametrize("slots", [0, 2, pytest.param(None, id="potential")])
    def test_forms_need_exactly_one_slot(self, HH, slots):
        m, n, u = exact_723(HH)
        if slots is None:  # a potential with a slot is refused by name, not as a mixed polynomial
            with pytest.raises(ValueError, match="the potential needs no argument slot"):
                implicit_solution_check(m, m, n)
            return
        bad = poly_derivative(m) if slots else u
        with pytest.raises(ValueError, match="exactly one argument slot"):
            exactness_check(bad, n)
        with pytest.raises(ValueError, match="exactly one argument slot"):
            implicit_solution_check(u, m, bad)


class TestScale:
    """The exact-equation verdicts hold at every scale of the forms: they are symbolic."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("forms", [exact_723, separable_712])
    def test_potential_passes_at_every_scale(self, HH, scale, forms):
        m, n, u = forms(HH, scale)
        ex = exactness_check(m, n)
        sol = implicit_solution_check(u, m, n)
        assert ex.verdict and sol.verdict, (ex.residual, sol.residual)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    @pytest.mark.parametrize("forms, condition", [(exact_724, "sym_x"), (exact_725, "cross")])
    def test_scaled_inexact_forms_are_still_refuted(self, HH, forms, condition, scale):
        rep = exactness_check(*forms(HH, scale))
        assert not rep.verdict and rep.witness["condition"] == condition
        assert rep.witness["violation"] == rep.residual == rep.metrics[condition] > 1e-3 * scale

    @pytest.mark.parametrize("big", [1e5, 1e11, 1e13, 1e15])
    def test_a_large_exact_part_does_not_hide_an_inexact_one(self, HH, big):
        # exact-725 plus big times separable-712's forms, which are exact and add nothing to cross
        (m, n), (bm, bn, _) = exact_725(HH), separable_712(HH, big)
        rep = exactness_check(TensorPolynomial([*m.components, *bm.components]), TensorPolynomial([*n.components, *bn.components]))
        assert not rep.verdict and rep.witness["condition"] == "cross"
        assert rep.metrics == {"sym_x": 0.0, "sym_y": 0.0, "cross": rep.residual} and rep.residual > 1.0
        # 3 x h x plus big times the integrable x h + h x
        rep = integrability_check(TensorPolynomial([*three_x_form(HH).components, *poly(HH, (X, 0), (0, X), scale=big).components]))
        assert not rep.verdict and rep.residual > 1.0

    def test_the_witness_names_the_failing_bidegree(self, HH, rng):
        # the rounding of a large exact part of degree 3 outweighs 3e-8 x h x, yet only the latter fails
        coeffs = [random_element(HH, rng) for _ in range(5)]
        exact = poly_derivative(TensorPolynomial([SlotTensor(HH, 4, 0, [(coeffs, (X,) * 4)])]))
        big = TensorPolynomial([tensor_scale(c, 1e10) for c in exact.components])
        small = three_x_form(HH, 1e-8)
        assert integrability_check(big).residual > 100 * integrability_check(small).residual
        rep = integrability_check(TensorPolynomial([*big.components, *small.components]))
        assert not rep.verdict and rep.witness["bidegree"] == [1, 0]

    def test_a_refuted_residual_is_the_norm_of_the_failing_bidegrees(self, HH, rng):
        # the passing bidegree [2, 0] of the large exact part adds none of its rounding
        coeffs = [random_element(HH, rng) for _ in range(5)]
        exact = poly_derivative(TensorPolynomial([SlotTensor(HH, 4, 0, [(coeffs, (X,) * 4)])]))
        big = TensorPolynomial([tensor_scale(c, 1e10) for c in exact.components])
        small = three_x_form(HH, 1e-8)
        rep = integrability_check(TensorPolynomial([*big.components, *small.components]))
        assert rep.residual == rep.witness["violation"] == integrability_check(small).residual > 0.0


def random_form(alg, rng, *words, slots=1) -> TensorPolynomial:
    """The sum of the words with these gap labels, each with random coefficients."""
    def term(labels):
        coeffs = [random_element(alg, rng) for _ in range(len(labels) + 1)]
        return SlotTensor(alg, labels.count(X), slots, [(coeffs, labels)], labels.count(Y))

    return TensorPolynomial([term(labels) for labels in words])


def swapped(p: TensorPolynomial) -> TensorPolynomial:
    """p with its argument labels 0 and 1 exchanged, term by term."""
    return TensorPolynomial([SlotTensor(c.algebra, c.x_gaps, c.arg_slots,
                                        [(cs, tuple(l if l < 0 else 1 - l for l in ls)) for cs, ls in c.terms],
                                        c.y_gaps) for c in p.components])


def minus(p: TensorPolynomial, q: TensorPolynomial) -> TensorPolynomial:
    return TensorPolynomial([*p.components, *(tensor_scale(c, -1.0) for c in q.components)])


def norm(p: TensorPolynomial) -> float:
    """The summed Frobenius norms of the symmetric parts of p's components."""
    return sum(float(np.linalg.norm(symmetric_part(c))) for c in p.components)


class TestSymbolicReference:
    """Each form check's metric is the norm of its vanishing polynomial, built symbolically."""

    @pytest.fixture(params=["real", "complex", "quaternion"])
    def alg(self, request):
        return make_algebra(request.param)

    @staticmethod
    def assert_matches(metric, reference, *sources):
        assert abs(metric - norm(reference)) <= 1e-13 * sum(norm(q) for q in sources), (metric, norm(reference))

    def test_integrability(self, alg, rng):
        for g in (random_form(alg, rng, (X, 0, X), (X, X, 0), (0,), (X, 0)), x_square_form(alg),
                  TensorPolynomial([SlotTensor(alg, 0, 1)])):
            dg = poly_derivative(g)
            self.assert_matches(integrability_check(g).residual, minus(dg, swapped(dg)), dg)

    def test_exactness(self, alg, rng):
        # D_y M has bidegree [1, 0] and D_x N has [0, 1]; M = 0 is the zero polynomial
        n = random_form(alg, rng, (Y, 0, X), (0, Y), (X, 0, X))
        for m in (random_form(alg, rng, (X, 0, Y), (X, X, 0), (0,)), TensorPolynomial([SlotTensor(alg, 0, 1)])):
            dxm, dym, dxn, dyn = (poly_derivative(f, var=v) for f in (m, n) for v in (X, Y))
            rep = exactness_check(m, n)
            self.assert_matches(rep.metrics["sym_x"], minus(dxm, swapped(dxm)), dxm)
            self.assert_matches(rep.metrics["sym_y"], minus(dyn, swapped(dyn)), dyn)
            self.assert_matches(rep.metrics["cross"], minus(dym, swapped(dxn)), dym, dxn)

    def test_implicit_solution(self, alg, rng):
        u = random_form(alg, rng, (X, Y), (Y, X, X), (X,), slots=0)
        dxu, dyu = poly_derivative(u), poly_derivative(u, var=Y)
        for m, n in ((random_form(alg, rng, (X, 0), (0, Y)), random_form(alg, rng, (Y, 0, X))), (dxu, dyu),
                     (TensorPolynomial([SlotTensor(alg, 0, 1)]), dyu)):
            gaps = [(minus(dxu, m), dxu, m), (minus(dyu, n), dyu, n)]
            self.assert_matches(implicit_solution_check(u, m, n).residual, *max(gaps, key=lambda g: norm(g[0])))


class TestSourceParts:
    """A form check builds one symmetric part per component of its sources, whether it passes or refutes."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count, build = [0], diffeq.symmetric_part

        def counting(s):
            count[0] += 1
            return build(s)

        monkeypatch.setattr(diffeq, "symmetric_part", counting)
        return count

    @staticmethod
    def components(*polys):
        return sum(len(p.components) for p in polys)

    @pytest.mark.parametrize("form, verdict", [(x_square_form, True), (three_x_form, False)])
    def test_integrability(self, HH, builds, form, verdict):
        g = form(HH)
        expected = self.components(poly_derivative(g))
        assert integrability_check(g).verdict is verdict
        assert builds[0] == expected

    @pytest.mark.parametrize("forms, verdict", [(exact_723, True), (separable_712, True), (exact_724, False),
                                                (exact_725, False)])
    def test_exactness(self, HH, builds, forms, verdict):
        m, n = forms(HH)[:2]
        expected = self.components(*(poly_derivative(f, var=v) for f in (m, n) for v in (X, Y)))
        assert exactness_check(m, n).verdict is verdict
        assert builds[0] == expected

    @pytest.mark.parametrize("potential, verdict", [(exact_723, True), (separable_712, False)])
    def test_implicit_solution(self, HH, builds, potential, verdict):
        (m, n, _), (_, _, u) = exact_723(HH), potential(HH)
        expected = self.components(poly_derivative(u), poly_derivative(u, var=Y), m, n)
        assert implicit_solution_check(u, m, n).verdict is verdict
        assert builds[0] == expected


class TestLinearOdeStructure:
    @pytest.mark.parametrize("form", list(OdeForm))
    def test_rhs_component_formulas(self, HH, rng, form):
        a = random_matrix(HH, 3, 3, rng)
        xs = [random_element(HH, rng) for _ in range(3)]
        ode = LinearOde(a, form, tuple(xs))
        got = ode.rhs(xs)
        for idx in range(3):
            expected = zero(HH)
            for j in range(3):
                if form is OdeForm.RC_LEFT:
                    expected = expected + a.entry(idx, j) * xs[j]
                elif form is OdeForm.CR_RIGHT:
                    expected = expected + xs[j] * a.entry(idx, j)
                elif form is OdeForm.CR_LEFT:
                    expected = expected + a.entry(j, idx) * xs[j]
                else:
                    expected = expected + xs[j] * a.entry(j, idx)
            assert got[idx].close(expected, 1e-12)

    @pytest.mark.parametrize("form", list(OdeForm))
    def test_real_matrix_matches_rhs(self, HH, rng, form):
        a = random_matrix(HH, 2, 2, rng)
        xs = [random_element(HH, rng) for _ in range(2)]
        ode = LinearOde(a, form, tuple(xs))
        flat = np.concatenate([x.coeffs for x in xs])
        via_matrix = ode.real_matrix() @ flat
        direct = np.concatenate([e.coeffs for e in ode.rhs(xs)])
        assert np.allclose(via_matrix, direct, atol=1e-12)

    def test_shape_validation(self, HH, rng):
        a = random_matrix(HH, 2, 3, rng)
        with pytest.raises(ValueError):
            LinearOde(a, OdeForm.RC_LEFT, (zero(HH), zero(HH)))

    @pytest.mark.parametrize("form", list(OdeForm))
    def test_state_from_another_algebra_or_of_another_length_raises(self, HH, CC, rng, form):
        ode = LinearOde(random_matrix(HH, 2, 2, rng), form, (one(HH), zero(HH)))
        # four complex entries carry the 8 coefficients of two quaternions
        for xs in ([one(CC)] * 4, [one(CC)] * 2, [one(HH), one(CC)], [one(HH)] * 3, [one(HH)]):
            with pytest.raises(AlgebraError):
                ode.rhs(xs)
            with pytest.raises(AlgebraError):
                LinearOde(ode.a, form, tuple(xs))

    @pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("form", list(OdeForm))
    def test_non_finite_coefficient_or_initial_value_raises(self, HH, rng, form, v):
        a = random_matrix(HH, 2, 2, rng)
        bad = a.data.copy()
        bad[0, 1, 2] = v
        init = (one(HH), zero(HH))
        with pytest.raises(AlgebraError):
            LinearOde(BiMatrix(HH, bad), form, init)
        with pytest.raises(AlgebraError):
            LinearOde(a, form, (one(HH), Element(HH, [0.0, v, 0.0, 0.0])))


class TestClosedForm:
    def test_hyperbolic_values(self, RR):
        curve = closed_form_solution(hyperbolic_ode(RR))
        x1, x2 = curve(1.0)
        assert abs(x1.coeffs[0] - 1.1752011936438014) <= 1e-12  # sinh 1
        assert abs(x2.coeffs[0] - 1.5430806348152437) <= 1e-12  # cosh 1

    def test_zero_matrix_constant(self, HH, rng):
        init = tuple(random_element(HH, rng) for _ in range(2))
        ode = LinearOde(BiMatrix.zeros(HH, 2, 2), OdeForm.RC_LEFT, init)
        curve = closed_form_solution(ode)
        for t in (0.0, 0.7, 2.0):
            assert all(u.close(v, 1e-12) for u, v in zip(curve(t), init))

    def test_quaternion_offdiagonal(self, HH):
        f = basis(HH, 1)
        curve = closed_form_solution(hyperbolic_ode(HH, f))
        t = 0.9
        x1, x2 = curve(t)
        assert x1.close(sinh_el(t * f), 1e-11)
        assert x2.close(cosh_el(t * f), 1e-11)

    def test_initial_value_exact(self, HH, rng):
        for form in OdeForm:
            a = random_matrix(HH, 2, 2, rng)
            init = tuple(random_element(HH, rng) for _ in range(2))
            curve = closed_form_solution(LinearOde(a, form, init))
            assert all(u.close(v, 0.0) for u, v in zip(curve(0.0), init))


class TestClosedFormReference:
    """e^{tM} vec(x(0)) against the product it replaced, kept as the reference.

    The reference multiplies the initial column by mexp_rc (left forms) or
    mexp_cr (right forms) of the column-form coefficient c. Both sides round
    the same exponential of rho(t c); the reference also projects it through
    unrho and multiplies in another order, so they agree within
    256 u ||e^{tM}||_inf ||x(0)||_inf (about 20 u is seen).
    """

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    @pytest.mark.parametrize("form", list(OdeForm))
    def test_matches_the_matrix_exponential_product(self, rng, tag, form):
        alg = make_algebra(tag)
        left = form in (OdeForm.RC_LEFT, OdeForm.CR_LEFT)
        for n in (1, 2, 3):
            a = random_matrix(alg, n, n, rng)
            init = tuple(random_element(alg, rng) for _ in range(n))
            curve = closed_form_solution(LinearOde(a, form, init))
            c = transpose(a) if form in (OdeForm.CR_LEFT, OdeForm.RC_RIGHT) else a
            col = BiMatrix.from_elements([[x] for x in init])
            for t in (-1.3, 0.4, 2.0):
                e = mexp_rc(c * t) if left else mexp_cr(c * t)
                ref = (rc_mul(e, col) if left else cr_mul(col, e)).data[:, 0]
                got = np.stack([x.coeffs for x in curve(t)])
                # each row of rho(e) holds every coefficient of one row of e once
                e_norm = np.abs(e.data).sum(axis=(1, 2)).max()
                assert np.abs(got - ref).max() <= 256 * np.finfo(float).eps * e_norm * np.abs(col.data).max()


class TestSuccessivePowers:
    def test_hyperbolic_alternation(self, RR):
        ode = hyperbolic_ode(RR)
        powers = successive_powers(ode, 3)
        d = BiMatrix.identity(RR, 2)
        assert powers[0].close(d, 0.0)
        assert powers[2].close(d, 0.0)
        assert powers[1].close(ode.a, 0.0) and powers[3].close(ode.a, 0.0)

    def test_quaternion_f_matrix(self, HH, rng):
        f = random_element(HH, rng)
        ode = hyperbolic_ode(HH, f)
        powers = successive_powers(ode, 3)
        z = zero(HH)
        f2, f3 = f * f, f * f * f
        assert powers[2].close(BiMatrix.from_elements([[f2, z], [z, f2]]), 1e-12)
        assert powers[3].close(BiMatrix.from_elements([[z, f3], [f3, z]]), 1e-12)

    def test_zeroth_only(self, HH, rng):
        ode = LinearOde(random_matrix(HH, 2, 2, rng), OdeForm.CR_LEFT, (zero(HH), one(HH)))
        assert len(successive_powers(ode, 0)) == 1

    def test_a_negative_power_is_refused(self, HH, rng):
        # as rc_pow and cr_pow refuse it
        ode = LinearOde(random_matrix(HH, 2, 2, rng), OdeForm.CR_LEFT, (zero(HH), one(HH)))
        with pytest.raises(ValueError, match="^power must be >= 0$"):
            successive_powers(ode, -1)

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_powers_of_integer_matrices_are_exact(self, tag):
        """Each power is exact.power of the ode's product, as numbers (a zero may come back with either sign).

        Entries in [-3, 3], n <= 4 and k <= 6: every partial sum of each
        product by rho(a) is bounded by the matching entry of |rho(a)|^k,
        which the test checks is below 2^53, so the float route rounds nothing.
        """
        alg = make_algebra(tag)
        rng = np.random.default_rng(21)
        for n in range(1, 5):
            for form in OdeForm:
                ints = rng.integers(-3, 4, (n, n, alg.dim))
                bound = np.abs(_kernels.rho(alg.table, ints).astype(np.int64))
                assert np.linalg.matrix_power(bound, 6).max() < 2 ** 53
                ode = LinearOde(BiMatrix(alg, ints), form, (zero(alg),) * n)
                product = exact.rc_mul if form in (OdeForm.RC_LEFT, OdeForm.RC_RIGHT) else exact.cr_mul
                for k, power in enumerate(successive_powers(ode, 6)):
                    assert np.array_equal(power.data, exact.power(product, ints.tolist(), k)), (n, form, k)

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_powers_match_rc_pow_and_cr_pow(self, tag):
        alg = make_algebra(tag)
        rng = np.random.default_rng(22)
        for n in range(1, 5):
            for form in OdeForm:
                ode = LinearOde(random_matrix(alg, n, n, rng), form, tuple(random_element(alg, rng) for _ in range(n)))
                power = rc_pow if form in (OdeForm.RC_LEFT, OdeForm.RC_RIGHT) else cr_pow
                powers = successive_powers(ode, 8)
                assert len(powers) == 9
                for k, got in enumerate(powers):
                    assert got.close(power(ode.a, k), 1e-13), (n, form, k)


class TestEigenSolutions:
    def test_offdiag_negative_eigenvalue(self, HH, rng):
        f = random_element(HH, rng)
        ode = hyperbolic_ode(HH, f)
        curve = eigen_solution(-f, [one(HH), -one(HH)], side="left")
        rep = solution_residual(ode, curve, (0.0, 0.5, 1.0))
        assert rep.verdict, rep.residual

    def test_tiny_vector_is_nonzero(self, HH):
        # the norm of 1e-200 underflows to 0, but the vector is not zero
        c = [from_scalar(HH, 1e-200), zero(HH)]
        curve = eigen_solution(basis(HH, 1), c, side="left")
        assert curve(0.0)[0].close(c[0], 0.0)
        with pytest.raises(ValueError):
            eigen_solution(basis(HH, 1), [zero(HH), zero(HH)])

    def test_zero_eigenvalue_constant(self, HH, rng):
        c = [random_element(HH, rng)]
        curve = eigen_solution(zero(HH), c, side="right")
        assert curve(3.0)[0].close(c[0], 1e-12)

    def test_conditions_not_met_flagged(self, HH):
        i, j, k = basis(HH, 1), basis(HH, 2), basis(HH, 3)
        z = zero(HH)
        ode = LinearOde(BiMatrix.from_elements([[i, z], [z, j]]), OdeForm.RC_LEFT, (one(HH), k))
        rep = eigen_conditions(ode, i, [one(HH), k])
        assert not rep.verdict
        assert rep.metrics["note"] == "conditions not met"
        # and the corresponding curve indeed fails the equation
        curve = eigen_solution(i, [one(HH), k], side="left")
        assert not solution_residual(ode, curve, (0.5, 1.0)).verdict

    def test_a_small_eigenvalue_does_not_commute(self, HH):
        # i and j do not commute at any scale: the test is relative to |b| |c|
        j = basis(HH, 2)
        ode = LinearOde(BiMatrix.from_elements([[j, j], [j, j]]), OdeForm.RC_LEFT, (j, j))
        rep = eigen_conditions(ode, 1e-10 * basis(HH, 1), [j, j])
        assert not rep.verdict and rep.metrics["note"] == "conditions not met"

    def test_conditions_met_either_way(self, HH):
        i = basis(HH, 1)
        z = zero(HH)
        a = BiMatrix.from_elements([[z, i], [i, z]])
        ode = LinearOde(a, OdeForm.RC_LEFT, (one(HH), one(HH)))
        assert eigen_conditions(ode, i, [one(HH), one(HH)]).verdict


class TestRk4:
    def test_hyperbolic_against_math(self, RR):
        curve = rk4_integrate(hyperbolic_ode(RR), 1.0, 1000)
        x1, x2 = curve(1.0)
        assert abs(x1.coeffs[0] - math.sinh(1.0)) <= 1e-9
        assert abs(x2.coeffs[0] - math.cosh(1.0)) <= 1e-9

    def test_zero_matrix(self, HH, rng):
        init = tuple(random_element(HH, rng) for _ in range(2))
        curve = rk4_integrate(LinearOde(BiMatrix.zeros(HH, 2, 2), OdeForm.RC_RIGHT, init), 1.0, 100)
        assert all(u.close(v, 1e-12) for u, v in zip(curve(0.63), init))

    def test_elliptic_real_gives_sin_cos(self, RR):
        curve = rk4_integrate(elliptic_ode(RR), 2.0, 4000)
        for t in (0.5, 1.0, 2.0):
            x1, x2 = curve(t)
            assert abs(x1.coeffs[0] - math.sin(t)) <= 1e-9
            assert abs(x2.coeffs[0] - math.cos(t)) <= 1e-9

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_time_is_a_typed_error(self, HH, t):
        ode = elliptic_ode(HH)
        with pytest.raises(AlgebraError, match="finite"):
            rk4_integrate(ode, t, 10)
        with pytest.raises(AlgebraError, match="finite"):
            rk4_integrate(ode, 1.0, 10)(t)

    # the step size (0.1 tol)^(1/4) makes the O(h^4) global error a tenth of tol
    def test_steps_rule(self):
        steps = diffeq._rk4_steps(1.0, (0.1 * 1e-6) ** 0.25)
        assert (1.0 / steps) ** 4 <= 0.1 * 1e-6

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_steps_rule_refuses_a_non_finite_time(self, t):
        with pytest.raises(AlgebraError, match="finite"):
            diffeq._rk4_steps(t, (0.1 * 1e-6) ** 0.25)

    @pytest.mark.parametrize("form", list(OdeForm))
    def test_steps_rule_meets_its_tol_against_the_closed_form(self, HH, rng, form):
        ode = LinearOde(random_matrix(HH, 2, 2, rng, scale=0.5), form,
                        tuple(random_element(HH, rng) for _ in range(2)))
        steps = int(diffeq._rk4_steps(1.0, (0.1 * 1e-8) ** 0.25))
        rk, closed = rk4_integrate(ode, 1.0, steps), closed_form_solution(ode)
        for t in np.linspace(0.0, 1.0, 5):
            assert max((u - v).norm() for u, v in zip(closed(t), rk(t))) <= 1e-8


class TestResiduals:
    def test_closed_form_residual_small(self, HH, rng):
        for form in OdeForm:
            a = random_matrix(HH, 2, 2, rng, scale=0.5)
            init = tuple(random_element(HH, rng) for _ in range(2))
            ode = LinearOde(a, form, init)
            rep = solution_residual(ode, closed_form_solution(ode), (0.0, 0.5, 1.0, 2.0))
            assert rep.verdict, (form, rep.residual)

    def test_wrong_curve_rejected(self, HH):
        ode = elliptic_ode(HH)
        bad = SolutionCurve(
            lambda t: (from_scalar(HH, math.sin(t)), from_scalar(HH, math.sin(t))), "user"
        )
        rep = solution_residual(ode, bad, (0.5, 1.0))
        assert not rep.verdict and rep.residual > 0.1

    def test_a_refuted_witness_is_plain_data_for_numpy_times(self, HH):
        ode = elliptic_ode(HH)
        bad = SolutionCurve(
            lambda t: (from_scalar(HH, math.sin(t)), from_scalar(HH, math.sin(t))), "user"
        )
        rep = solution_residual(ode, bad, np.array([0.5, 1.0]))
        assert not rep.verdict and is_plain(rep.witness)
        assert type(rep.witness["t"]) is float and type(rep.witness["residual"]) is float


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_exponential_curves_refuse_a_non_finite_time_before_any_arithmetic(HH, t):
    """0 * inf would warn and make a NaN; the time is refused first."""
    curves = [closed_form_solution(elliptic_ode(HH)), eigen_solution(basis(HH, 1), [one(HH)]),
              elliptic_two_exp_curve(HH), elliptic_family(one(HH))]
    for curve in curves:
        with pytest.raises(SeriesBudgetError, match="non-finite time"):
            curve(t)


class TestEllipticCurves:
    def test_two_exp_curve_solves_with_exact_init(self, HH):
        ode = elliptic_ode(HH)
        curve = elliptic_two_exp_curve(HH)
        assert all(u.close(v, 0.0) for u, v in zip(curve(0.0), ode.init))
        rep = solution_residual(ode, curve, (0.0, 0.5, 1.0, 2.0))
        assert rep.verdict, rep.residual

    def test_family_solves_for_several_parameters(self, HH):
        ode = elliptic_ode(HH)
        for c in (zero(HH), one(HH), basis(HH, 1)):
            curve = elliptic_family(c)
            assert all(u.close(v, 1e-15) for u, v in zip(curve(0.0), ode.init))
            rep = solution_residual(ode, curve, (0.0, 0.5, 1.0, 2.0))
            assert rep.verdict, rep.residual

    def test_family_at_zero_parameter_reduces_to_two_terms(self, HH):
        # C = 0 kills the e^{it} coefficient: x1 = ((j-k)/2)(e^{kt} - e^{jt})
        j, k = basis(HH, 2), basis(HH, 3)
        curve = elliptic_family(zero(HH))
        from ncalg.series import exp_at

        for t in (0.4, 1.1):
            expected = 0.5 * ((j - k) * (exp_at(k, t) - exp_at(j, t)))
            assert curve(t)[0].close(expected, 1e-12)

    def test_two_exp_curve_is_sin_cos_at_t_20(self, HH):
        x1, x2 = elliptic_two_exp_curve(HH)(20.0)
        assert x1.close(from_scalar(HH, math.sin(20.0)), 1e-13)
        assert x2.close(from_scalar(HH, math.cos(20.0)), 1e-13)


def test_report_data_form():
    from ncalg.report import Report

    rep = Report(verdict=False, residual=0.25, witness={"t": 1.0})
    data = rep.to_data()
    assert data == {"verdict": False, "residual": 0.25, "witness": {"t": 1.0}}


def _empty_probe_checks(alg):
    """Every finite-difference checker called with nothing to check, by name."""
    g = x_square_form(alg)
    pts = probe_elements(alg, 5, 2)
    ode = elliptic_ode(alg)
    return {
        "antiderivative-points": lambda: antiderivative_residual(lambda x: x * x, g, [], pts),
        "antiderivative-dirs": lambda: antiderivative_residual(lambda x: x * x, g, pts, []),
        "solution": lambda: solution_residual(ode, closed_form_solution(ode), []),
    }


@pytest.mark.parametrize("name", sorted(_empty_probe_checks(make_algebra("quaternion"))))
def test_a_check_without_probes_raises(HH, name):
    # a verdict over no probe would certify anything, a wrong antiderivative included
    with pytest.raises(ValueError, match="at least one probe"):
        _empty_probe_checks(HH)[name]()


class TestFormDuality:
    """Row forms are the column forms of the transposed coefficient matrix."""

    @pytest.mark.parametrize("row, column", [(OdeForm.CR_LEFT, OdeForm.RC_LEFT),
                                             (OdeForm.RC_RIGHT, OdeForm.CR_RIGHT)],
                             ids=["cr_left-rc_left", "rc_right-cr_right"])
    def test_row_form_equals_column_form_of_transpose(self, HH, rng, row, column):
        a = random_matrix(HH, 3, 3, rng)
        init = tuple(random_element(HH, rng) for _ in range(3))
        xs = [random_element(HH, rng) for _ in range(3)]
        r, c = LinearOde(a, row, init), LinearOde(transpose(a), column, init)

        def same(us, vs):
            return all(np.array_equal(u.coeffs, v.coeffs) for u, v in zip(us, vs))

        assert np.array_equal(r.real_matrix(), c.real_matrix())
        assert same(r.rhs(xs), c.rhs(xs))
        r_curve, c_curve = closed_form_solution(r), closed_form_solution(c)
        for t in (0.0, 0.4, -1.3, 2.0):
            assert same(r_curve(t), c_curve(t))


class TestNaNResiduals:
    """A NaN residual refutes a check and is its witness; it never passes as 0."""

    def test_worst_ranks_the_first_nan_above_every_number(self):
        first = float("nan")
        assert worst([]) == 0.0
        assert worst([1.0, 3.0, 2.0]) == 3.0
        assert worst([1.0, first, 5.0, math.nan]) is first

    def test_nan_antiderivative_is_refuted(self, HH):
        pts = probe_elements(HH, 5, 4)
        rep = antiderivative_residual(lambda x: Element(HH, [math.nan] * 4), x_square_form(HH), pts, pts)
        assert not rep.verdict and math.isnan(rep.residual)
        assert rep.witness["x"] == list(pts[0].coeffs) and rep.witness["h"] == list(pts[0].coeffs)

    def test_nan_probe_between_finite_ones_is_the_witness(self, HH):
        pts = probe_elements(HH, 6, 4)
        nan = Element(HH, [math.nan] * 4)
        rep = antiderivative_residual(lambda x: x * x * 2.0,  # finite but wrong everywhere
                                      lambda x, h: nan if x is pts[2] else x * h + h * x, pts, pts[:1])
        assert not rep.verdict and math.isnan(rep.residual)
        assert rep.witness["x"] == list(pts[2].coeffs)

    def test_nan_only_in_the_cross_condition_is_refuted(self, HH):
        # M = NaN dx y has no x gap, so its NaN reaches only D_y M, which
        # only the cross condition reads
        m = poly(HH, (0, Y), scale=math.nan)
        n = poly(HH, (0, X))
        rep = exactness_check(m, n)
        assert rep.metrics["sym_x"] == rep.metrics["sym_y"] == 0.0
        assert math.isnan(rep.metrics["cross"])
        assert not rep.verdict and math.isnan(rep.residual)
        assert rep.witness["condition"] == "cross"

    def test_nan_in_one_partial_refutes_the_implicit_solution(self, HH):
        # the x partial is exact, so only the NaN y partial can refute
        rep = implicit_solution_check(poly(HH, (X,)), poly(HH, (0,)), poly(HH, (0,), scale=math.nan))
        assert not rep.verdict and math.isnan(rep.residual)

    def test_rk4_overflow_to_nan_refutes_the_solution(self, HH):
        # RK4 is unstable at h * lambda = 50 and overflows to NaN from t = 100 on
        ode = LinearOde(elliptic_ode(HH).a * 50.0, OdeForm.RC_LEFT, (zero(HH), one(HH)))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = solution_residual(ode, rk4_integrate(ode, 1000, 1000), (0.5, 100.0, 500.0))
        assert not rep.verdict and math.isnan(rep.residual)
        assert rep.witness["t"] == 100.0 and math.isnan(rep.witness["residual"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("check", ["integrability", "exactness", "implicit"])
def test_a_non_finite_form_coefficient_is_a_typed_error_or_a_refutation(tag, bad, check):
    """An infinite coefficient raises AlgebraError before any table product;
    a NaN one stays a refutation with a NaN residual."""
    alg = make_algebra(tag)
    coeff = Element(alg, [bad] + [0.0] * (alg.dim - 1))
    m = TensorPolynomial([SlotTensor(alg, 1, 1, [((coeff, one(alg), one(alg)), (X, 0))])])  # h -> c x h
    n = poly(alg, (0,))
    run = {"integrability": lambda: integrability_check(m),
           "exactness": lambda: exactness_check(m, n),
           "implicit": lambda: implicit_solution_check(TensorPolynomial([monomial(alg, (X, X))]), m, n)}[check]
    if math.isinf(bad):
        with pytest.raises(AlgebraError):
            run()
    else:
        rep = run()
        assert not rep.verdict and math.isnan(rep.residual)


# ---------------------------------------------------------------------------
# batched curve evaluation: values(ts) and solution_residual against curve(t)

GRID = (0.0, 1e-5, -1e-5, 0.5, 1.0, 2.0, -0.75)


def _per_time_residual(ode, curve, ts, tol=diffeq.FD_TOL):
    """solution_residual as one curve(t) call per probe time and one ode.rhs per time."""
    def gaps():
        for t in ts:
            fd = diffeq._central(lambda e: np.stack([x.coeffs for x in curve(t + e)]), diffeq._fd_step(abs(t)))
            rhs = ode.rhs(curve(t))
            for i in range(ode.size):
                r = frobenius(fd[i] - rhs[i].coeffs)
                yield r, r <= tol, {"t": float(t), "component": i, "residual": r}

    return diffeq._judge(gaps(), provenance=curve.provenance)


def _every_kind_of_curve(alg):
    """(ode, curve) pairs: batched and evaluator-only curves, some that solve their system, some refuted."""
    rng = np.random.default_rng(2727)
    out = []
    for form in OdeForm:
        ode = LinearOde(random_matrix(alg, 2, 2, rng, scale=0.5), form,
                        tuple(random_element(alg, rng) for _ in range(2)))
        out += [(ode, closed_form_solution(ode)), (ode, rk4_integrate(ode, 1.0, 10_000)),
                (ode, rk4_integrate(ode, 1.0, 3))]  # too few steps: refuted
    big = LinearOde(random_matrix(alg, 2, 2, np.random.default_rng(0), scale=10.0), OdeForm.RC_LEFT,
                    tuple(random_element(alg, np.random.default_rng(1)) for _ in range(2)))
    out.append((big, closed_form_solution(big)))  # refuted at scale by the absolute FD_TOL
    f = random_element(alg, rng)
    out.append((hyperbolic_ode(alg, f), eigen_solution(-f, [one(alg), -one(alg)])))
    ell = elliptic_ode(alg)
    out.append((ell, SolutionCurve(lambda t: (from_scalar(alg, math.sin(t)),) * 2, "user")))
    if alg.tag == "quaternion":
        out.append((ell, elliptic_two_exp_curve(alg)))
        # unit imaginary b's whose coefficients are not 0 or +-1 (Element products round)
        b1, b2 = (Element(alg, [0.0, *v / np.linalg.norm(v)]) for v in rng.standard_normal((2, 3)))
        out.append((ell, elliptic_two_exp_curve(alg, b1, b2)))
        out += [(ell, elliptic_family(c)) for c in (zero(alg), one(alg), basis(alg, 1))]
    return out


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_values_has_the_bytes_of_curve_t_at_every_time(tag):
    for _, curve in _every_kind_of_curve(make_algebra(tag)):
        got = curve.values(GRID)
        assert got.shape[0] == len(GRID)
        for t, state in zip(GRID, got):
            want = np.array([x.coeffs for x in curve(t)])
            assert state.tobytes() == want.tobytes(), (curve.provenance, t)


def _two_exp_states(b1, b2, t):
    """(C (e^{b1 t} - e^{b2 t}), C (b1 e^{b1 t} - b2 e^{b2 t})), C = (b1 - b2)^-1, in Element products."""
    c, e1, e2 = (b1 - b2).inv(), exp_at(b1, t), exp_at(b2, t)
    return c * (e1 - e2), c * (b1 * e1 - b2 * e2)


def _family_states(pairs, t):
    """(sum C e^{bt}, sum C (b e^{bt})) over the (C, b) pairs, summed from zero in Element products."""
    x1 = x2 = zero(pairs[0][0].algebra)
    for coeff, b in pairs:
        e = exp_at(b, t)
        x1 = x1 + coeff * e
        x2 = x2 + coeff * (b * e)
    return x1, x2


def test_elliptic_curves_have_the_bytes_of_their_element_product_formulas(HH):
    e0, i, j, k = (basis(HH, m) for m in range(4))
    b1, b2 = (Element(HH, [0.0, *v / np.linalg.norm(v)]) for v in np.random.default_rng(3).standard_normal((2, 3)))
    cases = [(elliptic_two_exp_curve(HH, b1, b2), partial(_two_exp_states, b1, b2))
             for b1, b2 in ((i, j), (b1, b2))]
    for p in (zero(HH), one(HH), i, Element(HH, [0.3, -1.2, 0.5, 2.0])):
        c2, c3 = 0.5 * (-(j - k) + p * (-e0 + i + j + k)), 0.5 * ((j - k) - p * (e0 + i + j + k))
        cases.append((elliptic_family(p), partial(_family_states, ((p, i), (c2, j), (c3, k)))))
    for curve, states in cases:
        for t in (*GRID, -1.3, 3.7):
            want = np.array([x.coeffs for x in states(t)])
            assert np.array([x.coeffs for x in curve(t)]).tobytes() == want.tobytes(), (curve.provenance, t)


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_solution_residual_equals_the_per_time_loop(tag):
    verdicts = set()
    for ode, curve in _every_kind_of_curve(make_algebra(tag)):
        for ts in ((0.0, 0.5, 1.0, 2.0), np.array([0.25, -1.0]), [3.0]):
            rep = solution_residual(ode, curve, ts)
            assert repr(rep) == repr(_per_time_residual(ode, curve, ts)), curve.provenance
            verdicts.add(rep.verdict)
    assert verdicts == {True, False}


def test_values_at_a_non_finite_time_raises_the_typed_error_of_curve_t(HH):
    ode = elliptic_ode(HH)
    for curve in (closed_form_solution(ode), elliptic_two_exp_curve(HH), elliptic_family(one(HH))):
        with pytest.raises(SeriesBudgetError, match="non-finite time"):
            curve.values([0.5, math.nan])
    with pytest.raises(AlgebraError, match="finite"):
        rk4_integrate(ode, 1.0, 10).values([0.5, math.inf])


def test_an_rk4_state_that_overflows_is_a_typed_error(HH):
    ode = LinearOde(random_matrix(HH, 2, 2, np.random.default_rng(0), scale=200.0), OdeForm.RC_LEFT,
                    (one(HH), one(HH)))
    curve = rk4_integrate(ode, 1.0, 10)
    with pytest.raises(AlgebraError, match="overflows"):
        curve(50.0)
    with pytest.raises(SeriesBudgetError, match="overflows"):
        closed_form_solution(ode)(50.0)
    # the batch keeps the state, for the residual check to refute
    assert not np.isfinite(curve.values([50.0])).all()
    rep = solution_residual(ode, curve, (0.5, 50.0))
    assert not rep.verdict and math.isnan(rep.residual) and rep.witness["t"] == 50.0


@pytest.mark.filterwarnings("error")
def test_a_closed_form_state_that_overflows_past_a_finite_exponential_is_a_typed_error(RR):
    # e^700 ~ 1e304 is finite; the state 1e10 e^700 is not
    ode = LinearOde(BiMatrix(RR, np.ones((1, 1, 1))), OdeForm.RC_LEFT, (Element(RR, [1e10]),))
    curve = closed_form_solution(ode)
    with pytest.raises(SeriesBudgetError, match="t = 700.0"):
        curve(700.0)
    # the batch keeps the state, for the residual check to refute
    assert np.isinf(curve.values([0.5, 700.0])[1]).all()


@pytest.mark.filterwarnings("error")
def test_a_closed_form_residual_that_overflows_refutes_without_a_warning(HH):
    ode = LinearOde(BiMatrix(HH, np.array([[[1.0, 0.0, 0.0, 0.0]]])), OdeForm.CR_RIGHT,
                    (Element(HH, [1e10, 1e10, 0.0, 0.0]),))
    rep = solution_residual(ode, closed_form_solution(ode), (0.5, 700.0))
    assert not rep.verdict and math.isnan(rep.residual) and rep.witness["t"] == 700.0


@pytest.mark.filterwarnings("error")
def test_an_infinite_state_refutes_without_a_warning(HH):
    inf = Element(HH, [math.inf] * 4)
    rep = solution_residual(elliptic_ode(HH), SolutionCurve(lambda t: (inf, inf), "user"), (0.5, 1.0))
    assert not rep.verdict and math.isnan(rep.residual) and rep.witness["t"] == 0.5


def test_rk4_values_past_int64_step_counts_match_curve_t(HH):
    # 1e300 / (1 / 100) steps do not fit an int64: those counts are powered in float64
    curve = rk4_integrate(LinearOde(BiMatrix.zeros(HH, 2, 2), OdeForm.RC_LEFT, (one(HH), basis(HH, 2))), 1.0, 100)
    ts = (0.5, 1e300, -1e300)
    for t, state in zip(ts, curve.values(ts)):
        assert state.tobytes() == np.array([x.coeffs for x in curve(t)]).tobytes()


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_values_on_an_empty_grid_is_an_empty_stack_of_states(tag):
    alg = make_algebra(tag)
    kinds = set()
    for ode, curve in _every_kind_of_curve(alg):
        got = curve.values([])
        assert got.shape == (0, ode.size, alg.dim) and got.dtype == float, curve.provenance
        kinds.add(curve.provenance)
    if tag == "quaternion":
        assert {"closed-form", "rk4", "eigen", "two-exponential", "three-exponential-family"} <= kinds


# ---------------------------------------------------------------------------
# the states of many systems at once against each system's own curve

STATE_TIMES = (0.0, 1e-5, -1e-5, 0.5, 1.0, 2.0, -0.75, 0.0)


def _systems(alg, n, rng):
    """Two random systems of size n in each product form."""
    return [LinearOde(random_matrix(alg, n, n, rng, scale=0.5), form, tuple(random_element(alg, rng) for _ in range(n)))
            for form in OdeForm for _ in range(2)]


def _stacks(odes):
    """The (k, p, p) stack of real matrices and the (k, p) stack of initial vectors of the systems."""
    return np.stack([ode.real_matrix() for ode in odes]), np.stack([diffeq._vec(ode.init) for ode in odes])


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_multi_system_states_have_the_bytes_of_each_curve(tag, n):
    alg = make_algebra(tag)
    odes = _systems(alg, n, np.random.default_rng(n))
    m, x0 = _stacks(odes)
    ts = np.array(STATE_TIMES)
    closed = diffeq._closed_form_states(m, x0, ts)
    rk = diffeq._rk4_states(m, x0, ts, diffeq._rk4_step_target(1.0, 1000))
    assert closed.shape == rk.shape == (len(odes), len(ts), n * alg.dim)
    for i, ode in enumerate(odes):
        assert closed[i].tobytes() == closed_form_solution(ode).values(ts).tobytes(), (ode.form, i)
        assert rk[i].tobytes() == rk4_integrate(ode, 1.0, 1000).values(ts).tobytes(), (ode.form, i)


# t = 0, the finite-difference probes, negative and repeated times, and 40
SWEEP_TIMES = (0.0, 1e-5, -1e-5, 0.5, -0.75, 1e-5, 2.0, -3.0, 0.5, 40.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_closed_form_grid_state_has_the_bytes_of_curve_t(tag, n):
    alg = make_algebra(tag)
    odes = _systems(alg, n, np.random.default_rng(40 + n))
    m, x0 = _stacks(odes)
    closed = diffeq._closed_form_states(m, x0, np.array(SWEEP_TIMES))
    assert {ode.form for ode in odes} == set(OdeForm)
    for ode, states in zip(odes, closed):
        curve = closed_form_solution(ode)
        for t, state in zip(SWEEP_TIMES, states):
            assert state.tobytes() == diffeq._vec(curve(t)).tobytes(), (ode.form, t)


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_the_real_matrices_of_a_stack_have_the_bytes_of_each_system(tag):
    alg = make_algebra(tag)
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        a = rng.uniform(-1.0, 1.0, (2, 3, n, n, alg.dim))
        for form in OdeForm:
            got = diffeq._real_matrices(alg, a, form)
            assert got.shape == (2, 3, n * alg.dim, n * alg.dim)
            for i, j in np.ndindex(2, 3):
                ode = LinearOde(BiMatrix(alg, a[i, j]), form, (one(alg),) * n)
                assert got[i, j].tobytes() == ode.real_matrix().tobytes(), (form, i, j)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_system_leaves_the_other_rk4_states_of_the_stack_alone(HH):
    odes = _systems(HH, 2, np.random.default_rng(5))
    bad = 3
    odes.insert(bad, LinearOde(random_matrix(HH, 2, 2, np.random.default_rng(0), scale=200.0), OdeForm.RC_LEFT,
                               (one(HH), one(HH))))
    m, x0 = _stacks(odes)
    ts = np.array([0.0, 0.5, 50.0, -1.0])
    got = diffeq._rk4_states(m, x0, ts, diffeq._rk4_step_target(1.0, 10))
    assert not np.isfinite(got[bad, 2]).all()
    for i, ode in enumerate(odes):
        want = rk4_integrate(ode, 1.0, 10).values(ts)
        assert np.isfinite(want).all() == (i != bad)
        assert got[i].tobytes() == want.tobytes(), i


# ---------------------------------------------------------------------------
# one stacked route: the residual's norms, the read-and-judge step, the RK4 power


def test_the_residual_judge_takes_every_norm_in_one_call(monkeypatch, HH):
    rows = []
    stacked = diffeq._frobenius_rows
    monkeypatch.setattr(diffeq, "frobenius", lambda c: pytest.fail("a per-component norm"))
    monkeypatch.setattr(diffeq, "_frobenius_rows", lambda c: rows.append(c.shape) or stacked(c))
    ode = LinearOde(random_matrix(HH, 2, 2, np.random.default_rng(3)), OdeForm.CR_LEFT, (one(HH), basis(HH, 2)))
    rep = solution_residual(ode, closed_form_solution(ode), (0.0, 0.5, 1.0))
    assert rep.verdict and rows == [(1, 3, 2, 4)]
    # a stack of systems takes one call for all its norms too
    rows.clear()
    odes = _systems(HH, 2, np.random.default_rng(5))
    m, x0 = _stacks(odes)
    states = diffeq._closed_form_states(m, x0, np.array(diffeq._probe_times((0.0, 0.5, 1.0))))
    reps = diffeq._judge_states(HH, m, states.reshape(len(odes), 9, 2, 4), (0.0, 0.5, 1.0), "closed-form")
    assert len(reps) == len(odes) and all(r.verdict for r in reps) and rows == [(len(odes), 3, 2, 4)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_the_stacked_judge_gives_each_system_the_report_of_its_own_call(tag):
    alg = make_algebra(tag)
    odes = _systems(alg, 2, np.random.default_rng(6))
    m, _ = _stacks(odes)
    ts = (0.0, 0.5, -1.0, 2.0)
    probes = diffeq._probe_times(ts)
    states = np.stack([closed_form_solution(ode).values(probes) for ode in odes])
    states[1, 3] = 1.7e308  # its finite difference at t = 0.5 overflows: refuted, with no warning
    states[2, 8] += 1e-3  # off the curve at t = -1: refuted with a finite residual
    reps = diffeq._judge_states(alg, m, states, ts, "user")
    assert len(reps) == len(odes)
    assert reps[1].residual == math.inf and reps[1].witness["t"] == 0.5
    assert reps[2].witness["t"] == -1.0 and math.isfinite(reps[2].residual) and reps[0].verdict
    for i, (ode, rep) in enumerate(zip(odes, reps)):
        alone, = diffeq._judge_states(alg, m[i:i + 1], states[i:i + 1], ts, "user")
        curve = SolutionCurve(None, "user", lambda times, s=states[i]: s)
        assert repr(rep.to_data()) == repr(alone.to_data()) == repr(solution_residual(ode, curve, ts).to_data()), i
    with pytest.raises(ValueError, match="at least one probe"):
        diffeq._judge_states(alg, m, states[:, :0], (), "user")
    for bad in (states[:-1], states[:, :, :1], np.zeros(states.shape[:-1] + (alg.dim + 1,))):
        with pytest.raises(AlgebraError, match=f"a state of this system is 2 elements of the {tag} algebra"):
            diffeq._judge_states(alg, m, bad, ts, "user")


def test_an_overflowing_user_curve_is_refuted_with_no_warning():
    # the finite difference of the states +-1.5e308 at t +- h and M x at
    # 1.7e308, with M = 2, both overflow to inf, so their gap is inf - inf;
    # the suite turns a RuntimeWarning into an error
    real = make_algebra("real")
    ode = LinearOde(BiMatrix.from_elements([[from_scalar(real, 2.0)]]), OdeForm.RC_LEFT, (one(real),))

    def state(t):
        return (from_scalar(real, 1.7e308 if t == 1.0 else math.copysign(1.5e308, t - 1.0)),)

    rep = solution_residual(ode, SolutionCurve(state, "user"), [1.0])
    assert not rep.verdict and math.isnan(rep.residual) and rep.witness["t"] == 1.0


def test_read_residual_is_solution_residual_and_the_states_at_ts(HH):
    ode = elliptic_ode(HH)
    ts = (0.0, 0.5, 2.0)
    for curve in (rk4_integrate(ode, 2.0, 2000), elliptic_two_exp_curve(HH), elliptic_family(basis(HH, 1))):
        rep, states = diffeq._read_residual(ode, curve, ts)
        assert rep.to_data() == solution_residual(ode, curve, ts).to_data()
        assert states.tobytes() == curve.values(ts).tobytes()
    with pytest.raises(ValueError, match="at least one probe"):
        diffeq._read_residual(ode, elliptic_two_exp_curve(HH), ())


def test_rk4_states_past_int64_make_one_kernel_call(monkeypatch, HH):
    calls = []
    kernel = diffeq._kernels.rk4_linear
    monkeypatch.setattr(diffeq._kernels, "rk4_linear", lambda *args: calls.append(args) or kernel(*args))
    odes = [LinearOde(BiMatrix.zeros(HH, 2, 2), OdeForm.RC_LEFT, (one(HH), basis(HH, 2))),
            LinearOde(random_matrix(HH, 2, 2, np.random.default_rng(4), scale=1e-3), OdeForm.RC_RIGHT,
                      (basis(HH, 1), one(HH)))]
    m, x0 = np.stack([ode.real_matrix() for ode in odes]), np.stack([diffeq._vec(ode.init) for ode in odes])
    ts, h = np.array([0.5, 1e300, -1e300, 2.0]), diffeq._rk4_step_target(1.0, 100)
    got = diffeq._rk4_states(m, x0, ts, h)
    assert len(calls) == 1
    # each state has the bits of its own scalar power, in Python integer steps
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(odes)):
            for t, state in zip(ts.tolist(), got[i]):
                assert state.tobytes() == kernel(m[i], x0[i], t, max(1, math.ceil(abs(t) / h))).tobytes(), (i, t)


def test_the_grid_reads_each_distinct_nonzero_time_once():
    x0 = np.arange(6.0).reshape(2, 3)
    ts = np.array([0.5, 0.0, -0.25, 0.5, 1.0, -0.0, 1.0, 0.5])
    seen = []

    def states(times):
        seen.append(times.tolist())
        return np.stack([np.outer(times, x) for x in x0 + 1.0])

    got = diffeq._grid_states(x0, ts, states)
    assert seen == [[-0.25, 0.5, 1.0]]
    for j, t in enumerate(ts.tolist()):
        assert got[:, j].tobytes() == (x0 if t == 0.0 else np.stack([t * x for x in x0 + 1.0])).tobytes(), t


@pytest.mark.parametrize("tag", ["real", "quaternion"])
def test_repeated_times_make_one_stack_member_each_and_equal_rows(monkeypatch, tag):
    alg = make_algebra(tag)
    m, x0 = _stacks(_systems(alg, 2, np.random.default_rng(7)))
    ts = np.array([0.0, 0.5, 1e-5, 0.5, -1.0, 0.0, 1e-5, 0.5])
    grids, powers = [], []
    grid, kernel = diffeq._expm_grid, diffeq._kernels.rk4_linear
    monkeypatch.setattr(diffeq, "_expm_grid", lambda a, t: grids.append((len(a), t.tolist())) or grid(a, t))
    monkeypatch.setattr(diffeq._kernels, "rk4_linear", lambda *args: powers.append(args[2].tolist()) or kernel(*args))
    closed = diffeq._closed_form_states(m, x0, ts)
    rk = diffeq._rk4_states(m, x0, ts, diffeq._rk4_step_target(1.0, 100))
    assert grids == [(len(m), [-1.0, 1e-5, 0.5])] and powers == [[-1.0, 1e-5, 0.5] * len(m)]
    for states in (closed, rk):
        for same in ([0, 5], [1, 3, 7], [2, 6]):
            assert all(states[:, j].tobytes() == states[:, same[0]].tobytes() for j in same), same
    # each row has the bits of that time's read alone
    for j, t in enumerate(ts.tolist()):
        assert closed[:, j].tobytes() == diffeq._closed_form_states(m, x0, np.array([t]))[:, 0].tobytes(), t


@pytest.mark.parametrize("ts, first", [([0.5, math.nan, math.inf, -math.inf], math.nan),
                                       ([0.0, math.inf, -math.inf, math.nan], math.inf),
                                       ([-math.inf, 1.0, math.nan], -math.inf)])
def test_a_grid_refuses_its_first_non_finite_time_in_its_own_order(HH, ts, first):
    m, x0 = _stacks(_systems(HH, 2, np.random.default_rng(8)))
    with pytest.raises(SeriesBudgetError, match=f"^exponential at the non-finite time {first}$"):
        diffeq._closed_form_states(m, x0, np.array(ts))
    with pytest.raises(AlgebraError, match=f"^an RK4 time must be finite, got {first}$"):
        diffeq._rk4_states(m, x0, np.array(ts), 0.01)


# ---------------------------------------------------------------------------
# typed refusals


def test_rk4_integrate_refuses_fewer_than_one_step(HH):
    with pytest.raises(ValueError, match="steps must be >= 1"):
        rk4_integrate(elliptic_ode(HH), 1.0, 0)


def test_an_rk4_curve_refuses_a_step_count_past_the_float_range(HH):
    # |t| / h overflows for a finite t: 1e10 / 1e-301
    curve = rk4_integrate(elliptic_ode(HH), 1e-300, 10)
    for read in (lambda: curve(1e10), lambda: curve.values([1e10])):
        with pytest.raises(AlgebraError, match="^RK4 to t = 10000000000.0 in steps of at most 1e-301 takes more steps"):
            read()


def test_rk4_integrate_refuses_a_step_that_underflows_to_zero(HH):
    # 5e-324 / 10 rounds to 0.0, and a zero step would divide every time by zero
    with pytest.raises(AlgebraError, match="^the RK4 step to t = 5e-324 is 0.0, not positive and finite$"):
        rk4_integrate(elliptic_ode(HH), 5e-324, 10)


@pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan])
def test_rk4_integrate_refuses_a_non_finite_end_time_by_its_step(HH, t_end):
    with pytest.raises(AlgebraError, match=f"^the RK4 step to t = {t_end} is (inf|nan), not positive and finite$"):
        rk4_integrate(elliptic_ode(HH), t_end, 10)


def test_rk4_integrate_refuses_a_step_count_past_the_float_range(HH):
    # 1 / 10^400 underflows to zero, where Python's true division cannot convert the count
    with pytest.raises(AlgebraError, match="^the RK4 step to t = 1.0 is 0.0, not positive and finite$"):
        rk4_integrate(elliptic_ode(HH), 1.0, 10 ** 400)


def test_eigen_solution_refuses_an_unknown_side(HH):
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        eigen_solution(basis(HH, 1), (one(HH),), side="middle")


def test_judge_states_refuses_states_of_another_shape(HH):
    ode = elliptic_ode(HH)
    with pytest.raises(AlgebraError, match="a state of this system is 2 elements of the quaternion algebra"):
        diffeq._judge_states(HH, ode.real_matrix()[None], np.zeros((1, 3, 2, 2)), [0.5], "user")


@pytest.mark.parametrize("tag", ["real", "complex"])
def test_elliptic_curves_refuse_an_algebra_other_than_the_quaternions(tag):
    alg = make_algebra(tag)
    with pytest.raises(ValueError, match="the constructed elliptic curves live in the quaternions"):
        elliptic_two_exp_curve(alg)
    with pytest.raises(ValueError, match="the three-exponential family lives in the quaternions"):
        elliptic_family(one(alg))

import cmath
import math
from fractions import Fraction
from functools import partial
from itertools import count, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncalg import _kernels, diffeq, series
from ncalg.algebra import (
    AlgebraError,
    Element,
    basis,
    frobenius,
    from_scalar,
    left_matrix,
    make_algebra,
    one,
    random_element,
    zero,
)
from ncalg.biring import BiMatrix, cr_mul, diff_norm, random_matrix, rc_mul, transpose
from ncalg.diffeq import _exps_at
from ncalg.series import (
    SeriesBudgetError,
    _exp_els,
    _expm,
    _expm_at,
    _expm_grid,
    _PS_COEFFS,
    _pairs,
    _scaling,
    _slice,
    _taylor,
    cos_el,
    cosh_el,
    exp_at,
    exp_el,
    mexp_cr,
    mexp_rc,
    quasiexp,
    quasiexp_at,
    sin_el,
    sinh_el,
)
from ncalg.tensor import X, so_set

ALGEBRAS = ("real", "complex", "quaternion")


def embed(HH, z: complex) -> Element:
    """Complex number on the {1, i} subalgebra of the quaternions."""
    return Element(HH, [z.real, z.imag, 0.0, 0.0])


class TestExp:
    def test_at_zero(self, HH):
        assert exp_el(zero(HH)).close(one(HH), 0.0)

    def test_quarter_turn(self, HH):
        i = basis(HH, 1)
        assert exp_el(i * (math.pi / 2)).close(i, 1e-13)

    def test_commuting_product_rule(self, HH, rng):
        for _ in range(10):
            a = random_element(HH, rng)
            b = from_scalar(HH, 0.3) + 0.7 * a  # commutes with a
            lhs = exp_el(a + b)
            rhs = exp_el(a) * exp_el(b)
            assert lhs.close(rhs, 1e-11)

    def test_noncommuting_pair_differs(self, HH):
        i, j = basis(HH, 1), basis(HH, 2)
        gap = (exp_el(i + j) - exp_el(i) * exp_el(j)).norm()
        assert gap > 1e-3


class TestExpAt:
    def test_t_zero(self, HH, rng):
        assert exp_at(random_element(HH, rng), 0.0).close(one(HH), 0.0)

    def test_pi_rotation(self, HH):
        assert exp_at(basis(HH, 1), math.pi).close(-one(HH), 1e-13)

    def test_commutes_with_generator(self, HH, rng):
        for _ in range(10):
            a = random_element(HH, rng)
            t = float(rng.uniform(-2, 2))
            e = exp_at(a, t)
            assert (e * a - a * e).norm() <= 1e-12

    def test_matches_complex_oracle(self, HH, rng):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert exp_el(embed(HH, z)).close(embed(HH, cmath.exp(z)), 1e-12)


class TestQuasiexp:
    def test_value_at_zero(self, HH, rng):
        c = random_element(HH, rng)
        assert quasiexp([c], zero(HH)).close(c, 1e-15)

    def test_central_direction(self, HH, rng):
        x = random_element(HH, rng)
        c = from_scalar(HH, -1.3)
        assert quasiexp([c], x).close(-1.3 * exp_el(x), 1e-12)

    def test_all_unit_directions_give_exp(self, HH, rng):
        x = random_element(HH, rng)
        for n in (1, 2, 3, 4):
            assert quasiexp([one(HH)] * n, x).close(exp_el(x), 1e-11)

    def test_fixed_point_equation(self, HH, rng):
        # dy/dx o 1 = y along the unit direction, by central differences
        for _ in range(5):
            c = random_element(HH, rng)
            x = random_element(HH, rng)
            s = 1e-5 * (1 + x.norm())
            fd = (quasiexp([c], x + s * one(HH)) - quasiexp([c], x - s * one(HH))) * (1 / (2 * s))
            assert (fd - quasiexp([c], x)).norm() <= 1e-6

    def test_empty_directions_rejected(self, HH):
        with pytest.raises(ValueError):
            quasiexp([], one(HH))

    @pytest.mark.parametrize("tag", ALGEBRAS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_quasiexp_is_the_sum_over_orders(self, tag, n, rng):
        """Order 1 takes the complex slice, orders 2 and up the subset lattice."""
        alg = make_algebra(tag)
        for scale in (0.5, 1.0, 3.0):
            for _ in range(3):
                x = random_element(alg, rng, scale)
                cs = [random_element(alg, rng) for _ in range(n)]
                ref = permutation_quasiexp(cs, x)
                err = float(np.linalg.norm(quasiexp(cs, x).coeffs - ref))
                assert err <= 1e-12 * max(1.0, float(np.linalg.norm(ref))), (scale, err)

    @pytest.mark.parametrize("norm", [0.5, 2.0, 10.0, 30.0])
    def test_the_slice_matches_the_lattice(self, HH, rng, norm):
        """The unit is a fixed point: quasiexp([c, 1, 1], x) on the lattice, and quasiexp([c, 1], x) on the
        slice's order-two form, equal quasiexp([c], x) on the slice's order-one form."""
        for _ in range(20):
            c, x = random_element(HH, rng), scaled_element(HH, rng, norm)
            alone = quasiexp([c], x)
            assert quasiexp([c, one(HH), one(HH)], x).close(alone, 1e-12), (norm, alone)
            assert quasiexp([c, one(HH)], x).close(alone, 1e-12), (norm, alone)

    @pytest.mark.parametrize("tag", ALGEBRAS)
    def test_orders_one_and_two_take_no_matrix_exponential(self, tag, rng, monkeypatch):
        def refuse(m):
            raise AssertionError("an order-one or order-two quasiexponent reached _expm")

        monkeypatch.setattr(series, "_expm", refuse)
        alg = make_algebra(tag)
        quasiexp([random_element(alg, rng)], random_element(alg, rng, 3.0))
        quasiexp([random_element(alg, rng) for _ in range(2)], random_element(alg, rng, 3.0))
        quasiexp_at(random_element(alg, rng), random_element(alg, rng), 2.0)
        with pytest.raises(AssertionError, match="reached _expm"):  # the lattice, from order three
            quasiexp([random_element(alg, rng) for _ in range(3)], random_element(alg, rng, 3.0))

    def test_a_huge_finite_direction_is_answered(self, HH, rng):
        """The quasiexponent is linear in its direction, so only x bounds the answer."""
        c, x = random_element(HH, rng), scaled_element(HH, rng, 2.0)
        assert quasiexp([1e300 * c], x).close(1e300 * quasiexp([c], x), 1e-14)
        assert quasiexp_at(1e300 * c, x, 0.5).close(1e300 * quasiexp_at(c, x, 0.5), 1e-14)


class TestQuasiexpAt:
    def test_t_zero(self, HH, rng):
        c, a = random_element(HH, rng), random_element(HH, rng)
        assert quasiexp_at(c, a, 0.0).close(c, 1e-15)

    def test_matches_quasiexp_of_scaled(self, HH, rng):
        c, a = random_element(HH, rng), random_element(HH, rng)
        assert quasiexp_at(c, a, 0.8).close(quasiexp([c], 0.8 * a), 1e-11)

    def test_commuting_direction(self, HH, rng):
        a = random_element(HH, rng)
        c = from_scalar(HH, 0.4) + 1.1 * a
        t = 0.9
        assert quasiexp_at(c, a, t).close(c * exp_at(a, t), 1e-11)

    def test_time_derivative_series(self, HH, rng):
        # termwise t-derivative: sum_n t^n (n+1)/(n+2)! sum_{m<=n+1} a^m c a^{n+1-m}
        a, c = random_element(HH, rng), random_element(HH, rng)
        t = 0.6

        def derivative_series():
            total = zero(HH)
            powers = [one(HH)]
            for _ in range(40):
                powers.append(powers[-1] * a)
            tn = 1.0
            for n in range(34):
                inner = zero(HH)
                for m in range(n + 2):
                    inner = inner + powers[m] * c * powers[n + 1 - m]
                total = total + (tn * (n + 1) / math.factorial(n + 2)) * inner
                tn *= t
            return total

        s = 1e-6
        fd = (quasiexp_at(c, a, t + s) - quasiexp_at(c, a, t - s)) * (1 / (2 * s))
        assert (fd - derivative_series()).norm() <= 1e-6


class TestOrderTwo:
    """quasiexp of two directions in closed form on the complex slice (series._second)."""

    @pytest.mark.parametrize("tag", ALGEBRAS)
    @pytest.mark.parametrize("norm", [0.0, 1e-8, 1e-3, 0.5, 2.0, 10.0, 30.0])
    def test_matches_the_permutation_sum_and_the_lattice(self, tag, norm, rng):
        alg = make_algebra(tag)
        for _ in range(10):
            x, cs = scaled_element(alg, rng, norm), [random_element(alg, rng) for _ in range(2)]
            got = quasiexp(cs, x).coeffs
            ref = permutation_quasiexp(cs, x)
            lattice = np.array(series._lattice(alg, [c.coeffs.tolist() for c in cs], x.coeffs.tolist()))
            for want in (ref, lattice):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (norm, x)

    @pytest.mark.parametrize("tag", ["complex", "quaternion"])
    def test_theta_exactly_zero(self, tag, rng):
        """A real x commutes with everything: e[c1, c2]^a = e^a (c1 c2 + c2 c1) / 2."""
        alg = make_algebra(tag)
        for a in (0.0, 1.5, -2.0):
            c1, c2 = random_element(alg, rng), random_element(alg, rng)
            x = from_scalar(alg, a)
            got = quasiexp([c1, c2], x)
            assert got.close(math.exp(a) * 0.5 * (c1 * c2 + c2 * c1), 1e-15), a
            assert np.linalg.norm(got.coeffs - permutation_quasiexp([c1, c2], x)) <= 1e-13 * got.norm()

    @pytest.mark.parametrize("theta", [0.5, 1.0 - 2.0 ** -30, 1.0, 1.0 + 2.0 ** -30, 1.5])
    def test_both_sides_of_the_j1_series_switch(self, HH, rng, theta):
        for _ in range(10):
            v = rng.standard_normal(3)
            x = Element(HH, [0.3, *(v * (theta / np.linalg.norm(v)))])
            cs = [random_element(HH, rng) for _ in range(2)]
            ref = permutation_quasiexp(cs, x)
            assert np.linalg.norm(quasiexp(cs, x).coeffs - ref) <= 1e-13 * np.linalg.norm(ref), theta

    @pytest.mark.parametrize("theta", [1e-8, 1e-3, 0.5, 1.0 - 2.0 ** -40, 1.0, 1.0 + 2.0 ** -40, 2.0, 10.0])
    def test_j1_against_its_exact_series(self, theta):
        exact, t2 = Fraction(0), Fraction(theta) ** 2
        for k in range(1, 80):
            exact += Fraction((-1) ** (k + 1) * 2 * k, math.factorial(2 * k + 1)) * t2 ** (k - 1)
        exact *= Fraction(theta)
        assert abs(series._j1(theta) - float(exact)) <= 2e-15 * abs(float(exact))

    @pytest.mark.parametrize("tag", ["real", "complex"])
    def test_commutative_algebras_give_the_product(self, tag, rng):
        alg = make_algebra(tag)
        for norm in (0.0, 0.5, 2.0, 10.0):
            x, c1, c2 = scaled_element(alg, rng, norm), random_element(alg, rng), random_element(alg, rng)
            assert quasiexp([c1, c2], x).close(c1 * c2 * exp_el(x), 1e-13), norm

    @pytest.mark.filterwarnings("error")
    def test_refuses_what_order_one_refuses(self, HH, rng):
        c, x = random_element(HH, rng), random_element(HH, rng)
        cases = [(Element(HH, [0.0, bad, 0.0, 0.0]), x) for bad in (math.nan, math.inf)]
        cases += [(c, Element(HH, [bad, 0.0, 0.5, 0.0])) for bad in (math.nan, -math.inf, 2.0 ** 53, 800.0)]
        for d, y in cases:
            alone = _error(lambda: quasiexp([d], y))
            assert _error(lambda: quasiexp([d, c], y)) == alone
            assert _error(lambda: quasiexp([c, d], y)) == alone

    @pytest.mark.filterwarnings("error")
    def test_huge_directions_are_answered_until_the_result_overflows(self, HH, rng):
        c1, c2, x = random_element(HH, rng), random_element(HH, rng), random_element(HH, rng)
        want = quasiexp([c1, c2], x)
        assert quasiexp([1e150 * c1, 1e150 * c2], x).close(1e300 * want, 1e-14)
        with pytest.raises(SeriesBudgetError, match="exponential overflows"):
            quasiexp([1e200 * c1, 1e200 * c2], x)


@pytest.mark.filterwarnings("error")
def test_orders_one_and_two_answer_near_the_top_of_the_float_range(HH):
    # both parts of E = exp(x) are finite, but |E| and Im E / |v| are not;
    # the quasiexponent is linear in E, so e times its value at x - 1 is the answer
    x = Element(HH, [709.9, math.pi / 4, 0.0, 0.0])
    directions = [Element(HH, [1e-3, 0.0, 1e-3, 0.0]), Element(HH, [1e-3, 0.0, 0.0, 1e-3])]
    for order in (1, 2):
        cs = directions[:order]
        got = quasiexp(cs, x).coeffs
        want = math.e * quasiexp(cs, x - one(HH)).coeffs
        assert np.isfinite(got).all(), order
        assert frobenius(got - want) <= 1e-13 * frobenius(want), order


class TestTrig:
    def test_zeros(self, HH):
        assert sinh_el(zero(HH)).close(zero(HH), 0.0)
        assert cosh_el(zero(HH)).close(one(HH), 0.0)
        assert sin_el(zero(HH)).close(zero(HH), 0.0)
        assert cos_el(zero(HH)).close(one(HH), 0.0)

    def test_euler_split(self, HH, rng):
        f = random_element(HH, rng)
        sh = 0.5 * (exp_el(f) - exp_el(-f))
        ch = 0.5 * (exp_el(f) + exp_el(-f))
        assert sinh_el(f).close(sh, 1e-12)
        assert cosh_el(f).close(ch, 1e-12)

    def test_commutation_with_argument(self, HH, rng):
        f = random_element(HH, rng)
        tf = 1.3 * f
        for fn in (sinh_el, cosh_el, sin_el, cos_el):
            v = fn(tf)
            assert (v * f - f * v).norm() <= 1e-12

    def test_derivative_relations(self, HH, rng):
        f = random_element(HH, rng)
        t = 0.8
        s = 1e-5

        def fd(fn):
            return (fn((t + s) * f) - fn((t - s) * f)) * (1 / (2 * s))

        assert (fd(sinh_el) - f * cosh_el(t * f)).norm() <= 1e-6
        assert (fd(cosh_el) - f * sinh_el(t * f)).norm() <= 1e-6

    def test_complex_consistency(self, HH, rng):
        for _ in range(10):
            z = complex(rng.uniform(-2.8, 2.8), rng.uniform(-2.8, 2.8))  # |z| <= 4
            x = embed(HH, z)
            assert sin_el(x).close(embed(HH, cmath.sin(z)), 1e-12)
            assert cos_el(x).close(embed(HH, cmath.cos(z)), 1e-12)
            assert sinh_el(x).close(embed(HH, cmath.sinh(z)), 1e-12)
            assert cosh_el(x).close(embed(HH, cmath.cosh(z)), 1e-12)


class TestConjugationIdentities:
    def test_side_swap(self, HH, rng):
        for _ in range(10):
            a, x = random_element(HH, rng), random_element(HH, rng)
            assert (a * exp_el(x * a) - exp_el(a * x) * a).norm() <= 1e-11

    def test_conjugation(self, HH, rng):
        a = random_element(HH, rng)
        if a.norm() < 1e-3:
            a = one(HH) + a
        x = random_element(HH, rng)
        lhs = exp_el(x * a)
        rhs = a.inv() * exp_el(a * x) * a
        assert lhs.close(rhs, 1e-11)

    def test_exp_ode_along_unit(self, HH, rng):
        x = random_element(HH, rng)
        s = 1e-5 * (1 + x.norm())
        fd = (exp_el(x + s * one(HH)) - exp_el(x - s * one(HH))) * (1 / (2 * s))
        assert (fd - exp_el(x)).norm() <= 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    def test_partial_derivative_along_unit_matches_quasiexp(self, HH, rng, n):
        # n-th partial along the unit basis vector equals e[1,..,1]^x
        x = random_element(HH, rng)
        e0 = one(HH)
        h = 1e-4 * (1 + x.norm())
        if n == 1:
            fd = (exp_el(x + h * e0) - exp_el(x - h * e0)) * (1 / (2 * h))
        else:
            fd = (exp_el(x + h * e0) - 2.0 * exp_el(x) + exp_el(x - h * e0)) * (1 / (h * h))
        assert (fd - quasiexp([e0] * n, x)).norm() <= 1e-6


class TestMatrixExp:
    def test_zero_matrix(self, HH):
        z = BiMatrix.zeros(HH, 2, 2)
        assert mexp_rc(z).close(BiMatrix.identity(HH, 2), 0.0)
        assert mexp_cr(z).close(BiMatrix.identity(HH, 2), 0.0)

    def test_hyperbolic_block(self, RR):
        t = 0.7
        a = BiMatrix.from_elements(
            [[zero(RR), from_scalar(RR, t)], [from_scalar(RR, t), zero(RR)]]
        )
        e = mexp_rc(a)
        expected = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
        assert np.allclose(e.data[:, :, 0], expected, atol=1e-13)

    def test_transpose_duality(self, HH, rng):
        x = random_matrix(HH, 2, 2, rng)
        assert diff_norm(transpose(mexp_rc(x)), mexp_cr(transpose(x))) <= 1e-12

    @pytest.mark.parametrize("tag", ALGEBRAS)
    def test_mexp_cr_is_the_transpose_of_mexp_rc_of_the_transpose_byte_for_byte(self, tag):
        alg = make_algebra(tag)
        rng = np.random.default_rng(21)
        for n in range(1, 6):
            for scale in (0.1, 1.0, 5.0):
                x = random_matrix(alg, n, n, rng, scale)
                assert mexp_cr(x).data.tobytes() == transpose(mexp_rc(transpose(x))).data.tobytes()

    @pytest.mark.parametrize("tag", ALGEBRAS)
    def test_every_block_of_an_exponential_of_rho_is_rho_of_its_column_read(self, tag):
        """exp(rho(x)) lies on the image of rho: its other block columns add nothing to column 0's."""
        alg = make_algebra(tag)
        rng = np.random.default_rng(22)
        for n in range(1, 6):
            for scale in (0.1, 1.0, 5.0):
                e = _expm(_kernels.rho(alg.table, random_matrix(alg, n, n, rng, scale).data))
                back = _kernels.rho(alg.table, _kernels.column(e, alg.dim))
                assert np.abs(back - e).max() <= 1e-13 * np.abs(e).max(), (n, scale)


# ---------------------------------------------------------------------------
# references: plain truncated Taylor sums and the so_set placement sum of the
# quasiexponent, with no scaling, so only at desk scale (norm <= 2, order <= 3)

# coefficient of x^n/n! in each element series
TAYLOR_COEFF = {
    exp_el: lambda n: 1.0,
    sinh_el: lambda n: n % 2,
    cosh_el: lambda n: 1 - n % 2,
    sin_el: lambda n: (n % 2) * (-1) ** (n // 2),
    cos_el: lambda n: (1 - n % 2) * (-1) ** (n // 2),
}


def taylor_el(x, coeff, terms=60):
    total, power = zero(x.algebra), one(x.algebra)  # power = x^n / n!
    for n in range(terms):
        total = total + coeff(n) * power
        power = power * x * (1.0 / (n + 1))
    return total


def taylor_mexp(x, mul, terms=60):
    total = term = BiMatrix.identity(x.algebra, x.rows)
    for n in range(1, terms):
        term = mul(term, x) * (1.0 / n)
        total = total + term
    return total


def placement_quasiexp(cs, x, extra_degrees):
    """sum over N of (1/N!) times every so_set placement of cs among N gaps.

    Each placement x^r0 c x^r1 ... is applied to the unit right to left
    through left-multiplication matrices (checked against products in
    test_algebra), which keeps the enumeration affordable at order 3.
    """
    alg = x.algebra
    n = len(cs)
    powers = [one(alg)]
    for _ in range(n + extra_degrees):
        powers.append(powers[-1] * x)
    lpow = [left_matrix(e) for e in powers]
    lcs = [left_matrix(c) for c in cs]
    total = np.zeros(alg.dim)
    for deg in range(n, n + extra_degrees):
        acc = np.zeros(alg.dim)
        for labels in so_set(n, deg):
            vec, run = one(alg).coeffs, 0
            for lab in reversed(labels):
                if lab == X:
                    run += 1
                else:
                    vec, run = lcs[lab] @ (lpow[run] @ vec), 0
            acc += lpow[run] @ vec
        total += acc / math.factorial(deg)
    return Element(alg, total)


def permutation_quasiexp(cs, x):
    """The quasiexponent as a sum over the n! orders of cs (Van Loan, IEEE TAC 23(3), 1978).

    The placements of the directions in one order c_s1..c_sn among the gaps
    of x^N are the (0, n) block of B^N, for B block-bidiagonal with L(x) on
    the diagonal and L(c_s1)..L(c_sn) above it; so each order adds the
    (0, n) block of exp(B).
    """
    n, d = len(cs), x.algebra.dim
    big = np.kron(np.eye(n + 1), left_matrix(x))
    total = np.zeros(d)
    for order in permutations([left_matrix(c) for c in cs]):
        for k, lc in enumerate(order):
            big[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = lc
        total += _expm(big)[:d, n * d]
    return total


def scaled_element(alg, rng, norm):
    x = random_element(alg, rng)
    return x * (norm / x.norm())


class TestAgainstTaylorReferences:
    @pytest.mark.parametrize("tag", ALGEBRAS)
    def test_element_functions(self, tag, rng):
        alg = make_algebra(tag)
        for norm in (0.1, 0.5, 1.0, 2.0):
            x = scaled_element(alg, rng, norm)
            for fn, coeff in TAYLOR_COEFF.items():
                assert fn(x).close(taylor_el(x, coeff), 1e-14), (fn.__name__, norm)

    @pytest.mark.parametrize("tag", ALGEBRAS)
    def test_matrix_exponentials(self, tag, rng):
        alg = make_algebra(tag)
        for n in (1, 2, 3):
            x = random_matrix(alg, n, n, rng, scale=0.5)
            assert diff_norm(mexp_rc(x), taylor_mexp(x, rc_mul)) <= 1e-13
            assert diff_norm(mexp_cr(x), taylor_mexp(x, cr_mul)) <= 1e-13

    @pytest.mark.parametrize("order, norm, extra", [(1, 2.0, 30), (2, 2.0, 30), (3, 1.0, 18)])
    def test_quasiexp_placements(self, HH, rng, order, norm, extra):
        cs = [random_element(HH, rng) for _ in range(order)]
        x = scaled_element(HH, rng, norm)
        assert quasiexp(cs, x).close(placement_quasiexp(cs, x, extra), 1e-13)

    def test_quasiexp_at_placements(self, HH, rng):
        c, a = random_element(HH, rng), random_element(HH, rng)
        for t in (-1.5, 0.3, 2.0):
            ref = placement_quasiexp([c], t * a, 30)
            assert quasiexp_at(c, a, t).close(ref, 1e-13)


# ---------------------------------------------------------------------------
# closed form: x = a + v lies in the copy of C spanned by 1 and v/|v|, so any
# power series f has f(x) = Re f(z) + (v/|v|) Im f(z) with z = a + i|v|


CLOSED = {
    exp_el: (cmath.exp, lambda a, v: math.exp(a)),
    sinh_el: (cmath.sinh, lambda a, v: math.exp(abs(a))),
    cosh_el: (cmath.cosh, lambda a, v: math.exp(abs(a))),
    sin_el: (cmath.sin, lambda a, v: math.exp(v)),
    cos_el: (cmath.cos, lambda a, v: math.exp(v)),
}


def closed_form(f, x):
    a, v = x.coeffs[0], x.coeffs[1:]
    nv = float(np.linalg.norm(v))
    w = f(complex(a, nv))
    out = np.zeros(x.algebra.dim)
    out[0] = w.real
    if nv > 0.0:
        out[1:] = w.imag * v / nv
    return out


# the element maps as matrix exponentials, which share no code with the
# closed form: column 0 of exp(L(x)) for exp, and column 0 of block
# (0, block) of exp(rho([[0, x], [sign x, 0]])) for the others, L(x) = rho([x])
MATRIX_BLOCKS = {sinh_el: (1.0, 1), cosh_el: (1.0, 0), sin_el: (-1.0, 1), cos_el: (-1.0, 0)}


def matrix_route(fn, x):
    if fn is exp_el:
        return _expm(left_matrix(x))[:, 0]
    sign, block = MATRIX_BLOCKS[fn]
    d = x.algebra.dim
    e = np.zeros((2, 2, d))
    e[0, 1] = x.coeffs
    e[1, 0] = sign * x.coeffs
    return _expm(_kernels.rho(x.algebra.table, e))[:d, block * d]


class TestClosedForm:
    @pytest.mark.parametrize("tag", ALGEBRAS)
    def test_element_functions_match_the_matrix_exponential(self, tag, rng):
        alg = make_algebra(tag)
        for _ in range(5):
            for row, norm in zip(_rows(alg, rng), ROW_NORMS):
                x = Element(alg, row)
                a, v = row[0], float(np.linalg.norm(row[1:]))
                for fn, (_, size) in CLOSED.items():
                    err = float(np.linalg.norm(fn(x).coeffs - matrix_route(fn, x)))
                    assert err <= 1e-13 * (1.0 + norm) * size(a, v), (fn.__name__, x)

    @pytest.mark.parametrize("tag", ALGEBRAS)
    def test_element_functions_up_to_norm_30(self, tag, rng):
        # tolerance: rounding times the size of the exponentials involved
        alg = make_algebra(tag)
        for norm in (0.5, 3.0, 10.0, 20.0, 30.0):
            for _ in range(10):
                x = scaled_element(alg, rng, norm)
                a, v = x.coeffs[0], float(np.linalg.norm(x.coeffs[1:]))
                for fn, (f, size) in CLOSED.items():
                    err = float(np.linalg.norm(fn(x).coeffs - closed_form(f, x)))
                    assert err <= 1e-13 * (1.0 + norm) * size(a, v), (fn.__name__, x)

    @pytest.mark.parametrize("v", [-10.0, -30.0])
    def test_negative_real_exp(self, RR, HH, v):
        for alg in (RR, HH):
            got = exp_el(from_scalar(alg, v)).coeffs[0]
            assert abs(got / math.exp(v) - 1.0) <= 1e-13

    def test_quarter_turns_at_t_20(self, HH):
        e = exp_at(basis(HH, 1), 20.0)
        assert e.close(Element(HH, [math.cos(20.0), math.sin(20.0), 0.0, 0.0]), 1e-13)

    def test_edges_of_the_slice(self, RR, HH):
        # over the reals v is empty; a subnormal v keeps its bits; exp of a
        # large negative real underflows to zero; cosh and sinh of 710 are finite
        got = exp_el(from_scalar(RR, 1.5)).coeffs[0]
        assert abs(got - math.exp(1.5)) <= 2.0 ** -52 * math.exp(1.5)
        assert exp_el(Element(HH, [0.0, 1e-310, 0.0, 0.0])).coeffs.tolist() == [1.0, 1e-310, 0.0, 0.0]
        assert exp_el(from_scalar(HH, -800.0)).coeffs.tolist() == [0.0] * 4
        for fn in (cosh_el, sinh_el):
            got = fn(from_scalar(RR, 710.0)).coeffs[0]
            assert abs(got / math.cosh(710.0) - 1.0) <= 1e-12, fn.__name__


@pytest.mark.parametrize("n", [2, 4])
def test_matrix_exponentials_invert_at_scale_20(HH, rng, n):
    x = random_matrix(HH, n, n, rng, scale=20.0)
    for mexp, mul in ((mexp_rc, rc_mul), (mexp_cr, cr_mul)):
        e, f = mexp(x), mexp(x * -1.0)
        tol = 1e-13 * n * e.max_entry_norm() * f.max_entry_norm()
        assert diff_norm(mul(e, f), BiMatrix.identity(HH, n)) <= tol, mexp.__name__


@pytest.mark.parametrize("tag", ["complex", "quaternion"])
@pytest.mark.parametrize("norm", [20.0, 1e3, 1e6])
def test_finite_pure_imaginary_exp_returns_a_unit(tag, norm, rng):
    # no term budget to run out of: |exp v| = 1 up to rounding growing with |v|
    alg = make_algebra(tag)
    for _ in range(5):
        v = rng.standard_normal(alg.dim)
        v[0] = 0.0
        x = Element(alg, v * (norm / np.linalg.norm(v)))
        assert abs(exp_el(x).norm() - 1.0) <= 1e3 * np.finfo(float).eps * norm


class TestNonFinite:
    """Overflowing or non-finite arguments raise; inf and NaN never come back."""

    @pytest.mark.parametrize("v", [1000.0, 1e300, math.inf, math.nan])
    def test_raises(self, HH, v):
        with pytest.raises(SeriesBudgetError):
            exp_el(from_scalar(HH, v))
        with pytest.raises(SeriesBudgetError):
            sin_el(Element(HH, [0.0, v, 0.0, 0.0]))  # sin(v i) = i sinh(v)
        with pytest.raises(SeriesBudgetError):
            cosh_el(from_scalar(HH, v))
        for cs in ([one(HH), basis(HH, 1)], [basis(HH, 1)]):
            with pytest.raises(SeriesBudgetError):
                quasiexp(cs, Element(HH, [v, 0.0, 0.5, 0.0]))
        with pytest.raises(SeriesBudgetError):
            quasiexp_at(basis(HH, 2), Element(HH, [v, 0.0, 0.5, 0.0]), 1.0)
        k = Element(HH, [0.0, 0.0, 0.0, v])
        for cs in ([k], [one(HH), k], [one(HH), one(HH), k]):
            if math.isfinite(v):  # linear in each direction: every order answers a huge finite one
                assert quasiexp(cs, one(HH)).close(v * quasiexp(cs[:-1] + [basis(HH, 3)], one(HH)), 1e-14)
            else:
                with pytest.raises(SeriesBudgetError, match="non-finite argument"):
                    quasiexp(cs, one(HH))
        data = np.zeros((2, 2, 4))
        data[0, 0, 0] = data[1, 1, 0] = v
        with pytest.raises(SeriesBudgetError):
            mexp_rc(BiMatrix(HH, data))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_time_is_refused_before_any_arithmetic(self, HH, t):
        """0 * inf would warn and make a NaN; the time is refused first, and so is a non-finite a at t = 0."""
        with pytest.raises(SeriesBudgetError, match="non-finite time"):
            exp_at(basis(HH, 1), t)
        with pytest.raises(SeriesBudgetError, match="non-finite time"):
            quasiexp_at(one(HH), basis(HH, 1), t)
        for a in (Element(HH, [t, 0.0, 0.0, 0.0]), Element(HH, [0.0, t, 0.0, 0.0])):
            with pytest.raises(SeriesBudgetError, match="non-finite argument"):
                exp_at(a, 0.0)
            with pytest.raises(SeriesBudgetError, match="non-finite argument"):
                quasiexp_at(one(HH), a, 0.0)

    def test_real_sine_stays_bounded(self, HH):
        assert sin_el(from_scalar(HH, 1000.0)).close(from_scalar(HH, math.sin(1000.0)), 1e-11)
        # 1e300 carries no digit of its phase: refused rather than answered
        with pytest.raises(SeriesBudgetError):
            sin_el(from_scalar(HH, 1e300))


@given(tag=st.sampled_from(ALGEBRAS), coeffs=st.lists(st.floats(-20, 20), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_exp_times_exp_of_negative_is_one(tag, coeffs):
    alg = make_algebra(tag)
    x = Element(alg, coeffs[:alg.dim])
    assert (exp_el(x) * exp_el(-x)).close(one(alg), 1e-13 * (1.0 + x.norm()))


def _norm1(m):
    return float(np.abs(m).sum(axis=0).max(initial=0.0))


# the earlier rule's relative term budget, which the fixed degree 15 must never be looser than
TAYLOR_RTOL = 1e-14


def adaptive_expm(m):
    """(exp(m), s, terms) by the earlier rule: a term at most TAYLOR_RTOL (1 + ||sum||_1) ends the sum."""
    norm = _norm1(m)
    s = int(np.frexp(norm)[1]) + 1 if norm > 0.5 else 0
    a = np.ldexp(m, -s)
    total = term = np.eye(m.shape[0])
    for n in count(1):
        term = term @ a / n
        total = total + term
        if _norm1(term) <= TAYLOR_RTOL * (1.0 + _norm1(total)):
            break
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            total = total @ total
    return total, s, n


class TestAprioriDegree:
    """_expm sums degree 15 for every argument; the adaptive loop is the reference."""

    @pytest.mark.parametrize("kind", ["random", "skew"])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_matches_adaptive_loop(self, kind, n):
        u = np.finfo(np.float64).eps / 2
        rng = np.random.default_rng(1000 + n)
        for norm in np.logspace(-8, 3, 12):
            for _ in range(4):
                m = rng.standard_normal((n, n))
                if kind == "skew":
                    m = m - m.T
                if not m.any():
                    continue
                m *= norm / _norm1(m)
                ref, s, terms = adaptive_expm(m)
                assert terms <= 15  # never looser
                if not np.isfinite(ref).all():
                    with pytest.raises(SeriesBudgetError):
                        _expm(m)
                    continue
                scale = max(float(np.abs(ref).max()), np.finfo(np.float64).tiny)
                new = _expm(m)
                assert _norm1((new - ref) / scale) <= 16 * u * 2.0 ** s * _norm1(ref / scale), (norm, s)

    @pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("random", "skew") for n in (1, 2, 4, 8)
                                         if (kind, n) != ("skew", 1)])
    def test_the_grid_matches_the_adaptive_loop_too(self, kind, n):
        # the grid sums the same degree from each system's shared powers
        u = np.finfo(np.float64).eps / 2
        rng = np.random.default_rng(1100 + n)
        m = rng.standard_normal((12, n, n))
        if kind == "skew":
            m -= m.swapaxes(-1, -2)
        m *= (np.logspace(-8, 2, 12) / np.abs(m).sum(axis=-2).max(axis=-1))[:, None, None]
        ts = np.array([1e-3, -0.5, 1.0, 3.0])
        for mi, row in zip(m, _expm_grid(m, ts)):
            for t, new in zip(ts.tolist(), row):
                ref, s, _ = adaptive_expm(t * mi)
                scale = max(float(np.abs(ref).max()), np.finfo(np.float64).tiny)
                assert _norm1((new - ref) / scale) <= 16 * u * 2.0 ** s * _norm1(ref / scale), (t, s)

    def test_degree_15_is_within_tolerance_at_norm_one_half(self):
        # the terms after degree 15 sum to less than twice the bound on term 16
        assert 2 * 0.5 ** 16 / math.factorial(16) <= TAYLOR_RTOL

    @pytest.mark.parametrize("norm", [0.0, 1e-8, 0.5, 0.5000001, 1.0, 3.0, 1e15])
    def test_scaling_brings_each_norm_within_one_half(self, norm):
        # no more squarings than that: each one doubles the sum's rounding error
        s = _scaling(norm, np.full((1, 1), norm))
        scaled = math.ldexp(norm, -s)
        assert scaled <= 0.5
        assert s == 0 or scaled >= 0.25
        assert 2 * scaled ** 16 / math.factorial(16) <= TAYLOR_RTOL


class TestPatersonStockmeyer:
    """_taylor evaluates the degree-15 Taylor polynomial in blocks of four;
    summing a^k / k! term by term is the reference."""

    @staticmethod
    def term_by_term(a):
        total = term = np.eye(a.shape[0])
        for k in range(1, 16):
            term = term @ a / k
            total = total + term
        return total

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 16])
    def test_matches_the_term_by_term_sum(self, size):
        u = np.finfo(np.float64).eps / 2
        rng = np.random.default_rng(2000 + size)
        for _ in range(14):
            for norm in (0.0, 1e-8, 1e-3, 0.1, 0.25, 0.5):  # _expm scales to at most 1/2
                m = rng.standard_normal((size, size))
                m *= norm / _norm1(m)
                ref = self.term_by_term(m)
                assert _norm1(_taylor(m, _PS_COEFFS) - ref) <= 16 * u * (1.0 + _norm1(ref)), norm


def reference_expm(m):
    """exp(m) as _expm composes it: scale by 2^-s to a 1-norm of at most 1/2,
    take the four Paterson-Stockmeyer blocks as one product of the 1/k! rows
    with the stacked I, a, a^2, a^3, run Horner's rule in a^4, then square s
    times."""
    norm = _norm1(m)
    s = math.frexp(norm)[1] + 1 if norm > 0.5 else 0
    a = np.ldexp(m, -s)
    d = len(a)
    a2 = a.dot(a)
    powers = np.concatenate((np.eye(d), a, a2, a2.dot(a))).reshape(4, d * d)
    coeffs = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)
    blocks = coeffs.dot(powers).reshape(4, d, d)
    a4 = a2.dot(a2)
    total = blocks[3]
    for j in (2, 1, 0):
        total = total.dot(a4) + blocks[j]
    for _ in range(s):
        total = total.dot(total)
    return total


@pytest.mark.parametrize("tag", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_exponentials_have_the_bytes_of_the_reference(tag, n):
    alg = make_algebra(tag)
    rng = np.random.default_rng(2900 + n)
    for norm in np.geomspace(1e-6, 20.0, 9):
        data = random_matrix(alg, n, n, rng).data
        data = data * (norm / _norm1(_kernels.rho(alg.table, data)))
        m = _kernels.rho(alg.table, data)
        assert _expm(m).tobytes() == reference_expm(m).tobytes(), norm
        rc, cr = mexp_rc(BiMatrix(alg, data)), mexp_cr(BiMatrix(alg, data))
        assert rc.data.tobytes() == _kernels.column(reference_expm(m), alg.dim).tobytes(), norm
        cr_want = _kernels.column(reference_expm(_kernels.rho(alg.table, data.transpose(1, 0, 2))), alg.dim)
        assert cr.data.tobytes() == cr_want.transpose(1, 0, 2).tobytes(), norm


# ---------------------------------------------------------------------------
# exponentials on a time grid: each member (system, time) gets the bytes of its one-matrix mirror

# t = 0 and the finite-difference probes around it, which share the one
# Taylor setup with the rest, and times up to squaring counts near 10
STACK_TIMES = (0.0, 1e-5, -1e-5, 1e-3, 0.05, 0.5, -1.0, 3.0, 40.0, -300.0)


def _grid_counts(m, ts):
    """The squaring counts _expm_grid takes over its members, each from |t| ||M_i||_1."""
    return {_scaling(abs(t) * _norm1(mi), mi) for mi in m for t in ts}


def _assert_mirrored(m, ts, got):
    """Member (i, t) of the grid got of m and ts has the bytes of _expm_at(M_i, t)."""
    assert got.shape == (len(m), len(ts), *m.shape[1:])
    for mi, row in zip(m, got):
        for t, out in zip(ts.tolist(), row):
            assert out.tobytes() == _expm_at(mi, t).tobytes(), t


@pytest.mark.parametrize("tag", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_grid_gives_each_member_the_bytes_of_its_mirror(tag, n):
    alg = make_algebra(tag)
    rng = np.random.default_rng(2700 + n)
    m = _kernels.rho(alg.table, random_matrix(alg, n, n, rng).data)
    m /= _norm1(m)  # so ||exp(t m)|| <= e^|t|, finite at every time here
    systems, ts = np.array([m, m.T]), np.array(STACK_TIMES)
    assert len(_grid_counts(systems, STACK_TIMES)) >= 4
    got = _expm_grid(systems, ts)
    _assert_mirrored(systems, ts, got)
    # any order, and any sub-grid, gives the same bytes
    order = rng.permutation(len(ts))
    assert _expm_grid(systems[::-1], ts[order]).tobytes() == got[::-1][:, order].tobytes()
    assert _expm_grid(systems[:1], ts[:1]).tobytes() == got[:1, :1].tobytes()


def test_a_grid_of_only_small_or_only_large_members_matches_too():
    m = np.random.default_rng(2711).standard_normal((1, 6, 6))
    for times in ((1e-7, 2e-6, -3e-5), (0.3, 0.4, 2.0, 9.0)):
        ts = np.array(times)
        _assert_mirrored(m, ts, _expm_grid(m, ts))


def test_squarings_a_member_skips_neither_warn_nor_raise():
    # exp(700) is finite, and squaring it once more overflows: the grid
    # squares the rotation 13 times and the scaled identity only 11
    m = np.array([700.0 * np.eye(2), [[0.0, 4000.0], [-4000.0, 0.0]]])
    ts = np.array([1.0])
    assert [_scaling(_norm1(mi), mi) for mi in m] == [11, 13]
    _assert_mirrored(m, ts, _expm_grid(m, ts))


@pytest.mark.parametrize("bad, message", [
    (np.full((2, 2), np.nan), "non-finite argument"),
    (np.array([[np.inf, 0.0], [0.0, 0.0]]), "non-finite argument"),
    (np.full((2, 2), 2.0 ** 52), "too large"),
    (np.full((2, 2), 400.0), "overflows"),
])
def test_a_member_that_raises_alone_raises_the_same_error_in_a_grid(bad, message):
    for alone in (partial(_expm, bad), partial(_expm_at, bad, 1.0)):
        with pytest.raises(SeriesBudgetError, match=message):
            alone()
    fine = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for systems in ([fine, bad], [bad, fine], [bad]):
        with pytest.raises(SeriesBudgetError, match=message):
            _expm_grid(np.array(systems), np.array([0.5, 1.0]))


def test_a_grid_raises_its_argument_refusals_before_any_overflow():
    # [400 J, 2^52 J], J the all-ones matrix: member 0 alone overflows and
    # member 1 alone is too large, and the grid raises member 1's error
    ones = np.ones((8, 8))
    with pytest.raises(SeriesBudgetError, match="too large"):
        _expm_grid(np.array([400.0 * ones, 2.0 ** 52 * ones]), np.array([1.0]))
    # so do 25 systems at 4 times, by their first refused member in (system,
    # time) order: 2^46 J, of 1-norm 2^49, is refused at t = 8 alone, its last time
    m = np.random.default_rng(2750).standard_normal((25, 8, 8)) * 0.1
    m[0] = 400.0 * ones
    ts = np.array([0.5, -1.0, 2.0, 8.0])
    with pytest.raises(SeriesBudgetError, match="exponential overflows"):
        _expm_grid(m, ts)
    late = 2.0 ** 46 * ones
    assert [_norm1(t * late) < 2.0 ** 52 for t in ts.tolist()] == [True, True, True, False]
    for refused, message in (({17: late}, "too large"),
                             ({17: np.full((8, 8), np.nan)}, "non-finite argument"),
                             ({17: late, 22: np.full((8, 8), np.inf)}, "too large"),
                             ({17: np.full((8, 8), np.inf), 22: 2.0 ** 52 * ones}, "non-finite argument"),
                             ({22: late, 17: np.full((8, 8), np.nan)}, "non-finite argument")):
        bad = m.copy()
        for i, member in refused.items():
            bad[i] = member
        with pytest.raises(SeriesBudgetError, match=message):
            _expm_grid(bad, ts)
        first = min(refused)
        with pytest.raises(SeriesBudgetError, match=message):
            _expm_at(bad[first], 8.0)


def test_a_grid_of_every_squaring_count_gives_each_member_its_bytes_alone():
    # 30 systems of 8 x 8 at 10 times, skew or nilpotent so that every
    # exponential is finite, with |t| ||M_i||_1 from 0 to 2^51 and so every
    # squaring count 0..53; system 0 is zero, and gives I at every time
    rng = np.random.default_rng(2760)
    m = rng.standard_normal((30, 8, 8))
    m[::2] -= m[::2].swapaxes(-1, -2)
    m[1::2] = np.triu(m[1::2], 1)
    norms = np.concatenate([[0.0], np.geomspace(1e-8, 2.0 ** 25, 29)])
    m *= (norms / np.abs(m).sum(axis=-2).max(axis=-1))[:, None, None]
    ts = np.array([0.0, 1e-3, -1.0, 3.0, -40.0, 2.0 ** 10, -(2.0 ** 17), 2.0 ** 20, 2.0 ** 25, -(2.0 ** 26)])
    assert len(_grid_counts(m, ts.tolist())) == 54
    got = _expm_grid(m, ts)
    assert np.isfinite(got).all() and (got[0] == np.eye(8)).all()
    _assert_mirrored(m, ts, got)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", ALGEBRAS)
@pytest.mark.parametrize("norm, t", [(2.0 ** -600, 2.0 ** 599), (2.0 ** 600, 2.0 ** -601)])
def test_a_grid_at_both_ends_of_the_float_range_matches_the_adaptive_loop(tag, norm, t):
    # |t| ||M||_1 = 1/2, where M^4 of an unscaled M would under- or overflow
    alg = make_algebra(tag)
    rng = np.random.default_rng(2770)
    m = np.array([_kernels.rho(alg.table, random_matrix(alg, 2, 2, rng).data) for _ in range(4)])
    m *= (norm / np.abs(m).sum(axis=-2).max(axis=-1))[:, None, None]
    ts = np.array([t, -t])
    got = _expm_grid(m, ts)
    for mi, row in zip(m, got):
        for ti, out in zip(ts.tolist(), row):
            ref = adaptive_expm(ti * mi)[0]
            assert _norm1(out - ref) <= 1e-13 * _norm1(ref), ti


@pytest.mark.filterwarnings("error")
def test_a_system_whose_1_norm_passes_the_float_range_is_answered_at_small_times():
    # column 0 sums to 2e308: |t| ||M||_1 is read as |t| 2^64 ||M / 2^64||_1
    m = np.array([[[1e308, 1e308], [-1e308, 1e308]]])
    ts = np.array([1e-308, -2.5e-308])
    got = _expm_grid(m, ts)
    _assert_mirrored(m, ts, got)
    for ti, out in zip(ts.tolist(), got[0]):
        ref = adaptive_expm(ti * m[0])[0]
        assert _norm1(out - ref) <= 1e-13 * _norm1(ref), ti
    for ti in (1.0, 1e-290):
        with pytest.raises(SeriesBudgetError, match="argument too large"):
            _expm_grid(m, np.array([ti]))
        with pytest.raises(SeriesBudgetError, match="argument too large"):
            _expm_at(m[0], ti)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", ALGEBRAS)
def test_arguments_past_the_float_range_are_refused_without_a_warning(tag):
    # the 1-norms of these finite matrices, and |t| times that of the
    # systems, pass the float range: each is refused as too large
    alg = make_algebra(tag)
    for entry in (1e308, 1.7e308):
        x = BiMatrix(alg, np.full((2, 2, alg.dim), entry))
        for mexp in (mexp_rc, mexp_cr):
            with pytest.raises(SeriesBudgetError, match="argument too large"):
                mexp(x)
    for form in diffeq.OdeForm:
        ode = diffeq.LinearOde(BiMatrix(alg, np.full((2, 2, alg.dim), 10.0)), form, (one(alg), one(alg)))
        curve = diffeq.closed_form_solution(ode)
        m, x0 = ode.real_matrix()[None], diffeq._vec(ode.init)[None]
        for t in (1e307, 1e308, -1.7e308):
            with pytest.raises(SeriesBudgetError, match="argument too large"):
                curve(t)
            with pytest.raises(SeriesBudgetError, match="argument too large"):
                diffeq._closed_form_states(m, x0, np.array([0.5, t]))


# ---------------------------------------------------------------------------
# stacked element exponentials: each row gets the bytes of its single call

# from tiny norms up to series-scale's largest, 30
ROW_NORMS = (1e-6, 1e-4, 0.01, 0.3, 0.5, 1.0, 2.0, 5.0, 12.0, 30.0)


def _rows(alg, rng):
    """One row of each norm of ROW_NORMS, in random directions, as a (k, d) array."""
    c = rng.standard_normal((len(ROW_NORMS), alg.dim))
    return c * (np.array(ROW_NORMS) / np.sqrt((c * c).sum(axis=1)))[:, None]


def _edge_rows(alg):
    """Rows whose bits the one-row path must keep: real ones (|v| = 0), signed zeros and subnormal imaginary parts."""
    tiny = math.ulp(0.0)
    return np.array([[0.7, 0.0, 0.0, 0.0], [-2.5, -0.0, -0.0, -0.0], [-0.0, -0.0, -0.0, -0.0],
                     [-0.0, 0.3, -0.0, 0.5], [0.3, tiny, 0.0, -0.0], [-1.25, 1e-310, -tiny, 3 * tiny]])[:, :alg.dim]


def _singles(alg, c):
    """exp_el, cosh_el, sinh_el, cos_el and sin_el of each row of c, one call per row."""
    els = [Element(alg, row) for row in c]
    return [np.array([f(x).coeffs for x in els]) for f in (exp_el, cosh_el, sinh_el, cos_el, sin_el)]


def _trig(c):
    """(cos, sin) of each row of c, from one two-map _slice call on its rows."""
    return [np.array(out).reshape(c.shape) for out in _slice((cmath.cos, cmath.sin), c.tolist())]


def _stacked(c):
    return [_exp_els(c), *_pairs(c), *_trig(c)]


@pytest.mark.parametrize("tag", ALGEBRAS)
def test_stacked_element_exponentials_give_each_row_its_bytes_alone(tag):
    """Each map of one element (series._el) has the bytes of its row of _exp_els, _pairs and the two-map _slice."""
    alg = make_algebra(tag)
    rng = np.random.default_rng(2800 + alg.dim)
    c = np.concatenate([_rows(alg, rng), _edge_rows(alg)])
    want = _singles(alg, c)
    got = _stacked(c)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    # any order gives the same rows
    order = rng.permutation(len(c))
    for g, w in zip(_stacked(c[order]), want):
        assert g.tobytes() == w[order].tobytes()
    # exp_at of each row has the bytes of its row of diffeq._exps_at
    bs, ts = [Element(alg, row) for row in c], np.array([1.0, -1.0, 0.5, 0.0])
    for b, rows in zip(bs, _exps_at(bs, ts)):
        for t, row in zip(ts.tolist(), rows):
            assert row.tobytes() == exp_at(b, t).coeffs.tobytes()


def _error(call) -> str:
    with pytest.raises(SeriesBudgetError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0 ** 53, 800.0])
def test_a_row_that_raises_alone_raises_the_same_error_in_a_stack(bad):
    alg = make_algebra("quaternion")
    x = Element(alg, [bad, 0.0, 0.0, 0.0])
    fine = _rows(alg, np.random.default_rng(2810))
    for single, stacked in ((exp_el, _exp_els), (sinh_el, _pairs), (cosh_el, _pairs), (sin_el, _trig),
                            (cos_el, _trig)):
        if bad == 800.0 and single in (sin_el, cos_el):
            continue  # sin and cos of a real 800 are finite
        alone = _error(lambda: single(x))
        # a later row that fails otherwise does not change the error
        later = [[v, 0.0, 0.0, 0.0] for v in (math.nan, 2.0 ** 53)]
        for stack in ([x.coeffs], [fine[0], x.coeffs], [x.coeffs, *fine], [x.coeffs, *later], [x.coeffs, *later[::-1]]):
            assert _error(lambda: stacked(np.array(stack))) == alone


def test_element_maps_take_no_matrix_exponential(monkeypatch):
    def refuse(m):
        raise AssertionError("an element map reached _expm")

    monkeypatch.setattr(series, "_expm", refuse)
    for tag in ALGEBRAS:
        alg = make_algebra(tag)
        c = _rows(alg, np.random.default_rng(2820))
        _singles(alg, c)
        _stacked(c)


@pytest.mark.parametrize("tag", ALGEBRAS)
def test_an_empty_stack_of_element_exponentials_is_empty(tag):
    alg = make_algebra(tag)
    for out in _stacked(np.empty((0, alg.dim))):
        assert out.shape == (0, alg.dim)


def test_exps_at_gives_each_row_the_bytes_of_exp_at(HH):
    bs = (basis(HH, 1), random_element(HH, np.random.default_rng(2840), 3.0))
    ts = np.array([0.0, -1e-5, 0.5, 2.0, -7.0])
    got = _exps_at(bs, ts)
    for b, rows in zip(bs, got):
        for t, row in zip(ts.tolist(), rows):
            assert row.tobytes() == exp_at(b, t).coeffs.tobytes()


@pytest.mark.filterwarnings("error")
def test_an_argument_at_t_that_overflows_is_refused_without_a_warning(HH):
    """Finite a and t whose product a t overflows: refused as too large, as a finite huge a t is."""
    a = Element(HH, [1e200, 0.0, 0.0, 0.0])
    for call in (lambda: exp_at(a, 1e200), lambda: quasiexp_at(one(HH), a, -1e200),
                 lambda: _exps_at((basis(HH, 1), a), np.array([0.5, 1e200]))):
        with pytest.raises(SeriesBudgetError, match="argument too large for an accurate exponential"):
            call()


class TestLatticeDirections:
    """From order three the lattice scales each direction by a power of two, and the result back."""

    def test_a_power_of_two_passes_through_exactly(self, HH, rng):
        cs, x = [random_element(HH, rng) for _ in range(3)], random_element(HH, rng)
        want = quasiexp(cs, x).coeffs.tolist()
        for shift in (60, 600, -600):
            got = quasiexp([cs[0], math.ldexp(1.0, shift) * cs[1], cs[2]], x).coeffs.tolist()
            assert got == [math.ldexp(w, shift) for w in want], shift

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_zero_direction_gives_zero(self, HH, rng, n):
        cs = [random_element(HH, rng) for _ in range(n - 1)] + [zero(HH)]
        assert quasiexp(cs, random_element(HH, rng, 3.0)).coeffs.tolist() == [0.0] * 4

    @pytest.mark.filterwarnings("error")
    def test_a_result_past_the_float_range_raises(self, HH, rng):
        cs, x = [random_element(HH, rng) for _ in range(3)], random_element(HH, rng)
        with pytest.raises(SeriesBudgetError, match="exponential overflows"):
            quasiexp([1e300 * cs[0], 1e300 * cs[1], cs[2]], x)


def test_quasiexp_refuses_directions_of_another_algebra(HH):
    with pytest.raises(AlgebraError, match="algebra mismatch in quasiexp"):
        quasiexp([one(HH), one(make_algebra("complex"))], one(HH))


def test_mexp_rc_refuses_a_non_square_matrix(HH):
    with pytest.raises(ValueError, match="square matrix required"):
        mexp_rc(random_matrix(HH, 2, 3, np.random.default_rng(0)))


@pytest.mark.parametrize("mexp", [mexp_rc, mexp_cr])
def test_a_non_square_matrix_exponential_raises_the_typed_algebra_error(HH, mexp):
    with pytest.raises(AlgebraError, match="square matrix required"):
        mexp(random_matrix(HH, 3, 2, np.random.default_rng(0)))

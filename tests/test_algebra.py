import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncalg import algebra, biring
from ncalg.algebra import (
    AlgebraDesc,
    AlgebraError,
    Element,
    NotInvertibleError,
    basis,
    commutator,
    format_element,
    from_scalar,
    in_centralizer,
    inv,
    inv_stack,
    left_matrix,
    make_algebra,
    one,
    random_element,
    right_matrix,
    zero,
)
from ncalg.biring import BiMatrix, random_matrix, rc_mul, verify_eigen_rc
from ncalg.diffeq import eigen_conditions, hyperbolic_ode
from ncalg.tensor import pure, slot_tensors_equal
from conftest import quat_mul_oracle

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def quat(HH, *c):
    return Element(HH, c)


class TestMakeAlgebra:
    def test_quaternion_ij_is_k(self, HH):
        i, j, k = basis(HH, 1), basis(HH, 2), basis(HH, 3)
        assert (i * j).close(k, 1e-15)

    def test_unit_law_all_tags(self):
        for tag in ("real", "complex", "quaternion"):
            alg = make_algebra(tag)
            assert (one(alg) * one(alg)).close(one(alg), 0.0)

    def test_complex_i_squared(self, CC):
        i = basis(CC, 1)
        assert (i * i).close(from_scalar(CC, -1.0), 0.0)

    def test_unknown_tag(self):
        with pytest.raises(AlgebraError):
            make_algebra("octonion")

    def test_dims(self, RR, CC, HH):
        assert (RR.dim, CC.dim, HH.dim) == (1, 2, 4)

    def test_split_complex_rejected(self):
        # associative and unital, but j*j = +1 gives (1 + j)(1 - j) = 0
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = 1.0
        with pytest.raises(AlgebraError):
            AlgebraDesc("split-complex", 2, ("1", "j"), t)

    def test_equality_compares_the_table(self, HH):
        # j and k swapped is a valid quaternion table of the other orientation
        swapped = HH.table[:, :, [0, 1, 3, 2]][:, [0, 1, 3, 2]][[0, 1, 3, 2]]
        other = AlgebraDesc("quaternion", 4, HH.basis_names, swapped)
        assert other != HH and not other == HH
        assert AlgebraDesc("quaternion", 4, HH.basis_names, HH.table.copy()) == HH
        with pytest.raises(AlgebraError):
            basis(other, 1) * basis(HH, 2)


class TestMul:
    def test_square_formula(self, HH, rng):
        # x^2 = (x0)^2 - (x1)^2 - (x2)^2 - (x3)^2 + 2 x0 (x1 i + x2 j + x3 k)
        for _ in range(20):
            c = rng.uniform(-2, 2, 4)
            x = Element(HH, c)
            expected = np.array(
                [c[0] ** 2 - c[1] ** 2 - c[2] ** 2 - c[3] ** 2,
                 2 * c[0] * c[1], 2 * c[0] * c[2], 2 * c[0] * c[3]]
            )
            assert np.allclose((x * x).coeffs, expected, atol=1e-12)

    def test_unit(self, HH, rng):
        b = random_element(HH, rng)
        assert (one(HH) * b).close(b, 0.0)
        assert (b * one(HH)).close(b, 0.0)

    def test_i_plus_j_times_i_minus_j(self, HH):
        i, j, k = basis(HH, 1), basis(HH, 2), basis(HH, 3)
        # expand bilinearly: ii - ij + ji - jj = -1 - k - k + 1 = -2k
        assert ((i + j) * (i - j)).close(-2 * k, 1e-15)

    def test_against_oracle(self, HH, rng):
        for _ in range(50):
            a, b = rng.uniform(-3, 3, (2, 4))
            got = (Element(HH, a) * Element(HH, b)).coeffs
            assert np.allclose(got, quat_mul_oracle(a, b), atol=1e-12)

    def test_algebra_mismatch(self, HH, CC):
        with pytest.raises(AlgebraError):
            one(HH) * one(CC)


class TestInv:
    def test_inv_i(self, HH):
        i = basis(HH, 1)
        assert inv(i).close(-i, 0.0)

    def test_inv_two(self, RR):
        assert inv(from_scalar(RR, 2.0)).close(from_scalar(RR, 0.5), 0.0)

    def test_inv_one_plus_ijk(self, HH):
        a = Element(HH, [1, 1, 1, 1])
        expected = Element(HH, [0.25, -0.25, -0.25, -0.25])  # conj / norm^2
        assert inv(a).close(expected, 1e-15)
        assert (a * inv(a)).close(one(HH), 1e-12)

    def test_zero_not_invertible(self, HH):
        with pytest.raises(NotInvertibleError):
            inv(zero(HH))

    @pytest.mark.parametrize("zero_scalar", [0.0, -0.0, 0])
    def test_division_by_zero_scalar(self, HH, zero_scalar):
        with pytest.raises(NotInvertibleError):
            Element(HH, [1, 2, 3, 4]) / zero_scalar

    def test_division_by_scalar(self, HH):
        assert (Element(HH, [1, 2, 3, 4]) / 2).close(Element(HH, [0.5, 1, 1.5, 2]), 0.0)


class TestCentralizer:
    def test_scalar_is_central(self, HH):
        assert in_centralizer(from_scalar(HH, 3.0), basis(HH, 1), 1e-12)

    def test_j_not_with_i(self, HH):
        assert not in_centralizer(basis(HH, 2), basis(HH, 1), 1e-9)

    def test_small_elements_do_not_commute(self, HH):
        # the bound is relative to |c| |b|: 1e-10 i and j differ by 2e-10, their whole size
        assert not in_centralizer(1e-10 * basis(HH, 1), basis(HH, 2))
        assert in_centralizer(1e-10 * basis(HH, 1), 1e10 * basis(HH, 1), 0.0)

    def test_complex_line(self, HH):
        c = Element(HH, [1, 2, 0, 0])  # 1 + 2i commutes with i
        assert in_centralizer(c, basis(HH, 1), 1e-12)

    def test_is_linear_subspace(self, HH, rng):
        b = random_element(HH, rng)
        c1 = from_scalar(HH, 1.0) + 0.5 * b
        c2 = b * b
        for _ in range(10):
            d1, d2 = rng.uniform(-3, 3, 2)
            assert in_centralizer(float(d1) * c1 + float(d2) * c2, b, 1e-9)


class TestMultiplicationMatrices:
    def test_left_matrix_quaternion_pattern(self, HH, rng):
        c = rng.uniform(-2, 2, 4)
        x0, x1, x2, x3 = c
        expected = np.array([
            [x0, -x1, -x2, -x3],
            [x1, x0, -x3, x2],
            [x2, x3, x0, -x1],
            [x3, -x2, x1, x0],
        ])
        assert np.allclose(left_matrix(Element(HH, c)), expected, atol=1e-14)

    def test_right_matrix_quaternion_pattern(self, HH, rng):
        c = rng.uniform(-2, 2, 4)
        x0, x1, x2, x3 = c
        expected = np.array([
            [x0, -x1, -x2, -x3],
            [x1, x0, x3, -x2],
            [x2, -x3, x0, x1],
            [x3, x2, -x1, x0],
        ])
        assert np.allclose(right_matrix(Element(HH, c)), expected, atol=1e-14)

    def test_left_of_unit_is_identity(self, HH):
        assert np.allclose(left_matrix(one(HH)), np.eye(4))

    def test_defining_property(self, HH, rng):
        a, x = random_element(HH, rng), random_element(HH, rng)
        assert np.allclose(left_matrix(a) @ x.coeffs, (a * x).coeffs, atol=1e-12)
        assert np.allclose(right_matrix(a) @ x.coeffs, (x * a).coeffs, atol=1e-12)

    def test_sandwich_product(self, HH, rng):
        # L(a) R(a) applied to basis vectors reproduces a e_m a
        a = Element(HH, [1, 1, 0, 0])
        prod = left_matrix(a) @ right_matrix(a)
        for m in range(4):
            sandwich = a * basis(HH, m) * a
            assert np.allclose(prod[:, m], sandwich.coeffs, atol=1e-12)


@given(a=st.tuples(*[coeff] * 4), b=st.tuples(*[coeff] * 4), c=st.tuples(*[coeff] * 4))
@settings(max_examples=200, deadline=None)
def test_associativity(a, b, c):
    HH = make_algebra("quaternion")
    ea, eb, ec = Element(HH, a), Element(HH, b), Element(HH, c)
    assert ((ea * eb) * ec).close(ea * (eb * ec), 1e-12)


@given(a=st.tuples(*[coeff] * 4), b=st.tuples(*[coeff] * 4))
@settings(max_examples=100, deadline=None)
def test_left_right_matrices_commute(a, b):
    HH = make_algebra("quaternion")
    la = left_matrix(Element(HH, a))
    rb = right_matrix(Element(HH, b))
    assert np.abs(la @ rb - rb @ la).max() <= 1e-12


@given(a=st.tuples(*[coeff] * 4))
@settings(max_examples=100, deadline=None)
def test_inv_round_trip(a):
    HH = make_algebra("quaternion")
    ea = Element(HH, a)
    if ea.norm() < 1e-3:
        return
    assert (ea * inv(ea)).close(one(HH), 1e-12)
    assert (inv(ea) * ea).close(one(HH), 1e-12)


def test_associativity_real_complex(rng):
    for tag in ("real", "complex"):
        alg = make_algebra(tag)
        for _ in range(200):
            a, b, c = (random_element(alg, rng) for _ in range(3))
            assert ((a * b) * c).close(a * (b * c), 1e-12)
            assert (a * b).close(b * a, 1e-12)  # commutative here


class TestForms:
    def test_text_form(self, HH):
        e = Element(HH, [1.0, 2.0, -0.5, 0.0])
        assert format_element(e) == "1 + 2i - 0.5j + 0k"
        # NaN takes no minus sign, and -0.0 prints as 0
        assert format_element(Element(HH, [np.nan, -0.0, 0.0, -np.nan])) == "nan + 0i + 0j + nank"

    def test_text_digits(self, RR):
        assert format_element(Element(RR, [1 / 3])) == "0.333333333333"

    def test_norm_conj(self, HH):
        e = Element(HH, [1, 2, 2, 0])
        assert e.norm() == 3.0
        assert e.conj().close(Element(HH, [1, -2, -2, 0]), 0.0)

    def test_commutator_zero_for_commuting(self, HH):
        assert commutator(one(HH), basis(HH, 1)).close(zero(HH), 0.0)

    def test_random_element_seeded(self, HH):
        assert random_element(HH, 5).close(random_element(HH, 5), 0.0)


# ---------------------------------------------------------------------------
# the array-level kernels against the earlier formulas

U = np.finfo(np.float64).eps / 2
TAGS = ("real", "complex", "quaternion")


@st.composite
def element_pair(draw):
    alg = make_algebra(draw(st.sampled_from(TAGS)))
    wide = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
    a = Element(alg, draw(st.lists(wide, min_size=alg.dim, max_size=alg.dim)))
    b = Element(alg, draw(st.lists(wide, min_size=alg.dim, max_size=alg.dim)))
    return a, b


def _read_only(*elements):
    for e in elements:
        assert not e.coeffs.flags.writeable
        with pytest.raises(ValueError):
            e.coeffs[0] = 1.0


@given(pair=element_pair(), s=st.floats(min_value=-1e3, max_value=1e3))
@settings(max_examples=300, deadline=None)
def test_element_kernels_match_the_reference_formulas(pair, s):
    a, b = pair
    alg, ca, cb = a.algebra, a.coeffs, b.coeffs
    prod = a * b
    want = np.einsum("p,q,pqk->k", ca, cb, alg.table)
    # each coefficient sums dim products a_p b_q, each rounded once
    assert np.abs(prod.coeffs - want).max() <= 4 * alg.dim * U * np.abs(ca).sum() * np.abs(cb).sum()
    assert np.array_equal((a + b).coeffs, ca + cb)
    assert np.array_equal((a - b).coeffs, ca - cb)
    assert np.array_equal((-a).coeffs, -ca)
    assert np.array_equal((a * s).coeffs, ca * s)
    assert np.array_equal((s * a).coeffs, ca * s)
    assert np.array_equal(a.conj().coeffs, np.concatenate((ca[:1], -ca[1:])))
    assert abs(a.norm() - math.hypot(*ca)) <= 2 * U * math.hypot(*ca)
    results = [prod, a + b, a - b, -a, a * s, s * a, a.conj()]
    if ca @ ca >= np.finfo(np.float64).tiny:  # where the unscaled formula holds
        old = np.concatenate((ca[:1], -ca[1:])) / (ca @ ca)
        assert np.linalg.norm(inv(a).coeffs - old) <= 4 * U * np.linalg.norm(old)
        results.append(inv(a))
    _read_only(*results)


@pytest.mark.parametrize("tag", TAGS)
def test_matrix_entries_are_read_only(tag, rng):
    a = random_matrix(make_algebra(tag), 2, 3, rng)
    entries = [a.entry(i, j) for i in range(2) for j in range(3)]
    _read_only(*entries)
    assert np.array_equal(np.stack([e.coeffs for e in entries]), a.data.reshape(6, -1))


def test_public_constructor_still_checks_and_copies(HH):
    src = np.array([1.0, 2.0, 3.0, 4.0])
    x = Element(HH, src)
    src[0] = 9.0
    assert x.coeffs[0] == 1.0
    _read_only(x)
    with pytest.raises(AlgebraError):
        Element(HH, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, Element.close])
def test_mixed_algebras_raise(op, RR, CC, HH):
    for x, y in ((one(HH), one(CC)), (one(CC), one(RR)), (one(RR), one(HH))):
        with pytest.raises(AlgebraError):
            op(x, y)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("size", [1e160, 1e-160, 1e170, 1e-170, 1e300, 1e-300])
def test_inverse_at_extreme_scales(tag, size):
    """norm^2 over- or underflows here; the inverse must not."""
    alg = make_algebra(tag)
    x = Element(alg, size * np.linspace(1.0, 0.25, alg.dim))
    y = inv(x)
    assert np.isfinite(y.coeffs).all()
    assert (x * y).close(one(alg), 1e-15)
    assert (y * x).close(one(alg), 1e-15)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 5e-324, 0.0])
def test_inverse_of_non_finite_or_unrepresentable_elements_raises(tag, bad):
    alg = make_algebra(tag)
    with pytest.raises(NotInvertibleError):
        inv(Element(alg, [bad] + [0.0] * (alg.dim - 1)))


@pytest.mark.parametrize("tag", TAGS)
def test_stacked_inverse_has_the_bits_of_inv(tag):
    """Every member of inv_stack, over many scales, has inv's bits, and the
    members inv refuses are False in the mask and NaN in the result."""
    alg = make_algebra(tag)
    rng = np.random.default_rng(3)
    good = rng.uniform(-1, 1, (40, alg.dim)) * 10.0 ** rng.uniform(-300, 300, (40, 1))
    bad = np.zeros((5, alg.dim))
    bad[:, 0] = [np.inf, -np.inf, np.nan, 5e-324, 0.0]
    out, ok = inv_stack(alg, np.concatenate((good, bad)).reshape(5, 9, alg.dim))
    out, ok = out.reshape(45, alg.dim), ok.ravel()
    assert ok.tolist() == [True] * 40 + [False] * 5
    assert np.isnan(out[40:]).all()
    for c, got in zip(good, out):
        assert got.tobytes() == inv(Element(alg, c)).coeffs.tobytes()


class TestExactEquality:
    def test_a_tiny_difference_is_unequal(self, HH):
        assert not 1e-10 * basis(HH, 1) == zero(HH)
        assert 1e-10 * basis(HH, 1) != zero(HH)

    def test_equal_coefficients_are_equal_and_hash_alike(self, HH):
        x, y = Element(HH, [0.0, 1.5, -2.0, 3.0]), Element(HH, [-0.0, 1.5, -2.0, 3.0])
        assert x == y and hash(x) == hash(y)
        assert len({x, y, one(HH)}) == 2

    def test_nan_equals_nothing(self, HH):
        x = Element(HH, [np.nan, 0.0, 0.0, 0.0])
        assert x != x

    def test_other_algebras_and_types_are_unequal(self, RR, CC):
        assert one(RR) != one(CC)
        assert one(RR) != 1.0


# ---------------------------------------------------------------------------
# the one closeness rule at every magnitude


def _scale_cases():
    """(answer, predicate of a scale s that multiplies its inputs) for each predicate, named."""
    H = make_algebra("quaternion")
    rng = np.random.default_rng(5)
    e, i, j, k = (basis(H, m) for m in range(4))
    z = zero(H)
    a, b, c = (random_element(H, rng, 1e4) for _ in range(3))
    f, g = random_element(H, rng), random_element(H, rng)
    m, p, q = (random_matrix(H, 3, 3, rng) for _ in range(3))
    cases = [
        ("norm of j", True, lambda s: (s * j).norm() == pytest.approx(s, rel=2 * U, abs=0.0)),
        ("norm of f", True, lambda s: (s * f).norm() == pytest.approx(s * f.norm(), rel=16 * U, abs=0.0)),
        ("Element.close i, j", False, lambda s: (s * i).close(s * j)),
        ("Element.close 1e-6 apart", False, lambda s: (s * f).close(s * f * (1 + 1e-6))),
        # the factors are near 1e4, so the two products differ by rounding near 1e-4
        ("Element.close associativity", True, lambda s: ((s * a) * b * c).close((s * a) * (b * c))),
        ("BiMatrix.close 1e-6 apart", False, lambda s: (m * s).close(m * s * (1 + 1e-6))),
        ("BiMatrix.close associativity", True,
         lambda s: rc_mul(rc_mul(m * s, p), q).close(rc_mul(m * s, rc_mul(p, q)))),
        ("in_centralizer j, i", False, lambda s: in_centralizer(s * j, i)),
        ("in_centralizer complex line", True, lambda s: in_centralizer(s * (e + 2 * i), 3 * i - e)),
        ("slot_tensors_equal linearity", True,
         lambda s: slot_tensors_equal(pure([s * f, g]) + pure([s * a, g]), pure([s * (f + a), g]))),
        ("slot_tensors_equal ixi, jxj", False, lambda s: slot_tensors_equal(pure([s * i, i]), pure([s * j, j]))),
        # (f + a) - a is f up to rounding near 1e-12
        ("verify_eigen_rc eigenpair", True, lambda s: verify_eigen_rc(
            BiMatrix.from_elements([[s * (f + a), -s * a], [s * a, s * (f - a)]]), s * f, [e, e]).verdict),
        ("verify_eigen_rc no eigenpair", False, lambda s: verify_eigen_rc(
            BiMatrix.from_elements([[z, s * f], [s * f, z]]), s * f, [e, -e]).verdict),
        ("eigen_conditions met", True, lambda s: eigen_conditions(hyperbolic_ode(H, i), s * i, [j, k]).verdict),
        ("eigen_conditions not met", False,
         lambda s: eigen_conditions(hyperbolic_ode(H, j), s * i, [j, k]).verdict),
    ]
    return [pytest.param(answer, predicate, id=name) for name, answer, predicate in cases]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_element_is_close_to_nothing(HH, bad):
    x = Element(HH, [bad, 0.0, 0.0, 0.0])
    assert not x.close(one(HH))
    assert not one(HH).close(x, np.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(4,), (3, 3, 4)])
def test_closeness_holds_at_the_top_of_the_float_range(HH, shape):
    # the norms of c overflow, though c is finite: the bound must not become inf
    c = np.full(shape, 1.7e308)
    assert not algebra.close(c, 0.5 * c)
    assert algebra.close(c, c) and algebra.close(c, c * (1 + 1e-12))
    if len(shape) == 1:
        assert not Element(HH, c).close(Element(HH, 0.5 * c))
        assert Element(HH, c).close(Element(HH, c)) and Element(HH, c).close(Element(HH, c * (1 + 1e-12)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1.0, 1e-200, 1e-9, 1e4, 1e200])
@pytest.mark.parametrize("answer, predicate", _scale_cases())
def test_predicates_answer_alike_at_every_scale(answer, predicate, s):
    assert predicate(s) == answer


def test_frobenius_is_the_unscaled_norm_wherever_that_is_exact():
    """Largest magnitudes 2^-1074 to 2^1023, and just inside and outside [2^-500, 2^500]:
    frobenius is finite, positive and within 4u of math.hypot everywhere,
    and inside the range it has the bits of the unscaled sqrt(c . c)."""
    rng = np.random.default_rng(7)
    edges = [2.0 ** -500, 2.0 ** 500]
    bigs = [2.0 ** p for p in range(-1074, 1024)] + edges + [np.nextafter(x, d) for x in edges for d in (0, np.inf)]
    for big in bigs:
        # one entry at big and the rest a tenth to a fifth of it, so that the
        # norm stays below 2^1024 and no square is subnormal within the range
        c = rng.uniform(0.1, 0.2, (3, 4, 4)) * rng.choice([-1.0, 1.0], (3, 4, 4))
        c[0, 0, 0] = 1.0
        c = c * big
        norm = algebra.frobenius(c)
        assert 0.0 < norm < math.inf and abs(norm - math.hypot(*c.ravel())) <= 4 * 2.0 ** -53 * norm, big
        if 2.0 ** -500 <= np.abs(c).max() <= 2.0 ** 500:
            assert norm == math.sqrt(c.ravel() @ c.ravel()), big


@pytest.mark.parametrize("tag", TAGS)
def test_mul_rows_has_the_bytes_of_each_element_product(tag):
    alg = make_algebra(tag)
    rng = np.random.default_rng(28)
    for k in (0, 1, 2, 7, 40):
        a = Element(alg, rng.standard_normal(alg.dim) * 10.0 ** rng.integers(-3, 3))
        xs = rng.standard_normal((k, alg.dim)) * 10.0 ** rng.integers(-3, 3, size=(k, 1))
        want = np.array([(a * Element(alg, x)).coeffs for x in xs]).reshape(k, alg.dim)
        assert algebra._mul_rows(alg, a.coeffs, xs).tobytes() == want.tobytes()
    # a stack of left factors, broadcast against the right ones, signed basis elements among them
    lefts = np.concatenate((np.eye(alg.dim), -np.eye(alg.dim), rng.standard_normal((5, alg.dim))))
    rights = np.concatenate((rng.standard_normal((6, alg.dim)), np.eye(alg.dim), -np.eye(alg.dim)))
    want = np.array([[(Element(alg, a) * Element(alg, x)).coeffs for x in rights] for a in lefts])
    assert algebra._mul_rows(alg, lefts[:, None], rights[None]).tobytes() == want.tobytes()


def _element_norm(c):
    """Element.norm's rule as it was written in the method: sqrt(c . c) within 2^+-500, else frobenius."""
    h = math.hypot(*c.tolist())
    return math.sqrt(c.dot(c)) if h == 0.0 or 2.0 ** -500 <= h <= 2.0 ** 500 else algebra.frobenius(c)


def _coefficient_rows(dim, rng):
    """Rows at largest magnitudes 2^-1074 to 2^1023, with zero, NaN and infinite rows."""
    bigs = [2.0 ** p for p in range(-1074, 1024, 7)] + [2.0 ** -500, 2.0 ** 500, 0.0]
    rows = rng.uniform(-1.0, 1.0, (len(bigs), dim)) * np.array(bigs)[:, None]
    special = np.array([[np.nan] + [0.0] * (dim - 1), [np.inf] * dim, [-np.inf] + [1.0] * (dim - 1)])
    return np.concatenate((rows, special))


@pytest.mark.parametrize("tag", TAGS)
def test_norm_of_coefficients_is_element_norm(tag):
    alg = make_algebra(tag)
    for c in _coefficient_rows(alg.dim, np.random.default_rng(29)):
        want = np.float64(_element_norm(c)).tobytes()
        assert np.float64(algebra._norm(c)).tobytes() == want == np.float64(Element(alg, c).norm()).tobytes()


@pytest.mark.parametrize("n", [1, 2, 4, 12, 36])
def test_frobenius_rows_has_the_bits_of_each_frobenius_call(n):
    rows = _coefficient_rows(n, np.random.default_rng(n))
    stack = np.stack((rows, rows[::-1] * 3.0))
    want = np.array([[algebra.frobenius(r) for r in member] for member in stack])
    assert algebra._frobenius_rows(stack).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_a_norm_past_the_largest_float_is_inf_with_no_warning(HH):
    c = np.full(4, 1.7e308)
    assert algebra.frobenius(c) == algebra.frobenius(np.stack((c, c))) == Element(HH, c).norm() == math.inf
    assert algebra._frobenius_rows(np.stack((c, c * 1e-300))).tolist() == [math.inf, algebra.frobenius(c * 1e-300)]
    assert algebra.close(c, c) and Element(HH, c).close(Element(HH, c))


@pytest.mark.filterwarnings("error")
def test_norms_and_inverses_of_non_finite_input_give_no_warning(HH):
    # a finite entry whose square overflows, beside an infinity or a NaN
    c = np.array([1.7e308, 1.0, 1.0, np.inf])
    assert algebra.frobenius(c) == Element(HH, c).norm() == math.inf
    assert not algebra.close(np.full(4, 1.7e308), c)
    out, ok = inv_stack(HH, c[None])
    assert not ok[0] and np.isnan(out).all()
    with pytest.raises(NotInvertibleError):
        inv(Element(HH, c))
    assert biring._max_entry_norm(c.reshape(1, 1, 1, 4)).tolist() == [math.inf]
    assert math.isnan(algebra.frobenius(np.array([2e154, np.nan, 0.0, 0.0])))
    rows = np.array([[2e154, np.nan, 0.0, 0.0], [1.7e308, 1.0, 1.0, np.inf], [3.0, 4.0, 0.0, 0.0]])
    got = algebra._frobenius_rows(rows).tolist()
    assert math.isnan(got[0]) and got[1:] == [math.inf, 5.0]


def test_mul_rows_over_the_reals_keeps_the_sign_of_a_zero_product(RR):
    # the real table is the unit, so the product is a * x; a matmul would sum from +0.0
    values = [0.0, -0.0, 1.5, -2.25, 1e308, -1e-320, math.inf, -math.inf, math.nan, 3.0]
    a, x = (np.array(v)[:, None] for v in zip(*[(p, q) for p in values for q in values]))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = np.array([(Element(RR, p) * Element(RR, q)).coeffs for p, q in zip(a, x)])
        got = algebra._mul_rows(RR, a, x)
    assert got.tobytes() == want.tobytes()
    assert algebra._mul_rows(RR, np.array([[-0.0], [0.0]]), np.array([[5.0], [-5.0]])).tobytes() \
        == np.array([[-0.0], [-0.0]]).tobytes()


class TestInputChecks:
    """Each constructor and operation refuses a malformed input with its typed error and message."""

    def test_algebra_refuses_a_table_of_the_wrong_shape(self):
        with pytest.raises(AlgebraError, match=r"structure table must be 2\^3, got \(2, 2, 3\)"):
            AlgebraDesc("bad", 2, ("1", "i"), np.zeros((2, 2, 3)))

    def test_algebra_refuses_a_table_without_a_unit(self):
        with pytest.raises(AlgebraError, match=r"basis element 0 must be the multiplicative unit"):
            AlgebraDesc("bad", 2, ("1", "e"), np.zeros((2, 2, 2)))

    def test_algebra_refuses_a_table_that_is_not_associative(self, HH):
        # i j = -k and j i = k, every other product as in H: (i j) k = 1 but i (j k) = -1
        t = HH.table.copy()
        t[1, 2, 3], t[2, 1, 3] = -1.0, 1.0
        with pytest.raises(AlgebraError, match=r"structure constants are not associative"):
            AlgebraDesc("bad", 4, ("1", "i", "j", "k"), t)

    def test_element_is_immutable(self, HH):
        e = one(HH)
        for name in ("coeffs", "algebra"):
            with pytest.raises(AttributeError, match=r"Element is immutable"):
                setattr(e, name, None)

    def test_element_over_element_is_the_product_with_the_inverse(self, HH):
        a, b = Element(HH, [1.0, 2.0, -3.0, 0.5]), Element(HH, [0.25, -1.0, 2.0, 4.0])
        assert (a / b).coeffs.tobytes() == (a * b.inv()).coeffs.tobytes()
        with pytest.raises(NotInvertibleError, match=r"a zero, subnormal or non-finite element is not invertible"):
            a / zero(HH)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncalg.algebra import (
    AlgebraDesc,
    AlgebraError,
    Element,
    NotInvertibleError,
    basis,
    commutator,
    conj,
    element_from_data,
    element_to_data,
    format_element,
    from_scalar,
    in_centralizer,
    inv,
    left_matrix,
    make_algebra,
    mul,
    norm,
    one,
    random_element,
    right_matrix,
    zero,
)
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
            got = mul(Element(HH, a), Element(HH, b)).coeffs
            assert np.allclose(got, quat_mul_oracle(a, b), atol=1e-12)

    def test_algebra_mismatch(self, HH, CC):
        with pytest.raises(AlgebraError):
            mul(one(HH), one(CC))


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


class TestCentralizer:
    def test_scalar_is_central(self, HH):
        assert in_centralizer(from_scalar(HH, 3.0), basis(HH, 1), 1e-12)

    def test_j_not_with_i(self, HH):
        assert not in_centralizer(basis(HH, 2), basis(HH, 1), 1e-9)

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

    def test_text_digits(self, RR):
        assert format_element(Element(RR, [1 / 3])) == "0.333333333333"

    def test_data_round_trip(self, HH, rng):
        e = random_element(HH, rng)
        d = element_to_data(e)
        assert d["algebra"] == "quaternion" and len(d["coeffs"]) == 4
        assert element_from_data(d).close(e, 0.0)

    def test_norm_conj(self, HH):
        e = Element(HH, [1, 2, 2, 0])
        assert norm(e) == 3.0
        assert conj(e).close(Element(HH, [1, -2, -2, 0]), 0.0)

    def test_commutator_zero_for_commuting(self, HH):
        assert commutator(one(HH), basis(HH, 1)).close(zero(HH), 0.0)

    def test_random_element_seeded(self, HH):
        assert random_element(HH, 5).close(random_element(HH, 5), 0.0)

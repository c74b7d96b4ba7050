import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncalg import _kernels, biring
from ncalg.algebra import (AlgebraError, Element, NotInvertibleError, basis, frobenius, from_scalar, inv, inv_stack,
                           make_algebra, one, random_element, zero)
from ncalg.biring import (
    ACCEPT,
    PIVOT_RTOL,
    BiMatrix,
    MinorSelector,
    QuasideterminantUndefinedError,
    SingularMatrixError,
    bordered_quasidet,
    cr_inv,
    cr_mul,
    cr_pow,
    diff_norm,
    hadamard_inv,
    is_rc_singular,
    left_dependency,
    quasidet_cr,
    quasidet_rc,
    quasidets_rc,
    random_matrix,
    rc_inv,
    rc_mul,
    rc_pow,
    rc_rank,
    solve_rc,
    submatrix,
    transpose,
    verify_eigen_rc,
)

import exact
from conftest import complex_matrix, quat_mul_oracle


def real_mat(RR, rows):
    return BiMatrix.from_elements([[from_scalar(RR, v) for v in row] for row in rows])


def eigen_offdiag(f):
    """Both eigenvalues of [[0, f], [f, 0]]: f and -f."""
    if not f.coeffs.any():
        raise ValueError("off-diagonal entry must be nonzero")
    return f, -f


def elliptic_eigen_sample(algebra, seed):
    """A unit pure-imaginary quaternion b (so b*b = -1), seed-deterministic."""
    if algebra.tag != "quaternion":
        raise AlgebraError("pure-imaginary unit samples need the quaternions")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Element(algebra, np.concatenate(([0.0], v)))


class TestProducts:
    def test_identity_both_products(self, HH, rng):
        a = random_matrix(HH, 3, 3, rng)
        d = BiMatrix.identity(HH, 3)
        assert rc_mul(d, a).close(a, 0.0)
        assert rc_mul(a, d).close(a, 0.0)
        assert cr_mul(d, a).close(a, 0.0)
        assert cr_mul(a, d).close(a, 0.0)

    def test_rc_matches_classical_over_reals(self, RR, rng):
        a = random_matrix(RR, 3, 3, rng)
        b = random_matrix(RR, 3, 3, rng)
        classical = a.data[:, :, 0] @ b.data[:, :, 0]
        assert np.allclose(rc_mul(a, b).data[:, :, 0], classical, atol=1e-12)

    def test_offdiag_square(self, HH, rng):
        f = random_element(HH, rng)
        z = zero(HH)
        a = BiMatrix.from_elements([[z, f], [f, z]])
        sq = rc_mul(a, a)
        f2 = f * f
        expected = BiMatrix.from_elements([[f2, z], [z, f2]])
        assert sq.close(expected, 1e-12)

    def test_cr_from_transposes_over_reals(self, RR, rng):
        a = random_matrix(RR, 3, 3, rng)
        b = random_matrix(RR, 3, 3, rng)
        assert cr_mul(a, b).close(transpose(rc_mul(transpose(a), transpose(b))), 1e-12)

    def test_shape_mismatch(self, HH, rng):
        with pytest.raises(Exception):
            rc_mul(random_matrix(HH, 2, 3, rng), random_matrix(HH, 2, 2, rng))

    def test_rectangular_shapes(self, HH, rng):
        a = random_matrix(HH, 2, 3, rng)
        b = random_matrix(HH, 3, 4, rng)
        assert rc_mul(a, b).data.shape == (2, 4, 4)
        # cr needs rows(a) = cols(b); result is (rows(b), cols(a))
        c = random_matrix(HH, 4, 2, rng)
        assert cr_mul(a, c).data.shape == (4, 3, 4)


class TestDuality:
    def test_product_duality(self, HH, rng):
        for _ in range(25):
            a = random_matrix(HH, 3, 3, rng)
            b = random_matrix(HH, 3, 3, rng)
            assert diff_norm(transpose(rc_mul(a, b)), cr_mul(transpose(a), transpose(b))) <= 1e-10
            assert diff_norm(transpose(cr_mul(a, b)), rc_mul(transpose(a), transpose(b))) <= 1e-10

    def test_power_duality(self, HH, rng):
        a = random_matrix(HH, 2, 2, rng)
        for n in range(4):
            assert diff_norm(cr_pow(transpose(a), n), transpose(rc_pow(a, n))) <= 1e-10

    def test_inverse_duality(self, HH, rng):
        a = random_matrix(HH, 3, 3, rng)
        assert diff_norm(cr_inv(transpose(a)), transpose(rc_inv(a))) <= 1e-10

    def test_quasidet_transpose_identity(self, HH, rng):
        for size in (2, 3):
            a = random_matrix(HH, size, size, rng)
            for i in range(size):
                for j in range(size):
                    assert quasidet_cr(transpose(a), j, i).close(quasidet_rc(a, i, j), 1e-10)

    def test_cancellation(self, HH, rng):
        a = random_matrix(HH, 2, 2, rng)
        b = random_matrix(HH, 2, 2, rng)
        # right-multiplying b rc a by the inverse recovers b
        assert diff_norm(rc_mul(rc_mul(b, a), rc_inv(a)), b) <= 1e-9


class TestHadamard:
    def test_worked_2x2(self, RR):
        a = real_mat(RR, [[1, 2], [3, 4]])
        h = hadamard_inv(a)
        assert np.allclose(h.data[:, :, 0], [[1, 1 / 3], [1 / 2, 1 / 4]], atol=1e-15)

    def test_involution(self, HH, rng):
        a = random_matrix(HH, 3, 2, rng) + 3.0 * BiMatrix.from_elements(
            [[one(HH)] * 2 for _ in range(3)]
        )  # push entries away from zero
        assert hadamard_inv(hadamard_inv(a)).close(a, 1e-10)

    def test_zero_entry_rejected(self, HH):
        with pytest.raises(ZeroDivisionError):
            hadamard_inv(BiMatrix.identity(HH, 2))

    def test_tiny_entry_is_inverted(self, HH):
        # the norm of 1e-200 underflows to 0, but the entry is not zero
        h = hadamard_inv(BiMatrix.from_elements([[from_scalar(HH, 1e-200)]]))
        assert h.data[0, 0, 0] == pytest.approx(1e200, rel=1e-15)
        assert not h.data[0, 0, 1:].any()


class TestPowers:
    def test_first_power(self, HH, rng):
        a = random_matrix(HH, 2, 2, rng)
        assert rc_pow(a, 1).close(a, 0.0)
        assert cr_pow(a, 1).close(a, 0.0)

    def test_hyperbolic_square_is_identity(self, RR):
        a = real_mat(RR, [[0, 1], [1, 0]])
        assert rc_pow(a, 2).close(BiMatrix.identity(RR, 2), 0.0)
        assert rc_pow(a, 3).close(a, 0.0)

    def test_zeroth_power(self, HH, rng):
        a = random_matrix(HH, 3, 3, rng)
        assert rc_pow(a, 0).close(BiMatrix.identity(HH, 3), 0.0)

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_powers_of_integer_matrices_are_exact(self, tag):
        """rc_pow and cr_pow of integer matrices equal the exact powers of tests/exact.py.

        Entries in [-3, 3], n <= 4 and k <= 6 keep every partial sum of every
        product of powers below the matching entry of |rho(a)|^k, which the
        test checks is below 2^53, so the float route rounds nothing. A zero
        may come back with either sign, so the values are compared, not the
        bytes.
        """
        alg = make_algebra(tag)
        rng = np.random.default_rng(18)
        for n in range(1, 5):
            for _ in range(6):
                ints = rng.integers(-3, 4, (n, n, alg.dim))
                a, rows = BiMatrix(alg, ints), ints.tolist()
                bound = np.abs(_kernels.rho(alg.table, ints).astype(np.int64))
                assert np.linalg.matrix_power(bound, 6).max() < 2 ** 53
                for k in range(7):
                    assert np.array_equal(rc_pow(a, k).data, exact.power(exact.rc_mul, rows, k)), (n, k)
                    assert np.array_equal(cr_pow(a, k).data, exact.power(exact.cr_mul, rows, k)), (n, k)

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_cr_pow_is_the_transpose_of_the_rc_pow_of_the_transpose_byte_for_byte(self, tag):
        alg = make_algebra(tag)
        rng = np.random.default_rng(19)
        for n in range(1, 6):
            a = random_matrix(alg, n, n, rng)
            for k in range(6):
                assert cr_pow(a, k).data.tobytes() == transpose(rc_pow(transpose(a), k)).data.tobytes()

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_every_block_of_a_power_of_rho_is_rho_of_its_column_read(self, tag):
        """rho(a)^k lies on the image of rho: its other block columns add nothing to column 0's."""
        alg = make_algebra(tag)
        rng = np.random.default_rng(20)
        for n in range(1, 6):
            for scale in (0.3, 1.0, 3.0):
                r = _kernels.rho(alg.table, random_matrix(alg, n, n, rng, scale).data)
                for k in range(7):
                    power = np.linalg.matrix_power(r, k)
                    back = _kernels.rho(alg.table, _kernels.column(power, alg.dim))
                    assert np.abs(back - power).max() <= 1e-13 * np.abs(power).max(), (n, scale, k)


class TestQuasideterminant:
    def test_worked_value(self, RR):
        a = real_mat(RR, [[1, 2], [3, 4]])
        assert quasidet_rc(a, 0, 0).close(from_scalar(RR, -0.5), 1e-15)

    def test_2x2_closed_forms(self, rng):
        for tag in ("real", "complex", "quaternion"):
            alg = make_algebra(tag)
            for _ in range(20):
                a = random_matrix(alg, 2, 2, rng)
                if np.sqrt((a.data ** 2).sum(axis=2)).min() < 1e-2:
                    continue
                for i in range(2):
                    for j in range(2):
                        closed = a.entry(i, j) - a.entry(i, 1 - j) * a.entry(1 - i, 1 - j).inv() * a.entry(1 - i, j)
                        assert quasidet_rc(a, i, j).close(closed, 1e-10)

    def test_size_one(self, HH, rng):
        e = random_element(HH, rng)
        a = BiMatrix.from_elements([[e]])
        assert quasidet_rc(a, 0, 0).close(e, 0.0)

    def test_undefined_when_interior_singular(self, HH):
        swap = BiMatrix.from_elements([[zero(HH), one(HH)], [one(HH), zero(HH)]])
        with pytest.raises(QuasideterminantUndefinedError):
            quasidet_rc(swap, 0, 0)


class TestMaxEntryNorm:
    """The largest entry norm at every magnitude: no square over- or underflows."""

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
    def test_scale_free(self, HH, scale):
        a = random_matrix(HH, 3, 3, np.random.default_rng(0))
        assert (a * scale).max_entry_norm() == pytest.approx(a.max_entry_norm() * scale, rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_a_norm_past_the_float_range_is_inf_with_no_warning(self, tag):
        """Entries of 1.7e308: a norm past the largest float (over C and H) is inf, quietly."""
        alg = make_algebra(tag)
        a = BiMatrix(alg, np.full((2, 2, alg.dim), 1.7e308))
        assert a.max_entry_norm() == (1.7e308 if alg.dim == 1 else math.inf)
        assert BiMatrix.zeros(alg, 0, 2).max_entry_norm() == 0.0


class TestInverse:
    def test_worked_2x2(self, RR):
        a = real_mat(RR, [[1, 2], [3, 4]])
        assert np.allclose(rc_inv(a).data[:, :, 0], [[-2, 1], [1.5, -0.5]], atol=1e-12)

    def test_identity(self, HH):
        d = BiMatrix.identity(HH, 3)
        assert rc_inv(d).close(d, 0.0)

    def test_central_scalar_rule(self, HH, rng):
        # (m a)^{-1} = a^{-1} m^{-1} for a real scalar factor m
        a = random_matrix(HH, 2, 2, rng)
        m = 2.5
        lhs = rc_inv(a * m)
        rhs = rc_inv(a) * (1.0 / m)
        assert diff_norm(lhs, rhs) <= 1e-10

    def test_diagonal_and_swap(self, HH):
        i, j = basis(HH, 1), basis(HH, 2)
        z = zero(HH)
        diag = BiMatrix.from_elements([[i, z], [z, j]])
        expected = BiMatrix.from_elements([[-i, z], [z, -j]])
        assert rc_inv(diag).close(expected, 1e-12)
        swap = BiMatrix.from_elements([[z, i], [i, z]])
        assert rc_mul(swap, rc_inv(swap)).close(BiMatrix.identity(HH, 2), 1e-12)

    def test_inverse_entries_are_inverted_quasidets(self, HH, rng):
        a = random_matrix(HH, 3, 3, rng)
        inv = rc_inv(a)
        for i in range(3):
            for j in range(3):
                assert inv.entry(i, j).close(quasidet_rc(a, j, i).inv(), 1e-9)

    def test_round_trip_random(self, rng):
        for tag in ("real", "complex", "quaternion"):
            alg = make_algebra(tag)
            for size in (2, 3):
                a = random_matrix(alg, size, size, rng)
                inv = rc_inv(a)
                d = BiMatrix.identity(alg, size)
                assert rc_mul(a, inv).close(d, 1e-9)
                assert rc_mul(inv, a).close(d, 1e-9)

    def test_classical_oracles(self, RR, CC, rng):
        for _ in range(50):
            a = random_matrix(RR, 3, 3, rng)
            assert np.allclose(rc_inv(a).data[:, :, 0], np.linalg.inv(a.data[:, :, 0]), atol=1e-9)
        for _ in range(50):
            a = random_matrix(CC, 3, 3, rng)
            got = complex_matrix(rc_inv(a))
            assert np.allclose(got, np.linalg.inv(complex_matrix(a)), atol=1e-9)

    def test_singular_detected(self, HH, rng):
        u = [random_element(HH, rng) for _ in range(2)]
        v = [random_element(HH, rng) for _ in range(2)]
        a = BiMatrix.from_elements([[u[i] * v[j] for j in range(2)] for i in range(2)])
        with pytest.raises(SingularMatrixError):
            rc_inv(a)
        assert is_rc_singular(a)


class TestSolve:
    def test_identity_system(self, HH, rng):
        b = [random_element(HH, rng) for _ in range(3)]
        x = solve_rc(BiMatrix.identity(HH, 3), b)
        assert all(xi.close(bi, 0.0) for xi, bi in zip(x, b))

    def test_quaternion_diagonal(self, HH):
        i, j, k = basis(HH, 1), basis(HH, 2), basis(HH, 3)
        a = BiMatrix.from_elements([[i, zero(HH)], [zero(HH), j]])
        x = solve_rc(a, [k, one(HH)])
        assert x[0].close(j, 1e-12)      # i^{-1} k = -ik = j
        assert x[1].close(-j, 1e-12)     # j^{-1}
        col = BiMatrix.from_elements([[e] for e in x])
        rhs = BiMatrix.from_elements([[k], [one(HH)]])
        assert rc_mul(a, col).close(rhs, 1e-12)

    def test_against_gaussian_oracle(self, RR, rng):
        for _ in range(50):
            a = random_matrix(RR, 3, 3, rng)
            b = [random_element(RR, rng) for _ in range(3)]
            x = solve_rc(a, b)
            classical = np.linalg.solve(a.data[:, :, 0], np.array([e.coeffs[0] for e in b]))
            assert np.allclose([e.coeffs[0] for e in x], classical, atol=1e-8)

    def test_against_complex_oracle(self, CC, rng):
        for _ in range(50):
            a = random_matrix(CC, 3, 3, rng)
            b = [random_element(CC, rng) for _ in range(3)]
            x = solve_rc(a, b)
            classical = np.linalg.solve(
                complex_matrix(a), np.array([complex(e.coeffs[0], e.coeffs[1]) for e in b])
            )
            got = np.array([complex(e.coeffs[0], e.coeffs[1]) for e in x])
            assert np.allclose(got, classical, atol=1e-8)


class TestRank:
    def test_identity_full_rank(self, HH):
        k, sel = rc_rank(BiMatrix.identity(HH, 3))
        assert k == 3 and sel == MinorSelector((0, 1, 2), (0, 1, 2))

    def test_real_rank_one(self, RR):
        a = real_mat(RR, [[1, 2], [2, 4]])
        k, _ = rc_rank(a)
        assert k == 1 == np.linalg.matrix_rank(a.data[:, :, 0])

    def test_quaternion_rank_one_with_witness(self, HH):
        i, j = basis(HH, 1), basis(HH, 2)
        a = BiMatrix.from_elements([[i, i], [j, j]])
        k, sel = rc_rank(a)
        assert k == 1
        lam = left_dependency(a, k, sel)
        prod = rc_mul(BiMatrix.from_elements([lam]), a)
        assert float(np.abs(prod.data).max()) <= 1e-10
        assert lam[1].close(-one(HH), 0.0)

    def test_classical_rank_oracle(self, RR, CC, rng):
        for _ in range(25):
            a = random_matrix(RR, 3, 3, rng)
            k, _ = rc_rank(a)
            assert k == np.linalg.matrix_rank(a.data[:, :, 0])
        for _ in range(25):
            a = random_matrix(CC, 2, 3, rng)
            k, _ = rc_rank(a)
            assert k == np.linalg.matrix_rank(complex_matrix(a))

    def test_bordered_quasidet_vanishes(self, HH, rng):
        u = [random_element(HH, rng) for _ in range(3)]
        v = [random_element(HH, rng) for _ in range(3)]
        a = BiMatrix.from_elements([[u[i] * v[j] for j in range(3)] for i in range(3)])
        k, sel = rc_rank(a)
        assert k == 1
        for p in range(3):
            for r in range(3):
                if p in sel.rows or r in sel.cols:
                    continue
                assert bordered_quasidet(a, sel, p, r).norm() <= 1e-8

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_bordered_minors_gather_each_minor_as_one_matrix_does(self, HH, rng, k):
        # every member, selector and border of a 3 x 4 stack, each minor
        # against np.ix_ of its sorted rows and columns on that one matrix
        data = rng.standard_normal((3, 3, 4, HH.dim))
        asks = [(t, MinorSelector(rows, cols), p, r) for t in (2, 0, 1)
                for rows in combinations(range(3), k) for cols in combinations(range(4), k)
                for p in range(3) if p not in rows for r in range(4) if r not in cols]
        minors, i, j = biring._bordered_minors(data, *zip(*asks))
        assert minors.shape == (len(asks), k + 1, k + 1, HH.dim)
        for (t, sel, p, r), minor, at_p, at_r in zip(asks, minors, i, j):
            rows, cols = sorted(sel.rows + (p,)), sorted(sel.cols + (r,))
            assert minor.tobytes() == data[t][np.ix_(rows, cols)].tobytes()
            assert (at_p, at_r) == (rows.index(p), cols.index(r))

    def test_bordered_quasidet_refuses_a_border_inside_the_minor_or_out_of_range(self, HH, rng):
        u = [random_element(HH, rng) for _ in range(3)]
        v = [random_element(HH, rng) for _ in range(3)]
        a = BiMatrix.from_elements([[u[i] * v[j] for j in range(3)] for i in range(3)])
        sel = MinorSelector((0,), (0,))
        # row 0 twice would give a minor with a repeated row, whose quasideterminant is 0
        for p, r in ((0, 1), (1, 0), (0, 0)):
            with pytest.raises(ValueError, match="already in the minor"):
                bordered_quasidet(a, sel, p, r)
        for p, r in ((-1, 1), (1, -1), (3, 1), (1, 3)):
            with pytest.raises(IndexError):
                bordered_quasidet(a, sel, p, r)

    def test_zero_matrix(self, HH):
        k, sel = rc_rank(BiMatrix.zeros(HH, 2, 2))
        assert k == 0 and sel == MinorSelector((), ())


class TestEigen:
    def test_offdiag_pair(self, HH, rng):
        f = random_element(HH, rng)
        b1, b2 = eigen_offdiag(f)
        assert b1.close(f, 0.0) and b2.close(-f, 0.0)
        z = zero(HH)
        a = BiMatrix.from_elements([[z, f], [f, z]])
        for b, v in ((b1, [one(HH), one(HH)]), (b2, [one(HH), -one(HH)])):
            rep = verify_eigen_rc(a, b, v)
            assert rep.verdict and rep.residual <= 1e-12
            assert rep.metrics["shifted_matrix_singular"]

    def test_offdiag_tiny_entry(self, HH):
        f = from_scalar(HH, 1e-200)
        b1, b2 = eigen_offdiag(f)
        assert b1.close(f, 0.0) and b2.close(-f, 0.0)
        with pytest.raises(ValueError):
            eigen_offdiag(zero(HH))

    def test_offdiag_unit(self, RR):
        f = one(RR)
        b1, b2 = eigen_offdiag(f)
        assert {b1.coeffs[0], b2.coeffs[0]} == {1.0, -1.0}

    def test_offdiag_shift_singular_by_bordered_criterion(self, HH):
        # a - bE loses rank for both roots; the major minor's bordered
        # quasideterminant vanishes at the remaining corner
        f = one(HH) + basis(HH, 2)  # 1 + j
        z = zero(HH)
        a = BiMatrix.from_elements([[z, f], [f, z]])
        for b in eigen_offdiag(f):
            shifted = a - BiMatrix.from_elements([[b, z], [z, b]])
            k, sel = rc_rank(shifted)
            assert k == 1
            p = next(r for r in range(2) if r not in sel.rows)
            r = next(c for c in range(2) if c not in sel.cols)
            assert bordered_quasidet(shifted, sel, p, r).norm() <= 1e-12

    def test_identity_eigen(self, HH, rng):
        a = BiMatrix.identity(HH, 2)
        v = [random_element(HH, rng) for _ in range(2)]
        rep = verify_eigen_rc(a, one(HH), v)
        assert rep.verdict and rep.residual == 0.0

    def test_rotation_matrix_quaternion_eigen(self, HH):
        i = basis(HH, 1)
        z, o = zero(HH), one(HH)
        a = BiMatrix.from_elements([[z, o], [-o, z]])
        rep = verify_eigen_rc(a, i, [o, i])
        assert rep.verdict and rep.residual <= 1e-12

    def test_elliptic_sample(self, HH):
        b = elliptic_eigen_sample(HH, seed=11)
        assert (b * b).close(-one(HH), 1e-12)
        assert b.coeffs[0] == 0.0
        assert b.close(elliptic_eigen_sample(HH, seed=11), 0.0)


class TestSubmatrix:
    def test_submatrix(self, HH, rng):
        a = random_matrix(HH, 3, 3, rng)
        s = submatrix(a, [0, 2], [1])
        assert s.rows == 2 and s.cols == 1
        assert s.entry(1, 0).close(a.entry(2, 1), 0.0)


# ---------------------------------------------------------------------------
# checks against references that do not use the real representation


def _lmat_oracle(c):
    """Left multiplication by c as a real matrix, from hand-written products."""
    if c.shape == (1,):
        return c.reshape(1, 1)
    if c.shape == (2,):
        return np.array([[c[0], -c[1]], [c[1], c[0]]])
    return np.stack([quat_mul_oracle(c, e) for e in np.eye(4)], axis=1)


def _oracle_rank(data, tol=None):
    """rc rank of an (m, n, d) array and the tolerance used.

    Singular values of its real form above tol count; tol defaults to 1e-10
    of the largest, so a minor can be measured against its whole matrix.
    """
    m, n, d = data.shape
    r = np.block([[_lmat_oracle(data[i, j]) for j in range(n)] for i in range(m)])
    s = np.linalg.svd(r, compute_uv=False)
    tol = 1e-10 * s[0] if tol is None else tol
    return int((s > tol).sum()) // d, tol


def _brute_force_rank(a):
    """Row sets, then column sets, in lexicographic order; one threshold for every minor."""
    k, tol = _oracle_rank(a.data)
    if k == 0:
        return 0, MinorSelector((), ())
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            if _oracle_rank(a.data[np.ix_(rows, cols)], tol)[0] == k:
                return k, MinorSelector(rows, cols)
    raise AssertionError("rank without a nonsingular minor")


def _family(alg, name, m, n, rng):
    a = random_matrix(alg, m, n, rng).data.copy()
    if name == "outer":
        a = rc_mul(random_matrix(alg, m, 1, rng), random_matrix(alg, 1, n, rng)).data
    elif name == "duplicated-column":
        a[:, n - 1] = a[:, 0]
    elif name == "zero-last-row":
        a[m - 1] = 0.0
    elif name == "zero-first-column":
        a[:, 0] = 0.0
    elif name == "rank-2":
        a = rc_mul(random_matrix(alg, m, 2, rng), random_matrix(alg, 2, n, rng)).data
    elif name == "tiny-first-pivot":
        # diag(1e-12, 1, 1, ...) with unit entries: the first entry is zero next to the rest
        a = np.zeros_like(a)
        for i in range(min(m, n)):
            u = random_element(alg, rng).coeffs
            a[i, i] = u / np.linalg.norm(u) * (1e-12 if i == 0 else 1.0)
    return BiMatrix(alg, a)


FAMILIES = ("outer", "duplicated-column", "zero-last-row", "zero-first-column", "rank-2", "tiny-first-pivot", "full")


class TestRankSearch:
    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_lexicographic_search(self, tag, family):
        alg = make_algebra(tag)
        rng = np.random.default_rng(7)
        for m, n in ((2, 2), (3, 3), (2, 3), (3, 2)):
            for _ in range(3):
                a = _family(alg, family, m, n, rng)
                expected = _brute_force_rank(a)
                k, sel = rc_rank(a)
                assert (k, sel) == expected
                assert k == len(sel.rows) == len(sel.cols)
                if m == n:
                    assert is_rc_singular(a) == (expected[0] < n)

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_tiny_entry_is_not_a_pivot(self, tag):
        alg = make_algebra(tag)
        a = BiMatrix.from_elements(
            [[from_scalar(alg, 1e-12 if i == j == 0 else float(i == j)) for j in range(3)] for i in range(3)]
        )
        k, sel = rc_rank(a)
        assert (k, sel) == (2, MinorSelector((1, 2), (1, 2)))
        lam = left_dependency(a, k, sel)
        combo = rc_mul(BiMatrix.from_elements([lam]), a)
        assert combo.max_entry_norm() <= 1e-10

    def test_non_finite_entry_keeps_typed_errors(self, HH, rng):
        a = random_matrix(HH, 3, 3, rng)
        data = a.data.copy()
        data[1, 2, 0] = np.nan
        a = BiMatrix(HH, data)
        assert is_rc_singular(a)
        with pytest.raises(SingularMatrixError):
            rc_inv(a)
        with pytest.raises(SingularMatrixError):
            solve_rc(a, [one(HH)] * 3)
        with pytest.raises(QuasideterminantUndefinedError):
            quasidet_rc(a, 0, 0)

    def test_empty_matrix_counts_as_singular(self, HH):
        a = BiMatrix(HH, np.zeros((0, 0, 4)))
        assert is_rc_singular(a)
        assert rc_rank(a) == (0, MinorSelector((), ()))
        with pytest.raises(SingularMatrixError):
            rc_inv(a)


class TestProductsAgainstElements:
    def test_rectangular_rc_and_cr(self, rng):
        for tag in ("real", "complex", "quaternion"):
            alg = make_algebra(tag)
            for m, p, n in ((1, 3, 2), (2, 3, 4), (3, 1, 3), (4, 2, 1)):
                a = random_matrix(alg, m, p, rng)
                b = random_matrix(alg, p, n, rng)
                rc = rc_mul(a, b)
                for i in range(m):
                    for j in range(n):
                        want = sum((a.entry(i, k) * b.entry(k, j) for k in range(p)), zero(alg))
                        assert rc.entry(i, j).close(want, 1e-12)
                # cr needs rows(a) = cols(c); (a cr c)[i][j] = sum_k a[k][j] c[i][k]
                c = random_matrix(alg, n, m, rng)
                cr = cr_mul(a, c)
                assert (cr.rows, cr.cols) == (n, p)
                for i in range(n):
                    for j in range(p):
                        want = sum((a.entry(k, j) * c.entry(i, k) for k in range(m)), zero(alg))
                        assert cr.entry(i, j).close(want, 1e-12)

    def test_powers_match_repeated_products(self, HH, rng):
        a = random_matrix(HH, 3, 3, rng)
        acc_rc = acc_cr = BiMatrix.identity(HH, 3)
        for n in range(6):
            assert diff_norm(rc_pow(a, n), acc_rc) <= 1e-12 * (1.0 + acc_rc.max_entry_norm())
            assert diff_norm(cr_pow(a, n), acc_cr) <= 1e-12 * (1.0 + acc_cr.max_entry_norm())
            acc_rc = rc_mul(acc_rc, a)
            acc_cr = cr_mul(acc_cr, a)


def _conj_transpose(m):
    data = m.data.transpose(1, 0, 2).copy()
    data[:, :, 1:] *= -1.0
    return BiMatrix(m.algebra, data)


def _unitary(alg, n, rng):
    """Matrix with orthonormal columns, u* rc u = I, by Gram-Schmidt run twice."""
    cols = []
    for _ in range(n):
        v = random_matrix(alg, n, 1, rng)
        for _ in range(2):
            for u in cols:
                v = v - rc_mul(u, rc_mul(_conj_transpose(u), v))
        cols.append(v * (1.0 / np.linalg.norm(v.data)))
    return BiMatrix(alg, np.concatenate([c.data for c in cols], axis=1))


def _diagonal(alg, values):
    data = np.zeros((len(values), len(values), alg.dim))
    data[np.arange(len(values)), np.arange(len(values)), 0] = values
    return BiMatrix(alg, data)


class TestIllConditioned:
    @pytest.mark.parametrize("n", [2, 4])
    def test_inverse_and_solve_at_cond_1e8(self, HH, n):
        def diag(values):
            return BiMatrix.from_elements(
                [[from_scalar(HH, values[i]) if i == j else zero(HH) for j in range(n)] for i in range(n)]
            )

        sigma = np.logspace(0, -8, n)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            u, v = _unitary(HH, n, rng), _unitary(HH, n, rng)
            assert rc_mul(_conj_transpose(u), u).close(BiMatrix.identity(HH, n), 1e-14)
            a = rc_mul(rc_mul(u, diag(sigma)), v)
            exact = rc_mul(rc_mul(_conj_transpose(v), diag(1.0 / sigma)), _conj_transpose(u))
            # forward error, not ||X a - I||: an LU inverse may leave a residual near cond^2 u
            err = np.linalg.norm(rc_inv(a).data - exact.data) / np.linalg.norm(exact.data)
            assert err <= 1e-6
            b = [random_element(HH, rng) for _ in range(n)]
            x = solve_rc(a, b)
            x_exact = rc_mul(exact, BiMatrix.from_elements([[e] for e in b])).data[:, 0]
            x_err = np.linalg.norm([xi.coeffs for xi in x] - x_exact) / np.linalg.norm(x_exact)
            assert x_err <= 1e-6


@st.composite
def rc_pair(draw):
    """An (m, k) and a (k, n) matrix over one of R, C, H, sizes 1..3."""
    alg = make_algebra(draw(st.sampled_from(("real", "complex", "quaternion"))))
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    entries = st.floats(-10, 10)
    a = draw(arrays(np.float64, (m, k, alg.dim), elements=entries))
    b = draw(arrays(np.float64, (k, n, alg.dim), elements=entries))
    return BiMatrix(alg, a), BiMatrix(alg, b)


@given(pair=rc_pair())
@settings(max_examples=100, deadline=None)
def test_rho_is_multiplicative(pair):
    a, b = pair
    table = a.algebra.table
    ra, rb = _kernels.rho(table, a.data), _kernels.rho(table, b.data)
    bound = 1e-13 * (1.0 + ra.shape[1] * np.abs(ra).max() * np.abs(rb).max())
    assert np.abs(_kernels.rho(table, rc_mul(a, b).data) - ra @ rb).max() <= bound


@given(pair=rc_pair())
@settings(max_examples=100, deadline=None)
def test_transpose_swaps_products(pair):
    a, b = pair
    bound = 1e-13 * (1.0 + a.cols * np.abs(a.data).max() * np.abs(b.data).max())
    assert diff_norm(transpose(rc_mul(a, b)), cr_mul(transpose(a), transpose(b))) <= bound


# ---------------------------------------------------------------------------
# the inverse routine against the composition of public pieces it replaced


def reference_rc_inv(a):
    """rc-inverse as rc_inv composed it from BiMatrix products and an identity.

    A 1 x 1 matrix [x] has the inverse [inv(x)], refused where inv refuses
    x. For n >= 2, an LU inverse that is not finite, or whose entries exceed
    the largest float over d so that unrho's sums would overflow, is refused
    before unrho. The largest two-sided residual passes only within
    ACCEPT n d ||a||_F ||out||_F, so a NaN residual fails.
    """
    n = a.rows
    if n == 1:
        try:
            out = BiMatrix.from_elements([[inv(a.entry(0, 0))]])
        except NotInvertibleError as err:
            raise SingularMatrixError("entry is not invertible") from err
    elif is_rc_singular(a):
        raise SingularMatrixError("rc-singular")
    else:
        table = a.algebra.table
        x = np.linalg.inv(_kernels.rho(table, a.data))
        if not np.abs(x).max() <= np.finfo(np.float64).max / a.algebra.dim:
            raise SingularMatrixError("LU inverse is not finite or too large for unrho")
        out = BiMatrix(a.algebra, _kernels.unrho(table, x))
    delta = BiMatrix.identity(a.algebra, n)
    resid = max(diff_norm(rc_mul(a, out), delta), diff_norm(rc_mul(out, a), delta))
    if not resid <= _inverse_tol(a, out):
        raise SingularMatrixError("inverse failed residual check")
    return out


def reference_quasidet_rc(a, i, j):
    n = a.rows
    if n == 1:
        return a.entry(0, 0)
    keep_r = [r for r in range(n) if r != i]
    keep_c = [c for c in range(n) if c != j]
    try:
        interior_inv = reference_rc_inv(submatrix(a, keep_r, keep_c))
    except SingularMatrixError as err:
        raise QuasideterminantUndefinedError("interior submatrix is rc-singular") from err
    acc = rc_mul(rc_mul(submatrix(a, [i], keep_c), interior_inv), submatrix(a, keep_r, [j]))
    return a.entry(i, j) - acc.entry(0, 0)


def reference_left_dependency(a, rank, sel):
    m = a.rows
    if rank >= m:
        return None
    p = next(r for r in range(m) if r not in sel.rows)
    if not sel.rows and not a.data[p].any() and np.isfinite(a.data).all():  # rank 0: lam = -e_p
        return [-one(a.algebra) if r == p else zero(a.algebra) for r in range(m)]
    major_inv = reference_rc_inv(submatrix(a, sel.rows, sel.cols))
    coeffs = rc_mul(submatrix(a, [p], sel.cols), major_inv)
    lam = [zero(a.algebra) for _ in range(m)]
    for idx, r in enumerate(sel.rows):
        lam[r] = coeffs.entry(0, idx)
    lam[p] = -one(a.algebra)
    return lam


def _outcome(fn, *args):
    """Raw coefficients of fn's answer, or the type of the error it raised."""
    try:
        value = fn(*args)
    except (SingularMatrixError, QuasideterminantUndefinedError) as err:
        return type(err)
    if value is None:
        return None
    if isinstance(value, BiMatrix):
        return value.data.tobytes()
    if isinstance(value, Element):
        return value.coeffs.tobytes()
    return b"".join(e.coeffs.tobytes() for e in value)


def _inverse_cases(a):
    """(name, public call, reference call) over every inverse path a exercises."""
    n = a.rows
    cases = [("rc_inv", lambda: rc_inv(a), lambda: reference_rc_inv(a)),
             ("cr_inv", lambda: cr_inv(a), lambda: transpose(reference_rc_inv(transpose(a))))]
    for i in range(n):
        for j in range(n):
            cases.append((f"quasidet_rc{i, j}", lambda i=i, j=j: quasidet_rc(a, i, j),
                          lambda i=i, j=j: reference_quasidet_rc(a, i, j)))
            cases.append((f"quasidet_cr{i, j}", lambda i=i, j=j: quasidet_cr(a, i, j),
                          lambda i=i, j=j: reference_quasidet_rc(transpose(a), j, i)))
    k, sel = rc_rank(a)
    cases.append(("left_dependency", lambda: left_dependency(a, k, sel),
                  lambda: reference_left_dependency(a, k, sel)))
    for p in (r for r in range(n) if r not in sel.rows):
        for c in (c for c in range(n) if c not in sel.cols):
            rows, cols = tuple(sorted(sel.rows + (p,))), tuple(sorted(sel.cols + (c,)))
            cases.append((f"bordered_quasidet{p, c}", lambda p=p, c=c: bordered_quasidet(a, sel, p, c),
                          lambda rows=rows, cols=cols, p=p, c=c: reference_quasidet_rc(
                              submatrix(a, rows, cols), rows.index(p), cols.index(c))))
    return cases


INVERSE_FAMILIES = ("full", "outer", "dup-column", "zero-row")


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("family", INVERSE_FAMILIES)
def test_inverse_paths_are_bit_identical_to_the_composed_reference(tag, family):
    alg = make_algebra(tag)
    rng = np.random.default_rng(31)
    raised = set()
    for n in (1, 2, 3, 4):
        for _ in range(3):
            a = random_matrix(alg, n, n, rng).data.copy()
            if family == "outer":
                a = rc_mul(random_matrix(alg, n, 1, rng), random_matrix(alg, 1, n, rng)).data
            elif family == "dup-column":
                a[:, n - 1] = a[:, 0]
            elif family == "zero-row":
                a[n - 1] = 0.0
            a = BiMatrix(alg, a)
            for name, public, reference in _inverse_cases(a):
                got, want = _outcome(public), _outcome(reference)
                assert got == want, (n, name)
                if isinstance(want, type):
                    raised.add(want)
    # the deficient families reach both typed errors; full rank reaches neither
    expected = set() if family == "full" else {SingularMatrixError, QuasideterminantUndefinedError}
    assert raised == expected


# ---------------------------------------------------------------------------
# near singularity: a checked answer or a typed error, never anything else


@st.composite
def near_singular(draw):
    """U diag(1, ..., eps) V over R, C or H: unitary U, V, one or two trailing eps around PIVOT_RTOL."""
    alg = make_algebra(draw(st.sampled_from(("real", "complex", "quaternion"))))
    n = draw(st.integers(1, 4))
    small = draw(st.integers(1, min(2, n)))
    eps = PIVOT_RTOL * 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u, v = _unitary(alg, n, rng), _unitary(alg, n, rng)
    sigma = [1.0] * (n - small) + [eps] * small
    diag = BiMatrix.from_elements(
        [[from_scalar(alg, sigma[i]) if i == j else zero(alg) for j in range(n)] for i in range(n)]
    )
    return rc_mul(rc_mul(u, diag), v)


def _checked(fn, *args):
    """fn's answer, or None when it raised SingularMatrixError or QuasideterminantUndefinedError."""
    try:
        return fn(*args)
    except (SingularMatrixError, QuasideterminantUndefinedError):
        return None


def _inverse_tol(a, x):
    """The acceptance rc_inv states for a residual of x as the inverse of a: ACCEPT n d ||a||_F ||x||_F."""
    return ACCEPT * a.rows * a.algebra.dim * frobenius(a.data) * frobenius(x.data)


def _assert_inverse(a, x, mul):
    delta = BiMatrix.identity(a.algebra, a.rows)
    assert max(diff_norm(mul(a, x), delta), diff_norm(mul(x, a), delta)) <= _inverse_tol(a, x)


def _column(es):
    return BiMatrix.from_elements([[e] for e in es])


@given(a=near_singular(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_near_singular_answers_are_checked_or_typed_errors(a, seed):
    n, alg = a.rows, a.algebra
    singular = is_rc_singular(a)
    k, sel = rc_rank(a)
    assert len(sel.rows) == len(sel.cols) == k
    assert singular == (k < n)

    for inv, mul in ((rc_inv, rc_mul), (cr_inv, cr_mul)):
        x = _checked(inv, a)
        if x is not None:
            _assert_inverse(a, x, mul)

    b = [random_element(alg, np.random.default_rng(seed)) for _ in range(n)]
    x = _checked(solve_rc, a, b)
    if x is not None:
        # solve_rc's backward error, ||rho(a)||_F being sqrt(d) ||a||_F
        rhs = _column(b).data
        resid = np.linalg.norm(rc_mul(a, _column(x)).data - rhs)
        size = math.sqrt(alg.dim) * frobenius(a.data)
        assert resid <= ACCEPT * n * alg.dim * (np.linalg.norm(rhs) + size * np.linalg.norm(_column(x).data))

    for i in range(n):
        for j in range(n):
            q = _checked(quasidet_rc, a, i, j)
            if q is not None and n > 1:  # its interior was inverted with a checked residual
                interior = submatrix(a, [r for r in range(n) if r != i], [c for c in range(n) if c != j])
                _assert_inverse(interior, rc_inv(interior), rc_mul)
            assert q is None or np.isfinite(q.coeffs).all()

    lam = _checked(left_dependency, a, k, sel)
    if k == n:
        assert lam is None
    elif lam is not None:
        # the major minor B was inverted with a checked residual, so on the
        # minor's columns lam rc a = row_p (B^-1 B - I) is within k sqrt(d)
        # row_p's largest entry times that residual; lam is -1 at row p
        major = submatrix(a, sel.rows, sel.cols)
        major_inv = rc_inv(major)
        _assert_inverse(major, major_inv, rc_mul)
        p = next(r for r in range(n) if r not in sel.rows)
        assert lam[p].close(-one(alg), 0.0)
        row_p = submatrix(a, [p], sel.cols)
        on_minor = submatrix(rc_mul(BiMatrix.from_elements([lam]), a), [0], sel.cols)
        bound = k * np.sqrt(alg.dim) * row_p.max_entry_norm() * _inverse_tol(major, major_inv)
        assert on_minor.max_entry_norm() <= bound
    for p in (r for r in range(n) if r not in sel.rows):
        for c in (c for c in range(n) if c not in sel.cols):
            q = _checked(bordered_quasidet, a, sel, p, c)
            assert q is None or np.isfinite(q.coeffs).all()


def test_rank_of_a_nonsingular_matrix_is_full_at_the_threshold(RR):
    """U diag(1, eps, eps) V with eps = PIVOT_RTOL: rounding leaves the whole
    matrix just above the threshold while a 2 x 2 minor falls below it. The
    inverse is accepted, so the rank is 3 and there is no left dependency."""
    rng = np.random.default_rng(14)
    rng.uniform(-3, 3)
    u, v = _unitary(RR, 3, rng), _unitary(RR, 3, rng)
    sigma = (1.0, PIVOT_RTOL, PIVOT_RTOL)
    diag = real_mat(RR, [[sigma[i] if i == j else 0.0 for j in range(3)] for i in range(3)])
    a = rc_mul(rc_mul(u, diag), v)
    assert not is_rc_singular(a)
    _assert_inverse(a, rc_inv(a), rc_mul)
    k, sel = rc_rank(a)
    assert (k, sel) == (3, MinorSelector((0, 1, 2), (0, 1, 2)))
    assert left_dependency(a, k, sel) is None


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_left_dependency_of_a_rank_0_matrix(tag):
    """A zero matrix has rank 0 and an empty major minor; lam = -e_0 is an
    exact dependency. A NaN matrix also has rank 0, but no answer."""
    alg = make_algebra(tag)
    a = BiMatrix.zeros(alg, 2, 3)
    k, sel = rc_rank(a)
    assert (k, sel) == (0, MinorSelector((), ()))
    lam = left_dependency(a, k, sel)
    assert lam[0].close(-one(alg), 0.0) and lam[1].close(zero(alg), 0.0)
    assert not rc_mul(BiMatrix.from_elements([lam]), a).data.any()
    nan = BiMatrix(alg, np.full((2, 3, alg.dim), np.nan))
    k, sel = rc_rank(nan)
    assert k == 0
    with pytest.raises(SingularMatrixError):
        left_dependency(nan, k, sel)


@pytest.mark.parametrize("tag", ["real", "quaternion"])
def test_inverse_of_a_subnormal_matrix_is_a_typed_error(tag):
    """1e-310 I passes the relative rank test, but its inverse and its
    solutions overflow and the residuals are NaN, which must fail the
    residual checks."""
    alg = make_algebra(tag)
    a = BiMatrix.identity(alg, 2) * 1e-310
    with np.errstate(all="ignore"):
        for inverse in (rc_inv, cr_inv):
            with pytest.raises(SingularMatrixError):
                inverse(a)
        with pytest.raises(SingularMatrixError):
            solve_rc(a, [one(alg), one(alg)])
        for i in range(2):
            for j in range(2):
                with pytest.raises(QuasideterminantUndefinedError):
                    quasidet_rc(a, i, j)
        with pytest.raises(QuasideterminantUndefinedError):
            bordered_quasidet(a, MinorSelector((0,), (0,)), 1, 1)


# ---------------------------------------------------------------------------
# the stacked inverse and all quasideterminants in one call


def _inverse_family(alg, family, n, rng):
    """The matrices of test_inverse_paths_are_bit_identical_to_the_composed_reference."""
    a = random_matrix(alg, n, n, rng).data.copy()
    if family == "outer":
        a = rc_mul(random_matrix(alg, n, 1, rng), random_matrix(alg, 1, n, rng)).data
    elif family == "dup-column":
        a[:, n - 1] = a[:, 0]
    elif family == "zero-row":
        a[n - 1] = 0.0
    return BiMatrix(alg, a)


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("family", INVERSE_FAMILIES)
def test_quasidets_rc_is_every_quasidet_rc(tag, family):
    """Every entry has the bits of its own quasidet_rc call, and an undefined
    one raises, naming the first pair in row-major order that quasidet_rc refuses."""
    alg = make_algebra(tag)
    rng = np.random.default_rng(32)
    refused = 0
    for n in (1, 2, 3, 4):
        for _ in range(3):
            a = _inverse_family(alg, family, n, rng)
            pairs = [(i, j) for i in range(n) for j in range(n)]
            singles = [_outcome(quasidet_rc, a, i, j) for i, j in pairs]
            undefined = [ij for ij, got in zip(pairs, singles) if got is QuasideterminantUndefinedError]
            if undefined:
                i, j = undefined[0]
                with pytest.raises(QuasideterminantUndefinedError, match=re.escape(f"at ({i}, {j})")):
                    quasidets_rc(a)
                refused += 1
                continue
            q = quasidets_rc(a)
            assert (q.algebra, q.rows, q.cols) == (alg, n, n)
            for (i, j), want in zip(pairs, singles):
                assert q.data[i, j].tobytes() == want, (n, i, j)
    assert (refused > 0) == (family != "full")


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_quasidets_rc_of_a_regular_matrix_with_singular_interiors(tag):
    """[[0, 1], [1, 0]] is its own inverse, whose zero diagonal leaves |A|_00
    and |A|_11 undefined: the interior [0] is singular."""
    alg = make_algebra(tag)
    a = BiMatrix.from_elements([[zero(alg), one(alg)], [one(alg), zero(alg)]])
    assert not is_rc_singular(a)
    with pytest.raises(QuasideterminantUndefinedError, match=re.escape("at (0, 0)")):
        quasidets_rc(a)


def test_quasidets_rc_needs_a_square_matrix(HH, rng):
    with pytest.raises(AlgebraError):
        quasidets_rc(random_matrix(HH, 2, 3, rng))


def test_quasidets_rc_of_a_1x1_matrix_is_the_matrix(HH, rng):
    a = random_matrix(HH, 1, 1, rng)
    assert quasidets_rc(a).close(a, 0.0)


def test_stacked_inverse_decides_each_member_alone(HH):
    """A stack mixing regular, singular, non-finite and subnormal members:
    the failed list is exactly the members whose inverse fails alone, and
    every other member has the bits of its inverse alone."""
    rng = np.random.default_rng(5)
    members = [random_matrix(HH, 3, 3, rng).data for _ in range(6)]
    members[1] = np.zeros((3, 3, 4))
    members[3] = members[3].copy()
    members[3][0, 2, 1] = np.nan
    members[4] = BiMatrix.identity(HH, 3).data * 1e-310
    stack = np.stack(members)
    table = HH.table
    with np.errstate(all="ignore"):
        out, failed = biring._inverse(table, stack)
        alone = [biring._inverse(table, m[None]) for m in members]
    assert list(failed) == [k for k, (_, f) in enumerate(alone) if len(f)] == [1, 3, 4]
    for k in (0, 2, 5):
        assert out[k].tobytes() == alone[k][0][0].tobytes()
        assert out[k].tobytes() == rc_inv(BiMatrix(HH, members[k])).data.tobytes()
    # every member finite: the singular ones fail the certificate, and the
    # SVD rule then decides the whole stack
    u, v = _unitary(HH, 3, rng), _unitary(HH, 3, rng)
    members = [random_matrix(HH, 3, 3, rng).data,
               rc_mul(random_matrix(HH, 3, 1, rng), random_matrix(HH, 1, 3, rng)).data,
               rc_mul(rc_mul(u, _diagonal(HH, [1.0, 1.0, 1e-12])), v).data,
               random_matrix(HH, 3, 3, rng).data]
    out, failed = biring._inverse(table, np.stack(members))
    alone = [biring._inverse(table, m[None]) for m in members]
    assert list(failed) == [k for k, (_, f) in enumerate(alone) if len(f)] == [1, 2]
    for k in (0, 3):
        assert out[k].tobytes() == alone[k][0][0].tobytes()
        assert out[k].tobytes() == rc_inv(BiMatrix(HH, members[k])).data.tobytes()


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_stacked_quasidets_give_each_member_its_bits_alone(tag):
    """_quasidets over a stack of different matrices, n = 2-4, regular ones and
    singular ones with regular or singular interiors, each at its own (i, j):
    every row has the bytes of that member's own quasidet_rc call, and a stack
    holding undefined members raises, naming the first undefined pair in
    stack order."""
    alg = make_algebra(tag)
    rng = np.random.default_rng(11)
    named_apart = 0
    for n in (2, 3, 4):
        members = [_inverse_family(alg, family, n, rng) for family in INVERSE_FAMILIES * 3]
        pairs = [(m % n, (2 * m + 1) % n) for m in range(len(members))]
        singles = [_outcome(quasidet_rc, a, i, j) for a, (i, j) in zip(members, pairs)]
        undefined = [m for m, got in enumerate(singles) if got is QuasideterminantUndefinedError]
        defined = [m for m in range(len(members)) if m not in undefined]
        assert defined and (n == 2 or undefined)
        rows, cols = (np.array([pairs[m][x] for m in defined]) for x in (0, 1))
        q = biring._quasidets(alg.table, np.stack([members[m].data for m in defined]), rows, cols)
        assert q.shape == (len(defined), alg.dim)
        assert [row.tobytes() for row in q] == [singles[m] for m in defined]
        for order in (range(len(members)), range(len(members) - 1, -1, -1)):
            if not undefined:
                break
            first = next(m for m in order if m in undefined)
            rows, cols = (np.array([pairs[m][x] for m in order]) for x in (0, 1))
            with pytest.raises(QuasideterminantUndefinedError, match=re.escape(f"at {pairs[first]}")):
                biring._quasidets(alg.table, np.stack([members[m].data for m in order]), rows, cols)
        named_apart += bool(undefined) and pairs[undefined[0]] != pairs[undefined[-1]]
    assert named_apart


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_random_matrix_draws_its_entries_row_major(tag):
    """One draw of m n d coefficients: the bytes and the generator state of m n random_element calls."""
    alg = make_algebra(tag)
    for m, n, scale in ((1, 1, 1.0), (2, 3, 0.5), (3, 2, 20.0)):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = random_matrix(alg, m, n, rng, scale=scale)
        want = np.array([[random_element(alg, ref_rng, scale).coeffs for _ in range(n)] for _ in range(m)])
        assert got.data.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert random_matrix(alg, m, n, 5, scale).data.tobytes() == want.tobytes()  # a seed


def test_solve_rc_rejects_a_right_hand_side_from_another_algebra(HH, CC, rng):
    a = random_matrix(HH, 2, 2, rng)
    with pytest.raises(AlgebraError):
        solve_rc(a, [one(CC), one(CC)])
    with pytest.raises(AlgebraError):
        solve_rc(a, [one(HH), one(CC)])


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_empty_matrices_are_close_and_zero_apart(tag):
    alg = make_algebra(tag)
    for m, n in ((0, 0), (0, 3), (3, 0)):
        empty = BiMatrix.zeros(alg, m, n)
        assert empty.close(BiMatrix.zeros(alg, m, n))
        assert diff_norm(empty, BiMatrix.zeros(alg, m, n)) == 0.0
    assert not BiMatrix.zeros(alg, 0, 3).close(BiMatrix.zeros(alg, 3, 0))


def _scaled_system(HH, s):
    a = random_matrix(HH, 3, 3, np.random.default_rng(1))
    b = [Element(HH, c) for c in np.random.default_rng(2).uniform(-1, 1, (3, 4))]
    return a * s, [e * s for e in b]


@pytest.mark.parametrize("s", [1e-200, 1e-170, 1e170, 1e200])
def test_solve_rc_is_scale_free(HH, s):
    """The backward-error test reads scaled norms, so none over- or underflows."""
    want = np.stack([e.coeffs for e in solve_rc(*_scaled_system(HH, 1.0))])
    got = np.stack([e.coeffs for e in solve_rc(*_scaled_system(HH, s))])
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("s", [1e-200, 1e-170, 1.0, 1e170, 1e200])
def test_solve_rc_refuses_a_wrong_solution_at_every_scale(HH, s, monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda r, rhs: 1.5 * solve(r, rhs))
    with pytest.raises(SingularMatrixError, match="residual"):
        solve_rc(*_scaled_system(HH, s))


# ---------------------------------------------------------------------------
# the regularity certificate: the SVD runs only when it fails


@pytest.fixture
def rank_calls(monkeypatch):
    """A list that gains one entry per biring._rc_ranks call, the SVD rank rule."""
    calls = []
    ranks = biring._rc_ranks
    monkeypatch.setattr(biring, "_rc_ranks", lambda *args, **kw: calls.append(1) or ranks(*args, **kw))
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_certified_inverses_match_the_svd_rank_rule(tag, rank_calls, monkeypatch):
    """rc_inv, cr_inv and quasidet_rc on U diag V, cond2 from 1e7 to 1e12 and scales
    1e0, 1e+-150, 1e+-300: the same bytes or error type as the composed reference,
    which decides through is_rc_singular, and as the library with the
    certificate switched off.

    At 1e-300 and cond2 above about 1e8 the LU inverse overflows or comes
    within a factor d of overflow; the library and the reference both refuse
    it before unrho, so no call ends in numpy's warning, an error here.
    """
    alg = make_algebra(tag)
    certified = fallback = 0
    for n in (1, 2, 3, 4, 8):
        rng = np.random.default_rng(n)
        u, v = _unitary(alg, n, rng), _unitary(alg, n, rng)
        for cond in np.geomspace(1e7, 1e12, 41):
            a = rc_mul(rc_mul(u, _diagonal(alg, np.geomspace(1.0, 1.0 / cond, n))), v)
            for scale in (1.0, 1e150, 1e-150, 1e300, 1e-300):
                b = a * scale
                for public, reference in ((lambda: rc_inv(b), lambda: reference_rc_inv(b)),
                                          (lambda: cr_inv(b), lambda: transpose(reference_rc_inv(transpose(b)))),
                                          (lambda: quasidet_rc(b, 0, n - 1),
                                           lambda: reference_quasidet_rc(b, 0, n - 1))):
                    rank_calls.clear()
                    got = _outcome(public)
                    certified += not rank_calls
                    fallback += bool(rank_calls)
                    with monkeypatch.context() as m:
                        m.setattr(biring, "_CERT_RANGE", -1.0)
                        assert _outcome(public) == got, (n, cond, scale)
                    assert got == _outcome(reference), (n, cond, scale)
    assert certified and fallback


def test_inverses_are_accepted_at_the_rounding_scale(RR, CC):
    """The one acceptance, ACCEPT n d ||a||_F ||out||_F on the largest two-sided residual.

    Over C, U diag(1, 1e-8) V at scale 1e-300 has its sigma_min among the
    subnormals, and its LU inverse has a two-sided residual of 0.057: it is
    refused. Over R, the longest tail measured on U diag V (n = 4, cond2
    1e8: left residual 1.0e-9, right 5.0e-7, 11.2 u n d ||a||_F ||out||_F)
    is accepted within c = 64, with a margin.
    """
    rng = np.random.default_rng(2)
    u, v = _unitary(CC, 2, rng), _unitary(CC, 2, rng)
    with pytest.raises(SingularMatrixError):
        rc_inv(rc_mul(rc_mul(u, _diagonal(CC, [1.0, 1e-8])), v) * 1e-300)
    rng = np.random.default_rng(401)
    u, v = _unitary(RR, 4, rng), _unitary(RR, 4, rng)
    a = rc_mul(rc_mul(u, _diagonal(RR, np.geomspace(1.0, 1e-8, 4))), v)
    x, e = rc_inv(a), BiMatrix.identity(RR, 4)
    left, right = diff_norm(rc_mul(a, x), e), diff_norm(rc_mul(x, a), e)
    ratio = right / (2.0 ** -53 * 4 * frobenius(a.data) * frobenius(x.data))  # u n d ||a||_F ||x||_F
    assert left < 1e-8 < right and 10.0 < ratio <= ACCEPT / 2.0 ** -53 / 5  # c covers it five times over


def test_the_acceptance_fails_a_nan_residual_and_passes_under_an_overflowed_bound():
    """A finite residual under an inf bound passes; a NaN, one above its bound or an unflagged member fails."""
    flags, worst, bounds = [True, True, True, False], [1.0, math.nan, 2.0, 0.0], [math.inf, math.inf, 1.0, 1.0]
    assert biring._failures(flags, worst, bounds) == [1, 2, 3]


def test_regular_inverses_take_no_svd(HH, rank_calls):
    rng = np.random.default_rng(3)
    u, v = _unitary(HH, 4, rng), _unitary(HH, 4, rng)
    for a in (random_matrix(HH, 4, 4, rng), rc_mul(rc_mul(u, _diagonal(HH, np.geomspace(1.0, 1e-8, 4))), v)):
        rc_inv(a)
        assert rank_calls == []
    with pytest.raises(SingularMatrixError):
        rc_inv(rc_mul(random_matrix(HH, 4, 1, rng), random_matrix(HH, 1, 4, rng)))
    assert rank_calls == [1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_scale_inverses_end_in_an_answer_or_a_typed_error(RR):
    """200 real 4 x 4 U diag V scaled by 1e-300, cond2 log-uniform in [1e8, 3e9]:
    the SVD rule calls them regular, and the LU inverse of many overflows or
    comes within a factor d of overflow. Each rc_inv ends in a finite answer
    or SingularMatrixError, never in numpy's warning, an error here; the
    stack of all 200 fails the members that fail alone and gives the others
    their bytes alone."""
    rng = np.random.default_rng(0)
    members = []
    for _ in range(200):
        u, v = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
        cond = np.exp(rng.uniform(np.log(1e8), np.log(3e9)))
        members.append((u * np.geomspace(1.0, 1.0 / cond, 4)) @ v * 1e-300)
    stack = np.stack(members)[..., None]
    alone = [_outcome(rc_inv, BiMatrix(RR, m)) for m in stack]
    refused = [k for k, got in enumerate(alone) if got is SingularMatrixError]
    assert 0 < len(refused) < len(alone)
    assert all(np.isfinite(np.frombuffer(got)).all() for got in alone if got is not SingularMatrixError)
    out, failed = biring._inverse(RR.table, stack)
    assert list(failed) == refused
    assert all(out[k].tobytes() == got for k, got in enumerate(alone) if k not in refused)


# Coefficients at the edges of the float range: signed zeros, subnormals, the
# smallest normal scale, large and near-overflow magnitudes, and non-finite ones.
EXTREMES = (0.0, -0.0, 5e-324, -1e-310, 1e-308, -1e-307, 1e-300, -1e-150, 1e150, -1e300, 1e307, -1e308, 1.7e308,
            np.inf, -np.inf, np.nan)


def _extreme_rows(alg):
    """Coefficient vectors of alg with one extreme value alone, beside +-0.0, at scale, and beside another extreme."""
    d = alg.dim
    rng = np.random.default_rng(45)
    rows = []
    for v in EXTREMES:
        rows += [[v] + [0.0] * (d - 1), [-0.0] * (d - 1) + [v], (v * rng.uniform(0.5, 1.0, d)).tolist()]
        rows += [[v] + rng.uniform(-1.0, 1.0, d - 1).tolist()]
        rows += [[w] + [0.0] * (d - 2) + [v] for w in EXTREMES[::3] if d > 1]
    return np.array(rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_one_element_has_one_inverse_rule(tag):
    """inv(x), x's row of inv_stack, rc_inv and cr_inv of [[x]] and x's member of
    one stacked _inverse call give the same bytes, or the matching typed error,
    for every coefficient vector of _extreme_rows; nothing warns."""
    alg = make_algebra(tag)
    rows = _extreme_rows(alg)
    stacked, ok = inv_stack(rows)
    out, failed = biring._inverse(alg.table, rows[:, None, None])
    answered = 0
    for t, row in enumerate(rows):
        x = Element(alg, row)
        try:
            want = inv(x).coeffs.tobytes()
        except NotInvertibleError:
            want = SingularMatrixError
        assert (ok[t], t not in failed) == (want is not SingularMatrixError,) * 2, row
        assert _outcome(rc_inv, BiMatrix(alg, row[None, None])) == want, row
        assert _outcome(cr_inv, BiMatrix(alg, row[None, None])) == want, row
        if want is not SingularMatrixError:
            assert stacked[t].tobytes() == out[t, 0, 0].tobytes() == want, row
            answered += 1
    assert 0 < answered < len(rows)


@pytest.mark.parametrize("rows", [[], [[]]])
def test_from_elements_of_no_entries_raises(rows):
    with pytest.raises(AlgebraError):
        BiMatrix.from_elements(rows)


# ---------------------------------------------------------------------------
# the stacked solve and rank search against the one-matrix routines they replaced


def reference_solve_rc(a, b):
    """solve_rc as one SVD rank test, one LU solve and one backward-error test of one system."""
    n, table = a.rows, a.algebra.table
    (r,), (rank,), _ = biring._rc_ranks(table, a.data[None])
    if not 0 < n == rank:
        raise SingularMatrixError("rc-singular")
    rhs = np.concatenate([e.coeffs for e in b]) if b else np.zeros(0)
    if not np.isfinite(rhs).all():
        raise AlgebraError("right-hand side is not finite")
    x = np.linalg.solve(r, rhs)
    # ||rho(a)||_F = sqrt(d) ||a||_F, ||a||_F the hypot of its rows' norms
    size = math.sqrt(a.algebra.dim) * math.hypot(*(frobenius(row) for row in a.data.reshape(n, -1)))
    if not frobenius(r @ x - rhs) <= ACCEPT * n * a.algebra.dim * (frobenius(rhs) + size * frobenius(x)):
        raise SingularMatrixError("solution residual above tolerance")
    return [Element(a.algebra, c) for c in x.reshape(n, a.algebra.dim)]


def reference_rc_rank(a):
    """rc_rank as a greedy search of one matrix, one SVD per candidate."""
    table = a.algebra.table
    _, (k,), (smax,) = biring._rc_ranks(table, a.data[None])
    if k == a.rows == a.cols:
        return k, MinorSelector(tuple(range(k)), tuple(range(k)))

    def greedy(candidates, part):
        picked = ()
        for idx in candidates:
            if len(picked) == k:
                break
            if biring._rc_ranks(table, part(picked + (idx,))[None], [smax])[1][0] > len(picked):
                picked += (idx,)
        return picked

    rows, cols = range(a.rows), range(a.cols)
    while True:
        rows = greedy(rows, lambda rows: a.data[np.ix_(rows, cols)])
        cols = greedy(cols, lambda cols: a.data[np.ix_(rows, cols)])
        if len(rows) == len(cols):
            return len(rows), MinorSelector(rows, cols)
        k = len(cols)


def _typed(fn, *args):
    """Raw coefficients of fn's answer, or the type and message of the error it raised."""
    try:
        value = fn(*args)
    except (SingularMatrixError, AlgebraError) as err:
        return type(err), str(err)
    return b"".join(e.coeffs.tobytes() for e in value)


def _threshold(alg, m, n, rng):
    """A real m x n matrix U diag(1, s, s) V, s within a factor 3 of PIVOT_RTOL.

    Its whole rank is often 3 while the minors the greedy search meets fall
    below the whole matrix's threshold, so the search narrows its rows and
    columns more than once."""
    u, v = np.linalg.qr(rng.normal(size=(m, 3)))[0], np.linalg.qr(rng.normal(size=(3, n)).T)[0].T
    s = PIVOT_RTOL * np.exp(rng.uniform(-np.log(3), np.log(3)))
    data = np.zeros((m, n, alg.dim))
    data[..., 0] = (u * np.array([1.0, s, s])) @ v
    return data


def _rank_members(alg, m, n, rng):
    """Matrices of every kind the greedy search meets, at several scales, as (m, n, d) arrays."""
    members = [_family(alg, name, m, n, rng).data for name in FAMILIES]
    members += [np.zeros((m, n, alg.dim)), np.full((m, n, alg.dim), np.nan)]
    members += [_family(alg, name, m, n, rng).data * s for name in ("full", "outer") for s in (1e-150, 1e150)]
    if m >= 3 and n >= 3:
        members += [_threshold(alg, m, n, rng) for _ in range(4)]
    return members


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_stacked_rank_search_is_every_rc_rank(tag):
    """Every member of a mixed stack, and of the stack reversed and shuffled,
    gets the rank and selector of its own rc_rank call and of the reference."""
    alg = make_algebra(tag)
    rng = np.random.default_rng(41)
    narrowed = 0
    for m in range(1, 6):
        for n in range(1, 6):
            members = _rank_members(alg, m, n, rng)
            want = [reference_rc_rank(BiMatrix(alg, a)) for a in members]
            assert [rc_rank(BiMatrix(alg, a)) for a in members] == want
            narrowed += sum(k < biring._rc_ranks(alg.table, a[None])[1][0] for a, (k, _) in zip(members, want))
            for order in (np.arange(len(members)), np.arange(len(members))[::-1], rng.permutation(len(members))):
                got = biring._rank_search(alg.table, np.stack(members)[order])
                assert got == [want[t] for t in order], (m, n)
    assert narrowed  # some searches narrowed their rows and columns below the whole rank


@pytest.mark.parametrize("tag", ["real", "quaternion"])
def test_stacked_rank_search_of_empty_stacks_and_shapes(tag):
    alg = make_algebra(tag)
    table, none = alg.table, MinorSelector((), ())
    assert biring._rank_search(table, np.zeros((0, 2, 3, alg.dim))) == []
    for m, n in ((0, 0), (0, 3), (3, 0)):
        assert biring._rank_search(table, np.zeros((2, m, n, alg.dim))) == [(0, none)] * 2
        assert rc_rank(BiMatrix.zeros(alg, m, n)) == (0, none)


def test_stacked_rank_search_takes_one_svd_per_step_and_shape(HH, rank_calls):
    """Ten rank-1 outer products: one SVD for the whole matrices, then one for
    the first row of each and one for its first entry, as rc_rank takes for one."""
    rng = np.random.default_rng(5)
    stack = np.stack([rc_mul(random_matrix(HH, 3, 1, rng), random_matrix(HH, 1, 3, rng)).data for _ in range(10)])
    assert biring._rank_search(HH.table, stack) == [(1, MinorSelector((0,), (0,)))] * 10
    assert len(rank_calls) == 3


def _solve_members(alg, n, rng):
    """(a, b) systems: regular at several scales and conditions, singular,
    non-finite, and regular with a non-finite right-hand side."""
    def rhs():
        return [random_element(alg, rng) for _ in range(n)]

    u, v = _unitary(alg, n, rng), _unitary(alg, n, rng)
    def family(name):
        return _inverse_family(alg, name, n, rng)

    members = [(family(name), rhs()) for name in INVERSE_FAMILIES]
    members += [(rc_mul(rc_mul(u, _diagonal(alg, np.geomspace(1.0, 1e-8, n))), v), rhs())]
    members += [(family("full") * s, [e * s for e in rhs()]) for s in (1e-150, 1e150)]
    members += [(BiMatrix.zeros(alg, n, n), rhs()), (BiMatrix(alg, np.full((n, n, alg.dim), np.nan)), rhs())]
    for bad in (np.nan, np.inf):
        b = rhs()
        b[-1] = Element(alg, np.where(np.arange(alg.dim) == 0, bad, 1.0))
        members += [(family("full"), b), (family("outer"), b)]
    return members


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_solve_is_every_solve_rc(tag, n):
    """Every member of a mixed stack, and of the stack reversed and shuffled,
    gets the bits or the typed error of its own solve_rc call and of the
    reference; no failed member makes the stacked LU raise or warn."""
    alg = make_algebra(tag)
    rng = np.random.default_rng(10 * n + alg.dim)
    members = _solve_members(alg, n, rng)
    want = [_typed(reference_solve_rc, a, b) for a, b in members]
    assert [_typed(solve_rc, a, b) for a, b in members] == want
    assert {type(w) for w in want} == {bytes, tuple}  # some members are solved and some fail
    data = np.stack([a.data for a, _ in members])
    rhs = np.array([[e.coeffs for e in b] for _, b in members])
    for order in (np.arange(len(members)), np.arange(len(members))[::-1], rng.permutation(len(members))):
        x, failed = biring._solve(alg.table, data[order], rhs[order])
        assert list(failed) == sorted(failed)
        got = [(type(failed[t]), str(failed[t])) if t in failed else x[t].tobytes() for t in range(len(order))]
        assert got == [want[t] for t in order], n


def test_stacked_solve_of_empty_stacks_and_systems(HH):
    x, failed = biring._solve(HH.table, np.zeros((0, 2, 2, 4)), np.zeros((0, 2, 4)))
    assert x.shape == (0, 2, 4) and failed == {}
    x, failed = biring._solve(HH.table, np.zeros((2, 0, 0, 4)), np.zeros((2, 0, 4)))
    assert x.shape == (2, 0, 4) and [(t, type(e)) for t, e in failed.items()] == [(0, SingularMatrixError),
                                                                                  (1, SingularMatrixError)]
    with pytest.raises(SingularMatrixError, match="rc-singular"):
        solve_rc(BiMatrix.zeros(HH, 0, 0), [])


def test_regular_solve_stacks_take_no_svd(HH, rank_calls):
    """A regular stack of 20 systems is certified with no SVD; one singular member sends the
    whole stack to one SVD call, and the others keep their bits; solve_rc takes the SVD."""
    rng = np.random.default_rng(6)
    data, rhs = rng.uniform(-1, 1, (20, 3, 3, 4)), rng.uniform(-1, 1, (20, 3, 4))
    x, failed = biring._solve(HH.table, data, rhs)
    assert failed == {} and rank_calls == []
    data[7] = rc_mul(random_matrix(HH, 3, 1, rng), random_matrix(HH, 1, 3, rng)).data
    y, failed = biring._solve(HH.table, data, rhs)
    assert [(t, str(e)) for t, e in failed.items()] == [(7, "rc-singular")] and len(rank_calls) == 1
    assert all(y[t].tobytes() == x[t].tobytes() for t in range(20) if t != 7)
    rank_calls.clear()
    solve_rc(BiMatrix(HH, data[0]), [Element(HH, c) for c in rhs[0]])
    assert len(rank_calls) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_certified_solves_match_the_svd_rank_rule(tag, rank_calls, monkeypatch):
    """Stacks of three U diag V systems, cond2 from 1e7 to 1e12 and scales 1e0,
    1e+-150 and 1e+-300: the same bytes or error type with the certificate on
    and switched off, and every member those of its own solve_rc call."""
    alg = make_algebra(tag)
    certified = fallback = 0
    for n in (1, 2, 3, 4, 8):
        rng = np.random.default_rng(n)
        u, v = _unitary(alg, n, rng), _unitary(alg, n, rng)
        members = [rc_mul(rc_mul(u, _diagonal(alg, np.geomspace(1.0, 1.0 / cond, n))), v).data
                   for cond in np.geomspace(1e7, 1e12, 41)]
        b = rng.uniform(-1.0, 1.0, (len(members), n, alg.dim))
        for scale in (1.0, 1e150, 1e-150, 1e300, 1e-300):
            for start in range(0, len(members), 3):
                data, rhs = np.stack(members[start:start + 3]) * scale, b[start:start + 3] * scale
                rank_calls.clear()
                x, failed = biring._solve(alg.table, data, rhs)
                got = [type(failed[t]) if t in failed else x[t].tobytes() for t in range(len(data))]
                certified += not rank_calls
                fallback += bool(rank_calls)
                with monkeypatch.context() as m:
                    m.setattr(biring, "_CERT_RANGE", -1.0)
                    x, failed = biring._solve(alg.table, data, rhs)
                    assert [type(failed[t]) if t in failed else x[t].tobytes() for t in range(len(data))] == got
                alone = [_outcome(solve_rc, BiMatrix(alg, a), [Element(alg, c) for c in y]) for a, y in zip(data, rhs)]
                assert alone == got, (n, start, scale)
    assert certified and fallback


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rc_names_a_non_finite_right_hand_side(HH, bad):
    """A regular matrix with a non-finite b is an input error, not a singular
    matrix; a singular matrix keeps its error whatever b is."""
    a = random_matrix(HH, 2, 2, np.random.default_rng(0))
    b = [Element(HH, [bad, 0.0, 0.0, 0.0]), one(HH)]
    with pytest.raises(AlgebraError, match="right-hand side"):
        solve_rc(a, b)
    with pytest.raises(SingularMatrixError, match="rc-singular"):
        solve_rc(BiMatrix.zeros(HH, 2, 2), b)


def test_stacked_solve_refuses_each_wrong_solution_at_its_own_scale(HH, monkeypatch):
    """Systems at 1e-150, 1 and 1e150, every second one given an LU answer
    half again too large: each wrong one fails by its own norms, whatever
    the scale of the others, and the right ones keep their bits."""
    rng = np.random.default_rng(8)
    scales = np.repeat([1e-150, 1.0, 1e150], 2)
    data = rng.uniform(-1, 1, (6, 3, 3, 4)) * scales[:, None, None, None]
    rhs = rng.uniform(-1, 1, (6, 3, 4)) * scales[:, None, None]
    want, failed = biring._solve(HH.table, data, rhs)
    assert failed == {}
    solve, wrong = np.linalg.solve, np.array([1.0, 1.5] * 3)
    monkeypatch.setattr(np.linalg, "solve", lambda r, b: solve(r, b) * wrong[:, None, None])
    x, failed = biring._solve(HH.table, data, rhs)
    assert {t: str(e) for t, e in failed.items()} == {t: "solution residual above tolerance" for t in (1, 3, 5)}
    assert all(x[t].tobytes() == want[t].tobytes() for t in (0, 2, 4))


@pytest.mark.filterwarnings("error")
def test_solve_rc_of_a_solution_past_the_float_range_is_a_typed_error(RR):
    """A system whose solution overflows is refused by its residual test, with no numpy warning on the way."""
    a = BiMatrix(RR, [[[1e-200], [2e-200]], [[3e-200], [4e-200]]])
    with pytest.raises(SingularMatrixError, match="solution residual above tolerance"):
        solve_rc(a, [Element(RR, [1e200])] * 2)
    # matrices at 10^+-305 and right-hand sides at 10^+-300 over R, C and H, n = 1 to 4
    rng = np.random.default_rng(2)
    for t in range(90):
        alg = make_algebra(("real", "complex", "quaternion")[t % 3])
        n = int(rng.integers(1, 5))
        a = BiMatrix(alg, rng.uniform(-1, 1, (n, n, alg.dim)) * 10.0 ** rng.uniform(-305, 305))
        b = [Element(alg, rng.uniform(-1, 1, alg.dim) * 10.0 ** rng.uniform(-300, 300)) for _ in range(n)]
        try:
            x = solve_rc(a, b)
        except SingularMatrixError:
            continue
        assert all(np.isfinite(e.coeffs).all() for e in x)


class TestInputChecks:
    """Each constructor and operation refuses a malformed input with its typed error and message."""

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (1, 2, 2, 4)])
    def test_matrix_data_needs_the_algebra_shape(self, HH, shape):
        with pytest.raises(AlgebraError, match=re.escape(f"matrix data must be (m, n, 4), got {shape}")):
            BiMatrix(HH, np.zeros(shape))

    def test_from_elements_refuses_ragged_rows(self, HH):
        with pytest.raises(AlgebraError, match="ragged rows"):
            BiMatrix.from_elements([[one(HH), one(HH)], [one(HH)]])

    def test_from_elements_refuses_mixed_algebras(self, HH, CC):
        with pytest.raises(AlgebraError, match="mixed algebras in matrix"):
            BiMatrix.from_elements([[one(HH), one(CC)]])

    def test_matrix_is_immutable(self, HH):
        m = BiMatrix.zeros(HH, 2, 2)
        for name in ("data", "algebra"):
            with pytest.raises(AttributeError, match="BiMatrix is immutable"):
                setattr(m, name, None)

    def test_sum_and_difference_need_one_shape_and_algebra(self, HH, CC):
        a = BiMatrix.zeros(HH, 2, 2)
        for b in (BiMatrix.zeros(HH, 2, 3), BiMatrix.zeros(CC, 2, 2)):
            with pytest.raises(AlgebraError, match="shape or algebra mismatch in matrix sum"):
                a + b
            with pytest.raises(AlgebraError, match="shape or algebra mismatch in matrix difference"):
                a - b

    @pytest.mark.parametrize("mul", [rc_mul, cr_mul])
    def test_products_need_one_algebra(self, HH, CC, mul):
        with pytest.raises(AlgebraError, match="^algebra mismatch$"):
            mul(BiMatrix.identity(HH, 2), BiMatrix.identity(CC, 2))

    def test_cr_product_needs_rows_to_match_columns(self, HH):
        with pytest.raises(AlgebraError, match="cr shape mismatch: 2 rows vs 3 columns"):
            cr_mul(BiMatrix.zeros(HH, 2, 3), BiMatrix.zeros(HH, 2, 3))

    def test_rc_pow_refuses_a_negative_power(self, HH):
        with pytest.raises(ValueError, match="power must be >= 0"):
            rc_pow(BiMatrix.identity(HH, 2), -1)

    def test_cr_pow_refuses_a_negative_power(self, HH):
        with pytest.raises(ValueError, match="power must be >= 0"):
            cr_pow(BiMatrix.identity(HH, 2), -1)

    def test_a_selector_needs_as_many_rows_as_columns(self, HH):
        a = random_matrix(HH, 3, 3, np.random.default_rng(0))
        for sel in (MinorSelector((0,), (0, 1)), MinorSelector((0, 1), (0,))):
            with pytest.raises(ValueError, match="selector must pick as many rows as columns"):
                bordered_quasidet(a, sel, 2, 2)
            with pytest.raises(ValueError, match="selector must pick as many rows as columns"):
                left_dependency(a, 1, sel)

    @pytest.mark.parametrize("i, j", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_quasidet_rc_refuses_an_index_out_of_range(self, HH, i, j):
        with pytest.raises(IndexError, match="quasideterminant index out of range"):
            quasidet_rc(BiMatrix.identity(HH, 2), i, j)

    @pytest.mark.parametrize("height", [1, 3])
    def test_solve_rc_needs_one_right_hand_side_per_row(self, HH, height):
        with pytest.raises(AlgebraError, match="right-hand side height mismatch"):
            solve_rc(BiMatrix.identity(HH, 2), [one(HH)] * height)

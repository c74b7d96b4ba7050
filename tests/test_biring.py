from itertools import combinations

import numpy as np
import pytest

from ncalg.algebra import basis, from_scalar, make_algebra, one, random_element, zero
from ncalg.biring import (
    BiMatrix,
    MinorSelector,
    QuasideterminantUndefinedError,
    SingularMatrixError,
    bordered_quasidet,
    cr_inv,
    cr_mul,
    cr_pow,
    diff_norm,
    eigen_offdiag,
    elliptic_eigen_sample,
    hadamard_inv,
    is_rc_singular,
    left_dependency,
    matrix_from_data,
    matrix_to_data,
    quasidet_cr,
    quasidet_rc,
    random_matrix,
    rc_inv,
    rc_mul,
    rc_pow,
    rc_rank,
    solve_rc,
    submatrix,
    tmat_eval,
    tmat_pow,
    tmat_rc,
    transpose,
    verify_eigen_rc,
)
from ncalg.tensor import pure

from conftest import complex_matrix, quat_mul_oracle


def real_mat(RR, rows):
    return BiMatrix.from_elements([[from_scalar(RR, v) for v in row] for row in rows])


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


class TestTensorMatrices:
    def test_product_evaluation_bridge(self, HH, rng):
        # (a rc b) o x^2 = (a o x) rc (b o x) for matrices of order-1 tensors
        def tensor_entry():
            return pure([random_element(HH, rng), random_element(HH, rng)])

        a = [[tensor_entry() for _ in range(2)] for _ in range(2)]
        b = [[tensor_entry() for _ in range(2)] for _ in range(2)]
        x = random_element(HH, rng)
        lhs = tmat_eval(tmat_rc(a, b), x)
        rhs = rc_mul(tmat_eval(a, x), tmat_eval(b, x))
        assert lhs.close(rhs, 1e-9)

    def test_power_evaluation_bridge(self, HH, rng):
        a = [[pure([random_element(HH, rng), random_element(HH, rng)]) for _ in range(2)]
             for _ in range(2)]
        x = random_element(HH, rng)
        for n in (2, 3):
            lhs = tmat_eval(tmat_pow(a, n), x)
            rhs = rc_pow(tmat_eval(a, x), n)
            assert lhs.close(rhs, 1e-8)


class TestDataForms:
    def test_round_trip(self, HH, rng):
        a = random_matrix(HH, 2, 3, rng)
        d = matrix_to_data(a)
        assert d["algebra"] == "quaternion"
        assert matrix_from_data(d).close(a, 0.0)

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

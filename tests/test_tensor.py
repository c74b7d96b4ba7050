import math
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from ncalg import tensor
from ncalg.algebra import AlgebraError, Element, basis, from_scalar, make_algebra, one, random_element, zero
from ncalg.tensor import (
    SlotTensor,
    TensorPolynomial,
    X,
    Y,
    eval_args,
    largest_entry,
    monomial,
    monomial_derivative,
    ones_tensor,
    poly_derivative,
    poly_product,
    pure,
    slot_derivative,
    slot_tensors_equal,
    so_set,
    star_product,
    symmetric_part,
    tensor_scale,
)

from conftest import dense_symmetric_part, real_tensor


def brute_force_so(k, n):
    """All sequences over {X, 0..k-1} with each arg once and x's in order.

    The x positions are indistinguishable, so this is simply every placement
    of the k labels at distinct positions; enumerated independently of the
    library's combination/permutation scheme.
    """
    seqs = set()
    for positions in permutations(range(n), k):
        labels = [X] * n
        for arg, pos in enumerate(positions):
            labels[pos] = arg
        seqs.add(tuple(labels))
    return seqs


class TestSoSet:
    def test_so_1_3(self):
        got = so_set(1, 3)
        assert len(got) == 3
        for idx, labels in enumerate(got):
            assert labels[idx] == 0 and all(l == X for p, l in enumerate(labels) if p != idx)

    def test_so_0_2(self):
        assert so_set(0, 2) == ((X, X),)

    def test_so_2_3_count(self):
        got = so_set(2, 3)
        assert len(got) == 6
        assert set(got) == brute_force_so(2, 3)

    @pytest.mark.parametrize("k,n", [(0, 0), (1, 1), (2, 4), (3, 5), (2, 5)])
    def test_count_law(self, k, n):
        assert len(so_set(k, n)) == math.factorial(n) // math.factorial(n - k)
        assert set(so_set(k, n)) == brute_force_so(k, n)

    def test_k_above_n(self):
        with pytest.raises(ValueError):
            so_set(3, 2)


class TestStarProduct:
    def test_pure_fusion(self, HH, rng):
        a0, a1, b0, b1 = (random_element(HH, rng) for _ in range(4))
        got = star_product(pure([a0, a1]), pure([b0, b1]))
        expected = pure([a0, a1 * b0, b1])
        assert slot_tensors_equal(got, expected)

    def test_units_fuse(self, HH):
        assert slot_tensors_equal(star_product(ones_tensor(HH, 1), ones_tensor(HH, 1)),
                                  ones_tensor(HH, 2))

    def test_associative(self, HH, rng):
        for _ in range(10):
            a = pure([random_element(HH, rng) for _ in range(3)])
            b = pure([random_element(HH, rng) for _ in range(2)])
            c = pure([random_element(HH, rng) for _ in range(2)])
            assert slot_tensors_equal(star_product(star_product(a, b), c),
                                      star_product(a, star_product(b, c)))

    def test_slotted_factors_keep_their_arguments_apart(self, HH, rng):
        d = slot_derivative(ones_tensor(HH, 1))
        h, k, x = (random_element(HH, rng) for _ in range(3))
        assert eval_args(star_product(d, d), [h, k], x).close(h * k, 1e-12)


class TestEvalPower:
    def test_sandwich(self, HH, rng):
        b, c, x = (random_element(HH, rng) for _ in range(3))
        assert eval_args(pure([b, c]), (), x).close(b * x * c, 1e-12)

    def test_order_zero_constant(self, HH, rng):
        a0, x = random_element(HH, rng), random_element(HH, rng)
        assert eval_args(pure([a0]), (), x).close(a0, 0.0)

    def test_star_eval_homomorphism(self, HH, rng):
        # (a*b) o x^{n+m} = (a o x^n)(b o x^m), 100 random instances
        for _ in range(100):
            n, m = rng.integers(0, 3, 2)
            a = pure([random_element(HH, rng) for _ in range(int(n) + 1)])
            b = pure([random_element(HH, rng) for _ in range(int(m) + 1)])
            x = random_element(HH, rng)
            lhs = eval_args(star_product(a, b), (), x)
            rhs = eval_args(a, (), x) * eval_args(b, (), x)
            assert lhs.close(rhs, 1e-9)


class TestMonomialDerivative:
    def test_dx2(self, HH):
        # d x^2 o h = x h + h x, as a symbolic term match
        got = monomial_derivative(ones_tensor(HH, 2), 1)
        o = one(HH)
        expected = SlotTensor(HH, 1, 1, [((o, o, o), (0, X)), ((o, o, o), (X, 0))])
        assert slot_tensors_equal(got, expected)

    def test_dx3(self, HH):
        got = monomial_derivative(ones_tensor(HH, 3), 1)
        o = one(HH)
        expected = SlotTensor(
            HH, 2, 1,
            [((o,) * 4, (0, X, X)), ((o,) * 4, (X, 0, X)), ((o,) * 4, (X, X, 0))],
        )
        assert slot_tensors_equal(got, expected)
        x, h = random_element(HH, 7), random_element(HH, 8)
        direct = x * x * h + x * h * x + h * x * x
        assert eval_args(got, [h], x).close(direct, 1e-12)

    def test_second_derivative_of_square(self, HH, rng):
        got = monomial_derivative(ones_tensor(HH, 2), 2)
        h1, h2 = random_element(HH, rng), random_element(HH, rng)
        x = random_element(HH, rng)
        assert eval_args(got, [h1, h2], x).close(h1 * h2 + h2 * h1, 1e-12)
        # and against a second difference of the function x -> x^2
        s = 1e-4
        f = lambda z: eval_args(ones_tensor(HH, 2), (), z)
        fd = (f(x + s * h1 + s * h2) - f(x + s * h1 - s * h2)
              - f(x - s * h1 + s * h2) + f(x - s * h1 - s * h2)) * (1.0 / (4 * s * s))
        assert eval_args(got, [h1, h2], x).close(fd, 1e-6)

    def test_order_above_degree_is_zero(self, HH):
        d = monomial_derivative(ones_tensor(HH, 1), 2)
        assert d.terms == ()
        assert eval_args(d, [one(HH), one(HH)], random_element(HH, 3)).close(zero(HH), 0.0)

    def test_term_count_law(self, HH, rng):
        for n in range(1, 6):
            t = pure([random_element(HH, rng) for _ in range(n + 1)])
            for k in range(0, n + 1):
                d = monomial_derivative(t, k)
                assert len(d.terms) == math.factorial(n) // math.factorial(n - k)


class TestEvalArgs:
    def test_commutative_collapse(self, RR):
        d = monomial_derivative(ones_tensor(RR, 2), 1)
        x = from_scalar(RR, 1.7)
        assert eval_args(d, [one(RR)], x).close(from_scalar(RR, 3.4), 1e-12)

    def test_power_rule(self, HH, rng):
        # d x^{n+1} o h = sum_i x^i h x^{n-i}
        for n in range(0, 4):
            t = ones_tensor(HH, n + 1)
            d = monomial_derivative(t, 1)
            x, h = random_element(HH, rng), random_element(HH, rng)
            xp = [one(HH)]
            for _ in range(n + 1):
                xp.append(xp[-1] * x)
            expected = zero(HH)
            for i in range(n + 1):
                expected = expected + xp[i] * h * xp[n - i]
            assert eval_args(d, [h], x).close(expected, 1e-9)

    def test_zero_x_kills_x_gaps(self, HH, rng):
        d = monomial_derivative(ones_tensor(HH, 3), 1)  # every term keeps two x gaps
        h = random_element(HH, rng)
        assert eval_args(d, [h], zero(HH)).close(zero(HH), 0.0)

    def test_arity_mismatch(self, HH):
        d = monomial_derivative(ones_tensor(HH, 2), 1)
        with pytest.raises(ValueError):
            eval_args(d, [], one(HH))


class TestSymmetryInvariant:
    @pytest.mark.parametrize("k", [2, 3])
    def test_higher_derivatives_symmetric(self, HH, rng, k):
        for degree in range(k, 6):
            t = pure([random_element(HH, rng) for _ in range(degree + 1)])
            d = monomial_derivative(t, k)
            x = random_element(HH, rng)
            args = [random_element(HH, rng) for _ in range(k)]
            base = eval_args(d, args, x)
            for perm in permutations(range(k)):
                assert eval_args(d, [args[p] for p in perm], x).close(base, 1e-9)


def test_fd_consistency_order(HH, rng):
    # central differences of the power map converge at order >= 1.8
    t = pure([random_element(HH, rng) for _ in range(5)])
    d = monomial_derivative(t, 1)
    x, h = random_element(HH, rng), random_element(HH, rng)
    exact = eval_args(d, [h], x)

    def fd_err(s):
        fd = (eval_args(t, (), x + s * h) - eval_args(t, (), x - s * h)) * (1.0 / (2 * s))
        return (fd - exact).norm()

    e1, e2 = fd_err(2e-3), fd_err(1e-3)
    order = math.log2(e1 / e2)
    assert order >= 1.8


class TestSlotDerivative:
    def test_adds_argument(self, HH, rng):
        s = monomial_derivative(ones_tensor(HH, 3), 1)
        ds = slot_derivative(s)
        assert ds.arg_slots == 2 and ds.x_gaps == 1
        # matches the direct order-2 derivative up to ordering of arguments
        d2 = monomial_derivative(ones_tensor(HH, 3), 2)
        x = random_element(HH, rng)
        h1, h2 = random_element(HH, rng), random_element(HH, rng)
        assert eval_args(ds, [h1, h2], x).close(eval_args(d2, [h1, h2], x), 1e-9)


class TestPolynomials:
    def test_eval_and_derivative(self, HH, rng):
        a0 = pure([random_element(HH, rng)])
        a2 = ones_tensor(HH, 2)
        p = TensorPolynomial([a0, a2])
        x = random_element(HH, rng)
        assert p(x).close(eval_args(a0, (), x) + x * x, 1e-12)
        comps = poly_derivative(p, 1).components
        assert len(comps) == 1  # the constant drops out
        h = random_element(HH, rng)
        assert eval_args(comps[0], [h], x).close(x * h + h * x, 1e-12)

    def test_product_matches_values(self, HH, rng):
        p = TensorPolynomial([pure([random_element(HH, rng)]), ones_tensor(HH, 1)])
        q = TensorPolynomial([ones_tensor(HH, 2)])
        prod = poly_product(p, q)
        x = random_element(HH, rng)
        assert prod(x).close(p(x) * q(x), 1e-9)

    def test_equal_orders_merge(self, HH, rng):
        a = pure([random_element(HH, rng) for _ in range(2)])
        b = pure([random_element(HH, rng) for _ in range(2)])
        c = pure([random_element(HH, rng)])
        p = TensorPolynomial([a, c, b])
        assert [comp.order for comp in p.components] == [0, 1]
        assert len(p.components[1].terms) == 2
        x = random_element(HH, rng)
        assert p(x).close(eval_args(a, (), x) + eval_args(b, (), x) + eval_args(c, (), x), 1e-12)

    def test_mixed_argument_slots_raise(self, HH):
        with pytest.raises(ValueError, match="argument slots"):
            TensorPolynomial([ones_tensor(HH, 2), slot_derivative(ones_tensor(HH, 2))])

    def test_vanishing_polynomial_is_zero(self, HH, rng):
        p = poly_derivative(TensorPolynomial([ones_tensor(HH, 1)]), 2)
        assert (p.arg_slots, p.algebra) == (2, HH)
        assert [comp.terms for comp in p.components] == [()]
        x, h1, h2 = (random_element(HH, rng) for _ in range(3))
        assert p(x, h1, h2).close(zero(HH), 0.0)

    def test_derivative_gains_slots(self, HH, rng):
        p = TensorPolynomial([slot_derivative(ones_tensor(HH, 2)), slot_derivative(ones_tensor(HH, 3))])
        d = poly_derivative(p, 1)
        assert (p.arg_slots, d.arg_slots) == (1, 2)
        x, h, k = (random_element(HH, rng) for _ in range(3))
        expected = h * k + k * h + x * h * k + x * k * h + h * x * k + k * x * h + h * k * x + k * h * x
        assert d(x, h, k).close(expected, 1e-9)

    def test_product_of_forms(self, HH, rng):
        # the second factor's argument follows the first's
        p = TensorPolynomial([slot_derivative(ones_tensor(HH, 2))])
        q = TensorPolynomial([slot_derivative(ones_tensor(HH, 1)), slot_derivative(ones_tensor(HH, 3))])
        prod = poly_product(p, q)
        assert prod.arg_slots == 2
        x, h, k = (random_element(HH, rng) for _ in range(3))
        assert prod(x, h, k).close(p(x, h) * q(x, k), 1e-9)


class TestHelpers:
    def test_add_scale(self, HH, rng):
        a = pure([random_element(HH, rng), random_element(HH, rng)])
        b = pure([random_element(HH, rng), random_element(HH, rng)])
        x = random_element(HH, rng)
        assert eval_args(a + b, (), x).close(eval_args(a, (), x) + eval_args(b, (), x), 1e-12)
        assert eval_args(tensor_scale(a, -2.5), (), x).close(-2.5 * eval_args(a, (), x), 1e-12)

    def test_tensors_equal_detects_difference(self, HH):
        assert not slot_tensors_equal(ones_tensor(HH, 2), tensor_scale(ones_tensor(HH, 2), 2.0))


@pytest.mark.parametrize("n", range(6))
def test_so_set_labels_match_iterated_slot_derivative(HH, n):
    # the derivative is built by repeated slot_derivative, never from so_set;
    # both must still name the same SO(k, n) placements, each exactly once
    for k in range(n + 1):
        d = monomial_derivative(ones_tensor(HH, n), k)
        labels = [lab for _, lab in d.terms]
        assert len(labels) == len(so_set(k, n))
        assert set(labels) == set(so_set(k, n))


def test_tensor_is_argument_free_slot_tensor(HH, rng):
    t = pure([random_element(HH, rng) for _ in range(4)])
    assert type(t) is SlotTensor
    assert (t.x_gaps, t.arg_slots, t.order) == (3, 0, 3)
    assert [labels for _, labels in t.terms] == [(X, X, X)]


def element_chain_eval(s, args, x, y=None):
    """Reference evaluation: each term as a chain of Element products, summed."""
    total = zero(s.algebra)
    for coeffs, labels in s.terms:
        acc = coeffs[0]
        for c, lab in zip(coeffs[1:], labels):
            acc = acc * (x if lab == X else y if lab == Y else args[lab]) * c
        total = total + acc
    return total


def random_slot_tensor(alg, rng, x_gaps, arg_slots, terms=3, y_gaps=0):
    """Random coefficients on random labellings, X, Y and argument gaps mixed."""
    n = x_gaps + y_gaps + arg_slots
    out = []
    for _ in range(terms):
        labels = [X] * x_gaps + [Y] * y_gaps + list(range(arg_slots))
        rng.shuffle(labels)
        out.append(([random_element(alg, rng) for _ in range(n + 1)], labels))
    return SlotTensor(alg, x_gaps, arg_slots, out, y_gaps)


def conj_tensor(alg):
    """conj(x) = -1/2 (x + i x i + j x j + k x k) as an order-1 tensor over H."""
    return SlotTensor(alg, 1, 0, [((-0.5 * basis(alg, m), basis(alg, m)), (X,)) for m in range(4)])


class TestRealTensor:
    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_eval_matches_element_chain(self, rng, tag):
        # orders 0-5, with x, y and argument gaps mixed, evaluated and contracted
        alg = make_algebra(tag)
        for order in range(6):
            for y_gaps in range(order + 1):
                for k in range(order - y_gaps + 1):
                    s = random_slot_tensor(alg, rng, order - y_gaps - k, k, y_gaps=y_gaps)
                    args = [random_element(alg, rng) for _ in range(k)]
                    x, y = random_element(alg, rng), random_element(alg, rng)
                    # |a b| = |a| |b| here, so this bounds every term's size
                    size = sum(math.prod(c.norm() for c in coeffs) for coeffs, _ in s.terms)
                    size *= max(1.0, x.norm(), y.norm()) ** (order - k) * math.prod(a.norm() for a in args)
                    reference = element_chain_eval(s, args, x, y)
                    assert (eval_args(s, args, x, y) - reference).norm() <= 1e-12 * size
                    contracted = real_tensor(s)
                    for v in [*reversed(args), *[x] * s.x_gaps, *[y] * y_gaps]:
                        contracted = contracted @ v.coeffs
                    assert np.linalg.norm(contracted - reference.coeffs) <= 1e-12 * size

    def test_eval_never_builds_a_symmetric_part(self, HH, rng, monkeypatch):
        def refuse(s):
            raise AssertionError("evaluation built a symmetric part")

        monkeypatch.setattr(tensor, "symmetric_part", refuse)
        x = random_element(HH, rng)
        small = ones_tensor(HH, 2)
        assert (eval_args(small, (), x) - x * x).norm() <= 1e-12 * x.norm() ** 2
        # x^12: the reference real_tensor would hold 4^13 floats (537 MB)
        big = ones_tensor(HH, 12)
        power = one(HH)
        for _ in range(12):
            power = power * x
        assert (eval_args(big, (), x) - power).norm() <= 1e-12 * x.norm() ** 12

    def test_axis_order_and_fresh_array(self, HH, rng):
        # value c0 h1 c1 x c2 h0 c3: axes value, y monomials (one, of degree 0), x, h0, h1
        coeffs = [random_element(HH, rng) for _ in range(4)]
        s = SlotTensor(HH, 1, 2, [(coeffs, (1, X, 0))])
        r = symmetric_part(s)
        assert r.shape == (4, 1, 4, 4, 4)
        for i, a, b in product(range(4), repeat=3):
            e = basis(HH, i), basis(HH, a), basis(HH, b)
            direct = coeffs[0] * e[2] * coeffs[1] * e[0] * coeffs[2] * e[1] * coeffs[3]
            assert np.allclose(r[:, 0, i, a, b], direct.coeffs, rtol=0, atol=1e-14)
        # each call builds a new array, so writing to one changes no later one
        before = r.copy()
        r[...] = 0.0
        assert np.array_equal(symmetric_part(s), before)

    def test_empty_tensor_is_zero(self, HH):
        # x^2 over H has C(5, 2) = 10 monomials
        r = symmetric_part(SlotTensor(HH, 2, 1))
        assert r.shape == (4, 1, 10, 4) and not r.any()

    def test_norm_square_commutes_over_h(self, HH):
        # x conj(x) = conj(x) x = |x|^2: unequal arrays, equal symmetric parts
        xt, c = ones_tensor(HH, 1), conj_tensor(HH)
        left, right = star_product(xt, c), star_product(c, xt)
        assert np.abs(real_tensor(left) - real_tensor(right)).max() == 2.0
        assert slot_tensors_equal(left, right)
        assert not slot_tensors_equal(left, ones_tensor(HH, 2))
        # x conj(x) x = x x conj(x): three x axes
        assert slot_tensors_equal(star_product(left, xt), star_product(xt, right))

    def test_symmetric_part_norm_is_zero_only_for_zero_and_scales(self, HH):
        def norm(t):
            return np.linalg.norm(symmetric_part(t))

        xt, c = ones_tensor(HH, 1), conj_tensor(HH)
        left, right = star_product(xt, c), star_product(c, xt)
        difference = TensorPolynomial([left, tensor_scale(right, -1.0)])
        assert [norm(t) for t in difference.components] == [0.0]
        # h -> h is the 4 x 4 identity: Frobenius norm 2
        assert norm(monomial(HH, (0,))) == 2.0
        mixed = monomial(HH, (X, Y, 0))
        assert norm(tensor_scale(mixed, 1e6)) == pytest.approx(1e6 * norm(mixed), rel=1e-14)
        assert math.isnan(norm(monomial(HH, (X, 0), math.nan)))

    def test_mixed_conjugate_does_not_commute(self, HH):
        # x conj(h) and conj(h) x are different bilinear maps
        xt, ch = ones_tensor(HH, 1), slot_derivative(conj_tensor(HH))
        assert not slot_tensors_equal(star_product(xt, ch), star_product(ch, xt))

    def test_other_algebra_raises(self, HH, CC, rng):
        d = monomial_derivative(ones_tensor(HH, 2), 1)
        h, x = random_element(HH, rng), random_element(HH, rng)
        with pytest.raises(AlgebraError):
            eval_args(d, [random_element(CC, rng)], x)
        with pytest.raises(AlgebraError):
            eval_args(d, [h], random_element(CC, rng))


def orbit_weight(coords) -> float:
    """sqrt(p! / alpha!) for the monomial with these p coordinates, alpha its multiplicities."""
    return math.sqrt(math.factorial(len(coords)) / math.prod(map(math.factorial, Counter(coords).values())))


class TestSymmetricPart:
    """symmetric_part against the reference: the real tensor averaged over each variable's axes."""

    @staticmethod
    def expected(s):
        """The reference's entry at each monomial's sorted coordinates, times sqrt(p! / alpha!)."""
        ref, d = dense_symmetric_part(s), s.algebra.dim
        ys = list(combinations_with_replacement(range(d), s.y_gaps))
        xs = list(combinations_with_replacement(range(d), s.x_gaps))
        out = np.empty((d, len(ys), len(xs)) + (d,) * s.arg_slots)
        for (iy, my), (ix, mx) in product(enumerate(ys), enumerate(xs)):
            out[:, iy, ix] = ref[(slice(None), *my, *mx)] * orbit_weight(my) * orbit_weight(mx)
        return ref, out

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_matches_the_averaged_reference(self, rng, tag):
        # orders 0-6 with x, y and up to two argument gaps, three random terms each
        alg = make_algebra(tag)
        for order in range(7):
            for y_gaps in range(order + 1):
                for k in range(min(2, order - y_gaps) + 1):
                    s = random_slot_tensor(alg, rng, order - y_gaps - k, k, y_gaps=y_gaps)
                    part, (ref, expected) = symmetric_part(s), self.expected(s)
                    size = np.linalg.norm(ref)
                    assert part.shape == expected.shape
                    assert np.abs(part - expected).max() <= 1e-14 * size
                    assert abs(np.linalg.norm(part) - size) <= 1e-14 * size
                    if k == 2:
                        swapped = np.linalg.norm(part - part.swapaxes(-1, -2))
                        assert abs(swapped - np.linalg.norm(ref - ref.swapaxes(-1, -2))) <= 1e-14 * size
                    # the largest entry of the averaged map, named by its monomials' sorted coordinates
                    peak, at = largest_entry(part, s.x_gaps, y_gaps)
                    assert at[1:1 + y_gaps] == sorted(at[1:1 + y_gaps])
                    assert at[1 + y_gaps:1 + order - k] == sorted(at[1 + y_gaps:1 + order - k])
                    assert abs(peak - np.abs(ref).max()) <= 1e-14 * size
                    assert abs(abs(ref[tuple(at)]) - peak) <= 1e-14 * size

    def test_high_degree_stays_polynomial(self, HH):
        # x^12 over H: C(15, 3) = 455 monomials, against 4^13 entries (537 MB) of the multilinear map
        part = symmetric_part(ones_tensor(HH, 12))
        assert part.shape == (4, 1, 455)
        # the monomial 1^12 has one ordering, and 1^12 = 1; no product of units exceeds 1 in norm
        assert part[0, 0, 0] == 1.0
        peak, at = largest_entry(part, 12, 0)
        assert abs(peak - 1.0) <= 1e-14 and len(at) == 13 and at[1:] == sorted(at[1:])

    def test_small_tensors_are_not_equal_to_zero(self, HH):
        # the bound is relative: 1e-12 x^2 is far from 0 however small its norm
        small = tensor_scale(ones_tensor(HH, 2), 1e-12)
        assert not slot_tensors_equal(small, SlotTensor(HH, 2, 0))
        assert slot_tensors_equal(small, tensor_scale(ones_tensor(HH, 2), 1e-12))
        assert slot_tensors_equal(SlotTensor(HH, 2, 0), SlotTensor(HH, 2, 0))


class TestTwoVariables:
    """Gaps labelled Y hold a second variable; its axes never mix with the x axes."""

    @pytest.mark.parametrize("labels", [(X, -5), (Y, Y), (X, 1), (0, 0)])
    def test_foreign_or_miscounted_label_raises(self, HH, labels):
        # x_gaps = 1, y_gaps = 1: -5 is neither X, Y nor an argument
        with pytest.raises(ValueError, match="labels"):
            SlotTensor(HH, 1, 0, [((one(HH),) * 3, labels)], y_gaps=1)

    def test_monomial_counts_its_gaps(self, HH):
        t = monomial(HH, (X, 0, Y, X), 2.0)
        assert (t.x_gaps, t.y_gaps, t.arg_slots, t.order) == (2, 1, 1, 4)
        assert slot_tensors_equal(monomial(HH, (X, X)), ones_tensor(HH, 2))

    def test_xy_and_yx_differ_over_h(self, HH):
        assert not slot_tensors_equal(monomial(HH, (X, Y)), monomial(HH, (Y, X)))
        # symmetrizing x and y axes together would equate these two
        assert not slot_tensors_equal(monomial(HH, (X, X, Y)), monomial(HH, (X, Y, X)))

    @pytest.mark.parametrize("tag", ["real", "complex"])
    def test_xy_and_yx_agree_over_a_commutative_algebra(self, tag):
        alg = make_algebra(tag)
        assert slot_tensors_equal(monomial(alg, (X, Y)), monomial(alg, (Y, X)))
        assert slot_tensors_equal(monomial(alg, (X, X, Y)), monomial(alg, (X, Y, X)))

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_xx_and_xy_never_equal(self, tag):
        alg = make_algebra(tag)
        assert not slot_tensors_equal(monomial(alg, (X, X)), monomial(alg, (X, Y)))
        assert not slot_tensors_equal(monomial(alg, (X, Y)), monomial(alg, (Y, Y)))

    def test_y_axes_come_before_x_axes(self, HH, rng):
        coeffs = [random_element(HH, rng) for _ in range(3)]
        r = symmetric_part(SlotTensor(HH, 1, 0, [(coeffs, (X, Y))], y_gaps=1))
        for a, b in product(range(4), repeat=2):
            direct = coeffs[0] * basis(HH, b) * coeffs[1] * basis(HH, a) * coeffs[2]
            assert np.allclose(r[:, a, b], direct.coeffs, rtol=0, atol=1e-14)

    def test_missing_y_raises(self, HH):
        with pytest.raises(ValueError, match="y value"):
            eval_args(monomial(HH, (X, Y)), [], one(HH))
        assert eval_args(ones_tensor(HH, 1), [], one(HH)).close(one(HH), 0.0)

    @pytest.mark.parametrize("var", [5, -3, 0])
    def test_derivative_in_another_variable_raises(self, HH, var):
        # x x over H: a zero form with one more slot would pass for a derivative
        p = TensorPolynomial([monomial(HH, (X, X))])
        with pytest.raises(ValueError, match=f"variable {var}"):
            poly_derivative(p, var=var)
        with pytest.raises(ValueError, match=f"variable {var}"):
            slot_derivative(p.components[0], var)

    def test_derivative_in_each_variable(self, HH, rng):
        # p = x y x + y: D_x p o h = h y x + x y h, D_y p o h = x h x + h
        p = TensorPolynomial([monomial(HH, (X, Y, X)), monomial(HH, (Y,))])
        x, y, h = (random_element(HH, rng) for _ in range(3))
        assert poly_derivative(p, var=X)(x, h, y=y).close(h * y * x + x * y * h, 1e-12)
        assert poly_derivative(p, var=Y)(x, h, y=y).close(x * h * x + h, 1e-12)
        d = slot_derivative(monomial(HH, (X, Y, X)), Y)
        assert (d.x_gaps, d.y_gaps, d.arg_slots) == (2, 0, 1)

    def test_components_merge_by_both_degrees(self, HH, rng):
        p = TensorPolynomial([monomial(HH, (X, Y)), monomial(HH, (Y, X)), monomial(HH, (X, X)),
                              monomial(HH, (Y, Y))])
        assert [(c.x_gaps, c.y_gaps, len(c.terms)) for c in p.components] == [(0, 2, 1), (1, 1, 2), (2, 0, 1)]
        x, y = random_element(HH, rng), random_element(HH, rng)
        assert p(x, y=y).close(x * y + y * x + x * x + y * y, 1e-12)

    def test_star_product_adds_y_gaps(self, HH, rng):
        a, b = monomial(HH, (Y, 0)), monomial(HH, (X, 0, Y))
        ab = star_product(a, b)
        assert (ab.x_gaps, ab.y_gaps, ab.arg_slots) == (1, 2, 2)
        x, y, h, k = (random_element(HH, rng) for _ in range(4))
        assert eval_args(ab, [h, k], x, y).close(y * h * x * k * y, 1e-12)


@pytest.mark.parametrize("tag", ["complex", "quaternion"])
def test_a_one_term_tensor_evaluates_to_the_bytes_of_its_element_chain(rng, tag):
    """eval_args multiplies through algebra._mul_rows, with the bits of Element.__mul__, with and without arguments."""
    alg = make_algebra(tag)
    for order in range(1, 6):
        for k in range(order + 1):
            for _ in range(20):
                s = random_slot_tensor(alg, rng, order - k, k, terms=1)
                args = [random_element(alg, rng) for _ in range(k)]
                x = random_element(alg, rng)
                ((coeffs, labels),) = s.terms
                chain = coeffs[0]
                for c, lab in zip(coeffs[1:], labels):
                    chain = chain * (x if lab == X else args[lab]) * c
                got = eval_args(s, args, x)
                assert got.coeffs.tobytes() == chain.coeffs.tobytes(), (order, k)


class TestInputChecks:
    """Each constructor and operation refuses a malformed input with its typed error and message."""

    def test_slot_tensor_refuses_negative_counts(self, HH):
        for counts in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            x_gaps, arg_slots, y_gaps = counts
            with pytest.raises(ValueError, match=r"x_gaps, y_gaps and arg_slots must be >= 0"):
                SlotTensor(HH, x_gaps, arg_slots, (), y_gaps)

    def test_slot_tensor_refuses_a_term_of_the_wrong_shape(self, HH):
        o = one(HH)
        for coeffs, labels in (([o, o, o], (X,)), ([o, o], (X, X))):
            with pytest.raises(ValueError, match=r"term shape does not match x_gaps \+ y_gaps \+ arg_slots"):
                SlotTensor(HH, 1, 0, [(coeffs, labels)])

    def test_slot_tensor_refuses_a_coefficient_of_another_algebra(self, HH, CC):
        with pytest.raises(AlgebraError, match=r"mixed algebras in tensor term"):
            SlotTensor(HH, 1, 0, [((one(HH), one(CC)), (X,))])

    def test_slot_tensor_sum_needs_one_shape(self, HH, CC):
        a = monomial(HH, (X,))
        for b in (monomial(HH, (X, X)), monomial(HH, (0,)), monomial(HH, (Y,)), monomial(CC, (X,))):
            with pytest.raises(ValueError, match=r"shape mismatch in SlotTensor sum"):
                a + b

    def test_slot_tensor_is_immutable(self, HH):
        t = monomial(HH, (X,))
        with pytest.raises(AttributeError, match=r"SlotTensor is immutable"):
            t.x_gaps = 2

    def test_star_product_needs_one_algebra(self, HH, CC):
        with pytest.raises(AlgebraError, match=r"algebra mismatch in star product"):
            star_product(pure([one(HH), one(HH)]), pure([one(CC), one(CC)]))

    def test_monomial_derivative_refuses_a_negative_order(self, HH):
        with pytest.raises(ValueError, match=r"derivative order must be >= 0"):
            monomial_derivative(ones_tensor(HH, 2), -1)

    @pytest.mark.parametrize("k, n", [(-1, 2), (0, -1), (-1, -1)])
    def test_so_set_refuses_a_negative_count(self, k, n):
        with pytest.raises(ValueError, match=r"k and n must be >= 0"):
            so_set(k, n)

    def test_polynomial_needs_a_component(self):
        with pytest.raises(ValueError, match=r"need at least one component"):
            TensorPolynomial([])

    def test_polynomial_refuses_components_of_two_algebras(self, HH, CC):
        with pytest.raises(AlgebraError, match=r"mixed algebras in polynomial"):
            TensorPolynomial([monomial(HH, (X,)), monomial(CC, (X, X))])

    def test_polynomial_is_immutable(self, HH):
        p = TensorPolynomial([monomial(HH, (X,))])
        with pytest.raises(AttributeError, match=r"TensorPolynomial is immutable"):
            p.arg_slots = 1


def _twin(s):
    """s with every coefficient a new Element of the same value."""
    terms = [([Element(c.algebra, c.coeffs.tolist()) for c in coeffs], labels) for coeffs, labels in s.terms]
    return SlotTensor(s.algebra, s.x_gaps, s.arg_slots, terms, s.y_gaps)


def _per_gap_symmetric_part(s):
    """symmetric_part with the coefficient's table t @ (c @ t) formed afresh at every gap of every term."""
    if np.isinf([c.coeffs for coeffs, _ in s.terms for c in coeffs]).any():
        raise AlgebraError("a symmetric part needs finite coefficients")
    d, k, t = s.algebra.dim, s.arg_slots, s.algebra.table
    total = np.zeros((d, len(tensor._monomials(d, s.y_gaps)), len(tensor._monomials(d, s.x_gaps))) + (d,) * k)
    for coeffs, labels in s.terms:
        chain = coeffs[0].coeffs.reshape(1, 1, 1, d)
        for g, (label, c) in enumerate(zip(labels, coeffs[1:])):
            step = (chain.reshape(-1, d) @ (t @ (c.coeffs @ t)).reshape(d, d * d)).reshape(chain.shape[:3] + (d, d))
            if label >= 0:
                chain = step.transpose(0, 3, 1, 2, 4).reshape((-1,) + step.shape[1:3] + (d,))
            else:
                chain = tensor._merger(d, labels[:g].count(label))(step.swapaxes(label + 3, 2)).swapaxes(label + 3, 2)
        slots = sorted(range(k), key=[l for l in labels if l >= 0].__getitem__)
        total += chain.reshape((d,) * k + chain.shape[1:]).transpose(k + 2, k, k + 1, *slots)
    return total


def _listed_largest_entry(part, x_gaps, y_gaps):
    """largest_entry with its weights sqrt(alpha!/p!) listed afresh for each monomial at each call."""
    monomials = [list(combinations_with_replacement(range(part.shape[0]), gaps)) for gaps in (y_gaps, x_gaps)]
    scales = ([np.sqrt(np.prod([m[:j].count(q) / j for j, q in enumerate(m, 1)])) for m in ms] for ms in monomials)
    size = np.einsum("vyx...,y,x->vyx...", np.nan_to_num(np.abs(part), nan=np.inf), *scales)
    at = np.unravel_index(np.argmax(size), size.shape)
    return float(size[at]), [int(at[0]), *monomials[0][at[1]], *monomials[1][at[2]], *map(int, at[3:])]


class TestDerivedTensors:
    """Derivatives and sums skip the constructor's checks, and the form checks' per-call setup is shared."""

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    def test_trusted_tensors_equal_their_validated_rebuilds(self, rng, tag):
        # x and y gaps 0-3 and 0-2, then one to three derivatives in X or Y, and sums of them
        alg = make_algebra(tag)
        for x_gaps, y_gaps in product(range(4), range(3)):
            s = random_slot_tensor(alg, rng, x_gaps, 0, y_gaps=y_gaps)
            for variables in product((X, Y), repeat=3):
                derived, t = [], s
                for var in variables:
                    t = slot_derivative(t, var)
                    derived.append(t)
                for t in derived + [t + t for t in derived]:
                    rebuilt = SlotTensor(t.algebra, t.x_gaps, t.arg_slots, t.terms, t.y_gaps)  # checks every term
                    assert (t.algebra, t.x_gaps, t.y_gaps, t.arg_slots) == \
                        (rebuilt.algebra, rebuilt.x_gaps, rebuilt.y_gaps, rebuilt.arg_slots)
                    assert t.terms == rebuilt.terms and type(t.terms) is tuple
                    assert all(type(c) is tuple and type(l) is tuple for c, l in t.terms)
                    assert t.arg_slots in (1, 2, 3)
        with pytest.raises(AttributeError, match="immutable"):
            derived[0].terms = ()

    def test_the_public_constructor_still_checks(self, HH, CC):
        o = one(HH)
        with pytest.raises(ValueError, match="labels"):
            SlotTensor(HH, 1, 1, [((o, o, o), (X, 1))])
        with pytest.raises(ValueError, match="labels"):
            SlotTensor(HH, 0, 1, [((o, o), (Y,))], y_gaps=0)
        with pytest.raises(AlgebraError, match="mixed algebras"):
            SlotTensor(HH, 1, 1, [((o, one(CC), o), (X, 0))])
        # a sum of tensors of one shape needs no check; of two shapes it raises
        with pytest.raises(ValueError, match="shape mismatch"):
            slot_derivative(monomial(HH, (X, X))) + monomial(HH, (X, X))

    def test_symmetric_part_keeps_the_per_gap_bits(self, HH, rng):
        shared = random_element(HH, rng)
        twin = Element(HH, shared.coeffs.tolist())
        signed = Element(HH, [1.0, -0.0, 0.0, -0.0])  # equal to one(HH), with other bytes
        nan = Element(HH, [0.5, math.nan, 0.0, 1.0])
        cases = {
            "one shared object": [([shared] * 4, (X, 0, Y)), ([shared] * 4, (Y, X, 0))],
            "equal values, distinct objects": [([shared, twin, shared, twin], (X, 0, Y)),
                                               ([twin, twin, shared, one(HH)], (0, Y, X)),
                                               ([one(HH), signed, signed, one(HH)], (Y, X, 0))],
            "a NaN coefficient": [([shared, nan, shared, shared], (X, 0, Y)), ([nan] * 4, (0, X, Y))],
        }
        for name, terms in cases.items():
            s = SlotTensor(HH, 1, 1, terms, y_gaps=1)
            assert symmetric_part(s).tobytes() == _per_gap_symmetric_part(s).tobytes(), name
        # derivatives share their source's coefficient objects
        s = random_slot_tensor(HH, rng, 3, 0, y_gaps=1)
        for t in (s, slot_derivative(s), slot_derivative(slot_derivative(s), Y), s + _twin(s)):
            assert symmetric_part(t).tobytes() == _per_gap_symmetric_part(t).tobytes()
        inf = Element(HH, [1.0, math.inf, 0.0, 0.0])
        with pytest.raises(AlgebraError, match="finite"):
            symmetric_part(SlotTensor(HH, 1, 1, [([shared, shared, inf], (X, 0))]))

    def test_largest_entry_keeps_the_listed_weights(self, HH, rng):
        for x_gaps, y_gaps, k in product(range(4), range(3), range(3)):
            part = symmetric_part(random_slot_tensor(HH, rng, x_gaps, k, y_gaps=y_gaps))
            nan_at, tied = part.copy(), np.ones_like(part)
            nan_at.flat[rng.integers(part.size, size=2)] = math.nan
            for p in (part, nan_at, tied, np.zeros_like(part)):
                assert largest_entry(p, x_gaps, y_gaps) == _listed_largest_entry(p, x_gaps, y_gaps)
        # the cached weights are shared, so no caller may write to them
        weights = tensor._orbit_weights(4, 3)
        assert weights is tensor._orbit_weights(4, 3) and not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 2.0

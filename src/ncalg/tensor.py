"""Noncommutative tensor monomials, the star product, and derivatives.

A pure tensor a_0 (x) a_1 (x) ... (x) a_n of order n acts on x by
a_0 x a_1 x ... x a_n; sums of such terms are the homogeneous polynomials.
Every tensor is one labelled-term type, :class:`SlotTensor`: each gap
between coefficients holds the variable x or one of k arguments, so a sum of
terms is a multilinear-map-valued polynomial. ``Tensor`` is its
argument-free case, with every gap labelled x. The order-k derivative is k
applications of :func:`slot_derivative`, each moving one x gap to a new
argument; the labellings this yields are exactly the SO(k, n) sets of
:func:`so_set` (k argument labels placed, the x gaps kept in order).

:class:`TensorPolynomial` is the one polynomial type: a sum of SlotTensor
components with a common number of argument slots, equal degrees merged.
With no slots it is a polynomial in x; with one slot it is a first-order
form x -> (h -> g(x) o h), and its derivative is the same type with one
slot more. Calling it evaluates it.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraDesc,
    AlgebraError,
    Element,
    basis,
    element_from_data,
    element_to_data,
    one,
    random_element,
)

X = -1  # gap label: the polynomial variable


class SlotTensor:
    """Labelled tensor terms: gaps hold either the variable x or an argument.

    Each term is (coeffs, labels) with len(coeffs) = x_gaps + arg_slots + 1
    and labels marking every gap as X or as one of the arg indices 0..k-1
    (each appearing exactly once per term). Evaluation substitutes the args
    and x into their gaps.
    """

    __slots__ = ("algebra", "x_gaps", "arg_slots", "terms")

    def __init__(self, algebra: AlgebraDesc, x_gaps: int, arg_slots: int,
                 terms: Sequence[tuple[Sequence[Element], Sequence[int]]] = ()):
        if x_gaps < 0 or arg_slots < 0:
            raise ValueError("x_gaps and arg_slots must be >= 0")
        n = x_gaps + arg_slots
        norm_terms = []
        for coeffs, labels in terms:
            coeffs = tuple(coeffs)
            labels = tuple(labels)
            if len(coeffs) != n + 1 or len(labels) != n:
                raise ValueError("term shape does not match x_gaps + arg_slots")
            args_seen = sorted(l for l in labels if l != X)
            if args_seen != list(range(arg_slots)):
                raise ValueError(f"labels must use each arg index once, got {labels}")
            if any(c.algebra != algebra for c in coeffs):
                raise AlgebraError("mixed algebras in tensor term")
            norm_terms.append((coeffs, labels))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "x_gaps", x_gaps)
        object.__setattr__(self, "arg_slots", arg_slots)
        object.__setattr__(self, "terms", tuple(norm_terms))

    def __setattr__(self, name, value):
        raise AttributeError("SlotTensor is immutable")

    @property
    def order(self) -> int:
        """Number of gaps, x and argument alike: the polynomial degree."""
        return self.x_gaps + self.arg_slots

    def __add__(self, other: "SlotTensor") -> "SlotTensor":
        if (other.x_gaps, other.arg_slots, other.algebra) != (self.x_gaps, self.arg_slots, self.algebra):
            raise ValueError("shape mismatch in SlotTensor sum")
        return SlotTensor(self.algebra, self.x_gaps, self.arg_slots, self.terms + other.terms)

    def __repr__(self):
        return f"SlotTensor(x_gaps={self.x_gaps}, arg_slots={self.arg_slots}, terms={len(self.terms)})"


Tensor = SlotTensor


def pure(coeffs: Sequence[Element]) -> Tensor:
    """Single pure term a_0 (x) ... (x) a_n."""
    coeffs = tuple(coeffs)
    n = len(coeffs) - 1
    return SlotTensor(coeffs[0].algebra, n, 0, [(coeffs, (X,) * n)])


def ones_tensor(algebra: AlgebraDesc, order: int) -> Tensor:
    """1 (x) 1 (x) ... (x) 1: the monomial x^order."""
    return pure([one(algebra)] * (order + 1))


def tensor_scale(a: Tensor, s: float) -> Tensor:
    terms = [((coeffs[0] * s,) + coeffs[1:], labels) for coeffs, labels in a.terms]
    return SlotTensor(a.algebra, a.x_gaps, a.arg_slots, terms)


def star_product(a: Tensor, b: Tensor) -> Tensor:
    """Fuse a's last coefficient into b's first: order adds.

    [a_0..a_n] * [b_0..b_m] = [a_0, ..., a_{n-1}, a_n b_0, b_1, ..., b_m],
    extended bilinearly over term sums. b's arguments follow a's: its arg
    labels shift by a.arg_slots.
    """
    if a.algebra != b.algebra:
        raise AlgebraError("algebra mismatch in star product")
    shift = a.arg_slots
    terms = [(ca[:-1] + (ca[-1] * cb[0],) + cb[1:], la + tuple(l if l == X else l + shift for l in lb))
             for ca, la in a.terms for cb, lb in b.terms]
    return SlotTensor(a.algebra, a.x_gaps + b.x_gaps, a.arg_slots + b.arg_slots, terms)


def eval_args(s: SlotTensor, args: Sequence[Element], x: Element) -> Element:
    """Substitute args into their slots and x into the x gaps."""
    if len(args) != s.arg_slots:
        raise ValueError(f"expected {s.arg_slots} arguments, got {len(args)}")
    total = np.zeros(s.algebra.dim)
    for coeffs, labels in s.terms:
        acc = coeffs[0]
        for c, lab in zip(coeffs[1:], labels):
            v = x if lab == X else args[lab]
            acc = acc * v * c
        total = total + acc.coeffs
    return Element._trusted(s.algebra, total)


def eval_power(t: Tensor, x: Element) -> Element:
    """Value of t on x: sum over terms of a_0 x a_1 x ... x a_n."""
    return eval_args(t, (), x)


# ---------------------------------------------------------------------------
# derivatives


def slot_derivative(s: SlotTensor) -> SlotTensor:
    """Differentiate a SlotTensor in its x dependence.

    The new direction becomes the highest arg index; each term contributes
    one copy per x gap replaced (product rule over the multilinear gaps).
    """
    new_arg = s.arg_slots
    terms = []
    for coeffs, labels in s.terms:
        for pos, lab in enumerate(labels):
            if lab == X:
                nl = list(labels)
                nl[pos] = new_arg
                terms.append((coeffs, tuple(nl)))
    return SlotTensor(s.algebra, s.x_gaps - 1 if s.x_gaps else 0, s.arg_slots + 1, terms)


def monomial_derivative(t: SlotTensor, k: int) -> SlotTensor:
    """Order-k derivative: k applications of :func:`slot_derivative`.

    A term with n x gaps yields one term per placement in so_set(k, n),
    n!/(n-k)! in all; for k > n its contribution is zero, and a tensor with
    no terms left is the zero SlotTensor with k more argument slots.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    for _ in range(k):
        t = slot_derivative(t)
    return t


def so_set(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All placements of arg labels 0..k-1 into n positions, x elsewhere.

    The x positions keep their natural order, so an assignment is a choice of
    k positions plus an ordering of the labels on them: n!/(n-k)! in total,
    listed lexicographically by (positions, label permutation). As a set,
    these are the label tuples of monomial_derivative(ones_tensor(A, n), k).
    """
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    if k > n:
        raise ValueError(f"cannot place {k} argument labels in {n} positions")
    out = []
    for pos in combinations(range(n), k):
        for perm in permutations(range(k)):
            labels = [X] * n
            for p, lab in zip(pos, perm):
                labels[p] = lab
            out.append(tuple(labels))
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials


class TensorPolynomial:
    """Sum of homogeneous components sharing one algebra and one number of argument slots.

    Components of equal x_gaps are summed into one and components without
    terms are dropped, so ``components`` holds at most one SlotTensor per
    degree, in ascending order. A polynomial whose components all vanish is
    zero and keeps one empty SlotTensor, so its algebra stays defined.
    ``p(x, *args)`` evaluates it: the polynomial in x, multilinear in its
    ``arg_slots`` arguments.
    """

    __slots__ = ("algebra", "arg_slots", "components")

    def __init__(self, components: Sequence[SlotTensor]):
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        algebra, arg_slots = comps[0].algebra, comps[0].arg_slots
        by_gaps: dict[int, SlotTensor] = {}
        for c in comps:
            if c.algebra != algebra:
                raise AlgebraError("mixed algebras in polynomial")
            if c.arg_slots != arg_slots:
                raise ValueError("polynomial components must share one number of argument slots")
            by_gaps[c.x_gaps] = by_gaps[c.x_gaps] + c if c.x_gaps in by_gaps else c
        kept = tuple(by_gaps[g] for g in sorted(by_gaps) if by_gaps[g].terms)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "arg_slots", arg_slots)
        object.__setattr__(self, "components", kept or (SlotTensor(algebra, 0, arg_slots),))

    def __setattr__(self, name, value):
        raise AttributeError("TensorPolynomial is immutable")

    def __call__(self, x: Element, *args: Element) -> Element:
        total = np.zeros(self.algebra.dim)
        for c in self.components:
            total = total + eval_args(c, args, x).coeffs
        return Element._trusted(self.algebra, total)


def poly_derivative(p: TensorPolynomial, k: int = 1) -> TensorPolynomial:
    """Componentwise order-k derivative: k more argument slots."""
    return TensorPolynomial([monomial_derivative(c, k) for c in p.components])


def poly_product(p: TensorPolynomial, q: TensorPolynomial) -> TensorPolynomial:
    """Product via pairwise star products; equal degrees merge in the constructor."""
    return TensorPolynomial([star_product(a, b) for a in p.components for b in q.components])


# ---------------------------------------------------------------------------
# extensional equality on a probe set

PROBE_RANDOM = 20


def slot_tensors_equal(a: SlotTensor, b: SlotTensor, tol: float = 1e-9, seed: int = 1234) -> bool:
    """Extensional equality: agreement of evaluations on a probe set.

    Probes pair basis argument tuples (when there are few) and seeded random
    arguments with basis and random x; canonical forms over A (x) A are out
    of scope, so evaluation decides.
    """
    if (a.x_gaps, a.arg_slots, a.algebra) != (b.x_gaps, b.arg_slots, b.algebra):
        return False
    alg = a.algebra
    k = a.arg_slots
    cases = []
    if k <= 3 and alg.dim ** k <= 64:
        xs = [basis(alg, i) for i in range(alg.dim)]
        for x in xs:
            for tup in product(xs, repeat=k):
                cases.append((list(tup), x))
    rng = np.random.default_rng(seed)
    for _ in range(PROBE_RANDOM):
        cases.append(([random_element(alg, rng) for _ in range(k)], random_element(alg, rng)))
    return all(eval_args(a, args, x).close(eval_args(b, args, x), tol) for args, x in cases)


# ---------------------------------------------------------------------------
# data form


def tensor_to_data(t: Tensor) -> dict:
    if t.arg_slots:
        raise ValueError("only argument-free tensors have a data form")
    return {"order": t.order, "terms": [[element_to_data(c) for c in coeffs] for coeffs, _ in t.terms]}


def tensor_from_data(data: dict) -> Tensor:
    terms = [[element_from_data(c) for c in term] for term in data["terms"]]
    if terms:
        order = data["order"]
        return SlotTensor(terms[0][0].algebra, order, 0, [(c, (X,) * order) for c in terms])
    raise ValueError("tensor data needs at least one term to fix the algebra")

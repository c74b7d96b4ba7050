"""Noncommutative tensor monomials, the star product, and derivatives.

A pure tensor a_0 (x) a_1 (x) ... (x) a_n of order n acts on x by
a_0 x a_1 x ... x a_n; sums of such terms are the homogeneous polynomials.
Every tensor is one labelled-term type, :class:`SlotTensor`: each gap
between coefficients holds one of the variables x and y or one of k
arguments, so a sum of terms is a multilinear-map-valued polynomial in x and
y. A polynomial in x alone is the case with every gap labelled x.

Numerically a SlotTensor is one real multilinear map, with a value axis and
one axis per gap. Its part symmetric in the x gaps and, separately, in the
y gaps fixes the polynomial. :func:`symmetric_part` stores that part once
per monomial: an array with the value axis, one axis of y monomials, one of
x monomials (sorted coordinate tuples) and one axis per argument, each
entry weighted so that the plain Frobenius norm is the Bombieri-Weyl norm,
the norm of the averaged map. It holds dim * C(dim + q - 1, q) *
C(dim + p - 1, p) * dim^k floats for p x gaps, q y gaps and k arguments,
polynomial in the degree, so :func:`slot_tensors_equal` and that norm
decide equality and size with no probe points at any degree.
:func:`largest_entry` names the largest entry of the averaged map by
one coordinate per gap. Evaluation
builds no array: it multiplies the coefficient vectors of all terms
through the structure table, one gap at a time.

The order-k derivative in a variable is k applications of
:func:`slot_derivative`, each moving one gap of that variable to a new
argument; the labellings this yields are exactly the SO(k, n) sets of
:func:`so_set` (k argument labels placed, the x gaps kept in order).

:class:`TensorPolynomial` is the one polynomial type: a sum of SlotTensor
components with a common number of argument slots, equal degrees merged.
With no slots it is a polynomial in x (and y); with one slot it is a
first-order form such as x -> (h -> g(x) o h) or the M(x, y) o dx of an
exact equation, and its derivative is the same type with one slot more.
Calling it evaluates it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable, Sequence

import numpy as np

from .algebra import CLOSE_RTOL, AlgebraDesc, AlgebraError, Element, _mul_rows, close, one

X = -1  # gap labels: the polynomial variables
Y = -2


class SlotTensor:
    """Labelled tensor terms: gaps hold the variable x, the variable y or an argument.

    Each term is (coeffs, labels) with len(coeffs) = x_gaps + y_gaps +
    arg_slots + 1 and labels marking every gap as X, as Y or as one of the
    arg indices 0..k-1 (each appearing exactly once per term). Evaluation
    substitutes the args, x and y into their gaps.
    """

    __slots__ = ("algebra", "x_gaps", "arg_slots", "y_gaps", "terms")  # the order _fill sets them in

    def __init__(self, algebra: AlgebraDesc, x_gaps: int, arg_slots: int,
                 terms: Sequence[tuple[Sequence[Element], Sequence[int]]] = (), y_gaps: int = 0):
        if min(x_gaps, y_gaps, arg_slots) < 0:
            raise ValueError("x_gaps, y_gaps and arg_slots must be >= 0")
        n = x_gaps + y_gaps + arg_slots
        norm_terms = []
        for coeffs, labels in terms:
            coeffs, labels = tuple(coeffs), tuple(labels)
            if len(coeffs) != n + 1 or len(labels) != n:
                raise ValueError("term shape does not match x_gaps + y_gaps + arg_slots")
            # the y count and the argument set together leave exactly x_gaps labels X
            args_seen = sorted(l for l in labels if l not in (X, Y))
            if args_seen != list(range(arg_slots)) or labels.count(Y) != y_gaps:
                raise ValueError(f"labels must use each arg index once and Y y_gaps times, got {labels}")
            if any(c.algebra != algebra for c in coeffs):
                raise AlgebraError("mixed algebras in tensor term")
            norm_terms.append((coeffs, labels))
        _fill(self, algebra, x_gaps, arg_slots, y_gaps, tuple(norm_terms))

    @classmethod
    def _trusted(cls, algebra: AlgebraDesc, x_gaps: int, arg_slots: int, terms: tuple,
                 y_gaps: int = 0) -> "SlotTensor":
        """A SlotTensor over terms already as the constructor leaves them, with no check or copy.

        terms is a tuple of (coeffs, labels) tuple pairs that the
        constructor would accept for this shape: the terms of validated
        tensors, relabelled only as slot_derivative relabels them.
        """
        self = object.__new__(cls)
        _fill(self, algebra, x_gaps, arg_slots, y_gaps, terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SlotTensor is immutable")

    @property
    def order(self) -> int:
        """Number of gaps, variable and argument alike: the polynomial degree."""
        return self.x_gaps + self.y_gaps + self.arg_slots

    def _shape(self) -> tuple:
        return self.x_gaps, self.y_gaps, self.arg_slots, self.algebra

    def __add__(self, other: "SlotTensor") -> "SlotTensor":
        if other._shape() != self._shape():
            raise ValueError("shape mismatch in SlotTensor sum")
        return SlotTensor._trusted(self.algebra, self.x_gaps, self.arg_slots, self.terms + other.terms, self.y_gaps)

    def __repr__(self):
        return (f"SlotTensor(x_gaps={self.x_gaps}, y_gaps={self.y_gaps}, arg_slots={self.arg_slots}, "
                f"terms={len(self.terms)})")


def _fill(s: SlotTensor, *values) -> None:
    """Set the slots of a new SlotTensor, in __slots__ order."""
    for name, value in zip(SlotTensor.__slots__, values):
        object.__setattr__(s, name, value)


def pure(coeffs: Sequence[Element]) -> SlotTensor:
    """Single pure term a_0 (x) ... (x) a_n."""
    coeffs = tuple(coeffs)
    n = len(coeffs) - 1
    return SlotTensor(coeffs[0].algebra, n, 0, [(coeffs, (X,) * n)])


def monomial(algebra: AlgebraDesc, labels: Sequence[int], coeff: float = 1.0) -> SlotTensor:
    """The word coeff * g_1 g_2 ... g_n with unit coefficients and gap labels g_i.

    Each label is X, Y or an argument index; ``monomial(A, (X, 0, Y))`` is
    h -> x h y and ``monomial(A, (0,), 3.0)`` is h -> 3 h.
    """
    labels = tuple(labels)
    coeffs = [one(algebra)] * (len(labels) + 1)
    coeffs[0] = coeff * coeffs[0]
    args = sum(l >= 0 for l in labels)
    return SlotTensor(algebra, len(labels) - args - labels.count(Y), args, [(coeffs, labels)], labels.count(Y))


def ones_tensor(algebra: AlgebraDesc, order: int) -> SlotTensor:
    """1 (x) 1 (x) ... (x) 1: the monomial x^order."""
    return monomial(algebra, (X,) * order)


def tensor_scale(a: SlotTensor, s: float) -> SlotTensor:
    terms = [((coeffs[0] * s,) + coeffs[1:], labels) for coeffs, labels in a.terms]
    return SlotTensor(a.algebra, a.x_gaps, a.arg_slots, terms, a.y_gaps)


def star_product(a: SlotTensor, b: SlotTensor) -> SlotTensor:
    """Fuse a's last coefficient into b's first: order adds.

    [a_0..a_n] * [b_0..b_m] = [a_0, ..., a_{n-1}, a_n b_0, b_1, ..., b_m],
    extended bilinearly over term sums. b's arguments follow a's: its arg
    labels shift by a.arg_slots.
    """
    if a.algebra != b.algebra:
        raise AlgebraError("algebra mismatch in star product")
    terms = [(ca[:-1] + (ca[-1] * cb[0],) + cb[1:], la + tuple(l if l < 0 else l + a.arg_slots for l in lb))
             for ca, la in a.terms for cb, lb in b.terms]
    return SlotTensor(a.algebra, a.x_gaps + b.x_gaps, a.arg_slots + b.arg_slots, terms, a.y_gaps + b.y_gaps)


def eval_args(s: SlotTensor, args: Sequence[Element], x: Element, y: Element | None = None) -> Element:
    """Substitute args into their slots, x into the x gaps and y into the y gaps.

    y may be omitted when s has no y gaps. All terms advance together, one
    gap at a time: the running products, one row per term, times the value
    in the gap and then the next coefficient, each step one
    algebra._mul_rows call, so a one-term tensor has the bits of its
    Element product chain a_0 * v_1 * a_1 * ..., but for the sign of a
    zero: the terms are summed from +0.0, so a -0.0 coefficient of the
    chain comes back as +0.0. That costs O(terms * order * dim^3) per
    call and stores nothing, where the multilinear map would hold
    dim^(order + 1) floats (537 MB at order 12 over H).
    """
    if len(args) != s.arg_slots:
        raise ValueError(f"expected {s.arg_slots} arguments, got {len(args)}")
    if y is None and s.y_gaps:
        raise ValueError("a tensor with y gaps needs a y value")
    y = x if y is None else y  # without y gaps, never substituted
    if any(v.algebra != s.algebra for v in (x, y, *args)):
        raise AlgebraError("argument, x or y from another algebra than the tensor")
    n, d = s.order, s.algebra.dim
    coeffs = np.array([[c.coeffs for c in cs] for cs, _ in s.terms]).reshape(len(s.terms), n + 1, d)
    gaps = np.array([y.coeffs, x.coeffs, *(v.coeffs for v in args)])  # row label + 2
    labels = np.array([ls for _, ls in s.terms], dtype=int).reshape(len(s.terms), n) + 2
    acc = coeffs[:, 0]
    for g in range(n):
        for right in (gaps[labels[:, g]], coeffs[:, g + 1]):
            acc = _mul_rows(s.algebra, acc, right)
    return Element._trusted(s.algebra, acc.sum(axis=0))


# ---------------------------------------------------------------------------
# derivatives


def slot_derivative(s: SlotTensor, var: int = X) -> SlotTensor:
    """Differentiate a SlotTensor in its dependence on the variable var (X or Y).

    The new direction becomes the highest arg index; each term contributes
    one copy per gap of var replaced (product rule over the multilinear gaps).
    Any other var raises ValueError. The terms are s's, relabelled, so the
    result is built by SlotTensor._trusted, with no second validation.
    """
    if var not in (X, Y):
        raise ValueError(f"can only differentiate in X ({X}) or Y ({Y}), got variable {var}")
    new_arg = s.arg_slots
    terms = []
    for coeffs, labels in s.terms:
        for pos, lab in enumerate(labels):
            if lab == var:
                nl = list(labels)
                nl[pos] = new_arg
                terms.append((coeffs, tuple(nl)))
    x_gaps, y_gaps = max(0, s.x_gaps - (var == X)), max(0, s.y_gaps - (var == Y))
    return SlotTensor._trusted(s.algebra, x_gaps, s.arg_slots + 1, tuple(terms), y_gaps)


def monomial_derivative(t: SlotTensor, k: int, var: int = X) -> SlotTensor:
    """Order-k derivative in var: k applications of :func:`slot_derivative`.

    A term with n gaps of var yields one term per placement in so_set(k, n),
    n!/(n-k)! in all; for k > n its contribution is zero, and a tensor with
    no terms left is the zero SlotTensor with k more argument slots.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    for _ in range(k):
        t = slot_derivative(t, var)
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

    Components of equal (x_gaps, y_gaps) are summed into one and components
    without terms are dropped, so ``components`` holds at most one
    SlotTensor per bidegree, in ascending order. A polynomial whose
    components all vanish is zero and keeps one empty SlotTensor, so its
    algebra stays defined. ``p(x, *args, y=y)`` evaluates it: the
    polynomial in x and y, multilinear in its ``arg_slots`` arguments.
    """

    __slots__ = ("algebra", "arg_slots", "components")

    def __init__(self, components: Sequence[SlotTensor]):
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        algebra, arg_slots = comps[0].algebra, comps[0].arg_slots
        by_gaps: dict[tuple[int, int], SlotTensor] = {}
        for c in comps:
            if c.algebra != algebra:
                raise AlgebraError("mixed algebras in polynomial")
            if c.arg_slots != arg_slots:
                raise ValueError("polynomial components must share one number of argument slots")
            g = c.x_gaps, c.y_gaps
            by_gaps[g] = by_gaps[g] + c if g in by_gaps else c
        kept = tuple(by_gaps[g] for g in sorted(by_gaps) if by_gaps[g].terms)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "arg_slots", arg_slots)
        object.__setattr__(self, "components", kept or (SlotTensor(algebra, 0, arg_slots),))

    def __setattr__(self, name, value):
        raise AttributeError("TensorPolynomial is immutable")

    def __call__(self, x: Element, *args: Element, y: Element | None = None) -> Element:
        values = [eval_args(c, args, x, y).coeffs for c in self.components]
        return Element._trusted(self.algebra, np.sum(values, axis=0))


def poly_derivative(p: TensorPolynomial, k: int = 1, var: int = X) -> TensorPolynomial:
    """Componentwise order-k derivative in var: k more argument slots."""
    return TensorPolynomial([monomial_derivative(c, k, var) for c in p.components])


def poly_product(p: TensorPolynomial, q: TensorPolynomial) -> TensorPolynomial:
    """Product via pairwise star products; equal degrees merge in the constructor."""
    return TensorPolynomial([star_product(a, b) for a in p.components for b in q.components])


# ---------------------------------------------------------------------------
# equality and size


@lru_cache(maxsize=None)
def _monomials(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The monomials of that degree in dim coordinates: sorted tuples, in combinations_with_replacement order."""
    return tuple(combinations_with_replacement(range(dim), degree))


@lru_cache(maxsize=None)
def _orbit_weights(dim: int, degree: int) -> np.ndarray:
    """sqrt(alpha!/p!) of each monomial alpha of degree p, in _monomials order, as a read-only array.

    alpha! is the product, over the sorted coordinates, of each one's
    copies up to it, and p!/alpha! is the number of orderings of alpha.
    """
    weights = np.array([np.sqrt(np.prod([m[:j].count(q) / j for j, q in enumerate(m, 1)]))
                        for m in _monomials(dim, degree)])
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=None)
def _merger(dim: int, degree: int) -> Callable[[np.ndarray], np.ndarray]:
    """The merge of a coordinate into the monomials of that degree, as a function of the array.

    It takes axes (any, any, monomial, coordinate, value) to (any, any,
    monomial one degree up, value). Its entry n sums, over each coordinate
    q of n, the entry (n without one copy of q, q) times
    sqrt(copies of q in n / (degree + 1)); a q that n lacks reads any
    monomial with weight 0.
    """
    up, low = _monomials(dim, degree + 1), {m: i for i, m in enumerate(_monomials(dim, degree))}
    rest = np.array([[low[n[:n.index(q)] + n[n.index(q) + 1:] if q in n else n[1:]] for q in range(dim)] for n in up])
    weight = np.sqrt(np.array([[n.count(q) for q in range(dim)] for n in up]) / (degree + 1))
    coordinates = np.arange(dim)
    return lambda a: np.einsum("abnqk,nq->abnk", a[:, :, rest, coordinates], weight)


def symmetric_part(s: SlotTensor) -> np.ndarray:
    """The coefficients of s symmetric in its x gaps and, separately, in its y gaps.

    A polynomial in x and y is fixed by them (polarization in each
    variable). The array has shape (dim, y monomials, x monomials, dim,
    ..., dim): the value axis, then the monomials of degree y_gaps and
    x_gaps in the dim coordinates, in :func:`_monomials` order, then one
    axis per argument in slot order. Entry alpha of a variable of p gaps is
    the mean of the multilinear map over the p!/alpha! orderings of alpha,
    times sqrt(p!/alpha!), so the plain Frobenius norm of the array is the
    Bombieri-Weyl norm: the norm of the map averaged over each variable's
    orderings. Each term runs its coefficient chain one gap at a time, as
    :func:`eval_args` does with the basis in every gap: an argument gap adds
    an axis, and a variable gap merges its coordinate into that variable's
    monomial by the weighted sums of :func:`_merger`. Each gap's step
    multiplies by its coefficient's structure table, formed once per call
    for each distinct coefficient. That takes
    O(terms * order * dim^2 * size) time for an array of size floats.
    An infinite coefficient raises AlgebraError, since the table product
    would meet inf * 0; a NaN one gives NaN entries.
    """
    # the distinct coefficients, by their bytes: terms and their derivatives share most of them
    distinct = {c.coeffs.tobytes(): c.coeffs for coeffs, _ in s.terms for c in coeffs}
    if np.isinf(list(distinct.values())).any():
        raise AlgebraError("a symmetric part needs finite coefficients")
    d, k, t = s.algebra.dim, s.arg_slots, s.algebra.table
    total = np.zeros((d, len(_monomials(d, s.y_gaps)), len(_monomials(d, s.x_gaps))) + (d,) * k)
    tables = {}  # t @ (c @ t), formed once for each distinct coefficient c of a gap
    for coeffs, labels in s.terms:
        chain = coeffs[0].coeffs.reshape(1, 1, 1, d)  # axes: the arguments so far, y, x, the value
        for g, (label, c) in enumerate(zip(labels, coeffs[1:])):
            key = c.coeffs.tobytes()
            if key not in tables:
                # at [p, q, k] the e_k coefficient of e_p e_q c, for the table t
                tables[key] = (t @ (distinct[key] @ t)).reshape(d, d * d)
            # the step's axes are chain's, then the coordinate in this gap and the new value
            step = (chain.reshape(-1, d) @ tables[key]).reshape(chain.shape[:3] + (d, d))
            if label >= 0:
                chain = step.transpose(0, 3, 1, 2, 4).reshape((-1,) + step.shape[1:3] + (d,))
            else:  # the variable's monomials on axis 2 (y swapped there and back), merged into the new ones
                chain = _merger(d, labels[:g].count(label))(step.swapaxes(label + 3, 2)).swapaxes(label + 3, 2)
        slots = sorted(range(k), key=[l for l in labels if l >= 0].__getitem__)  # each slot's axis
        total += chain.reshape((d,) * k + chain.shape[1:]).transpose(k + 2, k, k + 1, *slots)
    return total


def largest_entry(part: np.ndarray, x_gaps: int, y_gaps: int) -> tuple[float, list[int]]:
    """The largest magnitude of the averaged map in a symmetric part of bidegree (x_gaps, y_gaps), and its place.

    An entry divided by sqrt(p!/alpha!) per variable is the map's value at
    each ordering of its monomial alpha; a NaN counts as the largest, and of
    equal magnitudes the first in the array's order wins. The place is one
    coordinate per gap: the value, the y gaps' and the x gaps' (each
    monomial by its sorted coordinates, the first of its orderings), then
    the arguments. The weights sqrt(alpha!/p!) come from :func:`_orbit_weights`.
    """
    d = part.shape[0]
    monomials = [_monomials(d, gaps) for gaps in (y_gaps, x_gaps)]
    size = np.einsum("vyx...,y,x->vyx...", np.nan_to_num(np.abs(part), nan=np.inf),
                     _orbit_weights(d, y_gaps), _orbit_weights(d, x_gaps))
    at = np.unravel_index(np.argmax(size), size.shape)
    return float(size[at]), [int(at[0]), *monomials[0][at[1]], *monomials[1][at[2]], *map(int, at[3:])]


def slot_tensors_equal(a: SlotTensor, b: SlotTensor, tol: float = CLOSE_RTOL) -> bool:
    """Equality as maps: the symmetric parts S_a and S_b are close under the one rule, algebra.close.

    The symmetric part fixes the polynomial, so this is exact, not sampled,
    and the bound tol (||S_a|| + ||S_b||) scales with the tensors, so it
    holds at every magnitude.
    """
    return a._shape() == b._shape() and close(symmetric_part(a), symmetric_part(b), tol)

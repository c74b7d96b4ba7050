"""Arithmetic in finite-dimensional associative unital real algebras.

Supported algebras: the reals, the complex numbers, and the quaternions.
Every value is a coefficient vector over a named basis whose first element
is the multiplicative unit; products are driven by a structure-constant
table, so the same code path serves all three algebras. An
:class:`AlgebraDesc` accepts a table only when it is associative and
x conj(x) = |x|^2 holds, which conj and inv rely on; by Frobenius's theorem
that leaves exactly the reals, the complex numbers and the quaternions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import _kernels

CLOSE_RTOL = 1e-9  # relative: see close


class AlgebraError(ValueError):
    """Invalid algebra construction or mixed-algebra operation."""


class NotInvertibleError(ZeroDivisionError):
    """Attempt to invert a zero (or numerically zero) element."""


@dataclass(frozen=True)
class AlgebraDesc:
    """Descriptor of a finite-dimensional associative unital real algebra.

    ``table[i, j, k]`` is the e_k-coefficient of the basis product e_i e_j.
    Basis element 0 is the unit. Two read-only derived arrays serve the
    element kernels: ``_flat``, the table as a dim x dim^2 matrix, so that
    a . _flat reshaped to dim x dim is L(a)^T; and ``_conj``, the signs
    (1, -1, ..., -1) of the conjugation.
    """

    tag: str
    dim: int
    basis_names: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        tbl = np.asarray(self.table, dtype=np.float64)
        if tbl.shape != (self.dim, self.dim, self.dim):
            raise AlgebraError(f"structure table must be {self.dim}^3, got {tbl.shape}")
        tbl.flags.writeable = False
        object.__setattr__(self, "table", tbl)
        _validate_structure(self)
        sign = np.where(np.arange(self.dim) == 0, 1.0, -1.0)
        sign.flags.writeable = False
        object.__setattr__(self, "_flat", tbl.reshape(self.dim, self.dim * self.dim))
        object.__setattr__(self, "_conj", sign)

    def __repr__(self):
        return f"AlgebraDesc({self.tag!r}, dim={self.dim})"

    def __hash__(self):
        return hash((self.tag, self.dim))

    def __eq__(self, other):
        # make_algebra is cached, so identity settles nearly every comparison
        return self is other or (isinstance(other, AlgebraDesc) and self.tag == other.tag
                                 and self.dim == other.dim and np.array_equal(self.table, other.table))


def _validate_structure(alg: AlgebraDesc) -> None:
    """Check unit law, associativity and x conj(x) = |x|^2 over basis elements."""
    t = alg.table
    d = alg.dim
    eye = np.eye(d)
    if not (np.allclose(t[0], eye, atol=1e-12) and np.allclose(t[:, 0, :], eye, atol=1e-12)):
        raise AlgebraError("basis element 0 must be the multiplicative unit")
    # (e_i e_j) e_k == e_i (e_j e_k) for all basis triples
    left = np.einsum("ijm,mkl->ijkl", t, t)
    right = np.einsum("jkm,iml->ijkl", t, t)
    if not np.allclose(left, right, atol=1e-12):
        raise AlgebraError("structure constants are not associative")
    # e_i conj(e_j) + e_j conj(e_i) == 2 delta_ij e_0, conj flipping e_1.. e_{d-1}
    sign = np.where(np.arange(d) == 0, 1.0, -1.0)
    sym = t * sign[None, :, None] + t.transpose(1, 0, 2) * sign[:, None, None]
    if not np.allclose(sym, 2.0 * eye[:, :, None] * eye[0], atol=1e-12):
        raise AlgebraError("x conj(x) = |x|^2 fails: only the reals, complexes and quaternions are supported")


def _quaternion_table() -> np.ndarray:
    t = np.zeros((4, 4, 4))
    for m in range(4):
        t[0, m, m] = 1.0
        t[m, 0, m] = 1.0
    t[0, 0, 0] = 1.0
    for m in (1, 2, 3):
        t[m, m, 0] = -1.0
    # i j = k, j k = i, k i = j and the reversed signs
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[a, b, c] = 1.0
        t[b, a, c] = -1.0
    return t


@lru_cache(maxsize=None)
def make_algebra(tag: str) -> AlgebraDesc:
    """Build the descriptor for one of the supported algebras.

    tag is one of "real", "complex", "quaternion".
    """
    if tag == "real":
        return AlgebraDesc("real", 1, ("1",), np.ones((1, 1, 1)))
    if tag == "complex":
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1.0
        t[1, 1, 0] = -1.0
        return AlgebraDesc("complex", 2, ("1", "i"), t)
    if tag == "quaternion":
        return AlgebraDesc("quaternion", 4, ("1", "i", "j", "k"), _quaternion_table())
    raise AlgebraError(f"unknown algebra tag {tag!r}")


class Element:
    """A value of a fixed algebra: x = sum_i coeffs[i] * e_i.

    Immutable; arithmetic returns new instances. Equality is exact: two
    Elements of one algebra are equal when every coefficient is, so
    0.0 == -0.0 and a NaN coefficient equals nothing. Elements hash
    consistently with it; ``close`` applies the one relative closeness
    rule, :func:`close`, to the coefficients.

    The public constructor converts, checks the shape and copies. Results
    the library has just computed go through ``_trusted`` instead, which
    only marks the array read-only. Its invariant: the array is a float64
    vector of length dim that nothing else will write, either freshly
    computed and held by nobody else, or a view of an array that is already
    read-only and owned by an immutable value (a BiMatrix row). Either way
    ``coeffs`` is read-only for every Element.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: AlgebraDesc, coeffs: Iterable[float]):
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (algebra.dim,):
            raise AlgebraError(f"need {algebra.dim} coefficients, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _trusted(cls, algebra: AlgebraDesc, arr: np.ndarray) -> "Element":
        """Element over arr without conversion, check or copy; see the class invariant."""
        arr.setflags(write=False)
        self = _new_element(cls)
        _set_algebra(self, algebra)
        _set_coeffs(self, arr)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        _same(self, other)
        return _trusted(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "Element") -> "Element":
        _same(self, other)
        return _trusted(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> "Element":
        return _trusted(self.algebra, -self.coeffs)

    def __mul__(self, other):
        alg = self.algebra
        if isinstance(other, Element):
            _same(self, other)
            d = alg.dim
            # (a b)_k = sum_q b_q sum_p a_p table[p, q, k]; the inner sum is a . _flat
            return _trusted(alg, other.coeffs.dot(self.coeffs.dot(alg._flat).reshape(d, d)))
        return _trusted(alg, self.coeffs * float(other))

    # real scalars commute with everything, and Element * Element never reaches __rmul__
    __rmul__ = __mul__

    def __truediv__(self, other) -> "Element":
        if isinstance(other, Element):
            return self * inv(other)
        s = float(other)
        if s == 0.0:
            raise NotInvertibleError("division by the scalar zero")
        return _trusted(self.algebra, self.coeffs / s)

    def __eq__(self, other):
        if not isinstance(other, Element) or other.algebra != self.algebra:
            return NotImplemented
        return bool((self.coeffs == other.coeffs).all())

    def __hash__(self):
        # tolist's floats hash 0.0 and -0.0 alike, as __eq__ requires
        return hash((self.algebra, tuple(self.coeffs.tolist())))

    def close(self, other: "Element", tol: float = CLOSE_RTOL) -> bool:
        _same(self, other)
        return close(self.coeffs, other.coeffs, tol)

    # -- structure ----------------------------------------------------------

    def conj(self) -> "Element":
        return _trusted(self.algebra, self.coeffs * self.algebra._conj)

    def norm(self) -> float:
        """frobenius of the coefficients, in a scalar form that costs about one dot product: see _norm."""
        return _norm(self.coeffs)

    def inv(self) -> "Element":
        return inv(self)

    def __repr__(self):
        return f"<{self.algebra.tag}: {format_element(self)}>"


_new_element = object.__new__
_set_algebra = Element.algebra.__set__
_set_coeffs = Element.coeffs.__set__
_trusted = Element._trusted


def _scaled(c: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """c * 2^-e and e, e the binary exponent of the largest finite magnitude of c over axis (all axes by default).

    e keeps the reduced axes with length 1, so it broadcasts against c, and
    is 0 where c holds no finite nonzero entry. The largest finite
    magnitude of the result lies in [1/2, 1), so no square of a finite
    entry over- or underflows, even beside a NaN or an infinity, and
    scaling by a power of two is exact. The finite entries are searched
    apart only when a largest magnitude is not finite.
    """
    f, e = np.frexp(np.abs(c).max(axis=axis, keepdims=True, initial=0.0))
    # a mantissa lies in [0, 1) unless its magnitude is inf or NaN, so the sum of their
    # squares never overflows, and it is finite exactly when every largest magnitude is
    if not (f.item() if f.size == 1 else f.ravel().dot(f.ravel())) < math.inf:
        e = np.frexp(np.where(np.isfinite(c), np.abs(c), 0.0).max(axis=axis, keepdims=True, initial=0.0))[1]
    return np.ldexp(c, -e), e


def frobenius(c: np.ndarray) -> float:
    """The Frobenius norm of an array at every magnitude; 0.0 for an empty one.

    The squares are summed after the scaling of :func:`_scaled`, so none
    that matters over- or underflows. Wherever the unscaled sqrt(c . c)
    neither over- nor underflows, the two agree to the bit; a norm past the
    largest float is inf.
    """
    s, e = _scaled(c)
    v = s.ravel(order="K")
    try:
        return math.ldexp(math.sqrt(v.dot(v)), e.item())
    except OverflowError:
        return math.inf


def _frobenius_rows(c: np.ndarray) -> np.ndarray:
    """frobenius of each row of a (..., N) array, every one with the bits of its own frobenius call.

    Each row is scaled alone, and its squares are summed by the matmul of
    a (1, N) row with its (N, 1) transpose, which takes the BLAS call that
    v.dot(v) takes alone. A norm past the largest float is inf.
    """
    s, e = _scaled(c, -1)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt((s[..., None, :] @ s[..., :, None])[..., 0, 0]), e[..., 0])


def _norm(c: np.ndarray) -> float:
    """frobenius of a coefficient vector, the norm of its element, at about the cost of one dot product.

    math.hypot never over- or underflows, so it tells cheaply whether
    the unscaled sqrt(c . c) can: within 2^+-500 that formula is taken,
    and frobenius outside.
    """
    h = math.hypot(*c.tolist())
    return math.sqrt(c.dot(c)) if h == 0.0 or 2.0 ** -500 <= h <= 2.0 ** 500 else frobenius(c)


def close(a: np.ndarray, b: np.ndarray, rtol: float = CLOSE_RTOL) -> bool:
    """The one closeness rule: ||a - b|| <= rtol (||a|| + ||b||), in the Frobenius norm.

    The bound scales with a and b, so the answer is the same at every
    magnitude: only an exactly zero array is close to zero, two empty
    arrays are close, and an array holding a NaN or an infinity is close to
    nothing, whatever rtol. Where ||a|| + ||b|| reaches 2^1000, so that a
    norm or a - b could overflow, a and b are first scaled by one common
    power of two. A vector's norms are taken by _norm, which has
    frobenius's bits at a fraction of its cost.
    """
    norm = _norm if a.ndim == 1 else frobenius
    na, nb = norm(a), norm(b)
    if not na + nb < 2.0 ** 1000:  # NaN or inf when a or b is not finite
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            return False
        e = math.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
        a, b = np.ldexp(a, -e), np.ldexp(b, -e)
        na, nb = norm(a), norm(b)
    d = norm(a - b)
    return d < math.inf and d <= rtol * (na + nb)


def _same(a: Element, b: Element) -> None:
    # make_algebra is cached, so the descriptors are nearly always identical
    if a.algebra is not b.algebra and a.algebra != b.algebra:
        raise AlgebraError(f"algebra mismatch: {a.algebra.tag} vs {b.algebra.tag}")


# ---------------------------------------------------------------------------
# functional surface


def _mul_rows(algebra: AlgebraDesc, a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The coefficients of a * x for a (..., dim) stack a of left factors and xs of right ones.

    a and xs broadcast against each other. Each product is two
    vector-matrix products, a . _flat and then x with that, the
    contractions of Element.__mul__: numpy's matmul of a stack of
    (1, dim) rows takes the BLAS call that .dot takes alone, so every
    member has the bits of its Element product. Over the reals the table
    is the unit, so the product is a * x, elementwise: matmul would sum
    from +0.0 and turn a -0.0 product into +0.0, which the scalar dot of
    Element.__mul__ does not. A (k, dim) @ (dim, dim) product would take
    another BLAS kernel.
    """
    d = algebra.dim
    if d == 1:
        return a * xs
    left = (a[..., None, :] @ algebra._flat).reshape(*a.shape[:-1], d, d)
    return (xs[..., None, :] @ left)[..., 0, :]


def inv(a: Element) -> Element:
    """Multiplicative inverse, conj(a)/norm(a)^2 in these algebras, with the bits of a's member of inv_stack.

    A zero or non-finite element raises, and so does one whose largest
    coefficient is below 2^-1023, whose inverse is not representable. The
    one element takes _inv_floats, not the stack route. The rc-inverse of
    a 1 x 1 matrix [a] in biring is [inv(a)], decided by the same rule.
    """
    out = _inv_floats(a.coeffs)
    if out is None:
        raise NotInvertibleError("a zero, subnormal or non-finite element is not invertible")
    return _trusted(a.algebra, np.array(out))


def _inv_floats(c: np.ndarray) -> list[float] | None:
    """The inverse of one coefficient vector as a list of Python floats, with its bits in inv_stack; None without one.

    The vector is scaled by 2^-e, e the binary exponent of its largest
    magnitude as _scaled takes it, and its norm^2 is the BLAS dot that
    inv_stack's matmul of a (1, dim) row takes; the quotients and the
    scaling back are Python float operations, which round as numpy's do.
    conj negates every coefficient but the first in each supported algebra.
    The refusals are inv_stack's: a mantissa of the largest magnitude that
    is not below 1 is that of an inf or a NaN, a NaN that max passes over
    makes the norm^2 NaN, and a zero vector has norm^2 0.
    """
    m, e = math.frexp(max(map(abs, c.tolist())))
    if not (m < 1.0 and e >= -1022):
        return None
    s = np.ldexp(c, -e)
    n2 = float(s.dot(s))
    if not 0.25 <= n2:
        return None
    # |s_i| / n2 <= 2, so scaling back by 2^-e <= 2^1022 stays finite
    first, *rest = s.tolist()
    return [math.ldexp(first / n2, -e), *[math.ldexp(-v / n2, -e) for v in rest]]


def inv_stack(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (..., dim) stack of coefficient vectors, and which members have one.

    conj negates every coefficient but the first in each supported algebra,
    so the stack needs no algebra. A member that is zero, non-finite, or
    whose largest coefficient is below 2^-1023 has no representable
    inverse: it is False in the mask and NaN in the inverses. Every other
    member has the bits of its inv. Each member is scaled by
    :func:`_scaled`, so its norm^2 n2 lies in [1/4, dim) and neither over-
    nor underflows; wherever the unscaled formula does not over- or
    underflow the two agree to the bit.
    """
    s, e = _scaled(c, -1)
    n2 = (s[..., None, :] @ s[..., None])[..., 0, 0]
    ok = (e[..., 0] >= -1022) & (0.25 <= n2) & (n2 < math.inf)
    q = s / np.where(ok, n2, np.nan)[..., None]
    q[..., 1:] *= -1.0
    # |s_i| / n2 <= 2, so scaling back by 2^-e <= 2^1022 stays finite
    return np.ldexp(q, -e), ok


def zero(algebra: AlgebraDesc) -> Element:
    return _trusted(algebra, np.zeros(algebra.dim))


def one(algebra: AlgebraDesc) -> Element:
    return basis(algebra, 0)


def basis(algebra: AlgebraDesc, index: int) -> Element:
    c = np.zeros(algebra.dim)
    c[index] = 1.0
    return _trusted(algebra, c)


def from_scalar(algebra: AlgebraDesc, value: float) -> Element:
    c = np.zeros(algebra.dim)
    c[0] = float(value)
    return _trusted(algebra, c)


def in_centralizer(c: Element, b: Element, tol: float = CLOSE_RTOL) -> bool:
    """True iff c commutes with b: cb and bc are close under the one rule.

    |cb| = |bc| = |c| |b| in these algebras, so the bound is tol 2 |c| |b|,
    relative, and the test holds at every scale of c and b.
    """
    return (c * b).close(b * c, tol)


def left_matrix(a: Element) -> np.ndarray:
    """Real dim x dim matrix L with L @ coeffs(x) = coeffs(a x): rho of the 1 x 1 matrix [a]."""
    return _kernels.rho(a.algebra.table, a.coeffs.reshape(1, 1, -1))


def right_matrix(a: Element) -> np.ndarray:
    """Real dim x dim matrix R with R @ coeffs(x) = coeffs(x a): rho under the transposed table."""
    return _kernels.rho(a.algebra.table.transpose(1, 0, 2), a.coeffs.reshape(1, 1, -1))


def random_element(algebra: AlgebraDesc, rng, scale: float = 1.0) -> Element:
    """Element with coefficients uniform on [-scale, scale].

    rng is a seed (int) or a numpy Generator, which np.random.default_rng
    returns as it is; passing a Generator lets callers draw reproducible
    sequences.
    """
    return _trusted(algebra, np.random.default_rng(rng).uniform(-scale, scale, algebra.dim))


# ---------------------------------------------------------------------------
# text form


def format_element(a: Element) -> str:
    """Human form like "1 + 2i - 0.5j + 0k", each coefficient to 12 significant digits."""
    parts = []
    for c, name in zip(a.coeffs, a.algebra.basis_names):
        mag = format(abs(c), ".12g")
        term = mag if name == "1" else f"{mag}{name}"
        if not parts:
            parts.append(f"-{term}" if c < 0 else term)
        else:
            parts.append(f"- {term}" if c < 0 else f"+ {term}")
    return " ".join(parts)

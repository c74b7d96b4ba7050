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

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9


class AlgebraError(ValueError):
    """Invalid algebra construction or mixed-algebra operation."""


class NotInvertibleError(ZeroDivisionError):
    """Attempt to invert a zero (or numerically zero) element."""


@dataclass(frozen=True)
class AlgebraDesc:
    """Descriptor of a finite-dimensional associative unital real algebra.

    ``table[i, j, k]`` is the e_k-coefficient of the basis product e_i e_j.
    Basis element 0 is the unit.
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

    def __repr__(self):
        return f"AlgebraDesc({self.tag!r}, dim={self.dim})"

    def __hash__(self):
        return hash((self.tag, self.dim))

    def __eq__(self, other):
        return isinstance(other, AlgebraDesc) and self.tag == other.tag and self.dim == other.dim


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

    Immutable; arithmetic returns new instances. Equality is tolerance-based
    (norm of the difference <= 1e-9), so Elements are unhashable.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: AlgebraDesc, coeffs: Iterable[float]):
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (algebra.dim,):
            raise AlgebraError(f"need {algebra.dim} coefficients, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        _same(self, other)
        return Element(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "Element") -> "Element":
        _same(self, other)
        return Element(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Element):
            _same(self, other)
            out = np.einsum("p,q,pqk->k", self.coeffs, other.coeffs, self.algebra.table)
            return Element(self.algebra, out)
        return Element(self.algebra, self.coeffs * float(other))

    def __rmul__(self, other) -> "Element":
        # real scalars commute with everything; Element*Element goes via __mul__
        return Element(self.algebra, self.coeffs * float(other))

    def __truediv__(self, other) -> "Element":
        if isinstance(other, Element):
            return self * inv(other)
        return Element(self.algebra, self.coeffs / float(other))

    def __eq__(self, other):
        if not isinstance(other, Element) or other.algebra != self.algebra:
            return NotImplemented
        return float(np.linalg.norm(self.coeffs - other.coeffs)) <= DEFAULT_TOL

    __hash__ = None

    def close(self, other: "Element", tol: float = DEFAULT_TOL) -> bool:
        _same(self, other)
        return float(np.linalg.norm(self.coeffs - other.coeffs)) <= tol

    # -- structure ----------------------------------------------------------

    def conj(self) -> "Element":
        c = self.coeffs.copy()
        c[1:] = -c[1:]
        return Element(self.algebra, c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inv(self) -> "Element":
        return inv(self)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.norm() <= tol

    def __repr__(self):
        return f"<{self.algebra.tag}: {format_element(self)}>"


def _same(a: Element, b: Element) -> None:
    if a.algebra != b.algebra:
        raise AlgebraError(f"algebra mismatch: {a.algebra.tag} vs {b.algebra.tag}")


# ---------------------------------------------------------------------------
# functional surface


def mul(a: Element, b: Element) -> Element:
    return a * b


def add(a: Element, b: Element) -> Element:
    return a + b


def sub(a: Element, b: Element) -> Element:
    return a - b


def scale(a: Element, s: float) -> Element:
    return Element(a.algebra, a.coeffs * float(s))


def conj(a: Element) -> Element:
    return a.conj()


def norm(a: Element) -> float:
    return a.norm()


def inv(a: Element) -> Element:
    """Multiplicative inverse, conj(a)/norm(a)^2 in these algebras."""
    n2 = float(a.coeffs @ a.coeffs)
    if n2 == 0.0:
        raise NotInvertibleError("zero element is not invertible")
    return Element(a.algebra, a.conj().coeffs / n2)


def commutator(a: Element, b: Element) -> Element:
    return a * b - b * a


def zero(algebra: AlgebraDesc) -> Element:
    return Element(algebra, np.zeros(algebra.dim))


def one(algebra: AlgebraDesc) -> Element:
    c = np.zeros(algebra.dim)
    c[0] = 1.0
    return Element(algebra, c)


def basis(algebra: AlgebraDesc, index: int) -> Element:
    c = np.zeros(algebra.dim)
    c[index] = 1.0
    return Element(algebra, c)


def from_scalar(algebra: AlgebraDesc, value: float) -> Element:
    c = np.zeros(algebra.dim)
    c[0] = float(value)
    return Element(algebra, c)


def in_centralizer(c: Element, b: Element, tol: float = DEFAULT_TOL) -> bool:
    """True iff c commutes with b: norm(cb - bc) <= tol."""
    _same(c, b)
    return commutator(c, b).norm() <= tol


def left_matrix(a: Element) -> np.ndarray:
    """Real dim x dim matrix L with L @ coeffs(x) = coeffs(a x)."""
    return np.einsum("i,ijk->kj", a.coeffs, a.algebra.table)


def right_matrix(a: Element) -> np.ndarray:
    """Real dim x dim matrix R with R @ coeffs(x) = coeffs(x a)."""
    return np.einsum("j,ijk->ki", a.coeffs, a.algebra.table)


def random_element(algebra: AlgebraDesc, rng, scale: float = 1.0) -> Element:
    """Element with coefficients uniform on [-scale, scale].

    rng is a seed (int) or a numpy Generator; passing a Generator lets
    callers draw reproducible sequences.
    """
    if not hasattr(rng, "uniform"):
        rng = np.random.default_rng(rng)
    return Element(algebra, rng.uniform(-scale, scale, algebra.dim))


# ---------------------------------------------------------------------------
# text and data forms


def format_element(a: Element, digits: int = 12) -> str:
    """Human form like "1 + 2i - 0.5j + 0k" with significant digits."""
    parts = []
    for c, name in zip(a.coeffs, a.algebra.basis_names):
        mag = format(abs(c), f".{digits}g")
        term = mag if name == "1" else f"{mag}{name}"
        if not parts:
            parts.append(term if c >= 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c >= 0 else f"- {term}")
    return " ".join(parts)


def element_to_data(a: Element) -> dict:
    return {"algebra": a.algebra.tag, "coeffs": [float(c) for c in a.coeffs]}


def element_from_data(data: dict) -> Element:
    return Element(make_algebra(data["algebra"]), data["coeffs"])


def elements(algebra: AlgebraDesc, rows: Sequence[Sequence[float]]) -> list[Element]:
    """Convenience: build a list of Elements from coefficient rows."""
    return [Element(algebra, row) for row in rows]

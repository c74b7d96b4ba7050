import numpy as np
import pytest

from ncalg.algebra import Element, make_algebra

# Independent quaternion multiplication oracle: the basis products written
# out longhand, never touching the package's structure table.
_QPROD = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}
_NAMES = ("1", "i", "j", "k")


def quat_mul_oracle(a, b):
    """Coefficients of the quaternion product, by brute-force expansion."""
    out = {n: 0.0 for n in _NAMES}
    for na, ca in zip(_NAMES, a):
        for nb, cb in zip(_NAMES, b):
            sign, name = _QPROD[(na, nb)]
            out[name] += sign * ca * cb
    return np.array([out[n] for n in _NAMES])


@pytest.fixture(scope="session")
def RR():
    return make_algebra("real")


@pytest.fixture(scope="session")
def CC():
    return make_algebra("complex")


@pytest.fixture(scope="session")
def HH():
    return make_algebra("quaternion")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def as_complex(e: Element) -> complex:
    assert e.algebra.tag == "complex"
    return complex(e.coeffs[0], e.coeffs[1])


def complex_matrix(m) -> np.ndarray:
    """BiMatrix over the complexes as a numpy complex array."""
    return m.data[:, :, 0] + 1j * m.data[:, :, 1]


PLAIN_TYPES = (str, int, float, bool, type(None))


def is_plain(obj) -> bool:
    """Is obj dicts with str keys, lists and these exact scalar types all the way down?

    Exact types: a numpy scalar such as np.float64 subclasses float, and is not plain.
    """
    if type(obj) is dict:
        return all(type(k) is str and is_plain(v) for k, v in obj.items())
    if type(obj) is list:
        return all(is_plain(v) for v in obj)
    return type(obj) in PLAIN_TYPES


def real_tensor(s) -> np.ndarray:
    """Reference: s as one real multilinear map, an array of shape (dim,) * (order + 1).

    Axis 0 is the value; the other axes are the gaps sorted by label, each
    variable's left to right: the y gaps (Y = -2), the x gaps (X = -1), then
    the arguments in slot order. Each gap of a term is one contraction with
    the dim x dim x dim array whose [p, q, k] entry is the e_k coefficient of
    e_p e_q c, for the coefficient c after the gap, and the terms sum.
    """
    n, d = s.order, s.algebra.dim
    # row r, column (p, q, k): the e_k coefficient of e_p e_q e_r
    triple = np.einsum("pqm,mrk->rpqk", s.algebra.table, s.algebra.table).reshape(d, -1)
    total = np.zeros((d,) * (n + 1))
    for coeffs, labels in s.terms:
        chain = coeffs[0].coeffs  # rows: the gaps so far; columns: the value
        for c in coeffs[1:]:
            chain = (chain @ (c.coeffs @ triple).reshape(d, d * d)).reshape(-1, d)
        # Y < X < every argument and the sort is stable, so each variable's gaps keep their order
        total += chain.reshape((d,) * (n + 1)).transpose([n] + sorted(range(n), key=labels.__getitem__))
    return total


def dense_symmetric_part(s) -> np.ndarray:
    """Reference: real_tensor(s) averaged over its y axes and, separately, over its x axes.

    Given the average over a variable's first j - 1 axes, the average over
    its first j is the mean of the transposes that swap axis j with each of
    them and itself: m(m+1)/2 transposes for m gaps.
    """
    sym = real_tensor(s)
    for first, gaps in ((1, s.y_gaps), (1 + s.y_gaps, s.x_gaps)):
        for j in range(first + 1, first + gaps):
            sym = sum(sym.swapaxes(i, j) for i in range(first, j + 1)) / (j - first + 1)
    return sym

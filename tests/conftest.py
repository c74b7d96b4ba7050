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

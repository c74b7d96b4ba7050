"""Reference algebra for the benchmark's oracle, written without ncalg.

Elements of R, C and H are coefficient vectors over (1), (1, i) or
(1, i, j, k). Products follow Hamilton's rules, written out by hand here, and
a matrix of elements is mapped to its real representation

    rho(A) = [L(a_ij)]   (an (m*d) x (n*d) real block matrix),

which turns the rc product into the ordinary matrix product. The cr product
follows by transpose duality: a cr b = (a^T rc b^T)^T.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

DIMS = {"real": 1, "complex": 2, "quaternion": 4}
EPS = float(np.finfo(np.float64).eps) / 2.0  # unit roundoff u = 2^-53
# Singular values below this share of the largest count as zero. Deficient
# inputs are exactly singular (about 1e-16) and regular ones have cond2 at
# most 1e8, so the threshold sits far from both.
SINGULAR_RTOL = 1e-10


def lmat(c) -> np.ndarray:
    """Left multiplication by c: lmat(c) @ x == c * x."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape == (1,):
        return c.reshape(1, 1).copy()
    if c.shape == (2,):
        a, b = c
        return np.array([[a, -b], [b, a]])
    a, b, cc, d = c
    return np.array([[a, -b, -cc, -d],
                     [b, a, -d, cc],
                     [cc, d, a, -b],
                     [d, -cc, b, a]])


def rmat(c) -> np.ndarray:
    """Right multiplication by c: rmat(c) @ x == x * c."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape[0] < 4:
        return lmat(c)  # R and C commute
    a, b, cc, d = c
    return np.array([[a, -b, -cc, -d],
                     [b, a, d, -cc],
                     [cc, -d, a, b],
                     [d, cc, -b, a]])


def hprod(p, q) -> np.ndarray:
    """Product p * q of two coefficient vectors by Hamilton's rules."""
    return lmat(p) @ np.asarray(q, dtype=np.float64)


@lru_cache(maxsize=None)
def table(d: int) -> np.ndarray:
    """Structure constants t[p, q, s]: coefficient of e_s in e_p e_q."""
    eye = np.eye(d)
    return np.stack([lmat(eye[p]) for p in range(d)]).transpose(0, 2, 1)


def hmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise product of arrays of coefficient vectors (last axis)."""
    t = table(p.shape[-1])
    return (p[..., :, None, None] * q[..., None, :, None] * t).sum(axis=(-3, -2))


def conj(c: np.ndarray) -> np.ndarray:
    out = np.array(c, dtype=np.float64)
    out[..., 1:] = -out[..., 1:]
    return out


def rho(a: np.ndarray) -> np.ndarray:
    """Real representation of an (m, n, d) matrix of elements."""
    m, n, d = a.shape
    return np.einsum("ijp,pqs->isjq", a, table(d)).reshape(m * d, n * d)


def unrho(r: np.ndarray, d: int) -> np.ndarray:
    """Inverse of rho on its image: the first column of every d x d block."""
    m, n = r.shape[0] // d, r.shape[1] // d
    return r[:, 0::d].reshape(m, d, n).transpose(0, 2, 1).copy()


def transpose(a: np.ndarray) -> np.ndarray:
    return a.transpose(1, 0, 2)


def rc_mul(a, b):
    return unrho(rho(a) @ rho(b), a.shape[2])


def cr_mul(a, b):
    return transpose(rc_mul(transpose(a), transpose(b)))


def entry_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt((a ** 2).sum(axis=-1))


def is_singular(r: np.ndarray, rtol: float) -> bool:
    """Numerical singularity of a square real matrix by its singular values."""
    if r.size == 0:
        return False
    s = np.linalg.svd(r, compute_uv=False)
    return bool(s[-1] <= rtol * s[0]) if s[0] > 0 else True


def rc_rank(a: np.ndarray, rtol: float) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """rc rank as rank(rho(A)) / d, and the first nonsingular major minor.

    The minor is searched in the same order the library documents: sizes
    downward, then row sets and column sets in lexicographic order.
    """
    m, n, d = a.shape
    s = np.linalg.svd(rho(a), compute_uv=False)
    k = int((s > rtol * s[0]).sum()) // d if s.size and s[0] > 0 else 0
    if k == 0:
        return 0, (), ()
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            if not is_singular(rho(a[np.ix_(rows, cols)]), rtol):
                return k, rows, cols
    raise AssertionError("rank without a nonsingular minor")

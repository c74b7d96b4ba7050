"""Numeric kernels on the real representation of matrices over R, C and H.

A matrix A of algebra elements, stored as an (m, n, d) array, maps to the
real block matrix rho(A) = [L(a_ij)] of left multiplications, of shape
(m d) x (n d). rho is an injective algebra homomorphism for the rc product,
rho(a rc b) = rho(a) @ rho(b). Two maps read a real matrix back. column
reads column 0 of each block, since L(a) e_0 = a: powers and exponentials
of rho(A) lie on the image of rho, up to rounding, and read back there with
no arithmetic. unrho projects onto the image, which the two-sided residuals
of an inverse need (biring._inverse). The cr product follows by transpose
duality: a cr b = (a^T rc b^T)^T.

rho, column, unrho and the contractions also take leading stack axes,
(..., m, n, d), and give each member of a stack the bits it would get alone;
so does rk4_linear with arrays of times and step counts, and of systems.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# The benchmark in ncbench/ reads HAVE_NUMBA, rc_contract, cr_contract and rk4_linear.
HAVE_NUMBA = False


def rho(table, a):
    """Real representation of (..., m, n, d) matrices under structure constants table.

    Each entry of rho is one coefficient times a table entry of 0 or +-1, so
    it is exact, and every member of a stack gets the same bits alone.
    """
    *stack, m, n, d = a.shape
    blocks = (a @ table.reshape(d, d * d)).reshape(*stack, m, n, d, d)  # [..., i, j, q, s]
    return blocks.swapaxes(-1, -3).swapaxes(-1, -2).reshape(*stack, m * d, n * d)


def column(r, d):
    """Matrices of elements read off column 0 of each d x d block, for (..., m d, n d) stacks of r.

    L(a) e_0 = a, so on the image of rho this inverts rho exactly, and it
    reads a power or an exponential of rho(A) with no arithmetic: the other
    d - 1 columns of each block hold the same coefficients, permuted and
    signed, up to rounding. The result is a view of r.
    """
    cols = r[..., ::d]
    *stack, md, n = cols.shape
    return cols.reshape(*stack, md // d, d, n).swapaxes(-1, -2)


def unrho(table, r):
    """Matrices of elements whose rho is nearest to r, for (..., m d, n d) stacks of r.

    The blocks L(e_p) are orthogonal with squared norm d, so each block M
    maps to the element with coefficients <M, L(e_p)> / d. On the image of
    rho this inverts rho exactly. Off it, the projection is the average of
    r over conjugation by right multiplications, which commute with every
    rho(A); so ||rho(A) @ P(r) - I|| <= ||rho(A) @ r - I||, and likewise on
    the left, where reading the first column of each block can lose both
    residuals of an ill-conditioned inverse.

    The inner products are one matmul of the d^2 block entries against the
    table: numpy makes the same BLAS call for every member of a stack, so a
    member's bits do not depend on the stack around it (an einsum over a
    ``...`` axis does not promise that).
    """
    d = table.shape[0]
    *stack, md, nd = r.shape
    m, n = md // d, nd // d
    blocks = r.reshape(*stack, m, d, n, d).swapaxes(-3, -2).swapaxes(-2, -1)  # [..., i, j, q, s]
    return (blocks.reshape(*stack, m, n, d * d) @ table.reshape(d, d * d).T) / d


def rc_contract(table, a, b):
    """Row-over-column product C[..., i, j] = sum_k a[..., i, k] b[..., k, j].

    a: (..., m, p, d), b: (..., p, n, d) with equal stack axes. With vec
    stacking the coefficient vectors down each column,
    rho(a) @ vec(b) = vec(a rc b); the matmul is one BLAS call per member.
    """
    *stack, m, _, _ = a.shape
    p, n, d = b.shape[-3:]
    vec_b = b.swapaxes(-1, -2).reshape(*stack, p * d, n)
    return (rho(table, a) @ vec_b).reshape(*stack, m, d, n).swapaxes(-1, -2)


def cr_contract(table, a, b):
    """Column-over-row product C[..., i, j] = sum_k a[..., k, j] b[..., i, k] (a's entry left)."""
    return rc_contract(table, a.swapaxes(-3, -2), b.swapaxes(-3, -2)).swapaxes(-3, -2)


@lru_cache(maxsize=32)
def identity(d):
    """The d x d identity, made once per size and read-only, as every caller shares it."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def rk4_linear(m, x0, t, steps):
    """State of x' = m x after ``steps`` classical RK4 steps from x(0) = x0.

    For a linear autonomous system one RK4 step is exactly multiplication by
    the degree-4 Taylor polynomial of exp(h m), so the step matrix is
    accumulated by binary powering instead of looping over steps.

    t and steps may also be equal-length 1-D arrays, for the states at t[i]
    after steps[i] steps, as a (k, p) array; m may then be one (p, p) matrix
    or a (k, p, p) stack, one per member, and x0 one (p,) vector or a (k, p)
    stack. The k step matrices are powered in one loop over the stack, and
    member i takes the product with x only at its own bits of steps[i],
    selected with np.where, so it gets the bits it gets alone. The counts
    are read in float64, so a count past int64 is a float (every ceil of a
    float is one) and a count an integer array holds must be a float64
    value. Every count's bits are read once, before the loop: bit r of n is
    floor(n / 2^r) mod 2, exact for every float count, as dividing by a
    power of two is, and the loop takes one round per bit of the largest
    count, with no product with x in a round where no count has its bit
    set. The squarings a member no longer needs are never read, and the
    stack runs with overflow warnings off, so they warn for no member; a
    state that overflows comes back non-finite.
    """
    if not isinstance(t, np.ndarray):
        phi = _rk4_step(t / steps * m)
        x = x0.copy()
        n = steps
        while n:
            if n & 1:
                x = phi.dot(x)
            n >>= 1
            if n:
                phi = phi.dot(phi)
        return x
    n = np.asarray(steps, dtype=float)
    x = np.broadcast_to(x0[..., None], (len(n), x0.shape[-1], 1))
    rounds = math.frexp(n.max(initial=0.0))[1]
    bits = np.floor(n / 2.0 ** np.arange(rounds)[:, None]) % 2 == 1
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _rk4_step((t / n)[:, None, None] * m)
        for r, any_set in enumerate(bits.any(axis=1).tolist()):
            if r:
                phi = phi @ phi
            if any_set:
                x = np.where(bits[r, :, None, None], phi @ x, x)
    return x[..., 0]


def _rk4_step(hm):
    """I + hm + hm^2/2 + hm^3/6 + hm^4/24 of one (p, p) matrix hm, or of each member of a stack.

    ndarray.dot and matmul give one matrix the same bits; dot costs less.
    """
    dot = np.ndarray.dot if hm.ndim == 2 else np.matmul
    hm2 = dot(hm, hm)
    return identity(hm.shape[-1]) + hm + hm2 / 2.0 + dot(hm2, hm) / 6.0 + dot(hm2, hm2) / 24.0

"""Numeric kernels on the real representation of matrices over R, C and H.

A matrix A of algebra elements, stored as an (m, n, d) array, maps to the
real block matrix rho(A) = [L(a_ij)] of left multiplications, of shape
(m d) x (n d). rho is an injective algebra homomorphism for the rc product,
rho(a rc b) = rho(a) @ rho(b), and unrho maps a real matrix back to the
nearest matrix of elements. The cr product follows by transpose duality:
a cr b = (a^T rc b^T)^T.
"""

from __future__ import annotations

import numpy as np

# The benchmark in ncbench/ reads HAVE_NUMBA, rc_contract, cr_contract and rk4_linear.
HAVE_NUMBA = False


def rho(table, a):
    """Real representation of an (m, n, d) matrix under structure constants table."""
    m, n, d = a.shape
    return np.einsum("ijp,pqs->isjq", a, table).reshape(m * d, n * d)


def unrho(table, r):
    """Matrix of elements whose rho is nearest to r in the Frobenius norm.

    The blocks L(e_p) are orthogonal with squared norm d, so each block M
    maps to the element with coefficients <M, L(e_p)> / d. On the image of
    rho this inverts rho exactly. Off it, the projection is the average of
    r over conjugation by right multiplications, which commute with every
    rho(A); so ||rho(A) @ P(r) - I|| <= ||rho(A) @ r - I||, and likewise on
    the left, where reading the first column of each block can lose both
    residuals of an ill-conditioned inverse.
    """
    d = table.shape[0]
    m, n = r.shape[0] // d, r.shape[1] // d
    return np.einsum("isjq,pqs->ijp", r.reshape(m, d, n, d), table) / d


def rc_contract(table, a, b):
    """Row-over-column product C[i,j] = sum_k a[i,k] b[k,j].

    a: (m, p, d), b: (p, n, d). With vec stacking the coefficient vectors
    down each column, rho(a) @ vec(b) = vec(a rc b).
    """
    m = a.shape[0]
    p, n, d = b.shape
    vec_b = b.transpose(0, 2, 1).reshape(p * d, n)
    return (rho(table, a) @ vec_b).reshape(m, d, n).transpose(0, 2, 1)


def cr_contract(table, a, b):
    """Column-over-row product C[i,j] = sum_k a[k,j] b[i,k] (a's entry left)."""
    return rc_contract(table, a.transpose(1, 0, 2), b.transpose(1, 0, 2)).transpose(1, 0, 2)


def rk4_linear(m, x0, t, steps):
    """State of x' = m x after ``steps`` classical RK4 steps from x(0) = x0.

    For a linear autonomous system one RK4 step is exactly multiplication by
    the degree-4 Taylor polynomial of exp(h m), so the step matrix is
    accumulated by binary powering instead of looping over steps.
    """
    h = t / steps
    hm = h * m
    hm2 = hm @ hm
    phi = np.eye(m.shape[0]) + hm + hm2 / 2.0 + (hm2 @ hm) / 6.0 + (hm2 @ hm2) / 24.0
    x = x0.copy()
    n = steps
    while n:
        if n & 1:
            x = phi @ x
        n >>= 1
        if n:
            phi = phi @ phi
    return x

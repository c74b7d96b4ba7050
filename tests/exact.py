"""Exact matrix arithmetic over the integer points of R, C and H, for oracles that know the true answer.

Coefficients are Python ints, so every product and sum is exact. An element
of dimension d is a list of d ints; C sits in H as a + b i + 0 j + 0 k and
R as a + 0 i + 0 j + 0 k, so one Hamilton product, written out longhand and
truncated to d coefficients, serves all three algebras. A matrix is a list
of rows of elements. The rc and cr products are written from their
definitions, each on its own, with no transpose between them.
"""

from __future__ import annotations


def mul(a: list[int], b: list[int]) -> list[int]:
    """The product a b of two elements with d = 1, 2 or 4 int coefficients."""
    d = len(a)
    a0, a1, a2, a3 = [*a, 0, 0, 0][:4]
    b0, b1, b2, b3 = [*b, 0, 0, 0][:4]
    return [a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0][:d]


def _sum(terms: list[list[int]], d: int) -> list[int]:
    return [sum(t[s] for t in terms) for s in range(d)]


def rc_mul(a: list, b: list) -> list:
    """(a rc b)[i][j] = sum_k a[i][k] b[k][j]."""
    d = len(a[0][0])
    return [[_sum([mul(a[i][k], b[k][j]) for k in range(len(b))], d) for j in range(len(b[0]))]
            for i in range(len(a))]


def cr_mul(a: list, b: list) -> list:
    """(a cr b)[i][j] = sum_k a[k][j] b[i][k], a's entry on the left."""
    d = len(a[0][0])
    return [[_sum([mul(a[k][j], b[i][k]) for k in range(len(a))], d) for j in range(len(a[0]))]
            for i in range(len(b))]


def identity(n: int, d: int) -> list:
    return [[[int(i == j)] + [0] * (d - 1) for j in range(n)] for i in range(n)]


def power(mul_matrices, a: list, k: int) -> list:
    """a^k under the product mul_matrices (rc_mul or cr_mul), by k products in turn from the identity."""
    out = identity(len(a), len(a[0][0]))
    for _ in range(k):
        out = mul_matrices(out, a)
    return out

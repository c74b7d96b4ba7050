"""Print the best per-call time of ``rc_inv``, ``solve_rc`` and ``rc_rank`` over H for several kinds of matrix.

One table per routine, one line per n: the least of REPEATS timed loops of
CALLS calls, divided by CALLS, in microseconds. ``rc_inv`` runs at n = 1,
2, 4, 8 and 16 on a random matrix (coefficients uniform on [-1, 1]), a
matrix U diag(sigma) V with unitary U and V and sigma from 1 down to 1e-8,
so that cond2(rho) = 1e8, and an outer product u v, whose rank is 1, so
the call raises SingularMatrixError, which is timed too. At n = 1 the
conditioned matrix is a unit element and the outer product a product of
two elements, so both are regular. ``solve_rc`` runs at the same n on the
random and the conditioned matrix with a random right-hand side.
``rc_rank`` runs at n = 2, 3 and 4 on three rank-deficient kinds, whose
greedy minor searches take different paths: the outer product, a random
matrix whose last column repeats its first, and one whose last row is
zero. Every call runs once untimed first. BLAS is pinned to one thread,
and ncalg is imported from PYTHONPATH when it is there, else from this
checkout's src. Run from the repository root:

    python tools/inverse_times.py
    PYTHONPATH=../other/src python tools/inverse_times.py

Timings on a shared host drift, so compare two checkouts by interleaving
runs of this script, not by one run of each.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from ncalg import make_algebra  # noqa: E402
from ncalg.algebra import random_element  # noqa: E402
from ncalg.biring import (BiMatrix, SingularMatrixError, random_matrix, rc_inv, rc_mul, rc_rank,  # noqa: E402
                          solve_rc)

SIZES = (1, 2, 4, 8, 16)
RANK_SIZES = (2, 3, 4)
REPEATS = 7
CALLS = 50
H = make_algebra("quaternion")


def conj_transpose(m: BiMatrix) -> BiMatrix:
    data = m.data.transpose(1, 0, 2).copy()
    data[:, :, 1:] *= -1.0
    return BiMatrix(H, data)


def unitary(n: int, rng) -> BiMatrix:
    """n x n matrix U with u* rc u = I, by Gram-Schmidt of random columns, run twice."""
    cols = []
    for _ in range(n):
        v = random_matrix(H, n, 1, rng)
        for _ in range(2):
            for u in cols:
                v = v - rc_mul(u, rc_mul(conj_transpose(u), v))
        cols.append(v * (1.0 / np.linalg.norm(v.data)))
    return BiMatrix(H, np.concatenate([c.data for c in cols], axis=1))


def matrices(n: int, rng) -> dict[str, BiMatrix]:
    diag = np.zeros((n, n, H.dim))
    diag[np.arange(n), np.arange(n), 0] = np.geomspace(1.0, 1e-8, n)
    return {
        "random": random_matrix(H, n, n, rng),
        "cond-1e8": rc_mul(rc_mul(unitary(n, rng), BiMatrix(H, diag)), unitary(n, rng)),
        "outer": rc_mul(random_matrix(H, n, 1, rng), random_matrix(H, 1, n, rng)),
    }


def rank_deficient(n: int, rng) -> dict[str, BiMatrix]:
    dup, zero_row = (random_matrix(H, n, n, rng).data.copy() for _ in range(2))
    dup[:, n - 1] = dup[:, 0]
    zero_row[n - 1] = 0.0
    return {
        "outer": rc_mul(random_matrix(H, n, 1, rng), random_matrix(H, 1, n, rng)),
        "dup-column": BiMatrix(H, dup),
        "zero-row": BiMatrix(H, zero_row),
    }


def inverse(a: BiMatrix) -> None:
    try:
        rc_inv(a)
    except SingularMatrixError:  # the outer product's answer
        pass


def best_us(call) -> float:
    call()
    return min(timeit.repeat(call, number=CALLS, repeat=REPEATS)) / CALLS * 1e6


def table(title: str, sizes, kinds: list[str], calls) -> None:
    """One line per n of the best times of calls(n), a list of one call per kind."""
    print(title)
    print(f"{'n':>3} " + " ".join(f"{k + ' us':>13}" for k in kinds))
    for n in sizes:
        print(f"{n:>3} " + " ".join(f"{best_us(c):13.1f}" for c in calls(n)))


def main() -> None:
    rng = np.random.default_rng(0)
    table("rc_inv", SIZES, ["random", "cond-1e8", "outer"],
          lambda n: [lambda a=a: inverse(a) for a in matrices(n, rng).values()])
    table("solve_rc", SIZES, ["random", "cond-1e8"],
          lambda n: [lambda a=a, b=[random_element(H, rng) for _ in range(n)]: solve_rc(a, b)
                     for a in list(matrices(n, rng).values())[:2]])
    table("rc_rank", RANK_SIZES, ["outer", "dup-column", "zero-row"],
          lambda n: [lambda a=a: rc_rank(a) for a in rank_deficient(n, rng).values()])


if __name__ == "__main__":
    main()

"""Print the best per-call time of ``rc_inv`` over H for three kinds of matrix at n = 1, 2, 4, 8 and 16.

One line per n: the least of REPEATS timed loops of CALLS calls, divided
by CALLS, in microseconds, for a random matrix (coefficients uniform on
[-1, 1]), a matrix U diag(sigma) V with unitary U and V and sigma from 1
down to 1e-8, so that cond2(rho) = 1e8, and an outer product u v, whose
rank is 1, so the call raises SingularMatrixError, which is timed too. At
n = 1 the conditioned matrix is a unit element and the outer product a
product of two elements, so both are regular. Every call runs once
untimed first. BLAS is pinned to one thread, and ncalg is imported from
PYTHONPATH when it is there, else from this checkout's src. Run from the
repository root:

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
from ncalg.biring import BiMatrix, SingularMatrixError, random_matrix, rc_inv, rc_mul  # noqa: E402

SIZES = (1, 2, 4, 8, 16)
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


def call(a: BiMatrix) -> None:
    try:
        rc_inv(a)
    except SingularMatrixError:  # the outer product's answer
        pass


def best_us(a: BiMatrix) -> float:
    call(a)
    return min(timeit.repeat(lambda: call(a), number=CALLS, repeat=REPEATS)) / CALLS * 1e6


def main() -> None:
    rng = np.random.default_rng(0)
    kinds = list(matrices(1, rng))
    print(f"{'n':>3} " + " ".join(f"{k + ' us':>13}" for k in kinds))
    for n in SIZES:
        times = [best_us(a) for a in matrices(n, rng).values()]
        print(f"{n:>3} " + " ".join(f"{t:13.1f}" for t in times))


if __name__ == "__main__":
    main()

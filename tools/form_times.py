"""Print the best time of ``integrability_check`` on the derivative form of x^k over H.

One line per k in DEGREES: k and the least of REPEATS timed calls of
``integrability_check`` on D(x^k), the form h -> sum of x^i h x^(k-1-i), in
milliseconds, or the name of the exception the call raises. BLAS is pinned
to one thread, and ncalg is imported from PYTHONPATH when it is there, else
from this checkout's src. Run from the repository root:

    python tools/form_times.py
    PYTHONPATH=../other/src python tools/form_times.py
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from ncalg import make_algebra  # noqa: E402
from ncalg.diffeq import FormPoly, integrability_check  # noqa: E402
from ncalg.tensor import ones_tensor, poly_derivative  # noqa: E402

DEGREES = (4, 6, 8, 9, 10, 12)
REPEATS = 3


def best_ms(k: int) -> str:
    form = poly_derivative(FormPoly([ones_tensor(make_algebra("quaternion"), k)]))
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        try:
            integrability_check(form)
        except Exception as exc:  # a refusal is a result here, named by its type
            return type(exc).__name__
        best = min(best, time.perf_counter() - t0)
    return f"{best * 1e3:9.2f} ms"


def main() -> None:
    for k in DEGREES:
        print(f"k = {k:<3} {best_ms(k)}")


if __name__ == "__main__":
    main()

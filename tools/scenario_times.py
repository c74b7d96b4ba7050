"""Print the best in-process time of every CLI scenario, and their total.

One line per scenario: its name and the least of REPEATS timed calls of
``cli.run_scenario`` with the default options (seed 0, quaternions), in
milliseconds; then the total of those bests, one pass over all scenarios.
Every call runs once untimed first, so imports and caches are warm. BLAS is
pinned to one thread, and ncalg is imported from PYTHONPATH when it is
there, else from this checkout's src. Run from the repository root:

    python tools/scenario_times.py
    PYTHONPATH=../other/src python tools/scenario_times.py

Timings on a shared host drift, so compare two checkouts by interleaving
runs of this script, not by one run of each.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from ncalg import cli  # noqa: E402

REPEATS = 7


def best_ms(name: str) -> float:
    cli.run_scenario(name, cli.Options())
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        cli.run_scenario(name, cli.Options())
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main() -> None:
    total = 0.0
    for name in sorted(cli.SCENARIOS):
        ms = best_ms(name)
        total += ms
        print(f"{name:<26} {ms:9.2f} ms")
    print(f"{'total':<26} {total:9.2f} ms")


if __name__ == "__main__":
    main()

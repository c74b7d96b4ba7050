"""Print the best in-process time of every CLI scenario, and their total.

One line per scenario: its name and the least of REPEATS timed calls of
``cli.run_scenario`` with the default options (seed 0, quaternions), in
milliseconds; then the total of those bests, one pass over all scenarios.
Every call runs once untimed first, so imports and caches are warm. BLAS is
pinned to one thread, and ncalg is imported from PYTHONPATH when it is
there, else from this checkout's src. Run from the repository root:

    python tools/scenario_times.py
    PYTHONPATH=../other/src python tools/scenario_times.py

Given the src directory of a second checkout, the script compares the two.
It runs ROUNDS rounds, and each round times both checkouts, each in a
fresh interpreter, in an order that alternates from round to round. For
each scenario and the total it prints the median best time of each
checkout and the median over the rounds of the ratio this / other:

    python tools/scenario_times.py ../other/src

Timings on a shared host drift, so separate whole runs of the two
checkouts cannot be compared; the ratios of one round are taken seconds
apart.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.append(str(SRC))

REPEATS = 7
ROUNDS = 7


def times() -> dict[str, float]:
    """The best time of each scenario in milliseconds, by name."""
    from ncalg import cli

    out = {}
    for name in sorted(cli.SCENARIOS):
        cli.run_scenario(name, cli.Options())
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            cli.run_scenario(name, cli.Options())
            best = min(best, time.perf_counter() - t0)
        out[name] = best * 1e3
    return out


def times_of(src: Path) -> dict[str, float]:
    """times() in a fresh interpreter that imports ncalg from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, __file__, "--json"], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def compare(other: Path) -> None:
    runs = {SRC: [], other: []}
    for r in range(ROUNDS):
        for src in ((SRC, other) if r % 2 == 0 else (other, SRC)):
            runs[src].append(times_of(src))
    names = sorted(set(runs[SRC][0]) & set(runs[other][0]))
    for side in runs.values():
        for run in side:
            run["total"] = sum(run[name] for name in names)
    print(f"{'':<26} {'this ms':>9} {'other ms':>9} {'this/other':>10}")
    for name in names + ["total"]:
        this, that = ([run[name] for run in runs[src]] for src in (SRC, other))
        ratio = statistics.median(a / b for a, b in zip(this, that))
        print(f"{name:<26} {statistics.median(this):9.2f} {statistics.median(that):9.2f} {ratio:10.3f}")


def main(argv: list[str]) -> None:
    if argv == ["--json"]:
        print(json.dumps(times()))
    elif argv:
        compare(Path(argv[0]).resolve())
    else:
        best = times()
        for name, ms in best.items():
            print(f"{name:<26} {ms:9.2f} ms")
        print(f"{'total':<26} {sum(best.values()):9.2f} ms")


if __name__ == "__main__":
    main(sys.argv[1:])

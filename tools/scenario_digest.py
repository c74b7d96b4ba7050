"""Print the exit code and a digest of the JSON and text reports of every CLI scenario.

One line per scenario, algebra, seed 0-7 and format: the scenario, the
algebra, the seed, the format, the exit code of ``ncalg run <scenario>
--algebra <algebra> --seed <seed> --format <format>`` and the sha256 of
what it prints. Two runs print the same lines exactly when every report
and exit code is the same, so comparing two checkouts is a ``diff`` of
their outputs. ncalg is imported from PYTHONPATH when it is there, else
from this checkout's src.
Run from the repository root:

    python tools/scenario_digest.py > after.txt
    PYTHONPATH=../other/src python tools/scenario_digest.py > before.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from ncalg import cli  # noqa: E402

ALGEBRAS = ("real", "complex", "quaternion")
SEEDS = range(8)
FORMATS = ("json", "text")


def main() -> None:
    for name in sorted(cli.SCENARIOS):
        for algebra in ALGEBRAS:
            for seed in SEEDS:
                for fmt in FORMATS:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(["run", name, "--algebra", algebra, "--seed", str(seed), "--format", fmt])
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                    print(f"{name} {algebra} {seed} {fmt} {code} {digest}")


if __name__ == "__main__":
    main()

"""Every row of every table of tools/times.py builds and runs, and tools/code_lines.py counts every module.

The timing tool reaches into private names (series._exp_els,
diffeq._closed_form_states, biring's stacked routes through the scenarios)
and prints a failing row as the name of its exception, so a rename would
show only as a table of type names in a later measurement. This loads the
tool by path, as tests/test_bench_names.py loads the benchmark tracer,
and makes each row's one untimed call.
"""

import contextlib
import importlib.util
import io
import os
from pathlib import Path
from unittest import mock

import pytest

TIMES = Path(__file__).resolve().parents[1] / "tools" / "times.py"


def _tool():
    spec = importlib.util.spec_from_file_location("ncalg_times", TIMES)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads for its own process
        spec.loader.exec_module(module)
    return module


TOOL = _tool()


@pytest.mark.parametrize("table", sorted(TOOL.TABLES))
def test_every_row_runs(table):
    labels = []
    for label, setup in TOOL.TABLES[table]():
        setup()()
        labels.append(label)
    assert labels and len(set(labels)) == len(labels)


def test_code_lines_counts_every_module_once():
    # the code-line count is the yardstick of the simplicity changes; its table
    # names each module of src/ncalg once, and its total is their sum
    spec = importlib.util.spec_from_file_location("ncalg_code_lines", TIMES.with_name("code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    rows = [line.split() for line in out.getvalue().splitlines()]
    counts = {name: int(n) for name, n in rows[:-1]}
    modules = sorted(p.stem for p in (TIMES.parents[1] / "src" / "ncalg").glob("*.py"))
    assert len(rows) - 1 == len(counts) and sorted(counts) == modules
    assert rows[-1] == ["total", str(sum(counts.values()))] and all(n > 0 for n in counts.values())

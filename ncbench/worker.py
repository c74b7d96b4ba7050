"""The measured process: imports ncalg, builds the cases, runs timed passes.

Started by run.py, one interpreter per spawn, with the checkout's ``src`` on
PYTHONPATH. It reads one JSON job from argv and writes one pickled result
to stdout. Answers are converted to plain numpy values outside the timed
region; the oracle in the parent process checks them, so nothing here
imports scipy or the oracle, and ``setup_s`` sees only ncalg's own imports.

One caller, closed loop: each call starts when the previous one returned.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import sys
import time

PROBE_WINDOW_NS = 1_000_000_000  # host speed epochs last seconds; probes are smoothed over +-1 s


def _import_ncalg(src: str):
    import ncalg
    from ncalg import _kernels, algebra, biring, cli, diffeq, series, tensor

    if not os.path.abspath(ncalg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"ncalg imported from {ncalg.__file__}, not from {src}")
    return {"algebra": algebra, "_kernels": _kernels, "tensor": tensor, "biring": biring,
            "series": series, "diffeq": diffeq, "cli": cli}


def _build(mods, case):
    """Resolve a case into (module, function name, args, post-processing)."""
    algebra, biring, diffeq, cli = mods["algebra"], mods["biring"], mods["diffeq"], mods["cli"]

    def obj(spec):
        if not isinstance(spec, tuple):
            return spec
        kind = spec[0]
        if kind == "el":
            return algebra.Element(algebra.make_algebra(spec[1]), spec[2])
        if kind == "els":
            alg = algebra.make_algebra(spec[1])
            return [algebra.Element(alg, row) for row in spec[2]]
        if kind == "mat":
            return biring.BiMatrix(algebra.make_algebra(spec[1]), spec[2])
        if kind == "sel":
            return biring.MinorSelector(tuple(spec[1]), tuple(spec[2]))
        if kind == "ode":
            _, form, tag, data, init = spec
            alg = algebra.make_algebra(tag)
            return diffeq.LinearOde(biring.BiMatrix(alg, data), diffeq.OdeForm(form),
                                    tuple(algebra.Element(alg, c) for c in init))
        if kind == "opts":
            return cli.Options(seed=spec[1])
        raise ValueError(f"unknown argument spec {kind!r}")

    module, name = case["fn"].split(".")
    args = tuple(obj(a) for a in case["args"])
    if case["fn"] == "diffeq.closed_form_solution":
        ode, t = args
        return diffeq, name, (ode,), lambda curve: curve(t)
    if case["fn"] == "diffeq.rk4_integrate":
        ode, t_end, steps, t = args
        return diffeq, name, (ode, t_end, steps), lambda curve: curve(t)
    if case["fn"] == "cli.run_scenario":
        return cli, name, args, lambda out: out[1]["verdict"]
    return mods[module], name, args, None


def _plain(value):
    """Answer as plain Python / numpy data the oracle can read without ncalg."""
    import numpy as np

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "coeffs"):
        return np.array(value.coeffs)
    if hasattr(value, "data") and hasattr(value, "algebra"):
        return np.array(value.data)
    if hasattr(value, "rows") and hasattr(value, "cols"):
        return ("sel", tuple(value.rows), tuple(value.cols))
    if isinstance(value, (list, tuple)):
        if value and all(hasattr(v, "coeffs") for v in value):
            return np.array([v.coeffs for v in value])
        return tuple(_plain(v) for v in value)
    raise TypeError(f"cannot convert {type(value).__name__}")


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def clock_probe(reps: int = 3) -> int:
    """Median ns of a small fixed numpy/interpreter loop that never touches ncalg.

    It reads the host's current speed (the clock of a shared VM drifts by
    up to 1.7x between epochs of seconds) and is timed between calls, never
    inside one. Like ncalg it mixes tiny einsums, einsum path searches
    (optimize=True, as in the rc/cr contractions) and object churn.
    """
    import numpy as np

    table = np.arange(64.0).reshape(4, 4, 4) / 64.0
    pair = np.linspace(-1.0, 1.0, 16).reshape(2, 2, 4)
    out = []
    for _ in range(reps):
        x = np.full(4, 0.5)
        keep = []
        t0 = time.perf_counter_ns()
        for i in range(30):
            z = np.einsum("p,q,pqk->k", x, x, table)
            x = z / float(z @ z) ** 0.5
            keep.append([x.copy() for _ in range(10)])
            if i % 3 == 0:
                np.einsum("ikp,kjq,pqs->ijs", pair, pair, table, optimize=True)
        out.append(time.perf_counter_ns() - t0)
    return sorted(out)[reps // 2]


def _smoothed(probes, marks, window_ns):
    """Clock reading for each call: median of the probes within window_ns of it."""
    out = []
    for mid in marks:
        near = [v for t, v in probes if abs(t - mid) <= window_ns]
        if not near:  # a call longer than the window: the probes around it
            before = [v for t, v in probes if t <= mid][-1:]
            after = [v for t, v in probes if t > mid][:1]
            near = before + after
        near.sort()
        out.append((near[(len(near) - 1) // 2] + near[len(near) // 2]) / 2)
    return out


def run_pass(calls, tracer=None, probe_every_ns=0):
    """One pass over the call list: per-call ns, outcomes and clock readings.

    With probe_every_ns, clock_probe() runs before the first call, after
    any call that ends at least that long after the previous probe, and
    after the last call; each call's clock reading is the median of the
    probes within PROBE_WINDOW_NS of its midpoint. Probes sit between
    calls, outside every timed region.
    """
    gc.collect()
    ns, outcomes, marks = [], [], []
    clock = time.perf_counter_ns
    probes = [(clock(), clock_probe())] if probe_every_ns else []
    last_probe = clock()
    for idx, (module, name, args, post) in enumerate(calls):
        if tracer is not None:
            tracer.case = idx
        t0 = clock()
        try:
            out = getattr(module, name)(*args)
            if post is not None:
                out = post(out)
            err = None
        except Exception as exc:  # the oracle decides whether this was expected
            out, err = None, type(exc).__name__
        t1 = clock()
        ns.append(t1 - t0)
        marks.append((t0 + t1) // 2)
        outcomes.append((err, out))
        if probe_every_ns and (t1 - last_probe >= probe_every_ns or idx == len(calls) - 1):
            probes.append((clock(), clock_probe()))
            last_probe = clock()
    clocks = _smoothed(probes, marks, PROBE_WINDOW_NS) if probe_every_ns else []
    return ns, outcomes, clocks


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    mods = _import_ncalg(job["src"])
    from cases import generate

    cases = generate(job["workload"], job["seed"])
    calls = [_build(mods, c) for c in cases]
    ready_ns = time.monotonic_ns()
    result = {"setup_s": (ready_ns - job["spawn_ns"]) / 1e9, "setup_probe_ns": clock_probe()}
    if job["passes"] or job["traced_passes"]:
        result.update(_measure(mods, calls, cases, job))
    result["backend"] = "numba" if mods["_kernels"].HAVE_NUMBA else "numpy"
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.buffer.write(pickle.dumps(result))
    sys.stdout.flush()


def _measure(mods, calls, cases, job) -> dict:
    """Run the job's passes; a traced job alternates untraced and traced passes."""
    first = None
    differing = []  # (pass, index, outcome) where a pass disagreed with the first
    out = {"latencies_ns": [], "clock_ns": [], "traced": []}

    def record(outcomes):
        nonlocal first
        plain = [(err, None if err else _plain(value)) for err, value in outcomes]
        if first is None:
            first = plain
            return
        pass_no = len(out["latencies_ns"]) + len(out["traced"]) - 1
        for i, (a, b) in enumerate(zip(first, plain)):
            if not _same(a, b):
                differing.append((pass_no, i, b))

    tracer = None
    if job["traced_passes"]:
        from tracer import Tracer, kernel_cases

        out["kernel_cases"] = kernel_cases(mods)
        tracer = Tracer(mods, cases)
    plain_left, traced_left = job["passes"], job["traced_passes"]
    while plain_left or traced_left:
        if plain_left:
            plain_left -= 1
            ns, outcomes, clocks = run_pass(calls, probe_every_ns=job["probe_every_ns"])
            out["latencies_ns"].append(ns)
            out["clock_ns"].append(clocks)
            record(outcomes)
        if traced_left:
            traced_left -= 1
            tracer.reset()
            tracer.install()
            try:
                ns, outcomes, _ = run_pass(calls, tracer)
            finally:
                tracer.uninstall()
            out["traced"].append((sum(ns), tracer.summary()))
            record(outcomes)
    out["first"] = first
    out["differing"] = differing
    out["passes_checked"] = job["passes"] + job["traced_passes"]
    return out


if __name__ == "__main__":
    main()

"""Benchmark of ncalg: four workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 ncbench/run.py --workload scenarios --seed 1 --seconds 18 --trace 0

Workloads: scenarios, linalg-regular, linalg-deficient, series-scale (see
cases.py and README.md). With ``--trace 0`` the run spawns several measured
interpreters (worker.py) one after another and reports the end-to-end
metrics; with ``--trace 1`` it spawns one, alternates untraced and traced
passes and reports the per-layer metrics. Either way every answer is
checked by the oracle (oracle.py), which never imports ncalg. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it print every metric with its unit and sample count, and
the environment record; the same data goes to ncbench/results/.

One caller, closed loop: each call starts when the previous one returned.
BLAS is pinned to one thread in every process.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import signal  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cases as C  # noqa: E402
import oracle  # noqa: E402
from tracer import LAYERS, span_name  # noqa: E402
from worker import clock_probe  # noqa: E402

# Nominal seconds of one pass on the machine the benchmark was sized on
# (see STEADINESS.md). They turn --seconds into a fixed pass count, so every
# run of a workload makes the same calls whatever the host's speed.
PASS_SECONDS = {"scenarios": 1.6, "linalg-regular": 0.75, "linalg-deficient": 3.7,
                "series-scale": 0.6}
# Clock normalisation. The host's speed drifts by up to 1.7x between epochs
# of seconds (STEADINESS.md), so untraced timings are scaled to a reference
# clock: t * PROBE_REF_NS / probe, where probe is worker.clock_probe()'s
# reading around the call (taken every PROBE_EVERY_S of calls, between
# calls, smoothed over a second) and PROBE_REF_NS about its median on the
# sizing machine.
PROBE_REF_NS = 2.0e6
PROBE_EVERY_S = 0.15
PROCESSES = 3          # measured interpreters per untraced run
SETUP_SPAWNS = 12      # interpreter starts per untraced run, workers included
MIN_SAMPLES = 110      # latency samples per run: p90 needs ten beyond it
SPAWN_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB", "verified_ratio": "ratio"}


def per_layer_names() -> dict[str, str]:
    """Per-layer metric names with their units, in report order."""
    out = {"algebra.mul.calls": "count", "algebra.mul.self_s": "s"}
    for module, names in LAYERS.items():
        for fn in names:
            out[f"{span_name(module, fn)}.calls"] = "count"
            if (module, fn) != ("tensor", "so_set"):
                out[f"{span_name(module, fn)}.self_s"] = "s"
    for kernel in ("rk4_linear", "rc_contract", "cr_contract"):
        out[f"kernels.case.{kernel}_s"] = "s"
    for fn in ("rc_inv", "solve_rc", "quasidet_rc"):
        out[f"biring.{fn}.raised"] = "count"
    out["biring.rc_inv.contractions_per_call"] = "count/call"
    out["series.budget_errors"] = "count"
    for prov in ("closed-form", "rk4"):
        out[f"diffeq.curve.{prov}.calls"] = "count"
        out[f"diffeq.curve.{prov}.self_s"] = "s"
    for name in C.SCENARIO_NAMES:
        out[f"cli.scenario.{name}.s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


# ---------------------------------------------------------------------------
# spawning measured interpreters


def spawn(root: str, workload: str, seed: int, passes: int, traced_passes: int) -> dict:
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", **BLAS_PIN)
    job = {"workload": workload, "seed": seed, "passes": passes, "traced_passes": traced_passes,
           "src": src, "probe_every_ns": 0 if traced_passes else int(PROBE_EVERY_S * 1e9)}
    cmd = [sys.executable, os.path.join(HERE, "worker.py")]
    parent_probe = clock_probe()
    job["spawn_ns"] = time.monotonic_ns()
    proc = subprocess.Popen(cmd + [json.dumps(job)], stdout=subprocess.PIPE, env=env, cwd=root)
    try:
        out, _ = proc.communicate(timeout=SPAWN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"measured process exceeded {SPAWN_TIMEOUT_S} s")
    finally:  # also on SIGTERM (see main): never leave a measured process behind
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited with {proc.returncode}")
    result = pickle.loads(out)  # written by worker.py in this checkout
    result["setup_probe_ns"] = (parent_probe + result["setup_probe_ns"]) / 2
    return result


# ---------------------------------------------------------------------------
# oracle bookkeeping


class Verdicts:
    """Counts of oracle statuses over every answer of a run."""

    def __init__(self, cases):
        self.cases = cases
        self.expect = [oracle.expect(c) for c in cases]
        self.counts = {"certified": 0, "wrong": 0, "raised": 0}
        self.defects: dict[str, int] = {}
        self.unexpected: list[str] = []

    def _count(self, status: str, defect: str | None) -> None:
        self.counts[status] += 1
        if defect is not None:
            self.defects[defect] = self.defects.get(defect, 0) + 1

    def _one(self, idx: int, err, answer) -> tuple[str, str | None]:
        case, e = self.cases[idx], self.expect[idx]
        status, ratio = oracle.check(case, e, err, answer)
        defect = None
        if status != "certified":
            defect = oracle.known_defect(case, e, status, err, ratio)
            if defect is None:
                self.unexpected.append(f"{case['id']}: {status} ({err or f'error/tol {ratio:.3g}'})")
        self._count(status, defect)
        return status, defect

    def add(self, result: dict) -> None:
        """Check the first pass of a process; later passes repeat its verdicts
        except for the answers that differed from it, which are checked anew."""
        first = [self._one(i, err, ans) for i, (err, ans) in enumerate(result["first"])]
        differing = {(p, i): outcome for p, i, outcome in result["differing"]}
        for p in range(1, result["passes_checked"]):
            for i, verdict in enumerate(first):
                if (p, i) in differing:
                    self._one(i, *differing[(p, i)])
                else:
                    self._count(*verdict)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


# ---------------------------------------------------------------------------
# environment


def environment(backend: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):  # the layout of show_config differs across numpy versions
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": dict(BLAS_PIN),
        "kernel_backend": backend,
        "platform": f"{os.uname().sysname} {os.uname().release} {os.uname().machine}",
    }


# ---------------------------------------------------------------------------
# runs


def percentile_with_tail(samples_ms, q: float) -> tuple[float, int]:
    value = float(np.percentile(samples_ms, q))
    return value, int(sum(1 for s in samples_ms if s > value))


def untraced(root, workload, seed, seconds, verdicts):
    calls = len(verdicts.cases)
    passes = max(math.ceil(MIN_SAMPLES / (calls * PROCESSES)),
                 round(seconds / PASS_SECONDS[workload] / PROCESSES), 1)
    workers = []
    setup_raw = []
    extra = SETUP_SPAWNS - PROCESSES
    for i in range(PROCESSES):
        res = spawn(root, workload, seed, passes, 0)
        verdicts.add(res)
        workers.append(res)
        setup_raw.append((res["setup_s"], res["setup_probe_ns"]))
        for _ in range(extra // PROCESSES + (1 if i < extra % PROCESSES else 0)):
            s = spawn(root, workload, seed, 0, 0)
            setup_raw.append((s["setup_s"], s["setup_probe_ns"]))
    setup = [s * PROBE_REF_NS / probe for s, probe in setup_raw]
    passes_ms = [[ns * PROBE_REF_NS / c / 1e6 for ns, c in zip(p, clocks)]
                 for res in workers for p, clocks in zip(res["latencies_ns"], res["clock_ns"])]
    walls = [sum(p) / 1e3 for p in passes_ms]
    lat = [ms for p in passes_ms for ms in p]
    p50, _ = percentile_with_tail(lat, 50)
    p90, beyond = percentile_with_tail(lat, 90)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} samples beyond p90")
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), len(walls)),
        "latency_p50_ms": (p50, len(lat)),
        "latency_p90_ms": (p90, len(lat)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in workers), len(workers)),
        "verified_ratio": (verdicts.counts["certified"] / verdicts.attempted, verdicts.attempted),
    }
    info = {"passes_per_process": passes, "processes": PROCESSES, "samples_beyond_p90": beyond,
            "probe_ref_ns": PROBE_REF_NS, "backend": workers[0]["backend"],
            "raw": {"latencies_ns": [r["latencies_ns"] for r in workers],
                    "clock_ns": [r["clock_ns"] for r in workers],
                    "setup_s_and_probe_ns": setup_raw}}
    return metrics, info, []


def traced(root, workload, seed, seconds, verdicts):
    pairs = max(2, round(seconds / PASS_SECONDS[workload] / 2.5))
    res = spawn(root, workload, seed, pairs, pairs)
    verdicts.add(res)
    summaries = [s for _, s in res["traced"]]
    untraced_wall = statistics.median(sum(p) for p in res["latencies_ns"])
    traced_wall = statistics.median(w for w, _ in res["traced"])

    def med(get):
        return statistics.median(get(s) for s in summaries)

    def count(get):  # counts repeat exactly across passes; keep an observed value
        return statistics.median_low(get(s) for s in summaries)

    values = {}
    names = per_layer_names()
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = count(lambda s: s["calls"].get(span, 0))
        elif kind == "self_s":
            values[name] = med(lambda s: s["self_ns"].get(span, 0)) / 1e9
        elif kind == "raised":
            values[name] = count(lambda s: s["raised"].get(span, 0))
        elif name.startswith("cli.scenario."):  # whole scenario, children included
            values[name] = med(lambda s: s["total_ns"].get(span, 0)) / 1e9
    for kernel in ("rk4_linear", "rc_contract", "cr_contract"):
        values[f"kernels.case.{kernel}_s"] = res["kernel_cases"][f"{kernel}_s"]
    values["biring.rc_inv.contractions_per_call"] = med(
        lambda s: s["rc_inv_contractions"] / s["calls"].get("biring.rc_inv", 1)
        if s["calls"].get("biring.rc_inv") else 0.0)
    values["series.budget_errors"] = count(lambda s: s["budget_errors"])
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics = {k: (values[k], len(summaries)) for k in names}
    rows = []
    for (span, size), ns_list in _rows(summaries).items():
        layer, _, case = span.partition(".")
        rows.append({"layer": layer, "case": case, "size": size,
                     "seconds": statistics.median(ns_list) / 1e9, "repeat": len(ns_list)})
    info = {"traced_passes": len(summaries), "untraced_passes": len(res["latencies_ns"]),
            "untraced_wall_s": untraced_wall / 1e9, "traced_wall_s": traced_wall / 1e9,
            "backend": res["kernel_cases"]["backend"]}
    return metrics, info, rows


def _rows(summaries):
    keys = sorted({k for s in summaries for k in s["rows"]})
    return {k: [s["rows"].get(k, 0) for s in summaries] for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=C.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncalg", "__init__.py")):
        print("ncbench: no src/ncalg under the working directory; run from a checkout root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src", "ncalg"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    verdicts = Verdicts(C.generate(args.workload, args.seed))
    run = traced if args.trace else untraced
    try:
        metrics, info, rows = run(root, args.workload, args.seed, args.seconds, verdicts)
    except RuntimeError as exc:
        print(f"ncbench: {exc}", file=sys.stderr)
        return 1
    units = per_layer_names() if args.trace else END_TO_END_UNITS
    env = environment(info["backend"])
    oracle_summary = {"attempted": verdicts.attempted, **verdicts.counts,
                      "wrong_ratio": verdicts.counts["wrong"] / verdicts.attempted,
                      "known_defects": verdicts.defects, "unexpected": verdicts.unexpected[:20]}
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {json.dumps(info)}")
    for name, (value, n) in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]:10s} n={n}")
    if not args.trace:
        print(f"{'wrong_ratio':48s} {oracle_summary['wrong_ratio']:14.6g} {'ratio':10s} "
              f"n={verdicts.attempted}")
    print(f"# oracle {json.dumps(oracle_summary)}")
    print(f"# environment {json.dumps(env)}")
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"BENCH_{label}.json"), "w") as fh:
        json.dump({"label": label, "environment": env, "info": info, "oracle": oracle_summary,
                   "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                               for k, (v, n) in metrics.items()},
                   "rows": rows}, fh, indent=1)
    failed = verdicts.attempted - verdicts.counts["certified"]
    print(json.dumps({
        "correct": not verdicts.unexpected,
        "attempted": verdicts.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

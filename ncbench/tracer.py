"""Spans around the public functions of ncalg, recorded from outside the library.

Tracing wraps each public function named in LAYERS, plus Element.__mul__,
SolutionCurve.__call__ (split by provenance, so the lazy closed-form curve
is timed where its cost is paid) and cli.run_scenario. The wrapper replaces
every binding of the function in every loaded ncalg module, so calls through
re-imported names such as ``series.rc_mul`` or ``diffeq.mexp_rc`` are seen
too. Spans stay in memory with their parent span and case index; a pass's
summary turns them into counts and self times (a span's time minus the time
of its child spans).
"""

from __future__ import annotations

import sys
import time

LAYERS = {
    "algebra": ("inv",),
    "_kernels": ("rc_contract", "cr_contract", "rk4_linear"),
    "tensor": ("star_product", "eval_args", "slot_derivative", "so_set"),
    "biring": ("rc_mul", "cr_mul", "rc_pow", "cr_pow", "rc_inv", "cr_inv", "is_rc_singular",
               "quasidet_rc", "solve_rc", "rc_rank", "bordered_quasidet", "left_dependency"),
    "series": ("exp_el", "sinh_el", "cosh_el", "sin_el", "cos_el", "quasiexp", "quasiexp_at",
               "mexp_rc", "mexp_cr"),
    "diffeq": ("integrability_check", "exactness_check", "implicit_solution_check",
               "solution_residual", "rk4_integrate"),
}
CONTRACTIONS = ("kernels.rc_contract", "kernels.cr_contract")


def span_name(module: str, fname: str) -> str:
    """Span and metric prefix of a function; metric names may not start with "_"."""
    return f"{module.lstrip('_')}.{fname}"

_NAME, _PARENT, _CASE, _T0, _T1, _ERR = range(6)


class Tracer:
    def __init__(self, mods, cases):
        self.mods = mods
        self.sizes = [c["size"] for c in cases]
        self.case = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn, name_of=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_of(args) if name_of else name, stack[-1] if stack else -1,
                    tracer.case, clock(), 0, None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[_ERR] = type(exc).__name__
                raise
            finally:
                span[_T1] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        originals = {}
        for module, names in LAYERS.items():
            for fname in names:
                fn = getattr(self.mods[module], fname)
                originals[id(fn)] = (fn, self._wrap(span_name(module, fname), fn))
        cli = self.mods["cli"]
        fn = cli.run_scenario
        originals[id(fn)] = (fn, self._wrap("cli", fn, lambda a: f"cli.scenario.{a[0]}"))
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "ncalg" or n.startswith("ncalg.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        element = self.mods["algebra"].Element
        self._set(element, "__mul__", self._wrap("algebra.mul", element.__mul__))
        curve = self.mods["diffeq"].SolutionCurve
        self._set(curve, "__call__", self._wrap(
            "diffeq.curve", curve.__call__, lambda a: f"diffeq.curve.{a[0].provenance}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts, self times and rows of one pass, keyed by span name."""
        spans = self.spans
        child_ns = [0] * len(spans)
        budget_parents = set()
        for s in spans:
            if s[_PARENT] >= 0:
                child_ns[s[_PARENT]] += s[_T1] - s[_T0]
                if s[_ERR] == "SeriesBudgetError" and s[_NAME].startswith("series."):
                    budget_parents.add(s[_PARENT])
        calls, self_ns, total_ns, raised, rows = {}, {}, {}, {}, {}
        inv_contractions = 0
        budget_errors = 0
        for i, s in enumerate(spans):
            name = s[_NAME]
            dur = s[_T1] - s[_T0]
            own = dur - child_ns[i]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            total_ns[name] = total_ns.get(name, 0) + dur
            if s[_ERR] is not None:
                raised[name] = raised.get(name, 0) + 1
                if (s[_ERR] == "SeriesBudgetError" and name.startswith("series.")
                        and i not in budget_parents):
                    budget_errors += 1
            key = (name, self.sizes[s[_CASE]] if s[_CASE] >= 0 else "")
            rows[key] = rows.get(key, 0) + own
            if name in CONTRACTIONS and self._inside(i, "biring.rc_inv"):
                inv_contractions += 1
        return {"calls": calls, "self_ns": self_ns, "total_ns": total_ns, "raised": raised,
                "rows": rows,
                "rc_inv_contractions": inv_contractions, "budget_errors": budget_errors}

    def _inside(self, idx: int, name: str) -> bool:
        spans = self.spans
        p = spans[idx][_PARENT]
        while p >= 0:
            if spans[p][_NAME] == name:
                return True
            p = spans[p][_PARENT]
        return False


def kernel_cases(mods) -> dict:
    """The three timings of benchmarks/bench_kernels.py, on the active backend.

    Same inputs (seed 42), same repeat count and best-of rule as that script,
    so its numbers and these can be read side by side.
    """
    import numpy as np

    kernels, algebra, biring, diffeq = mods["_kernels"], mods["algebra"], mods["biring"], mods["diffeq"]
    alg = algebra.make_algebra("quaternion")
    rng = np.random.default_rng(42)
    a = biring.random_matrix(alg, 2, 2, rng, scale=0.5)
    init = [[float(c) for c in rng.uniform(-1, 1, 4)] for _ in range(2)]
    ode = diffeq.LinearOde(a, diffeq.OdeForm.RC_LEFT, tuple(algebra.Element(alg, c) for c in init))
    m = ode.real_matrix()
    x0 = np.concatenate([np.asarray(c) for c in init])
    big = biring.random_matrix(alg, 6, 6, rng)

    def best(fn, *args, repeat=5):
        out = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(*args)
            out = min(out, time.perf_counter() - t0)
        return out

    def rk4_many():
        for _ in range(20):
            kernels.rk4_linear(m, x0, 1.0, 10_000)

    return {
        "rk4_linear_s": best(rk4_many),
        "rc_contract_s": best(kernels.rc_contract, alg.table, big.data, big.data),
        "cr_contract_s": best(kernels.cr_contract, alg.table, big.data, big.data),
        "backend": "numba" if kernels.HAVE_NUMBA else "numpy",
    }

"""Seeded case lists for the benchmark's four workloads.

Only numpy is used here: the same module builds the inputs in the measured
process and in the oracle, and neither needs ncalg for it. Every workload
has a fixed structure (functions, sizes, norms, condition numbers and the
order of calls); the seed only draws the random values inside that
structure. So the cost and the expected outcome of each call are the same
for every seed, and a pass over the list is a fixed unit of work.

A case is a dict:
    id      unique label, also used as the span case id in traced runs
    fn      "<module>.<function>" of the public ncalg function called
    args    argument specs, turned into ncalg objects by the worker:
            ("el", tag, coeffs) ("els", tag, rows) ("mat", tag, data)
            ("sel", rows, cols) ("ode", form, tag, data, init)
            ("opts", seed) or a plain int / float / str
    size    label of the case's size class (per-layer rows group by it)
"""

from __future__ import annotations

import numpy as np

from refalg import DIMS, SINGULAR_RTOL, conj, hmul, rc_mul, rho

WORKLOADS = ("scenarios", "linalg-regular", "linalg-deficient", "series-scale")

SCENARIO_NAMES = (
    "quasidet-2x2", "solve-quaternion-system", "rank-demo", "integrability-x2",
    "integrability-3xx", "exact-723", "exact-724", "exact-725", "separable-712",
    "exp-properties", "quasiexp-demo", "euler-hyperbolic", "euler-quaternion",
    "elliptic-nonunique", "elliptic-family", "ode-forms-cross-check",
)
# The README documents that this scenario reports FAIL by design.
EXPECTED_FAIL = ("elliptic-nonunique",)

ODE_FORMS = ("rc_left", "cr_right", "cr_left", "rc_right")


def generate(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)


def _case(cases, fn, args, size):
    cases.append({"id": f"{len(cases):03d}:{fn}:{size}", "fn": fn, "args": tuple(args),
                  "size": size})


# ---------------------------------------------------------------------------
# random quaternion / complex / real matrices with controlled conditioning


def _uniform(rng, shape, scale=1.0):
    return rng.uniform(-scale, scale, shape)


def _unitary(rng, n: int, d: int) -> np.ndarray:
    """Random n x n matrix U with rho(U) orthogonal (Gram-Schmidt over the algebra).

    Columns are orthonormalised under <u, v> = sum_i conj(u_i) v_i, with the
    projection coefficient acting on the right, which is what makes
    rho(U)^T rho(U) the identity.
    """
    u = np.zeros((n, 0, d))
    for _ in range(n):
        v = rng.normal(size=(n, d))
        for _ in range(2):  # classical Gram-Schmidt, repeated once for accuracy
            ip = hmul(conj(u), v[:, None, :]).sum(axis=0)
            v = v - hmul(u, ip[None, :, :]).sum(axis=1)
        u = np.concatenate([u, (v / np.sqrt((v ** 2).sum()))[:, None, :]], axis=1)
    return u


def _conditioned(rng, n: int, d: int, kappa: float) -> np.ndarray:
    """U rc diag(sigma) rc V with sigma from 1 down to 1/kappa, so cond2(rho) = kappa."""
    sigma = np.geomspace(1.0, 1.0 / kappa, n) if n > 1 else np.ones(1)
    diag = np.zeros((n, n, d))
    diag[np.arange(n), np.arange(n), 0] = sigma
    return rc_mul(rc_mul(_unitary(rng, n, d), diag), _unitary(rng, n, d))


def _scaled(rng, n: int, d: int, norm2: float) -> np.ndarray:
    """Uniform random matrix rescaled so that min(||rho(X)||_2, ||rho(X^T)||_2) is norm2."""
    x = _uniform(rng, (n, n, d))
    return x * (norm2 / min(np.linalg.norm(rho(x), 2), np.linalg.norm(rho(x.transpose(1, 0, 2)), 2)))


def _element(rng, d: int, norm: float, real_share: float) -> np.ndarray:
    """Element of the given norm whose real part is real_share * norm."""
    v = rng.normal(size=d - 1)
    v *= np.sqrt(1.0 - real_share ** 2) * norm / np.linalg.norm(v)
    return np.concatenate(([real_share * norm], v))


# ---------------------------------------------------------------------------
# workloads


def _scenarios(rng) -> list[dict]:
    cases = []
    for name in SCENARIO_NAMES:
        _case(cases, "cli.run_scenario", (name, ("opts", int(rng.integers(0, 2 ** 31)))), name)
    return cases


# cond2(rho(A)) of the constructed matrices. At 1e6 the library's own
# absolute residual test in solve_rc sits at the edge, so its verdict there
# changes with the seed; 1e8 is past the edge and shows the same defect on
# every seed, as well as the inverse's loss of accuracy.
REGULAR_KINDS = ("random", 1.0, 1e3, 1e8)


def _linalg_regular(rng) -> list[dict]:
    cases = []
    plan = [("quaternion", 2), ("quaternion", 4), ("quaternion", 8), ("complex", 4), ("real", 4)]
    for tag, n in plan:
        d = DIMS[tag]
        for kind in REGULAR_KINDS:
            a = _uniform(rng, (n, n, d)) if kind == "random" else _conditioned(rng, n, d, kind)
            b = _uniform(rng, (n, n, d))
            rhs = _uniform(rng, (n, d))
            size = f"{tag}-n{n}-{_kind(kind)}"
            A, B = ("mat", tag, a), ("mat", tag, b)
            _case(cases, "biring.rc_mul", (A, B), size)
            _case(cases, "biring.cr_mul", (A, B), size)
            _case(cases, "biring.rc_pow", (A, 3), size)
            _case(cases, "biring.cr_pow", (A, 3), size)
            _case(cases, "biring.rc_inv", (A,), size)
            _case(cases, "biring.cr_inv", (A,), size)
            _case(cases, "biring.solve_rc", (A, ("els", tag, rhs)), size)
            _case(cases, "biring.quasidet_rc", (A, 0, n - 1), size)
    # n = 16: products and the inverse only (the other calls cost seconds)
    for kind in REGULAR_KINDS:
        a = _uniform(rng, (16, 16, 4)) if kind == "random" else _conditioned(rng, 16, 4, kind)
        b = _uniform(rng, (16, 16, 4))
        size = f"quaternion-n16-{_kind(kind)}"
        A, B = ("mat", "quaternion", a), ("mat", "quaternion", b)
        _case(cases, "biring.rc_mul", (A, B), size)
        _case(cases, "biring.cr_mul", (A, B), size)
        _case(cases, "biring.rc_inv", (A,), size)
    return cases


def _kind(kind) -> str:
    return kind if isinstance(kind, str) else f"kappa{kind:.0e}"


DEFICIENT_FAMILIES = ("outer", "dup-column", "zero-row")


def _deficient(rng, n: int, family: str) -> np.ndarray:
    if family == "outer":  # a_ij = u_i v_j: rank 1
        u, v = _uniform(rng, (n, 4)), _uniform(rng, (n, 4))
        return hmul(u[:, None, :], v[None, :, :])
    a = _uniform(rng, (n, n, 4))
    if family == "dup-column":
        a[:, n - 1] = a[:, 0]
    else:
        a[n - 1] = 0.0
    return a


def _linalg_deficient(rng) -> list[dict]:
    from refalg import rc_rank

    cases = []
    for n in (2, 3, 4):
        for family in DEFICIENT_FAMILIES:
            a = _deficient(rng, n, family)
            k, rows, cols = rc_rank(a, SINGULAR_RTOL)
            out_rows = [r for r in range(n) if r not in rows]
            out_cols = [c for c in range(n) if c not in cols]
            size = f"quaternion-n{n}-{family}"
            A = ("mat", "quaternion", a)
            sel = ("sel", rows, cols)
            _case(cases, "biring.rc_rank", (A,), size)
            _case(cases, "biring.is_rc_singular", (A,), size)
            # first and last bordering outside the major minor
            _case(cases, "biring.bordered_quasidet", (A, sel, out_rows[0], out_cols[0]), size)
            _case(cases, "biring.bordered_quasidet", (A, sel, out_rows[-1], out_cols[-1]), size)
            _case(cases, "biring.left_dependency", (A, k, sel), size)
            _case(cases, "biring.rc_inv", (A,), size)
            _case(cases, "biring.solve_rc", (A, ("els", "quaternion", _uniform(rng, (n, 4)))), size)
            # (0, 1) has a singular interior for n >= 3; (n-1, n-1) only for outer products
            _case(cases, "biring.quasidet_rc", (A, 0, 1), size)
            _case(cases, "biring.quasidet_rc", (A, n - 1, n - 1), size)
    return cases


ELEMENT_FNS = ("exp_el", "sinh_el", "cosh_el", "sin_el", "cos_el")
# Element norm -> real parts (as shares of the norm). Each (norm, share)
# gives every one of ELEMENT_FNS the same verdict on almost every seed (in
# a scan of 450 seeds, one cell moved on a few of them; STEADINESS.md):
# cells whose verdict depends on the rounding of the random direction are
# left out, the cells that fail stay in.
ELEMENT_GRID = {
    0.5: (0.6, 0.0, -0.6),
    2.0: (0.3, 0.0, -0.6),
    5.0: (0.8, 0.3, 0.0),
    10.0: (0.6, -0.3, -0.6),
    20.0: (0.3, 0.0, -0.3),
    30.0: (0.6, -0.6),
}
MEXP_SCALES = (0.5, 1.0, 3.0, 20.0)


def _series_scale(rng) -> list[dict]:
    cases = []
    for norm, shares in ELEMENT_GRID.items():
        for share in shares:
            x = ("el", "quaternion", _element(rng, 4, norm, share))
            for fn in ELEMENT_FNS:
                _case(cases, f"series.{fn}", (x,), f"norm{norm:g}-re{share:+.1f}")
    for scale in MEXP_SCALES:
        for n in (2, 4):
            x = ("mat", "quaternion", _scaled(rng, n, 4, scale * n))
            for fn in ("mexp_rc", "mexp_cr"):
                _case(cases, f"series.{fn}", (x,), f"n{n}-scale{scale:g}")
    for order in (1, 2):
        for norm in (0.5, 2.0):
            cs = ("els", "quaternion", np.array([_element(rng, 4, 1.0, 0.3) for _ in range(order)]))
            x = ("el", "quaternion", _element(rng, 4, norm, 0.3))
            _case(cases, "series.quasiexp", (cs, x), f"order{order}-norm{norm:g}")
    # t = 2 five times, so that p90 (rank 116.1 of 130) falls among calls
    # whose cost does not depend on the seed: at t = 2 the term count is
    # fixed, while the scale-3 mexp calls just below cost 4.7-7.9 ms by seed
    for t in (0.5, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0):
        c = ("el", "quaternion", _element(rng, 4, 1.0, 0.3))
        a = ("el", "quaternion", _element(rng, 4, 1.0, 0.3))
        _case(cases, "series.quasiexp_at", (c, a, t), f"t{t:g}")
    for form in ODE_FORMS:
        ode = ("ode", form, "quaternion", _uniform(rng, (2, 2, 4), 0.5), _uniform(rng, (2, 4)))
        for t in (0.5, 1.0):
            _case(cases, "diffeq.closed_form_solution", (ode, t), f"{form}-t{t:g}")
            _case(cases, "diffeq.rk4_integrate", (ode, 1.0, RK4_STEPS, t), f"{form}-t{t:g}")
    return cases


RK4_STEPS = 1000

_BUILDERS = {
    "scenarios": _scenarios,
    "linalg-regular": _linalg_regular,
    "linalg-deficient": _linalg_deficient,
    "series-scale": _series_scale,
}

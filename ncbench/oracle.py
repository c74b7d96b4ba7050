"""Independent oracle: checks every ncalg answer against references built without ncalg.

References: Hamilton-rule products and the real representation rho for
matrix identities (refalg), the cr product by transpose duality,
``scipy.linalg.expm`` of rho for the exponentials, the Van Loan
block-bidiagonal exponential for quasiexponentials, and the classical RK4
step matrix for RK4 curves.

Tolerances are ``SAFETY * EPS * N * scale``: N is the real dimension of the
problem and ``scale`` comes from the inputs' norms and conditioning (entry
norms of the factors for products, cond2 times the inverse's norm for
inverses and solves, (1 + ||B||) ||expm(B)|| for an exponential of B).

Each answer gets one of four statuses:
    certified   value within tolerance, or the typed error the case expects
    wrong       a value the reference rejects, returned without an error
    raised      an error where a value (or another error) was expected
A non-certified answer that matches an entry of KNOWN_DEFECTS is a recorded
defect of the current library; any other one makes the run incorrect.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
from scipy.linalg import expm

import refalg as R
from cases import EXPECTED_FAIL
from refalg import SINGULAR_RTOL

SAFETY = 16.0

# Recorded defects of the library as it stands. They count against
# verified_ratio but do not make a run incorrect.
#  - The series layer sums Taylor terms without scaling its argument (ROADMAP,
#    "Scaling-and-squaring exponentials"). Beyond desk scale (||B||_2 >=
#    DESK_SCALE) it runs out of terms, and where the terms outgrow the answer
#    (e^||B|| / ||e^B|| >= CANCELLATION) the sum loses digits the problem's
#    conditioning does not.
#  - solve_rc accepts its solution by an absolute residual, 1e-8 (1 + ||b||),
#    so it refuses well-posed systems once cond2 reaches ILL_CONDITIONED
#    (ROADMAP aim 3: tolerances must scale with conditioning).
#  - The inverse is assembled from unpivoted Schur complements; its error
#    grows like cond2^2, so past ILL_CONDITIONED rc_inv, cr_inv and solve_rc
#    return answers outside the cond2-scaled tolerance (ROADMAP, "Route
#    rc_inv, is_rc_singular and solve_rc through LU or SVD on rho").
#  - For the same reason the error also grows with the pivot growth of that
#    order (see _schur_growth): a well-conditioned matrix whose trailing
#    minors are nearly singular (an orthogonal 4 x 4 real matrix with
#    |a_33| = 0.002, say) gets an inverse outside the cond2-scaled
#    tolerance.
# A wrong answer is put down to an amplification of rounding errors (pivot
# growth, or series terms outgrowing the answer below CANCELLATION) only if
# that amplification is at least MIN_AMPLIFICATION and the error stays within
# the tolerance times the amplification; a larger error is not explained.
DESK_SCALE = 15.0
CANCELLATION = 1e3
ILL_CONDITIONED = 1e4
MIN_AMPLIFICATION = 10.0
KNOWN_DEFECTS = {
    "series-budget": "series sum runs out of terms beyond desk scale (SeriesBudgetError)",
    "series-cancellation": "unscaled series sum loses accuracy where terms outgrow the answer",
    "solve-absolute-residual": "solve_rc raises SingularMatrixError on an ill-conditioned nonsingular system",
    "inverse-conditioning": "unpivoted Schur inverse loses accuracy like cond2^2 on ill-conditioned input",
    "inverse-pivot-growth": "unpivoted Schur inverse loses accuracy where its trailing minors are nearly singular",
}
INVERSE_FNS = ("biring.rc_inv", "biring.cr_inv", "biring.solve_rc")
SERIES_FNS = ("series.exp_el", "series.sinh_el", "series.cosh_el", "series.sin_el",
              "series.cos_el", "series.mexp_rc", "series.mexp_cr", "series.quasiexp",
              "series.quasiexp_at", "diffeq.closed_form_solution")


class Expect:
    """What a case should produce: an error name, an exact value, or a value within tol."""

    def __init__(self, error=None, exact=None, ref=None, tol=None, series_norm=None,
                 amplification=None, kappa=None, growth=None):
        self.error = error
        self.kappa = kappa
        self.growth = growth
        self.exact = exact
        self.ref = ref
        self.tol = tol
        self.series_norm = series_norm
        self.amplification = amplification


def _tol(n_real: int, scale: float) -> float:
    return SAFETY * R.EPS * n_real * scale


def _data(spec):
    return np.asarray(spec[2], dtype=np.float64)


def _norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _cond_inv(r: np.ndarray) -> tuple[float, float]:
    s = np.linalg.svd(r, compute_uv=False)
    return float(s[0] / s[-1]), float(1.0 / s[-1])


# ---------------------------------------------------------------------------
# biring


def _schur_growth(a) -> float:
    """Pivot growth of the library's unpivoted Schur inverse of a.

    Its first pivot order inverts the trailing minors a[k:, k:], k = 1..n-1,
    one inside the next (biring._rc_inv_raw), so an error of one rounding in
    ||rho(a)|| is amplified by up to ||rho(a)|| * ||rho(a[k:, k:])^-1||.
    """
    big = _norm2(R.rho(a))
    smallest = [np.linalg.svd(R.rho(a[k:, k:]), compute_uv=False)[-1] for k in range(1, a.shape[0])]
    return max([big / s if s > 0 else math.inf for s in smallest], default=1.0)


def _rc_inv(a):
    r = R.rho(a)
    if R.is_singular(r, SINGULAR_RTOL):
        return Expect(error="SingularMatrixError")
    kappa, inv_norm = _cond_inv(r)
    return Expect(ref=R.unrho(np.linalg.inv(r), a.shape[2]), tol=_tol(r.shape[0], kappa * inv_norm),
                  kappa=kappa, growth=_schur_growth(a))


def _quasidet(a, i, j):
    n, _, d = a.shape
    keep_r = [r for r in range(n) if r != i]
    keep_c = [c for c in range(n) if c != j]
    interior = R.rho(a[np.ix_(keep_r, keep_c)])
    if R.is_singular(interior, SINGULAR_RTOL):
        return Expect(error="QuasideterminantUndefinedError")
    row = R.rho(a[np.ix_([i], keep_c)])
    col = R.rho(a[np.ix_(keep_r, [j])])
    q = R.lmat(a[i, j]) - row @ np.linalg.solve(interior, col)
    kappa, inv_norm = _cond_inv(interior)
    scale = kappa * (np.linalg.norm(a[i, j]) + _norm2(row) * inv_norm * _norm2(col))
    return Expect(ref=q[:, 0], tol=_tol(n * d, scale),
                  growth=_schur_growth(a[np.ix_(keep_r, keep_c)]))


def expect_biring(fn, args):
    a = _data(args[0])
    n, m, d = a.shape
    if fn == "rc_mul" or fn == "cr_mul":
        b = _data(args[1])
        if fn == "rc_mul":
            ref, scale = R.rc_mul(a, b), R.entry_norms(a) @ R.entry_norms(b)
        else:
            ref, scale = R.cr_mul(a, b), R.entry_norms(b) @ R.entry_norms(a)
        return Expect(ref=ref, tol=_tol(m * d, float(scale.max())))
    if fn in ("rc_pow", "cr_pow"):
        k = args[1]
        x = a if fn == "rc_pow" else R.transpose(a)
        r = R.rho(x)
        ref = R.unrho(np.linalg.matrix_power(r, k), d)
        ref = ref if fn == "rc_pow" else R.transpose(ref)
        return Expect(ref=ref, tol=_tol(n * d * max(k, 1), _norm2(r) ** k))
    if fn == "rc_inv":
        return _rc_inv(a)
    if fn == "cr_inv":
        e = _rc_inv(R.transpose(a))
        if e.ref is not None:
            e.ref = R.transpose(e.ref)
        return e
    if fn == "is_rc_singular":
        return Expect(exact=R.is_singular(R.rho(a), SINGULAR_RTOL))
    if fn == "solve_rc":
        r = R.rho(a)
        if R.is_singular(r, SINGULAR_RTOL):
            return Expect(error="SingularMatrixError")
        b = R.rho(_data(args[1])[:, None, :])
        x = R.unrho(np.linalg.solve(r, b), d)[:, 0, :]
        kappa, _ = _cond_inv(r)
        return Expect(ref=x, tol=_tol(n * d, kappa * float(np.linalg.norm(x))), kappa=kappa,
                      growth=_schur_growth(a))
    if fn == "quasidet_rc":
        return _quasidet(a, args[1], args[2])
    if fn == "rc_rank":
        k, rows, cols = R.rc_rank(a, SINGULAR_RTOL)
        return Expect(exact=(k, ("sel", rows, cols)))
    if fn == "bordered_quasidet":
        _, srows, scols = args[1]
        p, r = args[2], args[3]
        rows = tuple(sorted(tuple(srows) + (p,)))
        cols = tuple(sorted(tuple(scols) + (r,)))
        return _quasidet(a[np.ix_(rows, cols)], rows.index(p), cols.index(r))
    if fn == "left_dependency":
        rank, (_, srows, scols) = args[1], args[2]
        if rank >= n:
            return Expect(exact=None)
        p = next(r for r in range(n) if r not in srows)
        minor = R.rho(a[np.ix_(srows, scols)])
        row_p = R.rho(a[np.ix_([p], scols)])
        coeffs = R.unrho(np.linalg.solve(minor.T, row_p.T).T, d)[0]
        lam = np.zeros((n, d))
        lam[list(srows)] = coeffs
        lam[p, 0] = -1.0
        kappa, inv_norm = _cond_inv(minor)
        return Expect(ref=lam, tol=_tol(len(srows) * d, kappa * inv_norm * _norm2(row_p)))
    raise KeyError(fn)


# ---------------------------------------------------------------------------
# series and curves: everything is an exponential of some real matrix B


def _exp_expect(ref, mats, n_real, factor=1.0):
    """Tolerance from the exponentials of the matrices in mats; ledger data too."""
    scale = max((1.0 + _norm2(b)) * _norm2(expm(b)) for b in mats)
    norm = max(_norm2(b) for b in mats)
    amplification = max(math.exp(min(_norm2(b), 700.0)) / _norm2(expm(b)) for b in mats)
    return Expect(ref=ref, tol=_tol(n_real, factor * scale), series_norm=norm,
                  amplification=amplification)


def _bidiagonal(diag, supers):
    d = diag.shape[0]
    k = len(supers) + 1
    big = np.zeros((k * d, k * d))
    for i in range(k):
        big[i * d:(i + 1) * d, i * d:(i + 1) * d] = diag
        if i < k - 1:
            big[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = supers[i]
    return big


def expect_series(fn, args):
    if fn in ("exp_el", "sinh_el", "cosh_el", "sin_el", "cos_el"):
        x = _data(args[0])
        d = x.shape[0]
        lx = R.lmat(x)
        if fn == "exp_el":
            return _exp_expect(expm(lx)[:, 0], [lx], d)
        if fn in ("sinh_el", "cosh_el"):
            ep, em = expm(lx)[:, 0], expm(-lx)[:, 0]
            ref = (ep - em) / 2 if fn == "sinh_el" else (ep + em) / 2
            return _exp_expect(ref, [lx, -lx], d)
        b = np.block([[np.zeros((d, d)), lx], [-lx, np.zeros((d, d))]])
        e = expm(b)
        ref = e[:d, d:][:, 0] if fn == "sin_el" else e[:d, :d][:, 0]
        return _exp_expect(ref, [b], 2 * d)
    if fn in ("mexp_rc", "mexp_cr"):
        x = _data(args[0])
        x = x if fn == "mexp_rc" else R.transpose(x)
        r = R.rho(x)
        ref = R.unrho(expm(r), x.shape[2])
        return _exp_expect(ref if fn == "mexp_rc" else R.transpose(ref), [r], r.shape[0])
    if fn == "quasiexp":
        cs, x = _data(args[0]), _data(args[1])
        d = x.shape[0]
        k = len(cs)
        mats, ref = [], np.zeros(d)
        for order in permutations(range(k)):
            b = _bidiagonal(R.lmat(x), [R.lmat(cs[i]) for i in order])
            ref = ref + expm(b)[:d, k * d:][:, 0]
            mats.append(b)
        return _exp_expect(ref, mats, (k + 1) * d, factor=math.factorial(k))
    if fn == "quasiexp_at":
        c, a, t = _data(args[0]), _data(args[1]), args[2]
        d = c.shape[0]
        b = _bidiagonal(t * R.lmat(a), [R.lmat(c)])
        return _exp_expect(expm(b)[:d, d:][:, 0], [b], 2 * d)
    raise KeyError(fn)


def ode_matrix(form: str, a: np.ndarray) -> np.ndarray:
    """The system x' = (a, x) of one product form as a real linear map."""
    n, _, d = a.shape
    m = np.zeros((n * d, n * d))
    for i in range(n):
        for j in range(n):
            block = {"rc_left": R.lmat(a[i, j]), "cr_right": R.rmat(a[i, j]),
                     "cr_left": R.lmat(a[j, i]), "rc_right": R.rmat(a[j, i])}[form]
            m[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
    return m


def expect_curve(fn, args):
    _, form, _, a, init = args[0]
    a, init = np.asarray(a), np.asarray(init)
    n, d = init.shape
    m = ode_matrix(form, a)
    x0 = init.reshape(-1)
    if fn == "closed_form_solution":
        t = args[1]
        e = _exp_expect(None, [t * m], n * d)
        e.ref = (expm(t * m) @ x0).reshape(n, d)
        e.tol *= float(np.linalg.norm(x0))
        return e
    t_end, steps, t = args[1], args[2], args[3]
    h_target = abs(t_end) / steps
    nsteps = max(1, math.ceil(abs(t) / h_target))
    hm = (t / nsteps) * m
    hm2 = hm @ hm
    phi = np.eye(n * d) + hm + hm2 / 2 + hm2 @ hm / 6 + hm2 @ hm2 / 24  # one classical RK4 step
    ref = (np.linalg.matrix_power(phi, nsteps) @ x0).reshape(n, d)
    scale = (1.0 + math.log2(nsteps)) * _norm2(phi) ** nsteps * float(np.linalg.norm(x0))
    return Expect(ref=ref, tol=_tol(n * d, scale))


def expect(case) -> Expect:
    module, fn = case["fn"].split(".")
    if module == "biring":
        return expect_biring(fn, case["args"])
    if module == "series":
        return expect_series(fn, case["args"])
    if module == "diffeq":
        return expect_curve(fn, case["args"])
    if module == "cli":
        return Expect(exact=case["args"][0] not in EXPECTED_FAIL)
    raise KeyError(case["fn"])


# ---------------------------------------------------------------------------
# verdicts


def _exact_equal(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_exact_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, (bool, np.bool_)) or isinstance(b, (bool, np.bool_)):
        return isinstance(a, (bool, np.bool_)) and isinstance(b, (bool, np.bool_)) and bool(a) == bool(b)
    return a == b


def error_ratio(e: Expect, answer) -> float:
    """Largest entry error of the answer over the tolerance (inf if malformed)."""
    ans = np.asarray(answer, dtype=np.float64) if answer is not None else None
    if ans is None or ans.shape != np.shape(e.ref) or not np.all(np.isfinite(ans)):
        return math.inf
    diff = ans - e.ref
    err = float(np.sqrt((diff ** 2).sum(axis=-1)).max()) if diff.size else 0.0
    if err == 0.0:
        return 0.0
    return err / e.tol if e.tol > 0 else math.inf


def check(case, e: Expect, err: str | None, answer) -> tuple[str, float]:
    """Status of one answer and its error ratio (0 for exact or typed-error cases)."""
    if e.error is not None:
        if err == e.error:
            return "certified", 0.0
        return ("raised", 0.0) if err is not None else ("wrong", math.inf)
    if err is not None:
        return "raised", 0.0
    if e.ref is None:
        return ("certified", 0.0) if _exact_equal(answer, e.exact) else ("wrong", math.inf)
    ratio = error_ratio(e, answer)
    return ("certified" if ratio <= 1.0 else "wrong"), ratio


def known_defect(case, e: Expect, status: str, err: str | None,
                 ratio: float = math.inf) -> str | None:
    """Name of the KNOWN_DEFECTS entry covering a non-certified answer, if any.

    ratio is the answer's error over its tolerance (check's second value).
    """
    if case["fn"] in INVERSE_FNS and e.kappa is not None and e.kappa >= ILL_CONDITIONED:
        if status == "raised" and err == "SingularMatrixError" and case["fn"] == "biring.solve_rc":
            return "solve-absolute-residual"
        if status == "wrong":
            return "inverse-conditioning"
    if status == "wrong" and e.growth is not None and _explained(ratio, e.growth):
        return "inverse-pivot-growth"
    if case["fn"] not in SERIES_FNS or e.series_norm is None:
        return None
    if status == "raised" and err == "SeriesBudgetError" and e.series_norm >= DESK_SCALE:
        return "series-budget"
    if status == "wrong" and (e.amplification >= CANCELLATION
                              or _explained(ratio, e.amplification)):
        return "series-cancellation"
    return None


def _explained(ratio: float, amplification: float) -> bool:
    return amplification >= MIN_AMPLIFICATION and ratio <= amplification

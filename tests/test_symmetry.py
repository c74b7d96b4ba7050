"""Symmetry oracles for the complex-slice maps of ncalg.series, and for matrix products, powers and exponentials.

Every map here is a power series in its argument and, for the
quasiexponent, a sum over words in x and the directions, so it commutes
with each symmetry of the algebra:

- an inner automorphism sigma_q(h) = q h q^-1 of H, q a unit, maps
  quasiexp(cs, x) to quasiexp(sigma_q(cs), sigma_q(x)), and exp_el(x) to
  exp_el(sigma_q(x)), and so on;
- conjugation reverses every word, so it maps quasiexp([c_1..c_n], x) to
  quasiexp([conj c_n..conj c_1], conj x);
- the embedding of C into H as a + b i maps each map over C to the same
  map over H.

The slice code reads x as a + theta u and splits each direction along u,
so a wrong side or a wrong product order in it breaks one of these at the
first digit. Each pair is judged with algebra.close at rtol 1e-13, about
450 units of roundoff.

The matrix maps rc_mul, cr_mul, rc_pow, cr_pow, mexp_rc and mexp_cr are
sums of words in the entries, so sigma_q and the embedding, applied to
every entry, commute with each of them. Conjugation reverses every word,
so it maps a rc b to conj(b) cr conj(a), a cr b to conj(b) rc conj(a),
rc powers and exponentials of a to the cr ones of conj(a). The cr
routines run the rc core on the transposed array, and a wrong side there
misses these by a gap of order one. Matrices of n = 1 to 5 at entry norms
0.1 to 3 are judged, as a whole, with algebra.close at rtol 1e-13 too.

The stacked curve routes, diffeq._closed_form_states and _rk4_states,
read the states of x' = a x in each product form. sigma_q, applied to a
and x(0), maps each form's states to sigma_q of them. Conjugation maps
x' = a rc x to x̄' = x̄ cr ā, so the rc-left states of (a, x0) to the
cr-right states of (ā, x̄0); the real matrix of the one is that of the
other with the signs of the imaginary coordinates flipped on both sides,
and a sign flip commutes with every rounding, so the states agree byte
for byte.

Inverses, quasideterminants and solves are rational in the entries, so
sigma_q and the embedding commute with rc_inv, quasidets_rc and solve_rc,
and conjugation maps rc_inv(a) to cr_inv(conj a) and quasidet_rc(a, i, j)
to quasidet_cr(conj a, i, j). Their rounding grows with the conditioning
of a, so each pair is judged at COND_MULTIPLE units of roundoff u times
cond2(rho(a)); rc_rank's rank is invariant under sigma_q, and the minor
its selector picks stays rc-nonsingular in sigma_q(a).

Every CLI scenario that draws is a check of what it draws, and each of
the six draws over H. sigma_q, applied to every drawn quaternion array,
maps each statement to itself, so every verdict, and every exit code, is
that of the unmapped draw. The five that draw in the algebra they are
given take a draw over C, embedded in H with two zero coefficients, as a
draw over H whose statement still holds, so each of their verdicts over H
is true.
"""

import dataclasses

import numpy as np
import pytest

from ncalg import _kernels, cli, diffeq
from ncalg.algebra import Element, _mul_rows, close, make_algebra, random_element
from ncalg.biring import (BiMatrix, cr_inv, cr_mul, cr_pow, is_rc_singular, quasidet_cr, quasidet_rc, quasidets_rc,
                          random_matrix, rc_inv, rc_mul, rc_pow, rc_rank, solve_rc, submatrix)
from ncalg.diffeq import OdeForm
from ncalg.series import cosh_el, exp_el, mexp_cr, mexp_rc, quasiexp, quasiexp_at, sin_el

RTOL = 1e-13
DRAWS = 40
HH = make_algebra("quaternion")
CC = make_algebra("complex")


def _unit(rng) -> Element:
    q = random_element(HH, rng)
    return q * (1.0 / q.norm())


def _draws(seed: int, n: int):
    """DRAWS of (q, x, directions) over H: a unit q, x at norms 1e-3 to 20 and n directions."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        q = _unit(rng)
        x = random_element(HH, rng, 10.0 ** rng.uniform(-3.0, 1.3))
        yield q, x, [random_element(HH, rng, 10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(n)]


def _close(got: Element, want: Element) -> None:
    assert got.close(want, RTOL), (got, want)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_inner_automorphisms_commute_with_quasiexp(order):
    for q, x, cs in _draws(order, order):
        sigma = lambda h: q * h * q.inv()  # noqa: E731
        _close(quasiexp([sigma(c) for c in cs], sigma(x)), sigma(quasiexp(cs, x)))


def test_inner_automorphisms_commute_with_quasiexp_at():
    for q, a, (c,) in _draws(4, 1):
        sigma = lambda h: q * h * q.inv()  # noqa: E731
        for t in (-1.5, 0.25, 2.0):
            _close(quasiexp_at(sigma(c), sigma(a), t), sigma(quasiexp_at(c, a, t)))


@pytest.mark.parametrize("f", [exp_el, sin_el, cosh_el])
def test_inner_automorphisms_commute_with_the_element_maps(f):
    for q, x, _ in _draws(5, 0):
        _close(f(q * x * q.inv()), q * f(x) * q.inv())


@pytest.mark.parametrize("order", [1, 2, 3])
def test_conjugation_reverses_the_directions_of_quasiexp(order):
    for _, x, cs in _draws(10 + order, order):
        _close(quasiexp([c.conj() for c in reversed(cs)], x.conj()), quasiexp(cs, x).conj())


def _embed(z: Element) -> Element:
    return Element(HH, [*z.coeffs, 0.0, 0.0])


@pytest.mark.parametrize("order", [1, 2])
def test_the_embedding_of_c_in_h_commutes_with_quasiexp(order):
    rng = np.random.default_rng(20 + order)
    for _ in range(DRAWS):
        x = random_element(CC, rng, 10.0 ** rng.uniform(-3.0, 1.3))
        cs = [random_element(CC, rng, 10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(order)]
        _close(quasiexp([_embed(c) for c in cs], _embed(x)), _embed(quasiexp(cs, x)))


# ---------------------------------------------------------------------------
# matrix products, powers and exponentials

MATRIX_MAPS = {
    "rc_mul": lambda a, b: rc_mul(a, b),
    "cr_mul": lambda a, b: cr_mul(a, b),
    "rc_pow": lambda a, b: rc_pow(a, 3),
    "cr_pow": lambda a, b: cr_pow(a, 3),
    "mexp_rc": lambda a, b: mexp_rc(a),
    "mexp_cr": lambda a, b: mexp_cr(a),
}
# conj(f(a, b)) = g(conj a, conj b), with g named and its arguments in order
CONJUGATES = {
    "rc_mul": lambda a, b: cr_mul(b, a),
    "cr_mul": lambda a, b: rc_mul(b, a),
    "rc_pow": lambda a, b: cr_pow(a, 3),
    "cr_pow": lambda a, b: rc_pow(a, 3),
    "mexp_rc": lambda a, b: mexp_cr(a),
    "mexp_cr": lambda a, b: mexp_rc(a),
}


def _matrix_draws(seed: int, alg=HH):
    """DRAWS of (q, a, b): a unit q of H and two n x n matrices over alg, n = 1 to 5, entries at norms 0.1 to 3."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        n = int(rng.integers(1, 6))
        q = _unit(rng)
        yield q, *(random_matrix(alg, n, n, rng, 10.0 ** rng.uniform(-1.0, 0.5)) for _ in range(2))


def _entrywise(f, a: BiMatrix) -> BiMatrix:
    return BiMatrix.from_elements([[f(a.entry(i, j)) for j in range(a.cols)] for i in range(a.rows)])


def _close_matrices(got: BiMatrix, want: BiMatrix) -> None:
    assert got.close(want, RTOL), (got.data, want.data)


@pytest.mark.parametrize("name", sorted(MATRIX_MAPS))
def test_inner_automorphisms_commute_with_the_matrix_maps(name):
    f = MATRIX_MAPS[name]
    for q, a, b in _matrix_draws(30):
        sigma = lambda m: _entrywise(lambda h: q * h * q.inv(), m)  # noqa: E731
        _close_matrices(f(sigma(a), sigma(b)), sigma(f(a, b)))


@pytest.mark.parametrize("name", sorted(MATRIX_MAPS))
def test_conjugation_maps_each_matrix_map_to_its_dual(name):
    f, g = MATRIX_MAPS[name], CONJUGATES[name]
    for _, a, b in _matrix_draws(31):
        conj = lambda m: _entrywise(Element.conj, m)  # noqa: E731
        _close_matrices(g(conj(a), conj(b)), conj(f(a, b)))


@pytest.mark.parametrize("name", sorted(MATRIX_MAPS))
def test_the_embedding_of_c_in_h_commutes_with_the_matrix_maps(name):
    f = MATRIX_MAPS[name]
    for _, a, b in _matrix_draws(32, CC):
        embed = lambda m: _entrywise(_embed, m)  # noqa: E731
        _close_matrices(f(embed(a), embed(b)), embed(f(a, b)))


# ---------------------------------------------------------------------------
# the stacked curve routes of the linear systems

CURVE_TIMES = np.array([0.0, 0.3, 0.5, 1.0])
# RK4's rounding doubles with each squaring of its step matrix, so it grows
# with the step count: sigma_q's worst relative gap over 40 draws read
# 1.2e-14 at 100 steps to t = 1, 1.2e-13 at 1000 and 1.1e-12 at 10 000
ROUTES = {"closed-form": diffeq._closed_form_states,
          "rk4": lambda m, x0, ts: diffeq._rk4_states(m, x0, ts, diffeq._rk4_step_target(1.0, 100))}


def _conj(coeffs: np.ndarray) -> np.ndarray:
    """The conjugate of every element of an array of H coefficients, on its last axis."""
    return coeffs * np.array([1.0, -1.0, -1.0, -1.0])


def _curve_draws(seed: int):
    """DRAWS of (q, a, x0): a unit q of H, the coefficients of a 2 x 2 H matrix a at entry norms 0.1 to 3, and x0's."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        q = _unit(rng)
        a = random_matrix(HH, 2, 2, rng, 10.0 ** rng.uniform(-1.0, 0.5)).data
        yield q, a, rng.uniform(-1.0, 1.0, (2, HH.dim))


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_conjugation_maps_rc_left_states_to_cr_right_states(route):
    states = ROUTES[route]
    for _, a, x0 in _curve_draws(40):
        m = np.stack([diffeq._real_matrices(HH, a, OdeForm.RC_LEFT),
                      diffeq._real_matrices(HH, _conj(a), OdeForm.CR_RIGHT)])
        got = states(m, np.stack([x0, _conj(x0)]).reshape(2, -1), CURVE_TIMES).reshape(2, len(CURVE_TIMES), 2, HH.dim)
        assert _conj(got[0]).tobytes() == got[1].tobytes()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_inner_automorphisms_commute_with_the_curve_routes(route):
    states = ROUTES[route]
    for q, a, x0 in _curve_draws(41):
        sigma = lambda c: np.array([(q * Element(HH, row) * q.inv()).coeffs  # noqa: E731
                                    for row in c.reshape(-1, HH.dim)]).reshape(c.shape)
        forms = list(OdeForm)
        m = np.concatenate([diffeq._real_matrices(HH, np.stack([a, sigma(a)]), form) for form in forms])
        x0s = np.stack([x0, sigma(x0)] * len(forms)).reshape(2 * len(forms), -1)
        got = states(m, x0s, CURVE_TIMES).reshape(len(forms), 2, len(CURVE_TIMES), 2, HH.dim)
        for form, (plain, mapped) in zip(forms, got):
            for t, want, state in zip(CURVE_TIMES, sigma(plain), mapped):
                assert close(state, want, RTOL), (form, t)


# ---------------------------------------------------------------------------
# inverses, quasideterminants, solves and rank

# each gap is judged at this many units of roundoff times cond2(rho(a)): over
# 400 draws of n = 1 to 5 the worst read 3.9 (sigma_q, rc_inv), 2.6 (sigma_q,
# solve_rc), 1.7 (sigma_q, quasidets_rc), 0.98 (conjugation) and 0.46 (the embedding)
COND_MULTIPLE = 64
SOLVERS = {
    "rc_inv": lambda a, b: rc_inv(a),
    "quasidets_rc": lambda a, b: quasidets_rc(a),
    "solve_rc": lambda a, b: BiMatrix.from_elements([[x] for x in solve_rc(a, [b.entry(i, 0) for i in range(b.rows)])]),
}


def _rtol(a: BiMatrix) -> float:
    return COND_MULTIPLE * np.finfo(float).eps / 2 * np.linalg.cond(_kernels.rho(a.algebra.table, a.data))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_inner_automorphisms_commute_with_inverses_quasideterminants_and_solves(name):
    f = SOLVERS[name]
    for q, a, b in _matrix_draws(50):
        sigma = lambda m: _entrywise(lambda h: q * h * q.inv(), m)  # noqa: E731
        got, want = f(sigma(a), sigma(b)), sigma(f(a, b))
        assert got.close(want, _rtol(a)), (got.data, want.data)


def test_conjugation_maps_rc_inv_to_cr_inv():
    for _, a, _ in _matrix_draws(51):
        conj = lambda m: _entrywise(Element.conj, m)  # noqa: E731
        assert cr_inv(conj(a)).close(conj(rc_inv(a)), _rtol(a))


def test_conjugation_maps_quasidet_rc_to_quasidet_cr():
    for _, a, _ in _matrix_draws(52):
        n, ca = a.rows, _entrywise(Element.conj, a)
        got = BiMatrix.from_elements([[quasidet_cr(ca, i, j) for j in range(n)] for i in range(n)])
        want = BiMatrix.from_elements([[quasidet_rc(a, i, j).conj() for j in range(n)] for i in range(n)])
        assert got.close(want, _rtol(a)), (got.data, want.data)


def test_the_embedding_of_c_in_h_commutes_with_rc_inv():
    for _, a, _ in _matrix_draws(53, CC):
        embed = lambda m: _entrywise(_embed, m)  # noqa: E731
        assert rc_inv(embed(a)).close(embed(rc_inv(a)), _rtol(a))


def test_inner_automorphisms_keep_the_rank_and_the_selected_minor():
    """Products of m x r and r x n matrices, m and n of 1 to 5 and r of 0 to both, have rank r."""
    rng = np.random.default_rng(54)
    for _ in range(DRAWS):
        m, n = (int(k) for k in rng.integers(1, 6, 2))
        r = int(rng.integers(0, min(m, n) + 1))
        q = _unit(rng)
        a = rc_mul(random_matrix(HH, m, r, rng), random_matrix(HH, r, n, rng))
        mapped = _entrywise(lambda h: q * h * q.inv(), a)
        rank, sel = rc_rank(a)
        mapped_rank, mapped_sel = rc_rank(mapped)
        assert rank == mapped_rank == r, (rank, mapped_rank, r)
        assert len(mapped_sel.rows) == len(mapped_sel.cols) == r
        if r:
            assert not is_rc_singular(submatrix(mapped, sel.rows, sel.cols)), sel


# two units: q = (1 + i - j + k)/2, exact, and 0.6 + 0.8 j, a unit to rounding
SCENARIO_UNITS = {"half": np.array([0.5, 0.5, -0.5, 0.5]), "j-turn": np.array([0.6, 0.0, 0.8, 0.0])}


def _mapped(q: np.ndarray, inputs: dict) -> dict:
    """inputs with every quaternion array x, entry by entry, mapped to q x conj(q)."""
    conj_q = q * HH._conj
    return {key: _mul_rows(HH, _mul_rows(HH, q, x), conj_q) if x.shape[-1] == HH.dim else x
            for key, x in inputs.items()}


@pytest.mark.parametrize("unit", sorted(SCENARIO_UNITS))
@pytest.mark.parametrize("name", sorted(name for name, s in cli.SCENARIOS.items() if s.draw))
def test_inner_automorphisms_keep_every_drawing_scenarios_verdict(capsys, monkeypatch, name, unit):
    q, s = SCENARIO_UNITS[unit], cli.SCENARIOS[name]
    drawn = s.draw(HH, np.random.default_rng(0))
    assert any(not np.allclose(x, y) for x, y in zip(drawn.values(), _mapped(q, drawn).values()))
    seeds = [str(seed) for seed in range(8)]
    plain = [cli.main(["run", name, "--seed", seed]) for seed in seeds]
    monkeypatch.setitem(cli.SCENARIOS, name, dataclasses.replace(s, draw=lambda alg, rng: _mapped(q, s.draw(alg, rng))))
    mapped = [cli.main(["run", name, "--seed", seed]) for seed in seeds]
    capsys.readouterr()
    assert mapped == plain


# every drawing scenario, since each draw follows the algebra given
EMBEDDABLE = ("exp-properties", "ode-forms-cross-check", "quasidet-2x2", "quasiexp-demo", "rank-demo",
              "solve-quaternion-system")


@pytest.mark.parametrize("name", EMBEDDABLE)
def test_the_embedding_of_c_in_h_keeps_every_drawing_scenarios_verdict(name):
    # drawn over C and then embedded: zeroing the j and k parts of an H draw is
    # no embedding, since it breaks rank-demo's products u_i v_j
    s = cli.SCENARIOS[name]
    assert (s.algebra or cli.Options.algebra) == "quaternion"
    verdicts = {}
    for seed in range(64):
        drawn = s.draw(CC, np.random.default_rng(seed))
        embedded = {key: np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, 2)]) for key, x in drawn.items()}
        verdicts[seed] = s.check(HH, embedded).verdict
    assert verdicts == dict.fromkeys(range(64), True)

"""Symmetry oracles for the complex-slice maps of ncalg.series.

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
"""

import numpy as np
import pytest

from ncalg.algebra import Element, make_algebra, random_element
from ncalg.series import cosh_el, exp_el, quasiexp, quasiexp_at, sin_el

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

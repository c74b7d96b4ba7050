"""The real-representation kernels on stacks: each member as if alone."""

import numpy as np
import pytest

from ncalg import _kernels
from ncalg.algebra import make_algebra

STACK = 5
SIZES = (1, 2, 3, 4)


def _members_equal(stacked, single, *stacks):
    """stacked(*stacks)[k] has the bytes of single(*(s[k] for s in stacks)) for every k."""
    got = stacked(*stacks)
    assert got.shape[0] == STACK
    for k in range(STACK):
        want = single(*(s[k] for s in stacks))
        assert got[k].shape == want.shape
        assert got[k].tobytes() == np.ascontiguousarray(want).tobytes(), k


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_rho_and_unrho_of_a_stack_match_each_member(tag):
    alg = make_algebra(tag)
    table, d = alg.table, alg.dim
    rng = np.random.default_rng(3)
    for m in SIZES:
        for n in SIZES:
            a = rng.normal(size=(STACK, m, n, d))
            _members_equal(lambda x: _kernels.rho(table, x), lambda x: _kernels.rho(table, x), a)
            r = rng.normal(size=(STACK, m * d, n * d))
            _members_equal(lambda x: _kernels.unrho(table, x), lambda x: _kernels.unrho(table, x), r)
            # on the image of rho, unrho inverts it
            assert np.abs(_kernels.unrho(table, _kernels.rho(table, a)) - a).max() <= 1e-15


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_contractions_of_a_stack_match_each_member(tag):
    alg = make_algebra(tag)
    table, d = alg.table, alg.dim
    rng = np.random.default_rng(4)
    for m in SIZES:
        for p in SIZES:
            for n in SIZES:
                a = rng.normal(size=(STACK, m, p, d))
                b = rng.normal(size=(STACK, p, n, d))
                rc = _kernels.rc_contract
                _members_equal(lambda x, y: rc(table, x, y), lambda x, y: rc(table, x, y), a, b)
                # cr takes an (m, p) and an (n, m) matrix and gives an (n, p) one
                c = rng.normal(size=(STACK, n, m, d))
                cr = _kernels.cr_contract
                _members_equal(lambda x, y: cr(table, x, y), lambda x, y: cr(table, x, y), a, c)


def _rk4_steps(m, x0, t, steps):
    """Classical RK4 on x' = m x, one k1..k4 step at a time."""
    h, x = t / steps, x0.copy()
    for _ in range(steps):
        k1 = m @ x
        k2 = m @ (x + h / 2 * k1)
        k3 = m @ (x + h / 2 * k2)
        k4 = m @ (x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


@pytest.mark.parametrize("steps", [1, 7, 100, 1000])
def test_rk4_linear_is_the_stepwise_rk4(steps):
    rng = np.random.default_rng(6)
    for n in (1, 4, 8):
        m = rng.normal(size=(n, n))
        x0 = rng.normal(size=n)
        for t in (-0.7, 0.5, 2.0):
            want = _rk4_steps(m, x0, t, steps)
            got = _kernels.rk4_linear(m, x0, t, steps)
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max(), (n, t)

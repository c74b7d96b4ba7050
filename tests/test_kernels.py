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


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_rk4_linear_of_a_stack_of_times_matches_each_member(tag):
    d = make_algebra(tag).dim
    rng = np.random.default_rng(7)
    ts = np.array([0.0, 1e-5, -0.7, 0.5, 2.0, 2.0, 3.5])
    steps = np.array([1, 1, 7, 100, 1000, 10_000, 3])
    for n in SIZES:
        m = rng.normal(size=(n * d, n * d))
        x0 = rng.normal(size=n * d)
        got = _kernels.rk4_linear(m, x0, ts, steps)
        assert got.shape == (len(ts), n * d)
        for t, k, out in zip(ts, steps, got):
            assert out.tobytes() == _kernels.rk4_linear(m, x0, float(t), int(k)).tobytes(), (n, t, k)


def test_rk4_linear_squarings_a_member_skips_do_not_warn():
    # one step of h = 1 on x' = 40 x gives about 1e5; the 10_000-step member
    # squares that step matrix 13 times, far past overflow, and never reads it
    m = np.array([[40.0]])
    x0 = np.array([1.0])
    got = _kernels.rk4_linear(m, x0, np.array([1.0, 1e-3]), np.array([1, 10_000]))
    assert got[0].tobytes() == _kernels.rk4_linear(m, x0, 1.0, 1).tobytes()
    assert got[1].tobytes() == _kernels.rk4_linear(m, x0, 1e-3, 10_000).tobytes()


def test_rk4_linear_of_a_stack_returns_an_overflowing_member_non_finite():
    m = np.array([[0.0, 50.0], [-50.0, 0.0]])
    x0 = np.array([0.0, 1.0])
    got = _kernels.rk4_linear(m, x0, np.array([0.5, 100.0]), np.array([1, 100]))
    assert got[0].tobytes() == _kernels.rk4_linear(m, x0, 0.5, 1).tobytes()
    assert not np.isfinite(got[1]).all()


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
def test_rk4_linear_of_a_stack_of_systems_matches_each_member(tag):
    d = make_algebra(tag).dim
    rng = np.random.default_rng(11)
    ts = np.array([1e-5, -0.7, 0.5, 2.0, 2.0, 3.5])
    steps = np.array([1, 7, 100, 1000, 10_000, 3])
    for n in SIZES:
        ms = rng.normal(size=(len(ts), n * d, n * d))
        x0s = rng.normal(size=(len(ts), n * d))
        # per-member systems and initial vectors, and each one shared by the stack
        for m, x0 in ((ms, x0s), (ms, x0s[0]), (ms[0], x0s)):
            got = _kernels.rk4_linear(m, x0, ts, steps)
            assert got.shape == (len(ts), n * d)
            for i, (t, k) in enumerate(zip(ts, steps)):
                want = _kernels.rk4_linear(m if m.ndim == 2 else m[i], x0 if x0.ndim == 1 else x0[i], float(t), int(k))
                assert got[i].tobytes() == want.tobytes(), (n, t, k)

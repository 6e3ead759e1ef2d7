import math

import numpy as np
import pytest

from ergharvest.errors import SingularIntegrationError
from ergharvest.ivp import hermite_interp, integrate


def test_gaussian_decay_both_directions():
    # y' = -2 x y has solution exp(-x^2); integrate away from 0 and back.
    f = lambda x, y: -2.0 * x * y
    fwd = integrate(f, 0.0, 1.0, 2.0, rtol=1e-11, atol=1e-13)
    assert fwd.status == "reached"
    assert fwd.ys[-1] == pytest.approx(math.exp(-4.0), rel=1e-9)
    back = integrate(f, 2.0, math.exp(-4.0), 0.5, rtol=1e-11, atol=1e-13)
    assert back.ys[-1] == pytest.approx(math.exp(-0.25), rel=1e-9)


def test_forced_nodes_are_hit_exactly():
    f = lambda x, y: y
    nodes = np.array([0.9, 0.5, 0.1])
    res = integrate(f, 1.0, 1.0, 0.05, forced_nodes=nodes, rtol=1e-12,
                    atol=1e-14)
    for node in nodes:
        assert node in res.xs
    table = dict(zip(res.xs, res.ys))
    for node in nodes:
        assert table[node] == pytest.approx(math.exp(node - 1.0), rel=1e-10)

    # Repeats, the end points and a step's own end must each give one node:
    # a node recorded twice is a zero-width Hermite segment.
    step_end = integrate(f, 1.0, 1.0, 0.05, rtol=1e-12, atol=1e-14).xs[2]
    awkward = [0.5, 0.9, 0.5, 1.0, 0.05, step_end, step_end, 2.0, 0.01]
    res = integrate(f, 1.0, 1.0, 0.05, forced_nodes=awkward, rtol=1e-12,
                    atol=1e-14)
    assert np.all(np.diff(res.xs) < 0.0)
    assert res.xs[0] == 1.0 and res.xs[-1] == 0.05
    for node in (0.9, 0.5, step_end):
        assert np.count_nonzero(res.xs == node) == 1
    assert 2.0 not in res.xs and 0.01 not in res.xs
    assert np.allclose(res.ys, np.exp(res.xs - 1.0), rtol=1e-10, atol=0.0)


def test_dip_stop_and_crossing_refinement():
    # y = 2 - x crosses 1 at x = 1; stop fires once y < 0.9.
    f = lambda x, y: -1.0
    res = integrate(f, 0.0, 2.0, 3.0, dip_level=0.9, crossing_level=1.0)
    assert res.status == "dip"
    assert res.crossing_x == pytest.approx(1.0, abs=1e-10)

    # The crossing is one node, at the crossing level, between the forced
    # nodes of its step.
    res = integrate(f, 0.0, 2.0, 3.0, dip_level=0.9, crossing_level=1.0,
                    forced_nodes=[0.5, 0.999, 1.0, 1.001])
    assert np.all(np.diff(res.xs) > 0.0)
    assert np.count_nonzero(res.xs == res.crossing_x) == 1
    assert res.ys[res.xs == res.crossing_x][0] == 1.0
    assert res.ys[-1] < 0.9


def test_guard_stop():
    f = lambda x, y: y
    res = integrate(f, 0.0, 1.0, 100.0, guard=1e6)
    assert res.status == "guard"
    assert abs(res.ys[-1]) > 1e6
    assert res.xs[-1] < 100.0


def test_failed_step_raises_with_last_state():
    # y' = -y, but the rhs is NaN past x = 0.5: the step size underflows
    # short of it, and the error carries the last accepted state.
    f = lambda x, y: math.nan if x > 0.5 else -y
    with pytest.raises(SingularIntegrationError) as err:
        integrate(f, 0.0, 1.0, 1.0)
    assert err.value.last_x <= 0.5
    assert err.value.last_x > 0.4
    assert err.value.last_y == pytest.approx(math.exp(-err.value.last_x),
                                             rel=1e-9)


def test_records_start_state():
    f = lambda x, y: 0.0
    res = integrate(f, 1.0, 5.0, 2.0)
    assert res.xs[0] == 1.0
    assert res.ys[0] == 5.0
    assert np.all(np.diff(res.xs) > 0.0)


def test_hermite_interp_reproduces_a_cubic_and_clamps():
    cubic = lambda x: 2.0 * x ** 3 - x ** 2 + 0.5 * x - 3.0
    dcubic = lambda x: 6.0 * x ** 2 - 2.0 * x + 0.5
    xs = np.array([-1.0, -0.3, 0.2, 1.1, 2.0])
    ys, dys = cubic(xs), dcubic(xs)
    x = np.linspace(-1.0, 2.0, 301)
    assert np.allclose(hermite_interp(xs, ys, dys, x), cubic(x),
                       rtol=0.0, atol=1e-13)
    assert np.array_equal(hermite_interp(xs, ys, dys, xs), ys)
    outside = hermite_interp(xs, ys, dys, np.array([-5.0, -1.0001, 2.5]))
    assert outside.tolist() == [ys[0], ys[0], ys[-1]]

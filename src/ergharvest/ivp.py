"""Scalar initial-value integration on scipy's DOP853, and Hermite cubics.

``integrate`` steps scipy's ``DOP853`` solver class one accepted step at a
time, which is what the shooting cross-checks need beyond ``solve_ivp``:

* forced nodes: each requested abscissa is recorded once, with its value
  read off the dense output of the step that covers it;
* level stops: integration halts after the first accepted step that ends
  below a dip level or outside a guard band; on a dip, the crossing of a
  second level is found by ``brentq`` on its step's dense output and
  recorded as a node;
* failures: a step the solver cannot take raises
  ``SingularIntegrationError`` carrying the last accepted state.

Integration may run in either direction: ``shooting.integrate_slope``
steps down from a boundary, or up from it.  ``hermite_eval`` and
``hermite_interp`` are the piecewise cubic the potential interpolates with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .errors import SingularIntegrationError


@dataclass
class IntegrationResult:
    """Accepted nodes (including forced ones) of one integration run.

    ``status`` is one of ``reached`` (hit x_end), ``dip`` (solution fell
    below the dip level) or ``guard`` (left the guard band).  On a dip stop,
    ``crossing_x`` is where the solution first crossed ``crossing_level``,
    and (crossing_x, crossing_level) is one of the nodes.  A table of
    ``shooting.cole_hopf_slope`` (the linear form) that ends in a dip has as
    ``crossing_x`` the first output node at or below the zero of the base
    function; it is not a row of the table.
    """

    xs: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    status: str
    crossing_x: float | None = None


def hermite_eval(x, x0, y0, d0, x1, y1, d1):
    """Cubic Hermite value at x for the segment (x0,y0,d0)-(x1,y1,d1)."""
    h = x1 - x0
    t = (x - x0) / h
    u = 1.0 - t
    return (y0 * (1.0 + 2.0 * t) * u * u + d0 * h * t * u * u
            + y1 * t * t * (3.0 - 2.0 * t) + d1 * h * t * t * (t - 1.0))


def hermite_interp(xs, ys, dys, x):
    """Piecewise cubic Hermite interpolant on ascending nodes xs.

    x is clamped to [xs[0], xs[-1]], so values outside the span are the end
    nodes' values.
    """
    x = np.clip(x, xs[0], xs[-1])
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    return hermite_eval(x, xs[i], ys[i], dys[i],
                        xs[i + 1], ys[i + 1], dys[i + 1])


def integrate(f, x0, y0, x_end, *, rtol=1e-10, atol=1e-12,
              forced_nodes=None, dip_level=None, crossing_level=None,
              guard=None):
    """Integrate y' = f(x, y) from (x0, y0) toward x_end with DOP853.

    Args:
        forced_nodes: abscissas to record, in any order; those not strictly
            between x0 and x_end are dropped and repeats count once.
        dip_level: stop after the first accepted step ending below this
            level.
        crossing_level: level whose first downward crossing is recorded on
            a dip stop (defaults to dip_level).
        guard: stop after the first accepted step ending with |y| above
            this bound.

    Returns an ``IntegrationResult`` whose nodes start at (x0, y0) and are
    strictly monotone in x.  Raises ``SingularIntegrationError`` when the
    solver fails (the step size underflows, or f returns a non-finite
    value), with the last accepted state.
    """
    if crossing_level is None:
        crossing_level = dip_level
    direction = 1.0 if x_end >= x0 else -1.0
    nodes = np.unique(np.asarray([] if forced_nodes is None else forced_nodes,
                                 dtype=float))[::int(direction)]
    nodes = nodes[(direction * (nodes - x0) > 0.0)
                  & (direction * (x_end - nodes) > 0.0)]
    solver = DOP853(lambda x, y: (f(x, y[0]),), x0, (y0,), x_end,
                    rtol=rtol, atol=atol)
    xs, ys, dys = [x0], [y0], [float(solver.f[0])]
    crossing_x = None
    status = "reached"
    while solver.status == "running" and x_end != x0:
        message = solver.step()
        if solver.status == "failed":
            raise SingularIntegrationError(
                f"integration failed at x={xs[-1]!r}: {message}",
                last_x=xs[-1], last_y=ys[-1])
        x, y = float(solver.t), float(solver.y[0])
        ahead = direction * (nodes - x)
        step = dict.fromkeys(nodes[ahead < 0.0].tolist())
        nodes = nodes[ahead > 0.0]
        crossed = (dip_level is not None and crossing_x is None
                   and ys[-1] >= crossing_level > y)
        if step or crossed:
            dense = solver.dense_output()
        if crossed:
            # The end values are exact, so the level is bracketed.
            crossing_x = float(brentq(
                lambda xi: (y if xi == x else dense(xi)[0]) - crossing_level,
                solver.t_old, x, xtol=1e-300,
                rtol=4.0 * np.finfo(float).eps))
            if solver.t_old != crossing_x != x:
                step[crossing_x] = crossing_level
        for xi in sorted(step, key=lambda node: direction * node):
            yi = float(dense(xi)[0]) if step[xi] is None else step[xi]
            xs.append(xi)
            ys.append(yi)
            dys.append(f(xi, yi))
        xs.append(x)
        ys.append(y)
        dys.append(float(solver.f[0]))
        if dip_level is not None and y < dip_level:
            status = "dip"
            break
        if guard is not None and abs(y) > guard:
            status = "guard"
            break
    return IntegrationResult(np.asarray(xs), np.asarray(ys), np.asarray(dys),
                             status, crossing_x if status == "dip" else None)

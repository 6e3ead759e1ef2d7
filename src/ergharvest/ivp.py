"""Adaptive scalar initial-value integration with an embedded Cash-Karp pair.

Fifth-order propagation with a fourth-order embedded error estimate, step
control by the usual 0.9 (tol/err)^(1/5) rule, and three features the
shooting solver needs:

* forced nodes: the stepper lands exactly on every requested abscissa, so
  tabulated values carry full integrator accuracy with no dense-output
  interpolation error;
* level stops: integration halts once the solution drops below a threshold
  (a dip) or leaves a guard band (a blow-up), with the unit-level crossing
  refined on the recorded history;
* hard minimum step: underflow raises ``SingularIntegrationError`` carrying
  the last reliable state so callers can switch formulation.

Integration may run in either direction (the shooting solver mostly steps
downward).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NumericsError, SingularIntegrationError

# Cash-Karp 5(4) tableau.
_C2, _C3, _C4, _C6 = 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 7.0 / 8.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0
_A51, _A52, _A53, _A54 = -11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0
_A61, _A62, _A63, _A64, _A65 = (1631.0 / 55296.0, 175.0 / 512.0,
                                575.0 / 13824.0, 44275.0 / 110592.0,
                                253.0 / 4096.0)
_B1, _B3, _B4, _B6 = 37.0 / 378.0, 250.0 / 621.0, 125.0 / 594.0, 512.0 / 1771.0
_E1, _E3, _E4, _E5, _E6 = (37.0 / 378.0 - 2825.0 / 27648.0,
                           250.0 / 621.0 - 18575.0 / 48384.0,
                           125.0 / 594.0 - 13525.0 / 55296.0,
                           -277.0 / 14336.0,
                           512.0 / 1771.0 - 1.0 / 4.0)

_MAX_STEPS = 2_000_000


@dataclass
class IntegrationResult:
    """Accepted nodes (including forced ones) of one integration run.

    ``status`` is one of ``reached`` (hit x_end), ``dip`` (solution fell
    below the dip level) or ``guard`` (left the guard band).  ``crossing_x``
    is the refined abscissa where the solution crossed ``crossing_level``
    (populated on a dip stop when the level was crossed inside the recorded
    span).
    """

    xs: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    status: str
    crossing_x: float | None = None

    @property
    def x_final(self):
        return float(self.xs[-1])

    @property
    def y_final(self):
        return float(self.ys[-1])


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
              guard=None, min_step=None, first_step=None):
    """Integrate y' = f(x, y) from (x0, y0) toward x_end.

    Args:
        forced_nodes: abscissas the stepper must land on exactly, strictly
            between x0 and x_end, ordered in the direction of travel.
        dip_level: stop once an accepted y falls below this level.
        crossing_level: level whose crossing is refined on the recorded
            history after a dip stop (defaults to dip_level).
        guard: stop once |y| exceeds this bound.
        min_step: hard floor on |h|; underflow raises
            ``SingularIntegrationError``.

    Returns an ``IntegrationResult`` whose nodes always start at (x0, y0).
    """
    direction = 1.0 if x_end > x0 else -1.0
    span = abs(x_end - x0)
    if span == 0.0:
        d0 = f(x0, y0)
        return IntegrationResult(np.array([x0]), np.array([y0]),
                                 np.array([d0]), "reached")
    if min_step is None:
        min_step = 1e-14 * max(abs(x0), abs(x_end))
    if crossing_level is None:
        crossing_level = dip_level

    nodes = list(forced_nodes) if forced_nodes is not None else []
    node_idx = 0

    xs = [x0]
    ys = [y0]
    d = f(x0, y0)
    dys = [d]

    x, y = x0, y0
    h = direction * (abs(first_step) if first_step else 1e-4 * span)
    status = None

    for _ in range(_MAX_STEPS):
        # Never step past the next forced node or the end point.
        target = nodes[node_idx] if node_idx < len(nodes) else x_end
        remaining = target - x
        if direction * remaining <= 0.0:
            # Degenerate or already-passed node; skip it.
            if node_idx < len(nodes):
                node_idx += 1
                continue
            status = "reached"
            break
        hit_target = False
        if abs(h) >= abs(remaining):
            h = remaining
            hit_target = True

        k1 = d
        k2 = f(x + _C2 * h, y + h * (_A21 * k1))
        k3 = f(x + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
        k4 = f(x + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(x + h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(x + _C6 * h,
               y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                        + _A65 * k5))
        y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B6 * k6)
        err = abs(h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6))
        scale = atol + rtol * max(abs(y), abs(y_new))

        if err > scale or not np.isfinite(y_new):
            if not np.isfinite(y_new):
                factor = 0.2
            else:
                factor = max(0.2, 0.9 * (scale / err) ** 0.2)
            h *= factor
            if abs(h) < min_step:
                raise SingularIntegrationError(
                    f"step size underflow at x={x!r} (|h|={abs(h)!r})",
                    last_x=x, last_y=y)
            continue

        x_new = target if hit_target else x + h
        x, y = x_new, y_new
        d = f(x, y)
        xs.append(x)
        ys.append(y)
        dys.append(d)
        if hit_target and node_idx < len(nodes):
            node_idx += 1

        if dip_level is not None and y < dip_level:
            status = "dip"
            break
        if guard is not None and abs(y) > guard:
            status = "guard"
            break
        if hit_target and node_idx >= len(nodes) and x == x_end:
            status = "reached"
            break

        if err > 0.0:
            h *= min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
        else:
            h *= 5.0
    else:
        raise NumericsError(
            f"integration exceeded {_MAX_STEPS} steps from {x0} toward {x_end}")

    xs = np.asarray(xs)
    ys = np.asarray(ys)
    dys = np.asarray(dys)
    crossing_x = None
    if status == "dip" and crossing_level is not None:
        crossing_x = _refine_crossing(xs, ys, dys, crossing_level)
    return IntegrationResult(xs, ys, dys, status, crossing_x)


def _refine_crossing(xs, ys, dys, level):
    """First segment in travel order where y crosses below level, refined."""
    above = ys >= level
    below = ~above
    # First index where the solution sits below the level, whose predecessor
    # is at or above it.
    idx = np.nonzero(below[1:] & above[:-1])[0]
    if idx.size == 0:
        return float(xs[-1])
    i = int(idx[0])
    # Shift the node values by the level (the value basis sums to one): that
    # is exact near the level, where subtracting after evaluation leaves
    # rounding sign changes ~1e-13 wide.  brentq accepts x0 > x1.
    seg = (xs[i], ys[i] - level, dys[i], xs[i + 1], ys[i + 1] - level,
           dys[i + 1])
    return float(brentq(hermite_eval, xs[i], xs[i + 1], args=seg,
                        xtol=1e-300, rtol=4.0 * np.finfo(float).eps))

"""Threshold solver: the root of the potential slope's tail coefficient.

For a candidate boundary ``b`` the slope ``g`` of the candidate potential
solves the Riccati-type equation

    (1/2) sigma^2(x) g'(x) + x mu(x) g(x) - (eps/2) sigma^2(x) g(x)^2
        = lam(b) + gamma,        g(b) = 1,

where ``lam`` is the ambiguity-adjusted drift and ``gamma`` a diagnostic
perturbation of the right-hand side.  A boundary is *admissible* when the
slope stays at or above one all the way down to zero; the optimal threshold
is the smallest admissible boundary.  Admissibility is a statement about the
x -> 0 tail.  With psi = (1 - phi)/eps, phi = exp(-eps f) the Cole-Hopf base
function of a potential f, the slope equation turns into the linear

    (1/2) sigma^2 psi'' + x mu psi' + eps lam(b) psi = lam(b),
    psi(b) = 0,  psi'(b) = 1,

which holds at every eps >= 0 (at eps = 0, psi' is the slope itself).  Near
zero its coefficients are constant in s = log x, with modes e^{r+ s} and the
dominant e^{r- s}.  ``tail_coefficient`` integrates it down to
``TAIL_FLOOR * drift_peak`` and projects onto the dominant mode: a boundary
is admissible exactly when that coefficient F(b) is not positive, and
``solve_threshold`` finds the threshold as the ``brentq`` root of F between
the drift peak (never admissible) and the drift zero (always admissible).
Where lam(b) exceeds c* = a^2 / (2 eps sigma_bar^2), a = mu_bar -
sigma_bar^2/2, the modes are complex and no boundary is admissible; when F
is already negative at b*, where lam = c* (``extinction_level``), b* is the
threshold and the yield is c* (the ``extinction_bound`` regime).

Every integration of the linear form is one run of scipy's compiled LSODA
(``scipy.integrate.odeint``, rtol 1e-13, atol 1e-15) in ``_linear_rows``,
which steps and interpolates to its output nodes in compiled code: a probe
reads the end state at the floor, and ``cole_hopf_slope`` the slope
g = psi'/(1 - eps psi) at any nodes below a boundary, the threshold's
potential grid among them.  Every boundary must pass
``AmbiguityProblem.validate_x``, 0 < b <= x_max.
The independent cross-check, ``integrate_slope``, shoots the quadratic
equation with DOP853 stepped through ``ivp.integrate``, down from the
boundary toward zero or up from it toward ``x_max``.  Every slope table,
from either formulation, is an ``ivp.IntegrationResult`` and ends the same
way: status ``"dip"``, with ``crossing_x``, when the slope falls through
one (the linear form's base function 1 - eps psi reaches zero only in such
a dive to -infinity), ``"guard"`` past the overflow guard (``integrate_slope``
only) and ``"reached"`` otherwise.  ``classify_boundary`` keeps its dip
verdict down to a fixed floor: a dip below one is inadmissible, and growth
past the overflow guard counts as admissible with a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import ODEintWarning, odeint
from scipy.optimize import brentq

from . import ivp
from .errors import (AssumptionViolationError, InputDomainError,
                     MonotonicityViolationError, SingularIntegrationError)
from .model import AmbiguityProblem, check_assumptions

__all__ = [
    "BoundaryClass",
    "PotentialGrid",
    "ThresholdSolution",
    "integrate_slope",
    "classify_boundary",
    "tail_coefficient",
    "extinction_level",
    "solve_threshold",
    "build_potential",
    "cole_hopf_slope",
    "node_layout",
]

DIP_FLOOR = 2e-8           # shooting and potential-grid floor, times drift_peak
TAIL_FLOOR = 1e-6          # tail-coefficient floor, times drift_peak
DIP_TOLERANCE = 1e-8       # below integrator accuracy a dip is noise
OVERFLOW_GUARD = 1e8
BETA_RTOL = 5e-9           # threshold tolerance relative to the drift zero
POTENTIAL_RTOL = 1e-13     # LSODA tolerances of _linear_rows: at rtol 1e-12
POTENTIAL_ATOL = 1e-15     # the floor slopes are 1e-5 off, 1e-14 is refused
N_GRID_LEFT = 2000
N_GRID_RIGHT = 500
FD_STEP_ABS = 1e-6         # companion offset, relative to the threshold
FD_STEP_REL = 2.5e-4       # companion offset cap, relative to the abscissa


def _slope_rhs(problem: AmbiguityProblem, boundary: float, gamma: float):
    mu = problem.model.mu
    sigma = problem.model.sigma
    eps = problem.epsilon
    level = problem.drift(boundary) + gamma

    def rhs(x, g):
        s = sigma(x)
        s2 = s * s
        return 2.0 * (level - x * mu(x) * g + 0.5 * eps * s2 * g * g) / s2

    return rhs


def integrate_slope(problem: AmbiguityProblem, boundary: float,
                    gamma: float = 0.0, x_end: float | None = None, *,
                    forced_nodes=None,
                    stop_on_dip=True) -> ivp.IntegrationResult:
    """Integrate the slope ODE from g(boundary) = 1 toward x_end.

    ``x_end`` defaults to the floor ``DIP_FLOOR * drift_peak``; below the
    boundary the table descends toward zero, above it the table ascends
    toward ``x_max`` (the region where the slope must stay at or above
    one).  Steps scipy's DOP853 through ``ivp.integrate`` at that
    function's default tolerances, and stops after the first step that ends
    below ``1 - DIP_TOLERANCE`` (status ``"dip"``, the unit crossing
    recorded as a node and in ``crossing_x``) or past the overflow guard
    (status ``"guard"``).  A failed step raises ``SingularIntegrationError``.
    """
    if x_end is None:
        x_end = DIP_FLOOR * problem.drift_peak
    problem.validate_x((x_end, boundary))
    if x_end == boundary:
        raise InputDomainError(f"need x_end != boundary, got {x_end!r}")
    return ivp.integrate(
        _slope_rhs(problem, boundary, gamma), boundary, 1.0, x_end,
        forced_nodes=forced_nodes,
        dip_level=(1.0 - DIP_TOLERANCE) if stop_on_dip else None,
        crossing_level=1.0, guard=OVERFLOW_GUARD)


def cole_hopf_slope(problem: AmbiguityProblem, boundary: float, x_min: float,
                    *, eval_xs=None) -> ivp.IntegrationResult:
    """Slope via the linear form, read off one ``_linear_rows`` run.

    With phi = 1 - eps psi the Cole-Hopf base function of the slope,

        (1/2) sigma^2 phi'' + x mu phi' = -lam(b) eps phi,
        phi(b) = 1,  phi'(b) = -eps,

    at every eps >= 0 (phi is one at eps = 0), and ``_linear_rows`` gives
    psi, psi_s = x psi' at ``eval_xs`` (default 400 log-spaced nodes; any
    order, as ``ivp.integrate``'s forced nodes), tabulated descending from b
    to x_min, so g = psi_s / x / phi and g(b) = 1 (status ``"reached"``).
    Going down from b, phi first reaches zero where psi has risen to 1/eps,
    so psi' < 0 there and the slope dives through one to -infinity: the
    table then ends above the first node where phi is not positive, with
    status ``"dip"`` and that node as ``crossing_x`` (0.015668 against
    phi's root 0.015700 at VP eps 1, b = 1.02 drift_peak, x_min = 1e-4).
    """
    problem.validate_x((x_min, boundary))
    if not x_min < boundary:
        raise InputDomainError(
            f"need x_min < boundary, got {x_min!r}, {boundary!r}")
    if eval_xs is None:
        eval_xs = np.geomspace(boundary, x_min, 400)
    eval_xs = np.asarray(eval_xs, dtype=float)
    inside = eval_xs[(eval_xs > x_min) & (eval_xs < boundary)]
    # A reversed view: np.log of a descending copy can differ in the last bit.
    eval_xs = np.unique(np.concatenate(([x_min, boundary], inside)))[::-1]
    psi, dpsi = _linear_rows(problem, boundary, eval_xs)
    phi = 1.0 - problem.epsilon * psi
    down = np.flatnonzero(phi <= 0.0)
    keep = down[0] if down.size else eval_xs.size
    xs = eval_xs[:keep]
    slopes = dpsi[:keep] / xs / phi[:keep]
    derivs = _slope_rhs(problem, boundary, 0.0)(xs, slopes)
    return ivp.IntegrationResult(
        xs, slopes, derivs, "dip" if down.size else "reached",
        float(eval_xs[keep]) if down.size else None)


@dataclass(frozen=True)
class BoundaryClass:
    """Admissibility verdict for one candidate boundary.

    ``grid`` is the slope table shot down from ``grid.xs[0]``, the boundary;
    on a dip, ``grid.crossing_x`` is the slope's unit crossing.
    """

    in_set: bool
    blowup_warning: bool
    grid: ivp.IntegrationResult


def classify_boundary(problem: AmbiguityProblem,
                      boundary: float) -> BoundaryClass:
    """Decide whether the slope stays >= 1 - DIP_TOLERANCE down to the floor.

    Boundaries at or below the drift peak are rejected outright: no boundary
    there is admissible.  Blow-up through the overflow guard without a prior
    dip classifies as in-set with a warning.

    The verdict depends on the floor ``DIP_FLOOR * drift_peak`` near the
    threshold: an inadmissible boundary whose dip lies below it reads as
    in-set.  At eps = 2 that happens up to 1e-4 below the threshold;
    ``tail_coefficient`` decides admissibility without a floor bias.
    """
    if boundary <= problem.drift_peak:
        raise InputDomainError(
            f"boundary {boundary!r} is at or below the drift peak "
            f"{problem.drift_peak!r}; no such boundary is admissible")
    if boundary > problem.drift_zero:
        raise InputDomainError(
            f"boundary {boundary!r} exceeds the drift zero "
            f"{problem.drift_zero!r}")
    grid = integrate_slope(problem, boundary, 0.0)
    return BoundaryClass(in_set=grid.status != "dip",
                         blowup_warning=grid.status == "guard", grid=grid)


def _tail_modes(problem: AmbiguityProblem, level: float):
    """Near-zero constants (a, sigma_bar) and discriminant D at a drift level.

    Near zero mu -> mu_bar and sigma(x)/x -> sigma_bar, so the linear form
    has modes e^{r s} with sigma_bar^2 r^2 + 2 a r + 2 eps level = 0,
    a = mu_bar - sigma_bar^2/2 and D = a^2 - 2 sigma_bar^2 eps level.
    """
    mu_bar, sigma_bar, _ = problem.model.near_zero_constants()
    a = mu_bar - 0.5 * sigma_bar * sigma_bar
    if not a > 0.0:
        raise AssumptionViolationError(
            f"near-zero log-drift mu_bar - sigma_bar^2/2 = {a!r} is not "
            "positive; the population does not grow away from zero and no "
            "tail coefficient separates admissible boundaries")
    disc = a * a - 2.0 * sigma_bar * sigma_bar * problem.epsilon * level
    return a, sigma_bar, disc


def extinction_level(problem: AmbiguityProblem):
    """(c*, b*): the extinction level and where the drift meets it.

    c* = a^2 / (2 eps sigma_bar^2) (+inf at eps = 0).  Where lam(b) > c* the
    tail modes are complex and no boundary is admissible; b* is the root of
    lam = c* in (drift_peak, drift_zero) when lam(drift_peak) > c*, and None
    otherwise.  Raises ``AssumptionViolationError`` when a <= 0.
    """
    a, sigma_bar, disc = _tail_modes(
        problem, float(problem.drift(problem.drift_peak)))
    if problem.epsilon <= 0.0:
        return math.inf, None
    c_star = a * a / (2.0 * problem.epsilon * sigma_bar * sigma_bar)
    if disc >= 0.0:
        return c_star, None
    b_star = brentq(lambda b: problem.drift(b) - c_star, problem.drift_peak,
                    problem.drift_zero, xtol=1e-300,
                    rtol=4.0 * np.finfo(float).eps)
    return c_star, b_star


def _psi_rhs(s, y, level, eps_level, model, out):
    """``tail_coefficient``'s linear form in s = log x; y = (psi, psi_s).

    LSODA's callback: the state comes in as Python floats and the derivative
    goes into ``out``, the run's own 2-slot buffer, which is returned.  LSODA
    copies it before the next call, so one buffer serves a whole run.
    """
    psi, psi_s = y.tolist()
    x = math.exp(s)
    q = model.sigma(x) / x
    out[0] = psi_s
    out[1] = psi_s + 2.0 * (level - eps_level * psi - model.mu(x) * psi_s) / (
        q * q)
    return out


def _linear_rows(problem: AmbiguityProblem, boundary: float, xs_descending):
    """(psi, psi_s) of the linear form at lam(boundary) on descending nodes.

    One compiled LSODA run (``odeint``, rtol 1e-13, atol 1e-15) with log x
    as output times; the first, log(boundary), is the initial point.  The
    run allocates one 2-slot buffer for ``_psi_rhs`` to write into, passed
    through ``odeint``'s ``args``; a module-level buffer would not be
    re-entrant.  Raises
    ``SingularIntegrationError`` when LSODA reports a failure (``last_x`` is
    the boundary: a failed run leaves its later rows unset) or a row is not
    finite (``last_x`` is the smallest node whose row is).
    """
    level = float(problem.drift(boundary))
    with warnings.catch_warnings():
        # A failure also sets the message.
        warnings.simplefilter("ignore", ODEintWarning)
        rows, info = odeint(_psi_rhs, (0.0, boundary), np.log(xs_descending),
                            args=(level, problem.epsilon * level,
                                  problem.model, np.empty(2)),
                            tfirst=True, rtol=POTENTIAL_RTOL,
                            atol=POTENTIAL_ATOL, full_output=True)
    if info["message"] != "Integration successful.":
        raise SingularIntegrationError(
            f"linear-form integration failed: {info['message']}",
            last_x=boundary)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():   # LSODA carries a NaN rhs on as a success
        last_x = float(xs_descending[np.argmin(finite) - 1])
        raise SingularIntegrationError(
            f"linear-form integration failed: not finite below x={last_x!r}",
            last_x=last_x)
    return rows.T


def _tail(problem: AmbiguityProblem, boundary: float, *, clamp: bool) -> float:
    """F(b); a negative D is +inf, or 0 with ``clamp`` (rounding at lam = c*).

    The end state is the last row of ``_linear_rows`` on nodes about a
    decade apart: one span from b to the floor exceeds LSODA's default
    budget of 500 steps per output interval (GL theta=2, eps 0, b = 0.70).
    """
    problem.validate_x(boundary)
    floor = TAIL_FLOOR * problem.drift_peak
    if not boundary > floor:
        raise InputDomainError(
            f"boundary {boundary!r} is at or below the tail floor {floor!r}")
    level = float(problem.drift(boundary))
    a, sigma_bar, disc = _tail_modes(problem, level)
    if disc < 0.0:
        if not clamp:
            return math.inf
        disc = 0.0
    s2 = sigma_bar * sigma_bar
    root = math.sqrt(disc)
    r_plus = (-a + root) / s2
    r_minus = (-a - root) / s2
    xs = np.geomspace(boundary, floor,
                      2 + math.ceil(math.log10(boundary / floor)))
    y = _linear_rows(problem, boundary, xs)[:, -1]
    s_min = math.log(floor)
    ddpsi = _psi_rhs(s_min, y, level, problem.epsilon * level,
                     problem.model, np.empty(2))[1]
    return float((ddpsi - r_plus * y[1]) * math.exp(-r_minus * s_min))


def tail_coefficient(problem: AmbiguityProblem, boundary: float) -> float:
    """Dominant-mode coefficient F(b); admissible exactly when F(b) <= 0.

    Integrates the linear form of the slope equation for psi = (1 - phi)/eps
    in s = log x,

        psi_ss = psi_s + 2 (lam - eps lam psi - mu psi_s) / q^2,
        q = sigma(x)/x,  psi(b) = 0,  psi_s(b) = b,

    from log b down to s_min = log(TAIL_FLOOR * drift_peak) with
    ``_linear_rows``' LSODA run, and returns
    F = (psi_ss - r+ psi_s) e^{-r- s_min}, which removes the subdominant
    mode and the particular solution and leaves a positive multiple of the
    e^{r- s} coefficient.  F is continuous through D = 0, where the modes
    merge.  When D < 0 (lam(b) > c*) the base function oscillates, the
    boundary is inadmissible, and F is +inf without an integration.  Raises
    ``InputDomainError`` unless TAIL_FLOOR * drift_peak < b <= x_max,
    ``AssumptionViolationError`` when a <= 0 and
    ``SingularIntegrationError`` when the integration fails (``last_x`` as
    in ``_linear_rows``, on output nodes about a decade apart).
    """
    return _tail(problem, boundary, clamp=False)


def _piecewise(x, split, below, above, *, closed=False):
    """``below`` where x < split (<= when closed), ``above`` elsewhere.

    Each callable gets its part of x as an array; a scalar x gives a float.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    low = arr <= split if closed else arr < split
    for part, fn in ((low, below), (~low, above)):
        if np.any(part):
            out[part] = fn(arr[part])
    return out if np.ndim(x) else float(out[0])


class NodeLayout(NamedTuple):
    """Where a threshold's potential is tabulated; see ``node_layout``."""

    grid_x: np.ndarray          # left grid, ascending to the threshold
    grid_right_x: np.ndarray    # right grid, above the threshold
    fd_x: np.ndarray            # left nodes that carry companions
    fd_h: np.ndarray            # their companion offsets
    nodes_x: np.ndarray         # left grid and companions, ascending


def node_layout(problem: AmbiguityProblem, threshold: float) -> NodeLayout:
    """The potential's nodes for ``threshold``, for a solve and its reload.

    Log-spaced from ``DIP_FLOOR * drift_peak`` to the threshold, linear above
    it to min(2 drift_zero, x_max), and companions x -/+ h of the left nodes
    whose companions fall strictly between the floor and the threshold.
    """
    x_min = DIP_FLOOR * problem.drift_peak
    grid_x = np.geomspace(x_min, threshold, N_GRID_LEFT)
    h = np.minimum(FD_STEP_ABS * threshold, FD_STEP_REL * grid_x)
    interior = (grid_x - h > x_min) & (grid_x + h < threshold)
    fd_x = grid_x[interior]
    fd_h = h[interior]
    x_plot_max = min(2.0 * problem.drift_zero, problem.x_max)
    return NodeLayout(
        grid_x=grid_x,
        grid_right_x=np.linspace(threshold, x_plot_max, N_GRID_RIGHT + 1)[1:],
        fd_x=fd_x, fd_h=fd_h,
        nodes_x=np.unique(np.concatenate([grid_x, fd_x - fd_h, fd_x + fd_h])))


@dataclass(frozen=True)
class PotentialGrid:
    """Tabulated potential: slope and value on nodes straddling the threshold.

    ``nodes_x`` ascend from the floor to the threshold: the log-spaced
    ``grid_x`` and the finite-difference companions, with the slope read off
    the linear solve's rows at the nodes.  Above the threshold the slope is
    identically one and the value is linear.

    ``fd_*`` hold companion slope evaluations at x +/- h for interior nodes;
    they support a finite-difference cross-check of the curvature that does
    not reuse the ODE identity.
    """

    threshold: float
    x_min: float
    nodes_x: np.ndarray
    nodes_slope: np.ndarray
    nodes_slope_deriv: np.ndarray
    nodes_value: np.ndarray
    grid_x: np.ndarray          # requested left grid (ascending, <= threshold)
    grid_right_x: np.ndarray    # requested right grid (> threshold)
    fd_x: np.ndarray
    fd_h: np.ndarray
    fd_slope_minus: np.ndarray
    fd_slope_plus: np.ndarray

    @classmethod
    def from_slopes(cls, problem: AmbiguityProblem, threshold: float,
                    layout: NodeLayout, nodes_g):
        """The potential from its slopes at ``layout.nodes_x``.

        Slope derivatives from the ODE identity; the value a cumulative
        Hermite-corrected trapezoid, zero at the threshold: over [a, b],
        h (g_a + g_b)/2 + h^2 (g'_a - g'_b)/12, exact for cubics; companion
        slopes read off the nodes at fd_x -/+ fd_h; the floor the first node.
        """
        nodes_x, fd_x, fd_h = layout.nodes_x, layout.fd_x, layout.fd_h
        nodes_dg = _slope_rhs(problem, threshold, 0.0)(nodes_x, nodes_g)
        dx = np.diff(nodes_x)
        seg = (dx * (nodes_g[:-1] + nodes_g[1:]) / 2.0
               + dx * dx * (nodes_dg[:-1] - nodes_dg[1:]) / 12.0)
        value = np.concatenate(([0.0], np.cumsum(seg)))
        value -= value[-1]
        return cls(
            threshold=threshold, x_min=float(nodes_x[0]), nodes_x=nodes_x,
            nodes_slope=nodes_g, nodes_slope_deriv=nodes_dg,
            nodes_value=value, grid_x=layout.grid_x,
            grid_right_x=layout.grid_right_x, fd_x=fd_x, fd_h=fd_h,
            fd_slope_minus=nodes_g[np.searchsorted(nodes_x, fd_x - fd_h)],
            fd_slope_plus=nodes_g[np.searchsorted(nodes_x, fd_x + fd_h)])

    def slope_at(self, x):
        """Potential slope; one above the threshold, Hermite below."""
        return _piecewise(
            x, self.threshold,
            lambda xb: ivp.hermite_interp(self.nodes_x, self.nodes_slope,
                                          self.nodes_slope_deriv, xb),
            lambda xa: 1.0)

    def value_at(self, x):
        """Potential value, anchored to zero at the threshold."""
        return _piecewise(
            x, self.threshold,
            lambda xb: ivp.hermite_interp(self.nodes_x, self.nodes_value,
                                          self.nodes_slope, xb),
            lambda xa: xa - self.threshold)


def build_potential(problem: AmbiguityProblem,
                    threshold: float) -> PotentialGrid:
    """Tabulate the potential for an admissible threshold.

    The slope is ``cole_hopf_slope`` from the threshold down to the floor
    ``DIP_FLOOR * drift_peak``, one ``_linear_rows`` run with the
    ``node_layout`` nodes as output times (g = 1 at the threshold).  Above
    the threshold g is one.
    ``PotentialGrid.from_slopes`` integrates the value from
    value(threshold) = 0; it is linear above.

    Raises ``SingularIntegrationError`` when the LSODA run fails (see
    ``_linear_rows``), and ``InputDomainError`` when the threshold lies
    outside (0, x_max] or is inadmissible: the table ends in a ``"dip"``
    (the slope dives through one to -infinity above the floor), or a slope
    lies below ``1 - DIP_TOLERANCE``.
    """
    problem.validate_x(threshold)
    layout = node_layout(problem, threshold)
    nodes_x = layout.nodes_x
    table = cole_hopf_slope(problem, threshold, float(nodes_x[0]),
                            eval_xs=nodes_x)
    nodes_g = table.ys[::-1]
    dips = ([table.crossing_x] if table.status == "dip"
            else nodes_x[nodes_g < 1.0 - DIP_TOLERANCE])
    if len(dips):
        raise InputDomainError(
            f"threshold {threshold!r} is not admissible: slope dipped "
            f"below one near x={float(dips[-1])!r}")
    return PotentialGrid.from_slopes(problem, threshold, layout, nodes_g)


@dataclass(frozen=True)
class ThresholdSolution:
    """Optimal threshold, long-run yield, and the tabulated potential.

    ``bisection_trace`` holds the search probes as (b, "in"/"out") and
    ``iterations`` their number; a solution reloaded by
    ``artifacts.load_solution`` keeps the count and an empty trace.
    ``regime`` is ``"interior"`` or ``"extinction_bound"`` (see
    ``solve_threshold``).
    """

    problem: AmbiguityProblem
    threshold: float
    long_run_yield: float
    grid: PotentialGrid
    bisection_trace: tuple
    iterations: int
    beta_tolerance: float
    regime: str

    @property
    def x_min(self) -> float:
        """Floor of the tabulated potential."""
        return self.grid.x_min

    def vprime(self, x):
        return self.grid.slope_at(x)

    def v(self, x):
        return self.grid.value_at(x)

    def vsecond(self, x):
        """Curvature through the ODE identity (zero above the threshold)."""
        rhs = _slope_rhs(self.problem, self.threshold, 0.0)
        return _piecewise(x, self.threshold,
                          lambda xb: rhs(xb, self.grid.slope_at(xb)),
                          lambda xa: 0.0, closed=True)


def solve_threshold(problem: AmbiguityProblem) -> ThresholdSolution:
    """Root-find the optimal threshold and assemble its potential.

    The threshold is the ``brentq`` root of ``tail_coefficient`` to within
    ``BETA_RTOL * drift_zero``, between the drift peak (never admissible)
    and the drift zero (validated admissible).  When the drift at the peak
    exceeds c* = a^2 / (2 eps sigma_bar^2), boundaries up to b*, the root
    of lam = c*, are inadmissible without an integration, and the search
    starts at b*; if b* itself is admissible it is the threshold, its yield
    is c*, and ``regime`` is ``"extinction_bound"`` (``"interior"``
    otherwise).

    Every probe is recorded as (b, "in"/"out") and the returned threshold is
    the smallest admissible probe, so the slope bound holds at it (on the
    extinction bound the trace is the final interval (b* - tol, b*)).  The
    trace is checked for the monotone structure the search relies on:
    every admissible probe must exceed every inadmissible one.  F does not
    depend on the dip-shooting floor; moving ``TAIL_FLOOR`` from 1e-6 to
    1e-12 moves the threshold by well under the tolerance.

    A failed assumption check raises ``AssumptionViolationError`` first.
    """
    report = check_assumptions(problem)
    if not report.all_passed:
        failure = report.first_failure()
        raise AssumptionViolationError(
            f"assumption check failed: ({failure.assumption}) "
            f"{failure.name}")
    beta_tol = BETA_RTOL * problem.drift_zero
    lo = problem.drift_peak
    hi = problem.drift_zero
    probes = {}

    def tail(boundary):
        if boundary not in probes:
            probes[boundary] = _tail(problem, boundary, clamp=True)
        return probes[boundary]

    regime = "interior"
    _, b_star = extinction_level(problem)
    if b_star is not None:
        lo = b_star
        if tail(lo) <= 0.0:
            regime = "extinction_bound"
    if regime == "extinction_bound":
        trace = [(lo - beta_tol, "out"), (lo, "in")]
    else:
        if tail(lo) <= 0.0 or tail(hi) > 0.0:
            raise MonotonicityViolationError(
                f"tail coefficient {tail(lo)!r} at the lower end {lo!r} and "
                f"{tail(hi)!r} at the drift zero {hi!r}: need an "
                "inadmissible lower end and an admissible drift zero")
        brentq(tail, lo, hi, xtol=beta_tol)
        trace = [(b, "in" if f <= 0.0 else "out") for b, f in probes.items()]

    ins = [b for b, kind in trace if kind == "in"]
    outs = [b for b, kind in trace if kind == "out"]
    if max(outs) > min(ins):
        raise MonotonicityViolationError(
            f"probe trace is not monotone: inadmissible boundary "
            f"{max(outs)!r} above admissible {min(ins)!r}")

    threshold = min(ins)
    return ThresholdSolution(
        problem=problem, threshold=threshold,
        long_run_yield=float(problem.drift(threshold)),
        grid=build_potential(problem, threshold),
        bisection_trace=tuple(trace), iterations=len(trace),
        beta_tolerance=beta_tol, regime=regime)

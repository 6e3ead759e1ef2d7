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
``TAIL_FLOOR * drift_peak`` with scipy's compiled DOP853 (the Fortran
``dop853`` behind ``scipy.integrate.ode``; a probe needs only the end state)
and projects onto the dominant mode: a boundary is admissible exactly when
that coefficient F(b) is not positive, and ``solve_threshold`` finds the
threshold as the ``brentq`` root of F between the drift peak (never
admissible) and the drift zero (always admissible).  Where lam(b) exceeds
c* = a^2 / (2 eps sigma_bar^2), a = mu_bar - sigma_bar^2/2, the modes are
complex and no boundary is admissible; when F is already negative at b*,
where lam = c* (``extinction_level``), b* is the threshold and the yield is
c* (the ``extinction_bound`` regime).

``build_potential`` integrates the same linear form once more, from the
threshold down to ``DIP_FLOOR * drift_peak``, with scipy's compiled LSODA
(``scipy.integrate.odeint``) at rtol 1e-13, atol 1e-15, which steps and
interpolates to every grid node in compiled code, and reads the slope
g = psi'/(1 - eps psi) off the rows it returns; ``cole_hopf_slope`` reads
any boundary's slope off the same run (``_linear_rows``).  The independent
cross-check, ``integrate_slope``, shoots the quadratic equation with DOP853
stepped through ``ivp.integrate``; ``classify_boundary`` keeps its dip
verdict down to a fixed floor: a dip below one is inadmissible, and growth
past the overflow guard counts as admissible with a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ODEintWarning, ode, odeint
from scipy.optimize import brentq

from . import ivp
from .errors import (AssumptionViolationError, InputDomainError,
                     MonotonicityViolationError, SingularIntegrationError,
                     TransformBreakdownError)
from .model import AmbiguityProblem, check_assumptions

__all__ = [
    "ShootingGrid",
    "BoundaryClass",
    "PotentialGrid",
    "ThresholdSolution",
    "integrate_slope",
    "slope_above_boundary",
    "classify_boundary",
    "tail_coefficient",
    "extinction_level",
    "solve_threshold",
    "build_potential",
    "cole_hopf_slope",
]

DIP_FLOOR = 2e-8           # shooting and potential-grid floor, times drift_peak
TAIL_FLOOR = 1e-6          # tail-coefficient floor, times drift_peak
DIP_TOLERANCE = 1e-8       # below integrator accuracy a dip is noise
OVERFLOW_GUARD = 1e8
RTOL = 1e-10
ATOL = 1e-12
BETA_RTOL = 5e-9           # threshold tolerance relative to the drift zero
PSI_RTOL = 1e-12           # DOP853 tolerances of the probes
PSI_ATOL = 1e-14
POTENTIAL_RTOL = 1e-13     # LSODA tolerances of _linear_rows: at rtol 1e-12
POTENTIAL_ATOL = 1e-15     # the floor slopes are 1e-5 off, 1e-14 is refused
N_GRID_LEFT = 2000
N_GRID_RIGHT = 500
FD_STEP_ABS = 1e-6         # companion offset, relative to the threshold
FD_STEP_REL = 2.5e-4       # companion offset cap, relative to the abscissa


@dataclass
class ShootingGrid:
    """Slope solution tabulated on a descending grid from the boundary.

    ``terminated_early`` marks a dip stop (final value below one minus the
    dip tolerance); ``blew_up`` marks an overflow-guard stop.  On a dip,
    ``dip_crossing`` is the largest abscissa where the slope crossed below
    one, found on its step's dense output; it is a node, with slope one.
    """

    boundary: float
    gamma: float
    xs: np.ndarray
    slopes: np.ndarray
    slope_derivs: np.ndarray
    terminated_early: bool
    blew_up: bool
    dip_crossing: float | None

    @property
    def slope_final(self):
        return float(self.slopes[-1])


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


def integrate_slope(problem: AmbiguityProblem, boundary: float, gamma: float = 0.0,
                    x_min: float | None = None, *, forced_nodes=None,
                    stop_on_dip=True) -> ShootingGrid:
    """Integrate the slope ODE from the boundary down to x_min.

    Steps scipy's DOP853 through ``ivp.integrate`` at rtol 1e-10, atol
    1e-12, and stops after the first step that ends below
    ``1 - DIP_TOLERANCE`` (recording the unit crossing as a node) or past
    the overflow guard.  A failed step raises ``SingularIntegrationError``.
    """
    if x_min is None:
        x_min = DIP_FLOOR * problem.drift_peak
    if not 0.0 < x_min < boundary <= problem.x_max:
        raise InputDomainError(
            f"need 0 < x_min < boundary <= x_max, got x_min={x_min!r}, "
            f"boundary={boundary!r}, x_max={problem.x_max!r}")
    res = ivp.integrate(
        _slope_rhs(problem, boundary, gamma), boundary, 1.0, x_min,
        rtol=RTOL, atol=ATOL, forced_nodes=forced_nodes,
        dip_level=(1.0 - DIP_TOLERANCE) if stop_on_dip else None,
        crossing_level=1.0, guard=OVERFLOW_GUARD)
    return ShootingGrid(
        boundary=boundary, gamma=gamma, xs=res.xs, slopes=res.ys,
        slope_derivs=res.dys, terminated_early=res.status == "dip",
        blew_up=res.status == "guard", dip_crossing=res.crossing_x)


def slope_above_boundary(problem: AmbiguityProblem, boundary: float,
                         x_top: float, *, forced_nodes=None):
    """Forward extension of the slope on (boundary, x_top]; ascending arrays.

    Used by the property checks on the region above the boundary, where the
    slope must stay at or above one.
    """
    if not boundary < x_top <= problem.x_max:
        raise InputDomainError(
            f"need boundary < x_top <= x_max, got {boundary!r}, {x_top!r}")
    rhs = _slope_rhs(problem, boundary, 0.0)
    res = ivp.integrate(rhs, boundary, 1.0, x_top, rtol=RTOL, atol=ATOL,
                        forced_nodes=forced_nodes)
    return res.xs, res.ys, res.dys


def cole_hopf_slope(problem: AmbiguityProblem, boundary: float, x_min: float,
                    gamma: float = 0.0, *, eval_xs=None) -> ShootingGrid:
    """Slope via the linear form, read off the potential's LSODA run.

    With phi = 1 - eps psi the Cole-Hopf base function of the slope,

        (1/2) sigma^2 phi'' + x mu phi' = -(lam(b) + gamma) eps phi,
        phi(b) = 1,  phi'(b) = -eps,

    and ``_linear_rows`` gives psi, psi_s = x psi' at ``eval_xs`` (default
    400 log-spaced nodes), so g = psi_s / x / phi and g(b) = 1.  Where phi
    is not positive the slope has blown up: ``TransformBreakdownError``
    gives the first such node down from b (0.015668 against phi's root
    0.015700 at VP eps 1, b = 1.02 drift_peak, x_min = 1e-4) and the sign
    of phi' there, -sign(psi_s): positive is a dip to -infinity, negative
    admissible growth to +infinity.
    """
    eps = problem.epsilon
    if eps <= 0.0:
        raise InputDomainError("the linear form requires epsilon > 0")
    if not 0.0 < x_min < boundary:
        raise InputDomainError(
            f"need 0 < x_min < boundary, got {x_min!r}, {boundary!r}")
    if eval_xs is None:
        eval_xs = np.geomspace(boundary, x_min, 400)
    else:
        eval_xs = np.asarray(eval_xs, dtype=float)
        eval_xs = eval_xs[(eval_xs <= boundary) & (eval_xs >= x_min)]
        if eval_xs.size == 0 or eval_xs[0] != boundary:
            eval_xs = np.concatenate(([boundary], eval_xs))
        if eval_xs[-1] != x_min:
            eval_xs = np.concatenate((eval_xs, [x_min]))
    psi, dpsi = _linear_rows(problem, boundary,
                             float(problem.drift(boundary)) + gamma, eval_xs)
    phi = 1.0 - eps * psi
    down = np.flatnonzero(phi <= 0.0)
    if down.size:
        x_cross = float(eval_xs[down[0]])
        dphi_sign = -float(np.sign(dpsi[down[0]]))
        raise TransformBreakdownError(
            f"base function is not positive at x={x_cross} above "
            f"x_min={x_min}; slope blew up toward "
            f"{'-inf' if dphi_sign > 0 else '+inf'}",
            crossing_x=x_cross, derivative_sign=dphi_sign)
    slopes = dpsi / eval_xs / phi
    derivs = _slope_rhs(problem, boundary, gamma)(eval_xs, slopes)
    return ShootingGrid(
        boundary=boundary, gamma=gamma, xs=eval_xs, slopes=slopes,
        slope_derivs=derivs, terminated_early=False, blew_up=False,
        dip_crossing=None)


@dataclass(frozen=True)
class BoundaryClass:
    """Admissibility verdict for one candidate boundary."""

    boundary: float
    in_set: bool
    dip_crossing: float | None
    blowup_warning: bool
    grid: ShootingGrid


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
    return BoundaryClass(
        boundary=boundary, in_set=not grid.terminated_early,
        dip_crossing=grid.dip_crossing, blowup_warning=grid.blew_up,
        grid=grid)


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


def _psi_rhs(s, y, level, eps_level, model):
    """``tail_coefficient``'s linear form in s = log x; y = (psi, psi_s)."""
    x = math.exp(s)
    q = model.sigma(x) / x
    return (y[1], y[1] + 2.0 * (level - eps_level * y[0] - model.mu(x) * y[1])
            / (q * q))


def _psi_params(problem: AmbiguityProblem, boundary: float):
    level = float(problem.drift(boundary))
    return level, problem.epsilon * level, problem.model


def _linear_rows(problem: AmbiguityProblem, boundary: float, level: float,
                 xs_descending):
    """(psi, psi_s) of the linear form at drift ``level`` on descending nodes.

    One compiled LSODA run (``odeint``, rtol 1e-13, atol 1e-15) with log x
    as output times; the first, log(boundary), is the initial point.  Raises
    ``SingularIntegrationError`` when LSODA reports a failure (``last_x`` is
    the boundary: a failed run leaves its later rows unset) or a row is not
    finite (``last_x`` is the smallest node whose row is).
    """
    with warnings.catch_warnings():
        # A failure also sets the message.
        warnings.simplefilter("ignore", ODEintWarning)
        rows, info = odeint(_psi_rhs, (0.0, boundary), np.log(xs_descending),
                            args=(level, problem.epsilon * level,
                                  problem.model),
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


# One compiled DOP853 serves every probe.  scipy's ``ode`` runner keeps a
# reference to the rhs and to the integrator's ``_solout`` on every
# ``integrate`` call, so an ``ode`` built per probe is never freed.  With one
# integrator, a module-level rhs and one bound ``_solout`` pinned on the
# integrator (each ``set_initial_value`` would bind a new one), the kept
# references all point at the same objects.  The shared state is not
# thread-safe (the package starts no threads).  The step budget is far above
# the ~100 steps a probe takes.
_PROBE = ode(_psi_rhs).set_integrator("dop853", rtol=PSI_RTOL,
                                      atol=PSI_ATOL, nsteps=100_000)
_PROBE._integrator._solout = _PROBE._integrator._solout


def _tail(problem: AmbiguityProblem, boundary: float, *, clamp: bool) -> float:
    """F(b); a negative D is +inf, or 0 with ``clamp`` (rounding at lam = c*)."""
    params = _psi_params(problem, boundary)
    a, sigma_bar, disc = _tail_modes(problem, params[0])
    if disc < 0.0:
        if not clamp:
            return math.inf
        disc = 0.0
    s2 = sigma_bar * sigma_bar
    root = math.sqrt(disc)
    r_plus = (-a + root) / s2
    r_minus = (-a - root) / s2
    s_min = math.log(TAIL_FLOOR * problem.drift_peak)
    _PROBE.set_initial_value((0.0, boundary), math.log(boundary))
    _PROBE.set_f_params(*params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # a failure raises below
        y = _PROBE.integrate(s_min)
    if not _PROBE.successful():
        raise SingularIntegrationError(
            "linear-form integration failed: dop853 return code "
            f"{_PROBE.get_return_code()}", last_x=math.exp(_PROBE.t))
    ddpsi = _psi_rhs(s_min, y, *params)[1]
    return float((ddpsi - r_plus * y[1]) * math.exp(-r_minus * s_min))


def tail_coefficient(problem: AmbiguityProblem, boundary: float) -> float:
    """Dominant-mode coefficient F(b); admissible exactly when F(b) <= 0.

    Integrates the linear form of the slope equation for psi = (1 - phi)/eps
    in s = log x,

        psi_ss = psi_s + 2 (lam - eps lam psi - mu psi_s) / q^2,
        q = sigma(x)/x,  psi(b) = 0,  psi_s(b) = b,

    from log b down to s_min = log(TAIL_FLOOR * drift_peak) with scipy's
    compiled DOP853 (``scipy.integrate.ode``, rtol 1e-12, atol 1e-14), and
    returns F = (psi_ss - r+ psi_s) e^{-r- s_min}, which removes the
    subdominant mode and the particular solution and leaves a positive
    multiple of the e^{r- s} coefficient.  F is continuous through D = 0,
    where the modes merge.  When D < 0 (lam(b) > c*) the base function
    oscillates, the boundary is inadmissible, and F is +inf without an
    integration.  Raises ``AssumptionViolationError`` when a <= 0 and
    ``SingularIntegrationError`` (with ``last_x``) when the integration
    fails.  Not thread-safe: every probe shares one integrator.
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
                    nodes_x, nodes_g, grid_x, grid_right_x, fd_x, fd_h):
        """The potential from its slopes at ascending nodes ending at beta.

        Slope derivatives from the ODE identity; the value a cumulative
        Hermite-corrected trapezoid, zero at the threshold: over [a, b],
        h (g_a + g_b)/2 + h^2 (g'_a - g'_b)/12, exact for cubics; companion
        slopes read off the nodes at fd_x -/+ fd_h; the floor the first node.
        """
        nodes_dg = _slope_rhs(problem, threshold, 0.0)(nodes_x, nodes_g)
        dx = np.diff(nodes_x)
        seg = (dx * (nodes_g[:-1] + nodes_g[1:]) / 2.0
               + dx * dx * (nodes_dg[:-1] - nodes_dg[1:]) / 12.0)
        value = np.concatenate(([0.0], np.cumsum(seg)))
        value -= value[-1]
        return cls(
            threshold=threshold, x_min=float(nodes_x[0]), nodes_x=nodes_x,
            nodes_slope=nodes_g, nodes_slope_deriv=nodes_dg,
            nodes_value=value, grid_x=grid_x, grid_right_x=grid_right_x,
            fd_x=fd_x, fd_h=fd_h,
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

    The linear form of ``tail_coefficient`` is integrated once by
    ``_linear_rows`` (the LSODA run ``cole_hopf_slope`` also reads), from
    the threshold down to the floor ``DIP_FLOOR * drift_peak``, with the
    nodes as output times: a log-spaced grid plus finite-difference
    companion nodes.  Its rows give psi and psi_s at each node, where the
    slope is g = (psi_s / x) / phi, phi = 1 - eps psi (g = 1 at the
    threshold).  Above the threshold g is one.
    ``PotentialGrid.from_slopes`` integrates the value from
    value(threshold) = 0; it is linear above.

    Raises ``SingularIntegrationError`` when the LSODA run fails (see
    ``_linear_rows``), ``TransformBreakdownError`` when phi is not positive
    at a node (the slope blows up above the floor) and ``InputDomainError``
    when the threshold is inadmissible (the slope dips below one).
    """
    x_min = DIP_FLOOR * problem.drift_peak
    grid_x = np.geomspace(x_min, threshold, N_GRID_LEFT)
    h = np.minimum(FD_STEP_ABS * threshold, FD_STEP_REL * grid_x)
    interior = (grid_x - h > x_min) & (grid_x + h < threshold)
    fd_x = grid_x[interior]
    fd_h = h[interior]
    nodes_x = np.unique(np.concatenate([grid_x, fd_x - fd_h, fd_x + fd_h]))

    psi, dpsi = _linear_rows(problem, threshold,
                             float(problem.drift(threshold)),
                             nodes_x[::-1])[:, ::-1]
    phi = 1.0 - problem.epsilon * psi
    nodes_g = dpsi / nodes_x / phi
    nodes_g[-1] = 1.0
    bad = np.flatnonzero(~(phi > 0.0) | (nodes_g < 1.0 - DIP_TOLERANCE))
    if bad.size:  # the largest failing node tells a dip from a blow-up
        x_bad = float(nodes_x[bad[-1]])
        if phi[bad[-1]] > 0.0:
            raise InputDomainError(
                f"threshold {threshold!r} is not admissible: slope dipped "
                f"below one near x={x_bad!r}")
        raise TransformBreakdownError(
            f"base function 1 - eps psi is not positive at x={x_bad!r}; the "
            "slope blew up above the grid floor", crossing_x=x_bad,
            derivative_sign=-float(np.sign(dpsi[bad[-1]])))

    x_plot_max = min(2.0 * problem.drift_zero, problem.x_max)
    right = np.linspace(threshold, x_plot_max, N_GRID_RIGHT + 1)[1:]
    return PotentialGrid.from_slopes(problem, threshold, nodes_x, nodes_g,
                                     grid_x, right, fd_x, fd_h)


@dataclass(frozen=True)
class ThresholdSolution:
    """Optimal threshold, long-run yield, and the tabulated potential.

    ``bisection_trace`` holds the search probes as (b, "in"/"out");
    ``regime`` is ``"interior"`` or ``"extinction_bound"`` (see
    ``solve_threshold``).
    """

    problem: AmbiguityProblem
    threshold: float
    long_run_yield: float
    grid: PotentialGrid
    bisection_trace: tuple
    beta_tolerance: float
    regime: str

    @property
    def iterations(self) -> int:
        """Number of probes in ``bisection_trace``."""
        return len(self.bisection_trace)

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


def solve_threshold(problem: AmbiguityProblem, *,
                    beta_rtol=BETA_RTOL) -> ThresholdSolution:
    """Root-find the optimal threshold and assemble its potential.

    The threshold is the ``brentq`` root of ``tail_coefficient`` to within
    ``beta_rtol * drift_zero``, between the drift peak (never admissible)
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
    beta_tol = beta_rtol * problem.drift_zero
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
        bisection_trace=tuple(trace), beta_tolerance=beta_tol, regime=regime)

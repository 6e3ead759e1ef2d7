"""Population models and the ambiguity-adjusted drift.

A coefficient model supplies the per-capita growth rate ``mu`` and the noise
scale ``sigma`` of the population diffusion

    dX = X mu(X) dt + sigma(X) dW.

For an ambiguity level ``epsilon`` the solver works with the adjusted drift

    lam(x) = x mu(x) - (epsilon / 2) sigma(x)^2,

whose maximizer ``drift_peak`` and first zero to its right ``drift_zero``
bracket the optimal harvesting threshold.  This module also hosts the scale
function density and the structural assumption checks (positive recurrence
near 0, coefficient regularity, unimodal adjusted drift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq, minimize_scalar

from .errors import AssumptionViolationError, InputDomainError, QuadratureError

__all__ = [
    "VerhulstPearl",
    "GeneralLogistic",
    "TabulatedModel",
    "AmbiguityProblem",
    "AssumptionCheck",
    "AssumptionReport",
    "adjusted_drift",
    "bracket_points",
    "scale_density",
    "check_assumptions",
    "model_from_config",
]

_N_DIVERGENCE = 8192    # log-grid nodes of the scale-divergence heuristic


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0.0:
            raise InputDomainError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class GeneralLogistic:
    """Crowding with exponent theta: mu(x) = mu_bar (1 - (gamma_bar x)^theta).

    theta = 1 recovers ``VerhulstPearl``.  The near-zero linear bound on mu
    requires theta >= 1; smaller exponents are accepted but fail the (A1)
    check, which is the intended way to surface them.
    """

    mu_bar: float = 1.0
    gamma_bar: float = 1.0
    sigma_bar: float = 1.0
    theta: float = 2.0
    x_max: float | None = None

    family = "general_logistic"
    assumptions_verified = True

    def __post_init__(self):
        _require_positive(mu_bar=self.mu_bar, gamma_bar=self.gamma_bar,
                          sigma_bar=self.sigma_bar, theta=self.theta)
        if self.x_max is not None:
            _require_positive(x_max=self.x_max)

    @property
    def params(self):
        return {"mu_bar": self.mu_bar, "gamma_bar": self.gamma_bar,
                "sigma_bar": self.sigma_bar, "theta": self.theta}

    def mu(self, x):
        y = self.gamma_bar * x
        # y ** 1.0 is exactly y: the logistic skips the power on hot paths.
        if self.theta != 1.0:
            y = y ** self.theta
        return self.mu_bar * (1.0 - y)

    def sigma(self, x):
        return self.sigma_bar * x

    def sigma_prime(self, x):
        return self.sigma_bar * (x * 0.0 + 1.0)

    def near_zero_constants(self):
        # For theta >= 1 and x <= 1/gamma_bar:
        # |mu - mu_bar| = mu_bar (gamma_bar x)^theta <= mu_bar gamma_bar x.
        return self.mu_bar, self.sigma_bar, self.mu_bar * self.gamma_bar

    def length_scale(self):
        return 1.0 / self.gamma_bar

    def analytic_bracket(self, epsilon):
        if epsilon == 0.0:
            peak = (self.theta + 1.0) ** (-1.0 / self.theta) / self.gamma_bar
            return peak, 1.0 / self.gamma_bar
        return None

    def analytic_zero_boundary_divergent(self):
        # S'(x) ~ x^(-2 mu_bar / sigma_bar^2) near 0; non-integrable iff
        # the exponent is >= 1.  The +infinity side always diverges here.
        return 2.0 * self.mu_bar >= self.sigma_bar ** 2


@dataclass(frozen=True)
class VerhulstPearl(GeneralLogistic):
    """Logistic diffusion: mu(x) = mu_bar (1 - gamma_bar x), sigma(x) = sigma_bar x.

    ``mu_bar`` is the per-capita growth rate, ``1/gamma_bar`` the carrying
    capacity and ``sigma_bar`` the volatility scale.  This is
    ``GeneralLogistic`` with theta fixed at one ((g x)**1.0 is exact), plus
    the closed-form bracket at every ambiguity level.
    """

    theta: float = field(default=1.0, init=False, repr=False)

    family = "verhulst_pearl"

    @property
    def params(self):
        return {"mu_bar": self.mu_bar, "gamma_bar": self.gamma_bar,
                "sigma_bar": self.sigma_bar}

    def analytic_bracket(self, epsilon):
        peak = self.mu_bar / (2.0 * self.mu_bar * self.gamma_bar
                              + epsilon * self.sigma_bar ** 2)
        return peak, 2.0 * peak


@dataclass(frozen=True, eq=False)
class TabulatedModel:
    """Coefficients given on a grid, interpolated monotonically (PCHIP).

    Derivatives come from the interpolant, so structural assumptions cannot
    be certified analytically; reports for this family are flagged as
    heuristic ("unverified assumptions").
    """

    xs: np.ndarray
    mu_values: np.ndarray
    sigma_values: np.ndarray
    x_max: float | None = None

    family = "tabulated"
    assumptions_verified = False

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        mu = np.asarray(self.mu_values, dtype=float)
        sg = np.asarray(self.sigma_values, dtype=float)
        if xs.ndim != 1 or xs.size < 4:
            raise InputDomainError("tabulated model needs at least 4 grid points")
        if not np.all(np.diff(xs) > 0.0):
            raise InputDomainError("tabulated grid must be strictly increasing")
        if xs[0] <= 0.0:
            raise InputDomainError("tabulated grid must start at a positive x")
        if mu.shape != xs.shape or sg.shape != xs.shape:
            raise InputDomainError("mu/sigma tables must match the x grid")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "mu_values", mu)
        object.__setattr__(self, "sigma_values", sg)

    @property
    def params(self):
        return {"n_points": int(self.xs.size),
                "x_lo": float(self.xs[0]), "x_hi": float(self.xs[-1])}

    @cached_property
    def _mu_interp(self):
        return PchipInterpolator(self.xs, self.mu_values, extrapolate=True)

    @cached_property
    def _sigma_interp(self):
        return PchipInterpolator(self.xs, self.sigma_values, extrapolate=True)

    def mu(self, x):
        return self._mu_interp(x)

    def sigma(self, x):
        return self._sigma_interp(x)

    def sigma_prime(self, x):
        return self._sigma_interp.derivative()(x)

    def near_zero_constants(self):
        # Estimated, not certified: the interpolant extrapolated to the
        # origin gives the limits, and the residual constant is fitted on
        # the lowest nodes.  Reading the first node instead would shift mu
        # by mu'(0) x_0 and fail the linear bound far below the table.
        sigma_bar = float(self._sigma_interp.derivative()(0.0))
        mu_bar = float(self._mu_interp(0.0))
        head = self.xs[: max(4, self.xs.size // 8)]
        c_sigma = np.max(np.abs(self.sigma(head) - sigma_bar * head) / head ** 2)
        c_mu = np.max(np.abs(self.mu(head) - mu_bar) / head)
        return mu_bar, sigma_bar, 1.5 * float(max(c_sigma, c_mu, 1e-12))

    def length_scale(self):
        return float(self.xs[-1] - self.xs[0]) / 2.0 + float(self.xs[0])

    def analytic_bracket(self, epsilon):
        return None

    def analytic_zero_boundary_divergent(self):
        return None


CoefficientModel = VerhulstPearl | GeneralLogistic | TabulatedModel

_FAMILIES = {
    "verhulst_pearl": VerhulstPearl,
    "general_logistic": GeneralLogistic,
    "tabulated": TabulatedModel,
}


def model_from_config(family: str, params: dict, x_max: float | None = None):
    """Instantiate a coefficient model from its config-file representation."""
    try:
        cls = _FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise InputDomainError(f"unknown model family {family!r}; known: {known}")
    return cls(x_max=x_max, **params)


def _drift(model, epsilon, x):
    """Adjusted drift x mu(x) - (epsilon/2) sigma(x)^2, unvalidated."""
    s = model.sigma(x)
    return x * model.mu(x) - 0.5 * epsilon * s * s


@dataclass(frozen=True)
class AmbiguityProblem:
    """A coefficient model paired with an ambiguity level.

    ``drift_peak`` maximizes the adjusted drift and ``drift_zero`` is its
    first zero to the right of the peak; the optimal threshold lies strictly
    between them.  ``x_max`` caps the working domain (default: ten times
    ``drift_zero``; all the action happens left of ``drift_zero``).
    """

    model: CoefficientModel
    epsilon: float
    drift_peak: float
    drift_zero: float
    x_max: float

    @classmethod
    def build(cls, model, epsilon):
        if epsilon < 0.0:
            raise InputDomainError(f"epsilon must be >= 0, got {epsilon!r}")
        peak, zero = bracket_points(model, epsilon)
        x_max = model.x_max if model.x_max is not None else 10.0 * zero
        if x_max <= zero:
            raise InputDomainError(
                f"x_max={x_max!r} must exceed the drift zero {zero!r}")
        return cls(model=model, epsilon=epsilon, drift_peak=peak,
                   drift_zero=zero, x_max=x_max)

    def drift(self, x):
        """Adjusted drift without domain validation (internal hot paths)."""
        return _drift(self.model, self.epsilon, x)

    def validate_x(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.size == 0:
            raise InputDomainError("empty state array")
        lo, hi = float(np.min(arr)), float(np.max(arr))
        if lo <= 0.0 or hi > self.x_max:
            raise InputDomainError(
                f"state out of working domain (0, {self.x_max}]: "
                f"range [{lo}, {hi}]")


def adjusted_drift(problem: AmbiguityProblem, x):
    """x mu(x) - (epsilon/2) sigma(x)^2, validated against the working domain."""
    problem.validate_x(x)
    return problem.drift(x)


def bracket_points(model, epsilon):
    """Locate the maximizer of the adjusted drift and its first zero beyond it.

    Uses the family's closed forms when available, otherwise Brent's bounded
    minimizer on the negated drift for the peak and Brent's root finder for
    the zero.  Raises ``AssumptionViolationError`` when the drift is not
    positive at its peak, or when no sign change is found up to the
    working-domain cap (unimodality (A2) fails or the cap is too small).
    """
    analytic = model.analytic_bracket(epsilon)
    if analytic is not None:
        return analytic

    def lam(x):
        return _drift(model, epsilon, x)

    scale = model.length_scale()
    # Expand right until lam decreases; the peak then lies inside [lo, hi].
    hi = scale
    lo = 1e-9 * scale
    for _ in range(200):
        if lam(hi) < lam(0.5 * hi):
            break
        hi *= 2.0
    else:
        raise AssumptionViolationError(
            "adjusted drift never starts decreasing; (A2) violated")
    peak = float(minimize_scalar(lambda x: -lam(x), bounds=(lo, hi),
                                 method="bounded",
                                 options={"xatol": 1e-10 * hi}).x)
    # brentq needs a sign change on [peak, hi]; a drift that never turns
    # positive has no threshold to bracket.
    if not lam(peak) > 0.0:
        raise AssumptionViolationError(
            f"adjusted drift is not positive at its peak {peak}; "
            "(A2) violated")

    cap = model.x_max if model.x_max is not None else 1e6 * peak
    hi = 2.0 * peak
    while lam(hi) > 0.0:
        hi *= 2.0
        if hi > cap:
            raise AssumptionViolationError(
                f"adjusted drift has no zero in ({peak}, {cap}]; "
                "(A2) violated or x_max too small")
    zero = brentq(lam, peak, hi, xtol=1e-12 * peak, rtol=1e-12)
    return peak, zero


def scale_density(problem: AmbiguityProblem, x, anchor=None):
    """Scale-function density S'(x) = exp(-int_anchor^x 2 mu(y) y / sigma(y)^2 dy).

    ``anchor`` defaults to the drift peak.  The exponent integral is computed
    by adaptive quadrature; non-convergence raises ``QuadratureError`` with
    the estimate and its error bound attached.
    """
    if anchor is None:
        anchor = problem.drift_peak
    problem.validate_x(x)
    problem.validate_x(anchor)
    if x == anchor:
        return 1.0
    model = problem.model

    def integrand(y):
        s = model.sigma(y)
        return 2.0 * model.mu(y) * y / (s * s)

    value, err = quad(integrand, anchor, x, epsabs=1e-13, epsrel=1e-12,
                      limit=400)
    if not math.isfinite(value) or err > max(1e-7, 1e-5 * abs(value)):
        raise QuadratureError(
            f"scale-density exponent quadrature did not converge on "
            f"[{anchor}, {x}]: estimate {value}, error bound {err}",
            estimate=value, error_estimate=err)
    return math.exp(-value)


@dataclass(frozen=True)
class AssumptionCheck:
    assumption: str   # "A0" | "A1" | "A2"
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]
    scale_anchor: float
    anchor_stable: bool
    heuristic_only: bool

    @property
    def all_passed(self):
        return self.anchor_stable and all(c.passed for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        if not self.anchor_stable:
            return AssumptionCheck("A0", "anchor_stability", False,
                                   "verdict depends on the scale anchor")
        return None


def _boundary_divergence_heuristic(problem, anchor):
    """Evidence that the scale function diverges at both boundaries.

    Evaluates S((y, anchor)) at geometrically shrinking y (and growing Y for
    the right boundary); the magnitude must at least double over the last
    three refinements.  A numeric limit cannot be certified, only evidenced.
    The exponent and the mass are cumulative trapezoid sums on one dense log
    grid; heuristic verdicts only need a few digits.
    """
    model = problem.model
    ys = np.geomspace(anchor * 4.0 ** -7, anchor * 2.0 ** 6, _N_DIVERGENCE)
    sig = np.asarray(model.sigma(ys), dtype=float)
    integrand = 2.0 * np.asarray(model.mu(ys), dtype=float) * ys / (sig * sig)
    exponent = cumulative_trapezoid(integrand, ys, initial=0.0)
    exponent -= np.interp(anchor, ys, exponent)
    sprime = np.exp(np.minimum(-exponent, 700.0))
    mass_cum = cumulative_trapezoid(sprime, ys, initial=0.0)

    def mass(a, b):
        return np.interp(b, ys, mass_cum) - np.interp(a, ys, mass_cum)

    left = [mass(anchor * 4.0 ** (-k), anchor) for k in range(1, 8)]
    left_ok = all(left[k] >= 2.0 * left[k - 1] for k in (-2, -1))
    right = [mass(anchor, anchor * 2.0 ** k) for k in range(1, 7)]
    right_ok = all(right[k] >= 2.0 * right[k - 1] for k in (-2, -1))
    return left_ok and right_ok, left[-1], right[-1]


def check_assumptions(problem: AmbiguityProblem) -> AssumptionReport:
    """Grid-and-heuristic verification of (A0)-(A2).

    Failures land in the report rather than raising.  For parametric families
    with known analytic answers the analytic verdict overrides the heuristic;
    the divergence heuristic is recorded for tabulated models only.  The
    scale anchor used for (A0) is recorded and the verdict is required to be
    stable under halving/doubling it.
    """
    model = problem.model
    checks = []
    anchor = problem.drift_peak

    analytic_a0 = model.analytic_zero_boundary_divergent()
    if analytic_a0 is not None:
        checks.append(AssumptionCheck(
            "A0", "scale_function_divergence", bool(analytic_a0),
            "analytic verdict for the parametric family"))
        anchor_stable = True
    else:
        verdicts = []
        magnitude = None
        for c in (0.5 * anchor, anchor, 2.0 * anchor):
            ok, left_mag, right_mag = _boundary_divergence_heuristic(problem, c)
            verdicts.append(ok)
            if c == anchor:
                magnitude = (left_mag, right_mag)
        checks.append(AssumptionCheck(
            "A0", "scale_function_divergence", verdicts[1],
            f"divergence-trend heuristic; last masses {magnitude}"))
        anchor_stable = len(set(verdicts)) == 1

    # (A1) grid checks on a log-spaced sample of the working domain.
    lo = max(1e-6 * problem.drift_peak, 1e-300)
    n_grid = 256
    xs = np.geomspace(lo, problem.x_max, n_grid)
    sig = np.asarray(model.sigma(xs), dtype=float)
    mu = np.asarray(model.mu(xs), dtype=float)
    checks.append(AssumptionCheck(
        "A1", "sigma_positive_increasing",
        bool(np.all(sig > 0.0) and np.all(np.diff(sig) > 0.0)),
        f"sampled at {n_grid} points"))
    sig_p = np.asarray(model.sigma_prime(xs), dtype=float)
    ptol = 1e-10 * float(np.max(np.abs(sig_p))) + 1e-300
    checks.append(AssumptionCheck(
        "A1", "sigma_slope_nondecreasing",
        bool(np.all(np.diff(sig_p) >= -ptol)),
        "sigma' sampled on the working domain"))
    ratio = xs * mu / sig
    rtol = 1e-12 * float(np.max(np.abs(ratio))) + 1e-300
    checks.append(AssumptionCheck(
        "A1", "drift_to_noise_nonincreasing",
        bool(np.all(np.diff(ratio) <= rtol)),
        "x mu(x)/sigma(x) sampled on the working domain"))
    mu_bar, sigma_bar, c_bound = model.near_zero_constants()
    near = np.geomspace(1e-8, 1e-2, 64) * model.length_scale()
    sig_n = np.asarray(model.sigma(near), dtype=float)
    mu_n = np.asarray(model.mu(near), dtype=float)
    near_ok = (np.all(np.abs(sig_n - sigma_bar * near) <= c_bound * near ** 2 + 1e-15)
               and np.all(np.abs(mu_n - mu_bar) <= c_bound * near + 1e-15))
    checks.append(AssumptionCheck(
        "A1", "near_zero_expansion", bool(near_ok),
        f"constants mu_bar={mu_bar:g}, sigma_bar={sigma_bar:g}, c={c_bound:g}"))

    # (A2): unimodality of the adjusted drift around the computed peak and
    # the zero actually being a zero.
    lam = np.asarray(problem.drift(xs), dtype=float)
    lam_scale = float(np.max(np.abs(lam))) + 1e-300
    left_side = xs <= problem.drift_peak
    right_side = xs >= problem.drift_peak
    inc_ok = np.all(np.diff(lam[left_side]) >= -1e-10 * lam_scale)
    dec_ok = np.all(np.diff(lam[right_side]) <= 1e-10 * lam_scale)
    checks.append(AssumptionCheck(
        "A2", "adjusted_drift_unimodal", bool(inc_ok and dec_ok),
        f"peak at {problem.drift_peak:g}"))
    zero_ok = (abs(float(problem.drift(problem.drift_zero))) <= 1e-10 * lam_scale
               and problem.drift_zero >= problem.drift_peak)
    checks.append(AssumptionCheck(
        "A2", "drift_zero_located", bool(zero_ok),
        f"zero at {problem.drift_zero:g}"))

    return AssumptionReport(
        checks=tuple(checks), scale_anchor=anchor,
        anchor_stable=bool(anchor_stable),
        heuristic_only=not model.assumptions_verified)

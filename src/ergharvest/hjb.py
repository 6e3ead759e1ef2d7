"""Free-boundary verification of a computed threshold solution.

The solved potential must satisfy, with ``ell`` the long-run yield,

    L v(x) = ell and v'(x) >= 1        below the threshold,
    L v(x) <= ell and v'(x) = 1        above it,
    v'(threshold) = 1, v''(threshold) = 0   (smooth pasting),

where L is the ambiguity-penalized generator

    L f(x) = (1/2) sigma^2(x) f''(x) + x mu(x) f'(x)
             - (eps/2) sigma^2(x) (f'(x))^2.

The curvature below the threshold is defined through the ODE identity and is
therefore self-consistent; the non-circular part of the audit is the
finite-difference cross-check against companion slope evaluations recorded
during the solve.

This module also builds the truncated potential attached to a boundary
strictly below the threshold: the slope is kept where it stays above one and
extended linearly below its unit crossing.  The construction violates the
generator bound by an amount that vanishes as the boundary approaches the
threshold, which is what licenses the threshold value as an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ivp
from .errors import InputDomainError
from .model import AmbiguityProblem
from .shooting import (DIP_FLOOR, DIP_TOLERANCE, ThresholdSolution,
                       _piecewise, _slope_rhs, integrate_slope,
                       tail_coefficient)

__all__ = [
    "HjbReport",
    "TruncatedPotential",
    "apply_operator",
    "minimizing_kernel",
    "verify_solution",
    "build_truncated",
    "violation_delta",
]

TOLERANCES = {
    "residual_left": 1e-6,
    "excess_right": 1e-8,
    "vprime": DIP_TOLERANCE,  # v' >= 1 - tol below the threshold
    "pasting_slope": 1e-10,
    "pasting_curvature": 1e-6,
    "fd_agreement": 1e-4,
}


def apply_operator(problem: AmbiguityProblem, vprime, vsecond, x):
    """Evaluate L f at x from callables for f' and f''.

    Uses the Legendre-minimized quadratic form, which is valid for every
    ambiguity level including zero.
    """
    x = np.asarray(x, dtype=float)
    problem.validate_x(x)
    fp = np.asarray(vprime(x), dtype=float)
    fpp = np.asarray(vsecond(x), dtype=float)
    s = np.asarray(problem.model.sigma(x), dtype=float)
    s2 = s * s
    mu = np.asarray(problem.model.mu(x), dtype=float)
    out = 0.5 * s2 * fpp + x * mu * fp - 0.5 * problem.epsilon * s2 * fp * fp
    return out if out.ndim else float(out)


def minimizing_kernel(problem: AmbiguityProblem, vprime, x):
    """Pointwise minimizer of the penalized generator: -eps sigma(x) f'(x)."""
    x = np.asarray(x, dtype=float)
    out = (-problem.epsilon * np.asarray(problem.model.sigma(x), dtype=float)
           * np.asarray(vprime(x), dtype=float))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class HjbReport:
    """Residuals of the free-boundary characterization on a dense grid.

    ``verdict`` is true when every residual is inside its tolerance.  The
    left residual uses the identity-based curvature and mainly captures
    assembly and rounding noise; ``fd_max_disagreement`` is the independent
    certification of that curvature, measured as |fd - ode| / (1 + |ode|)
    over the recorded companion nodes.  Every solution carries companions,
    so that check always runs and a NaN disagreement fails it.
    """

    max_abs_residual_left: float
    max_excess_right: float
    min_vprime_left: float
    pasting_slope_gap: float
    pasting_curvature: float
    fd_max_disagreement: float
    fd_points: int
    verdict: bool
    tolerances: dict

    def summary_lines(self):
        t = self.tolerances
        return [
            f"left residual  max |L v - ell| = {self.max_abs_residual_left:.3e}"
            f"  (tol {t['residual_left']:.1e})",
            f"right excess   max (L v - ell)+ = {self.max_excess_right:.3e}"
            f"  (tol {t['excess_right']:.1e})",
            f"slope bound    min v' = {self.min_vprime_left:.12f}"
            f"  (>= 1 - {t['vprime']:.1e})",
            f"pasting        |v'(beta)-1| = {self.pasting_slope_gap:.3e}"
            f"  (tol {t['pasting_slope']:.1e}),"
            f" |v''(beta)| = {self.pasting_curvature:.3e}"
            f"  (tol {t['pasting_curvature']:.1e})",
            f"fd curvature   max disagreement = {self.fd_max_disagreement:.3e}"
            f"  over {self.fd_points} nodes (tol {t['fd_agreement']:.1e})",
            f"verdict        {'pass' if self.verdict else 'FAIL'}",
        ]


def verify_solution(sol: ThresholdSolution) -> HjbReport:
    """Audit a threshold solution against the free-boundary system.

    The operator is that of ``sol.problem``, the problem it was solved for.
    Residuals are evaluated on the solution's own grid (log-spaced below the
    threshold, linear above); the curvature is cross-checked by finite
    differences on the companion nodes, which a solve and a reload both have.
    """
    problem = sol.problem
    grid = sol.grid
    beta = sol.threshold
    ell = sol.long_run_yield

    xs_left = grid.grid_x
    lv = apply_operator(problem, sol.vprime, sol.vsecond, xs_left)
    residual_left = float(np.max(np.abs(lv - ell)))
    min_vprime = float(np.min(sol.vprime(xs_left)))

    xs_right = grid.grid_right_x
    lam_right = np.asarray(problem.drift(xs_right), dtype=float)
    excess_right = float(np.max(np.maximum(lam_right - ell, 0.0)))

    pasting_slope = abs(float(sol.vprime(beta)) - 1.0)
    pasting_curv = abs(float(sol.vsecond(beta)))

    v2_fd = (grid.fd_slope_plus - grid.fd_slope_minus) / (2.0 * grid.fd_h)
    v2_ode = sol.vsecond(grid.fd_x)
    fd_gap = float(np.max(np.abs(v2_fd - v2_ode) / (1.0 + np.abs(v2_ode))))

    t = TOLERANCES
    verdict = (residual_left <= t["residual_left"]
               and excess_right <= t["excess_right"]
               and min_vprime >= 1.0 - t["vprime"]
               and pasting_slope <= t["pasting_slope"]
               and pasting_curv <= t["pasting_curvature"]
               and fd_gap <= t["fd_agreement"])
    return HjbReport(
        max_abs_residual_left=residual_left, max_excess_right=excess_right,
        min_vprime_left=min_vprime, pasting_slope_gap=pasting_slope,
        pasting_curvature=pasting_curv, fd_max_disagreement=fd_gap,
        fd_points=int(grid.fd_x.size), verdict=bool(verdict),
        tolerances=dict(t))


@dataclass
class TruncatedPotential:
    """Potential for a boundary below the threshold, linearized under the dip.

    The slope equals the shooting solution on [dip_x, boundary] and continues
    linearly through (dip_x, 1) with slope ``slope_at_dip`` below, where

        slope_at_dip = 2 (lam(boundary) - lam(dip_x)) / sigma(dip_x)^2

    is the ODE's own derivative at the unit crossing, so the extension is C1
    and the curvature is constant under the dip.  A positive ``slope_at_dip``
    makes the linear piece fall below one on (0, dip_x); that is recorded in
    ``dips_below_one`` rather than assumed away.
    """

    boundary: float
    dip_x: float
    slope_at_dip: float
    yield_ref: float
    grid: ivp.IntegrationResult
    dips_below_one: bool

    def vprime(self, x):
        g = self.grid
        return _piecewise(
            x, self.dip_x,
            lambda xb: self.slope_at_dip * (xb - self.dip_x) + 1.0,
            lambda xa: ivp.hermite_interp(g.xs[::-1], g.ys[::-1],
                                          g.dys[::-1], xa))

    def vsecond(self, problem: AmbiguityProblem, x):
        """Constant under the dip, ODE identity at the boundary's level above."""
        rhs = _slope_rhs(problem, self.boundary, 0.0)
        return _piecewise(x, self.dip_x, lambda xb: self.slope_at_dip,
                          lambda xa: rhs(xa, self.vprime(xa)))


def build_truncated(problem: AmbiguityProblem, boundary: float,
                    yield_ref: float) -> TruncatedPotential:
    """Locate the dip of an inadmissible boundary and linearize under it.

    ``yield_ref`` is the long-run yield of the solved threshold; the
    truncated potential's violation is measured against it.  Admissibility
    is decided by ``tail_coefficient``.  Raises ``InputDomainError`` when the
    boundary is admissible (truncation does not apply), and when it is
    inadmissible but its dip lies below the shooting grid floor.
    """
    if boundary <= problem.drift_peak:
        raise InputDomainError(
            f"boundary {boundary!r} must exceed the drift peak "
            f"{problem.drift_peak!r}")
    if tail_coefficient(problem, boundary) <= 0.0:
        raise InputDomainError(
            f"boundary {boundary!r} is admissible and has no truncated "
            "potential")
    x_min = DIP_FLOOR * problem.drift_peak
    grid = integrate_slope(problem, boundary, 0.0, x_min)
    if grid.status != "dip":
        raise InputDomainError(
            f"boundary {boundary!r} is inadmissible, but its dip lies below "
            f"the grid floor {x_min!r}")
    alpha = grid.crossing_x
    slope = float(_slope_rhs(problem, boundary, 0.0)(alpha, 1.0))
    return TruncatedPotential(
        boundary=boundary, dip_x=alpha, slope_at_dip=slope,
        yield_ref=yield_ref, grid=grid, dips_below_one=slope > 0.0)


def violation_delta(problem: AmbiguityProblem, tp: TruncatedPotential, *,
                    grid_floor=1e-6) -> float:
    """Supremum of L v - yield_ref over the linear piece under the dip.

    L v is ``apply_operator`` on the potential's own ``vprime`` and
    ``vsecond``, which under the dip are the linear piece and its constant
    curvature.  The grid is log-spaced on (grid_floor * dip_x, dip_x] and
    includes the dip point, where the shooting slope is one and its
    curvature the piece's: L v is continuous there (the extension is C1
    with matching curvature), so the supremum over the open interval is
    attained in the closure; an open grid under-resolves the steep boundary
    layer at the dip once the linear slope is large.  Refining the floor is
    a convergence diagnostic, the integrand extends continuously to zero.
    """
    xs = np.geomspace(grid_floor * tp.dip_x, tp.dip_x, 2000)
    lv = apply_operator(problem, tp.vprime, lambda x: tp.vsecond(problem, x),
                        xs)
    return float(np.max(lv) - tp.yield_ref)

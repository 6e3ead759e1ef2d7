"""Ambiguity sweeps: threshold and yield as functions of the ambiguity level.

Both the optimal threshold and the optimal long-run yield are non-increasing
in the ambiguity level, continuous at zero, and collapse to zero as the
level grows (the bracket itself collapses).  The sweep solves each level
independently and the monotonicity report checks adjacent rows with slacks
tied to the solver's threshold tolerance: adjacent thresholds or yields
closer than the solver can resolve must not fail the check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InputDomainError
from .model import AmbiguityProblem, require_epsilon
from .shooting import solve_threshold

__all__ = ["SweepRow", "MonotonicityReport", "sweep", "monotonicity_report"]


@dataclass(frozen=True)
class SweepRow:
    """One solved ambiguity level; field names match the sweep CSV schema."""

    epsilon: float
    x_eps: float
    x_bar_eps: float
    beta_eps: float
    ell_eps: float
    iterations: int
    wall_ms: float
    beta_tolerance: float
    ell_tolerance: float
    regime: str
    failed: bool = False
    failure: str = ""


def sweep(model, eps_grid) -> list[SweepRow]:
    """Solve the threshold problem for every level in an ascending grid.

    Rows are computed independently (no cross-level state) and returned in
    grid order; a per-level solver failure flags the row and the sweep
    continues.
    """
    eps_grid = [require_epsilon(e) for e in eps_grid]
    if any(b < a for a, b in zip(eps_grid, eps_grid[1:])):
        raise InputDomainError("eps_grid must be ascending")
    rows = []
    for eps in eps_grid:
        t0 = time.perf_counter()
        try:
            problem = AmbiguityProblem.build(model, eps)
            sol = solve_threshold(problem)
            wall_ms = 1000.0 * (time.perf_counter() - t0)
            beta, tol = sol.threshold, sol.beta_tolerance
            rows.append(SweepRow(
                epsilon=eps, x_eps=problem.drift_peak,
                x_bar_eps=problem.drift_zero, beta_eps=beta,
                ell_eps=sol.long_run_yield, iterations=sol.iterations,
                wall_ms=wall_ms, beta_tolerance=tol,
                ell_tolerance=abs(float(problem.drift(beta)
                                        - problem.drift(beta - tol))),
                regime=sol.regime))
        except Exception as exc:  # noqa: BLE001 - row-level isolation is the contract
            wall_ms = 1000.0 * (time.perf_counter() - t0)
            rows.append(SweepRow(
                epsilon=eps, x_eps=float("nan"), x_bar_eps=float("nan"),
                beta_eps=float("nan"), ell_eps=float("nan"), iterations=0,
                wall_ms=wall_ms, beta_tolerance=float("nan"),
                ell_tolerance=float("nan"), regime="", failed=True,
                failure=f"{type(exc).__name__}: {exc}"))
    return rows


@dataclass(frozen=True)
class MonotonicityReport:
    """Adjacent-pair monotonicity of threshold and yield along the sweep.

    ``slack`` applies to thresholds (units of x), ``ell_slack`` to yields.
    """

    n_pairs: int
    beta_violations: tuple
    ell_violations: tuple
    slack: float
    ell_slack: float
    passed: bool

    def lines(self):
        out = [f"{self.n_pairs} adjacent pairs, slack {self.slack:.3e}, "
               f"yield slack {self.ell_slack:.3e}"]
        for eps_a, eps_b, va, vb in self.beta_violations:
            out.append(f"threshold increased: beta({eps_a}) = {va!r} "
                       f"-> beta({eps_b}) = {vb!r}")
        for eps_a, eps_b, va, vb in self.ell_violations:
            out.append(f"yield increased: ell({eps_a}) = {va!r} "
                       f"-> ell({eps_b}) = {vb!r}")
        out.append("monotonicity: " + ("pass" if self.passed else "FAIL"))
        return out


def monotonicity_report(rows) -> MonotonicityReport:
    """Check that threshold and yield never increase along ascending levels.

    The threshold slack is ten times the widest threshold tolerance among
    the solved rows (each row's ``beta_tolerance`` as its solve ran), and the
    yield slack ten times the widest ``ell_tolerance``, the drift change
    across one threshold tolerance: monotonicity is exact for the true
    quantities, but the solver resolves them only to its tolerance, so
    adjacent values closer than that must not fail the check.  Failed rows
    are skipped pairwise.
    """
    ok = [r for r in rows if not r.failed]
    slack = 10.0 * max((r.beta_tolerance for r in ok), default=0.0)
    ell_slack = 10.0 * max((r.ell_tolerance for r in ok), default=0.0)
    beta_bad = []
    ell_bad = []
    pairs = 0
    for a, b in zip(ok, ok[1:]):
        pairs += 1
        if b.beta_eps > a.beta_eps + slack:
            beta_bad.append((a.epsilon, b.epsilon, a.beta_eps, b.beta_eps))
        if b.ell_eps > a.ell_eps + ell_slack:
            ell_bad.append((a.epsilon, b.epsilon, a.ell_eps, b.ell_eps))
    return MonotonicityReport(
        n_pairs=pairs, beta_violations=tuple(beta_bad),
        ell_violations=tuple(ell_bad), slack=float(slack),
        ell_slack=float(ell_slack), passed=not beta_bad and not ell_bad)

"""Reflected Euler-Maruyama simulation of the harvested population.

The threshold policy keeps the population in [0, beta] by harvesting
exactly the overshoot at the upper boundary (the interval Skorokhod map
reduces, per Euler step, to a min with the boundary plus the clipped
excess).  Under the worst-case measure the drift gains sigma(x) psi(x)
with the adverse kernel psi(x) = -eps sigma(x) v'(x), and the payoff adds
the divergence penalty psi^2 / (2 eps) per unit time.  The long-run average
of harvest plus penalty estimates the solved yield.

Since psi does not depend on time, the worst-case step is tabulated once
per run: the per-step drift (x mu(x) + sigma(x) psi(x)) dt and the KL
increment psi^2 / (2 eps) dt sit on nodes equally spaced in log x from the
potential grid floor to beta, and each step looks its cell up in O(1) and
interpolates linearly in log x.  The spacing is logarithmic because the
kernel varies on the scale of x itself near zero (psi moves from -0.195 to
-0.234 between x = 1e-7 and 1e-5 at eps = 1), where the worst-case
population spends a sizable share of its time; a uniform table over
[0, beta] would smear that whole range into its first cell.  The kernel
at the nodes is ``hjb.minimizing_kernel`` of the solved slope ``sol.vprime``,
which stays the reference the table is tested against.  The only measures
are the reference dynamics and this worst case.

Paths are independent units of work with their own counter-based random
streams (Philox keyed by master seed and path index), so results are
bit-identical regardless of how paths are batched or scheduled.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputDomainError, SimulationAbortError
from .hjb import minimizing_kernel
from .model import AmbiguityProblem
from .shooting import ThresholdSolution

__all__ = [
    "SimConfig",
    "PathStats",
    "PayoffEstimate",
    "X0IndependenceReport",
    "path_rng",
    "reflect_step",
    "worst_case_kernel",
    "simulate_path",
    "estimate_payoff",
    "x0_independence_check",
]

_MASK64 = (1 << 64) - 1

MEASURES = ("reference", "worstcase")


def path_rng(seed: int, path_id: int) -> np.random.Generator:
    """Counter-based generator for one path: Philox keyed by (seed, path)."""
    key = ((seed & _MASK64) << 64) | (path_id & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def reflect_step(x, drift, noise, beta):
    """One projected Euler step of the threshold policy.

    ``proposed = x + drift + noise`` is pushed back to the boundary: the
    overshoot above beta is harvested (dZ), a negative proposal is clipped
    to zero with no harvest (the event is counted by the caller; zero is
    unattainable for the continuous dynamics, so clipping preserves the
    model instead of inventing a regulator there).

    Works elementwise on scalars or arrays; returns (x_next, dZ).
    """
    proposed = x + drift + noise
    dZ = np.maximum(proposed - beta, 0.0)
    x_next = np.minimum(proposed, beta)
    x_next = np.maximum(x_next, 0.0)
    if np.ndim(proposed) == 0:
        return float(x_next), float(dZ)
    return x_next, dZ


def worst_case_kernel(problem: AmbiguityProblem, sol: ThresholdSolution, x):
    """Adverse Girsanov kernel -eps sigma(x) v'(x) of a solved potential.

    Below the tabulated grid floor the slope is clamped to its floor value
    (the reflected process spends vanishing time there); the simulation
    engine counts clamped evaluations.
    """
    return minimizing_kernel(problem, sol.vprime, x)


# Steps per block: noise is drawn, and non-finite paths are quarantined,
# once per block of this many steps.
_BLOCK_STEPS = 4096

# Nodes of the worst-case step table: at 4096 log-spaced nodes the
# interpolated kernel stays within 1e-5 eps sigma(beta) of the solved cubic
# for eps from 0.5 to 20 (tests/test_simulate.py).
_TABLE_NODES = 4096


class _WorstCaseStep:
    """Worst-case per-step drift and KL increment, tabulated in log x.

    Node k sits at x_k = lo (beta / lo)^(k / (N - 1)), where lo is the floor
    of the solved potential grid; between nodes both quantities are linear
    in log x.  Each is stored as node values plus forward differences (the
    last difference is zero), so a lookup is one index and one fraction.
    """

    def __init__(self, problem: AmbiguityProblem, sol: ThresholdSolution,
                 beta: float, dt: float):
        self.lo = float(sol.grid.nodes_x[0])
        self.s0 = math.log(self.lo)
        self.top = _TABLE_NODES - 1
        self.inv_ds = self.top / (math.log(beta) - self.s0)
        xs = np.exp(np.linspace(self.s0, math.log(beta), _TABLE_NODES))
        xs[0], xs[-1] = self.lo, beta
        self.xs = xs
        psi = minimizing_kernel(problem, sol.vprime, xs)
        model = problem.model
        self.drift = (xs * model.mu(xs) + model.sigma(xs) * psi) * dt
        self.drift_diff = np.append(np.diff(self.drift), 0.0)
        self.kl = psi * psi * (dt / (2.0 * problem.epsilon))
        self.kl_diff = np.append(np.diff(self.kl), 0.0)

    def lookup(self, x):
        """Cell index, fraction in the cell and floor-clamp mask of each x.

        States below the floor use the floor node, so t >= 0 up to rounding
        (which the cast truncates to node 0); t is capped at the last node,
        whose difference is zero.  The index is clamped again after the cast
        because a NaN state casts to INT64_MIN; its fraction stays NaN, so
        the path is still quarantined at the end of its block.
        """
        t = np.log(np.maximum(x, self.lo))
        t -= self.s0
        t *= self.inv_ds
        np.minimum(t, self.top, out=t)
        idx = t.astype(np.int64)
        np.maximum(idx, 0, out=idx)
        return idx, t - idx, x < self.lo

    def drift_at(self, idx, frac):
        out = self.drift.take(idx)
        out += frac * self.drift_diff.take(idx)
        return out

    def kl_at(self, idx, frac):
        out = self.kl.take(idx)
        out += frac * self.kl_diff.take(idx)
        return out


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Monte Carlo configuration for one threshold policy.

    ``measure`` selects the simulated drift: the reference dynamics or the
    worst-case change of measure, whose step table is built from the solved
    slope ``solution.vprime``.  ``burn_in`` is the fraction of the horizon
    discarded before time averaging.
    """

    problem: AmbiguityProblem
    beta: float
    x0: float
    dt: float = 1e-4
    horizon: float = 200.0
    n_paths: int = 256
    burn_in: float = 0.1
    measure: str = "reference"
    solution: ThresholdSolution | None = None
    seed: int = 0
    n_bins: int = 50
    occupation_stride: int = 8

    def __post_init__(self):
        if not self.beta > 0.0:
            raise InputDomainError(f"beta must be positive, got {self.beta!r}")
        if not self.x0 > 0.0:
            raise InputDomainError(f"x0 must be positive, got {self.x0!r}")
        if not 0.0 < self.dt < self.horizon:
            raise InputDomainError(
                f"need 0 < dt < horizon, got dt={self.dt!r}, "
                f"horizon={self.horizon!r}")
        if not 0.0 <= self.burn_in <= 0.5:
            raise InputDomainError(
                f"burn_in must be in [0, 0.5], got {self.burn_in!r}")
        for name in ("n_paths", "n_bins", "occupation_stride"):
            if getattr(self, name) < 1:
                raise InputDomainError(f"{name} must be at least 1")
        if self.measure not in MEASURES:
            raise InputDomainError(
                f"measure must be one of {MEASURES}, got {self.measure!r}")
        if self.measure == "worstcase" and self.solution is None:
            raise InputDomainError("worstcase measure needs a solved potential")

    @property
    def n_steps(self):
        return int(round(self.horizon / self.dt))

    @property
    def burn_steps(self):
        return int(round(self.burn_in * self.n_steps))


@dataclass
class PathStats:
    """Accumulators of one simulated trajectory (retained window only)."""

    path_id: int
    harvest_total: float
    kl_penalty: float
    payoff_estimate: float
    occupation_histogram: np.ndarray
    max_x: float
    negative_proposals: int
    floor_clamps: int
    first_half_payoff: float
    second_half_payoff: float
    aborted: bool


def _run_paths(cfg: SimConfig, path_ids) -> list[PathStats]:
    problem = cfg.problem
    mu = problem.model.mu
    sigma = problem.model.sigma
    beta = cfg.beta
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    eps = problem.epsilon
    n = len(path_ids)
    n_steps = cfg.n_steps
    burn = cfg.burn_steps
    retained = n_steps - burn
    mid = burn + retained // 2
    table = (_WorstCaseStep(problem, cfg.solution, beta, dt)
             if cfg.measure == "worstcase" and eps > 0.0 else None)

    x = np.full(n, min(cfg.x0, beta), dtype=float)
    Z = np.full(n, max(cfg.x0 - beta, 0.0), dtype=float)  # instant harvest
    KL = np.zeros(n)
    neg = np.zeros(n, dtype=np.int64)
    clamps = np.zeros(n, dtype=np.int64)
    occ = np.zeros((n, cfg.n_bins), dtype=np.int64)
    max_x = x.copy()
    aborted = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    bin_scale = cfg.n_bins / beta

    Z_burn = KL_burn = Z_mid = KL_mid = None
    if burn == 0:
        # Window starts at time zero minus: the instant initial harvest counts.
        Z_burn, KL_burn = np.zeros(n), np.zeros(n)

    gens = [path_rng(cfg.seed, int(pid)) for pid in path_ids]
    block = _BLOCK_STEPS
    noise = np.empty((block, n))
    done = 0
    # NaN/inf paths are quarantined at block boundaries; silence the float
    # warnings their garbage values would emit in the meantime.
    with np.errstate(invalid="ignore", over="ignore"):
        while done < n_steps:
            m = min(block, n_steps - done)
            for j, gen in enumerate(gens):
                noise[:m, j] = gen.standard_normal(m)
            noise[:m] *= sqdt
            for i in range(m):
                k = done + i
                sig = sigma(x)
                if table is not None:
                    idx, frac, low = table.lookup(x)
                    drift = table.drift_at(idx, frac)
                    if k >= burn:
                        KL += table.kl_at(idx, frac)
                        clamps += low
                else:
                    drift = x * mu(x) * dt
                proposed = x + drift + sig * noise[i]
                over = proposed - beta
                np.maximum(over, 0.0, out=over)
                if k >= burn:
                    Z += over
                    neg += proposed < 0.0
                np.minimum(proposed, beta, out=proposed)
                np.maximum(proposed, 0.0, out=proposed)
                x = proposed
                np.maximum(max_x, x, out=max_x)
                if k >= burn and (k - burn) % cfg.occupation_stride == 0:
                    # Clip from below too: a quarantined NaN path casts to
                    # INT64_MIN and must not break the indexing.
                    bins = np.clip((x * bin_scale).astype(np.int64), 0,
                                   cfg.n_bins - 1)
                    occ[rows, bins] += 1
                if k + 1 == burn:
                    Z_burn, KL_burn = Z.copy(), KL.copy()
                elif k + 1 == mid:
                    Z_mid, KL_mid = Z.copy(), KL.copy()
            bad = ~(np.isfinite(x) & np.isfinite(Z) & np.isfinite(KL))
            if np.any(bad):
                aborted |= bad
                x[bad] = beta  # park the path; excluded from aggregates
            done += m

    if Z_burn is None:
        Z_burn, KL_burn = Z.copy(), KL.copy()
    if Z_mid is None:
        Z_mid, KL_mid = Z.copy(), KL.copy()

    t_ret = retained * dt
    t_first = (mid - burn) * dt
    t_second = t_ret - t_first
    stats = []
    for j, pid in enumerate(path_ids):
        harvest = float(Z[j] - Z_burn[j])
        kl = float(KL[j] - KL_burn[j])
        payoff = (harvest + kl) / t_ret if t_ret > 0.0 else float("nan")
        first = ((float(Z_mid[j] - Z_burn[j]) + float(KL_mid[j] - KL_burn[j]))
                 / t_first if t_first > 0.0 else float("nan"))
        second = ((float(Z[j] - Z_mid[j]) + float(KL[j] - KL_mid[j]))
                  / t_second if t_second > 0.0 else float("nan"))
        stats.append(PathStats(
            path_id=int(pid), harvest_total=harvest, kl_penalty=kl,
            payoff_estimate=payoff, occupation_histogram=occ[j].copy(),
            max_x=float(max_x[j]), negative_proposals=int(neg[j]),
            floor_clamps=int(clamps[j]), first_half_payoff=first,
            second_half_payoff=second, aborted=bool(aborted[j])))
    return stats


def simulate_path(cfg: SimConfig, path_id: int = 0) -> PathStats:
    """Simulate a single path; identical to the same path in a batched run."""
    return _run_paths(cfg, [path_id])[0]


@dataclass(frozen=True)
class PayoffEstimate:
    """Aggregate of per-path payoff estimates.

    ``std_error`` is zero with ``se_defined`` False when only one path ran.
    ``split_consistent`` reports the first-half/second-half window check
    (within three combined standard errors), a guard on treating the plain
    long-window average as the ergodic limit.
    """

    mean: float
    std_error: float
    se_defined: bool
    n_paths: int
    n_aborted: int
    first_half_mean: float
    second_half_mean: float
    split_consistent: bool
    per_path: tuple[PathStats, ...] = field(repr=False)


def _std_error(values):
    """Standard error of the mean of at least two values."""
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def estimate_payoff(cfg: SimConfig, *, jobs: int = 1) -> PayoffEstimate:
    """Run all configured paths and aggregate their payoff estimates.

    Paths are batched; with ``jobs > 1`` batches run in separate processes.
    Per-path streams make the result independent of the batching.  Raises
    ``SimulationAbortError`` when more than 10% of paths aborted.
    """
    ids = list(range(cfg.n_paths))
    if jobs <= 1 or cfg.n_paths == 1:
        stats = _run_paths(cfg, ids)
    else:
        jobs = min(jobs, cfg.n_paths)
        chunks = [ids[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_paths, [cfg] * len(chunks), chunks))
        stats = sorted((s for part in parts for s in part),
                       key=lambda s: s.path_id)

    good = [s for s in stats if not s.aborted]
    n_aborted = len(stats) - len(good)
    if n_aborted > 0.10 * len(stats):
        raise SimulationAbortError(
            f"{n_aborted} of {len(stats)} paths aborted (NaN/overflow)")
    payoffs = np.array([s.payoff_estimate for s in good])
    firsts = np.array([s.first_half_payoff for s in good])
    seconds = np.array([s.second_half_payoff for s in good])
    mean = float(np.mean(payoffs))
    fm, sm = float(np.mean(firsts)), float(np.mean(seconds))
    se_defined = payoffs.size >= 2
    if se_defined:
        se = _std_error(payoffs)
        split_ok = abs(fm - sm) <= 3.0 * math.hypot(_std_error(firsts),
                                                    _std_error(seconds))
    else:
        se, split_ok = 0.0, True
    return PayoffEstimate(
        mean=mean, std_error=se, se_defined=se_defined, n_paths=len(stats),
        n_aborted=n_aborted, first_half_mean=fm, second_half_mean=sm,
        split_consistent=bool(split_ok), per_path=tuple(stats))


@dataclass(frozen=True)
class X0IndependenceReport:
    """Pairwise agreement of payoff estimates across starting points."""

    x0_values: tuple[float, ...]
    means: tuple[float, ...]
    std_errors: tuple[float, ...]
    consistent: bool

    def worst_pair_gap(self):
        """Largest |mean gap| over three combined SEs (over 1 at zero SE)."""
        gaps = [gap / (limit if limit > 0.0 else 1.0)
                for gap, limit in _pair_gaps(self.means, self.std_errors)]
        return max(gaps) if gaps else 0.0


def _pair_gaps(means, ses):
    """|mean_i - mean_j| and three combined standard errors, for i < j."""
    return [(abs(means[i] - means[j]), 3.0 * math.hypot(ses[i], ses[j]))
            for i in range(len(means)) for j in range(i + 1, len(means))]


def x0_independence_check(cfg: SimConfig, x0_list, *,
                          jobs: int = 1) -> X0IndependenceReport:
    """Ergodic start-insensitivity: estimates across x0 agree pairwise.

    Each starting point reuses the same seed, so the comparison is between
    runs driven by identical noise.
    """
    means, ses = [], []
    for x0 in x0_list:
        est = estimate_payoff(replace(cfg, x0=float(x0)), jobs=jobs)
        means.append(est.mean)
        ses.append(est.std_error)
    consistent = not any(gap > limit for gap, limit in _pair_gaps(means, ses))
    return X0IndependenceReport(
        x0_values=tuple(float(v) for v in x0_list), means=tuple(means),
        std_errors=tuple(ses), consistent=bool(consistent))

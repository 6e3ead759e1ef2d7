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
bit-identical regardless of how paths are batched or scheduled.  A batch
is a set of lanes, each a path id with its own starting point; the same
path id may run from several starts in one batch.

At a few hundred lanes per process each numpy call costs about the same
whatever its width, so the step loop runs only the recurrence
x_k -> x_{k+1}: sigma(x), the table lookup and drift, the proposal (written
into the noise row it consumed) and the projection onto [0, beta].  The
states, and under the worst case the table index and fraction, go into
buffers of ``_CHUNK_STEPS`` rows.  Once per chunk the harvest
max(P - beta, 0), the KL increments (from the stored index and fraction,
with no second lookup), the negative-proposal and floor-clamp counts, the
running maximum and the strided occupation histogram (one ``bincount``
over lane * n_bins + bin) are computed over the whole buffer, and the
chunk's rows are split at the burn-in and mid-window steps for the
snapshots.

The settled sums stay bit-identical to adding one step at a time: each
sum is ``np.add.reduce(rows, axis=0)`` over C-ordered (steps, lanes) rows
with the running total added into the first row, and a reduction along
axis 0 over two or more lanes adds the rows in step order.  Over a single
lane numpy sees one contiguous axis and sums it pairwise instead, which
moves a lone path's totals in the last bits, so a lone lane is run twice.
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
_BLOCK_STEPS = 2048

# Steps per chunk: harvest, KL, counters and occupation are settled once per
# chunk.  Chunks never cross a block end, so the quarantine there sees
# settled totals.  128 steps settle as fast as 256 and hold less memory.
_CHUNK_STEPS = 128

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

    def locate(self, x, idx, frac):
        """Write the cell index and the fraction in the cell of each x.

        The position t in node units goes through ``frac``.  States below
        the floor use the floor node, so t >= 0 up to rounding (which the
        cast truncates to node 0); t is capped at the last node, whose
        difference is zero.  A NaN state casts to INT64_MIN, which the
        clipped ``take`` of ``drift_at`` and ``kl_at`` reads as node 0; its
        fraction stays NaN, so the path is still quarantined at the end of
        its block.
        """
        np.maximum(x, self.lo, out=frac)
        np.log(frac, out=frac)
        frac -= self.s0
        frac *= self.inv_ds
        np.minimum(frac, self.top, out=frac)
        np.copyto(idx, frac, casting="unsafe")
        frac -= idx

    def lookup(self, x):
        """Cell index (within the table), fraction and floor-clamp mask."""
        x = np.asarray(x, dtype=float)
        idx = np.empty(x.shape, dtype=np.int64)
        frac = np.empty(x.shape)
        self.locate(x, idx, frac)
        np.maximum(idx, 0, out=idx)
        return idx, frac, x < self.lo

    def drift_at(self, idx, frac):
        out = self.drift.take(idx, mode="clip")
        out += frac * self.drift_diff.take(idx, mode="clip")
        return out

    def kl_at(self, idx, frac):
        out = self.kl.take(idx, mode="clip")
        out += frac * self.kl_diff.take(idx, mode="clip")
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


def _ordered_sum(total, rows):
    """total + rows[0] + rows[1] + ... per lane, added in step order.

    ``rows`` is C-ordered (steps, lanes) with at least two lanes, so the
    reduction along axis 0 adds whole rows in turn; its first row is
    overwritten.
    """
    if len(rows) == 0:
        return total
    rows[0] += total
    return np.add.reduce(rows, axis=0)


def _run_paths(cfg: SimConfig, path_ids, x0=None) -> list[PathStats]:
    """Simulate one batch of lanes; lane j runs path ``path_ids[j]``.

    ``x0`` gives each lane's starting point (default ``cfg.x0`` for all).
    """
    problem = cfg.problem
    mu = problem.model.mu
    sigma = problem.model.sigma
    beta = cfg.beta
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    eps = problem.epsilon
    n_out = len(path_ids)
    ids = list(path_ids)
    x0 = np.full(n_out, cfg.x0) if x0 is None else np.array(x0, dtype=float)
    if n_out == 1:
        # A lone lane would be summed pairwise (see the module docstring).
        ids, x0 = ids * 2, np.repeat(x0, 2)
    n = len(ids)
    n_steps = cfg.n_steps
    burn = cfg.burn_steps
    retained = n_steps - burn
    mid = burn + retained // 2
    stride = cfg.occupation_stride
    n_bins = cfg.n_bins
    table = (_WorstCaseStep(problem, cfg.solution, beta, dt)
             if cfg.measure == "worstcase" and eps > 0.0 else None)

    chunk = _CHUNK_STEPS
    states = np.empty((chunk + 1, n))  # row r: the state before chunk step r
    states[0] = np.minimum(x0, beta)
    Z = np.maximum(x0 - beta, 0.0)  # instant harvest
    KL = np.zeros(n)
    neg = np.zeros(n, dtype=np.int64)
    clamps = np.zeros(n, dtype=np.int64)
    occ = np.zeros((n, n_bins), dtype=np.int64)
    max_x = states[0].copy()
    aborted = np.zeros(n, dtype=bool)
    bin_scale = n_bins / beta
    lane_bins = np.arange(n) * n_bins

    # Before burn-in ends no step adds to Z or KL.  A window starting at
    # time zero minus counts the instant initial harvest.
    Z_burn = Z.copy() if burn > 0 else np.zeros(n)
    KL_burn = np.zeros(n)
    Z_mid = KL_mid = None

    gens = [path_rng(cfg.seed, int(pid)) for pid in ids]
    noise = np.empty((_BLOCK_STEPS, n))
    noise_rows = list(noise)
    state_rows = list(states)
    if table is not None:
        cells = np.empty((chunk, n), dtype=np.int64)
        fracs = np.empty((chunk, n))
        cell_rows, frac_rows = list(cells), list(fracs)
    done = 0
    # NaN/inf paths are quarantined at block boundaries; silence the float
    # warnings their garbage values would emit in the meantime.
    with np.errstate(invalid="ignore", over="ignore"):
        while done < n_steps:
            m = min(_BLOCK_STEPS, n_steps - done)
            for j, gen in enumerate(gens):
                noise[:m, j] = gen.standard_normal(m)
            noise[:m] *= sqdt
            for c0 in range(0, m, chunk):
                rows = min(chunk, m - c0)
                for r in range(rows):
                    x = state_rows[r]
                    sig = sigma(x)
                    if table is not None:
                        idx, frac = cell_rows[r], frac_rows[r]
                        table.locate(x, idx, frac)
                        drift = table.drift_at(idx, frac)
                    else:
                        drift = x * mu(x)
                        drift *= dt
                    drift += x
                    proposed = noise_rows[c0 + r]
                    proposed *= sig
                    proposed += drift
                    x = state_rows[r + 1]
                    np.minimum(proposed, beta, out=x)
                    np.maximum(x, 0.0, out=x)

                # Settle the chunk: step k = k0 + r moved states[r] to
                # states[r + 1] through the proposal noise[c0 + r].
                k0 = done + c0
                after = states[1:rows + 1]
                np.maximum(max_x, after.max(axis=0), out=max_x)
                r0 = min(max(burn - k0, 0), rows)
                proposals = noise[c0 + r0:c0 + rows]
                neg += np.count_nonzero(proposals < 0.0, axis=0)
                harvest = proposals - beta
                np.maximum(harvest, 0.0, out=harvest)
                kl = None
                if table is not None:
                    clamps += np.count_nonzero(states[r0:rows] < table.lo,
                                               axis=0)
                    kl = table.kl_at(cells[r0:rows], fracs[r0:rows])
                sample = after[r0 + (burn - k0 - r0) % stride::stride]
                if len(sample):
                    # Clip from below too: a NaN state casts to INT64_MIN.
                    bins = (sample * bin_scale).astype(np.int64)
                    np.clip(bins, 0, n_bins - 1, out=bins)
                    bins += lane_bins
                    counts = np.bincount(bins.ravel(), minlength=n * n_bins)
                    occ += counts.reshape(n, n_bins)
                split = mid - k0 - r0
                if burn < mid and 0 < split <= rows - r0:
                    Z = _ordered_sum(Z, harvest[:split])
                    harvest = harvest[split:]
                    if kl is not None:
                        KL = _ordered_sum(KL, kl[:split])
                        kl = kl[split:]
                    Z_mid, KL_mid = Z, KL
                Z = _ordered_sum(Z, harvest)
                if kl is not None:
                    KL = _ordered_sum(KL, kl)
                states[0] = states[rows]
            x = states[0]
            bad = ~(np.isfinite(x) & np.isfinite(Z) & np.isfinite(KL))
            if np.any(bad):
                aborted |= bad
                x[bad] = beta  # park the path; excluded from aggregates
            done += m

    if Z_mid is None:
        # A window under two steps has mid == burn: no mid snapshot is taken
        # and the second half reads zero.
        Z_mid, KL_mid = Z, KL

    t_ret = retained * dt
    t_first = (mid - burn) * dt
    t_second = t_ret - t_first
    stats = []
    for j, pid in enumerate(ids[:n_out]):
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


def _run_lanes(cfg: SimConfig, path_ids, x0s, jobs: int) -> list[PathStats]:
    """Per-lane results in lane order; ``jobs > 1`` deals lanes to processes.

    Per-path streams make the result independent of the batching.
    """
    n = len(path_ids)
    if n == 0:
        return []
    if jobs <= 1 or n == 1:
        return _run_paths(cfg, path_ids, x0s)
    jobs = min(jobs, n)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_run_paths, [cfg] * jobs,
                              [path_ids[i::jobs] for i in range(jobs)],
                              [x0s[i::jobs] for i in range(jobs)]))
    stats = [None] * n
    for i, part in enumerate(parts):
        stats[i::jobs] = part
    return stats


def _aggregate(stats) -> PayoffEstimate:
    """Mean, SE and split-window check of one start's paths.

    Raises ``SimulationAbortError`` when more than 10% of paths aborted.
    """
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


def estimate_payoff(cfg: SimConfig, *, jobs: int = 1) -> PayoffEstimate:
    """Run all configured paths and aggregate their payoff estimates.

    Paths are batched; with ``jobs > 1`` batches run in separate processes.
    Per-path streams make the result independent of the batching.  Raises
    ``SimulationAbortError`` when more than 10% of paths aborted.
    """
    ids = list(range(cfg.n_paths))
    return _aggregate(_run_lanes(cfg, ids, [cfg.x0] * len(ids), jobs))


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
    runs driven by identical noise.  All starts run as one batch of lanes
    (start, path); each start's estimate equals a separate
    ``estimate_payoff`` at that x0, and raises like it when more than 10%
    of that start's paths abort.
    """
    starts = [replace(cfg, x0=float(v)).x0 for v in x0_list]
    ids = list(range(cfg.n_paths))
    stats = _run_lanes(cfg, ids * len(starts),
                       [x0 for x0 in starts for _ in ids], jobs)
    ests = [_aggregate(stats[i * len(ids):(i + 1) * len(ids)])
            for i in range(len(starts))]
    means = [est.mean for est in ests]
    ses = [est.std_error for est in ests]
    consistent = not any(gap > limit for gap, limit in _pair_gaps(means, ses))
    return X0IndependenceReport(
        x0_values=tuple(starts), means=tuple(means),
        std_errors=tuple(ses), consistent=bool(consistent))

"""Reflected Euler-Maruyama simulation of the harvested population.

The threshold policy keeps the population in [0, beta] by harvesting
exactly the overshoot at the upper boundary (the interval Skorokhod map
reduces, per Euler step, to a min with the boundary plus the clipped
excess).  Under the worst-case measure the drift gains sigma(x) psi(x)
with the adverse kernel psi(x) = -eps sigma(x) v'(x), and the payoff adds
the divergence penalty psi^2 / (2 eps) per unit time.  The long-run average
of harvest plus penalty estimates the solved yield.

Since psi does not depend on time, the worst-case step is tabulated once
per run, on the doubles whose low 44 bits are zero (256 nodes per octave)
from the potential grid floor up to beta, so a state's cell is its float
bits shifted right by 44.  The spacing is relative to x because the kernel
varies on the scale of x itself near zero (psi moves from -0.195 to -0.234
between x = 1e-7 and 1e-5 at eps = 1), where the worst-case population
spends a sizable share of its time.  Each cell holds the mean proposal
x + (x mu(x) + sigma(x) psi(x)) dt and the KL increment psi^2 / (2 eps) dt
as lines a + b x through its two nodes.  The kernel at the nodes is
``hjb.minimizing_kernel`` of the solved slope ``sol.vprime``, which stays
the reference the table is tested against.  The only measures are the
reference dynamics and this worst case.

Paths are independent units of work with their own counter-based random
streams (Philox keyed by master seed and path index), so results are
bit-identical regardless of how paths are batched or scheduled.  A batch
is a set of lanes, each a path id with its own starting point; the same
path id may run from several starts in one batch.

At a few hundred lanes per process each numpy call costs about the same
whatever its width, so the step loop runs only the recurrence
x_k -> x_{k+1}, in as few calls as it can, each given its operands as
lane-width arrays.  Each lane draws a block's noise into its own
contiguous row, and the block is scaled in place once, so that a step
reads its noise w as a column of the draws.  For a model whose noise is
sigma_bar x (``GeneralLogistic``) the worst-case proposal is the cell's
line fused with the noise, a + x (b + w) with w = sigma_bar sqrt(dt) Z, in
nine calls.  Otherwise w = sqrt(dt) Z and the proposal is the mean (the
cell's line, or the reference x + x mu(x) dt) plus sigma(x) w.  The step
writes its proposal into a (steps, lanes) row and projects it onto
[0, beta].  Once per chunk of ``_CHUNK_STEPS`` steps the harvest
max(P - beta, 0), the KL increments (from the stored cells and states),
the negative-proposal and floor-clamp counts, the running maximum and the
strided occupation histogram (one ``bincount`` over lane * N_BINS + bin)
are computed over the chunk's buffers.  Chunks also end at the burn-in and
mid-window steps, so each lies wholly before or wholly inside the retained
window and settles whole.

The settled sums stay bit-identical to adding one step at a time: each
sum is ``np.add.reduce(rows, axis=0)`` over C-ordered (steps, lanes) rows
with the running total added into the first row, and a reduction along
axis 0 over two or more lanes adds the rows in step order.  Over a single
lane numpy sees one contiguous axis and sums it pairwise instead, which
moves a lone path's totals in the last bits, so a lone lane is run twice.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputDomainError, SimulationAbortError
from .hjb import minimizing_kernel
from .model import AmbiguityProblem, GeneralLogistic, is_number
from .shooting import ThresholdSolution

__all__ = [
    "SimConfig",
    "PathStats",
    "PayoffEstimate",
    "X0IndependenceReport",
    "path_rng",
    "require_seed",
    "require_settings",
    "simulate_path",
    "estimate_payoff",
    "x0_independence_check",
]

_MASK64 = (1 << 64) - 1

MEASURES = ("reference", "worstcase")

CI_MULTIPLE = 3.0  # combined standard errors that count as a disagreement

# The occupation histogram: N_BINS equal bins on [0, beta], sampled every
# OCCUPATION_STRIDE-th retained step.
N_BINS = 50
OCCUPATION_STRIDE = 8


def path_rng(seed: int, path_id: int) -> np.random.Generator:
    """Counter-based generator for one path: Philox keyed by (seed, path)."""
    key = ((seed & _MASK64) << 64) | (path_id & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def require_seed(seed) -> int:
    """The master seed, refused unless an integer with 0 <= seed < 2**64.

    ``path_rng`` keys on the seed's low 64 bits, so a larger seed would
    repeat the paths of a smaller one.
    """
    if not (is_number(seed) and isinstance(seed, numbers.Integral)
            and 0 <= seed <= _MASK64):
        raise InputDomainError(
            f"'seed' must be an integer in [0, 2**64), got {seed!r}")
    return seed


# Steps per block: noise is drawn, and non-finite paths are quarantined,
# once per block of this many steps.
_BLOCK_STEPS = 2048

# Steps per chunk at most; each chunk settles its harvest, KL, counters and
# occupation at once.  Chunks end at block ends (the quarantine sees settled
# totals) and at the burn-in and mid-window steps; 128 is as fast as 256.
_CHUNK_STEPS = 128

# The worst-case table's nodes are the doubles whose low _CELL_SHIFT bits are
# zero, 2**(52 - _CELL_SHIFT) = 256 per octave: the kernel interpolated
# between them stays within 1e-5 eps sigma(beta) of the solved cubic for eps
# from 0.5 to 20 (tests/test_simulate.py).
_CELL_SHIFT = 44


def _line(a, b, cell, x):
    """a[cell] + b[cell] x, with cells outside the table read at its ends."""
    out = b.take(cell, mode="clip")
    out *= x
    out += a.take(cell, mode="clip")
    return out


def _lines(xs, y, fold):
    """``_line``'s a, b through each cell's nodes of y, plus ``fold`` x."""
    slope = np.diff(y) / np.diff(xs)
    return (np.concatenate((y[:1], y[:-1] - slope * xs[:-1])),
            np.concatenate(([0.0], slope)) + fold)


class _WorstCaseStep:
    """Worst-case mean proposal and KL increment, one line per cell.

    The nodes ``xs`` are the doubles whose low ``_CELL_SHIFT`` bits are zero
    from ``lo``, the first at or above the potential grid floor, then beta.
    Cell i >= 1 spans [xs[i - 1], xs[i]) and is a state's float bits shifted
    right by ``_CELL_SHIFT``, less ``base``.  Cell 0 holds the values at
    ``lo`` with zero slope; states below ``lo``, zero and -0.0 read it
    through the clipped ``take``.  A NaN state reads cell 0 or the last cell
    and its line is NaN, so it is still quarantined at its block's end.
    ``drift`` (x mu(x) + sigma(x) psi(x)) dt and ``kl`` psi^2 dt / (2 eps)
    are the node values; the mean proposal x + drift folds the state's own
    x into its slope.
    """

    def __init__(self, problem: AmbiguityProblem, sol: ThresholdSolution,
                 beta: float, dt: float):
        floor, top = np.array([sol.grid.nodes_x[0], beta]).view(np.int64) - 1
        first = (int(floor) >> _CELL_SHIFT) + 1
        keys = np.arange(first, (int(top) >> _CELL_SHIFT) + 1)
        self.base = first - 1
        self.xs = xs = np.append((keys << _CELL_SHIFT).view(float), beta)
        self.lo = float(xs[0])
        psi = minimizing_kernel(problem, sol.vprime, xs)
        model = problem.model
        self.drift = (xs * model.mu(xs) + model.sigma(xs) * psi) * dt
        self.kl = psi * psi * (dt / (2.0 * problem.epsilon))
        self.mean_a, self.mean_b = _lines(xs, self.drift, 1.0)
        self.kl_a, self.kl_b = _lines(xs, self.kl, 0.0)

    def lookup(self, x):
        """Cell (within the table) and floor-clamp mask of each state."""
        x = np.ascontiguousarray(x, dtype=float)
        cell = (x.view(np.int64) >> _CELL_SHIFT) - self.base
        return np.clip(cell, 0, len(self.xs) - 1), x < self.lo

    def mean_at(self, cell, x):
        return _line(self.mean_a, self.mean_b, cell, x)

    def kl_at(self, cell, x):
        return _line(self.kl_a, self.kl_b, cell, x)


def _step_counts(sim):
    """Steps in the horizon and in its burn-in; ``sim`` maps field names."""
    n_steps = int(round(sim["horizon"] / sim["dt"]))
    return n_steps, int(round(sim["burn_in"] * n_steps))


def require_settings(sim, where=""):
    """``sim``'s six settings checked and normalized: floats, an int
    ``n_paths``, a ``measure`` and ``x0`` None (start at beta) or a float.
    The first bad value raises ``InputDomainError`` naming '<where><key>'.
    """
    def check(key, ok, rule):
        if not ok:
            raise InputDomainError(
                f"'{where}{key}' must be {rule}, got {sim[key]!r}")
        return sim[key]

    out = {key: float(check(key, is_number(sim[key]), "a finite number"))
           for key in ("dt", "horizon", "burn_in")}
    x0, n = sim["x0"], sim["n_paths"]
    out["x0"] = x0 if x0 is None else float(check(
        "x0", is_number(x0) and x0 > 0.0, "a positive finite number"))
    out["n_paths"] = int(check(
        "n_paths", is_number(n) and isinstance(n, numbers.Integral) and n >= 1,
        "an integer of at least 1"))
    out["measure"] = check("measure", sim["measure"] in MEASURES,
                           f"one of {MEASURES}")
    dt, horizon = out["dt"], out["horizon"]
    check("dt", 0.0 < dt < horizon and horizon / dt < math.inf,
          f"in (0, horizon = {horizon!r}) with finitely many steps")
    check("burn_in", 0.0 <= out["burn_in"] <= 0.5, "in [0, 0.5]")
    n_steps, burn = _step_counts(out)
    check("horizon", n_steps - burn >= 2, "long enough for a retained "
          "window of 2 steps after burn-in (the split-half check)")
    return out


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Monte Carlo configuration for one threshold policy from ``x0``
    (default ``beta``), its settings normalized by ``require_settings``;
    ``beta`` and ``x0`` obey the problem's domain rule ``validate_x``.

    ``measure`` selects the simulated drift: the reference dynamics or the
    worst-case change of measure, whose step table is built from the slope
    ``solution.vprime`` of ``problem`` itself.  ``burn_in`` is the fraction
    of the horizon discarded before time averaging.
    """

    problem: AmbiguityProblem
    beta: float
    x0: float | None = None
    dt: float = 1e-4
    horizon: float = 200.0
    n_paths: int = 256
    burn_in: float = 0.1
    measure: str = "reference"
    solution: ThresholdSolution | None = None
    seed: int = 0

    def __post_init__(self):
        if not (is_number(self.beta) and self.beta > 0.0):
            raise InputDomainError(f"'beta' must be > 0, got {self.beta!r}")
        self.problem.validate_x(self.beta, "'beta'")
        settings = require_settings(vars(self))
        settings["beta"] = float(self.beta)
        settings["x0"] = settings["x0"] or settings["beta"]
        self.problem.validate_x(settings["x0"], "'x0'")
        for name, value in settings.items():
            object.__setattr__(self, name, value)
        require_seed(self.seed)
        solved = self.solution
        if solved is not None and solved.problem is not self.problem:
            raise InputDomainError(
                "'solution' was solved for another problem (epsilon "
                f"{solved.problem.epsilon!r}), not this one")
        if self.measure == "worstcase" and self.solution is None:
            raise InputDomainError("worstcase measure needs a solved potential")

    @property
    def n_steps(self):
        return _step_counts(vars(self))[0]

    @property
    def burn_steps(self):
        return _step_counts(vars(self))[1]


@dataclass
class PathStats:
    """Accumulators of one simulated trajectory.

    Every accumulator covers the retained window only, except ``max_x``:
    the largest state of the whole path from min(x0, beta), burn-in
    included.
    """

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

    ``rows`` is C-ordered (steps, lanes), non-empty and with at least two
    lanes, so the reduction along axis 0 adds whole rows in turn; its first
    row is overwritten.
    """
    rows[0] += total
    return np.add.reduce(rows, axis=0)


def _run_paths(cfg: SimConfig, path_ids, x0=None) -> list[PathStats]:
    """Simulate one batch of lanes; lane j runs path ``path_ids[j]``.

    ``x0`` gives each lane's starting point (default ``cfg.x0`` for all).
    """
    problem = cfg.problem
    model = problem.model
    mu = model.mu
    sigma = model.sigma
    beta = cfg.beta
    dt = cfg.dt
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
    table = (_WorstCaseStep(problem, cfg.solution, beta, dt)
             if cfg.measure == "worstcase" and problem.epsilon > 0.0 else None)
    # With sigma(x) = sigma_bar x the worst-case proposal is a + x (b + w)
    # for the noise w = sigma_bar sqrt(dt) Z; otherwise w = sqrt(dt) Z.
    fused = table is not None and isinstance(model, GeneralLogistic)
    sqdt = math.sqrt(dt)
    noise_scale = model.sigma_bar * sqdt if fused else sqdt

    chunk = _CHUNK_STEPS
    states = np.empty((chunk + 1, n))  # row r: the state before chunk step r
    states[0] = np.minimum(x0, beta)
    proposals = np.empty((chunk, n))  # row r: chunk step r's proposal
    Z = np.maximum(x0 - beta, 0.0)  # instant harvest
    KL = np.zeros(n)
    neg = np.zeros(n, dtype=np.int64)
    clamps = np.zeros(n, dtype=np.int64)
    occ = np.zeros((n, N_BINS), dtype=np.int64)
    max_x = states[0].copy()
    aborted = np.zeros(n, dtype=bool)
    bin_scale = N_BINS / beta
    lane_bins = np.arange(n) * N_BINS

    # No step before burn-in ends adds to Z or KL.  A window starting at
    # time zero counts the instant initial harvest.
    Z_burn = Z.copy() if burn > 0 else np.zeros(n)

    gens = [path_rng(cfg.seed, int(pid)) for pid in ids]
    # Row j: lane j's draws for a block.  The rows are padded by one cache
    # line so that a column's reads do not all fall in one L1 set.
    drawn = np.empty((n, _BLOCK_STEPS + 8))[:, :_BLOCK_STEPS]
    noise_cols = list(drawn.T)  # column k: every lane's noise at block step k
    state_rows, proposal_rows = list(states), list(proposals)
    # Operands as lane-width arrays: numpy takes them faster than scalars.
    # A negative proposal goes to zero unharvested: zero is unattainable.
    upper, lower = np.full(n, beta), np.zeros(n)
    if table is not None:
        cells = np.empty((chunk, n), dtype=np.int64)
        cell_rows, bit_rows = list(cells), list(states.view(np.int64))
        shift, base = np.full(n, _CELL_SHIFT), np.full(n, table.base)
        mean_a, mean_b, term = table.mean_a, table.mean_b, np.empty(n)
    done = 0
    # NaN/inf paths are quarantined at block boundaries; silence the float
    # warnings their garbage values would emit in the meantime.
    with np.errstate(invalid="ignore", over="ignore"):
        while done < n_steps:
            m = min(_BLOCK_STEPS, n_steps - done)
            for j, gen in enumerate(gens):
                drawn[j, :m] = gen.standard_normal(m)
            drawn[:, :m] *= noise_scale
            c0 = 0
            while c0 < m:
                k0 = done + c0
                rows = min(chunk, m - c0,
                           *(k - k0 for k in (burn, mid) if k > k0))
                for r in range(rows):
                    x = state_rows[r]
                    w = noise_cols[c0 + r]
                    proposed = proposal_rows[r]
                    if table is not None:
                        cell = cell_rows[r]
                        np.right_shift(bit_rows[r], shift, out=cell)
                        np.subtract(cell, base, out=cell)
                    if fused:
                        mean_b.take(cell, mode="clip", out=proposed)
                        np.add(proposed, w, out=proposed)
                        np.multiply(proposed, x, out=proposed)
                        mean_a.take(cell, mode="clip", out=term)
                        np.add(proposed, term, out=proposed)
                    else:
                        sig = sigma(x)
                        if table is not None:
                            mean = table.mean_at(cell, x)
                        else:
                            mean = x * mu(x)
                            mean *= dt
                            mean += x
                        np.multiply(w, sig, out=proposed)
                        np.add(proposed, mean, out=proposed)
                    x_next = state_rows[r + 1]
                    np.minimum(proposed, upper, out=x_next)
                    np.maximum(x_next, lower, out=x_next)

                # Settle the chunk: step k = k0 + r moved states[r] to
                # states[r + 1] through proposals[r].  The chunk lies wholly
                # before the retained window or wholly in it.
                after = states[1:rows + 1]
                np.maximum(max_x, after.max(axis=0), out=max_x)
                if k0 >= burn:
                    neg += np.count_nonzero(proposals[:rows] < 0.0, axis=0)
                    harvest = proposals[:rows] - beta
                    np.maximum(harvest, 0.0, out=harvest)
                    Z = _ordered_sum(Z, harvest)
                    if table is not None:
                        clamps += np.count_nonzero(states[:rows] < table.lo,
                                                   axis=0)
                        KL = _ordered_sum(
                            KL, table.kl_at(cells[:rows], states[:rows]))
                    stride = OCCUPATION_STRIDE
                    sample = after[(burn - k0) % stride::stride]
                    # Clip from below too: a NaN state casts to INT64_MIN.
                    bins = (sample * bin_scale).astype(np.int64)
                    np.clip(bins, 0, N_BINS - 1, out=bins)
                    bins += lane_bins
                    counts = np.bincount(bins.ravel(), minlength=n * N_BINS)
                    occ += counts.reshape(n, N_BINS)
                    if k0 + rows == mid:
                        Z_mid, KL_mid = Z, KL
                states[0] = states[rows]
                c0 += rows
            x = states[0]
            bad = ~(np.isfinite(x) & np.isfinite(Z) & np.isfinite(KL))
            if np.any(bad):
                aborted |= bad
                x[bad] = beta  # park the path; excluded from aggregates
            done += m

    t_ret = retained * dt
    t_first = (mid - burn) * dt
    t_second = t_ret - t_first
    stats = []
    for j, pid in enumerate(ids[:n_out]):
        harvest = float(Z[j] - Z_burn[j])
        kl = float(KL[j])
        payoff = (harvest + kl) / t_ret
        first = (float(Z_mid[j] - Z_burn[j]) + float(KL_mid[j])) / t_first
        second = (float(Z[j] - Z_mid[j]) + float(KL[j] - KL_mid[j])) / t_second
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
    (within ``CI_MULTIPLE`` combined standard errors), a guard on treating
    the plain long-window average as the ergodic limit.
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

    ``jobs`` must be an int >= 1 (``InputDomainError`` naming it otherwise).
    """
    if not (is_number(jobs) and isinstance(jobs, numbers.Integral)
            and jobs >= 1):
        raise InputDomainError(
            f"'jobs' must be an integer of at least 1, got {jobs!r}")
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
        split_ok = abs(fm - sm) <= CI_MULTIPLE * math.hypot(
            _std_error(firsts), _std_error(seconds))
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


def x0_independence_check(cfg: SimConfig, x0_list, *,
                          jobs: int = 1) -> X0IndependenceReport:
    """Ergodic start-insensitivity: estimates across x0 agree pairwise.

    Two estimates agree within ``CI_MULTIPLE`` combined standard errors.
    Each starting point reuses the same seed, so the comparison is between
    runs driven by identical noise.  All starts run as one batch of lanes
    (start, path); each start's estimate equals a separate
    ``estimate_payoff`` at that x0, and raises like it when more than 10%
    of that start's paths abort.
    """
    starts = [replace(cfg, x0=v).x0 for v in x0_list]
    ids = list(range(cfg.n_paths))
    stats = _run_lanes(cfg, ids * len(starts),
                       [x0 for x0 in starts for _ in ids], jobs)
    ests = [_aggregate(stats[i * len(ids):(i + 1) * len(ids)])
            for i in range(len(starts))]
    means = [est.mean for est in ests]
    ses = [est.std_error for est in ests]
    consistent = not any(
        abs(means[i] - means[j]) > CI_MULTIPLE * math.hypot(ses[i], ses[j])
        for i in range(len(means)) for j in range(i + 1, len(means)))
    return X0IndependenceReport(
        x0_values=tuple(starts), means=tuple(means),
        std_errors=tuple(ses), consistent=bool(consistent))

"""Independent references: closed forms for the unit logistic model and a
one-step-at-a-time Monte Carlo loop.

With mu(x) = 1 - x and sigma(x) = x at zero ambiguity, the slope equation is
linear and solves by an integrating factor:

    g(x) = [lam (e^{2x} - 1) + A e^{2x}] / x^2,
    lam = b (1 - b),
    A = (b^2 - lam (e^{2b} - 1)) e^{-2b},

so admissibility of a boundary is the sign of the tail coefficient A (the
A e^{2x} / x^2 term dominates near zero).  The optimal threshold is the root
of A(b) = 0, i.e. of b = (1 - b)(e^{2b} - 1).  Everything here is evaluated
directly from these formulas, independent of the solver's integration path.

``step_paths`` is the Monte Carlo engine's one-step-at-a-time form: it
updates every accumulator after each step, the reference the chunk-settled
engine in ``ergharvest.simulate`` must match bit for bit.
"""

import math
from math import exp

import numpy as np
from scipy.integrate import quad

from ergharvest import simulate
from ergharvest.simulate import PathStats


def threshold_root(tol=1e-12):
    """Root of b = (1 - b)(e^{2b} - 1) by plain bisection on [0.5, 1]."""
    def f(b):
        return (1.0 - b) * (exp(2.0 * b) - 1.0) - b
    lo, hi = 0.5, 1.0
    assert f(lo) > 0.0 > f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tail_coefficient(b):
    """A(b): sign decides admissibility of the boundary b at zero ambiguity."""
    lam = b * (1.0 - b)
    return (b * b - lam * (exp(2.0 * b) - 1.0)) * exp(-2.0 * b)


def slope_closed_form(x, b):
    """g(x) for boundary b at zero ambiguity (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    lam = b * (1.0 - b)
    A = tail_coefficient(b)
    return (lam * (np.exp(2.0 * x) - 1.0) + A * np.exp(2.0 * x)) / (x * x)


def slope_closed_form_deriv(x, b):
    """d/dx of the closed-form slope (for ODE substitution checks)."""
    x = np.asarray(x, dtype=float)
    lam = b * (1.0 - b)
    A = tail_coefficient(b)
    e = np.exp(2.0 * x)
    num = lam * (e - 1.0) + A * e
    dnum = 2.0 * e * (lam + A)
    return dnum / (x * x) - 2.0 * num / (x ** 3)


def optimal_vprime(x, c):
    """(v)'(x) = c (e^{2x} - 1) / x^2, the optimal-slope closed form."""
    x = np.asarray(x, dtype=float)
    return c * (np.exp(2.0 * x) - 1.0) / (x * x)


def optimal_vsecond(x, c):
    """Analytic derivative of ``optimal_vprime``."""
    x = np.asarray(x, dtype=float)
    return 2.0 * c * (np.exp(2.0 * x) * (x - 1.0) + 1.0) / (x ** 3)


def optimal_vprime_integral(a, b, c):
    """Quadrature of the optimal slope over [a, b] (independent oracle)."""
    val, err = quad(lambda y: c * (exp(2.0 * y) - 1.0) / (y * y), a, b,
                    epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return val


# Frozen values computed from the oracles above (bisection tol 1e-12 and
# direct evaluation); tests recompute them live and assert agreement.
BETA0 = 0.7968121300200202
ELL0 = 0.16190255947297866
G_AT_HALF_B09 = 1.2575842708219978   # slope_closed_form(0.5, b=0.9)
SCALE_E2_OVER_4 = 1.8472640247326626          # exp(2) / 4
SCALE_4_OVER_E = 1.4715177646857693           # 4 / e
V_DIFF_01_04 = -0.5647953840226321   # -integral of optimal slope on [0.1, 0.4]


def step_paths(cfg, path_ids):
    """Per-path stats from a loop that settles every accumulator each step.

    Noise blocks and quarantine follow ``simulate._BLOCK_STEPS``; streams
    come from ``simulate.path_rng``, so a patched stream reaches both.
    """
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
    table = (simulate._WorstCaseStep(problem, cfg.solution, beta, dt)
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

    gens = [simulate.path_rng(cfg.seed, int(pid)) for pid in path_ids]
    block = simulate._BLOCK_STEPS
    noise = np.empty((block, n))
    done = 0
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
                x[bad] = beta
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

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

``tail_coefficient_ivp`` is the solver's tail coefficient F(b) for any
model, from a tight ``solve_ivp`` DOP853 solve of the linear form,
independent of the LSODA run behind ``shooting.tail_coefficient``.
``potential_slope`` is the potential's slope at given nodes from a tighter
``solve_ivp`` DOP853 solve of the same linear form, independent of the
LSODA solve behind ``shooting.build_potential``.
``dip_crossing`` is the unit crossing of an inadmissible boundary's slope,
from a tight implicit (Radau) solve of the quadratic slope equation.

``envelope_slope`` is d ell / d eps at eps = 0 for the unit general
logistic model with theta = 1 (VP) or 2, from the envelope theorem: the
adversary's first-order answer to the risk-neutral policy moves the yield by
-(1/2) int sigma^2 v0'^2 dpi0 while beta0's own shift drops out, so

    d ell / d eps = -ell0^2 int_0^beta0 s'(x) M(x)^2 dx / M(beta0),

with s' the scale density, m = 2 / (sigma^2 s') the speed density and
M(x) = int_0^x m.  Both are closed forms here, the integral is a ``quad``,
and beta0 solves beta mu(beta) s'(beta) M(beta) = 1 (the slope
v0' = ell0 s' M reaching one where ell0 = beta mu(beta)).

``step_paths`` is the Monte Carlo engine's one-step-at-a-time form: it
updates every accumulator after each step, the reference the chunk-settled
engine in ``ergharvest.simulate`` must match bit for bit.
"""

import math
from math import erf, exp, expm1, pi, sqrt

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from ergharvest import GeneralLogistic, simulate
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


# theta -> (s'(x), M(x)) of the unit general logistic, mu = 1 - x^theta and
# sigma = x: s'(x) = e^{2 x^theta / theta} / x^2 and
# m(x) = 2 e^{-2 x^theta / theta}.
_UNIT_SCALE_SPEED = {
    1.0: (lambda x: exp(2.0 * x) / (x * x), lambda x: -expm1(-2.0 * x)),
    2.0: (lambda x: exp(x * x) / (x * x), lambda x: sqrt(pi) * erf(x)),
}


def zero_ambiguity_optimum(theta):
    """(beta0, ell0) of the unit general logistic at eps = 0.

    beta0 is the root of beta mu(beta) s'(beta) M(beta) = 1 between the
    drift peak (theta + 1)^(-1/theta) and the drift zero 1.
    """
    sprime, speed = _UNIT_SCALE_SPEED[theta]

    def drift(b):
        return b * (1.0 - b ** theta)
    beta = brentq(lambda b: drift(b) * sprime(b) * speed(b) - 1.0,
                  (theta + 1.0) ** (-1.0 / theta), 1.0, xtol=1e-15,
                  rtol=4.0 * np.finfo(float).eps)
    return beta, drift(beta)


def envelope_slope(theta):
    """d ell / d eps at eps = 0 of the unit general logistic, theta 1 or 2."""
    sprime, speed = _UNIT_SCALE_SPEED[theta]
    beta, ell = zero_ambiguity_optimum(theta)
    integral, err = quad(lambda x: sprime(x) * speed(x) ** 2, 0.0, beta,
                         epsabs=1e-15, epsrel=1e-13)
    assert err < 1e-12
    return -ell * ell * integral / speed(beta)


def _linear_form(problem, b):
    """The linear form for psi = (1 - phi)/eps in s = log x, boundary b."""
    level = float(problem.drift(b))
    mu, sigma = problem.model.mu, problem.model.sigma

    def rhs(s, y):
        x = math.exp(s)
        q = sigma(x) / x
        return (y[1], y[1] + 2.0 * (level - problem.epsilon * level * y[0]
                                    - mu(x) * y[1]) / (q * q))
    return rhs


def tail_coefficient_ivp(problem, b, floor):
    """F(b) of ``shooting.tail_coefficient``, integrated by ``solve_ivp``.

    The same linear form for psi = (1 - phi)/eps in s = log x, integrated
    from log b down to log floor with ``solve_ivp(method="DOP853",
    rtol=2.3e-14, atol=1e-18)`` (the tolerances of ``potential_slope``) and
    projected onto the dominant mode; +inf where the tail modes are complex.
    """
    mu_bar, sigma_bar, _ = problem.model.near_zero_constants()
    s2 = sigma_bar * sigma_bar
    a = mu_bar - 0.5 * s2
    level = float(problem.drift(b))
    disc = a * a - 2.0 * s2 * problem.epsilon * level
    if disc < 0.0:
        return math.inf
    r_plus = (-a + math.sqrt(disc)) / s2
    r_minus = (-a - math.sqrt(disc)) / s2
    rhs = _linear_form(problem, b)
    sol = solve_ivp(rhs, (math.log(b), math.log(floor)), (0.0, b),
                    method="DOP853", rtol=2.3e-14, atol=1e-18)
    assert sol.success, sol.message
    s_min = sol.t[-1]
    psi, dpsi = sol.y[:, -1]
    ddpsi = rhs(s_min, (psi, dpsi))[1]
    return float((ddpsi - r_plus * dpsi) * math.exp(-r_minus * s_min))


def potential_slope(problem, b, xs):
    """Slope g = (psi_s / x) / (1 - eps psi) of boundary b at ascending xs.

    Integrates the linear form from log b down to log xs[0] with
    ``solve_ivp(method="DOP853", rtol=2.3e-14, atol=1e-18)`` (rtol just
    above scipy's floor of 100 machine epsilons) and reads psi, psi_s off its
    dense output; g(b) = 1.
    """
    xs = np.asarray(xs, dtype=float)
    sol = solve_ivp(_linear_form(problem, b), (math.log(b), math.log(xs[0])),
                    (0.0, b), method="DOP853", rtol=2.3e-14, atol=1e-18,
                    dense_output=True)
    assert sol.success, sol.message
    psi, dpsi = sol.sol(np.log(xs))
    return np.where(xs == b, 1.0, dpsi / xs / (1.0 - problem.epsilon * psi))


def dip_crossing(problem, b, floor):
    """Largest x < b where the slope of boundary b falls through one.

    Solves (1/2) sigma^2 g' + x mu g - (eps/2) sigma^2 g^2 = lam(b),
    g(b) = 1, downward with ``solve_ivp(method="Radau", rtol=1e-13,
    atol=1e-15)``, stops once g < 1 - 1e-6, and finds g = 1 by ``brentq``
    on the dense output between that stop and the last node at or above
    one.
    """
    mu, sigma = problem.model.mu, problem.model.sigma
    eps = problem.epsilon
    level = float(problem.drift(b))

    def rhs(x, g):
        s2 = sigma(x) ** 2
        return 2.0 * (level - x * mu(x) * g + 0.5 * eps * s2 * g * g) / s2

    def dipped(x, g):
        return g[0] - (1.0 - 1e-6)
    dipped.terminal = True

    sol = solve_ivp(rhs, (b, floor), [1.0], method="Radau", rtol=1e-13,
                    atol=1e-15, dense_output=True, events=dipped)
    assert sol.status == 1, sol.message
    x_dip = float(sol.t_events[0][0])
    x_above = float(sol.t[sol.y[0] >= 1.0][-1])
    return brentq(lambda x: sol.sol(x)[0] - 1.0, x_dip, x_above,
                  xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


# Frozen values computed from the oracles above (bisection tol 1e-12 and
# direct evaluation); tests recompute them live and assert agreement.
BETA0 = 0.7968121300200202
ELL0 = 0.16190255947297866
G_AT_HALF_B09 = 1.2575842708219978   # slope_closed_form(0.5, b=0.9)
V_DIFF_01_04 = -0.5647953840226321   # -integral of optimal slope on [0.1, 0.4]


def step_paths(cfg, path_ids):
    """Per-path stats from a loop that settles every accumulator each step.

    Noise blocks and quarantine follow ``simulate._BLOCK_STEPS``; streams
    come from ``simulate.path_rng``, so a patched stream reaches both.  Each
    path's draws fill a column of a (block, lanes) buffer rather than the
    engine's lane-major rows, so a match also shows that both layouts
    deliver the same noise.
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
    # The engine's worst-case proposal for sigma(x) = sigma_bar x, with the
    # noise scaled by sigma_bar sqrt(dt): (w + b) x + a, a and b the cell's.
    fused = table is not None and isinstance(problem.model, GeneralLogistic)
    scale = problem.model.sigma_bar * sqdt if fused else sqdt

    x = np.full(n, min(cfg.x0, beta), dtype=float)
    Z = np.full(n, max(cfg.x0 - beta, 0.0), dtype=float)  # instant harvest
    KL = np.zeros(n)
    neg = np.zeros(n, dtype=np.int64)
    clamps = np.zeros(n, dtype=np.int64)
    occ = np.zeros((n, simulate.N_BINS), dtype=np.int64)
    max_x = x.copy()
    aborted = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    bin_scale = simulate.N_BINS / beta

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
            noise[:m] *= scale
            for i in range(m):
                k = done + i
                if table is not None:
                    cell, low = table.lookup(x)
                    if fused:
                        proposed = ((noise[i] + table.mean_b[cell]) * x
                                    + table.mean_a[cell])
                    else:
                        proposed = table.mean_at(cell, x) + sigma(x) * noise[i]
                    if k >= burn:
                        KL += table.kl_at(cell, x)
                        clamps += low
                else:
                    proposed = x + x * mu(x) * dt + sigma(x) * noise[i]
                over = proposed - beta
                np.maximum(over, 0.0, out=over)
                if k >= burn:
                    Z += over
                    neg += proposed < 0.0
                np.minimum(proposed, beta, out=proposed)
                np.maximum(proposed, 0.0, out=proposed)
                x = proposed
                np.maximum(max_x, x, out=max_x)
                if k >= burn and (k - burn) % simulate.OCCUPATION_STRIDE == 0:
                    bins = np.clip((x * bin_scale).astype(np.int64), 0,
                                   simulate.N_BINS - 1)
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

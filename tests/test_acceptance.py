"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> ...: PASS/FAIL`` line (visible with
``pytest -s`` or in failure output).  The Monte Carlo criterion runs at its
full configuration; its wall-clock budget is stated for an eight-core
desktop and is scaled by the actual core count here.
"""

import json
import os
import time

import numpy as np
import pytest

from ergharvest import (AmbiguityProblem, SimConfig, VerhulstPearl,
                        build_truncated, cole_hopf_slope, estimate_payoff,
                        integrate_slope, monotonicity_report, solve_threshold,
                        sweep, verify_solution, violation_delta,
                        x0_independence_check)
from ergharvest.cli import main
from ergharvest.shooting import BETA_RTOL

import oracles


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _slopes_at(grid, xs):
    table = dict(zip(grid.xs, grid.ys))
    return np.array([table[x] for x in xs])


def test_criterion_1_closed_form_threshold(vp_model):
    t0 = time.perf_counter()
    problem = AmbiguityProblem.build(vp_model, 0.0)
    sol = solve_threshold(problem)
    elapsed = time.perf_counter() - t0
    beta_ref = oracles.threshold_root(tol=1e-12)
    beta_err = abs(sol.threshold - beta_ref)
    ell_err = abs(sol.long_run_yield - beta_ref * (1.0 - beta_ref))
    ok = beta_err < 1e-6 and ell_err < 1e-8 and elapsed < 1.0
    _report(1, "closed-form threshold", ok,
            f"beta_err={beta_err:.2e} ell_err={ell_err:.2e} "
            f"runtime={elapsed:.2f}s")


def test_criterion_2_closed_form_potential(sol0):
    t0 = time.perf_counter()
    beta_ref = oracles.threshold_root(tol=1e-12)
    ell_ref = beta_ref * (1.0 - beta_ref)
    xs = np.geomspace(0.05, min(beta_ref, sol0.threshold), 500)
    ours = sol0.vprime(xs)
    reference = oracles.optimal_vprime(xs, ell_ref)
    rel = float(np.max(np.abs(ours - reference) / reference))
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-6 and elapsed < 1.0
    _report(2, "closed-form potential slope", ok,
            f"max_rel={rel:.2e} runtime={elapsed:.2f}s")


def test_criterion_3_hjb_verification(vp_model):
    t0 = time.perf_counter()
    worst = {}
    verdicts = []
    for eps in (0.0, 0.5, 1.0, 5.0):
        problem = AmbiguityProblem.build(vp_model, eps)
        sol = solve_threshold(problem)
        rep = verify_solution(sol)
        verdicts.append(rep.verdict
                        and rep.max_abs_residual_left <= 1e-6
                        and rep.max_excess_right <= 1e-8
                        and rep.min_vprime_left >= 1.0 - 1e-8
                        and rep.pasting_curvature <= 1e-6)
        worst[eps] = rep.max_abs_residual_left
    elapsed = time.perf_counter() - t0
    ok = all(verdicts) and elapsed < 5.0
    _report(3, "free-boundary verification", ok,
            f"left residuals={ {e: f'{v:.1e}' for e, v in worst.items()} } "
            f"runtime={elapsed:.2f}s")


def test_criterion_4_bracket_containment(vp_model, solutions_by_eps):
    checks = []
    for eps, (problem, sol) in solutions_by_eps.items():
        expected_peak = 1.0 / (2.0 + eps)
        checks.append(problem.drift_peak == pytest.approx(expected_peak,
                                                          rel=1e-9))
        checks.append(problem.drift_zero == pytest.approx(2.0 * expected_peak,
                                                          rel=1e-9))
        checks.append(problem.drift_peak < sol.threshold
                      < problem.drift_zero)
    _report(4, "strict bracket containment", all(checks),
            f"{len(solutions_by_eps)} levels checked")


def test_criterion_5_comparative_statics(vp_model, sol0):
    t0 = time.perf_counter()
    rows = sweep(vp_model, [0.0, 0.5, 1.0, 2.0, 5.0, 20.0])
    report = monotonicity_report(rows)
    small = sweep(vp_model, [1e-3])[0]
    gap = abs(small.beta_eps - sol0.threshold)
    large = sweep(vp_model, [100.0])[0]
    elapsed = time.perf_counter() - t0
    slack = 10.0 * BETA_RTOL * max(r.x_bar_eps for r in rows)
    ok = (report.passed and report.slack == pytest.approx(slack)
          and gap < 7e-4                      # measured 3.45e-4, 2x margin
          and large.beta_eps <= 2.0 / 102.0
          and elapsed < 10.0)
    _report(5, "comparative statics", ok,
            f"monotone={report.passed} gap_at_1e-3={gap:.2e} "
            f"beta_at_100={large.beta_eps:.5f} runtime={elapsed:.2f}s")


def test_criterion_6_gap_fix_construction(problem1, sol1):
    t0 = time.perf_counter()
    deltas, alphas = [], []
    for k in range(3, 11):
        b = sol1.threshold * (1.0 - 2.0 ** -k)
        tp = build_truncated(problem1, b, sol1.long_run_yield)
        deltas.append(violation_delta(problem1, tp))
        alphas.append(tp.dip_x)
    elapsed = time.perf_counter() - t0
    nonneg = all(d >= -1e-8 for d in deltas)
    decreasing = all(b <= a + 1e-6 for a, b in zip(deltas, deltas[1:]))
    vanishing = deltas[-1] < deltas[0] and deltas[-1] < 1e-3
    alpha_down = all(b < a for a, b in zip(alphas, alphas[1:]))
    ok = nonneg and decreasing and vanishing and alpha_down and elapsed < 10.0
    _report(6, "vanishing truncation violation", ok,
            f"delta: {deltas[0]:.2e} -> {deltas[-1]:.2e}, "
            f"alpha: {alphas[0]:.2e} -> {alphas[-1]:.2e}, "
            f"runtime={elapsed:.2f}s")


def test_criterion_7_monte_carlo_value(problem0, sol0, problem1, sol1):
    jobs = min(8, os.cpu_count() or 1)
    budget = 300.0 * 8.0 / (os.cpu_count() or 1)
    t0 = time.perf_counter()

    cfg0 = SimConfig(problem=problem0, beta=sol0.threshold, x0=sol0.threshold,
                     dt=1e-4, horizon=200.0, n_paths=256, seed=0)
    est0 = estimate_payoff(cfg0, jobs=jobs)
    dev0 = abs(est0.mean - sol0.long_run_yield) / est0.std_error

    cfg1 = SimConfig(problem=problem1, beta=sol1.threshold, x0=sol1.threshold,
                     dt=1e-4, horizon=200.0, n_paths=256, seed=0,
                     measure="worstcase", solution=sol1)
    est1 = estimate_payoff(cfg1, jobs=jobs)
    dev1 = abs(est1.mean - sol1.long_run_yield) / est1.std_error

    detuned = SimConfig(problem=problem0, beta=0.5 * sol0.threshold,
                        x0=0.5 * sol0.threshold, dt=1e-4, horizon=200.0,
                        n_paths=256, seed=0)
    estd = estimate_payoff(detuned, jobs=jobs)
    shortfall = (sol0.long_run_yield - estd.mean) / estd.std_error

    x0rep = x0_independence_check(
        cfg0, [0.1 * sol0.threshold, sol0.threshold, 2.0 * sol0.threshold],
        jobs=jobs)
    elapsed = time.perf_counter() - t0

    ok = (dev0 <= 3.0 and dev1 <= 3.0 and shortfall > 3.0
          and x0rep.consistent and elapsed < budget)
    _report(7, "Monte Carlo value confirmation", ok,
            f"risk-neutral dev={dev0:.2f}SE, worst-case dev={dev1:.2f}SE, "
            f"detuned shortfall={shortfall:.1f}SE, "
            f"x0-independent={x0rep.consistent}, "
            f"runtime={elapsed:.0f}s (budget {budget:.0f}s at "
            f"{os.cpu_count()} cores)")


def test_criterion_8_solver_property_suite(problem1, sol1, solutions_by_eps):
    t0 = time.perf_counter()
    checks = {}

    # First-order response to the forcing perturbation.
    nodes = np.linspace(0.6, 0.3, 31)[1:]
    base = integrate_slope(problem1, 0.6, 0.0, 0.3, forced_nodes=nodes,
                           stop_on_dip=False)
    base_vals = _slopes_at(base, nodes)
    ratios = []
    for gamma in (1e-2, 1e-3, 1e-4):
        pert = integrate_slope(problem1, 0.6, gamma, 0.3, forced_nodes=nodes,
                               stop_on_dip=False)
        ratios.append(np.max(np.abs(_slopes_at(pert, nodes) - base_vals))
                      / gamma)
    checks["perturbation_first_order"] = max(ratios) <= 1.05 * min(ratios)

    # Slope at least one above any boundary in the bracket.
    up = integrate_slope(problem1, sol1.threshold, 0.0,
                         problem1.drift_zero * 1.8, stop_on_dip=False)
    checks["past_boundary_floor"] = bool(np.min(up.ys) >= 1.0 - 1e-9)

    # Comparison ordering below the smaller boundary.
    low_nodes = np.linspace(0.42, 0.2, 23)
    ga = integrate_slope(problem1, 0.45, 0.0, 0.19, forced_nodes=low_nodes,
                         stop_on_dip=False)
    gb = integrate_slope(problem1, 0.6, 0.0, 0.19, forced_nodes=low_nodes,
                         stop_on_dip=False)
    checks["comparison_ordering"] = bool(np.all(
        _slopes_at(ga, low_nodes) <= _slopes_at(gb, low_nodes) + 1e-9))

    # Noise-weighted slope bounded by the threshold noise scale.
    bound = problem1.model.sigma(sol1.threshold) + 1e-8
    hs_ok = True
    for b in (0.45, 0.5, sol1.threshold):
        grid = integrate_slope(problem1, b, 0.0, sol1.x_min)
        hs_ok &= bool(np.max(problem1.model.sigma(grid.xs) * grid.ys)
                      <= bound)
    checks["noise_weighted_bound"] = hs_ok

    # Agreement between the quadratic and linear formulations.
    eval_xs = np.geomspace(0.6, 0.2, 120)
    ch = cole_hopf_slope(problem1, 0.6, 0.2, eval_xs=eval_xs)
    direct = integrate_slope(problem1, 0.6, 0.0, 0.2,
                             forced_nodes=ch.xs[1:-1])
    table = dict(zip(direct.xs, direct.ys))
    rel = max(abs(table[x] - g) / abs(table[x])
              for x, g in zip(ch.xs, ch.ys) if x in table)
    checks["formulation_agreement"] = rel <= 1e-7

    # Bisection trace monotone for every solved level.
    trace_ok = True
    for eps, (problem, sol) in solutions_by_eps.items():
        ins = [b for b, kind in sol.bisection_trace if kind == "in"]
        outs = [b for b, kind in sol.bisection_trace if kind == "out"]
        trace_ok &= bool(ins and outs and max(outs) < min(ins))
    checks["trace_monotone"] = trace_ok

    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 30.0
    failing = [k for k, v in checks.items() if not v]
    _report(8, "solver property suite", ok,
            f"failing={failing or 'none'} agreement={rel:.1e} "
            f"runtime={elapsed:.2f}s")


def test_criterion_9_determinism(tmp_path):
    cfg = {"model": {"family": "verhulst_pearl",
                     "params": {"mu_bar": 1.0, "gamma_bar": 1.0,
                                "sigma_bar": 1.0}},
           "epsilon": 1.0, "seed": 42,
           "sim": {"dt": 1e-3, "horizon": 10.0, "n_paths": 16,
                   "measure": "worstcase"},
           "output_dir": str(tmp_path / "run")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run = tmp_path / "run"

    assert main(["solve", "--config", str(cfg_path)]) == 0
    solve_first = {name: (run / name).read_bytes()
                   for name in ("solution.csv", "vprime_fd.csv")}
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    sim_first = {name: (run / name).read_bytes()
                 for name in ("paths.csv", "occupation.csv")}

    assert main(["solve", "--config", str(cfg_path)]) == 0
    solve_same = all((run / name).read_bytes() == blob
                     for name, blob in solve_first.items())
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    sim_same = all((run / name).read_bytes() == blob
                   for name, blob in sim_first.items())

    ok = solve_same and sim_same
    _report(9, "bit-identical reruns", ok,
            f"solve CSVs identical={solve_same}, "
            f"simulate CSVs identical={sim_same}")

"""Command-line entry point.

Subcommands: check (assumption report), solve (threshold + potential + HJB
audit), simulate (Monte Carlo value confirmation), sweep (ambiguity grid),
verify (HJB audit of a persisted solution).  A single JSON configuration
file drives every command; flags override file values.  Output is plain
text with no color, so NO_COLOR environments need nothing special.

Exit codes: 0 success, 2 assumption failure, 64 usage or configuration
error, 65 numeric or verification failure, 66 missing input, 70 internal.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback
from pathlib import Path

from . import __version__, artifacts
from .config import RunConfig, load_config
from .errors import (AssumptionViolationError, ConfigError, ErgharvestError,
                     InputDomainError, NumericsError)
from .hjb import verify_solution
from .model import AmbiguityProblem, check_assumptions
from .simulate import SimConfig, estimate_payoff
from .shooting import solve_threshold
from .sweep import monotonicity_report, sweep

EXIT_OK = 0
EXIT_ASSUMPTION = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 65
EXIT_MISSING = 66
EXIT_INTERNAL = 70


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ergharvest",
        description="Robust ergodic harvesting: solve, verify, simulate.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # sched_getaffinity exists on Linux only.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--output-dir", default=None,
                       help="directory for artifacts (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config)")
        p.add_argument("--jobs", type=int, default=cpus,
                       help="worker processes for simulate path batches "
                            "(default: the CPUs this process may use; "
                            "results do not depend on it)")
        p.add_argument("--eps", type=float, default=None,
                       help="single ambiguity level (overrides config)")

    p_check = sub.add_parser("check", help="verify model assumptions")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="solve the threshold problem")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo value confirmation")
    common(p_sim)
    p_sim.add_argument("--measure", choices=("reference", "worstcase"),
                       default=None, help="simulated measure (overrides config)")
    p_sim.add_argument("--assert-value", action="store_true",
                       help="fail when the estimate deviates from the solved "
                            "yield beyond the confidence multiple")
    p_sim.add_argument("--no-inline-solve", action="store_true",
                       help="require a persisted solution instead of solving")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep the ambiguity level")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="re-audit a persisted solution")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    updates = {}
    if args.eps is not None:
        if args.eps < 0:
            raise ConfigError("--eps must be >= 0")
        updates["epsilon"] = float(args.eps)
        updates["eps_grid"] = None
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        updates["seed"] = args.seed
    if args.output_dir is not None:
        updates["output_dir"] = args.output_dir
    if getattr(args, "measure", None) is not None:
        updates["sim"] = dict(cfg.sim, measure=args.measure)
    return dataclasses.replace(cfg, **updates)


def _epsilon(cfg: RunConfig) -> float:
    if cfg.epsilon is not None:
        return cfg.epsilon
    if cfg.eps_grid is not None and len(cfg.eps_grid) == 1:
        return cfg.eps_grid[0]
    if cfg.eps_grid is not None:
        raise ConfigError(
            "this command needs a single 'epsilon' (or --eps), not an "
            "'eps_grid'")
    return 0.0


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir) if cfg.output_dir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _base_summary(cfg: RunConfig, problem: AmbiguityProblem) -> dict:
    return {
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.resolved,
        "problem": {
            "epsilon": problem.epsilon,
            "x_eps": problem.drift_peak,
            "x_bar_eps": problem.drift_zero,
            "x_max": problem.x_max,
        },
    }


def cmd_check(args) -> int:
    cfg = _load(args)
    problem = AmbiguityProblem.build(cfg.model, _epsilon(cfg))
    report = check_assumptions(problem)
    print(f"model: {cfg.model.family}  epsilon: {problem.epsilon}")
    print(f"scale anchor: {report.scale_anchor!r}  "
          f"anchor-stable: {report.anchor_stable}")
    if report.heuristic_only:
        print("note: tabulated coefficients, verdicts are heuristic "
              "(unverified assumptions)")
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        print(f"  ({c.assumption}) {c.name}: {mark}  [{c.detail}]")
    if report.all_passed:
        print("all assumptions pass")
        return EXIT_OK
    failure = report.first_failure()
    print(f"({failure.assumption}) violated: {failure.name}")
    return EXIT_ASSUMPTION


def _solution_summary(sol) -> dict:
    return {
        "beta_eps": sol.threshold,
        "ell_eps": sol.long_run_yield,
        "iterations": sol.iterations,
        "beta_tolerance": sol.beta_tolerance,
        "x_min": sol.x_min,
        "regime": sol.regime,
    }


def cmd_solve(args) -> int:
    cfg = _load(args)
    problem = AmbiguityProblem.build(cfg.model, _epsilon(cfg))
    sol = solve_threshold(problem, **cfg.solver)
    report = verify_solution(problem, sol)
    out = _outdir(cfg)
    artifacts.write_json(out / artifacts.CONFIG_ECHO_JSON, cfg.resolved)
    artifacts.write_solution_csv(out / artifacts.SOLUTION_CSV, sol)
    artifacts.write_fd_csv(out / artifacts.FD_CSV, sol)
    summary = _base_summary(cfg, problem)
    summary["solution"] = _solution_summary(sol)
    summary["hjb"] = dataclasses.asdict(report)
    artifacts.write_json(out / artifacts.SUMMARY_JSON, summary)
    print(f"beta = {sol.threshold!r}   (bracket: {problem.drift_peak!r} .. "
          f"{problem.drift_zero!r})")
    print(f"ell  = {sol.long_run_yield!r}   iterations = {sol.iterations}")
    if sol.regime == "extinction_bound":
        print("regime = extinction_bound   (ell is c*, the KL cost of holding "
              "the population null-recurrent at zero)")
    for line in report.summary_lines():
        print(line)
    print(f"artifacts in {out}")
    return EXIT_OK if report.verdict else EXIT_NUMERIC


def cmd_simulate(args) -> int:
    cfg = _load(args)
    problem = AmbiguityProblem.build(cfg.model, _epsilon(cfg))
    out = _outdir(cfg)
    if args.no_inline_solve:
        sol = artifacts.load_solution(out, problem)
    else:
        sol = solve_threshold(problem, **cfg.solver)
        artifacts.write_solution_csv(out / artifacts.SOLUTION_CSV, sol)
        artifacts.write_fd_csv(out / artifacts.FD_CSV, sol)
    sim = cfg.sim
    x0 = sim["x0"] if sim["x0"] is not None else sol.threshold
    simcfg = SimConfig(
        problem=problem, beta=sol.threshold, x0=x0, dt=sim["dt"],
        horizon=sim["horizon"], n_paths=sim["n_paths"],
        burn_in=sim["burn_in"], measure=sim["measure"], solution=sol,
        seed=cfg.seed, n_bins=sim["n_bins"],
        occupation_stride=sim["occupation_stride"])
    est = estimate_payoff(simcfg, jobs=max(1, args.jobs))
    artifacts.write_json(out / artifacts.CONFIG_ECHO_JSON, cfg.resolved)
    artifacts.write_paths_csv(out / artifacts.PATHS_CSV, est.per_path)
    artifacts.write_histogram_csv(out / artifacts.HISTOGRAM_CSV,
                                  simcfg.beta, simcfg.n_bins, est.per_path)
    ell = sol.long_run_yield
    gap = est.mean - ell
    ci = sim["ci_multiple"] * est.std_error
    summary = _base_summary(cfg, problem)
    summary["solution"] = _solution_summary(sol)
    summary["simulation"] = {
        "measure": sim["measure"],
        "x0": x0,
        "mean": est.mean,
        "std_error": est.std_error,
        "se_defined": est.se_defined,
        "n_paths": est.n_paths,
        "n_aborted": est.n_aborted,
        "ell_ref": ell,
        "gap": gap,
        "ci_multiple": sim["ci_multiple"],
        "first_half_mean": est.first_half_mean,
        "second_half_mean": est.second_half_mean,
        "split_consistent": est.split_consistent,
        "negative_proposals": sum(s.negative_proposals for s in est.per_path),
        "floor_clamps": sum(s.floor_clamps for s in est.per_path),
        "max_x": max(s.max_x for s in est.per_path if not s.aborted),
    }
    artifacts.write_json(out / artifacts.SUMMARY_JSON, summary)
    print(f"measure = {sim['measure']}   x0 = {x0!r}   paths = {est.n_paths} "
          f"(aborted {est.n_aborted})")
    print(f"payoff  = {est.mean!r} +- {est.std_error!r} (SE)")
    print(f"ell ref = {ell!r}   gap = {gap!r}")
    print(f"split halves: {est.first_half_mean!r} / {est.second_half_mean!r} "
          f"({'consistent' if est.split_consistent else 'inconsistent'})")
    print(f"artifacts in {out}")
    if args.assert_value:
        one_sided = sim["measure"] == "reference" and problem.epsilon > 0.0
        if one_sided:
            # The reference run upper-bounds the adversarial infimum only.
            if est.mean < ell - ci:
                print(f"value assertion failed: mean below ell - {ci!r}")
                return EXIT_NUMERIC
        elif abs(gap) > ci:
            print(f"value assertion failed: |gap| > {ci!r}")
            return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    grid = cfg.eps_grid if cfg.eps_grid is not None else (_epsilon(cfg),)
    rows = sweep(cfg.model, grid, **cfg.solver)
    report = monotonicity_report(rows)
    out = _outdir(cfg)
    artifacts.write_json(out / artifacts.CONFIG_ECHO_JSON, cfg.resolved)
    artifacts.write_sweep_csv(out / artifacts.SWEEP_CSV, rows)
    artifacts.write_plot_script(out / artifacts.PLOT_SCRIPT)
    summary = {
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.resolved,
        "rows": [dataclasses.asdict(r) for r in rows],
        "monotone": report.passed,
        "slack": report.slack,
        "ell_slack": report.ell_slack,
    }
    artifacts.write_json(out / artifacts.SUMMARY_JSON, summary)
    print(f"{'epsilon':>10} {'x_eps':>12} {'x_bar_eps':>12} {'beta_eps':>12} "
          f"{'ell_eps':>12} {'iters':>6}")
    for r in rows:
        if r.failed:
            print(f"{r.epsilon:>10.4g} failed: {r.failure}")
        else:
            print(f"{r.epsilon:>10.4g} {r.x_eps:>12.6g} {r.x_bar_eps:>12.6g} "
                  f"{r.beta_eps:>12.8g} {r.ell_eps:>12.8g} {r.iterations:>6}")
    for line in report.lines():
        print(line)
    print(f"artifacts in {out}")
    if any(r.failed for r in rows) or not report.passed:
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    problem = AmbiguityProblem.build(cfg.model, _epsilon(cfg))
    out = _outdir(cfg)
    sol = artifacts.load_solution(out, problem)
    report = verify_solution(problem, sol)
    print(f"persisted solution: beta = {sol.threshold!r}, "
          f"ell = {sol.long_run_yield!r}")
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.verdict else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputDomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssumptionViolationError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except FileNotFoundError as exc:  # MissingInputError included
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ErgharvestError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:  # noqa: BLE001 - last-resort mapping to exit code
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

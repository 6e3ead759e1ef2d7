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
import functools
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
from .simulate import CI_MULTIPLE, SimConfig, estimate_payoff
from .shooting import extinction_level, solve_threshold
from .sweep import monotonicity_report, sweep

EXIT_OK = 0
EXIT_ASSUMPTION = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 65
EXIT_MISSING = 66
EXIT_INTERNAL = 70


def _positive_int(text):
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text} is not a positive integer")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit ``EXIT_USAGE``, not argparse's 2.

    Exit 2 is ``EXIT_ASSUMPTION``; subparsers inherit this class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _cpus():
    """The CPUs this process may use now: ``--jobs``' default."""
    # sched_getaffinity exists on Linux only.
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _build_parser():
    parser = _Parser(
        prog="ergharvest",
        description="Robust ergodic harvesting: solve, verify, simulate.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--output-dir", default=None,
                       help="directory for artifacts (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config)")
        p.add_argument("--eps", type=float, default=None,
                       help="single ambiguity level (overrides config)")
        return p

    command("check", cmd_check, "verify model assumptions")
    command("solve", cmd_solve, "solve the threshold problem")
    p_sim = command("simulate", cmd_simulate,
                    "Monte Carlo value confirmation")
    p_sim.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker processes for path batches (default: the "
                            "CPUs this process may use; results do not "
                            "depend on it)")
    p_sim.add_argument("--measure", default=None,
                       help="simulated measure (overrides config)")
    p_sim.add_argument("--assert-value", action="store_true",
                       help="fail when the estimate deviates from the solved "
                            "yield beyond the confidence multiple")
    p_sim.add_argument("--no-inline-solve", action="store_true",
                       help="require a persisted solution instead of solving")
    command("sweep", cmd_sweep, "sweep the ambiguity level")
    command("verify", cmd_verify, "re-audit a persisted solution")
    return parser


# Built on the first call of ``main`` and reused by every later one.
_cached_parser = functools.cache(_build_parser)


def _load(args) -> RunConfig:
    """The configuration file with the flags given written over its keys."""
    flags = (("epsilon", args.eps), ("seed", args.seed),
             ("output_dir", args.output_dir))
    edits = {key: value for key, value in flags if value is not None}
    if args.eps is not None:
        edits["eps_grid"] = None
    if getattr(args, "measure", None) is not None:
        edits["sim"] = {"measure": args.measure}
    return load_config(args.config, **edits)


def _epsilon(cfg: RunConfig) -> float:
    grid = cfg.eps_grid or (0.0 if cfg.epsilon is None else cfg.epsilon,)
    if len(grid) > 1:
        raise ConfigError("this command needs a single 'epsilon' (or --eps), "
                          "not an 'eps_grid'")
    return grid[0]


def _sim_problem(cfg: RunConfig) -> AmbiguityProblem:
    """The problem, with ``sim.x0`` held to the rule ``SimConfig`` applies.

    ``check`` and ``simulate`` refuse a start outside (0, x_max] before any
    solve writes a file.
    """
    problem = AmbiguityProblem.build(cfg.model, _epsilon(cfg))
    if cfg.sim["x0"] is not None:
        problem.validate_x(cfg.sim["x0"], "'x0'")
    return problem


def _outdir(cfg: RunConfig, *, make=True) -> Path:
    out = Path(cfg.output_dir) if cfg.output_dir else Path(".")
    try:
        if make:
            out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc}")
    return out


def _summary(cfg: RunConfig, **blocks) -> dict:
    """``summary.json``: version, seed, config and ``blocks``."""
    return {"version": __version__, "seed": cfg.seed, "config": cfg.resolved,
            **blocks}


def cmd_check(args, cfg: RunConfig) -> int:
    problem = _sim_problem(cfg)
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
        # The solver's own precondition (a > 0), asked at every level.
        c_star, b_star = extinction_level(problem)
        if problem.epsilon > 0.0:
            lam_peak = float(problem.drift(problem.drift_peak))
            line = f"lam_eps(peak) = {lam_peak!r}  c* = {c_star!r}"
            if b_star is not None:
                line += (f"  b* = {b_star!r}  (no boundary below b* is "
                         "admissible)")
            print(line)
        print("all assumptions pass")
        return EXIT_OK
    failure = report.first_failure()
    print(f"({failure.assumption}) violated: {failure.name}")
    return EXIT_ASSUMPTION


def cmd_solve(args, cfg: RunConfig) -> int:
    problem = AmbiguityProblem.build(cfg.model, _epsilon(cfg))
    out = _outdir(cfg)
    sol = solve_threshold(problem)
    report = verify_solution(sol)
    artifacts.write_json(out / artifacts.CONFIG_ECHO_JSON, cfg.resolved)
    artifacts.write_solution(out, sol)
    artifacts.write_json(out / artifacts.SUMMARY_JSON, _summary(
        cfg, problem=artifacts.problem_block(problem),
        solution=artifacts.solution_block(sol),
        hjb=dataclasses.asdict(report)))
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


def cmd_simulate(args, cfg: RunConfig) -> int:
    problem = _sim_problem(cfg)
    out = _outdir(cfg, make=not args.no_inline_solve)
    if args.no_inline_solve:
        sol = artifacts.load_solution(out, problem)
    else:
        sol = solve_threshold(problem)
        artifacts.write_solution(out, sol)
    simcfg = SimConfig(problem=problem, beta=sol.threshold, solution=sol,
                       seed=cfg.seed, **cfg.sim)
    est = estimate_payoff(simcfg, jobs=args.jobs or _cpus())
    # Aborted paths stay out of every aggregate; paths.csv flags them.
    kept = [s for s in est.per_path if not s.aborted]
    artifacts.write_json(out / artifacts.CONFIG_ECHO_JSON, cfg.resolved)
    artifacts.write_paths_csv(out / artifacts.PATHS_CSV, est.per_path)
    artifacts.write_histogram_csv(out / artifacts.HISTOGRAM_CSV,
                                  simcfg.beta, kept)
    ell = sol.long_run_yield
    gap = est.mean - ell
    ci = CI_MULTIPLE * est.std_error
    simulation = {
        **{f.name: getattr(est, f.name) for f in dataclasses.fields(est)
           if f.name != "per_path"},
        "measure": simcfg.measure,
        "x0": simcfg.x0,
        "ell_ref": ell,
        "gap": gap,
        "ci_multiple": CI_MULTIPLE,
        "negative_proposals": sum(s.negative_proposals for s in kept),
        "floor_clamps": sum(s.floor_clamps for s in kept),
        "max_x": max(s.max_x for s in kept),
    }
    artifacts.write_json(out / artifacts.SUMMARY_JSON, _summary(
        cfg, problem=artifacts.problem_block(problem),
        solution=artifacts.solution_block(sol), simulation=simulation))
    print(f"measure = {simcfg.measure}   x0 = {simcfg.x0!r}   "
          f"paths = {est.n_paths} (aborted {est.n_aborted})")
    print(f"payoff  = {est.mean!r} +- {est.std_error!r} (SE)")
    print(f"ell ref = {ell!r}   gap = {gap!r}")
    print(f"split halves: {est.first_half_mean!r} / {est.second_half_mean!r} "
          f"({'consistent' if est.split_consistent else 'inconsistent'})")
    print(f"artifacts in {out}")
    if args.assert_value:
        one_sided = simcfg.measure == "reference" and problem.epsilon > 0.0
        if one_sided:
            # The reference run upper-bounds the adversarial infimum only.
            if est.mean < ell - ci:
                print(f"value assertion failed: mean below ell - {ci!r}")
                return EXIT_NUMERIC
        elif abs(gap) > ci:
            print(f"value assertion failed: |gap| > {ci!r}")
            return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep(args, cfg: RunConfig) -> int:
    grid = cfg.eps_grid if cfg.eps_grid is not None else (_epsilon(cfg),)
    out = _outdir(cfg)
    rows = sweep(cfg.model, grid)
    report = monotonicity_report(rows)
    artifacts.write_json(out / artifacts.CONFIG_ECHO_JSON, cfg.resolved)
    artifacts.write_sweep_csv(out / artifacts.SWEEP_CSV, rows)
    artifacts.write_plot_script(out / artifacts.PLOT_SCRIPT)
    artifacts.write_json(out / artifacts.SUMMARY_JSON, _summary(
        cfg, rows=[dataclasses.asdict(r) for r in rows],
        monotone=report.passed, slack=report.slack,
        ell_slack=report.ell_slack))
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


def cmd_verify(args, cfg: RunConfig) -> int:
    problem = AmbiguityProblem.build(cfg.model, _epsilon(cfg))
    sol = artifacts.load_solution(_outdir(cfg, make=False), problem)
    report = verify_solution(sol)
    print(f"persisted solution: beta = {sol.threshold!r}, "
          f"ell = {sol.long_run_yield!r}")
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.verdict else EXIT_NUMERIC


def main(argv=None) -> int:
    args = _cached_parser().parse_args(argv)
    try:
        return args.func(args, _load(args))
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

"""The benchmark's workloads: what one op runs and how its output is gated.

Every workload is a closed loop with one client and no think time.  An op
is one public call into ergharvest; its gate returns a ``Verdict``:
``failed`` when the program reported a failure (non-zero exit, a failed
self-check) or the gate rejected the output, ``incorrect`` only when the
gate's own reference rejected an output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import oracles
from ergharvest import (AmbiguityProblem, SimConfig, VerhulstPearl,
                        artifacts, cli, estimate_payoff, ivp, shooting,
                        solve_threshold)

VP_TOL = 1e-6                 # VP eps=0 threshold against the closed form
DEFAULT_EPS_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)


@dataclass
class Verdict:
    failed: bool = False
    incorrect: bool = False
    reason: str = ""

    def reject(self, reason, incorrect=True):
        self.failed = True
        self.incorrect = self.incorrect or incorrect
        self.reason = f"{self.reason}; {reason}" if self.reason else reason


# --------------------------------------------------------------- solve ops

@dataclass(frozen=True)
class SolveCase:
    label: str
    family: str
    params: dict
    eps: float

    def bracket(self):
        if self.family == "general_logistic":
            return oracles.general_logistic2_bracket(self.eps)
        return oracles.unit_logistic_bracket(self.eps)


def unit_logistic_table():
    """The tests' unit logistic table: 200 geometric nodes on [1e-4, 3]."""
    xs = np.geomspace(1e-4, 3.0, 200)
    return {"xs": xs.tolist(), "mu_values": (1.0 - xs).tolist(),
            "sigma_values": xs.tolist()}


def solve_cases():
    vp = {"mu_bar": 1.0, "gamma_bar": 1.0, "sigma_bar": 1.0}
    gl = dict(vp, theta=2.0)
    return ([SolveCase(f"vp-eps{e:g}", "verhulst_pearl", vp, e)
             for e in DEFAULT_EPS_GRID]
            + [SolveCase(f"gl2-eps{e:g}", "general_logistic", gl, e)
               for e in (0.0, 1.0)])


def tabulated_cases():
    table = unit_logistic_table()
    return [SolveCase(f"tab-eps{e:g}", "tabulated", table, e)
            for e in (0.0, 1.0)]


def hjb_failures(summary):
    """The audit entries of summary.json that exceed their tolerance."""
    h = summary.get("hjb", {})
    tol = h.get("tolerances", {})
    pairs = (("max_abs_residual_left", "residual_left"),
             ("max_excess_right", "excess_right"),
             ("pasting_slope_gap", "pasting_slope"),
             ("pasting_curvature", "pasting_curvature"),
             ("fd_max_disagreement", "fd_agreement"))
    bad = [f"{k} {h[k]:.3g} > {tol[t]:.3g}" for k, t in pairs
           if k in h and t in tol and h[k] > tol[t]]
    if "min_vprime_left" in h and "vprime" in tol \
            and h["min_vprime_left"] < 1.0 - tol["vprime"]:
        bad.append(f"min_vprime_left {h['min_vprime_left']!r}")
    return ", ".join(bad) or "no audit entry over tolerance"


class SolveWorkload:
    """``ergharvest solve`` run in-process, stdout captured."""

    root_span = "cli.main"
    jobs = 1

    def __init__(self, name, cases, workdir):
        self.name = name
        self.cases = cases
        self.workdir = workdir
        self.thresholds = {}          # (family, eps) -> beta from earlier ops
        self.threshold0 = oracles.unit_logistic_threshold0()

    def setup(self, seed):
        for case in self.cases:
            out = os.path.join(self.workdir, case.label)
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            cfg = {"model": {"family": case.family, "params": case.params},
                   "epsilon": case.eps}
            with open(os.path.join(out, "config.json"), "w") as fh:
                json.dump(cfg, fh)

    def cycle(self, seed):
        """All cases once; the seed only picks where the cycle starts."""
        k = seed % len(self.cases)
        return self.cases[k:] + self.cases[:k]

    def work(self, case):
        return 1.0

    def prepare(self, case):
        out = os.path.join(self.workdir, case.label)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out, artifacts.SUMMARY_JSON))

    def op(self, case):
        out = os.path.join(self.workdir, case.label)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["solve", "--config", os.path.join(out, "config.json"),
                           "--output-dir", out])
        return rc, sink.getvalue()

    def check(self, case, result):
        rc, text = result
        v = Verdict()
        path = os.path.join(self.workdir, case.label, artifacts.SUMMARY_JSON)
        try:
            with open(path) as fh:
                summary = json.load(fh)
            beta = float(summary["solution"]["beta_eps"])
        except (OSError, KeyError, ValueError):
            lines = text.strip().splitlines()
            v.reject(f"{case.label}: exit {rc}, no readable summary.json "
                     f"({lines[-1][:120] if lines else ''})", incorrect=rc == 0)
            return v
        if rc != 0:
            v.reject(f"{case.label}: exit {rc} ({hjb_failures(summary)})",
                     incorrect=False)
        return self.check_threshold(case, beta, v)

    def check_threshold(self, case, beta, v):
        peak, zero = case.bracket()
        if not peak < beta < zero:
            v.reject(f"{case.label}: beta {beta!r} outside ({peak!r}, {zero!r})")
        if case.family == "verhulst_pearl" and case.eps == 0.0:
            if abs(beta - self.threshold0) > VP_TOL:
                v.reject(f"{case.label}: beta {beta!r} is "
                         f"{beta - self.threshold0:+.3g} from the closed form")
        self.thresholds[(case.family, case.eps)] = beta
        known = sorted((e, b) for (f, e), b in self.thresholds.items()
                       if f == case.family)
        for (e0, b0), (e1, b1) in zip(known, known[1:]):
            if b1 > b0:
                v.reject(f"{case.family}: beta rises from {b0!r} at eps={e0:g}"
                         f" to {b1!r} at eps={e1:g}")
        return v

    def trace_patches(self, tracer):
        def classified(t, res, args, kwargs):
            t.count("shooting.classify_calls")
            t.count("shooting.dips", not res.in_set)
            t.count("shooting.guard_stops", res.blowup_warning)

        def potential(t, res, args, kwargs):
            t.count("shooting.potential_nodes", res.nodes_x.size)

        def rescued(t, res, args, kwargs):
            t.count("shooting.cole_hopf_rescues")

        def verified(t, res, args, kwargs):
            t.count("hjb.fd_points", res.fd_points)

        def written(t, res, args, kwargs):
            t.count("artifacts.bytes", os.path.getsize(args[0]))

        build = AmbiguityProblem.__dict__["build"].__func__
        wrap = tracer.wrap
        return [
            (cli, "load_config", wrap(cli.load_config, "config.load")),
            (AmbiguityProblem, "build",
             classmethod(wrap(build, "model.build"))),
            (cli, "solve_threshold", wrap(cli.solve_threshold, "shooting.solve")),
            (shooting, "check_assumptions",
             wrap(shooting.check_assumptions, "model.check")),
            (shooting, "classify_boundary",
             wrap(shooting.classify_boundary, "shooting.classify", classified)),
            (shooting, "build_potential",
             wrap(shooting.build_potential, "shooting.potential", potential)),
            (shooting, "cole_hopf_slope",
             wrap(shooting.cole_hopf_slope, "shooting.cole_hopf", rescued)),
            (ivp, "integrate", tracer.traced_integrate(ivp.integrate)),
            (cli, "verify_solution",
             wrap(cli.verify_solution, "hjb.verify", verified)),
        ] + [(artifacts, fn, wrap(getattr(artifacts, fn), "artifacts.write",
                                  written))
             for fn in ("write_json", "write_solution_csv", "write_fd_csv")]

    def record_counts(self, tracer, case, result):
        pass

    def extra_traced(self, tracer, op_times_s):
        """Per-layer metrics from ops outside the cycle, and their verdicts."""
        return {}, []


# ------------------------------------------------------------------ MC ops

@dataclass(frozen=True)
class MCCase:
    label: str


class MCWorkload:
    """``estimate_payoff`` on the unit logistic model, solve in set-up."""

    root_span = "simulate.estimate_payoff"
    dt = 2e-3
    horizon = 100.0
    burn_in = 0.1
    n_paths = 512

    def __init__(self, name, eps, measure, jobs):
        self.name = name
        self.eps = eps
        self.measure = measure
        self.jobs = jobs
        self.first_paths = None

    def setup(self, seed):
        problem = AmbiguityProblem.build(VerhulstPearl(), self.eps)
        sol = solve_threshold(problem)
        self.cfg = SimConfig(
            problem=problem, beta=sol.threshold, x0=sol.threshold, dt=self.dt,
            horizon=self.horizon, n_paths=self.n_paths, burn_in=self.burn_in,
            measure=self.measure, solution=sol, seed=seed)
        b = sol.threshold
        if self.eps == 0.0:
            self.ell = oracles.unit_logistic_yield0()
        else:
            self.ell = b - (1.0 + 0.5 * self.eps) * b * b

    def cycle(self, seed):
        return [MCCase(f"{self.name}-seed{seed}")]

    def work(self, case):
        return float(self.cfg.n_paths * self.cfg.n_steps)

    def prepare(self, case):
        pass

    def op(self, case):
        return estimate_payoff(self.cfg, jobs=self.jobs)

    @staticmethod
    def path_table(est):
        return np.array([(s.path_id, s.harvest_total, s.kl_penalty,
                          s.payoff_estimate, s.first_half_payoff,
                          s.second_half_payoff) for s in est.per_path])

    def check(self, case, est):
        v = Verdict()
        if est.n_aborted:
            v.reject(f"{est.n_aborted} aborted paths", incorrect=False)
        if not est.split_consistent:
            v.reject(f"split halves inconsistent: {est.first_half_mean!r} vs "
                     f"{est.second_half_mean!r}", incorrect=False)
        bound = oracles.mc_gap_bound(self.cfg.dt, est.std_error)
        gap = est.mean - self.ell
        if not abs(gap) <= bound:
            v.reject(f"|mean - ell| = {abs(gap):.3g} > {bound:.3g} "
                     f"(mean {est.mean!r}, ell {self.ell!r})")
        table = self.path_table(est)
        if self.first_paths is None:
            self.first_paths = table
        elif table.tobytes() != self.first_paths.tobytes():
            v.reject("per-path results differ from the first op at this seed")
        return v

    def trace_patches(self, tracer):
        return []

    def record_counts(self, tracer, case, est):
        tracer.count("simulate.negative_proposals",
                     sum(s.negative_proposals for s in est.per_path))
        tracer.count("simulate.floor_clamps",
                     sum(s.floor_clamps for s in est.per_path))
        tracer.count("simulate.aborted_paths", est.n_aborted)
        tracer.count("simulate.gap_se",
                     abs(est.mean - self.ell) / est.std_error)

    def extra_traced(self, tracer, op_times_s):
        """Single-process op on one worker's share of the paths."""
        share = self.n_paths // self.jobs
        serial_cfg = dataclasses.replace(self.cfg, n_paths=share)
        with tracer.span("simulate.serial"):
            t0 = time.perf_counter()
            est = estimate_payoff(serial_cfg, jobs=1)
            wall = time.perf_counter() - t0
        v = Verdict()
        if self.first_paths is not None and (
                self.path_table(est).tobytes()
                != self.first_paths[:share].tobytes()):
            v.reject("jobs=1 per-path results differ from the batched op")
        serial_rate = share * serial_cfg.n_steps / wall
        parallel_rate = self.work(None) / float(np.median(op_times_s))
        return {
            "simulate.step_ns": 1e9 * wall / serial_cfg.n_steps,
            "simulate.serial_path_steps_per_s": serial_rate,
            "simulate.parallel_efficiency":
                parallel_rate / (self.jobs * serial_rate),
        }, [v]


def make(name, workdir, jobs):
    if name == "solve":
        return SolveWorkload(name, solve_cases(), workdir)
    if name == "solve-tabulated":
        return SolveWorkload(name, tabulated_cases(), workdir)
    if name == "mc-reference":
        return MCWorkload(name, 0.0, "reference", jobs)
    if name == "mc-worstcase":
        return MCWorkload(name, 1.0, "worstcase", jobs)
    raise KeyError(name)

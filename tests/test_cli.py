import csv
import dataclasses
import inspect
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ergharvest import (AmbiguityProblem, SimConfig, VerhulstPearl,
                        artifacts, cli, config, estimate_payoff,
                        solve_threshold, verify_solution)
from ergharvest.cli import main

VP_BLOCK = {"family": "verhulst_pearl",
            "params": {"mu_bar": 1.0, "gamma_bar": 1.0, "sigma_bar": 1.0}}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {"model": VP_BLOCK, "epsilon": 0.0, "seed": 5,
           "sim": {"dt": 1e-3, "horizon": 5.0, "n_paths": 8,
                   "measure": "reference"},
           "output_dir": str(tmp_path / "run")}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestCheck:
    def test_defaults_pass(self, tmp_path, capsys):
        rc = main(["check", "--config", str(write_cfg(tmp_path))])
        assert rc == 0
        assert "all assumptions pass" in capsys.readouterr().out

    def test_constant_sigma_fails_with_a1_named(self, tmp_path, capsys):
        xs = list(np.geomspace(1e-4, 3.0, 64))
        model = {"family": "tabulated",
                 "params": {"xs": xs, "mu_values": [1.0 - x for x in xs],
                            "sigma_values": [1.0] * len(xs)}}
        rc = main(["check", "--config",
                   str(write_cfg(tmp_path, model=model))])
        assert rc == 2
        assert "(A1)" in capsys.readouterr().out

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "model": {\n}')
        rc = main(["check", "--config", str(bad)])
        assert rc == 64
        assert "line" in capsys.readouterr().err

    def test_unknown_key_lists_accepted(self, tmp_path, capsys):
        path = write_cfg(tmp_path, extra_knob=1)
        rc = main(["check", "--config", str(path)])
        assert rc == 64
        err = capsys.readouterr().err
        assert "extra_knob" in err and "accepted keys" in err
        for key in ("dip_floor", "dip_tolerance", "overflow_guard"):
            path = write_cfg(tmp_path, solver={key: 1e-8})
            assert main(["check", "--config", str(path)]) == 64
            err = capsys.readouterr().err
            assert key in err and "accepted keys" in err

    def test_retired_tolerance_keys_rejected(self, tmp_path, capsys):
        for key in ("rtol", "atol", "n_grid_left", "n_grid_right"):
            path = write_cfg(tmp_path, solver={key: 1e-8})
            assert main(["check", "--config", str(path)]) == 64
            assert key in capsys.readouterr().err

    def test_no_extinction_line_at_zero_ambiguity(self, tmp_path, capsys):
        assert main(["check", "--config", str(write_cfg(tmp_path))]) == 0
        assert "c* =" not in capsys.readouterr().out

    @pytest.mark.parametrize("eps, regime", [
        (0.5, None), (1.0, "interior"), (5.0, "extinction_bound")])
    def test_extinction_level_compared(self, tmp_path, capsys, eps, regime):
        # Unit VP: lam_eps(peak) = 1/(2 (2 + eps)) and c* = 1/(8 eps), so
        # b* exists exactly when eps > 2/3.
        cfg = write_cfg(tmp_path, epsilon=eps)
        assert main(["check", "--config", str(cfg)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if "c* =" in ln)
        fields = dict(f.split(" = ") for f in line.split("  ")
                      if " = " in f)
        assert float(fields["lam_eps(peak)"]) == pytest.approx(
            1.0 / (2.0 * (2.0 + eps)), rel=1e-14)
        assert float(fields["c*"]) == pytest.approx(1.0 / (8.0 * eps),
                                                    rel=1e-14)
        assert ("b*" in fields) == (regime is not None)
        if regime is not None:
            b_star = float(fields["b*"])
            sol = solve_threshold(AmbiguityProblem.build(VerhulstPearl(), eps))
            assert sol.regime == regime
            if regime == "interior":
                assert sol.threshold > b_star
            else:
                assert sol.threshold == b_star

    def test_negative_epsilon_rejected(self, tmp_path):
        rc = main(["check", "--config", str(write_cfg(tmp_path, epsilon=-1.0))])
        assert rc == 64

    def test_theta_rejected_for_verhulst_pearl(self, tmp_path, capsys):
        model = {"family": "verhulst_pearl", "params": {"theta": 1.0}}
        rc = main(["check", "--config",
                   str(write_cfg(tmp_path, model=model))])
        assert rc == 64
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [{"bogus": 1}, {"sigma_values": None}],
                             ids=["unknown", "missing"])
    def test_tabulated_params_checked_like_other_families(self, tmp_path,
                                                          capsys, edit):
        xs = list(np.geomspace(1e-4, 3.0, 64))
        params = {"xs": xs, "mu_values": [1.0 - x for x in xs],
                  "sigma_values": xs, **edit}
        params = {k: v for k, v in params.items() if v is not None}
        model = {"family": "tabulated", "params": params}
        rc = main(["check", "--config",
                   str(write_cfg(tmp_path, model=model))])
        assert rc == 64
        assert next(iter(edit)) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_never_positive_drift_is_an_assumption_failure(
            self, tmp_path, capsys, command):
        # mu = -1 - x makes the adjusted drift negative everywhere: there is
        # no bracket, and the root finder must not be handed one.
        xs = list(np.geomspace(1e-3, 3.0, 64))
        model = {"family": "tabulated",
                 "params": {"xs": xs, "mu_values": [-1.0 - x for x in xs],
                            "sigma_values": xs}}
        rc = main([command, "--config",
                   str(write_cfg(tmp_path, model=model, epsilon=1.0))])
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert rc == 2
        assert "violated" in text
        assert "ValueError" not in text and "Traceback" not in text


class TestSolverKeys:
    def test_config_keys_are_the_solver_keywords(self):
        params = inspect.signature(solve_threshold).parameters.values()
        keywords = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert keywords == config._SOLVER_KEYS
        assert set(config._SOLVER_DEFAULTS) == config._SOLVER_KEYS


def _real_table():
    # 600 rows: two full chunks and a partial one, with edge values.
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((3, 600)) * 10.0 ** rng.integers(
        -300, 300, (3, 600))
    cols[0, :6] = [-0.0, np.nan, np.inf, -np.inf, 1e-300, 0.0]
    return cols, [format(v, ".17g") for v in cols.ravel()]


def _integer_table():
    # Path ids up to 2**53 - 1, 0/1 flags and int64 counts, printed as ints.
    rng = np.random.default_rng(4)
    ids = np.arange(2**53 - 300, 2**53)
    ids[:3] = [0, 1, 2**31]
    flags = rng.integers(0, 2, 300)
    counts = rng.integers(0, 2**40, 300, dtype=np.int64)
    cols = (ids, flags, counts)
    return cols, [str(v) for v in np.stack(cols).ravel()]


class TestTableWriter:
    @pytest.mark.parametrize("table", [_real_table, _integer_table],
                             ids=["reals", "integers"])
    def test_byte_identical_to_the_csv_module(self, tmp_path, table):
        cols, text = table()
        header = ["a", "b", "c"]
        artifacts._write_table(tmp_path / "chunked.csv", header, cols)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(np.array(text).reshape(3, -1).T.tolist())
        assert ((tmp_path / "chunked.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())


class TestJobsDefault:
    def test_jobs_only_on_simulate(self, capsys):
        parser = cli._build_parser()
        args = parser.parse_args(["simulate", "--config", "c.json",
                                  "--jobs", "2"])
        assert args.jobs == 2
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["solve", "--config", "c.json", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_works_without_sched_getaffinity(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        args = cli._build_parser().parse_args(
            ["simulate", "--config", "cfg.json"])
        assert args.jobs == (os.cpu_count() or 1)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert main(["solve", "--config", str(write_cfg(tmp_path))]) == 0
        assert "verdict        pass" in capsys.readouterr().out


class TestSolve:
    def test_writes_artifacts_and_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta = 0.79681213" in out
        assert "verdict        pass" in out
        run = tmp_path / "run"
        for name in ("solution.csv", "vprime_fd.csv", "summary.json",
                     "resolved_config.json"):
            assert (run / name).exists()
        summary = json.loads((run / "summary.json").read_text())
        assert summary["hjb"]["verdict"] is True
        assert summary["solution"]["beta_eps"] == pytest.approx(0.7968121,
                                                                abs=1e-6)
        assert summary["config"]["solver"]["beta_rtol"] == 5e-9

    def test_regime_reported_and_restored(self, tmp_path, capsys):
        # VP at eps=5 sits on the extinction bound: stdout gains one line,
        # summary.json records the regime and verify reads it back.
        cfg = write_cfg(tmp_path, epsilon=5.0)
        assert main(["solve", "--config", str(cfg)]) == 0
        assert "regime = extinction_bound" in capsys.readouterr().out
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["solution"]["regime"] == "extinction_bound"
        assert summary["solution"]["ell_eps"] == pytest.approx(0.025,
                                                               rel=1e-12)
        problem = AmbiguityProblem.build(config.load_config(cfg).model, 5.0)
        restored = artifacts.load_solution(tmp_path / "run", problem)
        assert restored.regime == "extinction_bound"
        assert main(["solve", "--config", str(cfg), "--eps", "1.0"]) == 0
        assert "regime =" not in capsys.readouterr().out
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["solution"]["regime"] == "interior"

    def test_nonpositive_log_drift_is_an_assumption_failure(self, tmp_path,
                                                            capsys):
        # mu_bar = sigma_bar^2 / 2 passes (A0) but leaves the tail modes
        # without a dominant one: a named error, not a number or exit 70.
        model = {"family": "verhulst_pearl",
                 "params": {"mu_bar": 0.5, "sigma_bar": 1.0}}
        rc = main(["solve", "--config",
                   str(write_cfg(tmp_path, model=model, epsilon=0.5))])
        err = capsys.readouterr().err
        assert rc == 2
        assert "mu_bar - sigma_bar^2/2" in err and "Traceback" not in err

    def test_bracket_echoed_at_unit_ambiguity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, epsilon=1.0)
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        beta = summary["solution"]["beta_eps"]
        assert 1.0 / 3.0 < beta < 2.0 / 3.0
        assert summary["problem"]["x_eps"] == pytest.approx(1.0 / 3.0)

    def test_deterministic_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        first = (tmp_path / "run" / "solution.csv").read_bytes()
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "solution.csv").read_bytes() == first

    def test_eps_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg), "--eps", "1.0"]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["problem"]["epsilon"] == 1.0
        assert summary["config"]["epsilon"] == 1.0


def _echoed(run):
    """resolved_config.json and the config block of summary.json."""
    resolved = json.loads((run / "resolved_config.json").read_text())
    summary = json.loads((run / "summary.json").read_text())
    assert summary["config"] == resolved
    return resolved


class TestOverrides:
    def test_seed_and_output_dir(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "elsewhere"
        assert main(["solve", "--config", str(cfg), "--seed", "11",
                     "--output-dir", str(out)]) == 0
        resolved = _echoed(out)
        assert resolved["seed"] == 11
        assert resolved["output_dir"] == str(out)
        assert not (tmp_path / "run").exists()

    def test_eps_replaces_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, epsilon=None, eps_grid=[0.0, 1.0])
        assert main(["solve", "--config", str(cfg), "--eps", "1.0"]) == 0
        resolved = _echoed(tmp_path / "run")
        assert resolved["epsilon"] == 1.0
        assert resolved["eps_grid"] is None

    def test_measure(self, tmp_path):
        cfg = write_cfg(tmp_path, epsilon=1.0)
        assert main(["simulate", "--config", str(cfg), "--measure",
                     "worstcase"]) == 0
        resolved = _echoed(tmp_path / "run")
        assert resolved["sim"]["measure"] == "worstcase"
        assert resolved["sim"]["n_paths"] == 8

    def test_no_override_echoes_the_file(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        resolved = _echoed(tmp_path / "run")
        assert resolved["seed"] == 5
        assert resolved["epsilon"] == 0.0
        assert resolved["model"] == VP_BLOCK | {"x_max": None}
        assert resolved["sim"]["measure"] == "reference"


class TestSimulate:
    def test_inline_solve_and_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 0
        run = tmp_path / "run"
        assert (run / "paths.csv").exists()
        assert (run / "occupation.csv").exists()
        summary = json.loads((run / "summary.json").read_text())
        assert summary["simulation"]["n_paths"] == 8
        lines = (run / "paths.csv").read_text().splitlines()
        assert lines[0] == "path_id,harvest_total,kl_penalty," \
                           "payoff_estimate,aborted_flag"
        assert len(lines) == 9

    def test_missing_solution_without_inline_solve(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "empty"))
        rc = main(["simulate", "--config", str(cfg), "--no-inline-solve"])
        assert rc == 66

    def test_persisted_solution_reused(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        rc = main(["simulate", "--config", str(cfg), "--no-inline-solve"])
        assert rc == 0

    def test_reloaded_run_writes_the_inline_paths(self, tmp_path):
        # The worst-case table reads the slope between grid nodes, so this
        # needs the reload to be the solve's potential bit for bit.
        cfg = write_cfg(tmp_path, epsilon=1.0,
                        sim={"dt": 2e-3, "horizon": 5.0, "n_paths": 8,
                             "measure": "worstcase"})
        paths = tmp_path / "run" / "paths.csv"
        assert main(["simulate", "--config", str(cfg)]) == 0
        inline = paths.read_bytes()
        paths.unlink()
        assert main(["simulate", "--config", str(cfg),
                     "--no-inline-solve"]) == 0
        assert paths.read_bytes() == inline

    def test_reference_measure_one_sided_assert(self, tmp_path):
        cfg = write_cfg(tmp_path, epsilon=1.0,
                        sim={"dt": 1e-3, "horizon": 5.0, "n_paths": 8,
                             "measure": "reference"})
        rc = main(["simulate", "--config", str(cfg), "--assert-value"])
        assert rc == 0

    def test_deterministic_paths_csv(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = (tmp_path / "run" / "paths.csv").read_bytes()
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "paths.csv").read_bytes() == first

    def test_measure_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, epsilon=1.0)
        rc = main(["simulate", "--config", str(cfg), "--measure",
                   "worstcase"])
        assert rc == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["simulation"]["measure"] == "worstcase"
        assert summary["simulation"]["mean"] > 0.0


    def test_summary_reports_path_counters(self, tmp_path):
        # At dt = 0.25 some proposals go negative; a path clipped to zero
        # stays there, below the worst-case table floor.
        cfg = write_cfg(tmp_path, epsilon=1.0,
                        sim={"dt": 0.25, "horizon": 50.0, "n_paths": 8,
                             "measure": "worstcase"})
        assert main(["simulate", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        got = json.loads((run / "summary.json").read_text())["simulation"]
        sim = _echoed(run)["sim"]
        problem = AmbiguityProblem.build(
            VerhulstPearl(mu_bar=1.0, gamma_bar=1.0, sigma_bar=1.0), 1.0)
        sol = solve_threshold(problem)
        est = estimate_payoff(SimConfig(
            problem=problem, beta=sol.threshold, x0=sol.threshold,
            dt=sim["dt"], horizon=sim["horizon"], n_paths=sim["n_paths"],
            burn_in=sim["burn_in"], measure="worstcase", solution=sol,
            seed=5, n_bins=sim["n_bins"],
            occupation_stride=sim["occupation_stride"]))
        neg = sum(s.negative_proposals for s in est.per_path)
        clamps = sum(s.floor_clamps for s in est.per_path)
        assert got["negative_proposals"] == neg > 0
        assert got["floor_clamps"] == clamps > 0
        assert got["max_x"] == max(s.max_x for s in est.per_path)
        assert got["max_x"] <= sol.threshold


class TestSweepCommand:
    def test_default_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, eps_grid=[0.0, 0.5, 1.0], epsilon=None)
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 0
        run = tmp_path / "run"
        lines = (run / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,x_eps,x_bar_eps,beta_eps,ell_eps," \
                           "iterations,wall_ms"
        assert len(lines) == 4
        script = (run / "sweep.gnuplot").read_text()
        assert "sweep.csv" in script and "/" not in script.split("'")[1]

    def test_unsorted_grid_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, eps_grid=[1.0, 0.5], epsilon=None)
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 64
        assert "ascending" in capsys.readouterr().err

    def test_singleton_grid_vacuous(self, tmp_path):
        cfg = write_cfg(tmp_path, eps_grid=[0.0], epsilon=None)
        assert main(["sweep", "--config", str(cfg)]) == 0


class TestVerify:
    def test_verify_persisted_solution(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        rc = main(["verify", "--config", str(cfg)])
        assert rc == 0
        assert "verdict        pass" in capsys.readouterr().out

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_reload_matches_the_solve(self, tmp_path, solutions_by_eps, eps):
        # The reload rebuilds the solve's nodes from the grid and the fd
        # companions, so the potential and the audit are the solve's.
        problem, sol = solutions_by_eps[eps]
        cfg = write_cfg(tmp_path, epsilon=eps)
        assert main(["solve", "--config", str(cfg)]) == 0
        restored = artifacts.load_solution(tmp_path / "run", problem)
        assert (dataclasses.asdict(verify_solution(problem, restored))
                == dataclasses.asdict(verify_solution(problem, sol)))
        for name in ("nodes_x", "nodes_slope", "nodes_slope_deriv",
                     "nodes_value", "grid_x", "grid_right_x", "fd_x", "fd_h",
                     "fd_slope_minus", "fd_slope_plus"):
            assert np.array_equal(getattr(restored.grid, name),
                                  getattr(sol.grid, name)), name
        assert restored.x_min == sol.x_min
        xs = np.geomspace(sol.x_min, 2.0 * sol.threshold, 20000)
        assert np.array_equal(restored.vprime(xs), sol.vprime(xs))
        assert np.array_equal(restored.v(xs), sol.v(xs))

    def test_reload_without_companions_is_close(self, tmp_path,
                                                solutions_by_eps):
        # Without the fd companions the reload interpolates on the grid
        # alone: the slope between nodes moves in ~1e-10.
        problem, sol = solutions_by_eps[1.0]
        cfg = write_cfg(tmp_path, epsilon=1.0)
        assert main(["solve", "--config", str(cfg)]) == 0
        (tmp_path / "run" / "vprime_fd.csv").unlink()
        restored = artifacts.load_solution(tmp_path / "run", problem)
        xs = np.geomspace(sol.x_min, sol.threshold, 20000)
        np.testing.assert_allclose(restored.vprime(xs), sol.vprime(xs),
                                   rtol=1e-9, atol=0.0)

    def test_verify_missing_solution(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "nowhere"))
        assert main(["verify", "--config", str(cfg)]) == 66

    def test_verify_without_companion_file(self, tmp_path, capsys):
        # The curvature cross-check is skipped when companions are absent;
        # the persisted audit still runs and passes.
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        (tmp_path / "run" / "vprime_fd.csv").unlink()
        rc = main(["verify", "--config", str(cfg)])
        assert rc == 0
        assert "verdict        pass" in capsys.readouterr().out

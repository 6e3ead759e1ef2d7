import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ergharvest import (AmbiguityProblem, InputDomainError, SimConfig,
                        VerhulstPearl, artifacts, cli, config,
                        estimate_payoff, simulate, solve_threshold,
                        verify_solution)
from ergharvest.cli import main

from bad_settings import BAD_SETTINGS, IDS

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


class _NanStream:
    """A stream of NaN draws: the path that reads it aborts."""

    def standard_normal(self, m):
        return np.full(m, np.nan)


def _set_solution(key, value):
    """An edit of ``summary.json`` text that sets one ``solution`` value."""
    def edit(text, beta):
        summary = json.loads(text)
        summary["solution"][key] = value
        return json.dumps(summary)
    return edit


def _table_with_nan():
    """A tabulated model block with one NaN in ``mu_values``."""
    xs = list(np.geomspace(1e-4, 3.0, 64))
    mu = [1.0 - x for x in xs]
    mu[10] = float("nan")
    return {"family": "tabulated",
            "params": {"xs": xs, "mu_values": mu, "sigma_values": xs}}


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
        for block in ({}, {"dip_floor": 1e-8}, {"overflow_guard": 1e8}):
            path = write_cfg(tmp_path, solver=block)
            assert main(["check", "--config", str(path)]) == 64
            err = capsys.readouterr().err
            assert "'solver'" in err and "accepted keys" in err

    def test_retired_tolerance_keys_rejected(self, tmp_path, capsys):
        # The solver's tolerances are constants of the method and the
        # --assert-value multiple is cli's: neither is a config key.
        retired = [("'solver'", {"solver": {key: 1e-8}})
                   for key in ("rtol", "atol", "n_grid_left", "n_grid_right",
                               "beta_rtol")]
        retired += [(f"'{key}'", {"sim": {key: 3}})
                    for key in ("ci_multiple", "n_bins", "occupation_stride")]
        for key, overrides in retired:
            path = write_cfg(tmp_path, **overrides)
            assert main(["check", "--config", str(path)]) == 64
            err = capsys.readouterr().err
            assert key in err and "accepted keys" in err

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

    @pytest.mark.parametrize("key, overrides", [
        ("'epsilon'", {"epsilon": True}),
        ("'seed'", {"seed": True}),
        ("'sim.n_paths'", {"sim": {"n_paths": True}}),
        ("'sim.dt'", {"sim": {"dt": True}}),
        ("'sim.burn_in'", {"sim": {"burn_in": False}}),
        ("'sim.x0'", {"sim": {"x0": True}}),
        ("x_max", {"model": {**VP_BLOCK, "x_max": True}}),
        ("'eps_grid'", {"epsilon": None, "eps_grid": [False, True]}),
    ], ids=["epsilon", "seed", "n_paths", "dt", "burn_in", "x0", "x_max",
            "eps_grid"])
    def test_booleans_are_not_numbers(self, tmp_path, capsys, key,
                                      overrides):
        # bool is an int in Python; JSON true must not read as 1.
        rc = main(["check", "--config",
                   str(write_cfg(tmp_path, **overrides))])
        assert rc == 64
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN",
                                         "1e999"])
    @pytest.mark.parametrize("key, overrides", [
        ("'epsilon'", {"epsilon": "VALUE"}),
        ("'eps_grid'", {"epsilon": None, "eps_grid": [0.0, "VALUE"]}),
        ("'sim.horizon'", {"sim": {"horizon": "VALUE"}}),
        ("x_max must be a positive finite number",
         {"model": {**VP_BLOCK, "x_max": "VALUE"}}),
    ], ids=["epsilon", "eps_grid", "horizon", "x_max"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, key,
                                         overrides, literal):
        # Python's json reads all four literals as non-finite floats.
        path = write_cfg(tmp_path, **overrides)
        path.write_text(path.read_text().replace('"VALUE"', literal))
        assert main(["check", "--config", str(path)]) == 64
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_eps_flag_checked_like_the_file_key(self, tmp_path, capsys,
                                                value):
        rc = main(["check", "--config", str(write_cfg(tmp_path)),
                   "--eps", value])
        assert rc == 64
        assert "'epsilon' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("name, model", [
        ("mu_bar", {"family": "verhulst_pearl", "params": {"mu_bar": True}}),
        ("mu_bar", {"family": "verhulst_pearl",
                    "params": {"mu_bar": float("inf")}}),
        ("mu_values", _table_with_nan()),
        ("mu_bar must be", {**VP_BLOCK, "params": {"mu_bar": "abc"}}),
        ("x_max must be", {**VP_BLOCK, "x_max": "abc"}),
        # An integer beyond the largest float would overflow the solver.
        ("mu_bar must be", {**VP_BLOCK, "params": {"mu_bar": 10 ** 400}}),
        ("x_max must be", {**VP_BLOCK, "x_max": 10 ** 400}),
    ], ids=["boolean", "infinite", "tabulated_nan", "string", "string_x_max",
            "huge_integer", "huge_integer_x_max"])
    def test_model_parameters_finite_and_not_boolean(self, tmp_path, capsys,
                                                     name, model):
        rc = main(["check", "--config",
                   str(write_cfg(tmp_path, model=model))])
        err = capsys.readouterr().err
        assert rc == 64
        assert "bad model block" in err and name in err

    @pytest.mark.parametrize("seed, rc", [(2 ** 64 + 7, 64), (2 ** 64 - 1, 0)],
                             ids=["aliases_seed_7", "largest"])
    def test_seed_below_two_to_the_64(self, tmp_path, capsys, seed, rc):
        # path_rng keys on the seed's low 64 bits: 2**64 + 7 would replay
        # the paths of seed 7 while the summary recorded the larger seed.
        cfg = write_cfg(tmp_path, seed=seed)
        assert main(["check", "--config", str(cfg)]) == rc
        assert ("'seed' must be" in capsys.readouterr().err) == (rc == 64)

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


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran")


class TestSimRanges:
    """``check`` refuses every sim block ``simulate`` would, before solving."""

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("key, sim", [
        ("'sim.dt'", {"dt": 2.0, "horizon": 1.0}),
        ("'sim.horizon'", {"dt": 1e-3, "horizon": 2e-3, "burn_in": 0.5}),
        # The histogram's bins and stride are retired keys.
        ("'n_bins'", {"n_bins": 50}),
        ("'occupation_stride'", {"occupation_stride": 8}),
        ("'sim.measure'", {"measure": "optimist"}),
    ], ids=["dt_above_horizon", "one_step_window", "no_bins", "no_stride",
            "measure"])
    def test_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                      command, key, sim):
        monkeypatch.setattr(cli, "solve_threshold", _no_solve)
        rc = main([command, "--config", str(write_cfg(tmp_path, sim=sim))])
        assert rc == 64
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("key, value", BAD_SETTINGS, ids=IDS)
    def test_bad_value_named(self, tmp_path, capsys, monkeypatch, command,
                             key, value):
        # The same table SimConfig refuses (tests/test_simulate.py).
        monkeypatch.setattr(cli, "solve_threshold", _no_solve)
        sim = {"dt": 1e-3, "horizon": 5.0, key: value}
        rc = main([command, "--config", str(write_cfg(tmp_path, sim=sim))])
        assert rc == 64
        assert f"'sim.{key}' must be" in capsys.readouterr().err

    def test_measure_flag_checked_like_the_file_key(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "solve_threshold", None)  # a solve exits 70
        rc = main(["simulate", "--config", str(write_cfg(tmp_path)),
                   "--measure", "optimist"])
        assert rc == 64
        assert "'sim.measure' must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_x0_beyond_x_max_refused_before_any_solve(
            self, tmp_path, capsys, monkeypatch, problem1, sol1, command):
        # The message is SimConfig's own, and no solution file is written.
        with pytest.raises(InputDomainError) as refused:
            SimConfig(problem=problem1, beta=sol1.threshold, x0=1e300)
        monkeypatch.setattr(cli, "solve_threshold", _no_solve)
        cfg = write_cfg(tmp_path, epsilon=1.0,
                        sim={"x0": 1e300, "dt": 1e-3, "horizon": 5.0})
        rc = main([command, "--config", str(cfg)])
        assert rc == 64
        assert capsys.readouterr().err == f"input error: {refused.value}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [["check"], ["simulate", "--jobs", "1"]],
                             ids=["check", "simulate"])
    def test_x0_at_x_max_accepted(self, tmp_path, problem1, argv):
        cfg = write_cfg(tmp_path, epsilon=1.0,
                        sim={"x0": problem1.x_max, "dt": 1e-3,
                             "horizon": 5.0, "n_paths": 8})
        assert main([*argv, "--config", str(cfg)]) == 0

    def test_config_keys_are_the_sim_fields(self):
        run_supplied = {"problem", "beta", "solution", "seed"}
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        assert config._SIM_KEYS == fields - run_supplied


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


def _record_jobs(monkeypatch):
    """The ``jobs`` of every ``estimate_payoff`` call ``main`` makes."""
    passed = []

    def recorder(simcfg, *, jobs):
        passed.append(jobs)
        return estimate_payoff(simcfg, jobs=1)

    monkeypatch.setattr(cli, "estimate_payoff", recorder)
    return passed


class TestJobsDefault:
    def test_jobs_only_on_simulate(self, capsys):
        parser = cli._build_parser()
        args = parser.parse_args(["simulate", "--config", "c.json",
                                  "--jobs", "2"])
        assert args.jobs == 2
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["solve", "--config", "c.json", "--jobs", "2"])
        assert exc.value.code == 64
        assert "--jobs" in capsys.readouterr().err
        for value in ("0", "-4", "2.5", "two"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["simulate", "--config", "c.json",
                                   "--jobs", value])
            assert exc.value.code == 64
            err = capsys.readouterr().err
            assert "--jobs" in err and "positive integer" in err
            assert "_positive_int" not in err

    def test_works_without_sched_getaffinity(self, tmp_path, capsys,
                                             monkeypatch):
        passed = _record_jobs(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        cfg = str(write_cfg(tmp_path))
        assert main(["simulate", "--config", cfg]) == 0
        assert passed == [os.cpu_count() or 1]
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert main(["solve", "--config", cfg]) == 0
        assert "verdict        pass" in capsys.readouterr().out


class TestParserReuse:
    """``main`` builds one parser; ``--jobs``' default resolves per run."""

    def test_jobs_default_follows_the_affinity(self, tmp_path, monkeypatch):
        passed = _record_jobs(monkeypatch)
        cfg = str(write_cfg(tmp_path))
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)))
            assert main(["simulate", "--config", cfg]) == 0
        assert main(["simulate", "--config", cfg, "--jobs", "2"]) == 0
        assert passed == [1, 3, 2]
        assert cli._cached_parser() is cli._cached_parser()

    def test_usage_after_an_earlier_call(self, tmp_path, capsys):
        assert main(["check", "--config", str(write_cfg(tmp_path))]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: ergharvest" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["check", "--config", "c.json", "--bogus"])
        assert exc.value.code == 64
        assert "--bogus" in capsys.readouterr().err


class TestUsageErrors:
    """A bad command line exits 64, apart from a failed assumption's 2.

    ``TestCheck::test_constant_sigma_fails_with_a1_named`` pins the 2.
    """

    @pytest.mark.parametrize("argv", [["check", "--config", "c.json",
                                       "--bogus"], ["solve"]],
                             ids=["unknown-flag", "no-config"])
    def test_usage_error_exits_64(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert "usage: ergharvest" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["solve", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0

    def test_output_dir_that_is_a_file_refused_before_solving(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve_threshold", _no_solve)
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["solve", "--config", str(write_cfg(tmp_path)),
                   "--output-dir", str(taken)])
        err = capsys.readouterr().err
        assert rc == 64
        assert str(taken) in err and "Traceback" not in err

    @pytest.mark.parametrize("kind, rc", [
        ("directory", 64), ("not_utf8", 64), ("missing", 66)])
    def test_unreadable_config(self, tmp_path, capsys, kind, rc):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"model": "\xff"}')
        assert main(["check", "--config", str(path)]) == rc
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err


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
        assert "solver" not in summary["config"]
        assert summary["config"]["sim"].keys() == {
            "x0", "dt", "horizon", "n_paths", "burn_in", "measure"}

    def test_csv_writers_called_through_the_module(self, tmp_path,
                                                   monkeypatch):
        # perfbench and tools/bench_solve.py time the two writers by
        # replacing these module attributes.
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("write_solution_csv", "write_fd_csv"):
            monkeypatch.setattr(artifacts, name,
                                counted(name, getattr(artifacts, name)))
        assert main(["solve", "--config", str(write_cfg(tmp_path))]) == 0
        assert sorted(calls) == ["write_fd_csv", "write_solution_csv"]

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
        # without a dominant one: a named error, not a number or exit 70,
        # and check refuses what solve refuses at every level.
        model = {"family": "verhulst_pearl",
                 "params": {"mu_bar": 0.5, "sigma_bar": 1.0}}
        for command in ("check", "solve"):
            for eps in (0.0, 0.5):
                rc = main([command, "--config",
                           str(write_cfg(tmp_path, model=model, epsilon=eps))])
                err = capsys.readouterr().err
                assert rc == 2, (command, eps)
                assert ("mu_bar - sigma_bar^2/2" in err
                        and "Traceback" not in err), (command, eps)

    def test_bracket_echoed_at_unit_ambiguity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, epsilon=1.0)
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        beta = summary["solution"]["beta_eps"]
        assert 1.0 / 3.0 < beta < 2.0 / 3.0
        assert summary["problem"]["x_eps"] == pytest.approx(1.0 / 3.0)

    def test_deterministic_artifacts(self, tmp_path, capsys):
        # Two solves in one process: the second reuses main's parser.
        cfg = str(write_cfg(tmp_path))
        runs = []
        for _ in range(2):
            assert main(["solve", "--config", cfg]) == 0
            files = {p.name: p.read_bytes()
                     for p in (tmp_path / "run").iterdir()}
            runs.append((files, capsys.readouterr()))
        assert set(runs[0][0]) == {
            "solution.csv", "vprime_fd.csv", "summary.json",
            "resolved_config.json"}
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize("argv", [["verify"],
                                      ["simulate", "--no-inline-solve"]],
                             ids=["verify", "simulate-no-inline-solve"])
    def test_read_only_commands_make_no_directory(self, tmp_path, argv):
        out = tmp_path / "nothere" / "deeper"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        assert main([*argv, "--config", str(cfg)]) == 66
        assert not (tmp_path / "nothere").exists()

    def test_aborted_path_stays_out_of_the_aggregates(self, tmp_path,
                                                      monkeypatch):
        # Path 0 draws NaN noise and aborts; paths.csv keeps it, flagged,
        # while occupation.csv and the counters sum the other paths only.
        sim = {"dt": 1e-3, "horizon": 5.0, "n_paths": 12,
               "measure": "worstcase"}
        cfg = write_cfg(tmp_path, epsilon=1.0, sim=sim)
        real_rng = simulate.path_rng
        monkeypatch.setattr(simulate, "path_rng", lambda seed, pid: (
            _NanStream() if pid == 0 else real_rng(seed, pid)))
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == 0
        run = tmp_path / "run"
        problem = AmbiguityProblem.build(VerhulstPearl(), 1.0)
        sol = artifacts.load_solution(run, problem)
        est = estimate_payoff(SimConfig(problem=problem, beta=sol.threshold,
                                        solution=sol, seed=5, **sim))
        assert [s.aborted for s in est.per_path] == [True] + [False] * 11
        kept = est.per_path[1:]
        with open(run / "occupation.csv") as fh:
            counts = [float(row["count"]) for row in csv.DictReader(fh)]
        assert counts == list(np.sum([s.occupation_histogram for s in kept],
                                     axis=0))
        assert counts != list(np.sum([s.occupation_histogram
                                      for s in est.per_path], axis=0))
        summary = json.loads((run / "summary.json").read_text())["simulation"]
        assert summary["negative_proposals"] == sum(
            s.negative_proposals for s in kept)
        assert summary["floor_clamps"] == sum(s.floor_clamps for s in kept)
        with open(run / "paths.csv") as fh:
            flags = [float(row["aborted_flag"]) for row in csv.DictReader(fh)]
        assert flags == [1.0] + [0.0] * 11

    def test_persisted_solution_reused(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        rc = main(["simulate", "--config", str(cfg), "--no-inline-solve"])
        assert rc == 0

    def test_no_inline_solve_needs_the_companions(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        (tmp_path / "run" / "vprime_fd.csv").unlink()
        rc = main(["simulate", "--config", str(cfg), "--no-inline-solve"])
        assert rc == 66
        assert "vprime_fd.csv" in capsys.readouterr().err

    def test_reload_keeps_the_solution_block(self, tmp_path):
        cfg = write_cfg(tmp_path)
        summary = tmp_path / "run" / "summary.json"
        assert main(["solve", "--config", str(cfg)]) == 0
        solved = json.loads(summary.read_text())["solution"]
        assert main(["simulate", "--config", str(cfg),
                     "--no-inline-solve"]) == 0
        text = summary.read_text()
        assert "NaN" not in text
        assert json.loads(text)["solution"] == solved

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
            seed=5))
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

    def test_failed_levels_write_strict_json(self, tmp_path):
        # theta = 1/2 fails (A1) at every level, so every row is NaN.
        model = {"family": "general_logistic", "params": {"theta": 0.5}}
        cfg = write_cfg(tmp_path, model=model, eps_grid=[0.0, 1.0],
                        epsilon=None)
        assert main(["sweep", "--config", str(cfg)]) == 65

        def refuse(literal):
            raise ValueError(f"non-standard JSON constant {literal}")

        summary = json.loads((tmp_path / "run" / "summary.json").read_text(),
                             parse_constant=refuse)
        assert [r["failed"] for r in summary["rows"]] == [True, True]
        assert all(r["beta_eps"] is None and r["beta_tolerance"] is None
                   for r in summary["rows"])


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
        assert (dataclasses.asdict(verify_solution(restored))
                == dataclasses.asdict(verify_solution(sol)))
        for name in ("nodes_x", "nodes_slope", "nodes_slope_deriv",
                     "nodes_value", "grid_x", "grid_right_x", "fd_x", "fd_h",
                     "fd_slope_minus", "fd_slope_plus"):
            assert np.array_equal(getattr(restored.grid, name),
                                  getattr(sol.grid, name)), name
        assert restored.x_min == sol.x_min
        assert (artifacts.solution_block(restored)
                == artifacts.solution_block(sol))
        xs = np.geomspace(sol.x_min, 2.0 * sol.threshold, 20000)
        assert np.array_equal(restored.vprime(xs), sol.vprime(xs))
        assert np.array_equal(restored.v(xs), sol.v(xs))

    @pytest.mark.parametrize("command", [
        ["verify"], ["simulate", "--no-inline-solve"]],
        ids=["verify", "simulate"])
    def test_reload_refuses_another_problem(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, epsilon=1.0)
        assert main(["solve", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert main([*command, "--config", str(cfg), "--eps", "0.5"]) == 64
        err = capsys.readouterr().err
        assert "epsilon = 1.0" in err and "0.5" in err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_verify_missing_solution(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "nowhere"))
        assert main(["verify", "--config", str(cfg)]) == 66

    def test_verify_without_companion_file(self, tmp_path, capsys):
        # The companions carry the curvature cross-check: a solution
        # without them is incomplete, not a lesser audit.
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        (tmp_path / "run" / "vprime_fd.csv").unlink()
        assert main(["verify", "--config", str(cfg)]) == 66
        captured = capsys.readouterr()
        assert "vprime_fd.csv" in captured.err
        assert "verdict" not in captured.out

    @pytest.mark.parametrize("name, edit", [
        ("vprime_fd.csv", lambda text, beta: text.splitlines(True)[0]),
        ("solution.csv", lambda text, beta: text.replace("\n", "\nabc", 1)),
        ("summary.json", _set_solution("iterations", 3.7)),
        ("summary.json", _set_solution("iterations", -4)),
        ("summary.json", _set_solution("regime", 5)),
        ("summary.json", _set_solution("beta_tolerance", True)),
        ("summary.json", _set_solution("beta_eps", 0.3)),
        ("summary.json", _set_solution("beta_eps", 1000.0)),
        ("summary.json", _set_solution("ell_eps", 0.5)),
        ("summary.json", _set_solution("beta_tolerance", -7.5)),
        ("summary.json", _set_solution("regime", "extinction_bound")),
        # A companion the solve did not make: its nodes would move v.
        ("vprime_fd.csv",
         lambda text, beta: text + f"{beta!r},0.01,1.0,1.0\n"),
    ], ids=["header_only_fd", "non_numeric_cell", "fractional_iterations",
            "negative_iterations", "numeric_regime", "boolean_tolerance",
            "beta_off_the_grid", "beta_beyond_the_grid", "ell_not_the_drift",
            "tolerance_not_derived", "regime_not_derived",
            "tampered_companion"])
    def test_malformed_artifact_is_missing_input(self, tmp_path, capsys,
                                                 name, edit):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        beta = json.loads((run / "summary.json").read_text())[
            "solution"]["beta_eps"]
        path = run / name
        path.write_text(edit(path.read_text(), beta))
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 66
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

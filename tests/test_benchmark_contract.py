"""The names the traced benchmark patches and reads must keep existing.

``perfbench/workloads.py`` swaps ``owner.__dict__[attr]`` for a timing
wrapper, builds a ``SimConfig`` and reads a few result fields; a rename
breaks the benchmark with a KeyError, TypeError or AttributeError long
after the tests pass.
"""

import dataclasses
import typing

import pytest

import ergharvest
from ergharvest import (AmbiguityProblem, PathStats, PayoffEstimate,
                        SimConfig, artifacts, cli, ivp, shooting)

PATCHED = [
    (cli, "load_config"), (cli, "solve_threshold"), (cli, "verify_solution"),
    (shooting, "check_assumptions"), (shooting, "classify_boundary"),
    (shooting, "build_potential"), (shooting, "cole_hopf_slope"),
    (ivp, "integrate"),
    (artifacts, "write_json"), (artifacts, "write_solution_csv"),
    (artifacts, "write_fd_csv"),
]

# Result fields the counters read, keyed by the function returning them.
READ_FIELDS = [
    (shooting.classify_boundary, {"in_set", "blowup_warning"}),
    (shooting.build_potential, {"nodes_x"}),
    (cli.verify_solution, {"fd_points"}),
]

# The Monte Carlo workload's check, path_table and record_counts read these.
MC_FIELDS = [
    (PayoffEstimate, {"mean", "std_error", "n_aborted", "split_consistent",
                      "first_half_mean", "second_half_mean", "per_path"}),
    (PathStats, {"path_id", "harvest_total", "kl_penalty", "payoff_estimate",
                 "first_half_payoff", "second_half_payoff",
                 "negative_proposals", "floor_clamps"}),
]

IMPORTED = ["AmbiguityProblem", "SimConfig", "VerhulstPearl", "artifacts",
            "cli", "estimate_payoff", "ivp", "shooting", "solve_threshold"]


@pytest.mark.parametrize("owner, attr", PATCHED,
                         ids=[f"{o.__name__}.{a}" for o, a in PATCHED])
def test_patched_function_is_a_module_attribute(owner, attr):
    assert callable(owner.__dict__[attr])


def test_build_is_a_classmethod():
    assert isinstance(AmbiguityProblem.__dict__["build"], classmethod)


@pytest.mark.parametrize("fn, fields", READ_FIELDS,
                         ids=[fn.__name__ for fn, _ in READ_FIELDS])
def test_read_fields_exist_on_the_result(fn, fields):
    result = typing.get_type_hints(fn)["return"]
    assert fields <= {f.name for f in dataclasses.fields(result)}


def test_imported_names_exist():
    missing = [n for n in IMPORTED if not hasattr(ergharvest, n)]
    assert not missing


@pytest.mark.parametrize("result, fields", MC_FIELDS,
                         ids=[r.__name__ for r, _ in MC_FIELDS])
def test_monte_carlo_fields_exist(result, fields):
    assert fields <= {f.name for f in dataclasses.fields(result)}


def test_monte_carlo_config_as_the_workload_builds_it(problem1, sol1):
    # MCWorkload.setup's keywords; extra_traced replaces n_paths.
    cfg = SimConfig(
        problem=problem1, beta=sol1.threshold, x0=sol1.threshold, dt=2e-3,
        horizon=100.0, n_paths=512, burn_in=0.1, measure="worstcase",
        solution=sol1, seed=0)
    assert cfg.n_steps == 50000
    assert dataclasses.replace(cfg, n_paths=256).n_paths == 256

"""The names the traced benchmark patches and reads must keep existing.

``perfbench/workloads.py`` swaps ``owner.__dict__[attr]`` for a timing
wrapper and reads a few result fields; a rename breaks the benchmark with a
KeyError or AttributeError long after the tests pass.
"""

import dataclasses
import typing

import pytest

import ergharvest
from ergharvest import AmbiguityProblem, artifacts, cli, ivp, shooting

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

"""Run configuration: a single JSON file, strictly validated.

Unknown keys are rejected with the accepted keys listed; parse errors carry
the line number.  Flags on the command line are written over the file's keys
before validation, so they obey the same rules.  The fully resolved
configuration (defaults filled in) is echoed beside every run's outputs so a
run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, InputDomainError
from .model import CoefficientModel, model_from_config, require_epsilon
from .simulate import SimConfig, require_seed, require_settings

_MODEL_KEYS = {"family", "params", "x_max"}
_TOP_KEYS = {"model", "epsilon", "eps_grid", "sim", "seed", "output_dir"}

# SimConfig's fields less the four a run supplies, with the command line's
# own default measure.
_SIM_DEFAULTS = {
    **{f.name: f.default for f in fields(SimConfig)
       if f.name not in ("problem", "beta", "solution", "seed")},
    "measure": "worstcase",
}
_SIM_KEYS = set(_SIM_DEFAULTS)


def _reject_unknown(section: dict, accepted: set, where: str):
    unknown = sorted(set(section) - accepted)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {where}; accepted keys: "
            f"{sorted(accepted)}")


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; ``model_block`` is the model section as given."""

    model: CoefficientModel
    model_block: dict
    epsilon: float | None
    eps_grid: tuple | None
    sim: dict
    seed: int
    output_dir: str | None

    @property
    def resolved(self) -> dict:
        """The configuration with defaults filled in, echoed beside outputs."""
        return {
            "model": self.model_block,
            "epsilon": self.epsilon,
            "eps_grid": None if self.eps_grid is None else list(self.eps_grid),
            "sim": dict(self.sim),
            "seed": self.seed,
            "output_dir": self.output_dir,
        }


def parse_config(raw: dict) -> RunConfig:
    """Validate a configuration mapping and fill in defaults."""
    _require(isinstance(raw, dict), "configuration root must be an object")
    _reject_unknown(raw, _TOP_KEYS, "the configuration root")
    _require("model" in raw, "configuration needs a 'model' block")

    mblock = raw["model"]
    _require(isinstance(mblock, dict), "'model' must be an object")
    _reject_unknown(mblock, _MODEL_KEYS, "'model'")
    _require("family" in mblock, "'model' needs a 'family'")
    family = mblock["family"]
    params = mblock.get("params", {})
    _require(isinstance(params, dict), "'model.params' must be an object")
    x_max = mblock.get("x_max")
    try:
        model = model_from_config(family, params, x_max)
    except Exception as exc:
        raise ConfigError(f"bad model block for family {family!r}: {exc}")

    epsilon = raw.get("epsilon")
    eps_grid = raw.get("eps_grid")
    _require(not (epsilon is not None and eps_grid is not None),
             "give either 'epsilon' or 'eps_grid', not both")
    if eps_grid is not None:
        _require(isinstance(eps_grid, list) and len(eps_grid) >= 1,
                 "'eps_grid' must be a non-empty list")
        try:
            eps_grid = tuple(require_epsilon(e) for e in eps_grid)
        except InputDomainError as exc:
            raise ConfigError(f"'eps_grid' must be a list of levels: {exc}")

    simblock = raw.get("sim", {})
    _require(isinstance(simblock, dict), "'sim' must be an object")
    _reject_unknown(simblock, _SIM_KEYS, "'sim'")
    try:
        epsilon = None if epsilon is None else require_epsilon(epsilon)
        sim = require_settings(_SIM_DEFAULTS | simblock, where="sim.")
        seed = require_seed(raw.get("seed", 0))
    except InputDomainError as exc:
        raise ConfigError(str(exc))
    output_dir = raw.get("output_dir")
    _require(output_dir is None or isinstance(output_dir, str),
             "'output_dir' must be a string")

    return RunConfig(
        model=model,
        model_block={"family": family, "params": dict(params), "x_max": x_max},
        epsilon=epsilon, eps_grid=eps_grid, sim=sim, seed=seed,
        output_dir=output_dir)


def load_config(path, **overrides) -> RunConfig:
    """Read a JSON configuration file, write ``overrides`` over it, validate.

    An override replaces its top-level key; an object updates a block.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"cannot parse {path}: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}")
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    if isinstance(raw, dict):  # parse_config refuses any other root
        for key, value in overrides.items():
            if isinstance(value, dict) and isinstance(raw.get(key), dict):
                value = raw[key] | value
            raw[key] = value
    return parse_config(raw)

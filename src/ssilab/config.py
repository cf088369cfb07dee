"""Experiment configuration: parsing, validation, and object construction.

Configs are flat JSON objects with two nested sections, ``oracle`` and
``grid``.  Four tables hold every key a config may give, each with its check:

- ``_COMMON`` maps each key the commands share to ``(default, check)``;
- ``_COMMANDS`` maps each command to the ``(default, check)`` entries it adds
  or overrides, and to ``None`` for each ``_COMMON`` key it does not read;
- ``_ORACLES`` maps each oracle kind to ``(factory, {key: check})``; a key the
  section leaves out takes the factory's own default;
- ``_GRIDS`` maps each grid kind to ``{key: check}``; a grid gives every key.

A check returns the value as stored (a checked number becomes an int or a
float) or raises ``ConfigError``.  Unknown keys anywhere are rejected, every
run starts from a fully resolved config, and the resolved config is echoed
verbatim into the run report so that any report can be replayed
bit-identically.  A config holds only what its command's result reads (the
output options are CLI flags), so its hash names the experiment.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ConfigError
from .flow import Method
from .oracles import (PerturbedScoreOracle, circle_point_cloud, gaussian_on_axis,
                      random_subspace, toy_image_subspace)
from .schedules import (NoiseSchedule, TimeGrid, VE_KARRAS, VP_LINEAR_BETA,
                        ddim_kappa_grid, karras_grid)

_FLOAT_MAX = float(np.finfo(float).max)
_REQUIRED = object()  # default of a key the config must give


def _number(lo=None, hi=None, integer=False, open_=False):
    """A finite number in ``[lo, hi]``, or in ``(lo, hi)`` with ``open_``."""
    def check(value, name):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number")
        if not abs(value) <= _FLOAT_MAX:  # JSON NaN, Infinity, or a huge int
            raise ConfigError(f"{name} must be finite")
        if integer and int(value) != value:
            raise ConfigError(f"{name} must be an integer")
        if lo is not None and (value <= lo if open_ else value < lo):
            raise ConfigError(f"{name} must be {'>' if open_ else '>='} {lo}")
        if hi is not None and (value >= hi if open_ else value > hi):
            raise ConfigError(f"{name} must be {'<' if open_ else '<='} {hi}")
        return int(value) if integer else float(value)
    return check


def _list_of(check, or_one=False):
    """A nonempty list of values that pass ``check``; with ``or_one``, also
    a single such value."""
    def check_list(value, name):
        if or_one and not isinstance(value, list):
            return check(value, name)
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a nonempty list")
        return [check(v, f"{name} entry") for v in value]
    return check_list


def _one_of(*choices):
    def check(value, name):
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"unknown {name} {value!r}")
        return value
    return check


def _boolean(value, name):
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean")
    return value


def _checked(section: dict, checks: dict, where: str, required=(),
             prefix="") -> dict:
    """Reject keys not in ``checks``, require ``required``, check the rest."""
    unknown = section.keys() - checks.keys()
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - section.keys()
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
    return {k: checks[k](v, prefix + k) for k, v in section.items()}


def _section(checks_by_kind: dict, complete: bool):
    """A nested section: a ``kind`` and the keys that kind takes."""
    check_kind = _one_of(*checks_by_kind)

    def check(value, name):
        if not isinstance(value, dict) or "kind" not in value:
            raise ConfigError(f"{name} must be an object with a kind")
        kind = check_kind(value["kind"], f"{name} kind")
        checks = {"kind": lambda v, _: v, **checks_by_kind[kind]}
        return _checked(value, checks, name,
                        required=checks if complete else (), prefix=f"{name} ")
    return check


_SEED = _number(lo=0, integer=True)
_COUNT = _number(lo=1, integer=True)
_POSITIVE = _number(lo=0, open_=True)
_NONNEGATIVE = _number(lo=0)
_ANY = _number()
_INTEGER = _number(integer=True)
_INTEGRATOR = _one_of("euler", "heun")

_ORACLES = {
    "circle": (circle_point_cloud, {"radius": _POSITIVE, "count": _COUNT}),
    "gaussian_on_axis": (gaussian_on_axis, {}),
    "subspace": (random_subspace, {
        "dim": _COUNT, "grid_shape": _list_of(_COUNT), "latent_dim": _COUNT,
        "latent_stddevs": _list_of(_POSITIVE, or_one=True),
        "basis_seed": _SEED}),
    "toy_image": (toy_image_subspace, {
        "latent_dim": _COUNT, "basis_seed": _SEED, "smoothness": _NONNEGATIVE}),
}

_GRIDS = {
    "karras": {"t_min": _ANY, "t_max": _ANY, "rho": _ANY, "steps": _COUNT},
    "uniform": {"t_min": _ANY, "t_max": _ANY, "steps": _COUNT},
    "kappa": {"full_steps": _INTEGER, "stride": _INTEGER, "offset": _INTEGER},
}

# the resolved config keeps this key order, then user keys, then "command"
_COMMON = {
    "oracle": ({"kind": "circle", "radius": 2.0, "count": 8},
               _section({k: checks for k, (_, checks) in _ORACLES.items()},
                        complete=False)),
    "schedule": ("ve_karras", _one_of("ve_karras", "vp_linear_beta")),
    "integrator": ("euler", _INTEGRATOR),
    "grid": ({"kind": "karras", "t_min": 0.002, "t_max": 80.0, "rho": 7.0,
              "steps": 200}, _section(_GRIDS, complete=True)),
    "t_ssi": (0.1, _POSITIVE),
    "trials": (100, _COUNT),
    "perturbation": (0.0, _NONNEGATIVE),
    "perturbation_floor": (1.0, _NONNEGATIVE),
    "seed": (_REQUIRED, _SEED),
}

# ``None`` marks a ``_COMMON`` key the command does not read, so it neither
# takes nor echoes that key
_COMMANDS = {
    "verify-singularity": {"integrator": ("heun", _INTEGRATOR), "t_ssi": None},
    "verify-projection": {"sigma_ladder": ([0.1, 0.01, 0.001], _list_of(_POSITIVE)),
                          **dict.fromkeys(["schedule", "integrator", "grid", "t_ssi",
                                           "perturbation", "perturbation_floor"])},
    # correlation standard errors and excesses need two noises
    "invert": {"method": ("ssi", _one_of("ssi", "baseline_ddim", "both")),
               "shared_input": (False, _boolean),
               "trials": (100, _number(lo=2, integer=True)), "integrator": None},
    "sweep-tssi": {"t_ssi_ladder": ([0.001, 0.01, 0.1, 0.2], _list_of(_POSITIVE)),
                   "steps_ladder": ([40, 100, 200], _list_of(_COUNT)),
                   "trials": (16, _COUNT), "t_ssi": None},
    "interpolate": {"lambdas": ([0.1, 0.3, 0.5, 0.7, 0.9],
                                _list_of(_number(lo=0, hi=1))),
                    "data_seed_a": (1, _SEED), "data_seed_b": (2, _SEED),
                    "manifold_threshold": (0.1, _POSITIVE), "trials": None},
    "reconstruct": {"delta": (0.05, _number(lo=0, hi=1, open_=True))},
}
COMMANDS = tuple(_COMMANDS)


def resolve_config(command: str, raw: dict) -> dict:
    """Merge defaults, validate strictly, and return the full resolved config."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("command", command) != command:
        raise ConfigError(f"config is for {raw['command']!r}, not {command!r}")
    table = {k: entry for k, entry in {**_COMMON, **_COMMANDS[command]}.items()
             if entry is not None}
    cfg = {k: default for k, (default, _) in table.items()
           if default is not _REQUIRED}
    cfg.update((k, v) for k, v in raw.items() if k != "command")
    cfg = _checked(cfg, {k: check for k, (_, check) in table.items()}, "config",
                   required=[k for k, (d, _) in table.items() if d is _REQUIRED])
    cfg["command"] = command
    return cfg


def build_oracle(cfg: dict):
    """Instantiate the (optionally perturbed) score oracle from a config."""
    spec = dict(cfg["oracle"])
    factory, _ = _ORACLES[spec.pop("kind")]
    base = factory(**spec)
    if cfg.get("perturbation", 0.0) > 0.0:
        return PerturbedScoreOracle(base=base, magnitude=cfg["perturbation"],
                                    sigma_floor=cfg["perturbation_floor"])
    return base


def build_schedule(cfg: dict) -> NoiseSchedule:
    return VE_KARRAS if cfg["schedule"] == "ve_karras" else VP_LINEAR_BETA


def build_grid(cfg: dict, t_min: float = None, steps: int = None) -> TimeGrid:
    """Ascending grid from the config spec; optional t_min/steps overrides.

    Karras grids drop the zero anchor so every grid time has positive sigma.
    """
    spec = cfg["grid"]
    kind = spec["kind"]
    lo = t_min if t_min is not None else spec.get("t_min")
    n = steps if steps is not None else spec.get("steps")
    if kind == "karras":
        return TimeGrid(karras_grid(lo, spec["t_max"], spec["rho"], n).times[1:])
    if kind == "uniform":
        return TimeGrid(np.linspace(lo, spec["t_max"], n + 1))
    return ddim_kappa_grid(spec["full_steps"], spec["stride"], spec["offset"])


def build_method(cfg: dict) -> Method:
    return Method.EULER if cfg["integrator"] == "euler" else Method.HEUN


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()

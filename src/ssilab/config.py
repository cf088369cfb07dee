"""Experiment configuration: parsing, validation, and object construction.

Configs are flat JSON objects with a few nested sections (oracle, grid).
Validation is strict: unknown keys anywhere are rejected, a grid section
must give every key of its kind, every run starts from a fully resolved
config, and the resolved config is echoed verbatim into the run report so
that any report can be replayed bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import ConfigError
from .flow import Method
from .oracles import (PerturbedScoreOracle, circle_point_cloud, gaussian_on_axis,
                      random_subspace, toy_image_subspace)
from .schedules import (NoiseSchedule, TimeGrid, VE_KARRAS, VP_LINEAR_BETA,
                        ddim_kappa_grid, karras_grid)

COMMANDS = ("verify-singularity", "verify-projection", "invert", "sweep-tssi",
            "interpolate", "reconstruct")

_ORACLE_KEYS = {
    "circle": {"kind", "radius", "count"},
    "gaussian_on_axis": {"kind"},
    "subspace": {"kind", "dim", "grid_shape", "latent_dim", "latent_stddevs",
                 "basis_seed"},
    "toy_image": {"kind", "latent_dim", "basis_seed", "smoothness"},
}

_GRID_KEYS = {
    "karras": {"kind", "t_min", "t_max", "rho", "steps"},
    "uniform": {"kind", "t_min", "t_max", "steps"},
    "kappa": {"kind", "full_steps", "stride", "offset"},
}
_GRID_INTEGER_KEYS = {"steps", "full_steps", "stride", "offset"}

_COMMON_KEYS = {"command", "oracle", "schedule", "integrator", "grid", "t_ssi",
                "trials", "seed", "out", "perturbation", "perturbation_floor",
                "quiet"}

_COMMAND_KEYS = {
    "verify-singularity": set(),
    "verify-projection": {"sigma_ladder"},
    "invert": {"method", "shared_input"},
    "sweep-tssi": {"t_ssi_ladder", "steps_ladder"},
    "interpolate": {"lambdas", "data_seed_a", "data_seed_b",
                    "manifold_threshold"},
    "reconstruct": {"delta"},
}

_DEFAULTS = {
    "oracle": {"kind": "circle", "radius": 2.0, "count": 8},
    "schedule": "ve_karras",
    "integrator": "euler",
    "grid": {"kind": "karras", "t_min": 0.002, "t_max": 80.0, "rho": 7.0,
             "steps": 200},
    "t_ssi": 0.1,
    "trials": 100,
    "out": None,
    "perturbation": 0.0,
    "perturbation_floor": 1.0,
    "quiet": False,
}

_COMMAND_DEFAULTS = {
    "verify-singularity": {"integrator": "heun"},
    "verify-projection": {"sigma_ladder": [0.1, 0.01, 0.001]},
    "invert": {"method": "ssi", "shared_input": False},
    "sweep-tssi": {"t_ssi_ladder": [0.001, 0.01, 0.1, 0.2],
                   "steps_ladder": [40, 100, 200], "trials": 16},
    "interpolate": {"lambdas": [0.1, 0.3, 0.5, 0.7, 0.9], "data_seed_a": 1,
                    "data_seed_b": 2, "manifold_threshold": 0.1},
    "reconstruct": {"delta": 0.05},
}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_number(value, name, positive=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    if isinstance(value, float) and not math.isfinite(value):  # JSON NaN, Infinity
        raise ConfigError(f"{name} must be finite")
    if integer and int(value) != value:
        raise ConfigError(f"{name} must be an integer")
    if positive and value <= 0:
        raise ConfigError(f"{name} must be positive")
    return int(value) if integer else float(value)


def resolve_config(command: str, raw: dict) -> dict:
    """Merge defaults, validate strictly, and return the full resolved config."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    allowed = _COMMON_KEYS | _COMMAND_KEYS[command]
    _require_keys(raw, allowed, "config")
    if "command" in raw and raw["command"] != command:
        raise ConfigError(
            f"config is for {raw['command']!r}, not {command!r}")

    cfg = dict(_DEFAULTS)
    cfg.update(_COMMAND_DEFAULTS[command])
    cfg.update({k: v for k, v in raw.items() if k != "command"})
    cfg["command"] = command

    if "seed" not in cfg:
        raise ConfigError("seed is required")
    cfg["seed"] = _check_number(cfg["seed"], "seed", integer=True)
    if cfg["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    cfg["trials"] = _check_number(cfg["trials"], "trials", integer=True)
    if cfg["trials"] < 1:
        raise ConfigError("trials must be at least 1")
    cfg["t_ssi"] = _check_number(cfg["t_ssi"], "t_ssi")
    if cfg["t_ssi"] <= 0:
        raise ConfigError("t_ssi must be positive")
    cfg["perturbation"] = _check_number(cfg["perturbation"], "perturbation")
    if cfg["perturbation"] < 0:
        raise ConfigError("perturbation must be nonnegative")
    cfg["perturbation_floor"] = _check_number(
        cfg["perturbation_floor"], "perturbation_floor")
    if cfg["schedule"] not in ("ve_karras", "vp_linear_beta"):
        raise ConfigError(f"unknown schedule {cfg['schedule']!r}")
    if cfg["integrator"] not in ("euler", "heun"):
        raise ConfigError(f"unknown integrator {cfg['integrator']!r}")
    if not isinstance(cfg["quiet"], bool):
        raise ConfigError("quiet must be a boolean")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("out must be a path string or null")

    oracle = cfg["oracle"]
    if not isinstance(oracle, dict) or "kind" not in oracle:
        raise ConfigError("oracle must be an object with a kind")
    if oracle["kind"] not in _ORACLE_KEYS:
        raise ConfigError(f"unknown oracle kind {oracle['kind']!r}")
    _require_keys(oracle, _ORACLE_KEYS[oracle["kind"]], "oracle")

    grid = cfg["grid"]
    if not isinstance(grid, dict) or "kind" not in grid:
        raise ConfigError("grid must be an object with a kind")
    if grid["kind"] not in _GRID_KEYS:
        raise ConfigError(f"unknown grid kind {grid['kind']!r}")
    _require_keys(grid, _GRID_KEYS[grid["kind"]], "grid")
    missing = _GRID_KEYS[grid["kind"]] - set(grid)
    if missing:
        raise ConfigError(f"missing keys in grid: {sorted(missing)}")
    cfg["grid"] = {k: v if k == "kind" else _check_number(
        v, f"grid {k}", integer=k in _GRID_INTEGER_KEYS) for k, v in grid.items()}

    if command == "verify-projection":
        ladder = cfg["sigma_ladder"]
        if not isinstance(ladder, list) or not ladder:
            raise ConfigError("sigma_ladder must be a nonempty list")
        cfg["sigma_ladder"] = [_check_number(v, "sigma_ladder entry",
                                             positive=True) for v in ladder]
    if command == "invert":
        if cfg["method"] not in ("ssi", "baseline_ddim", "both"):
            raise ConfigError(f"unknown inversion method {cfg['method']!r}")
        if not isinstance(cfg["shared_input"], bool):
            raise ConfigError("shared_input must be a boolean")
    if command == "sweep-tssi":
        for key in ("t_ssi_ladder", "steps_ladder"):
            if not isinstance(cfg[key], list) or not cfg[key]:
                raise ConfigError(f"{key} must be a nonempty list")
        cfg["t_ssi_ladder"] = [_check_number(v, "t_ssi_ladder entry",
                                             positive=True)
                               for v in cfg["t_ssi_ladder"]]
        cfg["steps_ladder"] = [_check_number(v, "steps_ladder entry",
                                             positive=True, integer=True)
                               for v in cfg["steps_ladder"]]
    if command == "interpolate":
        if not isinstance(cfg["lambdas"], list) or not cfg["lambdas"]:
            raise ConfigError("lambdas must be a nonempty list")
        cfg["lambdas"] = [_check_number(v, "lambda") for v in cfg["lambdas"]]
        if any(not 0.0 <= v <= 1.0 for v in cfg["lambdas"]):
            raise ConfigError("lambdas must lie in [0, 1]")
        for key in ("data_seed_a", "data_seed_b"):
            cfg[key] = _check_number(cfg[key], key, integer=True)
        cfg["manifold_threshold"] = _check_number(
            cfg["manifold_threshold"], "manifold_threshold", positive=True)
    if command == "reconstruct":
        cfg["delta"] = _check_number(cfg["delta"], "delta")
        if not 0.0 < cfg["delta"] < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
    return cfg


def build_oracle(cfg: dict):
    """Instantiate the (optionally perturbed) score oracle from a config."""
    spec = cfg["oracle"]
    kind = spec["kind"]
    if kind == "circle":
        base = circle_point_cloud(radius=float(spec.get("radius", 2.0)),
                                  count=int(spec.get("count", 8)))
    elif kind == "gaussian_on_axis":
        base = gaussian_on_axis()
    elif kind == "subspace":
        grid_shape = spec.get("grid_shape")
        base = random_subspace(
            dim=spec.get("dim"),
            grid_shape=tuple(grid_shape) if grid_shape is not None else None,
            latent_dim=int(spec.get("latent_dim", 1)),
            latent_stddevs=spec.get("latent_stddevs", 1.0),
            basis_seed=int(spec.get("basis_seed", 0)))
    elif kind == "toy_image":
        base = toy_image_subspace(
            latent_dim=int(spec.get("latent_dim", 8)),
            basis_seed=int(spec.get("basis_seed", 0)),
            smoothness=float(spec.get("smoothness", 1.5)))
    else:
        raise ConfigError(f"unknown oracle kind {kind!r}")
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
    if kind == "karras":
        g = karras_grid(t_min if t_min is not None else float(spec["t_min"]),
                        float(spec["t_max"]), float(spec["rho"]),
                        steps if steps is not None else int(spec["steps"]))
        return TimeGrid(g.times[1:])
    if kind == "uniform":
        lo = t_min if t_min is not None else float(spec["t_min"])
        n = steps if steps is not None else int(spec["steps"])
        return TimeGrid(np.linspace(lo, float(spec["t_max"]), n + 1))
    return ddim_kappa_grid(int(spec["full_steps"]), int(spec["stride"]),
                           int(spec["offset"]))


def build_method(cfg: dict) -> Method:
    return Method.EULER if cfg["integrator"] == "euler" else Method.HEUN


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()

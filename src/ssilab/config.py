"""Experiment configuration: parsing, validation, and object construction.

Configs are flat JSON objects with two nested sections, ``oracle`` and
``grid``.  Four tables hold every key a config may give, each with its check:

- ``_COMMON`` maps each key the commands share to ``(default, check)``;
- ``_COMMANDS`` maps each command to the ``(default, check)`` entries it adds
  or overrides, and to ``None`` for each ``_COMMON`` key it does not read;
- ``_ORACLES`` maps each oracle kind to ``(factory, {key: check})``; a key the
  section leaves out is filled in from the factory's default, unless ``None``
  (a subspace gives one of ``dim`` and ``grid_shape``, and one positive
  ``latent_stddevs`` that every latent shares);
- ``_GRIDS`` maps each grid kind to ``{key: check}``; a grid gives every key
  of its kind but those its command sets (``_grid``): an SSI grid starts at
  ``t_ssi`` (no ``t_min``), the sweep's ladders also set ``steps``, and
  ``invert``'s ``method`` picks its grid.

A check returns the value as stored (a checked number becomes an int or a
float) or raises ``ConfigError``.  Unknown keys anywhere are rejected, and
``resolve_config`` builds every grid the command runs, a full grid as given
and the SSI grid at every start, so it is the only place a config is
refused: one that resolves runs, up to the library's own domain checks.
The resolved config is echoed verbatim into the run report so that any
report can be replayed bit-identically.  A config holds only what its
command's result reads (the output options are CLI flags), so its hash
names the experiment.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .flow import Method
from .oracles import (PerturbedScoreOracle, circle_point_cloud, gaussian_on_axis,
                      random_subspace, toy_image_subspace)
from .schedules import NoiseSchedule, TimeGrid, VE_KARRAS, VP_LINEAR_BETA, karras_grid

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


def _list_of(check, ascending=False):
    """A nonempty list of values that pass ``check``, with ``ascending`` in
    ascending order (repeats allowed)."""
    def check_list(value, name):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a nonempty list")
        values = [check(v, f"{name} entry") for v in value]
        if ascending and values != sorted(values):
            raise ConfigError(f"{name} must be in ascending order")
        return values
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


def _checked(section: dict, table: dict, where: str, prefix="") -> dict:
    """Fill ``section`` from ``table``, ``{key: (default, check)}``, and check it;
    a default of ``_REQUIRED`` must be given, one of ``None`` is left out."""
    unknown = section.keys() - table.keys()
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = {k for k, (d, _) in table.items() if d is _REQUIRED} - section.keys()
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
    full = {k: d for k, (d, _) in table.items() if d is not _REQUIRED and d is not None}
    return {k: table[k][1](v, prefix + k) for k, v in (full | section).items()}


def _section(tables: dict):
    """A nested section: a ``kind`` and that kind's ``{key: (default, check)}``."""
    check_kind = _one_of(*tables)

    def check(value, name):
        if not isinstance(value, dict) or "kind" not in value:
            raise ConfigError(f"{name} must be an object with a kind")
        kind = check_kind(value["kind"], f"{name} kind")
        return _checked(value, {"kind": (kind, lambda v, _: v), **tables[kind]}, name,
                        prefix=f"{name} ")
    return check


_SEED = _number(lo=0, integer=True)
_COUNT = _number(lo=1, integer=True)
_POSITIVE = _number(lo=0, open_=True)
_NONNEGATIVE = _number(lo=0)
_ANY = _number()
_INTEGRATOR = _one_of("euler", "heun")

_TOY_IMAGE_SHAPE = inspect.signature(toy_image_subspace).parameters["grid_shape"].default

_ORACLES = {
    "circle": (circle_point_cloud, {"radius": _POSITIVE, "count": _COUNT}),
    "gaussian_on_axis": (gaussian_on_axis, {}),
    "subspace": (random_subspace, {
        "dim": _COUNT, "grid_shape": _list_of(_COUNT), "latent_dim": _COUNT,
        "latent_stddevs": _POSITIVE,
        "basis_seed": _SEED}),
    # past the image's side the filter leaves only rounding, at a cost linear in it
    "toy_image": (toy_image_subspace, {
        "latent_dim": _COUNT, "basis_seed": _SEED,
        "smoothness": _number(lo=0, hi=_TOY_IMAGE_SHAPE[-1])}),
}

_GRIDS = {
    "karras": {"t_min": _ANY, "t_max": _ANY, "rho": _ANY, "steps": _COUNT},
    "uniform": {"t_min": _ANY, "t_max": _ANY, "steps": _COUNT},
}
_VE_GRID = {"kind": "karras", "t_min": 0.002, "t_max": 80.0, "rho": 7.0, "steps": 200}
_VP_GRID = {"kind": "uniform", "t_min": 0.1, "t_max": 0.999, "steps": 200}  # criterion 5's


def _grid(unset=(), default=_VE_GRID):
    """A complete grid section without the keys in ``unset``."""
    tables = {kind: {k: (_REQUIRED, c) for k, c in keys.items() if k not in unset}
              for kind, keys in _GRIDS.items()}
    return ({k: v for k, v in default.items() if k not in unset}, _section(tables))


# the resolved config keeps this key order, then the command's own keys, then "command"
_COMMON = {
    # an omitted oracle key takes the factory's default, if that is not None
    "oracle": ({"kind": "circle"}, _section({
        kind: {k: (inspect.signature(factory).parameters[k].default, check)
               for k, check in checks.items()} for kind, (factory, checks) in _ORACLES.items()})),
    "schedule": ("ve_karras", _one_of("ve_karras", "vp_linear_beta")),
    "integrator": ("euler", _INTEGRATOR),
    "grid": _grid(),
    "t_ssi": (0.1, _POSITIVE),
    "trials": (100, _COUNT),
    "perturbation": (0.0, _NONNEGATIVE),
    "seed": (0, _SEED),
}

# ``None`` marks a ``_COMMON`` key the command does not read, so it neither
# takes nor echoes that key; invert's method picks the SSI grid from t_ssi or,
# under both, the DDIM baseline's full VP grid (one schedule, still spelled)
_SSI_GRID = _grid(("t_min",))
_INVERT_METHODS = {"ssi": {"grid": _SSI_GRID},
                   "both": {"schedule": ("vp_linear_beta", _one_of("vp_linear_beta")),
                            "grid": _grid(default=_VP_GRID)}}
_COMMANDS = {
    "verify-singularity": {"integrator": ("heun", _INTEGRATOR), "schedule": None, "t_ssi": None},
    # its KS tests need 100 draws
    "verify-projection": {"trials": (100, _number(lo=100, integer=True)),
                          "sigma_ladder": ([0.1, 0.01, 0.001], _list_of(_POSITIVE)),
                          **dict.fromkeys(["schedule", "integrator", "grid", "t_ssi",
                                           "perturbation"])},
    # correlation standard errors and excesses need two noises
    "invert": {"method": ("ssi", _one_of(*_INVERT_METHODS)),
               "shared_input": (False, _boolean),
               "trials": (100, _number(lo=2, integer=True)), "integrator": None},
    "sweep-tssi": {"t_ssi_ladder": ([0.001, 0.01, 0.1, 0.2],
                                    _list_of(_POSITIVE, ascending=True)),
                   "steps_ladder": ([40, 100, 200], _list_of(_COUNT, ascending=True)),
                   "trials": (16, _COUNT), "t_ssi": None,
                   "grid": _grid(("t_min", "steps"))},
    "interpolate": {"lambdas": ([0.1, 0.3, 0.5, 0.7, 0.9],
                                _list_of(_number(lo=0, hi=1))),
                    "trials": None, "grid": _SSI_GRID},
    "reconstruct": {"delta": (0.05, _number(lo=0, hi=1, open_=True)),
                    "grid": _SSI_GRID},
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
    table = {**_COMMON, **_COMMANDS[command]}
    if command == "invert":  # the method picks what the rest of the config holds
        default, check = table["method"]
        table |= _INVERT_METHODS[check(raw.get("method", default), "method")]
    cfg = _checked({k: v for k, v in raw.items() if k != "command"},
                   {k: entry for k, entry in table.items() if entry is not None}, "config")
    cfg["command"] = command
    oracle = cfg["oracle"]
    if oracle["kind"] == "subspace" and ("dim" in oracle) == ("grid_shape" in oracle):
        raise ConfigError("oracle must give exactly one of dim and grid_shape")
    if "latent_dim" in oracle:  # a subspace or toy image, whose factory relates the keys
        d = oracle.get("dim", int(np.prod(oracle.get("grid_shape", _TOY_IMAGE_SHAPE))))
        if not oracle["latent_dim"] < d:
            raise ConfigError(f"oracle latent_dim must be below the dimension {d}")
    grid = cfg.get("grid")
    if grid is not None and grid.keys() >= _GRIDS[grid["kind"]].keys():  # run as given
        build_grid(grid)
    for steps in cfg.get("steps_ladder", [None]):
        for t_ssi in cfg.get("t_ssi_ladder", [cfg["t_ssi"]] if "t_ssi" in cfg else []):
            _ssi_grid(cfg, t_ssi, steps)
    return cfg


def build_oracle(cfg: dict):
    """Instantiate the (optionally perturbed) score oracle from a config."""
    spec = dict(cfg["oracle"])
    factory, _ = _ORACLES[spec.pop("kind")]
    base = factory(**spec)
    if cfg.get("perturbation", 0.0) > 0.0:
        return PerturbedScoreOracle(base=base, magnitude=cfg["perturbation"])
    return base


def build_schedule(cfg: dict) -> NoiseSchedule:
    return VP_LINEAR_BETA if cfg.get("schedule") == "vp_linear_beta" else VE_KARRAS


def build_grid(spec: dict) -> TimeGrid:
    """Ascending grid from a complete grid spec (every key of its kind).

    Karras grids drop the zero anchor so every grid time has positive sigma.
    """
    if spec["kind"] == "karras":
        return TimeGrid(karras_grid(spec["t_min"], spec["t_max"], spec["rho"],
                                    spec["steps"]).times[1:])
    if not 0 < spec["t_min"] < spec["t_max"]:
        raise InvalidArgumentError("need 0 < t_min < t_max")
    return TimeGrid(np.linspace(spec["t_min"], spec["t_max"], spec["steps"] + 1))


def _ssi_grid(cfg: dict, t_ssi: float = None, steps: int = None) -> TimeGrid:
    """The config's grid from ``t_ssi`` (default the config's), with a sweep cell's ``steps``."""
    t_ssi = cfg["t_ssi"] if t_ssi is None else t_ssi
    spec = cfg["grid"]
    if not t_ssi < spec["t_max"]:
        raise ConfigError(f"t_ssi={t_ssi} must lie below the grid's t_max={spec['t_max']}")
    return build_grid(spec | {"t_min": t_ssi} | ({} if steps is None else {"steps": steps}))


def build_method(cfg: dict) -> Method:
    return Method.EULER if cfg["integrator"] == "euler" else Method.HEUN


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()

import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ssilab
from ssilab import (COMMANDS, ConfigError, InvalidArgumentError, PerturbedScoreOracle,
                    TimeGrid, VP_LINEAR_BETA, build_oracle, circle_point_cloud,
                    config_hash, correlation_metrics, ddim_coefficients,
                    random_subspace, replay, resolve_config, run_command,
                    toy_image_subspace)
from ssilab.cli import main
from ssilab.experiments import _pairwise_abs_cosine
from ssilab.oracles import PointCloudScore


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# the common keys each command does not read, so neither takes nor echoes
UNREAD_KEYS = {
    "verify-singularity": ["schedule", "t_ssi"],
    "verify-projection": ["schedule", "integrator", "grid", "t_ssi", "perturbation"],
    "invert": ["integrator"],
    "sweep-tssi": ["t_ssi"],
    "interpolate": ["trials"],
    "reconstruct": [],
}

# the grid keys an SSI command sets itself: the grid starts at t_ssi (so does
# invert's under its default method, ssi), and a sweep cell sets its own steps
SET_GRID_KEYS = {"invert": ["t_min"], "sweep-tssi": ["t_min", "steps"],
                 "interpolate": ["t_min"], "reconstruct": ["t_min"]}


def _uniform(t_min):
    return {"kind": "uniform", "t_min": t_min, "t_max": 0.9, "steps": 10}


def _one_line_exit_2(tmp_path, capsys, command, data) -> str:
    """Run ``data`` through ``main``; it must exit 2 with one stderr line, returned."""
    assert main([command, "--config", str(write_config(tmp_path, data)), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config("invert", {"seed": 1, "bogus": 2})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config("invert", {"seed": 1,
                                      "oracle": {"kind": "circle", "blah": 1}})

    def test_missing_seed(self):
        # a config without a seed runs seed 0, under the hash of one that gives it
        cfg = resolve_config("invert", {})
        assert cfg["seed"] == 0
        assert cfg == resolve_config("invert", {"seed": 0})
        assert config_hash(cfg) == config_hash(resolve_config("invert", {"seed": 0}))

    def test_zero_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            resolve_config("invert", {"seed": 1, "trials": 0})

    def test_nonpositive_t_ssi(self):
        with pytest.raises(ConfigError, match="t_ssi"):
            resolve_config("invert", {"seed": 1, "t_ssi": 0.0})

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            resolve_config("frobnicate", {"seed": 1})

    def test_command_mismatch(self):
        with pytest.raises(ConfigError):
            resolve_config("invert", {"seed": 1, "command": "sweep-tssi"})

    def test_command_key_leak(self):
        # keys of one command are unknown to another
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config("invert", {"seed": 1, "sigma_ladder": [0.1]})

    def test_defaults_are_filled(self):
        cfg = resolve_config("sweep-tssi", {"seed": 1})
        assert cfg["t_ssi_ladder"] == [0.001, 0.01, 0.1, 0.2]
        assert cfg["steps_ladder"] == [40, 100, 200]
        assert cfg["command"] == "sweep-tssi"

    def test_toy_image_smoothness_past_its_side_is_refused(self):
        # resolution alone: at 1e6 the 8 x 8 image's filter would take about 4 GB
        resolve_config("invert", {"oracle": {"kind": "toy_image", "smoothness": 8}})
        for smoothness in (9, 1e6):
            with pytest.raises(ConfigError, match="^oracle smoothness must be <= 8$"):
                resolve_config("invert", {"oracle": {"kind": "toy_image",
                                                     "smoothness": smoothness}})

    def test_bad_lambda(self):
        with pytest.raises(ConfigError):
            resolve_config("interpolate", {"seed": 1, "lambdas": [1.5]})

    def test_bad_delta(self):
        with pytest.raises(ConfigError):
            resolve_config("reconstruct", {"seed": 1, "delta": 1.0})

    @pytest.mark.parametrize("command,tail", [
        ("verify-singularity", []),
        ("verify-projection", [("sigma_ladder", [0.1, 0.01, 0.001])]),
        ("invert", [("method", "ssi"), ("shared_input", False)]),
        ("sweep-tssi", [("t_ssi_ladder", [0.001, 0.01, 0.1, 0.2]),
                        ("steps_ladder", [40, 100, 200])]),
        ("interpolate", [("lambdas", [0.1, 0.3, 0.5, 0.7, 0.9])]),
        ("reconstruct", [("delta", 0.05)]),
    ])
    def test_resolved_defaults_keep_order_and_types(self, command, tail):
        # report.json echoes the resolved config in this order and these
        # types, without the common keys the command does not read
        head = [
            ("oracle", {"kind": "circle", "radius": 2.0, "count": 8}),
            ("schedule", "ve_karras"),
            ("integrator", "heun" if command == "verify-singularity" else "euler"),
            ("grid", {k: v for k, v in {"kind": "karras", "t_min": 0.002,
                                        "t_max": 80.0, "rho": 7.0,
                                        "steps": 200}.items()
                      if k not in SET_GRID_KEYS.get(command, [])}),
            ("t_ssi", 0.1),
            ("trials", 16 if command == "sweep-tssi" else 100),
            ("perturbation", 0.0),
            ("seed", 1),
        ]
        unread = UNREAD_KEYS[command]
        want = [(k, v) for k, v in head if k not in unread] + tail + [("command", command)]
        assert repr(list(resolve_config(command, {"seed": 1}).items())) == repr(want)

    @pytest.mark.parametrize("command,key", [
        (command, key) for command in COMMANDS
        for key in ["out", "quiet", *UNREAD_KEYS[command]]])
    def test_key_the_result_does_not_read_is_unknown(self, tmp_path, capsys, command, key):
        # out and quiet are flags only; every other key takes a value another
        # command accepts
        value = {"out": "run", "quiet": True,
                 **resolve_config("reconstruct", {"seed": 1})}[key]
        with pytest.raises(ConfigError, match="unknown keys") as info:
            resolve_config(command, {"seed": 1, key: value})
        err = _one_line_exit_2(tmp_path, capsys, command, {"seed": 1, key: value})
        assert err == f"config error: {info.value}\n"

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, keys in SET_GRID_KEYS.items() for key in keys])
    def test_grid_key_the_command_sets_is_unknown(self, tmp_path, capsys, command, key):
        grid = resolve_config(command, {"seed": 1})["grid"]
        assert key not in grid
        resolve_config(command, {"seed": 1, "grid": grid})
        value = resolve_config("verify-singularity", {"seed": 1})["grid"][key]
        data = {"seed": 1, "grid": grid | {key: value}}
        with pytest.raises(ConfigError, match="unknown keys in grid") as info:
            resolve_config(command, data)
        assert _one_line_exit_2(tmp_path, capsys, command, data) == f"config error: {info.value}\n"

    def test_kappa_grid_on_the_sweep_is_unknown(self):
        resolve_config("sweep-tssi", {"seed": 1, "grid": {"kind": "uniform", "t_max": 1.0}})
        with pytest.raises(ConfigError, match="unknown grid kind 'kappa'"):
            resolve_config("sweep-tssi", {"seed": 1, "grid": {
                "kind": "kappa", "full_steps": 1000, "stride": 5, "offset": 1}})

    @pytest.mark.parametrize("command,raw", [
        ("invert", {"method": "both", "grid": _uniform(0.95)}),
        ("invert", {"method": "both", "grid": _uniform(0)}),
        ("verify-singularity", {"grid": _uniform(0)}),
        ("verify-singularity", {"grid": {
            "kind": "karras", "t_min": 0.95, "t_max": 0.9, "rho": 7.0, "steps": 10}}),
    ], ids=["both-uniform-t_min-past-t_max", "both-uniform-t_min-0",
            "verify-singularity-uniform-t_min-0",
            "verify-singularity-karras-t_min-past-t_max"])
    def test_full_grid_is_refused_by_resolution(self, tmp_path, capsys, command, raw):
        # a grid the command runs as given is built when the config is
        # resolved, so it is refused before any score call
        data = {"seed": 1, "trials": 4, **raw}
        with pytest.raises(InvalidArgumentError) as info:
            resolve_config(command, data)
        assert _one_line_exit_2(tmp_path, capsys, command, data) == f"config error: {info.value}\n"

    def test_trials_flag_on_interpolate_is_2(self, tmp_path, capsys):
        # interpolate reads no trials, whether a flag or the config gave them
        err = _one_line_exit_2(tmp_path, capsys, "interpolate", {"seed": 1, "trials": 5})
        assert err == "config error: unknown keys in config: ['trials']\n"

    def test_projection_trials_below_100_is_refused_by_resolution(self, tmp_path, capsys):
        # its KS tests need 100 draws, so resolution refuses fewer, not the run
        resolve_config("verify-projection", {"seed": 1, "trials": 100})
        with pytest.raises(ConfigError, match="trials must be >= 100"):
            resolve_config("verify-projection", {"seed": 1, "trials": 99})
        err = _one_line_exit_2(tmp_path, capsys, "verify-projection", {"seed": 1, "trials": 99})
        assert err == "config error: trials must be >= 100\n"


# SSI starts that no grid can run: past the grid's t_max
_PAST_T_MAX = pytest.mark.parametrize("command,data,start", [
    ("reconstruct", {"t_ssi": 5, "grid": {"kind": "uniform", "t_max": 1, "steps": 10}},
     "t_ssi=5.0 must lie below the grid's t_max=1.0"),
    ("interpolate", {"t_ssi": 80}, "t_ssi=80.0 must lie below the grid's t_max=80.0"),
    ("sweep-tssi", {"t_ssi_ladder": [0.01, 0.2, 80.0]},
     "t_ssi=80.0 must lie below the grid's t_max=80.0"),
], ids=["reconstruct", "interpolate", "sweep-tssi"])


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "trials": 200})
        assert main(["verify-projection", "--config", str(cfg), "--quiet"]) == 0

    def test_config_error_is_2(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "nope": True})
        assert main(["invert", "--config", str(cfg), "--quiet"]) == 2

    def test_zero_trials_is_2(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "trials": 0})
        assert main(["invert", "--config", str(cfg), "--quiet"]) == 2

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["invert", "--config", str(tmp_path / "gone.json"),
                     "--quiet"]) == 2

    def test_config_file_not_text_is_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["invert", "--config", str(path), "--quiet"]) == 2

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a file where the output directory should go\n")
        cfg = write_config(tmp_path, {"seed": 1, "trials": 200})
        assert main(["verify-projection", "--config", str(cfg),
                     "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write outputs: ")
        assert err.count("\n") == 1

    def test_taken_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        # an --out that names a file is found before the command runs
        def run_command(cfg):
            raise AssertionError("the command ran although --out is taken")
        monkeypatch.setattr("ssilab.cli.run_command", run_command)
        out = tmp_path / "taken"
        out.write_text("a file where the output directory should go\n")
        cfg = write_config(tmp_path, {"seed": 1, "trials": 200})
        assert main(["verify-projection", "--config", str(cfg),
                     "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write outputs: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command,method", [
        ("verify-singularity", {}), ("invert", {}), ("invert", {"method": "both"}),
        ("sweep-tssi", {}), ("interpolate", {}), ("reconstruct", {}),
    ], ids=["verify-singularity", "invert-ssi", "invert-both",
            "sweep-tssi", "interpolate", "reconstruct"])
    def test_kappa_grid_it_cannot_use_is_2(self, tmp_path, capsys, command, method):
        # a DDIM kappa ladder i/full_steps is written as a uniform grid, so
        # every command that takes a grid refuses the kind where it resolves
        data = {"seed": 4, **method,
                "grid": {"kind": "kappa", "full_steps": 1000, "stride": 5, "offset": 1}}
        with pytest.raises(ConfigError, match="^unknown grid kind 'kappa'$"):
            resolve_config(command, data)
        cfg = write_config(tmp_path, data)
        assert main([command, "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == "config error: unknown grid kind 'kappa'\n"

    def test_descending_grid_is_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 1, "trials": 5, "t_ssi": 5.0,
            "grid": {"kind": "uniform", "t_max": 1.0, "steps": 10}})
        assert main(["invert", "--config", str(cfg), "--quiet"]) == 2

    def test_vp_schedule_on_a_grid_past_t_1_is_2(self, tmp_path, capsys):
        # the config resolves (the default Karras grid runs to t = 80), and the
        # schedule's own domain check refuses it with one short line naming one time
        err = _one_line_exit_2(tmp_path, capsys, "invert",
                               {"seed": 1, "trials": 4, "schedule": "vp_linear_beta"})
        assert err.startswith("config error: VP schedule requires t in [0, 1], got t = ")
        assert len(err) < 200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("data", [
        {"seed": 1, "trials": float("inf")},
        {"seed": float("nan")},
        {"seed": 1, "trials": 4, "perturbation": float("inf")},
        {"seed": 1, "trials": 4, "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0,
                                          "steps": float("inf")}},
        {"seed": 1, "trials": 4, "method": "both",
         "grid": {"kind": "karras", "t_min": float("nan"), "t_max": 80.0, "rho": 7.0,
                  "steps": 20}},
        # finite, but its square, the latent variance, is not: the subspace oracle
        # refuses it where it is built, as the point cloud refuses such atoms
        {"seed": 1, "trials": 4,
         "oracle": {"kind": "subspace", "dim": 8, "latent_stddevs": 1e155}},
    ], ids=["trials-inf", "seed-nan", "perturbation-inf", "grid-steps-inf",
            "grid-t_min-nan", "latent_stddevs-square-inf"])
    def test_non_finite_number_is_2(self, tmp_path, capsys, data):
        # json writes and reads these as the literals Infinity and NaN
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["invert", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("grid", [
        {"kind": "karras", "t_min": 0.002},
        {"kind": "uniform", "t_max": 1.0, "steps": 10},
    ], ids=["karras-no-t_max", "uniform-no-t_min"])
    def test_missing_grid_key_is_2(self, tmp_path, grid):
        # under method both, invert takes the full grid
        data = {"seed": 1, "trials": 4, "method": "both", "grid": grid}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["invert", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        assert not (out / "report.json").exists()
        with pytest.raises(ConfigError, match="missing keys in grid"):
            resolve_config("invert", data)

    @pytest.mark.parametrize("command,data", [
        ("invert", {"kind": "circle", "radius": "abc"}),
        ("invert", {"kind": "circle", "radius": None}),
        ("invert", {"kind": "circle", "radius": 0}),
        ("invert", {"kind": "circle", "count": 2.5}),
        ("invert", {"kind": "circle", "count": True}),
        ("invert", {"kind": "toy_image", "smoothness": "x"}),
        ("invert", {"kind": "toy_image", "smoothness": -1}),
        # past the image's side of 8 the filter only adds rounding and cost
        ("invert", {"kind": "toy_image", "smoothness": 9}),
        ("invert", {"kind": "toy_image", "latent_dim": 0}),
        ("invert", {"kind": "toy_image", "latent_dim": "8"}),
        ("invert", {"kind": "toy_image", "basis_seed": 1.5}),
        ("invert", {"kind": "subspace", "dim": 8, "basis_seed": -1}),
        ("invert", {"kind": "subspace", "dim": 8.5}),
        ("invert", {"kind": "subspace", "dim": 8, "latent_stddevs": "abc"}),
        ("invert", {"kind": "subspace", "dim": 8, "latent_stddevs": []}),
        ("invert", {"kind": "subspace", "grid_shape": [3, 4, "a"]}),
        ("invert", {"kind": "subspace", "grid_shape": 5}),
        ("invert", {"kind": ["x"]}),
        # the section takes one stddev that every latent shares, not a list
        ("invert", {"kind": "subspace", "dim": 8, "latent_stddevs": [1, 2]}),
        # a latent dimension as large as dim
        ("invert", {"kind": "subspace", "dim": 8, "latent_dim": 8}),
        ("invert", {"seed": 1, "grid": {"kind": ["x"]}}),
        ("invert", {"seed": 1, "trials": 4, "grid": {
            "kind": "uniform", "t_max": 1.0, "steps": -2}}),
        ("interpolate", {"seed": -1}),
        ("invert", {"seed": 1, "trials": 1}),
        ("invert", {"seed": 1, "perturbation_floor": -1.0}),
        ("invert", {"seed": 1, "trials": 4, "perturbation_floor": 1.0}),
        ("invert", [1]),
        ("invert", "x"),
    ], ids=["radius-abc", "radius-null", "radius-zero", "count-2.5", "count-true",
            "smoothness-x", "smoothness-negative", "smoothness-9", "toy-latent_dim-0",
            "latent_dim-string", "basis_seed-1.5", "basis_seed-negative",
            "dim-8.5", "latent_stddevs-abc", "latent_stddevs-empty",
            "grid_shape-string-entry", "grid_shape-5", "oracle-kind-list",
            "latent_stddevs-mismatch", "latent_dim-not-below-dim", "grid-kind-list",
            "uniform-steps-negative",
            "seed-negative",
            "invert-one-trial", "perturbation_floor-negative", "perturbation_floor-1",
            "config-list", "config-string"])
    def test_malformed_value_is_2(self, tmp_path, command, data):
        if isinstance(data, dict) and "seed" not in data:  # an oracle section
            data = {"seed": 1, "trials": 4, "oracle": data}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        assert not (out / "report.json").exists()
        with pytest.raises(ConfigError):  # refused where the config is resolved
            resolve_config(command, data)

    @pytest.mark.parametrize("extra", [{}, {"oracle": {"kind": "gaussian_on_axis"}}],
                             ids=["circle", "axis"])
    def test_sigma_below_data_resolution_is_2(self, tmp_path, extra):
        # every pilot ratio is 0: on the circle the noise is lost in rounding,
        # on the axis the squared distance underflows
        cfg = write_config(tmp_path, {"seed": 1, "trials": 100,
                                      "sigma_ladder": [1e-300], **extra})
        out = tmp_path / "out"
        assert main(["verify-projection", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("data", [
        {"sigma_ladder": [1e300]},
        {"oracle": {"kind": "subspace", "dim": 4}, "sigma_ladder": [1e200]},
        {"sigma_ladder": [1e308]},
    ], ids=["circle", "subspace", "circle-state"])
    def test_sigma_whose_distance_overflows_is_2(self, tmp_path, capsys, data):
        # the distance is finite but its norm is not, so the ratios would be
        # inf; at 1e308 the noisy state itself overflows
        cfg = write_config(tmp_path, {"seed": 1, **data})
        out = tmp_path / "out"
        assert main(["verify-projection", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sigma=")
        assert err.count("\n") == 1
        assert not out.exists()

    @_PAST_T_MAX
    def test_ssi_start_past_t_max_is_2(self, tmp_path, capsys, monkeypatch, command, data,
                                       start):
        # the error names t_ssi, and the sweep finds it before any cell runs
        calls = []
        score = PointCloudScore.score

        def counting(self, x, sigma):
            calls.append(1)
            return score(self, x, sigma)

        monkeypatch.setattr(PointCloudScore, "score", counting)
        cfg = write_config(tmp_path, {"seed": 1, **data})
        assert main([command, "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {start}\n"
        assert calls == []

    @_PAST_T_MAX
    def test_ssi_start_past_t_max_is_refused_by_resolution(self, command, data, start):
        # resolve_config builds every SSI grid, so it alone refuses the start
        with pytest.raises(ConfigError) as info:
            resolve_config(command, {"seed": 1, **data})
        assert str(info.value) == start

    @pytest.mark.parametrize("key,ladder", [("t_ssi_ladder", [0.2, 0.1, 0.01, 0.001]),
                                            ("steps_ladder", [40, 20])],
                             ids=["t_ssi_ladder", "steps_ladder"])
    def test_sweep_ladder_out_of_order_is_2(self, tmp_path, capsys, key, ladder):
        # the verdict reads the ladder's ends, so a ladder must ascend; on
        # seed 3 the ascending t_ssi ladder PASSes with t_ssi 0.1 inside it
        raw = {"seed": 3, "oracle": {"kind": "toy_image"}, "perturbation": 1e-3,
               "trials": 8, "steps_ladder": [40]}
        cfg = write_config(tmp_path, raw | {key: sorted(ladder)})
        assert main(["sweep-tssi", "--config", str(cfg), "--quiet"]) == 0
        cfg = write_config(tmp_path, raw | {key: ladder})
        assert main(["sweep-tssi", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {key} must be in ascending order\n"

    def test_verdict_failure_is_4(self, tmp_path):
        # two steps from t_ssi 0.5 decode the circle's frames 0.2 to 0.57 off
        # its atoms over seeds 0-5, past the 0.1 threshold
        cfg = write_config(tmp_path, {
            "seed": 1, "grid": {"kind": "uniform", "t_max": 80.0, "steps": 2},
            "t_ssi": 0.5})
        assert main(["interpolate", "--config", str(cfg), "--quiet"]) == 4

    @pytest.mark.parametrize("code,args,data,err", [
        (0, ["interpolate"], {"seed": 1}, ""),
        (2, ["interpolate"], {"seed": 1, "trials": 5}, "config error: unknown keys"),
        (3, ["verify-singularity"], {"seed": 1, "trials": 2, "perturbation": 1e300}, " at t="),
        (4, ["interpolate"], {"seed": 1, "grid": {"kind": "uniform", "t_max": 80.0, "steps": 2},
                              "t_ssi": 0.5}, ""),
    ], ids=["exit-0", "exit-2", "exit-3", "exit-4"])
    def test_process_exits_with_the_code_of_main(self, tmp_path, code, args, data, err):
        # python -m ssilab.cli hands main's code to the OS, with one stderr
        # line for an error and none otherwise
        args = [*args, "--config", str(write_config(tmp_path, data))]
        src = pathlib.Path(ssilab.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-m", "ssilab.cli", *args, "--quiet"],
                              env=dict(os.environ, PYTHONPATH=str(src)), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == (1 if err else 0), proc.stderr
        assert err in proc.stderr


_AXIS_KARRAS_20 = {"oracle": {"kind": "gaussian_on_axis"},
                   "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0,
                            "steps": 20}}


class TestOutputs:
    @pytest.mark.parametrize("command,raw,table,header,rows", [
        ("verify-singularity", {"trials": 10}, "trace", "sigma,rms_ratio", 200),
        ("verify-projection", {"trials": 100}, "concentration",
         "sigma,ks_statistic,ks_pvalue,coverage_fraction,ratio_mean,in_regime", 3),
        ("invert", {"trials": 4, "method": "both", "schedule": "vp_linear_beta",
                    "oracle": {"kind": "toy_image"},
                    "grid": {"kind": "uniform", "t_min": 0.1, "t_max": 0.999,
                             "steps": 10}},
         "metrics", "which,chan_corr,hori_corr,vert_corr,chan_se,hori_se,vert_se", 3),
        ("sweep-tssi", {"trials": 2, "t_ssi_ladder": [0.1, 0.2],
                        "steps_ladder": [10, 20],
                        "oracle": {"kind": "gaussian_on_axis"},
                        "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0}},
         "sweep", "steps,t_ssi,mse,manifold_dist", 4),
        ("interpolate", {"lambdas": [0.25, 0.5, 0.75], **_AXIS_KARRAS_20},
         "interpolation", "lambda,manifold_dist", 3),
        ("reconstruct", {"trials": 5, **_AXIS_KARRAS_20},
         "reconstruct", "trial,error_ratio", 5),
    ], ids=COMMANDS)
    def test_report_and_csv_written(self, tmp_path, command, raw, table, header,
                                    rows):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"seed": 2, **raw})
        assert main([command, "--config", str(cfg),
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == ["tool", "version", "command", "config",
                                "config_sha256", "seed_ledger", "trials",
                                "aggregates", "verdict", "notes",
                                "wall_clock_seconds"]
        assert report["tool"] == "ssilab"
        assert report["command"] == command
        assert report["config"]["seed"] == 2
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["report.json", f"{table}.csv"])
        lines = (out / f"{table}.csv").read_text().splitlines()
        assert lines[0].startswith("# ssilab ")
        assert report["config_sha256"][:12] in lines[0]
        assert lines[1] == header
        assert len(lines) == 2 + rows

    def test_flag_overrides_config(self, tmp_path):
        # no flag overrides the config: one that would is refused, and the
        # report echoes the config as given
        cfg = write_config(tmp_path, {"seed": 2, "trials": 10})
        out = tmp_path / "run2"
        with pytest.raises(SystemExit) as info:
            main(["verify-singularity", "--config", str(cfg), "--seed", "9",
                  "--out", str(out), "--quiet"])
        assert info.value.code == 2
        assert not out.exists()
        assert main(["verify-singularity", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["config"]["seed"], report["config"]["trials"]) == (2, 10)

    def test_parser_reuse_carries_no_flag_over(self, tmp_path, capsys):
        # the parser is built once per process; a flag of one call must not
        # leak into the next
        cfg = write_config(tmp_path, {"seed": 2, "trials": 10})
        first, second = tmp_path / "first", tmp_path / "second"
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"seed": 3, "trials": 10}))
        assert main(["verify-singularity", "--config", str(other), "--quiet",
                     "--out", str(first)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["verify-singularity", "--config", str(cfg),
                     "--out", str(second)]) == 0
        assert capsys.readouterr().out.startswith("verify-singularity: verdict=")
        for out, seed in ((first, 3), (second, 2)):
            report = json.loads((out / "report.json").read_text())
            assert report["config"]["seed"] == seed
            assert "quiet" not in report["config"]


def small_configs():
    return [
        ("verify-singularity", {"seed": 5, "trials": 10}),
        ("verify-projection", {"seed": 5, "trials": 400}),
        ("invert", {"seed": 5, "trials": 8,
                    "oracle": {"kind": "toy_image"},
                    "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0, "steps": 40}}),
        ("sweep-tssi", {"seed": 5, "trials": 4,
                        "oracle": {"kind": "gaussian_on_axis"},
                        "t_ssi_ladder": [0.01, 0.1, 0.2],
                        "steps_ladder": [20]}),
        ("interpolate", {"seed": 5, "oracle": {"kind": "gaussian_on_axis"},
                         "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0,
                                  "steps": 30}}),
        ("reconstruct", {"seed": 5, "trials": 120,
                         "oracle": {"kind": "gaussian_on_axis"},
                         "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0,
                                  "steps": 40}}),
        # under both, invert defaults to the VP schedule and its uniform grid
        ("invert", {"seed": 1, "trials": 4, "method": "both",
                    "oracle": {"kind": "toy_image"}}),
    ]


@pytest.mark.parametrize("command,raw", small_configs())
def test_replay_bit_identical(command, raw):
    report = run_command(resolve_config(command, raw))
    again = replay(report)
    assert json.dumps(report["aggregates"], sort_keys=True) == \
        json.dumps(again["aggregates"], sort_keys=True)
    assert json.dumps(report["trials"], sort_keys=True) == \
        json.dumps(again["trials"], sort_keys=True)
    assert report["seed_ledger"] == again["seed_ledger"]


def _without_wall_clock(report_json: str) -> list:
    lines = report_json.splitlines()
    assert sum('"wall_clock_seconds"' in line for line in lines) == 1
    return [line for line in lines if '"wall_clock_seconds"' not in line]


@pytest.mark.parametrize("command,raw", small_configs())
def test_out_and_quiet_leave_the_outputs_unchanged(tmp_path, command, raw):
    # the config hash names the experiment, not where it is written or
    # whether a summary is printed
    cfg = write_config(tmp_path, raw)
    first, second = tmp_path / "first", tmp_path / "second"
    code = main([command, "--config", str(cfg), "--out", str(first), "--quiet"])
    assert code in (0, 4)
    assert main([command, "--config", str(cfg), "--out", str(second)]) == code
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name.endswith(".csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
    text = (first / "report.json").read_text()
    assert _without_wall_clock(text) == \
        _without_wall_clock((second / "report.json").read_text())
    # replay reproduces the whole report but its wall clock
    report = json.loads(text)
    again = replay(report)
    for rep in (report, again):
        del rep["wall_clock_seconds"]
    del again["csv"]
    assert json.dumps(again, sort_keys=True) == json.dumps(report, sort_keys=True)


def test_sweep_cells_share_one_trial_batch():
    # a repeated ladder value reruns one cell on the same data and noise
    trials = 4
    report = run_command(resolve_config("sweep-tssi", {
        "seed": 5, "trials": trials, "oracle": {"kind": "gaussian_on_axis"},
        "t_ssi_ladder": [0.01, 0.1, 0.1], "steps_ladder": [20]}))
    rows = report["csv"]["sweep"]["rows"]
    assert rows[1] == rows[2]
    assert rows[0] != rows[1]
    roles = [entry["role"] for entry in report["seed_ledger"]]
    assert roles == ["data"] + [f"trial_{i}" for i in range(trials)]


def test_shared_input_mode():
    cfg = resolve_config("invert", {
        "seed": 5, "trials": 6, "shared_input": True,
        "oracle": {"kind": "toy_image"},
        "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0, "steps": 40}})
    rep = run_command(cfg)
    # different seeds on one input still give near-orthogonal noises
    assert rep["aggregates"]["ssi_mean_abs_cosine"] < 3 / np.sqrt(192)


def test_invert_both_builds_each_gaussianity_report_once(monkeypatch):
    import ssilab.experiments as experiments
    calls = []
    metrics = experiments.correlation_metrics

    def counting(*args, **kwargs):
        calls.append(1)
        return metrics(*args, **kwargs)

    monkeypatch.setattr(experiments, "correlation_metrics", counting)
    run_command(resolve_config("invert", {
        "seed": 5, "trials": 8, "method": "both",
        "schedule": "vp_linear_beta", "oracle": {"kind": "toy_image"},
        "grid": {"kind": "uniform", "t_min": 0.1, "t_max": 0.999, "steps": 20},
        "t_ssi": 0.1}))
    # SSI noise, baseline noise and the Gaussian reference: one report each
    assert len(calls) == 3


def test_invert_both_on_a_kappa_grid_gives_a_verdict():
    # DDIM's ladder i/1000 at every fifth i from 1, TimeGrid(np.arange(1, 1001, 5) / 1000),
    # spelled as the uniform grid it is
    rep = run_command(resolve_config("invert", {
        "seed": 4, "method": "both", "t_ssi": 0.001, "schedule": "vp_linear_beta",
        "oracle": {"kind": "toy_image"},
        "grid": {"kind": "uniform", "t_min": 0.001, "t_max": 0.996, "steps": 199}}))
    assert rep["verdict"] in ("PASS", "FAIL")
    json.dumps(rep["aggregates"], allow_nan=False)  # raises on NaN or inf


def test_baseline_requires_vp():
    with pytest.raises(ConfigError, match="unknown schedule 've_karras'"):
        resolve_config("invert", {"seed": 5, "trials": 4, "method": "both",
                                  "schedule": "ve_karras"})


@pytest.mark.parametrize("method", ["both"])
def test_baseline_methods_default_to_vp(method):
    # the baseline's one schedule and criterion 5's grid are the defaults
    cfg = resolve_config("invert", {"seed": 5, "trials": 4, "method": method})
    assert cfg["schedule"] == "vp_linear_beta"
    assert cfg["grid"] == {"kind": "uniform", "t_min": 0.1, "t_max": 0.999, "steps": 200}
    report = run_command(cfg)
    assert 0.0 < report["aggregates"]["baseline_mean_abs_cosine"] <= 1.0


def test_sweep_with_fewer_than_three_starts_claims_no_verdict():
    # a repeated start is no interior point
    report = run_command(resolve_config("sweep-tssi", {
        "seed": 5, "trials": 2, "oracle": {"kind": "gaussian_on_axis"},
        "t_ssi_ladder": [0.1, 0.1, 0.2], "steps_ladder": [20]}))
    assert report["verdict"] is None
    assert report["aggregates"]["interior_minimum"] is None
    assert report["notes"] == ["fewer than 3 distinct t_ssi values; no verdict claimed"]


@pytest.mark.parametrize("oracle", [
    {"kind": "gaussian_on_axis"}, {"kind": "subspace", "dim": 8}, {"kind": "toy_image"}],
    ids=["gaussian_on_axis", "subspace", "toy_image"])
def test_interpolate_claims_no_verdict_on_an_exact_subspace(oracle):
    # each frame decodes to a posterior mean, which an exact subspace score puts
    # on the subspace, so its distance reads 0 even two steps from t_ssi 0.5
    raw = {"seed": 1, "oracle": oracle, "t_ssi": 0.5,
           "grid": {"kind": "uniform", "t_max": 80.0, "steps": 2}}
    rep = run_command(resolve_config("interpolate", raw))
    assert rep["verdict"] is None
    assert rep["notes"] == ["every decoded frame is an exact subspace posterior mean, "
                            "on the subspace; no verdict claimed"]
    assert rep["aggregates"]["max_manifold_dist"] < 1e-15
    perturbed = run_command(resolve_config("interpolate", raw | {"perturbation": 1e-3}))
    assert perturbed["verdict"] in ("PASS", "FAIL")
    assert perturbed["notes"] == []


def test_projection_regime_guard():
    cfg = resolve_config("verify-projection", {
        "seed": 5, "trials": 400, "sigma_ladder": [2.0]})
    rep = run_command(cfg)
    assert rep["verdict"] is None
    assert rep["aggregates"]["rungs"][0]["flag"] == "asymptotic regime violated"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pairwise_abs_cosine_of_rows_whose_norm_overflows():
    rows = np.random.default_rng(3).standard_normal((6, 5))
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    gram = np.abs(unit @ unit.T)
    # rows with a finite norm take the direct formula, to the bit
    assert _pairwise_abs_cosine(rows) == float(gram[~np.eye(6, dtype=bool)].mean())
    want = _pairwise_abs_cosine(rows)
    mixed = rows.copy()
    mixed[::2] *= 1e160
    for scaled in (rows * 1e160, mixed):
        assert _pairwise_abs_cosine(scaled) == pytest.approx(want, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invert_reports_the_cosine_at_the_largest_radius():
    # 1.3e154 is about the largest radius whose squared norm is finite
    cfg = {"oracle": {"kind": "circle", "radius": 1.3e154}, "trials": 4, "seed": 1}
    report = run_command(resolve_config("invert", cfg))
    assert 0.0 < report["aggregates"]["ssi_mean_abs_cosine"] <= 1.0
    cfg["oracle"]["radius"] = 1e160
    with pytest.raises(InvalidArgumentError):
        run_command(resolve_config("invert", cfg))


@pytest.mark.parametrize("kind", ["karras", "uniform"])
@pytest.mark.parametrize("command,raw", [
    ("sweep-tssi", {"trials": 2, "t_ssi_ladder": [0.1, 0.2], "steps_ladder": [10]}),
    ("interpolate", {"lambdas": [0.5]}),
    ("reconstruct", {"trials": 4}),
])
def test_every_echoed_grid_key_is_read(command, raw, kind):
    # a grid value the result does not read would give two stamps to one
    # experiment; interpolate's frames keep their decoded states (d = 2),
    # whose distance to the axis is 0 on every grid
    raw = {"seed": 1, "oracle": {"kind": "gaussian_on_axis"}, **raw}
    grid = resolve_config(command, raw)["grid"]
    if kind == "uniform":
        grid = {k: v for k, v in grid.items() if k != "rho"} | {"kind": "uniform"}

    def result(grid):
        report = run_command(resolve_config(command, raw | {"grid": grid}))
        return report["aggregates"], report["trials"]

    base = result(grid)
    for key in grid.keys() - {"kind"}:
        value = {"t_min": 0.01, "t_max": 40.0, "rho": 5.0, "steps": 30}[key]
        assert result(grid | {key: value}) != base, key


_KARRAS ={"kind": "karras", "t_min": 0.002, "t_max": 0.9, "rho": 7.0, "steps": 10}
_SSI = {"t_min"}  # an SSI grid starts at t_ssi
_VP = "vp_linear_beta"

# per command and invert method: a small config (seed 1), and for every leaf
# of its resolved config but command, method and section kinds, another value
# its check accepts
_EVERY_LEAF = {
    "verify-singularity": ("verify-singularity", {"trials": 3, "grid": _KARRAS}, {
        "integrator": "euler", "grid.t_min": 0.01, "grid.t_max": 0.5,
        "grid.rho": 5.0, "grid.steps": 12}),
    "verify-projection": ("verify-projection", {"trials": 100, "sigma_ladder": [0.1, 0.01]}, {
        "trials": 120, "sigma_ladder": [0.1, 0.02]}),
    "invert-ssi": ("invert", {"trials": 3, "grid": {
        k: v for k, v in _KARRAS.items() if k not in _SSI}}, {
        "schedule": _VP, "grid.t_max": 0.5, "grid.rho": 5.0, "grid.steps": 12,
        "t_ssi": 0.2, "shared_input": True}),
    # the baseline runs 0.01 -> 0.91 and SSI from t_ssi to the same end
    "invert-both": ("invert", {"trials": 3, "method": "both", "schedule": _VP, "grid": {
        "kind": "uniform", "t_min": 0.01, "t_max": 0.91, "steps": 9}, "t_ssi": 0.02}, {
        "schedule": "ve_karras", "grid.t_min": 0.03, "grid.t_max": 0.5, "grid.steps": 12,
        "t_ssi": 0.05, "shared_input": True}),
    "sweep-tssi": ("sweep-tssi", {"trials": 2, "t_ssi_ladder": [0.1, 0.2], "steps_ladder": [10],
                                  "grid": {"kind": "uniform", "t_max": 0.9}}, {
        "schedule": _VP, "integrator": "heun", "grid.t_max": 0.5,
        "t_ssi_ladder": [0.1, 0.3], "steps_ladder": [12]}),
    # from t_ssi 0.1 the circle's frames decode onto its atoms, bit for bit
    "interpolate": ("interpolate", {"lambdas": [0.5], "t_ssi": 0.5, "grid": {
        k: v for k, v in _KARRAS.items() if k not in _SSI}}, {
        "schedule": _VP, "integrator": "heun", "grid.t_max": 0.8, "grid.rho": 5.0,
        "grid.steps": 12, "t_ssi": 0.6, "lambdas": [0.4]}),
    "reconstruct": ("reconstruct", {"trials": 3, "t_ssi": 0.02, "grid": {
        "kind": "uniform", "t_max": 0.92, "steps": 9}}, {
        "schedule": _VP, "integrator": "heun", "grid.t_max": 0.5, "grid.steps": 12,
        "t_ssi": 0.05, "delta": 0.1}),
}
_COMMON_LEAVES = {"trials": 4, "perturbation": 1e-3, "seed": 2}
_ORACLE_LEAVES = {"circle": {"oracle.radius": 3.0, "oracle.count": 6},
                  "toy_image": {"oracle.latent_dim": 4, "oracle.basis_seed": 1,
                                "oracle.smoothness": 1.0}}


def _leaves(cfg: dict, prefix="") -> set:
    out = set()
    for key, value in cfg.items():
        if isinstance(value, dict):
            out |= _leaves(value, f"{key}.")
        elif key not in ("command", "method", "kind"):
            out.add(prefix + key)
    return out


@pytest.mark.parametrize("case", list(_EVERY_LEAF))
def test_every_echoed_key_is_read(case):
    # a value the result does not read would give one experiment two stamps,
    # so each leaf must move (aggregates, trials) or be refused with exit 2;
    # only resolution refuses, so a config that resolves must run
    command, raw, others = _EVERY_LEAF[case]
    cfg = resolve_config(command, {"seed": 1, **raw})
    others = (_ORACLE_LEAVES[cfg["oracle"]["kind"]]
              | {k: v for k, v in _COMMON_LEAVES.items() if k in cfg} | others)

    def result(cfg):
        try:
            cfg = resolve_config(command, cfg)
        except (ConfigError, InvalidArgumentError):
            return "exit 2"
        report = run_command(cfg)
        return json.dumps([report["aggregates"], report["trials"]], sort_keys=True)

    base = result(cfg)
    assert base != "exit 2"
    unread = []
    for leaf, value in others.items():
        changed = copy.deepcopy(cfg)
        *section, key = leaf.split(".")
        (changed[section[0]] if section else changed)[key] = value
        if result(changed) == base:
            unread.append(leaf)
    assert sorted(_leaves(cfg) ^ others.keys()) == []
    assert unread == [], unread


@pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
@pytest.mark.parametrize("case", list(_EVERY_LEAF))
def test_resolution_is_idempotent(case, small):
    command, raw, _ = _EVERY_LEAF[case]
    if not small:  # the command's defaults, under invert's method
        raw = {k: v for k, v in raw.items() if k == "method"}
    cfg = resolve_config(command, {"seed": 1, **raw})
    assert resolve_config(command, cfg) == cfg


def _refused(error, call, *args, **kwargs):
    with pytest.raises(error):
        call(*args, **kwargs)
    return True


def _flag_refused(argv) -> bool:
    with pytest.raises(SystemExit) as info:  # argparse's exit on an unknown flag
        main(argv)
    return info.value.code == 2


def _config_refused(tmp, command, data, message) -> bool:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--quiet", "--config", str(write_config(tmp, data))])
    return code == 2 and err.getvalue().startswith(message)


# each input has one form, so one experiment has one hash
@pytest.mark.parametrize("refused", [
    lambda tmp: _refused(InvalidArgumentError, random_subspace, dim=48, grid_shape=(3, 4, 4)),
    lambda tmp: main(["invert", "--quiet", "--config", str(write_config(tmp, {
        "seed": 1, "trials": 4,
        "oracle": {"kind": "subspace", "dim": 48, "grid_shape": [3, 4, 4]}}))]) == 2,
    lambda tmp: _refused(ConfigError, resolve_config, "invert", {
        "seed": 1, "oracle": {"kind": "subspace", "dim": 8, "latent_stddevs": [1.0]}}),
    lambda tmp: _refused(TypeError, correlation_metrics, np.ones((4, 48)), grid_shape=(3, 4, 4)),
    lambda tmp: _refused(InvalidArgumentError, ddim_coefficients, VP_LINEAR_BETA,
                         TimeGrid(np.linspace(0.9, 0.1, 5))),
    lambda tmp: not hasattr(PerturbedScoreOracle(base=circle_point_cloud()), "log_density"),
    # the config alone names a run: its seed and trials are no flags, interpolate's
    # endpoints are draws 1 and 2 of its seed and its bound a constant, and invert
    # runs the DDIM baseline only beside SSI
    lambda tmp: _flag_refused(["verify-projection", "--seed", "1"]),
    lambda tmp: _flag_refused(["verify-projection", "--trials", "200"]),
    lambda tmp: _config_refused(tmp, "interpolate", {"seed": 1, "data_seed_a": 1},
                                "config error: unknown keys"),
    lambda tmp: _config_refused(tmp, "interpolate", {"seed": 1, "manifold_threshold": 0.1},
                                "config error: unknown keys"),
    lambda tmp: _config_refused(tmp, "invert", {"seed": 1, "method": "baseline_ddim"},
                                "config error: unknown method"),
], ids=["random_subspace-dim-and-grid_shape", "config-dim-and-grid_shape",
        "config-latent_stddevs-list", "correlation_metrics-flat", "ddim_coefficients-descending",
        "perturbed-log_density", "flag-seed", "flag-trials", "config-data_seed_a",
        "config-manifold_threshold", "config-method-baseline_ddim"])
def test_removed_second_form_is_refused(tmp_path, refused):
    assert refused(tmp_path)


@pytest.mark.parametrize("section,message", [
    ({"kind": "subspace"}, "oracle must give exactly one of dim and grid_shape"),
    ({"kind": "subspace", "dim": 48, "grid_shape": [3, 4, 4]},
     "oracle must give exactly one of dim and grid_shape"),
    ({"kind": "subspace", "dim": 8, "latent_dim": 8},
     "oracle latent_dim must be below the dimension 8"),
    ({"kind": "subspace", "grid_shape": [2, 2, 2], "latent_dim": 9},
     "oracle latent_dim must be below the dimension 8"),
    ({"kind": "toy_image", "latent_dim": 192},
     "oracle latent_dim must be below the dimension 192"),
], ids=["neither-dim-nor-grid_shape", "dim-and-grid_shape", "latent_dim-equals-dim",
        "latent_dim-past-grid_shape", "toy_image-latent_dim-192"])
def test_subspace_section_the_factory_refuses_is_refused_by_resolution(tmp_path, capsys,
                                                                       section, message):
    # each section resolves to no oracle, so resolve_config refuses it, not build_oracle
    with pytest.raises(ConfigError) as info:
        resolve_config("invert", {"seed": 1, "oracle": section})
    assert str(info.value) == message
    err = _one_line_exit_2(tmp_path, capsys, "invert", {"seed": 1, "trials": 4, "oracle": section})
    assert err == f"config error: {message}\n"
    spec = {k: v for k, v in section.items() if k != "kind"}
    factory = toy_image_subspace if section["kind"] == "toy_image" else random_subspace
    with pytest.raises(InvalidArgumentError):
        factory(**spec)


@pytest.mark.parametrize("short,full", [
    ({"kind": "circle"}, {"kind": "circle", "count": 8, "radius": 2}),
    ({"kind": "gaussian_on_axis"}, {"kind": "gaussian_on_axis"}),
    ({"kind": "subspace", "dim": 8}, {"kind": "subspace", "dim": 8, "latent_dim": 1,
                                      "latent_stddevs": 1.0, "basis_seed": 0}),
    ({"kind": "toy_image"}, {"kind": "toy_image", "latent_dim": 8, "basis_seed": 0,
                             "smoothness": 1.5}),
], ids=["circle", "gaussian_on_axis", "subspace", "toy_image"])
def test_oracle_defaults_spelled_out_or_left_out_hash_alike(short, full):
    # the section is filled in from the factory's own defaults
    cfgs = [resolve_config("reconstruct", {"seed": 1, "oracle": o}) for o in (short, full)]
    assert config_hash(cfgs[0]) == config_hash(cfgs[1])

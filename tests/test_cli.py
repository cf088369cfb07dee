import json

import numpy as np
import pytest

from ssilab import (COMMANDS, ConfigError, InvalidArgumentError, build_oracle,
                    replay, resolve_config, run_command)
from ssilab.cli import main
from ssilab.experiments import _pairwise_abs_cosine


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# the common keys each command does not read, so neither takes nor echoes
UNREAD_KEYS = {
    "verify-singularity": ["t_ssi"],
    "verify-projection": ["schedule", "integrator", "grid", "t_ssi",
                          "perturbation", "perturbation_floor"],
    "invert": ["integrator"],
    "sweep-tssi": ["t_ssi"],
    "interpolate": ["trials"],
    "reconstruct": [],
}


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config("invert", {"seed": 1, "bogus": 2})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config("invert", {"seed": 1,
                                      "oracle": {"kind": "circle", "blah": 1}})

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config("invert", {})

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
        ("interpolate", [("lambdas", [0.1, 0.3, 0.5, 0.7, 0.9]),
                         ("data_seed_a", 1), ("data_seed_b", 2),
                         ("manifold_threshold", 0.1)]),
        ("reconstruct", [("delta", 0.05)]),
    ])
    def test_resolved_defaults_keep_order_and_types(self, command, tail):
        # report.json echoes the resolved config in this order and these
        # types, without the common keys the command does not read
        head = [
            ("oracle", {"kind": "circle", "radius": 2.0, "count": 8}),
            ("schedule", "ve_karras"),
            ("integrator", "heun" if command == "verify-singularity" else "euler"),
            ("grid", {"kind": "karras", "t_min": 0.002, "t_max": 80.0,
                      "rho": 7.0, "steps": 200}),
            ("t_ssi", 0.1),
            ("trials", 16 if command == "sweep-tssi" else 100),
            ("perturbation", 0.0),
            ("perturbation_floor", 1.0),
        ]
        unread = UNREAD_KEYS[command]
        want = ([(k, v) for k, v in head if k not in unread] + tail
                + [("seed", 1), ("command", command)])
        assert repr(list(resolve_config(command, {"seed": 1}).items())) == repr(want)

    @pytest.mark.parametrize("command,key", [
        (command, key) for command in COMMANDS
        for key in ["out", "quiet", *UNREAD_KEYS[command]]])
    def test_key_the_result_does_not_read_is_unknown(self, command, key):
        # out and quiet are flags only; every other key takes a value another
        # command accepts
        value = {"out": "run", "quiet": True,
                 **resolve_config("reconstruct", {"seed": 1})}[key]
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config(command, {"seed": 1, key: value})

    def test_trials_flag_on_interpolate_is_2(self, capsys):
        assert main(["interpolate", "--seed", "1", "--trials", "5", "--quiet"]) == 2
        assert "unknown keys" in capsys.readouterr().err


# VP on the uniform 1000-step ladder's every fifth time from 0.001
_VP_KAPPA = {"schedule": "vp_linear_beta", "oracle": {"kind": "toy_image"},
             "grid": {"kind": "kappa", "full_steps": 1000, "stride": 5, "offset": 1}}


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "trials": 20})
        assert main(["verify-projection", "--config", str(cfg), "--quiet",
                     "--trials", "200"]) == 0

    def test_config_error_is_2(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "nope": True})
        assert main(["invert", "--config", str(cfg), "--quiet"]) == 2

    def test_zero_trials_is_2(self):
        assert main(["invert", "--seed", "1", "--trials", "0", "--quiet"]) == 2

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
        assert main(["verify-projection", "--seed", "1", "--trials", "200",
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
        assert main(["verify-projection", "--seed", "1", "--trials", "200",
                     "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write outputs: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command,t_ssi,message", [
        ("invert", 0.1, "kappa grid must start at t_ssi"),
        ("sweep-tssi", None, "the sweep varies t_ssi"),
    ], ids=["invert-t_ssi-off-grid", "sweep-tssi"])
    def test_kappa_grid_it_cannot_use_is_2(self, tmp_path, capsys, command, t_ssi,
                                           message):
        data = {"seed": 4, "trials": 4, **_VP_KAPPA}
        if command == "invert":
            data |= {"method": "both", "t_ssi": t_ssi}
        cfg = write_config(tmp_path, data)
        assert main([command, "--config", str(cfg), "--quiet"]) == 2
        assert message in capsys.readouterr().err

    def test_descending_grid_is_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 1, "trials": 5, "t_ssi": 5.0,
            "grid": {"kind": "uniform", "t_min": 5.0, "t_max": 1.0, "steps": 10}})
        assert main(["invert", "--config", str(cfg), "--quiet"]) == 2

    @pytest.mark.parametrize("data", [
        {"seed": 1, "trials": float("inf")},
        {"seed": float("nan")},
        {"seed": 1, "trials": 4, "perturbation": float("inf")},
        {"seed": 1, "trials": 4, "grid": {"kind": "karras", "t_min": 0.002,
                                          "t_max": 80.0, "rho": 7.0,
                                          "steps": float("inf")}},
        {"seed": 1, "trials": 4, "grid": {"kind": "karras", "t_min": float("nan"),
                                          "t_max": 80.0, "rho": 7.0, "steps": 20}},
    ], ids=["trials-inf", "seed-nan", "perturbation-inf", "grid-steps-inf",
            "grid-t_min-nan"])
    def test_non_finite_number_is_2(self, tmp_path, data):
        # json writes and reads these as the literals Infinity and NaN
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["invert", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("grid", [
        {"kind": "karras", "t_min": 0.002},
        {"kind": "uniform", "t_max": 1.0, "steps": 10},
    ], ids=["karras-no-t_max", "uniform-no-t_min"])
    def test_missing_grid_key_is_2(self, tmp_path, grid):
        cfg = write_config(tmp_path, {"seed": 1, "trials": 4, "grid": grid})
        out = tmp_path / "out"
        assert main(["invert", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        assert not (out / "report.json").exists()
        with pytest.raises(ConfigError, match="missing keys in grid"):
            resolve_config("invert", {"seed": 1, "grid": grid})

    @pytest.mark.parametrize("command,data,config_check", [
        ("invert", {"kind": "circle", "radius": "abc"}, True),
        ("invert", {"kind": "circle", "radius": None}, True),
        ("invert", {"kind": "circle", "radius": 0}, True),
        ("invert", {"kind": "circle", "count": 2.5}, True),
        ("invert", {"kind": "circle", "count": True}, True),
        ("invert", {"kind": "toy_image", "smoothness": "x"}, True),
        ("invert", {"kind": "toy_image", "smoothness": -1}, True),
        ("invert", {"kind": "toy_image", "latent_dim": 0}, True),
        ("invert", {"kind": "toy_image", "latent_dim": "8"}, True),
        ("invert", {"kind": "toy_image", "basis_seed": 1.5}, True),
        ("invert", {"kind": "subspace", "dim": 8, "basis_seed": -1}, True),
        ("invert", {"kind": "subspace", "dim": 8.5}, True),
        ("invert", {"kind": "subspace", "dim": 8, "latent_stddevs": "abc"}, True),
        ("invert", {"kind": "subspace", "dim": 8, "latent_stddevs": []}, True),
        ("invert", {"kind": "subspace", "grid_shape": [3, 4, "a"]}, True),
        ("invert", {"kind": "subspace", "grid_shape": 5}, True),
        ("invert", {"kind": ["x"]}, True),
        # the stddevs fit no latent dimension: the oracle factory rejects them
        ("invert", {"kind": "subspace", "dim": 8, "latent_stddevs": [1, 2]}, False),
        ("invert", {"seed": 1, "grid": {"kind": ["x"]}}, True),
        ("invert", {"seed": 1, "trials": 4, "grid": {
            "kind": "uniform", "t_min": 0.1, "t_max": 1.0, "steps": -2}}, True),
        ("interpolate", {"seed": 1, "data_seed_a": -1}, True),
        ("invert", {"seed": 1, "trials": 1}, True),
        ("invert", {"seed": 1, "perturbation_floor": -1.0}, True),
        ("invert", [1], True),
        ("invert", "x", True),
    ], ids=["radius-abc", "radius-null", "radius-zero", "count-2.5", "count-true",
            "smoothness-x", "smoothness-negative", "toy-latent_dim-0",
            "latent_dim-string", "basis_seed-1.5", "basis_seed-negative",
            "dim-8.5", "latent_stddevs-abc", "latent_stddevs-empty",
            "grid_shape-string-entry", "grid_shape-5", "oracle-kind-list",
            "latent_stddevs-mismatch", "grid-kind-list", "uniform-steps-negative",
            "data_seed_a-negative",
            "invert-one-trial", "perturbation_floor-negative", "config-list", "config-string"])
    def test_malformed_value_is_2(self, tmp_path, command, data, config_check):
        if isinstance(data, dict) and "seed" not in data:  # an oracle section
            data = {"seed": 1, "trials": 4, "oracle": data}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        assert not (out / "report.json").exists()
        if config_check:
            with pytest.raises(ConfigError):
                resolve_config(command, data)
        else:
            with pytest.raises(InvalidArgumentError):
                build_oracle(resolve_config(command, data))

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
    ], ids=["circle", "subspace"])
    def test_sigma_whose_distance_overflows_is_2(self, tmp_path, capsys, data):
        # the distance is finite but its norm is not: the ratios would be inf
        cfg = write_config(tmp_path, {"seed": 1, **data})
        out = tmp_path / "out"
        assert main(["verify-projection", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sigma=")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_verdict_failure_is_4(self, tmp_path):
        # an absurd manifold threshold forces a FAIL verdict
        cfg = write_config(tmp_path, {
            "seed": 1, "oracle": {"kind": "gaussian_on_axis"},
            "grid": {"kind": "karras", "t_min": 0.002, "t_max": 80.0,
                     "rho": 7.0, "steps": 40},
            "manifold_threshold": 1e-300})
        assert main(["interpolate", "--config", str(cfg), "--quiet"]) == 4


_AXIS_KARRAS_20 = {"oracle": {"kind": "gaussian_on_axis"},
                   "grid": {"kind": "karras", "t_min": 0.002, "t_max": 80.0,
                            "rho": 7.0, "steps": 20}}


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
                        "steps_ladder": [10, 20], **_AXIS_KARRAS_20},
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
        cfg = write_config(tmp_path, {"seed": 2, "trials": 10})
        out = tmp_path / "run2"
        main(["verify-singularity", "--config", str(cfg), "--seed", "9",
              "--out", str(out), "--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 9

    def test_parser_reuse_carries_no_flag_over(self, tmp_path, capsys):
        # the parser is built once per process; a flag of one call must not
        # leak into the next
        cfg = write_config(tmp_path, {"seed": 2, "trials": 10})
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["verify-singularity", "--config", str(cfg), "--quiet",
                     "--seed", "3", "--out", str(first)]) == 0
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
                    "grid": {"kind": "karras", "t_min": 0.002, "t_max": 80.0,
                             "rho": 7.0, "steps": 40}}),
        ("sweep-tssi", {"seed": 5, "trials": 4,
                        "oracle": {"kind": "gaussian_on_axis"},
                        "t_ssi_ladder": [0.01, 0.1, 0.2],
                        "steps_ladder": [20]}),
        ("interpolate", {"seed": 5, "oracle": {"kind": "gaussian_on_axis"},
                         "grid": {"kind": "karras", "t_min": 0.002,
                                  "t_max": 80.0, "rho": 7.0, "steps": 30}}),
        ("reconstruct", {"seed": 5, "trials": 120,
                         "oracle": {"kind": "gaussian_on_axis"},
                         "grid": {"kind": "karras", "t_min": 0.002,
                                  "t_max": 80.0, "rho": 7.0, "steps": 40}}),
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
        "grid": {"kind": "karras", "t_min": 0.002, "t_max": 80.0,
                 "rho": 7.0, "steps": 40}})
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
    rep = run_command(resolve_config("invert", {
        "seed": 4, "method": "both", "t_ssi": 0.001, **_VP_KAPPA}))
    assert rep["verdict"] in ("PASS", "FAIL")
    json.dumps(rep["aggregates"], allow_nan=False)  # raises on NaN or inf


def test_baseline_requires_vp():
    cfg = resolve_config("invert", {"seed": 5, "trials": 4,
                                    "method": "baseline_ddim"})
    with pytest.raises(ConfigError, match="VP"):
        run_command(cfg)


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

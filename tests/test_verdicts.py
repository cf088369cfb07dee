"""The verdict table: every PASS/FAIL comes from ``experiments.verdict``.

A command's family of tests FAILs iff its smallest p-value is at most
``ALPHA / m`` over its ``m`` tests, the first step of Holm's procedure.
"""

import importlib.util
import json
import math
import os
import pathlib
from statistics import NormalDist

import pytest
from hypothesis import given, strategies as st

from ssilab import (COMMANDS, build_oracle, build_schedule, circle_point_cloud,
                    gaussian_on_axis, resolve_config, run_command, toy_image_subspace)
from ssilab import experiments
from ssilab.experiments import _VERDICTS, ALPHA, verdict

_CIRCLE = circle_point_cloud()
_TOY = toy_image_subspace()


def _projection(pvalues, scale=None):
    rungs = [{"ks_pvalue": p, "asymptotic_regime": True} for p in pvalues]
    return {"rungs": rungs, "scale_invariance_pvalue": scale, "judged_rungs": len(rungs)}


@pytest.mark.parametrize("pvalues,scale", [
    ([0.5], None), ([0.5, 0.2, 0.9], None), ([0.5, 0.2, 0.9], 0.7)],
    ids=["m1", "m3", "m4"])
def test_family_fails_at_alpha_over_m_and_passes_just_past_it(pvalues, scale):
    m = len(pvalues) + (scale is not None)
    at = ALPHA / m
    for i in range(len(pvalues)):
        moved = list(pvalues)
        moved[i] = at
        assert verdict("verify-projection", _projection(moved, scale), _CIRCLE) == ("FAIL", [])
        moved[i] = math.nextafter(at, 1.0)
        assert verdict("verify-projection", _projection(moved, scale), _CIRCLE) == ("PASS", [])
    if scale is not None:
        assert verdict("verify-projection", _projection(pvalues, at), _CIRCLE)[0] == "FAIL"
        assert verdict("verify-projection",
                       _projection(pvalues, math.nextafter(at, 1.0)), _CIRCLE)[0] == "PASS"


def test_invert_fails_from_one_sided_z_of_alpha_over_three():
    # Holm's first step over three one-sided tests: FAIL iff some z >= 2.128
    z_star = NormalDist().inv_cdf(1.0 - ALPHA / 3)
    assert round(z_star, 3) == 2.128
    for name in ("chan", "hori", "vert"):
        for z, want in ((z_star - 1e-6, "PASS"), (z_star + 1e-6, "FAIL")):
            excess = {"chan": 0.0, "hori": -1.0, "vert": 1.0} | {name: z}
            assert verdict("invert", {"ssi_excess_se": excess}, _TOY) == (want, [])


@given(st.tuples(*[st.floats(max_value=0.0, allow_nan=False)] * 3))
def test_a_negative_excess_never_fails_invert(excess):
    aggregates = {"ssi_excess_se": dict(zip(("chan", "hori", "vert"), excess)),
                  "baseline_excess_se": {"chan": 6.0, "hori": 0.0, "vert": -3.0}}
    assert verdict("invert", aggregates, _TOY) == ("PASS", [])


def test_verify_singularity_band_is_two_sided():
    z_star = NormalDist().inv_cdf(1.0 - ALPHA / 2)
    axis = gaussian_on_axis()
    for sign in (1.0, -1.0):
        for z, want in ((z_star - 1e-6, "PASS"), (z_star + 1e-6, "FAIL")):
            aggregates = {"decade_mean": 1.0 + sign * z * 0.05, "target": 1.0,
                          "decade_mean_se": 0.05, "decade_rel_spread": 0.1}
            assert verdict("verify-singularity", aggregates, axis) == (want, [])
    # the spread bound holds on any oracle; the band is judged on a subspace only
    far = {"decade_mean": 9.0, "target": 1.0, "decade_mean_se": 0.05, "decade_rel_spread": 0.1}
    assert verdict("verify-singularity", far, _CIRCLE) == ("PASS", [])
    assert verdict("verify-singularity", far | {"decade_rel_spread": 0.25}, _CIRCLE)[0] == "FAIL"


@pytest.mark.parametrize("trials", [1, 2, 100])
def test_decade_mean_se_is_floored_at_the_chi_law(trials):
    # the trials' own SE of a chi_1^2 mean is skewed low exactly when that mean
    # is low, which alone FAILed 7.3% of seeds 200-1199 at a design alpha of 5%
    for seed in range(3):
        report = run_command(resolve_config("verify-singularity", {
            "seed": seed, "trials": trials, "oracle": {"kind": "gaussian_on_axis"}}))
        assert report["aggregates"]["decade_mean_se"] >= math.sqrt(0.5) / math.sqrt(trials)
        assert math.isfinite(report["aggregates"]["decade_mean_se"])


_CRITERION_5 = ("invert", {
    "seed": 11, "trials": 300, "method": "both", "schedule": "vp_linear_beta",
    "oracle": {"kind": "toy_image"},
    "grid": {"kind": "uniform", "t_min": 0.1, "t_max": 0.999, "steps": 200},
    "t_ssi": 0.1, "perturbation": 1e-3})


@pytest.mark.parametrize("command,raw", [(c, {"seed": 1}) for c in COMMANDS] + [_CRITERION_5],
                         ids=[*COMMANDS, "criterion-5"])
def test_report_verdict_is_the_table_applied_to_its_own_aggregates(command, raw):
    report = run_command(resolve_config(command, raw))
    aggregates = json.loads(json.dumps(report["aggregates"]))
    want = verdict(command, aggregates, build_oracle(report["config"]))
    assert (report["verdict"], report["notes"]) == want
    # the verdict and notes come from the table alone: no command writes either
    cfg = resolve_config(command, raw)
    bare = {"seed_ledger": [], "trials": [], "aggregates": {}, "verdict": "unset",
            "notes": [], "csv": {}}
    experiments._COMMAND_FUNCS[command](cfg, bare, build_oracle(cfg), build_schedule(cfg))
    assert (bare["verdict"], bare["notes"]) == ("unset", [])


def test_sweep_claims_no_verdict_on_a_point_cloud():
    for perturbation in (0.0, 1e-3):
        report = run_command(resolve_config("sweep-tssi", {
            "seed": 1, "trials": 2, "steps_ladder": [10], "perturbation": perturbation}))
        assert report["verdict"] is None
        assert report["aggregates"]["interior_minimum"] in (True, False)
        assert report["notes"] == ["a point cloud's roundtrip snaps to an atom, so no "
                                   "t_ssi is an interior minimum; no verdict claimed"]


@pytest.mark.parametrize("raw", [{"trials": 4}], ids=["no-image-grid"])
def test_invert_without_ssi_correlations_claims_no_verdict(raw):
    report = run_command(resolve_config("invert", {"seed": 1, **raw}))
    assert report["verdict"] is None
    assert report["notes"] == ["correlations need an image grid; no verdict claimed"]


# -- the committed calibration record against the rules the code states -----
# CALIBRATION.json holds each verdict's measured FAIL rate under the rule it
# was measured under; these read it and run no seeds (a record takes about
# 20 minutes: PYTHONPATH=src python tools/calibrate.py --jobs 2)

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _import_calibrate():
    spec = importlib.util.spec_from_file_location("calibrate", _ROOT / "tools" / "calibrate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def calibrate():
    return _import_calibrate()


@pytest.fixture(scope="module")
def record():
    return json.loads((_ROOT / "CALIBRATION.json").read_text())


def test_importing_the_calibration_tool_leaves_the_environment_alone(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    _import_calibrate()
    assert dict(os.environ) == before


def test_each_calibrated_row_states_the_rule_the_code_applies(calibrate, record):
    stale = {name: row["rule"] for name, row in record["verdicts"].items()
             if row["rule"] != calibrate.rule(name)}
    assert not stale, "recalibrate: tools/calibrate.py --jobs 2"


def test_the_record_was_made_at_this_alpha(record):
    assert record["alpha"] == ALPHA


def test_every_command_has_a_calibrated_row(calibrate, record):
    calibrated = {calibrate.command(name) for name in record["verdicts"]
                  if name not in calibrate.ASSERTIONS}
    assert calibrated == set(_VERDICTS)


def test_the_record_was_made_from_a_committed_tree(record):
    assert record["uncommitted_changes"] is False

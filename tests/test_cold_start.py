"""Start-up cost: a command imports only the scipy modules it uses."""

import json
import os
import pathlib
import subprocess
import sys

import ssilab

# Runs in a fresh interpreter, so nothing imported by this test session leaks
# in.  Prints the scipy modules loaded after each stage as one JSON object.
_PROBE = r"""
import json, pathlib, sys

import numpy as np

import ssilab, ssilab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(command, cfg, name):
    path = out / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return ssilab.cli.main([command, "--config", str(path),
                            "--out", str(out / name), "--quiet"])

out = pathlib.Path(sys.argv[1])
grid = {"kind": "karras", "t_min": 0.002, "t_max": 80.0, "rho": 7.0, "steps": 20}
seen = {"import": scipy_modules()}
codes = {
    "interpolate": run("interpolate", {"seed": 1, "oracle": {"kind": "toy_image"},
                                       "grid": grid, "lambdas": [0.5]}, "interp"),
    "invert": run("invert", {"seed": 1, "trials": 4, "oracle": {"kind": "toy_image"},
                             "grid": grid}, "invert"),
}
seen["toy_image"] = scipy_modules()
cloud = ssilab.circle_point_cloud()
x = np.array([[0.5, 0.25], [3.0, -1.0]])
codes["score_finite"] = bool(np.isfinite(cloud.score(x, 0.1)).all())
codes["refined_score_finite"] = bool(np.isfinite(cloud.score(x, 0.002)).all())
codes["log_density_finite"] = bool(np.isfinite(cloud.log_density(x, 0.002)).all())
codes["nearest_is_an_atom"] = bool(np.isin(cloud.nearest_manifold_point(x),
                                           cloud.points).all())
codes["feature_scale_positive"] = bool(cloud.feature_scale > 0)
seen["point_cloud"] = scipy_modules()
codes["verify-projection"] = run("verify-projection", {"seed": 1, "trials": 200},
                                 "projection")
seen["projection"] = scipy_modules()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_toy_image_commands_load_no_scipy(tmp_path):
    src = pathlib.Path(ssilab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    codes, seen = result["codes"], result["seen"]
    assert codes == {"interpolate": 0, "invert": 0, "score_finite": True,
                     "refined_score_finite": True, "log_density_finite": True,
                     "nearest_is_an_atom": True, "feature_scale_positive": True,
                     "verify-projection": 0}
    assert seen["import"] == []
    assert seen["toy_image"] == []
    # the circle oracle loads no scipy module: its score at sigma 0.1 keeps
    # the GEMM logits, at sigma 0.002 it refines them, and its projection,
    # log-density and feature scale run on numpy alone ...
    assert seen["point_cloud"] == []
    # ... and verify-projection's KS tests load scipy.stats
    assert "scipy.stats" in seen["projection"]

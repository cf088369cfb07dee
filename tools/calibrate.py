"""Measure how often each verdict FAILs when only the seed changes.

    PYTHONPATH=src python tools/calibrate.py [--seeds N] [--jobs J] [--out FILE]

Runs every row of ``ssilab.experiments._VERDICTS`` (each command's default
config, and the oracles whose rates the README quotes) and the configs of
acceptance criteria 2-7, on seeds ``0 .. N-1`` with nothing but the seed
changed.  A criterion's seed is the one its test fixes (criterion 5's 11,
criterion 3's and 7's leading seed entry, and so on).  For criteria 2, 3, 5, 6
and 7 the test's own assertion is a verdict too, with no design alpha.

Writes one JSON object (default ``CALIBRATION.json``): the commit, whether the
tree had uncommitted changes, the SHA-256 of ``src/ssilab/*.py``, the seeds,
the environment and the wall time, and per verdict its rule, its design alpha
(null for a fixed bound or an assertion), the PASS, FAIL and unclaimed counts,
the FAIL rate among claimed verdicts with its Wilson 95% interval, the seeds
that FAILed, and its wall time.  The alphas are the table's, fixed before any
seed runs; a rate above its alpha is reported as it is.  ``--jobs`` runs that
many worker processes, one job (a group of verdicts) at a time each.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import platform
import subprocess
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):  # one BLAS thread per worker
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from ssilab import (InversionConfig, TimeGrid, VE_KARRAS, chi_square_bound,
                    circle_point_cloud, gaussian_on_axis, karras_grid,
                    projection_concentration, reconstruct, resolve_config,
                    run_command, singularity_trace, ssi_invert_ve, toy_image_subspace)
from ssilab.experiments import ALPHA

ROOT = pathlib.Path(__file__).resolve().parent.parent
AXIS = {"kind": "gaussian_on_axis"}
TOY = {"kind": "toy_image"}
CRITERION_4 = {"grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0, "steps": 100},
               "trials": 1000}
CRITERION_5 = {"trials": 300, "method": "both", "schedule": "vp_linear_beta", "oracle": TOY,
               "grid": {"kind": "uniform", "t_min": 0.1, "t_max": 0.999, "steps": 200},
               "t_ssi": 0.1, "perturbation": 1e-3}
CRITERION_6 = {"oracle": TOY, "perturbation": 1e-3}

# verdict name -> (the rule it applies, its design alpha or None)
_SINGULARITY = ("decade mean within a two-sided z band at alpha on a subspace; "
                "decade spread < 0.25", ALPHA)
_SPREAD = ("decade spread < 0.25 (a point cloud has no band)", None)
VERDICTS = {
    "verify-singularity/circle": _SPREAD,
    "verify-singularity/gaussian_on_axis": _SINGULARITY,
    "verify-singularity/toy_image": _SINGULARITY,
    "verify-projection/circle": ("Holm's first step over the judged KS tests", ALPHA),
    "verify-projection/toy_image": ("Holm's first step over the judged KS tests", ALPHA),
    "invert/toy_image": ("Holm's first step over three one-sided excess tests", ALPHA),
    "sweep-tssi/circle": ("interior minimum; none claimed on a point cloud", None),
    "interpolate/circle": ("every frame within 0.1 of the manifold", None),
    "reconstruct/circle": ("fraction within the error bound >= 1 - delta", 0.05),
    "criterion-2/circle": _SPREAD,
    "criterion-2/gaussian_on_axis": _SINGULARITY,
    "criterion-2 assertion": ("spread < 0.25 on the circle and deviation < 0.10 on the axis",
                              None),
    "criterion-3 assertion": ("each KS p > 0.01 over three oracles and the scale test", None),
    **{f"criterion-4/{name}/delta={delta}": ("fraction within the error bound >= 1 - delta",
                                            delta)
       for name in ("gaussian_on_axis", "subspace-8", "toy_image") for delta in (0.05, 0.2)},
    "criterion-5": ("Holm's first step over three one-sided excess tests; baseline > 5 SE",
                    ALPHA),
    "criterion-5 assertion": ("every |excess| <= 2 SE, baseline > 5 SE, verdict PASS", None),
    "criterion-6": ("interior minimum", None),
    "criterion-6 assertion": ("interior minimum at steps 200 and t_ssi 0.1", None),
    "criterion-7 assertion": ("mean |cos| < 3 / sqrt(d) and every error ratio within the bound",
                              None),
}


def _run(command: str, raw: dict, seed: int) -> dict:
    return run_command(resolve_config(command, {**raw, "seed": seed}))


def _outcome(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def commands(seed: int) -> dict:
    rows = {"verify-singularity/circle": ("verify-singularity", {}),
            "verify-singularity/gaussian_on_axis": ("verify-singularity", {"oracle": AXIS}),
            "verify-singularity/toy_image": ("verify-singularity", {"oracle": TOY}),
            "verify-projection/circle": ("verify-projection", {}),
            "verify-projection/toy_image": ("verify-projection", {"oracle": TOY}),
            "invert/toy_image": ("invert", {"oracle": TOY}),
            "sweep-tssi/circle": ("sweep-tssi", {}),
            "interpolate/circle": ("interpolate", {}),
            "reconstruct/circle": ("reconstruct", {})}
    return {name: _run(command, raw, seed)["verdict"] for name, (command, raw) in rows.items()}


def criterion_2(seed: int) -> dict:
    circle = _run("verify-singularity", {"trials": 200}, seed)
    axis = _run("verify-singularity", {"trials": 200, "oracle": AXIS}, seed)
    ok = (math.isfinite(circle["aggregates"]["trace_max"])
          and circle["aggregates"]["decade_rel_spread"] < 0.25
          and axis["aggregates"]["target_rel_deviation"] < 0.10)
    return {"criterion-2/circle": circle["verdict"],
            "criterion-2/gaussian_on_axis": axis["verdict"],
            "criterion-2 assertion": _outcome(ok)}


def criterion_3(seed: int) -> dict:
    from scipy import stats
    ok = True
    for i, (oracle, df) in enumerate(((circle_point_cloud(), 2), (gaussian_on_axis(), 1),
                                      (toy_image_subspace(), 184))):
        sigma = min(0.01, 0.01 * oracle.feature_scale)
        rep = projection_concentration(oracle, sigma, trials=10_000, seed=(seed, i))
        ok &= rep["df"] == df and rep["ks_pvalue"] > 0.01
    r1 = projection_concentration(gaussian_on_axis(), 0.01, 10_000, (seed, 10))
    r2 = projection_concentration(gaussian_on_axis(), 0.001, 10_000, (seed, 11))
    ok &= stats.ks_2samp(r1["ratios"], r2["ratios"]).pvalue > 0.01
    return {"criterion-3 assertion": _outcome(ok)}


def criterion_4(seed: int) -> dict:
    oracles = {"gaussian_on_axis": AXIS, "subspace-8": {"kind": "subspace", "dim": 8,
                                                        "latent_dim": 3}, "toy_image": TOY}
    return {f"criterion-4/{name}/delta={delta}":
            _run("reconstruct", {**CRITERION_4, "delta": delta, "oracle": oracle}, seed)["verdict"]
            for name, oracle in oracles.items() for delta in (0.05, 0.2)}


def criterion_5(seed: int) -> dict:
    rep = _run("invert", CRITERION_5, seed)
    ssi, base = rep["aggregates"]["ssi_excess_se"], rep["aggregates"]["baseline_excess_se"]
    ok = (all(abs(v) <= 2.0 for v in ssi.values()) and max(base.values()) > 5.0
          and rep["verdict"] == "PASS")
    return {"criterion-5": rep["verdict"], "criterion-5 assertion": _outcome(ok)}


def criterion_6(seed: int) -> dict:
    rep = _run("sweep-tssi", CRITERION_6, seed)
    best = rep["aggregates"]["best_cell"]
    ok = (rep["aggregates"]["interior_minimum"] is True and best["steps"] == 200
          and best["t_ssi"] == 0.1)
    return {"criterion-6": rep["verdict"], "criterion-6 assertion": _outcome(ok)}


def criterion_7(seed: int) -> dict:
    oracle = toy_image_subspace()
    d = oracle.dim
    x0 = oracle.sample_data((seed, 0xD0), 1)[0]
    grid = TimeGrid(karras_grid(0.1, 80.0, 7.0, 100).times[1:])
    cfg = InversionConfig(t_ssi=0.1, grid=grid, noise_seed=None)
    noise = np.stack([np.random.default_rng(np.random.SeedSequence((seed, i, 0x55)))
                      .standard_normal(d) for i in range(10)])
    res = ssi_invert_ve(oracle, VE_KARRAS, np.tile(x0, (10, 1)), cfg,
                        keep_trajectory=True, injected_noise=noise)
    unit = res.noise / np.linalg.norm(res.noise, axis=1, keepdims=True)
    mean_cos = float(np.abs(unit @ unit.T)[~np.eye(10, dtype=bool)].mean())
    _, ratios = singularity_trace(oracle, res.trajectory)
    bound = float(ratios.max()) + np.sqrt(chi_square_bound(d, 0.05))
    x_hat = reconstruct(oracle, VE_KARRAS, res, TimeGrid(grid.times[::-1]))
    err_ratio = np.linalg.norm(x_hat - x0, axis=-1) / 0.1
    return {"criterion-7 assertion": _outcome(mean_cos < 3 / np.sqrt(d)
                                              and bool(np.all(err_ratio <= bound)))}


JOBS = (criterion_4, criterion_5, commands, criterion_6, criterion_2, criterion_3, criterion_7)


def _run_job(job, seeds) -> tuple[dict, float]:
    """Every seed through one job: ``{verdict: [outcome per seed]}`` and the wall time."""
    t0 = time.perf_counter()
    outcomes: dict = {}
    for seed in seeds:
        for name, outcome in job(seed).items():
            outcomes.setdefault(name, []).append(outcome)
    return outcomes, time.perf_counter() - t0


def wilson(fails: int, n: int, z: float = 1.959963984540054) -> list | None:
    """Wilson score interval for a binomial rate, or None for no trials."""
    if n == 0:
        return None
    p = fails / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return [max(0.0, centre - half), min(1.0, centre + half)]


def _git(*args) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds 0 .. N-1 (default 200)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument("--out", type=pathlib.Path, default=ROOT / "CALIBRATION.json")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.jobs < 1:
        parser.error("--seeds and --jobs must be at least 1")
    seeds = list(range(args.seeds))
    t0 = time.perf_counter()
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=args.jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        done = list(pool.map(_run_job, JOBS, [seeds] * len(JOBS)))
    verdicts = {}
    for outcomes, wall in done:
        for name, seen in outcomes.items():
            rule, alpha = VERDICTS[name]
            fails = [s for s, v in zip(seeds, seen) if v == "FAIL"]
            claimed = sum(v is not None for v in seen)
            verdicts[name] = {
                "rule": rule, "alpha": alpha, "fail": len(fails),
                "pass": seen.count("PASS"), "unclaimed": seen.count(None),
                "fail_rate": len(fails) / claimed if claimed else None,
                "wilson95": wilson(len(fails), claimed), "fail_seeds": fails,
                "job_wall_seconds": round(wall, 1)}
    source = hashlib.sha256(b"".join(p.read_bytes()
                                     for p in sorted((ROOT / "src/ssilab").glob("*.py"))))
    report = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--", "src", "tools")),
        "source_sha256": source.hexdigest(),
        "seeds": {"first": 0, "count": args.seeds},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "jobs": args.jobs},
        "wall_seconds": round(time.perf_counter() - t0, 1),
        "verdicts": {name: verdicts[name] for name in VERDICTS},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    above = [name for name, v in report["verdicts"].items()
             if v["alpha"] is not None and v["wilson95"] and v["wilson95"][0] > v["alpha"]]
    print(f"{len(verdicts)} verdicts over {args.seeds} seeds in {report['wall_seconds']} s; "
          f"interval wholly above alpha: {above or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

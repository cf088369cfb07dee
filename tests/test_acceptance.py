"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in captured output on failure)
before asserting, so the criterion verdicts are readable at a glance.
"""

import json

import numpy as np
import pytest
from scipy import stats

from ssilab import (InversionConfig, Method,
                    TimeGrid, VE_KARRAS, VP_LINEAR_BETA, chi_square_bound,
                    ddim_sample, gaussian_exact,
                    gaussian_on_axis, integrate,
                    karras_grid, projection_concentration,
                    circle_point_cloud, reconstruct,
                    replay, resolve_config, run_command, singularity_trace,
                    slerp, ssi_invert_ve, toy_image_subspace)


def verdict_line(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return ok


def fitted_order(errors, ns):
    slope, _ = np.polyfit(np.log(ns), np.log(errors), 1)
    return -slope


def test_criterion_1_integrator_orders():
    axis = gaussian_on_axis()
    x0 = np.array([1.0, 0.7])
    t0, t1 = 0.5, 3.0
    exact = gaussian_exact(axis, x0, t0, t1)
    ns = np.array([25, 50, 100, 200, 400])
    orders = {}
    for method, target in ((Method.EULER, 1.0), (Method.HEUN, 2.0)):
        errs = []
        for n in ns:
            grid = TimeGrid(np.linspace(t0, t1, n + 1))
            traj = integrate(VE_KARRAS, axis, method, x0, grid)
            errs.append(np.linalg.norm(traj.states[-1] - exact))
        orders[method.value] = fitted_order(errs, ns)
    ok = (abs(orders["euler"] - 1.0) < 0.25 and abs(orders["heun"] - 2.0) < 0.25)
    assert verdict_line(1, ok, f"euler order {orders['euler']:.3f}, "
                               f"heun order {orders['heun']:.3f}")


def test_criterion_2_singularity_scaling():
    rep_pc = run_command(resolve_config("verify-singularity",
                                        {"seed": 1, "trials": 200}))
    spread = rep_pc["aggregates"]["decade_rel_spread"]
    rep_sub = run_command(resolve_config(
        "verify-singularity", {"seed": 1, "trials": 200,
                               "oracle": {"kind": "gaussian_on_axis"}}))
    dev = rep_sub["aggregates"]["target_rel_deviation"]
    bounded = np.isfinite(rep_pc["aggregates"]["trace_max"])
    ok = bounded and spread < 0.25 and dev < 0.10
    assert verdict_line(2, ok, f"eight-point spread {spread:.2%}, "
                               f"subspace deviation from 1.0 {dev:.2%}")


def test_criterion_3_concentration_law():
    cases = [
        ("atoms d=2 n=0", circle_point_cloud(), 2),
        ("subspace d=2 n=1", gaussian_on_axis(), 1),
        ("toy image d=192 n=8", toy_image_subspace(), 184),
    ]
    details = []
    ok = True
    for i, (label, oracle, df) in enumerate(cases):
        sigma = min(0.01, 0.01 * oracle.feature_scale)
        rep = projection_concentration(oracle, sigma, trials=10_000, seed=(3, i))
        ok &= rep["df"] == df and rep["ks_pvalue"] > 0.01
        details.append(f"{label} p={rep['ks_pvalue']:.3f}")
    r1 = projection_concentration(gaussian_on_axis(), 0.01, 10_000, (3, 10))
    r2 = projection_concentration(gaussian_on_axis(), 0.001, 10_000, (3, 11))
    scale_p = stats.ks_2samp(r1["ratios"], r2["ratios"]).pvalue
    ok &= scale_p > 0.01
    assert verdict_line(3, ok, "; ".join(details) + f"; scale p={scale_p:.3f}")


def test_criterion_4_roundtrip_bound():
    radicand = chi_square_bound(2, 0.05)
    ok = abs(radicand - 12.887) < 1e-3
    details = [f"radicand(2, 0.05)={radicand:.4f}"]
    oracles = {
        2: {"kind": "gaussian_on_axis"},
        8: {"kind": "subspace", "dim": 8, "latent_dim": 3},
        192: {"kind": "toy_image"},
    }
    for d, oracle in oracles.items():
        for delta in (0.05, 0.2):
            rep = run_command(resolve_config("reconstruct", {
                "seed": 4, "trials": 1000, "delta": delta, "oracle": oracle,
                "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0,
                         "steps": 100}}))
            frac = rep["aggregates"]["fraction_within"]
            ok &= frac >= 1.0 - delta
            details.append(f"d={d} delta={delta}: {frac:.3f}")
    assert verdict_line(4, ok, "; ".join(details))


def test_criterion_5_gaussianity_contrast():
    rep = run_command(resolve_config("invert", {
        "seed": 11, "trials": 300, "method": "both",
        "schedule": "vp_linear_beta", "oracle": {"kind": "toy_image"},
        "grid": {"kind": "uniform", "t_min": 0.1, "t_max": 0.999, "steps": 200},
        "t_ssi": 0.1, "perturbation": 1e-3}))
    ssi = rep["aggregates"]["ssi_excess_se"]
    base = rep["aggregates"]["baseline_excess_se"]
    ssi_ok = all(abs(v) <= 2.0 for v in ssi.values())
    base_fails = max(base.values()) > 5.0
    ok = ssi_ok and base_fails and rep["verdict"] == "PASS"
    assert verdict_line(
        5, ok, f"ssi max |excess| {max(abs(v) for v in ssi.values()):.2f} se, "
               f"baseline max excess {max(base.values()):.1f} se")


def test_criterion_6_tradeoff_shape():
    rep = run_command(resolve_config("sweep-tssi", {
        "seed": 21, "oracle": {"kind": "toy_image"}, "perturbation": 1e-3}))
    best = rep["aggregates"]["best_cell"]
    interior = rep["aggregates"]["interior_minimum"]
    ok = (interior is True and best["steps"] == 200 and best["t_ssi"] == 0.1)
    assert verdict_line(6, ok, f"best cell (steps={best['steps']}, "
                               f"t_ssi={best['t_ssi']}), interior={interior}")


def test_criterion_7_ill_posedness():
    oracle = toy_image_subspace()
    d = oracle.dim
    x0 = oracle.sample_data((7, 0xD0), 1)[0]
    grid = TimeGrid(karras_grid(0.1, 80.0, 7.0, 100).times[1:])
    cfg = InversionConfig(t_ssi=0.1, grid=grid, noise_seed=None)
    noise = np.stack([
        np.random.default_rng(np.random.SeedSequence((7, i, 0x55)))
        .standard_normal(d) for i in range(10)])
    res = ssi_invert_ve(oracle, VE_KARRAS, np.tile(x0, (10, 1)), cfg,
                        keep_trajectory=True, injected_noise=noise)
    unit = res.noise / np.linalg.norm(res.noise, axis=1, keepdims=True)
    gram = np.abs(unit @ unit.T)
    mean_cos = float(gram[~np.eye(10, dtype=bool)].mean())
    _, ratios = singularity_trace(oracle, res.trajectory)
    c = float(ratios.max())
    bound = c + np.sqrt(chi_square_bound(d, 0.05))
    x_hat = reconstruct(oracle, VE_KARRAS, res, TimeGrid(grid.times[::-1]))
    err_ratio = np.linalg.norm(x_hat - x0, axis=-1) / 0.1
    ok = mean_cos < 3 / np.sqrt(d) and np.all(err_ratio <= bound)
    assert verdict_line(
        7, ok, f"mean |cos| {mean_cos:.3f} < {3 / np.sqrt(d):.3f}, "
               f"max error ratio {err_ratio.max():.2f} <= {bound:.2f}")


def test_criterion_8_ddim_equivalence():
    axis = gaussian_on_axis()
    grid = TimeGrid(np.arange(1, 1001, 2) / 1000)  # DDIM's ladder i/1000, every second i
    times = grid.times[::-1]
    sig = np.asarray(VP_LINEAR_BETA.sigma(times))
    rng = np.random.default_rng(8)
    u = float(sig[0]) * rng.standard_normal(2)
    worst = 0.0
    for i in range(times.size - 1):
        pair = TimeGrid(np.array([times[i], times[i + 1]]))
        via_ddim = ddim_sample(axis, VP_LINEAR_BETA, u, pair)
        a, b = float(sig[i]), float(sig[i + 1])
        via_ode = u - a * axis.score(u, a) * (b - a)  # Euler in sigma: du/dsigma = -sigma score
        worst = max(worst, float(np.max(np.abs(via_ddim - via_ode))))
        u = via_ode
    ok = worst < 1e-8
    assert verdict_line(8, ok, f"max per-step deviation {worst:.2e} over "
                               f"{times.size - 1} steps")


def test_criterion_9_slerp_exactness():
    rng = np.random.default_rng(9)
    worst_norm = 0.0
    worst_sym = 0.0
    endpoints_exact = True
    for _ in range(10_000):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        b *= np.linalg.norm(a) / np.linalg.norm(b)
        ends = slerp(a, b, [0.0, 1.0])
        endpoints_exact &= np.array_equal(ends[0], a)
        endpoints_exact &= np.array_equal(ends[1], b)
        lam = rng.uniform(0.05, 0.95)
        out = slerp(a, b, [lam])[0]
        worst_norm = max(worst_norm,
                         abs(np.linalg.norm(out) - np.linalg.norm(a)))
        rev = slerp(b, a, [1.0 - lam])[0]
        worst_sym = max(worst_sym, float(np.max(np.abs(out - rev))))
    ok = endpoints_exact and worst_norm < 1e-10 and worst_sym < 1e-12
    assert verdict_line(9, ok, f"endpoints exact={endpoints_exact}, "
                               f"norm drift {worst_norm:.1e}, "
                               f"asymmetry {worst_sym:.1e}")


def test_criterion_10_replayability():
    configs = [
        ("verify-singularity", {"seed": 10, "trials": 20}),
        ("verify-projection", {"seed": 10, "trials": 500}),
        ("invert", {"seed": 10, "trials": 12, "oracle": {"kind": "toy_image"},
                    "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0,
                             "steps": 40}}),
        ("sweep-tssi", {"seed": 10, "trials": 4,
                        "oracle": {"kind": "gaussian_on_axis"},
                        "t_ssi_ladder": [0.01, 0.1, 0.2],
                        "steps_ladder": [20]}),
        ("interpolate", {"seed": 10, "oracle": {"kind": "gaussian_on_axis"},
                         "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0,
                                  "steps": 30}}),
        ("reconstruct", {"seed": 10, "trials": 150,
                         "oracle": {"kind": "gaussian_on_axis"},
                         "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0,
                                  "steps": 40}}),
    ]
    ok = True
    for command, raw in configs:
        report = run_command(resolve_config(command, raw))
        again = replay(report)
        ok &= json.dumps(report["aggregates"], sort_keys=True) == \
            json.dumps(again["aggregates"], sort_keys=True)
        ok &= json.dumps(report["trials"], sort_keys=True) == \
            json.dumps(again["trials"], sort_keys=True)
    assert verdict_line(10, ok, "all six commands replay bit-identically")

"""Experiment drivers behind the command-line front end.

``run_command`` is the one entry point, and it owns the run report.  It
starts the clock, creates the report (tool version, echoed config and its
hash, then an empty seed ledger, trials, aggregates, verdict, notes and CSV
tables), builds the oracle and the schedule (VE for a config without one)
once, and calls ``cmd_*(cfg, report, oracle, schedule)``, which fills in
only ``seed_ledger``, ``trials``, ``aggregates`` and its ``csv`` table: it
computes statistics and decides nothing.  The verdict (PASS, FAIL or None)
and any note on why none is claimed come from the command's row of
``_VERDICTS`` alone.  ``run_command`` then stamps ``wall_clock_seconds`` and
returns the report as plain JSON values.  All randomness flows through seed
tuples derived from the base seed, so re-running a report's echoed config
reproduces all of it but ``wall_clock_seconds`` bit-identically.  Trials are
reduced sequentially in trial order.

Draw policy: each roundtrip command (``invert``, ``sweep-tssi``,
``reconstruct``) draws one trial batch, clean data from ``(seed, 0xD0)`` and
trial ``i``'s injected noise from ``(seed, i, 0x55)``, and records them in
the ledger as ``data`` and ``trial_i``.  Every cell of the sweep reuses that
batch, so two cells differ only by their ``(steps, t_ssi)``: a paired
comparison (common random numbers), not one blurred by draw noise.
``interpolate`` takes its two endpoints as draws 1 and 2 of the seed: data
from ``(seed, k, 0xD0)`` and noise from ``(seed, k, 0x55)``, in the ledger as
``data_a``, ``noise_a``, ``data_b`` and ``noise_b``.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np

from . import __version__
from .config import (_ssi_grid, build_grid, build_method, build_oracle,
                     build_schedule, config_hash)
from .diagnostics import (chi_square_bound, correlation_metrics,
                          projection_concentration, singularity_trace, trace_rms)
from .flow import sample
from .interp import interpolate_and_decode
from .inversion import (InversionConfig, ddim_invert_baseline, reconstruct,
                        ssi_invert_ve, ssi_invert_vp)
from .oracles import SubspaceGaussianScore, _rng
from .schedules import Family

_TAG_DATA = 0xD0
_TAG_NOISE = 0x55
_TAG_REFERENCE = 0x60D
_TAG_INIT = 0x5A

# regime guard: the projection law is asymptotic in sigma / atom spacing
_REGIME_FRACTION = 0.1


def _ledger_seed(report: dict, role: str, seed: tuple) -> tuple:
    """Record ``seed`` under ``role`` in the report's seed ledger; return it."""
    report["seed_ledger"].append({"role": role, "seed": list(seed)})
    return seed


def _table(rows, columns) -> dict:
    """A CSV table whose cells are ``columns`` read off each row dict."""
    return {"columns": columns, "rows": [[row[c] for c in columns] for row in rows]}


def _trial_batch(cfg: dict, report: dict, oracle, shared: bool = False):
    """The command's one trial batch: clean data ``x0`` and injected noise.

    Data comes from ``(seed, _TAG_DATA)`` and trial ``i``'s noise row from
    ``(seed, i, _TAG_NOISE)``; both seeds go into the ledger as ``data`` and
    ``trial_i``.  With ``shared`` every trial starts from one data draw.
    """
    trials = cfg["trials"]
    data_seed = _ledger_seed(report, "data", (cfg["seed"], _TAG_DATA))
    noise_seeds = [_ledger_seed(report, f"trial_{i}", (cfg["seed"], i, _TAG_NOISE))
                   for i in range(trials)]
    if shared:
        x0 = np.broadcast_to(oracle.sample_data(data_seed, 1),
                             (trials, oracle.dim)).copy()
    else:
        x0 = oracle.sample_data(data_seed, trials)
    noise = np.stack([_rng(s).standard_normal(oracle.dim) for s in noise_seeds])
    return x0, noise


def _ssi_invert_batch(oracle, schedule, grid, x0, noise,
                      keep_trajectory=False):
    inv_cfg = InversionConfig(t_ssi=float(grid.times[0]), grid=grid,
                              noise_seed=None)
    invert = ssi_invert_ve if schedule.family is Family.VE_KARRAS else ssi_invert_vp
    return invert(oracle, schedule, x0, inv_cfg, injected_noise=noise,
                  keep_trajectory=keep_trajectory)


# -- commands ----------------------------------------------------------------


def cmd_verify_singularity(cfg: dict, report: dict, oracle, schedule) -> None:
    """Sample trajectories on VE and check the trace sigma * ||score|| stabilizes."""
    grid_down = build_grid(cfg["grid"]).reversed()
    init_seed = _ledger_seed(report, "init", (cfg["seed"], _TAG_INIT))
    _, traj = sample(schedule, oracle, build_method(cfg), grid_down, init_seed,
                     cfg["trials"])
    sigmas, ratios = singularity_trace(oracle, traj)
    rms = trace_rms(ratios)

    sigma_min = float(sigmas.min())
    decade = sigmas <= 10.0 * sigma_min
    band = rms[decade]
    spread = float((band.max() - band.min()) / band.mean())
    target = float(np.sqrt(oracle.dim - oracle.manifold_dim))
    deviation = float(abs(band.mean() - target) / target)
    # the decade mean's SE by the delta method over trials (trial i moves it by its mean
    # of r^2 / (2 rms)), floored at the chi law's 1 / sqrt(2B): a skewed chi_1^2 sample
    # understates its own spread when its mean is low
    per_trial = (ratios[decade] ** 2 / (2.0 * band[:, None])).mean(axis=0)
    b = per_trial.size
    se = max(float(per_trial.std(ddof=1)) if b > 1 else 0.0, np.sqrt(0.5)) / np.sqrt(b)
    report["trials"] = [{"trial": i, "final_ratio": float(ratios[-1, i])}
                       for i in range(cfg["trials"])]
    report["aggregates"] = {
        "trace_max": float(rms.max()),
        "decade_mean": float(band.mean()),
        "decade_mean_se": float(se),
        "decade_rel_spread": spread,
        "target": target,
        "target_rel_deviation": deviation,
    }
    report["csv"]["trace"] = _table(
        [{"sigma": s, "rms_ratio": r} for s, r in zip(sigmas, rms)], ["sigma", "rms_ratio"])


def cmd_verify_projection(cfg: dict, report: dict, oracle, schedule) -> None:
    """KS-test the projection-distance law over a sigma ladder."""
    from scipy import stats
    rungs = []
    judged = []
    for i, sigma in enumerate(cfg["sigma_ladder"]):
        rung_seed = _ledger_seed(report, f"rung_{i}", (cfg["seed"], i))
        in_regime = sigma <= _REGIME_FRACTION * oracle.feature_scale
        entry = projection_concentration(oracle, sigma, cfg["trials"], rung_seed)
        ratios = entry.pop("ratios")
        entry["asymptotic_regime"] = bool(in_regime)
        if not in_regime:
            entry["flag"] = "asymptotic regime violated"
        else:
            judged.append(ratios)
        rungs.append(entry)
    scale_p = None
    if len(judged) >= 2:
        scale_p = float(stats.ks_2samp(judged[0], judged[1]).pvalue)
    report["trials"] = rungs
    report["aggregates"] = {
        "rungs": rungs,
        "scale_invariance_pvalue": scale_p,
        "judged_rungs": len(judged),
    }
    report["csv"]["concentration"] = _table(
        [r | {"in_regime": int(r["asymptotic_regime"])} for r in rungs],
        ["sigma", "ks_statistic", "ks_pvalue", "coverage_fraction", "ratio_mean", "in_regime"])


def _gaussianity(z, oracle):
    if oracle.grid_shape is None:
        return None
    return correlation_metrics(z.reshape(len(z), *oracle.grid_shape))


def _pairwise_abs_cosine(noises: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(noises, axis=1, keepdims=True)
    unit = noises / norms
    # a row whose norm overflows is scaled by its largest |entry| first
    big = np.isinf(norms[:, 0])
    if big.any():
        rows = noises[big]
        rows = rows / np.abs(rows).max(axis=1, keepdims=True)
        unit[big] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    gram = np.abs(unit @ unit.T)
    b = noises.shape[0]
    off = gram[~np.eye(b, dtype=bool)]
    return float(off.mean())


def _excess_se(rep: dict, ref: dict) -> dict:
    """Each correlation's excess over the reference, in combined standard errors."""
    out = {}
    for name in ("chan", "hori", "vert"):
        se = float(np.hypot(rep[name + "_se"], ref[name + "_se"]))
        diff = rep[name + "_corr"] - ref[name + "_corr"]
        out[name] = diff / se if se > 0 else np.inf
    return out


_INVERSIONS = {"ssi": ("ssi",), "both": ("ssi", "baseline")}


def cmd_invert(cfg: dict, report: dict, oracle, schedule) -> None:
    """Invert oracle samples and measure how Gaussian the noise looks."""
    labels = _INVERSIONS[cfg["method"]]
    x0, noise = _trial_batch(cfg, report, oracle, shared=cfg["shared_input"])
    aggregates = report["aggregates"]
    for label in labels:
        res = (_ssi_invert_batch(oracle, schedule, _ssi_grid(cfg), x0, noise) if label == "ssi"
               else ddim_invert_baseline(oracle, schedule, x0, build_grid(cfg["grid"])))
        sigma_T = float(schedule.sigma(res.final_time))
        aggregates[label + "_metrics"] = _gaussianity(res.noise / sigma_T, oracle)
        aggregates[label + "_mean_abs_cosine"] = _pairwise_abs_cosine(res.noise)

    ref_seed = _ledger_seed(report, "reference", (cfg["seed"], _TAG_REFERENCE))
    z_ref = _rng(ref_seed).standard_normal((cfg["trials"], oracle.dim))
    ref = aggregates["reference_metrics"] = _gaussianity(z_ref, oracle)
    if ref is not None:  # correlations need an image grid
        for label in labels:
            aggregates[label + "_excess_se"] = _excess_se(aggregates[label + "_metrics"], ref)
    rows = [{"which": label, **aggregates[label + "_metrics"]}
            for label in (*labels, "reference")] if ref is not None else []
    report["csv"]["metrics"] = _table(rows, ["which", "chan_corr", "hori_corr",
                                             "vert_corr", "chan_se", "hori_se",
                                             "vert_se"])


def _roundtrip_batch(oracle, schedule, cfg, grid, x0, noise):
    """Invert a batch on ``grid``, reconstruct it; return errors and the trace max."""
    res = _ssi_invert_batch(oracle, schedule, grid, x0, noise,
                            keep_trajectory=True)
    _, ratios = singularity_trace(oracle, res.trajectory)
    x_hat = reconstruct(oracle, schedule, res, grid.reversed(), method=build_method(cfg))
    err = np.linalg.norm(x_hat - x0, axis=-1)
    per_trial_mse = np.mean((x_hat - x0) ** 2, axis=-1)
    return {
        "x_hat": x_hat, "errors": err, "mse": per_trial_mse,
        "trace_max": float(ratios.max()),
        "sigma_ssi": float(schedule.sigma(float(grid.times[0]))),
    }


def cmd_sweep_tssi(cfg: dict, report: dict, oracle, schedule) -> None:
    """Map the roundtrip error over the skipping-time / step-count grid.

    ``interior_minimum`` asks whether the best cell's ``t_ssi`` lies strictly
    inside the ascending ladder (None for fewer than 3 distinct values).
    """
    ladder = cfg["t_ssi_ladder"]
    x0, noise = _trial_batch(cfg, report, oracle)
    table = []
    for steps, t_ssi in itertools.product(cfg["steps_ladder"], ladder):
        out = _roundtrip_batch(oracle, schedule, cfg, _ssi_grid(cfg, t_ssi, steps), x0, noise)
        x_hat = out["x_hat"]
        dist = np.linalg.norm(x_hat - oracle.nearest_manifold_point(x_hat), axis=-1)
        table.append({
            "steps": steps, "t_ssi": t_ssi,
            "mse": float(out["mse"].mean()),
            "manifold_dist": float(dist.mean()),
        })
    best = min(table, key=lambda row: row["mse"])
    report["trials"] = table
    report["aggregates"] = {
        "table": table,
        "best_cell": {"steps": best["steps"], "t_ssi": best["t_ssi"],
                      "mse": best["mse"]},
        # fewer than 3 distinct starts have no interior point
        "interior_minimum": (bool(ladder[0] < best["t_ssi"] < ladder[-1])
                             if len(set(ladder)) >= 3 else None),
    }
    report["csv"]["sweep"] = _table(table, ["steps", "t_ssi", "mse", "manifold_dist"])


def cmd_interpolate(cfg: dict, report: dict, oracle, schedule) -> None:
    """Invert draws 1 and 2, slerp between their noises, decode every frame."""
    grid = _ssi_grid(cfg)
    grid_down = grid.reversed()
    endpoints = []
    for which, draw in (("a", 1), ("b", 2)):
        seed = _ledger_seed(report, f"data_{which}", (cfg["seed"], draw, _TAG_DATA))
        noise_seed = _ledger_seed(report, f"noise_{which}", (cfg["seed"], draw, _TAG_NOISE))
        x0 = oracle.sample_data(seed, 1)[0]
        noise = _rng(noise_seed).standard_normal(oracle.dim)
        endpoints.append(_ssi_invert_batch(oracle, schedule, grid, x0, noise))
    decoded = interpolate_and_decode(oracle, schedule, endpoints[0], endpoints[1],
                                     cfg["lambdas"], grid_down,
                                     method=build_method(cfg))
    sqrt_d = np.sqrt(oracle.dim)
    frames = []
    for lam, x_hat in zip(cfg["lambdas"], decoded):
        dist = float(np.linalg.norm(
            x_hat - oracle.nearest_manifold_point(x_hat)) / sqrt_d)
        frame = {"lambda": float(lam), "manifold_dist": dist}
        if oracle.dim <= 16:
            frame["state"] = x_hat
        frames.append(frame)
    dists = [f["manifold_dist"] for f in frames]
    report["trials"] = frames
    report["aggregates"] = {
        "manifold_dists": dists,
        "max_manifold_dist": max(dists),
    }
    report["csv"]["interpolation"] = _table(frames, ["lambda", "manifold_dist"])


def cmd_reconstruct(cfg: dict, report: dict, oracle, schedule) -> None:
    """Roundtrip trials and check the high-probability error bound."""
    grid = _ssi_grid(cfg)
    x0, noise = _trial_batch(cfg, report, oracle)
    out = _roundtrip_batch(oracle, schedule, cfg, grid, x0, noise)
    delta = cfg["delta"]
    radicand = chi_square_bound(oracle.dim, delta)
    bound = out["trace_max"] + np.sqrt(radicand)
    ratio = out["errors"] / out["sigma_ssi"]
    fraction = float(np.mean(ratio <= bound))
    report["trials"] = [{"trial": i, "error_ratio": float(r)}
                       for i, r in enumerate(ratio)]
    report["aggregates"] = {
        "score_bound_c": out["trace_max"],
        "chi_radicand": radicand,
        "error_bound": float(bound),
        "fraction_within": fraction,
        "delta": delta,
        "mean_mse": float(out["mse"].mean()),
    }
    report["csv"]["reconstruct"] = _table(report["trials"], ["trial", "error_ratio"])


# -- verdicts ----------------------------------------------------------------

ALPHA = 0.05  # design false-FAIL rate of each command's family of tests
_NO_TESTS, _NO_BOUND, _CLAIMED = (lambda a, o: []), (lambda a, o: True), (lambda a, o: None)

# command: (the p-values of its family of tests at ALPHA, whether its fixed
# bounds hold, why it claims no verdict or None), each read off (aggregates, oracle)
_VERDICTS = {
    # on a subspace, the decade mean off sqrt(d - n) in its SEs, two-sided
    "verify-singularity": (
        lambda a, o: [math.erfc(abs(a["decade_mean"] - a["target"]) / a["decade_mean_se"]
                                / math.sqrt(2))] if o.manifold_dim else [],
        lambda a, o: a["decade_rel_spread"] < 0.25, _CLAIMED),
    # each judged rung's KS test against chi(d - n), and two rungs' against each other
    "verify-projection": (
        lambda a, o: [r["ks_pvalue"] for r in a["rungs"] if r["asymptotic_regime"]]
        + [p for p in [a["scale_invariance_pvalue"]] if p is not None], _NO_BOUND,
        lambda a, o: None if a["judged_rungs"] else "no rung inside the asymptotic regime"),
    # each SSI correlation's excess over the fresh-Gaussian reference in its
    # SEs, one-sided; under both, the DDIM baseline's largest excess above 5
    "invert": (
        lambda a, o: [math.erfc(z / math.sqrt(2)) / 2 for z in a["ssi_excess_se"].values()],
        lambda a, o: max(a.get("baseline_excess_se", {"": math.inf}).values()) > 5.0,
        lambda a, o: None if "ssi_excess_se" in a else "correlations need an image grid"),
    "sweep-tssi": (_NO_TESTS, lambda a, o: a["interior_minimum"], lambda a, o: (
        "fewer than 3 distinct t_ssi values" if a["interior_minimum"] is None else
        "a point cloud's roundtrip snaps to an atom, so no t_ssi is an interior minimum"
        if not o.manifold_dim else None)),
    # every decoded frame within 0.1 of the manifold, per unit of sqrt(d)
    "interpolate": (_NO_TESTS, lambda a, o: a["max_manifold_dist"] < 0.1,
                    lambda a, o: "every decoded frame is an exact subspace posterior mean, "
                    "on the subspace" if isinstance(o, SubspaceGaussianScore) else None),
    # its alpha is the config's delta, the chi-square bound's own failure rate
    "reconstruct": (_NO_TESTS, lambda a, o: a["fraction_within"] >= 1.0 - a["delta"], _CLAIMED),
}


def verdict(command: str, aggregates: dict, oracle) -> tuple:
    """``(verdict, notes)`` by the command's ``_VERDICTS`` row: FAIL iff a bound
    fails or the least of the family's m p-values is at most ``ALPHA / m``,
    the first step of Holm (1979), which alone decides if the family rejects;
    a verdict of None comes with the one note that says why."""
    pvalues, bounds, unclaimed = _VERDICTS[command]
    reason = unclaimed(aggregates, oracle)
    if reason is not None:
        return None, [reason + "; no verdict claimed"]
    p = pvalues(aggregates, oracle)
    ok = bounds(aggregates, oracle) and all(v > ALPHA / len(p) for v in p)
    return ("PASS" if ok else "FAIL"), []


_COMMAND_FUNCS = {
    "verify-singularity": cmd_verify_singularity,
    "verify-projection": cmd_verify_projection,
    "invert": cmd_invert,
    "sweep-tssi": cmd_sweep_tssi,
    "interpolate": cmd_interpolate,
    "reconstruct": cmd_reconstruct,
}


def run_command(cfg: dict) -> dict:
    """Run a resolved config's command and return its report; only a library
    domain check (``InvalidArgumentError``) or a divergence can still raise."""
    t0 = time.perf_counter()
    report = {
        "tool": "ssilab",
        "version": __version__,
        "command": cfg["command"],
        "config": dict(cfg),
        "config_sha256": config_hash(cfg),
        "seed_ledger": [],
        "trials": [],
        "aggregates": {},
        "verdict": None,
        "notes": [],
        "csv": {},
    }
    oracle = build_oracle(cfg)
    _COMMAND_FUNCS[cfg["command"]](cfg, report, oracle, build_schedule(cfg))
    report["verdict"], report["notes"] = verdict(cfg["command"], report["aggregates"], oracle)
    report["wall_clock_seconds"] = time.perf_counter() - t0
    return json.loads(json.dumps(report, default=lambda v: v.tolist()))  # plain JSON values


def replay(report: dict) -> dict:
    """Re-run a report from its echoed config (without writing outputs)."""
    return run_command(dict(report["config"]))

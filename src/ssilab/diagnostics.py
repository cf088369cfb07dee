"""Quantitative diagnostics: Gaussianity, reconstruction error, concentration.

The correlation metrics treat each state as a (C, H, W) grid and measure mean
absolute Pearson correlation between channels and between adjacent pixels,
computed per image and averaged over the batch.  Absolute published values at
other resolutions do not transfer; always compare against a fresh-Gaussian
reference computed by the same code.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, UndefinedCorrelationError
from .flow import Trajectory
from .oracles import _rng

_COVERAGE_EPSILON = 0.05  # tail mass outside the calibrated coverage band


def _abs_pearson_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|Pearson r| between matching rows of two ``(B, n)`` arrays."""
    sa, sb = a.std(axis=1), b.std(axis=1)
    if np.any(sa == 0.0) or np.any(sb == 0.0):
        raise UndefinedCorrelationError("correlation of a constant signal is undefined")
    cov = np.mean((a - a.mean(axis=1, keepdims=True))
                  * (b - b.mean(axis=1, keepdims=True)), axis=1)
    return np.abs(cov / (sa * sb))


def _abs_r_per_image(noises: np.ndarray, grid_shape=None) -> dict:
    """The ``(B,)`` arrays of per-image |r| that ``correlation_metrics`` averages."""
    noises = np.asarray(noises, dtype=float)
    if noises.ndim == 2:
        if grid_shape is None:
            raise InvalidArgumentError("flat noises need a grid_shape")
        noises = noises.reshape((noises.shape[0],) + tuple(grid_shape))
    if noises.ndim != 4:
        raise InvalidArgumentError("expected a (B, C, H, W) batch")
    b, c, h, w = noises.shape
    if c < 2 or h < 2 or w < 2:
        raise InvalidArgumentError("need C >= 2 and H, W >= 2")
    # one row per image with contiguous rows, so each row reduction sums in
    # the same order as on the image alone and matches a per-image loop
    channels = noises.reshape(b, c, h * w)
    chan = np.stack([_abs_pearson_rows(channels[:, i], channels[:, j])
                     for i in range(c) for j in range(i + 1, c)], axis=1).mean(axis=1)
    hori = _abs_pearson_rows(noises[..., :-1].reshape(b, -1),
                             noises[..., 1:].reshape(b, -1))
    vert = _abs_pearson_rows(noises[:, :, :-1].reshape(b, -1),
                             noises[:, :, 1:].reshape(b, -1))
    return {"chan": chan, "hori": hori, "vert": vert}


def correlation_metrics(noises: np.ndarray, grid_shape=None) -> dict:
    """Mean absolute inter-channel / horizontal / vertical correlations.

    ``noises`` is ``(B, C, H, W)``, or ``(B, d)`` together with ``grid_shape``.
    Each |r| is computed per image (channel pairs for CHAN; right- and
    down-neighbour pixel pairs pooled over the image for HORI/VERT), then
    averaged over the batch.  Returns ``{chan,hori,vert}_corr``,
    ``sample_count`` (B) and the standard errors ``{chan,hori,vert}_se``.
    """
    per_image = _abs_r_per_image(noises, grid_shape)
    b = per_image["chan"].size

    def _se(v):
        return float(v.std(ddof=1) / np.sqrt(b)) if b > 1 else 0.0
    out = {f"{name}_corr": float(v.mean()) for name, v in per_image.items()}
    out["sample_count"] = b
    out.update({f"{name}_se": _se(v) for name, v in per_image.items()})
    return out


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidArgumentError("mse needs matching shapes")
    return float(np.mean((a - b) ** 2))


def ssim(a: np.ndarray, b: np.ndarray, dynamic_range: float,
         window: int = 8, k1: float = 0.01, k2: float = 0.03) -> float:
    """Single-scale SSIM with a uniform window, averaged over channels.

    Inputs are (C, H, W) grids; the window slides in valid mode, so it must
    fit inside the image.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 3:
        raise InvalidArgumentError("ssim needs matching (C, H, W) grids")
    _, h, w = a.shape
    if window > h or window > w:
        raise InvalidArgumentError("window larger than image")
    if dynamic_range <= 0:
        raise InvalidArgumentError("dynamic range must be positive")
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2

    def _windows(img):
        win = np.lib.stride_tricks.sliding_window_view(img, (window, window), axis=(1, 2))
        return win.reshape(win.shape[0], win.shape[1], win.shape[2], -1)

    wa, wb = _windows(a), _windows(b)
    mu_a = wa.mean(axis=-1)
    mu_b = wb.mean(axis=-1)
    var_a = wa.var(axis=-1)
    var_b = wb.var(axis=-1)
    cov = (wa * wb).mean(axis=-1) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def singularity_trace(oracle, trajectory: Trajectory):
    """Per-point ratio ``||E[x0|x_t] - x_t|| / sigma_t`` along a trajectory.

    Returns ``(sigmas, ratios)``; for batched trajectories the ratio array is
    ``(n_times, batch)``.  Equal to ``sigma_t * ||score||`` pointwise.  The
    states are the integrator's scaled ``s(t) u``; each is divided by
    ``s(t)`` (unless exactly 1, as on VE) so the oracle sees ``u``.  The norm
    sums as ``np.linalg.norm(axis=-1)`` does, in the posterior mean's array.
    """
    times = trajectory.grid.times
    sigmas = np.asarray(trajectory.schedule.sigma(times))
    if np.any(sigmas <= 0):
        raise InvalidArgumentError("trace needs sigma > 0 on every grid point")
    scales = np.asarray(trajectory.schedule.scale(times))
    ratios = np.empty(trajectory.states.shape[:-1])
    for i in range(times.size):
        x = trajectory.states[i] if scales[i] == 1.0 else trajectory.states[i] / scales[i]
        r = oracle.posterior_mean(x, float(sigmas[i]))
        r -= x
        r *= r
        ratios[i] = np.sqrt(np.add.reduce(r, axis=-1)) / sigmas[i]
    return sigmas, ratios


def trace_rms(ratios: np.ndarray) -> np.ndarray:
    """Root-mean-square of a batched trace over the batch axis.

    The squared ratio averages to the normal dimension ``d - n`` in the
    small-noise limit, so the RMS curve converges to ``sqrt(d - n)``.
    """
    ratios = np.asarray(ratios)
    if ratios.ndim == 1:
        return ratios
    return np.sqrt(np.mean(ratios**2, axis=tuple(range(1, ratios.ndim))))


def projection_concentration(oracle, sigma: float, trials: int, seed) -> dict:
    """Distribution of the projection distance over ``sigma`` at small noise.

    Draws ``x = x0 + sigma * n`` from the forward process, measures
    ``||x - nearest_manifold_point(x)|| / sigma``, and KS-tests the ratios
    against the chi distribution with ``d - n`` degrees of freedom.  The
    coverage band around ``sqrt(d - n)`` is calibrated on a pilot half of the
    batch (sub-Gaussian tail ``2 exp(-k A^2)`` with ``k`` fitted empirically)
    and evaluated on the fresh half.

    Returns the ``ratios`` array followed by the summary values a report
    stores.  A sigma so small that the pilot ratios do not vary (the noise is
    lost in rounding, or the distance underflows), or so large that a
    distance overflows, is rejected.
    """
    from scipy import stats

    if trials < 100:
        raise InvalidArgumentError("need at least 100 trials")
    if sigma <= 0:
        raise InvalidArgumentError("sigma must be positive")
    x0 = oracle.sample_data((seed, 0xDA7A), trials)
    x = x0 + sigma * _rng((seed, 0x401)).standard_normal(x0.shape)
    proj = oracle.nearest_manifold_point(x)
    with np.errstate(over="ignore"):
        ratios = np.linalg.norm(x - proj, axis=-1) / sigma
    if not np.all(np.isfinite(ratios)):
        raise InvalidArgumentError(f"sigma={sigma:g} overflows the projection distance")
    df = oracle.dim - oracle.manifold_dim
    ks = stats.kstest(ratios, stats.chi(df).cdf)
    half = trials // 2
    pilot, fresh = ratios[:half], ratios[half:]
    pilot_var = float(pilot.var())
    if pilot_var <= 0.0:
        raise InvalidArgumentError(f"sigma={sigma:g} is below the data's resolution")
    k_hat = 1.0 / (2.0 * pilot_var)
    a_eps = float(np.sqrt(np.log(2.0 / _COVERAGE_EPSILON) / k_hat))
    center = np.sqrt(df)
    lo, hi = center - a_eps, center + a_eps
    coverage = float(np.mean((fresh >= lo) & (fresh <= hi)))
    return {
        "ratios": ratios, "coverage_fraction": coverage, "band": [lo, hi],
        "ks_statistic": float(ks.statistic), "ks_pvalue": float(ks.pvalue),
        "df": df, "sigma": float(sigma), "trials": int(ratios.size),
        "ratio_mean": float(ratios.mean()),
        "ratio_rms": float(np.sqrt(np.mean(ratios**2))),
    }


def chi_square_bound(d: int, delta: float) -> float:
    """High-probability bound on the squared norm of a standard Gaussian.

    Returns the radicand ``d + 2 sqrt(-d log delta) - 2 log delta``; the
    squared norm exceeds it with probability at most ``delta``.
    """
    if d < 1:
        raise InvalidArgumentError("d must be at least 1")
    if not 0.0 < delta < 1.0:
        raise InvalidArgumentError("delta must lie in (0, 1)")
    log_delta = np.log(delta)
    bound = d + 2.0 * np.sqrt(-d * log_delta) - 2.0 * log_delta
    return float(bound)

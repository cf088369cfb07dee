"""Noise-space inversion: singularity skipping, DDIM baseline, reconstruction.

Singularity-skipping inversion (SSI) injects Gaussian noise at a strictly
positive skipping time, then Euler-integrates the flow ODE up to the final
time; the singular region near zero noise is never visited.  The baseline is
the classical explicit DDIM inversion that lags the denoiser input by one
step and starts at the smallest positive grid time.

Every scheme here runs on the step kernel of :mod:`ssilab.flow`: SSI and ODE
reconstruction through :func:`~ssilab.flow.integrate`, the DDIM sampler and
the lagged baseline as plans of their own on the continuous VP schedule
(``sig``, ``s``: noise level and scale per time):

    DDIM sampler:     a = 1,  b = -sig_a (sig_b - sig_a),  c = 1,  sigma_hat = sig_a
    lagged baseline:  a = (1 - psi_i/s_i)/phi_i,  b = -psi_i sig_{i+1}^2/phi_i,
                      c = 1/s_i,  sigma_hat = sig_{i+1}

The baseline row is ``x <- (x - psi_i D(x/s_i, sig_{i+1}))/phi_i`` with the
Tweedie denoiser ``D(y, sigma) = y + sigma^2 score(y, sigma)``.

Conventions: ``InversionResult.noise`` is always stored in unscaled
coordinates (divide the scaled VP state by ``s(T)``); times ascend for
inversion and descend for sampling.  VE has ``s = 1`` exactly, so scaling
by ``s`` leaves VE states bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .flow import Method, Trajectory, _run_plan, denoise_to_mean, integrate
from .oracles import _check_state, _rng
from .schedules import Family, NoiseSchedule, TimeGrid


@dataclass(frozen=True, eq=False)
class InversionConfig:
    t_ssi: float
    grid: TimeGrid
    noise_seed: object

    def __post_init__(self):
        if self.grid.times[0] >= self.grid.times[-1]:
            raise InvalidArgumentError("inversion grid must ascend")
        if not self.t_ssi > 0:  # NaN fails
            raise InvalidArgumentError("skipping time must be positive")
        if abs(self.grid.times[0] - self.t_ssi) > 0:
            raise InvalidArgumentError("SSI grid must start at the skipping time")


@dataclass(frozen=True, eq=False)
class InversionResult:
    noise: np.ndarray  # unscaled state at the grid's last time
    grid: TimeGrid  # the ascending grid it was inverted on
    trajectory: Trajectory | None = None
    injected_noise: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.noise)):
            raise InvalidArgumentError("inverted noise must be finite")

    @property
    def final_time(self) -> float:
        """The inversion grid's last time, where ``noise`` sits."""
        return float(self.grid.times[-1])


def ssi_invert_ve(oracle, schedule: NoiseSchedule, x0, cfg: InversionConfig,
                  keep_trajectory: bool = False,
                  injected_noise: np.ndarray | None = None) -> InversionResult:
    """Skip to ``t_ssi`` by adding noise, then Euler-invert the VE flow to T.

    ``injected_noise`` overrides the seeded draw (used by experiment drivers
    that derive one noise row per trial).
    """
    if schedule.family is not Family.VE_KARRAS:
        raise InvalidArgumentError("VE inversion needs a VE schedule")
    return _ssi_invert(oracle, schedule, x0, cfg, keep_trajectory, injected_noise)


def ssi_invert_vp(oracle, schedule: NoiseSchedule, x0, cfg: InversionConfig,
                  keep_trajectory: bool = False,
                  injected_noise: np.ndarray | None = None) -> InversionResult:
    """SSI in scaled VP coordinates; returns the unscaled final state."""
    if schedule.family is not Family.VP_LINEAR_BETA:
        raise InvalidArgumentError("VP inversion needs a VP schedule")
    return _ssi_invert(oracle, schedule, x0, cfg, keep_trajectory, injected_noise)


def _ssi_invert(oracle, schedule, x0, cfg, keep_trajectory, injected_noise):
    """Shared SSI body: start at ``s (x0 + sigma n)`` and Euler-integrate."""
    x0 = _check_state(x0, oracle.dim)
    if injected_noise is None:
        injected_noise = _rng(cfg.noise_seed).standard_normal(x0.shape)
    n = _check_state(injected_noise, oracle.dim)
    if n.shape != x0.shape:
        raise InvalidArgumentError("injected noise must match the data shape")
    s0 = float(schedule.scale(cfg.t_ssi))
    sig0 = float(schedule.sigma(cfg.t_ssi))
    x_start = s0 * x0 + s0 * sig0 * n
    run = integrate(schedule, oracle, Method.EULER, x_start, cfg.grid,
                    keep_states=keep_trajectory)
    traj, x_end = (run, run.states[-1]) if keep_trajectory else (None, run)
    noise = x_end / float(schedule.scale(float(cfg.grid.times[-1])))
    return InversionResult(noise=noise, grid=cfg.grid, trajectory=traj,
                           injected_noise=n)


# -- DDIM maps --------------------------------------------------------------


def _vp_levels(schedule: NoiseSchedule, times: np.ndarray):
    """Scaling and noise level at each grid time."""
    if schedule.family is not Family.VP_LINEAR_BETA:
        raise InvalidArgumentError("DDIM path needs a VP schedule")
    s = np.asarray(schedule.scale(times))
    sig = np.asarray(schedule.sigma(times))
    if np.any(sig <= 0):
        raise InvalidArgumentError("all grid times need sigma > 0")
    return s, sig


def ddim_coefficients(schedule: NoiseSchedule, grid: TimeGrid):
    """Read ``(phi, psi, scales, sigmas)`` off the explicit DDIM update.

    ``phi[i]`` and ``psi[i]`` map the state at the higher time of step ``i``
    to the lower time: ``x_lo = phi * x_hi + psi * D(x_hi / s_hi, sigma_hi)``
    in scaled coordinates, step ``i`` joining times ``i`` and ``i + 1`` of
    the ascending grid; ``scales`` and ``sigmas`` are s and sigma at each
    grid time.  A descending grid is refused, not reversed.
    """
    if grid.times[0] > grid.times[-1]:
        raise InvalidArgumentError("DDIM coefficients need an ascending grid")
    s, sig = _vp_levels(schedule, grid.times)
    s_lo, s_hi = s[:-1], s[1:]
    sig_lo, sig_hi = sig[:-1], sig[1:]
    phi = (s_lo * sig_lo) / (s_hi * sig_hi)
    if np.any(phi == 0):
        raise InvalidArgumentError("phi must be nonzero at every step")
    psi = s_lo * (sig_hi - sig_lo) / sig_hi
    return phi, psi, s, sig


def ddim_sample(oracle, schedule: NoiseSchedule, x_start, grid_descending: TimeGrid):
    """Iterate the explicit DDIM update down the grid.

    ``x_start`` is the unscaled state at the grid's first (largest) time.
    The noise prediction is exact, ``eps = -sigma * score(x, sigma)``, so
    each step is ``u - sig_a (sig_b - sig_a) score(u, sig_a)``.  Returns the
    unscaled state at the last (smallest) grid time.
    """
    times = grid_descending.times
    if times[0] <= times[-1]:
        raise InvalidArgumentError("sampling grid must descend")
    _, sig = _vp_levels(schedule, times)
    plan = (1.0, -sig[:-1] * np.diff(sig), 1.0, sig[:-1], times[:-1])
    return _run_plan(oracle, x_start, plan)


def ddim_invert_baseline(oracle, schedule: NoiseSchedule, x0,
                         grid_ascending: TimeGrid) -> InversionResult:
    """Explicit DDIM inversion with the one-step-lagged denoiser input.

    The clean input is treated as the state at the grid's first (smallest
    positive) time; each step divides by the sampler multiplier phi, with the
    denoiser evaluated at the previous state but the new noise level.
    """
    phi, psi, s, sig = ddim_coefficients(schedule, grid_ascending)
    plan = ((1.0 - psi / s[:-1]) / phi, -psi * sig[1:] ** 2 / phi, 1.0 / s[:-1],
            sig[1:], grid_ascending.times[1:])
    x_tilde = _run_plan(oracle, s[0] * _check_state(x0, oracle.dim), plan)
    return InversionResult(noise=x_tilde / s[-1], grid=grid_ascending)


def reconstruct(oracle, schedule: NoiseSchedule, result: InversionResult,
                grid_descending: TimeGrid, method: Method = Method.EULER):
    """ODE-decode inverted noise down the grid and denoise to the mean."""
    times = grid_descending.times
    if times[0] <= times[-1]:
        raise InvalidArgumentError("reconstruction grid must descend")
    if abs(float(times[0]) - result.final_time) > 1e-9:
        raise InvalidArgumentError("grid must start at the inversion's final time")
    t_end = float(times[-1])
    start = float(schedule.scale(times[0])) * result.noise
    x_end = integrate(schedule, oracle, method, start, grid_descending,
                      keep_states=False)
    u = x_end / float(schedule.scale(t_end))
    return denoise_to_mean(oracle, u, float(schedule.sigma(t_end)))

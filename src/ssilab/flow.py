"""Probability-flow ODE integration for VE and VP formulations.

Every explicit scheme in the package is one step kernel,
``x_{i+1} = a_i x_i + b_i score(c_i x_i, sigma_hat_i)``, run on a plan of
per-step arrays built once per grid from the drift ``p x + q score(r x, sigma)``:

    VE:         p = 0,        q = -sigma_dot sigma,    r = 1
    VP scaled:  p = s_dot/s,  q = -s sigma_dot sigma,  r = 1/s
    Euler:      (a, b, c, sigma_hat) = (1 + h p_i, h q_i, r_i, sigma_i)
    Heun:       Euler, then (x, pred) -> x/2 + a pred + b score(c pred, sigma_hat)
                with (1/2 + h p_{i+1}/2, h q_{i+1}/2, r_{i+1}, sigma_{i+1})

Steps are signed: descending grids sample, ascending grids invert.  VP states
are scaled, ``s(t) u``, and the score sees the unscaled ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import IntegrationDivergedError, InvalidArgumentError
from .oracles import SubspaceGaussianScore
from .schedules import Family, NoiseSchedule, TimeGrid


class Method(str, Enum):
    EULER = "euler"
    HEUN = "heun"


class Formulation(str, Enum):
    VE = "ve"
    VP_SCALED = "vp_scaled"


# the one formulation each schedule family integrates in; VP states are scaled
_FORMULATION = {Family.VE_KARRAS: Formulation.VE,
                Family.VP_LINEAR_BETA: Formulation.VP_SCALED}


@dataclass(frozen=True)
class IntegratorSpec:
    method: Method = Method.EULER
    formulation: Formulation = Formulation.VE


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed path of states; ``states[i]`` matches ``grid.times[i]``.

    ``states`` has shape ``(len(grid), ..., d)`` so a batch of trajectories
    shares one grid.
    """

    states: np.ndarray
    grid: TimeGrid
    schedule: NoiseSchedule

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.shape[0] != len(self.grid):
            raise InvalidArgumentError("states and grid lengths differ")
        if not np.all(np.isfinite(states)):
            raise InvalidArgumentError("trajectory contains non-finite states")
        object.__setattr__(self, "states", states)

    @property
    def sigmas(self) -> np.ndarray:
        return np.asarray(self.schedule.sigma(self.grid.times))


def _drift_coefficients(schedule: NoiseSchedule, formulation: Formulation, times):
    """``(p, q, r, sigma)`` at each time, the drift being ``p x + q score(r x, sigma)``.

    Raises :class:`InvalidArgumentError` unless ``formulation`` is the one of
    the schedule's family (VE on ``VE_KARRAS``, VP_SCALED on ``VP_LINEAR_BETA``).
    """
    expected = _FORMULATION[schedule.family]
    if formulation != expected:
        raise InvalidArgumentError(
            f"the {schedule.family.value} schedule needs the {expected.value} formulation")
    sigma = np.asarray(schedule.sigma(times))
    if np.any(sigma <= 0.0):
        raise InvalidArgumentError("drift undefined where sigma(t) = 0")
    sigma_dot = np.asarray(schedule.sigma_dot(times))
    if expected is Formulation.VE:
        return np.zeros_like(sigma), -sigma_dot * sigma, np.ones_like(sigma), sigma
    s = np.asarray(schedule.scale(times))
    s_dot = np.asarray(schedule.scale_dot(times))
    return s_dot / s, -s * sigma_dot * sigma, 1.0 / s, sigma


def ode_drift(schedule: NoiseSchedule, oracle, x, t: float,
              formulation: Formulation = Formulation.VE):
    """Right-hand side ``p x + q score(r x, sigma)`` of the flow ODE at ``(x, t)``."""
    p, q, r, sigma = (float(v) for v in _drift_coefficients(schedule, formulation, t))
    x = np.asarray(x, dtype=float)
    return p * x + q * oracle.score(r * x, sigma)


def _rows(plan):
    """Per-step ``(a, b, c, sigma_hat)`` floats; scalar entries broadcast."""
    return zip(*(v.tolist() for v in np.broadcast_arrays(*plan)))


def _run_plan(oracle, x, plan, corrector=None, out=None):
    """Step ``x`` through ``plan`` and, for Heun, ``corrector``; return the end state.

    Fills ``out`` with every state when given.  Raises
    :class:`IntegrationDivergedError` at the first non-finite state or prediction.
    """
    if out is not None:
        out[0] = x
    score = oracle.score
    fixes = _rows(corrector) if corrector is not None else repeat(None)
    for i, ((a, b, c, sigma), fix) in enumerate(zip(_rows(plan), fixes)):
        x_next = a * x + b * score(c * x, sigma)
        if fix is not None and np.all(np.isfinite(x_next)):
            a, b, c, sigma = fix
            x_next = 0.5 * x + a * x_next + b * score(c * x_next, sigma)
        if not np.all(np.isfinite(x_next)):
            raise IntegrationDivergedError(i)
        x = x_next
        if out is not None:
            out[i + 1] = x
    return x


def integrate(schedule: NoiseSchedule, oracle, spec: IntegratorSpec,
              x_start, grid: TimeGrid) -> Trajectory:
    """March ``x_start`` across ``grid`` with Euler or Heun steps.

    Heun is the trapezoidal predictor-corrector with a single correction pass.
    Raises :class:`IntegrationDivergedError` with the failing step index if a
    state goes non-finite.
    """
    times = grid.times
    n = times.size - 1
    heun = spec.method is Method.HEUN
    # Euler never evaluates the drift at the grid's last time
    p, q, r, sigma = _drift_coefficients(schedule, spec.formulation,
                                         times if heun else times[:n])
    h = np.diff(times)
    plan = (1.0 + h * p[:n], h * q[:n], r[:n], sigma[:n])
    corrector = ((0.5 + 0.5 * h * p[1:], 0.5 * h * q[1:], r[1:], sigma[1:])
                 if heun else None)
    out = np.empty((times.size,) + np.shape(x_start))
    _run_plan(oracle, np.asarray(x_start, dtype=float), plan, corrector, out)
    return Trajectory(states=out, grid=grid, schedule=schedule)


def gaussian_exact(oracle: SubspaceGaussianScore, x_start, t_start: float,
                   t_end: float, schedule: NoiseSchedule = None):
    """Closed-form VE flow map for the subspace-Gaussian oracle.

    With the linear score the flow decouples: the coefficient along basis
    column ``i`` (latent variance ``lam_i``) scales by
    ``sqrt((lam_i + t_end^2) / (lam_i + t_start^2))`` and the normal component
    scales by ``t_end / t_start``.  Used as the exact reference for
    convergence-order tests.
    """
    if not isinstance(oracle, SubspaceGaussianScore):
        raise InvalidArgumentError("exact flow map needs a subspace-Gaussian oracle")
    if schedule is not None and schedule.family is not Family.VE_KARRAS:
        raise InvalidArgumentError("exact flow map is for the VE schedule")
    x = np.asarray(x_start, dtype=float)
    y = x - oracle.offset
    coef = y @ oracle.basis
    normal = y - coef @ oracle.basis.T
    lam = oracle.latent_stddevs**2
    coef_end = coef * np.sqrt((lam + t_end**2) / (lam + t_start**2))
    if t_start == 0.0:
        if np.max(np.abs(normal)) > 0.0:
            raise InvalidArgumentError(
                "flow map from t=0 is singular for states off the subspace")
        normal_end = np.zeros_like(normal)
    else:
        normal_end = normal * (t_end / t_start)
    return oracle.offset + coef_end @ oracle.basis.T + normal_end


def denoise_to_mean(oracle, x, sigma: float):
    """Final explicit clean-up step: replace the state by its posterior mean."""
    return oracle.posterior_mean(x, sigma)


def sample(schedule: NoiseSchedule, oracle, spec: IntegratorSpec,
           grid_descending: TimeGrid, seed, count: int,
           return_trajectory: bool = False):
    """Draw ``count`` samples by integrating from pure noise down the grid.

    Initialises at ``N(0, sigma(t_max)^2 I)`` (scaled for VP), integrates to
    the grid's last (smallest) time, then applies the denoise-to-mean step.
    """
    if grid_descending.times[0] <= grid_descending.times[-1]:
        raise InvalidArgumentError("sampling needs a descending grid")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # r maps the formulation's state to the unscaled state the score sees
    _, _, r, sigma = _drift_coefficients(schedule, spec.formulation,
                                         grid_descending.times[[0, -1]])
    x_init = sigma[0] * rng.standard_normal((count, oracle.dim)) / r[0]
    traj = integrate(schedule, oracle, spec, x_init, grid_descending)
    x0 = denoise_to_mean(oracle, traj.states[-1] * r[1], float(sigma[1]))
    return (x0, traj) if return_trajectory else x0


def trajectory_to_csv(traj: Trajectory, path, summary_only: bool = False) -> None:
    """Write a trajectory as CSV with columns step, t, sigma, then the state.

    With ``summary_only`` the state columns collapse to the Euclidean norm
    (useful for high-dimensional or batched trajectories).
    """
    times = traj.grid.times
    sigmas = np.asarray(traj.schedule.sigma(times))
    states = traj.states
    rows = []
    if summary_only or states.ndim > 2:
        flat = states.reshape(states.shape[0], -1, states.shape[-1])
        norms = np.linalg.norm(flat, axis=-1)
        header = ["step", "t", "sigma"] + [f"norm_{j}" for j in range(norms.shape[1])]
        for i in range(times.size):
            rows.append([i, times[i], sigmas[i], *norms[i]])
    else:
        header = ["step", "t", "sigma"] + [f"x{j}" for j in range(states.shape[-1])]
        for i in range(times.size):
            rows.append([i, times[i], sigmas[i], *states[i]])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v))
                              for v in row) + "\n")

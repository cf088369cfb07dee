"""Probability-flow ODE integration for VE and VP schedules.

Every explicit scheme in the package is one step kernel,
``x_{i+1} = a_i x_i + b_i score(c_i x_i, sigma_hat_i)``, run on a plan of
per-step arrays built once per grid from the drift ``p x + q score(r x, sigma)``:

    drift:  p = s_dot/s,  q = -s sigma_dot sigma,  r = 1/s
    Euler:  (a, b, c, sigma_hat) = (1 + h p_i, h q_i, r_i, sigma_i)
    Heun:   Euler, then (x, pred) -> x/2 + a pred + b score(c pred, sigma_hat)
            with (1/2 + h p_{i+1}/2, h q_{i+1}/2, r_{i+1}, sigma_{i+1})

The drift is the flow ODE in the scaled state ``s(t) u``; the score sees the
unscaled ``u``.  VE has ``s = 1`` and ``s_dot = 0`` exactly, so there the
drift is ``(0, -sigma_dot sigma, 1)`` to the bit.  Steps are signed:
descending grids sample, ascending grids invert.

Memory: each state is a fresh ``(B, d)`` array, or the score's own result,
or its slot in the kept trajectory, so a run that keeps no states holds
O(B d) at a time whatever the grid length.  Keeping states (``integrate``'s
default) adds the ``(len(grid), B, d)`` trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import IntegrationDivergedError, InvalidArgumentError
from .oracles import SubspaceGaussianScore, _all_finite, _rng
from .schedules import NoiseSchedule, TimeGrid


class Method(str, Enum):
    EULER = "euler"
    HEUN = "heun"


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

    @classmethod
    def _from_kernel(cls, states, grid, schedule):
        """The trajectory of ``integrate``'s own float buffer, unchecked: the
        kernel shaped it ``(len(grid), ..., d)`` and raised at its first
        non-finite state, so a second full pass would find nothing."""
        traj = object.__new__(cls)
        for name, value in (("states", states), ("grid", grid), ("schedule", schedule)):
            object.__setattr__(traj, name, value)
        return traj


def _drift_coefficients(schedule: NoiseSchedule, times):
    """``(p, q, r, sigma)`` at each time, the drift being ``p x + q score(r x, sigma)``."""
    sigma = np.asarray(schedule.sigma(times))
    if np.any(sigma <= 0.0):
        raise InvalidArgumentError("drift undefined where sigma(t) = 0")
    sigma_dot = np.asarray(schedule.sigma_dot(times))
    s = np.asarray(schedule.scale(times))
    s_dot = np.asarray(schedule.scale_dot(times))
    return s_dot / s, -s * sigma_dot * sigma, 1.0 / s, sigma


def _rows(plan):
    """Per-step floats of the plan's columns; scalar entries broadcast."""
    return zip(*(v.tolist() for v in np.broadcast_arrays(*plan)))


def _scaled_score(score, x, c, sigma, step, sigma_hat, t):
    """``score(c x, sigma)``; step ``step`` diverged if it raises on an overflowed ``c x``."""
    scaled = x if c == 1.0 else c * x
    try:
        return score(scaled, sigma)
    except Exception as exc:
        if np.isfinite(x).all() and not np.isfinite(scaled).all():
            raise IntegrationDivergedError(step, sigma_hat, t) from exc
        raise


def _run_plan(oracle, x, plan, corrector=None, out=None):
    """Step ``x`` through ``plan`` and, for Heun, ``corrector``; return the end state.

    ``plan`` has the columns ``(a, b, c, sigma_hat, t)``, ``t`` the time of
    ``sigma_hat``; ``corrector`` has ``(a, b, c, sigma_hat)``.  Fills ``out``
    with every state when given.  Raises :class:`IntegrationDivergedError` at
    the first non-finite state, prediction or score input, with the step
    index and the ``sigma_hat`` and ``t`` of its plan row.
    Floating-point warnings are silenced: that check is the whole contract.
    Each state is written once, into its slot of ``out``, a fresh array or the
    one ``score`` returned, and a product by exactly 1 (VE's and DDIM's ``a``
    and ``c``) is skipped; ``x`` and the arrays given to ``score`` are never written.
    """
    if out is not None:
        out[0] = x
    score = oracle.score
    fixes = _rows(corrector) if corrector is not None else repeat(None)
    with np.errstate(all="ignore"):
        for i, ((a, b, c, sigma, t), fix) in enumerate(zip(_rows(plan), fixes)):
            # x_next = a x + b score(c x, sigma); a Heun prediction keeps out of the slot
            slot = out[i + 1] if out is not None and fix is None else None
            step = _scaled_score(score, x, c, sigma, i, sigma, t)
            step *= b
            ax = x if a == 1.0 else np.multiply(a, x, out=slot)
            x_next = np.add(ax, step, out=step if slot is None else slot)
            if fix is not None and _all_finite(x_next):
                # x_next = x/2 + fa pred + fb score(fc pred, fsigma), pred = x_next
                fa, fb, fc, fsigma = fix
                fixed = _scaled_score(score, x_next, fc, fsigma, i, sigma, t)
                fixed *= fb
                x_next = np.multiply(fa, x_next, out=None if out is None else out[i + 1])
                x_next += 0.5 * x
                x_next += fixed
            if not _all_finite(x_next):
                raise IntegrationDivergedError(i, sigma, t)
            x = x_next
    return x


def integrate(schedule: NoiseSchedule, oracle, method: Method,
              x_start, grid: TimeGrid, keep_states: bool = True):
    """March ``x_start`` across ``grid`` with Euler or Heun steps.

    Heun is the trapezoidal predictor-corrector with a single correction pass.
    Returns the :class:`Trajectory` of every state, or with
    ``keep_states=False`` only the end state, bit-identical to the
    trajectory's last one and without the ``(len(grid), ..., d)`` array.
    ``x_start`` is not modified.  Raises :class:`IntegrationDivergedError`
    with the failing step index if a state goes non-finite.
    """
    times = grid.times
    n = times.size - 1
    heun = method is Method.HEUN
    # Euler never evaluates the drift at the grid's last time
    p, q, r, sigma = _drift_coefficients(schedule, times if heun else times[:n])
    h = np.diff(times)
    plan = (1.0 + h * p[:n], h * q[:n], r[:n], sigma[:n], times[:n])
    corrector = ((0.5 + 0.5 * h * p[1:], 0.5 * h * q[1:], r[1:], sigma[1:])
                 if heun else None)
    x_start = np.asarray(x_start, dtype=float)
    if not keep_states:
        return _run_plan(oracle, x_start, plan, corrector)
    out = np.empty((times.size,) + x_start.shape)
    _run_plan(oracle, x_start, plan, corrector, out)
    return Trajectory._from_kernel(out, grid, schedule)


def gaussian_exact(oracle: SubspaceGaussianScore, x_start, t_start: float,
                   t_end: float):
    """Closed-form VE flow map for the subspace-Gaussian oracle.

    With the linear score the flow decouples: the coefficient along basis
    column ``i`` (latent variance ``lam_i``) scales by
    ``sqrt((lam_i + t_end^2) / (lam_i + t_start^2))`` and the normal component
    scales by ``t_end / t_start``.  Used as the exact reference for
    convergence-order tests.
    """
    if not isinstance(oracle, SubspaceGaussianScore):
        raise InvalidArgumentError("exact flow map needs a subspace-Gaussian oracle")
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


def sample(schedule: NoiseSchedule, oracle, method: Method,
           grid_descending: TimeGrid, seed, count: int):
    """Draw ``count`` samples by integrating from pure noise down the grid.

    Initialises at ``N(0, sigma(t_max)^2 I)`` (scaled for VP), integrates to
    the grid's last (smallest) time, then applies the denoise-to-mean step.
    Returns ``(samples, trajectory)``, the trajectory holding every
    integrator state.
    """
    if grid_descending.times[0] <= grid_descending.times[-1]:
        raise InvalidArgumentError("sampling needs a descending grid")
    # r maps the scaled state to the unscaled state the score sees
    _, _, r, sigma = _drift_coefficients(schedule, grid_descending.times[[0, -1]])
    x_init = sigma[0] * _rng(seed).standard_normal((count, oracle.dim)) / r[0]
    traj = integrate(schedule, oracle, method, x_init, grid_descending)
    x0 = denoise_to_mean(oracle, traj.states[-1] * r[1], float(sigma[1]))
    return x0, traj


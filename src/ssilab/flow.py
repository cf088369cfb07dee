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
from .oracles import SubspaceGaussianScore, _all_finite, _check_state, _rng
from .schedules import NoiseSchedule, TimeGrid


class Method(str, Enum):
    EULER = "euler"
    HEUN = "heun"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed path of states; ``states[i]`` matches ``grid.times[i]``.

    ``states`` has shape ``(len(grid), ..., d)`` so a batch of trajectories
    shares one grid.  States are checked finite where they are used:
    ``singularity_trace`` hands each to the oracle's checked ``posterior_mean``.
    """

    states: np.ndarray
    grid: TimeGrid
    schedule: NoiseSchedule

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.shape[:1] != (len(self.grid),):
            raise InvalidArgumentError("states and grid lengths differ")
        object.__setattr__(self, "states", states)


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


def _scaled(c, x):
    """``c x`` with an overflow left ``inf``, for ``score`` to refuse."""
    with np.errstate(over="ignore"):
        return c * x


def _run_plan(oracle, x, plan, corrector=None, keep_states=False):
    """Step ``x`` through ``plan`` and, for Heun, ``corrector``; return the end state.

    ``plan`` has the columns ``(a, b, c, sigma_hat, t)``, ``t`` the time of
    ``sigma_hat``; ``corrector`` has ``(a, b, c, sigma_hat)``.  With
    ``keep_states``, returns every state as one ``(steps + 1, ..., d)`` array.
    The caller's start state is checked once (:class:`InvalidArgumentError`,
    exit 2).  After that ``score`` sees only checked kernel states, their
    scaled copies and Heun predictions, so a non-finite state made by step
    ``i``, or any ``InvalidArgumentError`` from ``score`` during it, is
    :class:`IntegrationDivergedError` (exit 3) with ``i`` and the
    ``sigma_hat`` and ``t`` of its plan row.  So is a floating-point
    overflow, invalid operation or division by zero during step ``i`` that
    the oracle does not handle itself (numpy raises them in the loop;
    underflow is ignored), but not one in the score's input ``c x``: that
    stays ``inf``, which ``score`` refuses.  Each state is written once,
    into its kept slot, a fresh array or the one ``score`` returned; a
    product by exactly 1 (VE's and DDIM's ``a`` and ``c``) is skipped; ``x``
    and the arrays given to ``score`` are never written.
    """
    x = _check_state(x, oracle.dim)
    out = None
    if keep_states:
        out = np.empty((np.broadcast(*plan).size + 1,) + x.shape)
        out[0] = x
    score = oracle.score
    fixes = _rows(corrector) if corrector is not None else repeat(None)
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        for i, ((a, b, c, sigma, t), fix) in enumerate(zip(_rows(plan), fixes)):
            # x_next = a x + b score(c x, sigma); a Heun prediction keeps out of the slot
            slot = out[i + 1] if out is not None and fix is None else None
            try:
                step = score(x if c == 1.0 else _scaled(c, x), sigma)
                step *= b
                ax = x if a == 1.0 else np.multiply(a, x, out=slot)
                x_next = np.add(ax, step, out=step if slot is None else slot)
                if fix is not None:
                    # x_next = x/2 + fa pred + fb score(fc pred, fsigma), pred = x_next
                    fa, fb, fc, fsigma = fix
                    fixed = score(x_next if fc == 1.0 else _scaled(fc, x_next), fsigma)
                    fixed *= fb
                    x_next = np.multiply(fa, x_next, out=None if out is None else out[i + 1])
                    x_next += 0.5 * x
                    x_next += fixed
            except (InvalidArgumentError, FloatingPointError) as exc:
                raise IntegrationDivergedError(i, sigma, t) from exc
            if not _all_finite(x_next):
                raise IntegrationDivergedError(i, sigma, t)
            x = x_next
    return x if out is None else out


def integrate(schedule: NoiseSchedule, oracle, method: Method,
              x_start, grid: TimeGrid, keep_states: bool = True):
    """March ``x_start`` across ``grid`` with Euler or Heun steps.

    Heun is the trapezoidal predictor-corrector with a single correction pass.
    Returns the :class:`Trajectory` of every state, or with
    ``keep_states=False`` only the end state, bit-identical to the
    trajectory's last one and without the ``(len(grid), ..., d)`` array.
    ``x_start`` is not modified.  Raises :class:`InvalidArgumentError` for a
    ``method`` that is not a :class:`Method` member (a string is refused, not
    converted) or a start state that is not a finite ``(..., d)`` array, and
    :class:`IntegrationDivergedError` with the failing step index if the
    integration diverges (see :func:`_run_plan`).
    """
    if not isinstance(method, Method):
        raise InvalidArgumentError(f"method must be a Method, not {method!r}")
    times = grid.times
    n = times.size - 1
    heun = method is Method.HEUN
    # Euler never evaluates the drift at the grid's last time
    p, q, r, sigma = _drift_coefficients(schedule, times if heun else times[:n])
    h = np.diff(times)
    plan = (1.0 + h * p[:n], h * q[:n], r[:n], sigma[:n], times[:n])
    corrector = ((0.5 + 0.5 * h * p[1:], 0.5 * h * q[1:], r[1:], sigma[1:])
                 if heun else None)
    run = _run_plan(oracle, x_start, plan, corrector, keep_states)
    return Trajectory(run, grid, schedule) if keep_states else run


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
    coef = x @ oracle.basis
    normal = x - coef @ oracle.basis.T
    lam = oracle.latent_stddevs**2
    coef_end = coef * np.sqrt((lam + t_end**2) / (lam + t_start**2))
    if t_start == 0.0:
        if np.max(np.abs(normal)) > 0.0:
            raise InvalidArgumentError(
                "flow map from t=0 is singular for states off the subspace")
        normal_end = np.zeros_like(normal)
    else:
        normal_end = normal * (t_end / t_start)
    return coef_end @ oracle.basis.T + normal_end


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


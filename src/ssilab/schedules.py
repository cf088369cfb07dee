"""Noise / scaling schedules and discrete time grids.

Two schedule families are supported:

* ``VE_KARRAS``: variance-exploding with ``sigma(t) = t`` and unit scaling,
  defined for all ``t >= 0``.
* ``VP_LINEAR_BETA``: variance-preserving with a linear rate
  ``beta(t) = beta0 + beta1_slope * t`` on ``t in [0, 1]``.  The cumulative
  signal level has the closed form ``abar(t) = exp(-(beta0*t + beta1_slope*t^2/2))``,
  from which ``sigma = sqrt((1 - abar)/abar)`` and ``s = sqrt(abar)``, so that
  ``s(t)^2 * (1 + sigma(t)^2) = 1`` holds identically.

All schedule operations accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError


class Family(str, Enum):
    VE_KARRAS = "ve_karras"
    VP_LINEAR_BETA = "vp_linear_beta"


@dataclass(frozen=True)
class NoiseSchedule:
    """Noise level sigma(t) and scaling s(t) with analytic derivatives."""

    family: Family
    beta0: float = 0.1
    beta1_slope: float = 19.9

    # -- domain ------------------------------------------------------------

    def _check_domain(self, t, interior: bool = False) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise InvalidArgumentError("time must be finite")
        if self.family is Family.VE_KARRAS:
            lo_ok = (t > 0) if interior else (t >= 0)
            if not np.all(lo_ok):
                raise InvalidArgumentError(f"VE schedule requires t >= 0, got {t}")
        else:
            lo_ok = (t > 0) if interior else (t >= 0)
            if not np.all(lo_ok & (t <= 1.0)):
                raise InvalidArgumentError(f"VP schedule requires t in [0, 1], got {t}")
        return t

    def _log_abar(self, t) -> np.ndarray:
        """log(abar(t)) = -(beta0*t + beta1_slope*t^2/2)."""
        return -(self.beta0 * t + 0.5 * self.beta1_slope * t * t)

    def beta(self, t):
        """Instantaneous rate beta(t) for the VP family."""
        t = self._check_domain(t)
        return self.beta0 + self.beta1_slope * t

    def alpha_bar(self, t):
        """Continuous cumulative signal level abar(t) = exp(-integral of beta)."""
        t = self._check_domain(t)
        if self.family is Family.VE_KARRAS:
            raise InvalidArgumentError("alpha_bar is only defined for the VP family")
        return np.exp(self._log_abar(t))

    # -- schedule values ---------------------------------------------------

    def sigma(self, t):
        t = self._check_domain(t)
        if self.family is Family.VE_KARRAS:
            return t + 0.0
        # sigma^2 = (1 - abar)/abar = expm1(-log abar)
        return np.sqrt(np.expm1(-self._log_abar(t)))

    def sigma_dot(self, t):
        t = self._check_domain(t, interior=(self.family is Family.VP_LINEAR_BETA))
        if self.family is Family.VE_KARRAS:
            return np.ones_like(t) if t.shape else 1.0
        # d/dt sqrt(exp(B) - 1) with B(t) = beta0*t + beta1_slope*t^2/2
        big_b = -self._log_abar(t)
        beta = self.beta0 + self.beta1_slope * t
        return beta * np.exp(big_b) / (2.0 * np.sqrt(np.expm1(big_b)))

    def scale(self, t):
        t = self._check_domain(t)
        if self.family is Family.VE_KARRAS:
            return np.ones_like(t) if t.shape else 1.0
        return np.exp(0.5 * self._log_abar(t))

    def scale_dot(self, t):
        t = self._check_domain(t)
        if self.family is Family.VE_KARRAS:
            return np.zeros_like(t) if t.shape else 0.0
        beta = self.beta0 + self.beta1_slope * t
        return -0.5 * beta * np.exp(0.5 * self._log_abar(t))


VE_KARRAS = NoiseSchedule(Family.VE_KARRAS)
VP_LINEAR_BETA = NoiseSchedule(Family.VP_LINEAR_BETA)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly monotone sequence of time values."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("time grid needs at least 2 points")
        if not np.all(np.isfinite(times)):
            raise InvalidArgumentError("time grid must be finite")
        d = np.diff(times)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise InvalidArgumentError("time grid must be strictly monotone")
        times = times.copy()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.times.size

    def reversed(self) -> "TimeGrid":
        return TimeGrid(self.times[::-1])


def karras_grid(t_min: float, t_max: float, rho: float, n_steps: int) -> TimeGrid:
    """Power-law warped time ladder between ``t_min`` and ``t_max``.

    Returns an ascending grid of length ``n_steps + 1`` whose first entry is 0,
    second entry is exactly ``t_min`` and last entry exactly ``t_max``; the
    interior follows the rho-warped interpolation between the endpoints'
    ``1/rho`` powers.
    """
    if not (0 < t_min < t_max):
        raise InvalidArgumentError("need 0 < t_min < t_max")
    if rho <= 0:
        raise InvalidArgumentError("rho must be positive")
    if n_steps < 2:
        raise InvalidArgumentError("need at least 2 steps")
    inv = 1.0 / rho
    lo, hi = t_min**inv, t_max**inv
    i = np.arange(1, n_steps + 1)
    interior = (lo + (i - 1) / (n_steps - 1) * (hi - lo)) ** rho
    # pin the endpoints bit-exactly regardless of rounding in the power chain
    interior[0] = t_min
    interior[-1] = t_max
    return TimeGrid(np.concatenate(([0.0], interior)))


def ddim_kappa_grid(full_steps: int, stride: int, offset: int) -> TimeGrid:
    """Subsequence of the uniform ``i / full_steps`` ladder.

    Selects indices ``offset, offset + stride, ...`` within ``1..full_steps``
    and maps each index ``i`` to the continuous time ``i / full_steps``.
    """
    indices = kappa_indices(full_steps, stride, offset)
    return TimeGrid(indices.astype(float) / full_steps)


def kappa_indices(full_steps: int, stride: int, offset: int) -> np.ndarray:
    """Discrete step indices underlying :func:`ddim_kappa_grid`."""
    if full_steps < 1 or stride < 1:
        raise InvalidArgumentError("full_steps and stride must be positive")
    if not (1 <= offset <= stride):
        raise InvalidArgumentError("need 1 <= offset <= stride")
    indices = np.arange(offset, full_steps + 1, stride)
    if indices.size < 2:
        raise InvalidArgumentError("kappa subsequence has fewer than 2 entries")
    return indices


def alpha_bar_discrete(schedule: NoiseSchedule, full_steps: int) -> np.ndarray:
    """Discrete-product cumulative signal level at indices ``1..full_steps``.

    Uses ``beta_i = beta(i / full_steps) / full_steps`` and the running product
    of ``1 - beta_i``.  Index ``i`` lives at position ``i - 1`` of the result.
    This is the discrete compatibility path; :meth:`NoiseSchedule.alpha_bar`
    is the continuous default.
    """
    if schedule.family is not Family.VP_LINEAR_BETA:
        raise InvalidArgumentError("discrete alpha_bar is only defined for the VP family")
    if full_steps < 1:
        raise InvalidArgumentError("full_steps must be positive")
    t = np.arange(1, full_steps + 1) / full_steps
    beta_i = (schedule.beta0 + schedule.beta1_slope * t) / full_steps
    if np.any(beta_i >= 1.0):
        raise InvalidArgumentError("discrete beta exceeds 1; decrease the step size")
    return np.cumprod(1.0 - beta_i)

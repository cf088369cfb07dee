"""Noise / scaling schedules and discrete time grids.

Two schedule families are supported:

* ``VE_KARRAS``: variance-exploding with ``sigma(t) = t`` and unit scaling,
  defined for all ``t >= 0``.
* ``VP_LINEAR_BETA``: variance-preserving with a linear rate
  ``beta(t) = beta0 + beta1_slope * t`` on ``t in [0, 1]``, with the fixed
  constants ``beta0 = 0.1`` and ``beta1_slope = 19.9``.  The cumulative
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


_BETA0 = 0.1
_BETA1_SLOPE = 19.9


@dataclass(frozen=True)
class NoiseSchedule:
    """Noise level sigma(t) and scaling s(t) with analytic derivatives."""

    family: Family

    # -- domain ------------------------------------------------------------

    def _check_domain(self, t, interior: bool = False) -> np.ndarray:
        """Checked times; a time out of range is named alone in the error."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise InvalidArgumentError("time must be finite")
        lo_ok = (t > 0) if interior else (t >= 0)
        if self.family is Family.VE_KARRAS:
            if not np.all(lo_ok):
                raise InvalidArgumentError(
                    f"VE schedule requires t >= 0, got t = {float(t.min())}")
        elif not np.all(lo_ok & (t <= 1.0)):
            bad = t.max() if t.max() > 1.0 else t.min()
            raise InvalidArgumentError(
                f"VP schedule requires t in {'(0' if interior else '[0'}, 1], "
                f"got t = {float(bad)}")
        return t

    def _log_abar(self, t) -> np.ndarray:
        """log(abar(t)) = -(beta0*t + beta1_slope*t^2/2)."""
        return -(_BETA0 * t + 0.5 * _BETA1_SLOPE * t * t)

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
        beta = _BETA0 + _BETA1_SLOPE * t
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
        beta = _BETA0 + _BETA1_SLOPE * t
        return -0.5 * beta * np.exp(0.5 * self._log_abar(t))


VE_KARRAS = NoiseSchedule(Family.VE_KARRAS)
VP_LINEAR_BETA = NoiseSchedule(Family.VP_LINEAR_BETA)


@dataclass(frozen=True, eq=False)
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
    if not rho > 0:  # NaN fails
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


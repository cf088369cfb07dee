"""Spherical interpolation of inverted noise and decoding through the sampler."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .flow import Method
from .inversion import InversionResult, reconstruct
from .schedules import TimeGrid

_PARALLEL_THETA = 1e-6


@dataclass(frozen=True)
class SlerpPair:
    x_a: np.ndarray
    x_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.x_a, dtype=float)
        b = np.asarray(self.x_b, dtype=float)
        if a.shape != b.shape:
            raise InvalidArgumentError("slerp endpoints must share a shape")
        if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
            raise InvalidArgumentError("slerp endpoints must be nonzero")
        object.__setattr__(self, "x_a", a)
        object.__setattr__(self, "x_b", b)

    @property
    def angle_theta(self) -> float:
        cos = np.dot(self.x_a.ravel(), self.x_b.ravel()) / (
            np.linalg.norm(self.x_a) * np.linalg.norm(self.x_b))
        return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def slerp(pair: SlerpPair, lam: float) -> np.ndarray:
    """Great-circle interpolation ``sin((1-l)t)/sin t * a + sin(l t)/sin t * b``.

    Falls back to linear interpolation below an angle of 1e-6 rad (the exact
    limit of the formula); antipodal inputs are rejected because the rotation
    plane is undefined there.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgumentError("lambda must lie in [0, 1]")
    if lam == 0.0:
        return pair.x_a.copy()
    if lam == 1.0:
        return pair.x_b.copy()
    theta = pair.angle_theta
    if theta > np.pi - _PARALLEL_THETA:
        raise InvalidArgumentError("antipodal endpoints: slerp undefined")
    if theta < _PARALLEL_THETA:
        return (1.0 - lam) * pair.x_a + lam * pair.x_b
    sin_t = np.sin(theta)
    return (np.sin((1.0 - lam) * theta) / sin_t) * pair.x_a + (
        np.sin(lam * theta) / sin_t) * pair.x_b


def interpolate_and_decode(oracle, schedule, result_a: InversionResult,
                           result_b: InversionResult, lambdas,
                           grid_descending: TimeGrid,
                           method: Method = Method.EULER) -> list[np.ndarray]:
    """SLERP the two inverted noises at each lambda and ODE-decode each one."""
    if abs(result_a.final_time - result_b.final_time) > 1e-12:
        raise InvalidArgumentError("inversion results end at different times")
    pair = SlerpPair(result_a.noise, result_b.noise)
    frames = []
    for lam in lambdas:
        noise = slerp(pair, float(lam))
        mixed = InversionResult(noise=noise, config=result_a.config)
        frames.append(reconstruct(oracle, schedule, mixed, grid_descending,
                                  method=method))
    return frames

"""Spherical interpolation of inverted noise and decoding through the sampler."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidArgumentError
from .flow import Method
from .inversion import InversionResult, reconstruct
from .schedules import TimeGrid

_PARALLEL_THETA = 1e-6


def slerp(x_a, x_b, lambdas) -> np.ndarray:
    """Great-circle interpolation ``sin((1-l)t)/sin t * a + sin(l t)/sin t * b``.

    Returns one row per ``l`` in ``lambdas``, as an ``(L, ...)`` array.  Rows
    at ``l = 0`` and ``l = 1`` are exactly ``a`` and ``b``.  Below an angle of
    1e-6 rad the interior rows are linear interpolation (the exact limit of
    the formula); antipodal endpoints are rejected when any ``l`` is
    interior, because the rotation plane is undefined there.
    """
    a = np.asarray(x_a, dtype=float)
    b = np.asarray(x_b, dtype=float)
    lams = np.asarray(lambdas, dtype=float)
    if a.shape != b.shape:
        raise InvalidArgumentError("slerp endpoints must share a shape")
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise InvalidArgumentError("slerp endpoints must be nonzero")
    if lams.ndim != 1 or not np.all((lams >= 0.0) & (lams <= 1.0)):
        raise InvalidArgumentError("lambdas must be a 1-D list in [0, 1]")
    theta = np.arccos(np.clip(np.dot(a.ravel(), b.ravel()) / (norm_a * norm_b),
                              -1.0, 1.0))
    if np.any((lams > 0.0) & (lams < 1.0)) and theta > np.pi - _PARALLEL_THETA:
        raise InvalidArgumentError("antipodal endpoints: slerp undefined")
    lam = lams.reshape((-1,) + (1,) * a.ndim)
    if theta < _PARALLEL_THETA:
        out = (1.0 - lam) * a + lam * b
    else:
        sin_t = np.sin(theta)
        out = (np.sin((1.0 - lam) * theta) / sin_t) * a + (
            np.sin(lam * theta) / sin_t) * b
    out[lams == 0.0] = a
    out[lams == 1.0] = b
    return out


def interpolate_and_decode(oracle, schedule, result_a: InversionResult,
                           result_b: InversionResult, lambdas,
                           grid_descending: TimeGrid,
                           method: Method = Method.EULER) -> list[np.ndarray]:
    """SLERP the two inverted noises at every lambda and ODE-decode each row."""
    if abs(result_a.final_time - result_b.final_time) > 1e-12:
        raise InvalidArgumentError("inversion results end at different times")
    return [reconstruct(oracle, schedule, replace(result_a, noise=row),
                        grid_descending, method=method)
            for row in slerp(result_a.noise, result_b.noise, lambdas)]

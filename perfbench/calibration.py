"""Calibration kernels: fixed work that calls no ssilab code.

The host's speed drifts by tens of percent over tens of seconds, so wall
time alone does not compare runs.  Each op is timed between two runs of its
workload's kernel, and the end-to-end op metrics are op time in units of the
kernel's time (unit ``cal``).  Interpreter-bound and memory-bound code
slow down differently under contention, so each workload names the kernel
that does the kind of work its ops do.
"""

from __future__ import annotations

import time

import numpy as np


def _inputs(points: int):
    rng = np.random.default_rng(0xCA1)
    return rng.standard_normal((32, 192)), rng.standard_normal((points, 192))


def interpreter_seconds() -> float:
    """Interpreted Python, many numpy calls on small arrays, a small matmul:
    the per-call overhead that batch-1 and batch-16 ops are made of."""
    x, points = _inputs(64)
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    for _ in range(200):
        if not np.all(np.isfinite(x * 2.0 + 1.0)):
            raise AssertionError("calibration input must be finite")
    sq = np.sum((x[:, None, :] - points) ** 2, axis=-1)
    gram = x @ points.T
    seconds = time.perf_counter() - start
    if not np.isfinite(acc + sq[0, 0] + gram[0, 0]):
        raise AssertionError("calibration output must be finite")
    return seconds


def memory_seconds() -> float:
    """One (32, 256, 192) broadcast difference, squared and summed: the
    large-temporary work of a point-cloud score at batch 32."""
    x, points = _inputs(256)
    start = time.perf_counter()
    diff = x[:, None, :] - points
    sq = np.sum(diff * diff, axis=-1)
    seconds = time.perf_counter() - start
    if not np.isfinite(sq[0, 0]):
        raise AssertionError("calibration output must be finite")
    return seconds

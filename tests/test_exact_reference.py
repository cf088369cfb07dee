"""SSI and decoding on the toy image against their exact answers.

The toy image (``toy_image_subspace()``) is an unperturbed subspace oracle,
so its flow map is closed-form (``flow.gaussian_exact``), and in unscaled
sigma-coordinates VE and VP share it.  With ``x_s = x0 + sigma_0 n``:

* the exact inverted noise is ``gaussian_exact(oracle, x_s, sigma_0, sigma_T)``;
* the exact decode of that noise, and the exact roundtrip, is
  ``posterior_mean(x_s, sigma_0)``: the exact flow returns ``x_s`` and the
  final denoise is exact.

Each error is relative, ``|got - exact| / |exact|`` over the whole batch.
The order of a scheme is read off the error ratios of successive grids.
Grids are built as a config builds them: a Karras grid with ``steps: N``
has N points and runs N - 1 steps, because its zero anchor is dropped; a
uniform grid runs N steps.

Each bound is ``MARGIN`` times a figure measured once on other draws; every
error here comes to at most 0.81 of its bound, under one or two BLAS
threads, at B = 1, 16 and 300.
"""

import numpy as np
import pytest

from ssilab import (InversionConfig, InversionResult, Method, VE_KARRAS,
                    VP_LINEAR_BETA, gaussian_exact, reconstruct, ssi_invert_ve,
                    ssi_invert_vp, toy_image_subspace)
from ssilab.config import build_grid

MARGIN = 1.25
T_SSI = 0.1
VE_GRID = {"kind": "karras", "t_min": T_SSI, "t_max": 80.0, "rho": 7.0}
VP_GRID = {"kind": "uniform", "t_min": T_SSI, "t_max": 0.999}
# config steps -> measured relative error.  The inversions are the figures of
# 16 and 64 other rows; every row of a decode has the same relative error,
# since each of the toy image's latent stddevs is 1.
VE_INVERSION = {40: 1.31e-2, 100: 5.23e-3, 200: 2.61e-3}
VP_INVERSION = {50: 3.61e-2, 200: 9.08e-3, 800: 2.27e-3}
DECODE = {Method.EULER: {40: 5.0e-2, 100: 2.0e-2, 200: 1.0e-2},
          Method.HEUN: {40: 4.91e-3, 100: 7.44e-4, 200: 1.83e-4}}
ROUNDTRIP = {40: 9.75e-2, 100: 3.96e-2, 200: 1.99e-2}
ORDER_TOLERANCE = 0.1  # measured orders lie within 0.03 of 1 and 2
BATCHES = pytest.mark.parametrize("batch", [1, 16, 300], ids=["b1", "b16", "b300"])


@pytest.fixture(scope="module")
def oracle():
    return toy_image_subspace()


def draws(oracle, batch):
    """``batch`` clean rows and the noise that SSI injects into them."""
    x0 = oracle.sample_data((7, batch), batch)
    noise = np.random.default_rng(np.random.SeedSequence((8, batch))).standard_normal(x0.shape)
    return x0, noise


def relative_error(got, exact):
    return float(np.linalg.norm(got - exact) / np.linalg.norm(exact))


def assert_converges(errors, grids, order, figures):
    """Each error lies below ``MARGIN`` times its figure, and each ratio of
    successive errors gives ``order`` against the grids' step counts."""
    for steps, err in errors.items():
        assert err <= MARGIN * figures[steps], (steps, err)
    steps = [len(grids[s]) - 1 for s in errors]
    errs = list(errors.values())
    for i in range(len(errs) - 1):
        fitted = np.log(errs[i] / errs[i + 1]) / np.log(steps[i + 1] / steps[i])
        assert abs(fitted - order) < ORDER_TOLERANCE, (steps[i], fitted)


def assert_within_error_fraction(a, b, exact, fraction=1e-9):
    """Precision guard: two paths that compute the same rows agree, row by
    row, within ``fraction`` of ``a``'s own distance to the exact answer.

    A path that moves bits (a new batching, a fused product) passes while
    its move stays far below its error; a change of scheme moves the error
    itself, by about 0.5% per step added or dropped, and fails."""
    move = np.linalg.norm(a - b, axis=-1)
    err = np.linalg.norm(a - exact, axis=-1)
    assert np.all(err > 0.0)
    assert np.all(move <= fraction * err), float(np.max(move / err))


def invert(oracle, schedule, grid, x0, noise):
    run = ssi_invert_ve if schedule is VE_KARRAS else ssi_invert_vp
    return run(oracle, schedule, x0, InversionConfig(T_SSI, grid, None),
                  injected_noise=noise)


def ve_grids():
    return {steps: build_grid(VE_GRID | {"steps": steps}) for steps in VE_INVERSION}


@BATCHES
def test_ve_ssi_converges_at_first_order_to_the_exact_flow_map(oracle, batch):
    x0, noise = draws(oracle, batch)
    grids = ve_grids()
    exact = gaussian_exact(oracle, x0 + T_SSI * noise, T_SSI, 80.0)
    errors = {steps: relative_error(invert(oracle, VE_KARRAS, grid, x0, noise).noise, exact)
              for steps, grid in grids.items()}
    assert_converges(errors, grids, 1.0, VE_INVERSION)


@BATCHES
def test_vp_ssi_converges_at_first_order_to_the_exact_flow_map(oracle, batch):
    x0, noise = draws(oracle, batch)
    grids = {steps: build_grid(VP_GRID | {"steps": steps}) for steps in VP_INVERSION}
    sigma_0, sigma_t = (float(VP_LINEAR_BETA.sigma(t)) for t in (T_SSI, 0.999))
    exact = gaussian_exact(oracle, x0 + sigma_0 * noise, sigma_0, sigma_t)
    errors = {steps: relative_error(invert(oracle, VP_LINEAR_BETA, grid, x0, noise).noise,
                                    exact)
              for steps, grid in grids.items()}
    assert_converges(errors, grids, 1.0, VP_INVERSION)


@BATCHES
@pytest.mark.parametrize("method,order", [(Method.EULER, 1.0), (Method.HEUN, 2.0)],
                         ids=["euler", "heun"])
def test_decoding_the_exact_noise_converges_to_the_posterior_mean(oracle, batch,
                                                                 method, order):
    x0, noise = draws(oracle, batch)
    x_s = x0 + T_SSI * noise
    exact_noise = gaussian_exact(oracle, x_s, T_SSI, 80.0)
    want = oracle.posterior_mean(x_s, T_SSI)
    grids = ve_grids()
    errors = {steps: relative_error(reconstruct(
                  oracle, VE_KARRAS, InversionResult(noise=exact_noise, grid=grid),
                  grid.reversed(), method), want)
              for steps, grid in grids.items()}
    assert_converges(errors, grids, order, DECODE[method])


@BATCHES
def test_euler_roundtrip_converges_at_first_order_to_the_posterior_mean(oracle, batch):
    x0, noise = draws(oracle, batch)
    want = oracle.posterior_mean(x0 + T_SSI * noise, T_SSI)
    grids = ve_grids()
    errors = {steps: relative_error(reconstruct(
                  oracle, VE_KARRAS, invert(oracle, VE_KARRAS, grid, x0, noise),
                  grid.reversed()), want)
              for steps, grid in grids.items()}
    assert_converges(errors, grids, 1.0, ROUNDTRIP)


def test_a_row_inverted_alone_agrees_with_its_batch_within_the_guard(oracle):
    x0, noise = draws(oracle, 16)
    grid = ve_grids()[200]
    exact = gaussian_exact(oracle, x0 + T_SSI * noise, T_SSI, 80.0)
    batch = invert(oracle, VE_KARRAS, grid, x0, noise).noise
    for i in range(len(x0)):
        alone = invert(oracle, VE_KARRAS, grid, x0[i:i + 1], noise[i:i + 1]).noise
        assert_within_error_fraction(alone, batch[i:i + 1], exact[i:i + 1])


def test_the_guard_fails_a_change_of_scheme(oracle):
    x0, noise = draws(oracle, 16)
    exact = gaussian_exact(oracle, x0 + T_SSI * noise, T_SSI, 80.0)
    a, b = (invert(oracle, VE_KARRAS, build_grid(VE_GRID | {"steps": steps}), x0, noise).noise
            for steps in (200, 201))
    with pytest.raises(AssertionError):
        assert_within_error_fraction(a, b, exact)

"""The step kernel against the per-step loops it replaced, and divergence.

The reference loops below are the integrators as written before every
explicit scheme ran on one kernel: a per-step drift with scalar schedule
calls, Euler/Heun built from it, the posterior-mean DDIM sampler and the
denoiser-based lagged DDIM inversion.  The kernel reorders the same float64
arithmetic, so states agree to a relative tolerance fixed in advance from the
dtype (1e-12 on each state row's norm), not bit for bit.
"""

import numpy as np
import pytest

from ssilab import (Formulation, IntegrationDivergedError, IntegratorSpec,
                    Method, PerturbedScoreOracle, TimeGrid, VE_KARRAS,
                    VP_LINEAR_BETA, ddim_coefficients, ddim_invert_baseline,
                    ddim_sample, gaussian_on_axis, integrate, karras_grid,
                    toy_image_subspace)
from ssilab.cli import main
from ssilab.oracles import SubspaceGaussianScore, _OracleBase

RTOL = 1e-12
BATCH = 8


@pytest.fixture(scope="module")
def oracle():
    return PerturbedScoreOracle(base=toy_image_subspace(), magnitude=1e-3)


def reference_drift(schedule, oracle, x, t, formulation):
    sigma = float(schedule.sigma(t))
    sigma_dot = float(schedule.sigma_dot(t))
    if formulation is Formulation.VE:
        return -sigma_dot * sigma * oracle.score(x, sigma)
    s = float(schedule.scale(t))
    s_dot = float(schedule.scale_dot(t))
    return (s_dot / s) * x - s * sigma_dot * sigma * oracle.score(x / s, sigma)


def reference_integrate(schedule, oracle, spec, x, times):
    states = [x]
    for i in range(times.size - 1):
        t0, t1 = float(times[i]), float(times[i + 1])
        h = t1 - t0
        d0 = reference_drift(schedule, oracle, x, t0, spec.formulation)
        if spec.method is Method.EULER:
            x = x + h * d0
        else:
            d1 = reference_drift(schedule, oracle, x + h * d0, t1, spec.formulation)
            x = x + 0.5 * h * (d0 + d1)
        states.append(x)
    return np.stack(states)


def reference_ddim_sample(schedule, oracle, u, times):
    s = np.asarray(schedule.scale(times))
    sig = np.asarray(schedule.sigma(times))
    for i in range(times.size - 1):
        sig_a, sig_b = float(sig[i]), float(sig[i + 1])
        eps = (u - oracle.posterior_mean(u, sig_a)) / sig_a
        u = s[i + 1] * (u + (sig_b - sig_a) * eps) / s[i + 1]
    return u


def reference_baseline(oracle, coeffs, x0):
    s, sig = coeffs.scales, coeffs.sigmas
    x_tilde = s[0] * x0
    states = [x_tilde / s[0]]
    for i in range(s.size - 1):
        lagged = oracle.denoise(x_tilde / s[i], float(sig[i + 1]))
        x_tilde = (x_tilde - coeffs.psi[i] * lagged) / coeffs.phi[i]
        states.append(x_tilde / s[i + 1])
    return np.stack(states)


def assert_rows_close(got, want):
    err = np.linalg.norm(got - want, axis=-1)
    assert np.all(err <= RTOL * np.linalg.norm(want, axis=-1)), err.max()


def _start(oracle, schedule, t, seed):
    """Data noised to time ``t``, in the coordinates of ``schedule``'s flow."""
    x0 = oracle.sample_data((seed, 1), BATCH)
    noise = np.random.default_rng(seed).standard_normal(x0.shape)
    return float(schedule.scale(t)) * (x0 + float(schedule.sigma(t)) * noise)


_VE_TIMES = karras_grid(0.002, 80.0, 7.0, 40).times[1:]
_VP_TIMES = np.linspace(0.1, 0.999, 41)


@pytest.mark.parametrize("method", [Method.EULER, Method.HEUN])
@pytest.mark.parametrize("formulation,schedule,times", [
    (Formulation.VE, VE_KARRAS, _VE_TIMES),
    (Formulation.VP_SCALED, VP_LINEAR_BETA, _VP_TIMES)], ids=["ve", "vp"])
@pytest.mark.parametrize("descending", [False, True], ids=["up", "down"])
def test_integrate_matches_reference_loop(oracle, method, formulation, schedule,
                                          times, descending):
    times = times[::-1] if descending else times
    spec = IntegratorSpec(method, formulation)
    x = _start(oracle, schedule, times[0], 7)
    traj = integrate(schedule, oracle, spec, x, TimeGrid(times))
    assert_rows_close(traj.states, reference_integrate(schedule, oracle, spec, x, times))


def test_ddim_sample_matches_reference_loop(oracle):
    times = _VP_TIMES[::-1]
    u = _start(oracle, VE_KARRAS, float(VP_LINEAR_BETA.sigma(times[0])), 8)
    got = ddim_sample(oracle, VP_LINEAR_BETA, u, TimeGrid(times))
    assert_rows_close(got, reference_ddim_sample(VP_LINEAR_BETA, oracle, u, times))


def test_baseline_matches_reference_loop(oracle):
    grid = TimeGrid(np.linspace(0.1, 0.999, 201))
    x0 = oracle.sample_data((9, 1), BATCH)
    res, states = ddim_invert_baseline(oracle, VP_LINEAR_BETA, x0, grid,
                                       keep_states=True)
    want = reference_baseline(oracle, ddim_coefficients(VP_LINEAR_BETA, grid), x0)
    assert_rows_close(states, want)
    assert_rows_close(res.noise, want[-1])


class InfAfter(_OracleBase):
    """Exact score on the axis Gaussian, except that call ``k + 1`` is ``inf``."""

    def __init__(self, k):
        self.base = gaussian_on_axis()
        self.dim = self.base.dim
        self.k = k
        self.calls = 0

    def score(self, x, sigma):
        self.calls += 1
        if self.calls == self.k + 1:
            return np.full(np.shape(x), np.inf)
        # the base oracle rejects a non-finite state with InvalidArgumentError
        return self.base.score(x, sigma)


_UP = TimeGrid(np.linspace(0.1, 0.9, 11))


@pytest.mark.parametrize("run,k,step", [
    (lambda o: integrate(VE_KARRAS, o, IntegratorSpec(Method.EULER),
                         np.ones(2), _UP), 3, 3),
    # call 5 is step 2's predictor; its corrector must not see the inf state
    (lambda o: integrate(VE_KARRAS, o, IntegratorSpec(Method.HEUN),
                         np.ones(2), _UP), 4, 2),
    (lambda o: ddim_sample(o, VP_LINEAR_BETA, np.ones(2), _UP.reversed()), 5, 5),
    (lambda o: ddim_invert_baseline(o, VP_LINEAR_BETA, np.ones(2), _UP), 2, 2),
], ids=["euler", "heun-predictor", "ddim-sample", "ddim-baseline"])
def test_divergence_raises_with_step_index(run, k, step):
    with pytest.raises(IntegrationDivergedError) as exc:
        run(InfAfter(k))
    assert exc.value.step_index == step


def test_cli_baseline_divergence_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(SubspaceGaussianScore, "score",
                        lambda self, x, sigma: np.full(np.shape(x), np.inf))
    cfg = tmp_path / "config.json"
    cfg.write_text('{"seed": 1, "trials": 5, "method": "baseline_ddim", '
                   '"schedule": "vp_linear_beta", '
                   '"oracle": {"kind": "gaussian_on_axis"}, '
                   '"grid": {"kind": "uniform", "t_min": 0.1, "t_max": 0.9, '
                   '"steps": 10}}')
    assert main(["invert", "--config", str(cfg), "--quiet"]) == 3

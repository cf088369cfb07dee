"""The step kernel against the per-step loops it replaced, and divergence.

The reference loops below are the integrators as written before every
explicit scheme ran on one kernel: a per-step drift with scalar schedule
calls, Euler/Heun built from it, the posterior-mean DDIM sampler and the
denoiser-based lagged DDIM inversion.  The kernel reorders the same float64
arithmetic, so states agree to a relative tolerance fixed in advance from the
dtype (1e-12 on each state row's norm), not bit for bit.
"""

import json
import math
import re

import numpy as np
import pytest

from ssilab import (Family, IntegrationDivergedError, InvalidArgumentError,
                    Method, PerturbedScoreOracle, TimeGrid, VE_KARRAS,
                    VP_LINEAR_BETA,
                    ddim_coefficients, ddim_invert_baseline, ddim_sample,
                    gaussian_on_axis, integrate, karras_grid, resolve_config,
                    run_command, toy_image_subspace)
from ssilab.cli import main
from ssilab.flow import _drift_coefficients, _rows
from ssilab.oracles import PointCloudScore, SubspaceGaussianScore, _OracleBase

RTOL = 1e-12
BATCH = 8


@pytest.fixture(scope="module")
def oracle():
    return PerturbedScoreOracle(base=toy_image_subspace(), magnitude=1e-3)


def reference_drift(schedule, oracle, x, t):
    sigma = float(schedule.sigma(t))
    sigma_dot = float(schedule.sigma_dot(t))
    if schedule.family is Family.VE_KARRAS:
        return -sigma_dot * sigma * oracle.score(x, sigma)
    s = float(schedule.scale(t))
    s_dot = float(schedule.scale_dot(t))
    return (s_dot / s) * x - s * sigma_dot * sigma * oracle.score(x / s, sigma)


def reference_integrate(schedule, oracle, method, x, times):
    states = [x]
    for i in range(times.size - 1):
        t0, t1 = float(times[i]), float(times[i + 1])
        h = t1 - t0
        d0 = reference_drift(schedule, oracle, x, t0)
        if method is Method.EULER:
            x = x + h * d0
        else:
            d1 = reference_drift(schedule, oracle, x + h * d0, t1)
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
    phi, psi, s, sig = coeffs
    x_tilde = s[0] * x0
    states = [x_tilde / s[0]]
    for i in range(s.size - 1):
        lagged = oracle.denoise(x_tilde / s[i], float(sig[i + 1]))
        x_tilde = (x_tilde - psi[i] * lagged) / phi[i]
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
@pytest.mark.parametrize("schedule,times", [
    (VE_KARRAS, _VE_TIMES), (VP_LINEAR_BETA, _VP_TIMES)], ids=["ve", "vp"])
@pytest.mark.parametrize("descending", [False, True], ids=["up", "down"])
def test_integrate_matches_reference_loop(oracle, method, schedule, times,
                                          descending):
    times = times[::-1] if descending else times
    x = _start(oracle, schedule, times[0], 7)
    traj = integrate(schedule, oracle, method, x, TimeGrid(times))
    assert_rows_close(traj.states,
                      reference_integrate(schedule, oracle, method, x, times))


@pytest.mark.parametrize("t", [_VE_TIMES, 0.5], ids=["array", "scalar"])
def test_ve_drift_is_the_scaled_drift_with_unit_scale(t):
    # the one drift formula gives VE exactly because s = 1 and s_dot = 0
    sigma = np.asarray(VE_KARRAS.sigma(t))
    want = (np.zeros_like(sigma), -np.asarray(VE_KARRAS.sigma_dot(t)) * sigma,
            np.ones_like(sigma), sigma)
    for got, expected in zip(_drift_coefficients(VE_KARRAS, t), want):
        assert np.array_equal(got, expected)


def general_step_reference(oracle, x, plan, corrector=None):
    """Every state of the kernel's plan, each step's products by ``a`` and
    ``c`` written out even where they are 1, in the kernel's order of
    operations: ``(a x) + (b score(c x))`` and, for Heun,
    ``((fa pred) + (0.5 x)) + (fb score(fc pred))``."""
    rows = list(_rows(plan))
    fixes = list(_rows(corrector)) if corrector is not None else [None] * len(rows)
    states = [x]
    for (a, b, c, sigma), fix in zip(rows, fixes):
        pred = a * x + b * oracle.score(c * x, sigma)
        if fix is None:
            x = pred
        else:
            fa, fb, fc, fsigma = fix
            x = fa * pred + 0.5 * x + fb * oracle.score(fc * pred, fsigma)
        states.append(x)
    return np.stack(states)


@pytest.mark.parametrize("method", [Method.EULER, Method.HEUN])
@pytest.mark.parametrize("descending", [False, True], ids=["up", "down"])
def test_unit_coefficients_keep_the_general_step_bits(oracle, method, descending):
    # on VE every plan row has a = c = 1 exactly; skipping those products must
    # leave every state equal, bit for bit, to the general arithmetic
    times = _VE_TIMES[::-1] if descending else _VE_TIMES
    x = _start(oracle, VE_KARRAS, times[0], 5)
    p, q, r, sigma = _drift_coefficients(VE_KARRAS, times)
    h = np.diff(times)
    n = h.size
    plan = (1.0 + h * p[:n], h * q[:n], r[:n], sigma[:n])
    corrector = ((0.5 + 0.5 * h * p[1:], 0.5 * h * q[1:], r[1:], sigma[1:])
                 if method is Method.HEUN else None)
    assert np.all(plan[0] == 1.0) and np.all(plan[2] == 1.0)
    want = general_step_reference(oracle, x, plan, corrector)
    assert np.array_equal(integrate(VE_KARRAS, oracle, method, x, TimeGrid(times)).states,
                          want)
    assert np.array_equal(integrate(VE_KARRAS, oracle, method, x, TimeGrid(times),
                                    keep_states=False), want[-1])


def test_ddim_sample_keeps_the_general_step_bits(oracle):
    times = _VP_TIMES[::-1]
    u = _start(oracle, VE_KARRAS, float(VP_LINEAR_BETA.sigma(times[0])), 6)
    sig = np.asarray(VP_LINEAR_BETA.sigma(times))
    plan = (1.0, -sig[:-1] * np.diff(sig), 1.0, sig[:-1])
    assert np.array_equal(ddim_sample(oracle, VP_LINEAR_BETA, u, TimeGrid(times)),
                          general_step_reference(oracle, u, plan)[-1])


def test_ddim_sample_matches_reference_loop(oracle):
    times = _VP_TIMES[::-1]
    u = _start(oracle, VE_KARRAS, float(VP_LINEAR_BETA.sigma(times[0])), 8)
    got = ddim_sample(oracle, VP_LINEAR_BETA, u, TimeGrid(times))
    assert_rows_close(got, reference_ddim_sample(VP_LINEAR_BETA, oracle, u, times))


def test_baseline_matches_reference_loop(oracle):
    grid = TimeGrid(np.linspace(0.1, 0.999, 201))
    x0 = oracle.sample_data((9, 1), BATCH)
    want = reference_baseline(oracle, ddim_coefficients(VP_LINEAR_BETA, grid), x0)
    # state k is the end state of a run on the grid's first k + 1 times
    for k in range(1, len(grid)):
        res = ddim_invert_baseline(oracle, VP_LINEAR_BETA, x0,
                                   TimeGrid(grid.times[:k + 1]))
        assert_rows_close(res.noise, want[k])


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


_NO_CAUSE = type(None)


@pytest.mark.parametrize("run,k,step,sigma,t,cause", [
    (lambda o: integrate(VE_KARRAS, o, Method.EULER, np.ones(2), _UP),
     3, 3, _UP.times[3], _UP.times[3], _NO_CAUSE),
    # call 5 is step 2's predictor; its corrector is handed the inf prediction,
    # and the base oracle's own check rejects it, which is divergence at step 2
    (lambda o: integrate(VE_KARRAS, o, Method.HEUN, np.ones(2), _UP),
     4, 2, _UP.times[2], _UP.times[2], InvalidArgumentError),
    (lambda o: ddim_sample(o, VP_LINEAR_BETA, np.ones(2), _UP.reversed()),
     5, 5, VP_LINEAR_BETA.sigma(_UP.reversed().times)[5], _UP.reversed().times[5],
     _NO_CAUSE),
    # the lagged baseline evaluates step i at the next time's sigma
    (lambda o: ddim_invert_baseline(o, VP_LINEAR_BETA, np.ones(2), _UP),
     2, 2, VP_LINEAR_BETA.sigma(_UP.times)[3], _UP.times[3], _NO_CAUSE),
], ids=["euler", "heun-predictor", "ddim-sample", "ddim-baseline"])
def test_divergence_raises_with_step_index(run, k, step, sigma, t, cause):
    with pytest.raises(IntegrationDivergedError) as exc:
        run(InfAfter(k))
    assert exc.value.step_index == step
    assert exc.value.sigma == sigma
    assert exc.value.t == t
    assert str(exc.value).endswith(f"at t={float(t)!r}")
    assert isinstance(exc.value.__cause__, cause)


_EVERY_PATH = pytest.mark.parametrize("run", [
    lambda o, x: integrate(VE_KARRAS, o, Method.EULER, x, _UP),
    lambda o, x: integrate(VE_KARRAS, o, Method.HEUN, x, _UP),
    lambda o, x: ddim_sample(o, VP_LINEAR_BETA, x, _UP.reversed()),
    lambda o, x: ddim_invert_baseline(o, VP_LINEAR_BETA, x, _UP),
], ids=["euler", "heun", "ddim-sample", "ddim-baseline"])


@_EVERY_PATH
def test_misshapen_start_state_is_an_invalid_argument(run):
    # the caller's state is checked once, before any score call: exit 2, not 3
    oracle = InfAfter(100)
    with pytest.raises(InvalidArgumentError, match="oracle dimension 2"):
        run(oracle, np.ones((4, 3)))
    assert oracle.calls == 0


class RaiseAfter(InfAfter):
    """Exact score on the axis Gaussian, except that call ``k + 1`` raises ``error``."""

    def __init__(self, k, error):
        super().__init__(k)
        self.error = error

    def score(self, x, sigma):
        if self.calls == self.k:
            self.calls += 1
            raise self.error
        return super().score(x, sigma)


@_EVERY_PATH
@pytest.mark.parametrize("error_type", [ValueError, RuntimeError, ZeroDivisionError])
def test_other_score_errors_propagate_unchanged(run, error_type):
    # only InvalidArgumentError means divergence; any other error is the
    # oracle's own and leaves the kernel as it was raised (call 4 is Heun's
    # step 1 corrector)
    error = error_type("an oracle fault")
    with pytest.raises(error_type) as exc:
        run(RaiseAfter(3, error), np.ones(2))
    assert exc.value is error
    assert exc.value.__cause__ is None


class ZeroScore(_OracleBase):
    """A score that is zero everywhere, so every step keeps its state."""

    dim = 2

    def score(self, x, sigma):
        return np.zeros(np.shape(x))


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_finite_states_whose_sum_overflows_do_not_diverge(method):
    # every entry is finite, but the sum of the entries overflows
    x = np.full((2, 2), 1e308)
    traj = integrate(VE_KARRAS, ZeroScore(), method, x, _UP)
    assert np.array_equal(traj.states, np.broadcast_to(x, traj.states.shape))


_VP_UP = TimeGrid(np.linspace(0.5, 0.9, 5))


@pytest.mark.parametrize("method,value", [
    # c_0 = 1/s(0.5) = 3.56 takes the finite start state past the largest float
    (Method.EULER, 1e308),
    # c_0 x = 1.4e308 is finite; the corrector's c_1 = 6.18 times the
    # prediction overflows
    (Method.HEUN, 4e307),
], ids=["euler", "heun-corrector"])
def test_overflowing_score_input_diverges(method, value):
    axis = gaussian_on_axis()
    with pytest.raises(IntegrationDivergedError) as exc:
        integrate(VP_LINEAR_BETA, axis, method, np.full((2, axis.dim), value), _VP_UP)
    assert exc.value.step_index == 0
    assert exc.value.sigma == VP_LINEAR_BETA.sigma(0.5)
    assert exc.value.t == 0.5
    assert isinstance(exc.value.__cause__, InvalidArgumentError)


@pytest.mark.parametrize("command,step,sigma", [
    ("reconstruct", 127, 13.73), ("sweep-tssi", 29, 16.01)])
def test_overflow_inside_the_score_diverges(monkeypatch, command, step, sigma):
    # without its guard, kappa's (lam + sigma^2) sigma^2 overflows once sigma^2
    # passes about 180 at lam = 1e306: an overflow that numpy would only warn
    # of, and that would leave kappa 0, is divergence at that step
    monkeypatch.setattr(SubspaceGaussianScore, "_kappa_at",
                        lambda self, s2: self._lam / ((self._lam + s2) * s2))
    cfg = resolve_config(command, {"oracle": {"kind": "subspace", "dim": 8,
                                              "latent_stddevs": 1e153},
                                   "seed": 1, "trials": 8})
    with pytest.raises(IntegrationDivergedError) as exc:
        run_command(cfg)
    assert exc.value.step_index == step
    assert round(exc.value.sigma, 2) == sigma
    assert isinstance(exc.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("schedule", [VE_KARRAS, VP_LINEAR_BETA], ids=["ve", "vp"])
def test_non_finite_start_state_is_an_invalid_argument(schedule):
    # the caller's state, not the kernel's, is at fault: exit 2, not 3
    with pytest.raises(InvalidArgumentError):
        integrate(schedule, gaussian_on_axis(), Method.EULER,
                  np.array([np.nan, 1.0]), _VP_UP)


def test_cli_baseline_divergence_exits_3(tmp_path, monkeypatch, capsys):
    # one command per integrate path; each diverges at its first step, where
    # the score is inf only at that step's sigma
    score = SubspaceGaussianScore.score

    def inf_at(sigma_inf):
        return lambda self, x, sigma: (np.full(np.shape(x), np.inf)
                                       if math.isclose(sigma, sigma_inf, rel_tol=1e-12)
                                       else score(self, x, sigma))

    vp = {"schedule": "vp_linear_beta",
          "grid": {"kind": "uniform", "t_min": 0.1, "t_max": 0.9, "steps": 10}}
    ve = {"grid": {"kind": "karras", "t_min": 0.002, "t_max": 80.0, "rho": 7.0,
                   "steps": 40}}
    ssi_ve = {"grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0, "steps": 40}}
    cases = [
        # SSI runs first, from 0.15 in steps of 0.075, so only the baseline's
        # first step scores at sigma(0.18)
        ("invert", {"trials": 5, "method": "both", "t_ssi": 0.15, **vp},
         VP_LINEAR_BETA.sigma(0.18)),
        ("invert", {"trials": 5, "method": "ssi", "t_ssi": 0.1, "schedule": "vp_linear_beta",
                    "grid": {"kind": "uniform", "t_max": 0.9, "steps": 10}},
         VP_LINEAR_BETA.sigma(0.1)),
        ("reconstruct", {"trials": 5, **ssi_ve}, 0.1),
        ("interpolate", {"integrator": "heun", **ssi_ve}, 0.1),
        ("verify-singularity", {"trials": 5, **ve}, 80.0),
        ("sweep-tssi", {"trials": 4, "t_ssi_ladder": [0.1],
                        "steps_ladder": [20]}, 0.1),
    ]
    for command, raw, sigma in cases:
        monkeypatch.setattr(SubspaceGaussianScore, "score", inf_at(float(sigma)))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"seed": 1, "oracle": {"kind": "gaussian_on_axis"}, **raw}))
        assert main([command, "--config", str(cfg), "--quiet"]) == 3, command
        err = capsys.readouterr().err
        match = re.search(r"step 0, sigma=(\S+)", err)
        assert match is not None, (command, err)
        assert float(match.group(1)) == pytest.approx(float(sigma), rel=1e-12), command
        assert " at t=" in err, (command, err)


class Recording(_OracleBase):
    """The toy-image score, keeping each input it was given and a copy of it."""

    def __init__(self):
        self.base = PerturbedScoreOracle(base=toy_image_subspace(), magnitude=1e-3)
        self.dim = self.base.dim
        self.seen = []

    def score(self, x, sigma):
        self.seen.append((x, x.copy()))
        return self.base.score(x, sigma)


@pytest.mark.parametrize("run", [
    lambda o, x: integrate(VE_KARRAS, o, Method.EULER, x, _UP),
    lambda o, x: integrate(VP_LINEAR_BETA, o, Method.HEUN, x, _UP,
                           keep_states=False),
    lambda o, x: ddim_invert_baseline(o, VP_LINEAR_BETA, x, _UP),
    # a = c = 1 on these three: score is handed the kernel's own states
    lambda o, x: integrate(VE_KARRAS, o, Method.EULER, x, _UP, keep_states=False),
    lambda o, x: integrate(VE_KARRAS, o, Method.HEUN, x, _UP),
    lambda o, x: ddim_sample(o, VP_LINEAR_BETA, x, _UP.reversed()),
], ids=["euler", "heun", "ddim-baseline", "ve-euler-end", "ve-heun", "ddim-sample"])
def test_kernel_writes_into_no_array_it_did_not_allocate(run):
    oracle = Recording()
    x = np.random.default_rng(2).standard_normal((BATCH, oracle.dim))
    x_before = x.copy()
    run(oracle, x)
    assert np.array_equal(x, x_before)
    assert oracle.seen
    for given, copy in oracle.seen:
        assert np.array_equal(given, copy)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_oracle_exits_3_under_the_warning_filter(tmp_path, capsys,
                                                             monkeypatch):
    # a score that overflows to NaN at the first state through arithmetic that
    # warns (inf - inf); numpy's warnings are errors here, so the kernel must
    # silence the oracle's warnings and detect the NaN without raising one
    monkeypatch.setattr(PointCloudScore, "_score",
                        lambda self, x, sigma: np.full(x.shape, np.inf) - np.inf)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"oracle": {"kind": "circle"}, "trials": 4, "seed": 1}))
    assert main(["verify-singularity", "--config", str(cfg), "--quiet"]) == 3
    assert "integration diverged at step 0" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_atoms_whose_squared_norm_overflows_exit_2(tmp_path, capsys):
    # |p_k|^2 of an atom of norm 1e160 overflows: the point cloud rejects it
    # at construction instead of scoring finite states as NaN (exit 3)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"oracle": {"kind": "circle", "radius": 1e160},
                               "trials": 4, "seed": 1}))
    assert main(["verify-singularity", "--config", str(cfg), "--quiet"]) == 2
    assert "config error: points must be finite" in capsys.readouterr().err

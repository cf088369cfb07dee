import numpy as np
import pytest

from ssilab import (IntegrationDivergedError, InvalidArgumentError, InversionResult,
                    Method, PerturbedScoreOracle, TimeGrid, Trajectory, VE_KARRAS,
                    VP_LINEAR_BETA, denoise_to_mean, gaussian_exact,
                    gaussian_on_axis, integrate, karras_grid,
                    random_subspace, reconstruct, sample, singularity_trace,
                    toy_image_subspace)
from ssilab.flow import _drift_coefficients


@pytest.fixture
def axis():
    return gaussian_on_axis()


def uniform_grid(a, b, n):
    return TimeGrid(np.linspace(a, b, n + 1))


def flow_drift(schedule, oracle, x, t):
    """Right-hand side ``p x + q score(r x, sigma)`` of the flow ODE at ``(x, t)``."""
    p, q, r, sigma = (float(v) for v in _drift_coefficients(schedule, t))
    return p * x + q * oracle.score(r * x, sigma)


class TestDrift:
    def test_ve_value(self, axis):
        # -sigma_dot * sigma * score = -1 * 1 * (-0.5, -0.5) at t = sigma = 1
        np.testing.assert_allclose(
            flow_drift(VE_KARRAS, axis, np.array([1.0, 0.5]), 1.0), [0.5, 0.5],
            rtol=1e-14)

    def test_ve_zero_sigma_rejected(self, axis):
        with pytest.raises(InvalidArgumentError):
            flow_drift(VE_KARRAS, axis, np.zeros(2), 0.0)

    def test_vp_matches_finite_difference_of_exact_marginal_flow(self, axis):
        # the scaled VP state s(t) * u(t) with u from the VE flow solves the
        # scaled ODE; check the drift against a finite difference of that path
        t = 0.4
        h = 1e-6
        u0 = np.array([0.8, 0.3])
        sig = float(VP_LINEAR_BETA.sigma(t))

        def scaled_state(tt):
            s = float(VP_LINEAR_BETA.scale(tt))
            u = gaussian_exact(axis, u0, sig, float(VP_LINEAR_BETA.sigma(tt)))
            return s * u

        fd = (scaled_state(t + h) - scaled_state(t - h)) / (2 * h)
        drift = flow_drift(VP_LINEAR_BETA, axis, scaled_state(t), t)
        np.testing.assert_allclose(drift, fd, rtol=1e-5, atol=1e-6)


class TestExactFlow:
    def test_reference_value(self, axis):
        # coef scales sqrt((1+4)/(1+1)), normal scales 2/1
        out = gaussian_exact(axis, np.array([1.0, 1.0]), 1.0, 2.0)
        np.testing.assert_allclose(out, [np.sqrt(2.5), 2.0], rtol=1e-14)

    def test_identity_at_equal_times(self, axis):
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(gaussian_exact(axis, x, 0.8, 0.8), x, rtol=1e-14)

    def test_group_property(self, axis):
        x = np.array([1.2, 0.4])
        ab = gaussian_exact(axis, gaussian_exact(axis, x, 0.5, 2.0), 2.0, 7.0)
        direct = gaussian_exact(axis, x, 0.5, 7.0)
        np.testing.assert_allclose(ab, direct, rtol=1e-12)

    def test_singular_start_rejected_off_subspace(self, axis):
        with pytest.raises(InvalidArgumentError):
            gaussian_exact(axis, np.array([1.0, 0.1]), 0.0, 1.0)

    def test_singular_start_allowed_on_subspace(self, axis):
        out = gaussian_exact(axis, np.array([1.0, 0.0]), 0.0, 1.0)
        np.testing.assert_allclose(out, [np.sqrt(2.0), 0.0], rtol=1e-14)


class TestIntegrate:
    def test_euler_single_step_by_hand(self, axis):
        x0 = np.array([1.0, 0.5])
        grid = TimeGrid(np.array([1.0, 1.1]))
        traj = integrate(VE_KARRAS, axis, Method.EULER, x0, grid)
        expected = x0 + 0.1 * flow_drift(VE_KARRAS, axis, x0, 1.0)
        np.testing.assert_allclose(traj.states[1], expected, rtol=1e-14)

    def test_heun_single_step_by_hand(self, axis):
        x0 = np.array([1.0, 0.5])
        grid = TimeGrid(np.array([1.0, 1.1]))
        traj = integrate(VE_KARRAS, axis, Method.HEUN, x0, grid)
        d0 = flow_drift(VE_KARRAS, axis, x0, 1.0)
        pred = x0 + 0.1 * d0
        d1 = flow_drift(VE_KARRAS, axis, pred, 1.1)
        np.testing.assert_allclose(traj.states[1], x0 + 0.05 * (d0 + d1), rtol=1e-14)

    @pytest.mark.parametrize("method,order", [(Method.EULER, 1.0), (Method.HEUN, 2.0)])
    def test_convergence_order(self, axis, method, order):
        x0 = np.array([1.0, 0.7])
        exact = gaussian_exact(axis, x0, 0.5, 3.0)
        errs = []
        ns = [20, 40, 80, 160]
        for n in ns:
            traj = integrate(VE_KARRAS, axis, method, x0, uniform_grid(0.5, 3.0, n))
            errs.append(np.linalg.norm(traj.states[-1] - exact))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert abs(rates.mean() - order) < 0.25

    def test_time_reversibility_small_steps(self, axis):
        x0 = np.array([0.9, 0.2])
        up = uniform_grid(0.5, 2.0, 4000)
        fwd = integrate(VE_KARRAS, axis, Method.HEUN, x0, up)
        back = integrate(VE_KARRAS, axis, Method.HEUN, fwd.states[-1], up.reversed())
        np.testing.assert_allclose(back.states[-1], x0, atol=1e-6)

    def test_vp_euler_matches_scaled_exact_flow(self, axis):
        # integrate the scaled VP ODE and compare against the known solution
        t0, t1 = 0.3, 0.8
        u0 = np.array([0.6, -0.4])
        x0 = float(VP_LINEAR_BETA.scale(t0)) * u0
        traj = integrate(VP_LINEAR_BETA, axis, Method.EULER, x0,
                         uniform_grid(t0, t1, 4000))
        expect_u = gaussian_exact(axis, u0, float(VP_LINEAR_BETA.sigma(t0)),
                                  float(VP_LINEAR_BETA.sigma(t1)))
        got_u = traj.states[-1] / float(VP_LINEAR_BETA.scale(t1))
        np.testing.assert_allclose(got_u, expect_u, atol=2e-3)

    def test_batched_states(self, axis):
        x0 = np.random.default_rng(0).normal(size=(5, 2))
        traj = integrate(VE_KARRAS, axis, Method.EULER, x0, uniform_grid(0.5, 1.0, 10))
        assert traj.states.shape == (11, 5, 2)
        single = integrate(VE_KARRAS, axis, Method.EULER, x0[2],
                           uniform_grid(0.5, 1.0, 10))
        np.testing.assert_allclose(traj.states[:, 2], single.states, rtol=1e-13)

    def test_divergence_reports_step_index(self, axis):
        class Bad:
            dim = 2
            def score(self, x, sigma):
                return np.full_like(x, np.inf)
        with pytest.raises(IntegrationDivergedError) as exc:
            integrate(VE_KARRAS, Bad(), Method.EULER, np.ones(2),
                      uniform_grid(0.5, 1.0, 10))
        assert exc.value.step_index == 0


@pytest.mark.parametrize("schedule", [VE_KARRAS, VP_LINEAR_BETA], ids=["ve", "vp"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("ascending", [True, False], ids=["invert", "sample"])
def test_end_state_without_states_is_the_trajectorys_last(schedule, method, ascending):
    oracle = PerturbedScoreOracle(base=toy_image_subspace(), magnitude=1e-3)
    grid = uniform_grid(0.1, 0.9, 20)
    grid = grid if ascending else grid.reversed()
    x = np.random.default_rng(4).standard_normal((16, oracle.dim))
    x_before = x.copy()
    end = integrate(schedule, oracle, method, x, grid, keep_states=False)
    traj = integrate(schedule, oracle, method, x, grid)
    assert np.array_equal(end, traj.states[-1])
    assert np.array_equal(x, x_before)


@pytest.mark.parametrize("method", ["euler", "heun", "rk4", None])
def test_method_that_is_not_a_member_is_refused(axis, method):
    # a string is refused, not converted, so each method has one form
    grid = uniform_grid(1.0, 0.1, 4)
    result = InversionResult(noise=np.ones((2, 2)), grid=grid.reversed())
    for call in (lambda: integrate(VE_KARRAS, axis, method, np.ones((2, 2)), grid),
                 lambda: sample(VE_KARRAS, axis, method, grid, 0, 2),
                 lambda: reconstruct(axis, VE_KARRAS, result, grid, method=method)):
        with pytest.raises(InvalidArgumentError, match="method must be a Method"):
            call()


class TestSampling:
    def test_sample_lands_near_manifold(self, axis):
        # descending grid from 80 down to 0.002 (drop the zero endpoint)
        grid = TimeGrid(karras_grid(0.002, 80.0, 7.0, 100).times[1:][::-1])
        x0, _ = sample(VE_KARRAS, axis, Method.HEUN, grid, seed=(0, 1), count=64)
        resid = x0 - axis.nearest_manifold_point(x0)
        assert np.max(np.abs(resid)) < 1e-3
        # tangential spread close to the latent unit variance
        assert 0.6 < x0[:, 0].std() < 1.5

    def test_sample_deterministic(self, axis):
        grid = TimeGrid(karras_grid(0.002, 80.0, 7.0, 50).times[1:][::-1])
        a, _ = sample(VE_KARRAS, axis, Method.EULER, grid, seed=(3, 4), count=8)
        b, _ = sample(VE_KARRAS, axis, Method.EULER, grid, seed=(3, 4), count=8)
        assert np.array_equal(a, b)

    def test_ascending_grid_rejected(self, axis):
        with pytest.raises(InvalidArgumentError):
            sample(VE_KARRAS, axis, Method.EULER, uniform_grid(0.5, 1.0, 4),
                   seed=0, count=1)

    def test_denoise_to_mean(self, axis):
        x = np.array([0.5, 0.3])
        np.testing.assert_array_equal(denoise_to_mean(axis, x, 0.1),
                                      axis.posterior_mean(x, 0.1))


def test_trajectory_length_mismatch_rejected(axis):
    grid = uniform_grid(0.5, 1.0, 5)
    with pytest.raises(InvalidArgumentError):
        Trajectory(states=np.zeros((3, 2)), grid=grid, schedule=VE_KARRAS)
    with pytest.raises(InvalidArgumentError):
        Trajectory(states=np.float64(0.0), grid=grid, schedule=VE_KARRAS)


def test_singularity_trace_rejects_a_non_finite_user_built_trajectory(axis):
    # the constructor checks shapes only; the trace's oracle calls check values
    for schedule in (VE_KARRAS, VP_LINEAR_BETA):
        grid = uniform_grid(0.5, 0.9, 5)
        for bad in (np.nan, np.inf, -np.inf):
            states = np.zeros((len(grid), 3, 2))
            states[2, 1, 0] = bad
            traj = Trajectory(states=states, grid=grid, schedule=schedule)
            with pytest.raises(InvalidArgumentError):
                singularity_trace(axis, traj)


def test_vp_convergence_order_euler():
    # Euler on the scaled VP formulation is still first order
    axis = gaussian_on_axis()
    t0, t1 = 0.2, 0.9
    u0 = np.array([1.0, 0.3])
    expect_u = gaussian_exact(axis, u0, float(VP_LINEAR_BETA.sigma(t0)),
                              float(VP_LINEAR_BETA.sigma(t1)))
    errs = []
    for n in [100, 200, 400, 800]:
        x0 = float(VP_LINEAR_BETA.scale(t0)) * u0
        traj = integrate(VP_LINEAR_BETA, axis, Method.EULER, x0,
                         uniform_grid(t0, t1, n))
        got_u = traj.states[-1] / float(VP_LINEAR_BETA.scale(t1))
        errs.append(np.linalg.norm(got_u - expect_u))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert abs(rates.mean() - 1.0) < 0.25


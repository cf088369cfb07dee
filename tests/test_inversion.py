import tracemalloc

import numpy as np
import pytest

from ssilab import (InvalidArgumentError, InversionConfig, Method,
                    PerturbedScoreOracle, TimeGrid, VE_KARRAS, VP_LINEAR_BETA,
                    circle_point_cloud, ddim_coefficients,
                    ddim_invert_baseline, ddim_kappa_grid, ddim_sample,
                    denoise_to_mean, gaussian_on_axis, karras_grid,
                    pf_ode_sigma_euler_step, reconstruct, ssi_invert_ve,
                    ssi_invert_vp, toy_image_subspace)


@pytest.fixture
def axis():
    return gaussian_on_axis()


@pytest.fixture
def circle():
    return circle_point_cloud()


def ve_grid_up(t_ssi=0.002, t_max=80.0, n=100):
    g = karras_grid(t_ssi, t_max, 7.0, n)
    return TimeGrid(g.times[1:])  # drop the zero endpoint


class TestConfig:
    def test_ssi_grid_must_start_at_skip_time(self):
        with pytest.raises(InvalidArgumentError):
            InversionConfig(t_ssi=0.01, grid=ve_grid_up(0.002), noise_seed=0)

    def test_zero_skip_time_rejected(self):
        with pytest.raises(InvalidArgumentError):
            InversionConfig(t_ssi=0.0, grid=ve_grid_up(), noise_seed=0)

    def test_descending_grid_rejected(self):
        g = TimeGrid(ve_grid_up().times[::-1])
        with pytest.raises(InvalidArgumentError):
            InversionConfig(t_ssi=80.0, grid=g, noise_seed=0)


class TestSsiVe:
    def test_injection_state(self, axis):
        cfg = InversionConfig(t_ssi=0.002, grid=ve_grid_up(), noise_seed=(0, 7))
        x0 = np.array([0.5, 0.0])
        res = ssi_invert_ve(axis, VE_KARRAS, x0, cfg, keep_trajectory=True)
        np.testing.assert_allclose(res.trajectory.states[0],
                                   x0 + 0.002 * res.injected_noise, rtol=1e-14)

    def test_deterministic_given_seed(self, axis):
        cfg = InversionConfig(t_ssi=0.002, grid=ve_grid_up(), noise_seed=(1, 2))
        x0 = np.array([0.5, 0.0])
        a = ssi_invert_ve(axis, VE_KARRAS, x0, cfg)
        b = ssi_invert_ve(axis, VE_KARRAS, x0, cfg)
        assert np.array_equal(a.noise, b.noise)
        other = InversionConfig(t_ssi=0.002, grid=ve_grid_up(), noise_seed=(1, 3))
        assert not np.array_equal(a.noise,
                                  ssi_invert_ve(axis, VE_KARRAS, x0, other).noise)

    def test_matches_exact_flow_map(self, axis):
        # fine grid: the Euler path should track the closed-form flow
        grid = TimeGrid(np.linspace(0.01, 5.0, 6000))
        cfg = InversionConfig(t_ssi=0.01, grid=grid, noise_seed=(2, 2))
        x0 = np.array([0.8, 0.0])
        res = ssi_invert_ve(axis, VE_KARRAS, x0, cfg, keep_trajectory=True)
        from ssilab import gaussian_exact
        expected = gaussian_exact(axis, res.trajectory.states[0], 0.01, 5.0)
        np.testing.assert_allclose(res.noise, expected, atol=2e-3)

    def test_roundtrip_recovers_clean_state(self, axis):
        cfg = InversionConfig(t_ssi=0.002, grid=ve_grid_up(n=200), noise_seed=(4, 0))
        x0 = np.array([0.7, 0.0])
        res = ssi_invert_ve(axis, VE_KARRAS, x0, cfg)
        down = TimeGrid(cfg.grid.times[::-1])
        xr = reconstruct(axis, VE_KARRAS, res, down, method=Method.HEUN)
        np.testing.assert_allclose(xr, x0, atol=0.05)

    def test_noise_magnitude_near_gaussian(self, axis):
        # invert a batch; the final state should look like sigma_T * N(0, I)
        cfg = InversionConfig(t_ssi=0.002, grid=ve_grid_up(n=150), noise_seed=(5, 0))
        x0 = np.tile(np.array([0.5, 0.0]), (200, 1))
        rng = np.random.default_rng(12)
        x0[:, 0] = rng.normal(size=200)
        res = ssi_invert_ve(axis, VE_KARRAS, x0, cfg)
        z = res.noise / 80.0
        assert abs(z.mean()) < 0.15
        assert 0.8 < z.std() < 1.2

    def test_wrong_schedule_rejected(self, axis):
        cfg = InversionConfig(t_ssi=0.002, grid=ve_grid_up(), noise_seed=0)
        with pytest.raises(InvalidArgumentError):
            ssi_invert_ve(axis, VP_LINEAR_BETA, np.zeros(2), cfg)


class TestSsiVp:
    def test_injection_and_unscaling(self, axis):
        grid = TimeGrid(np.linspace(0.01, 0.999, 500))
        cfg = InversionConfig(t_ssi=0.01, grid=grid, noise_seed=(6, 1))
        x0 = np.array([0.4, 0.0])
        res = ssi_invert_vp(axis, VP_LINEAR_BETA, x0, cfg, keep_trajectory=True)
        s0 = float(VP_LINEAR_BETA.scale(0.01))
        sig0 = float(VP_LINEAR_BETA.sigma(0.01))
        np.testing.assert_allclose(res.trajectory.states[0],
                                   s0 * x0 + s0 * sig0 * res.injected_noise,
                                   rtol=1e-13)
        sT = float(VP_LINEAR_BETA.scale(0.999))
        np.testing.assert_allclose(res.noise, res.trajectory.states[-1] / sT,
                                   rtol=1e-14)

    def test_keeping_the_trajectory_leaves_the_noise_unchanged(self):
        oracle = PerturbedScoreOracle(base=toy_image_subspace(), magnitude=1e-3)
        grid = TimeGrid(np.linspace(0.1, 0.999, 51))
        cfg = InversionConfig(t_ssi=0.1, grid=grid, noise_seed=(9, 2))
        x0 = oracle.sample_data(0, 8)
        kept = ssi_invert_vp(oracle, VP_LINEAR_BETA, x0, cfg, keep_trajectory=True)
        lean = ssi_invert_vp(oracle, VP_LINEAR_BETA, x0, cfg, keep_trajectory=False)
        assert np.array_equal(kept.noise, lean.noise)
        assert kept.trajectory.states.shape == (51, 8, oracle.dim)
        assert lean.trajectory is None

    def test_inversion_without_trajectory_holds_no_per_step_states(self):
        oracle = PerturbedScoreOracle(base=toy_image_subspace(), magnitude=1e-3)
        batch, d = 300, oracle.dim
        grid = TimeGrid(np.linspace(0.1, 0.999, 201))
        cfg = InversionConfig(t_ssi=0.1, grid=grid, noise_seed=None)
        x0 = oracle.sample_data(0, batch)
        noise = np.random.default_rng(5).standard_normal((batch, d))
        tracemalloc.start()
        try:
            ssi_invert_vp(oracle, VP_LINEAR_BETA, x0, cfg, injected_noise=noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # O(B d) whatever the grid length; the 200-step trajectory alone
        # would be 201 B d floats
        assert peak < 16 * batch * d * 8

    def test_roundtrip(self, axis):
        grid = TimeGrid(np.linspace(0.01, 0.98, 800))
        cfg = InversionConfig(t_ssi=0.01, grid=grid, noise_seed=(7, 3))
        x0 = np.array([1.1, 0.0])
        res = ssi_invert_vp(axis, VP_LINEAR_BETA, x0, cfg)
        xr = reconstruct(axis, VP_LINEAR_BETA, res, TimeGrid(grid.times[::-1]))
        # the roundtrip recovers the noised start state, denoised to the mean
        sig0 = float(VP_LINEAR_BETA.sigma(0.01))
        target = axis.posterior_mean(x0 + sig0 * res.injected_noise, sig0)
        np.testing.assert_allclose(xr, target, atol=0.02)
        np.testing.assert_allclose(xr, x0, atol=5 * sig0)

    def test_time_domain_checked(self, axis):
        grid = TimeGrid(np.linspace(0.01, 1.5, 50))
        cfg = InversionConfig(t_ssi=0.01, grid=grid, noise_seed=0)
        with pytest.raises(InvalidArgumentError):
            ssi_invert_vp(axis, VP_LINEAR_BETA, np.zeros(2), cfg)

    def test_ve_vp_consistency(self, axis):
        # same injected noise: the unscaled VP trajectory visits the same
        # (x, sigma) pairs as the VE trajectory, compare at matched sigma
        t_lo, t_hi = 0.05, 0.9
        sig_lo = float(VP_LINEAR_BETA.sigma(t_lo))
        sig_hi = float(VP_LINEAR_BETA.sigma(t_hi))
        x0 = np.array([0.9, 0.0])
        grid_vp = TimeGrid(np.linspace(t_lo, t_hi, 4000))
        cfg_vp = InversionConfig(t_ssi=t_lo, grid=grid_vp, noise_seed=(8, 8))
        res_vp = ssi_invert_vp(axis, VP_LINEAR_BETA, x0, cfg_vp)
        # VE path through the same sigma range with the identical start state
        grid_ve = TimeGrid(np.linspace(sig_lo, sig_hi, 4000))
        cfg_ve = InversionConfig(t_ssi=sig_lo, grid=grid_ve, noise_seed=(8, 8))
        # same seed gives the same noise draw, so the start states match
        res_ve = ssi_invert_ve(axis, VE_KARRAS, x0, cfg_ve)
        np.testing.assert_allclose(res_ve.injected_noise, res_vp.injected_noise)
        np.testing.assert_allclose(res_ve.noise, res_vp.noise, rtol=2e-2)


class TestDdim:
    def test_coefficients_from_alpha_ratios(self):
        # independent derivation from the closed-form abar of the linear rate
        grid = ddim_kappa_grid(1000, 2, 1)
        phi, psi, _, _ = ddim_coefficients(VP_LINEAR_BETA, grid)
        log_a = -(0.1 * grid.times + 9.95 * grid.times**2)
        a, one_minus_a = np.exp(log_a), -np.expm1(log_a)
        phi_direct = np.sqrt(one_minus_a[:-1] / one_minus_a[1:])
        psi_direct = np.sqrt(a[:-1]) - phi_direct * np.sqrt(a[1:])
        np.testing.assert_allclose(phi, phi_direct, rtol=1e-12)
        np.testing.assert_allclose(psi, psi_direct, rtol=1e-9, atol=1e-14)

    def test_sample_equals_sigma_euler_step(self, circle):
        # the explicit update and the Euler-in-sigma step of the flow ODE are
        # the same map up to rounding
        grid = ddim_kappa_grid(500, 1, 1)
        times = grid.times[::-1]
        sig = np.asarray(VP_LINEAR_BETA.sigma(times))
        rng = np.random.default_rng(3)
        u = rng.normal(size=2) * float(sig[0])
        for i in range(40):
            a, b = float(sig[i]), float(sig[i + 1])
            via_ddim = ddim_sample(
                circle, VP_LINEAR_BETA, u,
                TimeGrid(np.array([times[i], times[i + 1]])))
            via_ode = pf_ode_sigma_euler_step(circle, u, a, b)
            np.testing.assert_allclose(via_ddim, via_ode, atol=1e-10)
            u = via_ode

    def test_baseline_inversion_inverts_sampler_with_shared_denoiser(self, axis):
        # with the lag removed (same coefficients, exact algebra) inversion
        # then sampling is the identity per step
        grid = TimeGrid(np.linspace(0.05, 0.9, 20))
        phi, psi, s, sig = ddim_coefficients(VP_LINEAR_BETA, grid)
        x0 = np.array([0.7, 0.0])
        res = ddim_invert_baseline(axis, VP_LINEAR_BETA, x0, grid)
        # the state before the last step ends a run on the grid minus its
        # last time
        before = ddim_invert_baseline(axis, VP_LINEAR_BETA, x0,
                                      TimeGrid(grid.times[:-1])).noise
        # invert one step back by the explicit formula using the same lagged
        # denoiser call: x_hi known, reconstruct x_lo
        i = len(grid) - 2
        x_hi = res.noise * s[-1]
        lagged = axis.denoise(before, float(sig[i + 1]))
        x_lo = phi[i] * x_hi + psi[i] * lagged
        np.testing.assert_allclose(x_lo / s[i], before, rtol=1e-10)

    def test_baseline_structured_noise_on_manifold_input(self, axis):
        # inverting an on-axis state keeps the normal component exactly zero,
        # the hallmark failure of the lagged baseline
        grid = TimeGrid(np.linspace(0.01, 0.98, 300))
        x0 = np.array([0.8, 0.0])
        res = ddim_invert_baseline(axis, VP_LINEAR_BETA, x0, grid)
        assert abs(res.noise[1]) < 1e-12
        sigT = float(VP_LINEAR_BETA.sigma(0.98))
        # the tangential component blows up well past a Gaussian draw
        assert abs(res.noise[0]) > 0.0

    def test_baseline_needs_positive_start(self, axis):
        grid = TimeGrid(np.linspace(0.0, 0.9, 10))
        with pytest.raises(InvalidArgumentError):
            ddim_invert_baseline(axis, VP_LINEAR_BETA, np.zeros(2), grid)


class TestReconstruct:
    def test_grid_must_match_final_time(self, axis):
        cfg = InversionConfig(t_ssi=0.002, grid=ve_grid_up(n=50), noise_seed=(9, 9))
        res = ssi_invert_ve(axis, VE_KARRAS, np.array([0.5, 0.0]), cfg)
        bad = TimeGrid(np.linspace(40.0, 0.002, 50))
        with pytest.raises(InvalidArgumentError):
            reconstruct(axis, VE_KARRAS, res, bad)

    def test_ddim_sampler_path(self, axis):
        grid = TimeGrid(np.linspace(0.01, 0.98, 400))
        cfg = InversionConfig(t_ssi=0.01, grid=grid, noise_seed=(10, 1))
        x0 = np.array([0.6, 0.0])
        res = ssi_invert_vp(axis, VP_LINEAR_BETA, x0, cfg)
        u = ddim_sample(axis, VP_LINEAR_BETA, res.noise, TimeGrid(grid.times[::-1]))
        xr = denoise_to_mean(axis, u, float(VP_LINEAR_BETA.sigma(0.01)))
        np.testing.assert_allclose(xr, x0, atol=0.1)


_VP_GRID = TimeGrid(np.linspace(0.01, 0.98, 20))
_INVERSIONS = {
    "ssi_invert_ve": lambda oracle, x0, **kw: ssi_invert_ve(
        oracle, VE_KARRAS, x0,
        InversionConfig(t_ssi=0.002, grid=ve_grid_up(n=20), noise_seed=0), **kw),
    "ssi_invert_vp": lambda oracle, x0, **kw: ssi_invert_vp(
        oracle, VP_LINEAR_BETA, x0,
        InversionConfig(t_ssi=0.01, grid=_VP_GRID, noise_seed=0), **kw),
    "ddim_invert_baseline": lambda oracle, x0: ddim_invert_baseline(
        oracle, VP_LINEAR_BETA, x0, _VP_GRID),
}


class TestStartState:
    @pytest.mark.parametrize("x0", [
        [["a", "b"]], [[1.0], [2.0, 3.0]], [[0.5, np.nan]], [[0.5, 0.0, 1.0]],
    ], ids=["strings", "ragged", "nan", "wrong-dim"])
    @pytest.mark.parametrize("invert", _INVERSIONS.values(), ids=_INVERSIONS)
    def test_bad_start_state_is_invalid_argument(self, axis, invert, x0):
        # every inversion rejects what integrate rejects, with the same error
        with pytest.raises(InvalidArgumentError, match="state"):
            invert(axis, x0)

    @pytest.mark.parametrize("invert", ["ssi_invert_ve", "ssi_invert_vp"])
    def test_bad_injected_noise_is_invalid_argument(self, axis, invert):
        x0 = np.array([[0.5, 0.0]])
        with pytest.raises(InvalidArgumentError, match="state"):
            _INVERSIONS[invert](axis, x0, injected_noise=[["a", "b"]])
        with pytest.raises(InvalidArgumentError, match="must match the data shape"):
            _INVERSIONS[invert](axis, x0, injected_noise=np.zeros(2))

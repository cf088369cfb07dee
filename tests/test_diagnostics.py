import numpy as np
import pytest
from scipy import stats

from ssilab import (InvalidArgumentError, InversionConfig, Method, TimeGrid,
                    Trajectory, UndefinedCorrelationError,
                    VE_KARRAS, VP_LINEAR_BETA, chi_square_bound,
                    circle_point_cloud, correlation_metrics, gaussian_on_axis,
                    integrate, mse, projection_concentration, random_subspace,
                    singularity_trace, ssi_invert_vp, ssim, toy_image_subspace,
                    trace_rms)


def _pearson(a, b):
    """Per-image Pearson r, as ``correlation_metrics`` computed it image by image."""
    a = a.ravel()
    b = b.ravel()
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        raise UndefinedCorrelationError("correlation of a constant signal is undefined")
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def reference_per_image(noises):
    """The per-image loop that the batched metrics replaced."""
    b, c = noises.shape[:2]
    chan, hori, vert = np.empty(b), np.empty(b), np.empty(b)
    pairs = [(i, j) for i in range(c) for j in range(i + 1, c)]
    for k in range(b):
        img = noises[k]
        chan[k] = np.mean([abs(_pearson(img[i], img[j])) for i, j in pairs])
        hori[k] = abs(_pearson(img[:, :, :-1], img[:, :, 1:]))
        vert[k] = abs(_pearson(img[:, :-1, :], img[:, 1:, :]))
    return {"chan": chan, "hori": hori, "vert": vert}


class TestCorrelationMetrics:
    def test_gaussian_batch_is_small(self):
        rng = np.random.default_rng(0)
        rep = correlation_metrics(rng.standard_normal((400, 3, 8, 8)))
        # |r| of 64 iid samples has mean around 0.1; just check it is modest
        assert rep.chan_corr < 0.2
        assert rep.hori_corr < 0.2
        assert rep.vert_corr < 0.2
        assert rep.sample_count == 400
        assert rep.chan_se < 0.01

    def test_perfect_channel_correlation(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((50, 1, 8, 8))
        img = np.concatenate([base, base, base], axis=1)
        rep = correlation_metrics(img)
        assert rep.chan_corr > 0.999

    def test_smooth_images_have_high_spatial_correlation(self):
        y, x = np.mgrid[0:8, 0:8] / 8.0
        rng = np.random.default_rng(2)
        imgs = np.stack([
            np.stack([np.sin(x * 3 + p), np.cos(y * 2 + p), x + y + p]) for p in
            rng.uniform(0, 6, size=30)
        ])
        rep = correlation_metrics(imgs)
        assert rep.hori_corr > 0.8
        assert rep.vert_corr > 0.8

    def test_flat_input_with_grid_shape(self):
        rng = np.random.default_rng(3)
        flat = rng.standard_normal((20, 192))
        rep = correlation_metrics(flat, grid_shape=(3, 8, 8))
        direct = correlation_metrics(flat.reshape(20, 3, 8, 8))
        assert rep.chan_corr == direct.chan_corr

    def test_constant_channel_raises(self):
        img = np.zeros((1, 3, 4, 4))
        img[0, 0] = 1.0
        with pytest.raises(UndefinedCorrelationError):
            correlation_metrics(img)

    @pytest.mark.parametrize("shape", [(300, 3, 8, 8), (1, 3, 8, 8), (7, 4, 5, 9),
                                       (2, 2, 2, 2), (6, 5, 3, 4), (4, 7, 2, 3)])
    def test_batched_values_equal_the_per_image_loop(self, shape):
        # 5 and 7 channels give 10 and 21 channel pairs, past numpy's
        # 8-element blocks in pairwise summation
        noises = np.random.default_rng(sum(shape)).standard_normal(shape)
        rep = correlation_metrics(noises)
        want = reference_per_image(noises)
        for key in ("chan", "hori", "vert"):
            np.testing.assert_array_equal(rep.per_image[key], want[key])
        b = shape[0]

        def se(v):
            return float(v.std(ddof=1) / np.sqrt(b)) if b > 1 else 0.0
        assert rep.to_dict() == {
            "chan_corr": float(want["chan"].mean()), "hori_corr": float(want["hori"].mean()),
            "vert_corr": float(want["vert"].mean()), "sample_count": b,
            "chan_se": se(want["chan"]), "hori_se": se(want["hori"]),
            "vert_se": se(want["vert"])}

    def test_one_constant_channel_in_a_batch_raises(self):
        noises = np.random.default_rng(9).standard_normal((6, 3, 4, 4))
        noises[4, 1] = 2.0
        with pytest.raises(UndefinedCorrelationError):
            correlation_metrics(noises)

    def test_bad_shapes(self):
        with pytest.raises(InvalidArgumentError):
            correlation_metrics(np.zeros((5, 192)))
        with pytest.raises(InvalidArgumentError):
            correlation_metrics(np.zeros((5, 1, 8, 8)))


class TestMseSsim:
    def test_mse_zero_and_value(self):
        a = np.array([1.0, 2.0])
        assert mse(a, a) == 0.0
        assert mse(a, np.array([2.0, 4.0])) == pytest.approx(2.5)

    def test_mse_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            mse(np.zeros(3), np.zeros(4))

    def test_ssim_identity(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(3, 16, 16))
        assert ssim(img, img, dynamic_range=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_ssim_decreases_with_noise(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(3, 16, 16))
        weak = ssim(img, img + 0.05 * rng.standard_normal(img.shape), 1.0)
        strong = ssim(img, img + 0.5 * rng.standard_normal(img.shape), 1.0)
        assert 0 < strong < weak < 1

    def test_ssim_window_too_big(self):
        with pytest.raises(InvalidArgumentError):
            ssim(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), 1.0, window=8)


class TestSingularityTrace:
    def test_subspace_ratio_is_exactly_normal_distance_scaled(self):
        # for the affine oracle the posterior mean shifts the normal part by
        # the factor sigma^2/sigma^2 = 1, and shrinks the tangential part
        axis = gaussian_on_axis()
        grid = TimeGrid(np.linspace(0.01, 1.0, 30))
        traj = integrate(VE_KARRAS, axis, Method.EULER, np.array([0.5, 0.3]), grid)
        sigmas, ratios = singularity_trace(axis, traj)
        np.testing.assert_array_equal(sigmas, grid.times)
        # check one point by hand
        i = 10
        x = traj.states[i]
        pm = axis.posterior_mean(x, float(sigmas[i]))
        assert ratios[i] == pytest.approx(np.linalg.norm(pm - x) / sigmas[i], rel=1e-12)

    def test_small_sigma_limit_sqrt_df(self):
        # x = x0 + sigma n: ratio concentrates at sqrt(d - n) in RMS
        oracle = random_subspace(dim=12, latent_dim=4, basis_seed=3)
        sigma = 0.005
        x0 = oracle.sample_data((0, 1), 4000)
        rng = np.random.default_rng(6)
        x = x0 + sigma * rng.standard_normal(x0.shape)
        grid = TimeGrid(np.array([sigma, 2 * sigma]))
        traj = Trajectory(states=np.stack([x, x]), grid=grid, schedule=VE_KARRAS)
        _, ratios = singularity_trace(oracle, traj)
        rms = trace_rms(ratios)
        assert rms[0] == pytest.approx(np.sqrt(8.0), rel=0.05)

    def test_vp_trace_sees_unscaled_states(self):
        # VP SSI keeps scaled states s(t) u; the trace must score u itself
        oracle = toy_image_subspace()
        grid = TimeGrid(np.linspace(0.1, 0.999, 200))
        x0 = oracle.sample_data((4, 1), 16)
        noise = np.random.default_rng(4).standard_normal(x0.shape)
        res = ssi_invert_vp(oracle, VP_LINEAR_BETA, x0,
                            InversionConfig(0.1, grid, noise_seed=None),
                            keep_trajectory=True, injected_noise=noise)
        sigmas, ratios = singularity_trace(oracle, res.trajectory)
        for i, u in ((0, x0 + sigmas[0] * noise),
                     (-1, res.trajectory.states[-1] / VP_LINEAR_BETA.scale(grid.times[-1]))):
            pm = oracle.posterior_mean(u, float(sigmas[i]))
            np.testing.assert_allclose(
                ratios[i], np.linalg.norm(pm - u, axis=-1) / sigmas[i], rtol=1e-10)
        # at t_ssi the unscaled state is x0 + sigma n: RMS ratio ~ sqrt(d - n)
        target = np.sqrt(oracle.dim - oracle.manifold_dim)
        assert trace_rms(ratios)[0] == pytest.approx(target, rel=0.03)

    def test_zero_sigma_grid_point_rejected(self):
        axis = gaussian_on_axis()
        grid = TimeGrid(np.array([0.0, 1.0]))
        traj = Trajectory(states=np.zeros((2, 2)), grid=grid, schedule=VE_KARRAS)
        with pytest.raises(InvalidArgumentError):
            singularity_trace(axis, traj)

    def test_trace_rms_passthrough_for_single_trajectory(self):
        r = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(trace_rms(r), r)


class TestProjectionConcentration:
    def test_subspace_matches_chi_law(self):
        oracle = random_subspace(dim=2, latent_dim=1, basis_seed=0)
        rep = projection_concentration(oracle, sigma=0.01, trials=10_000, seed=1)
        assert rep.df == 1
        assert rep.ks_pvalue > 0.01
        assert rep.coverage_fraction >= 0.90

    def test_point_cloud_small_sigma(self):
        oracle = circle_point_cloud()
        rep = projection_concentration(oracle, sigma=0.01, trials=10_000, seed=2)
        assert rep.df == 2
        assert rep.ks_pvalue > 0.01

    def test_scale_invariance_of_ratio_distribution(self):
        oracle = random_subspace(dim=8, latent_dim=2, basis_seed=5)
        r1 = projection_concentration(oracle, sigma=0.002, trials=5000, seed=3).ratios
        r2 = projection_concentration(oracle, sigma=0.02, trials=5000, seed=4).ratios
        ks = stats.ks_2samp(r1, r2)
        assert ks.pvalue > 0.01

    def test_trial_floor(self):
        with pytest.raises(InvalidArgumentError):
            projection_concentration(circle_point_cloud(), 0.01, trials=10, seed=0)


class TestChiSquareBound:
    def test_radicand_value_d2_delta005(self):
        chk = chi_square_bound(2, 0.05)
        assert chk.chi_bound == pytest.approx(
            2 + 2 * np.sqrt(-2 * np.log(0.05)) - 2 * np.log(0.05), rel=1e-14)
        assert chk.chi_bound == pytest.approx(12.8871, abs=1e-3)

    def test_violation_rate_below_delta(self):
        for d, delta in [(2, 0.05), (8, 0.2), (192, 0.05)]:
            chk = chi_square_bound(d, delta, trials=20_000, seed=7)
            assert chk.empirical_violation_rate <= delta

    def test_bound_is_not_vacuous(self):
        # at delta = 0.5 a fair share of draws should exceed the bound of a
        # smaller dimension, i.e. the check actually measures something
        chk = chi_square_bound(2, 0.5, trials=20_000, seed=8)
        assert chk.empirical_violation_rate > 0.0

    def test_provided_norms_path(self):
        rng = np.random.default_rng(9)
        sq = np.sum(rng.standard_normal((5000, 4)) ** 2, axis=1)
        chk = chi_square_bound(4, 0.1, sq_norms=sq)
        assert 0.0 <= chk.empirical_violation_rate <= 0.1

    def test_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            chi_square_bound(0, 0.05)
        with pytest.raises(InvalidArgumentError):
            chi_square_bound(2, 1.5)

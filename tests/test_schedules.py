import numpy as np
import pytest
from scipy.integrate import quad

from ssilab import (InvalidArgumentError, NoiseSchedule, Family, TimeGrid,
                    VE_KARRAS, VP_LINEAR_BETA, alpha_bar_discrete,
                    ddim_kappa_grid, kappa_indices, karras_grid)


def central_diff(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2 * h)


class TestSigma:
    def test_ve_zero(self):
        assert VE_KARRAS.sigma(0.0) == 0.0

    def test_ve_identity(self):
        assert VE_KARRAS.sigma(80.0) == 80.0

    def test_vp_half_matches_numerical_beta_integral(self):
        # independent oracle: integrate beta numerically, then sigma from abar
        integral, _ = quad(lambda s: 0.1 + 19.9 * s, 0.0, 0.5)
        assert integral == pytest.approx(0.1 * 0.5 + 9.95 * 0.25, abs=1e-12)
        expected = np.sqrt((1 - np.exp(-integral)) / np.exp(-integral))
        assert VP_LINEAR_BETA.sigma(0.5) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(InvalidArgumentError):
            VE_KARRAS.sigma(-1.0)
        with pytest.raises(InvalidArgumentError):
            VP_LINEAR_BETA.sigma(1.5)

    def test_strictly_increasing(self):
        t = np.linspace(0, 1, 500)
        assert np.all(np.diff(VP_LINEAR_BETA.sigma(t)) > 0)
        assert np.all(np.diff(VE_KARRAS.sigma(t * 80)) > 0)


class TestScale:
    def test_ve_is_one(self):
        assert VE_KARRAS.scale(7.3) == 1.0

    def test_vp_at_zero(self):
        assert VP_LINEAR_BETA.scale(0.0) == 1.0

    def test_vp_half(self):
        sig = VP_LINEAR_BETA.sigma(0.5)
        assert VP_LINEAR_BETA.scale(0.5) == pytest.approx(1 / np.sqrt(1 + sig**2), rel=1e-12)

    def test_vp_consistency_identity(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 1, 1000)
        s = VP_LINEAR_BETA.scale(t)
        sig = VP_LINEAR_BETA.sigma(t)
        assert np.max(np.abs(s**2 * (1 + sig**2) - 1)) < 1e-12

    def test_vp_strictly_decreasing(self):
        t = np.linspace(0, 1, 500)
        assert np.all(np.diff(VP_LINEAR_BETA.scale(t)) < 0)


class TestDerivatives:
    def test_ve_sigma_dot(self):
        assert VE_KARRAS.sigma_dot(3.0) == 1.0

    def test_ve_scale_dot(self):
        assert VE_KARRAS.scale_dot(5.0) == 0.0

    def test_vp_sigma_dot_closed_form(self):
        # differentiate abar(t) = exp(-0.1 t - 9.95 t^2) by hand
        t = 0.5
        big_b = 0.1 * t + 9.95 * t * t
        beta = 0.1 + 19.9 * t
        expected = beta * np.exp(big_b) / (2 * np.sqrt(np.exp(big_b) - 1))
        assert VP_LINEAR_BETA.sigma_dot(t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t", [0.05, 0.2, 0.5, 0.9])
    def test_vp_derivatives_match_finite_differences(self, t):
        fd_sig = central_diff(VP_LINEAR_BETA.sigma, t)
        fd_s = central_diff(VP_LINEAR_BETA.scale, t)
        an_sig = VP_LINEAR_BETA.sigma_dot(t)
        an_s = VP_LINEAR_BETA.scale_dot(t)
        assert abs(an_sig - fd_sig) / max(1, abs(an_sig)) < 1e-6
        assert abs(an_s - fd_s) / max(1, abs(an_s)) < 1e-6

    def test_interior_only(self):
        with pytest.raises(InvalidArgumentError):
            VP_LINEAR_BETA.sigma_dot(0.0)


class TestKarrasGrid:
    def test_endpoints(self):
        g = karras_grid(0.002, 80.0, 7.0, 200)
        assert g.times[0] == 0.0
        assert g.times[1] == 0.002
        assert g.times[200] == 80.0

    def test_interior_formula(self):
        g = karras_grid(0.002, 80.0, 7.0, 200)
        expected = (0.002 ** (1 / 7) + (99 / 199) * (80 ** (1 / 7) - 0.002 ** (1 / 7))) ** 7
        assert g.times[100] == pytest.approx(expected, rel=1e-14)

    def test_strictly_ascending_and_reproducible(self):
        a = karras_grid(0.002, 80.0, 7.0, 200).times
        b = karras_grid(0.002, 80.0, 7.0, 200).times
        assert np.all(np.diff(a) > 0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("args", [(0, 80, 7, 200), (0.1, 0.1, 7, 200),
                                      (0.002, 80, -1, 200), (0.002, 80, 7, 1)])
    def test_invalid_parameters(self, args):
        with pytest.raises(InvalidArgumentError):
            karras_grid(*args)


class TestKappaGrid:
    def test_strided_index_subsequence(self):
        idx = kappa_indices(1000, 2, 1)
        assert idx[0] == 1 and idx[-1] == 999 and idx.size == 500

    def test_times(self):
        g = ddim_kappa_grid(10, 2, 1)
        assert np.allclose(g.times, [0.1, 0.3, 0.5, 0.7, 0.9])

    def test_degenerate_single_entry(self):
        with pytest.raises(InvalidArgumentError):
            ddim_kappa_grid(1000, 1000, 1000)

    def test_offset_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            ddim_kappa_grid(1000, 2, 3)


class TestDiscreteAlpha:
    def test_matches_direct_product(self):
        abar = alpha_bar_discrete(VP_LINEAR_BETA, 50)
        betas = [(0.1 + 19.9 * i / 50) / 50 for i in range(1, 51)]
        direct = np.cumprod([1 - b for b in betas])
        assert np.allclose(abar, direct, rtol=1e-14)

    def test_close_to_continuous_at_fine_steps(self):
        abar = alpha_bar_discrete(VP_LINEAR_BETA, 1000)
        t = np.arange(1, 1001) / 1000
        cont = VP_LINEAR_BETA.alpha_bar(t)
        assert np.max(np.abs(abar - cont) / cont) < 0.1

    def test_ve_rejected(self):
        with pytest.raises(InvalidArgumentError):
            alpha_bar_discrete(VE_KARRAS, 10)


class TestTimeGrid:
    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(np.array([0.0, 1.0, 0.5]))

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(np.array([1.0]))

    def test_direction_and_reverse(self):
        g = TimeGrid(np.array([0.1, 0.5, 1.0]))
        assert np.array_equal(g.reversed().times, [1.0, 0.5, 0.1])

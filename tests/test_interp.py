import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssilab import (InvalidArgumentError, InversionConfig, Method, TimeGrid,
                    VE_KARRAS, gaussian_on_axis, interpolate_and_decode,
                    karras_grid, slerp, ssi_invert_ve)


def unit_pair(seed, d=16):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=d)
    b = rng.normal(size=d)
    return a, b


class TestSlerp:
    def test_endpoints_bit_exact(self):
        a, b = unit_pair(0)
        a[b > 0] = -0.0  # a signed zero that a + 0 * b would turn positive
        b[a > 0] = -0.0
        out = slerp(a, b, [0.0, 0.5, 1.0])
        assert out.shape == (3, 16)
        assert out[0].tobytes() == a.tobytes()
        assert out[2].tobytes() == b.tobytes()

    def test_midpoint_orthogonal_unit_vectors(self):
        out = slerp(np.array([1.0, 0.0]), np.array([0.0, 1.0]), [0.5])
        np.testing.assert_allclose(out[0], [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-14)

    def test_norm_preserved_for_equal_norms(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        b = b / np.linalg.norm(b) * np.linalg.norm(a)
        out = slerp(a, b, np.linspace(0, 1, 21))
        assert np.all(np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(a)) < 1e-10)

    def test_symmetry(self):
        a, b = unit_pair(2)
        lams = np.array([0.1, 0.37, 0.8])
        np.testing.assert_allclose(slerp(a, b, lams), slerp(b, a, 1.0 - lams),
                                   atol=1e-12)

    def test_near_parallel_falls_back_to_lerp(self):
        a = np.array([1.0, 0.0])
        np.testing.assert_allclose(slerp(a, 2.0 * a, [0.5])[0], 1.5 * a, rtol=1e-12)

    def test_antipodal_rejected(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            slerp(a, -a, [0.0, 0.5])

    def test_antipodal_endpoints_only_allowed(self):
        a = np.array([1.0, 0.0])
        out = slerp(a, -a, [1.0, 0.0])
        assert np.array_equal(out, np.stack([-a, a]))

    def test_lambda_out_of_range(self):
        a, b = unit_pair(3)
        for lams in ([1.5], [0.5, -0.1], [np.nan]):
            with pytest.raises(InvalidArgumentError):
                slerp(a, b, lams)

    def test_lambdas_not_1d_rejected(self):
        a, b = unit_pair(4)
        for lams in (0.5, [[0.5]]):
            with pytest.raises(InvalidArgumentError):
                slerp(a, b, lams)

    def test_zero_endpoint_rejected(self):
        with pytest.raises(InvalidArgumentError):
            slerp(np.zeros(4), np.ones(4), [0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            slerp(np.ones(4), np.ones(5), [0.5])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 0.99))
def test_slerp_stays_on_great_circle(seed, lam):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=8)
    a /= np.linalg.norm(a)
    b = rng.normal(size=8)
    b /= np.linalg.norm(b)
    out = slerp(a, b, [lam])[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    # interior points lie in span(a, b)
    q, _ = np.linalg.qr(np.stack([a, b], axis=1))
    resid = out - q @ (q.T @ out)
    assert np.linalg.norm(resid) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.sampled_from([(8,), (1, 8), (3, 2, 2)]),
       st.booleans())
def test_each_row_equals_a_one_lambda_call(seed, lams, shape, near_parallel):
    """Row k of one call is bit-equal to a call at ``lams[k]`` alone, and the
    rows at 0 and 1 are exactly the endpoints."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)
    if near_parallel:  # an angle far below 1e-6 rad: the linear path
        b = 2.0 * a + 1e-9 * b
    lams = lams + [0.0, 1.0]
    out = slerp(a, b, lams)
    assert out.shape == (len(lams),) + shape
    for k, lam in enumerate(lams):
        assert np.array_equal(out[k], slerp(a, b, [lam])[0])
    assert np.array_equal(out[-2], a)
    assert np.array_equal(out[-1], b)


class TestInterpolateAndDecode:
    def test_endpoints_match_direct_reconstruction(self):
        axis = gaussian_on_axis()
        up = TimeGrid(karras_grid(0.002, 80.0, 7.0, 80).times[1:])
        down = TimeGrid(up.times[::-1])
        xa = np.array([0.8, 0.0])
        xb = np.array([-0.6, 0.0])
        ra = ssi_invert_ve(axis, VE_KARRAS, xa,
                           InversionConfig(0.002, up, noise_seed=(0, 0)))
        rb = ssi_invert_ve(axis, VE_KARRAS, xb,
                           InversionConfig(0.002, up, noise_seed=(0, 1)))
        frames = interpolate_and_decode(axis, VE_KARRAS, ra, rb, [0.0, 0.5, 1.0],
                                        down, method=Method.HEUN)
        assert len(frames) == 3
        from ssilab import reconstruct
        np.testing.assert_allclose(frames[0], reconstruct(axis, VE_KARRAS, ra, down,
                                                          method=Method.HEUN))
        np.testing.assert_allclose(frames[2], reconstruct(axis, VE_KARRAS, rb, down,
                                                          method=Method.HEUN))
        assert np.all(np.isfinite(frames[1]))

    def test_mismatched_final_times_rejected(self):
        axis = gaussian_on_axis()
        up_a = TimeGrid(np.linspace(0.01, 5.0, 50))
        up_b = TimeGrid(np.linspace(0.01, 6.0, 50))
        ra = ssi_invert_ve(axis, VE_KARRAS, np.array([0.5, 0.0]),
                           InversionConfig(0.01, up_a, noise_seed=1))
        rb = ssi_invert_ve(axis, VE_KARRAS, np.array([0.5, 0.0]),
                           InversionConfig(0.01, up_b, noise_seed=2))
        with pytest.raises(InvalidArgumentError):
            interpolate_and_decode(axis, VE_KARRAS, ra, rb, [0.5],
                                   TimeGrid(up_a.times[::-1]))

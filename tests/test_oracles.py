import copy
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ssilab import (InvalidArgumentError, InversionConfig, InversionResult,
                    PerturbedScoreOracle, PointCloudScore, SubspaceGaussianScore,
                    TimeGrid, Trajectory, VE_KARRAS, circle_point_cloud,
                    gaussian_on_axis, karras_grid, random_subspace,
                    toy_image_subspace)
from ssilab import oracles


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.fixture
def circle():
    return circle_point_cloud()


@pytest.fixture
def axis():
    return gaussian_on_axis()


class TestPointCloud:
    def test_single_point_score(self):
        oracle = PointCloudScore(points=np.array([[1.0, 1.0]]), weights=np.array([1.0]))
        np.testing.assert_allclose(
            oracle.score(np.zeros(2), 0.5), np.array([4.0, 4.0]), rtol=1e-14)

    def test_symmetric_pair_cancels_at_origin(self):
        oracle = PointCloudScore(points=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                                 weights=np.array([0.5, 0.5]))
        np.testing.assert_allclose(oracle.score(np.zeros(2), 1.0), np.zeros(2), atol=1e-15)

    def test_circle_layout(self, circle):
        np.testing.assert_allclose(circle.points[0], [-2.0, 0.0], atol=1e-12)
        assert circle.points.shape == (8, 2)
        np.testing.assert_allclose(np.linalg.norm(circle.points, axis=1), 2.0, rtol=1e-14)
        assert circle.feature_scale == pytest.approx(2 * 2 * np.sin(np.pi / 8), rel=1e-12)

    def test_circle_score_symmetry_at_origin(self, circle):
        np.testing.assert_allclose(circle.score(np.zeros(2), 0.5), 0.0, atol=1e-12)

    def test_small_sigma_collapses_to_nearest(self, circle):
        # at sigma = 0.01 only the closest atom carries weight
        s = circle.score(np.array([2.1, 0.0]), 0.01)
        np.testing.assert_allclose(s, [(2.0 - 2.1) / 1e-4, 0.0], rtol=1e-10, atol=1e-8)

    def test_softmax_weights_sum_to_one(self, circle):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 2)) * 3
        for sigma in (1e-4, 0.01, 1.0, 100.0):
            w = circle.softmax_weights(x, sigma)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(w >= 0)

    def test_no_overflow_at_tiny_sigma(self, circle):
        s = circle.score(np.array([1.9, 0.1]), 1e-8)
        assert np.all(np.isfinite(s))

    def test_score_matches_log_density_gradient(self, circle):
        x = np.array([0.7, -1.2])
        for sigma in (0.3, 1.0, 5.0):
            fd = fd_gradient(lambda v: circle.log_density(v, sigma), x)
            np.testing.assert_allclose(circle.score(x, sigma), fd, rtol=1e-5, atol=1e-5)

    def test_tweedie_identity(self, circle):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 2)) * 2
        for sigma in (0.05, 0.7, 10.0):
            pm = circle.posterior_mean(x, sigma)
            np.testing.assert_allclose(
                pm, x + sigma**2 * circle.score(x, sigma), atol=1e-10)

    def test_denoise_is_posterior_mean(self, circle):
        x = np.array([0.3, 0.4])
        np.testing.assert_array_equal(circle.denoise(x, 0.5),
                                      circle.posterior_mean(x, 0.5))

    def test_nearest_point_tie_break(self, circle):
        # origin is equidistant from all atoms; lowest index wins
        np.testing.assert_allclose(circle.nearest_manifold_point(np.zeros(2)),
                                   circle.points[0], atol=1e-12)

    def test_nearest_point_generic(self, circle):
        p = circle.nearest_manifold_point(np.array([1.9, 0.05]))
        np.testing.assert_allclose(p, [2.0, 0.0], atol=1e-12)

    def test_nearest_point_where_the_atoms_dwarf_their_spacing(self):
        # atoms of norm about 1e6, 1e-2 apart: the product x.p_k rounds by
        # more than their spacing, so only the refined direct sums rank them
        rng = np.random.default_rng(2)
        centre = 2.5e5 * rng.standard_normal(16)
        line = rng.standard_normal(16)
        line /= np.linalg.norm(line)
        points = (centre + 1e-2 * np.arange(20)[:, None] * line
                  + 1e-3 * rng.standard_normal((20, 16)))
        oracle = PointCloudScore(points=points, weights=np.full(20, 0.05))
        x = (centre + 1e-2 * rng.uniform(0, 19, (64, 1)) * line
             + 1e-3 * rng.standard_normal((64, 16)))
        sq = np.sum((x[:, None, :] - points) ** 2, axis=-1)
        np.testing.assert_array_equal(oracle.nearest_manifold_point(x),
                                      points[np.argmin(sq, axis=1)])

    def test_sample_data_deterministic(self, circle):
        a = circle.sample_data((7, 1), 100)
        b = circle.sample_data((7, 1), 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, circle.sample_data((7, 2), 100))
        # every draw is an atom
        d = np.linalg.norm(a[:, None, :] - circle.points, axis=-1).min(axis=1)
        assert np.max(d) == 0.0

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PointCloudScore(points=np.array([[0.0, 0.0]]), weights=np.array([0.5]))


class TestSubspaceGaussian:
    def test_axis_score_value(self, axis):
        # unit variance on the x-axis, sigma = 1: tangential 1/2, normal 1/1
        np.testing.assert_allclose(axis.score(np.array([1.0, 0.5]), 1.0),
                                   [-0.5, -0.5], rtol=1e-14)

    def test_score_matches_log_density_gradient(self, axis):
        x = np.array([0.9, -0.4])
        for sigma in (0.1, 1.0, 3.0):
            fd = fd_gradient(lambda v: axis.log_density(v, sigma), x)
            np.testing.assert_allclose(axis.score(x, sigma), fd, rtol=1e-5, atol=1e-6)

    def test_score_matches_dense_covariance(self):
        # independent oracle: assemble the full covariance and invert it
        oracle = random_subspace(dim=6, latent_dim=2, latent_stddevs=[1.5, 0.5],
                                 basis_seed=4)
        sigma = 0.37
        cov = (oracle.basis * oracle.latent_stddevs**2) @ oracle.basis.T \
            + sigma**2 * np.eye(6)
        rng = np.random.default_rng(8)
        x = rng.normal(size=6)
        expected = -np.linalg.solve(cov, x)
        np.testing.assert_allclose(oracle.score(x, sigma), expected, rtol=1e-10)

    def test_singular_scaling_of_normal_component(self, axis):
        # normal part of the score scales like 1/sigma^2
        x = np.array([0.0, 1.0])
        r = axis.score(x, 1e-3)[1] / axis.score(x, 1e-2)[1]
        assert r == pytest.approx(100.0, rel=1e-2)

    def test_nearest_is_orthogonal_projection(self, axis):
        np.testing.assert_allclose(axis.nearest_manifold_point(np.array([3.0, -2.0])),
                                   [3.0, 0.0], atol=1e-14)

    def test_tweedie_identity(self):
        oracle = random_subspace(dim=8, latent_dim=3, basis_seed=1)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 8))
        for sigma in (0.01, 1.0):
            pm = oracle.posterior_mean(x, sigma)
            np.testing.assert_allclose(pm, x + sigma**2 * oracle.score(x, sigma),
                                       atol=1e-10)

    def test_posterior_mean_approaches_projection(self, axis):
        x = np.array([0.5, 0.8])
        pm = axis.posterior_mean(x, 1e-6)
        np.testing.assert_allclose(pm, [0.5, 0.0], atol=1e-5)

    def test_sample_data_on_subspace(self):
        oracle = random_subspace(dim=16, latent_dim=4, basis_seed=2)
        x0 = oracle.sample_data((1, 2), 200)
        resid = x0 - oracle.nearest_manifold_point(x0)
        assert np.max(np.abs(resid)) < 1e-12

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SubspaceGaussianScore(basis=np.array([[1.0], [1.0]]), latent_stddevs=np.ones(1))

    def test_full_rank_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SubspaceGaussianScore(basis=np.eye(2), latent_stddevs=np.ones(2))

    @pytest.mark.parametrize("make", [
        lambda: toy_image_subspace(latent_dim=0),
        lambda: random_subspace(dim=8, latent_dim=0),
        lambda: random_subspace(dim=8, latent_dim=-1),
        lambda: random_subspace(dim=8, latent_dim=1, latent_stddevs=[1, 2]),
    ], ids=["toy-image-latent-0", "subspace-latent-0", "subspace-latent-negative",
            "stddevs-mismatch"])
    def test_factory_rejects_bad_shape(self, make):
        with pytest.raises(InvalidArgumentError):
            make()

    def test_random_subspace_reproducible(self):
        a = random_subspace(dim=12, latent_dim=3, basis_seed=9)
        b = random_subspace(dim=12, latent_dim=3, basis_seed=9)
        assert np.array_equal(a.basis, b.basis)

    def test_grid_shape_roundtrip(self):
        oracle = random_subspace(grid_shape=(3, 8, 8), latent_dim=8)
        assert oracle.dim == 192
        assert oracle.grid_shape == (3, 8, 8)


class TestPerturbed:
    def test_zero_magnitude_is_exact(self, circle):
        p = PerturbedScoreOracle(base=circle, magnitude=0.0)
        x = np.array([0.3, 1.1])
        np.testing.assert_array_equal(p.score(x, 0.5), circle.score(x, 0.5))

    def test_error_magnitude_scaling(self, circle):
        p = PerturbedScoreOracle(base=circle, magnitude=1e-3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2000, 2))
        denoiser_rms = {}
        for sigma in (0.01, 0.1, 1.0):
            err = (p.score(x, sigma) - circle.score(x, sigma)) * sigma**2
            denoiser_rms[sigma] = np.sqrt(np.mean(err**2))
            # frozen field: order-one components after removing the scale law
            law = p.magnitude * (1.0 + oracles._SIGMA_FLOOR / sigma)
            assert 0.2 < denoiser_rms[sigma] / law < 2.0
        # denoiser error deteriorates below the noise floor
        assert denoiser_rms[0.01] > 10 * denoiser_rms[1.0]

    def test_deterministic_replay(self, circle):
        a = PerturbedScoreOracle(base=circle, magnitude=1e-3)
        b = PerturbedScoreOracle(base=circle, magnitude=1e-3)
        x = np.array([0.2, -0.9])
        assert np.array_equal(a.score(x, 0.3), b.score(x, 0.3))

    def test_tweedie_uses_perturbed_score(self, circle):
        p = PerturbedScoreOracle(base=circle, magnitude=1e-2)
        x = np.array([1.0, 0.2])
        sigma = 0.4
        np.testing.assert_allclose(p.posterior_mean(x, sigma),
                                   x + sigma**2 * p.score(x, sigma), atol=1e-12)
        assert not np.allclose(p.posterior_mean(x, sigma),
                               circle.posterior_mean(x, sigma))

    def test_delegation(self, circle):
        p = PerturbedScoreOracle(base=circle, magnitude=1e-3)
        assert p.dim == 2 and p.manifold_dim == 0
        x = np.array([1.9, 0.0])
        np.testing.assert_array_equal(p.nearest_manifold_point(x),
                                      circle.nearest_manifold_point(x))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 20.0),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_score_gradient_property(sigma, xs):
    oracle = circle_point_cloud()
    x = np.array(xs)
    fd = fd_gradient(lambda v: oracle.log_density(v, sigma), x)
    np.testing.assert_allclose(oracle.score(x, sigma), fd, rtol=2e-4, atol=2e-4)


_ORACLES = {
    "point_cloud": circle_point_cloud,
    "subspace": gaussian_on_axis,
    "perturbed": lambda: PerturbedScoreOracle(base=circle_point_cloud()),
}
_SIGMA_METHODS = ("score", "posterior_mean", "denoise", "log_density",
                  "softmax_weights")
_BAD_STATES = {"nan_state": [np.nan, 0.0], "inf_state": [0.0, np.inf],
               "wrong_dim": [0.0, 0.0, 0.0]}
_BAD_SIGMAS = {"sigma_zero": 0.0, "sigma_negative": -1.0, "sigma_nan": np.nan}


def _invalid_calls():
    for kind, make in _ORACLES.items():
        oracle = make()
        for method in _SIGMA_METHODS + ("nearest_manifold_point",):
            if not hasattr(oracle, method):
                continue
            takes_sigma = method != "nearest_manifold_point"
            for label, state in _BAD_STATES.items():
                args = (np.array(state), 0.5) if takes_sigma else (np.array(state),)
                yield pytest.param(kind, method, args, id=f"{kind}-{method}-{label}")
            if takes_sigma:
                for label, sigma in _BAD_SIGMAS.items():
                    yield pytest.param(kind, method, (np.zeros(2), sigma),
                                       id=f"{kind}-{method}-{label}")


@pytest.mark.parametrize("kind,method,args", list(_invalid_calls()))
def test_invalid_input_rejected(kind, method, args):
    oracle = _ORACLES[kind]()
    with pytest.raises(InvalidArgumentError):
        getattr(oracle, method)(*args)


_AXIS_BASIS = np.array([[1.0], [0.0]])


@pytest.mark.parametrize("make", [
    lambda: PointCloudScore(points=np.eye(2), weights=np.array([np.nan, np.nan])),
    lambda: PointCloudScore(points=np.eye(2), weights=np.array([np.nan, 1.0])),
    lambda: SubspaceGaussianScore(basis=_AXIS_BASIS, latent_stddevs=np.array([np.nan])),
    lambda: SubspaceGaussianScore(basis=_AXIS_BASIS, latent_stddevs=np.array([np.inf])),
    # finite, with a variance past the largest float: kappa would be NaN
    lambda: SubspaceGaussianScore(basis=_AXIS_BASIS, latent_stddevs=np.array([1e155])),
    lambda: SubspaceGaussianScore(basis=np.array([[np.nan], [0.0]]), latent_stddevs=np.ones(1)),
    lambda: PerturbedScoreOracle(base=circle_point_cloud(), magnitude=np.nan),
    lambda: PerturbedScoreOracle(base=circle_point_cloud(), magnitude=np.inf),
    lambda: toy_image_subspace(smoothness=np.nan),
    lambda: toy_image_subspace(smoothness=-1.0),
    lambda: toy_image_subspace(smoothness=np.inf),
], ids=["weights-nan", "weights-nan-and-1", "stddevs-nan", "stddevs-inf",
        "stddevs-square-inf", "basis-nan",
        "magnitude-nan", "magnitude-inf", "smoothness-nan", "smoothness-negative",
        "smoothness-inf"])
def test_parameter_outside_its_domain_is_refused(make):
    # each would score a finite state as non-finite, or skip the smoothing
    with pytest.raises(InvalidArgumentError):
        make()


_MALFORMED_CALLS = {
    "scalar-state": (5.0, 1.0),
    "array-sigma": (np.zeros(2), np.array([1.0, 2.0])),
    "string-state": (np.array(["a", "b"]), 1.0),
    "complex-state": (np.array([1.0 + 2.0j, 0.0]), 1.0),
}


@pytest.mark.parametrize("call", list(_MALFORMED_CALLS))
@pytest.mark.parametrize("kind", list(_ORACLES))
def test_malformed_input_raises_the_documented_error(kind, call):
    with pytest.raises(InvalidArgumentError):
        _ORACLES[kind]().score(*_MALFORMED_CALLS[call])


def test_perturbed_oracle_checks_the_state_once(monkeypatch):
    calls = []
    check = oracles._check_state

    def counting(x, d):
        calls.append(d)
        return check(x, d)

    monkeypatch.setattr(oracles, "_check_state", counting)
    p = PerturbedScoreOracle(base=circle_point_cloud(), magnitude=1e-2)
    x = np.array([[1.0, 0.2], [-0.3, 0.8]])
    for method in ("score", "posterior_mean"):
        calls.clear()
        getattr(p, method)(x, 0.4)
        assert len(calls) == 1, method


def converting_check_state(x, d):
    """The state check that converts every input, a float64 array included."""
    try:
        x = np.asarray(x)
    except ValueError as exc:
        raise InvalidArgumentError("state must be an array of real numbers") from exc
    if x.dtype.kind not in "biuf":
        raise InvalidArgumentError("state must be an array of real numbers")
    x = x.astype(float, copy=False)
    if x.ndim == 0 or x.shape[-1] != d:
        raise InvalidArgumentError(f"state shape {x.shape} does not end in oracle dimension {d}")
    if not np.isfinite(x).all():
        raise InvalidArgumentError("state must be finite")
    return x


class _SubArray(np.ndarray):
    pass


def _read_only(x):
    x.flags.writeable = False
    return x


_D = 4
_GRID = np.arange(3.0 * _D).reshape(3, _D) - 5.5
_STATES = {
    "c-order": _GRID.copy(),
    "f-order": np.asfortranarray(_GRID),
    "non-contiguous": np.arange(6.0 * _D).reshape(3, 2 * _D)[:, ::2],
    "read-only": _read_only(_GRID.copy()),
    "byte-swapped": _GRID.astype(">f8"),
    "float32": _GRID.astype(np.float32),
    "int": np.arange(3 * _D).reshape(3, _D),
    "bool": np.ones((2, _D), dtype=bool),
    "subclass": _GRID.copy().view(_SubArray),
    "list": [[1.0, 2.0, 3.0, 4.0]],
    "0-d": np.array(1.0),
    "wrong-last-dim": np.zeros((2, _D + 1)),
    "nan": np.array([1.0, np.nan, 0.0, 2.0]),
    "inf": np.array([[1.0, 2.0, np.inf, 0.0]]),
    "-inf": np.array([[1.0, 2.0, 3.0, -np.inf]]),
    "inf-minus-inf": np.array([np.inf, -np.inf, 0.0, 1.0]),
    "non-contiguous-nan": np.array([[1.0, 9.0, np.nan, 9.0, 0.0, 9.0, 2.0, 9.0]])[:, ::2],
    "sum-overflows": np.full((3, _D), 1e308),
    "signed-sum-overflows": np.array([1e308, -1e308, 1e308, 1e308]),
    "squares-overflow": np.full((2, _D), -1e200),
}


@pytest.mark.parametrize("label", list(_STATES))
def test_state_check_matches_the_converting_check(label):
    # a float64 ndarray skips the conversion; every result, error message
    # and returned object must stay what converting every input gives
    x = _STATES[label]
    try:
        want = converting_check_state(x, _D)
    except InvalidArgumentError as exc:
        with pytest.raises(InvalidArgumentError) as got:
            oracles._check_state(x, _D)
        assert str(got.value) == str(exc)
        return
    got = oracles._check_state(x, _D)
    assert type(got) is type(want) and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert (got is x) == (want is x)


# -- the per-sigma kappa memo of the subspace score ------------------------


@pytest.mark.parametrize("sigma", [0.002, 0.1, 1.0, 80.0])
def test_memoised_kappa_leaves_the_score_bits(sigma):
    oracle = toy_image_subspace()
    x = np.random.default_rng(4).standard_normal((3, oracle.dim))
    first = oracle.score(x, sigma)
    assert sigma in oracle._kappa
    again = oracle.score(x, sigma)
    fresh = toy_image_subspace().score(x, sigma)
    assert np.array_equal(first, fresh) and np.array_equal(again, fresh)
    lam = oracle.latent_stddevs**2
    assert np.array_equal(oracle._kappa_rows[oracle._kappa[sigma]],
                          lam / ((lam + sigma * sigma) * sigma * sigma))
    assert not np.shares_memory(again, oracle._kappa_rows)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda o: pickle.loads(pickle.dumps(o))])
def test_kappa_memo_survives_copies(clone):
    oracle = toy_image_subspace()
    x = np.ones((2, oracle.dim))
    oracle.score(x, 0.3)
    twin = clone(oracle)
    for sigma in (0.3, 0.7, 0.3):
        assert np.array_equal(twin.score(x, sigma), toy_image_subspace().score(x, sigma))


def test_kappa_memo_keeps_its_first_sigmas_up_to_its_cap():
    axis = gaussian_on_axis()
    x = np.ones((1, 2))
    cap = oracles._KAPPA_MEMO_CAP
    sigmas = np.geomspace(0.01, 10.0, cap + 5).tolist()
    for sigma in sigmas:
        assert np.array_equal(axis.score(x, sigma), gaussian_on_axis().score(x, sigma))
        assert len(axis._kappa) <= cap
    # full: the first sigmas stay, later ones are computed each call and not kept
    assert list(axis._kappa) == sigmas[:cap]
    assert np.array_equal(axis.score(x, sigmas[-1]), gaussian_on_axis().score(x, sigmas[-1]))
    assert sigmas[-1] not in axis._kappa


def test_kappa_memo_is_not_part_of_equality_or_repr():
    a = toy_image_subspace()
    b = copy.copy(a)  # shares the arrays; equality is identity, so a != b
    object.__setattr__(b, "_kappa", {})
    object.__setattr__(b, "_kappa_rows", a._kappa_rows.copy())
    a.score(np.zeros(a.dim), 0.5)
    assert a._kappa and not b._kappa
    assert a != b and repr(a) == repr(b)


def _grid():
    return TimeGrid(np.linspace(0.5, 1.0, 6))


@pytest.mark.parametrize("build", [
    circle_point_cloud,
    toy_image_subspace,
    lambda: PerturbedScoreOracle(base=toy_image_subspace()),
    _grid,
    lambda: Trajectory(np.zeros((6, 2)), _grid(), VE_KARRAS),
    lambda: InversionConfig(t_ssi=0.5, grid=_grid(), noise_seed=None),
    lambda: InversionResult(noise=np.zeros((3, 2)), grid=_grid()),
], ids=["PointCloudScore", "SubspaceGaussianScore", "PerturbedScoreOracle",
        "TimeGrid", "Trajectory", "InversionConfig", "InversionResult"])
def test_array_holding_dataclasses_compare_by_identity(build):
    a = build()
    assert a == a
    assert a != build()  # a generated __eq__ would compare arrays and raise
    assert {a: "kept"}[a] == "kept"


# -- in-place subspace and perturbed scores against the plain expressions ---


def subspace_score_reference(oracle, x, sigma):
    """One-back-projection subspace score ``(c kappa) A^T - x / sigma^2``,
    one fresh array per operation."""
    s2 = sigma * sigma
    lam = oracle.latent_stddevs**2
    kappa = lam / ((lam + s2) * s2)
    # BLAS may round a product with a transposed view differently at small B
    return (x @ oracle.basis * kappa) @ np.ascontiguousarray(oracle.basis.T) - x / s2


def perturbed_score_reference(p, x, sigma):
    """Base score plus the random-feature field, its sines scaled before they
    are projected, without buffers."""
    phase = x @ p._weights.T + (p._phases + np.log(sigma))
    err = p.magnitude * (1.0 + oracles._SIGMA_FLOOR / sigma) / (sigma * sigma)
    return subspace_score_reference(p.base, x, sigma) + (err * np.sin(phase)) @ p._proj_t


_ZEROS = slice(None, None, 17)  # the entries that a "zero" or "negzero" state sets


@pytest.fixture(scope="module")
def random_toy_image():
    """The perturbed toy image with random latent stddevs, and a random shift
    that moves states off its subspace."""
    toy = toy_image_subspace()
    rng = np.random.default_rng(11)
    shift = rng.standard_normal(toy.dim)
    stddevs = rng.uniform(0.5, 2.0, toy.manifold_dim)
    return PerturbedScoreOracle(base=SubspaceGaussianScore(
        basis=toy.basis, latent_stddevs=stddevs, grid_shape=toy.grid_shape),
        magnitude=1e-3), shift


@pytest.mark.parametrize("batch,entries", [
    pytest.param(batch, entries, id=name if entries == "random" else f"{name}-{entries}")
    for entries in ("random", "zero", "negzero")
    for name, batch in (("1d", None), ("b1", 1), ("b16", 16), ("b300", 300))])
@pytest.mark.parametrize("sigma", [0.002, 0.1, 1.0, 80.0])
def test_in_place_scores_equal_the_plain_expressions(random_toy_image, entries, batch, sigma):
    """``entries`` says what every 17th entry of the state holds: a random
    draw, +0.0 or -0.0; the scores equal the plain expressions to the bit,
    signed zeros included."""
    p, _ = random_toy_image
    base = p.base
    rng = np.random.default_rng((batch or 0, int(sigma * 1000)))
    shape = (p.dim,) if batch is None else (batch, p.dim)
    # half on the subspace (a data point plus noise at sigma), half far off it
    x = base.sample_data(3, 1)[0] + sigma * rng.standard_normal(shape)
    if batch is not None and batch > 1:
        x[::2] += 10.0 * rng.standard_normal((x[::2].shape[0], p.dim))
    if entries != "random":
        x[..., _ZEROS] = 0.0 if entries == "zero" else -0.0
    x_before = x.copy()
    for oracle, reference in ((base, subspace_score_reference),
                              (p, perturbed_score_reference)):
        got = oracle.score(x, sigma)
        assert np.array_equal(got, reference(oracle, x, sigma))
        assert not np.shares_memory(got, x)
        assert np.array_equal(x, x_before)


@pytest.mark.parametrize("make", [
    circle_point_cloud, gaussian_on_axis, toy_image_subspace,
    lambda: PerturbedScoreOracle(base=toy_image_subspace(), magnitude=1e-3),
], ids=["circle", "axis", "toy-image", "perturbed"])
def test_posterior_mean_is_x_plus_sigma_squared_score_to_the_bit(make):
    oracle = make()
    x = 2.0 * np.random.default_rng(8).standard_normal((5, oracle.dim))
    x_before = x.copy()
    for sigma in (0.002, 0.7, 20.0):
        for arg in (x, x[0], x.tolist()):
            want = np.asarray(arg) + sigma * sigma * oracle.score(arg, sigma)
            assert np.array_equal(oracle.posterior_mean(arg, sigma), want)
    assert np.array_equal(x, x_before)


def longdouble_score_references(p, x, sigma):
    """Two-projection subspace score, and it plus the field, in ``np.longdouble``."""
    ld = np.longdouble
    base, x, sigma = p.base, x.astype(ld), ld(sigma)
    basis = base.basis.astype(ld)
    coef = x @ basis
    normal = x - coef @ basis.T
    tang = (coef / (base.latent_stddevs.astype(ld) ** 2 + sigma**2)) @ basis.T
    exact = -(tang + normal / sigma**2)
    phase = x @ p._weights.T.astype(ld) + p._phases.astype(ld) + np.log(sigma)
    err = ld(p.magnitude) * (1 + ld(oracles._SIGMA_FLOOR) / sigma) / sigma**2
    return exact, exact + err * (np.sin(phase) @ p._proj_t.astype(ld))


@pytest.mark.parametrize("offset", ["zero", "random"])
@pytest.mark.parametrize("sigma", [0.002, 0.01, 0.1, 1.0, 80.0])
def test_subspace_and_perturbed_scores_match_a_longdouble_reference(random_toy_image,
                                                                    offset, sigma):
    """``offset`` shifts the states: zero on the toy image as built, and a
    random vector on the toy image with random latent stddevs."""
    p, shift = ((PerturbedScoreOracle(base=toy_image_subspace(), magnitude=1e-3), 0.0)
                if offset == "zero" else random_toy_image)
    rng = np.random.default_rng(int(sigma * 1000))
    on = p.base.sample_data(5, 8)
    # on the subspace, sigma from it, and far from it, each shifted
    x = shift + np.concatenate([on, on + sigma * rng.standard_normal(on.shape),
                                on + 10.0 * rng.standard_normal(on.shape)])
    for oracle, want in zip((p.base, p), longdouble_score_references(p, x, sigma)):
        err = np.linalg.norm(oracle.score(x, sigma) - want, axis=1).astype(float)
        assert np.all(err <= 1e-9 * np.linalg.norm(want, axis=1).astype(float))


# -- point-cloud precision against the direct (B, K, d) formula -------------

PRECISION = 1e-8  # relative row-norm error; the benchmark's score probe uses the same


def direct_reference(points, weights, x, sigma):
    """Score, weights, log-density, its normaliser and squared distances,
    each by direct log-sum-exp over an explicit ``(B, K, d)`` difference."""
    diff = points[None, :, :] - x[:, None, :]
    sq = np.sum(diff * diff, axis=-1)
    with np.errstate(divide="ignore"):
        logits = np.log(weights) - sq / (2.0 * sigma * sigma)
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=-1, keepdims=True)
    resp = e / total
    score = np.einsum("bk,bkd->bd", resp, diff) / (sigma * sigma)
    log_norm = 0.5 * x.shape[-1] * (np.log(2.0 * np.pi) + 2.0 * np.log(sigma))
    return score, resp, (top + np.log(total))[:, 0] - log_norm, log_norm, sq


def _unit(rng, shape):
    u = rng.standard_normal(shape)
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


@st.composite
def clouds(draw):
    """Atoms of norm 1e-2..1e4, sigma 0.002..80, optionally a near-duplicate
    of atom 0 at 1e-3..1e-1 sigma, random weights; returns a seeded rng too."""
    d = draw(st.integers(1, 16))
    k = draw(st.integers(1, 12))
    norm = 10.0 ** draw(st.floats(-2.0, 4.0))
    sigma = 10.0 ** draw(st.floats(np.log10(0.002), np.log10(80.0)))
    spacing = draw(st.none() | st.floats(-3.0, -1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = norm * _unit(rng, (k, d))
    if spacing is not None:
        points = np.vstack([points, points[0] + 10.0**spacing * sigma * _unit(rng, d)])
    weights = rng.dirichlet(np.ones(len(points)))
    return PointCloudScore(points=points, weights=weights), sigma, rng


def _assert_matches_reference(oracle, x, sigma, compare_weights):
    score, resp, log_density, log_norm, sq = direct_reference(
        oracle.points, oracle.weights, x, sigma)

    def rel(got, want):
        return np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)

    assert rel(oracle.score(x, sigma), score).max() <= PRECISION
    # relative to the size of its two terms, log-sum-exp and normaliser
    err = np.abs(oracle.log_density(x, sigma) - log_density)
    assert np.all(err <= PRECISION * (np.abs(log_density) + abs(log_norm)))
    w = oracle.softmax_weights(x, sigma)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    if compare_weights:
        assert rel(w, resp).max() <= PRECISION
    nearest = oracle.nearest_manifold_point(x)
    top2 = np.sort(sq, axis=-1)[:, :2]
    clear = (top2[:, -1] - top2[:, 0] > 1e-12 * top2[:, -1]) | (sq.shape[1] == 1)
    np.testing.assert_array_equal(nearest[clear],
                                  oracle.points[np.argmin(sq, axis=-1)][clear])


def _near_the_atoms(oracle, sigma, rng):
    """Eight states, each sigma sqrt(d) times 0.5..2 from a random atom."""
    d = oracle.dim
    radius = sigma * np.sqrt(d) * rng.uniform(0.5, 2.0, (8, 1))
    return oracle.points[rng.integers(0, len(oracle.points), 8)] + radius * _unit(rng, (8, d))


@settings(max_examples=200, deadline=None)
@given(clouds())
def test_point_cloud_matches_direct_formula_near_the_atoms(case):
    # forward-process states x0 + sigma n lie about sigma sqrt(d) from their
    # atom; the posterior mean w @ points - x rounds to eps max|p| absolute,
    # so states within ~1e-7 max|p| of their posterior mean are out of scope
    oracle, sigma, rng = case
    _assert_matches_reference(oracle, _near_the_atoms(oracle, sigma, rng), sigma,
                              compare_weights=True)


@st.composite
def clouds_at_the_logit_bound(draw):
    """Atoms of norm 0.1..1e3 in d = 1..64, random weights, and sigma such
    that the GEMM logits' bound beta for states at the atoms is 10^-1.5..10^1.5
    times tau, so the examples fall on both sides of the path switch."""
    d = draw(st.integers(1, 64))
    k = draw(st.integers(1, 12))
    norm = 10.0 ** draw(st.floats(-1.0, 3.0))
    ratio = 10.0 ** draw(st.floats(-1.5, 1.5))
    gamma = (d + 3) * oracles._UNIT_ROUNDOFF
    # beta = gamma P (2 |x| + P) / (2 sigma^2) with |x| = P
    sigma = norm * np.sqrt(3.0 * gamma / (2.0 * ratio * oracles._LOGIT_TOL))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = norm * _unit(rng, (k, d))
    weights = rng.dirichlet(np.ones(k))
    return PointCloudScore(points=points, weights=weights), sigma, rng


@settings(max_examples=200, deadline=None)
@given(clouds_at_the_logit_bound())
def test_point_cloud_matches_direct_formula_at_the_logit_bound(case):
    oracle, sigma, rng = case
    _assert_matches_reference(oracle, _near_the_atoms(oracle, sigma, rng), sigma,
                              compare_weights=True)


def _direct_sums(monkeypatch, call):
    """``call()``'s result under warnings-as-errors, and the row index array
    of each ``(row, atom)`` pair set it summed directly."""
    calls = []
    direct = PointCloudScore._direct_sq_dist

    def spy(self, states, rows, atoms):
        calls.append(rows)
        return direct(self, states, rows, atoms)

    monkeypatch.setattr(PointCloudScore, "_direct_sq_dist", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = call()
    monkeypatch.undo()
    return result, calls


@pytest.fixture
def benchmark_cloud():
    """The benchmark's regime: 256 toy-image atoms (d = 192, max norm about
    4.4) and 32 states at atoms, to be noised at each sigma."""
    points = toy_image_subspace().sample_data((1, 0xA7), 256)
    oracle = PointCloudScore(points=points, weights=np.full(256, 1.0 / 256))
    rng = np.random.default_rng(5)
    return oracle, points[rng.integers(0, 256, 32)], rng


def test_point_cloud_logit_path_follows_the_bound(monkeypatch, benchmark_cloud):
    oracle, x0, rng = benchmark_cloud
    assert 4.0 < oracle._max_norm < 5.0
    # batch 32 at each level of the benchmark's 40-step Karras grid, 0.1 to 80
    sigmas = karras_grid(0.1, 80.0, 7.0, 40).times[1:]
    most = {}
    for s in sigmas:
        x = x0 + s * rng.standard_normal(x0.shape)
        score, calls = _direct_sums(monkeypatch, lambda: oracle.score(x, s))
        assert np.all(np.isfinite(score))
        if calls:
            most[s] = np.bincount(calls[0]).max()
    # only the grid's four lowest levels, sigma 0.1 to 0.225, refine.  The
    # candidate count follows from L = 60 and the atoms' spacing, not from a
    # bound of its own, so the most per row at each level is pinned for these
    # draws: a change to the screen or its margin moves it
    assert list(most) == list(sigmas[:4])
    assert [int(most[s]) for s in sigmas[:4]] == [2, 4, 12, 63]
    # sigma 0.002 with atoms of norm 1e4
    far = PointCloudScore(points=1e4 * _unit(rng, (8, 16)), weights=np.full(8, 0.125))
    x = far.points + 0.002 * rng.standard_normal((8, 16))
    score, calls = _direct_sums(monkeypatch, lambda: far.score(x, 0.002))
    assert calls and np.all(np.isfinite(score))
    # a NaN bound (0 * inf: an atom at the origin, |x|^2 overflows) and an
    # infinite one (sigma^2 underflows to 0) refine every atom of the row,
    # without a warning
    origin = PointCloudScore(points=np.zeros((1, 2)), weights=np.ones(1))
    _, calls = _direct_sums(monkeypatch,
                            lambda: origin._logits(np.array([[1e160, 0.0]]), 1.0))
    assert [len(rows) for rows in calls] == [1]
    _, calls = _direct_sums(monkeypatch,
                            lambda: circle_point_cloud()._logits(np.ones((1, 2)), 1e-170))
    assert [len(rows) for rows in calls] == [8]


def test_point_cloud_responsibilities_are_never_subnormal(benchmark_cloud):
    # atoms more than L + 2 beta below a row's top logit get weight exactly 0,
    # so no responsibility is left in subnormal range (slow arithmetic)
    oracle, x0, rng = benchmark_cloud
    w = oracle.softmax_weights(x0 + 0.1 * rng.standard_normal(x0.shape), 0.1)
    assert not np.any((w > 0) & (w < np.finfo(float).tiny))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_point_cloud_scores_states_where_every_direct_sum_overflows():
    # |x - p_k|^2 overflows for every atom, so the logits come from distances;
    # at (1e308, -1e308) the distance sum d_k + d_min overflows as well, and
    # at sigma 1e75 the log-density is finite and the rows still refine
    pair = PointCloudScore(points=np.array([[0.0, 0.0], [1.0, 0.0]]), weights=np.full(2, 0.5))
    circle = circle_point_cloud(radius=1.0)
    for oracle, x, sigma in ((pair, [1e160, 0.0], 1.0), (circle, [1e156, 1e156], 1.0),
                             (circle, [1e308, -1e308], 1.0), (pair, [1e160, 0.0], 1e75),
                             (circle, [1e156, 1e156], 1e75)):
        x = np.array([x])
        scale = np.abs(x).max()  # row norms of 1e308 overflow
        nearest = oracle.points[np.argmax(oracle.points @ (x[0] / scale))]
        want = (nearest - x) / scale
        score = oracle.score(x, sigma) * (sigma * sigma / scale)
        assert np.all(np.isfinite(score))
        assert np.linalg.norm(score - want) <= PRECISION * np.linalg.norm(want)
        # the projection takes the same refine; no warning, and an atom
        assert (oracle.points == oracle.nearest_manifold_point(x)).all(axis=1).any()
        if sigma > 1.0:
            log_density = (-0.5 * (np.hypot.reduce(x[0] - nearest) / sigma) ** 2
                           - np.log(2.0 * np.pi * sigma * sigma))
            assert abs(oracle.log_density(x, sigma)[0] - log_density) <= \
                PRECISION * abs(log_density)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_point_cloud_weights_and_projection_far_from_every_atom_follow_the_screen():
    # every direct sum overflows; the screen x.p_k - |p_k|^2 / 2 does not, and
    # its clear maximum, 1.41e156, is at the atom (0.707, 0.707)
    circle = circle_point_cloud(radius=1.0)
    x = np.array([[1e156, 1e156]])
    nearest = np.argmax(circle.points @ x[0])
    assert np.allclose(circle.points[nearest], np.sqrt(0.5))
    assert np.array_equal(circle.nearest_manifold_point(x), circle.points[[nearest]])
    assert circle.softmax_weights(x, 1.0)[0, nearest] >= 1.0 - 1e-12


@st.composite
def equidistant_clouds(draw):
    """Up to 64 atoms at one distance r from a centre of norm 0.1..1e4, sigma
    such that the bound beta at the centre is 10..1e3 times tau, and eight
    states so close to the centre that every atom is a candidate."""
    d = draw(st.integers(1, 16))
    k = draw(st.integers(2, 64))
    norm = 10.0 ** draw(st.floats(-1.0, 4.0))
    ratio = 10.0 ** draw(st.floats(1.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = (d + 3) * oracles._UNIT_ROUNDOFF
    sigma = norm * np.sqrt(3.0 * gamma / (2.0 * ratio * oracles._LOGIT_TOL))
    radius = sigma * rng.uniform(0.5, 30.0)
    centre = norm * _unit(rng, d)
    oracle = PointCloudScore(points=centre + radius * _unit(rng, (k, d)),
                             weights=rng.dirichlet(np.ones(k)))
    # logits then differ by at most 2 radius offset / sigma^2 <= 1
    offset = 0.5 * sigma**2 / radius * rng.uniform(0.0, 1.0, (8, 1))
    return oracle, centre + offset * _unit(rng, (8, d)), sigma


@settings(max_examples=200, deadline=None)
@given(equidistant_clouds())
def test_point_cloud_matches_direct_formula_with_every_atom_a_candidate(case):
    oracle, x, sigma = case
    # scope of the other families: the state lies more than 1e-6 max|p| from
    # its posterior mean, whose product rounds to eps max|p|
    mean_gap = sigma**2 * np.linalg.norm(
        direct_reference(oracle.points, oracle.weights, x, sigma)[0], axis=-1)
    x = x[mean_gap > 1e-6 * oracle._max_norm]
    assume(len(x) > 0)
    direct = PointCloudScore._direct_sq_dist
    with mock.patch.object(PointCloudScore, "_direct_sq_dist", autospec=True,
                           side_effect=direct) as spy:
        oracle.score(x, sigma)
    assert spy.call_count == 1
    assert len(spy.call_args.args[2]) == x.shape[0] * len(oracle.points)
    _assert_matches_reference(oracle, x, sigma, compare_weights=True)


@pytest.mark.parametrize("pairs", [1, 3])
def test_point_cloud_outputs_do_not_depend_on_the_block_size(monkeypatch, benchmark_cloud,
                                                             pairs):
    oracle, x0, rng = benchmark_cloud
    equidistant = PointCloudScore(points=1e3 + _unit(rng, (40, 6)),
                                  weights=np.full(40, 1.0 / 40))
    cases = [(oracle, x0 + s * rng.standard_normal(x0.shape), s) for s in (0.1, 0.2)]
    cases.append((equidistant, 1e3 + 1e-4 * rng.standard_normal((5, 6)), 0.01))
    cases.append((circle_point_cloud(), np.zeros((3, 2)), 0.002))

    def outputs():
        return [getattr(o, m)(x, s) for o, x, s in cases
                for m in ("score", "softmax_weights", "log_density")] + [
            o.nearest_manifold_point(x) for o, x, _ in cases]

    want = outputs()
    monkeypatch.setattr(oracles, "_PAIRS_PER_BLOCK", pairs)
    got = outputs()
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(clouds(), st.floats(1.0, np.log10(1.4e4)))
def test_point_cloud_matches_direct_formula_far_from_the_atoms(case, log_ratio):
    # |x| / sigma up to 1.4e4 puts logits near 1e8 or beyond; the weights of
    # two near-tied atoms there move by eps |logit| ~ 1e-8 with the order in
    # which any float64 code sums a squared distance, so the weights are only
    # checked to sum to one; the score and log-density are checked in full
    oracle, sigma, rng = case
    d = oracle.dim
    x = 10.0**log_ratio * sigma * _unit(rng, (8, d))
    # keep the near family's scope: at least sigma sqrt(d) / 2 from every atom
    dist = np.linalg.norm(x[:, None, :] - oracle.points, axis=-1).min(axis=1)
    x = x[dist >= 0.5 * sigma * np.sqrt(d)]
    assume(len(x) > 0)
    _assert_matches_reference(oracle, x, sigma, compare_weights=False)


# -- the toy-image basis filter against scipy.ndimage ------------------------

@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("shape", [(1, 8, 8), (3, 2, 5), (2, 19, 3), (4, 7, 13),
                                   (1, 1, 6)])
def test_wrap_filter_equals_scipy_bit_for_bit(shape, sigma):
    from scipy.ndimage import gaussian_filter

    # radius int(4 sigma + 0.5) reaches 10 at sigma 2.5, past every short axis
    images = np.random.default_rng((len(shape), shape[1], shape[2])).standard_normal(shape)
    before = images.copy()
    want = np.stack([gaussian_filter(im, sigma, mode="wrap") for im in images])
    assert np.array_equal(oracles._gaussian_filter_wrap(images, sigma), want)
    assert np.array_equal(images, before)


def scipy_toy_image_basis(latent_dim=8, basis_seed=0, smoothness=1.5,
                          grid_shape=(3, 8, 8)):
    """The toy-image basis as built one pattern at a time with scipy.ndimage."""
    from scipy.ndimage import gaussian_filter

    c, h, w = grid_shape
    d = c * h * w
    rng = oracles._rng((basis_seed, 0x731))
    modes = np.empty((d, latent_dim))
    for k in range(latent_dim):
        pattern = rng.standard_normal((h, w))
        if smoothness > 0:
            pattern = gaussian_filter(pattern, smoothness, mode="wrap")
        weights = rng.standard_normal(c) + 1.0
        modes[:, k] = (weights[:, None, None] * pattern).ravel()
    q, r = np.linalg.qr(modes)
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("kwargs", [{}, {"grid_shape": (3, 32, 32)}, {"smoothness": 0},
                                    {"latent_dim": 3, "basis_seed": 7, "smoothness": 2.5}],
                         ids=["default", "3x32x32", "unsmoothed", "seed7-s2.5"])
def test_toy_image_basis_equals_the_scipy_construction(kwargs):
    assert np.array_equal(toy_image_subspace(**kwargs).basis,
                          scipy_toy_image_basis(**kwargs))

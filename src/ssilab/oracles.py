"""Exact score functions and denoisers for analytic data distributions.

Every oracle exposes the same surface:

* ``score(x, sigma)`` -- exact gradient of ``log p(x; sigma)``,
* ``posterior_mean(x, sigma)`` / ``denoise(x, sigma)`` -- exact clean-data
  conditional mean, related to the score by the Tweedie identity
  ``E[x0 | x] = x + sigma^2 * score(x, sigma)``,
* ``nearest_manifold_point(x)`` -- Euclidean projection onto the data support,
* ``log_density(x, sigma)`` -- closed-form log of the smoothed density
  (used by finite-difference cross-checks),
* ``sample_data(seed, count)`` -- i.i.d. draws from the clean distribution.

States are plain numpy arrays of shape ``(..., d)``; all operations are
vectorised over leading batch axes.

Each public method validates its inputs once, on entry (finite states with
last axis ``d``, finite ``sigma > 0``; else ``InvalidArgumentError``).  One
built on another public method (``posterior_mean`` on ``score``, the perturbed
``score`` on its base oracle's) calls it first and lets it check; private
helpers take checked arguments and check nothing.

``score`` never writes into its input and returns a fresh array that the
caller owns: the perturbed ``score`` adds its field into its base oracle's
result, and the step kernel of :mod:`ssilab.flow` scales the result in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist
from scipy.special import logsumexp

from .errors import InvalidArgumentError

_LOG_2PI = float(np.log(2.0 * np.pi))


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _check_state(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d:
        raise InvalidArgumentError(f"state dimension {x.shape[-1]} != oracle dimension {d}")
    if not np.isfinite(x).all():
        raise InvalidArgumentError("state must be finite")
    return x


def _check_sigma(sigma) -> float:
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0:
        raise InvalidArgumentError("sigma must be strictly positive (score is singular at 0)")
    return sigma


class _OracleBase:
    """Shared Tweedie-identity plumbing for concrete oracles."""

    def posterior_mean(self, x, sigma):
        score = self.score(x, sigma)  # checks x and sigma
        sigma = float(sigma)
        return x + sigma * sigma * score

    def denoise(self, x, sigma):
        # Definitionally the posterior mean: (D(x, sigma) - x)/sigma^2 == score.
        return self.posterior_mean(x, sigma)


@dataclass(frozen=True)
class PointCloudScore(_OracleBase):
    """Mixture of point masses; smoothed density is an isotropic Gaussian mixture.

    Each call on a ``(B, d)`` batch costs O(B K d) time and O(B K) memory:
    distances come from ``cdist`` and the posterior mean from one
    ``(B, K) @ (K, d)`` product, so no ``(B, K, d)`` tensor is formed.  That
    product rounds to about ``eps * max |p_k|`` absolute, so ``score`` keeps
    1e-8 relative precision while a state lies more than about
    ``1e-7 * max |p_k|`` from its posterior mean.
    """

    points: np.ndarray  # (K, d)
    weights: np.ndarray  # (K,)
    grid_shape: tuple[int, int, int] | None = None

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if points.shape[0] < 1:
            raise InvalidArgumentError("need at least one point")
        if not np.all(np.isfinite(points)):
            raise InvalidArgumentError("points must be finite")
        if weights.shape != (points.shape[0],):
            raise InvalidArgumentError("weights must match the number of points")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("weights must be nonnegative and sum to 1")
        if self.grid_shape is not None and int(np.prod(self.grid_shape)) != points.shape[1]:
            raise InvalidArgumentError("grid_shape does not match dimension")
        points = points.copy()
        points.flags.writeable = False
        weights = weights.copy()
        weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def manifold_dim(self) -> int:
        return 0

    @property
    def feature_scale(self) -> float:
        """Smallest pairwise distance between distinct atoms (inf for one atom)."""
        if self.points.shape[0] < 2:
            return np.inf
        return float(pdist(self.points).min())

    def _sq_dist(self, x):
        """Unchecked squared distance from each state to each atom, ``(..., K)``.

        Sums ``(x - p_k)^2`` directly: the expanded ``|x|^2 - 2 x.p + |p|^2``
        cancels catastrophically once the atoms' norm dwarfs sigma.
        """
        flat = cdist(x.reshape(-1, self.dim), self.points, "sqeuclidean")
        return flat.reshape(x.shape[:-1] + (self.points.shape[0],))

    def _logits(self, x, sigma):
        """Unchecked ``log w_k - ||x - p_k||^2 / (2 sigma^2)``, ``(..., K)``."""
        with np.errstate(divide="ignore"):
            return np.log(self.weights) - self._sq_dist(x) / (2.0 * sigma * sigma)

    def _responsibilities(self, x, sigma):
        # divide by the sum: exp(logits - logsumexp) leaves rows summing to
        # 1 +- eps |logit|, about 1e-8 once a state is 1e4 sigma from the atoms
        w = self._logits(x, sigma)
        w = np.exp(w - w.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)

    def softmax_weights(self, x, sigma):
        """Posterior responsibilities over atoms, max-shifted and summing to one."""
        return self._responsibilities(_check_state(x, self.dim), _check_sigma(sigma))

    def score(self, x, sigma):
        x, sigma = _check_state(x, self.dim), _check_sigma(sigma)
        w = self._responsibilities(x, sigma)  # (..., K)
        return (w @ self.points - x) / (sigma * sigma)

    def log_density(self, x, sigma):
        x, sigma = _check_state(x, self.dim), _check_sigma(sigma)
        log_norm = 0.5 * self.dim * (_LOG_2PI + 2.0 * np.log(sigma))
        return logsumexp(self._logits(x, sigma), axis=-1) - log_norm

    def nearest_manifold_point(self, x):
        dist = self._sq_dist(_check_state(x, self.dim))
        idx = np.argmin(dist, axis=-1)  # first occurrence wins on ties
        return self.points[idx]

    def sample_data(self, seed, count: int):
        if count < 1:
            raise InvalidArgumentError("count must be >= 1")
        rng = _rng(seed)
        idx = rng.choice(self.points.shape[0], size=count, p=self.weights)
        return self.points[idx]


@dataclass(frozen=True)
class SubspaceGaussianScore(_OracleBase):
    """Gaussian supported on an affine subspace ``b + span(A)``.

    The smoothed density is a full-rank Gaussian with covariance
    ``A diag(stddevs^2) A^T + sigma^2 I``; all operations use the eigen-split
    into tangential (columns of ``A``) and normal components, so no ``d x d``
    matrices are ever formed.
    """

    basis: np.ndarray  # (d, n), column-orthonormal
    offset: np.ndarray  # (d,)
    latent_stddevs: np.ndarray  # (n,)
    grid_shape: tuple[int, int, int] | None = None

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise InvalidArgumentError("basis must be a (d, n) matrix")
        d, n = basis.shape
        if not n < d:
            raise InvalidArgumentError("latent dimension must be strictly below ambient")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(n))) > 1e-10:
            raise InvalidArgumentError("basis columns must be orthonormal")
        offset = np.broadcast_to(np.asarray(self.offset, dtype=float), (d,)).copy()
        stddevs = np.broadcast_to(np.asarray(self.latent_stddevs, dtype=float), (n,)).copy()
        if np.any(stddevs <= 0):
            raise InvalidArgumentError("latent stddevs must be positive")
        if self.grid_shape is not None and int(np.prod(self.grid_shape)) != d:
            raise InvalidArgumentError("grid_shape does not match dimension")
        basis = basis.copy()
        for arr in (basis, offset, stddevs):
            arr.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "latent_stddevs", stddevs)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def manifold_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def feature_scale(self) -> float:
        return np.inf  # affine support: the projection law is exact at every sigma

    def _split(self, x):
        y = x - self.offset
        coef = y @ self.basis  # (..., n)
        normal = y - coef @ self.basis.T
        return coef, normal

    def score(self, x, sigma):
        x, sigma = _check_state(x, self.dim), _check_sigma(sigma)
        # -(tang + normal / sigma^2) of ``_split``, in two (B, d) buffers
        y = x - self.offset
        coef = y @ self.basis
        proj = np.matmul(coef, self.basis.T)
        y -= proj  # the normal component
        y /= sigma * sigma
        np.matmul(coef / (self.latent_stddevs**2 + sigma * sigma), self.basis.T,
                  out=proj)  # the tangential score
        y += proj
        return np.negative(y, out=y)

    def log_density(self, x, sigma):
        x, sigma = _check_state(x, self.dim), _check_sigma(sigma)
        coef, normal = self._split(x)
        var_t = self.latent_stddevs**2 + sigma * sigma
        d, n = self.dim, self.manifold_dim
        quad = np.sum(coef * coef / var_t, axis=-1) + np.sum(normal * normal, axis=-1) / (
            sigma * sigma
        )
        logdet = np.sum(np.log(var_t)) + 2.0 * (d - n) * np.log(sigma)
        return -0.5 * (quad + logdet + d * _LOG_2PI)

    def nearest_manifold_point(self, x):
        x = _check_state(x, self.dim)
        coef, _ = self._split(x)
        return self.offset + coef @ self.basis.T

    def sample_data(self, seed, count: int):
        if count < 1:
            raise InvalidArgumentError("count must be >= 1")
        rng = _rng(seed)
        z = rng.standard_normal((count, self.manifold_dim))
        return self.offset + (z * self.latent_stddevs) @ self.basis.T


ScoreOracle = PointCloudScore | SubspaceGaussianScore


def circle_point_cloud(radius: float = 2.0, count: int = 8,
                       grid_shape=None) -> PointCloudScore:
    """Uniform atoms on a circle, ordered from angle pi going clockwise.

    The default (radius 2, eight points) places the first atom at (-2, 0).
    """
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    theta = np.pi - 2.0 * np.pi * np.arange(count) / count
    points = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(count, 1.0 / count)
    return PointCloudScore(points=points, weights=weights, grid_shape=grid_shape)


def gaussian_on_axis() -> SubspaceGaussianScore:
    """Unit Gaussian along the first coordinate axis in 2D."""
    return SubspaceGaussianScore(
        basis=np.array([[1.0], [0.0]]), offset=np.zeros(2), latent_stddevs=np.ones(1)
    )


def random_subspace(dim: int | None = None, latent_dim: int = 1,
                    latent_stddevs=1.0, basis_seed=0,
                    grid_shape=None) -> SubspaceGaussianScore:
    """Subspace oracle with a seeded random orthonormal basis.

    Either ``dim`` or ``grid_shape`` (C, H, W) must be given; with a grid shape
    the oracle's states can be reshaped into toy images for the correlation
    metrics.
    """
    if grid_shape is not None:
        grid_shape = tuple(int(v) for v in grid_shape)
        d = int(np.prod(grid_shape))
        if dim is not None and dim != d:
            raise InvalidArgumentError("dim conflicts with grid_shape")
    elif dim is not None:
        d = int(dim)
    else:
        raise InvalidArgumentError("give dim or grid_shape")
    rng = _rng((basis_seed, 0x5B5))
    raw = rng.standard_normal((d, latent_dim))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))  # deterministic sign convention
    return SubspaceGaussianScore(
        basis=q, offset=np.zeros(d), latent_stddevs=np.broadcast_to(
            np.asarray(latent_stddevs, dtype=float), (latent_dim,)),
        grid_shape=grid_shape,
    )


def toy_image_subspace(latent_dim: int = 8, basis_seed=0,
                       smoothness: float = 1.5,
                       grid_shape=(3, 8, 8)) -> SubspaceGaussianScore:
    """Subspace oracle whose basis vectors look like tiny natural images.

    Each mode is a Gaussian-smoothed spatial pattern shared across channels
    with random channel weights, so tangential directions carry both spatial
    and inter-channel correlation.  A residue that lives in this subspace is
    therefore visible to the correlation diagnostics, unlike one spanned by
    white-noise basis vectors.
    """
    from scipy.ndimage import gaussian_filter

    grid_shape = tuple(int(v) for v in grid_shape)
    c, h, w = grid_shape
    d = c * h * w
    if latent_dim >= d:
        raise InvalidArgumentError("latent dimension must be below ambient")
    rng = _rng((basis_seed, 0x731))
    modes = np.empty((d, latent_dim))
    for k in range(latent_dim):
        pattern = rng.standard_normal((h, w))
        if smoothness > 0:
            pattern = gaussian_filter(pattern, smoothness, mode="wrap")
        weights = rng.standard_normal(c) + 1.0  # mostly co-signed channels
        modes[:, k] = (weights[:, None, None] * pattern).ravel()
    q, r = np.linalg.qr(modes)
    q = q * np.sign(np.diag(r))
    return SubspaceGaussianScore(basis=q, offset=np.zeros(d),
                                 latent_stddevs=np.ones(latent_dim),
                                 grid_shape=grid_shape)


@dataclass(frozen=True)
class PerturbedScoreOracle(_OracleBase):
    """Wraps an exact oracle with a frozen deterministic denoiser error.

    Emulates a trained network: the posterior-mean estimate is off by
    ``magnitude * (1 + sigma_floor / sigma)`` per component, a constant error
    that deteriorates below the noise floor the network saw in training.  The
    error direction is a fixed random-feature field ``eta(x, sigma)``
    (order-one components, smooth in ``x`` and ``log sigma``), so runs replay
    bit-identically.  Through the Tweedie identity the induced score error is
    the denoiser error divided by ``sigma^2``.

    ``posterior_mean``/``denoise`` are derived from the perturbed score,
    matching how a flawed denoiser would behave.
    """

    base: ScoreOracle
    magnitude: float = 1e-3
    sigma_floor: float = 1.0
    field_seed: int = 0
    n_features: int = 64
    _weights: np.ndarray = field(init=False, repr=False)
    _phases: np.ndarray = field(init=False, repr=False)
    _proj: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.magnitude < 0:
            raise InvalidArgumentError("magnitude must be nonnegative")
        if self.sigma_floor < 0:
            raise InvalidArgumentError("sigma_floor must be nonnegative")
        d, m = self.base.dim, self.n_features
        rng = _rng((self.field_seed, 0xF1E1D))
        w = rng.standard_normal((m, d)) / np.sqrt(d)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
        proj = rng.standard_normal((d, m)) * np.sqrt(2.0 / m)
        for arr in (w, phases, proj):
            arr.flags.writeable = False
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_phases", phases)
        object.__setattr__(self, "_proj", proj)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def manifold_dim(self) -> int:
        return self.base.manifold_dim

    @property
    def feature_scale(self) -> float:
        return self.base.feature_scale

    @property
    def grid_shape(self):
        return self.base.grid_shape

    def _field(self, x, sigma):
        phase = x @ self._weights.T
        phase += self._phases
        phase += np.log(sigma)
        return np.sin(phase, out=phase) @ self._proj.T

    def denoiser_error_scale(self, sigma) -> float:
        """Magnitude of the posterior-mean error at this noise level."""
        sigma = _check_sigma(sigma)
        return self.magnitude * (1.0 + self.sigma_floor / sigma)

    def score(self, x, sigma):
        exact = self.base.score(x, sigma)  # checks x and sigma
        if self.magnitude == 0.0:
            return exact
        sigma = float(sigma)
        field = self._field(x, sigma)
        field *= self.denoiser_error_scale(sigma) / (sigma * sigma)
        exact += field
        return exact

    def log_density(self, x, sigma):
        return self.base.log_density(x, sigma)

    def nearest_manifold_point(self, x):
        return self.base.nearest_manifold_point(x)

    def sample_data(self, seed, count: int):
        return self.base.sample_data(seed, count)

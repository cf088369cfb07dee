"""Exact score functions and denoisers for analytic data distributions.

Every oracle exposes the same surface:

* ``score(x, sigma)`` -- exact gradient of ``log p(x; sigma)``,
* ``posterior_mean(x, sigma)`` / ``denoise(x, sigma)`` -- exact clean-data
  conditional mean, related to the score by the Tweedie identity
  ``E[x0 | x] = x + sigma^2 * score(x, sigma)``,
* ``nearest_manifold_point(x)`` -- Euclidean projection onto the data support,
* ``log_density(x, sigma)`` -- on the exact oracles only, closed-form log of
  the smoothed density (used by finite-difference cross-checks),
* ``sample_data(seed, count)`` -- i.i.d. draws from the clean distribution.

States are plain numpy arrays of shape ``(..., d)``; all operations are
vectorised over leading batch axes.

Each public method validates its inputs once, on entry (real, finite states
with last axis ``d``, a real, finite ``sigma > 0``; else
``InvalidArgumentError``).  A float64 ``ndarray`` is checked as given; any
other state is converted to one first.  ``_all_finite`` tests a state in one
pass: ``x.x`` is finite only if every entry is, and only when it is not (a
non-finite entry, or finite entries whose squares overflow) does it test each
entry.  ``posterior_mean`` calls ``score`` first and lets it check.  Each
``score`` is that check plus a private ``_score``; the perturbed ``score``
checks once and calls its base oracle's ``_score``.  Private helpers take
checked arguments and check nothing.

The contract of ``_score(x, sigma)``, kept by every oracle kind: ``x`` is a
finite float array whose last axis is ``d``, and ``sigma`` is a finite
positive float.  A caller that has not checked its arguments calls ``score``.

``score`` never writes into its input and returns a fresh array that the
caller owns: the perturbed ``score``, ``posterior_mean`` and the step kernel
of :mod:`ssilab.flow` each write into the result they are given.

Oracles are frozen dataclasses whose equality is identity: an oracle equals
and hashes as only itself, not as one rebuilt from equal arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

_LOG_2PI = float(np.log(2.0 * np.pi))
_UNIT_ROUNDOFF = 2.0 ** -53  # u of float64
_LOGIT_TOL = 1e-11  # tau of PointCloudScore: largest logit error left unrefined
_SCREEN_MARGIN = 60.0  # L of PointCloudScore: how far below a row's top an atom is dropped
_PAIRS_PER_BLOCK = 64  # (row, atom) pairs per direct-sum block; bounds its temporaries
_FIELD_SEED = (0, 0xF1E1D)  # PerturbedScoreOracle: the one frozen random-feature field
_SIGMA_FLOOR = 1.0  # PerturbedScoreOracle: below this sigma its denoiser error grows
_KAPPA_MEMO_CAP = 1024  # SubspaceGaussianScore: first kappa vectors kept; a 200-step grid's fit
_KAPPA_ROWS = tuple(range(_KAPPA_MEMO_CAP))  # the memo's row numbers, made once


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _by_pairs(reduce, x, points, rows, atoms) -> np.ndarray:
    """``reduce`` over ``x_r - p_a`` for each index pair ``(r, a)``, a bounded
    block of pairs at a time."""
    out = np.empty(len(rows))
    for i in range(0, len(rows), _PAIRS_PER_BLOCK):
        block = slice(i, i + _PAIRS_PER_BLOCK)
        diff = x[rows[block]]  # a copy: fancy indexing
        diff -= points[atoms[block]]
        out[block] = reduce(diff)
    return out


def _all_finite(x) -> bool:
    """Whether every entry of the float array ``x`` is finite; never warns."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def _check_state(x, d: int) -> np.ndarray:
    if type(x) is not np.ndarray or x.dtype != np.float64:
        try:
            x = np.asarray(x)
        except ValueError as exc:  # a ragged nested sequence
            raise InvalidArgumentError("state must be an array of real numbers") from exc
        if x.dtype.kind not in "biuf":  # strings, objects and complex numbers
            raise InvalidArgumentError("state must be an array of real numbers")
        x = x.astype(float, copy=False)
    if x.ndim == 0 or x.shape[-1] != d:
        raise InvalidArgumentError(f"state shape {x.shape} does not end in oracle dimension {d}")
    if not _all_finite(x):
        raise InvalidArgumentError("state must be finite")
    return x


def _check_sigma(sigma) -> float:
    try:
        sigma = float(sigma)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError("sigma must be a real scalar") from exc
    if not math.isfinite(sigma) or sigma <= 0:
        raise InvalidArgumentError("sigma must be strictly positive (score is singular at 0)")
    return sigma


class _OracleBase:
    """Shared Tweedie-identity plumbing for concrete oracles."""

    def posterior_mean(self, x, sigma):
        score = self.score(x, sigma)  # checks x and sigma; a fresh array
        score *= float(sigma) * float(sigma)
        return np.add(x, score, out=score)  # x + sigma^2 score, to the bit

    def denoise(self, x, sigma):
        # Definitionally the posterior mean: (D(x, sigma) - x)/sigma^2 == score.
        return self.posterior_mean(x, sigma)


@dataclass(frozen=True, eq=False)
class PointCloudScore(_OracleBase):
    """Mixture of point masses; smoothed density is an isotropic Gaussian mixture.

    ``score``, ``softmax_weights`` and ``log_density`` take the logits
    ``log w_k - |x - p_k|^2 / (2 sigma^2)`` from one path, ``_logits``:

    * Screen: ``log w_k + (x.p_k - |p_k|^2 / 2) / sigma^2`` for every atom,
      the logit plus ``|x|^2 / (2 sigma^2)``, which cancels in the softmax.
      ``x.p_k`` is one ``(B, d) @ (d, K)`` product; ``|p_k|^2 / 2`` and
      ``P = max_k |p_k|`` are computed at construction, which rejects atoms
      whose ``|p_k|^2`` overflows.
    * Refine: a row whose bound ``beta`` (below) exceeds ``tau``, or is NaN,
      keeps as candidates the atoms whose screen logit lies within
      ``L + 2 beta`` of the row maximum, or every atom if that cut is not
      finite.  Their logits are recomputed from the direct sum
      ``sum_j (x_j - p_kj)^2``, which does not cancel when the atoms' norm
      dwarfs sigma; every other atom's logit becomes ``-inf``.  A row whose
      every candidate sum overflows takes its logits, less a per-row
      constant, from ``d_k^2 - d_min^2`` instead, ``d_k = |x - p_k|``.
      Where the row's screen ``g_k = x.p_k - |p_k|^2 / 2`` is finite, that is
      ``2 (g_max - g_k)``, which rounds at about ``u |x| P`` like the screen;
      elsewhere it is ``(d_k - d_min)(d_k + d_min)`` with ``d_k`` summed by
      ``hypot``, which rounds at about ``u d_k^2`` and so only resolves atoms
      whose distances differ by more than ``u |x|``.  The score, dominated
      by ``-x / sigma^2``, keeps its relative precision on either form.

    Rounding bound.  With unit roundoff ``u = 2^-53`` and ``gamma_n = n u``, a
    dot product of length ``d`` lies within ``gamma_d |x| |p_k|`` of its value
    in whatever order BLAS sums it, and ``|p_k|^2`` within ``gamma_d |p_k|^2``.
    The subtraction, the division by ``sigma^2`` and the addition of
    ``log w_k`` add one rounding each, of a term at most
    ``(|x| P + P^2 / 2) / sigma^2`` in size.  So, to first order in ``u``, a
    row's screen logits lie within
    ``beta = gamma_{d+3} P (2 |x| + P) / (2 sigma^2)`` of the exact ones, and
    an atom the refine drops lies more than ``L`` below the true maximum.

    Choice of ``tau`` and ``L``.  Logit errors of at most ``beta`` scale each
    responsibility by at most ``exp(+-2 beta)``, so they move the score
    ``(m - x) / sigma^2``, ``m = sum_k w_k p_k``, by a relative ``2 beta rho``
    at most, with ``rho = sum_k w_k |p_k - x| / |m - x|``.  ``rho`` is 1 when
    the posterior sits on one atom, about 1 when ``x`` is far from every atom,
    and large only where ``x`` lies close to the posterior mean of separate
    atoms, where the score itself is near zero.  The 1e-8 relative target with
    ``rho`` up to 500 gives ``tau = 1e-8 / (2 * 500) = 1e-11``.  The dropped
    atoms carry at most ``K e^-L`` of the mass and move the score by a
    relative ``K e^-L rho``; ``L = 60`` makes ``e^-L`` about 1e-26.  The
    candidates' logits round at ``u |x - p_k|^2 / (2 sigma^2)``, about 1e-8
    when ``|x| / sigma`` is 1.4e4.

    Cost.  A ``(B, d)`` batch costs O(B K d) time and O(B K) memory: the
    screen's product, O(d) per candidate, and one ``(B, K) @ (K, d)`` product
    for the posterior mean.  The direct sums run over flat (row, atom) pairs,
    64 at a time, so no ``(B, K, d)`` tensor is formed even when every atom
    is a candidate.  ``nearest_manifold_point`` takes the screen without
    ``log w_k`` at ``sigma = 1``, refines every row's candidates within
    ``2 beta`` of its maximum, and keeps the first smallest direct sum.  The
    posterior-mean product rounds to about ``eps * max |p_k|`` absolute, so
    ``score`` keeps 1e-8 relative precision while a state lies more than
    about ``1e-7 * max |p_k|`` from its posterior mean.
    """

    points: np.ndarray  # (K, d)
    weights: np.ndarray  # (K,)
    grid_shape: tuple[int, int, int] | None = None
    _log_weights: np.ndarray = field(init=False, repr=False)
    _half_sq_norms: np.ndarray = field(init=False, repr=False)
    _max_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if points.shape[0] < 1:
            raise InvalidArgumentError("need at least one point")
        if weights.shape != (points.shape[0],):
            raise InvalidArgumentError("weights must match the number of points")
        if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):  # NaN fails
            raise InvalidArgumentError("weights must be nonnegative and sum to 1")
        if self.grid_shape is not None and int(np.prod(self.grid_shape)) != points.shape[1]:
            raise InvalidArgumentError("grid_shape does not match dimension")
        points = points.copy()
        with np.errstate(divide="ignore", over="ignore"):
            log_weights = np.log(weights)
            sq_norms = np.einsum("kd,kd->k", points, points)
        if not np.all(np.isfinite(sq_norms)):  # or a norm past about 1.3e154
            raise InvalidArgumentError("points must be finite, with finite squared norms")
        half_sq_norms = sq_norms / 2.0
        for arr in (points, weights, log_weights, half_sq_norms):
            arr.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_log_weights", log_weights)
        object.__setattr__(self, "_half_sq_norms", half_sq_norms)
        object.__setattr__(self, "_max_norm", math.sqrt(sq_norms.max()))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def manifold_dim(self) -> int:
        return 0

    @property
    def feature_scale(self) -> float:
        """Smallest pairwise distance between distinct atoms (inf for one atom)."""
        best = np.inf
        for k in range(1, self.points.shape[0]):
            diff = self.points[:k] - self.points[k]
            best = min(best, np.einsum("kd,kd->k", diff, diff).min())
        return math.sqrt(best)

    def _screen(self, x, s2):
        """Unchecked ``x.p_k - |p_k|^2 / 2``, ``(..., K)``, ``beta`` and ``|x|^2``."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = x @ self.points.T
            g -= self._half_sq_norms
            sq_x = np.einsum("...d,...d->...", x, x)
            p = self._max_norm
            beta = (self.dim + 3) * _UNIT_ROUNDOFF * p * (2.0 * np.sqrt(sq_x) + p) / (2.0 * s2)
        return g, beta, sq_x

    def _refine(self, x, g, margin):
        """Unchecked candidate (row, atom) pairs of ``g``, their direct sums, and
        each row's ``d_min``: 0 unless every sum of the row overflows, when
        its sums become ``d_k^2 - d_min^2``, from the screen where it is finite."""
        with np.errstate(invalid="ignore"):
            cut = g.max(axis=1) - margin
        rows, atoms = np.nonzero((g >= cut[:, None]) | ~np.isfinite(cut)[:, None])
        sq = self._direct_sq_dist(x, rows, atoms)
        d_min = np.zeros(len(g))
        far = np.ones(len(g), dtype=bool)
        far[rows[np.isfinite(sq)]] = False
        if far.any():
            pick = far[rows]
            r, a = rows[pick], atoms[pick]
            d_min[far] = np.inf
            with np.errstate(over="ignore", invalid="ignore"):  # past about 1.8e308
                d = _by_pairs(lambda diff: np.hypot.reduce(diff, axis=1), x, self.points, r, a)
                np.minimum.at(d_min, r, d)
                lo = d_min[r]
                by_dist = np.where(d > lo, (d - lo) * (d + lo), 0.0)
                # 2 (g_max - g_k) rounds at u |x| P, where by_dist rounds at u |x|^2
                at = np.cumsum(far) - 1  # a row's index among the far rows
                screen = self._screen(x[far], 1.0)[0][at[r], a]
                top = np.full(len(g), -np.inf)
                np.maximum.at(top, r, screen)
                by_screen = np.isfinite(top)
                by_screen[r[~np.isfinite(screen)]] = False
                sq[pick] = np.where(by_screen[r], 2.0 * (top[r] - screen), by_dist)
        return rows, atoms, sq, d_min

    def _direct_sq_dist(self, x, rows, atoms):
        """Unchecked ``sum_j (x_rj - p_aj)^2`` for each index pair ``(r, a)``."""
        return _by_pairs(lambda diff: np.einsum("nd,nd->n", diff, diff),  # never warns
                         x, self.points, rows, atoms)

    def _logits(self, x, sigma):
        """Unchecked logits plus a per-row constant, and that constant (0 if
        refined, unless every candidate's direct sum overflowed)."""
        s2 = sigma * sigma
        g, beta, sq_x = self._screen(x, s2)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g /= s2
            g += self._log_weights
            refine = ~(beta <= _LOGIT_TOL)  # a NaN bound refines too
            offset = np.where(refine, 0.0, sq_x / (2.0 * s2))
            if refine.any():
                logits = g[refine]
                rows, atoms, sq, d_min = self._refine(x[refine], logits,
                                                      _SCREEN_MARGIN + 2.0 * beta[refine])
                logits[:] = -np.inf
                logits[rows, atoms] = self._log_weights[atoms] - sq / (2.0 * s2)
                g[refine] = logits
                offset[refine] = 0.5 * (d_min / sigma) ** 2
            return g, offset

    def _responsibilities(self, x, sigma):
        w, _ = self._logits(x, sigma)
        # divide by the sum: exp(logits - logsumexp) leaves rows summing to
        # 1 +- eps |logit|, about 1e-8 once a state is 1e4 sigma from the atoms
        w = np.exp(w - w.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)

    def softmax_weights(self, x, sigma):
        """Posterior responsibilities over atoms, max-shifted and summing to one."""
        return self._responsibilities(_check_state(x, self.dim), _check_sigma(sigma))

    def score(self, x, sigma):
        return self._score(_check_state(x, self.dim), _check_sigma(sigma))

    def _score(self, x, sigma):
        w = self._responsibilities(x, sigma)  # (..., K)
        return (w @ self.points - x) / (sigma * sigma)

    def log_density(self, x, sigma):
        x, sigma = _check_state(x, self.dim), _check_sigma(sigma)
        logits, offset = self._logits(x, sigma)
        top = logits.max(axis=-1)
        log_norm = 0.5 * self.dim * (_LOG_2PI + 2.0 * np.log(sigma))
        return top + np.log(np.exp(logits - top[..., None]).sum(axis=-1)) - offset - log_norm

    def nearest_manifold_point(self, x):
        x = _check_state(x, self.dim)
        g, beta, _ = self._screen(x, 1.0)  # (|x|^2 - |x - p_k|^2) / 2
        g = g.reshape(-1, g.shape[-1])
        rows, atoms, sq, _ = self._refine(x.reshape(-1, self.dim), g, 2.0 * np.reshape(beta, -1))
        g[:] = np.inf
        g[rows, atoms] = sq
        return self.points[np.argmin(g, axis=-1)].reshape(x.shape)  # first of tied minima

    def sample_data(self, seed, count: int):
        if count < 1:
            raise InvalidArgumentError("count must be >= 1")
        rng = _rng(seed)
        idx = rng.choice(self.points.shape[0], size=count, p=self.weights)
        return self.points[idx]


@dataclass(frozen=True, eq=False)
class SubspaceGaussianScore(_OracleBase):
    """Gaussian supported on the linear subspace ``span(A)``.

    The smoothed density is a full-rank Gaussian with covariance
    ``A diag(lam) A^T + sigma^2 I``, ``lam = stddevs^2``; all operations use
    the eigen-split into tangential (columns of ``A``) and normal components,
    so no ``d x d`` matrices are ever formed.

    Score.  With ``c = x A``, the two-projection form is the tangential part
    ``-(c / (lam + sigma^2)) A^T`` plus the normal part
    ``-(x - c A^T) / sigma^2``.  Its two ``c A^T`` terms collect into one:

        score = (c kappa) A^T - x / sigma^2,  kappa = lam / ((lam + sigma^2) sigma^2),

    so ``_score`` makes one product forward and one back, the back one
    against a read-only C-contiguous copy of ``A^T`` made at construction.
    Rounding, with ``u = 2^-53``: near the subspace both forms cancel terms of
    size ``|x| / sigma^2``, the two-projection form in ``x - c A^T`` and this
    one in its last subtraction, so each row of either errs by a small
    multiple of ``u |x| / sigma^2``; ``kappa`` adds a few ``u`` relative to
    the tangential term.

    Memo.  ``kappa`` depends on ``sigma`` alone, so ``_score`` keeps the first
    1024 (``_KAPPA_MEMO_CAP``), same bits, as rows of a private array made at
    construction, a dict mapping each checked float ``sigma`` to its row.  No
    entry is freed or has an array of its own: small arrays kept among a run's
    large temporaries moved a sweep's peak RSS by 2.4 MB from run to run.
    """

    basis: np.ndarray  # (d, n), column-orthonormal
    latent_stddevs: np.ndarray  # (n,)
    grid_shape: tuple[int, int, int] | None = None
    _basis_t: np.ndarray = field(init=False, repr=False)
    _lam: np.ndarray = field(init=False, repr=False)  # stddevs**2
    _kappa: dict = field(init=False, repr=False)  # sigma -> row of _kappa_rows
    _kappa_rows: np.ndarray = field(init=False, repr=False)  # (cap, n)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise InvalidArgumentError("basis must be a (d, n) matrix")
        d, n = basis.shape
        if not 0 < n < d:
            raise InvalidArgumentError("latent dimension must lie in [1, ambient)")
        gram = basis.T @ basis
        if not np.max(np.abs(gram - np.eye(n))) <= 1e-10:  # NaN fails
            raise InvalidArgumentError("basis columns must be orthonormal")
        try:
            stddevs = np.broadcast_to(np.asarray(self.latent_stddevs, dtype=float),
                                      (n,)).copy()
        except ValueError as exc:
            raise InvalidArgumentError(f"latent stddevs must broadcast to ({n},)") from exc
        with np.errstate(over="ignore"):
            lam = stddevs**2
        if not np.all((stddevs > 0) & (lam < np.inf)):  # NaN fails; or past about 1.3e154
            raise InvalidArgumentError("latent stddevs must be positive, with finite squares")
        if self.grid_shape is not None and int(np.prod(self.grid_shape)) != d:
            raise InvalidArgumentError("grid_shape does not match dimension")
        basis = basis.copy()
        basis_t = np.ascontiguousarray(basis.T)
        for arr in (basis, basis_t, stddevs, lam):
            arr.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_basis_t", basis_t)
        object.__setattr__(self, "latent_stddevs", stddevs)
        object.__setattr__(self, "_lam", lam)
        object.__setattr__(self, "_kappa", {})
        object.__setattr__(self, "_kappa_rows", np.empty((_KAPPA_MEMO_CAP, lam.shape[0])))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def manifold_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def feature_scale(self) -> float:
        return np.inf  # linear support: the projection law is exact at every sigma

    def score(self, x, sigma):
        return self._score(_check_state(x, self.dim), _check_sigma(sigma))

    def _score(self, x, sigma):
        # (c kappa) A^T - x / sigma^2: two products, at most three (B, d) passes
        s2 = sigma * sigma
        coef = x @ self.basis
        row = self._kappa.get(sigma)
        kappa = self._lam / ((self._lam + s2) * s2) if row is None else self._kappa_rows[row]
        if row is None and len(self._kappa) < _KAPPA_MEMO_CAP:
            row = self._kappa[sigma] = _KAPPA_ROWS[len(self._kappa)]
            self._kappa_rows[row] = kappa
        coef *= kappa
        score = coef @ self._basis_t
        score -= x / s2
        return score

    def log_density(self, x, sigma):
        x, sigma = _check_state(x, self.dim), _check_sigma(sigma)
        coef = x @ self.basis  # (..., n)
        normal = x - coef @ self.basis.T
        var_t = self._lam + sigma * sigma
        d, n = self.dim, self.manifold_dim
        quad = np.sum(coef * coef / var_t, axis=-1) + np.sum(normal * normal, axis=-1) / (
            sigma * sigma
        )
        logdet = np.sum(np.log(var_t)) + 2.0 * (d - n) * np.log(sigma)
        return -0.5 * (quad + logdet + d * _LOG_2PI)

    def nearest_manifold_point(self, x):
        return _check_state(x, self.dim) @ self.basis @ self.basis.T

    def sample_data(self, seed, count: int):
        if count < 1:
            raise InvalidArgumentError("count must be >= 1")
        rng = _rng(seed)
        z = rng.standard_normal((count, self.manifold_dim))
        return (z * self.latent_stddevs) @ self.basis.T


ScoreOracle = PointCloudScore | SubspaceGaussianScore


def circle_point_cloud(radius: float = 2.0, count: int = 8) -> PointCloudScore:
    """Uniform atoms on a circle, ordered from angle pi going clockwise.

    The default (radius 2, eight points) places the first atom at (-2, 0).
    """
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    theta = np.pi - 2.0 * np.pi * np.arange(count) / count
    points = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(count, 1.0 / count)
    return PointCloudScore(points=points, weights=weights)


def gaussian_on_axis() -> SubspaceGaussianScore:
    """Unit Gaussian along the first coordinate axis in 2D."""
    return SubspaceGaussianScore(
        basis=np.array([[1.0], [0.0]]), latent_stddevs=np.ones(1)
    )


def random_subspace(dim: int | None = None, latent_dim: int = 1,
                    latent_stddevs=1.0, basis_seed=0,
                    grid_shape=None) -> SubspaceGaussianScore:
    """Subspace oracle with a seeded random orthonormal basis.

    Give exactly one of ``dim`` and ``grid_shape`` (C, H, W), whose product
    is then the dimension; with a grid shape the oracle's states reshape
    into toy images for the correlation metrics.
    """
    if (dim is None) == (grid_shape is None):
        raise InvalidArgumentError("give exactly one of dim and grid_shape")
    if grid_shape is not None:
        grid_shape = tuple(int(v) for v in grid_shape)
    d = int(dim if grid_shape is None else np.prod(grid_shape))
    if not 0 < latent_dim < d:
        raise InvalidArgumentError("latent dimension must lie in [1, ambient)")
    rng = _rng((basis_seed, 0x5B5))
    raw = rng.standard_normal((d, latent_dim))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))  # deterministic sign convention
    return SubspaceGaussianScore(
        basis=q, latent_stddevs=latent_stddevs, grid_shape=grid_shape,
    )


def _gaussian_filter_wrap(images: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian filter over the last two axes of ``images``, periodic edges.

    Same weights and same operations in the same order as
    ``scipy.ndimage.gaussian_filter(image, sigma, mode="wrap")`` on each
    image, so the result equals scipy's bit for bit.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (weights / weights.sum())[radius:]  # w_0 .. w_r; w_{-j} == w_j
    out = images
    for axis in (-2, -1):
        n = out.shape[axis]
        padded = np.take(out, np.arange(-radius, n + radius), axis=axis,
                         mode="wrap")
        padded = np.moveaxis(padded, axis, 0)
        acc = padded[radius:radius + n] * weights[0]
        for j in range(radius, 0, -1):
            acc += (padded[radius - j:radius - j + n]
                    + padded[radius + j:radius + j + n]) * weights[j]
        out = np.moveaxis(acc, 0, axis)
    return out


def toy_image_subspace(latent_dim: int = 8, basis_seed=0,
                       smoothness: float = 1.5,
                       grid_shape=(3, 8, 8)) -> SubspaceGaussianScore:
    """Subspace oracle whose basis vectors look like tiny natural images.

    Each mode is a Gaussian-smoothed spatial pattern shared across channels
    with random channel weights, so tangential directions carry both spatial
    and inter-channel correlation.  A residue that lives in this subspace is
    therefore visible to the correlation diagnostics, unlike one spanned by
    white-noise basis vectors.

    With ``s = smoothness > 0`` each ``(H, W)`` pattern is filtered along H,
    then along W, with indices taken modulo the axis length: with
    ``r = int(4 s + 0.5)`` and ``w_j = exp(-j^2 / (2 s^2)) / sum_{|i|<=r}
    exp(-i^2 / (2 s^2))``, each output is ``x_i w_0`` plus, for ``j = r``
    down to 1, ``(x_{i-j} + x_{i+j}) w_j``.  This equals
    ``scipy.ndimage.gaussian_filter(pattern, s, mode="wrap")`` bit for bit.
    """
    grid_shape = tuple(int(v) for v in grid_shape)
    c, h, w = grid_shape
    d = c * h * w
    if not 0 < latent_dim < d:
        raise InvalidArgumentError("latent dimension must lie in [1, ambient)")
    if not 0 <= smoothness < math.inf:
        raise InvalidArgumentError("smoothness must be nonnegative and finite")
    rng = _rng((basis_seed, 0x731))
    patterns = np.empty((latent_dim, h, w))
    channel_weights = np.empty((latent_dim, c))
    for k in range(latent_dim):
        patterns[k] = rng.standard_normal((h, w))
        channel_weights[k] = rng.standard_normal(c) + 1.0  # mostly co-signed
    if smoothness > 0:
        patterns = _gaussian_filter_wrap(patterns, smoothness)
    modes = channel_weights[:, :, None, None] * patterns[:, None]  # (n, C, H, W)
    q, r = np.linalg.qr(modes.reshape(latent_dim, d).T)
    q = q * np.sign(np.diag(r))
    return SubspaceGaussianScore(basis=q, latent_stddevs=np.ones(latent_dim),
                                 grid_shape=grid_shape)


@dataclass(frozen=True, eq=False)
class PerturbedScoreOracle(_OracleBase):
    """Wraps an exact oracle with a frozen deterministic denoiser error.

    Emulates a trained network: the posterior-mean estimate is off by
    ``magnitude * (1 + _SIGMA_FLOOR / sigma)`` per component, a constant
    error that deteriorates below the noise floor of 1.0 that the network saw
    in training.  The error direction is a fixed random-feature field
    ``eta(x, sigma)`` (order-one components, smooth in ``x`` and
    ``log sigma``), so runs replay bit-identically.  Through the Tweedie identity the induced score error is
    the denoiser error divided by ``sigma^2``.

    ``posterior_mean``/``denoise`` are derived from the perturbed score,
    matching how a flawed denoiser would behave.

    The field is ``sin(x W^T + phi + log sigma) P^T`` with ``m`` random
    features.  ``phi + log sigma`` is added as one ``(m,)`` vector, and the
    error scale multiplies the ``(B, m)`` sines before they are projected, so
    no ``(B, d)`` pass scales the result.  The back product reads a read-only
    C-contiguous copy of ``P^T``, made at construction.
    """

    base: ScoreOracle
    magnitude: float = 1e-3
    n_features = 64  # m, the number of random features
    _weights: np.ndarray = field(init=False, repr=False)
    _phases: np.ndarray = field(init=False, repr=False)
    _proj_t: np.ndarray = field(init=False, repr=False)  # (m, d)

    def __post_init__(self):
        if not 0 <= self.magnitude < math.inf:
            raise InvalidArgumentError("magnitude must be nonnegative and finite")
        d, m = self.base.dim, self.n_features
        rng = _rng(_FIELD_SEED)
        w = rng.standard_normal((m, d)) / np.sqrt(d)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
        proj_t = np.ascontiguousarray((rng.standard_normal((d, m)) * np.sqrt(2.0 / m)).T)
        for arr in (w, phases, proj_t):
            arr.flags.writeable = False
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_phases", phases)
        object.__setattr__(self, "_proj_t", proj_t)

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
        """Unchecked score error: the field times ``magnitude (1 + _SIGMA_FLOOR
        / sigma) / sigma^2``, applied to the ``(B, m)`` sines."""
        phase = x @ self._weights.T
        phase += self._phases + np.log(sigma)
        sines = np.sin(phase, out=phase)
        sines *= self.magnitude * (1.0 + _SIGMA_FLOOR / sigma) / (sigma * sigma)
        return sines @ self._proj_t

    def score(self, x, sigma):
        return self._score(_check_state(x, self.dim), _check_sigma(sigma))

    def _score(self, x, sigma):
        exact = self.base._score(x, sigma)
        if self.magnitude == 0.0:
            return exact
        exact += self._field(x, sigma)
        return exact

    def nearest_manifold_point(self, x):
        return self.base.nearest_manifold_point(x)

    def sample_data(self, seed, count: int):
        return self.base.sample_data(seed, count)

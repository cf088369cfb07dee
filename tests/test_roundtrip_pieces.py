"""The roundtrip's inversion in pieces against one run over the whole grid.

``experiments._roundtrip_batch`` inverts in pieces of at least
``max(2, _KEPT_BYTES // x0.nbytes)`` steps and traces each piece as it goes.
The reference here is the whole-grid path: SSI keeping its trajectory, the
singularity trace of the exact score over all of it, then ``reconstruct``.  Every output must
equal it bit for bit, and a divergence must name the same step, sigma and t.
The trial counts are chosen so that a piece is 2 or 3 steps long.
"""

import tracemalloc

import numpy as np
import pytest

from ssilab import (IntegrationDivergedError, InvalidArgumentError, InversionConfig,
                    PerturbedScoreOracle, VE_KARRAS, VP_LINEAR_BETA, reconstruct,
                    resolve_config, run_command, singularity_trace, ssi_invert_ve,
                    ssi_invert_vp, toy_image_subspace)
from ssilab.config import build_grid
from ssilab.experiments import _KEPT_BYTES, _roundtrip_batch
from ssilab.oracles import _rng

CFG = {"integrator": "euler"}
# trials -> the piece length they give the toy image (d = 192)
PIECE = {200: 3, 400: 2}


def _grid(schedule, steps):
    if schedule is VE_KARRAS:  # a Karras spec of N points runs N - 1 steps
        return build_grid({"kind": "karras", "t_min": 0.01, "t_max": 80.0, "rho": 7.0,
                           "steps": steps + 1})
    return build_grid({"kind": "uniform", "t_min": 0.1, "t_max": 0.999, "steps": steps})


def _batch(oracle, trials):
    x0 = oracle.sample_data((7, 0xD0), trials)
    return x0, _rng((7, 0x55)).standard_normal(x0.shape)


def _whole_grid(oracle, schedule, grid, x0, noise):
    """The roundtrip with the whole inversion trajectory kept, then traced by the
    exact score: a perturbed oracle's base, else the oracle itself."""
    invert = ssi_invert_ve if schedule is VE_KARRAS else ssi_invert_vp
    cfg = InversionConfig(t_ssi=float(grid.times[0]), grid=grid, noise_seed=None)
    res = invert(oracle, schedule, x0, cfg, keep_trajectory=True, injected_noise=noise)
    exact = oracle.base if isinstance(oracle, PerturbedScoreOracle) else oracle
    _, ratios = singularity_trace(exact, res.trajectory)
    x_hat = reconstruct(oracle, schedule, res, grid.reversed())
    return {"x_hat": x_hat, "errors": np.linalg.norm(x_hat - x0, axis=-1),
            "mse": np.mean((x_hat - x0) ** 2, axis=-1), "trace_max": float(ratios.max())}


def test_the_trial_counts_give_the_piece_lengths():
    oracle = toy_image_subspace()
    for trials, piece in PIECE.items():
        assert max(2, _KEPT_BYTES // _batch(oracle, trials)[0].nbytes) == piece


# at 200 trials a piece is 3 steps: 1 to 7 steps span one piece length minus 1,
# exactly, plus 1 and twice plus 1; at 400 a piece is 2 steps.  199 steps make 66
# pieces; it runs on the exact image only, where the perturbation costs 5 s more
@pytest.mark.parametrize("perturbation,trials,steps", [
    (m, b, n) for m in (0.0, 1e-3) for b, n in
    [(200, 1), (200, 2), (200, 3), (200, 4), (200, 7), (400, 1), (400, 2), (400, 3),
     (400, 5)]] + [(0.0, 200, 199)])
@pytest.mark.parametrize("schedule", [VE_KARRAS, VP_LINEAR_BETA], ids=["ve", "vp"])
def test_pieces_keep_every_bit_of_the_whole_grid_roundtrip(schedule, perturbation,
                                                            trials, steps):
    oracle = toy_image_subspace()
    if perturbation:
        oracle = PerturbedScoreOracle(base=oracle, magnitude=perturbation)
    grid = _grid(schedule, steps)
    x0, noise = _batch(oracle, trials)
    want = _whole_grid(oracle, schedule, grid, x0, noise)
    got = _roundtrip_batch(oracle, schedule, CFG, grid, x0, noise)
    for key in ("x_hat", "errors", "mse", "trace_max"):
        assert np.array_equal(got[key], want[key]), key


class _Refusing:
    """The toy image's oracle, refusing every state it is given at one sigma."""

    def __init__(self, sigma):
        self.base = toy_image_subspace()
        self.dim = self.base.dim
        self.sigma = sigma

    def score(self, x, sigma):
        if sigma == self.sigma:
            raise InvalidArgumentError("refused")
        return self.base.score(x, sigma)

    def posterior_mean(self, x, sigma):
        return x + sigma * sigma * self.score(x, sigma)


# at 200 trials the pieces of 7 steps are 3 and 4 steps; states 3 (the second
# piece's first), 5 and 6 are scored in the second piece, state 7 only by the trace
@pytest.mark.parametrize("state", [1, 3, 5, 6, 7])
@pytest.mark.parametrize("schedule", [VE_KARRAS, VP_LINEAR_BETA], ids=["ve", "vp"])
def test_a_refusal_in_a_later_piece_reads_as_on_the_whole_grid(schedule, state):
    grid = _grid(schedule, 7)
    oracle = _Refusing(float(schedule.sigma(grid.times)[state]))
    x0, noise = _batch(oracle.base, 200)
    with pytest.raises((IntegrationDivergedError, InvalidArgumentError)) as want:
        _whole_grid(oracle, schedule, grid, x0, noise)
    with pytest.raises(want.type) as got:
        _roundtrip_batch(oracle, schedule, CFG, grid, x0, noise)
    assert str(got.value) == str(want.value)
    if want.type is IntegrationDivergedError:
        assert got.value.step_index == want.value.step_index == state
        assert (got.value.sigma, got.value.t) == (want.value.sigma, want.value.t)
        assert type(got.value.__cause__) is type(want.value.__cause__)


def test_reconstruct_holds_no_whole_inversion_trajectory():
    # 64 toy-image trials on 99 steps: the kept trajectory alone is 9.8 MB
    cfg = resolve_config("reconstruct", {
        "oracle": {"kind": "toy_image"}, "trials": 64, "seed": 1,
        "grid": {"kind": "karras", "t_max": 80.0, "rho": 7.0, "steps": 100}})
    tracemalloc.start()
    try:
        run_command(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6

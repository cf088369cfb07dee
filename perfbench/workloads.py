"""The benchmark's four workloads.

Each workload turns the benchmark seed and an op index into inputs (a
resolved-ready config, or arrays), runs one op against ssilab, and checks
what came back.  Every call into ssilab goes through a module attribute
looked up at call time, so the tracer's wrappers see it.

An op's life: ``prepare`` (untimed: write inputs), ``execute`` (timed),
``check`` (untimed: validate outputs, clean up).
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import shutil
from dataclasses import dataclass

import numpy as np

from perfbench.calibration import interpreter_seconds, memory_seconds

# Exit codes of ``ssilab.cli.main`` that are results rather than failures:
# 0 success, 4 the command's verdict came back FAIL.
_CLI_RESULT_CODES = {0: None, 4: "FAIL"}


def op_seed(seed: int, op: int) -> int:
    """The seed an op hands to the program, derived from (bench seed, op)."""
    return int(np.random.SeedSequence((seed, op)).generate_state(1)[0])


@dataclass
class Outcome:
    ok: bool
    error: str | None = None
    verdict: str | None = None
    fingerprint: str | None = None
    bytes_written: int = 0


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class CliWorkload:
    """One in-process ``ssilab.cli.main`` call per op, writing to ``--out``."""

    name = ""
    why = ""
    command = ""
    calibration = staticmethod(interpreter_seconds)

    def __init__(self, seed: int, scratch: pathlib.Path):
        self.seed = seed
        self.scratch = scratch

    def config(self, op: int) -> dict:
        raise NotImplementedError

    def row_steps(self) -> int:
        """Batch rows x ODE steps, summed over the op's integrations."""
        raise NotImplementedError

    def setup(self) -> None:
        """Import the package, resolve a config and build its oracle."""
        import ssilab
        import ssilab.cli  # noqa: F401  (not imported by the package itself)
        self.ssilab = ssilab
        cfg = ssilab.config.resolve_config(self.command, self.config(0))
        ssilab.config.build_oracle(cfg)

    def prepare(self, op: int) -> dict:
        cfg_path = self.scratch / f"op{op}.json"
        out_dir = self.scratch / f"op{op}-out"
        cfg_path.write_text(json.dumps(self.config(op)))
        return {"argv": [self.command, "--config", str(cfg_path),
                         "--out", str(out_dir), "--quiet"],
                "cfg_path": cfg_path, "out_dir": out_dir}

    def execute(self, prepared: dict):
        try:
            return self.ssilab.cli.main(prepared["argv"])
        except SystemExit as exc:  # argparse rejects its argv
            return exc.code

    def check(self, prepared: dict, code) -> Outcome:
        out_dir = prepared["out_dir"]
        try:
            return self._check(code, out_dir)
        finally:
            prepared["cfg_path"].unlink()
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, code, out_dir: pathlib.Path) -> Outcome:
        if code not in _CLI_RESULT_CODES:
            return Outcome(False, f"cli exit code {code}")
        report_path = out_dir / "report.json"
        if not report_path.is_file():
            return Outcome(False, "no report.json written")
        report = json.loads(report_path.read_text())
        if report.get("command") != self.command:
            return Outcome(False, f"report is for {report.get('command')!r}")
        expected = _CLI_RESULT_CODES[code]
        if (report["verdict"] == "FAIL") != (expected == "FAIL"):
            return Outcome(False, f"exit code {code} with verdict {report['verdict']}")
        if not report["aggregates"] or not _all_finite(report["aggregates"]):
            return Outcome(False, "empty or non-finite aggregates")
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        fingerprint = _canonical({"aggregates": report["aggregates"],
                                  "trials": report["trials"]})
        return Outcome(True, verdict=report["verdict"], fingerprint=fingerprint,
                       bytes_written=written)

    def final_checks(self) -> dict:
        return {}


class SweepImage(CliWorkload):
    name = "sweep-image"
    why = ("batch 16 x d=192 with 4068 oracle calls per op, 1360 of them in "
           "the singularity trace: per-call Python overhead dominates")
    command = "sweep-tssi"

    def config(self, op: int) -> dict:
        return {"seed": op_seed(self.seed, op), "oracle": {"kind": "toy_image"},
                "perturbation": 1e-3, "trials": 16,
                "t_ssi_ladder": [0.001, 0.01, 0.1, 0.2],
                "steps_ladder": [40, 100, 200]}

    def row_steps(self) -> int:
        cfg = self.config(0)
        # Karras grid with its zero anchor dropped: `steps` points, steps-1
        # Euler steps, once to invert and once to reconstruct.
        per_t = sum(2 * (s - 1) for s in cfg["steps_ladder"])
        return cfg["trials"] * len(cfg["t_ssi_ladder"]) * per_t


class InvertContrast(CliWorkload):
    name = "invert-contrast"
    why = ("batch 300 on the VP-scaled integrator and the lagged DDIM "
           "baseline; correlation metrics take ~40% of op time")
    command = "invert"

    def config(self, op: int) -> dict:
        return {"seed": op_seed(self.seed, op), "trials": 300, "method": "both",
                "schedule": "vp_linear_beta", "oracle": {"kind": "toy_image"},
                "grid": {"kind": "uniform", "t_min": 0.1, "t_max": 0.999,
                         "steps": 200},
                "t_ssi": 0.1, "perturbation": 1e-3}

    def row_steps(self) -> int:
        cfg = self.config(0)
        # SSI and the DDIM baseline each take every step of the uniform grid
        return 2 * cfg["trials"] * cfg["grid"]["steps"]


class InterpolateImage(CliWorkload):
    name = "interpolate-image"
    why = ("batch 1 throughout: 2 Euler inversions and 5 Heun decodes make "
           "2393 single-row oracle calls, so per-call overhead is all the cost")
    command = "interpolate"

    def config(self, op: int) -> dict:
        return {"seed": op_seed(self.seed, op), "oracle": {"kind": "toy_image"},
                "integrator": "heun"}

    def row_steps(self) -> int:
        # default grid: 200-step Karras ladder from t_ssi, zero anchor dropped
        steps = 200 - 1
        lambdas = 5
        return (2 + lambdas) * steps


class PointcloudRoundtrip:
    """Library API only: SSI, singularity trace, Euler reconstruction."""

    name = "pointcloud-roundtrip"
    why = ("K=256 point-cloud oracle at batch 32: 119 oracle calls per op at "
           "~5 ms each, bound by the (B, K, d) temporaries in score")
    calibration = staticmethod(memory_seconds)
    atoms = 256
    batch = 32
    grid_steps = 40
    # probe noise levels for the score precision check: the smallest grid
    # sigma of the toolkit, a mid level and the terminal level
    probe_sigmas = (0.002, 1.0, 80.0)
    probe_rel_tol = 1e-8

    def __init__(self, seed: int, scratch: pathlib.Path):
        self.seed = seed

    def setup(self) -> None:
        """Import the package and build the K-atom oracle and the grids."""
        import ssilab
        self.ssilab = ssilab
        base = ssilab.toy_image_subspace()
        points = base.sample_data((self.seed, 0xA7), self.atoms)
        self.oracle = ssilab.PointCloudScore(
            points=points, weights=np.full(self.atoms, 1.0 / self.atoms),
            grid_shape=base.grid_shape)
        karras = ssilab.karras_grid(0.1, 80.0, 7.0, self.grid_steps)
        self.grid = ssilab.TimeGrid(karras.times[1:])
        self.grid_down = self.grid.reversed()
        self.inv_cfg = ssilab.InversionConfig(
            t_ssi=0.1, grid=self.grid, noise_seed=None)

    def row_steps(self) -> int:
        # inversion and reconstruction each take len(grid) - 1 Euler steps
        return 2 * self.batch * (len(self.grid) - 1)

    def prepare(self, op: int) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, op)))
        idx = rng.integers(0, self.atoms, self.batch)
        x0 = self.oracle.points[idx]
        return {"x0": x0, "noise": rng.standard_normal(x0.shape)}

    def execute(self, prepared: dict):
        lab = self.ssilab
        res = lab.inversion.ssi_invert_ve(
            self.oracle, lab.schedules.VE_KARRAS, prepared["x0"], self.inv_cfg,
            keep_trajectory=True, injected_noise=prepared["noise"])
        _, ratios = lab.diagnostics.singularity_trace(self.oracle, res.trajectory)
        x_hat = lab.inversion.reconstruct(
            self.oracle, lab.schedules.VE_KARRAS, res, self.grid_down)
        return res.noise, ratios, x_hat

    def check(self, prepared: dict, result) -> Outcome:
        arrays = [np.asarray(a) for a in result]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return Outcome(False, "non-finite output")
        if arrays[2].shape != prepared["x0"].shape:
            return Outcome(False, f"reconstruction shape {arrays[2].shape}")
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
        return Outcome(True, fingerprint=digest.hexdigest())

    def probe_states(self) -> list:
        """(states, sigma) pairs: atoms plus noise at each probe level, and a
        state far from every atom relative to its noise level."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x9B0)))
        points = self.oracle.points
        probes = []
        for sigma in self.probe_sigmas:
            x = points[:8] + sigma * rng.standard_normal((8, points.shape[1]))
            probes.append((x, sigma))
        far = 1e3 * rng.standard_normal((8, points.shape[1]))
        probes.append((far, 1.0))
        return probes

    def reference_score(self, x, sigma) -> np.ndarray:
        """Gaussian-mixture score by direct log-sum-exp over the atoms."""
        points, weights = self.oracle.points, self.oracle.weights
        diff = points[None, :, :] - x[:, None, :]  # (B, K, d)
        logits = np.log(weights) - np.sum(diff * diff, axis=-1) / (2.0 * sigma * sigma)
        logits -= logits.max(axis=-1, keepdims=True)
        resp = np.exp(logits)
        resp /= resp.sum(axis=-1, keepdims=True)
        return np.einsum("bk,bkd->bd", resp, diff) / (sigma * sigma)

    def final_checks(self) -> dict:
        """Library score against the reference on the probe set."""
        worst = 0.0
        for x, sigma in self.probe_states():
            ref = self.reference_score(x, sigma)
            got = self.oracle.score(x, sigma)
            err = np.linalg.norm(got - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
            worst = max(worst, float(err.max()))
        return {"score_probe": worst <= self.probe_rel_tol,
                "score_probe_max_rel_err": worst}


WORKLOADS = {w.name: w for w in (SweepImage, InvertContrast,
                                  PointcloudRoundtrip, InterpolateImage)}

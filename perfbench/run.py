"""ssilab benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in its own fresh process with ``OPENBLAS_NUM_THREADS=1``
and ``OMP_NUM_THREADS=1``: the benchmark measures the program, not BLAS
thread scheduling on a small shared machine.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` from an untraced run, plus set-up
time sampled over several fresh processes; ``--trace 1`` reports the
per-layer metrics from a run that alternates traced and untraced ops.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an output
check fails.  Full details (environment, per-op times, per-layer breakdown,
spans) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.worker import TAIL_BEYOND  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench_out"
# fresh processes timed per run for setup_s, the run's own worker included
SETUP_SAMPLES = 5
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 mode: str) -> tuple[dict, float]:
    """Run the worker in a fresh process; return its result and spawn time."""
    env = dict(os.environ)
    env.update(WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--mode", mode, "--out-dir", str(OUT)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=seconds + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker ({mode}) exited with "
                             f"{proc.returncode}")
    return json.loads(lines[-1]), spawned


def tail(values: list) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchmarkError(f"only {n} timed ops; need more than {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(result: dict, setup_samples: list) -> tuple[dict, dict]:
    """Set-up time, op cost in calibration units, work rate, peak memory.

    An op's cost is its wall time divided by the time of its workload's
    calibration kernel, run just before it (see ``calibration.py``); the raw
    wall-time figures go into the notes.
    """
    times, cals = result["untraced_s"], result["untraced_cal_s"]
    costs = [t / c for t, c in zip(times, cals)]
    tail_cost, tail_pct = tail(costs)
    row_steps = result["row_steps"]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_cal.p50": statistics.median(costs),
        "op_cal.tail": tail_cost,
        "state_steps_per_cal": statistics.median(row_steps / c for c in costs),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "tail": {"percentile": tail_pct, "samples": len(times),
                 "beyond": TAIL_BEYOND},
        "setup_s": {"samples": setup_samples},
        "row_steps_per_op": row_steps,
        "calibration_s.p50": statistics.median(cals),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times)[0],
        "state_steps_per_s": statistics.median(row_steps / t for t in times),
        "failed_frac": result["failed"] / result["attempted"],
    }
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, dict]:
    layers = result["layers"]
    if not layers:
        raise BenchmarkError("no traced op completed")
    names = layers[0]["metrics"]
    metrics = {n: statistics.median(op["metrics"][n] for op in layers) for n in names}
    metrics["cli.bytes_written"] = statistics.median(op["bytes_written"] for op in layers)
    metrics["experiments.verdict_pass"] = result["verdicts"].count("PASS")
    traced = [t / c for t, c in zip(result["traced_s"], result["traced_cal_s"])]
    untraced = [t / c for t, c in zip(result["untraced_s"], result["untraced_cal_s"])]
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    notes = {"traced_ops": len(layers), "verdicts": result["verdicts"]}
    for key in ("layer_self_s", "span_self_s", "span_calls"):
        names = {n for op in layers for n in op[key]}
        notes[key] = {n: statistics.median(op[key].get(n, 0) for op in layers)
                      for n in sorted(names)}
    return metrics, notes


def expected_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result, spawned = spawn_worker(workload, seed, seconds, trace, "run")
    if trace:
        metrics, notes = per_layer(result)
    else:
        setup = [result["ready"] - spawned]
        for _ in range(SETUP_SAMPLES - 1):
            sample, t0 = spawn_worker(workload, seed, seconds, trace, "setup")
            setup.append(sample["ready"] - t0)
        metrics, notes = end_to_end(result, setup)
    expected = expected_metrics(trace)
    missing = set(expected) - set(metrics)
    if missing:
        raise BenchmarkError(f"metrics not produced: {sorted(missing)}")
    correct = result["failed"] == 0 and all(
        v for v in result["checks"].values() if isinstance(v, bool))
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "errors": result["errors"],
        "checks": result["checks"],
        "metrics": {n: {"value": metrics[n], "unit": expected[n]} for n in expected},
        "notes": notes, "environment": result["environment"],
        "untraced_s": result["untraced_s"], "traced_s": result["traced_s"],
        "untraced_cal_s": result["untraced_cal_s"],
        "traced_cal_s": result["traced_cal_s"],
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{len(report['untraced_s']) + len(report['traced_s'])} timed ops)")
    for name, m in report["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    notes = report["notes"]
    if "tail" in notes:
        t = notes["tail"]
        print(f"  op_cal.tail is p{t['percentile']:.1f} of {t['samples']} ops")
        print(f"  wall time: op_s.p50 {notes['op_s.p50']:.6g} s, op_s.tail "
              f"{notes['op_s.tail']:.6g} s, state_steps_per_s "
              f"{notes['state_steps_per_s']:.6g} row-steps/s, calibration "
              f"{notes['calibration_s.p50']:.6g} s")
        print(f"  failed_frac {notes['failed_frac']:.6g} "
              f"({report['failed']}/{report['attempted']} ops)")
    print(f"  checks {json.dumps(report['checks'])}")
    for err in report["errors"]:
        print(f"  error: {err}", file=sys.stderr)
    env = report["environment"]
    print(f"  environment python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} blas {env['blas']['name']} "
          f"{env['blas']['version']} threads {json.dumps(env['threads'])} "
          f"nproc {env['nproc']} cpu {env['cpu_model']!r} "
          f"commit {env['git_commit']} src {env['src_sha256'][:12]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "ssilab" / "__init__.py").is_file():
        print("benchmark: no ssilab sources under src/ in this checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print_report(report)
    correct = all(r["correct"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in reports}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

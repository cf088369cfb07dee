"""Self-test of the benchmark: one traced op per workload, plus one short run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.tracer import METHODS, Tracer, summarize_op  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# top-level oracle evaluations per op, counted from the workloads' grids
SCORE_CALLS = {"sweep-image": 4068, "invert-contrast": 400,
               "pointcloud-roundtrip": 119, "interpolate-image": 2393}
TRACE_SCORE_CALLS = {"sweep-image": 1360, "invert-contrast": 0,
                     "pointcloud-roundtrip": 40, "interpolate-image": 0}


def _wrapped_names() -> list:
    """Names in ssilab's modules, dispatch tables and classes that hold a
    tracer wrapper."""
    namespaces = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ssilab" or name.startswith("ssilab.")):
            namespaces[name] = vars(mod)
            namespaces.update({f"{name}.{k}": v for k, v in vars(mod).items()
                               if type(v) is dict})
    for mod_name, cls_name in METHODS:
        namespaces[cls_name] = vars(getattr(sys.modules[mod_name], cls_name))
    return [f"{where}.{key}" for where, ns in namespaces.items()
            for key, value in ns.items()
            if hasattr(value, "__wrapped_by_perfbench__")]


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_traced_op(name, tmp_path):
    workload = WORKLOADS[name](3, tmp_path)
    workload.setup()
    tracer = Tracer()
    prepared = workload.prepare(1)
    with tracer:
        assert _wrapped_names()
        start = time.perf_counter()
        result = tracer.run_op(1, workload.execute, prepared)
        wall = time.perf_counter() - start
    assert _wrapped_names() == []
    outcome = workload.check(prepared, result)
    assert outcome.ok, outcome.error

    summary = summarize_op(tracer.op_spans(1))
    metrics = summary["metrics"]
    assert metrics["oracles.score.calls"] == SCORE_CALLS[name]
    assert metrics["diagnostics.singularity_trace.score_calls"] == TRACE_SCORE_CALLS[name]
    assert summary["row_steps"] == workload.row_steps()
    # every span's self time belongs to exactly one layer, so the layers add
    # up to the op's root span, which is the op's traced wall time
    assert sum(summary["layer_self_s"].values()) == pytest.approx(summary["wall_s"], rel=1e-9)
    assert summary["wall_s"] == pytest.approx(wall, rel=0.02, abs=1e-3)
    assert min(summary["layer_self_s"].values()) >= 0.0

    worker_result = {"layers": [summary | {"bytes_written": outcome.bytes_written}],
                     "verdicts": [outcome.verdict], "traced_s": [wall],
                     "untraced_s": [wall], "traced_cal_s": [1.0],
                     "untraced_cal_s": [1.0]}
    produced, _ = bench.per_layer(worker_result)
    assert set(produced) == set(bench.expected_metrics(1))


def _run(cwd: pathlib.Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_short_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "interpolate-image", "--seed", "5",
                "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in expected:
        assert name in proc.stdout.split("\n{")[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "interpolate-image", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

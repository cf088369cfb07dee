"""One workload in one fresh process: set up, run ops for a fixed time, check.

Started by ``run.py`` with the BLAS thread variables pinned.  Prints one JSON
object as its last line of standard output.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run --out-dir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

from perfbench.tracer import Tracer, summarize_op
from perfbench.workloads import WORKLOADS, Outcome

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Ops whose verdicts make up experiments.verdict_pass; a traced run always
# runs at least this many, so the count depends on the seed alone.
VERDICT_OPS = 8
# op_s.tail is the highest percentile with this many samples beyond it; an
# untraced run times enough ops for it to exist on every workload.
TAIL_BEYOND = 10
MIN_TIMED_OPS = TAIL_BEYOND + 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def monotonic() -> float:
    """System-wide monotonic clock, comparable with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit(root: pathlib.Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest(src: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    """Versions, BLAS build, thread settings and machine of this process."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _source_digest(ROOT / "src"),
    }


def _run_one(workload, op: int, tracer: Tracer | None):
    """Prepare, time and check one op.

    Returns (op seconds, calibration seconds, outcome).  The calibration
    kernel runs right before and right after the op; its time is the
    geometric mean of the two, the machine's speed while the op ran.
    """
    prepared = workload.prepare(op)
    before = workload.calibration()
    start = time.perf_counter()
    error = result = None
    try:
        if tracer is None:
            result = workload.execute(prepared)
        else:
            result = tracer.run_op(op, workload.execute, prepared)
    except Exception:
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    cal = math.sqrt(before * workload.calibration())
    if error is not None:
        return seconds, cal, Outcome(False, error)
    return seconds, cal, workload.check(prepared, result)


def run(workload, seconds: float, trace: bool) -> dict:
    """Warm up, run timed ops for ``seconds``, replay the first, check."""
    outcomes = {}
    errors = []

    def record(op, outcome):
        outcomes[op] = outcome
        if not outcome.ok and len(errors) < 5:
            errors.append(f"op {op}: {outcome.error}")

    _, _, warm = _run_one(workload, 0, None)
    record(0, warm)

    tracer = Tracer() if trace else None
    untraced, traced, layers = [], [], []
    untraced_cal, traced_cal = [], []
    op = 0
    t_end = time.perf_counter() + seconds
    min_ops = VERDICT_OPS if trace else MIN_TIMED_OPS
    while time.perf_counter() < t_end or op < min_ops:
        op += 1
        # a traced run alternates untraced and traced ops, so the overhead
        # ratio compares ops run under the same conditions
        if trace and op % 2 == 0:
            with tracer:
                elapsed, cal, outcome = _run_one(workload, op, tracer)
            traced.append(elapsed)
            traced_cal.append(cal)
            if outcome.ok:
                layers.append(summarize_op(tracer.op_spans(op))
                              | {"op": op, "op_wall_s": elapsed,
                                 "bytes_written": outcome.bytes_written})
        else:
            elapsed, cal, outcome = _run_one(workload, op, None)
            untraced.append(elapsed)
            untraced_cal.append(cal)
        record(op, outcome)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    _, _, again = _run_one(workload, 1, None)
    checks = {"replay": bool(again.ok and outcomes[1].ok
                             and again.fingerprint == outcomes[1].fingerprint)}
    checks.update(workload.final_checks())
    failed = sum(not o.ok for o in outcomes.values())
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "errors": errors,
        "checks": checks,
        "untraced_s": untraced,
        "traced_s": traced,
        "untraced_cal_s": untraced_cal,
        "traced_cal_s": traced_cal,
        "row_steps": workload.row_steps(),
        "verdicts": [outcomes[i].verdict for i in range(1, min(op, VERDICT_OPS) + 1)],
        "peak_rss_kb": peak_rss_kb,
        "layers": layers,
        "tracer": tracer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--out-dir", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="ops-", dir=args.out_dir))
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        workload.setup()
        ready = monotonic()
        import ssilab
        if not pathlib.Path(ssilab.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"ssilab imported from {ssilab.__file__}, not this checkout",
                  file=sys.stderr)
            return 2
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        result = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write(args.out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz")
    result["ready"] = ready
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

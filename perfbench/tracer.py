"""Outside-in tracer for ssilab.

The tracer wraps ssilab's public functions and the oracle and schedule
methods at every name they are looked up through (module attributes, the
package namespace, module-level dispatch tables), records one span per call,
and restores the originals on ``uninstall``.  Nothing inside ``src/`` knows
about it.  A run that is not traced never installs a wrapper.

A span is the tuple ``(span_id, name, start, end, parent_id, op, extra)``.
Spans stay in memory until the run writes them out.  Calls made outside an
op (input generation, output checks) pass straight through unrecorded.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

ROOT_SPAN = "bench.op"

# module -> {function name: span name}
FUNCTIONS = {
    "ssilab.cli": {"main": "cli.main", "write_outputs": "cli.write_outputs"},
    "ssilab.config": {name: f"config.{name}" for name in (
        "resolve_config", "build_oracle", "build_schedule", "build_grid",
        "build_method", "config_hash")},
    "ssilab.experiments": {name: f"experiments.{name}" for name in (
        "cmd_verify_singularity", "cmd_verify_projection", "cmd_invert",
        "cmd_sweep_tssi", "cmd_interpolate", "cmd_reconstruct", "run_command",
        "replay")},
    "ssilab.inversion": {
        "ssi_invert_ve": "inversion.ssi_invert",
        "ssi_invert_vp": "inversion.ssi_invert",
        "ddim_invert_baseline": "inversion.ddim_invert_baseline",
        "reconstruct": "inversion.reconstruct",
        "ddim_sample": "inversion.ddim_sample",
        "ddim_coefficients": "inversion.ddim_coefficients"},
    "ssilab.flow": {name: f"flow.{name}" for name in (
        "integrate", "sample", "denoise_to_mean")},
    "ssilab.interp": {name: f"interp.{name}" for name in (
        "slerp", "interpolate_and_decode")},
    "ssilab.diagnostics": {name: f"diagnostics.{name}" for name in (
        "singularity_trace", "correlation_metrics", "mse", "ssim", "trace_rms",
        "projection_concentration", "chi_square_bound")},
}

_ORACLE_METHODS = ("score", "nearest_manifold_point", "sample_data")

# (module, class) -> {method name: span name}; a method is patched on the
# class that defines it, so subclasses pick up the wrapper by inheritance.
METHODS = {
    ("ssilab.oracles", "PointCloudScore"): {m: f"oracles.{m}" for m in _ORACLE_METHODS},
    ("ssilab.oracles", "SubspaceGaussianScore"): {m: f"oracles.{m}" for m in _ORACLE_METHODS},
    ("ssilab.oracles", "PerturbedScoreOracle"): {m: f"oracles.{m}" for m in _ORACLE_METHODS},
    ("ssilab.oracles", "_OracleBase"): {"posterior_mean": "oracles.posterior_mean",
                                        "denoise": "oracles.denoise"},
    ("ssilab.schedules", "NoiseSchedule"): {m: f"schedules.{m}" for m in (
        "sigma", "sigma_dot", "scale", "scale_dot")},
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    rows = 1
    for n in shape[:-1]:
        rows *= n
    return rows


def score_bytes(args, kwargs) -> int:
    """Bytes of float64 arrays one ``score`` call computes, from the shapes.

    This is an estimate read off the oracle's formula, not a measurement:
    point cloud: three (B, K, d) arrays (difference, its square, the
    difference again in ``score``), four (B, K) arrays and three (B, d);
    subspace: seven (B, d) and two (B, n); perturbation wrapper: four
    (B, m) feature arrays and three (B, d), on top of its base oracle's call.
    """
    oracle, x = args[0], _arg(args, kwargs, 1, "x")
    d = x.shape[-1]
    b = _rows(x)
    kind = type(oracle).__name__
    if kind == "PointCloudScore":
        k = oracle.points.shape[0]
        elems = 3 * b * k * d + 4 * b * k + 3 * b * d
    elif kind == "SubspaceGaussianScore":
        elems = 7 * b * d + 2 * b * oracle.basis.shape[1]
    else:
        elems = 4 * b * oracle.n_features + 3 * b * d
    return 8 * elems


def integrate_work(args, kwargs):
    """(steps, rows) of one ``flow.integrate`` call."""
    x = _arg(args, kwargs, 3, "x_start")
    grid = _arg(args, kwargs, 4, "grid")
    return (len(grid.times) - 1, _rows(x))


def baseline_work(args, kwargs):
    """(steps, rows) of one ``ddim_invert_baseline`` call."""
    x = _arg(args, kwargs, 2, "x0")
    grid = _arg(args, kwargs, 3, "grid_ascending")
    return (len(grid.times) - 1, _rows(x))


MEASURES = {
    "oracles.score": score_bytes,
    "flow.integrate": integrate_work,
    "inversion.ddim_invert_baseline": baseline_work,
}


class Tracer:
    """Records spans around ssilab calls while installed and inside an op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every name it is reachable through."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "ssilab" or name.startswith("ssilab.")) and m is not None]
        namespaces = []
        for mod in modules:
            namespaces.append(vars(mod))
            namespaces += [v for v in vars(mod).values() if type(v) is dict]
        for mod_name, table in FUNCTIONS.items():
            mod = sys.modules.get(mod_name)
            if mod is None:  # never imported, so nothing can call it
                continue
            for attr, span in table.items():
                original = getattr(mod, attr)
                wrapper = self._wrap(span, original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._patch(ns, key, wrapper)
        for (mod_name, cls_name), table in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            for attr, span in table.items():
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(span, original))

    def _patch(self, ns: dict, key, wrapper) -> None:
        self._patches.append((ns, key, ns[key]))
        ns[key] = wrapper

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            extra = measure(args, kwargs) if measure is not None else None
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, op, extra))

        traced.__wrapped_by_perfbench__ = True
        return traced

    def run_op(self, op: int, fn, *args):
        """Call ``fn(*args)`` as op ``op`` under a root span; return its result."""
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append(span_id)
        self.op = op
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.op = None
            self._stack.pop()
            self.spans.append((span_id, ROOT_SPAN, start, end, -1, op, None))

    def op_spans(self, op: int) -> list:
        return [s for s in self.spans if s[5] == op]

    def write(self, path) -> None:
        """Write all spans as gzipped JSON: field names, then one row per span."""
        doc = {"fields": ["id", "name", "start", "end", "parent", "op", "extra"],
               "spans": sorted(self.spans)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- per-op analysis ---------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> self time: duration minus the durations of its children."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def summarize_op(spans) -> dict:
    """Per-layer metrics of one op's spans (its root span included).

    Self times are summed per span name; ``layer_self_s`` sums them per
    module prefix, so its values add up to the root span's duration.
    """
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    root = next(s for s in spans if s[1] == ROOT_SPAN)

    def has_ancestor(span, names) -> bool:
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] in names:
                return True
            parent = by_id.get(parent[4])
        return False

    calls, self_s = {}, {}
    layer_self = {}
    score_top = score_in_trace = score_bytes_total = 0
    steps = row_steps = 0
    for s in spans:
        name = s[1]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[s[0]]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[s[0]]
        if name == "oracles.score":
            score_bytes_total += s[6]
            if not has_ancestor(s, {"oracles.score"}):
                score_top += 1
                if has_ancestor(s, {"diagnostics.singularity_trace"}):
                    score_in_trace += 1
        elif name in ("flow.integrate", "inversion.ddim_invert_baseline"):
            n_steps, rows = s[6]
            row_steps += n_steps * rows
            if name == "flow.integrate":
                steps += n_steps

    def total(prefix) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    score_self = self_s.get("oracles.score", 0.0)
    integrate_self = self_s.get("flow.integrate", 0.0)
    schedule_names = ("schedules.sigma", "schedules.sigma_dot",
                      "schedules.scale", "schedules.scale_dot")
    metrics = {
        "oracles.score.calls": score_top,
        "oracles.score.self_s": score_self,
        "oracles.score.us_per_call": 1e6 * score_self / score_top if score_top else 0.0,
        "oracles.score.bytes_computed": score_bytes_total,
        "oracles.nearest_manifold_point.self_s": self_s.get("oracles.nearest_manifold_point", 0.0),
        "schedules.calls": sum(calls.get(n, 0) for n in schedule_names),
        "schedules.self_s": sum(self_s.get(n, 0.0) for n in schedule_names),
        "flow.integrate.self_s": integrate_self,
        "flow.step_us": 1e6 * integrate_self / steps if steps else 0.0,
        "inversion.ssi_invert.self_s": self_s.get("inversion.ssi_invert", 0.0),
        "inversion.ddim_invert_baseline.self_s": self_s.get("inversion.ddim_invert_baseline", 0.0),
        "inversion.reconstruct.self_s": self_s.get("inversion.reconstruct", 0.0),
        "inversion.reconstruct.calls": calls.get("inversion.reconstruct", 0),
        "diagnostics.singularity_trace.self_s": self_s.get("diagnostics.singularity_trace", 0.0),
        "diagnostics.singularity_trace.score_calls": score_in_trace,
        "diagnostics.correlation_metrics.calls": calls.get("diagnostics.correlation_metrics", 0),
        "diagnostics.correlation_metrics.self_s": self_s.get("diagnostics.correlation_metrics", 0.0),
        "interp.slerp.calls": calls.get("interp.slerp", 0),
        "interp.slerp.self_s": self_s.get("interp.slerp", 0.0),
        "experiments.self_s": total("experiments."),
        "config.self_s": total("config."),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.write_outputs_s": self_s.get("cli.write_outputs", 0.0),
    }
    return {
        "metrics": metrics,
        "wall_s": root[3] - root[2],
        "row_steps": row_steps,
        "layer_self_s": layer_self,
        "span_self_s": self_s,
        "span_calls": calls,
    }

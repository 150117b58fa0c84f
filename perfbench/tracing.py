"""Spans around herop's public functions, recorded from outside herop.

`Tracer.install` wraps every public function defined in a herop module,
plus `ShiftSection.apply`, and rebinds the wrapper in every herop module
namespace that holds the original (so `cli`'s `from .series import
reciprocal` is traced too).  Spans live in flat in-memory lists and are
written out once, when the traced run ends.  `derive` turns a span set
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "specdsl", "series", "conditions", "operators", "model", "ergodic")

# function name -> metric name, for the per-function inclusive times
TIMED = {
    "specdsl": ("parse_kernel_spec", "elaborate"),
    "series": ("reciprocal", "invert_kernel", "cauchy_product", "make_kernel_pair", "evaluate_on_circle"),
    "conditions": ("check_hypotheses_A", "check_hypotheses_B", "muller_condition_estimate",
                   "tau_condition_check", "banach_algebra_condition", "holder_exponent_estimate"),
    "operators": ("hereditary_apply", "shift_membership", "section_apply", "hermitian_sqrt",
                  "spectral_radius", "read_matrix_csv"),
    "model": ("build_model", "build_defect", "build_transform", "build_W_S", "verify_model",
              "verify_relation_DCW", "minimality_check"),
    "ergodic": ("cesaro_probe", "classify_trend"),
}
# span names folded into one metric name
ALIASES = {
    "operators.shift_membership_backward": "operators.shift_membership",
    "operators.shift_membership_forward": "operators.shift_membership",
    "operators.ShiftSection.apply": "operators.section_apply",
}


def _work_inverted(args):
    """Coefficients produced by one inversion (N + 1)."""
    if "alpha" in args:  # reciprocal(alpha, n_max)
        return args["n_max"] + 1
    n_max = args.get("n_max")  # invert_kernel(k, n_max=None)
    return (args["k"].degree if n_max is None else n_max) + 1


def _work_circle(args):
    return args["samples"] * args["f"].trunc_len


def _work_probe_vectors(args):
    x = args["x"]
    if type(x).__name__ == "_MovingBasis":
        return len(args["n_grid"])
    return 1 if isinstance(x, np.ndarray) else len(x)


# span name -> work count taken from the call's arguments
WORK = {
    "series.reciprocal": _work_inverted,
    "series.invert_kernel": _work_inverted,
    "series.evaluate_on_circle": _work_circle,
    "ergodic.cesaro_probe": _work_probe_vectors,
}


class Tracer:
    """Flat span store: one entry per call, with parent and job ids."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.job = []
        self.error = []
        self.work = []
        self._stack = [-1]
        self.job_id = -1
        self._undo = []

    def _wrap(self, span_name, fn):
        name_id = self._name_ids.setdefault(span_name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span_name)
        work_of = WORK.get(span_name)
        signature = inspect.signature(fn) if work_of else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.job.append(self.job_id)
            self.error.append(False)
            if work_of is None:
                self.work.append(0)
            else:
                bound = signature.bind(*args, **kwargs)
                self.work.append(work_of(bound.arguments))
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[sid] = True
                raise
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return traced

    def install(self):
        """Wrap herop's public functions; `uninstall` restores them."""
        modules = {layer: importlib.import_module(f"herop.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("herop")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound_name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, bound_name, wrapper)
                            self._undo.append((ns, bound_name, fn))
        section = modules["operators"].ShiftSection
        original = section.apply
        section.apply = self._wrap("operators.ShiftSection.apply", original)
        self._undo.append((section, "apply", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
            "error": np.array(self.error, dtype=bool),
            "work": np.array(self.work, dtype=np.int64),
        }


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    child_sum = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child_sum, spans["parent"][has_parent], dur[has_parent])
    return dur - child_sum


def _metric_name(span_name: str) -> str:
    return ALIASES.get(span_name, span_name)


def derive(spans: dict, jobs: int, extra: dict | None = None) -> dict:
    """Per-layer metrics from a span set covering `jobs` job executions.

    Times and counts are per job; ratios are ratios of counts.  `<fn>.s`
    is inclusive time of the outermost call (recursion is not counted
    twice); `<layer>.self_s` sums span time minus child spans;
    `<layer>.errors` counts exceptions leaving a layer for another layer."""
    names = [_metric_name(str(n)) for n in spans["names"]]
    span_metric = np.array(names, dtype=object)[spans["name"]]
    layer = np.array([m.split(".")[0] for m in span_metric], dtype=object)
    parent = spans["parent"]
    # "" marks a root span, whose caller is outside herop
    parent_layer = np.append(layer, "")[parent]
    dur = spans["end"] - spans["start"]
    selfs = self_times(spans)

    # outermost call of each function: no ancestor with the same metric name
    outermost = np.ones(parent.size, dtype=bool)
    for i in range(parent.size):
        p = parent[i]
        while p >= 0:
            if span_metric[p] == span_metric[i]:
                outermost[i] = False
                break
            p = parent[p]

    per_job = 1.0 / max(jobs, 1)
    out = {}
    for lay in LAYERS:
        in_layer = layer == lay
        out[f"{lay}.self_s"] = float(np.sum(selfs[in_layer])) * per_job
        crossing = spans["error"] & in_layer & (parent_layer != lay)
        out[f"{lay}.errors"] = float(np.count_nonzero(crossing)) * per_job
        for fn in TIMED.get(lay, ()):
            mask = (span_metric == f"{lay}.{fn}") & outermost
            out[f"{lay}.{fn}.s"] = float(np.sum(dur[mask])) * per_job

    def count(metric):
        return int(np.count_nonzero(span_metric == metric))

    def work(metric):
        return int(np.sum(spans["work"][span_metric == metric]))

    out["series.inverted_coeffs"] = (work("series.reciprocal") + work("series.invert_kernel")) * per_job
    out["series.circle_terms"] = work("series.evaluate_on_circle") * per_job
    out["operators.hereditary_apply.calls"] = count("operators.hereditary_apply") * per_job
    out["operators.section_apply.calls"] = count("operators.section_apply") * per_job
    models = count("model.build_model")
    out["model.defect_builds_per_model"] = count("model.build_defect") / models if models else 0.0
    vectors = work("ergodic.cesaro_probe")
    out["ergodic.probe_vectors"] = vectors * per_job
    applies_in_probes = 0
    probe_ids = set(np.nonzero(span_metric == "ergodic.cesaro_probe")[0].tolist())
    if probe_ids:
        for i in np.nonzero(span_metric == "operators.section_apply")[0]:
            p = parent[i]
            while p >= 0 and p not in probe_ids:
                p = parent[p]
            applies_in_probes += p >= 0
    out["ergodic.applies_per_vector"] = applies_in_probes / vectors if vectors else 0.0
    out.update(extra or {})
    return out


def layer_self_by_job(spans: dict) -> dict:
    """{job id: {layer: self seconds}}, for per-job breakdowns."""
    names = [_metric_name(str(n)).split(".")[0] for n in spans["names"]]
    selfs = self_times(spans)
    table: dict = {}
    for i in range(spans["name"].size):
        row = table.setdefault(int(spans["job"][i]), dict.fromkeys(LAYERS, 0.0))
        row[names[spans["name"][i]]] += float(selfs[i])
    return table

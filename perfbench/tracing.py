"""Spans around the calls into each curveband layer, for the traced run.

`Tracer.install` replaces every public function of the library modules, in
every curveband module namespace that binds it, with a wrapper that records
a span; it also wraps a few methods and the numerical kernels the library
calls (`numpy.linalg.{svd,eigh,solve}`, `scipy.sparse.linalg.spsolve`,
`scipy.signal.convolve2d`). `Tracer.uninstall` puts every original back.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy.linalg
import scipy.signal
import scipy.sparse.linalg

LAYER_MODULES = ("curve_model", "lifting", "recovery", "denoise",
                 "segmentation", "experiments", "io", "cli")
NAMESPACES = ("curveband",) + tuple(f"curveband.{m}" for m in
                                    LAYER_MODULES + ("errors",))
KERNELS = ((numpy.linalg, "svd", "linalg.svd"),
           (numpy.linalg, "eigh", "linalg.eigh"),
           (numpy.linalg, "solve", "linalg.solve"),
           (scipy.sparse.linalg, "spsolve", "sparse.spsolve"),
           (scipy.signal, "convolve2d", "signal.convolve2d"))
# (module, class, method, span name)
METHODS = (("recovery", "SumOfSquares", "__init__", "recovery.SumOfSquares"),
           ("recovery", "SumOfSquares", "evaluate_grid",
            "recovery.SumOfSquares.evaluate_grid"),
           ("segmentation", "ToeplitzLift", "materialize",
            "segmentation.ToeplitzLift.materialize"))
# span name -> function of the wrapped call's return value, kept as `info`
RESULT_INFO = {
    "curve_model.contour_periodic_grid": lambda r: r.num_vertices(),
    "denoise.klr_denoise": lambda r: len(r[1].iterations),
    "segmentation.segment": lambda r: r.iterations,
    "segmentation.ToeplitzLift.materialize": lambda r: r.nbytes / 2.0 ** 20,
}

# Per-layer metrics of the traced run, in BENCHMARK.json order. Times and
# counts are per op; `ms` is inclusive span time, `self_ms` excludes the
# time covered by child spans.
PER_LAYER = (
    ("curve_model.contour_periodic_grid.ms", "ms"),
    ("curve_model.contour_periodic_grid.calls", "count"),
    ("curve_model.contour.vertices", "count"),
    ("curve_model.evaluate_on_grid.ms", "ms"),
    ("curve_model.sample_curve.ms", "ms"),
    ("curve_model.random_curve.calls", "count"),
    ("lifting.feature_matrix.ms", "ms"),
    ("lifting.gaussian_kernel_matrix.ms", "ms"),
    ("lifting.gaussian_kernel_matrix.calls", "count"),
    ("recovery.nullspace_basis.ms", "ms"),
    ("recovery.nullspace_basis.calls", "count"),
    ("recovery.estimate_coefficients.ms", "ms"),
    ("recovery.estimate_coefficients.errors", "count"),
    ("recovery.SumOfSquares.ms", "ms"),
    ("recovery.SumOfSquares.evaluate_grid.ms", "ms"),
    ("recovery.hermitian_align.ms", "ms"),
    ("recovery.chamfer_distance.ms", "ms"),
    ("denoise.klr_denoise.self_ms", "ms"),
    ("denoise.solve_quadratic.ms", "ms"),
    ("denoise.iterations", "count"),
    ("segmentation.build_lift.ms", "ms"),
    ("segmentation.ToeplitzLift.materialize.ms", "ms"),
    ("segmentation.lift_mb", "MB"),
    ("segmentation.iterations", "count"),
    ("linalg.svd.ms", "ms"),
    ("linalg.svd.calls", "count"),
    ("linalg.eigh.ms", "ms"),
    ("linalg.eigh.calls", "count"),
    ("linalg.solve.ms", "ms"),
    ("sparse.spsolve.ms", "ms"),
    ("signal.convolve2d.ms", "ms"),
    ("signal.convolve2d.calls", "count"),
    ("experiments.curve_accept_ratio", "ratio"),
    ("io.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("setup.import_s", "s"),
    ("setup.inputs_s", "s"),
    ("trace.overhead_frac", "frac"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1      # index of the enclosing span, -1 at the top
    op: int = -1          # op id shared by every span of one op
    error: bool = False   # the call raised
    info: float | None = None


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield value


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        info_of = RESULT_INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=stack[-1] if stack else -1, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info_of is not None:
                span.info = info_of(result)
            return result

        traced.perfbench_original = fn
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> wrapper
        for m in LAYER_MODULES:
            module = importlib.import_module(f"curveband.{m}")
            for fn in _public_functions(module):
                wrappers[id(fn)] = self.wrap(f"{m}.{fn.__name__}", fn)
        for owner, attr, name in KERNELS:
            fn = getattr(owner, attr)
            wrappers[id(fn)] = self.wrap(name, fn)
            self._patch(owner, attr, wrappers[id(fn)])
        for ns in NAMESPACES:
            module = importlib.import_module(ns)
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for m, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"curveband.{m}"), cls_name)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def installed_wrappers() -> list[str]:
    """Names of traced wrappers currently bound anywhere the tracer patches."""
    owners = [importlib.import_module(ns) for ns in NAMESPACES]
    owners += [owner for owner, _, _ in KERNELS]
    owners += [getattr(importlib.import_module(f"curveband.{m}"), c)
               for m, c, _, _ in METHODS]
    return sorted(f"{getattr(o, '__name__', o)}.{attr}"
                  for o in owners for attr, value in vars(o).items()
                  if hasattr(value, "perfbench_original"))


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op span statistics for every PER_LAYER metric the spans give.

    Metrics of a layer the workload never calls read 0.
    """
    selfs = self_times(spans)
    total, own, calls, errors = (defaultdict(float) for _ in range(4))
    infos = defaultdict(list)
    for s, t_self in zip(spans, selfs):
        total[s.name] += s.end - s.start
        own[s.name] += t_self
        calls[s.name] += 1
        errors[s.name] += s.error
        if s.info is not None:
            infos[s.name].append(s.info)
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for name, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "ms":
            out[name] = 1e3 * total[base] * per_op
        elif stat == "self_ms":
            out[name] = 1e3 * own[base] * per_op
        elif stat == "calls":
            out[name] = calls[base] * per_op
        elif stat == "errors":
            out[name] = errors[base] * per_op
    io_self = sum(v for k, v in own.items() if k.startswith("io."))
    out["io.ms"] = 1e3 * io_self * per_op
    out["curve_model.contour.vertices"] = (
        sum(infos["curve_model.contour_periodic_grid"]) * per_op)

    def mean(values):
        return float(sum(values) / len(values)) if values else 0.0

    out["denoise.iterations"] = mean(infos["denoise.klr_denoise"])
    out["segmentation.iterations"] = mean(infos["segmentation.segment"])
    out["segmentation.lift_mb"] = mean(
        infos["segmentation.ToeplitzLift.materialize"])
    drawn = calls["curve_model.random_curve"]
    accepted = (calls["experiments.curve_with_zero_set"]
                - errors["experiments.curve_with_zero_set"])
    out["experiments.curve_accept_ratio"] = accepted / drawn if drawn else 0.0
    return out

"""Spans around fedliab's public functions, recorded from outside the package.

`installed(tracer)` replaces each traced function with a wrapper at every
place a fedliab module looks it up (the defining module and every module
that imported the name), and each traced observer method on its class.
Spans are kept in memory as [name, start_ns, end_ns, parent index,
operation id, count] and written out once, when the benchmark ends.
Everything runs on one thread, so a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> traced public callables ("Class.method" for round observers)
TARGETS = {
    "data": ("synth_generate", "partition_non_iid"),
    "nn": ("forward_collect", "forward_batch", "loss_and_grad", "sgd_step", "load_params"),
    "lrp": (
        "lrp_propagate",
        "lrp_propagate_batch",
        "reduce_to_layer_vector",
        "reduce_to_layer_vector_batch",
    ),
    "flsim": ("run_training", "local_train", "aggregate", "evaluate"),
    "audit": (
        "DistanceRecorder.on_round",
        "ReputationTracker.on_round",
        "compute_radist",
        "detect",
        "load_distance_tensor",
    ),
    "harness": (
        "load_experiment_data",
        "run_phase",
        "select_audit_sample",
        "export_metrics",
        "audit_run_dir",
    ),
}


# work counted at the boundary where it happens: samples handled per call
# (fedliab passes lrp_propagate_batch its inputs positionally)
COUNTERS = {
    "lrp.lrp_propagate_batch": lambda args, result: len(args[2]),
    "data.synth_generate": lambda args, result: len(result),
}

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def _open(self, name) -> list:
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, args, kwargs):
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        counter = COUNTERS.get(name)
        if counter is not None:
            rec[COUNT] = counter(args, result)
        return result

    @contextmanager
    def span(self, name, op):
        """A span of the benchmark itself; `op` tags it and every span under it."""
        self.op = op
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "count")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every traced callable through `tracer` until the block exits."""
    layers = {layer: importlib.import_module(f"fedliab.{layer}") for layer in TARGETS}
    package = [m for n, m in sys.modules.items() if n.startswith("fedliab.")]
    patches = []  # (owner, attribute, original, span name)
    for layer, names in TARGETS.items():
        for qual in names:
            span_name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, method = qual.split(".")
                cls = getattr(layers[layer], cls_name)
                patches.append((cls, method, cls.__dict__[method], span_name))
                continue
            original = getattr(layers[layer], qual)
            patches += [
                (module, attr, original, span_name)
                for module in package
                for attr, value in vars(module).items()
                if value is original
            ]
    for owner, attr, original, span_name in patches:
        setattr(owner, attr, _wrap(tracer, span_name, original))
    try:
        yield tracer
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer figures derived from the spans
# ---------------------------------------------------------------------------

_TIME_UNITS = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


def layer_metrics(spans, loop_ops, names) -> dict[str, float]:
    """Per-layer figures named `<layer>.<function>.<stat>`.

    stat `s`/`ms`/`us` is the median self time per call, `incl_<unit>` the
    median inclusive time; both use the calls made inside the timed loop's
    operations, or, for a function that loop never calls, the calls made in
    set-up and checks. `calls` is calls per loop operation. Two ratios count
    the work done per `harness.audit_run_dir` call.
    """
    child_ns = [0] * len(spans)
    under_audit = [False] * len(spans)
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        if parent >= 0:
            child_ns[parent] += rec[END] - rec[START]
            under_audit[i] = under_audit[parent] or spans[parent][NAME] == "harness.audit_run_dir"
    loop_ops = set(loop_ops)
    own = defaultdict(lambda: ([], []))  # name -> (loop, elsewhere) [(self_ns, incl_ns)]
    audits = audited_lrp = audited_synth = 0
    for i, rec in enumerate(spans):
        incl = rec[END] - rec[START]
        own[rec[NAME]][rec[OP] not in loop_ops].append((incl - child_ns[i], incl))
        audits += rec[NAME] == "harness.audit_run_dir"
        if under_audit[i]:
            audited_lrp += rec[COUNT] if rec[NAME] == "lrp.lrp_propagate_batch" else 0
            audited_synth += rec[COUNT] if rec[NAME] == "data.synth_generate" else 0

    out = {}
    for metric in names:
        if metric == "lrp.samples_per_audit":
            out[metric] = audited_lrp / audits
            continue
        if metric == "data.samples_generated_per_audit":
            out[metric] = audited_synth / audits
            continue
        func, _, stat = metric.rpartition(".")
        loop, elsewhere = own[func]
        if stat == "calls":
            out[metric] = len(loop) / len(loop_ops)
            continue
        inclusive = stat.startswith("incl_")
        unit = stat.removeprefix("incl_")
        if unit not in _TIME_UNITS:
            raise ValueError(f"per-layer metric {metric!r}: unknown statistic {stat!r}")
        calls = loop or elsewhere
        if not calls:
            raise ValueError(f"per-layer metric {metric!r}: {func} was never called")
        out[metric] = statistics.median(c[inclusive] for c in calls) * _TIME_UNITS[unit]
    return out

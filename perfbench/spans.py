"""Spans around the package's public functions, wrapped from outside.

``Tracer.install`` replaces each listed module attribute with a wrapper
that records a span (name, start, end, parent) in memory; the parent is
the innermost open span, so a stage span opened by the benchmark around
``cli.main`` is the parent of everything the stage calls. A function that
is missing, or whose module is, is listed as absent instead of failing the
run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

#: (module, attribute, span name). The ``landuse.cli`` names are the
#: functions the stages call; the rest are called inside them.
WRAPPED = (
    ("landuse.cli", "parse_parcels", "geodata.parse"),
    ("landuse.cli", "assign", "geodata.assign"),
    ("landuse.cli", "assignments_to_jsonl", "geodata.jsonl"),
    ("landuse.cli", "assignments_from_jsonl", "geodata.jsonl"),
    ("landuse.cli", "load_manifest", "dataset.load"),
    ("landuse.cli", "load_model", "classifier.model_io"),
    ("landuse.cli", "save_model", "classifier.model_io"),
    ("landuse.cli", "train", "classifier.train"),
    ("landuse.cli", "adaptive_finetune", "adaptive.finetune"),
    ("landuse.cli", "predict_image", "fusion_mapping.predict"),
    ("landuse.cli", "aggregate_parcels", "fusion_mapping.vote"),
    ("landuse.cli", "export_map", "fusion_mapping.export"),
    ("landuse.cli", "mapping_metrics", "evaluation.metrics"),
    ("landuse.cli", "image_accuracy", "evaluation.metrics"),
    ("landuse.cli", "per_class_report", "evaluation.report"),
    ("landuse.classifier", "loss_grad", "classifier.loss_grad"),
    ("landuse.classifier", "stratified_batches", "dataset.batches"),
    ("landuse.classifier", "accuracy", "classifier.val_accuracy"),
    ("landuse.dataset", "read_feature_file", "dataset.sidecar_read"),
    ("landuse.synth", "make_city", "synth.make_city"),
)

#: span names whose first argument is a file path; its size is recorded
READS_FILE = {"dataset.load", "dataset.sidecar_read"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, bytes]
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for modname, attr, name in WRAPPED:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            size = 0
            if name in READS_FILE and args:
                size = os.path.getsize(args[0])
            with self.span(name, size):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, size: int = 0):
        return _Span(self, name, size)


class _Span:
    def __init__(self, tracer: Tracer, name: str, size: int):
        self.tracer, self.name, self.size = tracer, name, size

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, self.size])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one pass: summed span time per name (``<name>_s``),
    call counts, bytes read, and per-stage and self time of ``cli.*``."""
    out: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for name, start, end, parent, _size in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_s = 0.0
    for k, (name, start, end, parent, size) in enumerate(spans):
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start)
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
        out["bytes_read"] = out.get("bytes_read", 0) + size
        if parent < 0 and name.startswith("cli."):
            self_s += (end - start) - child_time.get(k, 0.0)
    out["cli.self_s"] = self_s
    return out


def median_call_us(fn, calls, repeats: int = 3) -> float:
    """Median wall time of single calls, in microseconds, over ``repeats``
    rounds of ``calls`` (a list of argument tuples)."""
    times = []
    clock = time.perf_counter
    for _ in range(repeats):
        for args in calls:
            t0 = clock()
            fn(*args)
            times.append(clock() - t0)
    return statistics.median(times) * 1e6

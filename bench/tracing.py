"""Spans around smoothcert's public calls, recorded from outside the package.

A traced run wraps each call in ``TARGETS`` for the duration of a traced
cycle and restores the originals afterwards, so untraced cycles run the
package untouched.  A span is (id, name, start, end, parent id, example id,
size); spans live in memory and are written out once, at the end of the run.

A call made on a worker thread (the in-example thread pool of
``sample_under_noise``) has no open span of its own thread; its parent is the
span the main thread has open, which is the call that started the pool.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, size of the result).  Functions are replaced
# in every smoothcert module that imported them; methods on their class.
TARGETS = (
    ("smoothcert.cli", "main", "cli", None),
    ("smoothcert.datasets", "read_csv", "datasets.read", None),
    ("smoothcert.modelio", "load_model", "modelio.load", None),
    ("smoothcert.noise", "NoiseStream.standard_normals", "noise", np.size),
    ("smoothcert.noise", "NoiseStream.uniform_bits", "noise.bits", None),
    ("smoothcert.training", "train_with_noise", "training.fit", None),
    ("smoothcert.training", "MlpModel.classify_batch", "training.classify", len),
    ("smoothcert.oracles", "LinearModel.classify_batch", "oracles.classify", len),
    ("smoothcert.smoothing", "sample_under_noise", "smoothing.sample", None),
    ("smoothcert.statfun", "clopper_pearson_lower", "statfun.cp", None),
    ("smoothcert.statfun", "std_normal_quantile", "statfun.quantile", None),
    ("smoothcert.records", "RecordWriter.write", "records.write", None),
    ("smoothcert.records", "read_records", "records.read", None),
    ("smoothcert.report", "projected_curve", "report.project", None),
    ("smoothcert.report", "accuracy_curve", "report.curve", None),
)

_MISSING = object()


class Tracer:
    """Collects spans; ``install`` wraps the targets, ``remove`` undoes it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[tuple[int, object]] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, example):
        stack = self._stack()
        outer = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        parent = outer[0] if outer else None
        if example is None and outer:
            example = outer[1]
        frame = (next(self._ids), example)
        stack.append(frame)
        return stack, frame, parent

    def call(self, name, fn, args=(), kwargs=None, example=None, size=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        stack, (sid, ex), parent = self._open(example)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = perf_counter()
            stack.pop()
            n = size(result) if size is not None and result is not None else 0
            self.spans.append((sid, name, start, end, parent, ex, n))

    def _wrap(self, name, fn, size):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size=size)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, path, name, size in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                continue  # not in this version of the package
            wrapper = self._wrap(name, original, size)
            if owner_name:
                self._patched.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "smoothcert":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "example", "size")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out

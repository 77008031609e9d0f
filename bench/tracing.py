"""Spans around the calls into each accrgeo layer, recorded from outside.

``install`` rebinds, in every loaded ``accrgeo`` module, each module-level
name that refers to a public function of one of the layer modules, and
wraps ``Tensor.__post_init__``, ``LieAlgebra.__post_init__`` and
``TheoremReport.add``. A span is named ``<layer>.<function>`` and stores
its start, end and parent span; spans stay in memory as flat arrays until
the worker writes them out. Layers, classes or functions that the program
no longer has are skipped, so the tracer never changes what runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("tensors", "structure", "geometry", "solitons", "scenarios", "definitions", "cli")
WRAPPED_METHODS = (
    ("tensors", "Tensor", "__post_init__", "tensors.Tensor"),
    ("geometry", "LieAlgebra", "__post_init__", "geometry.LieAlgebra"),
    ("solitons", "TheoremReport", "add", "solitons.TheoremReport.add"),
)


class SpanRecorder:
    """Flat, append-only span storage for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def _is_public_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    # functools.lru_cache wrappers are not plain functions but are called like one
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


class Bindings:
    """The rebinding that install made, which can be switched off and on again."""

    def __init__(self, swaps):
        self._swaps = swaps  # (owner, attribute, original, wrapper)
        self.enabled = False

    def set(self, enabled: bool) -> None:
        if enabled != self.enabled:
            for owner, attribute, original, wrapper in self._swaps:
                setattr(owner, attribute, wrapper if enabled else original)
            self.enabled = enabled


def install(recorder: SpanRecorder) -> Bindings:
    """Wrap the layer boundaries of the loaded accrgeo package, switched on."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules.get(f"accrgeo.{layer}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if not name.startswith("_") and _is_public_function(obj, module.__name__):
                wrappers[id(obj)] = (obj, recorder.wrap(f"{layer}.{name}", obj))
    swaps = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "accrgeo" and not module_name.startswith("accrgeo."):
            continue
        for name, obj in vars(module).items():
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                swaps.append((module, name, obj, entry[1]))
    for layer, class_name, method, span in WRAPPED_METHODS:
        cls = getattr(sys.modules.get(f"accrgeo.{layer}"), class_name, None)
        fn = vars(cls).get(method) if isinstance(cls, type) else None
        if fn is not None:
            swaps.append((cls, method, fn, recorder.wrap(span, fn)))
    bindings = Bindings(swaps)
    bindings.set(True)
    return bindings


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its children.

    The recorder is single-threaded and closes spans in ``finally``, so
    children lie inside their parent and never overlap one another.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def layer_totals(names: list, name_id: np.ndarray, self_s: np.ndarray) -> dict:
    """``<span>.calls`` and ``<span>.self_ms`` per span name, ``<layer>.self_ms`` per layer."""
    calls = np.bincount(name_id, minlength=len(names))
    spent_ms = np.bincount(name_id, weights=self_s, minlength=len(names)) * 1e3
    totals = {}
    for index, name in enumerate(names):
        totals[f"{name}.calls"] = int(calls[index])
        totals[f"{name}.self_ms"] = float(spent_ms[index])
        layer = f"{name.split('.', 1)[0]}.self_ms"
        totals[layer] = totals.get(layer, 0.0) + float(spent_ms[index])
    return totals

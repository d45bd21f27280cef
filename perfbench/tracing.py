"""Spans around the package's public functions, recorded from outside.

The program under test is not edited.  ``Tracer.install`` replaces each
watched function in every ``stmp`` module namespace that holds it, which is
where its callers look it up at call time (``stmp.pipelines.matching_pursuit``,
``stmp.pursuit.stmp_select``, ``stmp.dictionary.fnv1a64``, ...).  Each call
appends one span: name, start, end, parent span and operation id.  Spans
stay in memory until ``write``.  A watched name the package no longer has,
or never calls, simply reports 0 calls.

A few functions also get a probe that reads counts at the same boundary:
inner products from the ``ScoreCounter`` a selector was handed, bytes
hashed or written, patches coded, matching-pursuit early stops.  Probes
use only public attributes and skip what they cannot read.
"""

from collections import defaultdict
import json
import os
import sys
import time

import numpy as np

# Function names watched per layer; a layer is the stmp module defining them.
WATCHED = {
    "cli": ("main",),
    "pipelines": ("denoise", "super_resolve"),
    "pursuit": ("stmp_select", "exact_select", "matching_pursuit", "reconstruct"),
    "operators": ("project_dictionary", "apply_batch", "apply", "lift_code"),
    "dictionary": ("fnv1a64", "load_dictionary"),
    "clustering": ("build_tree", "balanced_cluster", "kmeans", "save_tree", "load_tree",
                   "validate_tree"),
    "tensor": ("extract_patches", "aggregate_patches", "load_tensor", "save_tensor",
               "load_pgm", "save_pgm"),
}

TENSOR_IO = ("tensor.load_tensor", "tensor.save_tensor", "tensor.load_pgm", "tensor.save_pgm")


def _counter_in(args, kwargs):
    """The ScoreCounter-like argument of a selector call, if any."""
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "inner_products"):
            return value
    return None


def _ips(counter):
    return (int(getattr(counter, "inner_products", 0)),
            int(getattr(counter, "centroid_inner_products", 0)))


def _path_in(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)):
            return value
    return None


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.centroid_ips_per_call: list[int] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "stmp" or k.startswith("stmp."))]
        for layer, names in WATCHED.items():
            for name in names:
                label = f"{layer}.{name}"
                for module in modules:
                    fn = getattr(module, name, None)
                    if getattr(fn, "__module__", None) != f"stmp.{layer}" or not callable(fn):
                        continue
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(fn, label)
                    self._patched.append((module, name, fn))
                    setattr(module, name, wrappers[fn])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def _wrap(self, fn, label):
        name_id = len(self.names)
        self._name_ids[label] = name_id
        self.names.append(label)
        probe = getattr(self, "_probe_" + label.split(".")[1], None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            after = probe(args, kwargs) if probe else None
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id)
            if after:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # A probe sees a call's arguments before it runs and returns None or a
    # callable that receives the result.

    def _probe_stmp_select(self, args, kwargs, tree=True):
        counter = _counter_in(args, kwargs)
        if counter is None:
            return None
        total0, centroid0 = _ips(counter)

        def after(result):
            total, centroid = _ips(counter)
            self.counts["centroid_ips"] += centroid - centroid0
            self.counts["atom_ips"] += (total - total0) - (centroid - centroid0)
            if tree:
                self.centroid_ips_per_call.append(centroid - centroid0)
        return after

    def _probe_exact_select(self, args, kwargs):
        return self._probe_stmp_select(args, kwargs, tree=False)

    def _probe_matching_pursuit(self, args, kwargs):
        k = next((a.K for a in list(args) + list(kwargs.values()) if hasattr(a, "K")), None)

        def after(result):
            entries = getattr(result, "entries", None)
            if k is not None and entries is not None and len(entries) < k:
                self.counts["early_stops"] += 1
        return after

    def _probe_fnv1a64(self, args, kwargs):
        if args:
            self.counts["fnv_bytes"] += len(args[0])

    def _file_probe(self, key, args, kwargs):
        path = _path_in(args, kwargs)

        def after(result):
            if path is not None and os.path.exists(path):
                self.counts[key] += os.path.getsize(path)
        return after

    def _probe_save_tree(self, args, kwargs):
        return self._file_probe("tree_bytes", args, kwargs)

    def _probe_load_tensor(self, args, kwargs):
        return self._file_probe("io_bytes", args, kwargs)

    _probe_save_tensor = _probe_load_pgm = _probe_save_pgm = _probe_load_tensor

    def _probe_denoise(self, args, kwargs):
        def after(result):
            if isinstance(result, tuple) and len(result) == 2:
                self.counts["patches"] += int(getattr(result[1], "patches", 0))
        return after

    _probe_super_resolve = _probe_denoise

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds and self seconds."""
        child = np.zeros(len(self.spans))
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[index]
        return out

    def durations(self, label: str) -> np.ndarray:
        name_id = self._name_ids.get(label)
        return np.array([end - start for n, start, end, _, _ in self.spans if n == name_id])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)

"""Outside-in tracing of specang for the benchmark's traced runs.

Every public function defined in specang.{cli,dynamics,flags,spectral,
geometry,serialize} is wrapped in a span recorder, and the wrapper is bound
in every specang namespace that holds the original (so ``specang.cli``'s
imported ``sample_flags`` is traced as well as ``specang.flags.sample_flags``).
The ``__post_init__`` of the validating dataclasses is wrapped in a counter.
Nothing under ``src/`` is modified: wrappers are installed around one op at a
time and removed afterwards, so untraced ops in the same process run the
original functions.

A span is ``[name_id, start, end, parent_index, op_id]``; spans are kept in
memory and aggregated (or saved) when the run ends.  The run is one thread
and a closed loop, so spans nest strictly and nothing ever waits in a queue.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "dynamics", "flags", "spectral", "geometry", "serialize")
VALIDATED = {
    "spectral": ("GapVector",),
    "flags": ("DensityMatrix", "UnitaryFrame", "AngleSet"),
}


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Counters read from the arguments or result of one call, keyed by span name;
# each hook returns {counter suffix: increment}.
def _trajectory_counts(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {
        "steps": max(int(round(a["t_end"] / a["dt"])), 1),
        "records": len(result.times),
        "breakdowns": int(result.breakdown_time is not None),
    }


HOOKS = {
    "dynamics.integrate_direct": _trajectory_counts,
    "dynamics.integrate_split": _trajectory_counts,
    "flags.sample_flags": lambda fn, args, kwargs, result: {"frames": len(result)},
    "dynamics.write_trajectory_csv": lambda fn, args, kwargs, result: {
        "bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])
    },
}


class Tracer:
    """Span and counter recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._patches = self._build_patches()

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, name, fn):
        nid = self._name_id(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1], tracer.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                for key, value in hook(fn, args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(obj):
            counts[key] += 1
            return fn(obj)

        return wrapper

    def _build_patches(self):
        modules = [importlib.import_module("specang")] + [
            importlib.import_module(f"specang.{layer}") for layer in LAYERS
        ]
        patches = []
        for layer in LAYERS:
            mod = importlib.import_module(f"specang.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._span(f"{layer}.{attr}", fn)
                for holder in modules:
                    for name, value in vars(holder).items():
                        if value is fn:
                            patches.append((holder, name, fn, wrapper))
        for layer, classes in VALIDATED.items():
            mod = importlib.import_module(f"specang.{layer}")
            for cls_name in classes:
                cls = getattr(mod, cls_name)
                fn = cls.__post_init__
                key = f"{layer}.{cls_name}.validations"
                patches.append((cls, "__post_init__", fn, self._counter(key, fn)))
        return patches

    @contextlib.contextmanager
    def installed(self, op_id):
        """Trace the calls made inside the block, attributing them to op_id."""
        self.op_id = op_id
        for holder, name, _, wrapper in self._patches:
            setattr(holder, name, wrapper)
        try:
            yield
        finally:
            for holder, name, original, _ in self._patches:
                setattr(holder, name, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def arrays(self) -> dict:
        """Spans as columns, with each span's self time (duration minus the
        time covered by its children; children nest and do not overlap)."""
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        parent = table[:, 3].astype(np.int64)
        dur = table[:, 2] - table[:, 1]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "names": np.array(self.names),
            "name_id": table[:, 0].astype(np.int64),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": parent,
            "op": table[:, 4].astype(np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def summarize(cols: dict) -> dict:
    """Per-function and per-layer totals from span columns.

    For a function ``layer.f``: ``calls``, ``busy_s`` (summed duration) and
    ``self_s``.  For a layer: ``calls`` over all its functions, ``busy_s``
    over its outermost spans only (a call nested in the same layer is not
    counted twice), and ``self_s`` (time in the layer's own code, not in
    the functions it calls).
    """
    names, name_id = cols["names"], cols["name_id"]
    dur, self_t, parent = cols["dur"], cols["self"], cols["parent"]
    layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    layer = layer_of_name[name_id]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
    calls = np.bincount(name_id, minlength=len(names))
    busy = np.bincount(name_id, weights=dur, minlength=len(names))
    own = np.bincount(name_id, weights=self_t, minlength=len(names))
    out = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[k])
        out[f"{name}.busy_s"] = float(busy[k])
        out[f"{name}.self_s"] = float(own[k])
    for k, lay in enumerate(LAYERS):
        sel = layer == k
        out[f"{lay}.calls"] = int(sel.sum())
        out[f"{lay}.busy_s"] = float(dur[sel & (parent_layer != k)].sum())
        out[f"{lay}.self_s"] = float(self_t[sel].sum())
    return out

"""Span recorder that wraps qslab's public functions from outside.

Each wrapped call records one span (name, start, end, parent) into flat
in-memory arrays; nothing is written until `write` is called.  A layer's
self time is its span duration minus the time its child spans cover.  The
recorder keeps one call stack, so it traces a single thread: run traced
work with `--threads 1`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []

    def __len__(self):
        return len(self.start)

    def wrap(self, span_name, fn):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        stack, clock = self._stack, time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package, layers):
        """Wrap every public function each layer module defines, wherever a
        module of `package` holds it by name, and each layer's own binding
        of scipy's `expm` under `<layer>.expm`."""
        mods = [importlib.import_module(f"{package}.{layer}") for layer in layers]
        everywhere = [m for name, m in sys.modules.items()
                      if name == package or name.startswith(package + ".")]
        for layer, mod in zip(layers, mods):
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                for holder in everywhere:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._patch(holder, attr, wrapper)
            if "expm" in vars(mod):
                self._patch(mod, "expm", self.wrap(f"{layer}.expm", mod.expm))

    def _patch(self, holder, attr, wrapper):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def totals(self, first=0, last=None):
        """{span name: (self seconds, calls)} over spans [first, last)."""
        last = len(self) if last is None else last

        def view(arr, dtype):
            return np.frombuffer(arr[first:last], dtype=dtype)  # slice copies

        start, end = view(self.start, float), view(self.end, float)
        parent = view(self.parent, np.int32) - first
        name = view(self.name, np.int32)
        dur = end - start
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {n: (float(self_s[i]), int(calls[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def write(self, path):
        """All spans as arrays in one .npz: name index, parent span index
        (-1 for a root), start and end (perf_counter seconds), and names."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 names=np.array(self.names))

"""Spans around the library's public functions, installed from outside.

`Tracer.install` wraps every public function of the seven modules in
every namespace of the package that binds it: `from .analysis import
full_profile` copies the reference into `orbits`, `generators` and
`cli`, so patching `analysis` alone would miss those calls. Two methods
(`Frame.__post_init__`, the constructor's validation, and
`SpElement.real_matrix`) are wrapped on their classes, and the gate's
passes are counted. `uninstall` restores the originals.

A span is (name, start, end, parent span, operation id); spans live in
flat arrays and are written out by `save`. Self time is a span's length
minus the time its child spans cover, accumulated per name on close.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

MODULES = ("quaternions", "subspaces", "analysis", "orbits", "generators", "io", "cli")
METHODS = (("subspaces", "Frame", "__post_init__", "subspaces.Frame"),
           ("generators", "SpElement", "real_matrix", "generators.SpElement.real_matrix"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[list] = []  # [span index, start, child time]
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.op_id = -1
        self.gate_attempts = 0
        self.gate_passes = 0
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def open(self, name_id: int) -> None:
        index = len(self.start)
        parent = self._stack[-1][0] if self._stack else -1
        now = time.perf_counter()
        self.name_id.append(name_id)
        self.start.append(now)
        self.end.append(0.0)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self._stack.append([index, now, 0.0])

    def close(self) -> None:
        now = time.perf_counter()
        index, start, child = self._stack.pop()
        self.end[index] = now
        length = now - start
        name_id = self.name_id[index]
        self.self_s[name_id] += length - child
        self.calls[name_id] += 1
        if self._stack:
            self._stack[-1][2] += length

    def span(self, name: str, fn):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def operation(self, kind: str, call):
        """Run one benchmark operation as a root span."""
        self.op_id += 1
        self.open(self._id("op." + kind))
        try:
            return call()
        finally:
            self.close()

    def _gate(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.gate_attempts += 1
            self.gate_passes += result[0] is not None
            return result
        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "isoclinic" or name.startswith("isoclinic.")]
        for short in MODULES:
            module = sys.modules["isoclinic." + short]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.span(f"{short}.{attr}", fn)
                for namespace in package:
                    for bound, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patch(namespace, bound, wrapped)
        for short, cls_name, method, name in METHODS:
            cls = getattr(sys.modules["isoclinic." + short], cls_name)
            self._patch(cls, method, self.span(name, getattr(cls, method)))
        analysis = sys.modules["isoclinic.analysis"]
        self._patch(analysis, "_gate", self._gate(analysis._gate))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def op_seconds(self) -> float:
        """Total length of the operation (root) spans."""
        root = np.frombuffer(self.parent, dtype=np.int32) == -1
        return float(np.sum(np.frombuffer(self.end)[root] - np.frombuffer(self.start)[root]))

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )

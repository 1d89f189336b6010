"""Span tracer that wraps the public callables of ``tnforms`` from outside.

Every binding of a public function is replaced, not only the defining one:
``tnbasis`` imports ``wedge_all`` and ``hodge_star`` by name and ``simplex``
calls ``gram_schmidt`` through its module global, so each module namespace
that holds the same object gets the wrapper.  Public classes get their
``__init__`` wrapped, so building an ``AltForm`` or ``GeometricSimplex``
counts towards the layer that defines it.  ``uninstall`` puts every
original back.

Spans (name, start, end, parent, op id) are kept in compact arrays and
written out by ``save``; ``summary`` turns them into per-name and per-layer
self times, where a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("combinatorics", "exterior", "simplex", "poly", "tnbasis")
ROOT_SPAN = "harness.op"


def _public_callables(module):
    """(name, object) for functions, lru-cached functions and classes defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    """Records one span per call of a wrapped ``tnforms`` callable.

    ``callers`` are further modules, such as the benchmark's own, whose
    imported bindings of the library's callables are wrapped as well.
    """

    def __init__(self, package, callers=()):
        self.package = package
        self.callers = tuple(callers)
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.names: list[str] = [ROOT_SPAN]
        self.name_ids = {ROOT_SPAN: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        # Exact counters that the summary reports next to the times.
        self.pair_visits = 0
        self.tangent_calls = 0
        self.tangent_repeats = 0
        self._tangent_seen: set = set()

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self._op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside a root span that tags its children with op_id."""
        self._op = op_id
        try:
            return self._wrap(fn, ROOT_SPAN)(*args)
        finally:
            self._op = -1

    # -- counters -----------------------------------------------------------

    def _count_wedge(self, omega, eta, *_):
        d = omega.d
        self.pair_visits += self._binomial(d, omega.k) * self._binomial(d, eta.k)

    def _count_tangent(self, T, e, *_):
        key = (T.vertices.tobytes(), e.vertices)
        self.tangent_calls += 1
        if key in self._tangent_seen:
            self.tangent_repeats += 1
        else:
            self._tangent_seen.add(key)

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._binomial = self.modules["combinatorics"].binomial
        hooks = {"exterior.wedge": self._count_wedge, "simplex.tangent_basis": self._count_tangent}
        namespaces = [self.package, *self.modules.values(), *self.callers]
        for layer, module in self.modules.items():
            for name, obj in list(_public_callables(module)):
                span = f"{layer}.{name}"
                if inspect.isclass(obj):
                    if "__init__" in vars(obj):
                        self._patch(obj, "__init__", self._wrap(obj.__init__, span))
                    continue
                wrapper = self._wrap(obj, span, hooks.get(span))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        op = np.frombuffer(self.span_op, dtype=np.int32)
        return name, parent, start, end, op

    def self_times(self) -> np.ndarray:
        _, parent, start, end, _ = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def summary(self) -> dict:
        """Self time and call count per span name and per layer."""
        name = self.arrays()[0]
        self_t = self.self_times()
        per_name_s = np.bincount(name, weights=self_t, minlength=len(self.names))
        per_name_calls = np.bincount(name, minlength=len(self.names))
        out = {}
        for layer in (*LAYERS, "harness"):
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for nid, span in enumerate(self.names):
            layer = span.split(".")[0]
            out[f"{span}.self_s"] = float(per_name_s[nid])
            out[f"{span}.calls"] = int(per_name_calls[nid])
            out[f"{layer}.self_s"] += float(per_name_s[nid])
            out[f"{layer}.calls"] += int(per_name_calls[nid])
        del out[f"{ROOT_SPAN}.self_s"], out[f"{ROOT_SPAN}.calls"]
        return out

    def save(self, path: Path):
        name, parent, start, end, op = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start=start, end=end, op=op
        )

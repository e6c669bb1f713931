"""Spans around the public functions of the vilenkin layers, taken from outside.

``Tracer.install`` replaces every public function of ``group``, ``funcspace``,
``transform``, ``identities``, ``hardy`` and ``cli`` by a timing wrapper in
every namespace where a caller looks it up (the defining module, the modules
that imported it by name, and the package).  ``uninstall`` puts the originals
back, so untraced jobs run the library exactly as shipped.

A span records name, start, end, parent span and job id.  Self time is the
span's duration minus the time of its child spans on the same thread; spans
opened on a worker thread name the innermost open span of the installing
thread as their parent but are not subtracted from it, because they overlap
it.  Every span is kept in memory and written out by ``write``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

LAYERS = ("group", "funcspace", "transform", "identities", "hardy", "cli")

# Public functions missing from a module's __all__ that the workloads reach.
EXTRA_PUBLIC = {"transform": ("synthesize",), "hardy": ("partial_sum_norm_profile",)}


def _variant(layer: str, fn: str):
    """Split one function's spans by an argument that selects its algorithm."""
    if (layer, fn) == ("hardy", "sigma_norm_profile"):
        return lambda a, kw: "hardy" if kw.get("hardy", a[2] if len(a) > 2 else False) else "plain"
    if (layer, fn) == ("hardy", "strong_sums"):
        return lambda a, kw: kw.get("mode", a[3] if len(a) > 3 else "simon")
    if (layer, fn) == ("cli", "main"):
        return lambda a, kw: (a[0] if a else kw["argv"])[0]
    return None


def _work(layer: str, fn: str):
    """Counts of work done by one call, computed from its arguments and result.

    A synthesis row of M_N cells costs 8 * M_N * sum(m_k) flops (one dense
    complex m_k x m_k matmul per digit axis) and moves 32 * M_N * N bytes
    (each axis pass reads and writes every complex cell); both are computed,
    not measured.  Every row goes into the transform totals, also the rows
    the hardy profiles synthesize in batches without calling the transform's
    public functions.  ``synthesize`` adds no rows of its own: it calls
    ``inverse_transform``, which counts them.
    """

    def rows(gen, count):
        return {f"{layer}.rows": count, f"{layer}.cells": count * gen.size,
                "transform.flops_computed": 8 * count * gen.size * sum(gen.m),
                "transform.bytes_computed": 32 * count * gen.size * gen.depth}

    if (layer, fn) == ("transform", "forward_transform"):
        return lambda a, kw, ret: rows(ret.gen, 1)
    if (layer, fn) == ("transform", "inverse_transform"):
        return lambda a, kw, ret: rows(ret.gen, 1)
    if (layer, fn) in (("hardy", "sigma_norm_profile"), ("hardy", "partial_sum_norm_profile")):
        return lambda a, kw, ret: rows(a[0].gen, len(ret))
    if layer == "identities" and fn.startswith("check_"):
        return lambda a, kw, ret: {"identities.checks": 1, "identities.checks_failed": int(not ret.passed)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.job = -1
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[str, int] = {}
        self.gridfunctions_built = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._owner_stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, variant, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if variant is None else f"{name}.{variant(args, kwargs)}"
            stack = tracer._stack()
            if stack:
                parent, nested = stack[-1][0], True
            else:
                owner = tracer._owner_stack
                parent, nested = (owner[-1][0] if owner else 0), False
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if nested:
                    stack[-1][1] += dur
                tracer._record(frame[0], label, start, end, dur - frame[1], parent)
            if work is not None:
                tracer.add_counts(work(args, kwargs, ret))
            return ret

        return traced

    def add_counts(self, counts: dict) -> None:
        with self._lock:
            for k, v in counts.items():
                self.counters[k] = self.counters.get(k, 0) + v

    def _record(self, sid, label, start, end, self_s, parent) -> None:
        with self._lock:
            st = self.stats.get(label)
            if st is None:
                st = self.stats[label] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += end - start
            st[2] += self_s
            self.spans.append((sid, label, start, end, parent, self.job))

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the six layers wherever it is bound."""
        import importlib

        mods = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, mods):
            for attr in list(mod.__all__) + list(EXTRA_PUBLIC.get(layer, ())):
                obj = getattr(mod, attr, None)
                if obj is None or isinstance(obj, type) or not callable(obj):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(
                    obj, f"{layer}.{attr}", _variant(layer, attr), _work(layer, attr)))
        for ns in [package, *mods]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)][1])

        grid_cls = package.funcspace.GridFunction
        post_init = grid_cls.__post_init__

        def counted_post_init(gf):
            with self._lock:
                self.gridfunctions_built += 1
            post_init(gf)

        self._patches.append((grid_cls, "__post_init__", post_init))
        grid_cls.__post_init__ = counted_post_init
        self._owner_stack = self._stack()

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    # -- read-out ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[2])

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans and per-name totals as one JSON side file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["span_fields"] = ["id", "name", "start_s", "end_s", "parent", "job"]
        doc["spans"] = self.spans
        doc["totals"] = {k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                         for k, v in sorted(self.stats.items())}
        path.write_text(json.dumps(doc))

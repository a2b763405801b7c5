"""Spans and counts at the boundaries of the package's modules.

A traced run swaps the public functions of ``tree_amity``'s modules for
wrappers that time each call, in every namespace that holds them (the
package's own modules and the benchmark's), and swaps them back afterwards.
Nothing in the package changes on disk.

* Calls into ``cli``, ``enumeration``, ``search``, ``amity``, ``trunk``,
  ``parity`` and ``cb`` become spans: name, start, end, parent span and
  counts, kept in memory and written out when the run ends.
* ``Tree`` construction and ``Tree``'s public query methods run millions of
  times in a survey, so they are counted and timed per group, without a
  span each.

A group's time counts nested calls of the same group once; a span group
still counts every call, a ``Tree`` group only the outermost ones.  Groups
nest across layers (a numbering check spends part of its time in
tree queries), so group times are inclusive and do not add up to the wall
time.  Each span's self time is its duration minus that of its children.

The largest call (by tree size) of each function in ``MEMORY_GROUPS`` is
recorded, and ``replay_peaks`` repeats it on freshly built trees under
``tracemalloc``.  ``tracemalloc`` slows the checkers about sixfold, so it
never runs while anything is timed.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
import tracemalloc
from typing import Any, Callable

from tree_amity import EdgeBijection, Numbering, Tree

# (group, module, function): the public functions whose calls become spans.
SPAN_TARGETS = (
    ("cli.main", "cli", "main"),
    ("search.sweep", "search", "sweep_question_path"),
    ("search.sweep", "search", "sweep_hypothesis"),
    ("search.sweep", "search", "sweep_cb_universal"),
    ("search.sweep", "search", "symmetry_audit"),
    ("enumeration.enumerate", "enumeration", "enumerate_free_trees"),
    ("search.numbering", "search", "search_numbering"),
    ("search.bijection", "search", "search_bijection"),
    ("amity.check_numbering", "amity", "check_friendly_numbering"),
    ("amity.check_bijection", "amity", "check_friendly_bijection"),
    ("trunk.find", "trunk", "find_trunk"),
    ("trunk.number", "trunk", "number_by_trunk"),
    ("parity.precondition", "parity", "check_precondition"),
    ("parity.number", "parity", "number_parity_center"),
    ("cb.find_pair", "cb", "find_subtree_pair"),
)

# Groups whose largest call is repeated under tracemalloc.
MEMORY_GROUPS = (
    "amity.check_numbering",
    "amity.check_bijection",
    "trunk.find",
    "trunk.number",
    "parity.precondition",
    "parity.number",
    "cb.find_pair",
)

MB = 1024 * 1024


def _tree_size(args) -> int:
    for a in args:
        if isinstance(a, Tree):
            return a.m
        if isinstance(a, Numbering):
            return a.tree.m
        if isinstance(a, EdgeBijection):
            return a.source.m
    return -1


def _recipe(args) -> tuple:
    """Plain data from which fresh, cache-free copies of the arguments can
    be rebuilt."""
    out = []
    for a in args:
        if isinstance(a, Tree):
            out.append(("tree", a.edges, a.n))
        elif isinstance(a, Numbering):
            out.append(("numbering", a.tree.edges, a.tree.n, a.numbers))
        elif isinstance(a, EdgeBijection):
            out.append(("bijection", a.source.edges, a.source.n,
                        a.target.edges, a.target.n, a.mapping))
        else:
            out.append(("value", a))
    return tuple(out)


def _rebuild(recipe: tuple) -> list:
    out = []
    for kind, *data in recipe:
        if kind == "tree":
            out.append(Tree(data[0], data[1]))
        elif kind == "numbering":
            out.append(Numbering(Tree(data[0], data[1]), data[2]))
        elif kind == "bijection":
            out.append(EdgeBijection(Tree(data[0], data[1]), Tree(data[2], data[3]), data[4]))
        else:
            out.append(data[0])
    return out


def _counts_of(group: str, result: Any) -> dict:
    if group in ("search.numbering", "search.bijection"):
        return {"nodes": result.nodes}
    if group == "cb.find_pair":
        return {"hits": int(result is not None)}
    return {}


class Recorder:
    """Collects spans and per-group totals for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.groups: dict[str, dict] = {}
        self.largest: dict[str, tuple[int, Callable, tuple, dict]] = {}
        self._stack: list[int] = []
        self._epoch = time.perf_counter()

    def _group(self, name: str) -> dict:
        return self.groups.setdefault(name, {"time_s": 0.0, "calls": 0, "depth": 0})

    def _open(self, name: str, group: dict) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        group["depth"] += 1
        return span

    def _close(self, span: dict, group: dict, start: float, end: float) -> None:
        self._stack.pop()
        group["depth"] -= 1
        group["calls"] += 1
        if group["depth"] == 0:
            group["time_s"] += end - start
        span["start"] = start - self._epoch
        span["end"] = end - self._epoch

    def span(self, group_name: str, name: str, fn: Callable) -> Callable:
        group = self._group(group_name)
        clock = time.perf_counter
        keep_largest = group_name in MEMORY_GROUPS

        def traced(*args, **kwargs):
            span = self._open(name, group)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, group, start, clock())
            for key, value in _counts_of(group_name, result).items():
                span[key] = value
                group[key] = group.get(key, 0) + value
            if keep_largest:
                size = _tree_size(args)
                if size > self.largest.get(group_name, (-1,))[0]:
                    self.largest[group_name] = (size, fn, _recipe(args), kwargs)
            return result

        return traced

    def generator_span(self, group_name: str, name: str, fn: Callable) -> Callable:
        """Span over a generator's life; its time is the time spent inside it."""
        group = self._group(group_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "busy_s": 0.0, "items": 0}
            self.spans.append(span)
            first = None
            while True:
                self._stack.append(span["id"])
                group["depth"] += 1
                start = clock()
                first = start if first is None else first
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    self._stack.pop()
                    group["depth"] -= 1
                    if group["depth"] == 0:
                        group["time_s"] += end - start
                    span["busy_s"] += end - start
                    span["start"] = first - self._epoch
                    span["end"] = end - self._epoch
                group["calls"] += 1
                span["items"] += 1
                yield item

        return traced

    def counter(self, group_name: str, fn: Callable) -> Callable:
        """Time and count outermost calls of the group, with no span; a
        nested call takes the shortest path, since its time is counted."""
        group = self._group(group_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if group["depth"]:
                return fn(*args, **kwargs)
            group["depth"] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                group["time_s"] += clock() - start
                group["calls"] += 1
                group["depth"] = 0

        return traced

    # -- reading the trace ----------------------------------------------------

    def duration(self, span: dict) -> float:
        return span["busy_s"] if "busy_s" in span else span["end"] - span["start"]

    def self_times(self) -> list[float]:
        own = [self.duration(s) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= self.duration(s)
        return own

    def to_json(self) -> dict:
        own = self.self_times()
        spans = [dict(s, self_s=own[s["id"]]) for s in self.spans]
        groups = {k: {kk: vv for kk, vv in v.items() if kk != "depth"}
                  for k, v in self.groups.items()}
        return {"groups": groups, "spans": spans}


def patch(recorder: Recorder, extra_modules=()) -> Callable[[], None]:
    """Install wrappers that report to ``recorder``; returns the function
    that removes them."""
    namespaces = [m for n, m in sys.modules.items()
                  if n == "tree_amity" or n.startswith("tree_amity.")]
    namespaces.extend(extra_modules)
    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for group, module, attr in SPAN_TARGETS:
        orig = getattr(importlib.import_module(f"tree_amity.{module}"), attr)
        make = recorder.generator_span if group == "enumeration.enumerate" else recorder.span
        wrapped = make(group, f"{module}.{attr}", orig)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    swap(ns, key, wrapped)
    for key, value in list(vars(Tree).items()):
        if key == "__init__":
            swap(Tree, key, recorder.counter("trees.build", value))
        elif not key.startswith("_") and callable(value):
            swap(Tree, key, recorder.counter("trees.query", value))

    def unpatch() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return unpatch


def replay_peaks(recorder: Recorder) -> dict[str, float]:
    """Repeat each memory group's largest call on fresh trees under tracemalloc.

    Returns, per group, the call's peak allocation above the memory in use
    when it started, in MB; and under ``trees`` the most memory the call's
    input trees (with the caches the call filled) still held afterwards.
    """
    peaks: dict[str, float] = {}
    held_max = 0
    for group, (_size, fn, recipe, kwargs) in sorted(recorder.largest.items()):
        gc.collect()
        tracemalloc.start()
        try:
            args = _rebuild(recipe)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            del result
            held_max = max(held_max, tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        peaks[group] = (peak - base) / MB
        del args
    peaks["trees"] = held_max / MB
    return peaks

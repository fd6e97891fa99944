"""Outside-in layer tracing for the solver benchmark.

``Tracer.install`` replaces, from the outside, every function object
that the ``ssbroyden``, ``solver``, ``updates`` and ``cli`` namespaces
reference, plus ``value_and_gradient`` of the given problem classes,
with a wrapper that records one span per call: name, start, end and the
span that was open when it started.  A span's name is the module the
function comes from (its ``__module__``, which is its layer) and the
function name, so a later rename or move keeps its time inside its
layer's totals.  Nothing in the library changes.

Spans are kept in memory.  ``fold`` turns the spans of one pass into
per-name call counts and self times (a span's duration minus the
durations of its direct children) and clears them; the spans of the
last folded pass stay available for writing out.
"""

import functools
import json
import time
import types

import numpy as np

import ssbroyden
from ssbroyden import cli, solver, updates

LAYERS = ("problems", "linesearch", "core", "updates", "solver", "cli")
NAMESPACES = (ssbroyden, solver, updates, cli)
PACKAGE_PREFIX = "ssbroyden."
ROOT = "bench.pass"
OBJECTIVE = "problems.value_and_gradient"
SEARCH = "linesearch.search"


class Tracer:
    def __init__(self, problem_classes):
        self.problem_classes = tuple(problem_classes)
        self.names = []
        self._ids = {}
        self._name_ids = []
        self._parents = []
        self._starts = []
        self._ends = []
        self._stack = [-1]
        self._patches = []
        self.last_spans = None

    def wrap(self, fn, name):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents = self._name_ids, self._parents
        starts, ends, stack = self._starts, self._ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
        return traced

    def install(self):
        wrapped = {}
        for ns in NAMESPACES:
            for attr, obj in list(vars(ns).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith(PACKAGE_PREFIX)):
                    if obj not in wrapped:
                        layer = obj.__module__[len(PACKAGE_PREFIX):]
                        wrapped[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                    self._patch(ns, attr, wrapped[obj])
        for cls in self.problem_classes:
            self._patch(cls, "value_and_gradient",
                        self.wrap(cls.value_and_gradient, OBJECTIVE))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def fold(self):
        """Fold the recorded spans into a ``PassProfile`` and clear them."""
        if len(self._stack) != 1:
            raise RuntimeError("fold() called while a span is open")
        ids = np.array(self._name_ids, dtype=np.int64)
        parents = np.array(self._parents, dtype=np.int64)
        starts = np.array(self._starts)
        ends = np.array(self._ends)
        for spans in (self._name_ids, self._parents, self._starts, self._ends):
            spans.clear()
        self.last_spans = (ids, parents, starts, ends)
        return PassProfile(self.names, ids, parents, ends - starts)

    def write_spans(self, path):
        """Write the spans of the last folded pass as one JSON object."""
        ids, parents, starts, ends = self.last_spans
        t0 = float(starts.min()) if starts.size else 0.0
        spans = [[int(i), int(p), round((s - t0) * 1e9), round((e - t0) * 1e9)]
                 for i, p, s, e in zip(ids, parents, starts, ends)]
        payload = {"names": self.names,
                   "fields": ["name", "parent", "start_ns", "end_ns"],
                   "spans": spans}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class PassProfile:
    """Per-name call counts and self times of one traced pass."""

    def __init__(self, names, ids, parents, durations):
        n_names = len(names)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=durations[has_parent],
                            minlength=ids.size)
        self_time = durations - child
        self.duration = float(durations[parents < 0].sum())
        self.calls = dict(zip(names, np.bincount(ids, minlength=n_names).tolist()))
        self.self_s = dict(zip(names, np.bincount(ids, weights=self_time,
                                                  minlength=n_names).tolist()))
        self.total_s = dict(zip(names, np.bincount(ids, weights=durations,
                                                   minlength=n_names).tolist()))
        self.n_spans = int(ids.size)
        # Objective trials opened directly under a line search.
        name_of = np.array(names + [""])
        parent_name = name_of[np.where(has_parent, ids[np.maximum(parents, 0)], n_names)]
        trial = (name_of[ids] == OBJECTIVE) & (parent_name == SEARCH)
        trials = np.bincount(parents[trial], minlength=ids.size)
        is_search = name_of[ids] == SEARCH
        self.search_trials = int(trials[is_search].sum())
        self.first_trial_searches = int((trials[is_search] == 1).sum())

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def sum_self(self, names):
        return sum(self.self_s.get(n, 0.0) for n in names)

    def sum_calls(self, names):
        return sum(self.calls.get(n, 0) for n in names)

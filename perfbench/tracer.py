"""In-memory span tracer that wraps platoonsim's public callables from outside.

A span is (name, start, end, parent).  Spans nest because the program is
single-threaded, so a span's self time is its duration minus the durations
of the spans it directly encloses.  All clocks are integer nanoseconds, so
that arithmetic is exact.

Two wrapper kinds exist:

* ``span`` stores every call as a span, for boundaries crossed at most a few
  thousand times per episode (an episode, a tracker step, a gradient step);
* ``leaf`` keeps only a call count and a time total, for functions called
  once per vehicle per step (the dynamics controllers, ``rect_cells``).  A
  leaf never encloses another traced call; its time is still charged to the
  enclosing span as child time, so self times stay exact.

``Tracer.span``, ``Tracer.leaf`` and ``Tracer.patch`` replace attributes on
modules, classes or instances and remember the originals;
``Tracer.uninstall`` puts every one of them back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        # stored spans, one entry per call, in call order
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.span_self: list = []       # self ns per stored span
        # aggregates over stored spans and leaves alike
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.durations: dict = defaultdict(list)
        # counts observed at the boundaries (nonzeros, groups, grants, ...)
        self.counts: Counter = Counter()
        # leaf ns per (outermost enclosing span name, leaf name)
        self.leaf_by_root: Counter = Counter()
        self._stack: list = []          # open spans: [index, child_ns, root]
        self._patches: list = []        # (owner, attribute, original, in_dict)

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> list:
        """Start a stored span; returns the frame `close` takes."""
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self.span_self.append(0)
        frame = [idx, 0, self._stack[0][2] if self._stack else name]
        self._stack.append(frame)
        self.start[idx] = _clock()
        return frame

    def close(self, frame: list) -> int:
        t1 = _clock()
        idx, child, _ = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = t1
        dur = t1 - self.start[idx]
        name = self.names[idx]
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        self.span_self[idx] = dur - child
        self.durations[name].append(dur)
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def span_fn(self, fn, name, on_result=None):
        """Wrap `fn` so each call is a stored span.

        `name` is a string or a function of the call's arguments.
        `on_result(tracer, args, result)` may add counts after the span ends.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def leaf_fn(self, fn, name: str):
        """Wrap `fn` with a count and a time total but no stored span."""
        calls, total, self_ns = self.calls, self.total_ns, self.self_ns
        by_root, stack = self.leaf_by_root, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                calls[name] += 1
                total[name] += dur
                self_ns[name] += dur
                if stack:
                    stack[-1][1] += dur
                    by_root[stack[0][2], name] += dur

        wrapper.__traced__ = True
        return wrapper

    # -- installation -----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        """Replace `owner.attr` by `wrapper_factory(original)`."""
        in_dict = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, in_dict))
        setattr(owner, attr, wrapper_factory(original))

    def span(self, owner, attr, name, on_result=None) -> None:
        self.patch(owner, attr, lambda fn: self.span_fn(fn, name, on_result))

    def leaf(self, owner, attr, name) -> None:
        self.patch(owner, attr, lambda fn: self.leaf_fn(fn, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, in_dict = self._patches.pop()
            if in_dict:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)   # an instance attribute shadowed a method

    # -- derived figures ---------------------------------------------------------

    def s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def ms_p50(self, name: str) -> float:
        d = self.durations.get(name)
        return median(d) / 1e6 if d else 0.0

    def self_ns_under(self, root: str) -> dict:
        """Self nanoseconds per name, summed inside every outermost `root`
        span.  The values add up exactly to the summed root durations."""
        inside = self._descendant_mask(root)
        out: Counter = Counter()
        for i, name in enumerate(self.names):
            if inside[i]:
                out[name] += self.span_self[i]
        for (outer, name), ns in self.leaf_by_root.items():
            if outer == root:
                out[name] += ns
        return dict(out)

    def _descendant_mask(self, root: str) -> list:
        inside = [False] * len(self.names)
        for i, name in enumerate(self.names):
            p = self.parent[i]
            inside[i] = (name == root and p < 0) or (p >= 0 and inside[p])
        return inside

    def write(self, path) -> None:
        """Every stored span and aggregate as one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": {"name": self.names, "start_ns": self.start,
                      "end_ns": self.end, "parent": self.parent,
                      "self_ns": self.span_self},
            "calls": dict(self.calls), "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns), "counts": dict(self.counts),
            "leaf_ns_by_root": [[outer, name, ns] for (outer, name), ns
                                in sorted(self.leaf_by_root.items())],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Tracer":
        """The spans and leaf times `write` saved, enough for self times."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        tr = cls()
        spans = doc["spans"]
        tr.names, tr.parent = spans["name"], spans["parent"]
        tr.start, tr.end = spans["start_ns"], spans["end_ns"]
        tr.span_self = spans["self_ns"]
        for outer, name, ns in doc["leaf_ns_by_root"]:
            tr.leaf_by_root[outer, name] = ns
        return tr

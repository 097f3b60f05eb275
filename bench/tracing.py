"""Spans recorded from outside the program, by wrapping its functions.

A ``Tracer`` replaces a function or method where callers look it up with a
wrapper that records a span (name, start, end, parent) and then restores
every original on ``restore``.  Spans stay in memory until the run ends.

A call made while a span of the same name is open is not recorded, so a
recursive function (``exprdsl.evaluate``) counts once, at its outermost
call, and its time is not counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at the top


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.records = []     # (span name, value returned by its record fn)
        self._stack = []
        self._open = Counter()
        self._patches = []    # (owner, attribute, original), in patch order

    def wrap(self, name, fn, record=None):
        """``fn`` with each outermost call recorded as a span ``name``.

        ``record`` maps the return value to something kept in ``records``;
        it runs after the span has ended.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.clock(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._open[name] -= 1
                tracer._stack.pop()
            if record is not None:
                tracer.records.append((name, record(result)))
            return result

        return wrapper

    def patch(self, owner, attribute, name, record=None):
        """Replace ``owner.attribute`` (a module or class) by a wrapper."""
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, record))

    def restore(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end,
                                     span.parent]) + "\n")


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def aggregate(spans):
    """Calls, total time and self time per span name."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        agg = out.setdefault(span.name, Aggregate())
        agg.calls += 1
        agg.total += span.end - span.start
        agg.self_time += own
    return out

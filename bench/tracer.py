"""Outside-in tracer: spans recorded around names a program's modules import.

``Tracer.installed`` rebinds each target name (for example ``ingest`` in
``dcakit.cli``) to a wrapper that records a span and per-call counts, and
puts every original back on exit, even when the traced code raises. A
target whose module or name no longer exists is skipped and simply shows
zero calls. Spans stay in memory until the caller reads them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list


@dataclass(frozen=True)
class Target:
    """Rebind ``module.attr`` and record each call as span ``span``.

    ``measure(args, result, error)`` returns counts to add after the call;
    ``error`` is the exception the call raised, else None.
    """

    module: str
    attr: str
    span: str
    measure: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()  # span name -> calls
        self.counts: Counter = Counter()  # count name -> total
        self.missing: list[str] = []  # targets that could not be rebound
        self._clock = clock
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = self._clock()
            self._open.pop()
            self.calls[name] += 1

    def wrap(self, fn: Callable, name: str, measure: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                if measure is not None:
                    self.counts.update(measure(args, None, exc))
                raise
            if measure is not None:
                self.counts.update(measure(args, result, None))
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        saved = []
        try:
            for target in targets:
                try:
                    module = importlib.import_module(target.module)
                except ModuleNotFoundError:
                    module = None
                if module is None or not hasattr(module, target.attr):
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                original = getattr(module, target.attr)
                saved.append((module, target.attr, original))
                setattr(module, target.attr, self.wrap(original, target.span, target.measure))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _union_length(intervals) -> float:
    total = 0.0
    start = end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return [
        (span.end - span.start) - _union_length(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[i])
        for i, span in enumerate(spans)
    ]


@dataclass(frozen=True)
class LayerTime:
    total: float = 0.0
    own: float = 0.0  # self time: total minus time covered by child spans


def layer_times(spans: list[Span]) -> dict:
    """Span name -> summed duration and summed self time of its spans."""
    totals, selfs = Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += span.end - span.start
        selfs[span.name] += own
    return {name: LayerTime(totals[name], selfs[name]) for name in totals}

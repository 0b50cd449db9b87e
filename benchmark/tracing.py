"""In-memory span tracer and self-time arithmetic.

A span records a name, its start and end, the span that was open when it
started (its parent), and the run and step it belongs to.  Spans stay in
memory until the benchmark writes them out at the end.  A span's self
time is its duration minus the part of its interval that its child spans
cover, so nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    step: int
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(children[s.id], s.start, s.end) for s in spans}


class Tracer:
    """Collects spans and per-run counts from wrapped callables.

    `run` names the run that new spans and counts belong to; `step` is the
    current step within it, advanced by wrappers made with starts_step.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.run = ""
        self.step = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, self.clock() - self.origin, float("nan"),
                    self._open[-1] if self._open else None, self.run, self.step)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = self.clock() - self.origin
            self._open.pop()

    @contextmanager
    def run_span(self, run: str):
        """Root span of one run; steps restart from zero."""
        self.run, self.step = run, 0
        with self.span("run") as span:
            yield span

    def count(self, name: str, value: float) -> None:
        self.counts[(self.run, name)] += value

    def wrap(self, name: str, fn, count=None, starts_step: bool = False):
        """`fn` inside a span called `name`.

        count(tracer, args, result) runs after a successful call, outside
        the span, to record counts taken at this boundary.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_step:
                self.step += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def resolve(module: str, attr_path: str):
    """(owner, attribute name) for "module" + "a.b.c", or None if any part is absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextmanager
def patched(replacements):
    """Set each (owner, attr, value) for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

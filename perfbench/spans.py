"""In-memory spans for the traced benchmark pass.

Spans are recorded from outside the package: ``instrument`` replaces each
cross-layer function binding (``cantorflip.cli.run_trials``,
``cantorflip.stochastic.interval``, ...) with a wrapper for the duration of
a ``with`` block, so spans nest exactly as the calls do. A span is
``(name, start, end, parent)`` with ``parent`` the index of the enclosing
span or -1. Nothing is written until the caller asks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

# The measured layers. `symbolic` is left out (no CLI path reaches it) and
# `errors` does no work.
LAYERS = ("cli", "stochastic", "exact", "bounds", "detfrac", "ifs")


class MissingSpan(LookupError):
    """A declared span was never entered, so its metric has nothing to read."""


class Tracer:
    """Span store plus counters recorded at the same call boundaries."""

    def __init__(self, counters=None):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # span name -> f(args, result) giving a count to add for that call
        self._counters = dict(counters or {})

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
        counter = self._counters.get(name)
        if counter is not None:
            self.counts[name] += counter(args, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def mark(self) -> int:
        """Index of the next span, for slicing spans by operation."""
        return len(self.spans)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def cross_layer_bindings():
    """(module, attribute, span name) for every function a layer imports from another.

    The span name is ``<defining layer>.<function name>``.
    """
    found = []
    for caller in LAYERS:
        module = importlib.import_module(f"cantorflip.{caller}")
        for attr, value in vars(module).items():
            if not inspect.isfunction(value):
                continue
            owner = value.__module__.rpartition(".")[2]
            if value.__module__.startswith("cantorflip.") and owner in LAYERS and owner != caller:
                found.append((module, attr, f"{owner}.{value.__name__}"))
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Route every cross-layer call through ``tracer`` inside the block."""
    bindings = cross_layer_bindings()
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    try:
        for module, attr, name in bindings:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)

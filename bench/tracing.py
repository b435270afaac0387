"""Span tracing of one grid, from outside the program.

The program is not instrumented.  Instead, every function that the
``harness`` and ``statistics`` modules import from another spikedcov
module (``distributions``, ``model``, ``statistics``, ``linalg``,
``asymptotics``) is replaced, in the importing module's namespace, by a
wrapper that records a span.  That is where the grid calls them, so
each call of ``harness.sample`` or of ``statistics.sym_eigen`` becomes
one span; calls the program makes through other names are not seen.

Spans are kept in memory as ``(name, start, end, parent)`` with times
from ``time.perf_counter`` and ``parent`` the index of the enclosing
span (``-1`` for the root).  The self time of a span is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER_MODULES = ("distributions", "model", "statistics", "linalg", "asymptotics")
ROOT = "harness.run_experiment"


class Tracer:
    """Collects the spans of traced calls made while it is installed."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        # Span name -> sum over its calls of the argument named when it
        # was wrapped (see ``installed``).
        self.argument_totals: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count_argument: str | None = None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if count_argument else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                self.argument_totals[name] += int(bound.arguments[count_argument])
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def to_json(self) -> dict:
        """Spans as ``[name, start_us, end_us, parent]`` relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_us", "end_us", "parent"],
            "spans": [
                [name, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), parent]
                for name, s, e, parent in self.spans
            ],
        }


def _layer_functions(namespace):
    """(attribute, qualified span name) of each layer function imported
    into ``namespace`` from another spikedcov module."""
    own = namespace.__name__
    package = own.rsplit(".", 1)[0]
    for attr, obj in vars(namespace).items():
        if not inspect.isfunction(obj) or attr.startswith("_"):
            continue
        module = obj.__module__ or ""
        if module == own or not module.startswith(package + "."):
            continue
        short = module.rsplit(".", 1)[1]
        if short in LAYER_MODULES:
            yield attr, f"{short}.{obj.__name__}"


@contextmanager
def installed(tracer: Tracer, count_arguments: dict[str, str] | None = None):
    """Patch the layer functions of ``harness`` and ``statistics`` with
    ``tracer``'s wrappers; restore the originals on exit.

    ``count_arguments`` maps a span name to an argument whose values are
    summed over its calls (for example the draws of ``type1_risk_iii``).
    """
    from spikedcov import harness, statistics

    count_arguments = count_arguments or {}
    saved = []
    try:
        for namespace in (harness, statistics):
            for attr, name in list(_layer_functions(namespace)):
                original = getattr(namespace, attr)
                saved.append((namespace, attr, original))
                setattr(namespace, attr, tracer.wrap(name, original, count_arguments.get(name)))
        yield tracer
    finally:
        for namespace, attr, original in reversed(saved):
            setattr(namespace, attr, original)


def traced_call(tracer: Tracer, fn, *args, count_arguments=None):
    """Run ``fn(*args)`` under a root span with the layers patched."""
    with installed(tracer, count_arguments):
        return tracer.wrap(ROOT, fn)(*args)

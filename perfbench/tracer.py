"""Outside-in span tracer for vmshield's public functions.

The tracer never edits the package.  It wraps each traced function and
rebinds every ``vmshield.*`` module attribute that *is* that function, so
by-name imports (``simulator.derive_weights``, ``cli.derive_weights``)
and module lookups (``scheduler``'s ``ahp.derive_weights``) both go
through the wrapper.  ``Tracer.restore`` puts every original back.

Each span is ``(name, start_ns, end_ns, parent, tag)``, where ``parent``
is the index of the enclosing span (-1 at the top) and ``tag`` is a small
summary of the return value, taken by an optional per-function hook.
Spans stay in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

# Layers whose public functions are spanned, in report order.
LAYERS = ("cli", "simulator", "scheduler", "ahp", "detector", "traffic")

# Per-element helpers that take well under a microsecond: a wrapper would
# cost more than the call, so their time shows in the caller's self time
# instead (the same reason vmshield.resources is not spanned at all).
UNSPANNED = frozenset({"detector.discrepancy", "traffic.format_timestamp",
                       "traffic.parse_timestamp"})


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, tag(result) if tag else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, tags: dict | None = None) -> list[str]:
        """Span every public function defined in vmshield.<layer>; returns the span names.

        ``tags`` maps a span name to a hook that summarises its return value.
        """
        tags = tags or {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "vmshield" or n.startswith("vmshield."))]
        names = []
        for layer in LAYERS:
            module = sys.modules[f"vmshield.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or f"{layer}.{attr}" in UNSPANNED:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, tags.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, key, fn))
                            setattr(mod, key, wrapper)
                names.append(name)
        return names

    def restore(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def ancestors(spans: list, index: int):
    parent = spans[index][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


class Summary:
    """Per-name aggregates of a span list: calls, busy and self seconds, durations."""

    def __init__(self, spans: list):
        self.spans = spans
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[int]] = defaultdict(list)
        own = self_times(spans)
        for i, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += own[i] / 1e9
            self.durations[name].append(end - start)
            # busy time counts the outermost span of a name only, so a
            # recursive call is not counted twice
            if all(spans[a][0] != name for a in ancestors(spans, i)):
                self.busy[name] += (end - start) / 1e9

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(layer + "."))

    def percentile_us(self, name: str, q: int) -> float:
        """The q-th percentile of one span's durations in microseconds, 0 without spans."""
        values = self.durations.get(name, [])
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0] / 1e3
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] / 1e3

    def tags(self, name: str):
        return [(i, s[4]) for i, s in enumerate(self.spans) if s[0] == name]

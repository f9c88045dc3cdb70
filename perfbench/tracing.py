"""Spans recorded from outside the program, around calls into each layer.

A layer is a public function looked up as a module attribute (or a strategy
method looked up on its class). `Tracer` swaps each attribute for a timing
wrapper while it is entered and puts the original object back when it
exits, so nothing under `src/fedsim` changes and no wrapper outlives the
traced region. Spans stay in memory as
`[layer, start_s, end_s, parent_index, amount]`; `amount` is the rows or
bytes a layer reports, 0 otherwise.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

NAME, START, END, PARENT, AMOUNT = range(5)


@dataclass(frozen=True)
class Layer:
    name: str  # reported name, "<module>.<function>"
    owner: object  # module or class that holds the attribute
    attr: str
    amount: Callable | None = None  # (args, kwargs, result) -> int


class Tracer:
    """Context manager that records one span per call of each layer."""

    def __init__(self, layers, clock=time.perf_counter):
        keys = [(id(l.owner), l.attr) for l in layers]
        if len(set(keys)) != len(keys):
            raise ValueError("a layer attribute is listed twice")
        self.layers = tuple(layers)
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Layer, object]] = []

    def __enter__(self):
        try:
            for layer in self.layers:
                original = _lookup(layer.owner, layer.attr)
                setattr(layer.owner, layer.attr, self._wrap(layer, original))
                self._originals.append((layer, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._originals:
            layer, original = self._originals.pop()
            setattr(layer.owner, layer.attr, original)
        return False

    def restored(self) -> bool:
        """True when no layer attribute still holds one of this tracer's wrappers."""
        return not self._originals and all(
            getattr(_lookup(l.owner, l.attr), "__perfbench_tracer__", None) is not self
            for l in self.layers
        )

    def _wrap(self, layer: Layer, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer.name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if layer.amount is not None:
                span[AMOUNT] = int(layer.amount(args, kwargs, result))
            return result

        wrapper.__perfbench_tracer__ = self
        return wrapper

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as f:
            f.write("index\tlayer\tstart_s\tend_s\tparent\tamount\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[AMOUNT]}\n")


def _lookup(owner, attr):
    # a class attribute is read from the class's own dict so that restoring
    # it never copies an inherited method down into a subclass
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def duration(span) -> float:
    return span[END] - span[START]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential, so the children of one span never overlap and
    their summed durations are the part of the parent they cover.
    """
    out = [duration(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= duration(s)
    return out


def enclosing(spans, name: str) -> list[int]:
    """Index of the nearest enclosing span called `name` (itself included), or -1.

    A parent is always recorded before its children, so one forward pass
    suffices.
    """
    out = []
    for i, s in enumerate(spans):
        if s[NAME] == name:
            out.append(i)
        elif s[PARENT] >= 0:
            out.append(out[s[PARENT]])
        else:
            out.append(-1)
    return out


@dataclass
class LayerStats:
    calls: int = 0
    amount: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def layer_stats(spans) -> dict[str, LayerStats]:
    stats: dict[str, LayerStats] = {}
    for s, own in zip(spans, self_times(spans)):
        st = stats.setdefault(s[NAME], LayerStats())
        st.calls += 1
        st.amount += s[AMOUNT]
        st.self_s += own
        st.durations.append(duration(s))
    return stats


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, pct: int) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return float(ordered[rank - 1])


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile whose nearest-rank value has `beyond` samples above it."""
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    # pct <= 100 (n - beyond) / n  <=>  ceil(pct n / 100) <= n - beyond
    return 100 * (n - beyond) // n

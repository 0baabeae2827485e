"""Span tracing of ``pasdf`` from outside the package.

A traced run rebinds public names in the modules that call them (for
example ``pasdf.repair.evaluate_field``) to wrappers that record a span
per call, then restores every original name.  Spans carry name, start,
end, parent and counts; they stay in memory until the run ends.  The
layers are the package's modules, so span names are
``<module>.<function>``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

Counter = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.counts["errors"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced


@dataclass(frozen=True)
class Hook:
    """Trace calls made from ``consumer`` to its name ``attr`` as span ``span``.

    ``attr`` may be ``Class.method``, which rebinds the method on the class.
    """

    consumer: str
    attr: str
    span: str
    counter: Counter | None = None


@contextlib.contextmanager
def instrument(tracer: Tracer, hooks: list[Hook]) -> Iterator[list[str]]:
    """Rebind every hooked name for the duration of the block.

    Yields the hooks whose target no longer exists, as ``consumer.attr``,
    so a renamed or removed function is reported, not silently untimed.
    """
    restore: list[tuple[object, str, object]] = []
    unbound: list[str] = []
    try:
        for hook in hooks:
            owner: object = importlib.import_module(hook.consumer)
            *path, attr = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                unbound.append(f"{hook.consumer}.{hook.attr}")
                continue
            # Reading from the class dict keeps methods unbound.
            raw = vars(owner)[attr] if isinstance(owner, type) else original
            restore.append((owner, attr, raw))
            setattr(owner, attr, tracer.wrap(hook.span, raw, hook.counter))
        yield unbound
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


@dataclass
class LayerStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def summarize(spans: list[Span]) -> tuple[dict[str, LayerStats], float]:
    """Per-name totals with self time, and the time covered by root spans.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans sum to the root coverage.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, LayerStats] = {}
    covered = 0.0
    for index, span in enumerate(spans):
        duration = span.end - span.start
        entry = stats.setdefault(span.name, LayerStats())
        entry.calls += 1
        entry.seconds += duration
        entry.self_seconds += duration - child_time[index]
        for key, value in span.counts.items():
            entry.counts[key] = entry.counts.get(key, 0.0) + value
        if span.parent is None:
            covered += duration
    return stats, covered

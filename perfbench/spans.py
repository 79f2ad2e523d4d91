"""Spans and counters recorded around the benchmark's calls into equiline.

A `Recorder` covers one pass.  It always times the three command paths
(`construct`, `certify`, `action`), because their per-pass totals are
end-to-end metrics.  With `traced=True` it also keeps a span for every call
the benchmark makes into a layer's public function, plus counters measured at
the same call sites.  Spans stay in memory; the run writes them out at exit.

Span names are `<module>.<function>` for layer calls (`lineset.gram`),
`cli.<command>` for the command paths, which mirror the handlers of
`equiline.cli`, and `bench.pass` / `bench.row` for the benchmark's own glue.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    row: str | None


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.row: str | None = None
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command_s: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def _span(self, name: str):
        span = Span(
            len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.row
        )
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span in traced passes; nothing otherwise."""
        if not self.traced:
            yield
            return
        with self._span(name):
            yield

    @contextmanager
    def command(self, name: str):
        """Time one command path; in traced passes also record its span."""
        start = time.perf_counter()
        try:
            with self.span(f"cli.{name}"):
                yield
        finally:
            self.command_s[name] += time.perf_counter() - start

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a `<module>.<function>` span when traced."""
        if not self.traced:
            return fn(*args, **kwargs)
        module = fn.__module__.rsplit(".", 1)[-1]
        with self._span(f"{module}.{fn.__name__}"):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        if self.traced:
            self.counts[name] += value

    def layer_stats(self) -> dict[str, float]:
        """Per-pass totals from the spans and counters.

        For each span name X: `X.s` (busy seconds) and `X.calls`.  For each
        module M: `M.self_s`, the time inside M's spans not covered by their
        child spans.
        """
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        stats: dict[str, float] = defaultdict(float)
        for s in self.spans:
            dur = s.end - s.start
            stats[f"{s.name}.s"] += dur
            stats[f"{s.name}.calls"] += 1
            stats[f"{s.name.split('.', 1)[0]}.self_s"] += dur - child_s[s.id]
        for name, value in self.counts.items():
            stats[name] += value
        return dict(stats)

"""In-memory span tracing around the calls one trielect layer makes into another.

Spans come only from this directory.  ``Tracer.add`` prepares a wrapper
that times a public function, for the import site its caller looks it up
through (a module global or a class attribute); ``activate`` installs the
wrappers and ``deactivate`` restores the originals.  Each span records a
name, a start, an end and the span that was open when it began.

Per-name totals (calls, inclusive time, self time) are kept online, so
hot leaf calls such as ``ConfigGraph.successor`` cost no memory.  Raw
spans are kept for the first ``SPANS_PER_NAME`` calls of each name, so
rare parents (a run, an oracle check) are kept whole beside a sample of
their hot children, and are written out when the benchmark ends.

Self time is a span's duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap and
their durations are exactly the part of the parent they cover.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Any, Callable

Observer = Callable[[Any, tuple], None]
SPANS_PER_NAME = 2000


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds, spans kept]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any, Callable]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``observe(result, args)`` feeds counters."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]  # [time covered by children, span id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if stats[3] < SPANS_PER_NAME:
                    stats[3] += 1
                    spans.append((frame[1], parent[1] if parent else 0, name, start, end))
                else:
                    self.dropped += 1
            if observe is not None:
                observe(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, owner: Any, attr: str, name: str, observe: Observer | None = None) -> None:
        """Trace ``owner.attr`` as span ``name`` whenever the tracer is active."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(name, original, observe)))

    def activate(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def deactivate(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, int]:
        """Exact counts so far: calls per span name plus every counter."""
        out = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        out.update(self.counters)
        return out

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.split(".")[0] == layer)

    def write(self, path: str, header: dict) -> None:
        """Header line, then one JSON span per line: id, parent (0 = root), name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans), dropped=self.dropped)) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


def self_times(spans: list) -> dict[int, float]:
    """Self time of every span in a written trace, from the spans alone."""
    covered: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0.0) for sid, _, _, start, end in spans}

"""Spans and counters recorded around calls into the program's layers.

The tracer wraps module attributes that the program looks up at call
time, so nothing in the program changes: each wrapped call becomes a
span (name, start, end, parent).  Spans are aggregated as they close --
per name the call count, the summed duration, the summed self time
(duration minus the time covered by direct child spans) and the number
of direct child spans -- and only the first ``KEEP_SPANS`` raw spans are
held, so tracing a run with a million calls costs little memory.

The tracer is single-threaded: a span begun on another thread than the
one that made the tracer raises.  The benchmark traces calls that run on
one thread (``--threads 1``; library calls default to one thread).
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
import types
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

KEEP_SPANS = 2000
# Calls per measurement, and measurements, in span_charge.
CHARGE_CALLS = 20000
CHARGE_REPEATS = 5
# Span around an observer, so its cost leaves the parent's self time.
OBSERVE = "trace.observe"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s, children]
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self.stack: list[list] = []
        self._thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"span {name!r} begun off the tracer's thread")
        parent = self.stack[-1][0] if self.stack else None
        frame = [next(self._ids), name, self.clock(), 0.0, 0, parent]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        end = self.clock()
        stack = self.stack
        stack.pop()
        span_id, name, start, child_s, children, parent = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
            stack[-1][4] += 1
        agg = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        agg[3] += children
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end, parent))
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        drain: bool = False,
        observe: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`restore`.

        ``drain`` turns a returned iterator into a list inside the span, so
        a generator's work is timed where it is done.  ``observe(args,
        result)`` runs after the span, in a span of its own
        (:data:`OBSERVE`), to update counters.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            frame = self.begin(name)
            try:
                result = original(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                self.end(frame)
            if observe is not None:
                frame = self.begin(OBSERVE)
                try:
                    observe(args, result)
                finally:
                    self.end(frame)
            return result

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _agg(self, name: str) -> list:
        return self.totals.get(name, [0, 0.0, 0.0, 0])

    def total(self, name: str) -> float:
        return self._agg(name)[1]

    def self_time(self, name: str) -> float:
        return self._agg(name)[2]

    def calls(self, name: str) -> int:
        return self._agg(name)[0]

    def children(self, name: str) -> int:
        return self._agg(name)[3]

    def report(self) -> dict:
        return {
            "totals": {
                k: {"calls": c, "total_s": t, "self_s": s, "children": n}
                for k, (c, t, s, n) in self.totals.items()
            },
            "counts": dict(self.counts),
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p}
                for i, n, a, b, p in self.spans
            ],
        }


def span_charge() -> float:
    """Seconds that one direct child span adds to its parent's self time.

    A parent span runs ``CHARGE_CALLS`` wrapped calls of an empty
    function; its self time, less the time of the same loop over the
    unwrapped function, is the tracer's bookkeeping charged to the parent.
    Median of ``CHARGE_REPEATS`` such measurements, each on a throwaway
    tracer.
    """

    def noop():
        return None

    owner = types.SimpleNamespace(f=noop)
    charges = []
    for _ in range(CHARGE_REPEATS):
        t0 = time.perf_counter()
        for _ in range(CHARGE_CALLS):
            noop()
        plain_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.wrap(owner, "f", "noop")
        wrapped = owner.f
        frame = tracer.begin("parent")
        for _ in range(CHARGE_CALLS):
            wrapped()
        tracer.end(frame)
        tracer.restore()
        charges.append((tracer.self_time("parent") - plain_s) / CHARGE_CALLS)
    return statistics.median(charges)

"""In-memory spans and collector pauses for the traced benchmark run.

Spans are recorded around the benchmark's own calls into the
simulator's layers.  Each carries a name, start, end and parent; a
span's self time is its duration minus its children's durations.  A
span can also carry the delta of a caller-supplied counter across it
(the traced run passes the engine profiler's accumulated run-loop
wall time, so a call span knows how much of it ran inside the loop).
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Optional

_NULL = nullcontext()


class NullSpans:
    """Span recorder of the timed (untraced) runs: records nothing."""

    def span(self, name: str):
        return _NULL


class SpanRecorder:
    """Records nested spans in memory; :func:`write_trace` saves them."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        counter: Optional[Callable[[], int]] = None,
    ) -> None:
        self._clock = clock
        self._counter = counter
        #: ``[name, start_ns, end_ns, parent_id, counter_delta]``
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        c0 = self._counter() if self._counter is not None else 0
        rec = [name, self._clock(), None, parent, 0]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = self._clock()
            if self._counter is not None:
                rec[4] = self._counter() - c0
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Self time of every span: duration minus children's."""
        own = [end - start for _n, start, end, _p, _d in self.spans]
        for _n, start, end, parent, _d in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def total_ns(self, name: str) -> int:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _p, _d in self.spans if n == name)

    def to_doc(self) -> dict:
        own = self.self_ns()
        return {
            "schema": "hostbench-spans/1",
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "self_ns", "loop_ns"],
            "spans": [
                [sid, name, start, end, parent, own[sid], delta]
                for sid, (name, start, end, parent, delta) in enumerate(self.spans)
            ],
        }


class GcRecorder:
    """Collector pauses seen through :data:`gc.callbacks` while
    installed (use as a context manager)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._start = 0
        #: ``(generation, start_ns, end_ns, collected)``
        self.pauses: list[tuple[int, int, int, int]] = []

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = self._clock()
        else:
            self.pauses.append(
                (info["generation"], self._start, self._clock(), info["collected"])
            )

    def __enter__(self) -> "GcRecorder":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def write_trace(path, spans: SpanRecorder, gcrec: GcRecorder, meta: dict) -> None:
    """Write the spans, the collector pauses and ``meta`` as one JSON file."""
    doc = spans.to_doc()
    doc["meta"] = meta
    doc["gc_fields"] = ["generation", "start_ns", "end_ns", "collected"]
    doc["gc"] = [list(p) for p in gcrec.pauses]
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))

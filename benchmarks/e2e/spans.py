"""The harness's own span recorder.

Spans are recorded around the calls the workloads make into each layer
of the program (name, start, end, parent, iteration id), kept in memory
and written once, at exit, as Chrome ``trace_event`` JSON.  No span
lives inside ``src/``: the program is traced from the outside only.

A span's *self time* is its duration minus the part of it its direct
children cover, so the self times of one iteration add up to the time
spent inside any span and ``iteration wall - sum`` is what the harness
cannot attribute (``harness.untraced_share``).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class _Span(list):
    """``[name, start, end, parent index or -1, iteration id]``; a list
    so that a caller may rename it once it knows who served the call."""

    __slots__ = ("rec",)

    def __enter__(self):
        rec = self.rec
        self[3] = rec._open[-1] if rec._open else -1
        rec._open.append(len(rec.spans))
        rec.spans.append(self)
        self[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self[2] = perf_counter()
        self.rec._open.pop()


class Recorder:
    """In-memory span store; ``enabled=False`` makes ``span()`` free."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._open: list = []
        self.iteration = -1

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        span = _Span((name, 0.0, 0.0, -1, self.iteration))
        span.rec = self
        return span

    def write_chrome_trace(self, path, pid: int = 0) -> None:
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent, "iteration": iteration},
            }
            for i, (name, start, end, parent, iteration) in enumerate(
                self.spans
            )
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_times(spans) -> list:
    """Self time of every span, in the order given (see module doc)."""
    selfs = [end - start for _name, start, end, _parent, _it in spans]
    for _name, start, end, parent, _it in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def fold(spans) -> dict:
    """``{iteration: {span name: summed self time}}``."""
    table: dict = {}
    for (name, _s, _e, _p, iteration), self_s in zip(spans, self_times(spans)):
        row = table.setdefault(iteration, {})
        row[name] = row.get(name, 0.0) + self_s
    return table


def served_backend(before: dict, after: dict) -> str:
    """Which backend served the launches between two
    ``obs.snapshot()["counters"]`` readings: the one whose
    ``launch.served.<b>`` counter moved.  A group of launches is one
    kernel under one engine, so exactly one may move."""
    moved = [
        key[len("launch.served."):]
        for key, value in after.items()
        if key.startswith("launch.served.") and value != before.get(key, 0)
    ]
    if len(moved) != 1:
        raise ValueError(f"expected one serving backend, saw {moved}")
    return moved[0]

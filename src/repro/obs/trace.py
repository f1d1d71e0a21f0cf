"""Span-based tracer emitting Chrome ``trace_event`` JSON.

The tracer answers "where did the time go?" questions the per-stage
counters cannot: it records nestable, thread-aware wall-clock **spans**
(``with span("compile"): ...``) and point-in-time **instants**
(``instant("fault", site=...)``) and writes them as a Chrome trace —
load the file into ``chrome://tracing`` / https://ui.perfetto.dev and
the parse → compile → explore → cache → launch hierarchy renders as a
flame graph per thread.

Observability is strictly out-of-band: spans never touch buffers or
:class:`~repro.opencl.interp.Counters`, so results are bitwise-identical
with tracing on or off (asserted in ``tests/test_obs.py``).

Enabling
--------
* ``REPRO_TRACE=<path>`` — any entry point (pytest, benchsuite,
  examples) traces into ``<path>``; the file is written at process
  exit (only by the process that started the trace, so forked workers
  cannot clobber it).
* ``python -m repro.benchsuite ... --trace <path>`` — explicit flag.
* :func:`start_tracing` / :func:`stop_tracing` — programmatic.  A
  tracer started without a path writes no file; its events are read in
  process (``Tracer.events``, ``benchsuite --profile``).

Disabled fast path
------------------
``span()``/``instant()`` first read the module-level ``_ACTIVE`` slot;
when it is ``None`` they return a shared no-op context manager (one
singleton, no allocation) / return immediately.  This is the hard
requirement of the hot path: with tracing off the instrumentation adds
one attribute load per call site (gated in CI by
``benchmarks/check_perf_regression.py``).

Format
------
``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with

* ``ph: "X"`` complete events (``ts``/``dur`` in microseconds since the
  tracer started, ``pid``/``tid`` integers, attributes under ``args``),
* ``ph: "i"`` thread-scoped instants,
* ``ph: "M"`` metadata events naming each thread.

Chrome infers span nesting per thread from ``ts``/``dur`` containment.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from pathlib import Path
from typing import Optional

__all__ = [
    "Tracer",
    "TimedSpan",
    "instant",
    "span",
    "start_tracing",
    "stop_tracing",
    "timed_span",
    "tracing_enabled",
]

ENV_VAR = "REPRO_TRACE"

#: Retained-event cap: a runaway trace degrades by *dropping* (counted
#: and reported in the written file), never by unbounded memory growth.
MAX_EVENTS = 1_000_000


class _NullSpan:
    """The shared disabled-path context manager: stateless, reusable,
    reentrant — ``span()`` with tracing off always returns this one
    instance."""

    __slots__ = ()

    #: Write sink for call sites that set attributes after entry
    #: (``span.attrs["memo"] = "hit"``).  Shared and never read; its
    #: size is bounded by the set of attribute names in the codebase.
    attrs: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """An in-memory Chrome-trace event buffer (thread-safe)."""

    def __init__(
        self, path: "str | Path | None", max_events: int = MAX_EVENTS
    ):
        #: ``None``: the events are only read in process.
        self.path = None if path is None else Path(path)
        self.max_events = max_events
        #: Only the process that created the tracer writes the file.
        self.owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._events: list = []
        self._dropped = 0
        self._named_tids: set = set()
        self._t0 = time.perf_counter()

    # -- recording -------------------------------------------------------
    def now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def _append(self, event: dict, tid: int) -> None:
        with self._lock:
            if tid not in self._named_tids:
                self._named_tids.add(tid)
                self._events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": self.owner_pid,
                        "tid": tid,
                        "args": {"name": threading.current_thread().name},
                    }
                )
            if len(self._events) >= self.max_events:
                self._dropped += 1
                return
            self._events.append(event)

    def add_complete(
        self, name: str, start_us: float, dur_us: float, attrs: dict
    ) -> None:
        tid = threading.get_native_id()
        event = {
            "ph": "X",
            "name": name,
            "cat": "repro",
            "ts": start_us,
            "dur": dur_us,
            "pid": self.owner_pid,
            "tid": tid,
        }
        if attrs:
            event["args"] = attrs
        self._append(event, tid)

    def add_instant(self, name: str, attrs: dict) -> None:
        tid = threading.get_native_id()
        event = {
            "ph": "i",
            "name": name,
            "cat": "repro",
            "s": "t",
            "ts": self.now_us(),
            "pid": self.owner_pid,
            "tid": tid,
        }
        if attrs:
            event["args"] = attrs
        self._append(event, tid)

    # -- output ----------------------------------------------------------
    def events(self) -> list:
        """A copy of the buffered events, in recording order."""
        with self._lock:
            return list(self._events)

    def write(self) -> Path:
        """Serialize the buffer to ``self.path`` (atomic rename)."""
        with self._lock:
            events = list(self._events)
            dropped = self._dropped
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "droppedEvents": dropped,
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        # default=str: span attributes may carry arbitrary objects
        # (arith expressions, tuples); the trace degrades to their repr
        # instead of refusing to serialize.
        tmp.write_text(json.dumps(document, default=str))
        os.replace(tmp, self.path)
        return self.path


class _Span:
    """One live span (tracing enabled); emits on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "_start_us")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start_us = 0.0

    def __enter__(self) -> "_Span":
        self._start_us = self._tracer.now_us()
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        tracer.add_complete(
            self.name, self._start_us, tracer.now_us() - self._start_us,
            self.attrs,
        )
        return False


class TimedSpan:
    """A span that *always* measures wall time (``.elapsed`` seconds),
    emitting a trace event only when tracing is active.

    This is the primitive for harness-level timings that must be
    reported whether or not a trace is being recorded (e.g. the
    benchsuite's ``explore_seconds``): one mechanism, one clock, and the
    number in the report is exactly the duration of the span in the
    trace."""

    __slots__ = ("name", "attrs", "elapsed", "_t0", "_tracer")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.elapsed = 0.0

    def __enter__(self) -> "TimedSpan":
        self._tracer = _ACTIVE
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        tracer = self._tracer
        if tracer is not None:
            end_us = tracer.now_us()
            tracer.add_complete(
                self.name, end_us - self.elapsed * 1e6, self.elapsed * 1e6,
                self.attrs,
            )
        return False


# ---------------------------------------------------------------------------
# module-level state and API
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None
_atexit_registered = False


def span(name: str, **attrs):
    """A context manager tracing ``name`` with the given attributes.

    Disabled fast path: with no active tracer this returns the shared
    no-op singleton without allocating."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, attrs)


def timed_span(name: str, **attrs) -> TimedSpan:
    """Like :func:`span` but always measures (see :class:`TimedSpan`)."""
    return TimedSpan(name, attrs)


def instant(name: str, **attrs) -> None:
    """Record a point-in-time event (no-op without an active tracer)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.add_instant(name, attrs)


def tracing_enabled() -> bool:
    return _ACTIVE is not None


def start_tracing(
    path: "str | Path | None" = None, max_events: int = MAX_EVENTS
) -> Tracer:
    """Install a tracer writing to ``path``; returns it.

    A previously active tracer is flushed to its own path first; with
    no ``path`` it stays active, and a fresh one writes no file.  The
    file itself is written by :func:`stop_tracing` or at process exit."""
    global _ACTIVE, _atexit_registered
    previous = _ACTIVE
    if previous is not None:
        if path is None or previous.path == Path(path):
            return previous
        _write_if_owner(previous)
    _ACTIVE = Tracer(path, max_events=max_events)
    if not _atexit_registered:
        _atexit_registered = True
        atexit.register(_atexit_write)
    return _ACTIVE


def stop_tracing() -> Optional[Path]:
    """Write and uninstall the active tracer; returns the written path
    (``None`` when tracing was not active, the tracer has no path or
    this is a forked child)."""
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    if tracer is None:
        return None
    return _write_if_owner(tracer)


def _write_if_owner(tracer: Tracer) -> Optional[Path]:
    if tracer.path is None or tracer.owner_pid != os.getpid():
        return None  # no file, or a forked child: the parent owns it
    try:
        return tracer.write()
    except OSError:
        return None


def _atexit_write() -> None:
    tracer = _ACTIVE
    if tracer is not None:
        _write_if_owner(tracer)


# ``REPRO_TRACE`` auto-start: importing repro.obs (which every
# instrumented module does) is enough — pytest, the benchsuite and the
# examples all trace without code changes.
_env_path = os.environ.get(ENV_VAR)
if _env_path:
    start_tracing(_env_path)
del _env_path

"""Degradation ledger: make silently-degraded runs observable.

A fallback chain (:meth:`repro.backend.registry.ResolvedChain.execute`)
is the right recovery mechanism for a backend that cannot run a kernel
— but before this ledger existed, a run that silently fell from the
fused tier all the way to the scalar reference looked *identical* to a
healthy one (that is the point of the bitwise contract) while being
orders of magnitude slower.  Every decline is now recorded here with
the engine name, the declining backend and a reason, so harnesses (the
benchsuite CLI, the chaos checker) can report exactly which tiers
degraded and why.

The ledger is deliberately **not** part of :class:`~repro.opencl.interp.Counters`:
counters obey the cross-backend bitwise-equality contract, and which
tier ultimately served a launch is precisely the thing that may differ
between engines without affecting results.

Decline kinds:

``static``
    ``plan``/``run`` raised :class:`~repro.backend.base.CompileUnsupported`
    before touching buffers.
``dynamic``
    ``run`` raised ``VectorUnsupported`` after rolling buffers back
    (e.g. a cross-lane race detected mid-launch); the reason is
    ``"<kernel>: <the exception's message>"``.
``crash``
    ``plan`` raised an unexpected exception; the chain shields the
    launch and falls through (the final member re-raises).
``fault``
    a deterministic injected fault (:mod:`repro.faultinject`,
    site ``backend-run``) declined the backend.
``breaker``
    an open circuit breaker (:mod:`repro.service.breaker`) skipped the
    backend without trying it — repeated crash/fault declines tripped
    it and the chain degraded to the next tier pre-emptively.
"""

from __future__ import annotations

import threading
from collections import Counter as _Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs import metrics

__all__ = [
    "DegradationEvent",
    "DegradationLedger",
    "LEDGER",
    "clear",
    "counts",
    "events",
    "format_snapshot",
    "record",
    "summary",
]

#: Cap on retained individual events (counts are kept exactly beyond it).
_MAX_EVENTS = 10_000

DECLINE_KINDS = ("static", "dynamic", "crash", "fault", "breaker")


@dataclass(frozen=True)
class DegradationEvent:
    """One backend declining one launch."""

    engine: str
    backend: str
    kind: str  # one of DECLINE_KINDS
    reason: str


class DegradationLedger:
    """Thread-safe record of backend declines (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[DegradationEvent] = []
        self._counts: _Counter = _Counter()
        self._dropped = 0

    def record(self, engine: str, backend: str, kind: str, reason: str) -> None:
        event = DegradationEvent(engine, backend, kind, reason)
        with self._lock:
            self._counts[(engine, backend, kind)] += 1
            if len(self._events) < _MAX_EVENTS:
                self._events.append(event)
            else:
                self._dropped += 1

    def events(self) -> Tuple[DegradationEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def counts(self) -> Dict[Tuple[str, str, str], int]:
        """``(engine, backend, kind) -> count`` — exact even past the
        per-event cap."""
        with self._lock:
            return dict(self._counts)

    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._counts.clear()
            self._dropped = 0

    def as_dict(self) -> dict:
        """JSON-serializable view for the metrics registry (repro.obs).

        The exact per-(engine, backend, kind) counts plus the retained
        event tail; :func:`format_snapshot` renders this back into the
        human digest, so the CLI and ``--metrics-json`` show the same
        data."""
        with self._lock:
            return {
                "total": sum(self._counts.values()),
                "dropped_events": self._dropped,
                "declines": [
                    {
                        "engine": engine,
                        "backend": backend,
                        "kind": kind,
                        "count": n,
                    }
                    for (engine, backend, kind), n
                    in sorted(self._counts.items())
                ],
                "events": [
                    {
                        "engine": e.engine,
                        "backend": e.backend,
                        "kind": e.kind,
                        "reason": e.reason,
                    }
                    for e in self._events
                ],
            }

    def summary(self) -> str:
        """Human-readable per-(engine, backend, kind) digest."""
        return format_snapshot(self.as_dict())

    def __len__(self) -> int:
        return self.total()


def format_snapshot(snapshot: dict) -> str:
    """Render a ledger ``as_dict()`` snapshot (e.g. pulled out of a
    ``repro.obs`` metrics document) as the CLI digest."""
    declines = snapshot.get("declines", [])
    if not declines:
        return "degradation ledger: empty (no backend declined)"
    lines = ["degradation ledger:"]
    for d in declines:
        lines.append(
            f"  engine {d['engine']!r}: backend {d['backend']!r} declined "
            f"{d['count']}x ({d['kind']})"
        )
    dropped = snapshot.get("dropped_events", 0)
    if dropped:
        lines.append(f"  [{dropped} events past the cap; counts exact]")
    return "\n".join(lines)


#: The process-global ledger every fallback chain records into.
LEDGER = DegradationLedger()
metrics.register_provider("ledger", LEDGER.as_dict)


def record(engine: str, backend: str, kind: str, reason: str) -> None:
    LEDGER.record(engine, backend, kind, reason)


def events() -> Tuple[DegradationEvent, ...]:
    return LEDGER.events()


def counts() -> Dict[Tuple[str, str, str], int]:
    return LEDGER.counts()


def clear() -> None:
    LEDGER.clear()


def summary() -> str:
    return LEDGER.summary()

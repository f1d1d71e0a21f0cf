"""``repro.obs`` — zero-dependency observability: tracing and metrics.

Three parts (see ``src/repro/OBSERVABILITY.md`` for the full design):

* :mod:`repro.obs.trace` — nestable, thread-aware spans and instants
  emitting Chrome ``trace_event`` JSON (``REPRO_TRACE=<path>`` or
  ``benchsuite --trace``); while tracing, the compiled pipeline spans
  each barrier segment and reports each launch's per-buffer traffic.
* :mod:`repro.obs.metrics` — process-global counters plus the views
  each stats owner registers for itself, all merged by ``snapshot()``
  (``benchsuite --metrics-json``).
* :mod:`repro.obs.analysis` — attribution over the other two:
  cost-model calibration (Spearman/regret of one search's candidates),
  and the segment table and per-segment roofline classification read
  from a trace (``benchsuite explore`` / ``--profile`` / ``report``).

This package is a *leaf*: it imports nothing from the rest of
``repro`` at module level, so every subsystem may import it freely.
Everything it does is out-of-band — enabling any part of it never
changes buffers, ``Counters``, or control flow.
"""

from __future__ import annotations

from . import analysis, metrics, trace
from .metrics import inc, register_provider, snapshot
from .trace import (
    instant,
    span,
    start_tracing,
    stop_tracing,
    timed_span,
    tracing_enabled,
)

__all__ = [
    "trace",
    "metrics",
    "analysis",
    "span",
    "timed_span",
    "instant",
    "start_tracing",
    "stop_tracing",
    "tracing_enabled",
    "inc",
    "snapshot",
    "register_provider",
]

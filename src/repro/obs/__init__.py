"""``repro.obs`` — zero-dependency observability: tracing, metrics,
kernel profiling.

Four parts (see ``src/repro/OBSERVABILITY.md`` for the full design):

* :mod:`repro.obs.trace` — nestable, thread-aware spans and instants
  emitting Chrome ``trace_event`` JSON (``REPRO_TRACE=<path>`` or
  ``benchsuite --trace``).
* :mod:`repro.obs.metrics` — process-global counters/gauges/histograms
  plus the views each stats owner registers for itself, all merged by
  ``snapshot()`` (``benchsuite --metrics-json``).
* :mod:`repro.obs.profile` — per-barrier-segment timing and per-buffer
  traffic in the compiled/fused backends (``REPRO_PROFILE=1`` or
  ``benchsuite --profile``).
* :mod:`repro.obs.analysis` — attribution over the other instruments:
  cost-model calibration (Spearman/regret per workload), per-segment
  roofline classification, and service latency SLO tables
  (``benchsuite calibrate`` / ``report``).

This package is a *leaf*: it imports nothing from the rest of
``repro`` at module level, so every subsystem may import it freely.
Everything it does is out-of-band — enabling any part of it never
changes buffers, ``Counters``, or control flow.
"""

from __future__ import annotations

from . import analysis, metrics, profile, trace
from .metrics import inc, observe, register_provider, set_gauge, snapshot
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
    "profile",
    "analysis",
    "span",
    "timed_span",
    "instant",
    "start_tracing",
    "stop_tracing",
    "tracing_enabled",
    "inc",
    "set_gauge",
    "observe",
    "snapshot",
    "register_provider",
]

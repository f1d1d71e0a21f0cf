"""Kernel profiler: per-barrier-segment timing and per-buffer traffic.

The compiled pipeline runs a kernel as barrier-delimited segments, in
blocks (``compiled``) or over the whole grid (``fused``); the profiler
attributes wall time to each segment and load/store traffic to each
named kernel buffer, producing the benchsuite's ``profile`` table
(top-N segments by time).  It answers "which segment dominates, and
which buffer does it move?".

Profiling is **opt-in** (``REPRO_PROFILE=1`` or ``benchsuite
--profile``) because per-segment timing necessarily adds clock reads
inside the launch loop.  Like tracing, it is out-of-band: it observes
the same load/store events the in-band ``Counters`` already count, so
enabling it cannot change buffers or Counters.

Hot-path contract: every hook site checks the module-level ``ACTIVE``
slot first; disabled cost is one attribute load per launch/segment,
zero per element.

Buffer attribution: arrays are only identifiable by ``id()`` inside the
simulator, so the profiler keeps a per-thread ``{id(array): name}`` map
seeded from the kernel's argument environment at launch.  The map is
reset at every ``begin_launch`` — ``id()`` values of freed arrays may
be reused, and a stale map would silently mis-attribute traffic.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from . import metrics

__all__ = [
    "KernelProfiler",
    "ACTIVE",
    "enable",
    "disable",
    "enabled",
    "as_dict",
    "format_table",
]

ENV_VAR = "REPRO_PROFILE"


class _LaunchCtx(threading.local):
    def __init__(self) -> None:
        self.kernel: Optional[str] = None
        self.names: dict = {}


class KernelProfiler:
    """Aggregates segment timings and buffer traffic across launches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (kernel, segment_index) -> [calls, seconds]
        self._segments: dict = {}
        # (kernel, buffer_name, space) -> [loads, cached_loads, stores]
        self._traffic: dict = {}
        # (kernel, segment_index) -> {counter_name: delta_sum}
        # Out-of-band snapshots of the in-band Counters taken around
        # each segment by the profiled execution paths; this is what
        # roofline attribution reads its per-segment flops/bytes from.
        self._segment_counters: dict = {}
        self._ctx = _LaunchCtx()

    # -- launch context --------------------------------------------------
    def begin_launch(self, kernel: str) -> None:
        ctx = self._ctx
        ctx.kernel = kernel
        ctx.names = {}

    def map_buffer(self, array, name: str) -> None:
        self._ctx.names[id(array)] = name

    # -- recording -------------------------------------------------------
    def record_segment(self, index: int, seconds: float) -> None:
        key = (self._ctx.kernel or "?", index)
        with self._lock:
            cell = self._segments.get(key)
            if cell is None:
                self._segments[key] = [1, seconds]
            else:
                cell[0] += 1
                cell[1] += seconds

    def record_segment_counters(self, index: int, deltas: dict) -> None:
        """Accumulate a per-segment snapshot of Counters deltas.

        ``deltas`` maps counter field names (``flops``,
        ``global_loads``, ...) to the amount this segment execution
        added; zero entries may be omitted by the caller."""
        key = (self._ctx.kernel or "?", index)
        with self._lock:
            cell = self._segment_counters.get(key)
            if cell is None:
                self._segment_counters[key] = dict(deltas)
            else:
                for name, delta in deltas.items():
                    cell[name] = cell.get(name, 0) + delta

    def record_loads(
        self, array, space: str, fresh: int, cached: int
    ) -> None:
        ctx = self._ctx
        key = (
            ctx.kernel or "?",
            ctx.names.get(id(array), "<anon>"),
            space,
        )
        with self._lock:
            cell = self._traffic.get(key)
            if cell is None:
                self._traffic[key] = [fresh, cached, 0]
            else:
                cell[0] += fresh
                cell[1] += cached

    def record_stores(self, array, space: str, count: int) -> None:
        ctx = self._ctx
        key = (
            ctx.kernel or "?",
            ctx.names.get(id(array), "<anon>"),
            space,
        )
        with self._lock:
            cell = self._traffic.get(key)
            if cell is None:
                self._traffic[key] = [0, 0, count]
            else:
                cell[2] += count

    # -- views -----------------------------------------------------------
    def as_dict(self) -> dict:
        with self._lock:
            segments = [
                {
                    "kernel": kernel,
                    "segment": index,
                    "calls": calls,
                    "seconds": seconds,
                    "counters": dict(
                        self._segment_counters.get((kernel, index), {})
                    ),
                }
                for (kernel, index), (calls, seconds)
                in self._segments.items()
            ]
            traffic = [
                {
                    "kernel": kernel,
                    "buffer": buffer,
                    "space": space,
                    "loads": loads,
                    "cached_loads": cached,
                    "stores": stores,
                }
                for (kernel, buffer, space), (loads, cached, stores)
                in self._traffic.items()
            ]
        segments.sort(key=lambda s: -s["seconds"])
        traffic.sort(key=lambda t: -(t["loads"] + t["stores"]))
        return {"segments": segments, "traffic": traffic}

    def format_table(self, top: int = 10) -> str:
        """The benchsuite's ``profile`` table (top-N segments by time)."""
        data = self.as_dict()
        lines = ["kernel profile (top segments by wall time):"]
        if not data["segments"]:
            lines.append("  (no profiled launches)")
        for s in data["segments"][:top]:
            lines.append(
                f"  {s['kernel']:<24} seg {s['segment']:<2} "
                f"{s['calls']:>6} calls "
                f"{s['seconds'] * 1e3:>9.3f} ms"
            )
        if data["traffic"]:
            lines.append("buffer traffic (loads+cached/stores):")
            for t in data["traffic"][:top]:
                lines.append(
                    f"  {t['kernel']:<24} {t['buffer']:<12} "
                    f"{t['space']:<8} {t['loads']:>10}+{t['cached_loads']:<10} "
                    f"/ {t['stores']:>10}"
                )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._segments.clear()
            self._traffic.clear()
            self._segment_counters.clear()


#: Module-level hot-path gate: ``None`` means profiling is off.
ACTIVE: Optional[KernelProfiler] = None


def enable() -> KernelProfiler:
    global ACTIVE
    if ACTIVE is None:
        ACTIVE = KernelProfiler()
    return ACTIVE


def disable() -> None:
    global ACTIVE
    ACTIVE = None


def enabled() -> bool:
    return ACTIVE is not None


def as_dict() -> dict:
    """Provider view for the metrics registry."""
    if ACTIVE is None:
        return {"enabled": False, "segments": [], "traffic": []}
    doc = ACTIVE.as_dict()
    doc["enabled"] = True
    return doc


metrics.register_provider("profile", as_dict)


def format_table(top: int = 10) -> str:
    if ACTIVE is None:
        return "kernel profile: disabled (set REPRO_PROFILE=1 or --profile)"
    return ACTIVE.format_table(top)


if os.environ.get(ENV_VAR):
    enable()

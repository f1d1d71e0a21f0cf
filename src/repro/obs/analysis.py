"""Performance attribution: cost-model calibration, and the kernel
segment and roofline views of a trace.

The paper's claim is that performance comes from *choosing the right
rewrite*, which the explorer does by ranking candidates with the cost
model — so the model itself needs an instrument.  Two analyses share
this module because they answer the same question at two levels:

* **Calibration** (:func:`calibration`): does the pre-execution
  prediction (``static_program_cost``) rank candidates the way the
  measured-counter model (``runtime_from_cycles``) does?  One search's
  evaluated candidates are summarized as Spearman rank correlation,
  top-1/top-5 regret, and scale-aligned residuals;
  ``benchsuite explore`` reports a row per benchmark and publishes the
  rows as the snapshot's ``calibration`` section.  CI gates on the
  correlation floor (``benchmarks/check_perf_regression.py
  --calibration-json``).

* **Roofline attribution** (:func:`roofline_segments`): which barrier
  segment is memory-bound and which compute-bound?  Reads the traced
  ``segment`` spans' counter deltas (flops from ``Counters``, load
  events and stores from the traffic accounting) and positions each
  segment's arithmetic intensity against the
  :class:`~repro.opencl.cost.DeviceProfile` compute/bandwidth peaks.

The ``segment`` spans and ``traffic`` instants of a trace also make
the ``benchsuite --profile`` table (:func:`format_profile`).  Every
view takes trace events: a loaded document's ``traceEvents`` or a
live ``Tracer.events()``.

Everything here is out-of-band: analyses only *read* a search's
results and trace events.  Nothing feeds back into execution.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import List, Optional, Sequence

__all__ = [
    "calibration",
    "format_calibration",
    "spearman",
    "topk_regret",
    "short_hash",
    "segment_rows",
    "traffic_rows",
    "format_profile",
    "roofline_segments",
]


def short_hash(canonical_text: str) -> str:
    """Stable short digest of a canonical program form — the
    ``structural_hash`` argument of the explorer's trace spans."""
    return hashlib.sha1(canonical_text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------

def _average_ranks(values: Sequence[float]) -> List[float]:
    """Ranks (1-based) with ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (
            j + 1 < len(order)
            and values[order[j + 1]] == values[order[i]]
        ):
            j += 1
        avg = (i + j) / 2 + 1  # 1-based average of tied positions
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation with average-rank tie handling.

    ``None`` when undefined: fewer than two pairs, or either side is
    constant (zero rank variance)."""
    if len(xs) != len(ys):
        raise ValueError("spearman needs paired sequences")
    n = len(xs)
    if n < 2:
        return None
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def topk_regret(
    predicted: Sequence[float], measured: Sequence[float], k: int
) -> Optional[float]:
    """How much slower is the best of the model's top-*k* picks than the
    true best?  0.0 means the model's shortlist contains the winner;
    0.25 means trusting the model costs 25% runtime.  ``None`` when
    empty or the true best is non-positive."""
    if len(predicted) != len(measured):
        raise ValueError("topk_regret needs paired sequences")
    if not predicted:
        return None
    order = sorted(range(len(predicted)), key=lambda i: predicted[i])
    shortlist = order[: max(1, k)]
    best_of_picks = min(measured[i] for i in shortlist)
    best = min(measured)
    if best <= 0:
        return None
    return best_of_picks / best - 1.0


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _residual_rms(preds: Sequence[float], meas: Sequence[float]):
    """RMS of log-residuals after scale alignment.

    Static cost and modeled runtime live on different scales (only
    ordering is meaningful), so residuals are computed on
    ``log(measured) - log(scale * predicted)`` with ``scale`` the
    geometric-mean ratio — i.e. how far each candidate deviates
    from the best monotone scaling, in log space."""
    pairs = [(p, m) for p, m in zip(preds, meas) if p > 0 and m > 0]
    if not pairs:
        return None
    logs = [math.log(m) - math.log(p) for p, m in pairs]
    shift = sum(logs) / len(logs)  # log of the geometric-mean ratio
    return math.sqrt(sum((x - shift) ** 2 for x in logs) / len(logs))


def calibration(
    static_costs: Sequence[float], runtimes: Sequence[float]
) -> dict:
    """How well one search's pre-execution prediction
    (``static_program_cost``) ranks its evaluated candidates against
    the measured-counter model (``runtime_from_cycles``).

    Pass the candidates in the search's static order: ``topk_regret``
    breaks ties in static cost by position."""
    return {
        "candidates": len(static_costs),
        "spearman": spearman(static_costs, runtimes),
        "top1_regret": topk_regret(static_costs, runtimes, 1),
        "top5_regret": topk_regret(static_costs, runtimes, 5),
        "residual_rms": _residual_rms(static_costs, runtimes),
    }


def format_calibration(doc: dict) -> str:
    """The calibration table of a ``{"workloads": {name: row}}``
    document (:func:`calibration` rows)."""
    workloads = doc.get("workloads", {})
    lines = [
        "cost-model calibration (static prediction vs measured-counter "
        "runtime):",
        f"  {'workload':<12} {'cands':>5} {'spearman':>9} "
        f"{'top1-regret':>12} {'top5-regret':>12} {'resid-rms':>10}",
    ]
    if not workloads:
        lines.append("  (no calibration records)")
        return "\n".join(lines)

    def fmt(v, pct=False):
        if v is None:
            return "n/a"
        return f"{v * 100:.1f}%" if pct else f"{v:.3f}"

    for name in sorted(workloads):
        s = workloads[name]
        lines.append(
            f"  {name:<12} {s['candidates']:>5} {fmt(s['spearman']):>9} "
            f"{fmt(s['top1_regret'], pct=True):>12} "
            f"{fmt(s['top5_regret'], pct=True):>12} "
            f"{fmt(s['residual_rms']):>10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# kernel segments and buffer traffic
# ---------------------------------------------------------------------------

#: The counts of a ``traffic`` row, after its buffer and space.
_TRAFFIC = ("loads", "cached_loads", "stores")


def segment_rows(events: Sequence[dict]) -> List[dict]:
    """The ``segment`` spans of ``events`` summed per (kernel, segment
    index): ``calls``, ``seconds`` and ``counters`` (the spans' other
    args), slowest first."""
    rows: dict = {}
    for e in events:
        if e.get("ph") == "X" and e.get("name") == "segment":
            counters = dict(e["args"])
            key = (counters.pop("kernel"), counters.pop("index"))
            row = rows.setdefault(key, {
                "kernel": key[0], "segment": key[1], "calls": 0,
                "seconds": 0.0, "counters": Counter(),
            })
            row["calls"] += 1
            row["seconds"] += e["dur"] / 1e6
            row["counters"].update(counters)
    return sorted(rows.values(), key=lambda r: -r["seconds"])


def traffic_rows(events: Sequence[dict]) -> List[dict]:
    """The ``traffic`` rows of ``events`` summed per (kernel, buffer,
    space): ``loads``, ``cached_loads`` and ``stores``, busiest first."""
    rows: dict = {}
    for e in events:
        if e.get("ph") == "i" and e.get("name") == "traffic":
            kernel = e["args"]["kernel"]
            for buffer, space, *counts in e["args"]["rows"]:
                row = rows.setdefault((kernel, buffer, space), Counter())
                row.update(dict(zip(_TRAFFIC, counts)))
    return sorted(
        (
            {"kernel": k, "buffer": b, "space": s, **row}
            for (k, b, s), row in rows.items()
        ),
        key=lambda r: -(r["loads"] + r["stores"]),
    )


def format_profile(events: Sequence[dict], top: int = 10) -> str:
    """The ``benchsuite --profile`` table: the top-N segments by wall
    time, then the top-N buffers by traffic."""
    segments = segment_rows(events)
    traffic = traffic_rows(events)
    lines = ["kernel profile (top segments by wall time):"]
    if not segments:
        lines.append("  (no profiled launches)")
    for s in segments[:top]:
        lines.append(
            f"  {s['kernel']:<24} seg {s['segment']:<2} "
            f"{s['calls']:>6} calls "
            f"{s['seconds'] * 1e3:>9.3f} ms"
        )
    if traffic:
        lines.append("buffer traffic (loads+cached/stores):")
        for t in traffic[:top]:
            lines.append(
                f"  {t['kernel']:<24} {t['buffer']:<12} "
                f"{t['space']:<8} {t['loads']:>10}+{t['cached_loads']:<10} "
                f"/ {t['stores']:>10}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# roofline attribution
# ---------------------------------------------------------------------------

#: Nominal bytes per element access.  The paper's kernels are
#: single-precision float; the simulator counts element accesses, not
#: bytes, so the roofline prices each at four bytes.
BYTES_PER_ELEMENT = 4


def roofline_segments(
    events: Sequence[dict], device: object = "nvidia"
) -> List[dict]:
    """Per-barrier-segment roofline positions from the traced
    ``segment`` spans.

    For every segment, compute arithmetic intensity (flops per byte of
    load/store traffic) and classify it against the device's ridge
    point.  ``device`` is a :class:`~repro.opencl.cost.DeviceProfile`
    or a name in ``repro.opencl.cost.DEVICES``.

    The byte figure counts *traffic* (load events plus stores, all
    address spaces), not distinct DRAM lines — per-segment load dedup
    is settled only at block end (see ``_Block._flush_load_log``), so
    intensity here is a lower bound.  A segment classified
    compute-bound on traffic bytes is compute-bound a fortiori.
    """
    from repro.opencl.cost import DEVICES, DeviceProfile

    if not isinstance(device, DeviceProfile):
        device = DEVICES[str(device)]
    ridge = device.ridge_point()
    rows = []
    for seg in segment_rows(events):
        c = seg["counters"]
        flops = c.get("flops", 0)
        traffic = (
            c.get("load_events", 0)
            + c.get("global_stores", 0)
            + c.get("local_stores", 0)
            + c.get("private_loads", 0)
            + c.get("private_stores", 0)
        )
        nbytes = traffic * BYTES_PER_ELEMENT
        intensity = flops / nbytes if nbytes else None
        if intensity is None:
            bound = "unknown" if not flops else "compute"
        else:
            bound = "memory" if intensity < ridge else "compute"
        rows.append(
            {
                "kernel": seg["kernel"],
                "segment": seg["segment"],
                "calls": seg["calls"],
                "seconds": seg["seconds"],
                "flops": flops,
                "bytes": nbytes,
                "intensity": intensity,
                "ridge": ridge,
                "bound": bound,
            }
        )
    return rows

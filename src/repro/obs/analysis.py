"""Performance attribution: cost-model calibration, roofline analysis,
and service latency SLOs.

The paper's claim is that performance comes from *choosing the right
rewrite*, which the explorer does by ranking candidates with the cost
model — so the model itself needs an instrument.  Three analyses share
this module because they answer the same question at three levels:

* **Calibration** (:class:`CalibrationLog`): does the pre-execution
  prediction (``static_program_cost``) rank candidates the way the
  measured-counter model (``estimate_runtime``) does?  Every candidate
  the explorer evaluates is recorded as ``(structural hash, derivation
  trace, static cost, modeled runtime, measured cycles, wall seconds)``
  and summarized per workload as Spearman rank correlation, top-1/top-5
  regret, and scale-aligned residuals.  CI gates on the correlation
  floor (``benchmarks/check_perf_regression.py --calibration-json``).

* **Roofline attribution** (:func:`roofline_segments`): which barrier
  segment is memory-bound and which compute-bound?  Reads the kernel
  profiler's per-segment counter deltas (flops from ``Counters``, load
  events and stores from the traffic accounting) and positions each
  segment's arithmetic intensity against the
  :class:`~repro.opencl.cost.DeviceProfile` compute/bandwidth peaks.

* **Service SLOs** (:func:`slo_table`): end-to-end latency and queue
  wait per request class (warm-hit / coalesced-follower / cold), read
  from the metrics registry's quantile histograms.

Everything here is out-of-band: analyses only *read* counters, profiler
aggregates, and histograms; recording a calibration tuple appends to a
bounded in-memory list.  Nothing feeds back into execution.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import metrics

__all__ = [
    "CalibrationRecord",
    "CalibrationLog",
    "LOG",
    "record_candidate",
    "calibration_summary",
    "format_calibration",
    "spearman",
    "topk_regret",
    "short_hash",
    "roofline_segments",
    "format_roofline",
    "REQUEST_CLASSES",
    "slo_table",
    "format_slo",
]


def short_hash(canonical_text: str) -> str:
    """Stable short digest of a canonical program form — the join key
    between calibration records, trace span args, and cache keys."""
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
# calibration log
# ---------------------------------------------------------------------------

@dataclass
class CalibrationRecord:
    """One evaluated candidate: prediction next to measurement."""

    workload: str
    label: str
    structural_hash: str
    trace: Tuple[str, ...]
    #: Pre-execution prediction (:func:`~repro.opencl.cost.
    #: static_program_cost`) — what the explorer pruned and ranked by
    #: *before* paying for compilation.
    static_cost: float
    #: The measured-counter model's runtime estimate
    #: (:func:`~repro.opencl.cost.estimate_runtime`) — the quantity the
    #: final ranking uses, and calibration's ground truth.
    modeled_runtime: float
    #: Weighted cycle total over measured Counters.
    measured_cycles: float
    #: Wall-clock seconds of this candidate's evaluation (simulation
    #: time, not device time); ``None`` when served from the cycle cache.
    wall_seconds: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "label": self.label,
            "structural_hash": self.structural_hash,
            "trace": list(self.trace),
            "static_cost": self.static_cost,
            "modeled_runtime": self.modeled_runtime,
            "measured_cycles": self.measured_cycles,
            "wall_seconds": self.wall_seconds,
        }


class CalibrationLog:
    """Thread-safe, bounded, per-workload log of calibration records.

    The explorer appends one record per successfully evaluated
    candidate; :meth:`summary` computes the per-workload statistics the
    ``benchsuite calibrate`` command prints and CI gates on."""

    #: Per-workload record cap (drop-oldest) so a long-lived tuning
    #: service cannot grow the log without bound.
    MAX_RECORDS = 512

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, List[CalibrationRecord]] = {}

    def record(self, rec: CalibrationRecord) -> None:
        with self._lock:
            bucket = self._records.setdefault(rec.workload, [])
            bucket.append(rec)
            if len(bucket) > self.MAX_RECORDS:
                del bucket[0]

    def records(self, workload: Optional[str] = None) -> List[CalibrationRecord]:
        with self._lock:
            if workload is not None:
                return list(self._records.get(workload, ()))
            return [r for bucket in self._records.values() for r in bucket]

    def workloads(self) -> List[str]:
        with self._lock:
            return sorted(self._records)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()

    # -- statistics ------------------------------------------------------
    def summary(self, workload: str) -> dict:
        """Calibration statistics for one workload's candidate menu."""
        recs = self.records(workload)
        n = len(recs)
        if n == 0:
            return {
                "candidates": 0,
                "spearman": None,
                "top1_regret": None,
                "top5_regret": None,
                "residual_rms": None,
            }
        preds = [r.static_cost for r in recs]
        meas = [r.modeled_runtime for r in recs]
        return {
            "candidates": n,
            "spearman": spearman(preds, meas),
            "top1_regret": topk_regret(preds, meas, 1),
            "top5_regret": topk_regret(preds, meas, 5),
            "residual_rms": self._residual_rms(preds, meas),
        }

    @staticmethod
    def _residual_rms(preds: Sequence[float], meas: Sequence[float]):
        """RMS of log-residuals after scale alignment.

        Static cost and modeled runtime live on different scales (only
        ordering is meaningful), so residuals are computed on
        ``log(measured) - log(scale * predicted)`` with ``scale`` the
        geometric-mean ratio — i.e. how far each candidate deviates
        from the best monotone scaling, in log space."""
        pairs = [
            (p, m) for p, m in zip(preds, meas) if p > 0 and m > 0
        ]
        if not pairs:
            return None
        logs = [math.log(m) - math.log(p) for p, m in pairs]
        shift = sum(logs) / len(logs)  # log of the geometric-mean ratio
        return math.sqrt(
            sum((x - shift) ** 2 for x in logs) / len(logs)
        )

    def as_dict(self) -> dict:
        """Provider view for the metrics snapshot (``"calibration"``)."""
        workloads = self.workloads()
        return {
            "workloads": {w: self.summary(w) for w in workloads},
            "records": [r.as_dict() for r in self.records()],
        }


#: The process-global calibration log the explorer records into.
LOG = CalibrationLog()
metrics.register_provider("calibration", LOG.as_dict)


def record_candidate(
    workload: str,
    label: str,
    canonical_text: str,
    trace: Tuple[str, ...],
    static_cost: float,
    modeled_runtime: float,
    measured_cycles: float,
    wall_seconds: Optional[float] = None,
) -> None:
    """Convenience wrapper used by the explorer's evaluation loop."""
    LOG.record(
        CalibrationRecord(
            workload=workload,
            label=label,
            structural_hash=short_hash(canonical_text),
            trace=tuple(trace),
            static_cost=static_cost,
            modeled_runtime=modeled_runtime,
            measured_cycles=measured_cycles,
            wall_seconds=wall_seconds,
        )
    )


def calibration_summary() -> dict:
    return LOG.as_dict()


def format_calibration(doc: Optional[dict] = None) -> str:
    """The ``benchsuite calibrate`` table."""
    if doc is None:
        doc = LOG.as_dict()
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
# roofline attribution
# ---------------------------------------------------------------------------

#: Nominal bytes per element access.  The paper's kernels are
#: single-precision float; the simulator counts element accesses, not
#: bytes, so the roofline prices each at four bytes.
BYTES_PER_ELEMENT = 4


def roofline_segments(
    device: object = "nvidia", profile_doc: Optional[dict] = None
) -> List[dict]:
    """Per-barrier-segment roofline positions from the kernel profiler.

    For every profiled segment with counter deltas, compute arithmetic
    intensity (flops per byte of load/store traffic) and classify it
    against the device's ridge point.  ``device`` is a
    :class:`~repro.opencl.cost.DeviceProfile` or a name in
    ``repro.opencl.cost.DEVICES``.

    The byte figure counts *traffic* (load events plus stores, all
    address spaces), not distinct DRAM lines — per-segment load dedup
    is settled only at launch end (see ``_Block._flush_load_log``), so
    intensity here is a lower bound.  A segment classified
    compute-bound on traffic bytes is compute-bound a fortiori.
    """
    from repro.opencl.cost import DEVICES, DeviceProfile

    if not isinstance(device, DeviceProfile):
        device = DEVICES[str(device)]
    if profile_doc is None:
        from repro.obs import profile as profile_mod

        profile_doc = profile_mod.as_dict()
    ridge = device.ridge_point()
    rows = []
    for seg in profile_doc.get("segments", ()):
        c = seg.get("counters") or {}
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
                "kind": seg["kind"],
                "calls": seg["calls"],
                "seconds": seg["seconds"],
                "flops": flops,
                "bytes": nbytes,
                "intensity": intensity,
                "ridge": ridge,
                "bound": bound,
            }
        )
    rows.sort(key=lambda r: -r["seconds"])
    return rows


def format_roofline(
    rows: Optional[List[dict]] = None,
    device: object = "nvidia",
    top: int = 12,
) -> str:
    """Attribution table: which segment sits where on the roofline."""
    from repro.opencl.cost import DEVICES, DeviceProfile

    if not isinstance(device, DeviceProfile):
        device = DEVICES[str(device)]
    if rows is None:
        rows = roofline_segments(device)
    lines = [
        f"roofline attribution ({device.name}, "
        f"ridge {device.ridge_point():.1f} flop/byte):",
        f"  {'kernel':<24} {'seg':>3} {'kind':<8} {'flops':>10} "
        f"{'bytes':>10} {'flop/byte':>9}  bound",
    ]
    if not rows:
        lines.append("  (no profiled segments — run with --profile)")
        return "\n".join(lines)
    for r in rows[:top]:
        ai = "n/a" if r["intensity"] is None else f"{r['intensity']:.2f}"
        lines.append(
            f"  {r['kernel']:<24} {r['segment']:>3} {r['kind']:<8} "
            f"{r['flops']:>10} {r['bytes']:>10} {ai:>9}  {r['bound']}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# service latency SLOs
# ---------------------------------------------------------------------------

#: The tuning service's request classes, in the order the SLO table
#: prints them.  warm_hit: served from cache synchronously at submit;
#: coalesced: follower of an identical in-flight request; cold: full
#: queue → compile/tune → complete path.
REQUEST_CLASSES = ("warm_hit", "coalesced", "cold")


def slo_table(snapshot: Optional[dict] = None) -> List[dict]:
    """Latency/queue-wait quantiles per request class, in milliseconds.

    Reads ``service.latency.<class>`` and ``service.queue_wait.<class>``
    histograms from a metrics snapshot (default: the live registry).
    Only classes that were actually observed produce rows."""
    if snapshot is None:
        snapshot = metrics.snapshot()
    hists = snapshot.get("histograms", {})
    rows = []
    for cls in REQUEST_CLASSES:
        h = hists.get(f"service.latency.{cls}")
        if not h:
            continue
        qw = hists.get(f"service.queue_wait.{cls}") or {}
        rows.append(
            {
                "class": cls,
                "count": h["count"],
                "p50_ms": h["p50"] * 1e3,
                "p95_ms": h["p95"] * 1e3,
                "p99_ms": h["p99"] * 1e3,
                "max_ms": h["max"] * 1e3,
                "queue_wait_p95_ms": (
                    qw["p95"] * 1e3 if "p95" in qw else None
                ),
            }
        )
    return rows


def format_slo(rows: Optional[List[dict]] = None) -> str:
    """The ``benchsuite hammer`` SLO table."""
    if rows is None:
        rows = slo_table()
    lines = [
        "service latency SLOs (end-to-end, per request class):",
        f"  {'class':<12} {'count':>6} {'p50':>9} {'p95':>9} "
        f"{'p99':>9} {'max':>9} {'queue p95':>10}",
    ]
    if not rows:
        lines.append("  (no service requests observed)")
        return "\n".join(lines)
    for r in rows:
        qw = (
            "n/a" if r["queue_wait_p95_ms"] is None
            else f"{r['queue_wait_p95_ms']:.2f}ms"
        )
        lines.append(
            f"  {r['class']:<12} {r['count']:>6} {r['p50_ms']:>7.2f}ms "
            f"{r['p95_ms']:>7.2f}ms {r['p99_ms']:>7.2f}ms "
            f"{r['max_ms']:>7.2f}ms {qw:>10}"
        )
    return "\n".join(lines)

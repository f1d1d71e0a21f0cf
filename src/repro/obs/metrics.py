"""Process-wide metrics registry: counters, histograms, and
the owners' stats views, all merged into one ``snapshot()`` document.

Events are counted once, at the call site that sees them, with
:func:`inc` (``launch.total``, ``explore.retries``...).  An object with
its own accounting (``CacheStats``, ``ExploreStats``, the
``DegradationLedger``, ...) registers an ``as_dict()``-style view under
a top-level key with :func:`register_provider` itself: process-wide
owners when their module is imported, object-scoped ones when the
object is built.  :func:`snapshot` merges every view with the
registry's own primitives into a single JSON-serializable dict, which
is what ``benchsuite --metrics-json`` dumps.

Snapshot layout::

    {
      "counters":   {"launch.total": 12, "launch.served.fused": 12, ...},
      "histograms": {"explore.level_width": {"count": 3, "total": ...,
                      "min": ..., "max": ..., "mean": ...,
                      "p50": ..., "p95": ..., "p99": ...}},
      "cache":      {...CacheStats...},
      "explore":    {"stats": {...}, "failures": [...]},
      "ledger":     {...DegradationLedger...},
      "faults":     {"sites": {...}, "plan": ...},
      "profile":    {...KernelProfiler...},
      "calibration": {...CalibrationLog...},
      "counters.kernel": {...interp Counters of the last launch...},
    }

Providers are evaluated lazily at snapshot time; a provider that raises
contributes ``{"error": ...}`` rather than poisoning the document.  A
section in :data:`PLACEHOLDERS` is present before its owner registers.
"""

from __future__ import annotations

import copy
import threading
from typing import Callable, Dict, Optional

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "QUANTILES",
    "inc",
    "observe",
    "register_provider",
    "provider",
    "snapshot",
    "PLACEHOLDERS",
]

#: Top-level keys owned by the registry itself; providers may not
#: shadow them.
_RESERVED = ("counters", "histograms")

#: What :func:`snapshot` shows for a section whose owner has not
#: registered: the owner's view, empty.  ``ledger`` and ``faults``
#: register when :mod:`repro.backend.ledger` / :mod:`repro.faultinject`
#: are imported; the other two when a ``TuningCache`` or an
#: ``explore_program`` search exists.
PLACEHOLDERS = {
    "ledger": {"total": 0, "dropped_events": 0, "declines": [], "events": []},
    "faults": {"plan": None, "sites": {}},
    "cache": {"active": False},
    "explore": {"stats": {}, "failures": []},
}

#: The quantiles every histogram estimates (snapshot keys ``p50``,
#: ``p95``, ``p99``).
QUANTILES = (0.50, 0.95, 0.99)


class _P2Quantile:
    """Jain & Chlamtáč's P² streaming quantile estimator.

    Five markers track (min, q/2, q, (1+q)/2, max); each observation
    adjusts marker heights by a piecewise-parabolic formula.  Memory is
    O(1) per quantile regardless of stream length, and the algorithm is
    fully deterministic — the same observation sequence always yields
    the same estimate, which is what lets tests and CI assert on it.
    For fewer than five observations the estimate is the exact
    (linearly interpolated) sample quantile.
    """

    __slots__ = ("q", "n", "heights", "positions", "desired", "rates")

    def __init__(self, q: float) -> None:
        self.q = q
        self.n = 0
        self.heights: list = []
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self.rates = (0.0, q / 2, q, (1 + q) / 2, 1.0)

    def add(self, x: float) -> None:
        self.n += 1
        h = self.heights
        if len(h) < 5:
            h.append(x)
            h.sort()
            return
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        pos = self.positions
        for i in range(k + 1, 5):
            pos[i] += 1.0
        desired = self.desired
        for i in range(5):
            desired[i] += self.rates[i]
        for i in (1, 2, 3):
            d = desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                sign = 1.0 if d > 0 else -1.0
                new = self._parabolic(i, sign)
                if not (h[i - 1] < new < h[i + 1]):
                    # Parabolic estimate escaped the bracket: fall back
                    # to linear interpolation toward the neighbour.
                    j = i + int(sign)
                    new = h[i] + sign * (h[j] - h[i]) / (pos[j] - pos[i])
                h[i] = new
                pos[i] += sign

    def _parabolic(self, i: int, d: float) -> float:
        h, pos = self.heights, self.positions
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def value(self) -> float:
        h = self.heights
        if not h:
            return 0.0
        if len(h) < 5:
            # Exact interpolated sample quantile over what we have.
            idx = self.q * (len(h) - 1)
            lo = int(idx)
            hi = min(lo + 1, len(h) - 1)
            return h[lo] + (idx - lo) * (h[hi] - h[lo])
        return h[2]


class MetricsRegistry:
    """Thread-safe named counters and histograms plus providers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        # name -> [count, total, min, max, (quantile estimators)]
        self._hists: Dict[str, list] = {}
        self._providers: Dict[str, Callable[[], object]] = {}

    # -- primitives ------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                h = [
                    0, 0.0, value, value,
                    tuple(_P2Quantile(q) for q in QUANTILES),
                ]
                self._hists[name] = h
            h[0] += 1
            h[1] += value
            if value < h[2]:
                h[2] = value
            if value > h[3]:
                h[3] = value
            for est in h[4]:
                est.add(value)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- providers -------------------------------------------------------
    def register_provider(self, name: str, fn: Callable[[], object]) -> None:
        """Attach a stats source under the top-level key ``name``,
        replacing the previous one — e.g. each new
        :class:`~repro.cache.TuningCache` owns the ``"cache"`` slot."""
        if name in _RESERVED:
            raise ValueError(f"provider name {name!r} is reserved")
        with self._lock:
            self._providers[name] = fn

    def provider(self, name: str) -> Optional[Callable[[], object]]:
        """The currently registered source for ``name`` (``None`` when
        unregistered) — lets a replacing owner save and restore it."""
        with self._lock:
            return self._providers.get(name)

    # -- snapshot --------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-serializable document with everything in it."""
        with self._lock:
            doc: dict = {
                "counters": dict(self._counters),
                "histograms": {
                    name: {
                        "count": h[0],
                        "total": h[1],
                        "min": h[2],
                        "max": h[3],
                        "mean": h[1] / h[0],
                        **{
                            f"p{int(est.q * 100)}": est.value()
                            for est in h[4]
                        },
                    }
                    for name, h in self._hists.items()
                },
            }
            providers = list(self._providers.items())
        for name, fn in providers:
            try:
                doc[name] = fn()
            except Exception as exc:  # snapshot must never fail whole
                doc[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return doc


#: The process-global registry used by all instrumentation.
REGISTRY = MetricsRegistry()


def inc(name: str, n: int = 1) -> None:
    REGISTRY.inc(name, n)


def observe(name: str, value: float) -> None:
    REGISTRY.observe(name, value)


def register_provider(name: str, fn: Callable[[], object]) -> None:
    REGISTRY.register_provider(name, fn)


def provider(name: str) -> Optional[Callable[[], object]]:
    return REGISTRY.provider(name)


def snapshot() -> dict:
    doc = REGISTRY.snapshot()
    for name, empty in PLACEHOLDERS.items():
        if name not in doc:
            doc[name] = copy.deepcopy(empty)
    return doc

"""Process-wide metrics registry: counters and the owners' stats
views, all merged into one ``snapshot()`` document.

Events are counted once, at the call site that sees them, with
:func:`inc` (``launch.total``, ``explore.reference``...).  An object with
its own accounting (``CacheStats``, ``ExploreStats``, a
``benchsuite explore`` run's calibration rows) registers a view under
a top-level key with :func:`register_provider` itself: process-wide
owners when their module is imported, object-scoped ones when the
object is built.  :func:`snapshot` merges every view with the
registry's counters into a single JSON-serializable dict, which is
what ``benchsuite --metrics-json`` dumps.

Snapshot layout::

    {
      "counters":   {"launch.total": 12, "launch.served.compiled": 12, ...},
      "cache":      {...CacheStats...},
      "explore":    {"stats": {...}, "failures": [...]},
      "calibration": {"workloads": {"nn": {...Spearman, regrets...}}},
      "counters.kernel": {...interp Counters of the last launch...},
    }

Providers are evaluated lazily at snapshot time; a provider that raises
contributes ``{"error": ...}`` rather than poisoning the document.  A
section in :data:`PLACEHOLDERS` is present before its owner registers.
"""

from __future__ import annotations

import copy
import threading
from typing import Callable, Dict

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "inc",
    "register_provider",
    "snapshot",
    "PLACEHOLDERS",
]

#: What :func:`snapshot` shows for a section whose owner has not
#: registered: the owner's view, empty.  Each registers when a
#: ``TuningCache``, an ``explore_program`` search or a ``benchsuite
#: explore`` run exists.
PLACEHOLDERS = {
    "cache": {"active": False},
    "explore": {"stats": {}, "failures": []},
    "calibration": {"workloads": {}},
}


class MetricsRegistry:
    """Thread-safe named counters plus providers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._providers: Dict[str, Callable[[], object]] = {}

    # -- primitives ------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- providers -------------------------------------------------------
    def register_provider(self, name: str, fn: Callable[[], object]) -> None:
        """Attach a stats source under the top-level key ``name``,
        replacing the previous one — e.g. each new
        :class:`~repro.cache.TuningCache` owns the ``"cache"`` slot.
        ``"counters"`` is the registry's own."""
        if name == "counters":
            raise ValueError(f"provider name {name!r} is reserved")
        with self._lock:
            self._providers[name] = fn

    # -- snapshot --------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-serializable document with everything in it."""
        with self._lock:
            doc: dict = {"counters": dict(self._counters)}
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


def register_provider(name: str, fn: Callable[[], object]) -> None:
    REGISTRY.register_provider(name, fn)


def snapshot() -> dict:
    doc = REGISTRY.snapshot()
    for name, empty in PLACEHOLDERS.items():
        if name not in doc:
            doc[name] = copy.deepcopy(empty)
    return doc

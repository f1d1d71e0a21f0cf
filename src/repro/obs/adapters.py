"""Adapters registering the existing stats objects as metrics providers.

Each of the five telemetry islands keeps its type and in-band role; the
adapter closes over the live object (or imports the process-global one
lazily) and registers an ``as_dict()`` view under a stable top-level
key in the metrics snapshot:

===============================  ==================  ==================
object                           registered by       snapshot key
===============================  ==================  ==================
``cache.CacheStats``             ``TuningCache``     ``cache``
``rewrite.explore.ExploreStats`` ``explore_program`` ``explore``
``backend.ledger.LEDGER``        default providers   ``ledger``
``faultinject`` site counts      default providers   ``faults``
``obs.profile`` profiler         default providers   ``profile``
``opencl.interp.Counters``       ``figure8`` runner  ``counters.kernel``
``resilience.FailureReport``     explorer failures   ``explore.failures``
``service.TuningService``        the service itself  ``service``
===============================  ==================  ==================

No module-level imports of the instrumented packages: adapters import
lazily inside the provider closure so ``repro.obs`` stays a leaf that
anything may import without cycles.
"""

from __future__ import annotations

from . import metrics

__all__ = [
    "register_counters",
    "register_cache_stats",
    "register_explore",
    "register_ledger",
    "register_fault_sites",
    "register_profiler",
    "register_calibration",
    "register_service",
    "install_default_providers",
]


def register_counters(counters, key: str = "counters.kernel") -> None:
    """Expose an :class:`~repro.opencl.interp.Counters` instance."""
    metrics.register_provider(key, counters.as_dict)


def register_cache_stats(stats) -> None:
    """Expose a :class:`~repro.cache.CacheStats` with derived hit rates."""

    def view() -> dict:
        doc = stats.as_dict()
        doc["kernel_hit_rate"] = stats.hit_rate("kernel")
        doc["run_hit_rate"] = stats.hit_rate("run")
        return doc

    metrics.register_provider("cache", view)


def register_explore(stats, failures=()) -> None:
    """Expose the last exploration's stats and failure taxonomy."""
    reports = list(failures)

    def view() -> dict:
        return {
            "stats": stats.as_dict(),
            "failures": [f.as_dict() for f in reports],
        }

    metrics.register_provider("explore", view)


def register_ledger(ledger=None) -> None:
    """Expose a :class:`~repro.backend.ledger.DegradationLedger`
    (default: the process-global one)."""

    def view() -> dict:
        if ledger is not None:
            return ledger.as_dict()
        from repro.backend import ledger as mod

        return mod.LEDGER.as_dict()

    metrics.register_provider("ledger", view)


def register_fault_sites() -> None:
    """Expose :mod:`repro.faultinject` per-site check/inject counts."""

    def view() -> dict:
        from repro import faultinject

        plan = faultinject.active_plan()
        return {
            "plan": plan.describe() if plan is not None else None,
            "sites": {
                site: {
                    "checks": c.checks,
                    "injected": c.injected,
                    "recovered": c.recovered,
                    "escaped": c.escaped,
                }
                for site, c in faultinject.counts().items()
            },
        }

    metrics.register_provider("faults", view)


def register_profiler() -> None:
    from . import profile

    metrics.register_provider("profile", profile.as_dict)


def register_calibration() -> None:
    """Expose the explorer's cost-model calibration log
    (:data:`repro.obs.analysis.LOG`)."""
    from . import analysis

    metrics.register_provider("calibration", analysis.LOG.as_dict)


def register_service(view) -> None:
    """Expose a :class:`~repro.service.daemon.TuningService` view
    (stats, queue depth/capacity, breaker states, journal backlog)."""
    metrics.register_provider("service", view)


def install_default_providers() -> None:
    """Register the providers that always have a process-global source.

    Called once from ``repro.obs.__init__``.  Object-scoped providers
    (cache, explore, counters) register when their objects are built;
    empty placeholders keep the snapshot schema stable before that."""
    register_ledger()
    register_fault_sites()
    register_profiler()
    register_calibration()
    metrics.register_provider(
        "cache", lambda: {"active": False}, replace=False
    )
    metrics.register_provider(
        "explore",
        lambda: {"stats": {}, "failures": []},
        replace=False,
    )
    metrics.register_provider(
        "service", lambda: {"active": False}, replace=False
    )

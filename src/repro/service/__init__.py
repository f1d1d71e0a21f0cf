"""``repro.service`` — the crash-tolerant autotuning daemon layer.

Three modules, one contract (every result bitwise-identical to the
one-shot CLI path, under concurrency and injected faults):

* :mod:`~repro.service.daemon` — :class:`TuningService`: workers,
  warm-hit bypass, single-flight coalescing, deadlines, drain,
  recovery.
* :mod:`~repro.service.admission` — bounded queue with explicit
  backpressure (:class:`ServiceOverloaded`) and the response promise.
* :mod:`~repro.service.journal` — write-ahead recovery journal; a
  killed service's orphaned requests are re-enqueued, never lost.

Only the ``benchsuite hammer`` soak imports it: a launch, a compile or
a search never loads the service.

Design document: ``src/repro/SERVICE.md``.
"""

from repro.service.admission import (
    AdmissionQueue,
    ServiceClosed,
    ServiceOverloaded,
    ServiceRequest,
    ServiceResponse,
)
from repro.service.daemon import ServiceConfig, ServiceStats, TuningService
from repro.service.journal import JournalEntry, RecoveryJournal

__all__ = [
    "AdmissionQueue",
    "JournalEntry",
    "RecoveryJournal",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceStats",
    "TuningService",
]

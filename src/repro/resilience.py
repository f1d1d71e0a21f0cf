"""Fault-tolerance primitives: retries and the quarantine record.

The explorer's candidate loop must survive transient infrastructure
failures.  This module holds the small, dependency-free building
blocks; policy (which stages retry) lives with the caller — see
:mod:`repro.rewrite.explore` and ``src/repro/RESILIENCE.md``.

* :class:`RetryPolicy` — bounded retries with exponential backoff for
  *transient* errors (:data:`TRANSIENT_ERRORS`: injected faults and
  ``OSError``).  The explorer retries a candidate with it; nothing else
  retries.
* :class:`FailureReport` — the structured quarantine record a failed
  candidate leaves on :class:`~repro.rewrite.explore.ExplorationResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from repro.faultinject import FaultInjected

__all__ = [
    "TRANSIENT_ERRORS",
    "FAILURE_KINDS",
    "FailureReport",
    "RetryPolicy",
]


#: Errors the retry machinery treats as transient.  Injected faults are
#: transient by definition; ``OSError`` covers the cache/filesystem.
TRANSIENT_ERRORS: Tuple[type, ...] = (FaultInjected, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff; the delay sequence is
    a pure function of the policy."""

    attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 0.5

    def delays(self) -> Iterator[float]:
        delay = self.base_delay
        for _ in range(max(0, self.attempts - 1)):
            yield min(delay, self.max_delay)
            delay *= self.multiplier

    def call(
        self,
        fn: Callable[[], "object"],
        retry_on: Tuple[type, ...] = TRANSIENT_ERRORS,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        """Call ``fn``, retrying transient failures; re-raises the last
        error once the attempt budget is spent."""
        delays = self.delays()
        for attempt in range(1, max(1, self.attempts) + 1):
            try:
                return fn()
            except retry_on as exc:
                delay = next(delays, None)
                if delay is None or attempt >= self.attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(delay)


#: The explorer's error taxonomy (see ``ExploreStats.as_dict``).
FAILURE_KINDS = (
    "compile",
    "simulate",
    "verify",
    "infra",
)


@dataclass
class FailureReport:
    """Structured quarantine record of one failed candidate."""

    label: str
    trace: tuple
    kind: str  # one of FAILURE_KINDS
    message: str
    attempts: int = 1
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "trace": list(self.trace),
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": round(self.elapsed, 6),
        }

    def describe(self) -> str:
        return (
            f"{self.label or '(unlabelled)'}: {self.kind} after "
            f"{self.attempts} attempt(s) — {self.message}"
        )

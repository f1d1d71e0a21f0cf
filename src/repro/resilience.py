"""Fault-tolerance primitives: retries, deadlines, cancellation.

The exploration pipeline (and anything built on it, e.g. a long-lived
tuning service) must survive transient infrastructure failures, hung
candidates and mid-flight aborts.  This module holds the small,
dependency-free building blocks; policy (which stages retry, which
deadlines apply) lives with the callers — see
:mod:`repro.rewrite.explore` and ``src/repro/RESILIENCE.md``.

* :class:`RetryPolicy` — bounded retries with exponential backoff for
  *transient* errors (:data:`TRANSIENT_ERRORS`: injected faults and
  ``OSError``).  The explorer retries a candidate with it, and a client
  of the service a failed request; nothing else retries.
* :class:`Deadline` — an absolute wall-clock budget that *propagates*:
  :func:`run_with_deadline` bounds every stage's timeout by
  :meth:`Deadline.clamp`, so a request admitted near its deadline
  cannot run a full-length stage.
* :class:`CancellationToken` — cooperative cancellation, checked at
  stage boundaries; supports parent/child chaining so a per-attempt
  deadline can cancel one attempt without aborting the whole search.
* :func:`run_with_deadline` — wall-clock watchdog: runs a callable on a
  daemon thread and raises :class:`DeadlineExceeded` when it overruns,
  cancelling the attempt's token so the stray worker stops at its next
  checkpoint (Python cannot preempt a running thread; the result of a
  late finisher is discarded).
* :class:`FailureReport` — the structured quarantine record a failed
  candidate leaves on :class:`~repro.rewrite.explore.ExplorationResult`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from repro.faultinject import FaultInjected

__all__ = [
    "TRANSIENT_ERRORS",
    "FAILURE_KINDS",
    "Cancelled",
    "CancellationToken",
    "Deadline",
    "DeadlineExceeded",
    "FailureReport",
    "RetryPolicy",
    "run_with_deadline",
]


class Cancelled(Exception):
    """Raised by :meth:`CancellationToken.raise_if_cancelled`."""


class DeadlineExceeded(Exception):
    """A watchdog deadline fired (the taxonomy's ``timeout`` kind)."""


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


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock budget (``time.monotonic`` timestamp).

    The point is *propagation*: a deadline is set once at the request
    boundary and every downstream stage runs under
    :func:`run_with_deadline`, which bounds the stage's timeout by
    :meth:`clamp`, so the remaining budget — not each stage's full
    configured timeout — limits the work.  A request admitted 50ms
    before its deadline gets a 50ms candidate watchdog, not a
    full-length one.
    """

    expires_at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(time.monotonic() + seconds)

    def remaining(self) -> float:
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def clamp(self, timeout: Optional[float]) -> float:
        """Effective stage budget: remaining time, capped by ``timeout``."""
        rem = max(0.0, self.remaining())
        return rem if timeout is None else min(timeout, rem)


class CancellationToken:
    """Cooperative cancellation, optionally chained to a parent.

    ``cancel()`` is sticky and thread-safe; workers poll ``cancelled``
    (or call :meth:`raise_if_cancelled`) at stage boundaries.  A child
    token is cancelled when either it or its parent is — the explorer
    hands each deadline-bounded attempt a child so a watchdog can stop
    one candidate without aborting the search.
    """

    def __init__(self, parent: Optional["CancellationToken"] = None):
        self._event = threading.Event()
        self._parent = parent

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        return self._parent.cancelled if self._parent is not None else False

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise Cancelled("operation cancelled")

    def child(self) -> "CancellationToken":
        return CancellationToken(parent=self)


def run_with_deadline(
    fn: Callable[[], "object"],
    timeout: Optional[float],
    token: Optional[CancellationToken] = None,
    deadline: Optional[Deadline] = None,
):
    """Run ``fn`` with a wall-clock deadline.

    The callable runs on a daemon thread; if it has not finished after
    ``timeout`` seconds, ``token`` (if given) is cancelled — so a
    cooperative ``fn`` stops at its next checkpoint — and
    :class:`DeadlineExceeded` is raised.  A late finisher's result (or
    exception) is discarded.  On time, the result is returned and any
    exception re-raised in the caller.

    ``deadline``, the request's budget, propagates here: the stage gets
    what is left of it, capped by ``timeout``, and nothing starts once
    it is spent.  With neither, ``fn`` is called directly.
    """
    if deadline is not None:
        if deadline.expired:
            raise DeadlineExceeded("request deadline exhausted")
        timeout = deadline.clamp(timeout)
    if timeout is None:
        return fn()
    box: dict = {}

    def runner() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(
        target=runner, name="repro-deadline", daemon=True
    )
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        if token is not None:
            token.cancel()
        from repro import obs

        obs.instant("watchdog.kill", timeout=timeout)
        obs.inc("resilience.watchdog_kills")
        raise DeadlineExceeded(
            f"deadline of {timeout:g}s exceeded"
        )
    if "error" in box:
        raise box["error"]
    return box.get("value")


#: The explorer's error taxonomy (see ``ExploreStats.as_dict``).
FAILURE_KINDS = (
    "compile",
    "simulate",
    "verify",
    "infra",
    "timeout",
    "cancelled",
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

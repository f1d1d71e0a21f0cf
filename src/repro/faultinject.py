"""Deterministic, seed-driven fault injection for the resilience layer.

Every recovery path in the system — cache corruption handling, the
explorer's retry/backoff loop, backend fallback chains — is worthless
unless it is *exercised*, and exercising it with ``random.random()``
makes failures unreproducible.  This module provides a :class:`FaultPlan`
whose injection decisions are a pure function of ``(seed, site,
sequence number)``: the n-th check of a given site either always or
never injects for a given plan, across runs, machines and thread
interleavings of the *same per-site call counts*.

Sites
-----
Fault checks are placed at named **injection sites**:

========================  ====================================================
``cache-read``            :meth:`repro.cache.TuningCache.get_kernel` et al.
``cache-write``           :meth:`repro.cache.TuningCache.put_kernel` et al.
``compile``               entry of :func:`repro.compiler.codegen.compile_kernel`
``simulate``              entry of :func:`repro.opencl.runtime.launch`
``verify``                the explorer's bitwise verification stage
``backend-run``           before each non-final backend of a fallback chain
========================  ====================================================

Each site guards a real operation with a recovery of its own; there is
no site whose only purpose is to feed a retry loop.  All sites except
``backend-run`` sit *before* any observable side effect, so the
standard recovery — retry the draw a bounded number of times
(:func:`survive`) — is exact: an injected-and-recovered fault changes
timing only, never results.  ``backend-run`` faults instead *decline*
the backend so the fallback chain (and its degradation ledger,
:mod:`repro.backend.ledger`) is exercised; the final chain member is
exempt, so a graceful chain still completes.  Sites draw from independent
``(seed, site, n)`` streams, so adding or removing one leaves every
other site's decisions unchanged.

Configuration
-------------
A plan is a spec string — from the ``REPRO_FAULT_PLAN`` environment
variable or :func:`set_plan` — of ``;``- or ``,``-separated fields::

    seed=11;rate=0.05                  # 5% at every site
    seed=7;cache-read=0.2;compile=0.1  # per-site rates
    seed=3;rate=1.0;attempts=1         # every check escapes (tests)

``attempts`` bounds the in-place retries of :func:`survive` (default
4); ``off`` (or an empty string) disables injection.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro import obs

__all__ = [
    "SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultState",
    "active_plan",
    "as_dict",
    "clear_plan",
    "counts",
    "maybe_fail",
    "plan_installed",
    "reset_counts",
    "set_plan",
    "survive",
]

ENV_VAR = "REPRO_FAULT_PLAN"

#: The named injection sites (see the module docstring).
SITES = (
    "cache-read",
    "cache-write",
    "compile",
    "simulate",
    "verify",
    "backend-run",
)


class FaultInjected(Exception):
    """A deterministic injected fault (transient by definition)."""

    def __init__(self, site: str, sequence: int):
        super().__init__(f"injected fault at {site!r} (draw #{sequence})")
        self.site = site
        self.sequence = sequence


@dataclass(frozen=True)
class FaultPlan:
    """Per-site injection rates plus the deterministic seed."""

    seed: int = 0
    default_rate: float = 0.0
    rates: Tuple[Tuple[str, float], ...] = ()
    #: Bounded in-place retries of :func:`survive`.
    attempts: int = 4

    def rate(self, site: str) -> float:
        for name, r in self.rates:
            if name == site:
                return r
        return self.default_rate

    def any_faults(self) -> bool:
        return self.default_rate > 0 or any(r > 0 for _, r in self.rates)

    @classmethod
    def parse(cls, spec: str) -> Optional["FaultPlan"]:
        """Parse a spec string; returns ``None`` for ``off``/empty."""
        spec = (spec or "").strip()
        if not spec or spec.lower() == "off":
            return None
        seed, default_rate, attempts = 0, 0.0, 4
        rates = []
        for raw in spec.replace(",", ";").split(";"):
            raw = raw.strip()
            if not raw:
                continue
            if "=" not in raw:
                raise ValueError(
                    f"bad {ENV_VAR} field {raw!r}: expected key=value"
                )
            key, _, value = raw.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "seed":
                seed = int(value)
            elif key == "rate":
                default_rate = float(value)
            elif key == "attempts":
                attempts = max(1, int(value))
            elif key in SITES:
                rates.append((key, float(value)))
            else:
                raise ValueError(
                    f"unknown {ENV_VAR} field {key!r} "
                    f"(sites: {', '.join(SITES)}; also seed/rate/attempts)"
                )
        plan = cls(seed, default_rate, tuple(rates), attempts)
        return plan if plan.any_faults() else None

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.default_rate:
            parts.append(f"rate={self.default_rate}")
        parts += [f"{name}={r}" for name, r in self.rates]
        parts.append(f"attempts={self.attempts}")
        return ";".join(parts)


@dataclass
class SiteCounts:
    """Observability: what one site has seen so far."""

    checks: int = 0
    injected: int = 0
    recovered: int = 0
    escaped: int = 0

    def as_dict(self) -> dict:
        return {
            "checks": self.checks,
            "injected": self.injected,
            "recovered": self.recovered,
            "escaped": self.escaped,
        }


class FaultState:
    """An active plan plus its per-site sequence and outcome counters."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._sequence: Dict[str, int] = {}
        self._counts: Dict[str, SiteCounts] = {}

    def _draw(self, site: str) -> Tuple[bool, int]:
        """One deterministic injection decision; advances the sequence."""
        rate = self.plan.rate(site)
        with self._lock:
            n = self._sequence.get(site, 0)
            self._sequence[site] = n + 1
            c = self._counts.setdefault(site, SiteCounts())
            c.checks += 1
            if rate <= 0.0:
                return False, n
            digest = hashlib.sha256(
                f"{self.plan.seed}:{site}:{n}".encode()
            ).digest()
            draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
            inject = draw < rate
            if inject:
                c.injected += 1
        if inject:
            # Out-of-band observability (outside the lock: the tracer
            # and registry synchronize themselves).
            obs.instant("fault.inject", site=site, sequence=n)
            obs.inc(f"faults.injected.{site}")
        return inject, n

    def maybe_fail(self, site: str) -> None:
        """Single draw; raises :class:`FaultInjected` when it lands."""
        inject, n = self._draw(site)
        if inject:
            with self._lock:
                self._counts[site].escaped += 1
            raise FaultInjected(site, n)

    def survive(self, site: str) -> int:
        """Draw up to ``plan.attempts`` times, recovering in place.

        Returns how many injected faults were absorbed.  Raises
        :class:`FaultInjected` only when *every* attempt injects — the
        caller's own (coarser) recovery path then takes over.
        """
        recovered = 0
        for attempt in range(self.plan.attempts):
            inject, n = self._draw(site)
            if not inject:
                return recovered
            with self._lock:
                if attempt + 1 == self.plan.attempts:
                    self._counts[site].escaped += 1
                else:
                    self._counts[site].recovered += 1
            if attempt + 1 == self.plan.attempts:
                raise FaultInjected(site, n)
            recovered += 1
        return recovered

    def counts(self) -> Mapping[str, SiteCounts]:
        with self._lock:
            return {site: SiteCounts(**c.as_dict()) for site, c in self._counts.items()}

    def reset_counts(self) -> None:
        with self._lock:
            self._sequence.clear()
            self._counts.clear()


# ---------------------------------------------------------------------------
# process-global state
# ---------------------------------------------------------------------------

_UNINITIALIZED = object()
_state: "FaultState | None | object" = _UNINITIALIZED
_state_lock = threading.Lock()


def _get_state() -> Optional[FaultState]:
    global _state
    if _state is _UNINITIALIZED:
        with _state_lock:
            if _state is _UNINITIALIZED:
                plan = FaultPlan.parse(os.environ.get(ENV_VAR, ""))
                _state = FaultState(plan) if plan is not None else None
    return _state  # type: ignore[return-value]


def set_plan(plan: "FaultPlan | str | None") -> Optional[FaultState]:
    """Install a plan (object or spec string); ``None``/"off" disables."""
    global _state
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    with _state_lock:
        _state = FaultState(plan) if plan is not None else None
        return _state


def clear_plan() -> None:
    set_plan(None)


def active_plan() -> Optional[FaultPlan]:
    state = _get_state()
    return state.plan if state is not None else None


def maybe_fail(site: str) -> None:
    """Site check with no in-place recovery (the caller's fallback is
    the recovery — used by ``backend-run``)."""
    state = _get_state()
    if state is not None:
        state.maybe_fail(site)


def survive(site: str) -> int:
    """Site check with bounded in-place retries; returns the number of
    absorbed faults (0 on the fast path).  See :meth:`FaultState.survive`."""
    state = _get_state()
    if state is None:
        return 0
    return state.survive(site)


def counts() -> Mapping[str, SiteCounts]:
    """Per-site observability counters of the active state (empty when
    injection is off)."""
    state = _get_state()
    return state.counts() if state is not None else {}


def as_dict() -> dict:
    """The active plan and per-site counts: the ``faults`` section of
    the metrics snapshot."""
    plan = active_plan()
    return {
        "plan": plan.describe() if plan is not None else None,
        "sites": {site: c.as_dict() for site, c in counts().items()},
    }


obs.register_provider("faults", as_dict)


def total_injected() -> int:
    return sum(c.injected for c in counts().values())


def reset_counts() -> None:
    state = _get_state()
    if state is not None:
        state.reset_counts()


class plan_installed:
    """Context manager: install a plan, restore the previous state on
    exit (tests)."""

    def __init__(self, plan: "FaultPlan | str | None"):
        self._plan = plan
        self._saved: "FaultState | None | object" = None

    def __enter__(self) -> Optional[FaultState]:
        global _state
        self._saved = _get_state()
        return set_plan(self._plan)

    def __exit__(self, *exc) -> None:
        global _state
        with _state_lock:
            _state = self._saved

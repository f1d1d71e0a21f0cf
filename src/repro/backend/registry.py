"""Backend registry: names -> backends -> fallback chains.

Two name spaces live here:

* **backend names** — concrete :class:`~repro.backend.base.Backend`
  implementations (``scalar``, ``compiled``, ``fused``), registered
  with :func:`register_backend`;
* **engine names** — what ``launch(engine=...)`` / ``REPRO_SIM_ENGINE``
  accept.  Every engine name resolves to an ordered *fallback chain* of
  backends plus a strictness flag, registered with
  :func:`register_engine`.  Single-backend strict engines (``compiled``)
  and multi-tier preferences (``auto``, ``fused``) are the same
  mechanism.

Chain semantics (:meth:`ResolvedChain.execute`):

1. Backends are tried in order.  A static refusal
   (:class:`CompileUnsupported` from ``plan`` — or from ``run`` before
   any buffer was touched, e.g. a launch-shape cap) falls through to
   the next backend.
2. A *dynamic* refusal (``run`` raises ``VectorUnsupported`` after
   rolling the buffers back) skips every remaining backend of the same
   ``dynamic_class`` — a same-class backend would detect the same
   condition — and continues with the next class.
3. A strict chain that runs out of backends raises
   :class:`~repro.opencl.simt.VectorizationError` naming every
   refusal; graceful chains end in ``scalar``, which always succeeds.
4. Every decline — static, dynamic, an unexpected ``plan()`` crash
   (shielded for non-final members) or an injected ``backend-run``
   fault — is recorded in the degradation ledger
   (:mod:`repro.backend.ledger`), so a silently-degraded run is
   observable after the fact.  The crash shield and the ledger are a
   failing backend's one recovery: every tier computes the same buffers
   and ``Counters``, so there is nothing for a per-backend health gate
   to add, and a launch never imports :mod:`repro.service`.

``REPRO_SIM_ENGINE`` expresses a *preferred default*, not a hard
requirement: resolving a strict engine name from the environment
(:func:`resolve` with ``prefer=True``) appends the ``scalar`` oracle so
a whole test-suite run can be steered through one backend without
breaking kernels only the scalar reference supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.backend.base import (
    Backend,
    CompileUnsupported,
    ExecutionRequest,
    VectorUnsupported,
)

__all__ = [
    "EngineSpec",
    "ResolvedChain",
    "register_backend",
    "register_engine",
    "get_backend",
    "backend_names",
    "engine_names",
    "resolve",
]

_BACKENDS: Dict[str, Backend] = {}
_ENGINES: Dict[str, "EngineSpec"] = {}


@dataclass(frozen=True)
class EngineSpec:
    """One engine name: an ordered backend chain + strictness."""

    name: str
    members: Tuple[str, ...]
    strict: bool = False
    description: str = ""


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Add a backend under ``backend.name``; returns it (decorator-
    friendly).  Re-registering an existing name requires ``replace``."""
    name = backend.name
    if not name:
        raise ValueError("backend has no name")
    if name in _BACKENDS and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = backend
    return backend


def register_engine(
    name: str,
    members: Sequence[str],
    strict: bool = False,
    description: str = "",
    replace: bool = False,
) -> EngineSpec:
    """Register an engine name resolving to a backend fallback chain."""
    if name in _ENGINES and not replace:
        raise ValueError(f"engine {name!r} is already registered")
    for member in members:
        if member not in _BACKENDS:
            raise ValueError(
                f"engine {name!r} references unknown backend {member!r}"
            )
    spec = EngineSpec(name, tuple(members), strict, description)
    _ENGINES[name] = spec
    return spec


def get_backend(name: str) -> Backend:
    """Look a backend up by name; raises ``ValueError`` listing the
    registered names for unknown ones."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS)) or "<none>"
        raise ValueError(
            f"unknown execution backend {name!r} (registered: {known})"
        ) from None


def backend_names() -> tuple:
    return tuple(sorted(_BACKENDS))


def engine_names() -> tuple:
    """Every name ``launch(engine=...)``/``REPRO_SIM_ENGINE`` accepts."""
    return tuple(sorted(_ENGINES))


@dataclass
class ResolvedChain:
    """An engine name resolved to live backend instances."""

    name: str
    members: Tuple[Backend, ...]
    strict: bool

    def execute(self, request: ExecutionRequest) -> None:
        from repro import faultinject
        from repro.backend import ledger
        from repro.faultinject import FaultInjected
        from repro.obs import metrics, span
        from repro.opencl.simt import VectorizationError

        refusals = []
        skip_classes: set = set()
        last = self.members[-1] if self.members else None
        metrics.inc("launch.total")
        for backend in self.members:
            if backend.dynamic_class in skip_classes:
                continue
            if backend is not last:
                # ``backend-run`` fault site: an injected fault declines
                # this backend (exercising the chain + ledger); the final
                # member is exempt so a graceful chain still completes.
                try:
                    faultinject.maybe_fail("backend-run")
                except FaultInjected as exc:
                    ledger.record(self.name, backend.name, "fault", str(exc))
                    refusals.append(f"{backend.name}: injected fault")
                    continue
            try:
                with span(
                    "plan", backend=backend.name, engine=self.name
                ) as plan_span:
                    try:
                        plan = backend.plan(request.parsed, request.kernel)
                    except CompileUnsupported as exc:
                        plan_span.attrs["reason"] = str(exc)
                        raise
            except CompileUnsupported as exc:
                ledger.record(self.name, backend.name, "static", str(exc))
                refusals.append(f"{backend.name}: {exc}")
                continue
            except Exception as exc:
                # Crash shield: an unexpected bug in a backend's plan()
                # must not take the launch down while healthier tiers
                # remain.  plan() precedes any buffer write, so falling
                # through is exact.  The crash is ledgered with the
                # crashing backend's name at *every* chain position; the
                # final member additionally re-raises (a chain with no
                # healthy backend is a real error).
                ledger.record(
                    self.name, backend.name, "crash",
                    f"{type(exc).__name__}: {exc}",
                )
                if backend is last:
                    raise
                refusals.append(
                    f"{backend.name}: crashed in plan ({type(exc).__name__})"
                )
                continue
            kernel = request.kernel.name
            with span(
                "run", backend=backend.name, engine=self.name, kernel=kernel,
            ) as run_span:
                try:
                    backend.run(plan, request)
                except (CompileUnsupported, VectorUnsupported) as exc:
                    # Static: a launch-shape refusal before any buffer
                    # was touched.  Dynamic: noticed mid-launch, buffers
                    # already rolled back; a same-class backend would
                    # detect the same condition.
                    dynamic = isinstance(exc, VectorUnsupported)
                    reason = f"{kernel}: {exc}" if dynamic else str(exc)
                    run_span.attrs["reason"] = reason
                else:
                    metrics.inc(f"launch.served.{backend.name}")
                    return
            ledger.record(
                self.name, backend.name, "dynamic" if dynamic else "static",
                reason,
            )
            refusals.append(f"{backend.name}: {reason}")
            if dynamic:
                skip_classes.add(backend.dynamic_class)
        detail = "; ".join(refusals) or "empty backend chain"
        kind = "strict engine" if self.strict else "engine"
        raise VectorizationError(
            f"kernel {request.kernel.name!r} not supported by {kind} "
            f"{self.name!r} ({detail})"
        )


def resolve(name: str, prefer: bool = False) -> ResolvedChain:
    """Resolve an engine name to its backend chain.

    ``prefer`` marks the name as a *preference* (the ``REPRO_SIM_ENGINE``
    path): a strict chain gains the ``scalar`` tail so the run never
    fails on kernels the preferred backend cannot execute.
    """
    spec = _ENGINES.get(name)
    if spec is None:
        known = ", ".join(engine_names()) or "<none>"
        raise ValueError(
            f"unknown execution engine {name!r}: valid engines are {known}"
        )
    members = list(spec.members)
    strict = spec.strict
    if prefer and strict:
        members.append("scalar")
        strict = False
    return ResolvedChain(
        spec.name, tuple(get_backend(m) for m in members), strict
    )

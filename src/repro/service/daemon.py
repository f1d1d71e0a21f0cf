"""``TuningService`` — the in-process tune/compile/run daemon.

The exploration pipeline only pays off at scale if tuning results are
computed once and served to many clients; this daemon is the layer
that stays *correct and available* while clients crash, explorations
hang, and the process itself is killed mid-flight.  Robustness is the
contract, not an afterthought:

* **Request lifecycle** — every request carries a
  :class:`~repro.resilience.Deadline` and a child
  :class:`~repro.resilience.CancellationToken`; admission is a bounded
  queue with explicit backpressure (:class:`~repro.service.admission.ServiceOverloaded`
  on a full queue, never unbounded buffering).  Warm
  :class:`~repro.cache.TuningCache` run hits bypass the queue entirely
  and are served synchronously; only cold work (compiles, explorations)
  occupies the worker pool.
* **Single-flight coalescing** — concurrent identical cold requests
  (the "warm race") collapse onto one execution; followers share the
  primary's result.  Computed once, served to many.
* **Per-backend circuit breakers** — the service installs a
  :class:`~repro.service.breaker.BreakerBoard` consulted by every
  backend fallback chain: repeated crash/fault declines open a
  breaker, requests degrade down the chain (ledgered), half-open
  probes restore the tier.
* **Write-ahead recovery journal** — cold requests are journaled
  (:mod:`repro.service.journal`) before work starts and committed only
  on completion; :meth:`TuningService.recover` re-enqueues whatever a
  killed predecessor left orphaned.  The shared cache needs no repair:
  its atomic writes guarantee a SIGKILL mid-exploration never corrupts
  it, so replaying is always safe.
* **Graceful drain** — :meth:`drain` stops admission, cancels queued
  work through its tokens (committing every journal entry: no
  orphans), and waits — bounded — for running work.

Every result the service returns is **bitwise-identical** to the same
request executed by the one-shot CLI path: the workers call the exact
same :meth:`~repro.cache.TuningCache.compile_and_run` and
``explore_program``, and every robustness mechanism (retries, breakers,
journal replay) only re-orders or re-serves work, never changes it.  The
``hammer`` soak harness (:mod:`repro.benchsuite.hammer`) asserts this
under concurrency and injected faults.

See ``src/repro/SERVICE.md`` for the full design.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

from repro import faultinject, obs
from repro.obs import metrics as obs_metrics
from repro.cache import TuningCache, fingerprint_inputs, or_disabled
from repro.compiler.options import CompilerOptions
from repro.faultinject import FaultInjected
from repro.ir.nodes import Lambda
from repro.ir.structural import canonical
from repro.resilience import (
    TRANSIENT_ERRORS,
    Cancelled,
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    run_with_deadline,
)
from repro.service import breaker as breaker_mod
from repro.service.admission import (
    AdmissionQueue,
    ServiceClosed,
    ServiceOverloaded,
    ServiceRequest,
    ServiceResponse,
)
from repro.service.breaker import BreakerBoard, BreakerConfig
from repro.service.journal import JournalEntry, RecoveryJournal

__all__ = ["ServiceConfig", "ServiceStats", "TuningService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Policy knobs of one :class:`TuningService`."""

    #: Worker threads executing cold requests.
    workers: int = 4
    #: Bounded admission-queue capacity (backpressure beyond it).
    max_queue: int = 32
    #: Default per-request wall-clock budget (seconds); ``None`` = none.
    default_timeout: Optional[float] = 60.0
    #: Per-candidate watchdog inside tune requests; each stage is
    #: additionally clamped by the request's remaining deadline budget.
    candidate_timeout: Optional[float] = 10.0
    #: Transient-failure retries per request at the worker (beyond the
    #: in-place fault-site retries); backoff is jittered per request id.
    worker_retries: int = 3
    retry_backoff: float = 0.02
    retry_jitter: float = 0.25
    #: Thread-pool width of explorations run on behalf of tune requests.
    explore_workers: int = 2
    #: Bounded wait for running work during drain (seconds).
    drain_timeout: float = 10.0
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Recovery-journal directory; ``None`` disables journaling (and
    #: therefore crash recovery — warm serving still works).
    journal_dir: "str | Path | None" = None


@dataclass
class ServiceStats:
    """One service's lifetime accounting (``service`` metrics section)."""

    admits: int = 0
    #: Backpressure rejections (full queue) + admission-fault escapes.
    rejects: int = 0
    #: Warm cache hits served synchronously, bypassing the queue.
    warm_hits: int = 0
    #: Duplicate concurrent submissions coalesced onto an in-flight
    #: request (the "warm race" path).
    coalesced: int = 0
    completed: int = 0
    #: Deterministic request failures (bad program, verify mismatch...).
    failed: int = 0
    #: Transient failures that survived every worker retry.
    infra_failures: int = 0
    #: Requests that hit their deadline (admission-expired or watchdog).
    timeouts: int = 0
    cancelled: int = 0
    #: Transient worker failures absorbed by the retry loop.
    retries: int = 0
    #: Orphaned journal entries re-enqueued by :meth:`recover`.
    replayed: int = 0
    #: Orphaned entries no resolver could rebuild (quarantined).
    unrecoverable: int = 0
    #: Queued requests cancelled by drain.
    drained: int = 0

    def __post_init__(self) -> None:
        # Counters are bumped from worker *and* submitter threads; a
        # bare ``+=`` would lose increments under contention.
        self._lock = threading.Lock()

    def bump(self, name: str, n: int = 1) -> None:
        """The service's one counting call: field ``name`` here, and the
        process counter ``service.<name>``, which outlives the service."""
        if name not in self.__dataclass_fields__:
            raise AttributeError(f"ServiceStats has no field {name!r}")
        with self._lock:
            setattr(self, name, getattr(self, name) + n)
        obs_metrics.inc(f"service.{name}", n)

    def as_dict(self) -> dict:
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self)}


class TuningService:
    """The long-lived daemon; see the module docstring.

    Usable as a context manager — ``with TuningService(cache) as svc:``
    shuts down (graceful drain included) on exit.
    """

    def __init__(
        self,
        cache: Optional[TuningCache] = None,
        config: Optional[ServiceConfig] = None,
    ):
        self.config = config or ServiceConfig()
        self.cache = or_disabled(cache)
        self.stats = ServiceStats()
        self._queue = AdmissionQueue(self.config.max_queue)
        self._journal = (
            RecoveryJournal(self.config.journal_dir)
            if self.config.journal_dir is not None
            else None
        )
        self._board = BreakerBoard(self.config.breaker)
        self._prev_board = breaker_mod.installed()
        breaker_mod.install(self._board)
        self._lock = threading.Lock()
        self._inflight: Dict[str, ServiceRequest] = {}
        self._running: set = set()
        self._running_cv = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._active = True
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            for i in range(max(1, self.config.workers))
        ]
        for thread in self._workers:
            thread.start()
        # Mirror the breaker-board install: remember whatever served the
        # ``service`` metrics slot so shutdown() can put it back.
        self._prev_metrics_view = obs_metrics.provider("service")
        obs.register_provider("service", self._metrics_view)

    # ------------------------------------------------------------------
    # lifecycle helpers
    # ------------------------------------------------------------------
    def __enter__(self) -> "TuningService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def journal(self) -> Optional[RecoveryJournal]:
        return self._journal

    @property
    def breakers(self) -> BreakerBoard:
        return self._board

    def queue_depth(self) -> int:
        return self._queue.depth()

    def pause(self) -> None:
        """Stop workers from picking up queued work (tests, drills)."""
        self._queue.set_paused(True)

    def resume(self) -> None:
        self._queue.set_paused(False)

    def _next_id(self, kind: str, key: str) -> str:
        return f"{kind}-{key[:10]}-{os.getpid()}-{next(self._ids)}"

    def _metrics_view(self) -> dict:
        return {
            "active": self._active,
            "stats": self.stats.as_dict(),
            "queue": {
                "depth": self._queue.depth(),
                "capacity": self._queue.capacity,
                "closed": self._queue.closed,
            },
            "running": len(self._running),
            "breakers": self._board.snapshot(),
            "journal": {
                "pending": len(self._journal) if self._journal else 0,
                "skipped_writes": (
                    self._journal.skipped_writes if self._journal else 0
                ),
            },
        }

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_run(
        self,
        program: Lambda,
        inputs: Mapping[str, Any],
        size_env: Mapping[str, int],
        global_size,
        local_size=None,
        options: Optional[CompilerOptions] = None,
        engine: Optional[str] = None,
        timeout: Optional[float] = -1.0,
        spec: Optional[dict] = None,
        _recover_entry: Optional[JournalEntry] = None,
    ) -> ServiceResponse:
        """Compile-and-run one program; returns a response future whose
        value is ``(output array, Counters)`` — bitwise-identical to
        :func:`repro.compiler.kernel.compile_and_run` on the same
        arguments."""
        options = options or CompilerOptions(
            local_size=local_size if local_size is not None else (1, 1, 1)
        )
        if local_size is None:
            local_size = options.local_size
        keys = self.cache.launch_keys(
            program, options, size_env, inputs, global_size, local_size,
            engine,
        )
        run_key = keys[1]
        # The identity must match the cache's run key: program, options
        # (different optimization levels execute different kernels with
        # different counters), inputs, geometry, engine.
        key = run_key or self._content_key(
            "run", program, inputs, size_env, repr(options),
            repr(tuple(global_size) if hasattr(global_size, "__len__")
                 else global_size),
            repr(tuple(local_size)), engine or "auto",
        )

        def work(request: ServiceRequest):
            # The one-shot path's function, its launch under the request's
            # watchdog.  The primary may find the result freshly cached (a
            # journal replay of work that finished just before the kill).
            return self.cache.compile_and_run(
                program, options, inputs, size_env, global_size, local_size,
                engine, keys=keys,
                launch=lambda run: run_with_deadline(
                    run, None, token=request.token.child(),
                    deadline=request.deadline,
                ),
            )

        return self._submit(
            "run", key, work, spec=spec, timeout=timeout,
            structural_hash=self._structural_hash(program),
            warm_probe=lambda: self.cache.get_run(run_key),
            recover_entry=_recover_entry,
        )

    def submit_tune(
        self,
        program: Lambda,
        inputs: Mapping[str, Any],
        size_env: Mapping[str, int],
        depth: int = 3,
        max_eval: int = 8,
        device: str = "nvidia",
        engine: Optional[str] = None,
        timeout: Optional[float] = -1.0,
        spec: Optional[dict] = None,
        _recover_entry: Optional[JournalEntry] = None,
    ) -> ServiceResponse:
        """Explore the rewrite space of ``program``; the response value
        is the :class:`~repro.rewrite.explore.ExplorationResult`."""
        key = self._content_key(
            "tune", program, inputs, size_env,
            str(depth), str(max_eval), device, engine or "auto",
        )

        def work(request: ServiceRequest):
            from repro.rewrite.explore import ExploreConfig, explore_program

            config = ExploreConfig(
                depth=depth,
                max_eval=max_eval,
                device=device,
                engine=engine,
                workers=self.config.explore_workers,
                candidate_timeout=self.config.candidate_timeout,
                retry_backoff=self.config.retry_backoff,
                retry_jitter=self.config.retry_jitter,
                cancellation=request.token,
                deadline=request.deadline,
            )
            return explore_program(
                program, inputs, size_env, config=config, cache=self.cache
            )

        return self._submit(
            "tune", key, work, spec=spec, timeout=timeout,
            structural_hash=self._structural_hash(program),
            recover_entry=_recover_entry,
        )

    # -- internals -----------------------------------------------------
    @staticmethod
    def _structural_hash(program: Lambda) -> str:
        return hashlib.sha256(canonical(program).encode()).hexdigest()

    def _content_key(self, *parts) -> str:
        tokens = []
        for part in parts:
            if isinstance(part, Lambda):
                tokens.append(canonical(part))
            elif isinstance(part, Mapping):
                try:
                    tokens.append(fingerprint_inputs(part))
                except Exception:
                    tokens.append(repr(sorted(part.items())))
            else:
                tokens.append(str(part))
        return hashlib.sha256("\n".join(tokens).encode()).hexdigest()

    def _reject(self, reason: str, exc: Exception):
        self.stats.bump("rejects")
        obs.instant("service.reject", reason=reason)
        raise exc

    def _submit(
        self,
        kind: str,
        key: str,
        work: Callable[[ServiceRequest], Any],
        spec: Optional[dict],
        timeout: Optional[float],
        structural_hash: str,
        warm_probe: Optional[Callable[[], Any]] = None,
        recover_entry: Optional[JournalEntry] = None,
    ) -> ServiceResponse:
        submit_ts = time.monotonic()
        with obs.span("service.submit", kind=kind):
            if not self._active or self._queue.closed:
                raise ServiceClosed("service is draining; admission closed")
            if recover_entry is None:
                # ``service-admit`` fault site: pre-side-effect, bounded
                # in-place retries; an escape is explicit backpressure
                # (the client's retry loop is the recovery).  Recovery
                # re-enqueues are exempt — they were already admitted
                # once.
                try:
                    faultinject.survive("service-admit")
                except FaultInjected as exc:
                    self._reject(
                        "admission-fault",
                        ServiceOverloaded(f"admission failed: {exc}"),
                    )

            # Warm hits bypass the queue: served synchronously, no
            # worker, no journal entry, no backpressure.
            if warm_probe is not None:
                hit = warm_probe()
                if hit is not None:
                    self.stats.bump("warm_hits")
                    if recover_entry is not None and self._journal is not None:
                        # The orphan's work finished (cached) before the
                        # kill: serving the cache entry completes it.
                        self._journal.commit(recover_entry.request_id)
                    response = ServiceResponse(self._next_id(kind, key))
                    response.submitted_at = submit_ts
                    response.complete(hit)
                    obs.observe(
                        "service.latency.warm_hit",
                        time.monotonic() - submit_ts,
                    )
                    return response

            if timeout is not None and timeout < 0:
                timeout = self.config.default_timeout
            deadline = Deadline.after(timeout) if timeout is not None else None
            request_id = (
                recover_entry.request_id
                if recover_entry is not None
                else self._next_id(kind, key)
            )
            request = ServiceRequest(
                id=request_id,
                kind=kind,
                key=key,
                work=work,
                response=ServiceResponse(request_id),
                token=CancellationToken(),
                deadline=deadline,
                spec=spec,
                structural_hash=structural_hash,
                submitted_at=submit_ts,
            )

            # Single-flight: identical concurrent cold requests coalesce
            # onto the in-flight primary ("computed once, served many").
            with self._lock:
                primary = self._inflight.get(key)
                if primary is not None:
                    follower = ServiceResponse(request_id)
                    follower.submitted_at = submit_ts
                    primary.followers.append(follower)
                    self.stats.bump("coalesced")
                    if recover_entry is not None and self._journal is not None:
                        # An identical request is already in flight; the
                        # primary's completion covers this orphan.
                        self._journal.commit(recover_entry.request_id)
                    return follower
                self._inflight[key] = request

            try:
                if self._journal is not None:
                    if recover_entry is not None:
                        request.journaled = True  # entry already on disk
                    else:
                        request.journaled = self._journal.begin(
                            JournalEntry(
                                request_id=request.id,
                                kind=kind,
                                structural_hash=structural_hash,
                                spec=spec,
                            )
                        )
                self._queue.submit(request)
            except (ServiceOverloaded, ServiceClosed) as exc:
                with self._lock:
                    self._inflight.pop(key, None)
                # Only commit (unlink) an entry this submit created: a
                # rejected *recovery* re-enqueue must leave the orphan
                # on disk so a later recover() can replay it.
                if (
                    recover_entry is None
                    and request.journaled
                    and self._journal is not None
                ):
                    self._journal.commit(request.id)
                if isinstance(exc, ServiceOverloaded):
                    self._reject("overloaded", exc)
                raise
            self.stats.bump("admits")
            return request.response

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            request = self._queue.pop(timeout=0.1)
            if request is None:
                if self._queue.closed:
                    return
                continue
            with self._lock:
                self._running.add(request.id)
            try:
                self._process(request)
            finally:
                with self._running_cv:
                    self._running.discard(request.id)
                    self._running_cv.notify_all()

    def _finish(
        self,
        request: ServiceRequest,
        value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Complete a request: detach from single-flight, commit the
        journal entry (completion includes deterministic failure and
        cancellation — only a dead process leaves an orphan), settle
        the response and every coalesced follower."""
        with self._lock:
            self._inflight.pop(request.key, None)
        if request.journaled and self._journal is not None:
            self._journal.commit(request.id)
        if error is None:
            request.complete(value)
        else:
            request.fail(error)
        # End-to-end latency per request class (SLO histograms).  The
        # followers list is frozen: the request left ``_inflight`` above,
        # so no new coalesced submissions can attach.
        now = time.monotonic()
        if request.submitted_at is not None:
            obs.observe(
                "service.latency.cold", now - request.submitted_at
            )
        for follower in request.followers:
            if follower.submitted_at is not None:
                obs.observe(
                    "service.latency.coalesced",
                    now - follower.submitted_at,
                )

    def _process(self, request: ServiceRequest) -> None:
        if request.submitted_at is not None:
            obs.observe(
                "service.queue_wait.cold",
                time.monotonic() - request.submitted_at,
            )
        with obs.span(
            "service.execute", kind=request.kind, id=request.id,
            structural_hash=request.structural_hash[:12],
            request_class="cold",
            engine=(request.spec or {}).get("engine") or "auto",
        ):
            if request.token.cancelled:
                self.stats.bump("cancelled")
                self._finish(request, error=Cancelled("request cancelled"))
                return
            if request.deadline is not None and request.deadline.expired:
                self.stats.bump("timeouts")
                self._finish(
                    request,
                    error=DeadlineExceeded(
                        "deadline expired before work started"
                    ),
                )
                return

            policy = RetryPolicy(
                attempts=max(1, self.config.worker_retries + 1),
                base_delay=self.config.retry_backoff,
                jitter=self.config.retry_jitter,
            )

            def attempt():
                # ``service-worker`` fault site: pre-side-effect, so the
                # in-place retries (and, on escape, the policy retries
                # around this closure) are exact.
                faultinject.survive("service-worker")
                request.token.raise_if_cancelled()
                return request.work(request)

            def on_retry(attempt_no: int, exc: BaseException) -> None:
                self.stats.bump("retries")
                obs.instant(
                    "service.retry", id=request.id, attempt=attempt_no,
                    error=type(exc).__name__,
                )

            try:
                value = policy.call(attempt, on_retry=on_retry, key=request.id)
            except Cancelled as exc:
                self.stats.bump("cancelled")
                self._finish(request, error=exc)
            except DeadlineExceeded as exc:
                self.stats.bump("timeouts")
                self._finish(request, error=exc)
            except TRANSIENT_ERRORS as exc:
                self.stats.bump("infra_failures")
                self._finish(request, error=exc)
            except Exception as exc:
                self.stats.bump("failed")
                self._finish(request, error=exc)
            else:
                self.stats.bump("completed")
                self._finish(request, value=value)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(
        self,
        resolver: Callable[[JournalEntry], Optional[dict]],
    ) -> int:
        """Re-enqueue every orphaned journal entry a killed predecessor
        left behind; returns how many were replayed.

        ``resolver(entry)`` rebuilds submission arguments from the
        journaled ``spec``: a dict of :meth:`submit_run` /
        :meth:`submit_tune` keyword arguments (the entry's ``kind``
        picks the method), or ``None`` for an entry it cannot rebuild —
        those are quarantined (``.unrecoverable``), never silently
        dropped."""
        if self._journal is None:
            return 0
        replayed = 0
        for entry in self._journal.pending():
            rebuilt = None
            if entry.spec is not None:
                try:
                    rebuilt = resolver(entry)
                except Exception:
                    rebuilt = None
            if rebuilt is None:
                self.stats.bump("unrecoverable")
                self._journal.quarantine(entry.request_id)
                continue
            kwargs = dict(rebuilt)
            kwargs.setdefault("spec", entry.spec)
            submit = (
                self.submit_tune if entry.kind == "tune" else self.submit_run
            )
            try:
                submit(_recover_entry=entry, **kwargs)
            except (ServiceOverloaded, ServiceClosed):
                # Queue full during recovery: the entry stays journaled
                # and a later recover() picks it up.
                continue
            replayed += 1
            self.stats.bump("replayed")
            obs.instant(
                "service.journal.replay", id=entry.request_id,
                kind=entry.kind,
            )
        return replayed

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful drain: stop admission, cancel queued work (tokens +
        journal commits — no orphaned entries), wait bounded for
        running work.  Returns ``True`` when everything finished in
        time."""
        if timeout is None:
            timeout = self.config.drain_timeout
        with obs.span("service.drain"):
            self._queue.close()
            for request in self._queue.drain_pending():
                request.token.cancel()
                self.stats.bump("drained")
                self.stats.bump("cancelled")
                self._finish(
                    request, error=Cancelled("service draining")
                )
            stop_at = time.monotonic() + timeout
            with self._running_cv:
                while self._running:
                    remaining = stop_at - time.monotonic()
                    if remaining <= 0:
                        break
                    self._running_cv.wait(min(0.05, remaining))
                clean = not self._running
            if not clean:
                # Out of patience: cancel the stragglers' tokens so
                # they stop at their next checkpoint.
                with self._lock:
                    stragglers = [
                        r for r in self._inflight.values()
                        if r.id in self._running
                    ]
                for request in stragglers:
                    request.token.cancel()
            obs.instant("service.drain.done", clean=clean)
            return clean

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Drain, stop the workers, uninstall the breaker board and the
        metrics view."""
        if not self._active:
            return True
        self.resume()  # paused workers must run to exit
        clean = self.drain(timeout)
        for thread in self._workers:
            thread.join(timeout=1.0)
        self._active = False
        breaker_mod.install(self._prev_board)
        # Mirror the breaker-board uninstall for the metrics provider:
        # a stopped service must not keep serving its stale view in the
        # snapshot (nor leave a prior service's view clobbered).
        obs.register_provider(
            "service",
            self._prev_metrics_view
            or (lambda: dict(obs_metrics.PLACEHOLDERS["service"])),
        )
        return clean

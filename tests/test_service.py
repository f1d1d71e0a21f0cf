"""The autotune service layer: deadline propagation, bounded admission
with backpressure, single-flight coalescing, one recovery per failure,
the write-ahead recovery journal (including a real SIGKILL mid-flight),
graceful drain, the hammer soak's bitwise contract under a chaos fault
plan, and a launch path that never imports the service."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro
from repro import faultinject, obs
from repro.arith import Var
from repro.backend import ledger
from repro.cache import TuningCache
from repro.compiler.kernel import compile_and_run
from repro.compiler.options import CompilerOptions
from repro.faultinject import FaultInjected
from repro.ir.dsl import map_
from repro.ir.nodes import Lambda, Param, UserFun
from repro.resilience import (
    Cancelled,
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    run_with_deadline,
)
from repro.rewrite import lower_to_global
from repro.rewrite.explore import ExploreConfig, explore_program
from repro.service import (
    AdmissionQueue,
    JournalEntry,
    RecoveryJournal,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    ServiceRequest,
    ServiceResponse,
    ServiceStats,
    TuningService,
)
from repro.types import ArrayType, FLOAT


@pytest.fixture(autouse=True)
def _clean_slate():
    """Injection off and an empty ledger around every test; any ambient
    plan (the chaos CI job's REPRO_FAULT_PLAN) is restored afterwards."""
    with faultinject.plan_installed(None):
        ledger.clear()
        yield
    ledger.clear()


def _toy_program():
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), "x")
    double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                     py=lambda v: v * 2.0)
    return Lambda([x], map_(double)(x))


def _toy_payload(n=32, scale=1.0):
    """Submission kwargs for one toy run request (distinct ``scale``
    values give distinct request identities)."""
    return dict(
        program=lower_to_global(_toy_program()),
        inputs={"x": scale * np.arange(n, dtype=float)},
        size_env={"N": n},
        global_size=(n, 1, 1),
        local_size=(8, 1, 1),
        options=CompilerOptions(local_size=(8, 1, 1)),
    )


def _toy_baseline(payload):
    result = compile_and_run(
        payload["program"], payload["inputs"], payload["size_env"],
        payload["global_size"], options=payload["options"],
        local_size=payload["local_size"],
    )
    return result.output, result.counters


def _service(tmp_path, **overrides):
    kwargs = dict(
        workers=2,
        max_queue=8,
        journal_dir=str(tmp_path / "journal"),
        drain_timeout=5.0,
    )
    kwargs.update(overrides)
    return TuningService(
        cache=TuningCache(tmp_path / "cache"), config=ServiceConfig(**kwargs)
    )


@pytest.fixture
def slow_engine():
    """An engine whose one backend sleeps 0.2 s in ``plan`` and then
    runs as ``scalar``; yields its name and an event set once a plan
    has started."""
    from repro.backend import (
        Backend,
        get_backend,
        register_backend,
        register_engine,
    )
    from repro.backend import registry as registry_mod

    planning = threading.Event()

    class Slow(Backend):
        name = "test-slow-plan"
        dynamic_class = "test-slow-plan"

        def plan(self, parsed, kernel):
            planning.set()
            time.sleep(0.2)
            return get_backend("scalar").plan(parsed, kernel)

        def run(self, plan, request):
            return get_backend("scalar").run(plan, request)

    register_backend(Slow())
    register_engine(Slow.name, (Slow.name,))
    try:
        yield Slow.name, planning
    finally:
        registry_mod._ENGINES.pop(Slow.name, None)
        registry_mod._BACKENDS.pop(Slow.name, None)


def _child_env():
    """The test process's environment with ``src/`` importable, for the
    subprocess tests below."""
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)),
             os.environ.get("PYTHONPATH", "")]
        ),
    )


# ---------------------------------------------------------------------------
# deadline propagation (satellite: remaining budget bounds each stage)
# ---------------------------------------------------------------------------

class TestDeadlinePropagation:
    def test_clamp_is_min_of_timeout_and_remaining(self):
        deadline = Deadline.after(10.0)
        assert deadline.clamp(1.0) == 1.0
        assert 9.0 < deadline.clamp(None) <= 10.0
        assert 9.0 < deadline.clamp(100.0) <= 10.0
        assert Deadline.after(-1.0).clamp(5.0) == 0.0

    def test_run_with_deadline_spends_the_requests_budget(self):
        started = []
        with pytest.raises(DeadlineExceeded, match="request deadline exhausted"):
            run_with_deadline(
                lambda: started.append(1), 5.0, deadline=Deadline.after(0.0)
            )
        assert not started  # a spent budget starts nothing
        release = threading.Event()
        start = time.monotonic()
        try:
            with pytest.raises(DeadlineExceeded):
                # 50ms of budget left bound a 60s stage timeout.
                run_with_deadline(
                    release.wait, 60.0, deadline=Deadline.after(0.05)
                )
        finally:
            release.set()
        assert time.monotonic() - start < 10.0
        # No budget at all: no watchdog thread either.
        assert run_with_deadline(threading.current_thread, None) is (
            threading.current_thread()
        )

    def test_expired_deadline_aborts_exploration(self):
        config = ExploreConfig(
            depth=2, max_eval=4, deadline=Deadline.after(0.0),
            candidate_timeout=5.0,
        )
        result = explore_program(
            _toy_program(), {"x": np.arange(32, dtype=float)}, {"N": 32},
            config=config,
        )
        assert result.stats.aborted
        assert not result.candidates
        assert result.failures
        assert all(f.kind == "timeout" for f in result.failures)

    def test_generous_deadline_matches_unbounded_search(self):
        inputs = {"x": np.arange(32, dtype=float)}
        free = explore_program(
            _toy_program(), inputs, {"N": 32},
            config=ExploreConfig(depth=2, max_eval=4),
        )
        bounded = explore_program(
            _toy_program(), inputs, {"N": 32},
            config=ExploreConfig(
                depth=2, max_eval=4, deadline=Deadline.after(120.0),
                candidate_timeout=30.0,
            ),
        )
        assert [c.trace for c in bounded.candidates] == [
            c.trace for c in free.candidates
        ]
        assert not bounded.stats.aborted


# ---------------------------------------------------------------------------
# the launch path is free of the service
# ---------------------------------------------------------------------------

SAXPY = """
kernel void SAXPY(const global float * restrict x,
                  const global float * restrict y,
                  global float *out, float a, int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""


def test_a_launch_never_imports_the_service():
    """A process that only launches never loads ``repro.service``: the
    fallback chain's crash shield and ledger are a backend's one
    recovery, and the chain consults nothing of the service's."""
    child = textwrap.dedent(
        f"""
        import sys
        import numpy as np
        from repro.opencl import Buffer, OpenCLProgram, launch
        args = {{
            "x": Buffer.from_array(np.arange(32, dtype=float)),
            "y": Buffer.from_array(np.ones(32)),
            "out": Buffer.zeros(32),
            "a": 2.0,
            "n": 32,
        }}
        launch(OpenCLProgram({SAXPY!r}), 32, 8, args, engine="auto")
        assert list(args["out"].data[:3]) == [1.0, 3.0, 5.0]
        loaded = sorted(m for m in sys.modules if m.startswith("repro.service"))
        assert not loaded, loaded
        """
    )
    subprocess.run(
        [sys.executable, "-c", child], env=_child_env(), check=True,
        timeout=120,
    )


# ---------------------------------------------------------------------------
# admission queue + response promise
# ---------------------------------------------------------------------------

def _request(key="k", request_id="r-1"):
    return ServiceRequest(
        id=request_id, kind="run", key=key, work=lambda req: None,
        response=ServiceResponse(request_id), token=CancellationToken(),
    )


class TestAdmission:
    def test_bounded_queue_rejects_when_full(self):
        queue = AdmissionQueue(capacity=2)
        queue.submit(_request(request_id="a"))
        queue.submit(_request(request_id="b"))
        with pytest.raises(ServiceOverloaded):
            queue.submit(_request(request_id="c"))
        assert queue.depth() == 2

    def test_closed_queue_rejects_but_drains(self):
        queue = AdmissionQueue(capacity=4)
        queue.submit(_request(request_id="a"))
        queue.close()
        with pytest.raises(ServiceClosed):
            queue.submit(_request(request_id="b"))
        assert queue.pop(timeout=0.1).id == "a"
        assert queue.pop(timeout=0.1) is None  # closed + empty

    def test_paused_queue_hands_out_nothing(self):
        queue = AdmissionQueue(capacity=4)
        queue.submit(_request(request_id="a"))
        queue.set_paused(True)
        assert queue.pop(timeout=0.05) is None
        queue.set_paused(False)
        assert queue.pop(timeout=0.1).id == "a"

    def test_drain_pending_empties_the_queue(self):
        queue = AdmissionQueue(capacity=4)
        queue.submit(_request(request_id="a"))
        queue.submit(_request(request_id="b"))
        drained = queue.drain_pending()
        assert [r.id for r in drained] == ["a", "b"]
        assert queue.depth() == 0

    def test_response_result_times_out(self):
        response = ServiceResponse("r-1")
        with pytest.raises(TimeoutError):
            response.result(timeout=0.05)
        response.complete(42)
        assert response.result(timeout=0.05) == 42
        assert response.ok

    def test_response_fail_reraises(self):
        response = ServiceResponse("r-1")
        response.fail(ValueError("boom"))
        assert response.done and not response.ok
        with pytest.raises(ValueError):
            response.result(timeout=0.05)


# ---------------------------------------------------------------------------
# recovery journal
# ---------------------------------------------------------------------------

class TestRecoveryJournal:
    def test_begin_pending_commit_roundtrip(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        entry = JournalEntry("r-1", "run", "hash", {"benchmark": "nn"})
        assert journal.begin(entry)
        assert len(journal) == 1
        [pending] = journal.pending()
        assert pending.request_id == "r-1"
        assert pending.spec == {"benchmark": "nn"}
        journal.commit("r-1")
        assert len(journal) == 0 and not journal.pending()
        journal.commit("r-1")  # idempotent

    def test_pending_sorted_by_sequence(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        for rid in ("r-z", "r-a", "r-m"):
            journal.begin(JournalEntry(rid, "run", "h", None))
        assert [e.request_id for e in journal.pending()] == [
            "r-z", "r-a", "r-m"
        ]

    def test_corrupt_entry_quarantined_not_dropped(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        journal.begin(JournalEntry("r-1", "run", "h", None))
        (tmp_path / "r-2.journal").write_text("{not json")
        (tmp_path / "r-3.journal").write_text(
            json.dumps({"version": 99, "id": "r-3"})
        )
        assert [e.request_id for e in journal.pending()] == ["r-1"]
        leftovers = sorted(p.name for p in tmp_path.glob("*.corrupt"))
        assert leftovers == ["r-2.journal.corrupt", "r-3.journal.corrupt"]

    def test_injected_journal_fault_degrades_to_unjournaled(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        with faultinject.plan_installed(
            "seed=1;service-journal=1.0;attempts=1"
        ):
            assert not journal.begin(JournalEntry("r-1", "run", "h", None))
        assert journal.skipped_writes == 1
        assert len(journal) == 0

    def test_quarantine_moves_entry_aside(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        journal.begin(JournalEntry("r-1", "run", "h", None))
        journal.quarantine("r-1")
        assert not journal.pending()
        assert (tmp_path / "r-1.journal.unrecoverable").exists()


# ---------------------------------------------------------------------------
# the service daemon
# ---------------------------------------------------------------------------

class TestTuningService:
    def test_run_result_matches_one_shot_path(self, tmp_path):
        payload = _toy_payload()
        base_out, base_counters = _toy_baseline(payload)
        with _service(tmp_path) as service:
            out, counters = service.submit_run(**payload).result(30.0)
        assert out.tobytes() == base_out.tobytes()
        assert counters == base_counters

    def test_warm_hit_bypasses_the_queue(self, tmp_path):
        payload = _toy_payload()
        with _service(tmp_path) as service:
            first = service.submit_run(**payload).result(30.0)
            admits_after_first = service.stats.admits
            second = service.submit_run(**payload).result(1.0)
            assert service.stats.warm_hits == 1
            assert service.stats.admits == admits_after_first
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1] == second[1]

    def test_concurrent_duplicates_coalesce(self, tmp_path):
        payload = _toy_payload()
        with _service(tmp_path) as service:
            service.pause()
            responses = [
                service.submit_run(**payload) for _ in range(4)
            ]
            assert service.stats.coalesced == 3
            assert service.queue_depth() == 1
            service.resume()
            results = [r.result(30.0) for r in responses]
        assert len({out.tobytes() for out, _ in results}) == 1

    def test_full_queue_rejects_with_backpressure(self, tmp_path):
        with _service(tmp_path, workers=1, max_queue=1) as service:
            service.pause()
            service.submit_run(**_toy_payload(scale=1.0))
            with pytest.raises(ServiceOverloaded):
                service.submit_run(**_toy_payload(scale=2.0))
            assert service.stats.rejects == 1
            # The rejected request's journal entry was committed: only
            # the admitted one is on disk.
            assert len(service.journal) == 1
            service.resume()

    def test_submit_after_shutdown_raises_closed(self, tmp_path):
        service = _service(tmp_path)
        service.shutdown()
        with pytest.raises(ServiceClosed):
            service.submit_run(**_toy_payload())

    def test_expired_deadline_fails_with_timeout(self, tmp_path):
        with _service(tmp_path) as service:
            service.pause()
            response = service.submit_run(**_toy_payload(), timeout=0.01)
            time.sleep(0.05)
            service.resume()
            with pytest.raises(DeadlineExceeded):
                response.result(10.0)
            assert service.stats.timeouts == 1

    def test_an_escaped_transient_error_fails_once_and_resubmits_clean(
        self, tmp_path
    ):
        """A worker runs a request once: a fault that escapes a real
        site fails the response and its coalesced follower
        (``infra_failures``), commits the journal entry, and caches
        nothing, so the client's resubmit is the recovery."""
        payload = _toy_payload()
        base_out, base_counters = _toy_baseline(payload)
        with _service(tmp_path) as service:
            with faultinject.plan_installed("seed=3;compile=1.0;attempts=1"):
                service.pause()
                primary = service.submit_run(**payload)
                follower = service.submit_run(**payload)
                service.resume()
                for response in (primary, follower):
                    with pytest.raises(FaultInjected):
                        response.result(30.0)
            assert service.stats.coalesced == 1
            assert service.stats.infra_failures == 1
            assert service.stats.failed == service.stats.completed == 0
            assert len(service.journal) == 0
            out, counters = service.submit_run(**payload).result(30.0)
        assert out.tobytes() == base_out.tobytes()
        assert counters == base_counters

    def test_drain_waits_for_running_work(self, tmp_path, slow_engine):
        """Work already running when ``drain`` starts finishes inside the
        bounded wait: a clean drain, and the result the one-shot path
        computes."""
        engine, planning = slow_engine
        payload = _toy_payload()
        base_out, base_counters = _toy_baseline(payload)
        service = _service(tmp_path, workers=1)
        response = service.submit_run(**payload, engine=engine)
        assert planning.wait(30.0)
        assert service.drain(timeout=30.0)
        out, counters = response.result(0.0)
        service.shutdown()
        assert out.tobytes() == base_out.tobytes()
        assert counters == base_counters
        assert len(service.journal) == 0

    def test_drain_cancels_a_straggler_that_outlives_its_patience(
        self, tmp_path, slow_engine
    ):
        """A tune request still running when ``drain``'s wait runs out
        has its token cancelled: the search aborts at its next
        checkpoint and the request completes, journal entry committed."""
        engine, planning = slow_engine
        service = _service(tmp_path, workers=1)
        response = service.submit_tune(
            _toy_program(), {"x": np.arange(32, dtype=float)}, {"N": 32},
            depth=2, max_eval=8, engine=engine, spec={"kind": "tune"},
        )
        assert planning.wait(30.0)
        assert len(service.journal) == 1
        assert service.drain(timeout=0.05) is False
        result = response.result(60.0)
        service.shutdown()
        assert result.stats.aborted
        assert result.stats.cancelled > 0
        assert service.stats.completed == 1
        assert len(service.journal) == 0

    def test_drain_cancels_queued_and_commits_their_journal(self, tmp_path):
        service = _service(tmp_path, workers=1)
        service.pause()
        responses = [
            service.submit_run(**_toy_payload(scale=float(i)))
            for i in range(1, 4)
        ]
        assert len(service.journal) == 3
        assert service.shutdown()  # drains: queued work is cancelled
        for response in responses:
            assert isinstance(response.error, Cancelled)
        assert service.stats.drained == 3
        # No orphaned journal entries after a graceful drain.
        assert len(service.journal) == 0

    def test_metrics_snapshot_carries_service_state(self, tmp_path):
        with _service(tmp_path) as service:
            service.submit_run(**_toy_payload()).result(30.0)
            doc = obs.snapshot()["service"]
            assert doc["active"]
            assert doc["stats"]["completed"] == 1
            assert doc["queue"]["capacity"] == 8
            assert "journal" in doc and "breakers" not in doc
        assert not obs.snapshot()["service"]["active"]

    def test_shutdown_restores_the_previous_metrics_view(self, tmp_path):
        with _service(tmp_path / "outer") as outer:
            outer.submit_run(**_toy_payload()).result(30.0)
            inner = _service(tmp_path / "inner")
            inner.shutdown()
            # The inner shutdown restores the still-running outer
            # service's view rather than clobbering the slot.
            doc = obs.snapshot()["service"]
            assert doc["active"]
            assert doc["stats"]["completed"] == 1
        # The last shutdown leaves no stale stats in the snapshot.
        doc = obs.snapshot()["service"]
        assert not doc["active"]
        assert "stats" not in doc

    def test_stats_bump_is_thread_safe(self):
        stats = ServiceStats()

        def hammer():
            for _ in range(5000):
                stats.bump("admits")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.admits == 40000
        assert stats.as_dict()["admits"] == 40000

    def test_bump_rejects_a_name_that_is_not_a_field(self):
        stats = ServiceStats()
        with pytest.raises(AttributeError, match="cancelld"):
            stats.bump("cancelld")
        assert not hasattr(stats, "cancelld")
        assert not any(stats.as_dict().values())

    def test_every_event_is_counted_once(self, tmp_path):
        """``ServiceStats.bump`` is the service's one counting call: the
        process counter ``service.<field>`` moves by exactly what the
        field does, for every field."""
        before = obs.snapshot()["counters"]
        with _service(tmp_path, workers=1, max_queue=1) as service:
            payload = _toy_payload()
            service.submit_run(**payload).result(30.0)  # admit, complete
            service.submit_run(**payload).result(30.0)  # warm hit
            service.pause()
            doomed = service.submit_run(**_toy_payload(scale=2.0))
            service.submit_run(**_toy_payload(scale=2.0))  # coalesce
            with pytest.raises(ServiceOverloaded):
                service.submit_run(**_toy_payload(scale=3.0))
            (request,) = service._inflight.values()
            request.token.cancel()
            service.resume()
            with pytest.raises(Cancelled):
                doomed.result(30.0)
            service.pause()
            queued = service.submit_run(**_toy_payload(scale=4.0))
            assert service.drain()
        assert isinstance(queued.error, Cancelled)
        after = obs.snapshot()["counters"]
        stats = service.stats.as_dict()
        for name in ("admits", "completed", "warm_hits", "coalesced",
                     "rejects", "cancelled", "drained"):
            assert stats[name] > 0, name
        for name, value in stats.items():
            delta = after.get(f"service.{name}", 0) - before.get(
                f"service.{name}", 0
            )
            assert delta == value, name

    def test_tune_request_runs_exploration(self, tmp_path):
        with _service(tmp_path) as service:
            result = service.submit_tune(
                _toy_program(), {"x": np.arange(32, dtype=float)}, {"N": 32},
                depth=2, max_eval=4,
            ).result(120.0)
        assert result.candidates
        assert result.best().runtime is not None


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------

def _toy_resolver(entry):
    spec = entry.spec or {}
    if spec.get("kind") != "toy":
        return None
    return _toy_payload(n=spec["n"], scale=spec["scale"])


class TestRecovery:
    def test_recover_reenqueues_orphans(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = RecoveryJournal(journal_dir)
        for i in (1, 2):
            journal.begin(
                JournalEntry(
                    f"orphan-{i}", "run", "",
                    {"kind": "toy", "n": 32, "scale": float(i)},
                )
            )
        with _service(tmp_path) as service:
            assert service.recover(_toy_resolver) == 2
            assert service.stats.replayed == 2
            deadline = time.monotonic() + 30.0
            while service.stats.completed < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        # Replay is idempotent through the cache and commits on
        # completion: nothing pending afterwards.
        assert not RecoveryJournal(journal_dir).pending()
        for i in (1, 2):
            payload = _toy_payload(scale=float(i))
            base_out, _ = _toy_baseline(payload)
            cache = TuningCache(tmp_path / "cache")
            kernel_key = cache.kernel_key(
                payload["program"], payload["options"], payload["size_env"]
            )
            from repro.cache import fingerprint_inputs

            run_key = cache.run_key(
                kernel_key, fingerprint_inputs(payload["inputs"]),
                payload["global_size"], payload["local_size"], None,
            )
            hit = cache.get_run(run_key)
            assert hit is not None
            assert hit[0].tobytes() == base_out.tobytes()

    def test_rejected_recovery_reenqueue_keeps_the_orphan(self, tmp_path):
        """A recovery re-enqueue that hits a full queue must leave the
        orphan's journal entry on disk for a later recover() — the
        rejection handler may only unlink entries it created itself."""
        with _service(tmp_path, workers=1, max_queue=1) as service:
            service.pause()
            # Fill the single queue slot with an unrelated cold request.
            filler = service.submit_run(**_toy_payload(scale=9.0))
            entry = JournalEntry(
                "orphan-1", "run", "",
                {"kind": "toy", "n": 32, "scale": 1.0},
            )
            assert service.journal.begin(entry)
            with pytest.raises(ServiceOverloaded):
                service.submit_run(
                    **_toy_payload(scale=1.0), _recover_entry=entry
                )
            assert "orphan-1" in [
                e.request_id for e in service.journal.pending()
            ], "overloaded recovery deleted the orphan from disk"
            service.resume()
            filler.result(30.0)
            # With the queue free again, a later recover() replays it.
            assert service.recover(_toy_resolver) == 1
            deadline = time.monotonic() + 30.0
            while (
                service.stats.completed + service.stats.warm_hits < 2
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert not RecoveryJournal(tmp_path / "journal").pending()

    def test_unresolvable_orphan_is_quarantined(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = RecoveryJournal(journal_dir)
        journal.begin(JournalEntry("mystery-1", "run", "", {"kind": "???"}))
        journal.begin(JournalEntry("specless-1", "run", "", None))
        with _service(tmp_path) as service:
            assert service.recover(_toy_resolver) == 0
            assert service.stats.unrecoverable == 2
        assert not RecoveryJournal(journal_dir).pending()
        leftovers = sorted(p.name for p in journal_dir.glob("*.unrecoverable"))
        assert leftovers == [
            "mystery-1.journal.unrecoverable",
            "specless-1.journal.unrecoverable",
        ]

    def test_sigkill_mid_flight_loses_no_request(self, tmp_path):
        """A real SIGKILL: a child process admits and journals requests,
        is killed before the workers finish, and a fresh service on the
        same journal directory re-enqueues exactly the orphans."""
        journal_dir = tmp_path / "journal"
        child = textwrap.dedent(
            """
            import sys, time
            sys.path.insert(0, sys.argv[2])
            from tests.test_service import _service, _toy_payload  # noqa
            import pathlib
            tmp = pathlib.Path(sys.argv[1])
            service = _service(tmp, workers=1)
            service.pause()  # keep every request in-flight (journaled)
            for i in (1, 2, 3):
                service.submit_run(
                    **_toy_payload(scale=float(i)),
                    spec={"kind": "toy", "n": 32, "scale": float(i)},
                )
            print("READY", flush=True)
            service.resume()
            time.sleep(60)  # killed long before this returns
            """
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path),
             os.path.dirname(os.path.dirname(os.path.abspath(__file__)))],
            stdout=subprocess.PIPE, env=_child_env(), text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.strip() == "READY"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()

        orphans = RecoveryJournal(journal_dir).pending()
        assert orphans, "the kill left no journal entries to recover"
        with _service(tmp_path) as service:
            replayed = service.recover(_toy_resolver)
            assert replayed == len(orphans)
            deadline = time.monotonic() + 30.0
            while (
                service.stats.completed + service.stats.warm_hits < replayed
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert not RecoveryJournal(journal_dir).pending()
        # Zero lost requests: every orphan's result is bitwise-identical
        # to the solo path.
        cache = TuningCache(tmp_path / "cache")
        from repro.cache import fingerprint_inputs

        for entry in orphans:
            payload = _toy_payload(
                n=entry.spec["n"], scale=entry.spec["scale"]
            )
            base_out, base_counters = _toy_baseline(payload)
            kernel_key = cache.kernel_key(
                payload["program"], payload["options"], payload["size_env"]
            )
            run_key = cache.run_key(
                kernel_key, fingerprint_inputs(payload["inputs"]),
                payload["global_size"], payload["local_size"], None,
            )
            hit = cache.get_run(run_key)
            assert hit is not None
            assert hit[0].tobytes() == base_out.tobytes()
            assert hit[1] == base_counters


def test_service_and_benchsuite_share_run_entries(tmp_path):
    """A run request and ``Benchmark.run_generated`` are one
    compile-and-run function on one key: what either computed, the other
    is served, from a single ``.run`` file."""
    from repro.benchsuite.common import get_benchmark

    bench = get_benchmark("nn")
    inputs, size_env = bench.inputs_for("small")
    (stage,) = bench.stages
    program = stage.build(size_env)
    out, counters = bench.run_generated(
        inputs, size_env, cache=TuningCache(tmp_path / "cache")
    )
    assert len(list((tmp_path / "cache").glob("*.run"))) == 1
    with _service(tmp_path) as service:
        response = service.submit_run(
            program=program,
            inputs={
                p.name: inputs[name]
                for p, name in zip(program.params, stage.param_names)
            },
            size_env=size_env,
            global_size=stage.global_size(size_env),
            local_size=stage.local_size,
            options=CompilerOptions.all(local_size=stage.local_size),
        )
        served_out, served_counters = response.result(30.0)
        assert service.stats.warm_hits == 1
        assert service.cache.stats.run_hits == 1
        assert service.cache.stats.run_misses == 0
        assert service.cache.stats.puts == 0
    assert served_out.tobytes() == np.asarray(out).tobytes()
    assert served_counters == counters
    assert len(list((tmp_path / "cache").glob("*.run"))) == 1


# ---------------------------------------------------------------------------
# the hammer soak (the acceptance gate, in miniature)
# ---------------------------------------------------------------------------

class TestHammer:
    def test_hammer_bitwise_under_chaos_plan(self, tmp_path):
        from repro.benchsuite.hammer import run_hammer

        with faultinject.plan_installed("seed=11;rate=0.05"):
            report = run_hammer(
                clients=8,
                requests_per_client=2,
                cache_dir=str(tmp_path / "cache"),
                journal_dir=str(tmp_path / "journal"),
                benchmarks=("nn", "gemv"),
            )
        assert report["ok"], report
        assert report["mismatches"] == []
        assert report["client_errors"] == []
        assert report["overload_rejected"]
        assert report["replayed"] >= 1
        assert report["coalesced"] >= 7
        assert report["orphans_after_drain"] == 0

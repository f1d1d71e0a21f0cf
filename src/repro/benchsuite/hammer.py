"""``benchsuite hammer`` — concurrency-and-chaos soak of the service.

The daemon's contract is easy to state and easy to get wrong: every
result it serves — warm hit, coalesced follower, launch served by a
lower tier of its fallback chain, client resubmit, journal replay —
must be **bitwise-identical** to the same request executed by the
one-shot CLI path.  This harness checks it the hard way:

1. **Solo baselines** — each workload (single-stage benchmark ×
   optimization level) runs once through the bare
   ``compile_kernel``/``execute_kernel`` path, with no cache and fault
   injection suspended.  These outputs and counters are the ground
   truth.
2. **Overload probe** — a deliberately tiny service (one worker, queue
   capacity one, paused) is driven past capacity: the surplus submit
   must raise :class:`~repro.service.admission.ServiceOverloaded`
   (traced as ``service.reject``), and the queued work must still
   produce baseline-identical results after resume.
3. **Recovery drill** — an orphaned journal entry is planted (as a
   killed predecessor would leave it) and
   :meth:`~repro.service.daemon.TuningService.recover` must replay it
   (traced as ``service.journal.replay``) to a baseline-identical
   result.
4. **Warm race** — every client submits the *same* cold workload while
   the workers are paused; exactly one execution may happen
   (single-flight), every follower gets the identical object.
5. **The hammer proper** — ``clients`` threads (≥8 in CI) each run a
   seeded schedule of mixed cold/warm requests under the chaos fault
   plan; failed responses (a transient error that escaped the work)
   and backpressure rejections are resubmitted by the clients, the one
   retry a request gets, and *every* response is compared bitwise
   against its baseline.
6. **Graceful drain** — shutdown must complete cleanly and leave zero
   orphaned journal entries.

``run_hammer`` returns a report dict; ``ok`` is True only when all six
phases held.  ``benchmarks/check_chaos.py --service-soak`` gates CI on
it.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import faultinject, obs
from repro.benchsuite.common import Benchmark, get_benchmark
from repro.cache import TuningCache
from repro.compiler.codegen import compile_kernel
from repro.compiler.kernel import execute_kernel
from repro.compiler.options import CompilerOptions
from repro.resilience import TRANSIENT_ERRORS, RetryPolicy
from repro.service import (
    JournalEntry,
    RecoveryJournal,
    ServiceConfig,
    ServiceOverloaded,
    TuningService,
)

__all__ = [
    "HAMMER_BENCHMARKS",
    "OPTION_LEVELS",
    "Workload",
    "build_workloads",
    "solo_baseline",
    "spec_resolver",
    "run_hammer",
    "format_hammer",
]

#: Single-stage benchmarks (no ``__prev`` chaining), so one request ==
#: one kernel launch and the solo path is exactly one compile+execute.
HAMMER_BENCHMARKS = ("nn", "gemv", "mm-nvidia")

OPTION_LEVELS: Dict[str, Callable[..., CompilerOptions]] = {
    "none": CompilerOptions.none,
    "all": CompilerOptions.all,
}


@dataclass
class Workload:
    """One submittable request payload plus its journalable spec."""

    name: str  # "<benchmark>@<level>"
    spec: dict  # {"benchmark", "size", "level", "engine"} — JSON-able
    program: Any
    inputs: Dict[str, Any]
    size_env: Dict[str, int]
    global_size: tuple
    local_size: tuple
    options: CompilerOptions
    engine: Optional[str]

    def submit_kwargs(self) -> dict:
        return dict(
            program=self.program,
            inputs=self.inputs,
            size_env=self.size_env,
            global_size=self.global_size,
            local_size=self.local_size,
            options=self.options,
            engine=self.engine,
            spec=self.spec,
        )


def _materialize(spec: Mapping[str, Any]) -> Workload:
    bench: Benchmark = get_benchmark(spec["benchmark"])
    inputs, size_env = bench.inputs_for(spec["size"])
    stage = bench.stages[0]
    fun = stage.build(size_env)
    options = OPTION_LEVELS[spec["level"]](local_size=stage.local_size)
    stage_inputs = {
        param.name: inputs[name]
        for param, name in zip(fun.params, stage.param_names)
    }
    return Workload(
        name=f"{spec['benchmark']}@{spec['level']}",
        spec=dict(spec),
        program=fun,
        inputs=stage_inputs,
        size_env=dict(size_env),
        global_size=tuple(stage.global_size(size_env)),
        local_size=tuple(stage.local_size),
        options=options,
        engine=spec.get("engine"),
    )


def build_workloads(
    benchmarks: Sequence[str] = HAMMER_BENCHMARKS,
    levels: Sequence[str] = ("none", "all"),
    size: str = "small",
    engine: Optional[str] = None,
) -> List[Workload]:
    return [
        _materialize(
            {"benchmark": b, "size": size, "level": lv, "engine": engine}
        )
        for b in benchmarks
        for lv in levels
    ]


def spec_resolver(entry: JournalEntry) -> Optional[dict]:
    """Rebuild submission kwargs from a journaled hammer spec (the
    resolver handed to :meth:`TuningService.recover`)."""
    spec = entry.spec or {}
    if "benchmark" not in spec or spec["benchmark"] not in HAMMER_BENCHMARKS:
        return None
    if spec.get("level") not in OPTION_LEVELS:
        return None
    return _materialize(spec).submit_kwargs()


def solo_baseline(workload: Workload) -> tuple:
    """The one-shot CLI path: bare compile+execute, no cache, fault
    injection suspended — the ground truth for bitwise checks."""
    with faultinject.plan_installed(None):
        compiled = compile_kernel(workload.program, workload.options)
        result = execute_kernel(
            compiled,
            workload.inputs,
            workload.size_env,
            workload.global_size,
            local_size=workload.local_size,
            engine=workload.engine,
        )
    return result.output, result.counters


def _matches(baseline: tuple, got: Any) -> bool:
    base_out, base_counters = baseline
    try:
        out, counters = got
    except (TypeError, ValueError):
        return False
    return (
        isinstance(out, np.ndarray)
        and out.dtype == base_out.dtype
        and out.shape == base_out.shape
        and out.tobytes() == base_out.tobytes()
        and counters == base_counters
    )


def run_hammer(
    clients: int = 8,
    requests_per_client: int = 6,
    cache_dir: "str | None" = None,
    journal_dir: "str | None" = None,
    seed: int = 23,
    engine: Optional[str] = None,
    benchmarks: Sequence[str] = HAMMER_BENCHMARKS,
) -> dict:
    """Run the six-phase soak; see the module docstring.  Honours any
    active fault plan (``--fault-plan``/``REPRO_FAULT_PLAN``) for every
    phase except the solo baselines."""
    import tempfile

    workloads = build_workloads(benchmarks, engine=engine)
    baselines = {w.name: solo_baseline(w) for w in workloads}

    scratch = tempfile.mkdtemp(prefix="repro-hammer-")
    cache_dir = cache_dir or f"{scratch}/cache"
    journal_dir = journal_dir or f"{scratch}/journal"

    report: dict = {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "workloads": [w.name for w in workloads],
        "mismatches": [],
        "client_errors": [],
        "resubmits": 0,
    }

    # -- phase 2: overload probe --------------------------------------
    probe_cfg = ServiceConfig(workers=1, max_queue=1, journal_dir=None)
    rejected = False
    with TuningService(cache=None, config=probe_cfg) as probe:
        probe.pause()
        first = probe.submit_run(**workloads[0].submit_kwargs())
        try:
            probe.submit_run(**workloads[1].submit_kwargs())
        except ServiceOverloaded:
            rejected = True
        probe.resume()
        queued = first.result(timeout=60.0)
        if not _matches(baselines[workloads[0].name], queued):
            report["mismatches"].append(("overload-probe", workloads[0].name))
    report["overload_rejected"] = rejected

    # -- phases 3-6: the main service ---------------------------------
    cache = TuningCache(cache_dir)
    config = ServiceConfig(
        workers=4,
        max_queue=max(8, 2 * clients),
        journal_dir=journal_dir,
    )

    # Plant the orphan a killed predecessor would leave behind.
    planted = JournalEntry(
        request_id="orphan-drill-1",
        kind="run",
        structural_hash="",
        spec=workloads[0].spec,
    )
    with faultinject.plan_installed(None):
        # The drill is about replay, not journal-write faults.
        RecoveryJournal(journal_dir).begin(planted)

    service = TuningService(cache=cache, config=config)
    try:
        replayed = service.recover(spec_resolver)
        report["replayed"] = replayed

        # -- phase 4: warm race (single-flight) -----------------------
        race = workloads[1]
        service.pause()
        responses = [
            service.submit_run(**race.submit_kwargs()) for _ in range(clients)
        ]
        service.resume()
        for response in responses:
            if not _matches(baselines[race.name], response.result(60.0)):
                report["mismatches"].append(("warm-race", race.name))
        report["coalesced"] = service.stats.coalesced

        # -- phase 5: the hammer proper -------------------------------
        lock = threading.Lock()

        def client(index: int) -> None:
            policy = RetryPolicy(attempts=6, base_delay=0.01)
            # Seeded schedule: deterministic per (seed, client).
            schedule = random.Random(f"hammer:{seed}:{index}")
            for step in range(requests_per_client):
                workload = workloads[schedule.randrange(len(workloads))]

                def once():
                    response = service.submit_run(**workload.submit_kwargs())
                    return response.result(timeout=60.0)

                try:
                    got = policy.call(
                        once,
                        retry_on=TRANSIENT_ERRORS + (ServiceOverloaded,),
                        on_retry=lambda *_: _count_resubmit(),
                    )
                except Exception as exc:  # noqa: BLE001 - reported below
                    with lock:
                        report["client_errors"].append(
                            f"client {index} step {step}: "
                            f"{type(exc).__name__}: {exc}"
                        )
                    continue
                if not _matches(baselines[workload.name], got):
                    with lock:
                        report["mismatches"].append(
                            (f"client-{index}", workload.name)
                        )

        def _count_resubmit() -> None:
            with lock:
                report["resubmits"] += 1

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        report["stuck_clients"] = sum(1 for t in threads if t.is_alive())
    finally:
        # -- phase 6: graceful drain ----------------------------------
        report["drained_clean"] = service.shutdown()

    journal = RecoveryJournal(journal_dir)
    report["orphans_after_drain"] = len(journal)
    report["stats"] = service.stats.as_dict()
    report["cache"] = {
        "run_hits": cache.stats.run_hits,
        "run_misses": cache.stats.run_misses,
    }
    # Latency SLOs per request class, from the quantile histograms the
    # service populated during the soak.  Structural only: CI asserts
    # the table's shape, never absolute latencies.
    report["slo"] = obs.analysis.slo_table()
    report["ok"] = (
        not report["mismatches"]
        and not report["client_errors"]
        and report["overload_rejected"]
        and report["replayed"] >= 1
        and report["coalesced"] >= clients - 1
        and report["stuck_clients"] == 0
        and report["drained_clean"]
        and report["orphans_after_drain"] == 0
    )
    obs.instant("service.hammer.done", ok=report["ok"])
    return report


def format_hammer(report: dict) -> str:
    lines = [
        "service hammer "
        f"({report['clients']} clients x {report['requests_per_client']} "
        f"requests over {len(report['workloads'])} workloads)",
        f"  completed: {report['stats']['completed']}  "
        f"warm hits: {report['stats']['warm_hits']}  "
        f"coalesced: {report['stats']['coalesced']}  "
        f"rejects: {report['stats']['rejects']}",
        f"  infra failures: {report['stats']['infra_failures']}  "
        f"client resubmits: {report['resubmits']}  "
        f"replayed orphans: {report['replayed']}",
        f"  drain clean: {report['drained_clean']}  "
        f"orphans after drain: {report['orphans_after_drain']}",
    ]
    if report["mismatches"]:
        lines.append(f"  BITWISE MISMATCHES: {report['mismatches']}")
    if report["client_errors"]:
        lines.append(f"  CLIENT ERRORS: {report['client_errors']}")
    from repro.obs import analysis

    for line in analysis.format_slo(report.get("slo", [])).splitlines():
        lines.append("  " + line)
    lines.append(
        "  verdict: "
        + ("OK — every response bitwise-identical to the solo path"
           if report["ok"] else "FAILED")
    )
    return "\n".join(lines)

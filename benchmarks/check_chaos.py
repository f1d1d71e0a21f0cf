"""CI chaos gate: injected faults must change *nothing* but timing.

Runs the figure8 evaluation (small size) twice — once fault-free, once
under a deterministic fault plan firing at every injection site (cache
read/write, compile, simulate, verify, backend-run) — each against its
own fresh tuning cache, and asserts:

1. **bitwise-identical results** — every figure cell (relative
   performance, reference cycles, generated cycles) is *exactly* equal
   between the two runs: all recovery paths (in-place retry at
   pre-side-effect sites, the explorer's retry loop, backend fallback)
   are observationally transparent;
2. **faults actually landed** — `faultinject.total_injected() > 0`,
   so a green run cannot mean "the harness was off";
3. **no uncaught exceptions** — both runs complete (any escape fails
   the script outright).

Recoveries are printed (injection counters, cache recovery stats, the
degradation ledger) so the CI log shows what the run survived.

With ``--service-soak`` it instead gates the service layer: the
``benchsuite hammer`` soak (concurrent clients, warm races, forced
backpressure, a planted journal orphan, graceful drain) runs under the
same fault plan and must report every response bitwise-identical to the
solo path, faults landed, backpressure exercised, the orphan replayed,
every ``ServiceStats`` field matched by its ``service.<field>`` process
counter, and the breaker/queue state visible in the metrics snapshot.

Exit status 0 = pass, 1 = divergence (with a report on stdout).

Usage::

    python benchmarks/check_chaos.py [--plan "seed=11;rate=0.05"]
        [--benchmarks nn gemv ...]
    python benchmarks/check_chaos.py --service-soak [--clients 8]

See ``src/repro/RESILIENCE.md`` for the site map and recovery
semantics, ``src/repro/SERVICE.md`` for the service guarantees.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

DEFAULT_PLAN = "seed=11;rate=0.05"


def run_cells(benchmarks, cache_dir):
    from repro.benchsuite.figure8 import run_figure8
    from repro.cache import TuningCache

    cache = TuningCache(cache_dir)
    cells = run_figure8(benchmarks, sizes=("small",), cache=cache)
    return cells, cache


def cell_key(cell) -> tuple:
    return (cell.benchmark, cell.size, cell.level, cell.device)


def run_service_soak(plan, clients: int) -> int:
    """The hammer soak as a CI gate: everything the hammer verifies,
    plus "faults actually landed" and "the service surfaced its state
    through the unified metrics snapshot"."""
    from repro import faultinject, obs
    from repro.backend import ledger
    from repro.benchsuite.hammer import format_hammer, run_hammer

    ledger.clear()
    print(f"[chaos] service soak under plan {plan.describe()}")
    faultinject.set_plan(plan)
    try:
        report = run_hammer(clients=clients)
        injected = faultinject.total_injected()
        site_counts = faultinject.counts()
    finally:
        faultinject.clear_plan()
    print(format_hammer(report))

    failures = []
    if not report["ok"]:
        failures.append("hammer verdict FAILED (see report above)")
    if report["mismatches"]:
        failures.append(f"bitwise mismatches: {report['mismatches']}")
    if report["client_errors"]:
        failures.append(f"client errors: {report['client_errors']}")
    if injected <= 0:
        failures.append(
            f"plan {plan.describe()} injected no faults — the soak "
            "exercised nothing"
        )
    if not report["overload_rejected"]:
        failures.append("backpressure never fired (no overload reject)")
    if report["replayed"] < 1:
        failures.append("journal replay never fired (zero orphans replayed)")

    # The breaker/queue state must be observable: every service event is
    # also a process counter ``service.<field>`` (at least the main
    # service's count: the overload probe adds its own), and the
    # snapshot carries the service section.
    snapshot = obs.snapshot()
    counters = snapshot.get("counters", {})
    for field, value in report["stats"].items():
        metric = f"service.{field}"
        if counters.get(metric, 0) < value:
            failures.append(
                f"counter {metric!r} = {counters.get(metric, 0)} is below "
                f"the service's {field} = {value}"
            )
    if "service.queue_depth" not in snapshot.get("gauges", {}):
        failures.append("metrics snapshot missing gauge 'service.queue_depth'")
    if "active" not in snapshot.get("service", {}):
        failures.append("metrics snapshot missing the 'service' section")

    # The SLO table must be *structurally* present — every quantile key
    # on every observed request class.  No absolute-latency assertions:
    # CI machines are too noisy for wall-clock thresholds, the gate
    # only guarantees the attribution plumbing works.
    slo_rows = report.get("slo") or []
    if not slo_rows:
        failures.append("hammer report carries no SLO table")
    observed = {row.get("class") for row in slo_rows}
    if "cold" not in observed:
        failures.append(
            f"SLO table missing the 'cold' request class (has {sorted(observed)})"
        )
    for row in slo_rows:
        missing = [
            k for k in ("count", "p50_ms", "p95_ms", "p99_ms", "max_ms")
            if row.get(k) is None
        ]
        if missing:
            failures.append(
                f"SLO row {row.get('class')!r} missing {missing}"
            )

    print(f"[chaos] {injected} faults injected")
    for site, c in sorted(site_counts.items()):
        if c.checks:
            print(
                f"[chaos]   {site}: {c.injected}/{c.checks} injected "
                f"({c.recovered} retried in place, {c.escaped} escaped)"
            )
    print(f"[chaos] {ledger.summary()}")

    if failures:
        print(f"\nFAIL: {len(failures)} service-soak violation(s)")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"\nOK: service soak bitwise-identical under plan "
        f"{plan.describe()} ({report['stats']['completed']} completed, "
        f"{report['stats']['warm_hits']} warm hits, "
        f"{report['replayed']} replayed)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--plan", default=DEFAULT_PLAN,
        help=f"fault-plan spec for the chaos run (default {DEFAULT_PLAN!r})",
    )
    parser.add_argument(
        "--benchmarks", nargs="+", default=None,
        help="restrict to these figure8 benchmarks (default: all)",
    )
    parser.add_argument(
        "--service-soak", action="store_true",
        help="gate the service layer (benchsuite hammer) instead of "
             "the figure8 evaluation",
    )
    parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent hammer clients for --service-soak",
    )
    args = parser.parse_args(argv)

    from repro import faultinject
    from repro.backend import ledger

    plan = faultinject.FaultPlan.parse(args.plan)
    if plan is None:
        print(f"FAIL: plan {args.plan!r} injects nothing")
        return 1

    if args.service_soak:
        return run_service_soak(plan, args.clients)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        tmp = Path(tmp)

        faultinject.clear_plan()
        ledger.clear()
        print(f"[chaos] fault-free run (cache {tmp / 'clean'})")
        clean_cells, _ = run_cells(args.benchmarks, tmp / "clean")

        ledger.clear()
        print(f"[chaos] faulted run: {plan.describe()} (cache {tmp / 'chaos'})")
        faultinject.set_plan(plan)
        try:
            chaos_cells, chaos_cache = run_cells(args.benchmarks, tmp / "chaos")
            injected = faultinject.total_injected()
            site_counts = faultinject.counts()
        finally:
            faultinject.clear_plan()

    failures = []

    clean = {cell_key(c): c for c in clean_cells}
    chaos = {cell_key(c): c for c in chaos_cells}
    if sorted(clean) != sorted(chaos):
        failures.append(
            f"cell sets differ: {sorted(set(clean) ^ set(chaos))}"
        )
    for key in sorted(set(clean) & set(chaos)):
        a, b = clean[key], chaos[key]
        for field in (
            "relative_performance", "reference_cycles", "generated_cycles"
        ):
            va, vb = getattr(a, field), getattr(b, field)
            if va != vb:  # exact: recovery must be bitwise-transparent
                failures.append(
                    f"{'/'.join(key)}: {field} diverged "
                    f"(clean {va!r} vs chaos {vb!r})"
                )

    if injected <= 0:
        failures.append(
            f"plan {plan.describe()} injected no faults — the chaos run "
            "exercised nothing"
        )

    print(f"[chaos] {injected} faults injected")
    for site, c in sorted(site_counts.items()):
        if c.checks:
            print(
                f"[chaos]   {site}: {c.injected}/{c.checks} injected "
                f"({c.recovered} retried in place, {c.escaped} escaped)"
            )
    s = chaos_cache.stats
    print(
        f"[chaos] cache: {s.run_hits} run hits, {s.io_errors} io errors, "
        f"{s.write_skips} write skips, {s.quarantined} quarantined, "
        f"{s.faults_recovered} faults recovered"
    )
    print(f"[chaos] {ledger.summary()}")

    if failures:
        print(f"\nFAIL: {len(failures)} divergence(s) under injected faults")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"\nOK: {len(chaos)} figure8 cells bitwise-identical under "
        f"plan {plan.describe()}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

Exit status 0 = pass, 1 = divergence (with a report on stdout).

Usage::

    python benchmarks/check_chaos.py [--plan "seed=11;rate=0.05"]
        [--benchmarks nn gemv ...]

See ``src/repro/RESILIENCE.md`` for the site map and recovery
semantics.
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
    args = parser.parse_args(argv)

    from repro import faultinject
    from repro.backend import ledger

    plan = faultinject.FaultPlan.parse(args.plan)
    if plan is None:
        print(f"FAIL: plan {args.plan!r} injects nothing")
        return 1

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

"""CI gate: fail when simulator or exploration performance regresses.

Absolute work-items/s numbers are machine-dependent (the baselines were
recorded on one box, CI runners are another), so the gate compares
*machine-relative ratios*, which travel:

* **simulator** — for each smoke kernel (the hand-written SAXPY and
  barrier reduction, and the generated level-``all`` mriq and
  mm-nvidia), the speedup of the compiled lane-batched tier over the
  scalar reference interpreter, measured here, must stay within
  ``TOLERANCE`` (30%) of the same ratio in the checked-in
  ``BENCH_simulator.json``.  A >30% drop means someone made the lane
  tier slower (or the scalar path faster without touching the lane
  tier — also worth a look).
* **exploration** — given a ``BENCH_explore`` metrics file (produced by
  ``bench_explore.py`` earlier in the CI job), a warm tuning cache must
  still perform **zero** recompilations with full cycle-cache hit
  rates, the cold/warm wall-clock ratio must stay within
  ``TOLERANCE`` of the checked-in ``BENCH_explore.json`` baseline, and
  the structural keys the three warm searches compute (a count, so
  machine-independent) must not exceed the recorded number.
* **explorer quality** — per benchmark, the explorer's best schedule
  must still at least match the fixed menu (``best_vs_menu <= 1``), and
  the derived-mm-vs-menu runtime ratio must stay within ``TOLERANCE``
  of the baseline ratio: if the explorer stops deriving the 2-D tiled
  mm schedule (or the cost model stops preferring it), this gate fails.
  Both sides are simulated cycle estimates, so the ratios are
  machine-independent.
* **front end** — reading a generated kernel back (``parse``, which
  lexes) must stay cheaper than generating it (``compile_kernel``):
  the ratio of the two medians over the level-``all`` small kernels of
  the 13 stages must stay within ``TOLERANCE`` of the one recorded in
  ``BENCH_frontend.json`` (0.37 with the simplifier's memos emptied
  before each compile; it was 1.23 before the one-regex lexer and the
  precedence-climbing parser, and 0.46 before ``compiler/hoist.py``
  joined ``compile_kernel``).
* **figure 8** — the quality of the generated code: every ``+AAS`` bar
  (hand-written cycles / generated cycles, both sizes, both device
  profiles) must stay within 0.005 of its row in ``BENCH_figure8.json``
  and at or above 0.97, their geometric mean at or above 0.99.  Both
  sides are simulated cycles, so there is no machine-speed tolerance: a
  lower bar is a compiler or stage change, and a deliberate one
  re-records the file.

Exit status 0 = pass, 1 = regression (with a report on stdout).

Usage::

    python benchmarks/check_perf_regression.py [--explore-json PATH]
        [--frontend-json PATH] [--baseline-dir benchmarks]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

TOLERANCE = 0.30

# The measured kernels and launch shapes are the ones bench_simulator.py
# records into BENCH_simulator.json — imported, not duplicated, so the
# gate cannot silently drift from its baseline.
sys.path.insert(0, str(Path(__file__).parent))
from bench_simulator import (  # noqa: E402
    GENERATED,
    REDUCTION_LOCAL,
    REDUCTION_N,
    REDUCTION_SOURCE,
    SAXPY_LOCAL,
    SAXPY_N,
    SAXPY_SOURCE,
    generated_kernel,
)


def _best_launch_seconds(source, global_size, local_size, make_args,
                         engine, repeats) -> float:
    """Fastest of ``repeats`` launches.

    The minimum estimates the uncontended cost, which is what makes the
    ratio below stable on shared CI runners (a median would fold other
    tenants' noise into the gate).
    """
    from repro.opencl import OpenCLProgram, launch

    program = OpenCLProgram(source)
    launch(program, global_size, local_size, make_args(), engine=engine)
    times = []
    for _ in range(repeats):
        args = make_args()
        t0 = time.perf_counter()
        launch(program, global_size, local_size, args, engine=engine)
        times.append(time.perf_counter() - t0)
    return min(times)


def measure_simulator_speedups() -> dict:
    """``{smoke kernel: compiled-vs-scalar speedup}`` on this machine."""
    from repro.opencl import Buffer

    n = SAXPY_N
    x = Buffer.from_array(np.arange(n, dtype=float))
    y = Buffer.from_array(np.ones(n))

    def saxpy_args():
        return {"x": x, "y": y, "out": Buffer.zeros(n), "a": 2.0, "n": n}

    nr = REDUCTION_N
    xr = Buffer.from_array(np.ones(nr))

    def reduce_args():
        return {"x": xr, "out": Buffer.zeros(nr // REDUCTION_LOCAL)}

    speedups = {}
    for name, source, gsize, lsize, make_args in (
        ("test_simulator_saxpy_throughput", SAXPY_SOURCE, n, SAXPY_LOCAL,
         saxpy_args),
        ("test_simulator_barrier_lockstep_throughput", REDUCTION_SOURCE, nr,
         REDUCTION_LOCAL, reduce_args),
    ):
        scalar = _best_launch_seconds(
            source, gsize, lsize, make_args, "scalar", repeats=5
        )
        compiled = _best_launch_seconds(
            source, gsize, lsize, make_args, "compiled", repeats=60
        )
        speedups[name] = scalar / compiled
    for name in GENERATED:
        run, _ = generated_kernel(name)
        scalar = _best_run_seconds(run, "scalar", repeats=3)
        compiled = _best_run_seconds(run, "compiled", repeats=20)
        speedups[_generated_row(name)] = scalar / compiled
    return speedups


def _generated_row(name: str) -> str:
    return f"test_simulator_generated_throughput[{name}]"


def _best_run_seconds(run, engine, repeats) -> float:
    """Fastest of ``repeats`` calls of ``run(engine)`` after a warm-up
    (see :func:`_best_launch_seconds`)."""
    run(engine)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(engine)
        times.append(time.perf_counter() - t0)
    return min(times)



def baseline_simulator_speedups(baseline: dict) -> dict:
    """The engine-speedup ratios recorded in BENCH_simulator.json."""
    benches = baseline["benchmarks"]
    out = {}
    for name in (
        "test_simulator_saxpy_throughput",
        "test_simulator_barrier_lockstep_throughput",
    ):
        scalar = benches[f"{name}[scalar]"]["median_s"]
        compiled = benches[f"{name}[compiled]"]["median_s"]
        out[name] = scalar / compiled
    for name in GENERATED:
        row = _generated_row(name)
        scalar = benches[f"{row[:-1]}-scalar]"]["median_s"]
        out[row] = scalar / benches[f"{row[:-1]}-compiled]"]["median_s"]
    return out


def check_simulator(baseline_path: Path) -> list:
    baseline = json.loads(baseline_path.read_text())
    expected = baseline_simulator_speedups(baseline)
    measured = measure_simulator_speedups()
    failures = []
    for name, base_ratio in expected.items():
        now = measured[name]
        floor = (1.0 - TOLERANCE) * base_ratio
        label = "compiled/scalar"
        status = "ok" if now >= floor else "REGRESSION"
        print(
            f"[simulator] {name}: {label} speedup {now:.1f}x "
            f"(baseline {base_ratio:.1f}x, floor {floor:.1f}x) {status}"
        )
        if now < floor:
            failures.append(
                f"{name}: {label} speedup {now:.1f}x below floor {floor:.1f}x"
            )
    return failures


def measure_frontend() -> dict:
    """Median seconds to ``parse`` and to ``compile_kernel`` one
    level-``all`` small kernel, over the 13 stages, and their ratio.

    A repeated compile prints the same names, so the simplifier's memos
    would answer it; they are emptied before each timed compile, which
    then costs what a program's first compile does."""
    from repro.arith.simplify import clear_caches
    from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
    from repro.compiler import OPTIMIZATION_LEVELS, compile_kernel
    from repro.opencl.cparser import parse

    def best(fn, repeats=7, setup=lambda: None):
        times = []
        for _ in range(repeats):
            setup()
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
        return min(times), result

    parse_s, compile_s = [], []
    for name in ALL_BENCHMARKS:
        bench = get_benchmark(name)
        for stage in bench.stages:
            fun = stage.build(dict(bench.sizes["small"]))
            options = OPTIMIZATION_LEVELS["all"](local_size=stage.local_size)
            seconds, kernel = best(
                lambda: compile_kernel(fun, options, memo=False),
                setup=clear_caches,
            )
            compile_s.append(seconds)
            parse_s.append(best(lambda: parse(kernel.source))[0])
    parse_median, compile_median = np.median(parse_s), np.median(compile_s)
    return {
        "kernels": len(parse_s),
        "parse_median_s": float(parse_median),
        "compile_median_s": float(compile_median),
        "parse_over_compile": float(parse_median / compile_median),
    }


def check_frontend(baseline_path: Path, out_path=None) -> list:
    base_ratio = json.loads(baseline_path.read_text())["parse_over_compile"]
    measured = measure_frontend()
    if out_path is not None:
        out_path.write_text(json.dumps(measured, indent=2) + "\n")
    now = measured["parse_over_compile"]
    ceiling = base_ratio * (1.0 + TOLERANCE)
    status = "ok" if now <= ceiling else "REGRESSION"
    print(
        f"[frontend] parse/compile_kernel time ratio {now:.2f} over "
        f"{measured['kernels']} kernels (baseline {base_ratio:.2f}, "
        f"ceiling {ceiling:.2f}) {status}"
    )
    if now > ceiling:
        return [
            f"frontend: parse/compile_kernel ratio {now:.2f} above ceiling "
            f"{ceiling:.2f} - reading a kernel back got slower relative to "
            "generating it"
        ]
    return []


def check_figure8(baseline_path: Path) -> list:
    from repro.benchsuite.figure8 import (
        GEOMEAN_FLOOR,
        floor_failures,
        geometric_mean_aas,
        run_figure8,
    )

    baseline = json.loads(baseline_path.read_text())
    cells = run_figure8(sizes=("small", "large"), seed=baseline["seed"])
    failures = floor_failures(cells, baseline)
    lowest = min(
        (c for c in cells if c.level == "all"),
        key=lambda c: c.relative_performance,
    )
    print(
        f"[figure8] {len(baseline['rows'])} rows, geometric mean (+AAS) "
        f"{geometric_mean_aas(cells):.3f} (recorded "
        f"{baseline['geometric_mean_aas']:.3f}, floor {GEOMEAN_FLOOR}); "
        f"lowest row {lowest.benchmark}/{lowest.device}/{lowest.size} "
        f"{lowest.relative_performance:.3f}; "
        f"{'REGRESSION' if failures else 'ok'}"
    )
    return failures


#: Absolute ceiling on one disabled ``obs.span()`` round-trip.  The
#: real cost is a module attribute load plus a shared-singleton context
#: manager (~0.2 µs); the ceiling is an order of magnitude above that
#: so the gate only fires if the fast path gains allocation or locking.
OBS_DISABLED_SPAN_MAX_US = 5.0


def check_obs_overhead() -> list:
    """Gate the observability subsystem's disabled fast path.

    Two guarantees: (1) tracing, and with it the kernel segment spans
    and traffic rows, is *off* unless explicitly enabled — instrumented
    hot paths must not pay for it by default (the SAXPY throughput gate
    above runs with every span call site compiled in, so it implicitly
    prices the enabled attribute loads); (2) a disabled ``span()`` costs roughly a dict
    lookup, not an allocation.
    """
    import os

    from repro import obs

    failures = []
    if not os.environ.get("REPRO_TRACE") and obs.tracing_enabled():
        failures.append("obs: tracing active without REPRO_TRACE set")

    if obs.tracing_enabled():
        print("[obs] tracing enabled via REPRO_TRACE; disabled-path "
              "cost not measured")
        return failures

    calls = 200_000
    t0 = time.perf_counter()
    for _ in range(calls):
        with obs.span("gate", i=0):
            pass
    per_call_us = (time.perf_counter() - t0) / calls * 1e6
    status = "ok" if per_call_us <= OBS_DISABLED_SPAN_MAX_US else "REGRESSION"
    print(
        f"[obs] disabled span(): {per_call_us:.3f} us/call "
        f"(ceiling {OBS_DISABLED_SPAN_MAX_US:.1f} us) {status}"
    )
    if per_call_us > OBS_DISABLED_SPAN_MAX_US:
        failures.append(
            f"obs: disabled span() costs {per_call_us:.3f} us/call, above "
            f"the {OBS_DISABLED_SPAN_MAX_US:.1f} us ceiling — the no-op "
            "fast path regressed"
        )
    return failures


def check_explore(metrics_path: Path, baseline_path: Path) -> list:
    metrics = json.loads(metrics_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    failures = []

    for name, entry in metrics.get("benchmarks", {}).items():
        if entry.get("warm_compilations", 0) != 0:
            failures.append(f"explore[{name}]: warm run recompiled kernels")
        if entry.get("warm_cycle_cache_hit_rate", 0.0) < 1.0:
            failures.append(f"explore[{name}]: warm run re-executed kernels")

        # The flagship derivation is asserted structurally, not through
        # the ratio: menu and search are compiled, verified and costed
        # by one evaluator, and the menu contains the tiled mm schedule
        # too, so best-vs-menu parity (1.0) is the expected value on
        # all three benchmarks — but the explorer must still *derive*
        # the 2-D tiling itself.
        trace = entry.get("best_trace")
        if name == "mm" and trace is not None:
            if not any("tile-2d" in step for step in trace):
                failures.append(
                    "explore[mm]: explorer best derivation lost the 2-D "
                    "tiled schedule"
                )

        ratio = entry.get("best_vs_menu")
        if ratio is not None and ratio > 1.0 + 1e-9:
            failures.append(
                f"explore[{name}]: explorer best ({ratio:.3f}x menu) worse "
                "than the fixed lowering menu"
            )
        base_entry = baseline.get("benchmarks", {}).get(name, {})
        base_ratio = base_entry.get("best_vs_menu")
        if ratio is not None and base_ratio is not None:
            ceiling = base_ratio * (1.0 + TOLERANCE)
            status = "ok" if ratio <= ceiling else "REGRESSION"
            print(
                f"[explore] {name}: best-vs-menu ratio {ratio:.3f} "
                f"(baseline {base_ratio:.3f}, ceiling {ceiling:.3f}) {status}"
            )
            if ratio > ceiling:
                failures.append(
                    f"explore[{name}]: best-vs-menu ratio {ratio:.3f} above "
                    f"ceiling {ceiling:.3f} — the explorer lost a derived "
                    "schedule (for mm, the 2-D tiled one)"
                )

    # What a warm search *computes* does not depend on the machine: its
    # structural keys are built for the nodes its rewrites allocated, so
    # a count above the recorded one means some consumer went back to
    # walking (or re-keying) whole programs.
    keys = metrics.get("warm_keys_computed")
    base_keys = baseline.get("warm_keys_computed")
    if keys is not None and base_keys is not None:
        status = "ok" if keys <= base_keys else "REGRESSION"
        print(
            f"[explore] structural keys per warm search: {keys} "
            f"(recorded {base_keys}) {status}"
        )
        if keys > base_keys:
            failures.append(
                f"explore: {keys} structural keys computed per warm search, "
                f"recorded {base_keys}"
            )

    cold = metrics.get("cold_total_seconds")
    warm = metrics.get("warm_total_seconds")
    base_cold = baseline.get("cold_total_seconds")
    base_warm = baseline.get("warm_total_seconds")
    if cold and warm and base_cold and base_warm:
        ratio = cold / warm
        base_ratio = base_cold / base_warm
        # The warm leg is a single sub-second measurement (bench_explore
        # runs each pass once), so the wall-clock ratio gets an extra
        # factor of 2 of noise headroom on top of TOLERANCE; the hard
        # guarantees above (zero recompiles, full hit rates) are the
        # deterministic part of this gate.
        floor = (1.0 - TOLERANCE) * base_ratio / 2.0
        status = "ok" if ratio >= floor else "REGRESSION"
        print(
            f"[explore] warm-cache speedup {ratio:.1f}x "
            f"(baseline {base_ratio:.1f}x, floor {floor:.1f}x) {status}"
        )
        if ratio < floor:
            failures.append(
                f"explore: warm speedup {ratio:.1f}x below floor {floor:.1f}x"
            )
    return failures


def check_calibration(metrics_path: Path, floor_path: Path) -> list:
    """Gate the cost model's rank quality on the benchmark menus.

    ``metrics_path`` is a ``--metrics-json`` snapshot from a
    ``benchsuite calibrate`` run; its ``calibration.workloads`` section
    carries per-workload Spearman rank correlation between the static
    prediction and the measured-counter runtime.  The checked-in floors
    (``calibration_floor.json``) are set well below the recorded values
    (~0.9) so noise cannot fire the gate, but a cost-model change that
    scrambles the ranking (correlation collapsing toward zero) fails
    loudly.  Top-5 regret is gated as a hard ceiling: the true best
    schedule must stay inside the model's top-5 shortlist within the
    recorded margin."""
    metrics = json.loads(metrics_path.read_text())
    floors = json.loads(floor_path.read_text())
    workloads = metrics.get("calibration", {}).get("workloads", {})
    failures = []
    for name, floor in floors["spearman_floor"].items():
        entry = workloads.get(name)
        if entry is None or entry.get("spearman") is None:
            failures.append(
                f"calibration[{name}]: no calibration records in "
                f"{metrics_path} — did the calibrate run cover it?"
            )
            continue
        rho = entry["spearman"]
        status = "ok" if rho >= floor else "REGRESSION"
        print(
            f"[calibration] {name}: spearman {rho:.3f} "
            f"(floor {floor:.2f}) {status}"
        )
        if rho < floor:
            failures.append(
                f"calibration[{name}]: rank correlation {rho:.3f} below "
                f"floor {floor:.2f} — the static cost model no longer "
                "ranks candidates the way measured counters do"
            )
    ceiling = floors.get("top5_regret_ceiling")
    if ceiling is not None:
        for name, entry in workloads.items():
            regret = entry.get("top5_regret")
            if regret is None:
                continue
            status = "ok" if regret <= ceiling else "REGRESSION"
            print(
                f"[calibration] {name}: top-5 regret {regret * 100:.1f}% "
                f"(ceiling {ceiling * 100:.0f}%) {status}"
            )
            if regret > ceiling:
                failures.append(
                    f"calibration[{name}]: top-5 regret "
                    f"{regret * 100:.1f}% above the "
                    f"{ceiling * 100:.0f}% ceiling — the true best "
                    "schedule fell out of the model's shortlist"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-dir", default=Path(__file__).parent, type=Path,
        help="directory holding the BENCH_simulator / BENCH_frontend / "
             "BENCH_figure8 / BENCH_explore baselines",
    )
    parser.add_argument(
        "--explore-json", default=None, type=Path,
        help="BENCH_explore metrics produced by bench_explore.py in this "
             "run; the explore gate is skipped when absent",
    )
    parser.add_argument(
        "--calibration-json", default=None, type=Path,
        help="metrics snapshot from a `benchsuite calibrate` run; the "
             "calibration gate is skipped when absent",
    )
    parser.add_argument(
        "--frontend-json", default=None, type=Path,
        help="where to write the front-end ratio measured in this run",
    )
    args = parser.parse_args(argv)

    failures = check_simulator(args.baseline_dir / "BENCH_simulator.json")
    failures += check_frontend(
        args.baseline_dir / "BENCH_frontend.json", args.frontend_json
    )
    failures += check_figure8(args.baseline_dir / "BENCH_figure8.json")
    failures += check_obs_overhead()
    if args.explore_json is not None and args.explore_json.exists():
        failures += check_explore(
            args.explore_json, args.baseline_dir / "BENCH_explore.json"
        )
    elif args.explore_json is not None:
        print(f"[explore] metrics file {args.explore_json} missing; skipped")
    if args.calibration_json is not None and args.calibration_json.exists():
        failures += check_calibration(
            args.calibration_json,
            args.baseline_dir / "calibration_floor.json",
        )
    elif args.calibration_json is not None:
        print(
            f"[calibration] metrics file {args.calibration_json} missing; "
            "skipped"
        )

    if failures:
        print("\nperformance regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperformance regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

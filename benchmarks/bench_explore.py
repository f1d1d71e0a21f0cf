"""Rewrite-space exploration: search throughput and cache effectiveness.

Tracks the cost of a full derivation-space exploration (enumerate →
dedup → prune → compile → simulate → verify) and what the persistent
:mod:`repro.cache` store buys on a second run.  ``python
benchmarks/bench_explore.py`` regenerates the committed baseline
``BENCH_explore.json`` (candidates enumerated, dedup hit-rate, cache
hit-rate, best-vs-menu cycles, cold vs warm wall time, structural keys
computed per warm search, the oracle's cost relative to a kernel
compile) and prints where a warm search spends its time, phase by
phase.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro import obs
from repro.cache import TuningCache
from repro.benchsuite.explore import explore_benchmark, run_explore

#: Timed rounds of the oracle measure; each side keeps its best.
ORACLE_ROUNDS = 15

#: The spans a warm search is made of, outermost first.
PHASE_SPANS = (
    "explore.enumerate", "explore.finish", "explore.static-cost",
    "explore.evaluate", "menu",
)


def test_explore_warm_cache_skips_all_recompilation(tmp_path):
    """A second exploration with a warm store performs zero
    recompilations and zero re-executions, and is faster than the cold
    run (the tentpole acceptance criterion)."""
    cache = TuningCache(tmp_path)

    start = time.perf_counter()
    cold = explore_benchmark("nn", depth=2, max_eval=6, cache=cache)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = explore_benchmark("nn", depth=2, max_eval=6, cache=cache)
    warm_seconds = time.perf_counter() - start

    assert cold["stats"]["compilations"] > 0
    assert warm["stats"]["compilations"] == 0
    assert warm["stats"]["executions"] == 0
    assert warm["stats"]["kernel_cache_hit_rate"] == 1.0
    assert warm["stats"]["cycle_cache_hit_rate"] == 1.0
    assert warm["explorer_best_cycles"] == cold["explorer_best_cycles"]
    assert warm_seconds < cold_seconds


def test_explore_warm_throughput(benchmark, tmp_path):
    cache = TuningCache(tmp_path)
    explore_benchmark("nn", depth=2, max_eval=6, cache=cache)  # warm the store

    result = benchmark(
        lambda: explore_benchmark("nn", depth=2, max_eval=6, cache=cache)
    )
    assert result["stats"]["compilations"] == 0


@pytest.mark.parametrize("name", ["gemv", "mm"])
def test_explorer_beats_menu(tmp_path, name):
    cache = TuningCache(tmp_path)
    entry = explore_benchmark(name, depth=3, max_eval=10, cache=cache)
    assert entry["explorer_best_runtime"] <= entry["menu_best_runtime"]


def test_explorer_derives_2d_tiled_mm(tmp_path):
    """The flagship acceptance: the explorer derives a 2-D tiled mm
    schedule (nested mapWrg dims + mapLcl + toLocal) that beats every
    1-D candidate on measured runtime, and the parallelism-aware static
    model ranks it ahead before execution."""
    cache = TuningCache(tmp_path)
    entry = explore_benchmark("mm", depth=2, max_eval=10, cache=cache)
    assert any("tile-2d" in step for step in entry["explorer_best_trace"])
    assert any("toLocal" in step for step in entry["explorer_best_trace"])
    assert entry["winner_local_size"][1] > 1  # a genuinely 2-D launch
    assert entry["winner_static_rank"] == 0
    # The fixed menu reuses the tile-2d strategy for square map nests
    # since the backend-subsystem PR, so parity with a *tiled* menu
    # best is the expected outcome (the explorer must never lose to it).
    assert entry["best_vs_menu"] <= 1.0
    assert entry["menu_best_label"].startswith("tile-2d")


def warm_phase_seconds(cache_dir: str) -> dict:
    """One more warm pass, traced: seconds per phase of the search
    (``finish`` without the static cost it contains) — the split
    ROADMAP's "Where a second goes now" is built from."""
    trace = Path(cache_dir) / "warm-trace.json"
    obs.start_tracing(trace)
    try:
        run_explore(depth=3, max_eval=12, cache=TuningCache(cache_dir))
    finally:
        obs.stop_tracing()
    seconds = dict.fromkeys(PHASE_SPANS, 0.0)
    for event in json.loads(trace.read_text())["traceEvents"]:
        if event.get("ph") == "X" and event["name"] in seconds:
            seconds[event["name"]] += event["dur"] / 1e6
    seconds["explore.finish"] -= seconds["explore.static-cost"]
    return {name: round(value, 4) for name, value in seconds.items()}


def oracle_ratios() -> dict:
    """Per explorable benchmark, the ``ir.interp`` oracle a cold search
    pays once (:func:`~repro.rewrite.explore.reference_output` of the
    high-level program on the small inputs) over one
    ``compile_kernel(memo=False)`` of its level-``all`` small stage, the
    simplifier's memos emptied first, as the front-end gate measures
    it.  The two alternate for ``ORACLE_ROUNDS`` rounds and each keeps
    its fastest, so the ratio travels between machines."""
    from repro.arith.simplify import clear_caches
    from repro.benchsuite.common import get_benchmark
    from repro.benchsuite.explore import EXPLORABLE
    from repro.compiler import OPTIMIZATION_LEVELS, compile_kernel
    from repro.rewrite.explore import reference_output

    def seconds(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    ratios = {}
    for name in EXPLORABLE:
        bench = get_benchmark(name)
        inputs, size_env = bench.inputs_for("small")
        high_level = bench.high_level(size_env)
        stage = bench.stages[0]
        fun = stage.build(dict(size_env))
        options = OPTIMIZATION_LEVELS["all"](local_size=stage.local_size)
        oracle_s, compile_s = [], []
        for _ in range(ORACLE_ROUNDS):
            clear_caches()
            compile_s.append(
                seconds(lambda: compile_kernel(fun, options, memo=False))
            )
            oracle_s.append(
                seconds(lambda: reference_output(high_level, inputs, size_env))
            )
        ratios[name] = {
            "oracle_s": round(min(oracle_s), 5),
            "compile_s": round(min(compile_s), 5),
            "oracle_over_compile": round(min(oracle_s) / min(compile_s), 3),
        }
    return ratios


def main(out_path: str = None) -> None:
    out = Path(out_path or Path(__file__).parent / "BENCH_explore.json")
    cache_dir = tempfile.mkdtemp(prefix="repro-explore-bench-")

    start = time.perf_counter()
    cold = run_explore(depth=3, max_eval=12, cache=TuningCache(cache_dir))
    cold_seconds = time.perf_counter() - start

    keys_before = obs.metrics.REGISTRY.counter("explore.keys_computed")
    start = time.perf_counter()
    warm = run_explore(depth=3, max_eval=12, cache=TuningCache(cache_dir))
    warm_seconds = time.perf_counter() - start
    warm_keys = (
        obs.metrics.REGISTRY.counter("explore.keys_computed") - keys_before
    )
    oracle = oracle_ratios()
    print("oracle / compile_kernel time ratio:")
    for name, entry in oracle.items():
        print(f"  {name:<22} {entry['oracle_over_compile']:.3f}")
    phases = warm_phase_seconds(cache_dir)
    print("warm search, seconds per phase (traced pass):")
    for name, value in phases.items():
        print(f"  {name:<22} {value:.4f}")

    summary = {}
    for c, w in zip(cold["benchmarks"], warm["benchmarks"]):
        summary[c["benchmark"]] = {
            "enumerated": c["stats"]["enumerated"],
            "dedup_hit_rate": c["stats"]["dedup_hit_rate"],
            "best_vs_menu": round(c["best_vs_menu"], 4),
            "explorer_best_runtime": c["explorer_best_runtime"],
            "explorer_best_cycles": c["explorer_best_cycles"],
            "menu_best_runtime": c["menu_best_runtime"],
            "menu_best_cycles": c["menu_best_cycles"],
            "winner_static_rank": c["winner_static_rank"],
            "winner_local_size": c["winner_local_size"],
            "winner_global_size": c["winner_global_size"],
            "best_trace": c["explorer_best_trace"],
            "cold_seconds": c["explore_seconds"],
            "warm_seconds": w["explore_seconds"],
            "warm_compilations": w["stats"]["compilations"],
            "warm_kernel_cache_hit_rate": w["stats"]["kernel_cache_hit_rate"],
            "warm_cycle_cache_hit_rate": w["stats"]["cycle_cache_hit_rate"],
        }

    data = {
        "description": (
            "Rewrite-space exploration baseline: candidates enumerated, "
            "dedup/cache hit-rates and best-vs-menu estimated runtime "
            "(parallelism-aware) per benchmark; cycle and runtime fields "
            "last refreshed when every candidate, menu and explorer "
            "alike, was compiled for its own global size (winners and "
            "derivations unchanged: nn 202 752 -> 194 560, gemv 258 112 "
            "-> 257 856, mm 117 760 -> 115 712 cycles); the timing "
            "fields are from the last machine that re-recorded the whole "
            "file (the finish step judging nesting before lowering and "
            "reading types from the search's table: every search-quality "
            "field came out as it went in), and warm_keys_computed — "
            "structural keys built by the three warm searches, "
            "machine-independent — is gated as a ceiling. "
            "Menu and search share one evaluator, so best-vs-menu is "
            "parity on all three; the menu derives the 2-D tiled mm "
            "too, so the derivation itself is gated via best_trace."
        ),
        "config": cold["config"],
        "cold_total_seconds": round(cold_seconds, 3),
        "warm_total_seconds": round(warm_seconds, 3),
        "warm_phase_seconds": phases,
        # Machine-independent: what the three warm searches keyed —
        # their rewrites' new spines, not whole programs.
        "warm_keys_computed": warm_keys,
        # Machine-relative: gated as a ceiling per benchmark.
        "oracle": oracle,
        "benchmarks": summary,
    }
    baseline = Path(__file__).parent / "BENCH_explore.json"
    if baseline.exists():
        # The tree-walking interpreter's ratios, kept for comparison.
        before = json.loads(baseline.read_text()).get("oracle_before")
        if before is not None:
            data["oracle_before"] = before
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)

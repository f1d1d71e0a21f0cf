"""Rewrite-space exploration over benchmark programs.

``python -m repro.benchsuite explore [benchmark ...]`` runs the
derivation-tree search of :mod:`repro.rewrite.explore` on each
benchmark's portable high-level program, prints the winner with its
derivation trace and launch geometry, and compares it against the fixed
lowering menu of :func:`repro.rewrite.autotune.default_candidates` (the
paper-era baseline; same evaluator, config and cache).  Ranking is by
parallelism-aware estimated runtime
(:func:`repro.opencl.cost.estimate_runtime`); the report also records
where the measured winner sat in the *static* pre-execution ranking —
the acceptance bar is that the parallelism-aware static model puts the
derived schedule ahead before anything runs.  The same entry points
feed ``benchmarks/bench_explore.py`` (``BENCH_explore.json``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.cache import TuningCache
from repro.rewrite.autotune import autotune
from repro.rewrite.explore import ExploreConfig, explore_program
from repro.benchsuite.common import get_benchmark

#: Benchmarks whose high-level program the explorer currently handles
#: (single-stage, parameters named after the input dictionary).  ``mm``
#: is the registry alias for the matrix multiplication high-level
#: program (shared by both Table 1 reference variants).
EXPLORABLE = ("nn", "gemv", "mm")


def request_error(
    names: Optional[Sequence[str]], max_eval: int
) -> Optional[str]:
    """Why an ``explore`` / ``calibrate`` request cannot be served, or
    ``None``: benchmarks outside :data:`EXPLORABLE` (multi-stage programs
    have no single-kernel schedule to derive) and evaluation budgets that
    leave nothing to rank are refused before any search starts."""
    unknown = [n for n in names or () if n not in EXPLORABLE]
    if unknown:
        return (
            f"cannot explore {', '.join(unknown)}: EXPLORABLE benchmarks "
            f"are {', '.join(EXPLORABLE)}"
        )
    if max_eval < 1:
        return f"--max-eval must be at least 1 (got {max_eval})"
    return None


def explore_benchmark(
    name: str,
    depth: int = 3,
    max_eval: int = 12,
    size: str = "small",
    cache: Optional[TuningCache] = None,
    device: str = "nvidia",
    engine: Optional[str] = None,
) -> dict:
    """Explore one benchmark; returns a JSON-friendly metrics dict."""
    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for(size)
    high_level = bench.high_level(size_env)
    config = ExploreConfig(
        depth=depth, max_eval=max_eval, device=device, engine=engine,
        workload=name,
    )

    # timed_span measures whether or not tracing is active, so the
    # reported seconds equal the span durations in the trace — one
    # clock, one mechanism.
    with obs.timed_span(
        "explore", benchmark=name, size=size, depth=depth
    ) as explore_span:
        result = explore_program(
            high_level, inputs, size_env, config=config, cache=cache
        )

    with obs.timed_span("menu", benchmark=name, size=size) as menu_span:
        menu_best = autotune(
            high_level, inputs, size_env, config=config, cache=cache,
            reference=result.oracle,
        )[0]

    best = result.best()
    static_order = sorted(result.candidates, key=lambda c: c.static_cost)
    return {
        "benchmark": name,
        "size": size,
        "depth": depth,
        "explorer_best_runtime": best.runtime,
        "explorer_best_cycles": best.cycles,
        "explorer_best_trace": list(best.trace),
        "winner_local_size": list(best.local_size),
        "winner_global_size": list(best.global_size),
        "winner_static_rank": static_order.index(best),
        "menu_best_runtime": menu_best.runtime,
        "menu_best_cycles": menu_best.cycles,
        "menu_best_label": menu_best.label,
        "best_vs_menu": (
            best.runtime / menu_best.runtime if menu_best.runtime else None
        ),
        "explore_seconds": round(explore_span.elapsed, 3),
        "menu_seconds": round(menu_span.elapsed, 3),
        "stats": result.stats.as_dict(),
        "ranking": [
            {
                "label": c.label,
                "runtime": c.runtime,
                "cycles": c.cycles,
                "trace": list(c.trace),
            }
            for c in result.candidates[:5]
        ],
    }


def run_explore(
    names: Optional[Sequence[str]] = None,
    depth: int = 3,
    max_eval: int = 12,
    size: str = "small",
    cache: Optional[TuningCache] = None,
    device: str = "nvidia",
    engine: Optional[str] = None,
) -> dict:
    """Explore ``names``; ``cache=None`` runs without a tuning cache
    (nothing is read from or written to disk)."""
    entries = [
        explore_benchmark(
            name, depth=depth, max_eval=max_eval, size=size, cache=cache,
            device=device, engine=engine,
        )
        for name in (names or EXPLORABLE)
    ]
    return {
        "config": {
            "depth": depth,
            "max_eval": max_eval,
            "size": size,
            "device": device,
            "cache_dir": str(cache.root) if cache is not None else "off",
        },
        "benchmarks": entries,
    }


def format_explore(data: dict) -> str:
    lines = [
        "Rewrite-space exploration "
        f"(depth {data['config']['depth']}, size {data['config']['size']}, "
        f"cache {data['config']['cache_dir']})",
        "",
    ]
    for entry in data["benchmarks"]:
        ratio = entry["best_vs_menu"]
        stats = entry["stats"]
        local = "x".join(str(v) for v in entry["winner_local_size"])
        glob = "x".join(str(v) for v in entry["winner_global_size"])
        lines.append(f"== {entry['benchmark']} ==")
        lines.append(
            f"  winner: runtime {entry['explorer_best_runtime']:.1f} "
            f"({entry['explorer_best_cycles']:.0f} cycles, "
            f"global {glob}, local {local})"
        )
        lines.append(
            f"  menu best: runtime {entry['menu_best_runtime']:.1f} = "
            f"{entry['menu_best_label']} (ratio {ratio:.3f}; "
            f"static rank of winner: #{entry['winner_static_rank']})"
        )
        trace = entry["explorer_best_trace"]
        lines.append(
            "  derivation: " + (" -> ".join(trace) if trace else "(original)")
        )
        search = (
            f"  search: {stats['enumerated']} enumerated, "
            f"dedup hit-rate {stats['dedup_hit_rate']:.0%}, "
            f"{stats['evaluated']} evaluated, "
            f"{stats['compilations']} compiled, "
            f"kernel cache hit-rate {stats['kernel_cache_hit_rate']:.0%}, "
            f"cycle cache hit-rate {stats['cycle_cache_hit_rate']:.0%}"
        )
        declined = stats.get("declined_launches")
        if declined:
            search += (
                f", {declined} launch(es) DECLINED by a backend and re-run "
                "on a slower tier (see the ledger)"
            )
        lines.append(search)
        lines.append(
            f"  time: explore {entry['explore_seconds']:.2f}s, "
            f"menu {entry['menu_seconds']:.2f}s"
        )
        lines.append("")
    return "\n".join(lines)

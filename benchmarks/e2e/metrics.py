"""The benchmark's contract as one table: workloads, end-to-end metrics
with their regression bounds, and per-layer metrics with the layer they
belong to and the (end-to-end metric, workload) each should move.

``BENCHMARK.json`` and the README's tables are generated from here
(``run.py --write-manifest`` / ``--describe``) and the harness prints
and reports exactly these names, so the three cannot drift.
"""

from __future__ import annotations

#: How long one run measures; also the ``--seconds`` default.
RUN_SECONDS = 15

#: The Figure 8 benchmarks in Table 1 order (``ALL_BENCHMARKS``).
FIG8_BENCHMARKS = (
    "nbody-nvidia", "nbody-amd", "md", "kmeans", "nn", "mriq",
    "convolution", "atax", "gemv", "gesummv", "mm-amd", "mm-nvidia",
)
#: The lane-batchable nine of them, plus two hand-written kernels.
SIM_BENCHMARKS = tuple(
    n for n in FIG8_BENCHMARKS if n not in ("atax", "gemv", "gesummv")
)
SIM_KERNELS = SIM_BENCHMARKS + ("saxpy", "reduce")
BACKENDS = ("scalar", "interp", "compiled", "fused")

#: name, op unit, why it exists (one line, <= 200 characters with unit).
WORKLOADS = (
    ("fig8_small", "benchmark measured",
     "what `benchsuite figure8` users wait for: 12 of 52 launches fall to "
     "the scalar tier and take ~90% of the pass; compile and parse do <5%"),
    ("sim_vector", "kernel launch",
     "steady-state simulator throughput on pre-compiled kernels under "
     "auto and fused: scalar serves nothing, compile and parse sit in set-up"),
    ("compile_all", "stage compiled",
     "Lift IL to OpenCL C for 13 stages x 2 sizes x 3 levels plus "
     "tokenize, parse and both plans, no launch timed: the compiler's cost"),
    ("explore_cold", "candidate evaluated",
     "first `benchsuite explore` of nn, gemv, mm: enumerate, compile, "
     "simulate, verify, with cache writes and miss-reads on an empty cache"),
    ("explore_warm", "candidate evaluated",
     "second `benchsuite explore` on a filled cache: hit-reads only, zero "
     "compiles and executions, so enumeration and the menu dominate"),
)
WORKLOAD_NAMES = tuple(w[0] for w in WORKLOADS)

#: name, unit, better, bound (share of the parent's median), meaning.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "parent's spawn time to the child's first timed op: interpreter "
     "start, imports, input generation, per-workload preparation; median "
     "over the children"),
    ("wall_s", "s", "lower", 0.25,
     "median seconds per warm iteration, pooled over the children, at the "
     "box's reference speed (each child's times are divided by how much "
     "slower than 6.9 ms its calibration loop ran)"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "ops attempted / total timed seconds, cold first iterations included, "
     "at the same reference speed"),
    ("peak_rss_mb", "MB", "lower", 0.10, "max ru_maxrss over the children"),
    ("sim_cycles", "cycles", "lower", 0.01,
     "sum of estimate_cycles(counters, nvidia) over the distinct "
     "generated-kernel launches of one iteration (explore: winners' "
     "runtime); identical across iterations and children"),
    ("code_bytes", "bytes", "lower", 0.05,
     "sum of len(CompiledKernel.source), name counters stripped, over the "
     "distinct kernels of one iteration; identical across iterations and "
     "children"),
)
DETERMINISTIC = ("sim_cycles", "code_bytes")


def _rows(layer, moves, *specs):
    return [(name, unit, better, layer, moves) for name, unit, better in specs]


def _per_layer():
    lo, hi = "lower", "higher"
    rows = _rows(
        "start-up", "setup_s on every workload",
        ("startup.import_repro_s", "s", lo),
        ("startup.import_benchsuite_s", "s", lo),
        ("startup.prepare_s", "s", lo),
    )
    rows += _rows(
        "benchsuite", "wall_s on fig8_small",
        ("benchsuite.inputs_s", "s", lo),
        ("benchsuite.oracle_s", "s", lo),
        ("benchsuite.reference_s", "s", lo),
        *((f"fig8.{b}.s", "s", lo) for b in FIG8_BENCHMARKS),
    )
    rows += _rows(
        "ir, compiler, opencl front end", "wall_s, ops_per_s on compile_all",
        ("ir.build_s", "s", lo),
        ("ir.typecheck_s", "s", lo),
        ("ir.canonical_s", "s", lo),
        ("compiler.compile_s", "s", lo),
        ("compiler.compile_first_s", "s", lo),
        ("compiler.kernels", "count", lo),
        ("compiler.code_bytes", "bytes", lo),
        ("opencl.lexer.tokenize_s", "s", lo),
        ("opencl.lexer.tokens", "count", lo),
        ("opencl.cparser.parse_s", "s", lo),
        ("opencl.cparser.tokens_per_s", "1/s", hi),
        ("opencl.simt_compile.plan_s", "s", lo),
        ("backend.fused.plan_s", "s", lo),
        ("backend.compiled.plan_declines", "count", lo),
        ("backend.fused.plan_declines", "count", lo),
    )
    for b in BACKENDS:
        rows += _rows(
            "backend run",
            "wall_s on fig8_small" if b == "scalar"
            else "wall_s on sim_vector" if b in ("compiled", "fused")
            else "none: no launch lands on it",
            (f"backend.{b}.run_s", "s", lo),
            (f"backend.{b}.launches", "count", lo),
            (f"backend.{b}.items_per_s", "1/s", hi),
        )
    rows += _rows(
        "backend run", "wall_s on fig8_small",
        ("backend.declines", "count", lo),
        ("backend.scalar.launch_share", "share", lo),
    )
    for k in SIM_KERNELS:
        rows += _rows(
            "backend run", "wall_s on sim_vector",
            (f"sim.{k}.auto_ms", "ms", lo),
            (f"sim.{k}.fused_ms", "ms", lo),
        )
    rows += _rows(
        "opencl.cost", "none expected", ("opencl.cost.estimate_s", "s", lo)
    )
    rows += _rows(
        "rewrite",
        "wall_s on explore_warm (dominant) and explore_cold; sim_cycles on both",
        ("rewrite.explore.s", "s", lo),
        ("rewrite.explore.enumerated", "count", lo),
        ("rewrite.explore.evaluated", "count", lo),
        ("rewrite.explore.compilations", "count", lo),
        ("rewrite.explore.executions", "count", lo),
        ("rewrite.explore.dedup_hit_rate", "share", hi),
        ("rewrite.explore.best_runtime", "cycles", lo),
        ("rewrite.explore.winner_static_rank", "count", lo),
        ("rewrite.autotune.menu_s", "s", lo),
    )
    rows += _rows(
        "cache",
        "wall_s on explore_cold (puts, misses) vs explore_warm (hits)",
        ("cache.kernel_hit_rate", "share", hi),
        ("cache.cycle_hit_rate", "share", hi),
        ("cache.put_kernel_ms", "ms", lo),
        ("cache.get_kernel_hit_ms", "ms", lo),
        ("cache.get_kernel_miss_ms", "ms", lo),
        ("cache.put_cycles_ms", "ms", lo),
        ("cache.get_cycles_hit_ms", "ms", lo),
        ("cache.put_run_ms", "ms", lo),
        ("cache.get_run_hit_ms", "ms", lo),
        ("cache.bytes_on_disk", "bytes", lo),
        ("cache.recoveries", "count", lo),
    )
    rows += _rows(
        "harness", "none: they qualify the other numbers",
        ("harness.untraced_share", "share", lo),
        ("harness.trace_overhead", "ratio", lo),
        ("harness.iter0_over_median", "ratio", lo),
    )
    return tuple(rows)


#: name, unit, better, layer, what it should move.
PER_LAYER = _per_layer()
PER_LAYER_NAMES = tuple(r[0] for r in PER_LAYER)
#: Layer metrics that are counts made by the program: they repeat
#: exactly from run to run, so ``--compare`` wants them bit-equal
#: (pickled kernels on disk carry the compiler's name counters).
COUNT_VALUED = tuple(
    name for name, unit, *_ in PER_LAYER
    if unit in ("count", "bytes") and name != "cache.bytes_on_disk"
)

#: ``harness.untraced_share`` must stay under this where every call the
#: workload makes is wrapped (the explore workloads are one opaque call).
UNTRACED_SHARE_LIMIT = 0.05
UNTRACED_SHARE_WORKLOADS = ("fig8_small", "sim_vector", "compile_all")


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": f"{why} (op: one {unit})"}
            for name, unit, why in WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _meaning in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _layer, _moves in PER_LAYER
        ],
    }


def describe() -> str:
    """The tables of the README: workloads, metrics, interactions."""
    lines = ["| workload | op | why it exists |", "|---|---|---|"]
    lines += [f"| `{n}` | {unit} | {why} |" for n, unit, why in WORKLOADS]
    lines += ["", "| end-to-end metric | unit | better | bound | meaning |",
              "|---|---|---|---|---|"]
    lines += [
        f"| `{n}` | {unit} | {better} | {bound} | {meaning} |"
        for n, unit, better, bound, meaning in END_TO_END
    ]
    lines += ["", "| layer | per-layer metrics | should move |",
              "|---|---|---|"]
    groups: dict = {}
    for name, _unit, _better, layer, moves in PER_LAYER:
        groups.setdefault((layer, moves), []).append(f"`{name}`")
    lines += [
        f"| {layer} | {', '.join(names)} | {moves} |"
        for (layer, moves), names in groups.items()
    ]
    return "\n".join(lines)

"""Figure 8 reproduction: relative performance of generated code.

For every benchmark, input size and optimization level, this harness

1. runs the hand-written reference kernel(s) on the simulated device,
2. compiles the low-level Lift IL at the given optimization level and
   runs the generated kernel(s),
3. checks both outputs against the NumPy oracle,
4. converts the two counter sets into estimated cycles under each device
   profile and reports the ratio (reference cycles / generated cycles).

A relative performance of 1.0 means parity with the hand-written
kernel; values below 1.0 mean the generated code is slower — the shape
the paper's Figure 8 plots per optimization level.

:func:`format_explanation` says *why* a bar is below 1.0 (which counter
owns how many of the missing cycles); :func:`baseline_rows` /
:func:`floor_failures` record the ``+AAS`` bars in
``benchmarks/BENCH_figure8.json`` and hold later changes to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.compiler.options import OPTIMIZATION_LEVELS
from repro.opencl import Counters
from repro.opencl.cost import DEVICES, estimate_cycles, priced_counters
from repro.benchsuite.common import ALL_BENCHMARKS, Benchmark, get_benchmark

LEVEL_LABELS = {
    "none": "None",
    "barrier_cf": "Barrier elim. + Control-flow simp.",
    "all": "+ Array access simp.",
}


@dataclass
class Figure8Cell:
    """One bar of Figure 8."""

    benchmark: str
    size: str
    level: str
    device: str
    relative_performance: float
    reference_cycles: float
    generated_cycles: float
    #: The device-independent event counts both cycle figures price.
    reference_counters: Counters
    generated_counters: Counters


def measure_benchmark(
    bench: Benchmark, size: str, seed: int = 7, cache=None,
    engine: Optional[str] = None,
) -> list:
    """All Figure 8 cells for one benchmark at one input size.

    The simulator's counters are device-independent, so each
    configuration executes once and is priced under both device
    profiles.  With a :class:`repro.cache.TuningCache`, reference and
    generated runs are served from content-addressed run entries — a
    warm rerun performs zero compilations and zero simulations (the
    oracle checks still run against the cached outputs).  ``engine``
    names the execution backend for every launch (any name of
    :func:`repro.backend.engine_names`; cache run entries are keyed per
    engine).
    """
    from repro import obs

    inputs, size_env = bench.inputs_for(size, seed)
    expected = bench.oracle(inputs, size_env)

    with obs.span("figure8.reference", benchmark=bench.name, size=size):
        ref_out, ref_counters = bench.run_reference(
            inputs, size_env, cache=cache, engine=engine
        )
    np.testing.assert_allclose(
        ref_out, expected, rtol=bench.rtol, atol=1e-7,
        err_msg=f"{bench.name}: reference kernel produced wrong results",
    )

    cells: list[Figure8Cell] = []
    for level_name, factory in OPTIMIZATION_LEVELS.items():
        with obs.span(
            "figure8.generated", benchmark=bench.name, size=size,
            level=level_name,
        ):
            gen_out, gen_counters = bench.run_generated(
                inputs, size_env, options_factory=factory, cache=cache,
                engine=engine,
            )
        # Per-tier launch counts live in the registry's counters; the
        # last generated run's kernel Counters are snapshot under
        # "counters.kernel".
        obs.register_provider("counters.kernel", gen_counters.as_dict)
        np.testing.assert_allclose(
            gen_out, expected, rtol=bench.rtol, atol=1e-7,
            err_msg=(
                f"{bench.name}: generated kernel wrong at level {level_name}"
            ),
        )
        for device_name, profile in DEVICES.items():
            ref_cycles = estimate_cycles(ref_counters, profile)
            gen_cycles = estimate_cycles(gen_counters, profile)
            cells.append(
                Figure8Cell(
                    benchmark=bench.name,
                    size=size,
                    level=level_name,
                    device=device_name,
                    relative_performance=ref_cycles / gen_cycles,
                    reference_cycles=ref_cycles,
                    generated_cycles=gen_cycles,
                    reference_counters=ref_counters,
                    generated_counters=gen_counters,
                )
            )
    return cells


def run_figure8(
    benchmarks: Optional[Iterable[str]] = None,
    sizes: Iterable[str] = ("small", "large"),
    seed: int = 7,
    cache=None,
    engine: Optional[str] = None,
) -> list:
    from repro import obs

    names = list(benchmarks) if benchmarks is not None else list(ALL_BENCHMARKS)
    cells: list[Figure8Cell] = []
    for name in names:
        bench = get_benchmark(name)
        for size in sizes:
            with obs.span("figure8.benchmark", benchmark=name, size=size):
                cells.extend(
                    measure_benchmark(
                        bench, size, seed, cache=cache, engine=engine
                    )
                )
    return cells


def format_figure8(cells: Iterable[Figure8Cell]) -> str:
    """Render the cells as the paper's figure: one row per device and
    benchmark, bars per optimization level and size."""
    by_key: dict = {}
    for cell in cells:
        by_key.setdefault((cell.device, cell.benchmark, cell.size), {})[
            cell.level
        ] = cell.relative_performance

    lines = [
        "Figure 8: relative performance of generated code vs. hand-written"
        " OpenCL (1.0 = parity)",
        "",
        f"{'device':<8} {'benchmark':<14} {'size':<6} "
        f"{'None':>8} {'B+CF':>8} {'+AAS':>8}",
    ]
    for (device, benchmark, size), levels in sorted(by_key.items()):
        lines.append(
            f"{device:<8} {benchmark:<14} {size:<6} "
            f"{levels.get('none', float('nan')):>8.3f} "
            f"{levels.get('barrier_cf', float('nan')):>8.3f} "
            f"{levels.get('all', float('nan')):>8.3f}"
        )

    if any(c.level == "all" for c in cells):
        lines.append("")
        lines.append(f"geometric mean (+AAS): {geometric_mean_aas(cells):.3f}")
    return "\n".join(lines)


def geometric_mean_aas(cells: Iterable[Figure8Cell]) -> float:
    """Geometric mean of the fully optimized (``+AAS``) bars."""
    perf = [c.relative_performance for c in cells if c.level == "all"]
    return float(np.exp(np.mean(np.log(perf))))


def format_explanation(cells: Iterable[Figure8Cell], device: str) -> str:
    """Per benchmark, size and level: the cycles the generated kernel
    owes the reference under ``device``'s profile, split by the counter
    that owns them — each ``Counters`` field's reference -> generated
    delta at that profile's price, largest debt first (a negative entry
    is a counter on which the generated kernel is cheaper).  The lines
    of a cell sum to its difference, also when the cell is ahead."""
    profile = DEVICES[device]
    lines = [
        f"Figure 8 explained ({device}): cycles owed to the hand-written "
        "kernel, by counter (events: reference -> generated)",
    ]
    mine = [c for c in cells if c.device == device]
    level_order = list(OPTIMIZATION_LEVELS)
    for cell in sorted(
        mine,
        key=lambda c: (c.benchmark, c.size, level_order.index(c.level)),
    ):
        lines.append("")
        debt = cell.generated_cycles - cell.reference_cycles
        lines.append(
            f"{cell.benchmark} {cell.size} {cell.level}: "
            f"{cell.relative_performance:.3f}  (reference "
            f"{cell.reference_cycles:.0f} -> generated "
            f"{cell.generated_cycles:.0f} cycles, "
            + (f"owes {debt:.0f})" if debt >= 0 else f"ahead by {-debt:.0f})")
        )
        ref_priced = priced_counters(cell.reference_counters, profile)
        gen_priced = priced_counters(cell.generated_counters, profile)
        owed = {f: gen_priced[f] - ref_priced[f] for f in gen_priced}
        for name in sorted(owed, key=lambda f: -owed[f]):
            if owed[name] == 0:
                continue
            lines.append(
                f"    {name:<16} {owed[name]:>+12.0f} cycles   "
                f"{getattr(cell.reference_counters, name)} -> "
                f"{getattr(cell.generated_counters, name)}"
            )
    return "\n".join(lines)


#: A ``+AAS`` bar may sit this far below its recorded value before
#: :func:`floor_failures` reports it.  Both sides are simulated cycles —
#: deterministic — so the margin is for deliberate small trades, not for
#: machine noise.
ROW_FLOOR_MARGIN = 0.005
#: ... and no ``+AAS`` bar may sit below this, whatever was recorded
#: (ROADMAP item 3's target, reached with the private accumulator).
ROW_ABSOLUTE_FLOOR = 0.97
#: The geometric mean of all ``+AAS`` bars must stay at least this high.
GEOMEAN_FLOOR = 0.99


def baseline_rows(cells: Iterable[Figure8Cell]) -> list:
    """The ``rows`` of ``BENCH_figure8.json``: per benchmark, device and
    size the three ratios and the two ``+AAS`` cycle counts."""
    rows: dict = {}
    for cell in cells:
        row = rows.setdefault(
            (cell.benchmark, cell.device, cell.size),
            {"benchmark": cell.benchmark, "device": cell.device,
             "size": cell.size},
        )
        row[cell.level] = round(cell.relative_performance, 4)
        if cell.level == "all":
            row["reference_cycles"] = cell.reference_cycles
            row["generated_cycles"] = cell.generated_cycles
    return [rows[key] for key in sorted(rows)]


def floor_failures(cells: Iterable[Figure8Cell], baseline: Mapping) -> list:
    """One message per ``+AAS`` bar of ``cells`` that fell more than
    :data:`ROW_FLOOR_MARGIN` below its ``BENCH_figure8.json`` row or
    below :data:`ROW_ABSOLUTE_FLOOR`, plus one if all recorded rows were
    measured and their geometric mean is below :data:`GEOMEAN_FLOOR`."""
    cells = [c for c in cells if c.level == "all"]
    recorded = {
        (r["benchmark"], r["device"], r["size"]): r["all"]
        for r in baseline["rows"]
    }
    failures = []
    for cell in cells:
        key = (cell.benchmark, cell.device, cell.size)
        floor = max(recorded[key] - ROW_FLOOR_MARGIN, ROW_ABSOLUTE_FLOOR)
        if cell.relative_performance < floor:
            failures.append(
                f"figure8[{'/'.join(key)}]: +AAS "
                f"{cell.relative_performance:.3f} below floor {floor:.3f}"
            )
    if len(cells) == len(recorded):
        mean = geometric_mean_aas(cells)
        if mean < GEOMEAN_FLOOR:
            failures.append(
                f"figure8: geometric mean (+AAS) {mean:.3f} below "
                f"{GEOMEAN_FLOOR}"
            )
    return failures

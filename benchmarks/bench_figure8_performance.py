"""Figure 8: relative performance of Lift-generated kernels.

One benchmark entry per Table 1 row.  Each measures the simulated cycles
of the generated kernel (full optimizations) — the quantity behind the
Figure 8 bars — and asserts correctness plus the paper's qualitative
claims: no optimization level makes things worse, and the fully
optimized code stays at the recorded distance from hand-written
performance — every ``+AAS`` bar at or above its row of
``BENCH_figure8.json`` (minus ``figure8.ROW_FLOOR_MARGIN``) and at or
above ``figure8.ROW_ABSOLUTE_FLOOR``, the floors
``check_perf_regression.py`` gates in CI.

The printed summary (``-s`` to see it) is the Figure 8 table itself.
``python benchmarks/bench_figure8_performance.py [PATH]`` re-records the
baseline (both sizes).
"""

import json
import sys
from pathlib import Path

import pytest

from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
from repro.benchsuite.figure8 import (
    baseline_rows,
    floor_failures,
    format_figure8,
    geometric_mean_aas,
    measure_benchmark,
    run_figure8,
)

BASELINE_PATH = Path(__file__).parent / "BENCH_figure8.json"
SEED = 7

_ALL_CELLS = []


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_figure8_benchmark(benchmark, name, sizes):
    bench = get_benchmark(name)
    cells = []
    for size in sizes:
        cells.extend(measure_benchmark(bench, size))
    _ALL_CELLS.extend(cells)

    # The paper's qualitative claim (section 7.4): no optimization makes
    # things worse ...
    for row in baseline_rows(cells):
        assert row["none"] <= row["barrier_cf"] <= row["all"], row
    # ... and the fully optimized code holds its recorded share of the
    # hand-written kernels' performance.
    assert floor_failures(cells, json.loads(BASELINE_PATH.read_text())) == []

    def measured():
        return measure_benchmark(bench, sizes[0])

    result = benchmark.pedantic(measured, rounds=1, iterations=1)
    assert result


def test_zz_print_figure8_table(capsys):
    """Prints the assembled Figure 8 after all cells are measured."""
    if _ALL_CELLS:
        with capsys.disabled():
            print()
            print(format_figure8(_ALL_CELLS))


def record(path: Path) -> None:
    cells = run_figure8(sizes=("small", "large"), seed=SEED)
    document = {
        "description": (
            "Figure 8 baseline for check_perf_regression.py and "
            "bench_figure8_performance.py: relative performance "
            "(hand-written cycles / generated cycles, simulated) "
            "per benchmark, device and size at the three optimization "
            "levels, and both cycle counts at +AAS ('all').  Every later "
            "+AAS bar must stay within figure8.ROW_FLOOR_MARGIN of its row "
            "and at or above figure8.ROW_ABSOLUTE_FLOOR, the geometric "
            "mean at or above figure8.GEOMEAN_FLOOR.  "
            "Re-record with `python benchmarks/bench_figure8_performance.py`."
        ),
        "seed": SEED,
        "geometric_mean_aas": round(geometric_mean_aas(cells), 4),
        "rows": baseline_rows(cells),
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else BASELINE_PATH)

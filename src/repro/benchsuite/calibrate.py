"""Cost-model calibration over the benchmark menus.

``python -m repro.benchsuite calibrate [--benchmarks nn gemv mm]``
re-runs the rewrite-space search on each benchmark (populating the
:mod:`repro.obs.analysis` calibration log with one record per evaluated
candidate) and prints, per workload, how well the pre-execution
prediction (``static_program_cost``) ranks candidates against the
measured-counter model (``runtime_from_cycles``): Spearman rank
correlation, top-1/top-5 regret, and scale-aligned residuals.

The same numbers land in the ``calibration`` section of the
``--metrics-json`` snapshot, which ``benchmarks/check_perf_regression.py
--calibration-json`` gates against the checked-in floor
(``benchmarks/calibration_floor.json``) — a cost-model regression fails
CI instead of silently degrading the explorer's choices.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs import analysis
from repro.benchsuite.explore import EXPLORABLE, explore_benchmark

__all__ = ["run_calibrate", "format_calibrate"]


def run_calibrate(
    names: Optional[Sequence[str]] = None,
    depth: int = 3,
    max_eval: int = 12,
    size: str = "small",
    cache=None,
    device: str = "nvidia",
    engine: Optional[str] = None,
) -> dict:
    """Populate the calibration log and return its per-workload summary.

    Returns ``{"workloads": {name: {spearman, top1_regret, ...}},
    "config": {...}}``.  No cache by default: calibration wants every
    candidate actually simulated, not served from the cycle cache with
    ``wall_seconds=None``."""
    names = tuple(names or EXPLORABLE)
    analysis.LOG.reset()
    for name in names:
        explore_benchmark(
            name, depth=depth, max_eval=max_eval, size=size,
            cache=cache, device=device, engine=engine,
        )
    doc = analysis.LOG.as_dict()
    return {
        "config": {
            "benchmarks": list(names),
            "depth": depth,
            "max_eval": max_eval,
            "size": size,
            "device": device,
            "engine": engine or "auto",
        },
        "workloads": doc["workloads"],
        "records": doc["records"],
    }


def format_calibrate(data: dict) -> str:
    cfg = data["config"]
    header = (
        f"Cost-model calibration (depth {cfg['depth']}, "
        f"max-eval {cfg['max_eval']}, size {cfg['size']}, "
        f"device {cfg['device']}, engine {cfg['engine']})"
    )
    table = analysis.format_calibration({"workloads": data["workloads"]})
    return f"{header}\n\n{table}"

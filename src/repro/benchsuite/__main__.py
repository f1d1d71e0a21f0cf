"""Command-line entry point: regenerate the paper's evaluation.

    python -m repro.benchsuite table1
    python -m repro.benchsuite figure6
    python -m repro.benchsuite figure8 [--sizes small large] [--benchmarks nn gemv ...] [--explain]
    python -m repro.benchsuite explore [--benchmarks nn gemv ...] [--depth 3] [--cache-dir DIR]
    python -m repro.benchsuite calibrate [--benchmarks nn gemv mm] [--depth 3]
    python -m repro.benchsuite report --inputs m1.json m2.json --output perf-report.md
    python -m repro.benchsuite all
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchsuite",
        description="Regenerate the Lift paper's evaluation artifacts.",
    )
    parser.add_argument(
        "experiment",
        choices=["table1", "figure6", "figure8", "explore", "calibrate",
                 "report", "all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--sizes", nargs="+", default=["small"],
        choices=["small", "large"], help="input sizes for figure8",
    )
    parser.add_argument(
        "--benchmarks", nargs="+", default=None,
        help="restrict figure8/table1/explore to these benchmarks",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="after the figure8 table, print per benchmark and level "
             "which counter owns how many of the cycles the generated "
             "kernel owes the hand-written one (priced for --device)",
    )
    parser.add_argument(
        "--depth", type=int, default=3,
        help="rewrite-space search depth for explore",
    )
    parser.add_argument(
        "--max-eval", type=int, default=12,
        help="how many explore candidates to compile and simulate",
    )
    parser.add_argument(
        "--device", default="nvidia", choices=["nvidia", "amd"],
        help="device profile for explore's cost model and figure8 "
             "--explain",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="tuning-cache directory for explore/figure8 (default: "
             "REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="run figure8/explore without the tuning cache",
    )
    parser.add_argument(
        "--engine", default=None,
        help="execution engine for figure8/explore launches (auto, the "
             "default, and compiled: the compiled pipeline, which raises "
             "a typed error on a kernel it does not run; scalar: the "
             "reference interpreter)",
    )
    parser.add_argument(
        "--inputs", nargs="+", default=None, metavar="PATH",
        help="metrics-snapshot JSON files the report command merges, "
             "and trace files (--trace) its roofline reads (default: "
             "the live in-process snapshot)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report markdown to PATH (default: stdout)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a Chrome trace_event JSON of the run to PATH "
             "(load it in chrome://tracing or ui.perfetto.dev; same as "
             "REPRO_TRACE)",
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="dump the unified metrics snapshot (cache, explorer, "
             "per-backend launch counts) to PATH",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-barrier-segment time and per-buffer "
             "traffic of the compiled backend, read from the "
             "trace (traces without writing a file when --trace is "
             "absent)",
    )
    args = parser.parse_args(argv)

    problem = None
    if args.experiment in ("explore", "calibrate"):
        from repro.benchsuite.explore import request_error

        problem = request_error(args.benchmarks, args.depth, args.max_eval)
    elif args.benchmarks is not None:
        from repro.benchsuite.common import benchmark_names

        unknown = [n for n in args.benchmarks if n not in benchmark_names()]
        if unknown:
            problem = (
                f"unknown benchmark {', '.join(unknown)}: valid benchmarks "
                f"are {', '.join(benchmark_names())}"
            )
    if problem is None and args.engine is not None:
        from repro.backend import engine_backend

        try:
            engine_backend(args.engine)
        except ValueError as exc:  # names the valid engines
            problem = str(exc)
    if problem is not None:
        print(f"{parser.prog} {args.experiment}: error: {problem}",
              file=sys.stderr)
        return 2

    cache = None
    if args.experiment in ("figure8", "all", "explore") and not args.no_cache:
        from repro.cache import TuningCache

        try:
            cache = TuningCache(args.cache_dir)
        except ValueError as exc:  # a malformed REPRO_CACHE_MAX_BYTES
            print(f"{parser.prog} {args.experiment}: error: {exc}",
                  file=sys.stderr)
            return 2

    from repro import obs

    tracer = None
    if args.trace is not None or args.profile:
        tracer = obs.start_tracing(args.trace)

    if args.experiment in ("table1", "all"):
        from repro.benchsuite.table1 import format_table1, run_table1

        print(format_table1(run_table1(args.benchmarks)))
        print()

    if args.experiment in ("figure6", "all"):
        from repro.benchsuite.figure6 import format_figure6

        print(format_figure6())
        print()

    if args.experiment in ("figure8", "all"):
        from repro.benchsuite.figure8 import (
            format_explanation,
            format_figure8,
            run_figure8,
        )

        cells = run_figure8(
            args.benchmarks, sizes=tuple(args.sizes), cache=cache,
            engine=args.engine,
        )
        print(format_figure8(cells))
        if args.explain:
            print()
            print(format_explanation(cells, args.device))
        if cache is not None:
            s = cache.stats
            print(
                f"[tuning cache: {s.run_hits} run hits / "
                f"{s.run_misses} misses, {s.kernel_hits} kernel hits]"
            )

    if args.experiment == "calibrate":
        from repro.benchsuite.calibrate import format_calibrate, run_calibrate

        data = run_calibrate(
            args.benchmarks,
            depth=args.depth,
            max_eval=args.max_eval,
            size=args.sizes[0],
            device=args.device,
            engine=args.engine,
        )
        print(format_calibrate(data))

    if args.experiment == "report":
        from repro.benchsuite.report import build_report

        markdown = build_report(args.inputs or ())
        if args.output is not None:
            with open(args.output, "w") as fh:
                fh.write(markdown + "\n")
            print(f"[perf report written to {args.output}]", file=sys.stderr)
        else:
            print(markdown)

    if args.experiment == "explore":
        from repro.benchsuite.explore import format_explore, run_explore

        data = run_explore(
            args.benchmarks,
            depth=args.depth,
            max_eval=args.max_eval,
            size=args.sizes[0],
            cache=cache,
            device=args.device,
            engine=args.engine,
        )
        print(format_explore(data))

    if cache is not None:
        _print_cache_recoveries(cache.stats)

    if args.profile:
        print(obs.analysis.format_profile(tracer.events()),
              file=sys.stderr)
    if args.metrics_json is not None:
        import json

        with open(args.metrics_json, "w") as fh:
            json.dump(obs.snapshot(), fh, indent=2, default=str)
        print(f"[metrics snapshot written to {args.metrics_json}]",
              file=sys.stderr)
    if tracer is not None:
        path = obs.stop_tracing()
        if path is not None:
            print(f"[trace written to {path}]", file=sys.stderr)

    return 0


def _print_cache_recoveries(stats) -> None:
    """Surface every non-silent cache recovery (nothing when clean).

    Diagnostics go to stderr: stdout carries the artifact tables, which
    must stay byte-identical across engines and cache states."""
    recovered = {
        "quarantined": stats.quarantined,
        "io errors": stats.io_errors,
        "evictions": stats.evictions,
        "write skips": stats.write_skips,
    }
    shown = {k: v for k, v in recovered.items() if v}
    if shown:
        print(
            "[cache recoveries: "
            + ", ".join(f"{v} {k}" for k, v in shown.items())
            + "]",
            file=sys.stderr,
        )


if __name__ == "__main__":
    sys.exit(main())

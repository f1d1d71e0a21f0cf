"""End-to-end benchmark of the Lift pipeline: five workloads, attributed
layer by layer.  See README.md beside this file.

    python3 benchmarks/e2e/run.py                 # all workloads, untraced
                                                  # rounds then traced pass,
                                                  # writes out/BENCH_e2e.json
    python3 benchmarks/e2e/run.py --smoke         # the same in < 30 s
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T
                                                  # one workload; last line of
                                                  # stdout is the result JSON
    python3 benchmarks/e2e/run.py --compare A.json B.json

Load model: closed loop, one client — one child process at a time, each
doing fixed work per iteration until its share of ``--seconds`` is up.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

#: Children per untraced run; ``setup_s`` is their median.
ROUNDS = 3
#: What ``child.calibrate()`` takes on the 2-core box in its usual
#: state.  Iteration times are divided by (measured / this), which
#: states them at that speed and takes the machine's drift out.
REFERENCE_CALIB_S = 0.0069
#: The program's own switches, which a benchmark run must not inherit.
SCRUBBED_ENV = (
    "REPRO_SIM_ENGINE", "REPRO_TRACE", "REPRO_PROFILE", "REPRO_FAULT_PLAN",
    "REPRO_CACHE_MAX_BYTES",
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summary(values) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values), "samples": list(values)}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def spawn(workload, seed, seconds, traced, tmp_root, iterations=0) -> dict:
    """Run one child to completion and return its report."""
    tmp = tmp_root / f"{workload}-{time.monotonic_ns()}"
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--iterations", str(iterations), "--tmp", str(tmp),
    ]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(OUT / f"trace-{workload}.json")]
    cmd += ["--spawned", repr(time.time())]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=170
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode:
        raise RuntimeError(f"child for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def warm_walls(report) -> list:
    """A child's iterations without its cold first one (a one-iteration
    smoke child has only that)."""
    return report["walls"][1:] or report["walls"]


def end_to_end(reports) -> dict:
    """Fold the untraced children of one workload into its end-to-end
    metrics, their samples, and the verdict on its outputs."""
    slowness = [r["calib_s"] / REFERENCE_CALIB_S for r in reports]
    walls = [[w / slow for w in r["walls"]]
             for r, slow in zip(reports, slowness)]
    warm = [w for child in walls for w in (child[1:] or child)]
    raw_warm = [w for r in reports for w in warm_walls(r)]
    attempted = sum(sum(r["attempted"]) + r["verify_attempted"]
                    for r in reports)
    failed = sum(sum(r["failed"]) + r["verify_failed"] for r in reports)
    timed_ops = sum(sum(r["attempted"]) for r in reports)
    problems = [f for r in reports for f in r["failures"]]
    first = reports[0]
    for r in reports[1:]:
        for key in ("digest",) + M.DETERMINISTIC:
            if r[key] != first[key]:
                problems.append(
                    f"{key} differs between children: "
                    f"{first[key]} vs {r[key]}"
                )
    return {
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "wall_s": statistics.median(warm),
            "ops_per_s": timed_ops / sum(sum(child) for child in walls),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            "sim_cycles": first["sim_cycles"],
            "code_bytes": first["code_bytes"],
        },
        "samples": {
            "setup_s": summary([r["setup_s"] for r in reports]),
            "wall_s": summary(warm),
            "ops_per_s": summary([
                sum(r["attempted"]) / sum(child)
                for r, child in zip(reports, walls)
            ]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in reports]),
        },
        "as_measured": {
            "wall_s": statistics.median(raw_warm),
            "ops_per_s": timed_ops / sum(sum(r["walls"]) for r in reports),
            "slowness": statistics.median(slowness),
        },
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "digest": first["digest"],
        "iter0_over_median": statistics.median(
            r["walls"][0] for r in reports
        ) / statistics.median(raw_warm),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Every per-layer metric of one workload from its traced child
    (``_s`` values per iteration) and the untraced run beside it."""
    iterations = len(traced["walls"])
    self_s = traced["self_s"]
    values = dict.fromkeys(M.PER_LAYER_NAMES, 0.0)
    values.update(
        {k: v for k, v in traced["startup"].items() if k in values}
    )
    # A span named after its layer feeds the metric `<span>_s`.
    for row in self_s.values():
        for span, seconds in row.items():
            if f"{span}_s" in values:
                values[f"{span}_s"] += seconds / iterations
    values["compiler.compile_first_s"] = self_s.get("0", {}).get(
        "compiler.compile", 0.0
    )
    for name, total in traced["fig8_s"].items():
        values[f"{name}.s"] = total / iterations
    for name, total in traced["counts"].items():
        values[name] = total / iterations
    if values["opencl.cparser.parse_s"] and values["opencl.lexer.tokens"]:
        values["opencl.cparser.tokens_per_s"] = (
            values["opencl.lexer.tokens"] / values["opencl.cparser.parse_s"]
        )
    launches = 0
    for b in M.BACKENDS:
        run_s = values[f"backend.{b}.run_s"]
        values[f"backend.{b}.launches"] = traced["launches"][b] / iterations
        launches += traced["launches"][b]
        if run_s:
            values[f"backend.{b}.items_per_s"] = (
                traced["run_items"][b] / iterations / run_s
            )
    values["backend.declines"] = traced["declines"] / iterations
    if launches:
        values["backend.scalar.launch_share"] = (
            traced["launches"]["scalar"] / launches
        )
    values.update(traced["extras"])
    wall = sum(traced["walls"])
    inside = sum(sum(row.values()) for row in self_s.values())
    values["harness.untraced_share"] = (wall - inside) / wall
    # both sides at the reference speed: the two children ran apart
    values["harness.trace_overhead"] = (
        statistics.median(warm_walls(traced))
        / (traced["calib_s"] / REFERENCE_CALIB_S)
        / untraced["metrics"]["wall_s"]
    )
    values["harness.iter0_over_median"] = untraced["iter0_over_median"]
    return values


# ---------------------------------------------------------------------------
# one workload (the benchmark contract's entry point)
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, traced, tmp_root,
                 iterations=0, rounds=ROUNDS) -> dict:
    """One run of one workload.  Untraced: ``rounds`` children share
    ``seconds`` and give the end-to-end metrics.  Traced: one untraced
    and one traced child share them and give the per-layer metrics."""
    if not traced:
        return end_to_end([
            spawn(workload, seed, seconds / rounds, False, tmp_root,
                  iterations)
            for _ in range(rounds)
        ])
    plain = end_to_end(
        [spawn(workload, seed, seconds / 2, False, tmp_root, iterations)]
    )
    report = spawn(workload, seed, seconds / 2, True, tmp_root, iterations)
    return layer_result(report, plain)


def layer_result(report: dict, plain: dict) -> dict:
    """The traced child's verdict: its outputs, its agreement with the
    untraced child, and how much of its time the spans explain."""
    layers = per_layer(report, plain)
    attempted = sum(report["attempted"]) + report["verify_attempted"]
    failed = sum(report["failed"]) + report["verify_failed"]
    problems = list(report["failures"]) + plain["problems"]
    if report["digest"] != plain["digest"]:
        problems.append("traced child's results differ from the untraced")
    share = layers["harness.untraced_share"]
    if (report["workload"] in M.UNTRACED_SHARE_WORKLOADS
            and share > M.UNTRACED_SHARE_LIMIT):
        problems.append(f"harness.untraced_share {share:.3f} over the limit")
    return {
        "metrics": layers,
        "attempted": attempted + plain["attempted"],
        "failed": failed + plain["failed"],
        "correct": failed == 0 and plain["correct"] and not problems,
        "problems": problems,
        "iterations": len(report["walls"]),
    }


def result_line(result: dict, table) -> str:
    """The last line of stdout the benchmark contract asks for."""
    units = {row[0]: row[1] for row in table}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    })


# ---------------------------------------------------------------------------
# the whole set
# ---------------------------------------------------------------------------

def run_all(workloads, seed, seconds, tmp_root, iterations, rounds) -> dict:
    """Untraced children round-robin — so slow drift of the machine
    spreads over all workloads — then one traced child per workload."""
    reports: dict = {w: [] for w in workloads}
    for r in range(rounds):
        for w in workloads:
            print(f"  round {r + 1}/{rounds} {w}", file=sys.stderr)
            reports[w].append(
                spawn(w, seed, seconds / rounds, False, tmp_root, iterations)
            )
    doc = {
        "description": "End-to-end baseline of benchmarks/e2e/run.py: "
        "end-to-end metrics from untraced children, per-layer metrics "
        "from one traced child per workload.",
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "workloads": {},
    }
    for w in workloads:
        print(f"  traced {w}", file=sys.stderr)
        plain = end_to_end(reports[w])
        layers = layer_result(
            spawn(w, seed, seconds / 2, True, tmp_root,
                  max(iterations // 2, 1) if iterations else 0),
            plain,
        )
        doc["workloads"][w] = {
            "end_to_end": plain["metrics"],
            "samples": plain["samples"],
            "as_measured": plain["as_measured"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "fail_share": plain["fail_share"],
            "correct": layers["correct"],  # the untraced verdict included
            "problems": layers["problems"],
            "per_layer": layers["metrics"],
            "traced_iterations": layers["iterations"],
        }
    return doc


def print_table(doc: dict) -> None:
    for w, row in doc["workloads"].items():
        print(f"== {w}: {row['attempted']} ops attempted, "
              f"{row['failed']} failed (fail_share {row['fail_share']:.4f})"
              f"{'' if row['correct'] else '  INCORRECT'}")
        for name, unit, *_ in M.END_TO_END:
            line = f"  {name:<14}{row['end_to_end'][name]:>16.6g} {unit}"
            s = row["samples"].get(name)
            if s:
                line += (f"   n={s['n']} q1={s['q1']:.4g} q3={s['q3']:.4g} "
                         f"min={s['min']:.4g} max={s['max']:.4g}")
            if name in row["as_measured"]:
                line += f"   as measured {row['as_measured'][name]:.4g}"
            print(line)
        print(f"  machine slowness {row['as_measured']['slowness']:.3f} "
              f"(calibration loop / {REFERENCE_CALIB_S} s)")
        for name, unit, *_ in M.PER_LAYER:
            value = row["per_layer"][name]
            if value:
                print(f"    {name:<38}{value:>14.6g} {unit}")
        for problem in row["problems"]:
            print(f"  ! {problem}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def verdict(better, bound, a, b, samples_a=None, samples_b=None) -> str:
    """One row of ``--compare``.  ``bound=None`` asks for equality:
    ``ok`` or ``differs``.  Otherwise ``regressed`` when B is worse
    than A by more than the bound — but ``unresolved`` when the spread
    of either side's samples is wider than the bound, unless every
    sample of B beats every sample of A."""
    if bound is None:
        return "ok" if a == b else "differs"
    if samples_a and samples_b and max(
        spread(samples_a), spread(samples_b)
    ) > bound:
        if better == "lower":
            wins = max(samples_b) < min(samples_a)
        else:
            wins = min(samples_b) > max(samples_a)
        return "ok" if wins else "unresolved"
    worse = b / a - 1 if better == "lower" else a / b - 1
    return "regressed" if worse > bound else "ok"


def compare(path_a, path_b) -> int:
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    # Counts repeat exactly; sim_cycles only does for equal inputs (a
    # few Counters depend on the data).
    same_seed = doc_a["seed"] == doc_b["seed"]
    rows = [
        ("end_to_end", name, better,
         None if same_seed and name in M.DETERMINISTIC else bound)
        for name, _unit, better, bound, _meaning in M.END_TO_END
    ] + [
        ("per_layer", name, better, None)
        for name, _unit, better, _layer, _moves in M.PER_LAYER
    ]
    bad = 0
    print(f"{'metric':<40}{'workload':<14}{'A':>14}{'B':>14}"
          f"{'B/A':>9}  verdict")
    for w, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(w)
        if b is None:
            continue
        for section, name, better, bound in rows:
            va, vb = a[section][name], b[section][name]
            if not va and not vb:
                continue
            if section == "per_layer" and name not in M.COUNT_VALUED:
                v = "-"  # timing layer metrics carry no bound
            else:
                v = verdict(
                    better, bound, va, vb,
                    a["samples"].get(name, {}).get("samples"),
                    b["samples"].get(name, {}).get("samples"),
                )
            ratio = f"{vb / va:9.3f}" if va else f"{'-':>9}"
            print(f"{name:<40}{w:<14}{va:>14.6g}{vb:>14.6g}{ratio}  {v}")
            bad += v in ("regressed", "differs")
        if a["failed"] or b["failed"]:
            print(f"{'fail_share':<40}{w:<14}{a['fail_share']:>14.6g}"
                  f"{b['fail_share']:>14.6g}{'':>9}  regressed")
            bad += 1
    return 1 if bad else 0


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=M.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=M.RUN_SECONDS,
                    help="how long one run of one workload measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="with --workload: 0 end-to-end, 1 per-layer metrics")
    ap.add_argument("--iterations", type=int, default=0,
                    help="fixed iterations per child instead of --seconds")
    ap.add_argument("--rounds", type=int, default=ROUNDS,
                    help="untraced children per workload")
    ap.add_argument("--smoke", action="store_true",
                    help="1 round, 1 iteration, all checks")
    ap.add_argument("--out", type=Path,
                    help="default: BENCH_e2e.json beside this file for the "
                    "whole set, out/BENCH_e2e.json for a part or a smoke")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--write-manifest", action="store_true",
                    help="regenerate BENCHMARK.json from metrics.py")
    ap.add_argument("--describe", action="store_true",
                    help="print the README's tables from metrics.py")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.describe:
        print(M.describe())
        return 0
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(M.manifest(), indent=2) + "\n"
        )
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e: no program to measure (src/repro missing)",
              file=sys.stderr)
        return 2
    if args.smoke:
        args.rounds, args.iterations = 1, 1

    tmp_root = OUT / f"tmp-{os.getpid()}"
    tmp_root.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload and args.trace is not None:
            result = run_workload(
                args.workload, args.seed, args.seconds, args.trace,
                tmp_root, args.iterations, args.rounds,
            )
            for problem in result["problems"]:
                print(f"! {problem}", file=sys.stderr)
            print(result_line(
                result, M.PER_LAYER if args.trace else M.END_TO_END
            ))
            return 0 if result["correct"] else 1
        workloads = [args.workload] if args.workload else M.WORKLOAD_NAMES
        doc = run_all(workloads, args.seed, args.seconds, tmp_root,
                      args.iterations, args.rounds)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print_table(doc)
    partial = args.workload or args.smoke or args.iterations
    out = args.out or (OUT if partial else HERE) / "BENCH_e2e.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(r["correct"] for r in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

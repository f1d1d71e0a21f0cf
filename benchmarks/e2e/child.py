"""One child process: set up one workload, iterate it for a time budget,
verify, and print one JSON report on the last line of stdout.

Spawned by ``run.py``, one at a time (closed loop, one client).  The
clock of ``setup_s`` starts in the parent, just before the spawn, and
stops here at the first timed op, so interpreter start and every import
below count.
"""

import time

_ENTERED = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

#: A child always runs a cold and a warm iteration.
MIN_ITERATIONS = 2


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now: the speed of
    the machine, which on the shared 2-core box moves by a third for
    minutes at a time.  Independent of the program under test."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--iterations", type=int, default=0)
    ap.add_argument("--trace-file", type=Path, default=None)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args()

    t0 = time.time()
    import repro  # noqa: F401
    t1 = time.time()
    import repro.benchsuite.loader  # noqa: F401  (registry, incl. scipy)
    import workloads
    from spans import Recorder, fold
    t2 = time.time()

    rec = Recorder(enabled=args.trace_file is not None)
    workload = workloads.make(args.workload, args.seed, rec, args.tmp)
    workload.prepare()
    t3 = time.time()

    walls, attempted, failed, speed = [], [], [], []
    started = time.perf_counter()
    while True:
        speed += [calibrate() for _ in range(3)]
        rec.iteration = len(walls)
        start = time.perf_counter()
        workload.iterate(len(walls))
        now = time.perf_counter()
        walls.append(now - start)
        done, bad = workload.take_ops()
        attempted.append(done)
        failed.append(bad)
        if args.iterations:
            if len(walls) >= args.iterations:
                break
        elif len(walls) >= MIN_ITERATIONS and (
            # stop when the next iteration would end more than half of
            # itself past the budget
            now - started + 0.5 * walls[-1] > args.seconds
        ):
            break
    # The verification below is untimed and outside every layer metric.
    traced, rec.enabled = rec.enabled, False
    sim_cycles, code_bytes = workload.finish()
    done, bad = workload.take_ops()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": traced,
        "setup_s": t3 - args.spawned,
        "startup": {
            "interpreter_s": _ENTERED - args.spawned,
            "startup.import_repro_s": t1 - t0,
            "startup.import_benchsuite_s": t2 - t1,
            "startup.prepare_s": t3 - t2,
        },
        "walls": walls,
        "calib_s": statistics.median(speed),
        "attempted": attempted,
        "failed": failed,
        "verify_attempted": done,
        "verify_failed": bad,
        "failures": workload.failures,
        "sim_cycles": sim_cycles,
        "code_bytes": code_bytes,
        "digest": workload.digest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if traced:
        # spans of set-up carry iteration -1
        report["self_s"] = {
            str(it): row for it, row in fold(rec.spans).items() if it >= 0
        }
        report["fig8_s"] = _inclusive(rec.spans, "fig8.")
        report["launches"] = workload.launches
        report["run_items"] = workload.run_items
        report["declines"] = workload.declines
        report["counts"] = workload.counts
        report["extras"] = workload.layer_extras()
        rec.write_chrome_trace(args.trace_file)
    print(json.dumps(report))


def _inclusive(spans, prefix: str) -> dict:
    """Summed inclusive duration of the spans named ``prefix*``."""
    total: dict = {}
    for name, start, end, _parent, _iteration in spans:
        if name.startswith(prefix):
            total[name] = total.get(name, 0.0) + end - start
    return total


if __name__ == "__main__":
    main()

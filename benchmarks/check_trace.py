"""CI gate: validate a Chrome ``trace_event`` file written by repro.obs.

Checks that the document is well-formed (Chrome's JSON Object Format
with a ``traceEvents`` array), that every event carries the fields the
``chrome://tracing`` / Perfetto importers require, that per-thread
``ph:"X"`` complete spans nest by ``ts``/``dur`` containment (partial
overlap means a broken clock or a span leaked across threads), and —
optionally — that a set of required span names is present, so the CI
trace job notices when an instrumented call site is silently removed.

Span *args* can be validated too: ``--require-args NAME:key1,key2``
asserts every event named ``NAME`` carries those keys under ``args``,
so the trace stays joinable with the calibration log
(``explore.evaluate`` carries engine/workload, ``explore.compile``
carries structural_hash).

Exit status 0 = valid, 1 = invalid (with a report on stdout).

Usage::

    python benchmarks/check_trace.py TRACE.json
        [--require launch plan run ...] [--min-events N]
        [--require-args 'explore.compile:candidate,structural_hash']
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Fields every event must carry, per phase type.
_COMMON = ("name", "ph", "pid", "tid")
_BY_PHASE = {
    "X": ("ts", "dur"),  # complete spans
    "i": ("ts", "s"),    # instants
    "M": (),             # metadata (thread_name)
}

#: ts/dur are float microseconds; clock jitter below this is not a
#: containment violation.
_EPSILON_US = 0.5


def validate(
    document: dict, require=(), min_events: int = 1, require_args=None
) -> list:
    """All schema/nesting violations in the document (empty = valid).

    ``require_args`` maps span names to argument keys every event of
    that name must carry under ``args`` (names the events must exist
    at all, like ``require``)."""
    errors = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document has no traceEvents array"]
    if document.get("displayTimeUnit") not in ("ms", "ns"):
        errors.append("displayTimeUnit must be 'ms' or 'ns'")

    spans = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event #{i} is not an object")
            continue
        phase = event.get("ph")
        if phase not in _BY_PHASE:
            errors.append(f"event #{i}: unknown phase {phase!r}")
            continue
        for field in _COMMON + _BY_PHASE[phase]:
            if field not in event:
                errors.append(
                    f"event #{i} ({event.get('name')!r}): missing {field!r}"
                )
        if phase == "X":
            ts, dur = event.get("ts"), event.get("dur")
            if not isinstance(ts, (int, float)) or not isinstance(
                dur, (int, float)
            ):
                errors.append(
                    f"event #{i} ({event.get('name')!r}): "
                    "ts/dur must be numbers"
                )
            elif dur < 0:
                errors.append(
                    f"event #{i} ({event.get('name')!r}): negative dur"
                )
            else:
                spans.append(event)

    complete = [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]
    if len(complete) < min_events:
        errors.append(
            f"only {len(complete)} complete spans (need >= {min_events}) — "
            "did the instrumented code paths run?"
        )

    names = {e.get("name") for e in events if isinstance(e, dict)}
    for name in require:
        if name not in names:
            errors.append(f"required span {name!r} absent from the trace")

    for name, keys in (require_args or {}).items():
        matching = [
            e for e in events
            if isinstance(e, dict) and e.get("name") == name
        ]
        if not matching:
            errors.append(
                f"required span {name!r} absent from the trace "
                f"(args {sorted(keys)} unverifiable)"
            )
            continue
        for event in matching:
            span_args = event.get("args")
            if not isinstance(span_args, dict):
                errors.append(f"span {name!r} carries no args dict")
                continue
            missing = sorted(k for k in keys if k not in span_args)
            if missing:
                errors.append(
                    f"span {name!r} missing args {missing} "
                    f"(has {sorted(span_args)})"
                )

    errors += _check_nesting(spans)

    dropped = document.get("otherData", {}).get("droppedEvents", 0)
    if dropped:
        print(f"note: tracer dropped {dropped} events at its buffer cap")
    return errors


def _check_nesting(spans: list) -> list:
    """Per thread, spans must nest: any two either disjoint or one
    containing the other.  Partial overlap cannot render as a flame
    graph and indicates broken instrumentation."""
    errors = []
    by_tid: dict = {}
    for span in spans:
        by_tid.setdefault(span["tid"], []).append(span)
    for tid, group in by_tid.items():
        group.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list = []
        for span in group:
            start, end = span["ts"], span["ts"] + span["dur"]
            while stack and stack[-1][1] <= start + _EPSILON_US:
                stack.pop()
            if stack and end > stack[-1][1] + _EPSILON_US:
                errors.append(
                    f"tid {tid}: span {span['name']!r} "
                    f"[{start:.1f}, {end:.1f}] partially overlaps "
                    f"{stack[-1][2]!r} ending at {stack[-1][1]:.1f}"
                )
                continue
            stack.append((start, end, span["name"]))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", type=Path, help="trace JSON to validate")
    parser.add_argument(
        "--require", nargs="*", default=[],
        help="span names that must appear in the trace",
    )
    parser.add_argument(
        "--min-events", type=int, default=1,
        help="minimum number of complete spans expected",
    )
    parser.add_argument(
        "--require-args", nargs="*", default=[], metavar="NAME:K1,K2",
        help="span-arg requirements: every event named NAME must carry "
             "args K1, K2, ... (e.g. "
             "'explore.compile:candidate,structural_hash')",
    )
    args = parser.parse_args(argv)

    require_args = {}
    for spec in args.require_args:
        name, sep, keys = spec.partition(":")
        if not sep or not name or not keys:
            print(f"trace gate FAILED: bad --require-args spec {spec!r} "
                  "(want NAME:key1,key2)")
            return 1
        require_args.setdefault(name, set()).update(
            k for k in keys.split(",") if k
        )

    try:
        document = json.loads(args.trace.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"trace gate FAILED: cannot read {args.trace}: {exc}")
        return 1

    errors = validate(
        document, require=args.require, min_events=args.min_events,
        require_args=require_args,
    )
    events = document.get("traceEvents") or []
    if errors:
        print(f"trace gate FAILED for {args.trace} ({len(events)} events):")
        for error in errors:
            print(f"  - {error}")
        return 1
    threads = len({e.get("tid") for e in events if isinstance(e, dict)})
    print(
        f"trace gate passed: {args.trace} — {len(events)} events across "
        f"{threads} thread(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

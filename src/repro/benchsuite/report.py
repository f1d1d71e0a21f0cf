"""Unified markdown performance report.

``python -m repro.benchsuite report --inputs m1.json m2.json --output
perf-report.md`` merges one or more ``--metrics-json`` snapshots (from
``calibrate``, ``figure8 --profile``, ``explore``, ...) into a single
markdown document with three sections — cost-model calibration, roofline
attribution and headline benchsuite counters —
which CI uploads as a workflow artifact, so every run leaves one
human-readable perf record behind.

Merging is last-writer-wins per top-level section: later inputs
override earlier ones where both carry real data (a snapshot whose
calibration section is empty does not erase an earlier populated one).
With no ``--inputs`` the live in-process snapshot is used.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.obs import analysis

__all__ = ["merge_snapshots", "build_report"]


def _has_data(section) -> bool:
    """Does this snapshot section carry real (non-placeholder) data?"""
    if not section:
        return False
    if isinstance(section, dict):
        if section.get("error"):
            return False
        # Placeholder providers: {"active": False}, empty calibration
        # ({"workloads": {}, ...}), disabled profile.
        if section == {"active": False}:
            return False
        if "workloads" in section and not section["workloads"]:
            return False
        if "segments" in section and not section["segments"]:
            return False
        return True
    return True


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge metrics snapshots, last-writer-wins where data exists."""
    merged: dict = {}
    for snap in snapshots:
        for key, section in snap.items():
            if key not in merged or _has_data(section):
                merged[key] = section
    return merged


def build_report(
    inputs: Sequence[str] = (),
    title: str = "Performance report",
) -> str:
    """Render the merged snapshots as a markdown document."""
    if inputs:
        snapshots = []
        for path in inputs:
            with open(path) as fh:
                snapshots.append(json.load(fh))
        doc = merge_snapshots(snapshots)
    else:
        from repro import obs

        doc = obs.snapshot()

    lines = [f"# {title}", ""]

    # -- calibration ----------------------------------------------------
    lines.append("## Cost-model calibration")
    lines.append("")
    workloads = (doc.get("calibration") or {}).get("workloads", {})
    if workloads:
        lines.append(
            "| workload | candidates | spearman | top-1 regret "
            "| top-5 regret | residual RMS |"
        )
        lines.append("|---|---|---|---|---|---|")
        for name in sorted(workloads):
            s = workloads[name]

            def fmt(v, pct=False):
                if v is None:
                    return "n/a"
                return f"{v * 100:.1f}%" if pct else f"{v:.3f}"

            lines.append(
                f"| {name} | {s['candidates']} | {fmt(s['spearman'])} "
                f"| {fmt(s['top1_regret'], pct=True)} "
                f"| {fmt(s['top5_regret'], pct=True)} "
                f"| {fmt(s['residual_rms'])} |"
            )
    else:
        lines.append("_No calibration records (run `benchsuite calibrate`)._")
    lines.append("")

    # -- roofline -------------------------------------------------------
    lines.append("## Roofline attribution")
    lines.append("")
    profile_doc = doc.get("profile") or {}
    rows = (
        analysis.roofline_segments(profile_doc=profile_doc)
        if profile_doc.get("segments") else []
    )
    if rows:
        ridge = rows[0]["ridge"]
        lines.append(f"Ridge point: {ridge:.1f} flop/byte.")
        lines.append("")
        lines.append(
            "| kernel | segment | kind | flops | bytes | flop/byte "
            "| bound |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        for r in rows[:16]:
            ai = (
                "n/a" if r["intensity"] is None
                else f"{r['intensity']:.2f}"
            )
            lines.append(
                f"| {r['kernel']} | {r['segment']} | {r['kind']} "
                f"| {r['flops']} | {r['bytes']} | {ai} | {r['bound']} |"
            )
    else:
        lines.append("_No profiled segments (run with `--profile`)._")
    lines.append("")

    # -- headline counters ----------------------------------------------
    lines.append("## Headline counters")
    lines.append("")
    counters = doc.get("counters") or {}
    if counters:
        lines.append("| counter | value |")
        lines.append("|---|---|")
        for name in sorted(counters):
            lines.append(f"| {name} | {counters[name]} |")
    else:
        lines.append("_No counters recorded._")
    lines.append("")
    return "\n".join(lines)

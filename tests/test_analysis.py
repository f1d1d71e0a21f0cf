"""Tests for the performance-attribution layer (repro.obs.analysis).

Covers the calibration math (Spearman with tie handling, top-k regret,
scale-aligned residuals) on synthetic menus with known orderings,
``analysis.calibration`` (empty menu, one candidate, tied costs), roofline
classification against synthetic segment counters, and the explorer
integration (each ``explore_benchmark`` entry carries its own search's
calibration).
"""

import json
import math

import pytest

from repro.obs import analysis
from repro.obs.analysis import calibration, short_hash, spearman, topk_regret


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------

class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_monotone_nonlinear_is_still_one(self):
        # Rank correlation ignores the shape, only the ordering counts.
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [math.exp(x) for x in xs]
        assert spearman(xs, ys) == pytest.approx(1.0)

    def test_ties_average_rank(self):
        # xs ranks: [1, 2.5, 2.5, 4] — the tied pair shares rank 2.5.
        # Pearson on those ranks vs [1,2,3,4] is sqrt(4.5/5).
        r = spearman([1, 2, 2, 3], [1, 2, 3, 4])
        assert r == pytest.approx(math.sqrt(4.5 / 5))

    def test_all_tied_is_undefined(self):
        assert spearman([7, 7, 7], [1, 2, 3]) is None
        assert spearman([1, 2, 3], [7, 7, 7]) is None

    def test_too_few_pairs(self):
        assert spearman([], []) is None
        assert spearman([1], [1]) is None

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1])


class TestTopkRegret:
    # predicted order: 0, 1, 2, 3;  measured best is index 1 (1.0).
    PRED = [10.0, 20.0, 30.0, 40.0]
    MEAS = [2.0, 1.0, 4.0, 3.0]

    def test_top1_misses_winner(self):
        # Model's #1 pick measures 2.0; true best is 1.0 → 100% regret.
        assert topk_regret(self.PRED, self.MEAS, 1) == pytest.approx(1.0)

    def test_top2_contains_winner(self):
        assert topk_regret(self.PRED, self.MEAS, 2) == pytest.approx(0.0)

    def test_k_larger_than_menu(self):
        assert topk_regret(self.PRED, self.MEAS, 99) == pytest.approx(0.0)

    def test_empty_menu(self):
        assert topk_regret([], [], 1) is None

    def test_nonpositive_best_is_undefined(self):
        assert topk_regret([1.0, 2.0], [0.0, 5.0], 1) is None

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            topk_regret([1.0], [], 1)


# ---------------------------------------------------------------------------
# calibration of one search
# ---------------------------------------------------------------------------

class TestCalibration:
    def test_empty_menu(self):
        assert calibration([], []) == {
            "candidates": 0,
            "spearman": None,
            "top1_regret": None,
            "top5_regret": None,
            "residual_rms": None,
        }

    def test_one_candidate(self):
        # A one-candidate menu has no rank variance: spearman is None
        # and the formatter must render it, not crash.
        row = calibration([3.0], [6.0])
        assert row == {
            "candidates": 1,
            "spearman": None,
            "top1_regret": 0.0,
            "top5_regret": 0.0,
            "residual_rms": 0.0,
        }
        assert "n/a" in analysis.format_calibration({"workloads": {"mm": row}})

    def test_known_menu_statistics(self):
        # Static cost ranks candidates exactly as the modeled runtime
        # does, and modeled = 2 * static, so residuals vanish after
        # the geometric-mean scale alignment.
        statics = [3.0, 1.0, 2.0, 4.0]
        row = calibration(statics, [2.0 * p for p in statics])
        assert row["candidates"] == 4
        assert row["spearman"] == pytest.approx(1.0)
        assert row["top1_regret"] == pytest.approx(0.0)
        assert row["top5_regret"] == pytest.approx(0.0)
        assert row["residual_rms"] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_menu(self):
        # Static cost ranks candidates exactly backwards.
        row = calibration([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
        assert row["spearman"] == pytest.approx(-1.0)
        # Model's top-1 pick (static 1.0) measures 4.0 vs true best 1.0.
        assert row["top1_regret"] == pytest.approx(3.0)

    def test_tied_costs_keep_the_search_order(self):
        # Two candidates tie on static cost: their ranks are averaged
        # for Spearman, and the top-1 pick is the one listed first,
        # the one the search's static order put first.
        row = calibration([1.0, 1.0, 2.0], [2.0, 1.0, 3.0])
        assert row["spearman"] == pytest.approx(math.sqrt(3) / 2)
        assert row["top1_regret"] == pytest.approx(1.0)
        assert calibration([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])[
            "top1_regret"] == pytest.approx(0.0)
        assert calibration([5.0] * 3, [1.0, 2.0, 3.0])["spearman"] is None

    def test_residuals_skip_nonpositive_pairs(self):
        assert calibration([0.0, 1.0, 2.0], [5.0, 1.0, 2.0])[
            "residual_rms"] == pytest.approx(0.0, abs=1e-12)

    def test_short_hash_is_stable_join_key(self):
        assert short_hash("abc") == short_hash("abc")
        assert len(short_hash("abc")) == 12
        assert short_hash("abc") != short_hash("abd")


# ---------------------------------------------------------------------------
# roofline attribution
# ---------------------------------------------------------------------------

def make_trace_doc(segments):
    """A trace document with one ``segment`` span per (flops, load
    events, global stores), segment ``i`` taking ``i + 1`` ms."""
    events = []
    for i, (flops, loads, stores) in enumerate(segments):
        events.append({
            "ph": "X", "name": "segment", "cat": "repro",
            "ts": 0.0, "dur": 1000.0 * (i + 1), "pid": 1, "tid": 1,
            "args": {
                "kernel": "KERNEL", "index": i, "flops": flops,
                "load_events": loads, "global_stores": stores,
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def roofline_of(segments):
    return analysis.roofline_segments(
        make_trace_doc(segments)["traceEvents"], "nvidia"
    )


class TestRoofline:
    def test_classification_against_ridge(self):
        from repro.opencl.cost import DEVICES

        ridge = DEVICES["nvidia"].ridge_point()
        assert ridge == pytest.approx(5121.0 / 336.0)
        rows = roofline_of([
            (100, 100, 0),      # 100 flops / 400 bytes → memory-bound
            (100000, 1, 0),     # 100000 / 4 bytes → compute-bound
            (0, 0, 0),          # nothing counted → unknown
        ])
        by_seg = {r["segment"]: r for r in rows}
        assert by_seg[0]["bound"] == "memory"
        assert by_seg[0]["intensity"] == pytest.approx(0.25)
        assert by_seg[1]["bound"] == "compute"
        assert by_seg[2]["bound"] == "unknown"
        assert by_seg[2]["intensity"] is None

    def test_flops_without_traffic_is_compute_bound(self):
        (row,) = roofline_of([(500, 0, 0)])
        assert row["bound"] == "compute"
        assert row["intensity"] is None

    def test_bytes_price_all_address_spaces(self):
        (row,) = roofline_of([(10, 3, 2)])
        assert row["bytes"] == 5 * analysis.BYTES_PER_ELEMENT

    def test_sorted_by_time_descending(self):
        rows = roofline_of([(1, 1, 0), (1, 1, 0), (1, 1, 0)])
        assert [r["segment"] for r in rows] == [2, 1, 0]
        assert [r["seconds"] for r in rows] == [0.003, 0.002, 0.001]


# ---------------------------------------------------------------------------
# explorer integration
# ---------------------------------------------------------------------------

class TestExplorerIntegration:
    def test_an_entry_reports_its_own_search(self, monkeypatch):
        import repro.benchsuite.explore as benchsuite_explore

        searches = []
        real = benchsuite_explore.explore_program

        def keep(*args, **kwargs):
            searches.append(real(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(benchsuite_explore, "explore_program", keep)
        entry = benchsuite_explore.explore_benchmark("gemv", depth=2, max_eval=4)
        (result,) = searches
        static = sorted(
            result.candidates,
            key=lambda c: (c.static_cost, len(c.trace), c.trace),
        )
        assert entry["calibration"] == calibration(
            [c.static_cost for c in static], [c.runtime for c in static]
        )
        assert entry["calibration"]["candidates"] == len(result.candidates)
        assert [r["static_cost"] for r in entry["ranking"]] == [
            c.static_cost for c in result.candidates[:5]
        ]

    def test_two_searches_of_one_workload_do_not_pool(self):
        """Each search reports its own twelve candidates.  A
        process-wide log pooled them: the second ``nn`` search read 24
        candidates and a top-5 regret of 103.2 %."""
        from repro.benchsuite.explore import explore_benchmark

        for _ in range(2):
            row = explore_benchmark("nn", depth=3, max_eval=12)["calibration"]
            assert row["candidates"] == 12
            assert row["top5_regret"] == 0.0

    def test_calibration_in_metrics_snapshot(self):
        from repro import obs
        from repro.benchsuite.explore import format_explore, run_explore

        data = run_explore(["gemv"], depth=1, max_eval=2)
        doc = obs.snapshot()
        assert doc["calibration"] == data["calibration"]
        assert list(doc["calibration"]["workloads"]) == ["gemv"]
        assert doc["calibration"]["workloads"]["gemv"] == (
            data["benchmarks"][0]["calibration"]
        )
        (row,) = [
            line for line in format_explore(data).splitlines()
            if line.split()[:1] == ["gemv"]
        ]
        assert row.split()[1] == "2"


# ---------------------------------------------------------------------------
# the markdown report (benchsuite report)
# ---------------------------------------------------------------------------

SECTIONS = (
    "## Cost-model calibration", "## Roofline attribution",
    "## Headline counters",
)


def _report_of(snapshot, tmp_path):
    from repro.benchsuite.report import build_report

    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(snapshot))
    text = build_report([str(path)])
    assert [l for l in text.splitlines() if l.startswith("## ")] == list(
        SECTIONS
    )
    return text


def _section(text, heading):
    return text.split(heading, 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize(
    "heading, empty",
    zip(SECTIONS, (
        "_No calibration records", "_No profiled segments",
        "_No counters recorded._",
    )),
)
def test_an_empty_snapshot_reports_each_section_empty(heading, empty, tmp_path):
    assert _section(_report_of({}, tmp_path), heading).strip().startswith(empty)


@pytest.mark.parametrize(
    "heading, snapshot, line",
    [
        (SECTIONS[0],
         {"calibration": {"workloads": {"nn": {
             "candidates": 3, "spearman": 0.5, "top1_regret": 0.1,
             "top5_regret": 0.0, "residual_rms": 0.25,
         }}}},
         "| nn | 3 | 0.500 | 10.0% | 0.0% | 0.250 |"),
        (SECTIONS[1], make_trace_doc([(100, 100, 0)]),
         "| KERNEL | 0 | 100 | 400 | 0.25 | memory |"),
        (SECTIONS[2], {"counters": {"launch.total": 7}},
         "| launch.total | 7 |"),
    ],
    ids=["calibration", "roofline", "counters"],
)
def test_a_report_section_renders_its_snapshot(
    heading, snapshot, line, tmp_path
):
    assert line in _section(_report_of(snapshot, tmp_path), heading)


def test_a_report_reads_snapshots_and_traces_together(tmp_path):
    """A trace input contributes the roofline rows (summed over its
    spans) and leaves the snapshot sections to the snapshots."""
    from repro.benchsuite.report import build_report

    snapshot = tmp_path / "metrics.json"
    snapshot.write_text(json.dumps({"counters": {"launch.total": 7}}))
    trace = tmp_path / "trace.json"
    doc = make_trace_doc([(100, 100, 0)])
    doc["traceEvents"] *= 2  # two calls of segment 0
    trace.write_text(json.dumps(doc))
    text = build_report([str(snapshot), str(trace)])
    assert "| KERNEL | 0 | 200 | 800 | 0.25 | memory |" in _section(
        text, SECTIONS[1]
    )
    assert "| launch.total | 7 |" in _section(text, SECTIONS[2])

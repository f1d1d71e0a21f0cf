"""Tests for the performance-attribution layer (repro.obs.analysis).

Covers the calibration math (Spearman with tie handling, top-k regret,
scale-aligned residuals) on synthetic menus with known orderings, the
CalibrationLog (bounds, reset, empty-log edge case, snapshot shape),
the P² streaming quantile estimator behind the metrics histograms,
roofline classification against synthetic segment counters, the SLO
table, and the explorer integration (records land in the log with
join-key hashes).
"""

import math

import pytest

from repro.obs import analysis
from repro.obs import metrics as metrics_mod
from repro.obs.analysis import (
    CalibrationLog,
    CalibrationRecord,
    short_hash,
    slo_table,
    spearman,
    topk_regret,
)


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
# calibration log
# ---------------------------------------------------------------------------

def make_record(workload="mm", label="c0", static=1.0, modeled=1.0):
    return CalibrationRecord(
        workload=workload,
        label=label,
        structural_hash=short_hash(label),
        trace=("rule-a", "rule-b"),
        static_cost=static,
        modeled_runtime=modeled,
        measured_cycles=modeled * 1e3,
        wall_seconds=0.01,
    )


class TestCalibrationLog:
    def test_empty_log_summary(self):
        log = CalibrationLog()
        s = log.summary("mm")
        assert s == {
            "candidates": 0,
            "spearman": None,
            "top1_regret": None,
            "top5_regret": None,
            "residual_rms": None,
        }
        assert log.as_dict() == {"workloads": {}, "records": []}

    def test_known_menu_statistics(self):
        log = CalibrationLog()
        # Static cost ranks candidates exactly as the modeled runtime
        # does, and modeled = 2 * static, so residuals vanish after
        # the geometric-mean scale alignment.
        for i, static in enumerate([3.0, 1.0, 2.0, 4.0]):
            log.record(make_record(label=f"c{i}", static=static,
                                   modeled=2.0 * static))
        s = log.summary("mm")
        assert s["candidates"] == 4
        assert s["spearman"] == pytest.approx(1.0)
        assert s["top1_regret"] == pytest.approx(0.0)
        assert s["top5_regret"] == pytest.approx(0.0)
        assert s["residual_rms"] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_menu(self):
        log = CalibrationLog()
        # Static cost ranks candidates exactly backwards.
        statics = [1.0, 2.0, 3.0, 4.0]
        modeled = [4.0, 3.0, 2.0, 1.0]
        for i, (p, m) in enumerate(zip(statics, modeled)):
            log.record(make_record(label=f"c{i}", static=p, modeled=m))
        s = log.summary("mm")
        assert s["spearman"] == pytest.approx(-1.0)
        # Model's top-1 pick (static 1.0) measures 4.0 vs true best 1.0.
        assert s["top1_regret"] == pytest.approx(3.0)

    def test_per_workload_isolation(self):
        log = CalibrationLog()
        log.record(make_record(workload="mm", label="a"))
        log.record(make_record(workload="nn", label="b"))
        assert log.workloads() == ["mm", "nn"]
        assert len(log.records("mm")) == 1
        assert len(log.records()) == 2

    def test_bounded_drop_oldest(self):
        log = CalibrationLog()
        for i in range(log.MAX_RECORDS + 10):
            log.record(make_record(label=f"c{i}", static=float(i + 1),
                                   modeled=float(i + 1)))
        recs = log.records("mm")
        assert len(recs) == log.MAX_RECORDS
        assert recs[0].label == "c10"  # the first ten were dropped

    def test_reset(self):
        log = CalibrationLog()
        log.record(make_record())
        log.reset()
        assert log.records() == []

    def test_as_dict_shape(self):
        log = CalibrationLog()
        log.record(make_record(label="c0"))
        doc = log.as_dict()
        (rec,) = doc["records"]
        assert set(rec) == {
            "workload", "label", "structural_hash", "trace",
            "static_cost", "modeled_runtime", "measured_cycles",
            "wall_seconds",
        }
        assert rec["structural_hash"] == short_hash("c0")
        assert doc["workloads"]["mm"]["candidates"] == 1
        # A one-candidate menu has no rank variance: spearman is None
        # and the formatter must render it, not crash.
        assert doc["workloads"]["mm"]["spearman"] is None
        assert "n/a" in analysis.format_calibration(doc)

    def test_short_hash_is_stable_join_key(self):
        assert short_hash("abc") == short_hash("abc")
        assert len(short_hash("abc")) == 12
        assert short_hash("abc") != short_hash("abd")


# ---------------------------------------------------------------------------
# P² streaming quantiles
# ---------------------------------------------------------------------------

class TestP2Quantile:
    def test_exact_below_five_samples(self):
        est = metrics_mod._P2Quantile(0.5)
        for x in (1.0, 5.0, 3.0):
            est.add(x)
        assert est.value() == pytest.approx(3.0)

    def test_exact_interpolation_p95(self):
        est = metrics_mod._P2Quantile(0.95)
        for x in (1.0, 5.0, 3.0):
            est.add(x)
        # sorted [1,3,5], q=0.95 → index 1.9 → 3 + 0.9*(5-3) = 4.8
        assert est.value() == pytest.approx(4.8)

    def test_empty(self):
        assert metrics_mod._P2Quantile(0.5).value() == 0.0

    def test_converges_on_uniform_stream(self):
        # Deterministic low-discrepancy stream over (0, 1000).
        est = metrics_mod._P2Quantile(0.5)
        x = 0.0
        for _ in range(5000):
            x = (x + 617.0) % 1000.0
            est.add(x)
        assert est.value() == pytest.approx(500.0, rel=0.05)

    def test_deterministic(self):
        a, b = metrics_mod._P2Quantile(0.99), metrics_mod._P2Quantile(0.99)
        x = 0.0
        for _ in range(1000):
            x = (x * 31.0 + 17.0) % 997.0
            a.add(x)
            b.add(x)
        assert a.value() == b.value()

    def test_histogram_snapshot_carries_quantiles(self):
        reg = metrics_mod.MetricsRegistry()
        for v in (1.0, 5.0, 3.0):
            reg.observe("lat", v)
        h = reg.snapshot()["histograms"]["lat"]
        assert h["count"] == 3
        assert h["min"] == 1.0 and h["max"] == 5.0
        assert h["mean"] == pytest.approx(3.0)
        assert h["p50"] == pytest.approx(3.0)
        assert h["p95"] == pytest.approx(4.8)
        assert h["p99"] == pytest.approx(4.96)


# ---------------------------------------------------------------------------
# roofline attribution
# ---------------------------------------------------------------------------

def make_profile_doc(segments):
    rows = []
    for i, (flops, loads, stores) in enumerate(segments):
        rows.append({
            "kernel": "KERNEL",
            "segment": i,
            "kind": "fused",
            "calls": 1,
            "seconds": 0.001 * (i + 1),
            "counters": {
                "flops": flops,
                "load_events": loads,
                "global_stores": stores,
            },
        })
    return {"segments": rows}


class TestRoofline:
    def test_classification_against_ridge(self):
        from repro.opencl.cost import DEVICES

        ridge = DEVICES["nvidia"].ridge_point()
        assert ridge == pytest.approx(5121.0 / 336.0)
        doc = make_profile_doc([
            (100, 100, 0),      # 100 flops / 400 bytes → memory-bound
            (100000, 1, 0),     # 100000 / 4 bytes → compute-bound
            (0, 0, 0),          # nothing counted → unknown
        ])
        rows = analysis.roofline_segments("nvidia", profile_doc=doc)
        by_seg = {r["segment"]: r for r in rows}
        assert by_seg[0]["bound"] == "memory"
        assert by_seg[0]["intensity"] == pytest.approx(0.25)
        assert by_seg[1]["bound"] == "compute"
        assert by_seg[2]["bound"] == "unknown"
        assert by_seg[2]["intensity"] is None

    def test_flops_without_traffic_is_compute_bound(self):
        doc = make_profile_doc([(500, 0, 0)])
        (row,) = analysis.roofline_segments("nvidia", profile_doc=doc)
        assert row["bound"] == "compute"
        assert row["intensity"] is None

    def test_bytes_price_all_address_spaces(self):
        doc = make_profile_doc([(10, 3, 2)])
        (row,) = analysis.roofline_segments("nvidia", profile_doc=doc)
        assert row["bytes"] == 5 * analysis.BYTES_PER_ELEMENT

    def test_sorted_by_time_descending(self):
        doc = make_profile_doc([(1, 1, 0), (1, 1, 0), (1, 1, 0)])
        rows = analysis.roofline_segments("nvidia", profile_doc=doc)
        assert [r["segment"] for r in rows] == [2, 1, 0]

    def test_format_smoke(self):
        doc = make_profile_doc([(100, 100, 0)])
        rows = analysis.roofline_segments("nvidia", profile_doc=doc)
        text = analysis.format_roofline(rows)
        assert "roofline attribution" in text
        assert "memory" in text
        assert "(no profiled segments" in analysis.format_roofline([])


# ---------------------------------------------------------------------------
# service SLO table
# ---------------------------------------------------------------------------

class TestSloTable:
    def test_reads_quantile_histograms(self):
        snapshot = {
            "histograms": {
                "service.latency.cold": {
                    "count": 3, "total": 0.6, "min": 0.1, "max": 0.3,
                    "mean": 0.2, "p50": 0.2, "p95": 0.29, "p99": 0.298,
                },
                "service.queue_wait.cold": {
                    "count": 3, "total": 0.15, "min": 0.01, "max": 0.09,
                    "mean": 0.05, "p50": 0.05, "p95": 0.08, "p99": 0.088,
                },
            }
        }
        (row,) = slo_table(snapshot)
        assert row["class"] == "cold"
        assert row["count"] == 3
        assert row["p50_ms"] == pytest.approx(200.0)
        assert row["p95_ms"] == pytest.approx(290.0)
        assert row["max_ms"] == pytest.approx(300.0)
        assert row["queue_wait_p95_ms"] == pytest.approx(80.0)

    def test_missing_queue_wait_is_none(self):
        snapshot = {
            "histograms": {
                "service.latency.warm_hit": {
                    "count": 1, "total": 0.01, "min": 0.01, "max": 0.01,
                    "mean": 0.01, "p50": 0.01, "p95": 0.01, "p99": 0.01,
                },
            }
        }
        (row,) = slo_table(snapshot)
        assert row["class"] == "warm_hit"
        assert row["queue_wait_p95_ms"] is None

    def test_empty_snapshot(self):
        assert slo_table({"histograms": {}}) == []
        assert "(no service requests" in analysis.format_slo([])

    def test_row_order_follows_request_classes(self):
        hist = {
            "count": 1, "total": 0.01, "min": 0.01, "max": 0.01,
            "mean": 0.01, "p50": 0.01, "p95": 0.01, "p99": 0.01,
        }
        snapshot = {
            "histograms": {
                f"service.latency.{cls}": dict(hist)
                for cls in ("cold", "warm_hit", "coalesced")
            }
        }
        rows = slo_table(snapshot)
        assert [r["class"] for r in rows] == list(analysis.REQUEST_CLASSES)


# ---------------------------------------------------------------------------
# explorer integration
# ---------------------------------------------------------------------------

class TestExplorerIntegration:
    def test_calibrate_populates_log(self):
        from repro.benchsuite.calibrate import format_calibrate, run_calibrate

        # Four candidates: the first three tie on measured cycles (no
        # barrier is left in any of them), which leaves Spearman undefined.
        data = run_calibrate(["gemv"], depth=2, max_eval=4)
        s = data["workloads"]["gemv"]
        assert s["candidates"] >= 2
        assert s["spearman"] is not None
        # Records carry the 12-hex join key that the trace span args
        # and the tuning-cache structural keys also use.
        for rec in data["records"]:
            assert rec["workload"] == "gemv"
            assert len(rec["structural_hash"]) == 12
            int(rec["structural_hash"], 16)
            assert rec["static_cost"] > 0
            assert rec["modeled_runtime"] > 0
        text = format_calibrate(data)
        assert "gemv" in text and "spearman" in text

    def test_calibration_in_metrics_snapshot(self):
        from repro import obs

        analysis.LOG.reset()
        analysis.record_candidate(
            workload="synthetic", label="c0", canonical_text="prog",
            trace=("r1",), static_cost=1.0, modeled_runtime=2.0,
            measured_cycles=2000.0,
        )
        try:
            doc = obs.snapshot()
            assert "calibration" in doc
            assert "synthetic" in doc["calibration"]["workloads"]
        finally:
            analysis.LOG.reset()

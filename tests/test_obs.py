"""Tests for the observability subsystem (repro.obs).

Covers the tracer (span nesting, threading, Chrome trace_event schema,
drop accounting), the metrics registry (primitives, providers, the
merged snapshot of the views every stats owner registers itself, the
schema of a fresh interpreter's snapshot), the kernel
profiler (segment timings, buffer attribution), the out-of-band
contract (buffers and Counters bitwise-identical with tracing and
profiling on vs off, across engines), the disabled fast path, and the
benchsuite's --trace/--metrics-json end to end.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.obs import metrics as metrics_mod
from repro.obs import profile as profile_mod
from repro.obs import trace as trace_mod
from repro.opencl import Buffer, OpenCLProgram, launch
from repro.opencl.interp import ExecError

ROOT = Path(__file__).resolve().parents[1]

#: Every top-level key of ``obs.snapshot()`` before a kernel Counters
#: view registers (figure8 adds ``counters.kernel``).
SECTIONS = (
    "counters", "gauges", "histograms", "cache", "explore", "ledger",
    "faults", "profile", "calibration", "service",
)

SAXPY = """
kernel void SAXPY(const global float * restrict x,
                  const global float * restrict y,
                  global float *out, float a, int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""


#: A cross-lane race: the compiled tier declines it at run time (a
#: ``dynamic`` ledger entry) and the scalar tier serves it.
RACE = """
kernel void RACE(const global float * restrict x,
                 global float *scratch, global float *out) {
  int i = get_global_id(0);
  scratch[0] = x[i];
  out[i] = scratch[0] * 2.0f;
}
"""


def race_args():
    return {"x": Buffer.from_array(np.arange(8.0)),
            "scratch": Buffer.zeros(1), "out": Buffer.zeros(8)}


def run_saxpy(engine, n=64, local=16):
    program = OpenCLProgram(SAXPY)
    args = {
        "x": Buffer.from_array(np.arange(n, dtype=float)),
        "y": Buffer.from_array(np.ones(n)),
        "out": Buffer.zeros(n),
        "a": 2.0,
        "n": n,
    }
    counters = launch(program, n, local, args, engine=engine)
    return args["out"].data.copy(), vars(counters)


@pytest.fixture
def no_tracing():
    """Guarantee tracing is off before and after a test."""
    obs.stop_tracing()
    yield
    obs.stop_tracing()


@pytest.fixture
def no_profiling():
    profile_mod.disable()
    yield
    profile_mod.disable()


def read_trace(path):
    doc = json.loads(path.read_text())
    assert set(doc) >= {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ms"
    assert isinstance(doc["traceEvents"], list)
    for event in doc["traceEvents"]:
        assert event["ph"] in ("X", "i", "M")
        assert isinstance(event["name"], str)
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"
    return doc


class TestTracer:
    def test_disabled_span_is_shared_noop_singleton(self, no_tracing):
        assert not obs.tracing_enabled()
        s1 = obs.span("a", k=1)
        s2 = obs.span("b")
        assert s1 is s2  # no allocation on the fast path
        with s1:
            pass  # reentrant, no-op

    def test_instant_disabled_is_noop(self, no_tracing):
        obs.instant("nothing", happened=True)  # must not raise

    def test_span_nesting_by_containment(self, tmp_path, no_tracing):
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        with obs.span("outer", which="o"):
            with obs.span("inner", which="i"):
                time.sleep(0.001)
        obs.instant("mark", detail=1)
        assert obs.stop_tracing() == path

        doc = read_trace(path)
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"
        }
        outer, inner = by_name["outer"], by_name["inner"]
        # Chrome infers nesting from ts/dur containment per tid.
        assert outer["tid"] == inner["tid"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
        assert outer["args"] == {"which": "o"}
        assert by_name["mark"]["ph"] == "i"
        assert by_name["mark"]["args"] == {"detail": 1}

    def test_threads_get_distinct_tids_and_names(self, tmp_path, no_tracing):
        path = tmp_path / "trace.json"
        obs.start_tracing(path)

        def work():
            with obs.span("worker-span"):
                pass

        t = threading.Thread(target=work, name="obs-worker")
        with obs.span("main-span"):
            t.start()
            t.join()
        obs.stop_tracing()

        doc = read_trace(path)
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert spans["main-span"]["tid"] != spans["worker-span"]["tid"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "obs-worker" in names
        assert len(meta) == 2  # one thread_name record per tid

    def test_timed_span_measures_without_tracing(self, no_tracing):
        with obs.timed_span("t") as ts:
            time.sleep(0.002)
        assert ts.elapsed >= 0.002

    def test_timed_span_emits_event_when_tracing(self, tmp_path, no_tracing):
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        with obs.timed_span("timed", benchmark="nn") as ts:
            time.sleep(0.001)
        obs.stop_tracing()
        doc = read_trace(path)
        (event,) = [e for e in doc["traceEvents"] if e["name"] == "timed"]
        # The reported seconds equal the span duration in the trace.
        assert event["dur"] == pytest.approx(ts.elapsed * 1e6)
        assert event["args"] == {"benchmark": "nn"}

    def test_max_events_drops_and_reports(self, tmp_path, no_tracing):
        path = tmp_path / "trace.json"
        obs.start_tracing(path, max_events=5)
        for i in range(20):
            obs.instant("burst", i=i)
        obs.stop_tracing()
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 5
        assert doc["otherData"]["droppedEvents"] == 16  # 20 + meta - 5

    def test_stop_without_start_returns_none(self, no_tracing):
        assert obs.stop_tracing() is None

    def test_posthoc_attrs_recorded(self, tmp_path, no_tracing):
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        with obs.span("lookup") as s:
            s.attrs["memo"] = "hit"
        obs.stop_tracing()
        (event,) = [
            e for e in read_trace(path)["traceEvents"]
            if e["name"] == "lookup"
        ]
        assert event["args"] == {"memo": "hit"}

    def test_posthoc_attrs_disabled_is_noop(self, no_tracing):
        with obs.span("lookup") as s:
            s.attrs["memo"] = "hit"  # shared sink; must not raise

    def test_unserializable_attrs_degrade_to_repr(self, tmp_path, no_tracing):
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        with obs.span("odd", payload=object()):
            pass
        obs.stop_tracing()
        doc = read_trace(path)  # json.loads succeeding is the point
        (event,) = [e for e in doc["traceEvents"] if e["name"] == "odd"]
        assert "object" in event["args"]["payload"]


class TestMetricsRegistry:
    def test_counter_gauge_histogram_shapes(self):
        reg = metrics_mod.MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2)
        reg.set_gauge("depth", 3.0)
        for v in (1.0, 5.0, 3.0):
            reg.observe("width", v)
        doc = reg.snapshot()
        assert doc["counters"] == {"hits": 3}
        assert doc["gauges"] == {"depth": 3.0}
        assert doc["histograms"]["width"] == {
            "count": 3, "total": 9.0, "min": 1.0, "max": 5.0, "mean": 3.0,
            # Below five observations the quantiles are exact
            # (interpolated) sample quantiles over [1, 3, 5].
            "p50": 3.0, "p95": pytest.approx(4.8), "p99": pytest.approx(4.96),
        }

    def test_provider_replace_semantics(self):
        reg = metrics_mod.MetricsRegistry()
        reg.register_provider("thing", lambda: 1)
        reg.register_provider("thing", lambda: 2)
        assert reg.snapshot()["thing"] == 2

    def test_reserved_names_rejected(self):
        reg = metrics_mod.MetricsRegistry()
        for name in ("counters", "gauges", "histograms"):
            with pytest.raises(ValueError):
                reg.register_provider(name, dict)

    def test_failing_provider_does_not_poison_snapshot(self):
        reg = metrics_mod.MetricsRegistry()
        reg.inc("ok")

        def boom():
            raise RuntimeError("nope")

        reg.register_provider("bad", boom)
        doc = reg.snapshot()
        assert doc["counters"] == {"ok": 1}
        assert doc["bad"] == {"error": "RuntimeError: nope"}

    def test_snapshot_merges_all_five_stats_objects(
        self, tmp_path, fault_free
    ):
        """One document holds the views the owners registered
        themselves: figure8's kernel Counters, a TuningCache's
        CacheStats, a search's ExploreStats + FailureReports, the
        process ledger and the fault-site counts."""
        from repro import faultinject
        from repro.arith import Var
        from repro.backend import LEDGER
        from repro.benchsuite.figure8 import run_figure8
        from repro.cache import TuningCache
        from repro.ir.dsl import map_
        from repro.ir.nodes import Lambda, Param, UserFun
        from repro.resilience import Deadline
        from repro.rewrite.explore import ExploreConfig, explore_program
        from repro.types import ArrayType, FLOAT

        cache = TuningCache(tmp_path)
        for _ in range(2):  # cold, then served from the run entries
            run_figure8(["nn"], sizes=("small",), cache=cache)

        x = Param(ArrayType(FLOAT, Var("N")), "x")
        double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                         py=lambda v: v * 2.0)
        search = explore_program(
            Lambda([x], map_(double)(x)), {"x": np.ones(16)}, {"N": 16},
            config=ExploreConfig(depth=1, max_eval=2,
                                 deadline=Deadline.after(0.0)),
            cache=cache,
        )
        declines = LEDGER.total()
        launch(OpenCLProgram(RACE), 8, 4, race_args(), engine="auto")

        plan = "seed=3;compile=1.0;attempts=1"
        with faultinject.plan_installed(plan):
            with pytest.raises(faultinject.FaultInjected):
                faultinject.survive("compile")
            doc = obs.snapshot()

        assert doc["counters.kernel"]["global_loads"] > 0
        assert doc["cache"] == cache.stats.as_dict()
        assert doc["cache"]["run_hits"] == doc["cache"]["run_misses"] > 0
        assert doc["cache"]["run_hit_rate"] == 0.5
        assert doc["explore"]["stats"] == search.stats.as_dict()
        assert doc["explore"]["failures"][0]["kind"] == "timeout"
        assert doc["ledger"]["total"] == declines + 1
        assert doc["ledger"]["events"][-1]["kind"] == "dynamic"
        assert doc["faults"]["plan"] == plan
        assert doc["faults"]["sites"]["compile"] == {
            "checks": 1, "injected": 1, "recovered": 0, "escaped": 1,
        }
        assert "segments" in doc["profile"]
        assert "workloads" in doc["calibration"]
        json.dumps(doc)  # the whole merged document is serializable

    def test_default_snapshot_has_stable_schema(self):
        """Every top-level section exists whatever has registered."""
        doc = obs.snapshot()
        assert set(SECTIONS) <= set(doc)

    def test_fresh_interpreter_snapshot_has_every_section(self):
        """Importing ``repro.obs`` alone yields every section, and each
        placeholder has the shape its owner's view has."""
        script = textwrap.dedent("""
            import json
            import repro.obs
            fresh = repro.obs.snapshot()
            from repro import faultinject
            from repro.backend import ledger
            print(json.dumps({"fresh": fresh, "owned": repro.obs.snapshot()}))
        """)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        docs = json.loads(out)
        fresh, owned = docs["fresh"], docs["owned"]
        assert set(fresh) == set(SECTIONS)
        for name in ("ledger", "faults", "profile", "calibration"):
            assert set(fresh[name]) == set(owned[name]), name
        assert fresh["ledger"]["total"] == 0
        assert fresh["faults"]["sites"] == {}
        assert fresh["cache"] == {"active": False}
        assert fresh["explore"] == {"stats": {}, "failures": []}
        assert fresh["service"] == {"active": False}


def test_one_telemetry_path_in_the_source():
    """Each event is counted at one call site (the service counts through
    ``ServiceStats.bump`` only) and each owner registers its own view:
    no adapter functions remain anywhere."""
    daemon = (ROOT / "src/repro/service/daemon.py").read_text()
    assert "obs.inc(" not in daemon
    adapter = re.compile(
        r"\bregister_(counters|cache_stats|explore|ledger|fault_sites"
        r"|profiler|calibration|service)\b|\binstall_default_providers\b"
    )
    offenders = [
        str(path.relative_to(ROOT))
        for top in ("src", "tests", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != Path(__file__).resolve()
        and adapter.search(path.read_text())
    ]
    assert offenders == []
    assert not (ROOT / "src/repro/obs/adapters.py").exists()


class TestKernelProfiler:
    def test_segment_and_traffic_attribution(self, no_profiling):
        prof = profile_mod.enable()
        prof.reset()
        run_saxpy("compiled")
        doc = profile_mod.as_dict()
        assert doc["enabled"]
        assert doc["segments"], "compiled backend must record segments"
        assert all(s["kernel"] == "SAXPY" for s in doc["segments"])
        named = {t["buffer"] for t in doc["traffic"]}
        # Buffers are attributed by name from the launch environment.
        assert {"x", "y", "out"} <= named
        out_row = next(
            t for t in doc["traffic"]
            if t["buffer"] == "out" and t["space"] == "global"
        )
        assert out_row["stores"] == 64

    def test_fused_backend_records_fused_segments(
        self, no_profiling, fault_free
    ):
        # Asserts which tier served the launch: an injected backend-run
        # fault legitimately hands it to ``compiled``.
        prof = profile_mod.enable()
        prof.reset()
        run_saxpy("fused")
        doc = profile_mod.as_dict()
        kinds = {s["kind"] for s in doc["segments"]}
        assert "fused" in kinds or "generic" in kinds

    def test_format_table_lists_top_segments(self, no_profiling):
        prof = profile_mod.enable()
        prof.reset()
        run_saxpy("compiled")
        table = profile_mod.format_table()
        assert "kernel profile" in table
        assert "SAXPY" in table

    def test_disabled_profile_view(self, no_profiling):
        assert profile_mod.as_dict() == {
            "enabled": False, "segments": [], "traffic": []
        }
        assert "disabled" in profile_mod.format_table()


class TestOutOfBand:
    """The hard acceptance constraint: enabling observability never
    changes results — buffers and Counters are bitwise-identical."""

    @pytest.mark.parametrize("engine", ["scalar", "compiled", "fused"])
    def test_bitwise_identical_with_tracing_and_profiling(
        self, engine, tmp_path, no_tracing, no_profiling
    ):
        out_off, counters_off = run_saxpy(engine)

        obs.start_tracing(tmp_path / f"{engine}.json")
        profile_mod.enable()
        try:
            out_on, counters_on = run_saxpy(engine)
        finally:
            profile_mod.disable()
            obs.stop_tracing()

        assert out_on.tobytes() == out_off.tobytes()
        assert counters_on == counters_off

    def test_trace_covers_the_hot_path(self, tmp_path, no_tracing):
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        run_saxpy("compiled", n=48)
        obs.stop_tracing()
        names = {
            e["name"]
            for e in read_trace(path)["traceEvents"]
            if e["ph"] == "X"
        }
        # parse may be served from the lru cache (another test already
        # parsed SAXPY); launch/plan/run always fire.
        assert {"launch", "plan", "run"} <= names

    def test_run_span_of_a_decline_carries_its_reason(
        self, tmp_path, no_tracing, fault_free
    ):
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        launch(OpenCLProgram(RACE), 8, 4, race_args(), engine="auto")
        obs.stop_tracing()
        runs = {
            e["args"]["backend"]: e["args"]
            for e in read_trace(path)["traceEvents"]
            if e["ph"] == "X" and e["name"] == "run"
        }
        assert runs["compiled"]["reason"].startswith("RACE: cross-lane ")
        assert "reason" not in runs["scalar"]  # served, nothing to explain

    def test_plan_span_of_a_static_decline_carries_its_reason(
        self, tmp_path, no_tracing, fault_free
    ):
        bad = """
        kernel void K(global float *x) {
          float4 v = (float4)(1.0f, 2.0f);
          x[get_global_id(0)] = v.z;
        }
        """
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        with pytest.raises(ExecError, match="vector literal float4"):
            launch(OpenCLProgram(bad), 4, 4, {"x": Buffer.zeros(4)},
                   engine="fused")
        obs.stop_tracing()
        plans = {
            e["args"]["backend"]: e["args"]
            for e in read_trace(path)["traceEvents"]
            if e["ph"] == "X" and e["name"] == "plan"
        }
        reason = "vector literal float4 with 2 items"
        assert plans["fused"]["reason"] == plans["compiled"]["reason"] == reason
        assert "reason" not in plans["scalar"]  # planned; it raises in run

    def test_launch_metrics_count_per_tier(self, no_tracing):
        before = metrics_mod.REGISTRY.counter("launch.total")
        served = metrics_mod.REGISTRY.counter("launch.served.scalar")
        run_saxpy("scalar")
        assert metrics_mod.REGISTRY.counter("launch.total") == before + 1
        assert (
            metrics_mod.REGISTRY.counter("launch.served.scalar") == served + 1
        )


class TestDisabledOverhead:
    def test_disabled_span_is_cheap(self, no_tracing):
        """Smoke bound only (CI gates the real number in
        benchmarks/check_perf_regression.py): 100k disabled span()
        round-trips must be far from pathological."""
        t0 = time.perf_counter()
        for _ in range(100_000):
            with obs.span("hot", i=0):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0

    def test_disabled_by_default(self, no_tracing, no_profiling):
        assert not obs.tracing_enabled()
        assert not profile_mod.enabled()


class TestBenchsuiteEndToEnd:
    def test_figure8_trace_and_metrics_flags(self, tmp_path, capsys,
                                             no_tracing, no_profiling):
        from repro.benchsuite.__main__ import main

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        rc = main([
            "figure8", "--benchmarks", "nn", "--sizes", "small",
            "--no-cache", "--profile",
            "--trace", str(trace_path),
            "--metrics-json", str(metrics_path),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Figure 8" in captured.out
        assert "kernel profile" in captured.err

        doc = read_trace(trace_path)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {
            "figure8.benchmark", "figure8.reference", "figure8.generated",
            "launch", "plan", "run", "compile",
        } <= names

        metrics_doc = json.loads(metrics_path.read_text())
        assert metrics_doc["counters"]["launch.total"] >= 4
        assert any(
            k.startswith("launch.served.") for k in metrics_doc["counters"]
        )
        for key in ("cache", "explore", "ledger", "faults",
                    "profile", "counters.kernel"):
            assert key in metrics_doc
        assert metrics_doc["profile"]["enabled"]

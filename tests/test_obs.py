"""Tests for the observability subsystem (repro.obs).

Covers the tracer (span nesting, threading, Chrome trace_event schema,
drop accounting), the metrics registry (primitives, providers, the
merged snapshot of the views every stats owner registers itself, the
schema of a fresh interpreter's snapshot), the traced kernel segments
and buffer traffic (attribution complete against Counters), the
out-of-band contract (buffers and Counters bitwise-identical with
tracing on vs off, across engines), the disabled fast path, and the
benchsuite's --trace/--metrics-json/--profile end to end.
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

from benchmarks.bench_simulator import REDUCTION_SOURCE
from repro import obs
from repro.obs import analysis
from repro.obs import metrics as metrics_mod
from repro.obs import trace as trace_mod
from repro.backend import CompileUnsupported
from repro.opencl import Buffer, DataRace, OpenCLProgram, launch
from repro.opencl.interp import ExecError
from tests.engines import ALL_RUNS, ONE, SEVERAL, blocks
from tests.programs import SAXPY, run_saxpy, saxpy_args

ROOT = Path(__file__).resolve().parents[1]

#: Every top-level key of ``obs.snapshot()`` before a kernel Counters
#: view registers (figure8 adds ``counters.kernel``).
SECTIONS = (
    "counters", "cache", "explore", "calibration",
)

#: SAXPY over a 2-D range, one element per work-item.
SAXPY_2D = """
kernel void SAXPY_2D(const global float * restrict x,
                     const global float * restrict y,
                     global float *out, float a, int n) {
  int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""

#: A cross-lane race: the compiled tier raises ``DataRace`` at run time.
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


@pytest.fixture
def no_tracing():
    """Guarantee tracing is off before and after a test."""
    obs.stop_tracing()
    yield
    obs.stop_tracing()


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
    def test_counter_shapes(self):
        reg = metrics_mod.MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2)
        doc = reg.snapshot()
        assert doc["counters"] == {"hits": 3}
        assert "gauges" not in doc and "histograms" not in doc

    def test_an_uncounted_name_reads_zero(self):
        reg = metrics_mod.MetricsRegistry()
        assert reg.counter("never") == 0
        reg.inc("once")
        assert (reg.counter("never"), reg.counter("once")) == (0, 1)
        assert reg.snapshot()["counters"] == {"once": 1}

    def test_counts_from_many_threads_are_exact(self):
        reg = metrics_mod.MetricsRegistry()

        def work():
            for _ in range(500):
                reg.inc("hits")
                reg.inc("items", 3)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.snapshot()["counters"] == {"hits": 4000, "items": 12000}

    def test_a_snapshot_is_detached_from_the_registry(self):
        reg = metrics_mod.MetricsRegistry()
        reg.inc("hits")
        doc = reg.snapshot()
        doc["counters"]["hits"] = 99
        doc["counters"]["forged"] = 1
        assert reg.counter("hits") == 1
        assert reg.snapshot()["counters"] == {"hits": 1}

    def test_provider_replace_semantics(self):
        reg = metrics_mod.MetricsRegistry()
        reg.register_provider("thing", lambda: 1)
        reg.register_provider("thing", lambda: 2)
        assert reg.snapshot()["thing"] == 2

    def test_reserved_name_rejected(self):
        reg = metrics_mod.MetricsRegistry()
        with pytest.raises(ValueError):
            reg.register_provider("counters", dict)

    def test_failing_provider_does_not_poison_snapshot(self):
        reg = metrics_mod.MetricsRegistry()
        reg.inc("ok")

        def boom():
            raise RuntimeError("nope")

        reg.register_provider("bad", boom)
        doc = reg.snapshot()
        assert doc["counters"] == {"ok": 1}
        assert doc["bad"] == {"error": "RuntimeError: nope"}

    def test_snapshot_merges_all_four_stats_objects(self, tmp_path):
        """One document holds the views the owners registered
        themselves: figure8's kernel Counters, a TuningCache's
        CacheStats, a search's ExploreStats + FailureReports and the
        calibration log."""
        from repro.arith import Var
        from repro.benchsuite.figure8 import run_figure8
        from repro.cache import TuningCache
        from repro.ir.dsl import map_
        from repro.ir.nodes import Lambda, Param, UserFun
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
                                 engine="no-such-engine"),
            cache=cache,
        )
        doc = obs.snapshot()

        assert doc["counters.kernel"]["global_loads"] > 0
        assert doc["cache"] == cache.stats.as_dict()
        assert doc["cache"]["run_hits"] == doc["cache"]["run_misses"] > 0
        assert doc["cache"]["run_hit_rate"] == 0.5
        assert doc["explore"]["stats"] == search.stats.as_dict()
        assert doc["explore"]["failures"][0]["kind"] == "simulate"
        assert "workloads" in doc["calibration"]
        json.dumps(doc)  # the whole merged document is serializable

    def test_default_snapshot_has_stable_schema(self):
        """Every top-level section exists whatever has registered."""
        doc = obs.snapshot()
        assert set(SECTIONS) <= set(doc)

    def test_fresh_interpreter_snapshot_has_every_section(self):
        """Importing ``repro.obs`` alone yields every section, the
        unowned ones as their placeholders."""
        script = textwrap.dedent("""
            import json
            import repro.obs
            print(json.dumps(repro.obs.snapshot()))
        """)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        fresh = json.loads(out)
        assert set(fresh) == set(SECTIONS)
        assert fresh["cache"] == {"active": False}
        assert fresh["explore"] == {"stats": {}, "failures": []}

    @pytest.mark.parametrize("section", sorted(metrics_mod.PLACEHOLDERS))
    def test_an_unowned_section_is_a_fresh_copy_of_its_placeholder(
        self, section, monkeypatch
    ):
        monkeypatch.setattr(
            metrics_mod, "REGISTRY", metrics_mod.MetricsRegistry()
        )
        doc = metrics_mod.snapshot()
        assert doc[section] == metrics_mod.PLACEHOLDERS[section]
        doc[section]["scribbled"] = True
        assert "scribbled" not in metrics_mod.snapshot()[section]
        assert "scribbled" not in metrics_mod.PLACEHOLDERS[section]

    def test_every_placeholder_has_a_live_owner(self):
        """A section whose owner is gone (the in-process tuning service's
        ``service``) leaves no placeholder behind."""
        assert set(metrics_mod.PLACEHOLDERS) == {"cache", "explore"}
        assert "service" not in obs.snapshot()


def test_one_telemetry_path_in_the_source():
    """Each owner registers its own view: no adapter functions remain
    anywhere."""
    adapter = re.compile(
        r"\bregister_(counters|cache_stats|explore|ledger|fault_sites"
        r"|profiler|calibration)\b|\binstall_default_providers\b"
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


def traced(run):
    """``run()``'s result and the trace events it recorded, without a
    file."""
    tracer = obs.start_tracing()
    try:
        result = run()
    finally:
        obs.stop_tracing()
    return result, tracer.events()


def traced_launch(source, gsize, lsize, args, engine):
    """One traced launch: its Counters, the deltas of its ``segment``
    spans summed, and its ``traffic`` rows."""
    counters, events = traced(lambda: launch(
        OpenCLProgram(source), gsize, lsize, args, engine=engine))
    (traffic,) = [e["args"] for e in events if e["name"] == "traffic"]
    deltas: dict = {}
    for e in events:
        if e["name"] == "segment":
            assert e["args"]["kernel"] == traffic["kernel"]
            for name, delta in e["args"].items():
                if name not in ("kernel", "index"):
                    deltas[name] = deltas.get(name, 0) + delta
    return vars(counters), deltas, traffic["rows"]


#: Settled at block end (loads) or launch end (work items), outside any
#: segment.
SETTLED_LATE = ("global_loads", "local_loads", "cached_loads", "work_items")

N = 8192


def reduce_args():
    return {"x": Buffer.from_array(np.arange(N, dtype=float)),
            "out": Buffer.zeros(N // 64)}


#: Launches whose attribution is checked, each over one block and over
#: several.
ATTRIBUTION_CASES = {
    "saxpy": (SAXPY, N, 64, lambda: dict(saxpy_args(N), n=N - 5)),
    "saxpy-2d": (SAXPY_2D, (128, 64), (8, 8), lambda: dict(saxpy_args(N), n=N - 5)),
    "reduce": (REDUCTION_SOURCE, N, 64, reduce_args),
}


class TestSegmentsAndTraffic:
    @pytest.mark.parametrize("layout", [ONE, SEVERAL])
    @pytest.mark.parametrize("case", sorted(ATTRIBUTION_CASES))
    def test_attribution_is_complete(self, case, layout, no_tracing):
        """The segment spans of a launch sum to its Counters, and its
        traffic rows to its loads and stores, in either layout."""
        source, gsize, lsize, args = ATTRIBUTION_CASES[case]
        with blocks(layout, gsize, lsize):
            counters, deltas, rows = traced_launch(
                source, gsize, lsize, args(), "compiled"
            )
        for name, value in counters.items():
            if name not in SETTLED_LATE:
                assert deltas.get(name, 0) == value, name
        loads = {"global": 0, "local": 0}
        stores = {"global": 0, "local": 0}
        cached = 0
        for _, space, fresh, hits, written in rows:
            loads[space] += fresh
            stores[space] += written
            cached += hits
        assert (loads["global"], loads["local"], cached) == (
            counters["global_loads"], counters["local_loads"],
            counters["cached_loads"],
        )
        assert (stores["global"], stores["local"]) == (
            counters["global_stores"], counters["local_stores"],
        )
        assert deltas["load_events"] == sum(loads.values()) + cached

    def test_reduce_traffic_by_buffer(self, no_tracing):
        source, gsize, lsize, args = ATTRIBUTION_CASES["reduce"]
        _, _, rows = traced_launch(source, gsize, lsize, args(), "compiled")
        assert sorted(rows) == [
            ["out", "global", 0, 0, 128],
            ["tmp", "local", 12160, 4096, 16256],
            ["x", "global", 8192, 0, 0],
        ]

    def test_segment_and_traffic_attribution(self, no_tracing):
        _, events = traced(lambda: run_saxpy("compiled"))
        segments = analysis.segment_rows(events)
        assert segments, "compiled backend must trace segments"
        assert all(s["kernel"] == "SAXPY" for s in segments)
        traffic = analysis.traffic_rows(events)
        named = {t["buffer"] for t in traffic}
        # Buffers are attributed by name from the launch environment.
        assert {"x", "y", "out"} <= named
        out_row = next(
            t for t in traffic
            if t["buffer"] == "out" and t["space"] == "global"
        )
        assert out_row["stores"] == 64

    @pytest.mark.parametrize("layout", [ONE, SEVERAL])
    def test_segments_are_recorded_in_both_layouts(self, layout, no_tracing):
        # One lane form: segments are keyed by kernel and index alone, in
        # a 1-D and a 2-D launch alike.
        for gsize, lsize in ((64, 16), ((8, 8), (4, 4))):
            with blocks(layout, gsize, lsize):
                _, events = traced(lambda: launch(
                    OpenCLProgram(SAXPY), gsize, lsize, saxpy_args(64),
                    engine="compiled"))
            (segment,) = analysis.segment_rows(events)
            assert (segment["kernel"], segment["segment"]) == ("SAXPY", 0)
            assert "kind" not in segment
            assert segment["counters"]["global_stores"] == 64

    def test_format_profile_lists_top_segments(self, no_tracing):
        _, events = traced(lambda: run_saxpy("compiled"))
        table = analysis.format_profile(events)
        assert "kernel profile" in table
        assert "SAXPY" in table


class TestOutOfBand:
    """The hard acceptance constraint: enabling observability never
    changes results — buffers and Counters are bitwise-identical."""

    @pytest.mark.parametrize("engine, layout", ALL_RUNS)
    def test_bitwise_identical_with_tracing(self, engine, layout, no_tracing):
        """Tracing on also runs the compiled tier's segment spans and
        traffic rows."""
        with blocks(layout, 64, 16):
            out_off, counters_off = run_saxpy(engine)
            (out_on, counters_on), _ = traced(lambda: run_saxpy(engine))

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

    @pytest.mark.parametrize("kind", ["race", "buffer kind"])
    def test_run_span_of_a_typed_error_carries_its_message(
        self, kind, tmp_path, no_tracing
    ):
        # A race raises mid-run; a buffer of no arithmetic dtype is
        # refused by run() before any write (the plan was typed for the
        # declared float).
        if kind == "race":
            error, args, reason = DataRace, race_args, "RACE: cross-lane "
        else:
            error, reason = CompileUnsupported, "kernel 'RACE' is not run"

            def args():
                return dict(race_args(), x=np.arange(8, dtype=np.uint8))
        program = OpenCLProgram(RACE)
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        with pytest.raises(error):
            launch(program, 8, 4, args(), engine="auto")
        launch(program, 8, 4, args(), engine="scalar")
        obs.stop_tracing()
        runs = {
            e["args"]["backend"]: e["args"]
            for e in read_trace(path)["traceEvents"]
            if e["ph"] == "X" and e["name"] == "run"
        }
        assert runs["compiled"]["reason"].startswith(reason)
        assert "reason" not in runs["scalar"]  # served, nothing to explain

    def test_plan_span_of_a_static_refusal_carries_its_reason(
        self, tmp_path, no_tracing
    ):
        bad = """
        kernel void K(global float *x) {
          float4 v = (float4)(1.0f, 2.0f);
          x[get_global_id(0)] = v.z;
        }
        """
        path = tmp_path / "trace.json"
        obs.start_tracing(path)
        for engine in ("auto", "scalar"):
            with pytest.raises(ExecError, match="vector literal float4"):
                launch(OpenCLProgram(bad), 4, 4, {"x": Buffer.zeros(4)},
                       engine=engine)
        obs.stop_tracing()
        plans = {
            e["args"]["backend"]: e["args"]
            for e in read_trace(path)["traceEvents"]
            if e["ph"] == "X" and e["name"] == "plan"
        }
        reason = "vector literal float4 with 2 items"
        assert plans["compiled"]["reason"] == reason
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

    def test_disabled_by_default(self, no_tracing):
        assert not obs.tracing_enabled()


class TestBenchsuiteEndToEnd:
    def test_figure8_trace_and_metrics_flags(self, tmp_path, capsys,
                                             no_tracing):
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
            "launch", "plan", "run", "compile", "segment",
        } <= names
        assert analysis.traffic_rows(doc["traceEvents"])

        metrics_doc = json.loads(metrics_path.read_text())
        assert metrics_doc["counters"]["launch.total"] >= 4
        assert any(
            k.startswith("launch.served.") for k in metrics_doc["counters"]
        )
        for key in ("cache", "explore", "counters.kernel"):
            assert key in metrics_doc
        assert "profile" not in metrics_doc

    def test_profile_without_trace_writes_no_file(
        self, tmp_path, capsys, monkeypatch, no_tracing
    ):
        from repro.benchsuite.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main([
            "figure8", "--benchmarks", "nn", "--sizes", "small",
            "--no-cache", "--profile",
        ]) == 0
        err = capsys.readouterr().err
        assert "kernel profile (top segments by wall time):" in err
        assert "buffer traffic" in err
        assert "[trace written" not in err
        assert not obs.tracing_enabled()
        assert list(tmp_path.iterdir()) == []

"""Tests for the execution backends and their engine table
(repro.backend).

Covers the fixed tables (backends, engine names, unknown-name errors),
launch-time engine selection (explicit argument vs the
``REPRO_SIM_ENGINE`` default), the typed errors that replace a fallback
(a static refusal, a race), the NDRange checks made before any engine
runs, the end-to-end harness's pins on this package, and the plan's
access facts (slices, uniform loads, proof-carrying stores, prefix
masks, aliasing) over one block and over several.  The bitwise
cross-backend contract itself is exercised by the engine sweeps in
``tests/test_simt.py`` / ``tests/test_simt_compile.py``.
"""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    ENGINES,
    LEDGER,
    CompileUnsupported,
    backend_names,
    engine_names,
    get_backend,
)
from repro.obs import metrics
from repro.opencl import Buffer, DataRace, OpenCLProgram, launch
from repro.opencl import simt, simt_compile
from repro.rewrite.explore import ExploreStats
from tests.engines import ONE, RUNS, SEVERAL
from tests.programs import SAXPY, run_saxpy, saxpy_args
from tests.test_simt import assert_engines_agree

#: A kernel the lane engine refuses statically: a barrier behind an
#: early return (legal at a launch shape where no item returns).
EARLY_RETURN = """
kernel void K(global float *x, int n) {
  if (get_global_id(0) >= n) { return; }
  barrier(CLK_LOCAL_MEM_FENCE);
  x[get_global_id(0)] = 1.0f;
}
"""

#: A kernel the lane engine runs and stops mid-launch: each work-item
#: stages its value through one shared scratch cell.
RACY = """
kernel void K(const global float * restrict x, global float *scratch,
              global float *out) {
  int i = get_global_id(0);
  scratch[0] = x[i];
  out[i] = scratch[0] * 2.0f;
}
"""


def racy_args():
    return {"x": Buffer.from_array(np.arange(8.0)), "scratch": Buffer.zeros(1),
            "out": Buffer.zeros(8)}


class TestEngineTable:
    def test_three_backends(self):
        # Two backends; "fused" names the compiled one for the
        # end-to-end harness.
        assert backend_names() == ("compiled", "fused", "scalar")
        assert get_backend("fused") is get_backend("compiled")

    def test_the_engine_table(self):
        assert ENGINES == {
            "auto": "compiled",
            "fused": "compiled",
            "compiled": "compiled",
            "scalar": "scalar",
        }
        assert engine_names() == ("auto", "compiled", "fused", "scalar")

    def test_unknown_backend_error_lists_names(self):
        with pytest.raises(ValueError) as err:
            get_backend("nope")
        for name in backend_names():
            assert name in str(err.value)


class TestTypedErrors:
    """Nothing falls back: the lane engine runs a launch or raises a
    typed error, and ``scalar`` runs what it refuses."""

    @pytest.mark.parametrize("engine", ["auto", "compiled", "fused"])
    def test_a_static_refusal_names_the_kernel_the_reason_and_scalar(
        self, engine
    ):
        program = OpenCLProgram(EARLY_RETURN)
        served = metrics.REGISTRY.counter("launch.served.scalar")
        with pytest.raises(CompileUnsupported) as err:
            launch(program, 4, 4, {"x": Buffer.zeros(4), "n": 4}, engine=engine)
        assert err.value.reason == "barrier combined with early return"
        assert str(err.value) == (
            "kernel 'K' is not run by the compiled engine: barrier combined "
            'with early return (engine="scalar" runs it)'
        )
        assert metrics.REGISTRY.counter("launch.served.scalar") == served
        out = Buffer.zeros(4)
        launch(program, 4, 4, {"x": out, "n": 4}, engine="scalar")
        np.testing.assert_array_equal(out.data, np.ones(4))

    @pytest.mark.parametrize("engine", ["auto", "compiled"])
    def test_a_race_raises_data_race(self, engine):
        served = {name: metrics.REGISTRY.counter(f"launch.served.{name}")
                  for name in backend_names()}
        with pytest.raises(DataRace, match="^K: cross-lane read of an address "
                           "written by another work-item"):
            launch(OpenCLProgram(RACY), 8, 4, racy_args(), engine=engine)
        assert served == {name: metrics.REGISTRY.counter(f"launch.served.{name}")
                          for name in backend_names()}

    def test_the_oracle_runs_a_racy_kernel_in_its_order(self):
        # Undefined in OpenCL; the scalar engine runs items in order, so
        # each reads back its own value.
        args = racy_args()
        launch(OpenCLProgram(RACY), 8, 4, args, engine="scalar")
        np.testing.assert_array_equal(args["out"].data, 2.0 * np.arange(8))

    @pytest.mark.parametrize("engine", engine_names())
    def test_exactly_one_served_counter_moves_per_launch(self, engine):
        # benchmarks/e2e reads which backend served a group of launches
        # off the one launch.served.<backend> counter that moved.
        def served():
            return {name: metrics.REGISTRY.counter(f"launch.served.{name}")
                    for name in backend_names()}

        before = served()
        run_saxpy(engine)
        moved = {name for name, n in served().items() if n != before[name]}
        assert moved == {ENGINES[engine]}

    def test_the_typed_errors_are_exec_errors(self):
        from repro.opencl.interp import ExecError

        assert issubclass(CompileUnsupported, ExecError)
        assert issubclass(DataRace, ExecError)


class TestEngineSelection:
    @staticmethod
    def _assert_lists_the_valid_engines(err):
        assert str(err.value).endswith(
            "valid engines are auto, compiled, fused, scalar"
        )

    def test_launch_unknown_engine_lists_valid_names(
        self, monkeypatch, capsys
    ):
        # The removed ``interp`` tier and ``vector`` alias are unknown
        # names like any other, at every place an engine is named.
        from repro.benchsuite.__main__ import main

        program = OpenCLProgram(SAXPY)
        for unknown in ("warp-speed", "interp", "vector"):
            with pytest.raises(ValueError) as err:
                launch(program, 16, 16, saxpy_args(16), engine=unknown)
            self._assert_lists_the_valid_engines(err)
            assert main(
                ["figure8", "--benchmarks", "nn", "--engine", unknown]
            ) == 2
            stderr = capsys.readouterr().err
            assert unknown in stderr
            assert stderr.rstrip().endswith(
                "valid engines are auto, compiled, fused, scalar"
            )
            monkeypatch.setenv("REPRO_SIM_ENGINE", unknown)
            with pytest.raises(ValueError) as err:
                launch(program, 16, 16, saxpy_args(16))
            self._assert_lists_the_valid_engines(err)
            monkeypatch.delenv("REPRO_SIM_ENGINE")

    def test_env_var_names_the_default_engine(self, monkeypatch):
        ref, ref_counters = run_saxpy("scalar")
        for name in ("auto", "compiled", "scalar"):
            monkeypatch.setenv("REPRO_SIM_ENGINE", name)
            served = metrics.REGISTRY.counter(f"launch.served.{ENGINES[name]}")
            out, counters = run_saxpy(None)
            np.testing.assert_array_equal(out, ref)
            assert counters == ref_counters
            assert metrics.REGISTRY.counter(
                f"launch.served.{ENGINES[name]}") == served + 1

    def test_env_var_compiled_refuses_as_the_argument_does(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        with pytest.raises(CompileUnsupported):
            launch(OpenCLProgram(EARLY_RETURN), 4, 4,
                   {"x": Buffer.zeros(4), "n": 4})


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize(
    "gsize, shown",
    [(0, "(0, 1, 1)"), (-4, "(-4, 1, 1)"), ((4, 0), "(4, 0, 1)"),
     ((4, 1, 1, 2), "(4, 1, 1, 2)"), ((), "()")],
    ids=["zero", "negative", "zero-in-2d", "four-dims", "no-dims"],
)
def test_a_malformed_ndrange_is_refused_before_any_engine_runs(
    engine, gsize, shown
):
    program = OpenCLProgram(SAXPY)
    args = saxpy_args(8)
    launches = metrics.REGISTRY.counter("launch.total")
    with pytest.raises(ValueError, match=re.escape(f"global size {shown}")):
        launch(program, gsize, 4, args, engine=engine)
    assert metrics.REGISTRY.counter("launch.total") == launches
    assert not args["out"].data.any()


def test_the_end_to_end_harness_plans_through_the_backend_table(monkeypatch):
    """``benchmarks/e2e/workloads.py`` imports ``LEDGER``,
    ``CompileUnsupported`` and ``get_backend`` from this package, plans
    through ``get_backend(name).plan`` and counts declines as
    ``LEDGER.total()``; a change that breaks those pins fails here, not
    only when the harness runs."""
    harness = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    monkeypatch.syspath_prepend(str(harness))
    workloads = importlib.import_module("workloads")
    assert workloads.LEDGER is LEDGER
    assert workloads.CompileUnsupported is CompileUnsupported
    program = OpenCLProgram(workloads.SAXPY_SOURCE)
    kernel = program.kernel("SAXPY")
    for name in ("compiled", "fused"):
        plan = workloads.get_backend(name).plan(program.parsed, kernel)
        assert plan.accesses == plan.affine == 3
    refused = OpenCLProgram(EARLY_RETURN)
    with pytest.raises(workloads.CompileUnsupported):
        workloads.get_backend("fused").plan(refused.parsed, refused.kernel())
    assert LEDGER.total() == 0
    with pytest.raises(DataRace):
        launch(OpenCLProgram(RACY), 8, 4, racy_args(), engine="fused")
    assert LEDGER.total() == 0
    assert set(workloads.Explore.STAT_FAILURES) <= set(ExploreStats().as_dict())


def plan_of(src):
    program = OpenCLProgram(src)
    return simt_compile.get_pipeline(program.parsed, program.kernel())


class TestAccessFacts:
    """Which load and store sites the plan gives an affine fact, what it
    proves, and what the launcher makes of it."""

    def test_saxpy_loads_and_store_plan_as_slices(self, monkeypatch):
        plan = plan_of(SAXPY)
        assert plan.accesses == plan.affine == 3
        assert plan.sole_names == frozenset({"out"})
        # Full-mask unit-stride loads and the proven store: no per-lane
        # address array, no race note, closed-form load accounting.
        flat = []
        monkeypatch.setattr(
            simt._Block, "_flat_addr", lambda self, *a: flat.append(a)
        )
        materialized = []
        monkeypatch.setattr(
            simt._LoadLog, "_materialize",
            lambda self, block: materialized.append(self),
        )
        out, counters = run_saxpy("compiled")
        ref, ref_counters = run_saxpy("scalar")
        np.testing.assert_array_equal(out, ref)
        assert counters == ref_counters
        assert flat == [] and materialized == []

    def test_a_uniform_load_is_logged_once(self, monkeypatch):
        src = """
        kernel void K(const global float * restrict w, global float *out) {
          int i = get_global_id(0);
          out[i] = w[3] + w[3] * w[4];
        }
        """
        plan = plan_of(src)
        assert plan.affine == plan.accesses == 4
        chunks = []
        real = simt._LoadLog.add_affine

        def add_affine(self, aff, *rest):
            chunks.append(aff[:2])
            return real(self, aff, *rest)

        monkeypatch.setattr(simt._LoadLog, "add_affine", add_affine)
        results = assert_engines_agree(
            src, 64, 16,
            lambda: {"w": Buffer.from_array(np.arange(8.0)), "out": Buffer.zeros(64)},
            runs=(("compiled", ONE),),
        )
        # One block, three uniform loads: one (terms, address) chunk each.
        assert chunks == [((), 3), ((), 3), ((), 4)]
        counters = results["scalar"][1]
        assert counters.cached_loads == 64 and counters.global_loads == 128

    @pytest.mark.parametrize("scale, affine", [("s", 0), ("n", 1)])
    def test_a_name_keeps_no_fact_on_a_uniform_that_changes_after_its_store(
        self, scale, affine
    ):
        # j = 2 * lid, then s becomes 3: the load must still read x[2 * lid].
        # Scaled by the never-stored parameter n instead, j keeps its fact.
        src = f"""
        kernel void K(const global float * restrict x, global float *out, int n) {{
          int s = 2;
          int j = get_local_id(0) * {scale};
          s = 3;
          out[get_global_id(0)] = x[j] + s;
        }}
        """
        plan = plan_of(src)
        assert (plan.accesses, plan.affine) == (2, 1 + affine)
        results = assert_engines_agree(
            src, 64, 64,
            lambda: {"x": Buffer.from_array(np.arange(256, dtype=float)),
                     "out": Buffer.zeros(64), "n": 2},
        )
        outs, _ = results["scalar"]
        np.testing.assert_array_equal(outs["out"], 2.0 * np.arange(64) + 3)

    def test_barrier_kernel_splits_segments(self):
        plan = plan_of("""
        kernel void K(const global float * restrict x, global float *out) {
          local float tmp[8];
          int l = get_local_id(0);
          tmp[l] = x[get_global_id(0)];
          barrier(CLK_LOCAL_MEM_FENCE);
          out[get_global_id(0)] = tmp[l] + 1.0f;
        }
        """)
        # stage | barrier | finish, every address affine.
        assert len(plan.segments) == 3
        assert plan.accesses == plan.affine == 4

    def test_unvectorizable_kernel_has_no_plan(self):
        # Statically refused (barrier + early return) but legal at this
        # launch shape: the lane engine names the reason, scalar runs it.
        reason = "barrier combined with early return"
        assert plan_of(EARLY_RETURN) == reason
        assert_engines_agree(
            EARLY_RETURN, 4, 4, lambda: {"x": Buffer.zeros(4), "n": 4},
            refused=reason,
        )

    def test_loaded_output_buffer_is_not_sole(self):
        plan = plan_of("""
        kernel void K(global float *out) {
          int i = get_global_id(0);
          out[i] = out[i] + 1.0f;
        }
        """)
        assert plan.affine == plan.accesses == 2
        assert "out" not in plan.sole_names

    @pytest.mark.parametrize("step, races", [("n", False), ("1", True)])
    def test_a_store_inside_a_loop_is_sole_while_its_iterations_cannot_meet(
        self, step, races, monkeypatch
    ):
        # out[i + t * n] over two iterations: the second iteration's
        # addresses lie past the first's, no race note is needed.
        # out[i + t]: lane i + 1 meets lane i's first store in the
        # second iteration; the detector takes over, replays the first
        # iteration and finds the race.
        src = f"""
        kernel void K(global float *out, int n) {{
          int i = get_global_id(0);
          for (int t = 0; t < 2; t = t + 1) {{
            out[i + t * {step}] = 1.0f + t;
          }}
        }}
        """
        plan = plan_of(src)
        assert plan.sole_names == frozenset({"out"}) and plan.affine == 1
        notes = count_race_notes(monkeypatch)
        results = assert_engines_agree(
            src, 64, 16, lambda: {"out": Buffer.zeros(2 * 64), "n": 64},
            runs=(("auto", ONE),), races=races,
        )
        if races:
            assert "conflict" in str(results["auto", ONE]) and notes
        else:
            assert notes == []

    @pytest.mark.parametrize("index, noted", [("l", False), ("0", True)])
    def test_a_local_store_alone_between_barriers_skips_the_detector(
        self, index, noted, monkeypatch
    ):
        # tmp is read after the barrier, so its store is sole only up to
        # it.  tmp[l] stores at lane-injective addresses (each group has
        # a row of its own): no race note.  tmp[0] makes a group's lanes
        # meet: the detector takes the store (the last lane wins, as on
        # the scalar engine).
        src = f"""
        kernel void K(const global float * restrict x, global float *out) {{
          local float tmp[16];
          int l = get_local_id(0);
          tmp[{index}] = x[get_global_id(0)];
          barrier(CLK_LOCAL_MEM_FENCE);
          out[get_global_id(0)] = tmp[15 - l];
        }}
        """
        assert plan_of(src).sole_names == frozenset({"tmp", "out"})
        notes = []
        real = simt._HazardLocal.note_write
        monkeypatch.setattr(
            simt._HazardLocal, "note_write",
            lambda self, *a: notes.append(1) or real(self, *a),
        )
        assert_engines_agree(
            src, 64, 16,
            lambda: {"x": Buffer.from_array(np.arange(64.0)),
                     "out": Buffer.zeros(64)},
        )
        assert bool(notes) == noted

    def test_a_kernel_with_returns_keeps_its_facts(self):
        plan = plan_of("""
        kernel void K(global float *out, int n) {
          int i = get_global_id(0);
          if (i >= n) { return; }
          out[i] = 1.0f;
        }
        """)
        assert plan.accesses == plan.affine == 1
        assert plan.sole_names == frozenset({"out"})

    def test_prefix_guard_matches_scalar_bitwise(self):
        # Guard bound below the launch size: the bound passes a lane
        # prefix; buffers and counters must match scalar.
        n, glob = 100, 128
        results = assert_engines_agree(
            SAXPY, glob, 4, lambda: dict(saxpy_args(glob), n=n)
        )
        outs, counters = results["scalar"]
        assert counters.global_stores == n
        assert np.count_nonzero(outs["out"]) == n  # items past the guard skipped

    def test_a_uniform_loop_keeps_the_facts(self):
        src = """
        kernel void K(const global float * restrict x, global float *out,
                      int reps) {
          int i = get_global_id(0);
          float acc = 0.0f;
          for (int t = 0; t < reps; t = t + 1) {
            acc = acc + x[i];
          }
          out[i] = acc;
        }
        """
        assert plan_of(src).affine == plan_of(src).accesses == 2
        results = assert_engines_agree(
            src, 16, 4,
            lambda: {"x": Buffer.from_array(np.arange(16, dtype=float)),
                     "out": Buffer.zeros(16), "reps": 3},
        )
        assert results["scalar"][1].loop_iterations == 3 * 16


#: The block cap the several-block tests patch in, and a launch of two
#: blocks and a bit under it.
BLOCK = 4096
BIG_N = 2 * BLOCK + 192


def count_race_notes(monkeypatch) -> list:
    """Count the stores the general race detector checks from now on."""
    notes = []
    real = simt._Hazard.note_write

    def note_write(self, *args):
        notes.append(self.array.size)
        return real(self, *args)

    monkeypatch.setattr(simt._Hazard, "note_write", note_write)
    return notes


class TestFactsInBothLayouts:
    """The facts hold over several blocks of at most ``BLOCK`` lanes
    (whose uniform terms differ per block) and over one block; both
    agree with the scalar oracle bitwise, Counters included."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(simt, "MAX_LANES", BLOCK)

    def test_saxpy_across_blocks_with_a_guard_inside_the_second(
        self, monkeypatch
    ):
        local = 131  # divides BIG_N, not MAX_LANES
        assert BIG_N % local == 0 and simt.MAX_LANES % local
        blocks = simt._block_geometry((BIG_N, 1, 1), (local, 1, 1))["blocks"]
        assert len(blocks) == 3
        n = blocks[1]["first_group"] * local + 1000  # inside block two
        assert plan_of(SAXPY).affine == 3
        notes = count_race_notes(monkeypatch)
        assert_engines_agree(
            SAXPY, BIG_N, local,
            lambda: {
                "x": Buffer.from_array(np.linspace(-3.0, 5.0, BIG_N)),
                "y": Buffer.from_array(np.cos(np.arange(BIG_N))),
                "out": Buffer.from_array(np.full(BIG_N, 7.0)),
                "a": 2.5, "n": n,
            },
        )
        assert notes == []  # the proven store skips the race detector

    def test_an_affine_segment_then_a_barrier_then_a_looped_segment(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          local float tmp[64];
          int l = get_local_id(0);
          tmp[l] = x[get_global_id(0)] * 2.0f;
          barrier(CLK_LOCAL_MEM_FENCE);
          float acc = 0.0f;
          for (int j = 0; j < l % 4; j += 1) { acc = acc + tmp[j]; }
          out[get_global_id(0)] = acc + l;
        }
        """
        plan = plan_of(src)
        # tmp[j] under the lane-varying loop: j is uniform on its lanes.
        assert len(plan.segments) == 3
        assert plan.affine == plan.accesses == 4
        assert_engines_agree(
            src, BIG_N, 64,
            lambda: {"x": Buffer.from_array(np.sin(np.arange(BIG_N))),
                     "out": Buffer.zeros(BIG_N)},
        )

    def test_pointer_offsets_count_once(self):
        # Slice loads through an offset pointer (``q[i]``, ``q[2 * i]``)
        # and a store through a lane-varying pointer under a prefix
        # guard: the offset is part of the address exactly once.
        src = """
        kernel void K(const global float * restrict x, global float *out,
                      int n) {
          int i = get_global_id(0);
          const global float *q = x + 3;
          global float *p = out + i % 3;
          if (i < n) { p[i - i % 3] = q[i] + q[2 * i] + q[5]; }
        }
        """
        # p[i - i % 3] has no fact: i % 3 drops it.
        assert plan_of(src).affine == 3 and plan_of(src).accesses == 4
        assert_engines_agree(
            src, BIG_N, 64,
            lambda: {"x": Buffer.from_array(np.arange(3.0 * BIG_N)),
                     "out": Buffer.zeros(BIG_N), "n": BIG_N - 100},
        )

    @pytest.mark.parametrize("layout", [ONE, SEVERAL])
    def test_an_aliased_output_refuses_the_sole_store_proof(
        self, layout, monkeypatch
    ):
        # ``x`` and ``out`` bound to one array: the store is checked by
        # the race detector, and the result is still the scalar one.
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = x[i] + 1.0f;
        }
        """
        assert plan_of(src).sole_names == frozenset({"out"})
        notes = count_race_notes(monkeypatch)  # scalar has no detector

        def aliased():
            shared = Buffer.from_array(np.arange(BIG_N, dtype=float))
            return {"x": shared, "out": shared}

        assert_engines_agree(
            src, BIG_N, 64, aliased,
            runs=tuple(run for run in RUNS if run[1] == layout),
        )
        assert notes and set(notes) == {BIG_N}


class TestLauncher:
    def test_a_full_block_reduction_uses_the_packed_local_detector(
        self, monkeypatch
    ):
        # A block of MAX_LANES lanes and a ragged one of three groups:
        # every local buffer stays on the packed detector (its SEG_SCALE
        # covers the largest block).
        from tests.test_simt_compile import _REDUCTION

        local = 8
        n = simt.MAX_LANES + 3 * local
        assert n > simt.MAX_LANES
        acquired = []
        real = simt._acquire_hazard

        def acquire(size, cls):
            acquired.append((size, cls))
            return real(size, cls)

        monkeypatch.setattr(simt, "_acquire_hazard", acquire)
        x = np.cos(np.arange(n))
        make = lambda: {"x": Buffer.from_array(x), "out": Buffer.zeros(n // local)}
        launch(OpenCLProgram(_REDUCTION), n, local, make(), engine="compiled")
        rows = {simt.MAX_LANES, 3 * local}  # tmp's size in each block
        assert {(size, simt._HazardLocal) for size in rows} <= set(acquired)
        assert all(cls is simt._HazardLocal for size, cls in acquired if size in rows)
        monkeypatch.undo()
        assert_engines_agree(_REDUCTION, n, local, make)

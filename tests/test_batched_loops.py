"""Batched loops (``opencl/ENGINES.md``, "Batched loops"): the lane
engine runs the carry-free part of a counted loop for many iterations at
once, and every engine must still agree with the scalar oracle bit for
bit (:func:`tests.engines.check_engines`: buffers, ``Counters``, one
block and several) — over trip counts around the chunk, under a partial
mask, with loads in a carried ternary, with cached loads, and when the
hoisted part raises (out of bounds, a race)."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.benchsuite.common import get_benchmark
from repro.compiler.codegen import compile_kernel
from repro.compiler.kernel import execute_kernel
from repro.compiler.options import CompilerOptions
from repro.opencl import (
    Buffer, DataRace, OpenCLProgram, OutOfBounds, launch, simt,
    simt_compile,
)
from tests.engines import ALL_RUNS, blocks, check_engines
from tests.programs import checked_static_types

N = 64
LOCAL = 16

#: The fewest iterations a chunk runs outside these tests, and a closed
#: chain's.
CHUNK = simt_compile.MIN_CHUNK
CLOSED_CHUNK = simt_compile.MIN_CLOSED_CHUNK


@pytest.fixture(autouse=True)
def small_chunks():
    """Chunks of as few as 2 iterations: the tests' blocks leave room
    for short chunks only, and the thresholds are tested on their own."""
    with mock.patch.object(simt_compile, "MIN_CHUNK", 2), \
            mock.patch.object(simt_compile, "MIN_CLOSED_CHUNK", 2):
        yield


def plan(source):
    program = OpenCLProgram(source)
    return simt_compile.get_pipeline(program.parsed, program.kernel())


@contextmanager
def chunks():
    """Record the chunks the hoisted parts ran for: ``(count, whether
    it succeeded)`` per chunk."""
    record = []
    hoist = simt_compile._Batch.hoist

    def recorded(batch, b, m, n, first, count):
        slots = hoist(batch, b, m, n, first, count)
        record.append((count, slots is not None))
        return slots

    with mock.patch.object(simt_compile._Batch, "hoist", recorded):
        yield record


@contextmanager
def closes():
    """Record the chunks a closed chain ran closed: their iterations."""
    record = []
    close = simt_compile._Batch.close

    def recorded(batch, b, m, n, frame, slots, count, *rest):
        record.append(count)
        return close(batch, b, m, n, frame, slots, count, *rest)

    with mock.patch.object(simt_compile._Batch, "close", recorded):
        yield record


@contextmanager
def unclosed():
    """Plans made afresh whose chains do not close: a batched loop runs
    each iteration through the body."""
    from repro.opencl.runtime import _parse_cached

    batch = simt_compile._Plan.batch

    def open_batch(plan):
        b = batch(plan)
        b.closed = None
        return b

    _parse_cached.cache_clear()
    try:
        with mock.patch.object(simt_compile._Plan, "batch", open_batch):
            yield
    finally:
        _parse_cached.cache_clear()


def run(source, args, engine, gsize=N, lsize=LOCAL):
    """``(buffers, counters)`` of one launch on fresh copies of ``args``."""
    fresh = {
        k: Buffer.from_array(v.copy()) if isinstance(v, np.ndarray) else v
        for k, v in args.items()
    }
    counters = launch(OpenCLProgram(source), gsize, lsize, fresh, engine=engine)
    return {k: v.data for k, v in fresh.items() if isinstance(v, Buffer)}, counters


def inputs(size=4 * N + 64, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.uniform(-2, 2, size),
        "y": rng.uniform(-2, 2, size),
        "out": np.zeros(N),
    }


NBODY_LIKE = """
float4 step4(float4 acc, float4 p, float4 q) {
  float dx = q.x - p.x;
  float dy = q.y - p.y;
  float s = q.w / sqrt(dx * dx + dy * dy + 0.5f);
  return acc + (float4)(s * dx, s * dy, 0.0f, 0.0f);
}
kernel void K(const global float * restrict x, const global float * restrict y,
              global float *out, int trips) {
  int i = get_global_id(0);
  float4 p = vload4(i, x);
  float4 acc = (float4)(0.0f, 0.0f, 0.0f, 0.0f);
  float sum = 0.0f;
  for (int t = 0; t < trips; t += 1) {
    float4 q = vload4(t, y);
    float w = q.z * x[i + t];
    acc = step4(acc, p, q);
    sum = sum + w;
  }
  out[i] = acc.x + acc.y + sum;
}
"""


class TestTripCounts:
    @pytest.mark.parametrize("trips", [0, 1, 2, 7])
    def test_every_trip_count_agrees_over_several_chunks(self, trips):
        # A chunk of at most 3 iterations on one block: 7 trips are
        # chunks of 3, 3 and one iteration run as the loop runs it.
        args = dict(inputs(), trips=trips)
        assert plan(NBODY_LIKE).batched == 1
        with chunks() as record, mock.patch.object(simt, "MAX_LANES", 3 * N):
            check_engines(lambda e: run(NBODY_LIKE, args, e), N, LOCAL)
        if trips >= 2:
            assert (3 if trips > 2 else 2, True) in record
        else:
            assert record == []

    def test_a_trip_count_of_one_runs_unbatched(self):
        args = dict(inputs(), trips=1)
        with chunks() as record:
            run(NBODY_LIKE, args, "compiled")
        assert record == []

    def test_fewer_trips_than_a_chunk_runs_run_unbatched(self):
        # Room for 20 iterations per chunk: CHUNK + 3 trips are one
        # chunk; CHUNK - 1 trips, and the rest of 20 + CHUNK - 1, run
        # as the loop runs them.
        seen = {}
        for trips in (CHUNK - 1, CHUNK + 3, 20 + CHUNK - 1):
            args = dict(inputs(), trips=trips)
            with chunks() as record, \
                    mock.patch.object(simt_compile, "MIN_CHUNK", CHUNK), \
                    mock.patch.object(simt, "MAX_LANES", 20 * N):
                check_engines(lambda e: run(NBODY_LIKE, args, e), N, LOCAL)
            seen[trips] = sorted(set(record))
        assert seen == {
            CHUNK - 1: [], CHUNK + 3: [(CHUNK + 3, True)], 20 + CHUNK - 1: [(20, True)],
        }


class TestWhatIsHoisted:
    def test_under_a_partial_mask(self):
        src = """
        kernel void K(const global float * restrict x,
                      const global float * restrict y, global float *out, int n) {
          int i = get_global_id(0);
          float acc = 1.0f;
          if (i < n - 3) {
            for (int t = 0; t < 9; t += 1) {
              float v = x[i + t] * y[t];
              acc = acc * 0.5f + v;
            }
          }
          out[i] = acc;
        }"""
        args = dict(inputs(), n=N - 10)
        with chunks() as record:
            check_engines(lambda e: run(src, args, e), N, LOCAL)
        assert record and all(ok for _, ok in record)

    def test_loads_in_a_carried_ternary_stay_in_the_loop(self):
        # The arms run on the lanes the carried condition picks: their
        # loads are not hoisted, and the counts stay the oracle's.
        src = """
        kernel void K(const global float * restrict x,
                      const global float * restrict y, global float *out) {
          int i = get_global_id(0);
          float acc = x[i];
          for (int t = 0; t < 12; t += 1) {
            float h = y[t] * 0.25f;
            acc = acc > h ? acc - x[i + t] : acc + y[t] * 0.5f;
            acc = acc + (acc < 1.0f && y[i + t] > 0.0f);
          }
          out[i] = acc;
        }"""
        args = inputs()
        with chunks() as record:
            check_engines(lambda e: run(src, args, e), N, LOCAL)
        assert record and all(ok for _, ok in record)

    def test_one_lane_loading_one_address_again_counts_cached_loads(self):
        src = """
        kernel void K(const global float * restrict x,
                      const global float * restrict y, global float *out) {
          int i = get_global_id(0);
          float acc = 0.0f;
          for (int t = 0; t < 8; t += 1) {
            acc = acc + x[i] * y[t / 2] + x[i + t % 3];
          }
          out[i] = acc;
        }"""
        args = inputs()
        results = check_engines(lambda e: run(src, args, e), N, LOCAL)
        assert results["scalar"][1].cached_loads > 0

    def test_a_helper_with_control_flow_is_one_carried_call(self):
        src = """
        float pick(float acc, float d) { if (d < acc) { return d; } return acc; }
        kernel void K(const global float * restrict x,
                      const global float * restrict y, global float *out) {
          int i = get_global_id(0);
          float best = 100.0f;
          for (int k = 0; k < 5; k += 1) {
            best = pick(best, x[i + k] * y[k]);
          }
          out[i] = best;
        }"""
        assert plan(src).batched == 1
        args = inputs()
        with chunks() as record:
            check_engines(lambda e: run(src, args, e), N, LOCAL)
        assert record and all(ok for _, ok in record)

    @pytest.mark.parametrize("body", [
        "out[i + t] = acc;",  # a store
        "if (acc > 0.0f) { acc = acc - 1.0f; }",  # an if
    ])
    def test_a_loop_that_stores_or_branches_stays_sequential(self, body):
        src = f"""
        kernel void K(const global float * restrict x, global float *out) {{
          int i = get_global_id(0);
          float acc = x[i];
          for (int t = 0; t < 4; t += 1) {{ acc = acc + x[t]; {body} }}
          out[i] = acc;
        }}"""
        assert plan(src).batched == 0

    def test_a_lane_varying_trip_count_stays_sequential(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          float acc = 0.0f;
          for (int t = 0; t < i % 4; t += 1) { acc = acc + x[t]; }
          out[i] = acc;
        }"""
        assert plan(src).batched == 0


class TestCoefficientsTheLoopChanges:
    """An address whose coefficient is a name the loop changes (its
    variable, a body-local name): the iterations of a chunk do not share
    its fact, nor does the loop share the value its environment held
    before the chunk."""

    @staticmethod
    def source(body, carried="float acc = 0.0f;"):
        return f"""
        kernel void K(const global float * restrict x, global float *out, int trips) {{
          int i = get_global_id(0);
          {carried}
          for (int t = 0; t < trips; t += 1) {{ {body} }}
          out[i] = acc;
        }}"""

    @pytest.mark.parametrize("body", [
        "acc = acc + x[t * i];",  # the loop variable
        "int k = t + 1; acc = acc + x[k * i];",  # a hoisted body-local name
        "int k = t + 1; c = c + 1; acc = acc + x[k * i + c];",  # read by a carried load
    ])
    def test_every_iteration_reads_its_own_addresses_over_several_chunks(self, body):
        src = self.source(body, "float acc = 0.0f; int c = 0;")
        args = {"x": np.arange(8 * N, dtype=float) * 0.5, "out": np.zeros(N), "trips": 7}
        assert plan(src).batched == 1
        # The nodes' facts hold too, in the chunks and in the loop.
        with chunks() as record, mock.patch.object(simt, "MAX_LANES", 3 * N), \
                checked_static_types() as facts:
            results = check_engines(lambda e: run(src, args, e), N, LOCAL)
        assert (3, True) in record and facts.affine > 0
        if "c =" not in body:  # lane 0 reads x[0] in every iteration
            assert results["scalar"][1].cached_loads > 0

    @pytest.mark.parametrize("index", ["t * i", "(3 - t) * i"])
    def test_a_load_past_either_end_in_a_later_chunk_raises_the_oracles_error(self, index):
        # In the second chunk of 3 iterations, iteration 5 first reads
        # past the end of 256 elements, on lane 52 (so does work-item 52
        # first, in the oracle's order), or with 3 - t iteration 4 reads
        # x[-1] on lane 1.
        src = self.source(f"acc = acc + x[{index}];")
        args = {"x": np.arange(4 * N, dtype=float), "out": np.zeros(N), "trips": 6}
        raised = {}
        with mock.patch.object(simt, "MAX_LANES", 3 * N):
            for engine, layout in ALL_RUNS:
                with pytest.raises(OutOfBounds) as error, blocks(layout, N, LOCAL):
                    run(src, args, engine)
                raised[engine, layout] = str(error.value)
        assert len(set(raised.values())) == 1, raised


class TestErrorsFromTheHoistedPart:
    SRC = """
    kernel void K(const global float * restrict x, global float *out) {
      int i = get_global_id(0);
      float acc = 0.0f;
      for (int t = 0; t < 6; t += 1) {
        acc = acc + x[i + 16 * t];
      }
      out[i] = acc;
    }"""

    def test_an_out_of_bounds_load_in_iteration_k_raises_the_oracles_error(self):
        # x holds 128 elements: iteration 4 of lane 0 reads x[64] fine,
        # iteration 5 reads past the end first on lane 48.
        args = {"x": np.arange(2 * N, dtype=float), "out": np.zeros(N)}
        raised = {}
        for engine, layout in ALL_RUNS:
            with pytest.raises(OutOfBounds) as error, blocks(layout, N, LOCAL):
                run(self.SRC, args, engine)
            raised[engine, layout] = str(error.value)
        assert len(set(raised.values())) == 1, raised
        assert "x" in next(iter(raised.values()))

    def test_a_hoisted_read_of_a_local_another_lane_wrote_is_the_same_race(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          local float tmp[16];
          int l = get_local_id(0);
          int i = get_global_id(0);
          tmp[l] = x[i];
          float acc = 0.0f;
          for (int t = 0; t < 4; t += 1) {
            acc = acc + tmp[(l + t) % 16];
          }
          out[i] = acc;
        }"""
        args = inputs()
        with chunks() as record:
            check_engines(lambda e: run(src, args, e), N, LOCAL, races=True)
        assert (4, False) in record  # the hoisted part raised, the loop did
        with pytest.raises(DataRace, match="^K: cross-lane read of an "
                           "address written by another work-item"):
            run(src, args, "compiled")


class TestGuardedBounds:
    REDUCE = """
    kernel void REDUCE(const global float * restrict x, global float *out) {
      local float tmp[64];
      int l = get_local_id(0);
      tmp[l] = x[get_global_id(0)];
      barrier(CLK_LOCAL_MEM_FENCE);
      for (int s = 32; s > 0; s = s / 2) {
        if (l < s) { tmp[l] = tmp[l] + tmp[l + SHIFT]; }
        barrier(CLK_LOCAL_MEM_FENCE);
      }
      if (l < 1) { out[get_group_id(0)] = tmp[0]; }
    }"""

    def test_the_guard_bounds_the_reduction_so_no_lane_is_checked(self):
        src = self.REDUCE.replace("SHIFT", "s")
        args = {"x": np.arange(1024, dtype=float), "out": np.zeros(16)}
        check_engines(lambda e: run(src, args, e, 1024, 64), 1024, 64)
        with mock.patch.object(simt._Block, "_check_bounds") as per_lane:
            run(src, args, "compiled", 1024, 64)
        assert per_lane.call_count == 0

    def test_an_access_past_the_guarded_range_still_raises(self):
        src = self.REDUCE.replace("SHIFT", "s + 1")
        args = {"x": np.arange(1024, dtype=float), "out": np.zeros(16)}
        raised = set()
        for engine, layout in ALL_RUNS:
            with pytest.raises(OutOfBounds) as error, blocks(layout, 1024, 64):
                run(src, args, engine, 1024, 64)
            raised.add((error.value.buffer, error.value.index))
        assert raised == {("tmp", 64)}


class TestClosedChains:
    """A loop whose one carried statement is ``acc = acc ⊕ h`` runs each
    chunk's iterations but the first as one numpy operation each, with
    no pass through the body, and every engine still agrees with the
    oracle bit for bit."""

    SRC = """
    typedef struct {{ float a; float b; }} P;
    float4 step4(float4 acc, float4 q, float w) {{ float4 d = q * w; return acc + d * 0.5f; }}
    float dist(float acc, P p) {{ float d = p.a - p.b; return acc + d * d; }}
    float half(float acc, float v) {{ return acc + v * 0.5f; }}
    float via(float acc, float v) {{ return half(acc, v); }}
    float viaint(int acc, float v) {{ return half(acc, v); }}
    kernel void K(const global float * restrict x, const global float * restrict y,
                  global float *out, int trips, int k) {{
      int i = get_global_id(0);
      {decl}
      if (i < k) {{
        for (int t = 0; t < trips; t += 1) {{ {body} }}
      }}
      out[i] = {result};
    }}"""

    CLOSED = {
        "acc + h": ("float acc = x[i];", "acc = acc + y[i + t] * 0.5f;", "acc"),
        "h + acc": ("float acc = x[i];", "acc = y[t] * x[i + t] + acc;", "acc"),
        "acc * h": ("float acc = 1.0f;", "acc = acc * (0.5f + 0.25f * y[i + t]);", "acc"),
        "float2": ("float2 acc = (float2)(x[i], 1.0f);",
                   "acc = acc + (float2)(y[t], x[i + t]);", "acc.x + acc.y"),
        "float4 h * acc": ("float4 acc = vload4(i, x);", "acc = vload4(t, y) * acc;",
                           "acc.x + acc.w"),
        "through a helper": ("float4 acc = vload4(i, x);",
                             "acc = step4(acc, vload4(t, y), x[i + t]);", "acc.y + acc.z"),
        "through two helpers": ("float acc = x[i];", "acc = via(acc, y[i + t]);", "acc"),
    }

    @pytest.mark.parametrize("k", [N, N - 10])
    @pytest.mark.parametrize("trips", [0, 1, 5, 13])
    @pytest.mark.parametrize("form", sorted(CLOSED))
    def test_a_closed_chain_agrees_over_several_chunks(self, form, trips, k):
        decl, body, result = self.CLOSED[form]
        src = self.SRC.format(decl=decl, body=body, result=result)
        assert (plan(src).batched, plan(src).closed) == (1, 1)
        args = dict(inputs(), trips=trips, k=k)
        with closes() as record, mock.patch.object(simt, "MAX_LANES", 4 * N):
            check_engines(lambda e: run(src, args, e), N, LOCAL)
        assert bool(record) == (trips >= 2), record

    @pytest.mark.parametrize("body", [
        "acc = (y[t] * 1e300f * 1e300f - y[t] * 1e300f * 1e300f) + acc;",
        "acc = acc + (y[t] * 1e300f * 1e300f - y[t] * 1e300f * 1e300f);",
    ])
    def test_a_result_holding_a_nan_is_the_loops(self, body):
        # inf - inf is a NaN whose sign differs from the input's, and
        # which operand's bits a sum of two NaNs keeps depends on the
        # order of the operands (the oracle's Python floats and numpy's
        # lanes differ there): a closed chunk keeps the loop's order,
        # so its bits are the unclosed loop's.
        src = self.SRC.format(decl="float acc = x[i];", body=body, result="acc")
        args = dict(inputs(), trips=9, k=N)
        args["x"][::3] = np.nan
        with closes() as record:
            closed = run(src, args, "compiled")
        with unclosed(), chunks() as batched:
            loop = run(src, args, "compiled")
        assert record == [9] and batched == [(9, True)]
        assert np.isnan(closed[0]["out"][:N]).all()
        assert closed[0]["out"].tobytes() == loop[0]["out"].tobytes()
        assert vars(closed[1]) == vars(loop[1])

    def test_fewer_trips_than_a_closed_chunk_runs_run_unbatched(self):
        decl, body, result = self.CLOSED["acc + h"]
        src = self.SRC.format(decl=decl, body=body, result=result)
        least = CLOSED_CHUNK
        seen = {}
        for trips in (least - 1, least):
            args = dict(inputs(), trips=trips, k=N)
            with chunks() as record, \
                    mock.patch.object(simt_compile, "MIN_CLOSED_CHUNK", least):
                check_engines(lambda e: run(src, args, e), N, LOCAL)
            seen[trips] = sorted(set(record))
        assert seen == {least - 1: [], least: [(least, True)]}

    def test_one_h_for_every_lane_closes_too(self):
        src = self.SRC.format(decl="float acc = x[i];",
                              body="acc = acc + (float) k * 0.5f;", result="acc")
        args = dict(inputs(), trips=6, k=N - 3)
        with closes() as record:
            check_engines(lambda e: run(src, args, e), N, LOCAL)
        assert record

    @pytest.mark.parametrize("decl, body", [
        ("float acc = 0.0f; float s = 1.0f;", "acc = acc + x[t]; s = s * y[t];"),
        ("float acc = 0.0f; float s = 1.0f;", "acc = acc + x[t]; s = acc;"),
        ("float acc = 0.0f;", "acc = acc - x[i + t];"),
        ("float acc = 0.0f;", "acc = acc + x[t] + y[t];"),
        ("int acc = 0;", "acc = acc + (int) x[i + t];"),
        ("float4 acc = vload4(i, x);", "acc = acc + x[i + t];"),
        ("float acc = 0.0f;", "acc = dist(acc + 1.0f, p);"),
        ("float acc = 0.0f;", "p.a = acc; p.b = y[t]; acc = dist(acc, p);"),
        ("float acc = 0.0f;", "p.a = x[t]; acc = dist(acc, p); p.b = y[t];"),
        ("float acc = 0.0f;", "p.a = x[i + t]; p.b = y[t]; acc = acc - dist(0.0f, p);"),
        # A helper's float sum truncated on each store to an int, and a
        # float accumulator truncated on its way through an int parameter.
        ("int acc = 0;", "acc = half(acc, x[i + t]);"),
        ("float acc = 0.0f;", "acc = viaint(acc, x[i + t]);"),
    ])
    def test_other_chains_run_each_iteration(self, decl, body):
        acc = "(float) acc.x" if "float4" in decl else "acc"
        src = self.SRC.format(decl="P p; p.a = 1.0f; p.b = 2.0f; " + decl, body=body,
                              result=acc + " + p.a * 3.0f - p.b")
        assert (plan(src).batched, plan(src).closed) == (1, 0)
        args = dict(inputs(), trips=7, k=N - 3)
        check_engines(lambda e: run(src, args, e), N, LOCAL)


#: The Figure 8 kernels whose loops are batched (level ``all``): how
#: many loops of each, by name and which.
FIGURE8_BATCHED = {
    "nbody-nvidia": 1,  # the tile loop over calcAcc
    "nbody-amd": 1,  # the loop over calcAcc
    "md": 1,  # the neighbour loads of ljAcc's loop
    "kmeans": 2,  # the feature loop's loads; pickMin's loop
    "mriq": 1,  # the loop over phaseAcc
    "convolution": 1,  # the inner weight loop
    "mm-amd": 1,  # the loop over vmadd
    "mm-nvidia": 1,  # the tile loop over multAndSumUp
}


#: How many of those close their chain (``acc = acc ⊕ h``, through the
#: helper named): all but md's, whose ``ljAcc`` accumulates under an
#: ``if``, and kmeans': its ``distAcc`` loop also stores the struct
#: ``acc3`` declared outside it, and ``pickMin`` holds an ``if``.
FIGURE8_CLOSED = {
    "nbody-nvidia": 1,  # calcAcc
    "nbody-amd": 1,  # calcAcc
    "md": 0,
    "kmeans": 0,
    "mriq": 1,  # phaseAcc
    "convolution": 1,  # multAndSumUp
    "gesummv": 1,  # weightedMad
    "mm-amd": 1,  # vmadd
    "mm-nvidia": 1,  # multAndSumUp
}


def figure8_kernel(name):
    """``(level-all kernel, run(engine))`` of benchmark ``name`` at size
    ``small``."""
    bench = get_benchmark(name)
    size_env = dict(bench.sizes["small"])
    inputs = bench.make_inputs(size_env, np.random.default_rng(0))
    (stage,) = bench.stages
    fun = stage.build(size_env)
    kernel = compile_kernel(fun, CompilerOptions.all(local_size=stage.local_size))
    args = {p.name: inputs[n] for p, n in zip(fun.params, stage.param_names)}
    return kernel, lambda engine: execute_kernel(
        kernel, args, size_env, stage.global_size(size_env),
        local_size=stage.local_size, engine=engine,
    )


@pytest.mark.parametrize("name", sorted(FIGURE8_BATCHED))
def test_the_figure8_loops_are_batched(name):
    assert plan(figure8_kernel(name)[0].source).batched == FIGURE8_BATCHED[name]


@pytest.mark.parametrize("name", sorted(FIGURE8_CLOSED))
def test_the_figure8_chains_close(name):
    # A return to a Python pass per iteration fails here: the plan
    # closes the chains, and their chunks run closed.
    kernel, run_on = figure8_kernel(name)
    assert plan(kernel.source).closed == FIGURE8_CLOSED[name]
    with closes() as record:
        run_on("compiled")
    assert bool(record) == bool(FIGURE8_CLOSED[name])


def test_the_compile_span_counts_batched_loops(tmp_path):
    import json

    from repro import obs
    from repro.opencl.runtime import _parse_cached

    _parse_cached.cache_clear()  # compile the plan afresh, traced
    path = tmp_path / "trace.json"
    obs.stop_tracing()
    obs.start_tracing(path)
    try:
        plan(NBODY_LIKE)
    finally:
        obs.stop_tracing()
    events = json.loads(path.read_text())["traceEvents"]
    (compiled,) = [e for e in events if e["name"] == "simt_compile"]
    assert compiled["args"]["batched"] == 1
    assert compiled["args"]["closed"] == 0  # two names are carried

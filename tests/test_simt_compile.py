"""Tests for the closure-compilation tier (repro.opencl.simt_compile).

The compiled pipeline's contract is exact equivalence with the scalar
reference interpreter — bitwise-identical buffers and identical
counters.  The divergence/race corpus in ``tests/test_simt.py`` already
runs against every backend through ``assert_engines_agree``; this
module covers the compilation machinery itself (pipeline caching, barrier segmentation, fallback
ordering, the written-buffer analysis) plus a randomized cross-engine
fuzz over the shared IL programs of ``tests/programs.py``.
"""

import numpy as np
import pytest

from repro.compiler.kernel import compile_and_run
from repro.compiler.options import CompilerOptions
from repro.opencl import (
    Buffer,
    OpenCLProgram,
    VectorizationError,
    launch,
)
from repro.opencl import simt_compile
from repro.opencl.simt import written_pointer_roots
from repro.benchsuite.common import ALL_BENCHMARKS
from tests.programs import partial_dot, simple_map_add_one
from tests.test_simt import ENGINES

_REDUCTION = """
kernel void REDUCE(const global float * restrict x, global float *out) {
  local float tmp[8];
  int l = get_local_id(0);
  tmp[l] = x[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = 4; s > 0; s = s / 2) {
    if (l < s) { tmp[l] = tmp[l] + tmp[l + s]; }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (l < 1) { out[get_group_id(0)] = tmp[0]; }
}
"""


class TestPipelineCache:
    def test_pipeline_compiles_once_per_parse(self):
        src = "kernel void K(global float *x) { x[get_global_id(0)] = 1.0f; }"
        a = OpenCLProgram(src)
        b = OpenCLProgram(src)  # shares the parse via the source LRU
        pa = simt_compile.get_pipeline(a.parsed, a.kernel())
        pb = simt_compile.get_pipeline(b.parsed, b.kernel())
        assert pa is not None
        assert pa is pb

    def test_unvectorizable_kernel_has_no_pipeline(self):
        src = """
        kernel void K(global float *x) {
          if (get_local_id(0) < 1) { barrier(CLK_LOCAL_MEM_FENCE); }
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        assert simt_compile.get_pipeline(program.parsed, program.kernel()) is None

    def test_segments_split_at_top_level_barriers(self):
        program = OpenCLProgram(_REDUCTION)
        pipeline = simt_compile.get_pipeline(program.parsed, program.kernel())
        assert pipeline is not None
        # pre-barrier block | barrier | loop + trailing if (the loop's
        # internal barrier stays inside its loop closure)
        assert len(pipeline.segments) == 3

    def test_compiled_engine_runs_the_pipeline(self):
        n = 64
        program = OpenCLProgram(_REDUCTION)
        x = np.arange(n, dtype=float)
        out = Buffer.zeros(n // 8)
        launch(program, n, 8, {"x": Buffer.from_array(x), "out": out},
               engine="compiled")
        np.testing.assert_array_equal(out.data, x.reshape(-1, 8).sum(axis=1))


class TestEngineTiers:
    def test_compiled_strict_raises_on_unvectorizable(self):
        src = """
        kernel void K(global float *x, int n) {
          if (get_global_id(0) >= n) { return; }
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        with pytest.raises(VectorizationError):
            launch(program, 4, 4, {"x": Buffer.zeros(4), "n": 4},
                   engine="compiled")

    def test_dynamic_race_still_falls_back_from_compiled(self):
        # The compiled tier inherits the dynamic hazard detection; under
        # ``auto`` a cross-lane race rolls back and re-runs scalar.
        src = """
        kernel void K(const global float * restrict x, global float *scratch,
                      global float *out) {
          int i = get_global_id(0);
          scratch[0] = x[i];
          out[i] = scratch[0] * 2.0f;
        }
        """
        program = OpenCLProgram(src)
        assert simt_compile.get_pipeline(program.parsed, program.kernel()) is not None
        x = np.arange(8, dtype=float)

        def args():
            return {"x": Buffer.from_array(x.copy()),
                    "scratch": Buffer.zeros(1), "out": Buffer.zeros(8)}

        a_s = args()
        c_s = launch(program, 8, 4, a_s, engine="scalar")
        a_auto = args()
        c_auto = launch(program, 8, 4, a_auto)
        np.testing.assert_array_equal(a_s["out"].data, a_auto["out"].data)
        assert vars(c_s) == vars(c_auto)
        with pytest.raises(VectorizationError):
            launch(program, 8, 4, args(), engine="compiled")


class TestOversizedWorkGroups:
    def test_local_hazard_handles_groups_beyond_seg_scale(self):
        # A single work-group larger than _HazardLocal.SEG_SCALE lanes
        # cannot use the packed detector (lane ids would not fit the
        # encoding); the launcher must pick the general detector and the
        # race-free kernel must stay on the lane-batched path.
        from repro.opencl.simt import _HazardLocal

        n = _HazardLocal.SEG_SCALE * 2
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          local float tmp[%d];
          int l = get_local_id(0);
          tmp[l] = x[l];
          barrier(CLK_LOCAL_MEM_FENCE);
          float v = tmp[%d];
          barrier(CLK_LOCAL_MEM_FENCE);
          out[l] = tmp[l] + v;
        }
        """ % (n, n - 100)
        program = OpenCLProgram(src)
        x = np.arange(n, dtype=float)
        out = Buffer.zeros(n)
        launch(program, n, n, {"x": Buffer.from_array(x), "out": out},
               engine="compiled")  # must not raise VectorizationError
        np.testing.assert_array_equal(out.data, x + x[n - 100])


class TestMemberAccess:
    def test_struct_member_named_like_a_swizzle(self):
        # "scale" starts with "s" but is a struct member, not a vector
        # swizzle; the pipeline must compile and agree with scalar.
        src = """
        typedef struct { float scale; float shift; } P;
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          P p;
          p.scale = 2.0f;
          p.shift = 1.0f;
          out[i] = x[i] * p.scale + p.shift;
        }
        """
        program = OpenCLProgram(src)
        assert simt_compile.get_pipeline(program.parsed, program.kernel()) is not None
        x = np.arange(8, dtype=float)
        results = []
        for engine in ENGINES:
            out = Buffer.zeros(8)
            c = launch(program, 8, 4,
                       {"x": Buffer.from_array(x.copy()), "out": out},
                       engine=engine)
            results.append((out.data.copy(), vars(c)))
        for out, counters in results[1:]:
            np.testing.assert_array_equal(results[0][0], out)
            assert counters == results[0][1]

    def test_non_xyzw_vector_member_store_raises_like_the_interpreter(self):
        # The engines' _VEC_MEMBERS lookup raises KeyError for stores to
        # swizzle members outside x/y/z/w; the compiled tier must not
        # silently broadcast instead.
        src = """
        kernel void K(global float *out) {
          int i = get_global_id(0);
          float4 v;
          v.s0 = 9.0f;
          out[i] = v.x + v.y;
        }
        """
        program = OpenCLProgram(src)
        for engine in ENGINES:
            with pytest.raises(KeyError):
                launch(program, 4, 4, {"out": Buffer.zeros(4)}, engine=engine)


class TestWrittenRootsAnalysis:
    def _roots(self, src):
        program = OpenCLProgram(src)
        return written_pointer_roots(program.parsed, program.kernel())

    def test_read_only_params_excluded(self):
        roots = self._roots("""
        kernel void K(const global float * restrict x, global float *out) {
          out[get_global_id(0)] = x[get_global_id(0)];
        }
        """)
        assert "out" in roots
        assert "x" not in roots

    def test_pointer_flow_through_assignment(self):
        roots = self._roots("""
        kernel void K(global float *a, global float *b, int pick) {
          global float *p = a;
          if (pick > 0) { p = b; }
          p[get_global_id(0)] = 1.0f;
        }
        """)
        assert {"p", "a", "b"} <= set(roots)

    def test_vstore_marks_pointer(self):
        roots = self._roots("""
        kernel void K(const global float * restrict x, global float *out) {
          vstore4(vload4(get_global_id(0), x), get_global_id(0), out);
        }
        """)
        assert "out" in roots
        assert "x" not in roots

    def test_local_buffer_is_written(self):
        roots = self._roots(_REDUCTION)
        assert "tmp" in roots
        assert "out" in roots
        assert "x" not in roots

    def test_aliased_buffer_stays_correct(self):
        # The same array passed under a written and an unwritten name:
        # the launcher tracks by array identity, so the read through the
        # "read-only" name still participates in race detection and the
        # scalar result is reproduced exactly.
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = x[0] + (float) i;
        }
        """
        program = OpenCLProgram(src)
        shared = Buffer.from_array(np.zeros(8))
        c_auto = launch(program, 8, 4, {"x": shared, "out": shared})
        expected = Buffer.from_array(np.zeros(8))
        c_s = launch(
            program, 8, 4,
            {"x": expected, "out": expected}, engine="scalar",
        )
        np.testing.assert_array_equal(shared.data, expected.data)
        assert vars(c_auto) == vars(c_s)


class TestCrossEngineFuzz:
    """Randomized differential testing over the shared IL programs."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("level", ["none", "all"])
    def test_partial_dot_fuzz(self, seed, level):
        n = 256
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        factory = CompilerOptions.none if level == "none" else CompilerOptions.all

        def run(engine):
            return compile_and_run(
                partial_dot(), {"x": x, "y": y}, {"N": n},
                global_size=128, options=factory(local_size=(64, 1, 1)),
                engine=engine,
            )

        ref = run("scalar")
        # The graceful chains and the strict tiers alike must accept
        # the kernel at every level (declared types are authoritative:
        # the hoisted ``float acc;`` of level ``none`` no longer mixes
        # integer and float lanes) and reproduce the scalar result bit
        # for bit.
        for engine in ("auto", "fused", "compiled"):
            other = run(engine)
            np.testing.assert_array_equal(
                ref.output, other.output,
                err_msg=f"{engine} output differs",
            )
            assert vars(ref.counters) == vars(other.counters), (
                f"{engine} counters differ"
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_map_add_one_fuzz(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.choice([16, 32, 64, 128]))
        x = rng.standard_normal(n)
        results = []
        for engine in ENGINES:
            run = compile_and_run(
                simple_map_add_one(), {"x": x}, {"N": n}, global_size=n,
                options=CompilerOptions.all(local_size=(16, 1, 1)),
                engine=engine,
            )
            results.append((run.output.copy(), vars(run.counters)))
        for engine, (out, counters) in zip(ENGINES[1:], results[1:]):
            np.testing.assert_array_equal(results[0][0], out)
            assert counters == results[0][1]


class TestCrossBackendBenchsuite:
    """The whole benchsuite is bitwise-identical on the fused backend.

    Every reference program of the suite runs under ``engine="fused"``
    (whole-grid execution, fused or generic segments, fallback chain)
    and must reproduce the scalar interpreter's buffers *and* counters
    exactly; the heavier generated-kernel pipelines are spot-checked on
    the benchmarks covering local-memory staging, 2-D launches and
    helper-function calls.
    """

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_reference_bitwise_on_fused(self, name):
        from repro.benchsuite.common import get_benchmark

        bench = get_benchmark(name)
        inputs, size_env = bench.inputs_for("small")
        out_s, c_s = bench.run_reference(inputs, size_env, engine="scalar")
        out_f, c_f = bench.run_reference(inputs, size_env, engine="fused")
        np.testing.assert_array_equal(out_s, out_f)
        assert vars(c_s) == vars(c_f)

    @pytest.mark.parametrize("name", ["gemv", "mm-nvidia", "nbody-nvidia"])
    def test_generated_bitwise_on_fused(self, name):
        from repro.benchsuite.common import get_benchmark

        bench = get_benchmark(name)
        inputs, size_env = bench.inputs_for("small")
        out_s, c_s = bench.run_generated(inputs, size_env, engine="scalar")
        out_f, c_f = bench.run_generated(inputs, size_env, engine="fused")
        np.testing.assert_array_equal(out_s, out_f)
        assert vars(c_s) == vars(c_f)


class TestWholeGridLayout:
    def test_fused_runs_the_launch_as_one_block(self):
        # The acceptance witness for "zero per-work-group Python loop
        # iterations": the whole-grid geometry holds every work-group in
        # a single block, where the blocked tier would iterate.
        from repro.opencl.simt import MAX_LANES, _block_geometry

        gsize, lsize = (4 * MAX_LANES, 1, 1), (64, 1, 1)
        blocked = _block_geometry(gsize, lsize)
        grid = _block_geometry(gsize, lsize, whole_grid=True)
        assert len(blocked["blocks"]) > 1
        assert len(grid["blocks"]) == 1
        assert grid["blocks"][0]["lanes"] == 4 * MAX_LANES

"""Tests for the closure-compilation tier (repro.opencl.simt_compile).

The compiled pipeline's contract is exact equivalence with the scalar
reference interpreter — bitwise-identical buffers and identical
counters.  The divergence/race corpus in ``tests/test_simt.py`` already
runs against every backend through ``assert_engines_agree``; this
module covers the compilation machinery itself (pipeline caching, barrier segmentation, static
refusals, the written-buffer analysis) plus a randomized cross-engine
fuzz over the shared IL programs of ``tests/programs.py``.
"""

import re
import warnings

import numpy as np
import pytest

from repro.compiler.kernel import compile_and_run
from repro.compiler.options import CompilerOptions
from repro.backend import CompileUnsupported
from repro.opencl import (
    Buffer,
    DataRace,
    OpenCLProgram,
    launch,
)
from repro.opencl import simt_compile
from repro.opencl.interp import ExecError
from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
from repro.compiler.options import OPTIMIZATION_LEVELS
from tests.programs import checked_static_types, partial_dot, simple_map_add_one
from tests.engines import (
    ALL_RUNS, ONE, RUNS, SEVERAL, blocks, check_engines,
)
from tests.test_simt import assert_engines_agree, run_on

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
        # The pipeline's place holds the refusal reason.
        assert simt_compile.get_pipeline(program.parsed, program.kernel()) == (
            "barrier under lane-divergent control flow"
        )

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
        with pytest.raises(CompileUnsupported):
            launch(program, 4, 4, {"x": Buffer.zeros(4), "n": 4},
                   engine="compiled")

    def test_a_dynamic_race_is_a_data_race_on_compiled(self):
        # The compiled tier inherits the dynamic hazard detection: a
        # cross-lane race raises on every engine but scalar.
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

        results = assert_engines_agree(src, 8, 4, args, races=True)
        assert all(isinstance(results[run], DataRace) for run in RUNS)


class TestOversizedWorkGroups:
    def test_a_group_of_four_million_lanes_runs_without_a_race(self):
        # One work-group of 2**22 lanes, a block far above MAX_LANES: its
        # lane ids fit the detector's packed entries, and the race-free
        # kernel runs on the lane-batched path.
        n = 1 << 22
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
               engine="compiled")  # must not raise DataRace
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
        assert_engines_agree(
            src, 8, 4,
            lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(8)},
        )

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
        for engine, layout in ALL_RUNS:
            with pytest.raises(KeyError), blocks(layout, 4, 4):
                launch(program, 4, 4, {"out": Buffer.zeros(4)}, engine=engine)


#: A kernel around ``{}``, and a struct type.
_K = (
    "kernel void K(global float *a, global float *b, global float *out) {{"
    " int i = get_global_id(0); {} }}"
)
_S = "typedef struct { float x; float y; } S;\n"
#: Conditions neither engine takes: a vector ``v`` or a struct ``q``
#: where a condition stands (a struct in each such place).
_NOT_A_SCALAR = tuple(
    _S + _K.format("S q; " + test.format("q")) if struct
    else _K.format("float4 v = vload4(0, a); " + test.format("v"))
    for struct, test in (
        (False, "if ({}) {{ out[i] = 1.0f; }}"),
        (False, "out[i] = {} ? 1.0f : 2.0f;"),
        (False, "while ({}) {{ out[i] = 1.0f; }}"),
        (True, "if ({}) {{ out[i] = 1.0f; }}"),
        (False, "for (; {}; ) {{ out[i] = 1.0f; }}"),
        (True, "out[i] = {} ? 1.0f : 2.0f;"),
        (True, "while ({}) {{ out[i] = 1.0f; }}"),
        (True, "for (; {}; ) {{ out[i] = 1.0f; }}"),
        (True, "out[i] = !{};"),
        (True, "out[i] = {} && i;"),
        (True, "out[i] = {} || i;"),
    )
)


def _not_a_scalar(source: str) -> str:
    """The static refusal of a kernel of :data:`_NOT_A_SCALAR`."""
    if "struct" in source:
        return "condition 'q' in 'K' has type S"
    return "condition 'v' in 'K' has type float4"


class TestWrittenRootsAnalysis:
    def _roots(self, src):
        program = OpenCLProgram(src)
        return simt_compile.get_pipeline(program.parsed, program.kernel()).written

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

    @pytest.mark.parametrize("helper", [
        "void put(global float *p, int i, float v) { p[i] = v; }",
        "void put(global float *p, int i, float v) { vstore2((float2)(v, v), i, p); }",
    ])
    def test_a_helper_storing_through_its_parameter_writes_the_argument(self, helper):
        roots = self._roots(helper + """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          put(out, i, x[i]);
        }
        """)
        assert "out" in roots
        assert "x" not in roots

    def test_a_helper_that_only_reads_leaves_the_argument_unwritten(self):
        roots = self._roots("""
        float get(const global float *p, int i) { return p[i] * 2.0f; }
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = get(x, i);
        }
        """)
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
        def aliased():
            shared = Buffer.from_array(np.zeros(8))
            return {"x": shared, "out": shared}

        assert_engines_agree(src, 8, 4, aliased, races=True)


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
            result = compile_and_run(
                partial_dot(), {"x": x, "y": y}, {"N": n},
                global_size=128, options=factory(local_size=(64, 1, 1)),
                engine=engine,
            )
            return {"out": result.output}, result.counters

        # The graceful chain and the strict tier alike must accept the
        # kernel at every level (declared types are authoritative: the
        # hoisted ``float acc;`` of level ``none`` no longer mixes
        # integer and float lanes) and reproduce the scalar result bit
        # for bit.
        check_engines(run, 128, 64)

    @pytest.mark.parametrize("seed", range(5))
    def test_map_add_one_fuzz(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.choice([16, 32, 64, 128]))
        x = rng.standard_normal(n)

        def run(engine):
            result = compile_and_run(
                simple_map_add_one(), {"x": x}, {"N": n}, global_size=n,
                options=CompilerOptions.all(local_size=(16, 1, 1)),
                engine=engine,
            )
            return {"out": result.output}, result.counters

        check_engines(run, n, 16)


class TestCrossBackendBenchsuite:
    """The whole benchsuite is bitwise-identical on ``auto`` and over
    several blocks.

    Every reference program of the suite runs on ``auto`` and on
    ``compiled`` with each work-group a block of its own and must
    reproduce the scalar interpreter's buffers *and* counters exactly;
    the heavier generated-kernel pipelines are spot-checked on the
    benchmarks covering local-memory staging, 2-D launches and
    helper-function calls.
    """

    @staticmethod
    def _agree(name, run):
        bench = get_benchmark(name)
        inputs, size_env = bench.inputs_for("small")

        def launch_once(engine):
            output, counters = getattr(bench, run)(inputs, size_env, engine=engine)
            return {"out": output}, counters

        check_engines(launch_once, runs=(("auto", ONE), ("compiled", SEVERAL)))

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_reference_bitwise_over_several_blocks(self, name):
        self._agree(name, "run_reference")

    @pytest.mark.parametrize(
        "name", ["gemv", "kmeans", "mm-nvidia", "nbody-nvidia"]
    )
    def test_generated_bitwise_over_several_blocks(self, name):
        self._agree(name, "run_generated")


class TestBlockLayout:
    def test_the_geometry_follows_the_block_cap(self, monkeypatch):
        # Blocks of whole work-groups, at most MAX_LANES lanes each, the
        # last one ragged; the geometry is cached per shape *and* cap,
        # so a cap a test patches in is never served another's blocks.
        from repro.opencl import simt

        gsize, lsize = (4 * 256 + 3 * 64, 1, 1), (64, 1, 1)
        (whole,) = simt._block_geometry(gsize, lsize)["blocks"]
        assert whole["lanes"] == gsize[0]
        monkeypatch.setattr(simt, "MAX_LANES", 256)
        assert gsize[0] > simt.MAX_LANES
        blocks = simt._block_geometry(gsize, lsize)["blocks"]
        assert [b["lanes"] for b in blocks] == [256] * 4 + [192]
        assert [b["first_group"] for b in blocks] == [0, 4, 8, 12, 16]


class TestStaticTypes:
    """The closure compiler types every expression node statically
    (ENGINES.md, "Typing") and specialises its closures on the types;
    the values the closures compute have exactly those types."""

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_values_have_their_static_types(self, name):
        bench = get_benchmark(name)
        with checked_static_types() as record:
            for size in ("small", "large"):
                inputs, size_env = bench.inputs_for(size)
                bench.run_reference(inputs, size_env, engine="compiled")
                for factory in OPTIMIZATION_LEVELS.values():
                    bench.run_generated(
                        inputs, size_env, options_factory=factory,
                        engine="compiled",
                    )
        assert record.values > record.typed > 0

    def test_a_mixed_ternary_is_a_static_refusal(self):
        from repro.opencl.runtime import _parse_cached

        src = """
        kernel void K(const global float * restrict x, global float *out, int n) {
          int i = get_global_id(0);
          out[i] = (n > 3 ? x[i] : 0) * 2;
        }"""
        make = lambda: {"x": Buffer.from_array(np.linspace(-2, 2, 8)),
                        "out": Buffer.zeros(8), "n": 5}
        reason = "no static type for '(n > 3 ? x[i] : 0)' in 'K': arms float and int"
        _parse_cached.cache_clear()
        walks = simt_compile.compile_count()
        with pytest.raises(CompileUnsupported, match=re.escape(reason)):
            launch(OpenCLProgram(src), 8, 4, make(), engine="compiled")
        assert_engines_agree(src, 8, 4, make, refused=reason)
        # Refused once per kernel: later plans hit the cache.
        assert simt_compile.compile_count() == walks + 1

    @pytest.mark.parametrize("source, reason", [
        ("kernel void K(global float *x) { float4 v = vload4(0); x[0] = v.x; }",
         "vload4 takes 2 arguments, not 1"),
        ("kernel void K(global float *x) { vstore4(x[1], 0, x); }",
         "no static type for 'vstore4(x[1], 0, x)' in 'K': operands float, int, float *"),
        ("kernel void K(global float *x) { x[0] = x[1.5f]; }",
         "no static type for 'x[1.5f]' in 'K': base float *, index float"),
        ("kernel void K(global float *x) { x[get_group_id(3)] = 1.0f; }",
         "get_group_id(3): no dimension 3"),
        ("kernel void K(global float *x) { int i = get_local_id(3); x[i] = 1.0f; }",
         "get_local_id(3): no dimension 3"),
        ("float f(float a) { return f(a); }\n"
         "kernel void K(global float *x) { x[0] = f(x[0]); }",
         "recursive helper function 'f'"),
        ("kernel void K(global float *x) { x[0] = mystery(x[0]); }",
         "call to unknown function 'mystery'"),
        ("void sync(float a) { barrier(CLK_LOCAL_MEM_FENCE); }\n"
         "kernel void K(global float *x) { sync(x[0]); x[0] = 1.0f; }",
         "barrier inside helper function"),
        ("kernel void K(global float *x) { x[get_foo(0)] = 1.0f; }",
         "unknown geometry builtin 'get_foo'"),
        ("kernel void K(global float *x) {"
         " float4 v = (float4)(1.0f, 2.0f); x[0] = v.z; }",
         "vector literal float4 with 2 items"),
        ("kernel void K(global float *x) { 3 = 1; x[0] = 1.0f; }",
         "assignment to non-lvalue CInt"),
        ("kernel void K(global float *x) {"
         " for (int i = 0; i < 2; i += 1) { x[i] = 1.0f; }"
         " for (float i = 0.5f; i < 2.0f; i += 1.0f) { x[0] = i; } }",
         "'i' is declared with two types in 'K'"),
        ("float h(float a) { { int t = 1; a = a + t; } { float t = 2.0f; a = a + t; }"
         " return a; }\n"
         "kernel void K(global float *x) { x[0] = h(x[0]); }",
         "'t' is declared with two types in 'h'"),
        ("kernel void K(global float *x, int n) {"
         " if (get_global_id(0) >= n) { return; }"
         " barrier(CLK_LOCAL_MEM_FENCE); x[get_global_id(0)] = 1.0f; }",
         "barrier combined with early return"),
        ("kernel void K(global float *x) {"
         " if (get_local_id(0) < 1) { barrier(CLK_LOCAL_MEM_FENCE); }"
         " x[get_global_id(0)] = 1.0f; }",
         "barrier under lane-divergent control flow"),
        # Several faults: the kernel's name types, then the scan, then
        # the walk; the first refusal is the one reported.
        ("kernel void K(global float *x) {"
         " if (get_local_id(0) < 1) { barrier(CLK_LOCAL_MEM_FENCE); }"
         " x[get_global_id(0)] = mystery(x[0]); }",
         "barrier under lane-divergent control flow"),
        ("kernel void K(global float *x) {"
         " { int t = 1; x[0] = t; } { float t = 2.0f; x[1] = t; }"
         " if (get_local_id(0) < 1) { barrier(CLK_LOCAL_MEM_FENCE); } }",
         "'t' is declared with two types in 'K'"),
        # Forms the lanes could not merge, test or run: each refused at
        # its node, never at run time.
        (_K.format("global float *p = a; if (i < 4) { p = b; } out[i] = p[i];"),
         "'p' in 'K' points into both a and b"),
        (_K.format("out[i] = (i < 4 ? a : b)[i];"),
         "'(i < 4 ? a : b)' in 'K' points into both a and b"),
        # A batched loop's chunk runs many iterations of d at once.
        (_K.format("float s = 0.0f;"
                   " for (int d = 0; d < 16; d += 1) { s += (d < 8 ? a : b)[i]; }"
                   " out[i] = s;"),
         "'(d < 8 ? a : b)' in 'K' points into both a and b"),
        (_K.format("local float t[8]; local float u[8]; local float *p = t;"
                   " if (i < 4) { p = u; } out[i] = p[i];"),
         "'p' in 'K' points into both t and u"),
        ("float f(global float *a) { return a; }\n" + _K.format("out[i] = f(a)[i];"),
         "'f' returns a pointer"),
        *((source, _not_a_scalar(source)) for source in _NOT_A_SCALAR[:4]),
        (_K.format("if (a) { out[i] = 1.0f; }"), "condition 'a' in 'K' has type float *"),
        (_K.format("if (i < 4) { a = b; } out[i] = a[i];"),
         "'a' in 'K' points into both a and b"),
        ("float g(global float *a, global float *b, int i) {"
         " if (i < 4) { a = b; } return a[i]; }\n" + _K.format("out[i] = g(a, b, i);"),
         "'a' in 'g' points into both a and b"),
        ("void f(float v) { v = 1.0f; }\n" + _K.format("out[i] = f(1.0f);"),
         "no static type for 'f(1.0f)' in 'K': its value is void"),
        ("void f(float v) { v = 1.0f; }\n" + _K.format("float y = f(a[i]) + 1.0f;"),
         "no static type for 'f(a[i])' in 'K': its value is void"),
        (_K.format("if (i < 4) { x = a[i]; }"),
         "no static type for 'x' in 'K': it is not declared here"),
        (_K.format("if (i < 0) { float x = 1.0f; } if (i < 4) { out[x] = a[i]; }"),
         "no static type for 'x' in 'K': it is not declared here"),
        (_K.format("if (i < 4) { int i = 2; }"), "'i' in 'K' shadows a name in scope"),
        (_S + _K.format("S q; q.z = 1.0f;"),
         "no static type for 'q.z' in 'K': member store into base S"),
        *((source, _not_a_scalar(source)) for source in _NOT_A_SCALAR[4:]),
    ])
    def test_a_malformed_form_is_a_static_refusal(self, source, reason):
        # Each is refused at plan time, with the node's or the form's
        # reason; the oracle's quirks (a broadcast scalar store, a
        # truncated float index) stay the scalar tier's.
        from repro.backend import get_backend

        program = OpenCLProgram(source)
        with pytest.raises(CompileUnsupported) as refusal:
            get_backend("compiled").plan(program.parsed, program.kernel())
        assert refusal.value.reason == reason

    @pytest.mark.parametrize("source", _NOT_A_SCALAR)
    def test_a_condition_of_no_scalar_type_is_the_oracles_error(self, source):
        # Refused at plan time; the oracle raises its typed error.
        what = "struct" if "struct" in source else "vector"
        args = {"a": Buffer.from_array(np.arange(16.0)), "b": Buffer.zeros(8),
                "out": Buffer.zeros(8)}
        with pytest.raises(ExecError, match=f"^{what} used in a scalar condition$"):
            launch(OpenCLProgram(source), 8, 4, args, engine="scalar")
        with pytest.raises(CompileUnsupported, match=re.escape(_not_a_scalar(source))):
            launch(OpenCLProgram(source), 8, 4, args, engine="auto")

    @pytest.mark.parametrize("use", ["out[i] = f(a[i]);", "out[i] = f(a[i]) + 1.0f;"])
    def test_a_void_value_used_is_the_oracles_error(self, use):
        # Refused at plan time; the oracle raises a typed error where it
        # used to store NaN.  As a statement the call runs.
        source = "void f(float v) { v = 1.0f; }\n" + _K.format(use)

        def args():
            return {"a": Buffer.from_array(np.arange(16.0)), "b": Buffer.zeros(8),
                    "out": Buffer.zeros(8)}

        with pytest.raises(ExecError, match="^the void value of 'f' is used$"):
            launch(OpenCLProgram(source), 8, 4, args(), engine="scalar")
        with pytest.raises(CompileUnsupported, match="its value is void"):
            launch(OpenCLProgram(source), 8, 4, args(), engine="auto")
        statement = "void f(float v) { v = 1.0f; }\n" + _K.format("f(a[i]); out[i] = 2.0f;")
        assert_engines_agree(statement, 8, 4, args)

    def test_the_compile_span_counts_inlined_calls(self, tmp_path):
        import json

        from repro import obs

        src = """
        float add(float a, float b) { return a + b; }
        kernel void K(const global float * restrict x, global float *out, int n) {
          int i = get_global_id(0);
          out[i] = add(n > 3 ? x[i] : 0.0f, 1.0f) + add(x[i], 2.0f);
        }
        """
        path = tmp_path / "trace.json"
        obs.stop_tracing()
        obs.start_tracing(path)
        try:
            program = OpenCLProgram(src)
            simt_compile.get_pipeline(program.parsed, program.kernel())
        finally:
            obs.stop_tracing()
        events = json.loads(path.read_text())["traceEvents"]
        (compiled,) = [e for e in events if e["name"] == "simt_compile"]
        # Both helper calls inline; the three loads' addresses are affine.
        assert compiled["args"] == {
            "kernel": "K", "inlined": 2, "accesses": 3, "affine": 3,
            "batched": 0, "closed": 0,
        }


#: Corner cases of the typing rules, each bitwise and count-equal on
#: every engine and block layout: (source, argument factory) for
#: a launch of 8 work-items in groups of 4.
_TYPED_CORNERS = {
    "bool arithmetic": ("""
        kernel void K(const global int * restrict a, global float *out) {
          int i = get_global_id(0);
          out[i] = (a[i] < 3) / 2 + (a[i] > 1) * 3;
        }""", lambda: {"a": Buffer.from_array(np.arange(-4, 4)),
                       "out": Buffer.zeros(8)}),
    "int and float operands": ("""
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          float f = x[i];
          out[i] = i * f + i / 2 + i % 3;
        }""", lambda: {"x": Buffer.from_array(np.linspace(-2, 2, 8)),
                       "out": Buffer.zeros(8)}),
    "vector times int": ("""
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          float4 v = vload4(i, x) * i;
          vstore4(v * 2, i, out);
        }""", lambda: {"x": Buffer.from_array(np.arange(32.0)),
                       "out": Buffer.zeros(32)}),
    "pointer arithmetic": ("""
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          global float *p = out + 1;
          if (i < 7) { p[i] = x[i] * 2.0f; }
        }""", lambda: {"x": Buffer.from_array(np.arange(8.0)),
                       "out": Buffer.zeros(8)}),
    "int helper passed a float": ("""
        int twice(int v) { return v * 2; }
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = twice(x[i] * 1.5f) + twice(i);
        }""", lambda: {"x": Buffer.from_array(np.linspace(-3, 3, 8)),
                       "out": Buffer.zeros(8)}),
    "float returned as int": ("""
        int floored(float v) { float w = v * 0.5f; return w + 0.25f; }
        kernel void K(const global float * restrict x, global int *out) {
          int i = get_global_id(0);
          out[i] = floored(x[i]) / 2;
        }""", lambda: {"x": Buffer.from_array(np.linspace(-9, 9, 8)),
                       "out": Buffer.zeros(8, "int")}),
    "helper with an early return": ("""
        float clip(float v) { if (v < 0.0f) { return 0; } return v / 2; }
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = clip(x[i]) + clip(i - 4);
        }""", lambda: {"x": Buffer.from_array(np.linspace(-2, 2, 8)),
                       "out": Buffer.zeros(8)}),
    "comparisons as indices": ("""
        kernel void K(const global float * restrict x, global float *out,
                      global float *flag) {
          int i = get_global_id(0);
          out[i] = x[i > 3] + x[i < 6];
          if (i == 0) { flag[x[i] < 1.0f] = 9.0f; }
        }""", lambda: {"x": Buffer.from_array(np.arange(8.0)),
                       "out": Buffer.zeros(8), "flag": Buffer.zeros(2)}),
    "negative remainder and quotient": ("""
        kernel void K(const global int * restrict a, global int *q,
                      global int *r, global float *f) {
          int i = get_global_id(0);
          int v = a[i];
          q[i] = v / 3 + v / -2;
          r[i] = v % 3 + v % -4;
          f[i] = (v * 0.5f) % 2 + (v * 1.5f) / -2;
        }""", lambda: {"a": Buffer.from_array(np.arange(-8, 8, 2)),
                       "q": Buffer.zeros(8, "int"), "r": Buffer.zeros(8, "int"),
                       "f": Buffer.zeros(8)}),
    # What a mask merges: one buffer behind a pointer name, a name
    # stored on both arms, a struct (an int and a vector member).
    "masked merges": ("""
        typedef struct { int n; float4 v; } S;
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          const global float *p = x;
          float f;
          if (i < 4) { p = x + 8; f = x[i]; } else { f = -2.0f * x[i]; }
          S r;
          r.n = i;
          r.v = vload4(i, x);
          if (i < 6) { S q = r; out[q.n] = q.n / 2 + q.v.y + p[i] + f; }
        }""", lambda: {"x": Buffer.from_array(np.arange(36.0)),
                       "out": Buffer.zeros(8)}),
    # A computed dimension, or a pointer ternary into one buffer, is
    # taken lane by lane: the work-items may disagree on it, and so may
    # the iterations a batched loop's chunk runs at once (16 trips batch).
    "geometry dimensions and pointer ternaries in names": ("""
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          float s = 0.0f;
          int e = (1 > 0) && (2 > 3);
          for (int d = 0; d < 2; d += 1) { s += get_local_size(d) * get_global_id(d); }
          for (int d = 0; d < 16; d += 1) {
            s += get_local_size(d / 8) * d + get_global_id(d / 8) * (d < 8 ? x : x + 8)[i];
          }
          out[i] = s + get_local_size(e) + get_global_id(i % 2);
        }""", lambda: {"x": Buffer.from_array(np.arange(16.0)), "out": Buffer.zeros(8)}),
    # C stores a struct or vector by value: a member store into the
    # copy leaves the original, and a component read before a store
    # into its vector keeps its value.
    "structs and vectors stored by value": ("""
        typedef struct { float x; float y; } S;
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          S r;
          r.x = x[i];
          r.y = 1.0f;
          S q = r;
          q.x = 2.0f;
          S p;
          p = i < 4 ? q : r;
          p.y = 3.0f;
          float4 v = vload4(i, x);
          float4 w = v;
          w.x = 9.0f;
          float f = v.y;
          v.y = 7.0f;
          out[i] = r.x + 10.0f * r.y + 100.0f * q.y + p.x + q.y * p.y + w.y + f + v.y;
        }""", lambda: {"x": Buffer.from_array(np.arange(32.0)), "out": Buffer.zeros(8)}),
    # The copy goes down to a struct's vector member: a store into the
    # copy's component, or into the component of a helper's parameter,
    # leaves the original.
    "a struct's vector member copied with it": ("""
        typedef struct { int n; float4 v; } S;
        float bump(S s) { s.v.y = 8.0f; return s.v.y; }
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          S r;
          r.n = i;
          r.v = vload4(i, x);
          S q = r;
          q.v.x = 9.0f;
          q.n = 5;
          float s = bump(r);
          out[i] = r.v.x + 10.0f * r.v.y + 100.0f * q.v.x + r.n + s;
        }""", lambda: {"x": Buffer.from_array(np.arange(32.0)), "out": Buffer.zeros(8)}),
    # A helper's store outside any condition replaces the name whole,
    # even a pointer parameter pointed into another buffer.
    "a helper replacing a pointer parameter": ("""
        float g(const global float *a, const global float *b, int i) {
          float s = a[i];
          a = b;
          return s + a[i];
        }
        kernel void K(const global float * restrict x, const global float * restrict y,
                      global float *out) {
          int i = get_global_id(0);
          out[i] = g(x, y, i) + g(y, x + 1, i % 3);
        }""", lambda: {"x": Buffer.from_array(np.arange(12.0)),
                       "y": Buffer.from_array(np.arange(12.0) * -3.5),
                       "out": Buffer.zeros(8)}),
}


class TestTypedCorners:
    """Each corner of the typing rules agrees bitwise, buffers and
    ``Counters``, on every tier — the oracle's quirks included."""

    @pytest.mark.parametrize("name", sorted(_TYPED_CORNERS))
    def test_tiers_agree(self, name):
        source, make_args = _TYPED_CORNERS[name]
        with checked_static_types():
            assert_engines_agree(source, 8, 4, make_args)

    @pytest.mark.parametrize("name, want", [
        ("structs and vectors stored by value",
         lambda x, i: x[i] + 10 + 100 + np.where(i < 4, 2.0, x[i]) + 3
         + x[4 * i + 1] + x[4 * i + 1] + 7),
        ("a struct's vector member copied with it",
         lambda x, i: x[4 * i] + 10 * x[4 * i + 1] + 900 + i + 8),
    ])
    def test_a_struct_or_vector_is_stored_by_value(self, name, want):
        source, make_args = _TYPED_CORNERS[name]
        expected = want(np.arange(32.0), np.arange(8))
        for outs, _ in assert_engines_agree(source, 8, 4, make_args).values():
            np.testing.assert_array_equal(outs["out"], expected)

    def test_an_inlined_helper_still_charges_calls(self):
        src = """
        float add(float a, float b) { return a + b; }
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = add(x[i], add(x[i], 1.0f));
        }
        """
        program = OpenCLProgram(src)
        make = lambda: {"x": Buffer.from_array(np.arange(16.0)),
                        "out": Buffer.zeros(16)}
        assert_engines_agree(src, 16, 8, make)
        counters = launch(program, 16, 8, make(), engine="compiled")
        assert counters.calls == 2 * 16
        pipeline = simt_compile.get_pipeline(program.parsed, program.kernel())
        assert pipeline.inlined == 2


#: Arithmetic on comparison results, each body with C's values (a true
#: comparison is the ``int`` 1) for ``x = linspace(-1, 1, 8)`` and
#: ``a = -4 .. 3``.
_COMPARISON_ARITHMETIC = {
    "sum of two comparisons": (
        "out[i] = (i < 3) + (i < 5);", [2, 2, 2, 1, 1, 0, 0, 0]),
    "negated comparison": (
        "out[i] = -(x[i] > 0.0f);", [0, 0, 0, 0, -1, -1, -1, -1]),
    "sum of float comparisons": (
        "out[i] = (x[i] > 0.0f) + (x[i] < 0.5f);", [1, 1, 1, 1, 2, 2, 1, 1]),
    "comparison divided by an int": (
        "out[i] = (a[i] < 3) / 2;", [0] * 8),
}


class TestComparisonsAreInts:
    """A comparison's scalar result is a C ``int`` in arithmetic, on
    every tier, and the static types keep such kernels on ``compiled``."""

    @pytest.mark.parametrize("name", sorted(_COMPARISON_ARITHMETIC))
    def test_every_engine_gives_c_values(self, name):
        body, expected = _COMPARISON_ARITHMETIC[name]
        src = """
        kernel void K(const global float * restrict x,
                      const global int * restrict a, global float *out) {
          int i = get_global_id(0);
          %s
        }""" % body
        make = lambda: {"x": Buffer.from_array(np.linspace(-1, 1, 8)),
                        "a": Buffer.from_array(np.arange(-4, 4)),
                        "out": Buffer.zeros(8)}
        with checked_static_types():
            assert_engines_agree(src, 8, 4, make)
        outs, _ = run_on(src, 8, 4, make, "scalar")
        np.testing.assert_array_equal(outs["out"], expected)


#: Buffers whose element kind is not their ``float *``'s: one ``launch``
#: refuses with a ``TypeError`` on every engine.
_MISTYPED = {
    "int64 data behind a float pointer": lambda: np.arange(-5, 11, 2, dtype=np.int64),
    "an unsigned buffer": lambda: np.arange(8, dtype=np.uint8),
    "a bool buffer": lambda: np.ones(8, dtype=bool),
    "a 2-D buffer": lambda: np.zeros((2, 4)),
}


class TestBuffersAreTypedFromTheirDeclarations:
    @pytest.mark.parametrize("engine", ["auto", "compiled", "scalar"])
    @pytest.mark.parametrize("name", sorted(_MISTYPED))
    def test_a_buffer_of_another_kind_is_a_type_error_before_any_write(
        self, name, engine
    ):
        src = """
        kernel void K(const global float * restrict inp, global float *out) {
          int i = get_global_id(0);
          out[i] = inp[i] * 2 + inp[i];
        }"""
        out = Buffer.from_array(np.full(8, -1.0))
        inp = _MISTYPED[name]()
        message = (f"parameter 'inp' is declared float * but bound to a "
                   f"{inp.ndim}-D {inp.dtype} buffer")
        with pytest.raises(TypeError, match=re.escape(message)):
            launch(OpenCLProgram(src), 8, 4, {"inp": inp, "out": out},
                   engine=engine)
        np.testing.assert_array_equal(out.data, np.full(8, -1.0))

    def test_an_int_pointer_refuses_float_data(self):
        src = """
        kernel void K(const global int * restrict a, global int *out) {
          out[get_global_id(0)] = a[get_global_id(0)];
        }"""
        args = {"a": Buffer.zeros(4), "out": Buffer.zeros(4, "int")}
        with pytest.raises(TypeError, match="a 1-D signed integer buffer expected"):
            launch(OpenCLProgram(src), 4, 4, args)


#: Forms no benchmark kernel and no generated kernel writes, each body
#: with C's values for ``x = linspace(-1, 1, 8)`` and ``y = 0 .. 31``:
#: ``!`` (``simt_compile._logical_not``), a vector compared with a
#: scalar (``_compare_aligned``), a vector subscript by a uniform and by
#: a per-lane index (``_column``) and ``clamp`` (``simt._vclamp``).
_SELDOM_WRITTEN = {
    "logical not": (
        "out[i] = !(x[i] > 0.0f) + !i;", [2, 1, 1, 1, 0, 0, 0, 0]),
    "vector compared with a scalar": (
        "int4 c = vload4(i, y) < 9.0f; out[i] = (c.x != 0) + (c.w != 0);",
        [2, 2, 1, 0, 0, 0, 0, 0]),
    "vector subscripts": (
        "float4 v = vload4(1, y); out[i] = v[i % 4] + 10.0f * v[2];",
        [64, 65, 66, 67, 64, 65, 66, 67]),
    "clamp": (
        "out[i] = clamp(x[i], -0.5f, 0.5f);",
        np.clip(np.linspace(-1, 1, 8), -0.5, 0.5)),
}


class TestSeldomWrittenForms:
    """Each lane-engine path that only a hand-written kernel reaches
    agrees with the oracle, and both give C's values."""

    @pytest.mark.parametrize("name", sorted(_SELDOM_WRITTEN))
    def test_every_engine_gives_c_values(self, name):
        body, expected = _SELDOM_WRITTEN[name]
        src = """
        kernel void K(const global float * restrict x,
                      const global float * restrict y, global float *out) {
          int i = get_global_id(0);
          %s
        }""" % body
        make = lambda: {"x": Buffer.from_array(np.linspace(-1, 1, 8)),
                        "y": Buffer.from_array(np.arange(32.0)),
                        "out": Buffer.zeros(8)}
        with checked_static_types():
            results = assert_engines_agree(src, 8, 4, make)
        np.testing.assert_array_equal(results["scalar"][0]["out"], expected)

    def test_the_load_log_compacts_past_its_cap(self, monkeypatch):
        # Gathers (no affine fact) repeat one address per lane; with the
        # cap patched small every block compacts its log many times, and
        # the cached-load count is still the oracle's.
        from repro.opencl import simt

        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          float s = 0.0f;
          for (int t = 0; t < i % 5; t += 1) {
            s += x[(i * 7) % 64] * x[(i * 7 + t) % 64];
          }
          out[i] = s;
        }"""
        compactions = []
        real = simt._distinct_sorted
        monkeypatch.setattr(simt._LoadLog, "COMPACT_AT", 16)
        monkeypatch.setattr(
            simt, "_distinct_sorted",
            lambda values: compactions.append(values.size) or real(values),
        )
        make = lambda: {"x": Buffer.from_array(np.cos(np.arange(64.0))),
                        "out": Buffer.zeros(64)}
        results = assert_engines_agree(src, 64, 16, make)
        assert compactions and results["scalar"][1].cached_loads > 0


class TestFloatDivisionByZero:
    """C's float ``/`` by zero is IEEE's ``±inf`` or NaN on every engine,
    uniform operands (Python floats) included, and the oracle computes
    it, and overflow, with no numpy warning."""

    SRC = """
    kernel void K(const global float * restrict x, global float *out,
                  float z, float nz) {
      int i = get_global_id(0);
      out[5 * i] = 1.0f / 0.0f;
      out[5 * i + 1] = 1.0f / z;
      out[5 * i + 2] = z / z;
      out[5 * i + 3] = 1.0f / nz;
      out[5 * i + 4] = x[i] / z;
    }"""

    @staticmethod
    def make():
        return {"x": Buffer.from_array(np.linspace(-1, 1, 8)),
                "out": Buffer.zeros(40), "z": 0, "nz": -0.0}

    def test_every_engine_gives_ieee_values(self):
        results = assert_engines_agree(self.SRC, 8, 4, self.make)
        out = results["scalar"][0]["out"].reshape(8, 5)
        assert (out[:, 0] == np.inf).all() and (out[:, 1] == np.inf).all()
        assert np.isnan(out[:, 2]).all()
        assert (out[:, 3] == -np.inf).all()
        np.testing.assert_array_equal(
            out[:, 4], np.linspace(-1, 1, 8) * np.inf)

    def test_a_float_remainder_by_zero_is_nan(self):
        src = """
        kernel void K(const global float * restrict x, global float *out, float z) {
          int i = get_global_id(0);
          out[i] = x[i] % z + 1.0f % 0.0f;
        }"""
        make = lambda: {"x": Buffer.from_array(np.linspace(-1, 1, 8)),
                        "out": Buffer.zeros(8), "z": 0.0}
        results = assert_engines_agree(src, 8, 4, make)
        assert np.isnan(results["scalar"][0]["out"]).all()

    def test_the_oracle_warns_of_nothing(self):
        src = """
        kernel void K(const global float * restrict x, global float *out, float d) {
          int i = get_global_id(0);
          out[i] = x[i] * 1e300f * 1e300f - x[i] * 1e300f * 1e300f + x[i] / d;
        }"""
        args = {"x": Buffer.from_array(np.linspace(-1, 1, 8)),
                "out": Buffer.zeros(8), "d": 0.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            launch(OpenCLProgram(src), 8, 4, args, engine="scalar")
        assert np.isnan(args["out"].data).all()

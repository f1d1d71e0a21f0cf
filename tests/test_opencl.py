"""Tests for the simulated OpenCL platform (lexer, parser, interpreter)."""

import numpy as np
import pytest

from repro.opencl import Buffer, Counters, OpenCLProgram, launch
from repro.opencl.cost import DEVICES, estimate_cycles
from repro.opencl.cparser import ParseError, parse
from repro.opencl.interp import BarrierDivergence, ExecError
from repro.opencl.lexer import LexError, tokenize


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("kernel void f(int x) { x += 1; }")
        texts = [t.text for t in toks if t.kind != "eof"]
        assert texts == ["kernel", "void", "f", "(", "int", "x", ")", "{",
                         "x", "+=", "1", ";", "}"]

    def test_float_suffix(self):
        toks = tokenize("0.5f 2.0f 1e-3f 3.0")
        kinds = [(t.kind, t.text) for t in toks if t.kind != "eof"]
        assert kinds == [("float", "0.5"), ("float", "2.0"),
                         ("float", "1e-3"), ("float", "3.0")]

    def test_comments_skipped(self):
        toks = tokenize("a /* hi \n there */ b // end\nc")
        assert [t.text for t in toks if t.kind == "ident"] == ["a", "b", "c"]

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestParser:
    def test_kernel_signature(self):
        prog = parse(
            "kernel void K(const global float * restrict x, global float *y,"
            " int n) { }"
        )
        assert prog.kernels == ["K"]
        k = prog.functions["K"]
        assert [p.name for p in k.params] == ["x", "y", "n"]
        assert k.params[0].is_pointer and k.params[0].is_restrict

    def test_helper_and_kernel(self):
        prog = parse(
            "float add(float a, float b) { return a + b; }\n"
            "kernel void K(global float *x) { x[0] = add(x[0], 1.0f); }"
        )
        assert set(prog.functions) == {"add", "K"}

    def test_typedef_struct(self):
        prog = parse(
            "typedef struct { float _0; int _1; } Tuple2_float_int;\n"
            "kernel void K(global float *x) { Tuple2_float_int t;"
            " t._0 = 1.0f; t._1 = 2; x[0] = t._0; }"
        )
        assert "Tuple2_float_int" in prog.structs

    def test_vector_literal_cast(self):
        prog = parse(
            "kernel void K(global float *x) {"
            " float4 v = (float4)(1.0f, 2.0f, 3.0f, 4.0f);"
            " x[0] = v.x; }"
        )
        assert "K" in prog.functions

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError):
            parse("kernel void K(global float *x) { x[0] = ; }")


def run(source, global_size, local_size, **buffers):
    prog = OpenCLProgram(source)
    return launch(prog, global_size, local_size, buffers)


class TestExecution:
    def test_vector_add(self):
        src = """
        kernel void K(const global float * restrict a,
                      const global float * restrict b,
                      global float *out, int n) {
          int i = get_global_id(0);
          if (i < n) { out[i] = a[i] + b[i]; }
        }
        """
        a = Buffer.from_array(np.arange(16, dtype=float))
        b = Buffer.from_array(np.ones(16))
        out = Buffer.zeros(16)
        run(src, 16, 4, a=a, b=b, out=out, n=16)
        np.testing.assert_allclose(out.data, np.arange(16) + 1)

    def test_work_group_reduction_with_barrier(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          local float tmp[8];
          int l = get_local_id(0);
          int g = get_global_id(0);
          tmp[l] = x[g];
          barrier(CLK_LOCAL_MEM_FENCE);
          for (int s = 4; s > 0; s = s / 2) {
            if (l < s) { tmp[l] = tmp[l] + tmp[l + s]; }
            barrier(CLK_LOCAL_MEM_FENCE);
          }
          if (l < 1) { out[get_group_id(0)] = tmp[0]; }
        }
        """
        x = Buffer.from_array(np.arange(16, dtype=float))
        out = Buffer.zeros(2)
        run(src, 16, 8, x=x, out=out)
        np.testing.assert_allclose(out.data, [28.0, 92.0])

    def test_strided_group_loop(self):
        # Figure 7 style: fewer groups than chunks.
        src = """
        kernel void K(const global float * restrict x, global float *out, int n) {
          for (int wg = get_group_id(0); wg < n / 4; wg += get_num_groups(0)) {
            int l = get_local_id(0);
            out[wg * 4 + l] = x[wg * 4 + l] * 2.0f;
          }
        }
        """
        x = Buffer.from_array(np.arange(32, dtype=float))
        out = Buffer.zeros(32)
        run(src, 8, 4, x=x, out=out, n=32)
        np.testing.assert_allclose(out.data, np.arange(32) * 2)

    def test_vector_load_store(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          float4 v = vload4(i, x);
          vstore4(v * 2.0f, i, out);
        }
        """
        x = Buffer.from_array(np.arange(16, dtype=float))
        out = Buffer.zeros(16)
        run(src, 4, 4, x=x, out=out)
        np.testing.assert_allclose(out.data, np.arange(16) * 2)

    def test_struct_values(self):
        src = """
        typedef struct { float _0; int _1; } Tuple2_float_int;
        kernel void K(const global float * restrict x, global float *out, int n) {
          Tuple2_float_int best;
          best._0 = x[0]; best._1 = 0;
          for (int i = 1; i < n; i += 1) {
            if (x[i] < best._0) { best._0 = x[i]; best._1 = i; }
          }
          out[0] = best._0;
          out[1] = (float) best._1;
        }
        """
        x = Buffer.from_array([5.0, 3.0, 4.0, 1.0, 2.0])
        out = Buffer.zeros(2)
        run(src, 1, 1, x=x, out=out, n=5)
        assert out.data[0] == 1.0
        assert out.data[1] == 3.0

    def test_helper_function_call(self):
        src = """
        float sq(float v) { return v * v; }
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = sq(x[i]);
        }
        """
        x = Buffer.from_array([1.0, 2.0, 3.0, 4.0])
        out = Buffer.zeros(4)
        run(src, 4, 2, x=x, out=out)
        np.testing.assert_allclose(out.data, [1, 4, 9, 16])

    def test_math_builtins(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = sqrt(fabs(x[i]));
        }
        """
        x = Buffer.from_array([-4.0, 9.0])
        out = Buffer.zeros(2)
        run(src, 2, 1, x=x, out=out)
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_c_integer_division_truncates(self):
        src = """
        kernel void K(global int *out) {
          out[0] = (0 - 7) / 2;
          out[1] = (0 - 7) % 2;
          out[2] = 7 / 2;
        }
        """
        out = Buffer.zeros(3, "int")
        run(src, 1, 1, out=out)
        assert list(out.data) == [-3, -1, 3]

    def test_missing_arg_raises(self):
        src = "kernel void K(global float *x) { x[0] = 1.0f; }"
        prog = OpenCLProgram(src)
        with pytest.raises(KeyError):
            launch(prog, 1, 1, {})

    def test_bad_geometry_raises(self):
        src = "kernel void K(global float *x) { x[0] = 1.0f; }"
        prog = OpenCLProgram(src)
        with pytest.raises(ValueError):
            launch(prog, 10, 4, {"x": Buffer.zeros(1)})

    def test_barrier_divergence_detected(self):
        src = """
        kernel void K(global float *x) {
          if (get_local_id(0) < 1) { barrier(CLK_LOCAL_MEM_FENCE); }
          x[get_global_id(0)] = 1.0f;
        }
        """
        prog = OpenCLProgram(src)
        # The oracle's error; the lane engine refuses the kernel
        # statically (tests/test_simt.py).
        with pytest.raises(BarrierDivergence):
            launch(prog, 2, 2, {"x": Buffer.zeros(2)}, engine="scalar")


class TestCounters:
    def test_memory_traffic_counted(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = x[i] + 1.0f;
        }
        """
        x = Buffer.from_array(np.zeros(8))
        out = Buffer.zeros(8)
        counters = run(src, 8, 4, x=x, out=out)
        assert counters.global_loads == 8
        assert counters.global_stores == 8
        assert counters.flops == 8
        assert counters.work_items == 8

    def test_idivmod_counted(self):
        src = """
        kernel void K(global int *out, int n) {
          int i = get_global_id(0);
          out[i] = (i / n) + (i % n);
        }
        """
        out = Buffer.zeros(8, "int")
        counters = run(src, 8, 4, out=out, n=3)
        assert counters.idivmod == 16

    def test_constant_divisor_is_cheap(self):
        """Driver compilers strength-reduce literal divisors."""
        src = """
        kernel void K(global int *out, int n) {
          int i = get_global_id(0);
          out[i] = (i / 3) + (i % 4);
        }
        """
        out = Buffer.zeros(8, "int")
        counters = run(src, 8, 4, out=out, n=8)
        assert counters.idivmod == 0
        assert counters.idivmod_const == 8  # /3 is mul-by-reciprocal
        # %4 became a mask (plain iop)

    def test_barriers_counted_per_item(self):
        src = """
        kernel void K(global float *x) {
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1.0f;
        }
        """
        counters = run(src, 8, 4, x=Buffer.zeros(8))
        assert counters.barriers == 8

    def test_cost_model_orders_sanely(self):
        counters = Counters(flops=100, global_loads=100)
        cheap = Counters(flops=100, local_loads=100)
        for profile in DEVICES.values():
            assert estimate_cycles(counters, profile) > estimate_cycles(
                cheap, profile
            )

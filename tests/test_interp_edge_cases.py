"""Edge-case tests for the OpenCL interpreter and cost model."""

import numpy as np
import pytest

from repro.backend import CompileUnsupported
from repro.opencl import Buffer, Counters, OpenCLProgram, launch
from repro.opencl.cost import DEVICES, DeviceProfile, estimate_cycles
from repro.opencl.interp import ExecError, Pointer, _c_int_div, _c_int_mod


def run(source, global_size, local_size, **args):
    return launch(OpenCLProgram(source), global_size, local_size, args)


class TestCSemantics:
    @pytest.mark.parametrize(
        "a,b,q,r",
        [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1)],
    )
    def test_truncating_division(self, a, b, q, r):
        assert _c_int_div(a, b) == q
        assert _c_int_mod(a, b) == r

    def test_division_by_zero(self):
        with pytest.raises(ExecError):
            _c_int_div(1, 0)

    def test_struct_passed_by_value(self):
        src = """
        typedef struct { float _0; float _1; } T2;
        T2 bump(T2 t) { t._0 = t._0 + 1.0f; return t; }
        kernel void K(global float *out) {
          T2 a;
          a._0 = 5.0f; a._1 = 0.0f;
          T2 b = bump(a);
          out[0] = a._0;
          out[1] = b._0;
        }
        """
        out = Buffer.zeros(2)
        run(src, 1, 1, out=out)
        assert out.data[0] == 5.0  # caller's struct untouched
        assert out.data[1] == 6.0

    def test_vector_passed_by_value(self):
        src = """
        float4 bump(float4 v) { v.x = v.x + 1.0f; return v; }
        kernel void K(global float *out) {
          float4 a = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
          float4 b = bump(a);
          out[0] = a.x;
          out[1] = b.x;
        }
        """
        out = Buffer.zeros(2)
        run(src, 1, 1, out=out)
        assert list(out.data) == [1.0, 2.0]

    def test_vector_swizzle_members(self):
        src = """
        kernel void K(global float *out) {
          float4 v = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
          out[0] = v.x + v.y + v.z + v.w;
          out[1] = v.s0 + v.s3;
        }
        """
        out = Buffer.zeros(2)
        run(src, 1, 1, out=out)
        assert list(out.data) == [10.0, 5.0]

    def test_vector_broadcast_literal(self):
        src = """
        kernel void K(global float *out) {
          float4 v = (float4)(2.0f);
          vstore4(v, 0, out);
        }
        """
        out = Buffer.zeros(4)
        run(src, 1, 1, out=out)
        assert list(out.data) == [2.0] * 4

    def test_early_return_in_kernel(self):
        src = """
        kernel void K(global float *out, int n) {
          int i = get_global_id(0);
          if (i >= n) { return; }
          out[i] = 1.0f;
        }
        """
        out = Buffer.zeros(8)
        run(src, 8, 4, out=out, n=5)
        assert list(out.data) == [1.0] * 5 + [0.0] * 3

    def test_ternary_expression(self):
        src = """
        kernel void K(global float *out) {
          int i = get_global_id(0);
          out[i] = (i < 2) ? 1.0f : 0.0f;
        }
        """
        out = Buffer.zeros(4)
        run(src, 4, 2, out=out)
        assert list(out.data) == [1.0, 1.0, 0.0, 0.0]

    def test_logical_short_circuit(self):
        # The second operand would divide by zero if evaluated.
        src = """
        kernel void K(global int *out, int z) {
          int i = get_global_id(0);
          if (z > 0 && (i / z) > 100) { out[i] = 1; }
          else { out[i] = 2; }
        }
        """
        out = Buffer.zeros(2, "int")
        run(src, 2, 1, out=out, z=0)
        assert list(out.data) == [2, 2]


class TestPointerSemantics:
    def test_pointer_offsets(self):
        p = Pointer(np.arange(10, dtype=float), 2, "global")
        assert p.load(1) == 3.0
        q = p.plus(3)
        assert q.load(0) == 5.0

    def test_pointer_arithmetic_in_kernel(self):
        src = """
        kernel void K(const global float * restrict x, global float *out, int n) {
          int row = get_global_id(0);
          float4 v = vload4(0, x + row * 4);
          vstore4(v, row, out);
        }
        """
        data = np.arange(16, dtype=float)
        out = Buffer.zeros(16)
        run(src, 4, 2, x=Buffer.from_array(data), out=out, n=4)
        np.testing.assert_allclose(out.data, data)


class TestLoadCaching:
    def test_repeat_load_is_cached(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          float s = 0.0f;
          for (int i = 0; i < 4; i += 1) { s = s + x[0]; }
          out[0] = s;
        }
        """
        counters = run(src, 1, 1, x=Buffer.from_array([2.0]), out=Buffer.zeros(1))
        assert counters.global_loads == 1
        assert counters.cached_loads == 3

    def test_caches_are_per_work_item(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          out[get_global_id(0)] = x[0];
        }
        """
        counters = run(src, 4, 2, x=Buffer.from_array([1.0]), out=Buffer.zeros(4))
        # every work-item pays its own first load
        assert counters.global_loads == 4
        assert counters.cached_loads == 0


class TestCostModel:
    def test_profiles_have_all_weights(self):
        for profile in DEVICES.values():
            assert profile.global_access > profile.local_access
            assert profile.idivmod > profile.idivmod_const
            assert profile.flop > 0

    def test_estimate_is_monotone_in_counters(self):
        base = Counters(flops=10)
        more = Counters(flops=10, global_loads=100)
        for profile in DEVICES.values():
            assert estimate_cycles(more, profile) > estimate_cycles(base, profile)

    def test_counters_merge(self):
        a = Counters(flops=1, barriers=2)
        b = Counters(flops=3, iops=4)
        merged = a.merged_with(b)
        assert merged.flops == 4
        assert merged.barriers == 2
        assert merged.iops == 4


_HEAD = ("kernel void K(const global float * restrict x, global float *out, int z) {\n"
         "  int i = get_global_id(0);\n")

#: Malformed kernels: each engine refuses with a typed error (the
#: oracle's ``ExecError`` names the fault; the lane engine's is a static
#: refusal or the same run-time error).
_MALFORMED_KERNELS = {
    "integer modulo by zero": ("out[i] = i % z;", "integer modulo by zero"),
    "integer division by zero": ("out[i] = i / z;", "integer division by zero"),
    "an undefined name": ("out[i] = q;", "undefined identifier 'q'"),
    "an unknown function": ("out[i] = nofun(1.0f);", "unknown function 'nofun'"),
    "an unknown size getter": ("out[i] = get_local_foo(0);",
                               "unknown geometry builtin get_local_foo"),
    "a float indexed": ("float f = 1.0f; out[i] = f[0];", "cannot index 1.0"),
    "a store through an indexed float": (
        "float f = 1.0f; f[0] = 2.0f; out[i] = f;", "indexed store into non-pointer"),
    "a member store into a float": (
        "float f = 1.0f; f.x = 2.0f; out[i] = f;", "member store into 1.0"),
    "a member of a float": ("float f = 1.0f; out[i] = f.x;",
                            "cannot take member x of 1.0"),
    "a pointer subtracted from an int": ("out[i] = (3 - x)[i];",
                                         "unsupported pointer operation -"),
    "a pointer plus a float": ("out[i] = (x + 1.5f)[i];",
                               "unsupported pointer operation +"),
    "a product of a pointer": ("out[i] = (x * 2)[i];",
                               "unsupported pointer operation *"),
    "a compound assignment of a pointer": (
        "float f = 1.0f; f += x; out[i] = f;", "unsupported pointer operation +"),
    "a comparison of a pointer": (
        "if (x < 1.0f) { out[i] = 1.0f; }", "unsupported pointer operation <"),
    "a vector member of no component": (
        "float4 v = vload4(0, x); out[i] = v.q;", "cannot take member q"),
}


class TestMalformedKernels:
    @pytest.mark.parametrize("engine", ["scalar", "auto", "compiled"])
    @pytest.mark.parametrize("name", sorted(_MALFORMED_KERNELS))
    def test_every_engine_refuses_with_a_typed_error(self, name, engine):
        # A run-time error is the oracle's on every engine; the lane
        # engine refuses the other forms statically, with its own reason.
        body, message = _MALFORMED_KERNELS[name]
        args = {"x": Buffer.from_array(np.arange(40.0)), "out": Buffer.zeros(8), "z": 0}
        with pytest.raises(ExecError) as error:
            launch(OpenCLProgram(_HEAD + "  " + body + "\n}\n"), 8, 4, args,
                   engine=engine)
        if not isinstance(error.value, CompileUnsupported):
            assert message in str(error.value)

    def test_a_local_array_of_a_helper_is_refused(self):
        src = """
        float g(float v) { local float t[4]; t[0] = v; return t[0]; }
        kernel void K(global float *out) { out[get_global_id(0)] = g(1.0f); }"""
        for engine in ("scalar", "auto"):
            with pytest.raises(ExecError, match="local buffer t was not pre-allocated"):
                launch(OpenCLProgram(src), 4, 4, {"out": Buffer.zeros(4)},
                       engine=engine)

    def test_a_member_of_no_hex_digits_is_no_component(self):
        from repro.opencl.interp import vector_column

        assert vector_column("sum") is None and vector_column("s1f") == 0x1f


#: Forms no benchmark kernel writes, with C's values for ``x = 0 .. 39``.
_SELDOM_KERNELS = {
    "vector halves and a hex component": (
        "float4 v = vload4(i, x); float2 l = v.lo; float2 h = v.hi;"
        " out[i] = l.x + 10.0f * h.y + v.s2;",
        [4 * i + 10 * (4 * i + 3) + 4 * i + 2 for i in range(8)]),
    "a pointer difference": ("out[i] = (x + 3 - 1)[i];", [i + 2 for i in range(8)]),
    "an int plus a pointer": ("out[i] = (3 + x)[i] + (i + x)[1];",
                              [2 * i + 4 for i in range(8)]),
    "a dot of scalars": ("out[i] = dot(x[i], 2.0f);", [2 * i for i in range(8)]),
    "an expression statement": ("x[i] + 1.0f; out[i] = 1.0f;", [1] * 8),
    "a pointer into a private array moved under a mask": (
        "float buf[2]; buf[0] = x[i]; buf[1] = 2.0f * x[i]; float *p = buf;"
        " if (i % 2 == 1) { p = buf + 1; } out[i] = p[0];",
        [i * (1 + i % 2) for i in range(8)]),
    "a loop every lane returns from": (
        "for (int t = 0; t < 4; t += 1) { if (t == 1) { out[i] = 3.0f; return; } }",
        [3] * 8),
    "a loop counter set by an assignment": (
        "int t; float s = 0.0f; for (t = 0; t < 4; t += 1) { s = s + x[t + i]; }"
        " out[i] = s;", [4 * i + 6 for i in range(8)]),
    "a loop counting down": (
        "float s = 0.0f; for (int t = 8; t > 0; t -= 2) { s = s + x[t + i]; }"
        " out[i] = s;", [4 * i + 20 for i in range(8)]),
    "a component stored under a mask": (
        "float4 v = vload4(i, x); if (i > 2) { v.x = 1.0f; } out[i] = v.x;",
        [0, 4, 8, 1, 1, 1, 1, 1]),
    "a cast to size_t": ("out[i] = (size_t)(i) + 0.5f;", [i + 0.5 for i in range(8)]),
    "a barrier in an else branch": (
        "if (z > 0) { barrier(CLK_LOCAL_MEM_FENCE); } else"
        " { barrier(CLK_LOCAL_MEM_FENCE); } out[i] = 2.0f;", [2] * 8),
}


class TestSeldomKernels:
    @pytest.mark.parametrize("name", sorted(_SELDOM_KERNELS))
    def test_every_engine_gives_c_values(self, name):
        from tests.test_simt import assert_engines_agree

        body, expected = _SELDOM_KERNELS[name]
        make = lambda: {"x": Buffer.from_array(np.arange(40.0)),
                        "out": Buffer.zeros(8), "z": 0}
        results = assert_engines_agree(_HEAD + "  " + body + "\n}\n", 8, 4, make)
        np.testing.assert_array_equal(results["scalar"][0]["out"], expected)


class TestStaticCost:
    """``static_program_cost`` beyond the explorer's candidates."""

    def test_an_iterate_a_symbolic_size_and_an_overfull_launch(self):
        from repro.arith import Var
        from repro.ir.dsl import id_fun, map_glb
        from repro.ir.nodes import Lambda, Param
        from repro.ir.patterns import LiftTypeError
        from repro.ir.typecheck import infer_types
        from repro.opencl.cost import static_program_cost
        from repro.types import FLOAT, array
        from tests.programs import partial_dot

        nvidia = DEVICES["nvidia"]
        dot = partial_dot()
        infer_types(dot.body)
        sized = static_program_cost(dot, {"N": 1024}, nvidia, local_size=(64, 1, 1),
                                    global_size=(1024, 1, 1))
        # Without sizes, trip counts and widths take their defaults.
        assert 0 < sized and 0 < static_program_cost(dot, {}, nvidia)
        x = Param(array(FLOAT, Var("N")), "x")
        copy = Lambda([x], map_glb(id_fun())(x))
        with pytest.raises(LiftTypeError, match="prices a typed program"):
            static_program_cost(copy, {"N": 4}, nvidia)
        infer_types(copy.body)
        fits = static_program_cost(copy, {"N": 10**4}, nvidia, global_size=(10**4, 1, 1))
        over = static_program_cost(copy, {"N": 10**8}, nvidia, global_size=(10**8, 1, 1))
        # Past the device's occupancy the cost grows with the overflow.
        assert over > fits

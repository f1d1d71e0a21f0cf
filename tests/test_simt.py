"""Tests for the lane-batched SIMT engine (repro.opencl.simt).

The engine's contract is exact equivalence with the scalar NDRange
interpreter: bitwise-identical buffers and identical counters.  The
tests here check that contract on divergent control flow (masked
``if``/``for``/``while``), short-circuit evaluation, helpers with early
returns, struct accumulators, and the fallback paths (static analysis
refusals and dynamic cross-lane race detection).
"""

import numpy as np
import pytest

from repro.opencl import (
    Buffer,
    OpenCLProgram,
    VectorizationError,
    analyze_kernel,
    launch,
)
from repro.opencl.interp import BarrierDivergence, ExecError
from repro.opencl.runtime import _parse_cached


#: The execution backends whose results must agree bitwise: the scalar
#: reference interpreter, the closure-compiled pipeline, and the
#: whole-grid fused-numpy backend (whose chain falls back through
#: compiled/scalar on refusals — the agreement must hold either way).
ENGINES = ("scalar", "compiled", "fused")


def run_both(source, global_size, local_size, make_args, kernel_name=None,
             engines=ENGINES):
    """Run a kernel on every engine; returns one (buffers, counters)
    pair per engine.

    ``make_args`` builds a fresh argument dict (with fresh output
    buffers) per engine so the engines cannot observe each other.
    """
    results = []
    for engine in engines:
        program = OpenCLProgram(source)
        args = make_args()
        counters = launch(
            program, global_size, local_size, args,
            kernel_name=kernel_name, engine=engine,
        )
        outs = {
            name: v.data.copy()
            for name, v in args.items()
            if isinstance(v, Buffer)
        }
        results.append((outs, counters))
    return results


def assert_engines_agree(source, global_size, local_size, make_args,
                         engines=ENGINES):
    results = run_both(source, global_size, local_size, make_args,
                       engines=engines)
    (outs_s, c_s) = results[0]
    for engine, (outs, counters) in zip(engines[1:], results[1:]):
        for name in outs_s:
            np.testing.assert_array_equal(
                outs_s[name], outs[name],
                err_msg=f"buffer {name!r} differs on engine {engine!r}",
            )
        assert vars(c_s) == vars(counters), (
            f"counters differ on {engine!r}:\n"
            f"scalar: {vars(c_s)}\n{engine}: {vars(counters)}"
        )


class TestDivergentControlFlow:
    """Masked if/for/while kernels, checked lane-for-lane vs. scalar."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masked_if_else(self, seed):
        src = """
        kernel void K(const global float * restrict x, global float *out, int n) {
          int i = get_global_id(0);
          if (i < n) {
            if (x[i] > 0.5f) { out[i] = x[i] * 2.0f; }
            else { out[i] = x[i] - 1.0f; }
          }
        }
        """
        rng = np.random.default_rng(seed)
        x = rng.random(64)
        assert_engines_agree(
            src, 64, 16,
            lambda: {"x": Buffer.from_array(x.copy()),
                     "out": Buffer.zeros(64), "n": 48},
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_data_dependent_while(self, seed):
        # Collatz-style loop: every lane runs a different trip count.
        src = """
        kernel void K(const global int * restrict x, global int *out,
                      global int *steps) {
          int i = get_global_id(0);
          int v = x[i];
          int count = 0;
          while (v != 1) {
            if (v % 2 == 0) { v = v / 2; }
            else { v = 3 * v + 1; }
            count += 1;
          }
          out[i] = v;
          steps[i] = count;
        }
        """
        rng = np.random.default_rng(seed)
        x = rng.integers(1, 50, size=32)
        assert_engines_agree(
            src, 32, 8,
            lambda: {"x": Buffer.from_array(x.copy()),
                     "out": Buffer.zeros(32, "int"),
                     "steps": Buffer.zeros(32, "int")},
        )

    def test_divergent_for_bounds(self):
        # Per-lane loop bound: lane i iterates i times.
        src = """
        kernel void K(global float *out, int n) {
          int i = get_global_id(0);
          float acc = 0.0f;
          for (int k = 0; k < i; k += 1) { acc = acc + (float) k; }
          out[i] = acc;
        }
        """
        assert_engines_agree(
            src, 32, 8, lambda: {"out": Buffer.zeros(32), "n": 32}
        )

    def test_short_circuit_masks_side_counts(self):
        # The && rhs only loads for lanes whose lhs is true; the load and
        # iop counters must reflect that exactly.
        src = """
        kernel void K(const global float * restrict x, global float *out, int n) {
          int i = get_global_id(0);
          if (i < n && x[i] > 0.25f) { out[i] = 1.0f; }
          if (i >= n || x[i] < 0.75f) { out[i] = out[i] + 0.5f; }
        }
        """
        rng = np.random.default_rng(3)
        x = rng.random(64)
        assert_engines_agree(
            src, 64, 16,
            lambda: {"x": Buffer.from_array(x.copy()),
                     "out": Buffer.zeros(64), "n": 40},
        )

    def test_ternary_per_lane(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = (x[i] > 0.5f) ? x[i] * 10.0f : x[i] * 0.5f;
        }
        """
        rng = np.random.default_rng(5)
        x = rng.random(32)
        assert_engines_agree(
            src, 32, 8,
            lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(32)},
        )

    def test_helper_with_masked_early_return(self):
        # md-style helper: early return under a divergent condition.
        src = """
        float guard(float v) {
          if (v < 0.5f) { return 0.0f; }
          return v * v;
        }
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = guard(x[i]);
        }
        """
        rng = np.random.default_rng(7)
        x = rng.random(32)
        assert_engines_agree(
            src, 32, 8,
            lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(32)},
        )

    def test_struct_accumulator_masked_members(self):
        # kmeans-style argmin with struct members merged under masks.
        src = """
        typedef struct { float _0; float _1; } T2;
        kernel void K(const global float * restrict x, global float *out, int k) {
          int i = get_global_id(0);
          T2 best;
          best._0 = 1.0e30f;
          best._1 = 0.0f;
          for (int j = 0; j < k; j += 1) {
            float d = x[i * k + j];
            if (d < best._0) { best._0 = d; best._1 = (float) j; }
          }
          out[i] = best._1;
        }
        """
        rng = np.random.default_rng(11)
        k = 5
        x = rng.random(16 * k)
        assert_engines_agree(
            src, 16, 4,
            lambda: {"x": Buffer.from_array(x.copy()),
                     "out": Buffer.zeros(16), "k": k},
        )

    def test_kernel_early_return(self):
        src = """
        kernel void K(global float *out, int n) {
          int i = get_global_id(0);
          if (i >= n) { return; }
          out[i] = (float) i;
        }
        """
        assert_engines_agree(
            src, 32, 8, lambda: {"out": Buffer.zeros(32), "n": 20}
        )

    def test_cached_loads_match(self):
        # Re-loading the same address must hit the per-item load cache
        # identically on both engines (including the shared address that
        # every lane loads).
        src = """
        kernel void K(const global float * restrict x, global float *out, int n) {
          int i = get_global_id(0);
          float pivot = x[0];
          float acc = 0.0f;
          for (int k = 0; k < n; k += 1) { acc = acc + x[i] * pivot; }
          out[i] = acc;
        }
        """
        results = run_both(
            src, 16, 4,
            lambda: {"x": Buffer.from_array(np.arange(16, dtype=float) + 1),
                     "out": Buffer.zeros(16), "n": 3},
        )
        outs_s, c_s = results[0]
        assert c_s.cached_loads > 0
        for outs_v, c_v in results[1:]:
            assert vars(c_s) == vars(c_v)
            np.testing.assert_array_equal(outs_s["out"], outs_v["out"])


def assert_typed_everywhere(source, global_size, local_size, make_args):
    """Bitwise buffers + equal Counters vs scalar on every engine, each
    launch served by the engine's *first* chain member (the backend the
    engine is named after) with no ledger event: declared C types leave
    nothing for a tier to decline."""
    from repro.backend import ledger
    from repro.obs import metrics

    ledger.clear()
    before = {
        b: metrics.REGISTRY.counter(f"launch.served.{b}")
        for b in ENGINES
    }
    assert_engines_agree(source, global_size, local_size, make_args)
    assert ledger.events() == ()
    for backend, count in before.items():
        served = metrics.REGISTRY.counter(f"launch.served.{backend}")
        assert served == count + 1, f"{backend} did not serve its launch"


@pytest.mark.usefixtures("fault_free")
class TestDeclaredTypes:
    """The declared C type of a variable, parameter, return value or
    struct member is authoritative in every tier (ENGINES.md, Typing)."""

    def test_uninitialised_float_first_assigned_under_partial_mask(self):
        # The generated atax/gemv/gesummv shape: ``float acc;`` hoisted
        # to the kernel top, first written under ``if (l_id < size/2)``.
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          float acc;
          int i = get_global_id(0);
          if (get_local_id(0) < 4) { acc = 0.0f; acc = acc + x[i]; }
          out[i] = acc / 2;
        }
        """
        x = np.arange(32, dtype=float) + 0.5
        assert_typed_everywhere(
            src, 32, 8,
            lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(32)},
        )
        outs, counters = run_both(
            src, 32, 8,
            lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(32)},
            engines=("scalar",),
        )[0]
        lanes = np.arange(32)
        expected = np.where(lanes % 8 < 4, x / 2, 0.0)
        np.testing.assert_array_equal(outs["out"], expected)
        # ``acc / 2`` divides a float on every lane, active or not.
        assert counters.idivmod_const == 0 and counters.flops == 32 + 16

    def test_int_initialised_float_accumulates_in_divergent_loop(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          float s = 0;
          for (int k = 0; k < i % 5; k += 1) { s += x[i] * k; }
          out[i] = s / 2;
        }
        """
        x = np.linspace(0.25, 4.0, 32)
        assert_typed_everywhere(
            src, 32, 8,
            lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(32)},
        )

    def test_float_to_int_truncates_toward_zero(self):
        src = """
        kernel void K(global int *out, global float *half) {
          int g = get_global_id(0);
          int i = 2.7f;
          out[g] = i;
          if (g % 2 == 0) { i = -2.7f; out[g] = i; }
          i = i / 2;
          half[g] = i;
        }
        """
        make = lambda: {"out": Buffer.zeros(16, "int"), "half": Buffer.zeros(16)}
        assert_typed_everywhere(src, 16, 8, make)
        outs, _ = run_both(src, 16, 8, make, engines=("scalar",))[0]
        even = np.arange(16) % 2 == 0
        np.testing.assert_array_equal(outs["out"], np.where(even, -2, 2))
        np.testing.assert_array_equal(outs["half"], np.where(even, -1.0, 1.0))

    def test_helper_parameter_and_return_convert(self):
        src = """
        float halve(float v) { return v / 2; }
        float one(float v) { if (v > 2.0f) { return 1; } return 0.5f; }
        int whole(float v) { return v; }
        kernel void K(const global float * restrict x, global float *out,
                      global int *trunc) {
          int i = get_global_id(0);
          out[i] = halve(3) + one(x[i]) / 2;
          trunc[i] = whole(x[i] * 1.5f) / 2;
        }
        """
        x = np.linspace(-4.0, 4.0, 32)
        make = lambda: {"x": Buffer.from_array(x.copy()),
                        "out": Buffer.zeros(32),
                        "trunc": Buffer.zeros(32, "int")}
        assert_typed_everywhere(src, 32, 8, make)
        outs, _ = run_both(src, 32, 8, make, engines=("scalar",))[0]
        np.testing.assert_array_equal(
            outs["out"], 1.5 + np.where(x > 2.0, 1.0, 0.5) / 2
        )
        np.testing.assert_array_equal(
            outs["trunc"], np.trunc(np.trunc(x * 1.5) / 2).astype(np.int64)
        )

    def test_python_int_argument_for_float_parameter(self):
        src = """
        kernel void K(global float *out, float alpha, int n) {
          int i = get_global_id(0);
          if (i < n) { out[i] = alpha / 2; }
        }
        """
        make = lambda: {"out": Buffer.zeros(16), "alpha": 5, "n": 12.0}
        assert_typed_everywhere(src, 16, 8, make)
        outs, counters = run_both(src, 16, 8, make, engines=("scalar",))[0]
        np.testing.assert_array_equal(
            outs["out"], np.where(np.arange(16) < 12, 2.5, 0.0)
        )
        assert counters.flops == 12 and counters.idivmod_const == 0

    def test_struct_member_store_converts_to_member_type(self):
        src = """
        typedef struct { float sum; int count; } Acc;
        Acc step(Acc a, float v) { a.sum = a.sum + v; a.count = a.count + 1.9f; return a; }
        kernel void K(const global float * restrict x, global float *out,
                      global int *cnt) {
          int i = get_global_id(0);
          Acc a;
          a.sum = 1;
          if (x[i] > 0.0f) { a.sum = 2; a.count = 2.5f; }
          a = step(a, x[i]);
          out[i] = a.sum / 2;
          cnt[i] = a.count / 2;
        }
        """
        x = np.linspace(-1.0, 1.0, 32)
        make = lambda: {"x": Buffer.from_array(x.copy()),
                        "out": Buffer.zeros(32),
                        "cnt": Buffer.zeros(32, "int")}
        assert_typed_everywhere(src, 32, 8, make)
        outs, _ = run_both(src, 32, 8, make, engines=("scalar",))[0]
        pos = x > 0.0
        np.testing.assert_array_equal(
            outs["out"], (np.where(pos, 2.0, 1.0) + x) / 2
        )
        # count: 0 or 2, plus trunc(count + 1.9) -> +1, then int / 2.
        np.testing.assert_array_equal(outs["cnt"], np.where(pos, 1, 0))

    def test_two_types_for_one_name_is_a_static_decline(self):
        src = """
        kernel void K(global float *out) {
          int g = get_global_id(0);
          for (int i = 0; i < 2; i += 1) { out[g] = i; }
          for (float i = 0.5f; i < 2.0f; i += 1.0f) { out[g] = out[g] + i; }
        }
        """
        program = OpenCLProgram(src)
        reason = analyze_kernel(program.parsed, program.kernel())
        assert reason is not None and "two types" in reason
        # The graceful chains still agree with the scalar oracle.
        assert_engines_agree(
            src, 8, 8, lambda: {"out": Buffer.zeros(8)},
            engines=("scalar", "auto", "fused"),
        )

    def test_mixed_ternary_arms_decline_with_their_reason(self):
        from repro.backend import ledger

        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = ((x[i] > 0.0f) ? x[i] : 0) / 2;
        }
        """
        x = np.linspace(-1.0, 1.0, 16)
        make = lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(16)}
        with pytest.raises(VectorizationError, match="K: ternary arms"):
            launch(OpenCLProgram(src), 16, 8, make(), engine="compiled")
        ledger.clear()
        assert_engines_agree(
            src, 16, 8, make, engines=("scalar", "auto", "fused")
        )
        reasons = {e.reason for e in ledger.events() if e.kind == "dynamic"}
        assert reasons == {
            "K: ternary arms of different arithmetic types on divergent lanes"
        }


class TestBarriers:
    def test_group_uniform_barrier_loop(self):
        # Strided work-group loop with a barrier inside: the trip count
        # differs per group (group-uniform, not globally uniform).
        src = """
        kernel void K(const global float * restrict x, global float *out, int n) {
          local float tmp[4];
          int l = get_local_id(0);
          for (int wg = get_group_id(0); wg < n / 4; wg += get_num_groups(0)) {
            tmp[l] = x[wg * 4 + l];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[wg * 4 + l] = tmp[3 - l] * 2.0f;
            barrier(CLK_LOCAL_MEM_FENCE);
          }
        }
        """
        x = np.arange(32, dtype=float)
        assert_engines_agree(
            src, 8, 4,
            lambda: {"x": Buffer.from_array(x.copy()),
                     "out": Buffer.zeros(32), "n": 32},
        )

    def test_reduction_tree(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
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
        rng = np.random.default_rng(13)
        x = rng.random(32)
        assert_engines_agree(
            src, 32, 8,
            lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(4)},
        )

    def test_barrier_divergence_still_raises_via_fallback(self):
        # A barrier under a lane-divergent condition is statically
        # rejected by the vector engine; the scalar fallback must keep
        # raising BarrierDivergence.
        src = """
        kernel void K(global float *x) {
          if (get_local_id(0) < 1) { barrier(CLK_LOCAL_MEM_FENCE); }
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        reason = analyze_kernel(program.parsed, program.kernel())
        assert reason is not None and "lane-divergent" in reason
        with pytest.raises(BarrierDivergence):
            launch(program, 2, 2, {"x": Buffer.zeros(2)})
        with pytest.raises(VectorizationError):
            launch(program, 2, 2, {"x": Buffer.zeros(2)}, engine="compiled")


class TestVectorGeometryBuiltins:
    """``dot``/``length`` use an explicitly-ordered reduction shared by
    both engines, so vector-geometry kernels no longer force the scalar
    fallback."""

    _SRC = """
    kernel void K(const global float * restrict p,
                  const global float * restrict q,
                  global float *dots, global float *lens) {
      int i = get_global_id(0);
      float4 a = vload4(i, p);
      float4 b = vload4(i, q);
      dots[i] = dot(a, b);
      lens[i] = length(a);
    }
    """

    def test_analysis_accepts_dot_and_length(self):
        program = OpenCLProgram(self._SRC)
        assert analyze_kernel(program.parsed, program.kernel()) is None

    def test_engines_agree_bitwise(self):
        n = 64
        rng = np.random.default_rng(11)
        p = rng.standard_normal(4 * n)
        q = rng.standard_normal(4 * n)

        def args():
            return {
                "p": Buffer.from_array(p),
                "q": Buffer.from_array(q),
                "dots": Buffer.zeros(n),
                "lens": Buffer.zeros(n),
            }

        assert_engines_agree(self._SRC, n, 16, args)

    def test_ordered_reduction_matches_sequential_sum(self):
        # The contract is a fixed left-to-right multiply-add chain, not
        # whatever BLAS does for the current shape.
        n = 8
        rng = np.random.default_rng(5)
        p = rng.standard_normal(4 * n)
        q = rng.standard_normal(4 * n)

        def args():
            return {
                "p": Buffer.from_array(p),
                "q": Buffer.from_array(q),
                "dots": Buffer.zeros(n),
                "lens": Buffer.zeros(n),
            }

        program = OpenCLProgram(self._SRC)
        a = args()
        launch(program, n, 8, a, engine="compiled")
        pv, qv = p.reshape(n, 4), q.reshape(n, 4)
        for i in range(n):
            acc = pv[i, 0] * qv[i, 0]
            for k in range(1, 4):
                acc = acc + pv[i, k] * qv[i, k]
            assert a["dots"].data[i] == acc


class TestFallback:
    def test_analysis_accepts_plain_kernel(self):
        program = OpenCLProgram(
            "kernel void K(global float *x) { x[get_global_id(0)] = 1.0f; }"
        )
        assert analyze_kernel(program.parsed, program.kernel()) is None

    def test_analysis_rejects_barrier_plus_return(self):
        src = """
        kernel void K(global float *x, int n) {
          if (get_global_id(0) >= n) { return; }
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        reason = analyze_kernel(program.parsed, program.kernel())
        assert reason is not None and "return" in reason

    def test_analysis_rejects_unknown_function(self):
        src = "kernel void K(global float *x) { x[0] = mystery(x[0]); }"
        program = OpenCLProgram(src)
        assert analyze_kernel(program.parsed, program.kernel()) is not None

    def test_dynamic_race_falls_back_to_scalar(self, fault_free):
        # Every work-item stages its value through the *same* scratch
        # cell — the scalar interpreter's sequential item order makes
        # this "work"; the vector engine must detect the cross-lane race
        # at run time, roll back, and reproduce the scalar result.
        src = """
        kernel void K(const global float * restrict x, global float *scratch,
                      global float *out) {
          int i = get_global_id(0);
          scratch[0] = x[i];
          out[i] = scratch[0] * 2.0f;
        }
        """
        x = np.arange(8, dtype=float)
        program = OpenCLProgram(src)
        assert analyze_kernel(program.parsed, program.kernel()) is None

        def args():
            return {"x": Buffer.from_array(x.copy()),
                    "scratch": Buffer.zeros(1), "out": Buffer.zeros(8)}

        from repro.backend import ledger

        a_s = args()
        c_s = launch(program, 8, 4, a_s, engine="scalar")
        a_auto = args()
        ledger.clear()
        c_auto = launch(program, 8, 4, a_auto, engine="auto")  # falls back
        np.testing.assert_array_equal(a_s["out"].data, a_auto["out"].data)
        np.testing.assert_array_equal(a_s["scratch"].data, a_auto["scratch"].data)
        assert vars(c_s) == vars(c_auto)
        # The decline keeps its real reason: kernel + the engine's message.
        dynamic = [e for e in ledger.events() if e.kind == "dynamic"]
        assert [(e.engine, e.backend) for e in dynamic] == [("auto", "compiled")]
        assert dynamic[0].reason.startswith("K: cross-lane ")
        with pytest.raises(VectorizationError, match="compiled: K: cross-lane "):
            launch(program, 8, 4, args(), engine="compiled")

    def test_cross_group_race_across_barrier_falls_back(self):
        # Barriers order work-items *within* a group, never groups; the
        # scalar engine runs groups sequentially (group 0 first), so a
        # cross-group conflict is order-dependent even when a barrier
        # separates the write from the read.  The vector engine must
        # detect it at any segment distance and fall back.
        src = """
        kernel void K(global float *flag, global float *out) {
          int i = get_global_id(0);
          if (get_group_id(0) == 1) { flag[0] = 1.0f; }
          barrier(CLK_LOCAL_MEM_FENCE);
          if (get_group_id(0) == 0) { out[i] = flag[0]; }
        }
        """
        program = OpenCLProgram(src)
        assert analyze_kernel(program.parsed, program.kernel()) is None

        def args():
            return {"flag": Buffer.zeros(1), "out": Buffer.zeros(8)}

        a_s = args()
        c_s = launch(program, 8, 4, a_s, engine="scalar")
        a_auto = args()
        c_auto = launch(program, 8, 4, a_auto)
        # Group 0 runs first in the scalar engine, so it reads 0.0.
        np.testing.assert_array_equal(a_s["out"].data, np.zeros(8))
        np.testing.assert_array_equal(a_s["out"].data, a_auto["out"].data)
        assert vars(c_s) == vars(c_auto)
        with pytest.raises(VectorizationError):
            launch(program, 8, 4, args(), engine="compiled")

    def test_rollback_restores_buffers(self):
        # The race is only hit after some lanes already stored; auto mode
        # must restore the pre-launch buffer contents before re-running.
        src = """
        kernel void K(global float *out, global float *scratch) {
          int i = get_global_id(0);
          out[i] = 7.0f;
          scratch[0] = (float) i;
          out[i] = out[i] + scratch[0];
        }
        """
        program = OpenCLProgram(src)
        out = Buffer.from_array(np.full(8, -1.0))
        scratch = Buffer.zeros(1)
        launch(program, 8, 8, {"out": out, "scratch": scratch})
        expected = Buffer.from_array(np.full(8, -1.0))
        scratch2 = Buffer.zeros(1)
        launch(program, 8, 8, {"out": expected, "scratch": scratch2},
               engine="scalar")
        np.testing.assert_array_equal(out.data, expected.data)

    #: What codegen emitted for ``tests.programs.double_staged_rows()``
    #: before map intermediates were multiplied by the enclosing
    #: ``mapLcl(1)`` (paper section 5.2): four work-item rows stage
    #: through one 16-float row with no barrier in between.
    RACY_DOUBLE_STAGING = """
    float id(float x) { return x; }

    kernel void KERNEL(const global float * restrict x, global float * out) {
      local float tmp1[16];
      local float tmp2[16];
      for (int wg_id_0 = get_group_id(1); wg_id_0 < 2; wg_id_0 += get_num_groups(1)) {
        for (int wg_id_1 = get_group_id(0); wg_id_1 < 2; wg_id_1 += get_num_groups(0)) {
          int l_id_2 = get_local_id(1);
          for (int l_id_3 = get_local_id(0); l_id_3 < 16; l_id_3 += 4) {
            tmp1[l_id_3] = id(x[16 * l_id_2 + l_id_3 + 128 * wg_id_0 + 64 * wg_id_1]);
          }
          for (int l_id_4 = get_local_id(0); l_id_4 < 16; l_id_4 += 4) {
            tmp2[l_id_4] = id(tmp1[l_id_4]);
          }
          for (int l_id_5 = get_local_id(0); l_id_5 < 16; l_id_5 += 4) {
            out[16 * l_id_2 + l_id_5 + 128 * wg_id_0 + 64 * wg_id_1] = id(tmp2[l_id_5]);
          }
          barrier(CLK_GLOBAL_MEM_FENCE);
        }
      }
    }
    """

    @staticmethod
    def _double_staging_args():
        return {"x": Buffer.from_array(np.arange(256, dtype=float)),
                "out": Buffer.zeros(256)}

    def test_generated_double_staging_is_race_free(self, fault_free):
        # The strict engine raises VectorizationError on any decline, so
        # agreement here means ``compiled`` itself served the launch.
        from repro.compiler.codegen import compile_kernel
        from repro.compiler.options import CompilerOptions
        from repro.ir.interp import apply_fun
        from tests.programs import double_staged_rows

        prog = double_staged_rows()
        source = compile_kernel(
            prog, CompilerOptions(local_size=(4, 4, 1))
        ).source
        (outs_s, c_s), (outs_c, c_c) = run_both(
            source, (8, 8, 1), (4, 4, 1), self._double_staging_args,
            engines=("scalar", "compiled"),
        )
        for name in outs_s:
            np.testing.assert_array_equal(outs_s[name], outs_c[name])
        assert vars(c_s) == vars(c_c)
        nested = np.arange(256, dtype=float).reshape(2, 2, 4, 16).tolist()
        np.testing.assert_array_equal(
            outs_c["out"], np.asarray(apply_fun(prog, [nested], {})).ravel()
        )

    def test_pre_fix_double_staging_still_declines(self, fault_free):
        # The fix is in the allocator; the hazard detector is unchanged
        # and still refuses the old kernel text.
        with pytest.raises(VectorizationError, match="KERNEL: cross-lane read"):
            launch(
                OpenCLProgram(self.RACY_DOUBLE_STAGING), (8, 8, 1), (4, 4, 1),
                self._double_staging_args(), engine="compiled",
            )

    @pytest.mark.parametrize("engine", ("auto",) + ENGINES)
    def test_vector_literal_arity_is_a_typed_error(self, engine):
        # Neither a splat nor one item per component: the oracle raises,
        # the lane tiers refuse statically with the oracle's message, and
        # no tier writes the output (a tier that accepted the kernel used
        # to store uninitialised memory).
        from repro.backend import ledger

        src = """
        kernel void K(global float *x) {
          float4 v = (float4)(1.0f, 2.0f);
          x[get_global_id(0)] = v.z;
        }
        """
        x = Buffer.from_array(np.full(8, 7.0))
        ledger.clear()
        with pytest.raises(ExecError) as err:
            launch(OpenCLProgram(src), 8, 4, {"x": x}, engine=engine)
        assert "vector literal float4 with 2 items" in str(err.value)
        np.testing.assert_array_equal(x.data, np.full(8, 7.0))
        # One static decline per lane-batched member of the chain, each
        # naming the construct.
        lane_members = {"scalar": 0, "auto": 1, "compiled": 1, "fused": 2}
        assert [e.reason for e in ledger.events()] == (
            ["vector literal float4 with 2 items"] * lane_members[engine]
        )

    def test_non_lvalue_assignment_is_a_static_decline(self):
        # The parser takes any expression left of ``=``; the analysis is
        # where the lane tiers refuse it, the oracle where it raises.
        program = OpenCLProgram(
            "kernel void K(global float *x) { 3 = 1; x[0] = 1.0f; }"
        )
        reason = analyze_kernel(program.parsed, program.kernel())
        assert reason == "assignment to non-lvalue CInt"
        with pytest.raises(VectorizationError, match=reason):
            launch(program, 1, 1, {"x": Buffer.zeros(1)}, engine="compiled")
        with pytest.raises(ExecError, match="cannot assign to"):
            launch(program, 1, 1, {"x": Buffer.zeros(1)})

    def test_unknown_engine_rejected(self):
        program = OpenCLProgram(
            "kernel void K(global float *x) { x[0] = 1.0f; }"
        )
        with pytest.raises(ValueError):
            launch(program, 1, 1, {"x": Buffer.zeros(1)}, engine="warp")


class TestParseCache:
    def test_identical_source_shares_parse(self):
        src = "kernel void K(global float *x) { x[0] = 1.0f; }"
        a = OpenCLProgram(src)
        b = OpenCLProgram(src)
        assert a.parsed is b.parsed

    def test_distinct_sources_do_not_collide(self):
        a = OpenCLProgram("kernel void K(global float *x) { x[0] = 1.0f; }")
        b = OpenCLProgram("kernel void K(global float *x) { x[0] = 2.0f; }")
        assert a.parsed is not b.parsed

    def test_cache_is_bounded(self):
        maxsize = _parse_cached.cache_info().maxsize
        for i in range(maxsize + 16):
            OpenCLProgram(
                f"kernel void K(global float *x) {{ x[0] = {i}.0f; }}"
            )
        assert _parse_cached.cache_info().currsize <= maxsize


class TestSimplifyMemoization:
    def test_simplify_cache_hits(self):
        import sys

        S = sys.modules["repro.arith.simplify"]
        from repro.arith.expr import Cst, IntDiv, Prod, Sum, Var
        from repro.arith.ranges import Range

        S.clear_caches()
        n = Var("N", Range.natural())
        i = Var("i", Range.of(0, n))
        expr = Sum([Prod([i, Cst(4)]), IntDiv(i, n)])
        first = S.simplify(expr)
        assert len(S._SIMPLIFY_CACHE) > 0
        again = S.simplify(Sum([Prod([i, Cst(4)]), IntDiv(i, n)]))
        assert first == again

    def test_range_is_part_of_the_key(self):
        import sys

        S = sys.modules["repro.arith.simplify"]
        from repro.arith.expr import Mod, Var
        from repro.arith.ranges import Range

        S.clear_caches()
        # i in [0, 8) mod 8 simplifies to i; i in [0, 64) mod 8 must not.
        small = Var("i", Range.of(0, 8))
        large = Var("i", Range.of(0, 64))
        assert S.simplify(Mod(small, S.Cst(8))) == small
        result = S.simplify(Mod(large, S.Cst(8)))
        assert isinstance(result, Mod)

    def test_prove_lt_cached(self):
        import sys

        S = sys.modules["repro.arith.simplify"]
        from repro.arith.expr import Var
        from repro.arith.ranges import Range

        S.clear_caches()
        n = Var("N", Range.natural())
        i = Var("i", Range.of(0, n))
        assert S.prove_lt(i, n)
        assert len(S._PROVE_LT_CACHE) == 1
        assert S.prove_lt(Var("i", Range.of(0, n)), Var("N", Range.natural()))


class TestVectorBenchsuiteParity:
    """Spot-check full-benchmark parity (the exhaustive sweep runs in
    the benchsuite tests; these two cover the local-memory and
    helper-function heavy paths)."""

    @pytest.mark.parametrize("name", ["gemv", "kmeans"])
    def test_reference_and_generated_parity(self, name):
        from repro.benchsuite.common import get_benchmark

        bench = get_benchmark(name)
        inputs, size_env = bench.inputs_for("small")
        for runner in (bench.run_reference, bench.run_generated):
            out_s, c_s = runner(inputs, size_env, engine="scalar")
            out_a, c_a = runner(inputs, size_env)
            np.testing.assert_array_equal(out_s, out_a)
            assert vars(c_s) == vars(c_a)

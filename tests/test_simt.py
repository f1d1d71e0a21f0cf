"""Tests for the lane-batched SIMT engine (repro.opencl.simt).

The engine's contract is exact equivalence with the scalar NDRange
interpreter: bitwise-identical buffers and identical counters.  The
tests here check that contract on divergent control flow (masked
``if``/``for``/``while``), short-circuit evaluation, helpers with early
returns, struct accumulators, and the typed errors that stand for what
it does not run (static refusals, and the dynamic cross-lane race).
"""

import re

import numpy as np
import pytest

from repro.backend import CompileUnsupported
from repro.opencl import (
    Buffer,
    DataRace,
    OpenCLProgram,
    launch,
)
from repro.opencl import simt_compile
from repro.opencl.interp import BarrierDivergence, ExecError
from repro.opencl.runtime import _parse_cached
from tests.engines import (
    ALL_RUNS, ONE, RUNS, blocks, check_engines,
)


def refusal(program):
    """The reason the lane tiers' plan refuses ``program``'s kernel, or
    ``None`` when they admit it."""
    plan = simt_compile.get_pipeline(program.parsed, program.kernel())
    return plan if isinstance(plan, str) else None


def run_on(source, global_size, local_size, make_args, engine):
    """``(buffers, counters)`` of one launch of ``source`` on ``engine``.

    ``make_args`` builds a fresh argument dict (with fresh output
    buffers) per launch so the engines cannot observe each other.
    """
    program = OpenCLProgram(source)
    args = make_args()
    counters = launch(program, global_size, local_size, args, engine=engine)
    outs = {
        name: v.data.copy() for name, v in args.items() if isinstance(v, Buffer)
    }
    return outs, counters


def assert_engines_agree(source, global_size, local_size, make_args,
                         **checks):
    """:func:`tests.engines.check_engines` on one launch of ``source``."""
    return check_engines(
        lambda engine: run_on(
            source, global_size, local_size, make_args, engine
        ),
        global_size, local_size, **checks,
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
        results = assert_engines_agree(
            src, 16, 4,
            lambda: {"x": Buffer.from_array(np.arange(16, dtype=float) + 1),
                     "out": Buffer.zeros(16), "n": 3},
        )
        assert results["scalar"][1].cached_loads > 0


def assert_typed_everywhere(source, global_size, local_size, make_args):
    """Bitwise buffers + equal Counters vs scalar on every engine, each
    launch served by the backend its engine names: declared C types
    leave nothing for the lane engine to refuse."""
    from repro.obs import metrics

    # Every engine of RUNS runs on compiled.
    expected = {"scalar": 1, "compiled": len(RUNS)}
    before = {
        b: metrics.REGISTRY.counter(f"launch.served.{b}") for b in expected
    }
    assert_engines_agree(source, global_size, local_size, make_args)
    for backend, count in before.items():
        served = metrics.REGISTRY.counter(f"launch.served.{backend}")
        assert served == count + expected[backend], (
            f"{backend} did not serve its launches"
        )


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
        outs, counters = run_on(
            src, 32, 8,
            lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(32)},
            "scalar",
        )
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
        outs, _ = run_on(src, 16, 8, make, "scalar")
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
        outs, _ = run_on(src, 32, 8, make, "scalar")
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
        outs, counters = run_on(src, 16, 8, make, "scalar")
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
        outs, _ = run_on(src, 32, 8, make, "scalar")
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
        reason = refusal(program)
        assert reason is not None and "two types" in reason
        # The lane engine names the reason; the scalar oracle runs it.
        assert_engines_agree(
            src, 8, 8, lambda: {"out": Buffer.zeros(8)}, refused=reason,
        )

    def test_mixed_ternary_arms_decline_with_their_reason(self):
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          int i = get_global_id(0);
          out[i] = ((x[i] > 0.0f) ? x[i] : 0) / 2;
        }
        """
        x = np.linspace(-1.0, 1.0, 16)
        make = lambda: {"x": Buffer.from_array(x.copy()), "out": Buffer.zeros(16)}
        reason = (
            "no static type for '(x[i] > 0.0f ? x[i] : 0)' in 'K': "
            "arms float and int"
        )
        with pytest.raises(CompileUnsupported, match=re.escape(reason)):
            launch(OpenCLProgram(src), 16, 8, make(), engine="compiled")
        assert_engines_agree(src, 16, 8, make, refused=reason)


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

    def test_lane_variance_propagates_through_stores(self):
        # ``a`` holds a lane id; ``b`` is stored under a branch on ``a``
        # and ``c`` is stored ``b`` a statement *before* ``b`` changes:
        # the chain demotes all three, ``k`` and ``i`` stay group-uniform.
        from repro.opencl.cparser import parse

        src = """
        kernel void K(global float *x, int n) {
          int k = n * 2;
          int a = 0;
          int b = 1;
          int c = 2;
          for (int i = 0; i < n; i += 1) {
            c = b;
            if (a > 0) { b = 3; }
            a = get_local_id(0);
          }
          if (%s > 1) { barrier(CLK_LOCAL_MEM_FENCE); }
          x[get_global_id(0)] = c + k;
        }"""
        kernel = parse(src % "k").functions["K"]
        assert simt_compile.scan_kernel(kernel).group == {"x", "n", "k", "i"}
        for name, ok in (("k", True), ("c", False)):
            program = OpenCLProgram(src % name)
            assert (refusal(program) is None) == ok

    def test_barrier_divergence_is_a_refusal_and_the_oracles_error(self):
        # A barrier under a lane-divergent condition is statically
        # refused by the vector engine; the scalar oracle raises
        # BarrierDivergence.
        src = """
        kernel void K(global float *x) {
          if (get_local_id(0) < 1) { barrier(CLK_LOCAL_MEM_FENCE); }
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        reason = refusal(program)
        assert reason is not None and "lane-divergent" in reason
        with pytest.raises(BarrierDivergence):
            launch(program, 2, 2, {"x": Buffer.zeros(2)}, engine="scalar")
        for engine in ("auto", "compiled"):
            with pytest.raises(CompileUnsupported, match="lane-divergent"):
                launch(program, 2, 2, {"x": Buffer.zeros(2)}, engine=engine)


class TestVectorGeometryBuiltins:
    """``dot``/``length`` use an explicitly-ordered reduction shared by
    both engines, so the vector engine runs vector-geometry kernels."""

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
        assert refusal(program) is None

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


class TestRefusalsAndRaces:
    def test_analysis_accepts_plain_kernel(self):
        program = OpenCLProgram(
            "kernel void K(global float *x) { x[get_global_id(0)] = 1.0f; }"
        )
        assert refusal(program) is None

    def test_analysis_rejects_barrier_plus_return(self):
        src = """
        kernel void K(global float *x, int n) {
          if (get_global_id(0) >= n) { return; }
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        reason = refusal(program)
        assert reason is not None and "return" in reason

    def test_analysis_rejects_unknown_function(self):
        src = "kernel void K(global float *x) { x[0] = mystery(x[0]); }"
        program = OpenCLProgram(src)
        assert refusal(program) is not None

    def test_a_dynamic_race_is_a_data_race(self):
        # Every work-item stages its value through the *same* scratch
        # cell — the scalar interpreter's sequential item order makes
        # this "work"; the vector engine must detect the cross-lane race
        # at run time and raise it.
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
        assert refusal(program) is None

        def args():
            return {"x": Buffer.from_array(x.copy()),
                    "scratch": Buffer.zeros(1), "out": Buffer.zeros(8)}

        # Every engine but scalar raises, in either layout, naming the
        # kernel and the engine's message.
        results = assert_engines_agree(src, 8, 4, args, races=True)
        for run in RUNS:
            assert isinstance(results[run], DataRace)
            assert str(results[run]).startswith("K: cross-lane ")

    def test_cross_group_race_across_barrier_is_a_data_race(self):
        # Barriers order work-items *within* a group, never groups; the
        # scalar engine runs groups sequentially (group 0 first), so a
        # cross-group conflict is order-dependent even when a barrier
        # separates the write from the read.  The vector engine must
        # detect it at any segment distance.
        src = """
        kernel void K(global float *flag, global float *out) {
          int i = get_global_id(0);
          if (get_group_id(0) == 1) { flag[0] = 1.0f; }
          barrier(CLK_LOCAL_MEM_FENCE);
          if (get_group_id(0) == 0) { out[i] = flag[0]; }
        }
        """
        program = OpenCLProgram(src)
        assert refusal(program) is None

        def args():
            return {"flag": Buffer.zeros(1), "out": Buffer.zeros(8)}

        # One block refuses the launch; a block per group orders the
        # groups as the scalar engine does.
        results = assert_engines_agree(src, 8, 4, args, races=True)
        assert isinstance(results["compiled", ONE], DataRace)
        # Group 0 runs first in the scalar engine, so it reads 0.0.
        np.testing.assert_array_equal(results["scalar"][0]["out"], np.zeros(8))

    @pytest.mark.parametrize("body, message", [
        # Every item stores tmp[0], then reads it back: the scalar order
        # reads each item's own value.
        ("tmp[0] = x[i]; out[i] = tmp[0];",
         "cross-lane read of an address written by another work-item"),
        # Each item reads its neighbour's cell, then stores its own: the
        # last item reads a cell the first already overwrote.
        ("tmp[l] = x[i]; barrier(CLK_LOCAL_MEM_FENCE);"
         " float v = tmp[(l + 1) % 8]; tmp[l] = v; out[i] = v;",
         "cross-lane write/read conflict"),
    ], ids=["read", "write"])
    def test_a_local_race_is_a_data_race(self, body, message):
        # Local memory of groups within one block: the packed detector
        # (_HazardLocal) raises on the read, or on the write.
        src = """
        kernel void K(const global float * restrict x, global float *out) {
          local float tmp[8];
          int l = get_local_id(0);
          int i = get_global_id(0);
          %s
        }""" % body
        results = assert_engines_agree(
            src, 16, 8,
            lambda: {"x": Buffer.from_array(np.arange(16.0)),
                     "out": Buffer.zeros(16)},
            races=True,
        )
        for run in RUNS:
            assert str(results[run]).startswith(f"K: {message}"), run

    def test_a_race_after_stores_is_a_data_race(self):
        # The race is only hit after some lanes already stored: the
        # launch stops there, its buffers unspecified.
        src = """
        kernel void K(global float *out, global float *scratch) {
          int i = get_global_id(0);
          out[i] = 7.0f;
          scratch[0] = (float) i;
          out[i] = out[i] + scratch[0];
        }
        """
        results = assert_engines_agree(
            src, 8, 8,
            lambda: {"out": Buffer.from_array(np.full(8, -1.0)),
                     "scratch": Buffer.zeros(1)},
            races=True,
        )
        assert all(isinstance(results[run], DataRace) for run in RUNS)

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

    def test_generated_double_staging_is_race_free(self):
        # The lane engine raises DataRace on a race, so agreement here
        # means ``compiled`` served the launch.
        from repro.compiler.codegen import compile_kernel
        from repro.compiler.options import CompilerOptions
        from repro.ir.interp import apply_fun
        from tests.programs import double_staged_rows

        prog = double_staged_rows()
        source = compile_kernel(
            prog, CompilerOptions(local_size=(4, 4, 1))
        ).source
        results = assert_engines_agree(
            source, (8, 8, 1), (4, 4, 1), self._double_staging_args,
        )
        outs_c, _ = results["compiled", ONE]
        nested = np.arange(256, dtype=float).reshape(2, 2, 4, 16).tolist()
        np.testing.assert_array_equal(
            outs_c["out"], np.asarray(apply_fun(prog, [nested], {})).ravel()
        )

    def test_pre_fix_double_staging_still_declines(self):
        # The fix is in the allocator; the hazard detector is unchanged
        # and still refuses the old kernel text.
        with pytest.raises(DataRace, match="^KERNEL: cross-lane read"):
            launch(
                OpenCLProgram(self.RACY_DOUBLE_STAGING), (8, 8, 1), (4, 4, 1),
                self._double_staging_args(), engine="compiled",
            )

    @pytest.mark.parametrize("engine, layout", ALL_RUNS)
    def test_vector_literal_arity_is_a_typed_error(self, engine, layout):
        # Neither a splat nor one item per component: the oracle raises,
        # the lane tiers refuse statically with the oracle's message, and
        # no tier writes the output (a tier that accepted the kernel used
        # to store uninitialised memory).
        src = """
        kernel void K(global float *x) {
          float4 v = (float4)(1.0f, 2.0f);
          x[get_global_id(0)] = v.z;
        }
        """
        x = Buffer.from_array(np.full(8, 7.0))
        error = ExecError if engine == "scalar" else CompileUnsupported
        with pytest.raises(error) as err, blocks(layout, 8, 4):
            launch(OpenCLProgram(src), 8, 4, {"x": x}, engine=engine)
        assert "vector literal float4 with 2 items" in str(err.value)
        np.testing.assert_array_equal(x.data, np.full(8, 7.0))

    def test_non_lvalue_assignment_is_a_static_decline(self):
        # The parser takes any expression left of ``=``; the plan is
        # where the lane tiers refuse it, the oracle where it raises.
        program = OpenCLProgram(
            "kernel void K(global float *x) { 3 = 1; x[0] = 1.0f; }"
        )
        reason = refusal(program)
        assert reason == "assignment to non-lvalue CInt"
        with pytest.raises(CompileUnsupported, match=reason):
            launch(program, 1, 1, {"x": Buffer.zeros(1)})
        with pytest.raises(ExecError, match="cannot assign to"):
            launch(program, 1, 1, {"x": Buffer.zeros(1)}, engine="scalar")

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

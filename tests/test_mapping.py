"""The dimension-aware mapping layer: nest assignment machinery, mapping
strategies, the 2-D tiling macro rule, size specialization, and the
parallelism-aware cost model."""

import numpy as np
import pytest

from repro.arith import Var
from repro.types import ArrayType, FLOAT, array
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir import patterns as pat
from repro.ir.dsl import lam, map_
from repro.ir.structural import structural_eq
from repro.ir.typecheck import infer_types
from repro.ir.visit import clone_decl, post_order
from repro.rewrite.mapping import (
    MappingStrategy,
    global_1d,
    global_nd,
    replace_map_nest,
    tile_2d,
    tiling_rules,
    untile_2d_indices,
    work_group_1d,
)
from repro.rewrite.lowering import (
    lower_inner_sequential,
    lower_to_global,
    lower_to_work_groups,
)
from repro.opencl.cost import (
    DEVICES,
    effective_parallelism,
    runtime_from_cycles,
    static_program_cost,
)


def _dbl():
    return UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                   py=lambda v: v * 2.0)


def _flat_program():
    x = Param(ArrayType(FLOAT, Var("N")), "x")
    return Lambda([x], map_(_dbl())(x))


def _nested_program():
    x = Param(array(FLOAT, Var("N"), Var("M")), "x")
    body = map_(lam(lambda row: map_(_dbl())(row)))(x)
    return Lambda([x], body)


class TestReplaceMapNest:
    def test_assigns_builders_outermost_first(self):
        prog = _nested_program()
        mapped = replace_map_nest(
            prog.body,
            [lambda f: pat.MapGlb(f, 1), lambda f: pat.MapGlb(f, 0)],
        )
        assert mapped is not None
        dims = [
            e.f.dim for e in post_order(mapped)
            if isinstance(e, FunCall) and isinstance(e.f, pat.MapGlb)
        ]
        # post-order yields the inner map first
        assert dims == [0, 1]

    def test_returns_none_when_nest_is_too_shallow(self):
        prog = _flat_program()
        assert replace_map_nest(
            prog.body,
            [lambda f: pat.MapGlb(f, 1), lambda f: pat.MapGlb(f, 0)],
        ) is None

    def test_single_builder_matches_old_outermost_replacement(self):
        prog = _nested_program()
        mapped = replace_map_nest(prog.body, [lambda f: pat.MapGlb(f, 0)])
        outer = [
            e for e in post_order(mapped)
            if isinstance(e, FunCall) and isinstance(e.f, pat.MapGlb)
        ]
        assert len(outer) == 1  # only the outermost map was lowered


class TestStrategies:
    def test_a_strategy_is_named_by_its_repr(self):
        assert repr(global_1d()).startswith("MappingStrategy(")

    def test_global_1d_backs_lower_to_global(self):
        lowered = lower_to_global(_flat_program())
        glbs = [
            e for e in post_order(lowered.body)
            if isinstance(e, FunCall) and isinstance(e.f, pat.MapGlb)
        ]
        assert len(glbs) == 1 and glbs[0].f.dim == 0

    def test_global_nd_produces_cross_dim_nest(self):
        mapped = global_nd((1, 0)).apply(_nested_program().body)
        assert mapped is not None
        dims = sorted(
            e.f.dim for e in post_order(mapped)
            if isinstance(e, FunCall) and isinstance(e.f, pat.MapGlb)
        )
        assert dims == [0, 1]

    def test_global_nd_inapplicable_on_flat_program(self):
        assert global_nd((1, 0)).apply(_flat_program().body) is None

    def test_work_group_1d_backs_lower_to_work_groups(self):
        lowered = lower_to_work_groups(_flat_program(), chunk=16)
        kinds = {
            type(e.f) for e in post_order(lowered.body)
            if isinstance(e, FunCall) and isinstance(e.f, pat.ParallelMap)
        }
        assert kinds == {pat.MapWrg, pat.MapLcl}

    def test_lowering_raises_without_a_spine_map(self):
        x = Param(ArrayType(FLOAT, Var("N")), "x")
        with pytest.raises(ValueError):
            lower_to_global(Lambda([x], FunCall(pat.Join(),
                [FunCall(pat.Split(4), [x])])))


class TestUntile2d:
    @pytest.mark.parametrize("nty,ntx,th,tw", [(2, 2, 2, 3), (3, 2, 4, 2)])
    def test_untile_is_the_inverse_of_tiling(self, nty, ntx, th, tw):
        rows, cols = nty * th, ntx * tw
        matrix = np.arange(rows * cols).reshape(rows, cols)
        # flatten tile-by-tile, row-major inside each tile
        tiled = [
            matrix[ty * th + py, tx * tw + px]
            for ty in range(nty) for tx in range(ntx)
            for py in range(th) for px in range(tw)
        ]
        from repro.arith import Cst

        fn = untile_2d_indices(Cst(nty), Cst(ntx), Cst(th), Cst(tw), Cst(cols))
        out = np.empty(rows * cols, dtype=int)
        for i, v in enumerate(tiled):
            out[fn.eval(i, rows * cols)] = v
        assert np.array_equal(out, matrix.ravel())


class TestTile2d:
    def _mm(self):
        from repro.benchsuite.common import get_benchmark

        bench = get_benchmark("mm-nvidia")
        inputs, size_env = bench.inputs_for("small")
        return bench.high_level(size_env), inputs, size_env

    def test_matches_only_the_independent_two_deep_nest(self):
        hl, _, _ = self._mm()
        from repro.rewrite.strategies import find_matches

        assert len(find_matches(tile_2d(8, 8), hl.body)) == 1
        # gemv's inner map depends on the outer row; no match
        from repro.benchsuite.common import get_benchmark

        gemv = get_benchmark("gemv")
        _, size_env = gemv.inputs_for("small")
        assert not find_matches(tile_2d(8, 8), gemv.high_level(size_env).body)

    @pytest.mark.parametrize("stage", [False, True])
    def test_tiled_mm_is_bitwise_correct(self, stage):
        from repro.compiler.codegen import compile_kernel
        from repro.compiler.kernel import execute_kernel
        from repro.compiler.options import CompilerOptions
        from repro.rewrite.explore import (
            _collect_parallel,
            _geometry,
            _mapped_variants,
            _nesting_ok,
            reference_output,
            specialize_sizes,
        )
        from repro.rewrite.strategies import one_step_rewrites

        hl, inputs, size_env = self._mm()
        body = one_step_rewrites(tile_2d(8, 8, stage=stage), hl.body)[0]
        fin = lower_inner_sequential(_mapped_variants(body)[0][0])
        prog = clone_decl(Lambda(list(hl.params), fin))
        typed = clone_decl(prog)
        infer_types(typed.body)
        assert _nesting_ok(typed.body)
        parallel = _collect_parallel(typed.body)
        local, glob = _geometry(parallel, size_env)
        assert local == (8, 8, 1) and glob == (16, 16, 1)
        if stage:
            assert any(s for _, _, _, s in parallel), "staging maps flagged"

        kernel = compile_kernel(
            specialize_sizes(prog, size_env), CompilerOptions(local_size=local)
        )
        run = execute_kernel(
            kernel, {p.name: inputs[p.name] for p in prog.params},
            size_env, glob, local_size=local,
        )
        ref = reference_output(hl, inputs, size_env)
        assert np.array_equal(np.asarray(run.output, dtype=float).ravel(), ref)
        if stage:
            assert run.counters.local_loads > 0  # tiles actually staged

    def test_tiling_rules_cover_staged_and_unstaged(self):
        names = [r.name for r in tiling_rules(((4, 4),))]
        assert names == ["tile-2d(4x4)", "tile-2d(4x4,toLocal)"]


class TestSpecializeSizes:
    def test_param_types_and_payloads_become_concrete(self):
        from repro.rewrite.explore import specialize_sizes
        from repro.arith import simplify

        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = FunCall(pat.Join(), [FunCall(pat.Split(n // 4), [x])])
        spec = specialize_sizes(Lambda([x], body), {"N": 16})
        assert str(simplify(spec.params[0].type.length)) == "16"
        splits = [
            e.f for e in post_order(spec.body)
            if isinstance(e, FunCall) and isinstance(e.f, pat.Split)
        ]
        assert splits and splits[0].n.try_int() == 4


class TestParallelismAwareCost:
    def test_effective_parallelism_caps_and_pads(self):
        profile = DEVICES["nvidia"]
        # one thread can never be "less than one"
        assert effective_parallelism(profile, (1, 1, 1), (1, 1, 1)) == 1.0
        # a full 2-D launch counts every item while under the limit
        assert effective_parallelism(profile, (16, 16, 1), (8, 8, 1)) == 256.0
        # over the occupancy limit the width saturates
        huge = effective_parallelism(profile, (1 << 20, 1, 1), (64, 1, 1))
        assert huge == profile.occupancy_limit()
        # partially filled warps waste lanes
        sparse = effective_parallelism(profile, (1 << 20, 1, 1), (8, 1, 1))
        assert sparse == profile.occupancy_limit() * (8 / 32)

    def test_runtime_prefers_wider_schedule(self):
        profile = DEVICES["nvidia"]
        narrow = runtime_from_cycles(100_000.0, profile, (16, 1, 1), (16, 1, 1))
        wide = runtime_from_cycles(130_000.0, profile, (16, 16, 1), (8, 8, 1))
        assert wide < narrow  # more work, many more threads

    def test_static_cost_ranks_tiled_staged_mm_first(self):
        """Parallelism-aware static ordering on real schedules:
        staged 2-D tile < unstaged 2-D tile < flat 1-D lowering."""
        from repro.benchsuite.common import get_benchmark
        from repro.rewrite.explore import (
            _collect_parallel, _geometry, _mapped_variants,
        )
        from repro.rewrite.strategies import one_step_rewrites

        bench = get_benchmark("mm-nvidia")
        _, size_env = bench.inputs_for("small")
        hl = bench.high_level(size_env)
        profile = DEVICES["nvidia"]

        def cost_of(body):
            fin = lower_inner_sequential(_mapped_variants(body)[0][0])
            typed = clone_decl(Lambda(list(hl.params), fin))
            infer_types(typed.body)
            local, glob = _geometry(_collect_parallel(typed.body), size_env)
            return static_program_cost(
                typed, size_env, profile, local_size=local, global_size=glob
            )

        staged = cost_of(one_step_rewrites(tile_2d(8, 8, True), hl.body)[0])
        unstaged = cost_of(one_step_rewrites(tile_2d(8, 8, False), hl.body)[0])
        flat = cost_of(hl.body)  # finishing lowers it to flat mapGlb
        assert staged < unstaged < flat

    def test_static_cost_still_penalizes_pure_bloat(self):
        """At identical geometry, redundant extra work must still rank
        behind the lean schedule (the original pruning property)."""
        from repro.rewrite.lowering import lower_to_global

        profile = DEVICES["nvidia"]
        lean = lower_to_global(_flat_program())
        # same schedule with a pointless double application
        x = Param(ArrayType(FLOAT, Var("N")), "x")
        bloated = Lambda(
            [x],
            FunCall(pat.MapGlb(lam(
                lambda v: FunCall(_dbl(), [FunCall(_dbl(), [v])])
            ), 0), [x]),
        )
        size_env = {"N": 256}
        geometry = ((64, 1, 1), (256, 1, 1))
        for program in (lean, bloated):  # the model reads types only
            infer_types(program.body)
        lean_cost = static_program_cost(
            lean, size_env, profile,
            local_size=geometry[0], global_size=geometry[1],
        )
        bloated_cost = static_program_cost(
            bloated, size_env, profile,
            local_size=geometry[0], global_size=geometry[1],
        )
        assert lean_cost < bloated_cost

"""Tests for the unrolled patterns and compiler options."""

import numpy as np
import pytest

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import FunCall, Lambda, Param
from repro.ir.dsl import (
    add,
    compose,
    f32,
    get,
    id_fun,
    join,
    lam2,
    map_glb,
    map_seq_unroll,
    map_wrg,
    map_lcl,
    map_seq,
    mult_and_sum_up,
    reduce_seq,
    reduce_seq_unroll,
    split,
    to_global,
    to_local,
    zip_,
)
from repro.ir.interp import apply_fun
from repro.compiler import CompilerOptions, compile_kernel
from repro.compiler.codegen import CodeGenError
from repro.compiler.kernel import compile_and_run


class TestUnrolledPatterns:
    def test_reduce_unroll_emits_no_loop(self):
        x = Param(ArrayType(FLOAT, 4), "x")
        prog = Lambda(
            [x], map_glb(id_fun())(reduce_seq_unroll(add(), f32(0.0))(x))
        )
        # reduce over a 4-element array inside a 1-trip map
        src = compile_kernel(
            prog, CompilerOptions(local_size=(1, 1, 1), global_size=(1, 1, 1))
        ).source
        assert src.count("= add(") == 4  # four straight-line accumulations

    def test_unrolled_reduce_correct(self):
        n = 32
        x = Param(ArrayType(FLOAT, n), "x")
        body = compose(
            join(),
            map_glb(reduce_seq_unroll(add(), f32(0.0))),
            split(4),
        )(x)
        prog = Lambda([x], body)
        data = np.arange(n, dtype=float)
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=n // 4,
            options=CompilerOptions(local_size=(4, 1, 1)),
        )
        np.testing.assert_allclose(result.output, data.reshape(-1, 4).sum(axis=1))

    def test_unrolled_map_correct(self):
        n = 16
        x = Param(ArrayType(FLOAT, n), "x")
        body = compose(
            join(), map_glb(map_seq_unroll(id_fun())), split(4)
        )(x)
        prog = Lambda([x], body)
        data = np.arange(n, dtype=float)
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=n // 4,
            options=CompilerOptions(local_size=(4, 1, 1)),
        )
        np.testing.assert_allclose(result.output, data)

    def test_unroll_requires_concrete_length(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        prog = Lambda(
            [x], map_glb(id_fun())(reduce_seq_unroll(add(), f32(0.0))(x))
        )
        with pytest.raises(CodeGenError):
            compile_kernel(prog)

    def test_interp_semantics_match_looped(self):
        x = Param(ArrayType(FLOAT, 8), "x")
        looped = Lambda([x], reduce_seq(add(), f32(0.0))(x))
        y = Param(ArrayType(FLOAT, 8), "y")
        unrolled = Lambda([y], reduce_seq_unroll(add(), f32(0.0))(y))
        data = [float(i) for i in range(8)]
        assert apply_fun(looped, [data]) == apply_fun(unrolled, [data])


class TestCompilerOptions:
    def test_levels_differ(self):
        none = CompilerOptions.none()
        full = CompilerOptions.all()
        assert not none.array_access_simplification
        assert full.array_access_simplification
        assert not none.control_flow_simplification
        assert not none.barrier_elimination

    def test_an_override_keeps_the_other_knobs(self):
        opts = CompilerOptions(local_size=(32, 1, 1))
        assert opts.local_size == (32, 1, 1)
        assert opts.array_access_simplification

    def test_every_kernel_is_named_by_the_codegen_constant(self):
        """The kernel name is not an option: ``KERNEL_NAME`` names every
        compiled kernel at every level, so it is no part of a cache key."""
        from dataclasses import fields

        from repro.compiler.codegen import KERNEL_NAME

        assert "kernel_name" not in {f.name for f in fields(CompilerOptions)}
        x = Param(ArrayType(FLOAT, 64), "x")
        for level in (CompilerOptions.none, CompilerOptions.all):
            kernel = compile_kernel(
                Lambda([x], map_glb(id_fun())(x)), level(), memo=False
            )
            assert kernel.name == KERNEL_NAME == "KERNEL"
            assert f"kernel void {KERNEL_NAME}(" in kernel.source

    def test_options_are_frozen(self):
        opts = CompilerOptions()
        with pytest.raises(Exception):
            opts.local_size = (1, 1, 1)  # type: ignore[misc]

    def test_barrier_counts_respond_to_elimination(self):
        """Barrier elimination removes barriers from an elementwise
        mapLcl chain."""
        x = Param(ArrayType(FLOAT, 64), "x")
        body = compose(
            join(),
            map_wrg(
                compose(
                    to_global(map_lcl(id_fun())),
                    to_local(map_lcl(id_fun())),
                )
            ),
            split(16),
        )(x)

        def build():
            import repro.ir.visit as visit

            return Lambda([x], visit.clone_expr(body, {x: x}))

        with_elim = compile_kernel(
            build(), CompilerOptions(local_size=(16, 1, 1))
        ).source
        without = compile_kernel(
            build(), CompilerOptions(local_size=(16, 1, 1),
                                     barrier_elimination=False)
        ).source
        assert with_elim.count("barrier(") < without.count("barrier(")

    def test_cf_simplification_removes_loops(self):
        from tests.programs import partial_dot

        with_cf = compile_kernel(
            partial_dot(), CompilerOptions(local_size=(64, 1, 1))
        ).source
        without = compile_kernel(
            partial_dot(),
            CompilerOptions(local_size=(64, 1, 1),
                            control_flow_simplification=False),
        ).source
        assert with_cf.count("for (") < without.count("for (")

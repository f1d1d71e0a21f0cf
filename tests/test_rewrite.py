"""Tests for the rewrite system: every rule preserves semantics."""

import numpy as np
import pytest

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir.dsl import (
    add,
    compose,
    f32,
    id_fun,
    join,
    map_,
    map_seq,
    pipe,
    reduce_,
    split,
    transpose,
    zip_,
)
from repro.ir import patterns as pat
from repro.ir.interp import apply_fun, evaluate
from repro.compiler.kernel import compile_and_run
from repro.rewrite import (
    apply_at,
    apply_everywhere,
    exhaustively,
    find_matches,
    rewrite_first,
)
from repro.rewrite.rules import (
    join_split_cancel,
    map_fusion,
    map_reduce_fusion,
    map_to_glb,
    map_to_seq,
    reduce_to_seq,
    scalar_vector_cancel,
    split_join,
    transpose_transpose_cancel,
    vectorize_map,
)
from repro.rewrite.lowering import lower_to_global, lower_to_work_groups


def plus_one():
    return UserFun("plusOne", ["v"], "return v + 1.0f;", [FLOAT], FLOAT,
                   py=lambda v: v + 1.0)


def times_two():
    return UserFun("timesTwo", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                   py=lambda v: v * 2.0)


def high_level_program():
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), "x")
    return Lambda([x], map_(plus_one())(x))


DATA = [float(i) for i in range(16)]


def results_equal(fun_a, fun_b, args=None, size_env=None):
    args = args if args is not None else [list(DATA)]
    size_env = size_env or {"N": len(DATA)}
    return apply_fun(fun_a, args, size_env) == apply_fun(fun_b, args, size_env)


class TestLoweringRules:
    def test_map_to_seq(self):
        prog = high_level_program()
        lowered = rewrite_first(map_to_seq(), prog.body)
        assert lowered is not None
        assert isinstance(lowered.f, pat.MapSeq)
        assert evaluate(lowered, {prog.params[0]: DATA}) == [v + 1 for v in DATA]

    def test_map_to_glb(self):
        prog = high_level_program()
        lowered = rewrite_first(map_to_glb(0), prog.body)
        assert isinstance(lowered.f, pat.MapGlb)

    def test_reduce_to_seq(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        prog = Lambda([x], reduce_(add(), f32(0.0))(x))
        lowered = rewrite_first(reduce_to_seq(), prog.body)
        assert lowered is not None
        assert len(find_matches(reduce_to_seq(), lowered)) == 0
        assert evaluate(lowered, {x: DATA}) == [sum(DATA)]

    def test_no_match_returns_none(self):
        prog = high_level_program()
        lowered = rewrite_first(map_to_seq(), prog.body)
        assert rewrite_first(map_to_seq(), lowered) is None


class TestAlgorithmicRules:
    def test_split_join_preserves_semantics(self):
        prog = high_level_program()
        tiled = rewrite_first(split_join(4), prog.body)
        assert tiled is not None
        original = evaluate(prog.body, {prog.params[0]: DATA}, {"N": 16})
        rewritten = evaluate(tiled, {prog.params[0]: DATA}, {"N": 16})
        assert original == rewritten

    def test_map_fusion(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = map_(plus_one())(map_(times_two())(x))
        fused = rewrite_first(map_fusion(), body)
        assert fused is not None
        assert len(find_matches(map_fusion(), fused)) == 0
        assert evaluate(fused, {x: DATA}) == [v * 2 + 1 for v in DATA]

    def test_map_reduce_fusion(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = FunCall(
            pat.ReduceSeq(add()), [f32(0.0), map_seq(times_two())(x)]
        )
        fused = rewrite_first(map_reduce_fusion(), body)
        assert fused is not None
        assert evaluate(fused, {x: DATA}) == [sum(v * 2 for v in DATA)]

    def test_vectorize_map(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = map_(times_two())(x)
        vectorized = rewrite_first(vectorize_map(4), body)
        assert vectorized is not None
        assert isinstance(vectorized.f, pat.AsScalar)
        assert evaluate(vectorized, {x: DATA}) == [v * 2 for v in DATA]


class TestSimplificationRules:
    def test_join_split_cancel(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = pipe(x, split(4), join())
        cancelled = rewrite_first(join_split_cancel(), body)
        assert cancelled is x

    def test_transpose_cancel(self):
        from repro.types import array

        x = Param(array(FLOAT, 4, 4), "x")
        body = transpose()(transpose()(x))
        assert rewrite_first(transpose_transpose_cancel(), body) is x

    def test_exhaustive_simplification(self):
        from repro.rewrite.rules import simplification_rules

        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = pipe(x, split(4), join(), split(8), join())
        simplified = exhaustively(simplification_rules(), body)
        assert simplified is x


class TestStrategies:
    def test_find_matches_counts(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = map_(plus_one())(map_(times_two())(x))
        assert len(find_matches(map_to_seq(), body)) == 2

    def test_apply_at_position(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = map_(plus_one())(map_(times_two())(x))
        first = apply_at(map_to_seq(), body, 0)
        both = apply_everywhere(map_to_seq(), body)
        assert len(find_matches(map_to_seq(), first)) == 1
        assert len(find_matches(map_to_seq(), both)) == 0

    def test_apply_at_out_of_range(self):
        prog = high_level_program()
        with pytest.raises(ValueError):
            apply_at(map_to_seq(), prog.body, 5)


class TestLoweringRecipes:
    def test_lower_to_global_compiles_and_runs(self):
        from repro.compiler.options import CompilerOptions

        prog = high_level_program()
        lowered = lower_to_global(prog)
        data = np.arange(32, dtype=float)
        result = compile_and_run(
            lowered, {"x": data}, {"N": 32}, global_size=32,
            options=CompilerOptions(local_size=(8, 1, 1)),
        )
        np.testing.assert_allclose(result.output, data + 1)

    def test_lower_to_work_groups_compiles_and_runs(self):
        from repro.compiler.options import CompilerOptions

        prog = high_level_program()
        lowered = lower_to_work_groups(prog, chunk=16)
        data = np.arange(64, dtype=float)
        result = compile_and_run(
            lowered, {"x": data}, {"N": 64}, global_size=64,
            options=CompilerOptions(local_size=(16, 1, 1)),
        )
        np.testing.assert_allclose(result.output, data + 1)

    def test_lowering_rejects_programs_without_maps(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        prog = Lambda([x], pipe(x, split(4), join()))
        with pytest.raises(ValueError):
            lower_to_global(prog)


class TestCancellations:
    def test_split_after_join_and_scalar_after_vector_cancel(self):
        from repro.ir.typecheck import infer_types
        from repro.rewrite.rules import split_join_cancel

        x = Param(ArrayType(ArrayType(FLOAT, 4), Var("N")), "x")
        call = split(4)(join()(x))
        infer_types(call)
        assert split_join_cancel().apply(call) is x
        other = split(2)(join()(x))
        infer_types(other)
        assert split_join_cancel().apply(other) is None
        y = Param(ArrayType(FLOAT, Var("N")), "y")
        assert scalar_vector_cancel().apply(pat.AsScalar()(pat.AsVector(4)(y))) is y
        assert repr(split_join_cancel()) == "Rule(split o join = id)"

    def test_vectorize_refuses_a_length_it_does_not_divide(self):
        from repro.ir.typecheck import infer_types

        x = Param(ArrayType(FLOAT, 6), "x")
        call = map_(id_fun())(x)
        infer_types(call)
        assert vectorize_map(4).apply(call) is None

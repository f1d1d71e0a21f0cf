"""The reference interpreter's closures: errors, binding and threads.

``ir.interp`` translates a program into closures once per call.  An
error is raised with the tree-walker's type and message and only when
its node is reached; a parameter reads the binding of the innermost
lambda applied to it; nothing is shared between two calls."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.arith import Var
from repro.ir.dsl import (
    add,
    as_vector,
    f32,
    gather,
    head,
    iterate,
    lam,
    map_,
    mult,
    scatter,
    split,
    vec_literal,
    zip_,
)
from repro.ir.interp import VecValue, apply_fun, evaluate
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir.patterns import transpose_indices
from repro.types import FLOAT
from tests.programs import high_level_case

NO_PY = UserFun("opaque", ["x"], "return x;", [FLOAT], FLOAT)


def call(f, *args):
    return FunCall(f, list(args))


class TestErrors:
    def test_unbound_parameter(self):
        x = Param(FLOAT, "x")
        with pytest.raises(KeyError) as info:
            evaluate(call(add(), x, f32(1.0)), {})
        assert info.value.args == ("unbound parameter x",)

    def test_user_function_without_python(self):
        with pytest.raises(
            NotImplementedError,
            match="^user function opaque has no Python semantics$",
        ):
            apply_fun(map_(NO_PY), [[1.0, 2.0]])

    def test_unreached_user_function_without_python_raises_nothing(self):
        assert apply_fun(map_(NO_PY), [[]]) == []

    def test_split_that_does_not_divide(self):
        with pytest.raises(
            ValueError, match=r"^split\(4\) of array of length 6$"
        ):
            apply_fun(split(4), [[0.0] * 6])

    def test_as_vector_that_does_not_divide(self):
        with pytest.raises(
            ValueError, match=r"^asVector\(4\) of array of length 6$"
        ):
            apply_fun(as_vector(4), [[0.0] * 6])

    def test_zip_of_different_lengths(self):
        a, b = Param(name="a"), Param(name="b")
        with pytest.raises(
            ValueError, match="^zip of arrays with different lengths$"
        ):
            evaluate(zip_(a, b), {a: [1.0, 2.0], b: [1.0]})

    def test_size_payloads_are_evaluated_when_applied(self):
        """A split factor or iterate count with no value in the size
        environment fails where its node runs, never on translation."""
        k = Var("K")
        assert apply_fun(map_(split(k)), [[]]) == []
        assert apply_fun(map_(iterate(k, map_(NO_PY))), [[]]) == []
        with pytest.raises(KeyError, match="no value for variable 'K'"):
            apply_fun(map_(split(k)), [[[1.0, 2.0]]])
        assert apply_fun(split(k), [[1.0, 2.0]], {"K": 1}) == [[1.0], [2.0]]
        assert apply_fun(iterate(k, map_(lam(lambda x: call(add(), x, x)))),
                         [[1.0]], {"K": 3}) == [8.0]


    def test_a_permutation_over_a_size_variable_takes_the_sizes(self):
        # i -> (i mod N) * 2 + i / N, with N from the size environment.
        permute = transpose_indices(Var("N"), 2)
        transposed = [0, 2, 4, 6, 1, 3, 5, 7]
        assert apply_fun(gather(permute), [list(range(8))], {"N": 4}) == transposed
        assert apply_fun(scatter(permute), [transposed], {"N": 4}) == list(range(8))
        with pytest.raises(ValueError, match=r"transpose\(N,2\) did not evaluate$"):
            apply_fun(gather(permute), [list(range(8))])


class TestBinding:
    def test_a_parameter_bound_by_two_lambdas_reads_its_own(self):
        """``p`` binds both lambdas; after the inner one returns, the
        outer body reads the outer binding again."""
        p = Param(FLOAT, "p")
        inner = Lambda([p], call(mult(), p, f32(2.0)))
        outer = Lambda([p], call(add(), call(inner, f32(10.0)), p))
        assert apply_fun(outer, [1.0]) == 21.0

    def test_a_map_over_a_shared_parameter_restores_it(self):
        """The same through a map, whose lambda the interpreter inlines."""
        p, xs = Param(FLOAT, "p"), Param(name="xs")
        doubled = map_(Lambda([p], call(mult(), p, f32(2.0))))
        outer = Lambda([p, xs], call(add(), head(call(doubled, xs)), p))
        assert apply_fun(outer, [1.0, [10.0, 20.0]]) == 21.0

    def test_vector_literal_broadcasts(self):
        value = evaluate(vec_literal(0.5, 4), {})
        assert isinstance(value, VecValue)
        assert value == VecValue([0.5] * 4)


def test_threads_interpreting_one_program_share_nothing():
    """Eight threads interpret nn's program at once, each on inputs of
    its own, with a short switch interval so they interleave inside
    the closures: each gets what a serial run gives."""
    _, program, args, size_env, _ = high_level_case("nn")

    def run(scale: float) -> np.ndarray:
        lats = [x * scale for x in args[0]]
        return np.asarray(
            apply_fun(program, [lats, *args[1:]], size_env), dtype=float
        )

    scales = [1.0 + i / 8 for i in range(8)]
    expected = [run(s) for s in scales]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, s) for s in scales * 2]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, expected * 2):
        assert got.tobytes() == want.tobytes()

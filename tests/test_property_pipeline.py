"""Property-based differential testing of the whole compiler.

Random compositions of data-layout patterns are applied to an input
array, materialized with a parallel map, compiled to OpenCL and executed
on the simulator — the result must match the reference IR interpreter
for every optimization level.  This is the strongest single check of the
view system's correctness.

The row-reduction programs put a ``reduceSeq`` under the ``mapGlb``
whose user function reads a loop-invariant operand, the same operand
twice and a data-dependent gather — the shapes ``compiler/hoist.py``
rewrites — and hold every level and every engine to the interpreter
bitwise.

The work-group-tiled reductions (``tests.programs.tiled_outer_sums``)
do the same for a ``reduceSeq`` over ``toLocal``-staged tiles whose
array accumulator is private or local, one or two slots per work-item:
the kernels whose barriers ``compiler/barriers.py`` thins out, so the
lane-batched engines' hazard detector must also have nothing to decline.
Both also hold the closure compiler's static types to the values
(``tests.programs.checked_static_types``): every node typed, every
value of its type.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.types import ArrayType, FLOAT, INT
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir.dsl import (
    compose,
    f32,
    gather,
    get,
    id_fun,
    join,
    lam,
    lam2,
    map_glb,
    map_seq,
    reduce_seq,
    scatter,
    split,
    to_global,
    to_local,
    to_private,
    transpose,
    zip_,
)
from repro.ir.patterns import (
    Filter,
    reverse_indices,
    shift_indices,
    stride_indices,
)
from repro.ir.interp import apply_fun
from repro.compiler.kernel import compile_and_run
from repro.compiler.options import CompilerOptions

N = 24  # divisible by 2, 3, 4, 6, 8, 12


def plus_one():
    return UserFun("plusOne", ["v"], "return v + 1.0f;", [FLOAT], FLOAT,
                   py=lambda v: v + 1.0)


# Length-preserving layout transformations on a 1-D array of length N.
_LAYOUT_STAGES = {
    "reverse": lambda: [gather(reverse_indices())],
    "shift3": lambda: [gather(shift_indices(3))],
    "shift7": lambda: [gather(shift_indices(7))],
    "stride4": lambda: [gather(stride_indices(4))],
    "split2_join": lambda: [join(), split(2)],
    "split4_join": lambda: [join(), split(4)],
    "transpose_6x4": lambda: [join(), transpose(), split(4)],
    "transpose_3x8": lambda: [join(), transpose(), split(8)],
}

_stage_names = st.lists(
    st.sampled_from(sorted(_LAYOUT_STAGES)), min_size=0, max_size=4
)

_levels = st.sampled_from(["none", "barrier_cf", "all"])


def _build_program(stage_names):
    x = Param(ArrayType(FLOAT, N), "x")
    fs = [map_glb(plus_one())]
    for name in stage_names:
        fs.extend(_LAYOUT_STAGES[name]())
    return Lambda([x], compose(*fs)(x))


@given(_stage_names, _levels)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_read_pipelines_match_interpreter(stage_names, level):
    """map(plusOne) after a random chain of layout views."""
    program = _build_program(stage_names)
    data = np.arange(N, dtype=float)

    expected = apply_fun(program, [data.tolist()], {})
    options = {
        "none": CompilerOptions.none,
        "barrier_cf": CompilerOptions.barrier_cf,
        "all": CompilerOptions.all,
    }[level](local_size=(8, 1, 1))
    result = compile_and_run(
        program, {"x": data}, {}, global_size=N, options=options
    )
    np.testing.assert_allclose(result.output, np.asarray(expected, dtype=float))


_write_perms = st.sampled_from(["reverse", "shift3", "stride4"])


@given(_write_perms, _levels)
@settings(max_examples=30, deadline=None)
def test_scatter_write_pipelines_match_interpreter(perm_name, level):
    """Writing through a scatter permutation."""
    perms = {
        "reverse": reverse_indices,
        "shift3": lambda: shift_indices(3),
        "stride4": lambda: stride_indices(4),
    }
    x = Param(ArrayType(FLOAT, N), "x")
    body = scatter(perms[perm_name]())(map_glb(plus_one())(x))
    program = Lambda([x], body)
    data = np.arange(N, dtype=float)

    expected = apply_fun(program, [data.tolist()], {})
    options = {
        "none": CompilerOptions.none,
        "barrier_cf": CompilerOptions.barrier_cf,
        "all": CompilerOptions.all,
    }[level](local_size=(8, 1, 1))
    result = compile_and_run(
        program, {"x": data}, {}, global_size=N, options=options
    )
    np.testing.assert_allclose(result.output, np.asarray(expected, dtype=float))


@given(st.integers(1, 6), st.integers(0, 11))
@settings(max_examples=40, deadline=None)
def test_gather_scatter_roundtrip(shift_a, shift_b):
    """scatter(f) o gather(f) over any writes is the identity layout."""
    x = Param(ArrayType(FLOAT, N), "x")
    body = scatter(shift_indices(shift_a))(
        map_glb(plus_one())(gather(shift_indices(shift_a))(x))
    )
    program = Lambda([x], body)
    data = np.arange(N, dtype=float) + shift_b
    result = compile_and_run(
        program, {"x": data}, {}, global_size=N,
        options=CompilerOptions(local_size=(8, 1, 1)),
    )
    np.testing.assert_allclose(result.output, data + 1.0)


def _weighted_rows(stage_names, row):
    """Per row of ``layout(x)``: sum of ``a * a + w[idx] * s[row]``."""
    x = Param(ArrayType(FLOAT, N), "x")
    w = Param(ArrayType(FLOAT, N), "w")
    s = Param(ArrayType(FLOAT, N // row), "s")
    idx = Param(ArrayType(INT, N), "idx")
    acc_fun = UserFun(
        "weigh", ["acc", "a", "b", "g", "k"], "return acc + a * b + g * k;",
        [FLOAT] * 5, FLOAT, py=lambda acc, a, b, g, k: acc + a * b + g * k,
    )

    def per_row(p):
        scale, values, picks = get(p, 0), get(p, 1), get(p, 2)
        step = lam2(
            lambda acc, q: FunCall(
                acc_fun, [acc, get(q, 0), get(q, 0), get(q, 1), scale]
            )
        )
        total = reduce_seq(step, f32(0.0))(
            zip_(values, FunCall(Filter(), [w, picks]))
        )
        return to_global(map_seq(id_fun()))(total)

    stages = [f for name in stage_names for f in _LAYOUT_STAGES[name]()]
    rows = zip_(s, compose(split(row), *stages)(x), split(row)(idx))
    return Lambda([x, w, s, idx], join()(map_glb(lam(per_row))(rows)))


@given(
    st.lists(st.sampled_from(sorted(_LAYOUT_STAGES)), min_size=0, max_size=2),
    st.sampled_from([2, 3, 4, 6]),
    st.integers(0, 2**31),
)
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,  # the fixed-seed slice tier-1 runs (about 1 s)
    suppress_health_check=[HealthCheck.too_slow],
)
def test_row_reductions_match_interpreter_on_every_engine(stage_names, row, seed):
    from tests.programs import checked_static_types

    rng = np.random.default_rng(seed)
    inputs = {
        "x": rng.standard_normal(N),
        "w": rng.standard_normal(N),
        "s": rng.standard_normal(N // row),
        "idx": rng.integers(0, N, N),
    }
    program = _weighted_rows(stage_names, row)
    expected = np.asarray(
        apply_fun(program, [v.tolist() for v in inputs.values()], {}),
        dtype=float,
    )
    for level in (CompilerOptions.none, CompilerOptions.barrier_cf, CompilerOptions.all):
        with checked_static_types():
            runs = [
                compile_and_run(
                    _weighted_rows(stage_names, row), inputs, {},
                    global_size=N // row, options=level(local_size=(2, 1, 1)),
                    engine=engine,
                )
                for engine in ("scalar", "compiled", "fused")
            ]
        for run in runs:
            assert run.output.tobytes() == expected.tobytes()
            assert vars(run.counters) == vars(runs[0].counters)


LOCAL = 8


@given(
    st.sampled_from([to_private, to_local]),
    st.sampled_from([LOCAL, 2 * LOCAL]),
    st.sampled_from([4, 8]),
    st.integers(0, 2**31),
)
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,  # the fixed-seed slice tier-1 runs (about 1 s)
    suppress_health_check=[HealthCheck.too_slow],
)
def test_tiled_reductions_match_interpreter_on_every_engine(
    acc_space, chunk, tile, seed
):
    from repro import faultinject
    from repro.backend import ledger
    from tests.programs import checked_static_types, tiled_outer_sums

    rng = np.random.default_rng(seed)
    inputs = {"x": rng.standard_normal(2 * chunk), "y": rng.standard_normal(3 * tile)}
    expected = np.asarray(
        apply_fun(
            tiled_outer_sums(acc_space, chunk, tile),
            [v.tolist() for v in inputs.values()], {},
        ),
        dtype=float,
    )
    with faultinject.plan_installed(None):  # injected faults decline tiers
        ledger.clear()
        for level in (CompilerOptions.none, CompilerOptions.barrier_cf, CompilerOptions.all):
            with checked_static_types():
                runs = [
                    compile_and_run(
                        tiled_outer_sums(acc_space, chunk, tile), inputs, {},
                        global_size=2 * LOCAL, options=level(local_size=(LOCAL, 1, 1)),
                        engine=engine,
                    )
                    for engine in ("scalar", "compiled", "fused")
                ]
            for run in runs:
                assert run.output.tobytes() == expected.tobytes()
                assert vars(run.counters) == vars(runs[0].counters)
        # A hazard decline on compiler output is a compiler bug.
        assert not ledger.events()

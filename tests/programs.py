"""Shared Lift IL programs used across the test suite.

The central one is the paper's Listing 1: the partial dot product.
"""

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import FunCall, Lambda, Param
from repro.ir.dsl import (
    add,
    compose,
    f32,
    get,
    id_fun,
    iterate,
    join,
    lam,
    lam2,
    map_lcl,
    map_seq,
    map_wrg,
    mult_and_sum_up,
    reduce_seq,
    split,
    to_global,
    to_local,
    zip_,
)


def partial_dot(n=None):
    """Listing 1: the partial dot product, one work-group per 128 elements.

    Returns a ``Lambda`` with two array parameters of length ``n`` (a fresh
    ``N`` variable if not given).
    """
    length = n if n is not None else Var("N")
    x = Param(ArrayType(FLOAT, length), "x")
    y = Param(ArrayType(FLOAT, length), "y")

    musu = mult_and_sum_up()
    reduce_pairs = lam2(
        lambda acc, xy: FunCall(musu, [acc, get(xy, 0), get(xy, 1)])
    )

    work_group = compose(
        join(),
        to_global(map_lcl(map_seq(id_fun()))),
        split(1),
        iterate(
            6,
            compose(
                join(),
                map_lcl(compose(to_local(map_seq(id_fun())), reduce_seq(add(), f32(0.0)))),
                split(2),
            ),
        ),
        join(),
        map_lcl(compose(to_local(map_seq(id_fun())), reduce_seq(reduce_pairs, f32(0.0)))),
        split(2),
    )

    body = compose(join(), map_wrg(work_group), split(128))(zip_(x, y))
    return Lambda([x, y], body)


def plus_one():
    from repro.ir.nodes import UserFun

    return UserFun(
        "plusOne", ["v"], "return v + 1.0f;", [FLOAT], FLOAT, py=lambda v: v + 1.0
    )


def simple_map_add_one(n=None):
    """mapGlb(plus_one) over a float array — the smallest useful kernel."""
    from repro.ir.dsl import map_glb

    length = n if n is not None else Var("N")
    x = Param(ArrayType(FLOAT, length), "x")
    return Lambda([x], map_glb(plus_one())(x))


def double_staged_rows(rows=4, cols=16):
    """A 2 x 2 grid of work-groups, each copying a ``rows`` x ``cols``
    tile through *two* local stagings per row:

        mapWrg(1)(mapWrg(0)(mapLcl(1)(
            toGlobal(mapLcl(0)(id)) o toLocal(mapLcl(0)(id))
                                    o toLocal(mapLcl(0)(id)))))

    The inner staging has no destination of its own, so its buffer must
    be multiplied by the enclosing ``mapLcl(1)`` trip count (paper
    section 5.2) — with one shared row, the ``rows`` work-item rows race
    (the schedule the explorer derives for ``mm`` via ``toLocal
    insertion``).  ``rows`` may be symbolic."""
    row = ArrayType(FLOAT, cols)
    x = Param(ArrayType(ArrayType(ArrayType(row, rows), 2), 2), "x")

    def copy(space):
        return space(map_lcl(id_fun(), 0))

    per_row = compose(copy(to_global), copy(to_local), copy(to_local))
    return Lambda([x], map_wrg(map_wrg(map_lcl(per_row, 1), 0), 1)(x))


def tiled_outer_sums(acc_space, chunk=8, tile=4, groups=2, tiles=3):
    """A work-group-tiled reduction, the shape of the n-body and matrix
    multiplication stages: ``out[i] = sum_j x[i] * y[j]``.

        join o mapWrg(λ xs.
            toGlobal(mapLcl(id)) o join o reduceSeq(λ acc, ys.
                (λ t. mapLcl(λ (a, x). reduceSeq(musu(·, x, ·), a)(t))
                          (zip(acc, xs)))
                  (toLocal(mapLcl(id))(ys)),
              acc_space(mapLcl(zero))(xs)) o split(tile) $ y
        ) o split(chunk) $ x

    ``acc_space`` is ``to_private`` or ``to_local``: where the array
    accumulator of the ``reduceSeq`` over tiles lives.  With ``to_local``
    its body is a ``mapLcl`` over ``zip(local, global)`` that stores into
    local memory.  ``chunk`` may exceed the local size (several slots per
    work-item) and ``tile`` need not equal it."""
    from repro.ir.nodes import UserFun
    from repro.ir.patterns import ReduceSeq

    x = Param(ArrayType(FLOAT, groups * chunk), "x")
    y = Param(ArrayType(FLOAT, tiles * tile), "y")
    zero = UserFun("zeroF", ["v"], "return 0.0f;", [FLOAT], FLOAT, py=lambda v: 0.0)
    musu = mult_and_sum_up()

    def per_group(xs):
        def per_tile(acc, ys):
            staged = Param(None, "t")

            def per_element(ax):
                step = lam2(lambda a, t: FunCall(musu, [a, get(ax, 1), t]))
                return FunCall(reduce_seq(step, get(ax, 0)), [staged])

            walk = join()(map_lcl(lam(per_element))(zip_(acc, xs)))
            return FunCall(
                Lambda([staged], walk), [to_local(map_lcl(id_fun()))(ys)]
            )

        sums = FunCall(
            ReduceSeq(lam2(per_tile)),
            [acc_space(map_lcl(zero))(xs), split(tile)(y)],
        )
        return to_global(map_lcl(id_fun()))(join()(sums))

    return Lambda([x, y], join()(map_wrg(lam(per_group))(split(chunk)(x))))


# ---------------------------------------------------------------------------
# repro.compiler.hoist has no switch; these reach the kernel before it
# ---------------------------------------------------------------------------

def restart_variable_names(monkeypatch):
    """Loop variables are numbered process-wide (and the simplifier
    orders terms by name): restart the numbering so that two
    compilations of one program print the same text."""
    import itertools
    import sys

    monkeypatch.setattr(
        sys.modules["repro.arith.expr"], "_var_counter", itertools.count()
    )


def compile_unhoisted(fun, options):
    """``compile_kernel`` with :func:`repro.compiler.hoist.hoist` taken
    out of the pipeline: the kernel the code generator printed before
    the pass existed."""
    from repro.compiler import codegen

    real, codegen.hoist = codegen.hoist, lambda body, params: body
    try:
        return codegen.compile_kernel(fun, options, memo=False)
    finally:
        codegen.hoist = real


def hoisted_source(source, params=None, sizes=(), kernel_name="KERNEL"):
    """Parse ``source``, run the pass on a kernel's body, print it back.

    ``params`` are a ``CompiledKernel``'s; for hand-written text the
    read-only buffers are the ``const ... restrict`` pointer parameters,
    as in generated kernels, and ``sizes`` names the size parameters."""
    from dataclasses import replace

    from repro.compiler import cast
    from repro.compiler.codegen import KernelParamInfo
    from repro.compiler.hoist import hoist
    from repro.opencl.cparser import parse

    fn = parse(source).functions[kernel_name]
    params = params or [
        KernelParamInfo(
            p.name,
            "in_buffer" if p.is_restrict and "const" in p.qualifiers
            else "out_buffer" if p.is_pointer
            else "size" if p.name in sizes else "scalar",
            p.type_name,
        )
        for p in fn.params
    ]
    before = cast.print_function(fn)
    assert before in source  # the printer and the parser agree on this text
    after = cast.print_function(replace(fn, body=hoist(fn.body, params)))
    assert cast.print_function(fn) == before  # the input tree is untouched
    return source.replace(before, after)

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


def simple_map_add_one(n=None):
    """mapGlb(plus_one) over a float array — the smallest useful kernel."""
    from repro.ir.dsl import map_glb
    from repro.ir.nodes import UserFun

    length = n if n is not None else Var("N")
    x = Param(ArrayType(FLOAT, length), "x")
    plus_one = UserFun(
        "plusOne", ["v"], "return v + 1.0f;", [FLOAT], FLOAT, py=lambda v: v + 1.0
    )
    return Lambda([x], map_glb(plus_one)(x))


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

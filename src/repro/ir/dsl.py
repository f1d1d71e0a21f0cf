"""Ergonomic builders for writing Lift IL programs in Python.

The paper writes programs as compositions read right-to-left::

    (join o mapWrg0(...) o split128)(zip(x, y))

The DSL offers both that style (:func:`compose`) and a left-to-right
pipeline (:func:`pipe`).  Pattern builders follow the paper's names with
snake_case (``map_wrg``, ``reduce_seq``, ``to_local`` ...).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.arith import ArithExpr
from repro.types import DataType, FLOAT, ScalarType, VectorType
from repro.ir.nodes import (
    Expr,
    FunCall,
    FunDecl,
    Lambda,
    Literal,
    Param,
    UserFun,
)
from repro.ir.patterns import (
    AsScalar,
    AsVector,
    Gather,
    Get,
    IndexFun,
    Iterate,
    Join,
    MakeTuple,
    Map,
    MapGlb,
    MapLcl,
    MapSeq,
    MapWrg,
    Pad,
    Reduce,
    ReduceSeq,
    Scatter,
    Slide,
    Split,
    ToGlobal,
    ToLocal,
    ToPrivate,
    Transpose,
    Zip,
)


# ---------------------------------------------------------------------------
# function-level combinators
# ---------------------------------------------------------------------------

def lam(fn: Callable[..., Expr], arity: int = 1) -> Lambda:
    """Build a lambda from a Python function over parameter nodes."""
    params = [Param() for _ in range(arity)]
    return Lambda(params, fn(*params))


def lam2(fn: Callable[[Param, Param], Expr]) -> Lambda:
    return lam(fn, arity=2)


def compose(*fs: FunDecl) -> FunDecl:
    """Right-to-left composition: ``compose(f, g)(x) = f(g(x))``."""
    if not fs:
        raise ValueError("compose requires at least one function")
    if len(fs) == 1:
        return fs[0]
    p = Param()
    body: Expr = p
    for f in reversed(fs):
        body = FunCall(f, [body])
    return Lambda([p], body)


def pipe(x: Expr, *fs: FunDecl) -> Expr:
    """Left-to-right application: ``pipe(x, f, g) = g(f(x))``."""
    result = x
    for f in fs:
        result = FunCall(f, [result])
    return result


# ---------------------------------------------------------------------------
# pattern builders
# ---------------------------------------------------------------------------

def map_(f: FunDecl) -> Map:
    return Map(f)


def map_seq(f: FunDecl) -> MapSeq:
    return MapSeq(f)


def map_seq_unroll(f: FunDecl):
    from repro.ir.patterns import MapSeqUnroll

    return MapSeqUnroll(f)


def map_glb(f: FunDecl, dim: int = 0) -> MapGlb:
    return MapGlb(f, dim)


def map_wrg(f: FunDecl, dim: int = 0) -> MapWrg:
    return MapWrg(f, dim)


def map_lcl(f: FunDecl, dim: int = 0) -> MapLcl:
    return MapLcl(f, dim)


def reduce_seq(f: FunDecl, init: Expr) -> Lambda:
    """Partially applied sequential reduction: returns a unary function."""
    p = Param()
    return Lambda([p], FunCall(ReduceSeq(f), [init, p]))


def reduce_seq_unroll(f: FunDecl, init: Expr) -> Lambda:
    """Unrolled sequential reduction (requires a concrete length)."""
    from repro.ir.patterns import ReduceSeqUnroll

    p = Param()
    return Lambda([p], FunCall(ReduceSeqUnroll(f), [init, p]))


def reduce_(f: FunDecl, init: Expr) -> Lambda:
    p = Param()
    return Lambda([p], FunCall(Reduce(f), [init, p]))


def iterate(n: ArithExpr | int, f: FunDecl) -> Iterate:
    return Iterate(n, f)


def split(n: ArithExpr | int) -> Split:
    return Split(n)


def join() -> Join:
    return Join()


def gather(idx_fun: IndexFun) -> Gather:
    return Gather(idx_fun)


def scatter(idx_fun: IndexFun) -> Scatter:
    return Scatter(idx_fun)


def transpose() -> Transpose:
    return Transpose()


def slide(size: ArithExpr | int, step: ArithExpr | int) -> Slide:
    return Slide(size, step)


def pad(left: int, right: int) -> Pad:
    return Pad(left, right)


def head(arr: Expr) -> FunCall:
    from repro.ir.patterns import Head

    return FunCall(Head(), [arr])


def zip_(*arrays: Expr) -> FunCall:
    return FunCall(Zip(len(arrays)), arrays)


def get(tup: Expr, index: int) -> FunCall:
    return FunCall(Get(index), [tup])


def make_tuple(*components: Expr) -> FunCall:
    return FunCall(MakeTuple(len(components)), components)


def to_global(f: FunDecl) -> ToGlobal:
    return ToGlobal(f)


def to_local(f: FunDecl) -> ToLocal:
    return ToLocal(f)


def to_private(f: FunDecl) -> ToPrivate:
    return ToPrivate(f)


def as_vector(width: int) -> AsVector:
    return AsVector(width)


def as_scalar() -> AsScalar:
    return AsScalar()


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def f32(value: float) -> Literal:
    return Literal(float(value), FLOAT)


def vec_literal(value: float, width: int, elem: ScalarType = FLOAT) -> Literal:
    return Literal(float(value), VectorType(elem, width))


# ---------------------------------------------------------------------------
# common user functions
# ---------------------------------------------------------------------------

def id_fun(t: DataType = FLOAT) -> UserFun:
    """The identity user function (used for copies, paper Listing 1)."""
    return UserFun("id", ["x"], "return x;", [t], t, py=lambda x: x)


def add(t: DataType = FLOAT) -> UserFun:
    return UserFun("add", ["a", "b"], "return a + b;", [t, t], t, py=lambda a, b: a + b)


def mult(t: DataType = FLOAT) -> UserFun:
    return UserFun("mult", ["a", "b"], "return a * b;", [t, t], t, py=lambda a, b: a * b)


def mult_and_sum_up(t: DataType = FLOAT) -> UserFun:
    """acc + x*y — the inner operation of dot product (paper Listing 1)."""
    return UserFun(
        "multAndSumUp",
        ["acc", "x", "y"],
        "return acc + x * y;",
        [t, t, t],
        t,
        py=lambda acc, x, y: acc + x * y,
    )



"""Semantics-preserving rewrite rules on the Lift IR (prior work [18]).

A rule is a partial function on ``FunCall`` nodes.  Applying a rule never
mutates its input and never copies it: the replacement re-wraps the
matched function and arguments as they are, so it shares them with the
source program (see :mod:`repro.ir.visit` — whoever annotates a program
clones it first; annotations do not survive that, the compiler re-infers
them).

The rule set covers what the paper's evaluation relies on:

* *lowering* — mapping the algorithmic patterns onto the OpenCL thread
  hierarchy (``map`` to ``mapGlb``/``mapWrg``/``mapLcl``/``mapSeq``,
  ``reduce`` to ``reduceSeq``);
* *algorithmic* — split-join (tiling), map fusion, map-reduce fusion;
* *memory/vectorization* — toLocal insertion around copies and
  vectorization of maps of scalar user functions;
* *simplification* — cancelling adjacent ``split``/``join`` and
  ``asVector``/``asScalar`` pairs.

Dimension-aware *macro* rules (the 2-D tiling step ``tile-2d`` that
rewrites a whole map nest onto the ``mapWrg``/``mapLcl`` grid at once)
live in :mod:`repro.rewrite.mapping`; the explorer merges both sets into
one menu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.arith import ArithExpr, simplify
from repro.arith.expr import to_expr
from repro.types import ArrayType, ScalarType
from repro.ir.nodes import Expr, FunCall, Lambda, Param, UserFun
from repro.ir import patterns as pat
from repro.ir.visit import unwrap


@dataclass(frozen=True)
class Rule:
    """A named rewrite: ``apply`` returns the replacement or ``None``."""

    name: str
    apply: Callable[[FunCall], Optional[Expr]]

    def matches(self, call: FunCall) -> bool:
        return self.apply(call) is not None

    def __repr__(self) -> str:
        return f"Rule({self.name})"


# ---------------------------------------------------------------------------
# lowering rules: map -> thread hierarchy
# ---------------------------------------------------------------------------

def _lower_map(call: FunCall, target) -> Optional[Expr]:
    f = call.f
    if type(f) is not pat.Map:
        return None
    return FunCall(target(f.f), [call.args[0]])


def map_to_seq() -> Rule:
    return Rule("map -> mapSeq", lambda c: _lower_map(c, pat.MapSeq))


def map_to_glb(dim: int = 0) -> Rule:
    return Rule(
        f"map -> mapGlb({dim})",
        lambda c: _lower_map(c, lambda f: pat.MapGlb(f, dim)),
    )


def map_to_wrg(dim: int = 0) -> Rule:
    return Rule(
        f"map -> mapWrg({dim})",
        lambda c: _lower_map(c, lambda f: pat.MapWrg(f, dim)),
    )


def map_to_lcl(dim: int = 0) -> Rule:
    return Rule(
        f"map -> mapLcl({dim})",
        lambda c: _lower_map(c, lambda f: pat.MapLcl(f, dim)),
    )


def reduce_to_seq() -> Rule:
    def apply(call: FunCall) -> Optional[Expr]:
        if type(call.f) is not pat.Reduce:
            return None
        return FunCall(pat.ReduceSeq(call.f.f), call.args)

    return Rule("reduce -> reduceSeq", apply)


# ---------------------------------------------------------------------------
# algorithmic rules
# ---------------------------------------------------------------------------

def split_join(k: ArithExpr | int) -> Rule:
    """map(f)  ->  join o map(map(f)) o split(k)  — the tiling rule."""
    k = to_expr(k)

    def apply(call: FunCall) -> Optional[Expr]:
        if type(call.f) is not pat.Map:
            return None
        inner = pat.Map(call.f.f)
        split_arg = FunCall(pat.Split(k), [call.args[0]])
        mapped = FunCall(pat.Map(inner), [split_arg])
        return FunCall(pat.Join(), [mapped])

    return Rule(f"split-join({k})", apply)


def map_fusion() -> Rule:
    """map(f) o map(g)  ->  map(f o g)."""

    def apply(call: FunCall) -> Optional[Expr]:
        if type(call.f) is not pat.Map:
            return None
        arg = call.args[0]
        if not isinstance(arg, FunCall) or type(arg.f) is not pat.Map:
            return None
        p = Param()
        fused = Lambda([p], FunCall(call.f.f, [FunCall(arg.f.f, [p])]))
        return FunCall(pat.Map(fused), [arg.args[0]])

    return Rule("map fusion", apply)


def map_reduce_fusion() -> Rule:
    """reduce(g, z) o map(f)  ->  reduce(λ(a, x). g(a, f(x)), z)."""

    def apply(call: FunCall) -> Optional[Expr]:
        if not isinstance(call.f, pat.ReduceSeq):
            return None
        arr = call.args[1]
        if not isinstance(arr, FunCall) or type(arr.f) not in (pat.Map, pat.MapSeq):
            return None
        acc, x = Param(), Param()
        fused = Lambda(
            [acc, x], FunCall(call.f.f, [acc, FunCall(arr.f.f, [x])])
        )
        return FunCall(call.f.with_f(fused), [call.args[0], arr.args[0]])

    return Rule("map-reduce fusion", apply)


def to_local_insertion() -> Rule:
    """mapLcl(f)  ->  mapLcl(f) o toLocal(mapLcl(id)) — stage the input
    of a work-group computation in local memory."""

    def apply(call: FunCall) -> Optional[Expr]:
        if not isinstance(call.f, pat.MapLcl):
            return None
        arg = call.args[0]
        if isinstance(arg, FunCall) and isinstance(arg.f, pat.AddressSpaceWrapper):
            return None  # already staged
        elem_t = None
        if arg.type is not None:
            if isinstance(arg.type, ArrayType) and isinstance(
                arg.type.elem, ScalarType
            ):
                elem_t = arg.type.elem
        from repro.ir.dsl import id_fun

        copy = pat.ToLocal(pat.MapLcl(id_fun(elem_t) if elem_t else id_fun()))
        staged = FunCall(copy, [arg])
        return FunCall(call.f, [staged])

    return Rule("toLocal insertion", apply)


def vectorize_map(width: int) -> Rule:
    """map(uf)  ->  asScalar o map(vectorize(uf)) o asVector(width)
    for unary scalar user functions (paper section 3.2).

    When the argument carries a type annotation, the rule refuses inputs
    whose (concrete) length the width does not divide — ``asVector(4)``
    over a one-element array would reinterpret garbage.  Untyped graphs
    (the explorer enumerates those) are accepted here and rejected by
    the explorer's shape-validity filter after type inference.
    """

    def apply(call: FunCall) -> Optional[Expr]:
        if type(call.f) is not pat.Map:
            return None
        arg_t = call.args[0].type
        if isinstance(arg_t, ArrayType):
            length = simplify(arg_t.length).try_int()
            if length is not None and (length <= 0 or length % width):
                return None
        lam = unwrap(call.f.f)
        if not isinstance(lam, Lambda) or len(lam.params) != 1:
            return None
        body = lam.body
        if not (
            isinstance(body, FunCall)
            and isinstance(body.f, UserFun)
            and len(body.args) == 1
            and body.args[0] is lam.params[0]
        ):
            return None
        uf = body.f
        if not all(isinstance(t, ScalarType) for t in uf.in_types):
            return None
        vec_uf = uf.vectorized(width)
        as_vec = FunCall(pat.AsVector(width), [call.args[0]])
        mapped = FunCall(pat.Map(vec_uf), [as_vec])
        return FunCall(pat.AsScalar(), [mapped])

    return Rule(f"vectorize({width})", apply)


# ---------------------------------------------------------------------------
# simplification rules
# ---------------------------------------------------------------------------

def join_split_cancel() -> Rule:
    """join o split(k) = id."""

    def apply(call: FunCall) -> Optional[Expr]:
        if not isinstance(call.f, pat.Join):
            return None
        arg = call.args[0]
        if isinstance(arg, FunCall) and isinstance(arg.f, pat.Split):
            return arg.args[0]
        return None

    return Rule("join o split = id", apply)


def split_join_cancel() -> Rule:
    """split(k) o join = id when the inner length is k."""

    def apply(call: FunCall) -> Optional[Expr]:
        if not isinstance(call.f, pat.Split):
            return None
        arg = call.args[0]
        if not (isinstance(arg, FunCall) and isinstance(arg.f, pat.Join)):
            return None
        inner = arg.args[0]
        if (
            inner.type is not None
            and isinstance(inner.type, ArrayType)
            and isinstance(inner.type.elem, ArrayType)
            and simplify(inner.type.elem.length) == simplify(call.f.n)
        ):
            return inner
        return None

    return Rule("split o join = id", apply)


def scalar_vector_cancel() -> Rule:
    """asScalar o asVector(w) = id."""

    def apply(call: FunCall) -> Optional[Expr]:
        if not isinstance(call.f, pat.AsScalar):
            return None
        arg = call.args[0]
        if isinstance(arg, FunCall) and isinstance(arg.f, pat.AsVector):
            return arg.args[0]
        return None

    return Rule("asScalar o asVector = id", apply)


def transpose_transpose_cancel() -> Rule:
    """transpose o transpose = id."""

    def apply(call: FunCall) -> Optional[Expr]:
        if not isinstance(call.f, pat.Transpose):
            return None
        arg = call.args[0]
        if isinstance(arg, FunCall) and isinstance(arg.f, pat.Transpose):
            return arg.args[0]
        return None

    return Rule("transpose o transpose = id", apply)


# ---------------------------------------------------------------------------
# rule collections
# ---------------------------------------------------------------------------

def fusion_rules() -> list:
    return [map_fusion(), map_reduce_fusion()]


def simplification_rules() -> list:
    return [
        join_split_cancel(),
        split_join_cancel(),
        scalar_vector_cancel(),
        transpose_transpose_cancel(),
    ]

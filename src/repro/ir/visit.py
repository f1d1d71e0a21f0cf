"""Traversal and rebuilding utilities for IR graphs.

The rewrite system and several compiler passes need to walk expression
graphs, collect nodes, and build modified copies.  Patterns are walked
and rebuilt through the structural protocol of
:class:`~repro.ir.nodes.Pattern` (``f`` / ``with_f``) alone — no
traversal here names a concrete pattern, so a new one needs no edit.

Expressions carry mutable annotations, and one discipline keeps them
from leaking between program versions: a rewritten program *may* share
``Expr`` nodes with its source (``one_step_rewrites`` shares every
untouched subtree between its variants by design), so whoever annotates
— ``typed_clone``, ``specialize_sizes``, ``static_program_cost``, the
compiler's callers — clones first.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Literal, Param
from repro.ir import patterns as pat


def nested_fun(f: FunDecl) -> Optional[FunDecl]:
    """The function ``f`` nests: a pattern's ``f``; ``None`` for leaf
    patterns, lambdas and user functions."""
    return getattr(f, "f", None)


def unwrap(f: FunDecl) -> FunDecl:
    """``f`` without its ``toGlobal``/``toLocal``/``toPrivate`` wrappers."""
    while isinstance(f, pat.AddressSpaceWrapper):
        f = f.f
    return f


def body_of(f: FunDecl) -> Optional[Expr]:
    """The lambda body at the end of ``f``'s nested-function chain
    (``mapSeq(toLocal(λx. body))`` gives ``body``); ``None`` when the
    chain ends in a user function or a leaf pattern."""
    while f is not None and not isinstance(f, Lambda):
        f = nested_fun(f)
    return None if f is None else f.body


def rebuild_decl(f: FunDecl, on_lambda: Callable[[Lambda], Lambda]) -> FunDecl:
    """``f`` with the lambda ending its nested-function chain replaced by
    ``on_lambda(lambda)`` and the patterns on the way rebuilt around it.
    Leaf patterns and user functions carry no function and no mutable
    state: they are returned as they are, safe to share."""
    if isinstance(f, Lambda):
        return on_lambda(f)
    inner = nested_fun(f)
    return f if inner is None else f.with_f(rebuild_decl(inner, on_lambda))


def post_order(expr: Expr) -> Iterator[Expr]:
    """Yield every expression below (and including) ``expr``, arguments
    first.  Lambda bodies of called functions are visited too."""
    if isinstance(expr, FunCall):
        for a in expr.args:
            yield from post_order(a)
        body = body_of(expr.f)
        if body is not None:
            yield from post_order(body)
    yield expr


def count_nodes(expr: Expr) -> int:
    return sum(1 for _ in post_order(expr))


def clone_expr(expr: Expr, mapping: dict[Param, Expr] | None = None) -> Expr:
    """Deep-copy an expression graph, replacing parameters per ``mapping``.

    Fresh ``Param`` objects are created for parameters of nested lambdas so
    the clone shares no mutable node with the original.
    """
    return _clone_expr(expr, dict(mapping or {}))


def clone_decl(f: FunDecl) -> FunDecl:
    """Deep-copy a function declaration (see :func:`clone_expr`)."""
    return rebuild_decl(f, lambda lam: _clone_lambda(lam, {}))


def _clone_expr(e: Expr, mapping: dict) -> Expr:
    if isinstance(e, Literal):
        return Literal(e.value, e.type)  # type: ignore[arg-type]
    if isinstance(e, Param):
        # A free parameter (program input) keeps its identity.
        return mapping.get(e, e)
    if isinstance(e, FunCall):
        return FunCall(
            rebuild_decl(e.f, lambda lam: _clone_lambda(lam, mapping)),
            [_clone_expr(a, mapping) for a in e.args],
        )
    raise TypeError(f"cannot clone {e!r}")


def _clone_lambda(f: Lambda, mapping: dict) -> Lambda:
    fresh = [Param(p.type, p.name) for p in f.params]
    for old, new in zip(f.params, fresh):
        mapping[old] = new
    body = _clone_expr(f.body, mapping)
    for old in f.params:
        del mapping[old]
    return Lambda(fresh, body)


def transform_calls(
    expr: Expr, fn: Callable[[FunCall], Expr | None]
) -> Expr:
    """Bottom-up rebuild: ``fn`` may replace any ``FunCall`` node.

    ``fn`` receives a freshly cloned call whose arguments have already been
    transformed; returning ``None`` keeps the call unchanged.
    """

    def go_expr(e: Expr) -> Expr:
        if isinstance(e, Literal):
            return Literal(e.value, e.type)  # type: ignore[arg-type]
        if isinstance(e, Param):
            return e
        if isinstance(e, FunCall):
            rebuilt = FunCall(
                rebuild_decl(e.f, go_lambda), [go_expr(a) for a in e.args]
            )
            replaced = fn(rebuilt)
            return rebuilt if replaced is None else replaced
        raise TypeError(f"cannot transform {e!r}")

    def go_lambda(f: Lambda) -> Lambda:
        return Lambda(list(f.params), go_expr(f.body))

    return go_expr(expr)

"""Traversal and rebuilding utilities for IR graphs.

The rewrite system and several compiler passes need to walk expression
graphs, collect nodes, and build modified copies.  Patterns are walked
and rebuilt through the structural protocol of
:class:`~repro.ir.nodes.Pattern` (``f`` / ``with_f``) alone — no
traversal here names a concrete pattern, so a new one needs no edit.

Expressions carry mutable annotations (``type``, ``addr_space``, ``mem``,
``view``), and one discipline keeps them from leaking between program
versions — and keeps what is cached about a node true:

* *Rewriting never mutates and may share.*  :func:`transform_calls`, the
  strategies built on it and every rewrite rule allocate new nodes only
  on the spine from the root to a replacement; every untouched subtree —
  and, when nothing matched, the whole program — is the caller's own
  node.  A search is then tree work proportional to what changes, not to
  program size times rules.
* *Whoever annotates clones first*: ``typed_clone``,
  ``specialize_sizes``, ``tile_2d``'s typing probe, and
  ``lowering._apply_strategy`` (its result is compiled in place).  For
  them :func:`clone_expr` / :func:`clone_decl` stay full deep copies —
  no ``FunCall``, ``Lambda`` or bound ``Param`` in common with the
  input — because the annotations they are about to write must land on
  nodes no other program version can reach.  A reader of types that
  must not copy keeps them beside the nodes instead
  (:class:`~repro.ir.typecheck.TypeMemo`, the explorer's).
* *Structure is write-once; only annotations are mutable.*  A
  ``FunCall``'s ``f`` / ``args``, a ``Lambda``'s ``params`` / ``body``
  and a pattern's ``f`` and payload are assigned in ``__init__`` and
  never again: a different structure is a different node.  The
  structural key cached on every node (:mod:`repro.ir.structural`) and
  every per-subtree memo indexed by it (:func:`transform_calls`'s
  ``done``, the explorer's ``SearchMemo``, ``TypeMemo``) rely on it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Literal, Param
from repro.ir import patterns as pat
from repro.ir.structural import key


def nested_fun(f: FunDecl) -> Optional[FunDecl]:
    """The function ``f`` nests: a pattern's ``f``; ``None`` for leaf
    patterns, lambdas and user functions."""
    return f.f


def unwrap(f: FunDecl) -> FunDecl:
    """``f`` without its ``toGlobal``/``toLocal``/``toPrivate`` wrappers."""
    while isinstance(f, pat.AddressSpaceWrapper):
        f = f.f
    return f


def body_of(f: FunDecl) -> Optional[Expr]:
    """The lambda body at the end of ``f``'s nested-function chain
    (``mapSeq(toLocal(λx. body))`` gives ``body``); ``None`` when the
    chain ends in a user function or a leaf pattern."""
    while f is not None and type(f) is not Lambda:
        f = f.f
    return None if f is None else f.body


def rebuild_decl(f: FunDecl, on_lambda: Callable[[Lambda], Lambda]) -> FunDecl:
    """``f`` with the lambda ending its nested-function chain replaced by
    ``on_lambda(lambda)`` and the patterns on the way rebuilt around it —
    ``f`` itself when ``on_lambda`` returns its argument.  Leaf patterns
    and user functions carry no function and no mutable state: they are
    returned as they are, safe to share."""
    if isinstance(f, Lambda):
        return on_lambda(f)
    inner = nested_fun(f)
    if inner is None:
        return f
    rebuilt = rebuild_decl(inner, on_lambda)
    return f if rebuilt is inner else f.with_f(rebuilt)


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
    assert isinstance(e, FunCall), e  # the last expression class
    return FunCall(
        rebuild_decl(e.f, lambda lam: _clone_lambda(lam, mapping)),
        [_clone_expr(a, mapping) for a in e.args],
    )


def _clone_lambda(f: Lambda, mapping: dict) -> Lambda:
    fresh = [Param(p.type, p.name) for p in f.params]
    for old, new in zip(f.params, fresh):
        mapping[old] = new
    body = _clone_expr(f.body, mapping)
    for old in f.params:
        del mapping[old]
    return Lambda(fresh, body)


def transform_calls(
    expr: Expr,
    fn: Callable[[FunCall], Expr | None],
    done: Optional[dict] = None,
) -> Expr:
    """Bottom-up rewrite: ``fn`` may replace any ``FunCall`` node.

    ``fn`` receives the original call — or, when something below it was
    replaced, that call rebuilt around the replacement; returning
    ``None`` keeps it.  Nodes are allocated only on the spine from the
    root to a replacement: an untouched subtree comes back as the very
    node that went in, and so does ``expr`` when ``fn`` replaced nothing.

    ``done`` lets one pure ``fn`` be applied to many programs that share
    subtrees for the price of what they do not share: it maps the
    structural key of every subtree rewritten so far to the result
    (``None``: unchanged — the caller's own node comes back), is read
    before a subtree is entered and filled on the way out.
    """

    def go_expr(e: Expr) -> Expr:
        if not isinstance(e, FunCall):
            return e
        if done is not None:
            k = key(e)
            hit = done.get(k, done)
            if hit is not done:
                return e if hit is None else hit
        f = rebuild_decl(e.f, go_lambda)
        args = tuple(map(go_expr, e.args))
        out = e
        if f is not e.f or args != e.args:  # Expr equality is identity
            out = FunCall(f, args)
        replaced = fn(out)
        if replaced is not None:
            out = replaced
        if done is not None:
            done[k] = None if out is e else out
        return out

    def go_lambda(f: Lambda) -> Lambda:
        body = go_expr(f.body)
        return f if body is f.body else Lambda(f.params, body)

    try:
        return go_expr(expr)
    finally:
        # The two closures refer to each other: unhook them, or ``done``
        # and every node in it wait for the cycle collector.
        go_expr = go_lambda = None

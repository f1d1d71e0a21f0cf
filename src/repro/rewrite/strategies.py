"""Strategies: where and how often to apply rewrite rules.

Deliberately simple combinators (the paper's contribution is the code
generator): rules are applied at explicit positions or everywhere,
optionally to a fixed point.  Nothing here mutates or copies its input:
a result is new only along the spine to each replacement and shares the
rest with the source (the discipline of :mod:`repro.ir.visit`).  The
search over them is :mod:`repro.rewrite.explore`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda
from repro.ir.visit import nested_fun, transform_calls
from repro.rewrite.rules import Rule


def find_matches(rule: Rule, expr: Expr) -> List[FunCall]:
    """The call nodes of ``expr`` (its own, in post-order) where ``rule``
    applies."""
    matches: list[FunCall] = []

    def probe(call: FunCall) -> Optional[Expr]:
        if rule.matches(call):
            matches.append(call)
        return None

    transform_calls(expr, probe)
    return matches


def one_step_rewrites(rule: Rule, expr: Expr) -> List[Expr]:
    """Every program obtainable by applying ``rule`` at exactly one match,
    in the post-order of :func:`find_matches`: variant ``p`` rewrites the
    ``p``-th matching node.

    A *single* traversal: ``rule.apply`` runs once per call node of
    ``expr`` itself, and each variant is one new spine from the root to
    its replacement — everything off that path is shared with ``expr``
    and with the other variants.  The rewrite-space explorer's
    enumeration loop lives on this, and so do the single-application
    entry points below.
    """

    def go_expr(e: Expr) -> list:
        if not isinstance(e, FunCall):
            return []
        variants = [FunCall(fv, e.args) for fv in go_decl(e.f)]
        for i, a in enumerate(e.args):
            for av in go_expr(a):
                spliced = e.args[:i] + (av,) + e.args[i + 1:]
                variants.append(FunCall(e.f, spliced))
        replacement = rule.apply(e)
        if replacement is not None:
            variants.append(replacement)
        return variants

    def go_decl(f: FunDecl) -> list:
        if isinstance(f, Lambda):
            return [Lambda(f.params, v) for v in go_expr(f.body)]
        inner = nested_fun(f)
        return [] if inner is None else [f.with_f(v) for v in go_decl(inner)]

    return go_expr(expr)


def apply_at(rule: Rule, expr: Expr, position: int = 0) -> Expr:
    """Apply ``rule`` at the ``position``-th match (post-order)."""
    variants = one_step_rewrites(rule, expr)
    if not 0 <= position < len(variants):
        raise ValueError(f"rule {rule.name} has no match at position {position}")
    return variants[position]


def rewrite_first(rule: Rule, expr: Expr) -> Optional[Expr]:
    """Apply at the first match, or return ``None`` when nothing matches."""
    variants = one_step_rewrites(rule, expr)
    return variants[0] if variants else None


def apply_everywhere(rule: Rule, expr: Expr) -> Expr:
    """One bottom-up pass applying ``rule`` wherever it matches."""
    return transform_calls(expr, rule.apply)


def exhaustively(rules: Iterable[Rule], expr: Expr, max_passes: int = 32) -> Expr:
    """Apply a rule set bottom-up until a fixed point (bounded): a pass
    that rewrites nothing returns its argument."""
    rules = list(rules)

    def visit(call: FunCall) -> Optional[Expr]:
        for rule in rules:
            replacement = rule.apply(call)
            if replacement is not None:
                return replacement
        return None

    current = expr
    for _ in range(max_passes):
        nxt = transform_calls(current, visit)
        if nxt is current:
            return current
        current = nxt
    raise RuntimeError("rewriting did not reach a fixed point")

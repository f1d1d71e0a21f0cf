"""Strategies: where and how often to apply rewrite rules.

Deliberately simple combinators (the paper's contribution is the code
generator): rules are applied at explicit positions or everywhere,
optionally to a fixed point, always on cloned graphs.  The search over
them is :mod:`repro.rewrite.explore`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Literal, Param
from repro.ir.visit import body_of, clone_expr, rebuild_decl, transform_calls
from repro.rewrite.rules import Rule


def find_matches(rule: Rule, expr: Expr) -> List[FunCall]:
    """All call nodes (in post-order) where ``rule`` applies."""
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

    A *single* traversal: ``rule.apply`` runs once per call node, and
    the variants share unmodified sibling subtrees (safe: rewriting never
    mutates, and every downstream pass clones before annotating).  The
    rewrite-space explorer's enumeration loop lives on this, and so do
    the single-application entry points below.
    """

    def go_expr(e: Expr) -> tuple:
        if isinstance(e, Literal):
            return Literal(e.value, e.type), []  # type: ignore[arg-type]
        if isinstance(e, Param):
            return e, []
        if isinstance(e, FunCall):
            new_f, f_variants = go_decl(e.f)
            arg_pairs = [go_expr(a) for a in e.args]
            new_args = [p[0] for p in arg_pairs]
            rebuilt = FunCall(new_f, new_args)
            variants: list = []
            for fv in f_variants:
                variants.append(FunCall(fv, list(new_args)))
            for i, (_, arg_variants) in enumerate(arg_pairs):
                for av in arg_variants:
                    spliced = list(new_args)
                    spliced[i] = av
                    variants.append(FunCall(new_f, spliced))
            replacement = rule.apply(rebuilt)
            if replacement is not None:
                variants.append(replacement)
            return rebuilt, variants
        raise TypeError(f"cannot rewrite {e!r}")

    def go_decl(f: FunDecl) -> tuple:
        body = body_of(f)
        if body is None:
            return f, []
        new_body, variants = go_expr(body)

        def around(b: Expr) -> FunDecl:
            return rebuild_decl(f, lambda lam: Lambda(list(lam.params), b))

        return around(new_body), [around(v) for v in variants]

    return go_expr(expr)[1]


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
    """Apply a rule set bottom-up until a fixed point (bounded)."""
    rules = list(rules)
    current = clone_expr(expr)
    for _ in range(max_passes):
        changed = [False]

        def visit(call: FunCall) -> Optional[Expr]:
            for rule in rules:
                replacement = rule.apply(call)
                if replacement is not None:
                    changed[0] = True
                    return replacement
            return None

        current = transform_calls(current, visit)
        if not changed[0]:
            return current
    raise RuntimeError("rewriting did not reach a fixed point")

"""Strategies: where and how often to apply rewrite rules.

Deliberately simple combinators (the paper's contribution is the code
generator): rules are applied at explicit positions or everywhere,
optionally to a fixed point.  Nothing here mutates or copies its input:
a result is new only along the spine to each replacement and shares the
rest with the source (the discipline of :mod:`repro.ir.visit`).  Rules
are pure functions of the call they are given, so what a strategy
worked out about a subtree holds wherever that subtree — or a
structurally equal one — turns up again: :func:`rewrites_by_rule` takes
a memo indexed by structural key (:mod:`repro.ir.structural`) that a
search shares between all the programs it derives.  The search over
them is :mod:`repro.rewrite.explore`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda
from repro.ir.structural import key
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


#: What a subtree without a match has to offer, to every rule.
_NO_REWRITES: dict = {}


def rewrites_by_rule(
    rules: Sequence[Rule], expr: Expr, memo: Optional[dict] = None
) -> dict:
    """:func:`one_step_rewrites` of ``expr`` under every rule of
    ``rules`` in one traversal: ``{i: variants}`` for each ``rules[i]``
    that matches somewhere.

    ``rule.apply`` runs once per rule and call node of ``expr``, and
    each variant is one new spine from the root to its replacement —
    everything off that path is shared with ``expr`` and with the other
    variants.  ``memo`` (structural key → the result for that subtree,
    not to be modified; good for this ``rules`` only) makes it a
    traversal of what ``expr`` does not share with the programs
    rewritten before it: the rewrite-space explorer's enumeration loop.
    """
    if memo is None:
        memo = {}

    def go_expr(e: Expr) -> dict:
        if not isinstance(e, FunCall):
            return _NO_REWRITES
        k = key(e)
        found = memo.get(k)
        if found is None:
            found = memo[k] = rewrites_of(e) or _NO_REWRITES
        return found

    def rewrites_of(e: FunCall) -> dict:
        found = {
            i: [FunCall(fv, e.args) for fv in fvs]
            for i, fvs in go_decl(e.f).items()
        }
        for at, a in enumerate(e.args):
            for i, avs in go_expr(a).items():
                found.setdefault(i, []).extend(
                    FunCall(e.f, e.args[:at] + (av,) + e.args[at + 1:])
                    for av in avs
                )
        for i, rule in enumerate(rules):
            replacement = rule.apply(e)
            if replacement is not None:
                found.setdefault(i, []).append(replacement)
        return found

    def go_decl(f: FunDecl) -> dict:
        if isinstance(f, Lambda):
            below = go_expr(f.body)
            return {i: [Lambda(f.params, v) for v in vs] for i, vs in below.items()}
        inner = nested_fun(f)
        if inner is None:
            return _NO_REWRITES
        return {i: [f.with_f(v) for v in vs] for i, vs in go_decl(inner).items()}

    try:
        return go_expr(expr)
    finally:
        # The closures refer to each other: unhook them, or ``memo`` and
        # every variant in it wait for the cycle collector.
        go_expr = rewrites_of = go_decl = None


def one_step_rewrites(rule: Rule, expr: Expr) -> List[Expr]:
    """Every program obtainable by applying ``rule`` at exactly one match,
    in the post-order of :func:`find_matches`: variant ``p`` rewrites the
    ``p``-th matching node (:func:`rewrites_by_rule` for one rule; the
    single-application entry points below live on it)."""
    return rewrites_by_rule((rule,), expr).get(0, [])


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

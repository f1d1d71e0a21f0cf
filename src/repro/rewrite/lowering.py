"""Deterministic lowering recipes: high-level IL -> low-level IL.

The paper's prior work searches the rewrite space automatically; the
evaluation here (like the paper's artifact) uses fixed, per-benchmark
lowering decisions.  Since the mapping layer landed these are thin
wrappers over :mod:`repro.rewrite.mapping` strategies:

* :func:`lower_to_global` — outermost ``map`` becomes ``mapGlb``, every
  nested ``map`` becomes ``mapSeq``, every ``reduce`` becomes
  ``reduceSeq`` (:func:`repro.rewrite.mapping.global_1d`);
* :func:`lower_to_work_groups` — the outermost ``map`` is tiled with
  split-join and mapped onto ``mapWrg``/``mapLcl``
  (:func:`repro.rewrite.mapping.work_group_1d`).

Dimension-aware and 2-D tiled lowerings live in the mapping module
itself; the explorer reaches them through its rule menu and finishing
step.
"""

from __future__ import annotations

from typing import Optional

from repro.arith import ArithExpr
from repro.ir.nodes import Expr, FunCall, Lambda
from repro.ir.visit import clone_expr, transform_calls
from repro.rewrite.mapping import global_1d, work_group_1d
from repro.rewrite.rules import map_to_seq, reduce_to_seq


_MAP_TO_SEQ, _REDUCE_TO_SEQ = map_to_seq(), reduce_to_seq()


def _sequential_form(call: FunCall) -> Optional[Expr]:
    return _MAP_TO_SEQ.apply(call) or _REDUCE_TO_SEQ.apply(call)


def lower_inner_sequential(expr: Expr, done: Optional[dict] = None) -> Expr:
    """Lower every remaining high-level pattern to its sequential form.

    One bottom-up pass is the fixed point: neither rule's result is a
    match of either, or has one below it that was not there before.
    ``done`` is :func:`~repro.ir.visit.transform_calls`'s memo."""
    return transform_calls(expr, _sequential_form, done)


def lower_to_global(fun: Lambda, dim: int = 0) -> Lambda:
    """Outermost map -> mapGlb, everything inside sequential."""
    return _apply_strategy(fun, global_1d(dim))


def lower_to_work_groups(fun: Lambda, chunk: ArithExpr | int, dim: int = 0) -> Lambda:
    """Tile the outermost map: split-join + mapWrg(mapLcl(...))."""
    return _apply_strategy(fun, work_group_1d(chunk, dim))


def _apply_strategy(fun: Lambda, strategy) -> Lambda:
    # Callers compile the result in place, and rewriting shares subtrees
    # with its source: lower a private copy, so no annotation reaches
    # ``fun`` or another lowering of it.
    mapped = strategy.apply(clone_expr(fun.body))
    if mapped is None:
        raise ValueError("no high-level map found on the program spine")
    return Lambda(list(fun.params), lower_inner_sequential(mapped))

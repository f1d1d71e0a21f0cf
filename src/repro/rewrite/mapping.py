"""Dimension-aware mapping strategies: high-level maps -> thread hierarchy.

The paper's flagship schedules (Table 1 rows 11-12, section 7) assign
*nested* high-level ``map``s onto a 2-D OpenCL thread hierarchy; the old
lowering recipes of :mod:`repro.rewrite.lowering` could only produce 1-D
schedules.  This module is the compositional middle layer between the
rewrite rules and the explorer:

* :func:`replace_map_nest` — the core machinery: walk the program spine,
  assign the nest of high-level ``map``s (outermost first) to a list of
  *builders* (``mapGlb``/``mapWrg``/``mapLcl`` constructors with a
  dimension each);
* :class:`MappingStrategy` — a named, partial mapping decision on a
  program body (``apply`` returns ``None`` when the program does not
  have the required shape).  :func:`global_1d`,
  :func:`global_nd` and :func:`work_group_1d` cover the classic recipes
  (``repro.rewrite.lowering`` keeps its public functions as thin
  wrappers over these);
* :func:`tile_2d` — a *macro rewrite rule* in the sense of the Lift
  exploration work: one application turns a two-deep map nest
  (``join o map(λr. join o map(λc. e)(cols))(rows)``) into the paper's
  2-D tiled schedule — ``split`` both levels, ``mapWrg(1)``/``mapWrg(0)``
  over the tile grid, ``mapLcl(1)``/``mapLcl(0)`` inside each tile,
  optional cooperative ``toLocal`` staging of both tiles, and a
  ``scatter`` that un-tiles the flat result.  Because it is an ordinary
  :class:`~repro.rewrite.rules.Rule`, the explorer searches it like any
  other rewrite and it shows up in derivation traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.arith import ArithExpr, simplify
from repro.arith.expr import IntDiv, Mod, Prod, Sum, to_expr
from repro.types import ArrayType, ScalarType
from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Param
from repro.ir import patterns as pat
from repro.ir.visit import clone_expr, post_order
from repro.rewrite.rules import Rule, split_join

#: A builder turns the function of a high-level ``map`` into a lowered
#: map pattern, e.g. ``lambda f: pat.MapGlb(f, 1)``.
Builder = Callable[[FunDecl], pat.AbstractMap]


class _NestMissing(Exception):
    """Raised when the program spine has fewer high-level maps than
    builders to assign."""


def replace_map_nest(expr: Expr, builders: Sequence[Builder]) -> Optional[Expr]:
    """Assign the nest of high-level ``map``s along the program spine to
    ``builders`` (outermost map first, then the outermost map *inside its
    function body*, and so on).  Returns ``None`` when the spine holds
    fewer high-level maps than builders.

    The walk mirrors the data flow: at each level it descends the first
    argument chain and into the bodies of already-lowered maps, exactly
    like the old ``_replace_outermost_map`` did for a single level.
    """
    try:
        return _assign(expr, list(builders))
    except _NestMissing:
        return None


def _assign(expr: Expr, todo: List[Builder]) -> Expr:
    if not todo:
        return expr
    if not isinstance(expr, FunCall):
        raise _NestMissing
    if type(expr.f) is pat.Map:
        lam = expr.f.f
        if len(todo) > 1:
            if not isinstance(lam, Lambda):
                raise _NestMissing
            lam = Lambda(list(lam.params), _assign(lam.body, todo[1:]))
        return FunCall(todo[0](lam), list(expr.args))
    if isinstance(expr.f, pat.AbstractMap) and isinstance(expr.f.f, Lambda):
        lam = expr.f.f
        try:
            new_body = _assign(lam.body, todo)
        except _NestMissing:
            pass
        else:
            rebuilt = expr.f.with_f(Lambda(list(lam.params), new_body))
            return FunCall(rebuilt, list(expr.args))
    if expr.args:
        return FunCall(
            expr.f, [_assign(expr.args[0], todo)] + list(expr.args[1:])
        )
    raise _NestMissing


@dataclass(frozen=True)
class MappingStrategy:
    """A named way of assigning high-level maps to the thread hierarchy.

    ``apply`` receives a program *body* and returns the mapped body, or
    ``None`` when the program does not have the shape the strategy
    needs.  Strategies only assign parallel dimensions; sequential
    lowering of whatever remains is the caller's job (the explorer's
    finishing step, or :func:`repro.rewrite.lowering.lower_to_global`).
    """

    name: str
    apply: Callable[[Expr], Optional[Expr]]

    def __repr__(self) -> str:
        return f"MappingStrategy({self.name})"


def global_1d(dim: int = 0) -> MappingStrategy:
    """Outermost map -> ``mapGlb(dim)`` (the classic flat schedule)."""
    return MappingStrategy(
        f"mapGlb({dim})",
        lambda body: replace_map_nest(body, [lambda f: pat.MapGlb(f, dim)]),
    )


def global_nd(dims: Sequence[int] = (1, 0)) -> MappingStrategy:
    """Nested maps -> nested ``mapGlb`` across distinct dimensions.

    The default ``(1, 0)`` realizes the paper's 2-D global schedules
    (mm AMD-style: rows on dimension 1, columns on dimension 0)."""
    builders = [
        (lambda f, d=d: pat.MapGlb(f, d)) for d in dims
    ]
    label = ",".join(str(d) for d in dims)
    return MappingStrategy(
        f"mapGlb({label})", lambda body: replace_map_nest(body, builders)
    )


def work_group_1d(chunk: "ArithExpr | int", dim: int = 0) -> MappingStrategy:
    """Split-join tile the outermost map onto ``mapWrg(mapLcl(...))``."""

    def apply(body: Expr) -> Optional[Expr]:
        split = _split_join_outermost(body, chunk)
        if split is None:
            return None
        return replace_map_nest(
            split,
            [lambda f: pat.MapWrg(f, dim), lambda f: pat.MapLcl(f, dim)],
        )

    return MappingStrategy(f"mapWrg/mapLcl({chunk}@{dim})", apply)


def _split_join_outermost(expr: Expr, chunk: "ArithExpr | int") -> Optional[Expr]:
    """Apply the split-join rule at the outermost spine map (or ``None``)."""
    rule = split_join(chunk)
    replaced = [False]

    def go(e: Expr) -> Expr:
        if replaced[0] or not isinstance(e, FunCall):
            return e
        if type(e.f) is pat.Map:
            replacement = rule.apply(e)
            assert replacement is not None
            replaced[0] = True
            return replacement
        new_args = [go(e.args[0])] + list(e.args[1:]) if e.args else []
        return FunCall(e.f, new_args)

    result = go(expr)
    return result if replaced[0] else None


def finish_mappings(body: Expr) -> List[tuple]:
    """The mapping decisions the explorer's finishing step tries on a
    derivation that chose no parallel pattern of its own: the flat 1-D
    schedule always, plus the 2-D global nest when the spine actually
    has two nested high-level maps.  Returns ``(mapped_body,
    strategy_name)`` pairs — the application *is* the applicability
    test, so each strategy rewrites the tree exactly once."""
    out: List[tuple] = []
    for strategy in (global_1d(0), global_nd((1, 0))):
        mapped = strategy.apply(body)
        if mapped is not None:
            out.append((mapped, strategy.name))
    return out


# ---------------------------------------------------------------------------
# 2-D tiling macro rule
# ---------------------------------------------------------------------------

def untile_2d_indices(
    nty: ArithExpr, ntx: ArithExpr, th: ArithExpr, tw: ArithExpr,
    width: ArithExpr,
) -> pat.IndexFun:
    """Permutation reassembling a ``nty x ntx`` grid of flattened
    ``th x tw`` tiles into a row-major matrix of row width ``width``.

    Generalizes :func:`repro.benchsuite.convolution.untile_indices` to
    rectangular tiles and symbolic tile counts (the mapping layer tiles
    programs whose lengths are still size variables)."""
    per_row = simplify(ntx * th * tw)
    per_tile = simplify(th * tw)

    def fn(i: ArithExpr, n: ArithExpr) -> ArithExpr:
        ty = IntDiv(i, per_row)
        rest = Mod(i, per_row)
        tx = IntDiv(rest, per_tile)
        r2 = Mod(rest, per_tile)
        py = IntDiv(r2, tw)
        px = Mod(r2, tw)
        row = Sum([Prod([ty, th]), py])
        col = Sum([Prod([tx, tw]), px])
        return Sum([Prod([row, width]), col])

    return pat.IndexFun(f"untile2({nty}x{ntx},{th}x{tw},{width})", fn)


def _references(expr: Expr, param: Param) -> bool:
    return any(e is param for e in post_order(expr))


def _match_map_nest_2d(call: FunCall):
    """Match ``join(map(λr. join(map(λc. e)(cols)))(rows))`` and return
    ``(rows, cols, outer_param, inner_param, elem_expr)`` — the shape the
    2-D tiling macro rule rewrites.  ``cols`` must not depend on the
    outer parameter (the column space is the same for every row)."""
    if not isinstance(call.f, pat.Join) or len(call.args) != 1:
        return None
    outer = call.args[0]
    if not (isinstance(outer, FunCall) and type(outer.f) is pat.Map):
        return None
    outer_lam = outer.f.f
    if not isinstance(outer_lam, Lambda) or len(outer_lam.params) != 1:
        return None
    inner_join = outer_lam.body
    if not (
        isinstance(inner_join, FunCall)
        and isinstance(inner_join.f, pat.Join)
        and len(inner_join.args) == 1
    ):
        return None
    inner = inner_join.args[0]
    if not (isinstance(inner, FunCall) and type(inner.f) is pat.Map):
        return None
    inner_lam = inner.f.f
    if not isinstance(inner_lam, Lambda) or len(inner_lam.params) != 1:
        return None
    rows, cols = outer.args[0], inner.args[0]
    pr, pc = outer_lam.params[0], inner_lam.params[0]
    if _references(cols, pr):
        return None
    return rows, cols, pr, pc, inner_lam.body


def tile_2d(th: int, tw: int, stage: bool = True) -> Rule:
    """The 2-D tiling macro rule (one step in a derivation trace):

    ``join o map(λr. join o map(λc. e)(cols))(rows)`` becomes

    * ``split(th)`` over the rows and ``split(tw)`` over the columns,
    * ``mapWrg(1)`` / ``mapWrg(0)`` over the resulting tile grid,
    * ``mapLcl(1)`` / ``mapLcl(0)`` over the rows/columns of one tile,
    * with ``stage=True``, cooperative ``toLocal`` copies of the row and
      column tiles (every element is reused by a whole row/column of
      local threads — the paper's mm tiling, Table 1 row 12),
    * a flat ``join`` chain plus ``scatter(untile2)`` writing every
      element to its original row-major position.

    The rule needs the matched subterm to type-check (tile trip counts
    and the un-tiling permutation come from the inferred array lengths);
    divisibility of the tile sizes is left to the explorer's validity
    filter, exactly like ``split-join``.
    """
    from repro.ir.dsl import id_fun
    from repro.ir.typecheck import infer_types

    th_e, tw_e = to_expr(th), to_expr(tw)
    name = f"tile-2d({th}x{tw}{',toLocal' if stage else ''})"

    def apply(call: FunCall) -> Optional[Expr]:
        match = _match_map_nest_2d(call)
        if match is None:
            return None
        rows, cols, pr, pc, elem = match

        # Type the matched subterm on a throwaway clone: tile counts and
        # the un-tiling permutation need the array lengths.
        typed = clone_expr(call)
        try:
            infer_types(typed)
        except Exception:
            return None
        typed_match = _match_map_nest_2d(typed)
        if typed_match is None:  # pragma: no cover - same shape as call
            return None
        t_rows, t_cols = typed_match[0], typed_match[1]
        if not isinstance(t_rows.type, ArrayType) or not isinstance(
            t_cols.type, ArrayType
        ):
            return None
        m_len, n_len = t_rows.type.length, t_cols.type.length
        t_inner = typed.args[0].f.f.body.args[0]  # the typed inner map call
        assert isinstance(t_inner.type, ArrayType)
        elem_t = t_inner.type.elem
        if not isinstance(elem_t, ArrayType):
            return None  # per-element results must be arrays (they are joined)
        s_len = elem_t.length

        def scalar_row_elem(t) -> Optional[ScalarType]:
            if isinstance(t, ArrayType) and isinstance(t.elem, ArrayType) \
                    and isinstance(t.elem.elem, ScalarType):
                return t.elem.elem
            return None

        row_scal = scalar_row_elem(t_rows.type)
        col_scal = scalar_row_elem(t_cols.type)
        if stage and (row_scal is None or col_scal is None):
            return None  # cooperative copies need scalar tile elements

        row_tiles = FunCall(pat.Split(th_e), [rows])
        col_tiles = FunCall(pat.Split(tw_e), [cols])

        rt, ct, r, c = Param(), Param(), Param(), Param()
        elem2 = clone_expr(elem, {pr: r, pc: c})

        def tile_compute(row_src: Expr, col_src: Expr) -> Expr:
            per_row = FunCall(
                pat.Join(),
                [FunCall(pat.MapLcl(Lambda([c], elem2), 0), [col_src])],
            )
            return FunCall(
                pat.Join(),
                [FunCall(pat.MapLcl(Lambda([r], per_row), 1), [row_src])],
            )

        if stage:
            at, bt = Param(), Param()

            def staged(tile: Expr, scal: ScalarType) -> Expr:
                copy = pat.ToLocal(
                    pat.MapLcl(pat.MapLcl(id_fun(scal), 0), 1)
                )
                return FunCall(copy, [tile])

            tile_body: Expr = FunCall(
                Lambda([at, bt], tile_compute(at, bt)),
                [staged(rt, row_scal), staged(ct, col_scal)],
            )
        else:
            tile_body = tile_compute(rt, ct)

        grid = FunCall(
            pat.Join(),
            [
                FunCall(
                    pat.MapWrg(
                        Lambda(
                            [rt],
                            FunCall(
                                pat.Join(),
                                [
                                    FunCall(
                                        pat.MapWrg(Lambda([ct], tile_body), 0),
                                        [col_tiles],
                                    )
                                ],
                            ),
                        ),
                        1,
                    ),
                    [row_tiles],
                )
            ],
        )
        untile = untile_2d_indices(
            simplify(m_len // th_e),
            simplify(n_len // tw_e),
            th_e,
            simplify(tw_e * s_len),
            simplify(n_len * s_len),
        )
        return FunCall(pat.Scatter(untile), [grid])

    return Rule(name, apply)


def tiling_rules(
    tiles: Sequence[tuple] = ((4, 4), (8, 8)), staged: bool = True
) -> List[Rule]:
    """The tiling macro rules for the explorer's menu: one per tile
    shape, staged and unstaged variants (staging must *earn* its extra
    copies under the cost model)."""
    rules: List[Rule] = []
    for th, tw in tiles:
        rules.append(tile_2d(th, tw, stage=False))
        if staged:
            rules.append(tile_2d(th, tw, stage=True))
    return rules

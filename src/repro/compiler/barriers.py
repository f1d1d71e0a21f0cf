"""Barrier elimination (paper section 5.4).

A barrier is emitted after every ``mapLcl`` by default — safety first.
A barrier is removed only when we can infer from the context that no
inter-thread sharing can happen before the next synchronization point:
the Lift IL only allows sharing through the data-layout patterns
(split, join, gather, scatter, transpose, slide), so a ``mapLcl`` whose
result flows into the next ``mapLcl`` without any such pattern in between
is consumed element-wise by the same threads that produced it, and its
barrier can be dropped.

The pass returns the set of ``FunCall`` node ids whose barrier the code
generator must *not* emit.
"""

from __future__ import annotations

from repro.ir.nodes import Expr, FunCall, Lambda, Param
from repro.ir import patterns as pat
from repro.ir.visit import body_of, unwrap

#: Patterns whose presence between two mapLcl calls forces a barrier.
_SHARING_PATTERNS = (
    pat.Split,
    pat.Join,
    pat.Gather,
    pat.Scatter,
    pat.Transpose,
    pat.Slide,
    pat.AsVector,
    pat.AsScalar,
)


def find_removable_barriers(root: Expr) -> set[int]:
    """Ids of mapLcl ``FunCall`` nodes whose trailing barrier is removable."""
    removable: set[int] = set()
    _scan(root, removable)
    return removable


def _scan(expr: Expr, removable: set[int]) -> None:
    """Walk the graph; at every consumer, look down its argument chain."""
    if not isinstance(expr, FunCall):
        return
    for arg in expr.args:
        _scan(arg, removable)
    body = body_of(expr.f)
    if body is not None:
        _scan(body, removable)

    if _is_map_lcl(expr.f):
        # This consumer is a mapLcl: check what feeds it.
        producer = _producer_map_lcl(expr.args[0], layout_seen=False)
        if producer is not None:
            removable.add(id(producer))

    if isinstance(expr.f, pat.Zip):
        # Two mapLcl producers feeding the same zip execute independently;
        # one barrier between them suffices (section 5.4).
        producers = [
            _producer_map_lcl(a, layout_seen=False) for a in expr.args
        ]
        found = [p for p in producers if p is not None]
        for extra in found[:-1]:
            removable.add(id(extra))


def _is_map_lcl(f) -> bool:
    """A ``mapLcl``, possibly under address-space wrappers."""
    return isinstance(unwrap(f), pat.MapLcl)


def _producer_map_lcl(expr: Expr, layout_seen: bool) -> FunCall | None:
    """Follow the dataflow backwards from a mapLcl's input; return the
    producing mapLcl call when no sharing pattern lies on the path."""
    if not isinstance(expr, FunCall):
        return None
    f = expr.f
    if _is_map_lcl(f):
        return None if layout_seen else expr
    if isinstance(f, _SHARING_PATTERNS):
        return _producer_map_lcl(expr.args[0], layout_seen=True)
    if isinstance(f, (pat.Zip, pat.Get, pat.MakeTuple)):
        # zip combines independent branches element-wise; it does not
        # reorder, so it is transparent for this analysis (section 5.4
        # even removes one barrier between the two branches of a zip).
        for arg in expr.args:
            found = _producer_map_lcl(arg, layout_seen)
            if found is not None:
                return found
        return None
    if isinstance(f, Lambda):
        return _producer_map_lcl(f.body, layout_seen)
    if isinstance(f, pat.AddressSpaceWrapper):
        return None
    # Any other pattern (maps, reduces, iterate): stop — they synchronize
    # or sequentialize on their own.
    return None

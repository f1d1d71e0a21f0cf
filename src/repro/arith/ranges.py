"""Value ranges for arithmetic variables.

The Lift type system infers range information for every variable (paper
section 5.3): a work-group id ``wg_id`` introduced by ``mapWrg`` over ``M``
chunks ranges over ``[0, M)``, a loop variable of a ``reduceSeq`` over a
chunk of two elements ranges over ``[0, 2)``, and a size variable such as
``N`` ranges over ``[1, inf)``.  These ranges are what allow the simplifier
to prove side conditions like ``x < y`` in rules (1) and (3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.arith.expr import ArithExpr


@dataclass(frozen=True)
class Range:
    """A half-open interval ``[min, max)`` of integer values.

    ``min`` is inclusive and ``max`` exclusive, matching the iteration
    ranges that introduce most variables.  Both bounds are arithmetic
    expressions themselves (a bound may be another variable such as ``M``);
    ``max`` may be ``None`` for "unbounded above".
    """

    min: "ArithExpr"
    max: Optional["ArithExpr"]

    @staticmethod
    def of(lo: int | "ArithExpr", hi: int | "ArithExpr" | None) -> "Range":
        """Build a range, coercing plain integers to constants."""
        from repro.arith.expr import to_expr

        lo_expr = to_expr(lo)
        hi_expr = to_expr(hi) if hi is not None else None
        return Range(lo_expr, hi_expr)

    @staticmethod
    def natural() -> "Range":
        """The range of a size variable: at least one, unbounded above."""
        from repro.arith.expr import Cst

        return Range(Cst(1), None)

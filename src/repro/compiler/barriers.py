"""Barrier elimination (paper section 5.4).

A barrier is emitted after every ``mapLcl`` and after every step of a
local-memory ``iterate`` by default — safety first.  A barrier is removed
only when the context shows that no work-item can touch another one's
data before the next barrier that is kept.  The Lift IL only shares
data between work-items through the data-layout patterns (split, join,
gather, scatter, transpose, slide, asVector, asScalar), and every
destination-less ``mapLcl`` result gets a buffer of its own
(``KernelGenerator._alloc_staged``), which is what makes four rules
sound:

1. **Element-wise consumer.**  A ``mapLcl`` whose result reaches the
   next ``mapLcl`` with no layout pattern in between is read by the very
   work-items that wrote it, so its barrier goes.  Who next touches the
   buffer across work-items?  Whoever reads the *consumer's* result, and
   the consumer's own barrier separates them.

2. **Side-by-side producers.**  ``mapLcl`` producers that feed one
   ``zip``, or that one ``Lambda`` application binds to its parameters
   (the ``let`` spelling of the same thing), are generated back to back
   into separate buffers and none reads another's result; all but the
   last lose their barrier.  Who next reads those buffers?  The ``zip``'s
   consumer / the lambda's body, which comes after the last producer's
   barrier — and that one this rule never removes.  Who overwrites them?
   The same producers one enclosing-loop iteration later, behind the
   barrier that ends the loop body.  A producer that a sibling argument
   reads (the sibling contains it) keeps its barrier.

3. **One barrier per ``iterate`` step.**  A step must end in a barrier:
   step *k + 1* reads, through the swapped pointers, what other
   work-items wrote in step *k*.  When the step's body already ends in
   the surviving barrier of its own outermost ``mapLcl``, only the
   per-work-item size update and pointer swap follow it, so the swap's
   own barrier separates nothing and goes
   (:func:`step_ends_in_barrier`).

4. **Nothing shared, nothing to order.**  A ``mapLcl`` that ends with no
   load or store since the last emitted barrier having touched memory
   two work-items can both reach ends without one.  Private memory is
   the work-item's own (the code generator refuses every access to a
   ``toPrivate`` value by another work-item than its owner); a kernel
   input is never written; the kernel's result is written once per
   element and never read.  So a ``mapLcl`` whose body reads only inputs
   and private values and that writes private memory or the final result
   — an accumulator's initialisation, the copy-out of a register — needs
   no barrier.  Who touches what it touched next?  Of private memory,
   the same work-item; of the inputs and the result, nobody in a
   conflicting way.  A ``mapLcl`` that writes private memory but *reads*
   a local tile keeps its barrier: the next tile's staging overwrites
   what it read.  Counting from the last *emitted* barrier is what keeps
   rules 1 and 2 honest: a producer whose barrier they removed because
   "the consumer's barrier separates them" has touched its buffer since,
   so that consumer keeps its own unless the buffer is private too.
   (Emission order is execution order except across a loop's back edge,
   and a loop body cannot end with a touched buffer behind it: like
   rules 1 - 3, this one takes shared memory to be touched inside
   ``mapLcl`` only, and the last ``mapLcl`` of a body that touched any
   ends in a barrier by the sentence before.)
   Unlike rules 1 - 3 this one is decided where the statements are
   emitted (``KernelGenerator._emit_barrier_after_map_lcl``): only a
   consumed view says which memory an access lands in — address-space
   inference calls a ``reduceSeq`` over ``zip(local, global)`` "global".

The lane-batched simulator backends check every launch for cross-lane
hazards between barriers, so a removal that is not sound shows up as a
declined launch in the degradation ledger, not as a silently wrong
Figure 8 number.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.nodes import Expr, FunCall, Lambda
from repro.ir import patterns as pat
from repro.ir.visit import body_of, post_order, unwrap

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

#: Patterns the code generator passes a write destination through: the
#: statements their argument emits are the last ones they emit.
_WRITE_THROUGH_PATTERNS = (
    pat.Split,
    pat.Join,
    pat.Scatter,
    pat.Transpose,
    pat.Head,
    pat.AsVector,
    pat.AsScalar,
)


def find_removable_barriers(root: Expr) -> set[int]:
    """Ids of mapLcl ``FunCall`` nodes whose trailing barrier is removable
    (rules 1 and 2 of the module docstring)."""
    removable: set[int] = set()
    _scan(root, removable)
    return removable


def step_ends_in_barrier(step_body: Expr, removable: set[int]) -> bool:
    """Rule 3: does an ``iterate`` step body (generated outside any
    ``mapLcl``) end in the barrier of its own outermost ``mapLcl``?
    ``removable`` is :func:`find_removable_barriers`' result for the
    kernel."""
    expr = step_body
    while isinstance(expr, FunCall):
        f = unwrap(expr.f)
        if isinstance(f, pat.MapLcl):
            return id(expr) not in removable
        if isinstance(f, Lambda):
            expr = f.body
        elif isinstance(f, _WRITE_THROUGH_PATTERNS):
            expr = expr.args[0]
        else:
            break
    return False


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

    if isinstance(expr.f, (pat.Zip, Lambda)):
        removable.update(_all_but_last_producer(expr.args))


def _all_but_last_producer(args: Sequence[Expr]) -> set[int]:
    """Rule 2 over the arguments of one ``zip`` or ``Lambda`` call."""
    found = [
        p
        for p in (_producer_map_lcl(a, layout_seen=False) for a in args)
        if p is not None
    ]
    if len(found) < 2:
        return set()
    # A producer that occurs a second time is one a sibling reads.
    below = [e for a in args for e in post_order(a)]
    return {
        id(p) for p in found[:-1] if sum(e is p for e in below) == 1
    }


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

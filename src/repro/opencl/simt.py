"""Lane-batched SIMT runtime for the OpenCL simulator.

The scalar interpreter in :mod:`repro.opencl.interp` walks the kernel AST
once per work-item.  The lane tiers execute the kernel body *once per
block of work-groups* instead, holding every scalar variable as a numpy
array over lanes (one lane per work-item) and turning control flow into
boolean lane masks.  This module is what those tiers share: the static
analysis that admits a kernel (:func:`analyze_kernel`,
:func:`written_pointer_roots`, :func:`sole_store_sites`) and the
:class:`_Block` runtime — lane values, masked binds and merges, memory
traffic, the cross-lane race detector, cached-load accounting, and the
fast path's lazy affine values (:class:`Aff`), slice traffic and
symbolic load chunks.  The kernel AST itself is walked in exactly one
place, :mod:`repro.opencl.simt_compile`, which lowers it once into a
pipeline over a :class:`_Block`.  One launcher (:func:`try_launch`)
runs that pipeline in one of two layouts: blocks of at most
:data:`MAX_LANES` lanes (``compiled`` / ``auto``), or the whole launch
as one block (``fused``, up to :data:`FUSED_MAX_LANES`).

* ``barrier`` is trivially satisfied: lanes execute in lock-step.  The
  analysis only admits kernels whose barriers sit under *group-uniform*
  control flow, so within each work-group the mask at a barrier is
  all-or-nothing, which is exactly the OpenCL contract.
* loads/stores are gathers and scatters (`numpy` fancy indexing); scatter
  writes resolve duplicate addresses in ascending lane order, which is a
  conforming behaviour for data-race-free kernels (the only ones whose
  result OpenCL defines).

The runtime is an exact stand-in for the scalar path: bitwise-identical
buffer contents *and* identical :class:`Counters` for every supported
kernel.  Cached-load accounting mirrors the per-work-item ``_touched``
set of the scalar interpreter with an order-independent log: per buffer,
the cached total equals load events minus distinct ``(lane, address)``
pairs, settled once per block (see :class:`_LoadLog`).

Fallback rules
--------------
A kernel is refused statically in two places, and the launch then runs
on the scalar interpreter: the typing walk of
:mod:`repro.opencl.simt_compile` refuses what it cannot type, and
:func:`analyze_kernel`, before it, a construct whose lane-batched
execution could diverge from scalar semantics, or that the oracle
rejects with a typed error:

* a barrier under lane-divergent control flow (this is also how
  ``BarrierDivergence`` keeps being raised: the scalar path detects it),
* a barrier combined with an early ``return``, or inside a helper,
* recursive helper functions, calls to unknown functions,
* a name declared with two types in one function,
* a vector literal with a wrong item count, an assignment to a
  non-lvalue, a ``vloadN`` / ``vstoreN`` with the wrong arity.

A handful of *dynamic* situations raise :class:`VectorUnsupported`; the
launcher then restores the buffers the kernel may write from a snapshot
and re-raises,
and the backend chain re-runs the whole launch on the scalar path, so
``launch()`` keeps its exact API and semantics.  The big one: a
cross-lane data race (a store whose value another work-item could
observe order-dependently — see :class:`_Hazard`).

Variables are statically typed, as in C: every store into a declared
scalar converts to the declared kind (:func:`_convert`, the lane-array
twin of :func:`repro.opencl.interp.convert`), so one variable never
holds integer and floating-point lanes at once.

Known (documented) divergence, outside defined OpenCL behaviour:
reading a variable that only a *different* lane's control path declared
yields a zero filler instead of the scalar path's "undefined
identifier" error.
"""

from __future__ import annotations

import threading as _threading
from collections import OrderedDict
from typing import Any, Optional

import numpy as np

from repro.compiler import cast as c
from repro.obs import profile as _obs_profile
from repro.opencl.cparser import ParsedProgram
from repro.opencl.interp import (
    Counters,
    ExecError,
    Pointer,
    _MATH_BUILTINS,
    _c_int_div,
    _c_int_mod,
    array_dtype,
    convert,
    declared_kinds,
    vector_literal_width,
)

#: Lanes batched together (across whole work-groups) per executor block.
MAX_LANES = 4096
#: Launches with more work-items than this refuse the whole-grid layout
#: (the blocked layout caps memory at MAX_LANES per block instead).
FUSED_MAX_LANES = 1 << 21


class VectorUnsupported(Exception):
    """Dynamic bail-out: re-run the launch on the scalar path."""


class VectorizationError(ExecError):
    """Raised when a strict engine is forced on an unsupported kernel."""


_GEOM_UNIFORM = {
    "get_group_id",
    "get_num_groups",
    "get_local_size",
    "get_global_size",
}
_GEOM_LANE = {"get_local_id", "get_global_id"}
_GEOMETRY = _GEOM_UNIFORM | _GEOM_LANE


def _is_vload(name: str) -> bool:
    return name.startswith("vload") and name[5:].isdigit()


def _is_vstore(name: str) -> bool:
    return name.startswith("vstore") and name[6:].isdigit()


# ---------------------------------------------------------------------------
# static vectorizability analysis
# ---------------------------------------------------------------------------

def analyze_kernel(parsed: ParsedProgram, kernel: c.CFunctionDef) -> Optional[str]:
    """``None`` when the kernel is vectorizable, else the fallback reason.

    Results are cached on the parsed program (which the runtime also
    caches per source), so the analysis runs once per distinct kernel.
    """
    cache = getattr(parsed, "_simt_analysis", None)
    if cache is None:
        cache = {}
        parsed._simt_analysis = cache
    if kernel.name in cache:
        return cache[kernel.name]
    reason = _analyze(parsed, kernel)
    cache[kernel.name] = reason
    return reason


def _analyze(parsed: ParsedProgram, kernel: c.CFunctionDef) -> Optional[str]:
    reason = _check_function(parsed, kernel, frozenset(), is_kernel=True)
    if reason is not None:
        return reason
    statements = statement_types(kernel)
    if c.CBarrier in statements:
        if c.CReturn in statements:
            return "barrier combined with early return"
        if not _barriers_group_uniform(kernel):
            return "barrier under lane-divergent control flow"
    return None


def _check_function(
    parsed: ParsedProgram, fn: c.CFunctionDef, stack: frozenset, is_kernel: bool
) -> Optional[str]:
    if fn.name in stack:
        return f"recursive helper function {fn.name!r}"
    # A helper accepted once is accepted from every call site: whatever
    # it reaches is acyclic, so no caller on the stack is among it.
    accepted = parsed.__dict__.setdefault("_simt_helpers_ok", set())
    if not is_kernel and fn.name in accepted:
        return None
    for name, kind in declared_kinds(fn).items():
        if kind == "mixed":
            return f"{name!r} is declared with two types in {fn.name!r}"
    reason = _check_stmt(parsed, fn.body, stack | {fn.name}, is_kernel)
    if reason is None and not is_kernel:
        accepted.add(fn.name)
    return reason


def _check_stmt(parsed, s, stack, is_kernel) -> Optional[str]:
    if isinstance(s, c.CBlock):
        for sub in s.stmts:
            r = _check_stmt(parsed, sub, stack, is_kernel)
            if r:
                return r
        return None
    if isinstance(s, c.CBarrier):
        return None if is_kernel else "barrier inside helper function"
    if isinstance(s, c.CDecl):
        return _check_expr(parsed, s.init, stack, is_kernel) if s.init else None
    if isinstance(s, c.CAssign):
        if not isinstance(s.target, (c.CIdent, c.CIndex, c.CMember)):
            return f"assignment to non-lvalue {type(s.target).__name__}"
        return (
            _check_expr(parsed, s.target, stack, is_kernel)
            or _check_expr(parsed, s.value, stack, is_kernel)
        )
    if isinstance(s, c.CFor):
        for part in (s.init, s.step, s.body):
            if part is not None:
                r = _check_stmt(parsed, part, stack, is_kernel)
                if r:
                    return r
        return _check_expr(parsed, s.cond, stack, is_kernel) if s.cond else None
    if isinstance(s, c.CIf):
        r = _check_expr(parsed, s.cond, stack, is_kernel)
        if not r:
            r = _check_stmt(parsed, s.then, stack, is_kernel)
        if not r and s.otherwise is not None:
            r = _check_stmt(parsed, s.otherwise, stack, is_kernel)
        return r
    if isinstance(s, c.CExprStmt):
        return _check_expr(parsed, s.expr, stack, is_kernel)
    if isinstance(s, c.CReturn):
        return _check_expr(parsed, s.value, stack, is_kernel) if s.value else None
    if isinstance(s, c.CComment):
        return None
    return f"unsupported statement {type(s).__name__}"


def _check_expr(parsed, e, stack, is_kernel) -> Optional[str]:
    t = type(e)
    if t is c.CIdent or t is c.CInt or t is c.CFloat:
        return None
    if t is c.CBinOp:
        return (
            _check_expr(parsed, e.lhs, stack, is_kernel)
            or _check_expr(parsed, e.rhs, stack, is_kernel)
        )
    if t is c.CCall:
        for a in e.args:
            r = _check_expr(parsed, a, stack, is_kernel)
            if r:
                return r
        name = e.func
        if name.startswith("get_"):
            return None if name in _GEOMETRY else f"unknown geometry builtin {name!r}"
        if _is_vload(name) or _is_vstore(name):
            arity = 2 if _is_vload(name) else 3
            if len(e.args) != arity:
                return f"{name} takes {arity} arguments, not {len(e.args)}"
            return None
        if name in _MATH_BUILTINS:
            return None
        fn = parsed.functions.get(name)
        if fn is None:
            return f"call to unknown function {name!r}"
        return _check_function(parsed, fn, stack, is_kernel=False)
    if t is c.CIndex:
        return (
            _check_expr(parsed, e.base, stack, is_kernel)
            or _check_expr(parsed, e.index, stack, is_kernel)
        )
    if t is c.CMember:
        return _check_expr(parsed, e.base, stack, is_kernel)
    if t is c.CUnOp:
        return _check_expr(parsed, e.operand, stack, is_kernel)
    if t is c.CTernary:
        return (
            _check_expr(parsed, e.cond, stack, is_kernel)
            or _check_expr(parsed, e.then, stack, is_kernel)
            or _check_expr(parsed, e.otherwise, stack, is_kernel)
        )
    if t is c.CCast:
        return _check_expr(parsed, e.operand, stack, is_kernel)
    if t is c.CVectorLiteral:
        try:
            vector_literal_width(e)
        except ExecError as exc:
            return str(exc)
        for item in e.items:
            r = _check_expr(parsed, item, stack, is_kernel)
            if r:
                return r
        return None
    return f"unsupported expression {t.__name__}"


def statement_types(fn: c.CFunctionDef) -> frozenset:
    """The statement classes in ``fn``'s body at any depth (cached on
    the function node)."""
    found = fn.__dict__.get("_statement_types")
    if found is None:
        classes: set = set()

        def walk(s) -> None:
            t = type(s)
            classes.add(t)
            if t is c.CBlock:
                for sub in s.stmts:
                    walk(sub)
            elif t is c.CFor:
                for part in (s.init, s.body, s.step):
                    if part is not None:
                        walk(part)
            elif t is c.CIf:
                walk(s.then)
                if s.otherwise is not None:
                    walk(s.otherwise)

        walk(fn.body)
        found = fn._statement_types = frozenset(classes)
    return found


# -- group-uniformity analysis for barrier placement ------------------------

#: Calls whose result all work-items of a group agree on, given
#: arguments they agree on.
_GROUP_UNIFORM_CALLS = _GEOM_UNIFORM | frozenset(_MATH_BUILTINS)


def _barriers_group_uniform(kernel: c.CFunctionDef) -> bool:
    """True when every barrier sits only under group-uniform conditions.

    A value is *group-uniform* when all work-items of one group agree on
    it: literals, scalar kernel arguments, ``get_group_id`` and the size
    getters, and variables only ever assigned group-uniform values under
    group-uniform control.  ``get_local_id`` / ``get_global_id`` and any
    memory load are lane-varying.
    """
    uniform = uniform_names(kernel, _GROUP_UNIFORM_CALLS)
    return _barrier_ctrl_ok(kernel.body, True, uniform)


def _expr_uniform(e, uniform: set, calls=_GROUP_UNIFORM_CALLS) -> bool:
    deps = _uniform_deps(e, set(), calls)
    return deps is not None and deps <= uniform


def _uniform_deps(e, deps: set, calls) -> Optional[set]:
    """``deps`` plus the names ``e`` reads, or ``None`` when ``e`` is
    never uniform (a lane getter, a memory load, a helper call, a member
    or vector value — conservative)."""
    t = type(e)
    if t is c.CIdent:
        deps.add(e.name)
        return deps
    if t is c.CInt or t is c.CFloat:
        return deps
    if t is c.CBinOp:
        parts = (e.lhs, e.rhs)
    elif t is c.CUnOp or t is c.CCast:
        parts = (e.operand,)
    elif t is c.CTernary:
        parts = (e.cond, e.then, e.otherwise)
    elif t is c.CCall and e.func in calls:
        parts = e.args
    else:
        return None
    for part in parts:
        if _uniform_deps(part, deps, calls) is None:
            return None
    return deps


def uniform_names(kernel: c.CFunctionDef, calls) -> set:
    """The names every work-item agrees on, where ``calls`` are the
    builtins whose result they agree on: parameters and assigned names,
    less any name one of whose stores (declaration, assignment, compound
    assignment, member store) may differ between work-items — its value
    or an enclosing loop or branch condition reads something that does.

    One walk records each store with the names it depends on; demotion
    then propagates through those sets to a fixpoint (the greatest set
    of names consistent with every store)."""
    names = {p.name for p in kernel.params}
    stores: list = []  # (name, the names it depends on, or None: never)

    def walk(s, ctrl) -> None:
        t = type(s)
        if t is c.CBlock:
            for sub in s.stmts:
                walk(sub, ctrl)
        elif t is c.CDecl:
            names.add(s.name)
            deps = set() if s.array_size is not None or s.init is None else (
                _uniform_deps(s.init, set(), calls)
            )
            stores.append((s.name, _with(ctrl, deps)))
        elif t is c.CAssign:
            target = s.target
            if type(target) is c.CIdent:
                names.add(target.name)
                deps = _uniform_deps(s.value, set(), calls)
                if deps is not None and s.op != "=":
                    deps.add(target.name)
                stores.append((target.name, _with(ctrl, deps)))
            elif type(target) is c.CMember and type(target.base) is c.CIdent:
                stores.append((target.base.name, None))
        elif t is c.CFor:
            if s.init is not None:
                walk(s.init, ctrl)
            inner = ctrl if s.cond is None else _with(
                ctrl, _uniform_deps(s.cond, set(), calls)
            )
            walk(s.body, inner)
            if s.step is not None:
                walk(s.step, inner)
        elif t is c.CIf:
            inner = _with(ctrl, _uniform_deps(s.cond, set(), calls))
            walk(s.then, inner)
            if s.otherwise is not None:
                walk(s.otherwise, inner)

    walk(kernel.body, frozenset())
    uniform = set(names)
    changed = True
    while changed:
        changed = False
        for name, deps in stores:
            if name in uniform and (deps is None or not deps <= uniform):
                uniform.discard(name)
                changed = True
    return uniform


def _with(ctrl, deps):
    """The dependencies of a store under control ``ctrl``."""
    if ctrl is None or deps is None:
        return None
    return ctrl | deps if ctrl else deps


def _barrier_ctrl_ok(s, ctrl: bool, uniform: set) -> bool:
    if isinstance(s, c.CBarrier):
        return ctrl
    if isinstance(s, c.CBlock):
        return all(_barrier_ctrl_ok(sub, ctrl, uniform) for sub in s.stmts)
    if isinstance(s, c.CFor):
        inner = ctrl and (s.cond is None or _expr_uniform(s.cond, uniform))
        return _barrier_ctrl_ok(s.body, inner, uniform)
    if isinstance(s, c.CIf):
        inner = ctrl and _expr_uniform(s.cond, uniform)
        if not _barrier_ctrl_ok(s.then, inner, uniform):
            return False
        return s.otherwise is None or _barrier_ctrl_ok(s.otherwise, inner, uniform)
    return True


# -- written-pointer analysis ------------------------------------------------
#
# The race detector only matters for buffers some work-item can *write*:
# a buffer that is never stored through cannot produce an order-dependent
# result, so loads from it skip the (comparatively expensive) hazard
# bookkeeping entirely.  This conservative data-flow pass computes the
# set of identifier names whose value may reach a store; the launcher
# intersects it with the actual argument arrays (so aliased buffers —
# one array passed under two names — stay tracked).

def written_pointer_roots(parsed: ParsedProgram, kernel: c.CFunctionDef) -> frozenset:
    """Names (params, locals) whose value may flow into a stored-through
    pointer anywhere in the kernel or its helpers.  Conservative: unknown
    constructs mark every involved identifier."""
    cache = getattr(parsed, "_simt_written", None)
    if cache is None:
        cache = {}
        parsed._simt_written = cache
    if kernel.name in cache:
        return cache[kernel.name]
    roots = frozenset(_roots_of_function(parsed, kernel, frozenset(), {}))
    cache[kernel.name] = roots
    return roots


def _expr_idents(e, out: set) -> None:
    if isinstance(e, c.CIdent):
        out.add(e.name)
    elif isinstance(e, c.CBinOp):
        _expr_idents(e.lhs, out)
        _expr_idents(e.rhs, out)
    elif isinstance(e, c.CUnOp):
        _expr_idents(e.operand, out)
    elif isinstance(e, c.CTernary):
        _expr_idents(e.cond, out)
        _expr_idents(e.then, out)
        _expr_idents(e.otherwise, out)
    elif isinstance(e, c.CIndex):
        _expr_idents(e.base, out)
        _expr_idents(e.index, out)
    elif isinstance(e, c.CMember):
        _expr_idents(e.base, out)
    elif isinstance(e, c.CCast):
        _expr_idents(e.operand, out)
    elif isinstance(e, (c.CVectorLiteral, c.CCall)):
        for item in (e.items if isinstance(e, c.CVectorLiteral) else e.args):
            _expr_idents(item, out)


def _roots_of_function(
    parsed, fn: c.CFunctionDef, stack: frozenset, memo: dict
) -> set:
    """Fixpoint written-roots computation for one function body.

    ``memo`` caches helper results by name for one analysis run (they
    are caller-independent), so a kernel calling the same helper from
    many sites — or through nested helper chains — scans each body
    once instead of once per call expression.
    """
    written: set = set()
    flows: list = []  # (target name, identifier names of the value)

    def scan_expr(e) -> None:
        if isinstance(e, c.CCall):
            for a in e.args:
                scan_expr(a)
            name = e.func
            if _is_vstore(name):
                _expr_idents(e.args[2], written)
            elif (
                name.startswith("get_")
                or _is_vload(name)
                or name in _MATH_BUILTINS
            ):
                pass
            elif name in parsed.functions:
                callee = parsed.functions[name]
                if name in stack:
                    # Recursive helpers never vectorize; stay sound.
                    for a in e.args:
                        _expr_idents(a, written)
                else:
                    callee_written = memo.get(name)
                    if callee_written is None:
                        callee_written = _roots_of_function(
                            parsed, callee, stack | {fn.name}, memo
                        )
                        memo[name] = callee_written
                    for p, a in zip(callee.params, e.args):
                        if p.name in callee_written:
                            _expr_idents(a, written)
            else:
                # Unknown function: assume it may write through any arg.
                for a in e.args:
                    _expr_idents(a, written)
        elif isinstance(e, c.CBinOp):
            scan_expr(e.lhs)
            scan_expr(e.rhs)
        elif isinstance(e, c.CUnOp):
            scan_expr(e.operand)
        elif isinstance(e, c.CTernary):
            scan_expr(e.cond)
            scan_expr(e.then)
            scan_expr(e.otherwise)
        elif isinstance(e, c.CIndex):
            scan_expr(e.base)
            scan_expr(e.index)
        elif isinstance(e, c.CMember):
            scan_expr(e.base)
        elif isinstance(e, c.CCast):
            scan_expr(e.operand)
        elif isinstance(e, c.CVectorLiteral):
            for item in e.items:
                scan_expr(item)

    def scan_stmt(s) -> None:
        if isinstance(s, c.CBlock):
            for sub in s.stmts:
                scan_stmt(sub)
        elif isinstance(s, c.CDecl):
            if s.init is not None:
                scan_expr(s.init)
                ids: set = set()
                _expr_idents(s.init, ids)
                flows.append((s.name, ids))
        elif isinstance(s, c.CAssign):
            scan_expr(s.value)
            if isinstance(s.target, c.CIdent):
                ids = set()
                _expr_idents(s.value, ids)
                flows.append((s.target.name, ids))
            elif isinstance(s.target, c.CIndex):
                _expr_idents(s.target.base, written)
                scan_expr(s.target.index)
            elif isinstance(s.target, c.CMember):
                # Member stores hit struct registers / vector variables,
                # not shared buffers — but a pointer stored *into* a
                # member must still flow to the container's name.
                scan_expr(s.target.base)
                base = s.target.base
                while isinstance(base, c.CMember):
                    base = base.base
                if isinstance(base, c.CIdent):
                    ids = set()
                    _expr_idents(s.value, ids)
                    flows.append((base.name, ids))
        elif isinstance(s, c.CFor):
            for part in (s.init, s.step, s.body):
                if part is not None:
                    scan_stmt(part)
            if s.cond is not None:
                scan_expr(s.cond)
        elif isinstance(s, c.CIf):
            scan_expr(s.cond)
            scan_stmt(s.then)
            if s.otherwise is not None:
                scan_stmt(s.otherwise)
        elif isinstance(s, c.CExprStmt):
            scan_expr(s.expr)
        elif isinstance(s, c.CReturn):
            if s.value is not None:
                scan_expr(s.value)

    scan_stmt(fn.body)
    changed = True
    while changed:
        changed = False
        for target, ids in flows:
            if target in written and not ids <= written:
                written |= ids
                changed = True
    return written


# -- sole-store analysis (proof-carrying stores) ------------------------------

def sole_store_sites(kernel: c.CFunctionDef) -> tuple:
    """``(qualified names, {id(store stmt)})`` for buffers whose only
    kernel-wide access is one loop-free store.

    A name qualifies when it has exactly one store site, zero load
    sites, appears nowhere else (any other occurrence — helper
    argument, pointer assignment, vload/vstore operand — poisons it),
    and the store is not inside any loop (a repeated affine store could
    collide with its own earlier executions at shifted bases).  Such a
    store through pairwise-distinct addresses is race-free however the
    launch is scheduled: within a block no two lanes share an address,
    and blocks run in the scalar engine's group order, so across blocks
    the last writer is the scalar engine's too.  The fast path therefore
    skips hazard bookkeeping for it, once the launcher has checked that
    no other argument aliases the buffer (:func:`try_launch`).
    """
    universe = {p.name for p in kernel.params if p.is_pointer}
    stores: dict = {}
    loads: dict = {}
    poison: set = set()

    def scan_expr(e) -> None:
        if isinstance(e, c.CIndex):
            if isinstance(e.base, c.CIdent):
                loads[e.base.name] = loads.get(e.base.name, 0) + 1
            else:
                scan_expr(e.base)
            scan_expr(e.index)
        elif isinstance(e, c.CIdent):
            poison.add(e.name)
        elif isinstance(e, c.CBinOp):
            scan_expr(e.lhs)
            scan_expr(e.rhs)
        elif isinstance(e, (c.CUnOp, c.CCast)):
            scan_expr(e.operand)
        elif isinstance(e, c.CTernary):
            scan_expr(e.cond)
            scan_expr(e.then)
            scan_expr(e.otherwise)
        elif isinstance(e, c.CMember):
            scan_expr(e.base)
        elif isinstance(e, (c.CVectorLiteral, c.CCall)):
            for item in (e.items if isinstance(e, c.CVectorLiteral) else e.args):
                scan_expr(item)

    def scan_stmt(s, in_loop: bool) -> None:
        if isinstance(s, c.CBlock):
            for sub in s.stmts:
                scan_stmt(sub, in_loop)
        elif isinstance(s, c.CDecl):
            if s.qualifier == "local" and s.array_size is not None:
                universe.add(s.name)
            if s.init is not None:
                scan_expr(s.init)
        elif isinstance(s, c.CAssign):
            target = s.target
            if isinstance(target, c.CIndex) and isinstance(target.base, c.CIdent):
                name = target.base.name
                stores.setdefault(name, []).append((s, in_loop))
                if s.op != "=":  # compound store re-loads the address
                    loads[name] = loads.get(name, 0) + 1
                scan_expr(target.index)
            else:
                scan_expr(target)
            scan_expr(s.value)
        elif isinstance(s, c.CFor):
            if s.init is not None:
                scan_stmt(s.init, in_loop)
            if s.cond is not None:
                scan_expr(s.cond)
            if s.step is not None:
                scan_stmt(s.step, True)
            scan_stmt(s.body, True)
        elif isinstance(s, c.CIf):
            scan_expr(s.cond)
            scan_stmt(s.then, in_loop)
            if s.otherwise is not None:
                scan_stmt(s.otherwise, in_loop)
        elif isinstance(s, c.CExprStmt):
            scan_expr(s.expr)
        elif isinstance(s, c.CReturn) and s.value is not None:
            scan_expr(s.value)

    scan_stmt(kernel.body, False)
    qualified = set()
    sole_sites = set()
    for name in universe:
        sites = stores.get(name, [])
        if (
            len(sites) == 1
            and not sites[0][1]
            and loads.get(name, 0) == 0
            and name not in poison
        ):
            qualified.add(name)
            sole_sites.add(id(sites[0][0]))
    return frozenset(qualified), sole_sites


# ---------------------------------------------------------------------------
# lane-batched values
# ---------------------------------------------------------------------------

class VPtr:
    """Pointer into a shared 1-D buffer (global memory, flat local)."""

    __slots__ = ("array", "offset", "space")

    def __init__(self, array: np.ndarray, offset, space: str):
        self.array = array
        self.offset = offset  # python int or (L,) int64 lane array
        self.space = space

    def plus(self, delta) -> "VPtr":
        return VPtr(self.array, self.offset + delta, self.space)


class RowPtr:
    """Pointer into a 2-D row-partitioned buffer.

    ``rows`` maps each lane to its row: the lane index for private
    arrays (one row per work-item), the in-block group ordinal for local
    buffers (one row per work-group).
    """

    __slots__ = ("array", "rows", "offset", "space")

    def __init__(self, array: np.ndarray, rows: np.ndarray, offset, space: str):
        self.array = array
        self.rows = rows
        self.offset = offset
        self.space = space

    def plus(self, delta) -> "RowPtr":
        return RowPtr(self.array, self.rows, self.offset + delta, self.space)


class _Frame:
    """Per-function-body return state (lanes that hit ``return``)."""

    __slots__ = ("ret_mask", "ret_val", "returned_any")

    def __init__(self, lanes: int):
        self.ret_mask = np.zeros(lanes, dtype=bool)
        self.ret_val: Any = None
        self.returned_any = False


_UNIFORM_TYPES = (int, float, bool, np.integer, np.floating, np.bool_)


def _is_uniform(v) -> bool:
    return isinstance(v, _UNIFORM_TYPES)


def _kind(v) -> str:
    if isinstance(v, np.ndarray):
        if v.ndim == 2:
            return "vec"
        return "f" if v.dtype.kind == "f" else "i"
    if isinstance(v, (bool, np.bool_, np.integer, int)):
        return "i"
    if isinstance(v, (float, np.floating)):
        return "f"
    if isinstance(v, (VPtr, RowPtr)):
        return "ptr"
    if isinstance(v, dict):
        return "struct"
    return "other"


#: Lane dtype per declared scalar kind (the kinds are numpy's own
#: ``dtype.kind`` letters, so "already converted" is one comparison).
_LANE_DTYPE = {"f": np.float64, "i": np.int64}


def _convert(kind, v):
    """Lane-array twin of :func:`repro.opencl.interp.convert`; no copy
    when the lanes already have the kind (the full-mask hot path), and
    ``astype(int64)`` truncates toward zero, like C."""
    if type(v) is np.ndarray:
        if v.dtype.kind != kind and v.ndim == 1 and kind in _LANE_DTYPE:
            return v.astype(_LANE_DTYPE[kind])
        return v
    return convert(kind, v)


def _by_value(kind, a):
    """A helper argument as a parameter of declared ``kind`` receives
    it: structs and vectors (updated in place by member stores) are
    copied; scalar lane arrays are never mutated and are shared."""
    if type(a) is np.ndarray:
        return a.copy() if a.ndim == 2 else _convert(kind, a)
    return dict(a) if isinstance(a, dict) else convert(kind, a)


# ---------------------------------------------------------------------------
# the fast path's lazy affine values and symbolic load chunks
# ---------------------------------------------------------------------------

_INT_UNIFORM = (int, np.integer)


def _is_int_uniform(v) -> bool:
    return isinstance(v, _INT_UNIFORM) and not isinstance(v, (bool, np.bool_))


class Aff:
    """Lazy integer lane vector ``base + gs*group + ls*lane_in_group``
    over one block (``group`` = the in-block work-group row,
    ``lane_in_group`` = in-group lane ordinal, both in the scalar
    scheduler's order; the block's first work-group is folded into
    ``base``).

    ``flat_stride(Lc)`` is the stride over the block's *flat* lane index
    when the descriptor is expressible as ``base + s*flat`` (i.e. when
    ``gs == ls * Lc``), else ``None`` — the form slice accesses and
    prefix masks require.
    """

    __slots__ = ("base", "gs", "ls")

    def __init__(self, base: int, gs: int, ls: int):
        self.base = base
        self.gs = gs
        self.ls = ls

    def flat_stride(self, lanes_per_group: int) -> Optional[int]:
        if self.gs == self.ls * lanes_per_group:
            return self.ls
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Aff({self.base} + {self.gs}*g + {self.ls}*l)"


#: ``get_local_id(0)`` of a 1-D launch, in every block.
_AFF_LOCAL_ID = Aff(0, 0, 1)


def _aff_binop(op: str, l, r):
    """Affine-preserving integer arithmetic; ``None`` = not representable."""
    la, ra = isinstance(l, Aff), isinstance(r, Aff)
    if op == "+":
        if la and ra:
            return Aff(l.base + r.base, l.gs + r.gs, l.ls + r.ls)
        if la and _is_int_uniform(r):
            return Aff(l.base + int(r), l.gs, l.ls)
        if ra and _is_int_uniform(l):
            return Aff(r.base + int(l), r.gs, r.ls)
    elif op == "-":
        if la and ra:
            return Aff(l.base - r.base, l.gs - r.gs, l.ls - r.ls)
        if la and _is_int_uniform(r):
            return Aff(l.base - int(r), l.gs, l.ls)
        if ra and _is_int_uniform(l):
            return Aff(int(l) - r.base, -r.gs, -r.ls)
    elif op == "*":
        if la and _is_int_uniform(r):
            u = int(r)
            return Aff(l.base * u, l.gs * u, l.ls * u)
        if ra and _is_int_uniform(l):
            u = int(l)
            return Aff(r.base * u, r.gs * u, r.ls * u)
    return None


def _addr_add(off, index):
    out = _aff_binop("+", off, index)
    return off + index if out is None else out


class _SymChunks:
    """Per-buffer symbolic load chunks (the fast path's slice loads).

    Each chunk is ``(stride, base, k)`` for an affine access over the
    first ``k`` lanes of the block (``stride None`` = block-uniform
    address ``base``).  ``settle`` computes ``(events, distinct (lane,
    address) pairs)`` in closed form when the chunk set provably cannot
    collide across descriptors — all-affine with one common stride (same
    stride + different base never share an address for the same lane;
    same descriptor trivially overlaps) or all-uniform (distinct
    addresses are disjoint pair sets).  Mixed or multi-stride sets
    replay into the standard :class:`_LoadLog` arrays instead — exact,
    just not O(1).
    """

    __slots__ = ("array", "space", "chunks", "events")

    def __init__(self, array: np.ndarray, space: str):
        self.array = array  # keep the buffer alive while its id is a key
        self.space = space
        self.chunks: list = []  # (stride | None, base, k)
        self.events = 0

    def add(self, stride: Optional[int], base: int, k: int) -> None:
        self.chunks.append((stride, base, k))
        self.events += k

    def settle(self) -> Optional[tuple]:
        """(events, distinct) in closed form, or ``None``."""
        if len({s for s, _, _ in self.chunks}) != 1:
            return None  # mixed descriptors may collide: replay
        per_base: dict = {}
        for _, base, k in self.chunks:
            per_base[base] = max(per_base.get(base, 0), k)
        return self.events, sum(per_base.values())

    def materialize_into(self, log: "_LoadLog", lane_ids: np.ndarray) -> None:
        """Replay the chunks as the lane arrays the closure form would
        have logged (same (lane, address) pairs)."""
        for stride, base, k in self.chunks:
            lanes = lane_ids[:k]
            if stride is None:
                aa = np.broadcast_to(np.int64(base), (k,))
            else:
                aa = base + stride * lanes
            log.add(aa, lanes, k)


# ---------------------------------------------------------------------------
# block executor
# ---------------------------------------------------------------------------

class _Block:
    """Executes one block of whole work-groups in lock-step."""

    def __init__(
        self,
        counters: Counters,
        lanes: int,
        group_row: np.ndarray,
        lid: tuple,
        gid: tuple,
        group_ids: tuple,
        global_size: tuple,
        local_size: tuple,
        num_groups: tuple,
        seg_start: int = 0,
        tracked: Optional[set] = None,
        lane_ids: Optional[np.ndarray] = None,
        full: Optional[np.ndarray] = None,
        first_group: int = 0,
        sole_ids: frozenset = frozenset(),
        one_d: bool = False,
    ):
        self.counters = counters
        self.L = lanes
        self.group_row = group_row
        self.lid = lid
        self.gid = gid
        self.group_ids = group_ids
        self.global_size = global_size
        self.local_size = local_size
        self.num_groups = num_groups
        self.env: dict = {}
        self._lane_ids = lane_ids if lane_ids is not None else np.arange(lanes)
        self._load_log: dict = {}  # (id(buffer), width) -> _LoadLog
        # Race detectors live for one block (blocks run in the scalar
        # engine's group order, so cross-block conflicts agree by
        # construction); the backing arrays are pooled across blocks and
        # launches, kept valid by the monotonic segment epoch.
        self._hazards: dict = {}
        # ``None`` tracks every shared buffer; a set restricts hazard
        # bookkeeping to the arrays some lane may write (see
        # :func:`written_pointer_roots`).
        self._tracked = tracked
        self._seg_base = seg_start
        self._segment = seg_start
        self._lanes_per_group = lpg = local_size[0] * local_size[1] * local_size[2]
        self._full = full if full is not None else np.ones(lanes, dtype=bool)
        # The fast path (simt_compile's fast segments): arrays whose one
        # kernel-wide access is a proven store, the lazy geometry of a
        # 1-D launch offset by this block's first work-group, the names
        # a fast bind may have left an Aff in, and the symbolic load
        # chunks of its slice loads.
        self._sole_ids = sole_ids
        self._one_d = one_d
        self._aff_global_id = Aff(first_group * lpg, lpg, 1)
        self._aff_group_id = Aff(first_group, 1, 0)
        self._lazy_names: set = set()
        self._sym_log: dict = {}

    def _set_return(self, frame, m, value) -> None:
        """Lanes ``m`` return ``value`` (``None``: nothing), already of
        the function's return type; its returns all return a value or
        all return nothing (the static types)."""
        if value is not None:
            frame.ret_val = (
                self._merge(frame.ret_val, value, m) if frame.returned_any
                else value
            )
        frame.ret_mask |= m
        frame.returned_any = True

    def _alloc_private(self, name, size, dtype) -> None:
        """``T name[size];`` — one zeroed row per work-item."""
        self.env[name] = RowPtr(
            np.zeros((self.L, size), dtype=dtype), self._lane_ids, 0, "private"
        )

    def _store_member(self, struct: dict, member, value, m, n) -> None:
        """``value``, already of the member's declared kind."""
        if n == self.L:
            struct[member] = value
        else:
            struct[member] = self._merge(struct.get(member, 0.0), value, m)

    def _bind(self, name, value, m, n, declaring: bool = False) -> None:
        if n == self.L:
            self.env[name] = value
            return
        old = self.env.get(name, _MISSING)
        if old is _MISSING:
            if not declaring:
                raise VectorUnsupported(
                    f"first assignment to {name!r} under a partial mask"
                )
            # A declaration dominates every read of the variable in
            # well-scoped C, so inactive lanes can hold a zero filler.
            self.env[name] = self._merge(self._zero_like(value), value, m)
            return
        self.env[name] = self._merge(old, value, m)

    def _zero_like(self, value):
        k = _kind(value)
        if k == "i":
            return 0
        if k == "f":
            return 0.0
        if k == "vec":
            return np.zeros_like(value)
        if k == "struct":
            return {key: 0.0 for key in value}
        if k == "ptr":
            return value  # pointer target is uniform; offset merged below
        raise VectorUnsupported(f"cannot default-fill a {k} value")

    # -- merging ---------------------------------------------------------
    def _merge(self, old, new, m):
        if old is new:
            return old
        ko, kn = _kind(old), _kind(new)
        if ko in ("i", "f") and kn in ("i", "f"):
            # Stores arrive converted to the declared kind, and ternary
            # arms have one static type, so both sides agree.
            if _is_uniform(old) and _is_uniform(new) and old == new:
                return old
            return np.where(m, new, old)
        if ko == "vec" and kn == "vec":
            if old.shape[1] != new.shape[1]:
                raise VectorUnsupported("masked assignment mixes vector widths")
            return np.where(m[:, None], new, old)
        if ko == "struct" and kn == "struct":
            if set(old) != set(new):
                raise VectorUnsupported("masked assignment mixes struct types")
            return {key: self._merge(old[key], new[key], m) for key in old}
        if ko == "ptr" and kn == "ptr":
            same = (
                type(old) is type(new)
                and old.array is new.array
                and old.space == new.space
                and (not isinstance(old, RowPtr) or old.rows is new.rows)
            )
            if not same:
                raise VectorUnsupported("masked assignment mixes pointers")
            offset = self._merge_offsets(old.offset, new.offset, m)
            if isinstance(old, RowPtr):
                return RowPtr(old.array, old.rows, offset, old.space)
            return VPtr(old.array, offset, old.space)
        raise VectorUnsupported(f"cannot merge {ko} with {kn}")

    def _merge_offsets(self, old, new, m):
        if _is_uniform(old) and _is_uniform(new) and old == new:
            return old
        return np.where(m, new, old)

    # -- memory ----------------------------------------------------------
    def _lanes(self, v) -> np.ndarray:
        """Materialize a lane view of ``v`` (read-only broadcast)."""
        if isinstance(v, np.ndarray) and v.ndim == 1:
            return v
        return np.broadcast_to(np.asarray(v), (self.L,))

    def _log_load(self, ptr, aa, lanes, width, n) -> None:
        """Record a global/local load for deferred cached-load accounting.

        The scalar interpreter charges a load as *cached* when the same
        work-item already loaded the same address; the totals therefore
        equal ``events - distinct (lane, address) pairs`` — an
        order-independent quantity settled once per buffer at block end
        (see :class:`_LoadLog`), instead of a per-event bitmap.

        ``aa``/``lanes`` are the flattened active addresses from
        :meth:`_flat_addr` — shared with the race detector, and
        equivalent for counting distinct pairs because each lane's
        row is a function of the lane.
        """
        key = (id(ptr.array), width)
        log = self._load_log.get(key)
        if log is None:
            log = _LoadLog(ptr.array, ptr.space, width, self.L)
            self._load_log[key] = log
        log.add(aa, lanes, n)

    def _flush_load_log(self) -> None:
        counters = self.counters
        prof = _obs_profile.ACTIVE
        if self._sym_log:
            self._settle_sym_log(counters, prof)
        for log in self._load_log.values():
            events, distinct = log.totals()
            cached = (events - distinct) * log.width_units
            counters.cached_loads += cached
            fresh = distinct * log.width_units
            if log.space == "global":
                counters.global_loads += fresh
            else:
                counters.local_loads += fresh
            if prof is not None:
                prof.record_loads(log.array, log.space, fresh, cached)
        self._load_log.clear()

    def _obs_load_events(self) -> int:
        """Out-of-band running total of logged load events.

        Loads enter ``Counters`` only at block end (:meth:`
        _flush_load_log` settles the cached/fresh split), so the
        profiler's per-segment attribution reads this cheap running
        count instead.  Events include would-be cache hits, making the
        per-segment figure total load *traffic*, not distinct
        addresses.  Profiler-only: never feeds back into Counters."""
        return sum(
            log.events * log.width_units
            for log in self._load_log.values()
        ) + sum(sym.events for sym in self._sym_log.values())

    def _settle_sym_log(self, counters, prof) -> None:
        """Settle the fast path's symbolic chunks: in closed form where
        they cannot collide and no lane array logged the same buffer,
        else replayed into that buffer's :class:`_LoadLog`."""
        for key, sym in self._sym_log.items():
            log = self._load_log.get(key)
            if log is None:
                closed = sym.settle()
                if closed is not None:
                    events, distinct = closed
                    counters.cached_loads += events - distinct
                    if sym.space == "global":
                        counters.global_loads += distinct
                    else:
                        counters.local_loads += distinct
                    if prof is not None:
                        prof.record_loads(
                            sym.array, sym.space, distinct, events - distinct
                        )
                    continue
                log = self._load_log[key] = _LoadLog(
                    sym.array, sym.space, 0, self.L
                )
            sym.materialize_into(log, self._lane_ids)
        self._sym_log.clear()

    def _count_stores(self, ptr, space, count) -> None:
        """Count ``count`` store units against ``space``.

        ``ptr`` identifies the written buffer for the kernel profiler
        (``None`` for register traffic); the in-band counters use only
        ``space``/``count``, so profiling cannot change them."""
        counters = self.counters
        if space == "global":
            counters.global_stores += count
        elif space == "local":
            counters.local_stores += count
        else:
            counters.private_stores += count
        if _obs_profile.ACTIVE is not None and ptr is not None:
            _obs_profile.ACTIVE.record_stores(ptr.array, space, count)

    def _hazard(self, ptr):
        key = id(ptr.array)
        entry = self._hazards.get(key)
        if entry is None:
            # The packed local detector encodes lane ids below
            # SEG_SCALE, which covers a block of either layout; only a
            # single work-group larger than that (a block always holds
            # at least one whole group) uses the general detector,
            # which is sound for any buffer.
            cls = (
                _HazardLocal
                if ptr.space == "local" and self.L <= _HazardLocal.SEG_SCALE
                else _Hazard
            )
            entry = _acquire_hazard(ptr.array.size, cls).retarget(
                ptr.array, self._lanes_per_group
            )
            self._hazards[key] = entry
        return entry

    def _needs_hazard(self, ptr) -> bool:
        tracked = self._tracked
        if tracked is None:
            return True
        if id(ptr.array) in tracked:
            return True
        return False

    def _flat_addr(self, ptr, addr, m, n):
        """(flat addresses, lanes) for the active lanes of an access."""
        if n == self.L:
            lanes = self._lane_ids
            aa = self._lanes(addr)
            rows = ptr.rows if isinstance(ptr, RowPtr) else None
        else:
            lanes = self._lane_ids[m]
            aa = self._lanes(addr)[m]
            rows = ptr.rows[m] if isinstance(ptr, RowPtr) else None
        if rows is not None:
            aa = rows * ptr.array.shape[1] + aa
        return aa, lanes

    def _gather(self, ptr, index, m, n):
        off = ptr.offset
        addr = index if type(off) is int and off == 0 else off + index
        arr = ptr.array
        is_row = type(ptr) is RowPtr
        if ptr.space == "private":
            self.counters.private_loads += n
            if _is_uniform(addr):
                return arr[ptr.rows, int(addr)] if is_row else arr[int(addr)]
            safe = addr if n == self.L else np.where(m, addr, 0)
            return arr[ptr.rows, safe] if is_row else arr[safe]
        # Shared buffer: the flattened per-lane addresses are computed
        # once and shared between the load log, the race detector and
        # the gather itself.
        if is_row:
            flat = ptr.rows * arr.shape[1] + addr  # broadcasts uniform addr
        elif isinstance(addr, np.ndarray):
            flat = addr
        else:
            flat = None  # uniform address into a flat buffer
        if n == self.L:
            lanes = self._lane_ids
            aa = flat if flat is not None else (
                np.broadcast_to(np.asarray(addr), (n,))
            )
        else:
            lanes = self._lane_ids[m]
            aa = flat[m] if flat is not None else (
                np.broadcast_to(np.asarray(addr), (n,))
            )
        self._log_load(ptr, aa, lanes, 0, n)
        if self._needs_hazard(ptr):
            self._hazard(ptr).note_read(aa, lanes, self._segment, self._seg_base)
        if _is_uniform(addr):
            return arr[ptr.rows, int(addr)] if is_row else arr[int(addr)]
        # Inactive lanes read a safe dummy address; with a full mask the
        # addresses are already all valid.
        if is_row:
            safe = flat if n == self.L else np.where(m, flat, 0)
            return arr.reshape(-1)[safe]
        safe = addr if n == self.L else np.where(m, addr, 0)
        return arr[safe]

    def _scatter(self, ptr, index, value, m, n) -> None:
        off = ptr.offset
        addr = self._lanes(
            index if type(off) is int and off == 0 else off + index
        )
        values = self._lanes(value)
        arr = ptr.array
        is_row = type(ptr) is RowPtr
        if ptr.space != "private":
            if not self._needs_hazard(ptr):
                # The static analysis said this buffer is never written;
                # a store through it means the analysis was wrong —
                # bail to the (always correct) scalar path.
                raise VectorUnsupported(
                    "store through a buffer the write analysis missed"
                )
            flat = ptr.rows * arr.shape[1] + addr if is_row else addr
            if n == self.L:
                aa = flat
                lanes = self._lane_ids
            else:
                aa = flat[m]
                lanes = self._lane_ids[m]
            self._hazard(ptr).note_write(aa, lanes, self._segment, self._seg_base)
            # Duplicate addresses resolve in ascending lane order in a
            # flat fancy-store, exactly like the 2-D form.
            if n == self.L:
                arr.reshape(-1)[aa] = values
            else:
                arr.reshape(-1)[aa] = values[m]
            self._count_stores(ptr, ptr.space, n)
            return
        if is_row:
            if n == self.L:
                arr[ptr.rows, addr] = values
            else:
                arr[ptr.rows[m], addr[m]] = values[m]
        else:
            if n == self.L:
                arr[addr] = values
            else:
                arr[addr[m]] = values[m]
        self._count_stores(ptr, ptr.space, n)

    def _vload(self, ptr, offset, width, m, n):
        start = ptr.offset + offset * width
        cols = np.arange(width)
        if ptr.space == "private":
            self.counters.private_loads += n * width
        else:
            aa, lanes = self._flat_addr(ptr, start, m, n)
            self._log_load(ptr, aa, lanes, width, n)
            if self._needs_hazard(ptr):
                # 2-D (lane, slot) block: the detector broadcasts the
                # lane ids itself — no per-access repeat/ravel copies.
                self._hazard(ptr).note_read(
                    aa[:, None] + cols, lanes, self._segment, self._seg_base
                )
        if _is_uniform(start):
            start = int(start)
            if isinstance(ptr, VPtr):
                row = ptr.array[start : start + width].astype(np.float64)
                return np.tile(row, (self.L, 1))
            return ptr.array[ptr.rows, start : start + width].astype(np.float64)
        safe = np.where(m, start, 0)
        idx2 = safe[:, None] + cols
        if isinstance(ptr, VPtr):
            return ptr.array[idx2].astype(np.float64)
        return ptr.array[ptr.rows[:, None], idx2].astype(np.float64)

    def _vstore(self, ptr, offset, width, value, m, n) -> None:
        start = self._lanes(ptr.offset + offset * width)
        cols = np.arange(width)
        if ptr.space != "private":
            if not self._needs_hazard(ptr):
                raise VectorUnsupported(
                    "store through a buffer the write analysis missed"
                )
            aa, lanes = self._flat_addr(ptr, start, m, n)
            self._hazard(ptr).note_write(
                aa[:, None] + cols, lanes, self._segment, self._seg_base
            )
        if n == self.L:
            idx2 = start[:, None] + cols
            vals = value
            rows = ptr.rows if isinstance(ptr, RowPtr) else None
        else:
            idx2 = start[m][:, None] + cols
            vals = value[m]
            rows = ptr.rows[m] if isinstance(ptr, RowPtr) else None
        if rows is None:
            ptr.array[idx2.ravel()] = vals.ravel()
        else:
            # 2-D fancy store broadcasts the row per vector slot; flat
            # iteration order (and therefore duplicate-address
            # resolution) matches the old repeat/ravel form.
            ptr.array[rows[:, None], idx2] = vals
        self._count_stores(ptr, ptr.space, n * width)

    # -- the fast path ---------------------------------------------------
    #
    # Fast segments run on the first ``k`` lanes of the block (``k`` ==
    # L at segment top level, a prefix under a prefix-masked branch);
    # their values are Python scalars, length-``k`` arrays or Aff.
    def aff_values(self, v: Aff, k: int) -> np.ndarray:
        """Materialize the first ``k`` lanes of an affine descriptor,
        with one array operation per term that is not 0 or 1 (a bare
        lane or geometry array is returned as it is: read-only)."""
        s = v.flat_stride(self._lanes_per_group)
        full = k == self.L
        if s is not None:
            if s == 0:
                return np.broadcast_to(np.int64(v.base), (k,))
            lanes = self._lane_ids if full else self._lane_ids[:k]
            out = lanes if s == 1 else s * lanes
        else:
            out = None
            if v.gs:
                rows = self.group_row if full else self.group_row[:k]
                out = rows if v.gs == 1 else v.gs * rows
            if v.ls:
                lid = self.lid[0] if full else self.lid[0][:k]
                term = lid if v.ls == 1 else v.ls * lid
                out = term if out is None else out + term
        return out + v.base if v.base else out

    def lanes_k(self, v, k: int):
        """Materialize ``v`` for the active prefix; uniforms stay scalar
        (exactly the closure form's value discipline)."""
        if isinstance(v, Aff):
            return self.aff_values(v, k)
        if isinstance(v, np.ndarray) and v.ndim == 1 and v.shape[0] != k:
            return v[:k]
        return v

    def materialize_env(self) -> None:
        """Collapse the affine descriptors fast binds left in the
        environment before closure-form code runs."""
        if self._lazy_names:
            env = self.env
            for name in self._lazy_names:
                v = env[name]
                if type(v) is Aff:
                    env[name] = self.aff_values(v, self.L)
            self._lazy_names.clear()

    def prefix_mask(self, k: int) -> np.ndarray:
        if k == self.L:
            return self._full
        m = np.zeros(self.L, dtype=bool)
        m[:k] = True
        return m

    def _log_sym(self, ptr, stride: Optional[int], base: int, k: int) -> None:
        key = (id(ptr.array), 0)
        sym = self._sym_log.get(key)
        if sym is None:
            sym = self._sym_log[key] = _SymChunks(ptr.array, ptr.space)
        sym.add(stride, base, k)

    def _fast_addr(self, ptr, index, k: int):
        """The addresses the first ``k`` lanes access through ``ptr``
        (its offset included)."""
        off = ptr.offset
        if type(off) is np.ndarray:  # a lane-varying pointer: lanes too
            return (off if k == self.L else off[:k]) + self.lanes_k(index, k)
        return index if type(off) is int and off == 0 else _addr_add(off, index)

    def _flat_ptr(self, ptr, addr):
        """(flat array, flat affine address) for a shared-buffer access
        at the affine ``addr``, folding a RowPtr's per-group row into the
        descriptor; ``None`` when not representable."""
        if not isinstance(addr, Aff):
            return None
        if type(ptr) is VPtr:
            return ptr.array, addr
        # Local buffers: one row per work-group, rows == group row.
        if ptr.rows is not self.group_row:
            return None
        width = ptr.array.shape[1]
        return ptr.array.reshape(-1), Aff(addr.base, addr.gs + width, addr.ls)

    def _slice(self, ptr, addr, k: int, min_stride: int):
        """``(flat array, base, stride, last)`` when the first ``k``
        lanes' addresses form an in-bounds slice of stride at least
        ``min_stride``, else ``None``."""
        flat = self._flat_ptr(ptr, addr)
        if flat is None:
            return None
        arr, aff = flat
        s = aff.flat_stride(self._lanes_per_group)
        if s is None or s < min_stride:
            return None
        base = aff.base
        last = base + s * (k - 1)
        if base < 0 or last >= arr.shape[0]:
            return None
        return arr, base, s, last

    def fast_gather(self, ptr, index, k: int):
        addr = self._fast_addr(ptr, index, k)
        if ptr.space == "private":
            self.counters.private_loads += k
            aa = self.lanes_k(addr, k)
            if type(ptr) is RowPtr:
                rows = ptr.rows if k == self.L else ptr.rows[:k]
                if _is_uniform(aa):
                    return ptr.array[rows, int(aa)]
                return ptr.array[rows, aa]
            if _is_uniform(aa):
                return ptr.array[int(aa)]
            return ptr.array[aa]
        tracked = self._needs_hazard(ptr)
        if not tracked:
            if isinstance(addr, Aff):
                sliced = self._slice(ptr, addr, k, 0)
                if sliced is not None:
                    arr, base, s, last = sliced
                    if s == 0:
                        self._log_sym(ptr, None, base, k)
                        return arr[base]
                    self._log_sym(ptr, s, base, k)
                    # A view: nothing writes this buffer (untracked), so
                    # aliasing cannot bite.
                    return arr[base : base + k] if s == 1 else (
                        arr[base : last + 1 : s]
                    )
            elif _is_uniform(addr) and type(ptr) is VPtr:
                self._log_sym(ptr, None, int(addr), k)
                return ptr.array[int(addr)]
        # Materialize and mirror the closure form's exact path (same
        # logged pairs, same hazard notes, same values).
        aa = self.lanes_k(addr, k)
        arr = ptr.array
        lanes = self._lane_ids if k == self.L else self._lane_ids[:k]
        if type(ptr) is RowPtr:
            rows = ptr.rows if k == self.L else ptr.rows[:k]
            flat = rows * arr.shape[1] + aa  # broadcasts a uniform addr
            self._log_load(ptr, flat, lanes, 0, k)
            if tracked:
                self._hazard(ptr).note_read(
                    flat, lanes, self._segment, self._seg_base
                )
            if _is_uniform(aa):
                return arr[rows, int(aa)]
            return arr.reshape(-1)[flat]
        logged = np.broadcast_to(np.asarray(aa), (k,)) if _is_uniform(aa) else aa
        self._log_load(ptr, logged, lanes, 0, k)
        if tracked:
            self._hazard(ptr).note_read(
                logged, lanes, self._segment, self._seg_base
            )
        if _is_uniform(aa):
            return arr[int(aa)]
        return arr[aa]

    def fast_scatter(self, ptr, index, value, k: int, sole_site: bool) -> None:
        addr = self._fast_addr(ptr, index, k)
        if ptr.space == "private":
            vals = self.lanes_k(value, k)
            aa = self.lanes_k(addr, k)
            if type(ptr) is RowPtr:
                rows = ptr.rows if k == self.L else ptr.rows[:k]
                ptr.array[rows, aa] = vals
            else:
                ptr.array[aa] = vals
            self._count_stores(ptr, "private", k)
            return
        if not self._needs_hazard(ptr):
            raise VectorUnsupported(
                "store through a buffer the write analysis missed"
            )
        if sole_site and id(ptr.array) in self._sole_ids:
            sliced = self._slice(ptr, addr, k, 1)
            if sliced is not None:
                arr, base, s, last = sliced
                # Pairwise-distinct addresses + sole kernel-wide access +
                # unaliased at launch: race-free by construction
                # (sole_store_sites), no hazard bookkeeping.
                vals = self.lanes_k(value, k)
                if s == 1:
                    arr[base : base + k] = vals
                else:
                    arr[base : last + 1 : s] = vals
                self._count_stores(ptr, ptr.space, k)
                return
        # The closure form's scatter (hazard + fancy store; ascending
        # lane order resolves duplicate addresses).
        aa = self.lanes_k(addr, k)
        if _is_uniform(aa):
            aa = np.broadcast_to(np.asarray(aa, dtype=np.int64), (k,))
        vals = self.lanes_k(value, k)
        arr = ptr.array
        if type(ptr) is RowPtr:
            rows = ptr.rows if k == self.L else ptr.rows[:k]
            aa = rows * arr.shape[1] + aa
        lanes = self._lane_ids if k == self.L else self._lane_ids[:k]
        self._hazard(ptr).note_write(aa, lanes, self._segment, self._seg_base)
        if not isinstance(vals, np.ndarray):
            vals = np.broadcast_to(np.asarray(vals), (k,))
        arr.reshape(-1)[aa] = vals
        self._count_stores(ptr, ptr.space, k)

    # -- operators -------------------------------------------------------
    def _as_bool(self, v, m) -> np.ndarray:
        if isinstance(v, np.ndarray):
            if v.ndim != 1:
                raise VectorUnsupported("vector used in a scalar condition")
            if v.dtype.kind == "b":
                return v
            return v != 0
        if _is_uniform(v):
            return self._full if v else np.zeros(self.L, dtype=bool)
        raise VectorUnsupported(f"cannot use {v!r} as a condition")

    @staticmethod
    def _align(lhs, rhs):
        if isinstance(lhs, np.ndarray) and lhs.ndim == 2:
            if isinstance(rhs, np.ndarray) and rhs.ndim == 1:
                rhs = rhs[:, None]
        elif isinstance(rhs, np.ndarray) and rhs.ndim == 2:
            if isinstance(lhs, np.ndarray) and lhs.ndim == 1:
                lhs = lhs[:, None]
        return lhs, rhs

    @staticmethod
    def _int_div(a, b, m):
        if _is_uniform(a) and _is_uniform(b):
            return _c_int_div(int(a), int(b))
        zero = np.equal(b, 0)
        if bool(np.any(zero & m)):
            raise ExecError("integer division by zero")
        safe = np.where(zero, 1, b)
        q = np.abs(a) // np.abs(safe)
        return np.where(np.greater_equal(a, 0) == np.greater_equal(safe, 0), q, -q)

    @staticmethod
    def _int_mod(a, b, m):
        if _is_uniform(a) and _is_uniform(b):
            return _c_int_mod(int(a), int(b))
        q = _Block._int_div(a, b, m)
        safe = np.where(np.equal(b, 0), 1, b)
        return a - q * safe

_MISSING = object()


def _rev(a: np.ndarray) -> np.ndarray:
    """Reverse the flat (row-major) iteration order of a scatter index —
    for 2-D blocks that means reversing both axes."""
    return a[::-1] if a.ndim == 1 else a[::-1, ::-1]


class _Hazard:
    """Cross-lane data-race detector for one shared buffer.

    The scalar interpreter runs the work-items of a barrier-free segment
    sequentially to completion, so a later item can observe an earlier
    item's writes; the lane-batched engine runs statement-by-statement
    across all lanes.  The two orders agree exactly for race-free
    kernels.  This detector flags the conflicts that could differ, and
    the launcher then falls back to the scalar path, preserving its
    semantics bit for bit:

    * same-address accesses from *different lanes of one work-group*
      with at least one write, within one barrier segment (a barrier
      orders them in both engines);
    * same-address accesses from *different work-groups* with at least
      one write, in **any** segment of the current block — barriers do
      not order work-groups, the scalar engine runs them sequentially,
      so any cross-group conflict is order-dependent.  (Blocks run in
      the scalar engine's group order, so cross-*block* conflicts agree
      by construction.)

    Bookkeeping is fully vectorized: per address, the writing lane and
    the min/max reading lanes, each epoch-stamped with the barrier
    segment.  Segments increase monotonically across blocks *and across
    launches* (``_pool_tls.epoch``), so the stamp arrays never
    need re-initialization: entries stamped before the current block's
    first segment are simply stale — nothing is ever cleared, which is
    what lets :func:`_acquire_hazard` pool the five bookkeeping arrays
    across blocks and launches instead of re-allocating ~5x the buffer
    size per launch.  Within a single statement all lanes are
    simultaneous in both engines, so intra-statement duplicates are not
    conflicts; checks run against the pre-statement state only.

    Local (row-partitioned) buffers use :class:`_HazardLocal` instead:
    their flat addresses embed the work-group ordinal, so two accesses
    to one address are always same-group, the cross-group terms vanish,
    and only same-*segment* conflicts remain — which admits a packed
    ``segment * SEG_SCALE + lane`` representation with one array per
    access kind.
    """

    __slots__ = (
        "array", "lanes_per_group",
        "w_stamp", "writer", "r_stamp", "r_min", "r_max",
    )

    def __init__(self, size: int):
        self.array: Optional[np.ndarray] = None
        self.lanes_per_group = 1
        self.w_stamp = np.full(size, -1, dtype=np.int64)
        self.writer = np.zeros(size, dtype=np.int64)
        self.r_stamp = np.full(size, -1, dtype=np.int64)
        self.r_min = np.zeros(size, dtype=np.int64)
        self.r_max = np.zeros(size, dtype=np.int64)

    def retarget(self, array: np.ndarray, lanes_per_group: int) -> "_Hazard":
        """Bind a pooled detector to a buffer.  Old stamps are stale by
        the epoch argument callers pass (always past stamps), so the
        arrays keep whatever they contained."""
        self.array = array
        self.lanes_per_group = lanes_per_group
        return self

    def note_read(
        self, addrs: np.ndarray, lanes: np.ndarray, seg: int, base: int
    ) -> None:
        """``addrs`` may be 1-D (one address per active lane) or 2-D
        ``(lane, vector-slot)`` for whole ``vloadN`` accesses; the 2-D
        form broadcasts the per-lane ids instead of ``np.repeat``-ing
        them per access (row-major flattening preserves the ascending
        lane order the duplicate-address scatters rely on)."""
        if addrs.ndim == 2:
            lanes = lanes[:, None]
        stamp = self.w_stamp[addrs]
        writer = self.writer[addrs]
        l0 = self.lanes_per_group
        conflict = (
            (stamp >= base)
            & (writer != lanes)
            & ((stamp == seg) | (writer // l0 != lanes // l0))
        )
        if conflict.any():
            raise VectorUnsupported(
                "cross-lane read of an address written by another "
                "work-item (order-dependent result)"
            )
        # Reader min/max accumulate across the whole block (a later
        # same-group reader must not mask an earlier cross-group one);
        # ``r_stamp`` keeps the *latest* read segment for the same-segment
        # write check and for staleness across blocks.
        valid = self.r_stamp[addrs] >= base
        new_min = np.where(valid, np.minimum(self.r_min[addrs], lanes), lanes)
        new_max = np.where(valid, np.maximum(self.r_max[addrs], lanes), lanes)
        # Lanes ascend, so a forward scatter keeps the max for duplicate
        # addresses and a reversed scatter keeps the min.
        self.r_min[_rev(addrs)] = _rev(new_min)
        self.r_max[addrs] = new_max
        self.r_stamp[addrs] = seg

    def note_write(
        self, addrs: np.ndarray, lanes: np.ndarray, seg: int, base: int
    ) -> None:
        """Accepts the same 1-D / 2-D address forms as :meth:`note_read`."""
        if addrs.ndim == 2:
            lanes = lanes[:, None]
        w_stamp = self.w_stamp[addrs]
        writer = self.writer[addrs]
        r_stamp = self.r_stamp[addrs]
        r_min = self.r_min[addrs]
        r_max = self.r_max[addrs]
        l0 = self.lanes_per_group
        groups = lanes // l0
        conflict = (
            (w_stamp >= base)
            & (writer != lanes)
            & ((w_stamp == seg) | (writer // l0 != groups))
        )
        conflict |= (
            (r_stamp >= base)
            & ((r_min != lanes) | (r_max != lanes))
            & (
                (r_stamp == seg)
                | (r_min // l0 != groups)
                | (r_max // l0 != groups)
            )
        )
        if conflict.any():
            raise VectorUnsupported(
                "cross-lane write/read conflict (order-dependent result)"
            )
        self.writer[addrs] = lanes
        self.w_stamp[addrs] = seg


class _HazardLocal:
    """Race detector for row-partitioned local buffers.

    Cross-group conflicts are structurally impossible (the flat address
    embeds the group row), and same-group accesses in different barrier
    segments are ordered by the barrier in both engines — so only
    *same-segment* conflicts remain.  That admits packing each entry as
    ``segment * SEG_SCALE + lane``: the monotonically increasing
    segment makes ``np.maximum`` both the update rule and the staleness
    filter (older segments always lose), and a single comparison against
    ``segment * SEG_SCALE`` tests "touched in this segment".

    ``r_hi`` keeps the packed *largest* reader lane of the latest
    segment; ``r_lo`` the smallest, stored lane-inverted
    (``SEG_SCALE-1 - lane``) so the same max-update applies.  Compared
    to the block-accumulating min/max of :class:`_Hazard` this is
    *more* precise for the write check (an earlier-segment reader is
    barrier-ordered and no longer triggers a conservative fallback) and
    equally sound: any same-segment foreign-lane access survives the
    max against older entries.
    """

    #: Must exceed the largest lane index of a block in either layout:
    #: ``MAX_LANES`` blocked, ``FUSED_MAX_LANES`` whole-grid (asserted
    #: below).  The packed entries stay far inside int64: 2**42 segments.
    SEG_SCALE = 1 << 21

    __slots__ = ("array", "w_pack", "r_hi", "r_lo", "w_seg", "r_seg")

    def __init__(self, size: int):
        self.array: Optional[np.ndarray] = None
        self.w_pack = np.full(size, -1, dtype=np.int64)
        self.r_hi = np.full(size, -1, dtype=np.int64)
        self.r_lo = np.full(size, -1, dtype=np.int64)
        # Last segment with any write/read of this buffer.  Segments are
        # globally unique (monotonic epochs), so a plain int comparison
        # tells "was this buffer touched earlier in this segment" —
        # which gates the per-address conflict scans below.
        self.w_seg = -1
        self.r_seg = -1

    def retarget(self, array: np.ndarray, lanes_per_group: int) -> "_HazardLocal":
        self.array = array
        return self

    def note_read(
        self, addrs: np.ndarray, lanes: np.ndarray, seg: int, base: int
    ) -> None:
        """1-D or 2-D ``addrs``; see :meth:`_Hazard.note_read`."""
        if addrs.ndim == 2:
            lanes = lanes[:, None]
        scale = self.SEG_SCALE
        thr = seg * scale
        t_hi = lanes + thr
        if self.w_seg == seg:
            # Only a write earlier in this very segment can conflict
            # with a read; otherwise skip the scan entirely.
            packed = self.w_pack[addrs]
            conflict = (packed >= thr) & (packed != t_hi)
            if conflict.any():
                raise VectorUnsupported(
                    "cross-lane read of an address written by another "
                    "work-item (order-dependent result)"
                )
        # Duplicate addresses within one call: lanes ascend, so the
        # forward scatter keeps the largest packed hi and the reversed
        # scatter the largest packed lo (= smallest lane).
        self.r_hi[addrs] = np.maximum(self.r_hi[addrs], t_hi)
        t_lo = (thr + scale - 1) - lanes
        lo = np.maximum(self.r_lo[addrs], t_lo)
        self.r_lo[_rev(addrs)] = _rev(lo)
        self.r_seg = seg

    def note_write(
        self, addrs: np.ndarray, lanes: np.ndarray, seg: int, base: int
    ) -> None:
        """1-D or 2-D ``addrs``; see :meth:`_Hazard.note_read`."""
        if addrs.ndim == 2:
            lanes = lanes[:, None]
        scale = self.SEG_SCALE
        thr = seg * scale
        t_hi = lanes + thr
        conflict = None
        if self.w_seg == seg:
            packed = self.w_pack[addrs]
            conflict = (packed >= thr) & (packed != t_hi)
        if self.r_seg == seg:
            t_lo = (thr + scale - 1) - lanes
            r_hi = self.r_hi[addrs]
            r_conflict = (r_hi >= thr) & (
                (r_hi != t_hi) | (self.r_lo[addrs] != t_lo)
            )
            conflict = r_conflict if conflict is None else conflict | r_conflict
        if conflict is not None and conflict.any():
            raise VectorUnsupported(
                "cross-lane write/read conflict (order-dependent result)"
            )
        self.w_pack[addrs] = t_hi
        self.w_seg = seg


assert _HazardLocal.SEG_SCALE >= max(MAX_LANES, FUSED_MAX_LANES), (
    "a block of either layout must fit the packed local race detector"
)


# -- pooled per-thread runtime state ----------------------------------------
#
# The autotune and explore loops re-launch the same kernel hundreds of
# times; allocating fresh hazard arrays, geometry arrays and lane masks
# per launch dominates small launches.  All pools are thread-local (a
# candidate attempt the explorer's watchdog gave up on can still be
# launching on its own thread beside the next candidate) and bounded.

_pool_tls = _threading.local()

#: Hazard detectors above this buffer size are not pooled (their arrays
#: would pin too much memory between launches).
_HAZARD_POOL_MAX_SIZE = 1 << 20
_HAZARD_POOL_PER_SIZE = 8
#: Total bookkeeping bytes one thread's pool may pin between launches.
_HAZARD_POOL_MAX_BYTES = 64 << 20

#: Launch geometries with more work-items than this are recomputed per
#: launch instead of cached.
_GEOMETRY_CACHE_MAX_ITEMS = 1 << 16
_GEOMETRY_CACHE_ENTRIES = 8


def _hazard_bytes(hz) -> int:
    if type(hz) is _HazardLocal:
        return 3 * 8 * hz.w_pack.size
    return 5 * 8 * hz.w_stamp.size


def _acquire_hazard(size: int, cls) -> "_Hazard | _HazardLocal":
    if size > _HAZARD_POOL_MAX_SIZE:
        return cls(size)
    pool = getattr(_pool_tls, "hazards", None)
    if pool is None:
        pool = {}
        _pool_tls.hazards = pool
    stack = pool.get((size, cls))
    if stack:
        hz = stack.pop()
        _pool_tls.hazard_bytes = (
            getattr(_pool_tls, "hazard_bytes", 0) - _hazard_bytes(hz)
        )
        return hz
    return cls(size)


def _release_hazards(hazards: dict) -> None:
    pool = getattr(_pool_tls, "hazards", None)
    if pool is None:
        pool = {}
        _pool_tls.hazards = pool
    pooled_bytes = getattr(_pool_tls, "hazard_bytes", 0)
    for hz in hazards.values():
        array = hz.array
        if array is None:
            continue
        size = array.size
        hz.array = None  # do not pin the buffer
        if size > _HAZARD_POOL_MAX_SIZE:
            continue
        cost = _hazard_bytes(hz)
        if pooled_bytes + cost > _HAZARD_POOL_MAX_BYTES:
            continue
        stack = pool.setdefault((size, type(hz)), [])
        if len(stack) < _HAZARD_POOL_PER_SIZE:
            stack.append(hz)
            pooled_bytes += cost
    _pool_tls.hazard_bytes = pooled_bytes
    hazards.clear()


class _LoadLog:
    """Deferred per-buffer load accounting (see ``_Block._log_load``).

    Chunks are stored as raw ``(addresses, lanes)`` pairs; the
    ``addr * L + lane`` encoding is deferred to :meth:`totals` so a
    whole block's worth of events is encoded with one batched
    multiply-add instead of two small array ops per load site.
    """

    __slots__ = (
        "array", "space", "width_units", "lane_count",
        "chunks", "events", "_pending",
    )

    #: Compact (deduplicate) the pending chunks past this many entries.
    COMPACT_AT = 1 << 22

    def __init__(self, array: np.ndarray, space: str, width: int, lane_count: int):
        self.array = array  # keep the buffer alive while its id is a key
        self.space = space
        self.width_units = width if width else 1
        self.lane_count = lane_count
        self.chunks: list = []  # (addresses, lanes) or (encoded, None)
        self.events = 0
        self._pending = 0

    def add(self, aa: np.ndarray, lanes: np.ndarray, n: int) -> None:
        self.chunks.append((aa, lanes))
        self.events += n
        self._pending += n
        if self._pending > self.COMPACT_AT:
            self.chunks = [(_distinct_sorted(self._encode_all()), None)]
            self._pending = int(self.chunks[0][0].size)

    def _encode_all(self) -> np.ndarray:
        L = self.lane_count
        parts: list = []
        raw_aa: list = []
        raw_lanes: list = []
        for aa, lanes in self.chunks:
            if lanes is None:
                parts.append(aa)
            else:
                raw_aa.append(aa)
                raw_lanes.append(lanes)
        if raw_aa:
            if len(raw_aa) == 1:
                parts.append(raw_aa[0] * L + raw_lanes[0])
            else:
                parts.append(
                    np.concatenate(raw_aa) * L + np.concatenate(raw_lanes)
                )
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def totals(self) -> tuple:
        if not self.chunks:
            return 0, 0
        if len(self.chunks) == 1:
            # One chunk means one execution of one load site: the
            # ``addr * L + lane`` encoding is injective over the
            # distinct active lanes, so every entry is already unique.
            return self.events, int(self.chunks[0][0].size)
        cat = np.sort(self._encode_all())
        distinct = 1 + int(np.count_nonzero(cat[1:] != cat[:-1]))
        return self.events, distinct


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted unique values (plain sort beats hash-based ``np.unique``
    for the int64 address codes the load log stores)."""
    if values.size == 0:
        return values
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _vclamp(x, lo, hi):
    return np.minimum(np.maximum(x, lo), hi)


def _lane_dot(a, b):
    """Lane-batched ``dot``: per-lane multiply-add chain over the vector
    components, in the same left-to-right order as the scalar
    interpreter's ``_ordered_dot`` — elementwise IEEE operations over a
    lane axis are bitwise-identical to the scalar sequence, which is
    what makes this reduction lane-stable.
    """
    if not (isinstance(a, np.ndarray) and a.ndim == 2):
        return a * b  # scalar dot degenerates to a multiply
    acc = a[:, 0] * b[:, 0]
    for i in range(1, a.shape[1]):
        acc = acc + a[:, i] * b[:, i]
    return acc


def _lane_length(a):
    return np.sqrt(_lane_dot(a, a))


#: Lane-safe builtin table: same names and flop costs as the scalar
#: interpreter, with implementations that work element-wise over lanes.
_VMATH = {
    name: (cost, fn) for name, (cost, fn) in _MATH_BUILTINS.items()
}
_VMATH.update(
    {
        "min": (1, np.minimum),
        "max": (1, np.maximum),
        "clamp": (2, _vclamp),
        "dot": (7, _lane_dot),
        "length": (11, _lane_length),
    }
)


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------

def try_launch(
    parsed: ParsedProgram,
    kernel: c.CFunctionDef,
    gsize: tuple,
    lsize: tuple,
    base_env: dict,
    local_decls: list,
    counters: Counters,
    pipeline,
    whole_grid: bool = False,
) -> None:
    """Run ``pipeline`` (the kernel's compiled pipeline from
    :mod:`repro.opencl.simt_compile`) over the launch (counters merged,
    buffers written), in one of two layouts: blocks of whole work-groups
    of at most :data:`MAX_LANES` lanes, run in the scalar engine's group
    order, or — ``whole_grid`` — the entire launch as one block (the
    caller keeps it within :data:`FUSED_MAX_LANES`).

    On a dynamic :class:`VectorUnsupported` the buffers the kernel may
    write (:func:`written_pointer_roots`) are restored from a snapshot
    and the exception — whose message is the decline reason the ledger
    records — propagates, so the caller can re-run the launch on another
    tier.  No other buffer needs one: a store through it raises before
    it writes.  The whole-grid layout multiplies per-lane state by the
    entire launch, so running out of memory there is refused the same
    way.
    """
    written = written_pointer_roots(parsed, kernel)
    snapshot: dict = {}
    for name, v in base_env.items():
        if isinstance(v, Pointer) and name in written and id(v.array) not in snapshot:
            snapshot[id(v.array)] = (v.array, v.array.copy())
    staged = Counters()
    try:
        with np.errstate(all="ignore"):
            _run_blocks(
                kernel, gsize, lsize, base_env, local_decls, staged,
                pipeline, written, whole_grid,
            )
    except (VectorUnsupported, MemoryError) as exc:
        for array, saved in snapshot.values():
            array[:] = saved
        if isinstance(exc, VectorUnsupported) or not whole_grid:
            raise
        raise VectorUnsupported("whole-grid layout ran out of memory") from exc
    counters.merge_in(staged)


def _block_geometry(gsize: tuple, lsize: tuple, whole_grid: bool = False) -> dict:
    """Per-block lane geometry, cached per launch shape.

    The returned arrays are shared (and marked read-only): the engine
    only ever derives new arrays from them.  The autotune/explore loops
    re-launch identical geometries hundreds of times, which makes the
    ``tile``/``repeat`` setup a measurable share of small launches.

    ``whole_grid`` ignores :data:`MAX_LANES` and lays the entire launch
    out as a single block (the ``fused`` engine's layout).  Each block
    records its first work-group ordinal, which the fast path's lazy
    geometry is offset by.
    """
    key = (gsize, lsize, whole_grid)
    cache: "OrderedDict[tuple, dict]" = getattr(_pool_tls, "geometry", None)
    if cache is None:
        cache = OrderedDict()
        _pool_tls.geometry = cache
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
        return hit

    num_groups = tuple(g // l for g, l in zip(gsize, lsize))
    total_groups = num_groups[0] * num_groups[1] * num_groups[2]
    lanes_per_group = lsize[0] * lsize[1] * lsize[2]
    if whole_grid:
        block_groups = total_groups
    else:
        block_groups = max(
            1, min(total_groups, MAX_LANES // max(1, lanes_per_group))
        )

    # Lane order within a group matches the scalar scheduler: z-outer,
    # y-middle, x-inner.
    l0 = np.arange(lanes_per_group)
    lid_group = (
        l0 % lsize[0],
        (l0 // lsize[0]) % lsize[1],
        l0 // (lsize[0] * lsize[1]),
    )

    blocks = []
    for start in range(0, total_groups, block_groups):
        ords = np.arange(start, min(start + block_groups, total_groups))
        n_groups = len(ords)
        lanes = n_groups * lanes_per_group
        group_dims = (
            ords % num_groups[0],
            (ords // num_groups[0]) % num_groups[1],
            ords // (num_groups[0] * num_groups[1]),
        )
        group_row = np.repeat(np.arange(n_groups), lanes_per_group)
        lid = tuple(np.tile(lid_group[d], n_groups) for d in range(3))
        group_ids = tuple(group_dims[d][group_row] for d in range(3))
        gid = tuple(group_ids[d] * lsize[d] + lid[d] for d in range(3))
        lane_ids = np.arange(lanes)
        full = np.ones(lanes, dtype=bool)
        for arr in (group_row, lane_ids, full, *lid, *group_ids, *gid):
            arr.setflags(write=False)
        blocks.append(
            {
                "first_group": start,
                "n_groups": n_groups,
                "lanes": lanes,
                "group_row": group_row,
                "lid": lid,
                "gid": gid,
                "group_ids": group_ids,
                "lane_ids": lane_ids,
                "full": full,
            }
        )

    geometry = {
        "num_groups": num_groups,
        "total_groups": total_groups,
        "lanes_per_group": lanes_per_group,
        "blocks": blocks,
    }
    if total_groups * lanes_per_group <= _GEOMETRY_CACHE_MAX_ITEMS:
        cache[key] = geometry
        while len(cache) > _GEOMETRY_CACHE_ENTRIES:
            cache.popitem(last=False)
    return geometry


def _run_blocks(
    kernel, gsize, lsize, base_env, local_decls, counters, pipeline,
    written, whole_grid,
):
    geometry = _block_geometry(gsize, lsize, whole_grid)
    num_groups = geometry["num_groups"]

    tracked = {
        id(v.array)
        for name, v in base_env.items()
        if isinstance(v, Pointer) and name in written
    }
    # The sole-store proof holds for a buffer no other argument aliases.
    sole = pipeline.sole_names
    sole_ids: frozenset = frozenset()
    if sole:
        arrays = [id(v.array) for v in base_env.values() if isinstance(v, Pointer)]
        sole_ids = frozenset(
            id(v.array)
            for name, v in base_env.items()
            if name in sole and isinstance(v, Pointer)
            and arrays.count(id(v.array)) == 1
        )
    one_d = gsize[1] == gsize[2] == lsize[1] == lsize[2] == 1

    vptr_env = dict(base_env)
    for name, value in vptr_env.items():
        if isinstance(value, Pointer):
            vptr_env[name] = VPtr(value.array, value.offset, value.space)

    prof = _obs_profile.ACTIVE
    if prof is not None:
        prof.begin_launch(kernel.name)
        for name, value in vptr_env.items():
            if isinstance(value, VPtr):
                prof.map_buffer(value.array, name)

    for geo in geometry["blocks"]:
        n_groups = geo["n_groups"]
        group_row = geo["group_row"]
        block_tracked = tracked
        block_sole = sole_ids
        env = dict(vptr_env)
        for decl in local_decls:
            local_array = np.zeros(
                (n_groups, decl.array_size), dtype=array_dtype(decl.type_name)
            )
            env[decl.name] = RowPtr(local_array, group_row, 0, "local")
            if prof is not None:
                prof.map_buffer(local_array, decl.name)
            if decl.name in written:
                if block_tracked is tracked:
                    block_tracked = set(tracked)
                block_tracked.add(id(local_array))
            if decl.name in sole:  # a fresh array: never aliased
                block_sole = block_sole | {id(local_array)}

        block = _Block(
            counters, geo["lanes"], group_row, geo["lid"],
            geo["gid"], geo["group_ids"], gsize, lsize, num_groups,
            seg_start=getattr(_pool_tls, "epoch", 0),
            tracked=block_tracked,
            lane_ids=geo["lane_ids"],
            full=geo["full"],
            first_group=geo["first_group"],
            sole_ids=block_sole,
            one_d=one_d,
        )
        block.env = env
        try:
            pipeline.run(block)
            block._flush_load_log()
        finally:
            _pool_tls.epoch = block._segment + 1
            _release_hazards(block._hazards)
    counters.work_items += (
        geometry["total_groups"] * geometry["lanes_per_group"]
    )

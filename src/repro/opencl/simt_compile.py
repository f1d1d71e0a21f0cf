"""Closure compilation for the lane-batched SIMT runtime.

Walking the kernel AST for every block of work-groups would pay a type
dispatch per statement, a string comparison per operator and a table
lookup per builtin, in every block of every launch.  This module pays
the walk **once per kernel**: the AST is lowered into a pipeline of
Python closures over the lane-array runtime of
:class:`repro.opencl.simt._Block`, the only lane-array evaluator of the
AST, resolving statically what a walk would re-derive per block.  At
plan time exactly two passes visit the kernel's AST: the syntactic
:func:`scan_kernel` (which names work-items agree on, barrier
placement, name facts, sole store sites) and the typing walk, which
does the rest:

* statement and expression dispatch (one closure per node) and operator
  selection (``+`` compiles to ``operator.add``, ``/`` to integer or
  true division);
* **value types**: the walk is also the static typing pass — each node
  gets its kind and vector width from its children's by the rules of
  :mod:`repro.opencl.interp` (names and members through
  :class:`~repro.opencl.interp.StaticTypes`), so a closure aligns,
  converts or tests for a pointer only where the types say it must;
* **access facts**: an ``int`` node affine in the work-item ids (a
  lane-uniform term plus uniform multiples of the local and group ids)
  gets that fact (:func:`affine_fact`, :func:`scan_kernel`), and every
  load and store site carries its address's fact to the runtime
  (:class:`~repro.opencl.simt.Access`): a lane-uniform load is one
  scalar read, a full-mask access linear in the flat lane index a
  slice, load accounting and bounds checks take closed form, a buffer's
  sole lane-injective store skips the race detector, and ``if (i < n)``
  on an affine ``i`` a lane prefix;
* geometry builtins, ``vload``/``vstore`` widths, math builtins and
  their flop costs, struct member templates, declaration dtypes;
* helper functions: a **straight-line** helper (every Lift user
  function) is inlined into its caller's closure; a helper with control
  flow keeps its own return-mask frame;
* **written buffers**: the names a store may reach through a pointer,
  helper parameters included (``Pipeline.written``), which the launcher
  race-tracks;
* **batched loops**: a counted loop with a straight-line body runs the
  part of its body that reads no carried value for many iterations at
  once (``Pipeline.batched``), and a loop whose one carried statement
  is ``acc = acc ⊕ h`` its accumulation too (``Pipeline.closed``;
  "batched loops" below).

The walk types every node or refuses the kernel: a node no rule types,
or a name, return or member that would hold two types, raises
:class:`~repro.opencl.interp.Untyped` naming it, and so does a form
the lane tiers do not run (``opencl/ENGINES.md``, "Static refusals":
a name outside its scope, a condition of no scalar type, a pointer that
a mask would merge across two buffers, ...) at the node that has it;
the scan refuses a barrier under lane-divergent control or beside an
early ``return``.  No closure reads the type of a value at run time,
and the one run-time error of its own is a cross-lane race.  A
refused kernel has no pipeline: :func:`get_pipeline` returns the
reason, which the backend raises as
:class:`~repro.backend.CompileUnsupported`.

The pipeline is segmented at top-level barriers (:func:`split_at_barriers`),
as the scalar engine schedules segments between synchronization
points; the launcher (:func:`repro.opencl.simt.run_blocks`) runs it in
blocks or over the whole grid, bit for bit as the scalar interpreter:
same buffers, same :class:`Counters`.  Pipelines and refusals are cached
on the parsed program, which the runtime shares per source, per kernel
and element kinds of its pointer arguments: an exploration run walks
each kernel once.
"""

from __future__ import annotations

import operator
import threading
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.obs import trace as _obs_trace

from repro.compiler import cast as c
from repro.opencl.cparser import ParsedProgram
from repro.opencl.interp import (
    B,
    COMPARE,
    CType,
    ExecError,
    F,
    I,
    StaticTypes,
    Untyped,
    VOID,
    _MATH_BUILTINS,
    _SCALAR,
    _VEC_MEMBERS,
    array_dtype,
    binop_count,
    binop_type,
    builtin_type,
    cast_type,
    children,
    copied,
    declared_element_kind,
    declared_kinds,
    element_kind,
    index_type,
    is_arith,
    is_vector,
    join,
    scalar_kind,
    statement_parts,
    stored_type,
    typed_zero,
    unop_type,
    vector_column,
    vector_literal_width,
    vector_type,
)
from repro.opencl import simt as _simt
from repro.opencl.simt import (
    BASIS,
    Access,
    _Block,
    _Chunk,
    _Frame,
    _LANE_DTYPE,
    _VMATH,
    _by_value,
    _convert,
    _expand,
    _is_uniform,
    _take,
)

_align = _Block._align


# Expression closures take ``(block, mask, active_count)`` and return a
# value; statement closures additionally take the function's return
# frame: ``(block, mask, active_count, frame)``.
ExprFn = Callable
StmtFn = Callable


_GEOMETRY_FIELDS = {
    "get_global_id": "gid",
    "get_local_id": "lid",
    "get_group_id": "group_ids",
    "get_local_size": "local_size",
    "get_global_size": "global_size",
    "get_num_groups": "num_groups",
}


def _is_vload(name: str) -> bool:
    return name.startswith("vload") and name[5:].isdigit()


def _is_vstore(name: str) -> bool:
    return name.startswith("vstore") and name[6:].isdigit()


#: ``l op r`` per arithmetic operator (C's ``%`` on floats is ``fmod``,
#: like the oracle's ``math.fmod``).
_OPERATOR = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": np.fmod,
}
#: The same as ``value_of(l, r, m)`` functions of matching widths.
_PLAIN = {op: (lambda fn: lambda l, r, m: fn(l, r))(fn) for op, fn in _OPERATOR.items()}


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def _needs_align(lt: CType, rt: CType) -> bool:
    """Whether one side is a vector and the other lanes."""
    return lt.width != rt.width


def _converts(kind: Optional[str], t: CType) -> bool:
    """Whether storing a value of type ``t`` into a location of declared
    scalar ``kind`` changes it (vectors, pointers and structs pass)."""
    return kind in _LANE_DTYPE and is_arith(t) and t.width == 1 and t.kind != kind


def _arith_operand(fn: ExprFn, t: CType) -> tuple:
    """``(closure, type)`` of an operand of arithmetic: a comparison's
    bool lanes become the C ``int`` 0 / 1 they stand for
    (:func:`~repro.opencl.interp.arith_operand`)."""
    return (_as_int(fn), I) if t == B else (fn, t)


def _as_int(fn: ExprFn) -> ExprFn:
    def as_int(b, m, n):
        v = fn(b, m, n)
        return v.astype(np.int64) if type(v) is np.ndarray else int(v)

    return as_int


def _charge(counters, field: str, amount: int) -> None:
    setattr(counters, field, getattr(counters, field) + amount)


def declared_pointer_kinds(kernel: c.CFunctionDef) -> tuple:
    """Element kinds of the buffers the kernel's pointer parameters
    declare — what a plan assumes until a launch binds others."""
    return tuple(
        declared_element_kind(p.type_name) for p in kernel.params if p.is_pointer
    )


# ---------------------------------------------------------------------------
# access facts
# ---------------------------------------------------------------------------
#
# The typing walk also gives an ``int`` node an affine fact where it has
# one (``StaticTypes.affine``): on every active lane its value is
# ``u + sum(c_k * id_k)`` over the basis ids (``simt.BASIS``: local and
# group id per dimension) with a block-uniform ``u``.  A fact is the
# tuple of the six coefficients, each an ``int`` or a symbolic uniform
# value (``("name", x)``, ``("geo", field, dim)`` or an ``("+" | "*",
# a, b)`` of them); all zero is a lane-uniform value.  The uniform term
# is not kept: the launcher reads it off an active lane.  Literals,
# names every work-item agrees on, the size getters and the id builtins
# have facts; ``+`` and ``-`` of two facts and ``*`` by a uniform value
# keep them; any other node has none.  A name has the fact every store
# to it carries (:func:`scan_kernel`), where its coefficients read no
# name but a parameter the kernel never stores to.

_ZERO = (0,) * len(BASIS)
#: The size getters: uniform across the launch.
_SIZES = {
    "get_local_size": "local_size",
    "get_global_size": "global_size",
    "get_num_groups": "num_groups",
}
#: Calls whose result the work-items of a group agree on, given
#: arguments they agree on; all but ``get_group_id`` hold across the grid.
_UNIFORM_CALLS = frozenset(_SIZES) | frozenset(_MATH_BUILTINS) | {"get_group_id"}
#: What a value read through ``get_group_id`` depends on (no C name).
_GROUP = "get_group_id()"
#: The expression nodes whose value is uniform when their parts are.
_COMPOSITE = frozenset((c.CInt, c.CFloat, c.CBinOp, c.CUnOp, c.CCast, c.CTernary))


def _sym(op: str, a, b):
    """``a op b`` (``+`` or ``*``) of two symbolic uniform values."""
    if type(a) is int and type(b) is int:
        return a + b if op == "+" else a * b
    identity = 0 if op == "+" else 1
    if a == identity or b == identity:
        return b if a == identity else a
    return 0 if op == "*" and (a == 0 or b == 0) else (op, a, b)


def _dim(e: c.CCall) -> Optional[int]:
    """A geometry builtin's literal dimension (0 to 2; the walk refuses
    any other)."""
    if not e.args:
        return 0
    dim = e.args[0]
    return dim.value if type(dim) is c.CInt and 0 <= dim.value <= 2 else None


def _uniform_value(e, scope: "Scope"):
    """The symbolic value of an ``int`` expression every work-item agrees
    on, or ``None``."""
    t = type(e)
    if t is c.CInt:
        return e.value
    if t is c.CIdent:
        return ("name", e.name) if e.name in scope.uniform else None
    if t is c.CCall:
        dim = _dim(e) if e.func in _SIZES else None
        return None if dim is None else ("geo", _SIZES[e.func], dim)
    if t is not c.CBinOp or e.op not in ("+", "-", "*"):
        return None
    lhs, rhs = _uniform_value(e.lhs, scope), _uniform_value(e.rhs, scope)
    if lhs is None or rhs is None:
        return None
    if e.op == "-":
        rhs = _sym("*", -1, rhs)
    return _sym("*" if e.op == "*" else "+", lhs, rhs)


def affine_fact(e, scope: "Scope") -> Optional[tuple]:
    """The affine fact of ``int`` expression ``e`` (see above), with the
    names' facts of ``scope``, or ``None``."""
    t = type(e)
    if t is c.CInt:
        return _ZERO
    if t is c.CIdent:
        return _ZERO if e.name in scope.uniform else scope.facts.get(e.name)
    if t is c.CCall:
        dim = _dim(e) if e.func.startswith("get_") else None
        if dim is None or e.func in _SIZES:
            return _ZERO if dim is not None else None
        fact = list(_ZERO)
        if e.func in ("get_local_id", "get_global_id"):
            fact[dim] = 1
        if e.func == "get_group_id":
            fact[3 + dim] = 1
        elif e.func == "get_global_id":
            fact[3 + dim] = ("geo", "local_size", dim)
        return tuple(fact)
    if t is not c.CBinOp or e.op not in ("+", "-", "*"):
        return None
    lhs, rhs = affine_fact(e.lhs, scope), affine_fact(e.rhs, scope)
    if lhs is None or rhs is None:
        return None
    if e.op == "*":  # by a uniform value: the other side's coefficients scale
        factor = _uniform_value(e.rhs, scope) if rhs == _ZERO else None
        if factor is None:
            factor = _uniform_value(e.lhs, scope) if lhs == _ZERO else None
            lhs = rhs
        return None if factor is None else tuple(_sym("*", factor, k) for k in lhs)
    if rhs == _ZERO or lhs == _ZERO and e.op == "+":
        return lhs if rhs == _ZERO else rhs
    if e.op == "-":
        rhs = tuple(_sym("*", -1, k) for k in rhs)
    return tuple(_sym("+", a, b) for a, b in zip(lhs, rhs))


class Scope:
    """What facts a function's names have: ``uniform``, the ``int``
    names every work-item agrees on, and ``facts``, the other names'.
    A helper has neither (its parameters are per call)."""

    __slots__ = ("uniform", "facts")

    def __init__(self, uniform=frozenset()):
        self.uniform = uniform
        self.facts: dict = {}


class KernelScan(NamedTuple):
    """What :func:`scan_kernel` finds in a kernel for the walk."""

    scope: "Scope"  # the facts of the kernel's names
    steady: frozenset  # see :func:`_steady`
    group: frozenset  # the names the work-items of each group agree on
    has_returns: bool  # whether the kernel body holds a ``return``
    sole_names: frozenset
    sole_sites: frozenset


def scan_kernel(kernel: c.CFunctionDef) -> KernelScan:
    """One syntactic pass over a kernel, before the walk; it raises
    :class:`~repro.opencl.interp.Untyped` for a barrier the lane tiers
    cannot run.

    A name is *uniform* over a set of work-items when they all agree on
    it: a parameter or assigned name none of whose stores (declaration,
    assignment, compound assignment, member store) may differ between
    them — its value or an enclosing loop or branch condition reads
    something that does.  The pass records each store with the names it
    reads; demotion propagates through those sets to a fixpoint (the
    greatest set of names consistent with every store).  Literals, the
    size getters and math builtins of agreed arguments are agreed on;
    lane ids, loads, helper calls, members and vectors never are.  There
    are two levels: a group's work-items (``group``), which also agree
    on ``get_group_id``, and the grid's (``scope.uniform``, the ``int``
    names among them).  A barrier must sit only under conditions its
    group agrees on, and never in a kernel that returns early.

    A name has a fact when it is declared once and every store to it
    carries one, all with the same coefficients, each under control its
    lanes agree on from the declaration down: a branch or loop condition
    every work-item agrees on, or the condition of the loop whose
    initialisation declares it (inside that loop its active lanes all
    made the same steps).  Names are taken in declaration order: one has
    a fact when all its stores carry its declaration's, given the facts
    of the names before it (and its own), and its coefficients read no
    name but parameters the kernel never stores to: they are read where
    the name is used, so a uniform name they read must not change after
    the store.

    The sole names are the buffers (pointer parameters, local arrays)
    whose one access anywhere is one store site (the sole site).  No
    lane reads such a buffer, so only two lanes storing to one address
    can race: a store at lane-injective addresses needs no race
    detector while its executions in a block cannot meet
    (``simt._Block._sole_write``) and no other argument aliases the
    buffer (the launcher checks).  A barrier orders a local array's
    accesses, so a local array's store site is sole already when it is
    the array's one access between two top-level barriers (a loop or
    branch holding a barrier lies inside one such stretch); its proof
    restarts at every barrier."""
    kinds = declared_kinds(kernel)
    decls: dict = {}  # name -> [count, control around it, value]
    # (name, stored value or None, the names the value reads, the names
    # it and the conditions around it read, the names the conditions
    # below the name's declaration read; None: its lanes may disagree
    # whatever they read)
    stores: list = []
    conds: dict = {}  # id(loop or branch) -> the names its condition reads
    barriers: list = []  # the names the conditions around each barrier read
    returns = [False]
    buffers = {p.name for p in kernel.params if p.is_pointer}
    local: set = set()  # the local arrays
    sites: dict = {}  # buffer -> its store statements
    loads: set = set()
    poison: set = set()  # names used other than to load or store
    stretch = [0]  # how many top-level barriers lie behind
    touched: dict = {}  # (buffer, stretch) -> its accesses there
    placed: dict = {}  # id(store statement) -> its stretch

    def touch(name: str) -> None:
        key = (name, stretch[0])
        touched[key] = touched.get(key, 0) + 1

    def scan(e) -> None:
        if type(e) is c.CIndex and type(e.base) is c.CIdent:
            loads.add(e.base.name)
            touch(e.base.name)
            scan(e.index)
        elif type(e) is c.CIdent:
            poison.add(e.name)
        else:
            for part in children(e):
                scan(part)

    def store(name: str, value, ctrl: tuple, reads) -> None:
        # A store sits in its name's scope (the walk refuses any other),
        # so the control around the declaration is a prefix of ``ctrl``.
        below = frozenset()
        for s in ctrl[len(decls[name][1]) if name in decls else 0:]:
            below = _with(conds[id(s)], below)
        own = _reads(value, set())
        stores.append((name, value, own, _with(reads, own), below))

    def walk(s, ctrl: tuple, reads) -> None:
        t = type(s)
        if t is c.CBlock:
            for sub in s.stmts:
                walk(sub, ctrl, reads)
        elif t is c.CDecl:
            value = s.init if s.init is not None else c.CInt(0)
            decls.setdefault(s.name, [0, ctrl, value])[0] += 1
            store(s.name, value, ctrl, reads)
            if s.array_size is not None and s.qualifier == "local":
                buffers.add(s.name)
                local.add(s.name)
            scan(value)
        elif t is c.CBarrier:
            stretch[0] += not ctrl
            barriers.append(reads)
        elif t is c.CAssign:
            target = s.target
            if type(target) is c.CIdent:
                value = s.value if s.op == "=" else c.CBinOp(s.op[0], target, s.value)
                store(target.name, value, ctrl, reads)
            elif type(target) is c.CIndex and type(target.base) is c.CIdent:
                sites.setdefault(target.base.name, []).append(s)
                placed[id(s)] = stretch[0]
                touch(target.base.name)
                if s.op != "=":  # a compound store loads the address
                    loads.add(target.base.name)
                    touch(target.base.name)
                scan(target.index)
            else:
                scan(target)
                if type(target) is c.CMember and type(target.base) is c.CIdent:
                    stores.append((target.base.name, None, None, None, None))
            scan(s.value)
        elif t is c.CFor or t is c.CIf:
            # A loop's initialisation runs under the control around it,
            # its body and step under its condition too; the facts take
            # all three as inside the loop.
            inner = ctrl + (s,)
            cond = conds[id(s)] = (
                frozenset() if s.cond is None else _reads(s.cond, set())
            )
            if s.cond is not None:
                scan(s.cond)
            under = _with(reads, cond)
            if t is c.CFor:
                if s.init is not None:
                    walk(s.init, inner, reads)
                walk(s.body, inner, under)
                if s.step is not None:
                    walk(s.step, inner, under)
            else:
                walk(s.then, inner, under)
                if s.otherwise is not None:
                    walk(s.otherwise, inner, under)
        else:
            returns[0] = returns[0] or t is c.CReturn
            for part in statement_parts(s)[0]:
                scan(part)

    walk(kernel.body, (), frozenset())
    stored = {name for name, *_ in stores}
    names = {p.name for p in kernel.params} | stored
    store_reads = [(s[0], s[3]) for s in stores]
    group = _agreed(names, store_reads, {_GROUP})
    if barriers:
        if returns[0]:
            raise Untyped("barrier combined with early return")
        if any(reads is None or not reads <= group for reads in barriers):
            raise Untyped("barrier under lane-divergent control flow")
    agreed = _agreed(names, store_reads, set())
    scope = Scope(frozenset(n for n in agreed if kinds.get(n) == "i"))
    # Names declared once whose every store (the declaration's among
    # them) sits under control its lanes agree on below the declaration.
    candidates = {
        name: [] for name, decl in decls.items()
        if decl[0] == 1 and kinds.get(name) == "i" and name not in scope.uniform
    }
    for name, value, _, _, below in stores:
        if name in candidates:
            if value is not None and below is not None and below <= agreed:
                candidates[name].append(value)
            else:
                del candidates[name]
    # A stored fact's coefficients are read when the name is used, so
    # they may read only the parameters no statement stores to.
    fixed = {p.name for p in kernel.params if not p.is_pointer} - stored
    # In declaration order, so a declaration finds the facts of the names
    # it reads (a name read before its declaration has none).
    for name, values in candidates.items():
        fact = scope.facts[name] = affine_fact(values[0], scope)
        if fact is None or any(_names(k) - fixed for k in fact) or any(
            affine_fact(v, scope) != fact for v in values[1:]
        ):
            del scope.facts[name]
    sole = {
        name: sites[name] for name in buffers
        if len(sites.get(name, ())) == 1 and name not in loads and name not in poison
    }
    for name in local - poison - set(sole):
        alone = [s for s in sites.get(name, ()) if touched[name, placed[id(s)]] == 1]
        if alone:
            sole[name] = alone
    return KernelScan(
        scope, _steady(kernel, decls, stores), frozenset(group - {_GROUP}),
        returns[0], frozenset(sole),
        frozenset(id(s) for v in sole.values() for s in v),
    )


def _steady(kernel: c.CFunctionDef, decls: dict, stores: list) -> frozenset:
    """The greatest set of parameters and names declared once whose
    stores read only such names, under conditions that read only such
    names from the declaration down (a loop whose initialisation
    declares the name ends its scope for the lanes it lets out).  Each
    holds one value on the lanes in its scope that have not returned:
    a store may replace it whole, and a condition reading only such
    names sends all its lanes one way."""
    top = {p.name for p in kernel.params}
    top.update(name for name, decl in decls.items() if decl[0] == 1)
    return frozenset(_agreed(top, [
        (name, _with(below, own)) for name, _, own, _, below in stores if name in top
    ], set()))


def _helper_steady(fn: c.CFunctionDef) -> frozenset:
    """A helper's names a store may replace whole: its parameters and
    the names it declares, every store of which is a statement of its
    body's top level.  The lanes of a call need not agree on them, as a
    kernel's steady names' lanes do, but every lane of the call that has
    not returned runs such a store, and no lane outside the call reads
    a helper's names."""
    names = {p.name for p in fn.params}
    nested: set = set()

    def walk(s, top: bool) -> None:
        t = type(s)
        if t is c.CBlock:
            for sub in s.stmts:
                walk(sub, top)
        elif t is c.CDecl or t is c.CAssign:
            name = s.name if t is c.CDecl else _assigned_name(s.target)
            if name is not None:  # not a store through a pointer
                names.add(name)
                if not top:
                    nested.add(name)
        else:
            for sub in statement_parts(s)[1]:
                walk(sub, False)

    walk(fn.body, True)
    return frozenset(names - nested)


def _reads(e, names: set) -> Optional[set]:
    """``names`` plus the names ``e`` reads (:data:`_GROUP` for a group
    id), or ``None`` when work-items may disagree on ``e`` whatever they
    read (a lane id, a load, a helper call, a member or vector value)."""
    t = type(e)
    if t is c.CIdent:
        names.add(e.name)
        return names
    if t is c.CCall:
        if e.func not in _UNIFORM_CALLS:
            return None
        if e.func == "get_group_id":
            names.add(_GROUP)
    elif t not in _COMPOSITE:
        return None
    for part in children(e):
        if _reads(part, names) is None:
            return None
    return names


def _with(ctrl, reads):
    """What a store reads under control reading ``ctrl``."""
    if ctrl is None or reads is None:
        return None
    return ctrl | reads if ctrl else reads


def _agreed(names: set, stores: list, given: set) -> set:
    """The greatest subset of ``names`` (plus ``given``) whose every
    store, a ``(name, the names it reads)``, reads only names in it."""
    agreed = names | given
    changed = True
    while changed:
        changed = False
        for name, reads in stores:
            if name in agreed and (reads is None or not reads <= agreed):
                agreed.discard(name)
                changed = True
    return agreed


def _value_of(value, b, lane: Optional[int] = None):
    """A symbolic uniform value in block ``b`` (``None``: no ``int``);
    with ``lane``, a name whose lanes were merged under a mask is read
    on that (active) lane."""
    if type(value) is int:
        return value
    if value[0] == "name":
        v = b.env.get(value[1])
        if isinstance(v, (int, np.integer)):
            return int(v)
        if lane is not None and type(v) is np.ndarray and v.ndim == 1 \
                and v.dtype.kind == "i":
            return int(v[lane])
        return None
    if value[0] == "geo":
        return getattr(b, value[1])[value[2]]
    lhs, rhs = _value_of(value[1], b, lane), _value_of(value[2], b, lane)
    if lhs is None or rhs is None:
        return None
    return lhs + rhs if value[0] == "+" else lhs * rhs


def _names(value) -> frozenset:
    """The names a symbolic value reads (none: the launch's sizes only)."""
    if type(value) is int or value[0] == "geo":
        return frozenset()
    if value[0] == "name":
        return frozenset((value[1],))
    return _names(value[1]) | _names(value[2])


def _access(ctx, pointer, index, scale: int = 1, sole: bool = False) -> Access:
    """The :class:`~repro.opencl.simt.Access` of a load or store through
    ``pointer`` at ``index`` (times ``scale``, a vector access's width)."""
    fact = ctx.fact(index)
    if fact is None:
        return Access(pointer, sole=sole)
    scaled = tuple((k, _sym("*", scale, v)) for k, v in enumerate(fact) if v != 0)
    if all(type(v) is int for _, v in scaled):
        return Access(pointer, terms=scaled, sole=sole)
    if ctx.unfixed and any(_names(v) & ctx.unfixed for _, v in scaled):
        # Its coefficients change from one iteration of a batched loop
        # to the next: neither a chunk nor a batched iteration reads
        # them where it could read the iteration's.
        return Access(pointer, sole=sole)

    def coefficients(b):
        terms = [(k, _value_of(v, b)) for k, v in scaled]
        if any(v is None for _, v in terms):
            return None
        return tuple((k, v) for k, v in terms if v)

    acc = Access(pointer, coefficients=coefficients, sole=sole)
    acc.geometric = not any(_names(v) for _, v in scaled)
    return acc


class _Ctx:
    """Per-pipeline compilation state: the static types the walk fills,
    the function being compiled (its declared kinds: stores resolve
    their conversion here, at plan time; the names it may write through)
    and the helper bodies compiled so far."""

    def __init__(self, parsed: ParsedProgram, fn: c.CFunctionDef,
                 types: StaticTypes, scan: KernelScan):
        self.parsed = parsed
        self.types = types
        #: ``id(node) -> type``, filled as the nodes compile.
        self.typed = types.exprs
        self.fn = fn
        self.kinds = declared_kinds(fn)
        self.names = types.names.setdefault(fn.name, {})
        self.scope = scan.scope  # the facts of the function's names
        #: The names a store may replace whole (:meth:`is_steady`), and
        #: those the active lanes agree on (a kernel's steady names; none
        #: in a helper).
        self.steady = self.agreed = scan.steady
        self.stack = (fn.name,)  # the functions being compiled, outermost first
        #: The names in scope where the walk is.
        self.visible = {p.name for p in fn.params}
        #: The function's names a store may reach a buffer through, and
        #: ``(name, the names of the pointer stored into it)`` per store
        #: (a ternary that may merge two pointers is a name here).
        self.written: set = set()
        self.flows: list = []
        self.sole_sites = scan.sole_sites
        #: name -> (framed body or inlined parts, its written parameters)
        self.helpers: dict = {}
        self.loads: dict = {}  # name -> its (shared) load closure
        #: While a batched loop's body compiles, what the scope being
        #: compiled hoists (:class:`_Hoist`).
        self.hoist: Optional[_Hoist] = None
        #: While a batched loop's body compiles, the names its
        #: iterations change (its variable, what the body assigns).
        self.unfixed: frozenset = frozenset()
        self.effect_free: dict = {}  # function name -> :func:`_effect_free`
        #: The expression statements' expressions (``id``): the only
        #: nodes whose value may be ``void``.
        self.discarded: set = set()
        self.inlined = 0  # call sites compiled inline
        self.accesses = 0  # load and store sites
        self.affine = 0  # of which with a fact
        self.batched = 0  # loops batched
        self.closed = 0  # of which with a closed chain

    def type_of(self, e) -> CType:
        return self.typed[id(e)]

    def fact(self, e) -> Optional[tuple]:
        """The affine fact of the typed node ``e`` (``int`` nodes only)."""
        facts = self.types.affine
        key = id(e)
        if key not in facts:
            facts[key] = (
                affine_fact(e, self.scope) if self.typed.get(key) == I else None
            )
        return facts[key]

    def access(self, pointer, index, scale: int = 1, sole: bool = False) -> Access:
        """The planned :class:`~repro.opencl.simt.Access` of a site."""
        acc = _access(self, pointer, index, scale, sole)
        self.accesses += 1
        if acc.terms is not None or acc.coefficients is not None:
            self.affine += 1
        return acc

    def define(self, name: str, t: Optional[CType]) -> None:
        """``t`` stored into ``name`` (a declaration or an assignment)."""
        self.types.update(
            self.names, name, stored_type(self.kinds.get(name), t),
            f"{name!r} in {self.fn.name!r}",
        )

    def returned(self, t: CType) -> None:
        if t.kind == "ptr":
            raise Untyped(f"{self.fn.name!r} returns a pointer")
        self.types.update(
            self.types.returns, self.fn.name, t,
            f"the value {self.fn.name!r} returns",
        )

    def is_steady(self, name: str) -> bool:
        """Whether a store may replace ``name`` whole: a kernel's steady
        name (:func:`_steady`), or a helper's (:func:`_helper_steady`,
        found when first asked)."""
        if self.steady is None:
            self.steady = _helper_steady(self.fn)
        return name in self.steady

    def refuse(self, e, detail: str) -> Untyped:
        """The refusal of node ``e`` of the function being compiled,
        ``detail`` naming why."""
        return Untyped(
            f"no static type for {c.print_expr(e)!r} in {self.fn.name!r}: {detail}"
        )

    def roots(self, e) -> set:
        """The names whose buffers the typed node ``e`` may point into
        (none unless it is a pointer)."""
        t = self.typed.get(id(e))
        if t is None or t.kind != "ptr":
            return set()
        if type(e) is c.CIdent:
            return {e.name}
        return set().union(*(self.roots(part) for part in children(e)))

    def settle(self) -> set:
        """The function's written names, closed under its flows: a name
        that is written makes what was stored into it written.

        A mask merges pointers lane by lane within one buffer, so a name
        (or a ternary whose lanes may go both ways) that may point into
        two (a parameter or an array each) is refused, unless a store to
        it replaces it whole (:func:`_steady`, :func:`_helper_steady`).
        A pointer parameter points into its own buffer before any store
        to it."""
        own = {p.name for p in self.fn.params if p.is_pointer}
        buffers: dict = {}  # pointer name -> the buffers it may point into
        changed = True
        while changed:
            changed = False
            for name, roots in self.flows:
                into = buffers.setdefault(name, {name} & own)
                for root in roots:
                    more = buffers.get(root, {root}) - into
                    if more:
                        into |= more
                        changed = True
        for name, into in buffers.items():
            if len(into) > 1 and not self.is_steady(name):
                a, b = sorted(into)[:2]
                raise Untyped(f"{name!r} in {self.fn.name!r} points into both {a} and {b}")
        self.written |= set().union(*(buffers.get(w, ()) for w in self.written))
        return self.written

    def bind(self, name: str, value, value_c: ExprFn, declaring: bool, vt) -> StmtFn:
        """The store ``name = value_c(...)`` of ``value``, of type ``vt``,
        converted to the declared kind of ``name`` only where it may
        differ — resolved here, once, at plan time."""
        if name not in self.visible:  # declared by :func:`_compile_decl`
            raise self.refuse(c.CIdent(name), "it is not declared here")
        self.define(name, vt)
        if vt.kind == "ptr":
            self.flows.append((name, self.roots(value)))
        kind = self.kinds.get(name)
        if _converts(kind, vt):
            value_c = _converted(kind, value_c)
        if declaring or self.is_steady(name):
            return _bind_whole(name, value_c)
        return _bind_masked(name, value_c)


def _scoped(compile, part, ctx: "_Ctx", has_returns: bool) -> StmtFn:
    """``compile(part, ...)`` in a scope of its own: what it declares
    goes out of scope after it."""
    visible = ctx.visible
    ctx.visible = set(visible)
    try:
        return compile(part, ctx, has_returns)
    finally:
        ctx.visible = visible


def _kinds(fn: c.CFunctionDef) -> dict:
    """``fn``'s declared kinds; a name declared with two is refused."""
    kinds = declared_kinds(fn)
    for name, kind in kinds.items():
        if kind == "mixed":
            raise Untyped(f"{name!r} is declared with two types in {fn.name!r}")
    return kinds


def _bind_whole(name: str, value_c: ExprFn) -> StmtFn:
    """A store no lane outside the mask reads later: a declaration (in
    its scope, a lane reads the name after it declared it) or a store
    to a steady name (:func:`_steady`)."""

    def bind_whole(b, m, n, frame):
        b.env[name] = value_c(b, m, n)

    return bind_whole


def _bind_masked(name: str, value_c: ExprFn) -> StmtFn:
    def bind_masked(b, m, n, frame):
        v = value_c(b, m, n)
        b.env[name] = v if n == b.L else b._merge(b.env[name], v, m)

    return bind_masked


def _converted(kind: str, value_c: ExprFn) -> ExprFn:
    return lambda b, m, n: _convert(kind, value_c(b, m, n))


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

# Every expression compiler records its node's type in ``ctx.typed``
# from its children's (compiled first, so typed), and ``_compile_expr``
# refuses a node left without one.  Each closure is made by a small
# factory of its own: a function that defines several closures pays for
# every variable any of them captures on each call, and the walk makes
# one call per node.

def _compile_expr(e, ctx: _Ctx) -> ExprFn:
    if ctx.hoist is not None:
        hoist = ctx.hoist
        slot = hoist.slots.get(id(e))
        if slot is not None:  # hoisted: compiled for the hoisted part too
            ctx.hoist = None
            try:
                value_c = hoist.compiled[id(e)] = _compile_expr(e, ctx)
            finally:
                ctx.hoist = hoist
            return _hoisted(slot, value_c)
    t = type(e)
    if t is c.CIdent:
        name = e.name
        if name not in ctx.visible:
            raise ctx.refuse(e, "it is not declared here")
        vt = ctx.typed[id(e)] = ctx.names.get(name)
        if vt is None:  # a parameter of no type the walk knows
            raise ctx.refuse(e, "it holds no typed value here")
        load = ctx.loads.get(name)
        if load is None:
            load = ctx.loads[name] = _load(name)
        return load
    if t is c.CInt or t is c.CFloat:
        ctx.typed[id(e)] = I if t is c.CInt else F
        return _constant(e.value)
    if t is c.CBinOp:
        fn = _compile_binop(e, ctx)
    elif t is c.CCall:
        fn = _compile_call(e, ctx)
        if ctx.typed[id(e)] == VOID and id(e) not in ctx.discarded:
            raise ctx.refuse(e, "its value is void")
    elif t is c.CIndex:
        fn = _compile_index(e, ctx)
    elif t is c.CMember:
        fn = _compile_member(e, ctx)
    elif t is c.CUnOp:
        if e.op == "-":
            operand = _compile_expr(e.operand, ctx)
            fn = _negate(_arith_operand(operand, ctx.typed[id(e.operand)])[0])
        else:
            assert e.op == "!", e  # the parser's only other unary operator
            fn = _logical_not(_condition(e.operand, ctx))
        ctx.typed[id(e)] = unop_type(e.op, ctx.typed[id(e.operand)])
    elif t is c.CTernary:
        fn = _compile_ternary(e, ctx)
    elif t is c.CCast:
        fn = _compile_cast(e, ctx)
    else:
        assert t is c.CVectorLiteral, e  # the parser builds no other node
        fn = _compile_vector_literal(e, ctx)
    if ctx.typed[id(e)] is None:
        raise ctx.refuse(e, _operands(e, ctx))
    return fn


def _operands(e, ctx: _Ctx) -> str:
    """The types a node was given to type, for its refusal."""
    t = type(e)
    if t is c.CTernary:
        return f"arms {ctx.type_of(e.then)} and {ctx.type_of(e.otherwise)}"
    if t is c.CIndex:
        return f"base {ctx.type_of(e.base)}, index {ctx.type_of(e.index)}"
    if t is c.CMember:
        return f"base {ctx.type_of(e.base)}"
    return "operands " + (", ".join(str(ctx.type_of(p)) for p in children(e)) or "none")


def _constant(value) -> ExprFn:
    return lambda b, m, n: value


def _load(name: str) -> ExprFn:
    def load_ident(b, m, n):
        try:
            return b.env[name]
        except KeyError:
            raise ExecError(f"undefined identifier {name!r}") from None

    return load_ident


def _negate(operand: ExprFn) -> ExprFn:
    return lambda b, m, n: -operand(b, m, n)


def _logical_not(operand: ExprFn) -> ExprFn:
    return lambda b, m, n: ~b._as_bool(operand(b, m, n), m)


def _compile_binop(e: c.CBinOp, ctx: _Ctx) -> ExprFn:
    op = e.op
    typed = ctx.typed
    if op == "&&" or op == "||":
        typed[id(e)] = B
        lhs = _condition(e.lhs, ctx)
        return _short_circuit(op == "&&", lhs, _condition(e.rhs, ctx))
    lhs = _compile_expr(e.lhs, ctx)
    rhs = _compile_expr(e.rhs, ctx)
    lt, rt = typed[id(e.lhs)], typed[id(e.rhs)]
    typed[id(e)] = binop_type(op, lt, rt)
    if typed[id(e)] is None:
        return None  # refused by _compile_expr
    return _binop(op, lhs, rhs, lt, rt, _divisor(e))


def _divisor(e: c.CBinOp) -> Optional[int]:
    """A literal right operand's value (what a division is counted by)."""
    return e.rhs.value if type(e.rhs) is c.CInt else None


def _binop(op: str, lhs: ExprFn, rhs: ExprFn, lt, rt, divisor) -> ExprFn:
    """``lhs op rhs`` (not ``&&`` / ``||``) over operands of the static
    types ``lt`` / ``rt``."""
    cmp = COMPARE.get(op)
    if cmp is not None:
        if _needs_align(lt, rt):
            return _compare_aligned(cmp, lhs, rhs)
        return _compare(cmp, lhs, rhs)
    lhs, lt = _arith_operand(lhs, lt)
    rhs, rt = _arith_operand(rhs, rt)
    value_of, field, units = _binop_parts(op, lt, rt, divisor)
    if value_of is _PLAIN[op]:
        if field == "flops":
            return _arith_flops(_OPERATOR[op], lhs, rhs, units)
        if field == "iops":
            return _arith_iops(_OPERATOR[op], lhs, rhs)
    return _arith(value_of, lhs, rhs, field, units)


def _short_circuit(is_and: bool, lhs: ExprFn, rhs: ExprFn) -> ExprFn:
    def short_circuit(b, m, n):
        lb = b._as_bool(lhs(b, m, n), m)
        m2 = (m & lb) if is_and else (m & ~lb)
        n2 = int(np.count_nonzero(m2))
        if n2:
            rb = b._as_bool(rhs(b, m2, n2), m2)
        else:
            rb = np.zeros(b.L, dtype=bool)
        return (lb & rb) if is_and else (lb | rb)

    return short_circuit


def _compare(cmp, lhs: ExprFn, rhs: ExprFn) -> ExprFn:
    def compare(b, m, n):
        l = lhs(b, m, n)
        r = rhs(b, m, n)
        b.counters.iops += n
        return cmp(l, r)

    return compare


def _compare_aligned(cmp, lhs: ExprFn, rhs: ExprFn) -> ExprFn:
    def compare_aligned(b, m, n):
        l = lhs(b, m, n)
        r = rhs(b, m, n)
        b.counters.iops += n
        return cmp(*_align(l, r))

    return compare_aligned


def _arith_flops(fn, lhs: ExprFn, rhs: ExprFn, units: int) -> ExprFn:
    def arith_flops(b, m, n):
        l = lhs(b, m, n)
        r = rhs(b, m, n)
        b.counters.flops += units * n
        return fn(l, r)

    return arith_flops


def _arith_iops(fn, lhs: ExprFn, rhs: ExprFn) -> ExprFn:
    def arith_iops(b, m, n):
        l = lhs(b, m, n)
        r = rhs(b, m, n)
        b.counters.iops += n
        return fn(l, r)

    return arith_iops


def _arith(value_of, lhs: ExprFn, rhs: ExprFn, field: str, units: int) -> ExprFn:
    def arith(b, m, n):
        l = lhs(b, m, n)
        r = rhs(b, m, n)
        _charge(b.counters, field, units * n)
        return value_of(l, r, m)

    return arith


def _binop_value(op: str, lt: CType, rt: CType):
    """``value_of(l, r, m)`` for one arithmetic operator over operands of
    the types ``lt`` / ``rt``; every test of the operands' types is made
    here, once."""
    if lt.kind == "ptr":  # ``+`` or ``-``: binop_type types no other
        if op == "+":
            return lambda l, r, m: l.plus(r)
        return lambda l, r, m: l.plus(-r)
    if lt == I and rt == I and op in ("/", "%"):
        return _Block._int_div if op == "/" else _Block._int_mod
    if _needs_align(lt, rt):
        fn = _OPERATOR[op]
        return lambda l, r, m: fn(*_align(l, r))
    return _PLAIN[op]


@lru_cache(maxsize=4096)
def _binop_parts(
    op: str, lt, rt, divisor: Optional[int] = None, counted=None
) -> tuple:
    """``(value_of(l, r, m), Counters field, units per lane)`` for one
    arithmetic operator over operands of the types ``lt``/``rt``;
    ``divisor`` is a literal right operand's value.  A compound
    assignment counts its current value against the result: its type is
    ``counted``."""
    counted = rt if counted is None else counted
    return (_binop_value(op, lt, rt),) + binop_count(op, lt, counted, divisor)


def _compile_ternary(e: c.CTernary, ctx: _Ctx) -> ExprFn:
    cond = _condition(e.cond, ctx)
    then = _compile_expr(e.then, ctx)
    other = _compile_expr(e.otherwise, ctx)
    t = ctx.typed[id(e)] = join(ctx.typed[id(e.then)], ctx.typed[id(e.otherwise)])
    if t is not None and t.kind == "ptr":
        # The arms may merge unless the condition's lanes agree: it
        # reads steady names only, none that a batched loop's chunk
        # holds an iteration's value of on each lane.
        reads = _reads(e.cond, set())
        if reads is None or not reads <= ctx.agreed - ctx.unfixed:
            ctx.flows.append((c.print_expr(e), ctx.roots(e)))

    def ternary(b, m, n):
        b.counters.branches += n
        cv = b._as_bool(cond(b, m, n), m)
        mt = m & cv
        nt = int(np.count_nonzero(mt))
        nf = n - nt
        if nf == 0:
            return then(b, mt, nt)
        mf = m & ~cv
        if nt == 0:
            return other(b, mf, nf)
        tv = then(b, mt, nt)
        fv = other(b, mf, nf)
        return b._merge(fv, tv, cv)  # the arms have one static type and root

    return ternary


def _column(bv, iv, m):
    """Component ``iv`` (uniform or per lane) of the vector lanes ``bv``."""
    if _is_uniform(iv):
        return bv[:, int(iv)]
    idx = np.where(m, iv, 0)
    return np.take_along_axis(bv, idx[:, None], 1)[:, 0]


def _index_of(e, index: ExprFn, ctx: _Ctx) -> ExprFn:
    """The closure of ``e``, an index: address arithmetic."""
    return _arith_operand(index, ctx.typed[id(e)])[0]


def _compile_index(e: c.CIndex, ctx: _Ctx) -> ExprFn:
    base = _compile_expr(e.base, ctx)
    index = _index_of(e.index, _compile_expr(e.index, ctx), ctx)
    bt = ctx.typed[id(e.base)]
    ctx.typed[id(e)] = index_type(bt, ctx.typed[id(e.index)])
    if bt.kind == "ptr":
        return _gather(base, index, ctx.access(e.base, e.index))
    return lambda b, m, n: _column(base(b, m, n), index(b, m, n), m)


def _gather(base: ExprFn, index: ExprFn, acc: Access) -> ExprFn:
    return lambda b, m, n: b._gather(base(b, m, n), index(b, m, n), m, n, acc)


def _compile_member(e: c.CMember, ctx: _Ctx) -> ExprFn:
    base = _compile_expr(e.base, ctx)
    member = e.member
    bt = ctx.typed[id(e.base)]
    ctx.typed[id(e)] = ctx.types.member_of(bt, member)
    if bt.kind == "struct":
        return _struct_member(base, member)
    # Of a vector: a component (``x``..``w``, ``sN``) or a half.
    col = vector_column(member)
    if col is not None:
        return _vector_component(base, col)
    return _vector_half(base, bt.width // 2, member == "lo")


def _struct_member(base: ExprFn, member: str) -> ExprFn:
    return lambda b, m, n: base(b, m, n)[member]


def _vector_component(base: ExprFn, col: int) -> ExprFn:
    return lambda b, m, n: base(b, m, n)[:, col]


def _vector_half(base: ExprFn, half: int, lo: bool) -> ExprFn:
    if lo:
        return lambda b, m, n: base(b, m, n)[:, :half].copy()
    return lambda b, m, n: base(b, m, n)[:, half:].copy()


def _compile_cast(e: c.CCast, ctx: _Ctx) -> ExprFn:
    operand = _compile_expr(e.operand, ctx)
    ctx.typed[id(e)] = cast_type(e.type_name, ctx.typed[id(e.operand)])
    if e.type_name in ("int", "uint", "long"):

        def to_int(b, m, n):
            v = operand(b, m, n)
            if isinstance(v, np.ndarray):
                return v.astype(np.int64)  # truncates toward zero, like C
            return int(v)

        return to_int
    if e.type_name in ("float", "double"):

        def to_float(b, m, n):
            v = operand(b, m, n)
            if isinstance(v, np.ndarray):
                return v.astype(np.float64)
            return float(v)

        return to_float
    return operand


def _compile_vector_literal(e: c.CVectorLiteral, ctx: _Ctx) -> ExprFn:
    try:
        width = vector_literal_width(e)
    except ExecError as exc:  # the oracle's error for a wrong item count
        raise Untyped(str(exc)) from None
    items = [_compile_expr(i, ctx) for i in e.items]
    ctx.typed[id(e)] = vector_type("f", width)

    if len(items) == 1:
        single = items[0]

        def splat(b, m, n):
            value = single(b, m, n)
            out = np.empty((b.L, width), dtype=np.float64)
            for col in range(width):
                out[:, col] = value
            return out

        return splat

    def build(b, m, n):
        out = np.empty((b.L, width), dtype=np.float64)
        for col, item in enumerate(items):
            out[:, col] = item(b, m, n)
        return out

    return build


# -- calls ------------------------------------------------------------------

def _builtin_width(ctx: _Ctx, e: c.CCall) -> int:
    """The vector width a math builtin's flops are counted at (its first
    vector argument's), from the arguments' types."""
    for a in e.args:
        t = ctx.type_of(a)
        if is_vector(t):
            return t.width
    return 1


def _compile_call(e: c.CCall, ctx: _Ctx) -> ExprFn:
    name = e.func
    typed = ctx.typed
    if name.startswith("get_"):
        field = _GEOMETRY_FIELDS.get(name)
        if field is None:
            raise Untyped(f"unknown geometry builtin {name!r}")
        typed[id(e)] = I
        if not e.args:
            return _geometry(field, 0)
        dim = e.args[0]
        if type(dim) is c.CInt:
            if not 0 <= dim.value <= 2:
                raise Untyped(f"{name}({dim.value}): no dimension {dim.value}")
            return _geometry(field, dim.value)
        return _geometry_by_lane(field, _compile_expr(dim, ctx))
    arg_cs, arg_ts = [], []
    for a in e.args:
        arg_cs.append(_compile_expr(a, ctx))
        arg_ts.append(typed[id(a)])
    # vloadN(offset, p) and vstoreN(vector, offset, p).
    if _is_vload(name) or _is_vstore(name):
        arity = 2 if _is_vload(name) else 3
        if len(e.args) != arity:
            raise Untyped(f"{name} takes {arity} arguments, not {len(e.args)}")
    if _is_vload(name):
        width = int(name[5:])
        typed[id(e)] = vector_type("f", width) if arg_ts[1].kind == "ptr" else None
        acc = ctx.access(e.args[1], e.args[0], width)
        return _vload(width, *arg_cs, acc)
    if _is_vstore(name):
        width = int(name[6:])
        value_t = arg_ts[0]
        stores = arg_ts[2].kind == "ptr" and is_vector(value_t) and value_t.width == width
        typed[id(e)] = VOID if stores else None
        ctx.written |= ctx.roots(e.args[2])
        acc = ctx.access(e.args[2], e.args[1], width)
        return _vstore(width, *arg_cs, acc)
    builtin = _VMATH.get(name)
    if builtin is not None:
        typed[id(e)] = builtin_type(name, arg_ts)
        return _compile_builtin(e, builtin, arg_cs, ctx)
    fn = ctx.parsed.functions.get(name)
    if fn is None:
        raise Untyped(f"call to unknown function {name!r}")
    if name in ctx.stack:
        raise Untyped(f"recursive helper function {name!r}")
    kinds = declared_kinds(fn)
    names = ctx.types.names.setdefault(name, {})
    for p, t in zip(fn.params, arg_ts):
        ctx.types.update(
            names, p.name, stored_type(kinds[p.name], t), f"{p.name!r} in {name!r}"
        )
    entry = ctx.helpers.get(name)
    if entry is None:
        entry = ctx.helpers[name] = _compile_helper(fn, ctx)
    site = None if ctx.hoist is None else ctx.hoist.calls.get(id(e))
    if site is not None:  # a batched loop hoists part of it at this site
        counts = ctx.accesses, ctx.affine  # counted once, as before
        entry = _compile_helper(fn, ctx, site)
        ctx.accesses, ctx.affine = counts
    helper, writes = entry
    for p, a in zip(fn.params, e.args):
        if p.name in writes:  # the helper stores through this argument
            ctx.written |= ctx.roots(a)
    typed[id(e)] = ctx.types.returns[name]
    params = _arguments(fn, kinds, arg_cs, arg_ts)
    if type(helper) is tuple:
        ctx.inlined += 1
        carried = None
        if site is not None:  # a batched iteration binds what it reads
            carried = tuple(
                (None, ac, None) if pname in site.unread else (pname, ac, passing)
                for pname, ac, passing in params
            )
        return _inline_call(params, *helper, carried)
    return _framed_call(params, helper)


def _geometry(field: str, dim: int) -> ExprFn:
    return lambda b, m, n: getattr(b, field)[dim]


def _geometry_by_lane(field: str, dim_c: ExprFn) -> ExprFn:
    """A geometry builtin of a computed dimension, taken on each lane
    at that lane's dimension (a batched loop's chunk holds several
    iterations, so lanes may disagree on a loop variable)."""

    def dynamic_dim(b, m, n):
        dim = dim_c(b, m, n)
        values = getattr(b, field)
        if type(dim) is not np.ndarray:
            return values[int(dim)]
        dims = np.unique(dim[m]).tolist()  # the active lanes' (n > 0)
        if len(dims) == 1:
            return values[dims[0]]
        return np.select([dim == d for d in dims], [values[d] for d in dims])

    return dynamic_dim


def _vload(width: int, offset: ExprFn, pointer: ExprFn, acc: Access) -> ExprFn:
    def vload(b, m, n):
        off = offset(b, m, n)
        return b._vload(pointer(b, m, n), off, width, m, n, acc)

    return vload


def _vstore(width: int, value: ExprFn, offset: ExprFn, pointer: ExprFn,
            acc: Access) -> ExprFn:
    def vstore(b, m, n):
        v = value(b, m, n)
        off = offset(b, m, n)
        b._vstore(pointer(b, m, n), off, width, v, m, n, acc)

    return vstore


def _compile_builtin(e: c.CCall, builtin: tuple, arg_cs: list, ctx: _Ctx) -> ExprFn:
    cost, fn = builtin
    arg_cs = [_arith_operand(ac, ctx.type_of(a))[0] for ac, a in zip(arg_cs, e.args)]
    flops = cost * _builtin_width(ctx, e)
    if len(arg_cs) == 1:
        a0c = arg_cs[0]

        def call1(b, m, n):
            a0 = a0c(b, m, n)
            b.counters.flops += flops * n
            return fn(a0)

        return call1
    if len(arg_cs) == 2:
        a0c, a1c = arg_cs

        def call2(b, m, n):
            a0 = a0c(b, m, n)
            a1 = a1c(b, m, n)
            b.counters.flops += flops * n
            return fn(a0, a1)

        return call2

    def calln(b, m, n):
        args = [ac(b, m, n) for ac in arg_cs]
        b.counters.flops += flops * n
        return fn(*args)

    return calln


_STRAIGHT_LINE = (c.CDecl, c.CAssign, c.CExprStmt, c.CComment)


def _compile_helper(fn: c.CFunctionDef, ctx: _Ctx, hoist=None) -> tuple:
    """``(body, written parameters)`` of a helper, compiled (and typed)
    once per pipeline with the types its first call site's arguments
    give its parameters; a call site makes what it passes for a written
    parameter written.  With ``hoist``, compiled for one call site in a
    batched loop's body."""
    caller = (
        ctx.fn, ctx.kinds, ctx.names, ctx.scope, ctx.steady, ctx.agreed,
        ctx.stack, ctx.visible, ctx.written, ctx.flows, ctx.hoist,
    )
    ctx.fn, ctx.kinds, ctx.scope = fn, _kinds(fn), Scope()
    ctx.steady, ctx.agreed = None, frozenset()  # see :meth:`_Ctx.is_steady`
    ctx.names = ctx.types.names.setdefault(fn.name, {})
    ctx.stack, ctx.visible = ctx.stack + (fn.name,), {p.name for p in fn.params}
    ctx.written, ctx.flows, ctx.hoist = set(), [], hoist
    try:
        body = _helper_body(fn, ctx)
        written = ctx.settle()
        return body, frozenset(p.name for p in fn.params if p.name in written)
    finally:
        (ctx.fn, ctx.kinds, ctx.names, ctx.scope, ctx.steady, ctx.agreed,
         ctx.stack, ctx.visible, ctx.written, ctx.flows, ctx.hoist) = caller


def _straight_parts(fn: c.CFunctionDef) -> Optional[tuple]:
    """``(statements, returned expression or None)`` of a
    **straight-line** helper (declarations, assignments and expression
    statements, then at most one ``return`` last), else ``None``."""
    stmts = list(fn.body.stmts)
    ret = stmts.pop() if stmts and type(stmts[-1]) is c.CReturn else None
    if not all(type(s) in _STRAIGHT_LINE for s in stmts):
        return None
    return stmts, None if ret is None else ret.value


def _helper_body(fn: c.CFunctionDef, ctx: _Ctx):
    """A straight-line helper (:func:`_straight_parts`) as
    ``(statements, returned value, return conversion kind)`` for
    inlining, any other as a statement closure over its own return-mask
    frame."""
    parts = _straight_parts(fn)
    if parts is None:
        framed = _compile_stmt(fn.body, ctx, has_returns=True)
        last = [s for s in fn.body.stmts if type(s) is not c.CComment][-1:]
        if not last or type(last[0]) is not c.CReturn:
            ctx.returned(VOID)  # it may fall off its end: a void call
        return framed
    stmts, ret = parts
    body = tuple(
        s for s in (_compile_stmt(s, ctx, False) for s in stmts)
        if s is not None
    )
    if ret is None:
        ctx.returned(VOID)
        return body, None, None
    ret_c = _compile_expr(ret, ctx)
    vt = ctx.typed[id(ret)]
    kind = scalar_kind(fn.return_type)
    ctx.returned(stored_type(kind, vt))
    return body, ret_c, (kind if _converts(kind, vt) else None)


def _arguments(fn: c.CFunctionDef, kinds: dict, arg_cs: list, arg_ts: list) -> tuple:
    """``(parameter name, argument closure, pass)`` per parameter:
    ``pass`` is ``None`` when the argument's type is already what C's
    by-value passing makes of it (lanes or a scalar of the parameter's
    kind, a pointer), else ``_by_value`` (copies vectors and structs,
    converts scalars) — resolved here, at plan time."""
    return tuple(
        (p.name, ac, _passing(kinds[p.name], t))
        for p, ac, t in zip(fn.params, arg_cs, arg_ts)
    )


def _passing(kind: Optional[str], t: CType, copied: bool = True):
    """How a parameter of declared ``kind`` receives an argument of
    type ``t`` (see :func:`_arguments`); without ``copied``, a vector or
    struct as it is (nothing stores into the parameter's members)."""
    if not is_vector(t) and t.kind != "struct" and (
        kind is None or not is_arith(t) or t.kind == kind
    ) or not copied and (is_vector(t) or t.kind == "struct"):
        return None
    return partial(_by_value, kind)


def _inline_call(params: tuple, body: tuple, ret_c, ret_kind,
                 carried: Optional[tuple] = None) -> ExprFn:
    """A straight-line helper in its caller's closure: the framed call's
    environment, argument passing, ``calls`` and return conversion,
    without the frame (every active lane reaches the one return).  In a
    batched loop's iteration the ``carried`` parameters are bound
    instead; one named ``None`` is evaluated and not bound."""

    def call_inline(b, m, n):
        env = {}
        for pname, ac, passing in (
            params if carried is None or b._hoisted is None else carried
        ):
            a = ac(b, m, n)
            if pname is not None:
                env[pname] = a if passing is None else passing(a)
        b.counters.calls += n
        saved = b.env
        b.env = env
        try:
            for stmt in body:
                stmt(b, m, n, None)
            v = None if ret_c is None else ret_c(b, m, n)
        finally:
            b.env = saved
        return v if ret_kind is None else _convert(ret_kind, v)

    return call_inline


def _framed_call(params: tuple, body: StmtFn) -> ExprFn:
    """A helper with control flow, over its own return-mask frame.  Its
    returns have one static type, so a value-returning helper ends in a
    ``return`` and every active lane reaches one."""

    def call_helper(b, m, n):
        env = {}
        for pname, ac, passing in params:
            a = ac(b, m, n)
            env[pname] = a if passing is None else passing(a)
        b.counters.calls += n
        saved = b.env
        b.env = env
        frame = _Frame(b.L)
        try:
            body(b, m, n, frame)
        finally:
            b.env = saved
        return frame.ret_val

    return call_helper


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

def _compile_stmt(s, ctx: _Ctx, has_returns: bool) -> StmtFn:
    if ctx.hoist is not None and id(s) in ctx.hoist.dropped:
        hoist = ctx.hoist
        ctx.hoist = None
        try:
            stmt_c = hoist.compiled[id(s)] = _compile_stmt(s, ctx, has_returns)
        finally:
            ctx.hoist = hoist
        return _unless_hoisted(stmt_c)
    t = type(s)
    if t is c.CBlock:
        return _scoped(_compile_block, s.stmts, ctx, has_returns)
    if t is c.CAssign:
        return _compile_assign(s, ctx)
    if t is c.CDecl:
        return _compile_decl(s, ctx)
    if t is c.CFor:
        return _scoped(_compile_for, s, ctx, has_returns)
    if t is c.CIf:
        return _compile_if(s, ctx, has_returns)
    if t is c.CExprStmt:
        ctx.discarded.add(id(s.expr))
        expr = _compile_expr(s.expr, ctx)
        return lambda b, m, n, frame: expr(b, m, n)
    if t is c.CReturn:
        if s.value is None:
            ctx.returned(VOID)
            return lambda b, m, n, frame: b._set_return(frame, m, None)
        value = _compile_expr(s.value, ctx)
        kind = scalar_kind(ctx.fn.return_type)
        vt = ctx.typed[id(s.value)]
        ctx.returned(stored_type(kind, vt))
        if _converts(kind, vt):  # the declared return type, like a store
            value = _converted(kind, value)
        return lambda b, m, n, frame: b._set_return(frame, m, value(b, m, n))
    if t is c.CBarrier:
        if len(ctx.stack) > 1:
            raise Untyped("barrier inside helper function")
        return _barrier
    assert t is c.CComment, s  # the parser builds no other statement
    return None  # dropped from the statement list


def _barrier(b, m, n, frame) -> None:
    # The scan guarantees the mask is all-or-nothing per work-group
    # here, so lock-step execution satisfies the barrier and each
    # active item counts one, as in the scalar path.
    b.counters.barriers += n
    b._segment += 1


def _compile_block(stmts, ctx: _Ctx, has_returns: bool) -> StmtFn:
    fns = []
    for s in stmts:
        fn = _compile_stmt(s, ctx, has_returns)
        if fn is not None:
            fns.append(fn)

    if not has_returns:
        if len(fns) == 1:
            return fns[0]

        def run_simple(b, m, n, frame):
            for fn in fns:
                fn(b, m, n, frame)

        return run_simple

    def run(b, m, n, frame):
        for fn in fns:
            if frame.returned_any:
                m = m & ~frame.ret_mask
                n = int(np.count_nonzero(m))
                if n == 0:
                    return
            fn(b, m, n, frame)

    return run


def _compile_compound(s: c.CAssign, value_c: ExprFn, ctx: _Ctx) -> tuple:
    current_c = _compile_expr(s.target, ctx)
    ct, vt = ctx.typed[id(s.target)], ctx.typed[id(s.value)]
    if binop_type(s.op[0], ct, vt) is None:
        raise ctx.refuse(s.target, f"{s.op} of operands {ct}, {vt}")
    return _compound(s.op[0], current_c, value_c, ct, vt)


def _compound(op: str, current_c: ExprFn, value_c: ExprFn, ct, vt) -> tuple:
    """``(closure, type)`` of the value ``x op= e`` stores: ``x op e``,
    counted against the result, as the oracle's ``_assign`` does."""
    rt = binop_type(op, ct, vt)
    current_c, ct = _arith_operand(current_c, ct)
    value_c, vt = _arith_operand(value_c, vt)
    value_of, field, units = _binop_parts(op, ct, vt, counted=rt)

    def compound(b, m, n):
        v = value_c(b, m, n)
        cur = current_c(b, m, n)
        _charge(b.counters, field, units * n)
        return value_of(cur, v, m)

    return compound, rt


def _compile_assign(s: c.CAssign, ctx: _Ctx) -> StmtFn:
    target = s.target
    if type(target) not in (c.CIdent, c.CIndex, c.CMember):
        raise Untyped(f"assignment to non-lvalue {type(target).__name__}")
    value_c = _compile_expr(s.value, ctx)
    vt = ctx.typed[id(s.value)]
    if s.op != "=":
        value_c, vt = _compile_compound(s, value_c, ctx)
    elif type(target) is not c.CIndex:
        value_c = _by_value_store(s.value, value_c, ctx)

    if isinstance(target, c.CIdent):
        return ctx.bind(target.name, s.value, value_c, False, vt)

    if isinstance(target, c.CIndex):
        base_c = _compile_expr(target.base, ctx)
        index_c = _index_of(target.index, _compile_expr(target.index, ctx), ctx)
        bt, it = ctx.typed[id(target.base)], ctx.typed[id(target.index)]
        if bt.kind != "ptr" or index_type(bt, it) is None:
            raise ctx.refuse(target, f"store through base {bt}, index {it}")
        ctx.written |= ctx.roots(target.base)
        sole = id(s) in ctx.sole_sites
        return _scatter(value_c, base_c, index_c, ctx.access(target.base, target.index, sole=sole))

    base_c = _compile_expr(target.base, ctx)
    member = target.member
    bt = ctx.typed[id(target.base)]
    if bt.kind == "struct":
        if ctx.types.member(bt.elem, member) is None:
            raise ctx.refuse(target, f"member store into base {bt}")
        kind = ctx.types.store_member(bt.elem, member, vt)
        if _converts(kind, vt):  # to the kind the member holds
            value_c = _converted(kind, value_c)
        return _store_member(value_c, base_c, member)
    if not is_vector(bt):
        raise ctx.refuse(target, f"member store into base {bt}")
    return _store_component(value_c, base_c, member)


def _by_value_store(e, value_c: ExprFn, ctx: _Ctx) -> ExprFn:
    """``value_c``, of node ``e``, as a store into a name or a member
    receives it.  C stores a struct or vector by value, and member
    stores change one in place, so a value that may be one a name holds
    (a name's, a member's, a ternary's arm's) or a view of a vector's
    components is :func:`~repro.opencl.interp.copied`, as an argument
    is."""
    return _copied(value_c) if type(e) in _SHARING and _shares(e, ctx) else value_c


#: The nodes whose value may be an object a name holds, or a view of one.
_SHARING = frozenset((c.CIdent, c.CMember, c.CIndex, c.CTernary))


def _shares(e, ctx: _Ctx) -> bool:
    t = type(e)
    if t is c.CTernary:
        return any(type(arm) in _SHARING and _shares(arm, ctx)
                   for arm in (e.then, e.otherwise))
    if t is not c.CIdent and is_vector(ctx.type_of(e.base)):
        return True  # a component's lanes are a view of the vector's
    if t is c.CIndex:
        return False
    vt = ctx.type_of(e)
    return vt.kind == "struct" or is_vector(vt)


def _copied(value_c: ExprFn) -> ExprFn:
    return lambda b, m, n: copied(value_c(b, m, n))


def _scatter(value_c: ExprFn, base_c: ExprFn, index_c: ExprFn, acc: Access) -> StmtFn:
    def scatter(b, m, n, frame):
        v = value_c(b, m, n)
        b._scatter(base_c(b, m, n), index_c(b, m, n), v, m, n, acc)

    return scatter


def _store_member(value_c: ExprFn, base_c: ExprFn, member: str) -> StmtFn:
    def store_member(b, m, n, frame):
        v = value_c(b, m, n)
        b._store_member(base_c(b, m, n), member, v, m, n)

    return store_member


def _store_component(value_c: ExprFn, base_c: ExprFn, member: str) -> StmtFn:
    def store_component(b, m, n, frame):
        v = value_c(b, m, n)
        container = base_c(b, m, n)
        col = _VEC_MEMBERS[member]  # the oracle's KeyError beyond x..w
        if n == b.L:
            container[:, col] = v
        else:
            container[m, col] = b._lanes(v)[m]

    return store_component


def _compile_decl(decl: c.CDecl, ctx: _Ctx) -> StmtFn:
    name = decl.name
    if name in ctx.visible:  # the environment is flat per function
        raise Untyped(f"{name!r} in {ctx.fn.name!r} shadows a name in scope")
    init_c = None if decl.init is None else _by_value_store(
        decl.init, _compile_expr(decl.init, ctx), ctx
    )
    ctx.visible.add(name)  # after its initialiser, as in C
    if decl.array_size is not None:
        ctx.define(name, CType("ptr", elem=declared_element_kind(decl.type_name)))
        if decl.qualifier == "local":
            return _check_local(name)
        size, dtype = decl.array_size, array_dtype(decl.type_name)
        return lambda b, m, n, frame: b._alloc_private(name, size, dtype)

    if init_c is not None:
        return ctx.bind(name, decl.init, init_c, True, ctx.typed[id(decl.init)])
    ctx.define(name, ctx.types.zero(decl.type_name))
    type_name, structs = decl.type_name, ctx.parsed.structs
    return _bind_whole(name, lambda b, m, n: typed_zero(type_name, structs, b.L))


def _check_local(name: str) -> StmtFn:
    def check_local(b, m, n, frame):
        if name not in b.env:
            raise ExecError(f"local buffer {name} was not pre-allocated")

    return check_local


def _compile_for(s: c.CFor, ctx: _Ctx, has_returns: bool) -> StmtFn:
    # Compiled (and typed) in execution order: init, cond, body, step.
    init_c = _compile_stmt(s.init, ctx, has_returns) if s.init is not None else None
    cond_c = _condition(s.cond, ctx) if s.cond is not None else None
    plan = _plan(s, ctx)
    if plan is None:
        body_c = _compile_stmt(s.body, ctx, has_returns)
    else:  # one compile serves the loop and its batched iterations
        previous = ctx.hoist, ctx.unfixed
        ctx.hoist, ctx.unfixed = plan.hoist, plan.unfixed
        try:
            body_c = _compile_stmt(s.body, ctx, has_returns)
        finally:
            ctx.hoist, ctx.unfixed = previous
    step_c = _compile_stmt(s.step, ctx, has_returns) if s.step is not None else None
    if plan is not None:
        ctx.batched += 1
        return _batched_for(init_c, cond_c, body_c, step_c, plan.batch())

    def run_for(b, m, n, frame):
        if init_c is not None:
            init_c(b, m, n, frame)
        _loop(b, m, n, frame, cond_c, body_c, step_c)

    return run_for


def _loop(b, m, n, frame, cond_c, body_c, step_c, iterations=None) -> None:
    """A ``for`` loop from its first condition on, for the lanes of
    ``m`` that have not returned; with ``iterations``, at most that many
    (a batched loop's: its trips are known)."""
    if frame.returned_any:
        active = m & ~frame.ret_mask
        na = int(np.count_nonzero(active))
    else:
        active = m
        na = n
    counters = b.counters
    while na and iterations != 0:
        if cond_c is not None:
            cv = _truth(cond_c(b, active, na))
            if type(cv) is np.ndarray:
                active = active & cv
                na = int(np.count_nonzero(active))
                if na == 0:
                    break
            elif not cv:
                # Group-uniform trip counts skip the lane-mask
                # re-materialization entirely.
                break
        counters.loop_iterations += na
        body_c(b, active, na, frame)
        if frame.returned_any:
            active = active & ~frame.ret_mask
            na = int(np.count_nonzero(active))
            if na == 0:
                break
        if step_c is not None:
            step_c(b, active, na, frame)
        if iterations is not None:
            iterations -= 1


# -- batched loops -----------------------------------------------------------
#
# A counted loop ``for (i = start; i < bound; i += k)`` whose trip count
# every active lane shares (``start`` and ``bound`` uniform, ``k`` a
# positive literal, the body never assigning ``i``) and whose body is
# straight-line (declarations and assignments to private names or
# members, expression statements; no store through a pointer, barrier,
# ``if`` or ``return``; :func:`_effect_free`) is *batched*.  Its
# *carried* names are those the body assigns but does not declare (the
# accumulators), and the body-local names it assigns from them.
#
# Every subexpression that reads no carried name and that the loop
# evaluates on every active lane (not inside a ternary arm or the right
# side of ``&&`` / ``||`` that reads one) is *hoisted*, and so is every
# body-local declaration (or assignment) none of whose stores reads a
# carried name.
# Straight-line helpers are looked into at each call site (their
# parameters carried as their arguments are); a helper with control
# flow is one carried call, whose arguments may still be hoisted.
#
# At run time the hoisted part runs once per chunk of iterations over a
# :class:`~repro.opencl.simt._Chunk` of ``chunk * L`` virtual lanes (at
# most ``simt.MAX_LANES``, and ``chunk`` at least :data:`MIN_CHUNK`),
# the loop variable holding each iteration's value; then the unchanged
# loop control runs the body once per iteration, each hoisted
# expression reading its iteration's slice of the hoisted values
# (``_Block._hoisted``) and each hoisted statement skipped.  The body
# compiles once: outside a batched iteration the same closures evaluate
# everything, as an unbatched loop does.  So every operation is counted
# as often as the loop counts it, and an exception from the hoisted part
# lets the rest of the loop run sequentially, raising what the loop
# raises.  An address whose coefficients read a name the iterations
# change (the loop variable, a name the body assigns) has no fact in
# the body (:func:`_access`): neither a chunk nor a batched iteration
# has that name's value at hand.
#
# When the one carried statement is ``acc = acc ⊕ h`` (:func:`_chain`)
# the chain *closes*: after a chunk's first iteration, the others' ``⊕``
# run as one numpy operation each on the whole lane array, on the
# operands the loop would give it, with no Python pass through the
# body, and ``Counters`` take the first iteration's charge once per
# iteration (:meth:`_Batch.close`).


class _Hoist:
    """What one scope of a batched loop hoists: the loop body, or a
    straight-line helper's body at one call site in it."""

    __slots__ = ("slots", "dropped", "calls", "unread", "compiled")

    def __init__(self):
        #: ``id(node) -> slot``: a hoisted expression, or a read of a
        #: hoisted name by a carried statement.
        self.slots: dict = {}
        #: The statements (``id``) that run whole in the hoisted part.
        self.dropped: set = set()
        #: ``id(call) -> _Hoist`` of a helper's body at that call site.
        self.calls: dict = {}
        #: A helper's parameters that only its hoisted part reads (the
        #: carried call evaluates their arguments and binds nothing).
        self.unread: frozenset = frozenset()
        #: ``id(node) ->`` its closure, as the body's compile made it for
        #: the hoisted part.
        self.compiled: dict = {}


def _assigned_name(target) -> Optional[str]:
    """The name an assignment to ``target`` stores into (a name or a
    member of one), or ``None`` (a store through a pointer)."""
    while type(target) is c.CMember:
        target = target.base
    return target.name if type(target) is c.CIdent else None


def _effect_free(st, ctx: _Ctx) -> bool:
    """Whether statement ``st`` stores nothing through a pointer, holds
    no barrier and no private array, and calls only functions that are
    effect-free too."""
    t = type(st)
    if t is c.CBarrier or t is c.CDecl and st.array_size is not None:
        return False
    if t is c.CAssign and _assigned_name(st.target) is None:
        return False
    exprs, stmts = statement_parts(st)
    for e in exprs:
        if not _calls_effect_free(e, ctx):
            return False
    for sub in stmts:
        if not _effect_free(sub, ctx):
            return False
    return True


def _calls_effect_free(e, ctx: _Ctx) -> bool:
    """Whether expression ``e`` calls no ``vstore`` and only helpers
    that are effect-free (:func:`_effect_free`, once per helper)."""
    t = type(e)
    if t is c.CIdent or t is c.CInt or t is c.CFloat:
        return True
    if t is c.CCall:
        if _is_vstore(e.func):
            return False
        fn = ctx.parsed.functions.get(e.func)
        if fn is not None:
            known = ctx.effect_free.get(fn.name)
            if known is None:
                ctx.effect_free[fn.name] = False  # recursion is refused anyway
                known = ctx.effect_free[fn.name] = _effect_free(fn.body, ctx)
            if not known:
                return False
    for part in children(e):
        if not _calls_effect_free(part, ctx):
            return False
    return True


def _flat(stmt, out: list) -> bool:
    """Append the straight-line statements of a loop body to ``out``;
    ``False`` for a body that is not straight-line."""
    t = type(stmt)
    if t is c.CBlock:
        return all(_flat(sub, out) for sub in stmt.stmts)
    if t is c.CComment:
        return True
    if t is c.CDecl or t is c.CExprStmt or t is c.CAssign:
        out.append(stmt)
        return True
    return False


def _counted(s: c.CFor, ctx: _Ctx) -> Optional[tuple]:
    """``(variable, bound, inclusive, step)`` of a loop whose trip count
    every work-item agrees on (the body is checked by :func:`_plan`):
    ``i = start; i < bound`` (or ``<=``) with a uniform ``start`` and
    ``bound``, and ``i += k`` (or ``i = i + k``) with a literal ``k >
    0``; ``bound`` as a symbolic uniform value."""
    init, cond, step = s.init, s.cond, s.step
    if type(init) is c.CDecl and init.init is not None and init.array_size is None:
        var, start = init.name, init.init
    elif type(init) is c.CAssign and init.op == "=" and type(init.target) is c.CIdent:
        var, start = init.target.name, init.value
    else:
        return None
    if type(cond) is not c.CBinOp or cond.op not in ("<", "<=") \
            or type(cond.lhs) is not c.CIdent or cond.lhs.name != var:
        return None
    if type(step) is not c.CAssign or type(step.target) is not c.CIdent \
            or step.target.name != var:
        return None
    k = step.value
    if step.op == "=" and type(k) is c.CBinOp and k.op == "+" \
            and type(k.lhs) is c.CIdent and k.lhs.name == var:
        k = k.rhs
    elif step.op != "+=":
        return None
    if type(k) is not c.CInt or k.value <= 0 or ctx.names.get(var) != I:
        return None
    bound = _uniform_value(cond.rhs, ctx.scope)
    if bound is None or _uniform_value(start, ctx.scope) is None \
            or var in _names(bound):
        return None
    return var, bound, cond.op == "<=", k.value


def _reads_of(e, names: set, hoist: Optional["_Hoist"] = None) -> set:
    """``names`` plus the names expression ``e`` reads in its function
    (a helper's body reads its own), outside what ``hoist`` hoists."""
    if hoist is None or id(e) not in hoist.slots:
        if type(e) is c.CIdent:
            names.add(e.name)
        for part in children(e):
            _reads_of(part, names, hoist)
    return names


def _stores_of(stmts) -> list:
    """``(name, stored value or None, statement)`` per store of a
    straight-line scope (a member store stores into its base name)."""
    stores = []
    for st in stmts:
        if type(st) is c.CDecl:
            stores.append((st.name, st.init, st))
        elif type(st) is c.CAssign:
            stores.append((_assigned_name(st.target), st.value, st))
    return stores


class _Planner:
    """What a batched loop hoists (:class:`_Hoist` per scope) and the
    hoisted part's operations, in the loop's evaluation order:
    ``("slot", k, expression)``, ``("capture", k, name)`` (a hoisted
    name's value where a carried statement reads it), ``("stmt",
    statement)`` and ``("call", helper, parameters, operations, call)``
    (the hoisted part of a straight-line helper at one call site)."""

    def __init__(self, ctx: _Ctx):
        self.ctx = ctx
        self.slots = 0
        self.straight: dict = {}  # helper name -> _straight_parts

    def parts(self, e) -> Optional[tuple]:
        """The straight-line parts of the helper ``e`` calls, or
        ``None`` (a builtin, or a helper with control flow)."""
        fn = self.ctx.parsed.functions.get(e.func)
        if fn is None:
            return None
        if fn.name not in self.straight:
            self.straight[fn.name] = _straight_parts(fn)
        return self.straight[fn.name]

    def varies(self, e, varying: set, memo: Optional[dict] = None) -> bool:
        """Whether ``e`` reads a carried name or calls a helper with
        control flow (kept in ``memo`` once ``varying`` is settled)."""
        t = type(e)
        if t is c.CIdent:
            return e.name in varying
        if t is c.CInt or t is c.CFloat:
            return False
        if memo is not None:
            known = memo.get(id(e))
            if known is not None:
                return known
        if t is c.CCall and e.func in self.ctx.parsed.functions \
                and self.parts(e) is None:
            result = True
        else:
            result = any(self.varies(part, varying, memo) for part in children(e))
        if memo is not None:
            memo[id(e)] = result
        return result

    def scope(self, stmts, ret, varying: set, local, params) -> tuple:
        """``(hoist, operations, hoisted names)`` of one scope: its
        straight-line statements, returned expression (or ``None``), the
        names carried on entry, the names it may hoist (its own) and its
        ``params`` (a helper's, at a call site)."""
        stores = _stores_of(stmts)
        changed = True
        while changed:
            changed = False
            for name, value, _ in stores:
                if name not in varying and (
                    name not in local
                    or value is not None and self.varies(value, varying)
                ):
                    varying.add(name)
                    changed = True
        hoisted = {name for name, _, _ in stores} - varying
        hoist, ops, memo = _Hoist(), [], {}
        for name, _, st in stores:
            if name in hoisted:
                hoist.dropped.add(id(st))
        for st in stmts:
            if id(st) in hoist.dropped:
                ops.append(("stmt", st))
                continue
            for e in (st.init,) if type(st) is c.CDecl else (
                (st.value,) if type(st) is c.CAssign else (st.expr,)
            ):
                if e is not None:
                    self.collect(e, True, varying, hoisted, hoist, ops, memo)
        if ret is not None:
            self.collect(ret, True, varying, hoisted, hoist, ops, memo)
        if params:
            read: set = set()
            for st in stmts:
                if id(st) not in hoist.dropped:
                    for e in statement_parts(st)[0]:  # a member store's base too
                        _reads_of(e, read, hoist)
            if ret is not None:
                _reads_of(ret, read, hoist)
            hoist.unread = frozenset(params) - varying - hoisted - read
        return hoist, ops, hoisted

    def slot(self, e, op: tuple, hoist: _Hoist, ops: list) -> None:
        hoist.slots[id(e)] = self.slots
        ops.append((op[0], self.slots, op[1]))
        self.slots += 1

    def collect(self, e, always: bool, varying, hoisted, hoist, ops, memo) -> None:
        """Hoist what ``e`` evaluates on every active lane (``always``)
        and reads no carried name, and capture the hoisted names it
        reads."""
        t = type(e)
        if t is c.CIdent:
            if e.name in hoisted:
                self.slot(e, ("capture", e.name), hoist, ops)
            return
        if t is c.CInt or t is c.CFloat:
            return
        if always and not self.varies(e, varying, memo):
            self.slot(e, ("slot", e), hoist, ops)
            return
        if t is c.CTernary:
            self.collect(e.cond, always, varying, hoisted, hoist, ops, memo)
            self.collect(e.then, False, varying, hoisted, hoist, ops, memo)
            self.collect(e.otherwise, False, varying, hoisted, hoist, ops, memo)
            return
        if t is c.CBinOp and e.op in ("&&", "||"):
            self.collect(e.lhs, always, varying, hoisted, hoist, ops, memo)
            self.collect(e.rhs, False, varying, hoisted, hoist, ops, memo)
            return
        for part in children(e):
            self.collect(part, always, varying, hoisted, hoist, ops, memo)
        parts = self.parts(e) if t is c.CCall and always else None
        if parts is not None:  # a straight-line helper: look inside
            fn = self.ctx.parsed.functions[e.func]
            carried = {
                p.name for p, a in zip(fn.params, e.args) if self.varies(a, varying, memo)
            }
            local = {p.name for p in fn.params} | {
                s.name for s in parts[0] if type(s) is c.CDecl
            }
            site, site_ops, _ = self.scope(
                parts[0], parts[1], carried, local, [p.name for p in fn.params]
            )
            if site_ops:
                hoist.calls[id(e)] = site
                params = tuple(
                    (p, a, hoist.slots.get(id(a)))
                    for p, a in zip(fn.params, e.args) if p.name not in carried
                )
                ops.append(("call", fn, params, site_ops, e))

    def closures(self, ops: list, hoist: "_Hoist") -> tuple:
        """The hoisted part's operations of one scope as closures
        ``(chunk, mask, count, slots)``, from what the body's compile
        left in ``hoist.compiled``."""
        out = []
        for op in ops:
            kind = op[0]
            if kind == "slot":
                out.append(_hoist_value(op[1], hoist.compiled[id(op[2])]))
            elif kind == "capture":
                out.append(_hoist_name(op[1], op[2]))
            elif kind == "stmt":
                out.append(_hoist_stmt(hoist.compiled[id(op[1])]))
            else:
                _, fn, params, site_ops, call = op
                kinds = declared_kinds(fn)
                # A copy keeps a vector or struct argument from a member
                # store into the parameter: only one the helper makes.
                mutated = {
                    _assigned_name(st.target) for st in _straight_parts(fn)[0]
                    if type(st) is c.CAssign and type(st.target) is c.CMember
                }
                sources = tuple(
                    (p.name,
                     _slot_source(slot) if slot is not None else _expr_source(
                         _load(a.name) if type(a) is c.CIdent else _constant(a.value)
                     ),
                     _passing(kinds[p.name], self.ctx.type_of(a), p.name in mutated))
                    for p, a, slot in params
                )
                site = hoist.calls[id(call)]
                out.append(_hoist_call(sources, self.closures(site_ops, site)))
        return tuple(out)


def _hoist_value(slot: int, value_c: ExprFn):
    def hoist_value(b, m, n, slots):
        slots[slot] = value_c(b, m, n)

    return hoist_value


def _hoist_name(slot: int, name: str):
    def hoist_name(b, m, n, slots):
        slots[slot] = b.env[name]

    return hoist_name


def _hoist_stmt(stmt_c: StmtFn):
    return lambda b, m, n, slots: stmt_c(b, m, n, None)


def _slot_source(slot: int):
    return lambda b, m, n, slots: slots[slot]


def _expr_source(value_c: ExprFn):
    return lambda b, m, n, slots: value_c(b, m, n)


def _hoist_call(sources: tuple, body: tuple):
    """The hoisted part of a straight-line helper at one call site, in
    an environment of the parameters it may read (its carried ones have
    no value here); it is not a call (the carried part counts that)."""

    def hoist_call(b, m, n, slots):
        env = {}
        for name, source, passing in sources:
            a = source(b, m, n, slots)
            env[name] = a if passing is None else passing(a)
        saved = b.env
        b.env = env
        for op in body:
            op(b, m, n, slots)
        b.env = saved

    return hoist_call


def _hoisted(slot: int, value_c: ExprFn) -> ExprFn:
    """A hoisted expression: in a batched iteration, its slice of the
    hoisted values; otherwise evaluated."""

    def hoisted(b, m, n):
        values = b._hoisted
        return value_c(b, m, n) if values is None else values[slot]

    return hoisted


def _unless_hoisted(stmt_c: StmtFn) -> StmtFn:
    """A hoisted statement: run unless in a batched iteration."""

    def unless_hoisted(b, m, n, frame):
        if b._hoisted is None:
            stmt_c(b, m, n, frame)

    return unless_hoisted


class _Batch:
    """A batched loop's plan: its variable, ``bound`` (symbolic),
    ``inclusive`` and ``step``; the hoisted part's ``ops`` over
    ``slots`` values and the names of its function it ``reads``; and
    when its chain closes, ``closed``: ``(accumulator, the operation's
    function, whether the accumulator is its left operand, the slot of
    ``h``, whether its store replaces it whole, whether the step's
    does)``."""

    __slots__ = ("var", "bound", "inclusive", "step", "ops", "slots", "reads",
                 "closed")

    def __init__(self, header: tuple, ops: tuple, slots: int, reads,
                 closed: Optional[tuple]):
        self.var, self.bound, self.inclusive, self.step = header
        self.ops, self.slots, self.reads = ops, slots, tuple(reads)
        self.closed = closed

    def hoist(self, b: _Block, m, n: int, first: int, count: int) -> Optional[list]:
        """The hoisted values of iterations ``first, first + step, ...``
        (``count`` of them), or ``None`` when the hoisted part raised
        what the loop may raise (an ``ExecError`` such as
        ``OutOfBounds``, a ``DataRace``, an arithmetic error): nothing
        counted, nothing logged, and the loop runs on as it does
        unbatched, raising it in its place.  The body-local names it
        assigns are out of scope after the loop, and each iteration
        reads them from the slots."""
        chunk = _Chunk(b, count)
        env, real = chunk.env, b.env
        for name in self.reads:
            value = real.get(name)
            if value is not None:
                env[name] = _expand(value, count)
        env[self.var] = first + self.step * chunk.iteration
        if n == b.L:
            vm, vn = chunk._full, chunk.L
        else:
            vm, vn = np.repeat(m, count), n * count
        slots = [None] * self.slots
        counters = b.counters.__dict__
        before = dict(counters)
        try:
            for op in self.ops:
                op(chunk, vm, vn, slots)
        except (ExecError, ArithmeticError):
            counters.update(before)
            return None
        b._absorb(chunk)
        return slots

    def close(self, b: _Block, m, n: int, frame, slots: list, count: int,
              charge: Optional[dict], cond_c, body_c, step_c) -> dict:
        """Run a chunk of a closed chain: ``acc = acc ⊕ h`` as one
        operation per iteration on the whole lane array, on the operands
        the loop's would get, in their order (so its result bit for
        bit), with no pass through the body.  Every iteration of the
        loop charges the same ``Counters``: the loop's first chunk runs
        its first iteration as the loop does, which measures that
        ``charge`` (``None`` until then), returned for the later
        chunks."""
        acc, fn, acc_first, slot, whole, var_whole = self.closed
        h = slots[slot]
        counters = b.counters.__dict__
        start = 0
        if charge is None:
            before = dict(counters)
            _loop(b, m, n, frame, cond_c, body_c, step_c, 1)
            charge = {f: v - before[f] for f, v in counters.items() if v != before[f]}
            start = 1
        env = b.env
        first = last = env[acc]
        for j in range(start, count):
            hj = _take(h, j, count)
            last = fn(last, hj) if acc_first else fn(hj, last)
        for field, value in charge.items():
            counters[field] += value * (count - start)
        i = env[self.var]
        end = i + self.step * (count - start)
        full = n == b.L
        env[acc] = last if whole or full else b._merge(first, last, m)
        env[self.var] = end if var_whole or full else b._merge(i, end, m)
        return charge


class _Plan(NamedTuple):
    """What :func:`_plan` finds a batched loop hoists, before its body
    compiles (``hoist`` steers that compile), and its chain
    (:func:`_chain`)."""

    header: tuple
    hoist: _Hoist
    ops: list
    planner: _Planner
    reads: frozenset
    unfixed: frozenset
    chain: Optional[tuple]

    def batch(self) -> _Batch:
        """The plan, once the body compiled: the chain closes when every
        node that carries it has one floating type (the accumulator's
        names among them), so no operand is aligned or converted on the
        way, and no store converts."""
        ops = self.planner.closures(self.ops, self.hoist)
        ctx = self.planner.ctx
        closed = None
        if self.chain is not None:
            acc, path, op, acc_first, slot = self.chain
            t = ctx.typed.get(id(op))
            if t is not None and t.kind == "f" and all(
                ctx.typed.get(id(node)) == t for node in path + (op.lhs, op.rhs)
            ):
                closed = (
                    acc, _OPERATOR[op.op], acc_first, slot,
                    ctx.is_steady(acc), ctx.is_steady(self.header[0]),
                )
                ctx.closed += 1
        return _Batch(self.header, ops, self.planner.slots, self.reads, closed)


def _plan(s: c.CFor, ctx: _Ctx) -> Optional[_Plan]:
    """What the engine hoists of a loop it batches (see above), or
    ``None``; a syntactic pass, before the body compiles."""
    header = _counted(s, ctx)
    stmts: list = []
    if header is None or not _flat(s.body, stmts) \
            or not all(_effect_free(st, ctx) for st in stmts):
        return None
    stores = _stores_of(stmts)
    assigned = {name for name, _, _ in stores}
    if header[0] in assigned or _names(header[1]) & assigned:
        return None
    # Body-local names: declared in the body and not read before (each
    # iteration rebinds them first; they are out of scope after it).
    local = {st.name for st in stmts if type(st) is c.CDecl}
    carried, seen = set(), set()
    for st in stmts if local else ():
        for e in statement_parts(st)[0]:
            carried |= _reads_of(e, set()) & (local - seen)
        if type(st) is c.CDecl:
            seen.add(st.name)
    planner = _Planner(ctx)
    hoist, ops, names = planner.scope(stmts, None, carried, local, ())
    if not ops:
        return None
    reads: set = set()
    for op in ops:
        if op[0] == "slot":
            _reads_of(op[2], reads)
        elif op[0] == "stmt":
            for e in statement_parts(op[1])[0]:
                _reads_of(e, reads)
        elif op[0] == "call":
            for _, a, slot in op[2]:
                if slot is None:
                    _reads_of(a, reads)
    return _Plan(
        header, hoist, ops, planner, frozenset(reads - names - {header[0]}),
        frozenset(assigned | {header[0]}), _chain(stmts, hoist, carried, ctx),
    )


def _chain(stmts: list, hoist: _Hoist, carried: set, ctx: _Ctx) -> Optional[tuple]:
    """``(accumulator, the nodes that carry it, operation, whether the
    accumulator is its left operand, slot)`` of a loop whose one carried
    statement is ``acc = acc ⊕ h`` or ``acc = h ⊕ acc`` (an arithmetic
    ``+`` or ``*``, ``h`` hoisted), directly or as the value a
    straight-line helper returns, every statement of which is hoisted
    and one parameter of which takes ``acc`` (no other argument reads
    it); else ``None``.  Whether its types let the chain close is
    decided once the body compiled (:meth:`_Plan.batch`)."""
    rest = [st for st in stmts if id(st) not in hoist.dropped]
    if len(rest) != 1:
        return None
    (st,) = rest
    if type(st) is not c.CAssign or st.op != "=" or type(st.target) is not c.CIdent:
        return None
    acc = st.target.name
    if carried != {acc}:
        return None
    path: list = []
    link = _link(st.value, acc, hoist, ctx, path)
    return None if link is None else (acc, tuple(path)) + link


def _link(e, acc: str, hoist: _Hoist, ctx: _Ctx, path: list) -> Optional[tuple]:
    """``(operation, whether the accumulator is its left operand, slot)``
    of the value ``e`` a chain stores (see :func:`_chain`), adding the
    nodes that carry it to ``path``: each call, and the accumulator's
    name it passes, whose type is the kernel's accumulator's or a
    helper's parameter's."""
    path.append(e)
    if type(e) is c.CBinOp and e.op in ("+", "*"):
        for a, h in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
            if type(a) is c.CIdent and a.name == acc and id(h) in hoist.slots:
                return e, a is e.lhs, hoist.slots[id(h)]
        return None
    site = hoist.calls.get(id(e))  # a straight-line helper's call
    if site is None:
        return None
    fn = ctx.parsed.functions[e.func]
    stmts, ret = _straight_parts(fn)
    if ret is None or any(
        id(st) not in site.dropped for st in stmts if type(st) is not c.CComment
    ):
        return None
    params = [(p.name, a) for p, a in zip(fn.params, e.args)
              if type(a) is c.CIdent and a.name == acc]
    # Every other argument reads no carried name (``acc`` is the only
    # one): it is hoisted, a literal or a name.
    if len(params) != 1 or not all(
        id(a) in hoist.slots or type(a) in (c.CIdent, c.CInt, c.CFloat)
        for a in e.args if type(a) is not c.CIdent or a.name != acc
    ):
        return None
    ((param, a),) = params
    path.append(a)
    return _link(ret, param, site, ctx, path)


#: The fewest iterations a chunk of a batched loop runs; fewer run as
#: the unbatched loop does.  On the Figure 8 kernels a chunk of 8 or
#: more iterations beats the loop and one of 4 or 5 (kmeans, gesummv,
#: convolution) does not earn back its fixed cost (``opencl/ENGINES.md``).
MIN_CHUNK = 8
#: The same for a loop whose chain closes (:meth:`_Batch.close`): with
#: no pass through the body per iteration, convolution's 5-trip chunks
#: gain, and gesummv's 4-trip ones still lose (``opencl/ENGINES.md``).
MIN_CLOSED_CHUNK = 5


def _batched_for(init_c, cond_c, body_c, step_c, batch: _Batch) -> StmtFn:
    var, bound, inclusive, step = batch.var, batch.bound, batch.inclusive, batch.step

    def run_batched_for(b, m, n, frame):
        if init_c is not None:
            init_c(b, m, n, frame)
        if frame.returned_any:
            m = m & ~frame.ret_mask
            n = int(np.count_nonzero(m))
        # Outside a batched iteration (an enclosing loop's, when this
        # one runs in a helper it calls) nothing reads hoisted values.
        saved, b._hoisted = b._hoisted, None
        width = _simt.MAX_LANES // b.L
        least = MIN_CHUNK if batch.closed is None else MIN_CLOSED_CHUNK
        if n and width >= least:
            lane = 0 if n == b.L else int(m.argmax())
            first = _value_of(("name", var), b, lane)
            last = _value_of(bound, b, lane)
            trips = 0 if first is None or last is None else len(
                range(first, last + inclusive, step)
            )
            done, charge = 0, None
            while trips - done >= least:
                count = min(width, trips - done)
                slots = batch.hoist(b, m, n, first + step * done, count)
                if slots is None:
                    break
                body = _iterations(body_c, slots, count)
                if batch.closed is not None:
                    charge = batch.close(
                        b, m, n, frame, slots, count, charge, cond_c, body, step_c
                    )
                else:
                    _loop(b, m, n, frame, cond_c, body, step_c, count)
                b._hoisted = None
                done += count
        # What is left: fewer iterations than a chunk runs, or the rest
        # after the hoisted part raised, and the condition that ends
        # the loop.
        _loop(b, m, n, frame, cond_c, body_c, step_c)
        b._hoisted = saved

    return run_batched_for


def _iterations(body_c: StmtFn, slots: list, count: int) -> StmtFn:
    """The body of ``count`` batched iterations in turn, each reading
    its lanes of the hoisted values."""
    order = iter(range(count))

    def iteration(b, m, n, frame):
        j = next(order)
        b._hoisted = [
            v[j::count] if type(v) is np.ndarray else _take(v, j, count)
            for v in slots
        ]
        body_c(b, m, n, frame)

    return iteration


def _compile_if(s: c.CIf, ctx: _Ctx, has_returns: bool) -> StmtFn:
    cond_c, bound = _compile_bound(s.cond, ctx)
    then_c = _scoped(_compile_stmt, s.then, ctx, has_returns)
    else_c = (
        _scoped(_compile_stmt, s.otherwise, ctx, has_returns)
        if s.otherwise is not None
        else None
    )
    if bound is not None:
        return _prefix_if(*bound, then_c, else_c)

    def run_if(b, m, n, frame):
        b.counters.branches += n
        _branch(b, m, n, frame, cond_c(b, m, n), then_c, else_c)

    return run_if


def _compile_bound(cond, ctx: _Ctx) -> tuple:
    """``(closure, bound)`` of a branch condition: ``bound`` is ``(i, n,
    inclusive, comparison, access)`` when it is ``i < n`` or ``i <= n``
    with ``i`` affine in the ids and ``n`` uniform (a prefix mask), else
    ``None``."""
    if type(cond) is not c.CBinOp or cond.op not in ("<", "<="):
        return _condition(cond, ctx), None
    lhs = _compile_expr(cond.lhs, ctx)
    rhs = _compile_expr(cond.rhs, ctx)
    lt, rt = ctx.typed[id(cond.lhs)], ctx.typed[id(cond.rhs)]
    ctx.typed[id(cond)] = binop_type(cond.op, lt, rt)
    if ctx.typed[id(cond)] is None:
        raise ctx.refuse(cond, _operands(cond, ctx))
    cond_c = _binop(cond.op, lhs, rhs, lt, rt, None)
    fact = ctx.fact(cond.lhs)
    if lt != I or rt != I or fact is None or fact == _ZERO \
            or ctx.fact(cond.rhs) != _ZERO:
        return cond_c, None
    acc = _access(ctx, cond.lhs, cond.lhs)
    return cond_c, (lhs, rhs, cond.op == "<=", COMPARE[cond.op], acc)


def _prefix_if(lhs: ExprFn, rhs: ExprFn, inclusive: bool, cmp, acc: Access,
               then_c: StmtFn, else_c: Optional[StmtFn]) -> StmtFn:
    """An ``if`` on an affine bound: where its lanes are linear in the
    flat lane index, the first ``k`` pass, and ``k`` takes a division."""

    def run_bound(b, m, n, frame):
        b.counters.branches += n
        l = lhs(b, m, n)
        r = rhs(b, m, n)
        b.counters.iops += n
        k, guard = b._prefix(l, r, inclusive, acc, m, n)
        then = then_c if guard is None else _guarded(then_c, guard)
        if k is None:
            _branch(b, m, n, frame, cmp(l, r), then, else_c)
        elif k >= b.L:
            then(b, m, n, frame)
        elif k <= 0:
            if else_c is not None:
                else_c(b, m, n, frame)
        else:
            _branch(b, m, n, frame, b._lane_ids < k, then, else_c)

    return run_bound


def _guarded(then_c: StmtFn, guard: tuple) -> StmtFn:
    """``then_c`` with the bound its ``if`` puts on the lanes' ids in
    force (``_Block._guarded``)."""

    def guarded(b, m, n, frame):
        b._guards.append(guard)
        try:
            then_c(b, m, n, frame)
        finally:
            b._guards.pop()

    return guarded


def _branch(b, m, n, frame, cv, then_c, else_c) -> None:
    """Run ``then_c`` on the lanes of ``m`` where ``cv`` holds and
    ``else_c`` on the others."""
    cv = _truth(cv)
    if type(cv) is np.ndarray:
        mt = m & cv
        nt = int(np.count_nonzero(mt))
        if nt:
            then_c(b, mt, nt, frame)
        if else_c is not None and nt < n:
            else_c(b, m & ~cv, n - nt, frame)
    elif cv:
        then_c(b, m, n, frame)
    elif else_c is not None:
        else_c(b, m, n, frame)


def _condition(e, ctx: _Ctx) -> ExprFn:
    """The closure of ``e``, a condition: C tests a scalar."""
    cond_c = _compile_expr(e, ctx)
    t = ctx.typed[id(e)]
    if not is_arith(t) or t.width != 1:
        raise Untyped(f"condition {c.print_expr(e)!r} in {ctx.fn.name!r} has type {t}")
    return cond_c


def _truth(cv):
    """A condition's lanes as booleans, or its one uniform value."""
    if type(cv) is np.ndarray:
        return cv if cv.dtype.kind == "b" else cv != 0
    return cv


# ---------------------------------------------------------------------------
# pipeline assembly
# ---------------------------------------------------------------------------

class Pipeline:
    """A kernel compiled to barrier-delimited segments, for launches
    whose pointer arguments hold ``pointer_kinds`` elements."""

    __slots__ = (
        "kernel_name", "segments", "has_returns", "pointers",
        "pointer_kinds", "types", "inlined", "sole_names", "written",
        "accesses", "affine", "batched", "closed",
    )

    def __init__(self, kernel_name: str, segments: list, has_returns: bool,
                 pointers: tuple, pointer_kinds: tuple, types, ctx: "_Ctx",
                 sole_names: frozenset):
        self.kernel_name = kernel_name
        #: One compiled closure per barrier-delimited top-level region
        #: (barriers inside group-uniform loops stay within their
        #: segment's loop closure).
        self.segments = segments
        #: Buffers whose one store skips the race detector where its
        #: addresses are lane-injective (when no other argument aliases
        #: them).
        self.sole_names = sole_names
        #: The names a store may reach a buffer through (the launcher
        #: race-tracks the buffers they name).
        self.written = frozenset(ctx.written)
        self.has_returns = has_returns
        #: The pointer parameters, and the element kinds typed for them.
        self.pointers = pointers
        self.pointer_kinds = pointer_kinds
        #: The kernel's :class:`~repro.opencl.interp.StaticTypes`.
        self.types = types
        #: Helper call sites compiled inline.
        self.inlined = ctx.inlined
        #: Load and store sites, and how many of them have a fact.
        self.accesses = ctx.accesses
        self.affine = ctx.affine
        #: Loops whose hoisted part runs for many iterations at once,
        #: and those of them whose one carried statement is a chain
        #: ``acc = acc ⊕ h`` that runs as one accumulation per chunk.
        self.batched = ctx.batched
        self.closed = ctx.closed

    def run(self, block: _Block) -> None:
        """Execute one block of work-groups through the pipeline."""
        tracer = _obs_trace._ACTIVE
        frame = _Frame(block.L)
        m = block._full
        n = block.L
        for index, segment in enumerate(self.segments):
            if frame.returned_any:
                m = m & ~frame.ret_mask
                n = int(np.count_nonzero(m))
                if n == 0:
                    return
            if tracer is None:
                segment(block, m, n, frame)
            else:
                run_segment_traced(
                    tracer, self.kernel_name, index, segment, block, m, n,
                    frame,
                )


def run_segment_traced(tracer, kernel, index, segment, block, m, n, frame):
    """One segment inside a ``segment`` span whose args are ``kernel``,
    ``index``, the ``Counters`` fields it changed (by how much) and its
    ``load_events``; execution itself is identical to calling
    ``segment`` directly."""
    before = dict(vars(block.counters))
    loads0 = block._obs_load_events()
    start = tracer.now_us()
    segment(block, m, n, frame)
    end = tracer.now_us()
    after = vars(block.counters)
    args = {"kernel": kernel, "index": index}
    args.update((k, after[k] - v) for k, v in before.items() if after[k] != v)
    load_events = block._obs_load_events() - loads0
    if load_events:
        args["load_events"] = load_events
    tracer.add_complete("segment", start, end - start, args)


def split_at_barriers(kernel: c.CFunctionDef) -> list:
    """The kernel body cut at its top-level barriers: each region is a
    ``CBarrier`` or a ``CBlock`` of the statements between two of them.
    One pipeline segment per region."""
    regions: list = []
    current: list = []
    for stmt in kernel.body.stmts:
        if type(stmt) is c.CBarrier:
            if current:
                regions.append(c.CBlock(current))
                current = []
            regions.append(stmt)
        else:
            current.append(stmt)
    if current or not regions:
        regions.append(c.CBlock(current))
    return regions


def compile_kernel_pipeline(
    parsed: ParsedProgram, kernel: c.CFunctionDef,
    pointer_kinds: Optional[tuple] = None,
) -> Pipeline:
    """Lower a kernel into a compiled closure pipeline, typed for
    pointer arguments of ``pointer_kinds`` (default: the declared
    element types).

    The lowering is also the static typing pass: after
    :func:`scan_kernel`, one walk in execution order types every node
    from its children's as it compiles it (see
    :class:`~repro.opencl.interp.StaticTypes`), or raises
    :class:`~repro.opencl.interp.Untyped` naming what it cannot type or
    run; every load and store site gets the affine fact of its address,
    and the pipeline the names a store may reach a buffer through.
    """
    if pointer_kinds is None:
        pointer_kinds = declared_pointer_kinds(kernel)
    types = StaticTypes(parsed.structs)
    names = types.names.setdefault(kernel.name, {})
    kinds = _kinds(kernel)
    pointers = tuple(p.name for p in kernel.params if p.is_pointer)
    elements = dict(zip(pointers, pointer_kinds))
    for p in kernel.params:
        names[p.name] = (
            CType("ptr", elem=elements[p.name]) if p.is_pointer
            else _SCALAR.get(kinds[p.name])
        )
    scan = scan_kernel(kernel)
    ctx = _Ctx(parsed, kernel, types, scan)
    segments = [  # in the kernel body's one scope
        _barrier if type(r) is c.CBarrier else _compile_block(r.stmts, ctx, scan.has_returns)
        for r in split_at_barriers(kernel)
    ]
    ctx.settle()
    return Pipeline(
        kernel.name, segments, scan.has_returns, pointers, pointer_kinds, types,
        ctx, scan.sole_names,
    )


# ---------------------------------------------------------------------------
# pipeline cache
# ---------------------------------------------------------------------------

_compile_lock = threading.Lock()
_compile_counter = 0


def compile_count() -> int:
    """Typing walks (pipelines compiled or refused) so far in this
    process.

    The autotune/explore loops launch each candidate kernel many times;
    this counter is how their stats demonstrate that every distinct
    kernel is walked exactly once (reuse flows through the source-keyed
    parse LRU the pipelines attach to).
    """
    return _compile_counter


def get_pipeline(
    parsed: ParsedProgram, kernel: c.CFunctionDef,
    pointer_kinds: Optional[tuple] = None,
) -> "Pipeline | str":
    """The compiled pipeline for a kernel and the element kinds of its
    pointer arguments (default: as declared), or the reason the lane
    tiers refuse it: the scan's or the typing walk's.

    Cached on the parsed program object, refusals included; the runtime
    shares parse results per source through an LRU, so each distinct
    kernel is walked once per process (under a lock — callers may launch
    from threads of their own).
    """
    key = (kernel.name, pointer_kinds)
    cache = getattr(parsed, "_simt_pipelines", None)
    if cache is not None:
        entry = cache.get(key, _MISSING)
        if entry is not _MISSING:
            return entry
    with _compile_lock:
        cache = getattr(parsed, "_simt_pipelines", None)
        if cache is None:
            cache = {}
            parsed._simt_pipelines = cache
        entry = cache.get(key, _MISSING)
        if entry is not _MISSING:
            return entry
        from repro.obs import span, tracing_enabled

        with span("simt_compile", kernel=kernel.name) as compile_span:
            try:
                entry = compile_kernel_pipeline(parsed, kernel, pointer_kinds)
            except Untyped as exc:
                entry = str(exc)
            else:
                if tracing_enabled():
                    compile_span.attrs["inlined"] = entry.inlined
                    compile_span.attrs["accesses"] = entry.accesses
                    compile_span.attrs["affine"] = entry.affine
                    compile_span.attrs["batched"] = entry.batched
                    compile_span.attrs["closed"] = entry.closed
        global _compile_counter
        _compile_counter += 1
        cache[key] = entry
        return entry


def launch_pipeline(
    parsed: ParsedProgram, kernel: c.CFunctionDef, plan: Pipeline, base_env
) -> "Pipeline | str":
    """``plan`` when the launch binds buffers of the element kinds it
    was typed for, else :func:`get_pipeline` for the ones it binds."""
    kinds = tuple(element_kind(base_env[name].array) for name in plan.pointers)
    if kinds == plan.pointer_kinds:
        return plan
    return get_pipeline(parsed, kernel, kinds)


_MISSING = object()

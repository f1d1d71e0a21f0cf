"""Closure compilation for the lane-batched SIMT runtime.

Walking the kernel AST for every block of work-groups would pay a type
dispatch per statement, a string comparison per operator and a table
lookup per builtin, in every block of every launch.  This module pays
the walk **once per kernel**: the AST is lowered into a pipeline of
Python closures over the lane-array runtime of
:class:`repro.opencl.simt._Block`, the only lane-array evaluator of the
AST, resolving statically what a walk would re-derive per block:

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
  flow keeps its own return-mask frame.

The walk types every node or refuses the kernel: a node no rule types,
or a name, return or member that would hold two types, raises
:class:`~repro.opencl.interp.Untyped` naming it.  No closure reads the
type of a value at run time.  :func:`repro.opencl.simt.analyze_kernel`
refuses unsupported forms before the walk (an assertion marks each
place the lowering relies on it).  A refused kernel has no pipeline:
:func:`get_pipeline` returns the reason, and the launch falls to the
scalar oracle with it in the ledger.

The pipeline is segmented at top-level barriers (:func:`split_at_barriers`),
as the scalar engine schedules segments between synchronization
points; the launcher (:func:`repro.opencl.simt.try_launch`) runs it in
blocks or over the whole grid, bit for bit as the scalar interpreter:
same buffers, same :class:`Counters`.  Pipelines and refusals are cached
on the parsed program, which the runtime shares per source, per kernel
and element kinds of its pointer arguments: an exploration run walks
each kernel once.
"""

from __future__ import annotations

import operator
import threading
import time
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from repro.obs import profile as _obs_profile

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
from repro.opencl.simt import (
    BASIS,
    Access,
    VectorUnsupported,
    _Block,
    _Frame,
    _LANE_DTYPE,
    _VMATH,
    _by_value,
    _convert,
    _expr_uniform,
    _is_uniform,
    _is_vload,
    _is_vstore,
    analyze_kernel,
    statement_types,
    uniform_names,
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
#: Calls whose result every work-item agrees on, given arguments they
#: agree on (``get_group_id`` varies between the groups of a block).
_GRID_UNIFORM_CALLS = frozenset(_SIZES) | frozenset(_MATH_BUILTINS)


def _sym(op: str, a, b):
    """``a op b`` (``+`` or ``*``) of two symbolic uniform values."""
    if type(a) is int and type(b) is int:
        return a + b if op == "+" else a * b
    identity = 0 if op == "+" else 1
    if a == identity or b == identity:
        return b if a == identity else a
    return 0 if op == "*" and (a == 0 or b == 0) else (op, a, b)


def _dim(e: c.CCall) -> Optional[int]:
    """A geometry builtin's literal dimension."""
    if not e.args:
        return 0
    return e.args[0].value if type(e.args[0]) is c.CInt else None


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


def scan_kernel(kernel: c.CFunctionDef) -> tuple:
    """``(scope, sole names, sole sites)``: one syntactic pass over a
    kernel for the walk.

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
    agreed = uniform_names(kernel, _GRID_UNIFORM_CALLS)
    scope = Scope(frozenset(n for n in agreed if kinds.get(n) == "i"))
    decls: dict = {}  # name -> [count, control around it, value]
    stores: list = []  # (name, stored value or None, control around it)
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

    def walk(s, ctrl: tuple) -> None:
        t = type(s)
        if t is c.CBlock:
            for sub in s.stmts:
                walk(sub, ctrl)
        elif t is c.CDecl:
            value = s.init if s.init is not None else c.CInt(0)
            decls.setdefault(s.name, [0, ctrl, value])[0] += 1
            if s.array_size is not None and s.qualifier == "local":
                buffers.add(s.name)
                local.add(s.name)
            scan(value)
        elif t is c.CBarrier:
            stretch[0] += not ctrl
        elif t is c.CAssign:
            target = s.target
            if type(target) is c.CIdent:
                value = s.value if s.op == "=" else c.CBinOp(s.op[0], target, s.value)
                stores.append((target.name, value, ctrl))
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
                if type(target.base) is c.CIdent:  # a member store
                    stores.append((target.base.name, None, ctrl))
            scan(s.value)
        else:  # the control of a loop or branch holds inside it
            exprs, stmts = statement_parts(s)
            for part in exprs:
                scan(part)
            for sub in stmts:
                walk(sub, ctrl + (s,))

    walk(kernel.body, ())
    # Names declared once whose every store sits under control its lanes
    # agree on below the declaration; the declaration's value first.
    candidates = {
        name: [decl[2]] for name, decl in decls.items()
        if decl[0] == 1 and kinds.get(name) == "i" and name not in scope.uniform
    }
    agrees: dict = {}  # id(loop or branch) -> whether its condition is uniform
    for name, value, ctrl in stores:
        if name in candidates:
            around = decls[name][1]
            clean = value is not None and len(ctrl) >= len(around) and all(
                a is b for a, b in zip(ctrl, around)
            )
            for s in ctrl[len(around):] if clean else ():
                if id(s) not in agrees:
                    agrees[id(s)] = s.cond is None or _expr_uniform(
                        s.cond, agreed, _GRID_UNIFORM_CALLS
                    )
                clean = clean and agrees[id(s)]
            if clean:
                candidates[name].append(value)
            else:
                del candidates[name]
    # A stored fact's coefficients are read when the name is used, so
    # they may read only the parameters no statement stores to.
    fixed = {p.name for p in kernel.params if not p.is_pointer}
    fixed -= set(decls) | {name for name, _, _ in stores}
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
    return scope, frozenset(sole), frozenset(id(s) for v in sole.values() for s in v)


def _value_of(value, b):
    """A symbolic uniform value in block ``b`` (``None``: no ``int``)."""
    if type(value) is int:
        return value
    if value[0] == "name":
        v = b.env.get(value[1])
        return int(v) if isinstance(v, (int, np.integer)) else None
    if value[0] == "geo":
        return getattr(b, value[1])[value[2]]
    lhs, rhs = _value_of(value[1], b), _value_of(value[2], b)
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
    their conversion here, at plan time) and the helper bodies compiled
    so far."""

    def __init__(self, parsed: ParsedProgram, fn: c.CFunctionDef,
                 types: StaticTypes, scope: Scope, sole_sites: frozenset):
        self.parsed = parsed
        self.types = types
        #: ``id(node) -> type``, filled as the nodes compile.
        self.typed = types.exprs
        self.fn = fn
        self.kinds = declared_kinds(fn)
        self.names = types.names.setdefault(fn.name, {})
        self.scope = scope  # the facts of the function's names
        self.sole_sites = sole_sites
        self.helpers: dict = {}  # name -> framed body, or inlined parts
        self.loads: dict = {}  # name -> its (shared) load closure
        self.inlined = 0  # call sites compiled inline
        self.accesses = 0  # load and store sites
        self.affine = 0  # of which with a fact

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
        self.types.update(
            self.types.returns, self.fn.name, t,
            f"the value {self.fn.name!r} returns",
        )

    def refuse(self, e, detail: str) -> Untyped:
        """The refusal of node ``e`` of the function being compiled."""
        return Untyped(
            f"no static type for {c.print_expr(e)!r} in {self.fn.name!r}: {detail}"
        )

    def bind(self, name: str, value_c: ExprFn, declaring: bool, vt) -> StmtFn:
        """The store ``name = value_c(...)`` of a value of type ``vt``,
        converted to the declared kind of ``name`` only where it may
        differ — resolved here, once, at plan time."""
        self.define(name, vt)
        kind = self.kinds.get(name)
        if _converts(kind, vt):
            return _bind_converted(name, kind, value_c, declaring)
        return _bind(name, value_c, declaring)


def _bind(name: str, value_c: ExprFn, declaring: bool) -> StmtFn:
    def bind(b, m, n, frame):
        v = value_c(b, m, n)
        if n == b.L:  # every lane stores: no merge (``_Block._bind``)
            b.env[name] = v
        else:
            b._bind(name, v, m, n, declaring)

    return bind


def _bind_converted(name: str, kind: str, value_c: ExprFn, declaring: bool) -> StmtFn:
    def bind_converted(b, m, n, frame):
        b._bind(name, _convert(kind, value_c(b, m, n)), m, n, declaring)

    return bind_converted


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
    t = type(e)
    if t is c.CIdent:
        name = e.name
        vt = ctx.typed[id(e)] = ctx.names.get(name)
        if vt is None:
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
    elif t is c.CIndex:
        fn = _compile_index(e, ctx)
    elif t is c.CMember:
        fn = _compile_member(e, ctx)
    elif t is c.CUnOp:
        operand = _compile_expr(e.operand, ctx)
        ot = ctx.typed[id(e.operand)]
        ctx.typed[id(e)] = unop_type(e.op, ot)
        if e.op == "-":
            fn = _negate(_arith_operand(operand, ot)[0])
        else:
            assert e.op == "!", e  # the parser's only other unary operator
            fn = _logical_not(operand)
    elif t is c.CTernary:
        fn = _compile_ternary(e, ctx)
    elif t is c.CCast:
        fn = _compile_cast(e, ctx)
    else:
        assert t is c.CVectorLiteral, e  # analyze_kernel admits no other node
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
    lhs = _compile_expr(e.lhs, ctx)
    rhs = _compile_expr(e.rhs, ctx)
    typed = ctx.typed
    if op == "&&" or op == "||":
        typed[id(e)] = B
        return _short_circuit(op == "&&", lhs, rhs)
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
    cond = _compile_expr(e.cond, ctx)
    then = _compile_expr(e.then, ctx)
    other = _compile_expr(e.otherwise, ctx)
    ctx.typed[id(e)] = join(ctx.typed[id(e.then)], ctx.typed[id(e.otherwise)])

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
        return b._merge(fv, tv, cv)  # the arms have one static type

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
    width = vector_literal_width(e)
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
        typed[id(e)] = I
        field = _GEOMETRY_FIELDS[name]
        if not e.args:
            return _geometry(field, 0)
        if type(e.args[0]) is c.CInt:
            return _geometry(field, e.args[0].value)
        return _geometry_by_run(field, _compile_expr(e.args[0], ctx))
    arg_cs, arg_ts = [], []
    for a in e.args:
        arg_cs.append(_compile_expr(a, ctx))
        arg_ts.append(typed[id(a)])
    # vloadN(offset, p) and vstoreN(vector, offset, p): the arity is
    # analyze_kernel's to check, the operand types are checked here.
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
        acc = ctx.access(e.args[2], e.args[1], width)
        return _vstore(width, *arg_cs, acc)
    builtin = _VMATH.get(name)
    if builtin is not None:
        typed[id(e)] = builtin_type(name, arg_ts)
        return _compile_builtin(e, builtin, arg_cs, ctx)
    fn = ctx.parsed.functions[name]
    kinds = declared_kinds(fn)
    names = ctx.types.names.setdefault(name, {})
    for p, t in zip(fn.params, arg_ts):
        ctx.types.update(
            names, p.name, stored_type(kinds[p.name], t), f"{p.name!r} in {name!r}"
        )
    helper = ctx.helpers.get(name)
    if helper is None:  # helpers never recurse (analyze_kernel)
        helper = ctx.helpers[name] = _compile_helper(fn, ctx)
    typed[id(e)] = ctx.types.returns[name]
    params = _arguments(fn, kinds, arg_cs, arg_ts)
    if type(helper) is tuple:
        ctx.inlined += 1
        return _inline_call(params, *helper)
    return _framed_call(params, helper)


def _geometry(field: str, dim: int) -> ExprFn:
    return lambda b, m, n: getattr(b, field)[dim]


def _geometry_by_run(field: str, dim_c: ExprFn) -> ExprFn:
    def dynamic_dim(b, m, n):
        dim = dim_c(b, m, n)
        if not _is_uniform(dim):
            raise VectorUnsupported("lane-varying geometry dimension")
        return getattr(b, field)[int(dim)]

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


def _compile_helper(fn: c.CFunctionDef, ctx: _Ctx):
    """A helper's body, compiled (and typed) once per pipeline, with
    the types its first call site's arguments give its parameters: a
    **straight-line** one (declarations, assignments and expression
    statements, then at most one ``return`` last) as ``(statements,
    returned value, return conversion kind)`` for inlining, any other
    as a statement closure over its own return-mask frame."""
    caller = ctx.fn, ctx.kinds, ctx.names, ctx.scope
    ctx.fn, ctx.kinds, ctx.scope = fn, declared_kinds(fn), Scope()
    ctx.names = ctx.types.names.setdefault(fn.name, {})
    try:
        stmts = list(fn.body.stmts)
        ret = stmts.pop() if stmts and type(stmts[-1]) is c.CReturn else None
        if not all(type(s) in _STRAIGHT_LINE for s in stmts):
            framed = _compile_stmt(fn.body, ctx, has_returns=True)
            last = [s for s in fn.body.stmts if type(s) is not c.CComment][-1:]
            if not last or type(last[0]) is not c.CReturn:
                ctx.returned(VOID)  # it may fall off its end: a void call
            return framed
        body = tuple(
            s for s in (_compile_stmt(s, ctx, False) for s in stmts)
            if s is not None
        )
        if ret is None or ret.value is None:
            ctx.returned(VOID)
            return body, None, None
        ret_c = _compile_expr(ret.value, ctx)
        vt = ctx.typed[id(ret.value)]
        kind = scalar_kind(fn.return_type)
        ctx.returned(stored_type(kind, vt))
        return body, ret_c, (kind if _converts(kind, vt) else None)
    finally:
        ctx.fn, ctx.kinds, ctx.names, ctx.scope = caller


def _arguments(fn: c.CFunctionDef, kinds: dict, arg_cs: list, arg_ts: list) -> tuple:
    """``(parameter name, argument closure, pass)`` per parameter:
    ``pass`` is ``None`` when the argument's type is already what C's
    by-value passing makes of it (lanes or a scalar of the parameter's
    kind, a pointer), else ``_by_value`` (copies vectors and structs,
    converts scalars) — resolved here, at plan time."""
    params = []
    for p, ac, t in zip(fn.params, arg_cs, arg_ts):
        kind = kinds[p.name]
        if (
            not is_vector(t)
            and t.kind != "struct"
            and (kind is None or not is_arith(t) or t.kind == kind)
        ):
            passing = None
        else:
            passing = partial(_by_value, kind)
        params.append((p.name, ac, passing))
    return tuple(params)


def _inline_call(params: tuple, body: tuple, ret_c, ret_kind) -> ExprFn:
    """A straight-line helper in its caller's closure: the framed call's
    environment, argument passing, ``calls`` and return conversion,
    without the frame (every active lane reaches the one return)."""

    def call_inline(b, m, n):
        env = {}
        for pname, ac, passing in params:
            a = ac(b, m, n)
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
    t = type(s)
    if t is c.CBlock:
        return _compile_block(s.stmts, ctx, has_returns)
    if t is c.CAssign:
        return _compile_assign(s, ctx)
    if t is c.CDecl:
        return _compile_decl(s, ctx)
    if t is c.CFor:
        return _compile_for(s, ctx, has_returns)
    if t is c.CIf:
        return _compile_if(s, ctx, has_returns)
    if t is c.CExprStmt:
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
        return _barrier
    assert t is c.CComment, s  # analyze_kernel admits no other statement
    return None  # dropped from the statement list


def _barrier(b, m, n, frame) -> None:
    # The static analysis guarantees the mask is all-or-nothing per
    # work-group here, so lock-step execution satisfies the barrier and
    # each active item counts one, as in the scalar path.
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
    value_c = _compile_expr(s.value, ctx)
    vt = ctx.typed[id(s.value)]
    if s.op != "=":
        value_c, vt = _compile_compound(s, value_c, ctx)

    target = s.target
    if isinstance(target, c.CIdent):
        return ctx.bind(target.name, value_c, False, vt)

    if isinstance(target, c.CIndex):
        base_c = _compile_expr(target.base, ctx)
        index_c = _index_of(target.index, _compile_expr(target.index, ctx), ctx)
        bt, it = ctx.typed[id(target.base)], ctx.typed[id(target.index)]
        if bt.kind != "ptr" or index_type(bt, it) is None:
            raise ctx.refuse(target, f"store through base {bt}, index {it}")
        sole = id(s) in ctx.sole_sites
        return _scatter(value_c, base_c, index_c, ctx.access(target.base, target.index, sole=sole))

    assert isinstance(target, c.CMember), target  # lvalues: analyze_kernel
    base_c = _compile_expr(target.base, ctx)
    member = target.member
    bt = ctx.typed[id(target.base)]
    if bt.kind == "struct":
        kind = ctx.types.store_member(bt.elem, member, vt)
        if _converts(kind, vt):  # to the kind the member holds
            value_c = _converted(kind, value_c)
        return _store_member(value_c, base_c, member)
    if not is_vector(bt):
        raise ctx.refuse(target, f"member store into base {bt}")
    return _store_component(value_c, base_c, member)


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
    if decl.array_size is not None:
        ctx.define(name, CType("ptr", elem=declared_element_kind(decl.type_name)))
        if decl.qualifier == "local":
            return _check_local(name)
        size, dtype = decl.array_size, array_dtype(decl.type_name)
        return lambda b, m, n, frame: b._alloc_private(name, size, dtype)

    if decl.init is not None:
        init_c = _compile_expr(decl.init, ctx)
        return ctx.bind(name, init_c, True, ctx.typed[id(decl.init)])
    ctx.define(name, ctx.types.zero(decl.type_name))
    type_name, structs = decl.type_name, ctx.parsed.structs
    return lambda b, m, n, frame: b._bind(
        name, typed_zero(type_name, structs, b.L), m, n, True
    )


def _check_local(name: str) -> StmtFn:
    def check_local(b, m, n, frame):
        if name not in b.env:
            raise ExecError(f"local buffer {name} was not pre-allocated")

    return check_local


def _compile_for(s: c.CFor, ctx: _Ctx, has_returns: bool) -> StmtFn:
    # Compiled (and typed) in execution order: init, cond, body, step.
    init_c = _compile_stmt(s.init, ctx, has_returns) if s.init is not None else None
    cond_c = _compile_expr(s.cond, ctx) if s.cond is not None else None
    body_c = _compile_stmt(s.body, ctx, has_returns)
    step_c = _compile_stmt(s.step, ctx, has_returns) if s.step is not None else None

    def run_for(b, m, n, frame):
        if init_c is not None:
            init_c(b, m, n, frame)
        if frame.returned_any:
            active = m & ~frame.ret_mask
            na = int(np.count_nonzero(active))
        else:
            active = m
            na = n
        counters = b.counters
        while na:
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

    return run_for


def _compile_if(s: c.CIf, ctx: _Ctx, has_returns: bool) -> StmtFn:
    cond_c, bound = _compile_bound(s.cond, ctx)
    then_c = _compile_stmt(s.then, ctx, has_returns)
    else_c = (
        _compile_stmt(s.otherwise, ctx, has_returns)
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
        return _compile_expr(cond, ctx), None
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
        k = b._prefix(l, r, inclusive, acc, m, n)
        if k is None:
            _branch(b, m, n, frame, cmp(l, r), then_c, else_c)
        elif k >= b.L:
            then_c(b, m, n, frame)
        elif k <= 0:
            if else_c is not None:
                else_c(b, m, n, frame)
        else:
            _branch(b, m, n, frame, b._lane_ids < k, then_c, else_c)

    return run_bound


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


def _truth(cv):
    """A condition's lanes as booleans, or its one uniform value."""
    if isinstance(cv, np.ndarray):
        if cv.ndim != 1:
            raise VectorUnsupported("vector used in a scalar condition")
        return cv if cv.dtype.kind == "b" else cv != 0
    if not _is_uniform(cv):
        raise VectorUnsupported(f"cannot use {cv!r} as a condition")
    return cv


# ---------------------------------------------------------------------------
# pipeline assembly
# ---------------------------------------------------------------------------

class Pipeline:
    """A kernel compiled to barrier-delimited segments, for launches
    whose pointer arguments hold ``pointer_kinds`` elements."""

    __slots__ = (
        "kernel_name", "segments", "has_returns", "pointers",
        "pointer_kinds", "types", "inlined", "sole_names", "accesses",
        "affine",
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

    def run(self, block: _Block) -> None:
        """Execute one block of work-groups through the pipeline."""
        prof = _obs_profile.ACTIVE
        frame = _Frame(block.L)
        m = block._full
        n = block.L
        for index, segment in enumerate(self.segments):
            if frame.returned_any:
                m = m & ~frame.ret_mask
                n = int(np.count_nonzero(m))
                if n == 0:
                    return
            if prof is None:
                segment(block, m, n, frame)
            else:
                run_segment_profiled(prof, index, segment, block, m, n, frame)


def run_segment_profiled(prof, index, segment, block, m, n, frame):
    """One segment with a clock read and a ``Counters`` diff around it
    (the kernel profiler's per-segment attribution); execution itself
    is identical to calling ``segment`` directly."""
    before = dict(vars(block.counters))
    loads0 = block._obs_load_events()
    t0 = time.perf_counter()
    segment(block, m, n, frame)
    prof.record_segment(index, time.perf_counter() - t0)
    after = vars(block.counters)
    deltas = {k: after[k] - v for k, v in before.items() if after[k] != v}
    load_events = block._obs_load_events() - loads0
    if load_events:
        deltas["load_events"] = load_events
    prof.record_segment_counters(index, deltas)


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
    """Lower a kernel :func:`~repro.opencl.simt.analyze_kernel` admits
    into a compiled closure pipeline, typed for pointer arguments of
    ``pointer_kinds`` (default: the declared element types).

    The lowering is also the static typing pass: one walk in execution
    order types every node from its children's as it compiles it (see
    :class:`~repro.opencl.interp.StaticTypes`), or raises
    :class:`~repro.opencl.interp.Untyped` naming what it cannot type;
    every load and store site gets the affine fact of its address.
    """
    if pointer_kinds is None:
        pointer_kinds = declared_pointer_kinds(kernel)
    types = StaticTypes(parsed.structs)
    names = types.names.setdefault(kernel.name, {})
    kinds = declared_kinds(kernel)
    pointers = tuple(p.name for p in kernel.params if p.is_pointer)
    elements = dict(zip(pointers, pointer_kinds))
    for p in kernel.params:
        names[p.name] = (
            CType("ptr", elem=elements[p.name]) if p.is_pointer
            else _SCALAR.get(kinds[p.name])
        )
    has_returns = c.CReturn in statement_types(kernel)
    scope, sole_names, sole_sites = scan_kernel(kernel)
    ctx = _Ctx(parsed, kernel, types, scope, sole_sites)
    segments = [_compile_stmt(r, ctx, has_returns) for r in split_at_barriers(kernel)]
    return Pipeline(
        kernel.name, segments, has_returns, pointers, pointer_kinds, types,
        ctx, sole_names,
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
    tiers refuse it: :func:`~repro.opencl.simt.analyze_kernel`'s, or the
    typing walk's.

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
        entry = analyze_kernel(parsed, kernel)
        if entry is None:
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

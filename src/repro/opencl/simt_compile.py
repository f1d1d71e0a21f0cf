"""Closure compilation for the lane-batched SIMT runtime.

Walking the kernel AST for every block of work-groups pays a type
dispatch per statement, a string comparison per operator and a table
lookup per builtin — and every block (and every launch of the
autotune/explore loops) would repeat them unchanged.  This module pays
the walk **once per kernel**: the AST is lowered into a pipeline of
Python closures over the lane-array runtime of
:class:`repro.opencl.simt._Block`.  It is the only lane-array evaluator
of the AST; compilation resolves statically everything a walk would
re-derive per block:

* statement and expression dispatch (one closure per node, built once);
* operator selection (``+`` compiles to ``operator.add``, comparisons to
  their ufunc, ``/`` to integer or true division);
* **value types**: the walk is also the static typing pass — each node
  gets its kind and vector width from its children's by the rules of
  :mod:`repro.opencl.interp` (``binop_type``, ``builtin_type``, …,
  names and members through :class:`~repro.opencl.interp.StaticTypes`)
  as it compiles, so an arithmetic closure adds a constant to one
  counter, aligns a vector with lanes only where the types mix widths,
  tests for a pointer only where one can occur, and a store,
  declaration, argument or return skips a conversion its value already
  has;
* geometry builtins (``get_global_id(0)`` becomes an attribute read);
* ``vload``/``vstore`` widths, math-builtin implementations and flop
  costs (a builtin's width comes from its arguments' types), struct
  member templates, declaration dtypes;
* helper functions: a **straight-line** helper (declarations,
  assignments and expression statements, then at most one ``return``
  last — every Lift user function) is inlined into its caller's
  closure: a fresh environment, by-value argument copies and the
  argument and return conversions, but no return-mask frame.  A helper
  with control flow keeps its own frame;
* group-uniform conditions: a loop or branch condition that evaluates to
  a Python scalar skips the mask materialization entirely.

The walk types every node or refuses the kernel: a node no rule types
(a ternary whose arms differ in kind, arithmetic on a vector of
comparisons, a load from a buffer of no arithmetic kind) or a name,
return or member that would hold two types raises
:class:`~repro.opencl.interp.Untyped`, whose message names it.  No
closure reads the type of a value at run time.

The compiled pipeline is segmented at top-level barriers — one closure
sequence per barrier-delimited region (:func:`split_at_barriers`) —
mirroring how the scalar engine schedules whole segments between
synchronization points.  Barriers nested in (group-uniform) loops stay
inside their segment's loop closure.

Each segment of a kernel without returns is then offered to the **fast
path** (see its section below): a second lowering over the same static
types in which affine work-item ids stay lazy, affine loads and stores
become slices, ``if (i < n)`` becomes a lane prefix, a buffer's one
proven store skips the race detector and cached loads settle in closed
form.  A segment that fits takes that form; any other keeps its closure
form.  The choice is made once, here, at plan time; the launcher
(:func:`repro.opencl.simt.try_launch`) runs the one plan in blocks or
over the whole grid.

Closures run against a :class:`~repro.opencl.simt._Block` instance, whose
memory, merge and counter helpers reproduce the scalar interpreter bit
for bit: same buffer contents, same :class:`Counters`.

A kernel is refused at two sites, each with a reason:
:func:`repro.opencl.simt.analyze_kernel` refuses unsupported forms
before the walk (an assertion marks each place the lowering relies on
it; the fast path's ``_Unfusable`` only keeps a segment's closure
form), and the walk refuses what it cannot type.  A refused kernel has
no pipeline — :func:`get_pipeline` returns the reason, and the launch
falls to the scalar oracle with it in the ledger.

Pipelines (and refusals) are cached on the parsed program (which the
runtime shares per source through an LRU), alongside the
vectorizability analysis, per kernel and element kinds of its pointer
arguments (loads take the kind of the buffer a launch binds, not of the
declaration): the thousands of launches an exploration run performs
walk each kernel exactly once.
"""

from __future__ import annotations

import operator
import threading
import time
from functools import cached_property, lru_cache, partial
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
    declared_element_kind,
    declared_kinds,
    element_kind,
    index_type,
    is_arith,
    is_vector,
    join,
    scalar_kind,
    stored_type,
    typed_zero,
    unop_type,
    vector_column,
    vector_literal_width,
    vector_type,
)
from repro.opencl.simt import (
    _AFF_LOCAL_ID,
    Aff,
    VectorUnsupported,
    _Block,
    _Frame,
    _LANE_DTYPE,
    _VMATH,
    _aff_binop,
    _by_value,
    _convert,
    _expr_uniform,
    _is_int_uniform,
    _is_uniform,
    _is_vload,
    _is_vstore,
    analyze_kernel,
    sole_store_sites,
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


class _Ctx:
    """Per-pipeline compilation state: the static types the walk fills,
    the function being compiled (its declared kinds: stores resolve
    their conversion here, at plan time) and the helper bodies compiled
    so far."""

    def __init__(self, parsed: ParsedProgram, fn: c.CFunctionDef,
                 types: StaticTypes):
        self.parsed = parsed
        self.types = types
        #: ``id(node) -> type``, filled as the nodes compile.
        self.typed = types.exprs
        self.fn = fn
        self.kinds = declared_kinds(fn)
        self.names = types.names.setdefault(fn.name, {})
        self.helpers: dict = {}  # name -> framed body, or inlined parts
        self.loads: dict = {}  # name -> its (shared) load closure
        self.inlined = 0  # call sites compiled inline
        #: ``id(if statement) -> (then, else)`` closures, which the fast
        #: path runs for a branch it cannot take as a prefix.
        self.branches: dict = {}

    def type_of(self, e) -> CType:
        return self.typed[id(e)]

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
    if t is c.CBinOp:
        parts = (e.lhs, e.rhs)
    elif t is c.CUnOp or t is c.CCast:
        parts = (e.operand,)
    else:
        parts = e.args if t is c.CCall else e.items
    return "operands " + (", ".join(str(ctx.type_of(p)) for p in parts) or "none")


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
        return _gather(base, index)
    return lambda b, m, n: _column(base(b, m, n), index(b, m, n), m)


def _gather(base: ExprFn, index: ExprFn) -> ExprFn:
    return lambda b, m, n: b._gather(base(b, m, n), index(b, m, n), m, n)


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
        return _vload(width, *arg_cs)
    if _is_vstore(name):
        width = int(name[6:])
        value_t = arg_ts[0]
        stores = arg_ts[2].kind == "ptr" and is_vector(value_t) and value_t.width == width
        typed[id(e)] = VOID if stores else None
        return _vstore(width, *arg_cs)
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


def _vload(width: int, offset: ExprFn, pointer: ExprFn) -> ExprFn:
    def vload(b, m, n):
        off = offset(b, m, n)
        return b._vload(pointer(b, m, n), off, width, m, n)

    return vload


def _vstore(width: int, value: ExprFn, offset: ExprFn, pointer: ExprFn) -> ExprFn:
    def vstore(b, m, n):
        v = value(b, m, n)
        off = offset(b, m, n)
        b._vstore(pointer(b, m, n), off, width, v, m, n)

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
    caller = ctx.fn, ctx.kinds, ctx.names
    ctx.fn, ctx.kinds = fn, declared_kinds(fn)
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
        ctx.fn, ctx.kinds, ctx.names = caller


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
        return _scatter(value_c, base_c, index_c)

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


def _scatter(value_c: ExprFn, base_c: ExprFn, index_c: ExprFn) -> StmtFn:
    def scatter(b, m, n, frame):
        v = value_c(b, m, n)
        b._scatter(base_c(b, m, n), index_c(b, m, n), v, m, n)

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
                cv = cond_c(b, active, na)
                if isinstance(cv, np.ndarray):
                    if cv.ndim != 1:
                        raise VectorUnsupported(
                            "vector used in a scalar condition"
                        )
                    if cv.dtype.kind != "b":
                        cv = cv != 0
                    active = active & cv
                    na = int(np.count_nonzero(active))
                    if na == 0:
                        break
                elif _is_uniform(cv):
                    # Group-uniform trip counts skip the lane-mask
                    # re-materialization entirely.
                    if not cv:
                        break
                else:
                    raise VectorUnsupported(f"cannot use {cv!r} as a condition")
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
    cond_c = _compile_expr(s.cond, ctx)
    then_c = _compile_stmt(s.then, ctx, has_returns)
    else_c = (
        _compile_stmt(s.otherwise, ctx, has_returns)
        if s.otherwise is not None
        else None
    )
    ctx.branches[id(s)] = then_c, else_c

    def run_if(b, m, n, frame):
        b.counters.branches += n
        cv = cond_c(b, m, n)
        if isinstance(cv, np.ndarray):
            if cv.ndim != 1:
                raise VectorUnsupported("vector used in a scalar condition")
            if cv.dtype.kind != "b":
                cv = cv != 0
            mt = m & cv
            nt = int(np.count_nonzero(mt))
            if nt:
                then_c(b, mt, nt, frame)
            if else_c is not None and nt < n:
                mf = m & ~cv
                else_c(b, mf, n - nt, frame)
        elif _is_uniform(cv):
            if cv:
                then_c(b, m, n, frame)
            elif else_c is not None:
                else_c(b, m, n, frame)
        else:
            raise VectorUnsupported(f"cannot use {cv!r} as a condition")

    return run_if


# ---------------------------------------------------------------------------
# the fast path: a segment's second form
# ---------------------------------------------------------------------------
#
# A barrier segment of a kernel without returns whose statements fit the
# fast path's value algebra (module docstring; ENGINES.md, "One plan,
# two layouts") compiles a second time, into closures of the closure
# form's signature whose active lanes are always the *first k* of the
# block: k == L at segment top level (the mask is the block's full one),
# a prefix under a prefix-taken branch (the mask is ``True``, which the
# shared operator closures accept).  Materialized values are length-k
# prefixes, which is what lets a guarded store slice-assign without
# building a boolean mask.  Affine values (:class:`~repro.opencl.simt.
# Aff`) only arise from dimension 0 of a 1-D launch, the only launches
# fast forms run in; the static type of one is ``int``, so ``_lazy``
# tells at plan time which operands may be one, and every other operand
# goes through the closure form's own operator closures.
#
# An expression that leaves the algebra materializes into the closure
# form's lane arrays and continues through the same ``_Block`` helpers
# (same counters, same hazard notes); a branch the algebra cannot take
# runs the closure form's branch closures; a segment with any other
# construct (``_Unfusable``) keeps its closure form.  Statements that
# bind variables compile only in unmasked position (k == L), so the
# environment never holds a compressed array.

class _Unfusable(Exception):
    """Plan time: this segment keeps its closure form."""


#: Geometry every work-item of a launch agrees on.  A fast loop must
#: have a trip count all lanes of a block agree on, and a block may hold
#: many work-groups: ``get_group_id`` does not qualify.
_GEOM_GRID_UNIFORM = frozenset(("get_local_size", "get_global_size", "get_num_groups"))
_GRID_UNIFORM_CALLS = _GEOM_GRID_UNIFORM | frozenset(_MATH_BUILTINS)

#: The lazy geometry of a 1-D launch, per builtin: a block attribute,
#: or the one descriptor every block shares.
_AFF_GEOMETRY = {
    "get_global_id": "_aff_global_id",
    "get_group_id": "_aff_group_id",
    "get_local_id": None,
}


class _FastCtx:
    """Fast-path compilation state over the closure compiler's final
    :class:`_Ctx` (its static types and branch closures)."""

    def __init__(self, ctx: _Ctx, kernel: c.CFunctionDef):
        self.ctx = ctx
        self.kernel = kernel

    @cached_property
    def uniform_names(self) -> frozenset:
        return frozenset(uniform_names(self.kernel, _GRID_UNIFORM_CALLS))

    @cached_property
    def sole(self) -> tuple:
        return sole_store_sites(self.kernel)


def _lazy(e, fc: _FastCtx) -> bool:
    """Whether ``e`` may evaluate to a lazy affine value: an Aff is an
    integer lane vector, so its static type is ``int``, and it is never
    a literal or a name every work-item agrees on."""
    if fc.ctx.type_of(e) != I:
        return False
    t = type(e)
    return not (t is c.CInt or (t is c.CIdent and e.name in fc.uniform_names))


def _eager(fn: ExprFn) -> ExprFn:
    """``fn`` with a lazy affine result materialized over the k lanes."""
    return lambda b, m, k: b.lanes_k(fn(b, m, k), k)


def _fast_expr(e, fc: _FastCtx) -> ExprFn:
    t = type(e)
    if t is c.CInt or t is c.CFloat:
        return _constant(e.value)
    if t is c.CIdent:
        if e.name in fc.uniform_names:  # never lanes
            return _load(e.name)
        return _fast_load(e.name)
    if t is c.CBinOp:
        return _fast_binop(e, fc)
    if t is c.CUnOp:
        if e.op != "-":
            raise _Unfusable(f"unary operator {e.op}")
        operand = _fast_expr(e.operand, fc)
        if _lazy(e.operand, fc):
            return _fast_negate(operand)
        return _negate(_arith_operand(operand, fc.ctx.type_of(e.operand))[0])
    if t is c.CIndex:
        if fc.ctx.type_of(e.base).kind != "ptr":
            raise _Unfusable("vector component by index")
        index = _index_of(e.index, _fast_expr(e.index, fc), fc.ctx)
        return _fast_gather(_fast_expr(e.base, fc), index)
    if t is c.CCall:
        return _fast_call(e, fc)
    if t is c.CCast:
        operand = _fast_expr(e.operand, fc)
        if e.type_name in ("int", "uint", "long"):
            return _fast_to_int(operand)
        if e.type_name in ("float", "double"):
            return _fast_to_float(operand)
        return operand
    raise _Unfusable(f"expression {e!r}")


def _fast_load(name: str) -> ExprFn:
    """A name's first k lanes."""
    load = _load(name)

    def load_lanes(b, m, k):
        v = load(b, m, k)
        if k != b.L and isinstance(v, np.ndarray) and v.shape[0] == b.L:
            return v[:k]
        return v

    return load_lanes


def _fast_negate(operand: ExprFn) -> ExprFn:
    def negate(b, m, k):
        v = operand(b, m, k)
        if isinstance(v, Aff):
            return Aff(-v.base, -v.gs, -v.ls)
        return -v

    return negate


def _fast_gather(base_c: ExprFn, index_c: ExprFn) -> ExprFn:
    return lambda b, m, k: b.fast_gather(base_c(b, m, k), index_c(b, m, k), k)


def _fast_to_int(operand: ExprFn) -> ExprFn:
    def to_int(b, m, k):
        v = operand(b, m, k)
        if isinstance(v, Aff):
            return v  # affine descriptors are already integer
        if isinstance(v, np.ndarray):
            return v.astype(np.int64)
        return int(v)

    return to_int


def _fast_to_float(operand: ExprFn) -> ExprFn:
    def to_float(b, m, k):
        v = operand(b, m, k)
        if isinstance(v, Aff):
            v = b.aff_values(v, k)
        if isinstance(v, np.ndarray):
            return v.astype(np.float64)
        return float(v)

    return to_float


def _fast_binop(e: c.CBinOp, fc: _FastCtx) -> ExprFn:
    op = e.op
    if op == "&&" or op == "||":
        raise _Unfusable("short-circuit operator")
    lhs = _fast_expr(e.lhs, fc)
    rhs = _fast_expr(e.rhs, fc)
    lt, rt = fc.ctx.type_of(e.lhs), fc.ctx.type_of(e.rhs)
    lazy_l, lazy_r = _lazy(e.lhs, fc), _lazy(e.rhs, fc)
    if (lazy_l or lazy_r) and op in ("+", "-", "*") and lt == rt == I:
        return _fast_affine(op, lhs, rhs, *_binop_parts(op, I, I))
    if lazy_l:
        lhs = _eager(lhs)
    if lazy_r:
        rhs = _eager(rhs)
    return _binop(op, lhs, rhs, lt, rt, _divisor(e))


def _fast_affine(op: str, lhs: ExprFn, rhs: ExprFn, value_of, field: str,
                 units: int) -> ExprFn:
    """Integer ``lhs op rhs`` (``+ - *``) that keeps affine operands lazy."""

    def affine(b, m, k):
        l = lhs(b, m, k)
        r = rhs(b, m, k)
        _charge(b.counters, field, units * k)
        av = _aff_binop(op, l, r)
        if av is not None:
            return av
        return value_of(b.lanes_k(l, k), b.lanes_k(r, k), m)

    return affine


def _fast_call(e: c.CCall, fc: _FastCtx) -> ExprFn:
    name = e.func
    if name.startswith("get_"):
        field = _GEOMETRY_FIELDS[name]
        if not e.args:
            dim = 0
        elif type(e.args[0]) is c.CInt:
            dim = e.args[0].value
        else:
            raise _Unfusable("dynamic geometry dimension")
        if name in _GEOM_GRID_UNIFORM:
            return _geometry(field, dim)
        return _fast_geometry(field, dim, _AFF_GEOMETRY[name])
    builtin = _VMATH.get(name)
    if builtin is None:
        raise _Unfusable(f"call to {name!r}")
    arg_cs = [
        _eager(_fast_expr(a, fc)) if _lazy(a, fc) else _fast_expr(a, fc)
        for a in e.args
    ]
    return _compile_builtin(e, builtin, arg_cs, fc.ctx)


def _fast_geometry(field: str, dim: int, aff_attr) -> ExprFn:
    """A lane geometry builtin; in dimension 0 of the 1-D launches fast
    segments run in, a lazy affine value."""
    if dim == 0:
        if aff_attr is None:
            return lambda b, m, k: _AFF_LOCAL_ID
        return lambda b, m, k: getattr(b, aff_attr)

    def geometry(b, m, k):
        arr = getattr(b, field)[dim]
        return arr if k == b.L else arr[:k]

    return geometry


def _fast_cond(e, fc: _FastCtx):
    """A branch condition as ``(b, m, k) -> (kind, value)`` with kind
    ``"u"`` (block-uniform bool), ``"p"`` (prefix count), or ``"a"``
    (boolean lanes)."""
    cmpfn = COMPARE.get(e.op) if type(e) is c.CBinOp else None
    if cmpfn is None:
        expr = _fast_expr(e, fc)

        def cond_any(b, m, k):
            v = expr(b, m, k)
            if isinstance(v, Aff):
                v = b.aff_values(v, k)
            if _is_uniform(v):
                return "u", bool(v)
            return "a", b._as_bool(v, m)

        return cond_any
    lhs = _fast_expr(e.lhs, fc)
    rhs = _fast_expr(e.rhs, fc)
    lazy_l, lazy_r = _lazy(e.lhs, fc), _lazy(e.rhs, fc)
    align = _needs_align(fc.ctx.type_of(e.lhs), fc.ctx.type_of(e.rhs))
    # Only ``aff < bound`` and ``aff <= bound`` can be a prefix.
    prefix = lazy_l and e.op in ("<", "<=")
    inclusive = 1 if e.op == "<=" else 0

    def cond_cmp(b, m, k):
        l = lhs(b, m, k)
        r = rhs(b, m, k)
        b.counters.iops += k
        if prefix and type(l) is Aff and _is_int_uniform(r):
            s = l.flat_stride(b._lanes_per_group)
            if s is not None and s > 0:
                kk = -(-(int(r) + inclusive - l.base) // s)  # ceil, s > 0
                return "p", min(max(kk, 0), k)
        if lazy_l:
            l = b.lanes_k(l, k)
        if lazy_r:
            r = b.lanes_k(r, k)
        cv = cmpfn(*_align(l, r)) if align else cmpfn(l, r)
        if type(cv) is np.ndarray:
            return "a", b._as_bool(cv, m)
        return "u", bool(cv)

    return cond_cmp


def _fast_stmt(s, fc: _FastCtx, masked: bool) -> StmtFn:
    t = type(s)
    if t is c.CBlock:
        fns = [
            fn for fn in (_fast_stmt(sub, fc, masked) for sub in s.stmts)
            if fn is not None
        ]
        if len(fns) == 1:
            return fns[0]

        def run_block(b, m, k, frame):
            for fn in fns:
                fn(b, m, k, frame)

        return run_block
    if t is c.CComment:
        return None
    if t is c.CAssign:
        if isinstance(s.target, c.CIndex):
            return _fast_store(s, fc)
        if masked:
            raise _Unfusable("variable binding under a mask")
        if isinstance(s.target, c.CIdent):
            return _fast_bind(s.target.name, _fast_value(s, fc), False, fc)
        raise _Unfusable(f"assignment to {s.target!r}")
    if t is c.CExprStmt:
        expr = _fast_expr(s.expr, fc)
        return lambda b, m, k, frame: expr(b, m, k)
    if masked:
        raise _Unfusable(f"{t.__name__} under a mask")
    if t is c.CDecl:
        return _fast_decl(s, fc)
    if t is c.CFor:
        return _fast_for(s, fc)
    if t is c.CIf:
        return _fast_if(s, fc)
    if t is c.CBarrier:
        return _barrier
    raise _Unfusable(f"statement {s!r}")


def _fast_value(s: c.CAssign, fc: _FastCtx) -> tuple:
    """``(closure, type, lazy)`` of the value an assignment stores,
    folding a compound operator the way the closure form does."""
    value_c = _fast_expr(s.value, fc)
    vt = fc.ctx.type_of(s.value)
    lazy_v = _lazy(s.value, fc)
    if s.op == "=":
        return value_c, vt, lazy_v
    op = s.op[0]
    current_c = _fast_expr(s.target, fc)
    ct = fc.ctx.type_of(s.target)
    lazy_c = _lazy(s.target, fc)
    if (lazy_c or lazy_v) and op in ("+", "-", "*") and ct == vt == I:
        return _fast_affine(op, current_c, value_c, *_binop_parts(op, I, I)), I, True
    if lazy_c:
        current_c = _eager(current_c)
    if lazy_v:
        value_c = _eager(value_c)
    return _compound(op, current_c, value_c, ct, vt) + (False,)


def _fast_bind(name: str, value: tuple, declaring: bool, fc: _FastCtx) -> StmtFn:
    """The unmasked store ``name = value`` of ``value = (closure, type,
    lazy)``, converted to the declared kind of ``name`` only where it
    may differ — resolved here, at plan time."""
    value_c, vt, lazy = value
    kind = fc.ctx.kinds.get(name)
    if lazy:
        if kind != "f":
            return _bind_lazy(name, value_c)
        value_c, vt = _eager(value_c), I  # an Aff is an integer lane vector
    if _converts(kind, vt):
        return _bind_converted(name, kind, value_c, declaring)
    return _bind(name, value_c, declaring)


def _bind_lazy(name: str, value_c: ExprFn) -> StmtFn:
    """Store a value that may be affine, noting the name for
    :meth:`~repro.opencl.simt._Block.materialize_env`."""

    def bind_lazy(b, m, k, frame):
        v = value_c(b, m, k)
        b.env[name] = v
        if type(v) is Aff:
            b._lazy_names.add(name)

    return bind_lazy


def _fast_store(s: c.CAssign, fc: _FastCtx) -> StmtFn:
    value_c = _fast_value(s, fc)[0]
    base_c = _fast_expr(s.target.base, fc)
    index_c = _index_of(s.target.index, _fast_expr(s.target.index, fc), fc.ctx)
    sole = id(s) in fc.sole[1]

    def store(b, m, k, frame):
        v = value_c(b, m, k)
        b.fast_scatter(base_c(b, m, k), index_c(b, m, k), v, k, sole)

    return store


def _fast_decl(decl: c.CDecl, fc: _FastCtx) -> StmtFn:
    name = decl.name
    if decl.array_size is not None:
        if decl.qualifier == "local":
            return _check_local(name)
        size, dtype = decl.array_size, array_dtype(decl.type_name)
        return lambda b, m, k, frame: b._alloc_private(name, size, dtype)
    init = decl.init
    if init is not None:
        value = _fast_expr(init, fc), fc.ctx.type_of(init), _lazy(init, fc)
        return _fast_bind(name, value, True, fc)
    zero = typed_zero(decl.type_name, fc.ctx.parsed.structs)
    if not isinstance(zero, (int, float)):
        raise _Unfusable("struct or vector declaration")

    def declare_zero(b, m, k, frame):  # unmasked: k == L by construction
        b.env[name] = zero

    return declare_zero


def _grid_uniform_stmt(s, names) -> bool:
    if s is None:
        return True
    if isinstance(s, c.CDecl):
        return s.init is None or _expr_uniform(s.init, names, _GRID_UNIFORM_CALLS)
    if isinstance(s, c.CAssign) and isinstance(s.target, c.CIdent):
        return _expr_uniform(s.value, names, _GRID_UNIFORM_CALLS) and (
            s.op == "=" or s.target.name in names
        )
    return False


def _fast_for(s: c.CFor, fc: _FastCtx) -> StmtFn:
    names = fc.uniform_names
    if not (
        _grid_uniform_stmt(s.init, names)
        and (s.cond is None or _expr_uniform(s.cond, names, _GRID_UNIFORM_CALLS))
        and _grid_uniform_stmt(s.step, names)
    ):
        raise _Unfusable("lane-varying loop")
    init_c = _fast_stmt(s.init, fc, masked=False) if s.init is not None else None
    cond_c = _fast_expr(s.cond, fc) if s.cond is not None else None
    step_c = _fast_stmt(s.step, fc, masked=False) if s.step is not None else None
    body_c = _fast_stmt(s.body, fc, masked=False) or (lambda b, m, k, frame: None)

    def run_for(b, m, k, frame):
        if init_c is not None:
            init_c(b, m, k, frame)
        counters = b.counters
        while True:
            if cond_c is not None:
                cv = cond_c(b, m, k)
                if not _is_uniform(cv):
                    raise VectorUnsupported(
                        "fast path: loop condition became lane-varying"
                    )
                if not cv:
                    break
            counters.loop_iterations += k
            body_c(b, m, k, frame)
            if step_c is not None:
                step_c(b, m, k, frame)

    return run_for


def _fast_branch(fast: Optional[StmtFn], closure: Optional[StmtFn]):
    """One arm of a fast ``if``, taken on the first ``k`` lanes: its
    fast form, else its closure form under the prefix mask."""
    if fast is not None:
        return lambda b, k, frame: fast(b, True, k, frame)
    if closure is None:
        return None

    def closure_on_prefix(b, k, frame):
        b.materialize_env()
        closure(b, b.prefix_mask(k), k, frame)

    return closure_on_prefix


def _fast_if(s: c.CIf, fc: _FastCtx) -> StmtFn:
    # Unmasked by construction: every lane of the block is active.
    cond_c = _fast_cond(s.cond, fc)
    # The closure form's branches serve the boolean-mask path and any
    # arm the algebra refuses: same counts and semantics by construction.
    then_c, else_c = fc.ctx.branches[id(s)]
    has_else = s.otherwise is not None
    arms = []
    for arm in (s.then, s.otherwise):
        try:
            arms.append(_fast_stmt(arm, fc, masked=True) if arm is not None else None)
        except _Unfusable:
            arms.append(None)
    run_then = _fast_branch(arms[0], then_c)
    run_else = _fast_branch(arms[1], else_c)

    def run_if(b, m, n, frame):
        b.counters.branches += n
        kind, cv = cond_c(b, m, n)
        if kind == "p" and has_else:
            # The complement of a prefix is a suffix: take the mask path.
            kind, cv = "a", b.prefix_mask(cv)
        if kind == "u":
            arm = run_then if cv else run_else
            if arm is not None:
                arm(b, n, frame)
        elif kind == "p":
            if cv and run_then is not None:
                run_then(b, cv, frame)
        else:
            b.materialize_env()
            mt = m & cv
            nt = int(np.count_nonzero(mt))
            if nt and then_c is not None:
                then_c(b, mt, nt, frame)
            if else_c is not None and nt < n:
                else_c(b, m & ~cv, n - nt, frame)

    return run_if


def _after_fast(segment: StmtFn) -> StmtFn:
    """A closure segment that may follow a fast one: the lazy affine
    values left in the environment become lane arrays first."""

    def closure_after_fast(b, m, n, frame):
        b.materialize_env()
        segment(b, m, n, frame)

    return closure_after_fast


# ---------------------------------------------------------------------------
# pipeline assembly
# ---------------------------------------------------------------------------

class Pipeline:
    """A kernel compiled to barrier-delimited segments, for launches
    whose pointer arguments hold ``pointer_kinds`` elements.  Each
    segment has one of two forms, chosen here at plan time: the fast
    path, where the segment fits its algebra, else the closure form.
    The fast path's affine algebra is over the lane index of a 1-D
    launch; a launch of more dimensions runs every closure form."""

    __slots__ = (
        "kernel_name", "segments", "closures", "kinds", "has_returns",
        "pointers", "pointer_kinds", "types", "inlined", "fast_segments",
        "sole_names",
    )

    def __init__(self, kernel_name: str, segments: list, closures: list,
                 kinds: tuple, has_returns: bool, pointers: tuple,
                 pointer_kinds: tuple, types, inlined: int,
                 sole_names: frozenset):
        self.kernel_name = kernel_name
        #: One compiled closure per barrier-delimited top-level region
        #: (barriers inside group-uniform loops stay within their
        #: segment's loop closure), and its form: ``"fast"`` or
        #: ``"closure"`` (what the kernel profiler records).
        self.segments = segments
        self.kinds = kinds
        self.fast_segments = kinds.count("fast")
        #: The closure form of every segment.
        self.closures = closures if self.fast_segments else segments
        #: Buffers whose one store the fast path runs without the race
        #: detector (when no other argument aliases them).
        self.sole_names = sole_names
        self.has_returns = has_returns
        #: The pointer parameters, and the element kinds typed for them.
        self.pointers = pointers
        self.pointer_kinds = pointer_kinds
        #: The kernel's :class:`~repro.opencl.interp.StaticTypes`.
        self.types = types
        #: Helper call sites compiled inline.
        self.inlined = inlined

    def run(self, block: _Block) -> None:
        """Execute one block of work-groups through the pipeline."""
        prof = _obs_profile.ACTIVE
        frame = _Frame(block.L)
        m = block._full
        n = block.L
        one_d = block._one_d
        for index, segment in enumerate(self.segments if one_d else self.closures):
            if frame.returned_any:
                m = m & ~frame.ret_mask
                n = int(np.count_nonzero(m))
                if n == 0:
                    return
            if prof is None:
                segment(block, m, n, frame)
            else:
                kind = self.kinds[index] if one_d else "closure"
                run_segment_profiled(prof, index, kind, segment, block, m, n, frame)


def run_segment_profiled(prof, index, kind, segment, block, m, n, frame):
    """One segment with a clock read and a ``Counters`` diff around it
    (the kernel profiler's per-segment attribution); execution itself
    is identical to calling ``segment`` directly."""
    before = dict(vars(block.counters))
    loads0 = block._obs_load_events()
    t0 = time.perf_counter()
    segment(block, m, n, frame)
    prof.record_segment(index, kind, time.perf_counter() - t0)
    after = vars(block.counters)
    deltas = {k: after[k] - v for k, v in before.items() if after[k] != v}
    load_events = block._obs_load_events() - loads0
    if load_events:
        deltas["load_events"] = load_events
    prof.record_segment_counters(index, kind, deltas)


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
    :class:`~repro.opencl.interp.Untyped` naming what it cannot type.
    Then, in a kernel without returns, each region that fits the fast
    path's algebra takes its fast form over the same types.
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
    regions = split_at_barriers(kernel)
    ctx = _Ctx(parsed, kernel, types)
    segments = [_compile_stmt(r, ctx, has_returns) for r in regions]
    closures = list(segments)
    kinds = ["closure"] * len(regions)
    sole_names: frozenset = frozenset()
    if not has_returns:
        fc = _FastCtx(ctx, kernel)
        for index, region in enumerate(regions):
            if type(region) is c.CBarrier:
                continue
            try:
                segments[index] = _fast_stmt(region, fc, masked=False)
            except _Unfusable:
                if "fast" in kinds:
                    segments[index] = _after_fast(segments[index])
                continue
            kinds[index] = "fast"
        if "fast" in kinds:
            sole_names = fc.sole[0]
    return Pipeline(
        kernel.name, segments, closures, tuple(kinds), has_returns, pointers,
        pointer_kinds, types, ctx.inlined, sole_names,
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
    kernel is walked once per process (under a lock — a candidate attempt
    the explorer's watchdog gave up on can still be launching on its own
    thread beside the next candidate).
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
                        compile_span.attrs["fast_segments"] = entry.fast_segments
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

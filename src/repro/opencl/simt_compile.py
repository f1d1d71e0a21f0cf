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
  their ufunc, ``/`` to the int/float dispatch only);
* geometry builtins (``get_global_id(0)`` becomes an attribute read);
* ``vload``/``vstore`` widths, math-builtin implementations and flop
  costs, struct member templates, declaration dtypes;
* helper functions (compiled once, called with by-value argument
  copies and their own return-mask frame);
* group-uniform conditions: a loop or branch condition that evaluates to
  a Python scalar skips the mask materialization entirely.

The compiled pipeline is segmented at top-level barriers — one closure
sequence per barrier-delimited region (:func:`split_at_barriers`) —
mirroring how the scalar engine schedules whole segments between
synchronization points.  Barriers nested in (group-uniform) loops stay
inside their segment's loop closure.

Closures run against a :class:`~repro.opencl.simt._Block` instance, whose
memory, merge and counter helpers reproduce the scalar interpreter bit
for bit: same buffer contents, same :class:`Counters`.

Static refusals live in :func:`repro.opencl.simt.analyze_kernel`, not
here: every kernel it admits compiles, so the lowering below has no
refusal arms of its own (an assertion marks each place that relies on
it), and a kernel it refuses has no pipeline — the launch falls
straight to the scalar oracle, with the analysis' reason in the ledger.

Pipelines are cached on the parsed program (which the runtime shares
per source through an LRU), alongside the vectorizability analysis, so
the thousands of launches an exploration run performs compile each
kernel exactly once.
"""

from __future__ import annotations

import operator
import threading
import time
from typing import Callable, Optional

import numpy as np

from repro.obs import profile as _obs_profile

from repro.compiler import cast as c
from repro.opencl.cparser import ParsedProgram
from repro.opencl.interp import (
    ExecError,
    _VEC_MEMBERS,
    array_dtype,
    declared_kinds,
    scalar_kind,
    typed_zero,
    vector_literal_width,
)
from repro.opencl.simt import (
    RowPtr,
    VPtr,
    VectorUnsupported,
    _Block,
    _Frame,
    _LANE_DTYPE,
    _VMATH,
    _by_value,
    _contains,
    _convert,
    _is_uniform,
    _is_vload,
    _is_vstore,
    analyze_kernel,
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

_CMP_UFUNC = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

_ARITH_OP = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _vec_width(v) -> int:
    """Width the scalar interpreter's ``_width_of`` would report."""
    if isinstance(v, np.ndarray) and v.ndim == 2:
        return v.shape[1]
    return 1


def _is_floatish(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind == "f"
    return isinstance(v, (float, np.floating))


def _is_int_like(v) -> bool:
    """Mirror of the scalar ``_is_int`` (bools are *not* C integers)."""
    if isinstance(v, np.ndarray):
        return v.ndim == 1 and v.dtype.kind in "iu"
    return isinstance(v, (int, np.integer)) and not isinstance(
        v, (bool, np.bool_)
    )


class _Ctx:
    """Per-pipeline compilation state (helper memoization, and the
    declared kinds of the function being compiled — stores resolve
    their conversion here, at plan time)."""

    def __init__(self, parsed: ParsedProgram, fn: c.CFunctionDef):
        self.parsed = parsed
        self.kinds = declared_kinds(fn)
        self.helpers: dict = {}

    def bind(self, name: str, value_c: ExprFn, declaring: bool) -> StmtFn:
        """The store ``name = value_c(...)``, converted to the declared
        kind of ``name`` — resolved here, once, at plan time."""
        kind = self.kinds.get(name)
        if kind not in _LANE_DTYPE:
            return lambda b, m, n, frame: b._bind(
                name, value_c(b, m, n), m, n, declaring
            )

        def bind_typed(b, m, n, frame):
            v = value_c(b, m, n)
            if type(v) is not np.ndarray or v.dtype.kind != kind:
                v = _convert(kind, v)  # lanes of the kind: no call, no copy
            b._bind(name, v, m, n, declaring)

        return bind_typed


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def _compile_expr(e, ctx: _Ctx) -> ExprFn:
    t = type(e)
    if t is c.CInt:
        value = e.value
        return lambda b, m, n: value
    if t is c.CFloat:
        value = e.value
        return lambda b, m, n: value
    if t is c.CIdent:
        name = e.name

        def load_ident(b, m, n):
            try:
                return b.env[name]
            except KeyError:
                raise ExecError(f"undefined identifier {name!r}") from None

        return load_ident
    if t is c.CBinOp:
        return _compile_binop(e, ctx)
    if t is c.CUnOp:
        operand = _compile_expr(e.operand, ctx)
        if e.op == "-":
            return lambda b, m, n: -operand(b, m, n)
        assert e.op == "!", e  # the parser's only other unary operator
        return lambda b, m, n: ~b._as_bool(operand(b, m, n), m)
    if t is c.CTernary:
        return _compile_ternary(e, ctx)
    if t is c.CIndex:
        return _compile_index(e, ctx)
    if t is c.CMember:
        return _compile_member(e, ctx)
    if t is c.CCall:
        return _compile_call(e, ctx)
    if t is c.CCast:
        return _compile_cast(e, ctx)
    assert t is c.CVectorLiteral, e  # analyze_kernel admits no other node
    return _compile_vector_literal(e, ctx)


def _compile_binop(e: c.CBinOp, ctx: _Ctx) -> ExprFn:
    op = e.op
    lhs = _compile_expr(e.lhs, ctx)
    rhs = _compile_expr(e.rhs, ctx)

    if op == "&&" or op == "||":
        is_and = op == "&&"

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

    cmp = _CMP_UFUNC.get(op)
    if cmp is not None:

        def compare(b, m, n):
            l = lhs(b, m, n)
            r = rhs(b, m, n)
            b.counters.iops += n
            l, r = _align(l, r)
            return cmp(l, r)

        return compare

    value_of, count = _binop_parts(op, type(e.rhs) is c.CInt)

    def arith(b, m, n):
        l = lhs(b, m, n)
        r = rhs(b, m, n)
        count(b, l, r, n)
        return value_of(b, l, r, m)

    return arith


def _binop_parts(op: str, const_rhs: bool):
    """(value_of(b, l, r, m), count(b, l, r, n)) for one arithmetic
    operator, with the operator dispatch resolved at compile time."""
    simple = _ARITH_OP.get(op)
    if simple is not None:
        is_add_sub = op in ("+", "-")

        def value_of(b, l, r, m):
            if isinstance(l, (VPtr, RowPtr)):
                if not is_add_sub:
                    raise ExecError(f"unsupported pointer operation {op}")
                return l.plus(r) if op == "+" else l.plus(-r)
            l, r = _align(l, r)
            return simple(l, r)

        def count(b, l, r, n):
            if _is_floatish(l) or _is_floatish(r):
                b.counters.flops += max(_vec_width(l), _vec_width(r)) * n
            else:
                b.counters.iops += n

        return value_of, count

    assert op in ("/", "%"), op  # the parser's remaining binary operators
    is_div = op == "/"

    def value_of(b, l, r, m):
        if isinstance(l, (VPtr, RowPtr)):
            raise ExecError(f"unsupported pointer operation {op}")
        if _is_int_like(l) and _is_int_like(r):
            return b._int_div(l, r, m) if is_div else b._int_mod(l, r, m)
        l, r = _align(l, r)
        return l / r if is_div else np.fmod(l, r)  # C fmod, like math.fmod

    def count(b, l, r, n):
        counters = b.counters
        if _is_floatish(l) or _is_floatish(r):
            counters.flops += max(_vec_width(l), _vec_width(r)) * n
        elif (
            const_rhs
            and _is_int_like(r)
            and _is_uniform(r)
            and int(r) > 0
            and (int(r) & (int(r) - 1)) == 0
        ):
            counters.iops += n
        elif const_rhs:
            counters.idivmod_const += n
        else:
            counters.idivmod += n

    return value_of, count


def _compile_ternary(e: c.CTernary, ctx: _Ctx) -> ExprFn:
    cond = _compile_expr(e.cond, ctx)
    then = _compile_expr(e.then, ctx)
    other = _compile_expr(e.otherwise, ctx)

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
        return b._select(cv, tv, fv)

    return ternary


def _compile_index(e: c.CIndex, ctx: _Ctx) -> ExprFn:
    base = _compile_expr(e.base, ctx)
    index = _compile_expr(e.index, ctx)

    def gather(b, m, n):
        bv = base(b, m, n)
        iv = index(b, m, n)
        if isinstance(bv, (VPtr, RowPtr)):
            return b._gather(bv, iv, m, n)
        if isinstance(bv, np.ndarray) and bv.ndim == 2:
            if _is_uniform(iv):
                return bv[:, int(iv)]
            idx = np.where(m, iv, 0)
            return np.take_along_axis(bv, idx[:, None], 1)[:, 0]
        raise ExecError(f"cannot index {bv!r}")

    return gather


def _compile_member(e: c.CMember, ctx: _Ctx) -> ExprFn:
    base = _compile_expr(e.base, ctx)
    member = e.member
    vec_col = _VEC_MEMBERS.get(member)
    # Struct members may also start with "s" (e.g. ``p.scale``); only a
    # valid hex suffix is a vector swizzle, and the column only applies
    # when the runtime container actually is a vector.
    hex_col = None
    if member.startswith("s") and member[1:]:
        try:
            hex_col = int(member[1:], 16)
        except ValueError:
            hex_col = None

    def get_member(b, m, n):
        container = base(b, m, n)
        if isinstance(container, dict):
            return container[member]
        if isinstance(container, np.ndarray) and container.ndim == 2:
            if vec_col is not None:
                return container[:, vec_col]
            if hex_col is not None:
                return container[:, hex_col]
            if member == "lo":
                return container[:, : container.shape[1] // 2].copy()
            if member == "hi":
                return container[:, container.shape[1] // 2 :].copy()
        raise ExecError(f"cannot take member {member} of {container!r}")

    return get_member


def _compile_cast(e: c.CCast, ctx: _Ctx) -> ExprFn:
    operand = _compile_expr(e.operand, ctx)
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

def _compile_call(e: c.CCall, ctx: _Ctx) -> ExprFn:
    name = e.func

    if name.startswith("get_"):
        field = _GEOMETRY_FIELDS[name]
        if not e.args:
            return lambda b, m, n: getattr(b, field)[0]
        if type(e.args[0]) is c.CInt:
            dim = e.args[0].value
            return lambda b, m, n: getattr(b, field)[dim]
        dim_c = _compile_expr(e.args[0], ctx)

        def dynamic_dim(b, m, n):
            dim = dim_c(b, m, n)
            if not _is_uniform(dim):
                raise VectorUnsupported("lane-varying geometry dimension")
            return getattr(b, field)[int(dim)]

        return dynamic_dim

    if _is_vload(name):
        width = int(name[5:])
        offset = _compile_expr(e.args[0], ctx)
        pointer = _compile_expr(e.args[1], ctx)

        def vload(b, m, n):
            off = offset(b, m, n)
            ptr = pointer(b, m, n)
            assert isinstance(ptr, (VPtr, RowPtr))
            return b._vload(ptr, off, width, m, n)

        return vload

    if _is_vstore(name):
        width = int(name[6:])
        value = _compile_expr(e.args[0], ctx)
        offset = _compile_expr(e.args[1], ctx)
        pointer = _compile_expr(e.args[2], ctx)

        def vstore(b, m, n):
            v = value(b, m, n)
            off = offset(b, m, n)
            ptr = pointer(b, m, n)
            assert isinstance(ptr, (VPtr, RowPtr))
            b._vstore(ptr, off, width, v, m, n)
            return None

        return vstore

    builtin = _VMATH.get(name)
    if builtin is not None:
        cost, fn = builtin
        arg_cs = [_compile_expr(a, ctx) for a in e.args]
        if len(arg_cs) == 1:
            a0c = arg_cs[0]

            def call1(b, m, n):
                a0 = a0c(b, m, n)
                width = (
                    a0.shape[1]
                    if isinstance(a0, np.ndarray) and a0.ndim == 2
                    else 1
                )
                b.counters.flops += cost * width * n
                return fn(a0)

            return call1
        if len(arg_cs) == 2:
            a0c, a1c = arg_cs

            def call2(b, m, n):
                a0 = a0c(b, m, n)
                a1 = a1c(b, m, n)
                width = 1
                for a in (a0, a1):
                    if isinstance(a, np.ndarray) and a.ndim == 2:
                        width = a.shape[1]
                        break
                b.counters.flops += cost * width * n
                return fn(a0, a1)

            return call2

        def calln(b, m, n):
            args = [ac(b, m, n) for ac in arg_cs]
            width = 1
            for a in args:
                if isinstance(a, np.ndarray) and a.ndim == 2:
                    width = a.shape[1]
                    break
            b.counters.flops += cost * width * n
            return fn(*args)

        return calln

    return _compile_helper_call(e, ctx.parsed.functions[name], ctx)


def _compile_helper_call(e: c.CCall, fn: c.CFunctionDef, ctx: _Ctx) -> ExprFn:
    kinds = declared_kinds(fn)
    body = ctx.helpers.get(fn.name)
    if body is None:  # helpers never recurse (analyze_kernel)
        caller_kinds, ctx.kinds = ctx.kinds, kinds
        try:
            body = _compile_stmt(fn.body, ctx, has_returns=True)
        finally:
            ctx.kinds = caller_kinds
        ctx.helpers[fn.name] = body
    params = tuple((p.name, kinds[p.name]) for p in fn.params)
    arg_cs = [_compile_expr(a, ctx) for a in e.args]
    helper_name = fn.name
    ret_kind = scalar_kind(fn.return_type)

    def call_helper(b, m, n):
        env = {}
        for (pname, kind), ac in zip(params, arg_cs):
            a = ac(b, m, n)
            if type(a) is not np.ndarray or a.ndim != 1 or (
                kind is not None and a.dtype.kind != kind
            ):  # not lanes of the declared kind (those pass as they are)
                a = _by_value(kind, a)
            env[pname] = a
        b.counters.calls += n
        saved = b.env
        b.env = env
        frame = _Frame(b.L, ret_kind)
        try:
            body(b, m, n, frame)
        finally:
            b.env = saved
        if not frame.has_value:
            return None
        if bool((m & ~frame.ret_mask).any()):
            raise VectorUnsupported(
                f"helper {helper_name!r} returns a value on only some lanes"
            )
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
            return lambda b, m, n, frame: b._set_return(frame, m, None)
        value = _compile_expr(s.value, ctx)
        return lambda b, m, n, frame: b._set_return(frame, m, value(b, m, n))
    if t is c.CBarrier:
        # The static analysis guarantees the mask is all-or-nothing per
        # work-group here, so lock-step execution satisfies the barrier
        # and each active item counts one, as in the scalar path.
        def barrier(b, m, n, frame):
            b.counters.barriers += n
            b._segment += 1

        return barrier
    assert t is c.CComment, s  # analyze_kernel admits no other statement
    return None  # dropped from the statement list


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


def _compile_assign(s: c.CAssign, ctx: _Ctx) -> StmtFn:
    value_c = _compile_expr(s.value, ctx)

    if s.op != "=":
        op = s.op[0]
        current_c = _compile_expr(s.target, ctx)
        value_of, count = _binop_parts(op, False)
        plain_value_c = value_c

        def value_c(b, m, n):  # noqa: F811 - compound RHS
            v = plain_value_c(b, m, n)
            cur = current_c(b, m, n)
            v = value_of(b, cur, v, m)
            count(b, cur, v, n)
            return v

    target = s.target
    if isinstance(target, c.CIdent):
        return ctx.bind(target.name, value_c, False)

    if isinstance(target, c.CIndex):
        base_c = _compile_expr(target.base, ctx)
        index_c = _compile_expr(target.index, ctx)

        def assign_index(b, m, n, frame):
            v = value_c(b, m, n)
            base = base_c(b, m, n)
            index = index_c(b, m, n)
            if not isinstance(base, (VPtr, RowPtr)):
                raise ExecError(f"indexed store into non-pointer {base!r}")
            b._scatter(base, index, v, m, n)

        return assign_index

    assert isinstance(target, c.CMember), target  # lvalues: analyze_kernel
    base_c = _compile_expr(target.base, ctx)
    member = target.member
    vec_col = _VEC_MEMBERS.get(member)

    def assign_member(b, m, n, frame):
        v = value_c(b, m, n)
        container = base_c(b, m, n)
        if isinstance(container, dict):
            b._store_member(container, member, v, m, n)
        elif isinstance(container, np.ndarray) and container.ndim == 2:
            if vec_col is None:
                # Same KeyError the oracle's _VEC_MEMBERS lookup
                # raises for non-xyzw stores.
                raise KeyError(member)
            if n == b.L:
                container[:, vec_col] = v
            else:
                container[m, vec_col] = b._lanes(v)[m]
        else:
            raise ExecError(f"member store into {container!r}")

    return assign_member


def _compile_decl(decl: c.CDecl, ctx: _Ctx) -> StmtFn:
    name = decl.name
    if decl.qualifier == "local" and decl.array_size is not None:

        def check_local(b, m, n, frame):
            if name not in b.env:
                raise ExecError(f"local buffer {name} was not pre-allocated")

        return check_local

    if decl.array_size is not None:
        size, dtype = decl.array_size, array_dtype(decl.type_name)
        return lambda b, m, n, frame: b._alloc_private(name, size, dtype)

    if decl.init is not None:
        return ctx.bind(name, _compile_expr(decl.init, ctx), True)
    type_name, structs = decl.type_name, ctx.parsed.structs
    return lambda b, m, n, frame: b._bind(
        name, typed_zero(type_name, structs, b.L), m, n, True
    )


def _compile_for(s: c.CFor, ctx: _Ctx, has_returns: bool) -> StmtFn:
    init_c = _compile_stmt(s.init, ctx, has_returns) if s.init is not None else None
    cond_c = _compile_expr(s.cond, ctx) if s.cond is not None else None
    step_c = _compile_stmt(s.step, ctx, has_returns) if s.step is not None else None
    body_c = _compile_stmt(s.body, ctx, has_returns)

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
# pipeline assembly
# ---------------------------------------------------------------------------

class Pipeline:
    """A kernel compiled to barrier-delimited closure segments."""

    __slots__ = ("kernel_name", "segments", "has_returns")

    def __init__(self, kernel_name: str, segments: list, has_returns: bool):
        self.kernel_name = kernel_name
        #: One compiled closure per barrier-delimited top-level region
        #: (barriers inside group-uniform loops stay within their
        #: segment's loop closure).
        self.segments = segments
        self.has_returns = has_returns

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
                run_segment_profiled(
                    prof, index, "compiled", segment, block, m, n, frame
                )


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
    One pipeline segment per region; the fused backend pairs its own
    segments with them through the same split."""
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
    parsed: ParsedProgram, kernel: c.CFunctionDef
) -> Pipeline:
    """Lower a kernel :func:`~repro.opencl.simt.analyze_kernel` admits
    into a compiled closure pipeline."""
    ctx = _Ctx(parsed, kernel)
    has_returns = _contains(kernel.body, c.CReturn)
    segments = [
        _compile_stmt(region, ctx, has_returns)
        for region in split_at_barriers(kernel)
    ]
    return Pipeline(kernel.name, segments, has_returns)


# ---------------------------------------------------------------------------
# pipeline cache
# ---------------------------------------------------------------------------

_compile_lock = threading.Lock()
_compile_counter = 0


def compile_count() -> int:
    """Pipelines compiled so far in this process.

    The autotune/explore loops launch each candidate kernel many times;
    this counter is how their stats demonstrate that every distinct
    kernel is closure-compiled exactly once (reuse flows through the
    source-keyed parse LRU the pipelines attach to).
    """
    return _compile_counter


def get_pipeline(
    parsed: ParsedProgram, kernel: c.CFunctionDef
) -> Optional[Pipeline]:
    """The compiled pipeline for a kernel, or ``None`` when
    :func:`~repro.opencl.simt.analyze_kernel` refuses it (its reason is
    the decline reason; every kernel it admits compiles).

    Cached on the parsed program object; the runtime shares parse
    results per source through an LRU, so each distinct kernel compiles
    once per process (under a lock — the explorer launches from a
    thread pool).
    """
    cache = getattr(parsed, "_simt_pipelines", None)
    if cache is not None:
        entry = cache.get(kernel.name, _MISSING)
        if entry is not _MISSING:
            return entry
    with _compile_lock:
        cache = getattr(parsed, "_simt_pipelines", None)
        if cache is None:
            cache = {}
            parsed._simt_pipelines = cache
        entry = cache.get(kernel.name, _MISSING)
        if entry is not _MISSING:
            return entry
        pipeline: Optional[Pipeline] = None
        if analyze_kernel(parsed, kernel) is None:
            from repro.obs import span

            with span("simt_compile", kernel=kernel.name):
                pipeline = compile_kernel_pipeline(parsed, kernel)
            global _compile_counter
            _compile_counter += 1
        cache[kernel.name] = pipeline
        return pipeline


_MISSING = object()

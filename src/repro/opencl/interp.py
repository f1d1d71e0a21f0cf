"""NDRange interpreter for the OpenCL-C subset.

Work-items of a work-group execute in lock-step between barriers: each
work-item is a Python generator that yields at every ``barrier`` call;
the scheduler advances all items of a group to the next barrier (or to
completion) and checks that they synchronized uniformly, which is exactly
the OpenCL contract.  Statements that provably contain no barrier run on
a fast non-generator path.

The interpreter maintains hardware-style performance counters
(:class:`Counters`); the cost model in :mod:`repro.opencl.cost` converts
them into estimated cycles per device profile.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

import numpy as np

from repro.compiler import cast as c
from repro.opencl.cparser import ParsedProgram, StructDef


class ExecError(Exception):
    pass


class BarrierDivergence(ExecError):
    """Work-items of one group hit different numbers of barriers."""


class OutOfBounds(ExecError):
    """A load or store of an element outside its buffer (global, local
    or private), on every engine: ``index`` is the element's position in
    the buffer (a vector access's first), ``buffer`` the pointer as the
    kernel spells it."""

    def __init__(self, buffer: str, index: int, size: int):
        super().__init__(
            f"index {index} is out of bounds of {buffer!r} ({size} elements)"
        )
        self.buffer = buffer
        self.index = index
        self.size = size


class _Return(Exception):
    def __init__(self, value: Any):
        self.value = value


@dataclass
class Counters:
    """Dynamic execution counts summed over all work-items."""

    flops: int = 0
    iops: int = 0
    idivmod: int = 0
    idivmod_const: int = 0
    cached_loads: int = 0
    global_loads: int = 0
    global_stores: int = 0
    local_loads: int = 0
    local_stores: int = 0
    private_loads: int = 0
    private_stores: int = 0
    barriers: int = 0
    calls: int = 0
    branches: int = 0
    loop_iterations: int = 0
    work_items: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view for the metrics registry (repro.obs)."""
        return dict(self.__dict__)

    def merged_with(self, other: "Counters") -> "Counters":
        merged = Counters()
        merged.merge_in(self)
        merged.merge_in(other)
        return merged

    def merge_in(self, other: "Counters") -> None:
        """Accumulate ``other`` into this instance (all engines stage
        their counts and merge on success; keep this the single place
        that knows how)."""
        acc = self.__dict__
        for name, value in other.__dict__.items():
            acc[name] = acc[name] + value


class Pointer:
    """A typed pointer into a buffer (global/local/private)."""

    __slots__ = ("array", "offset", "space")

    def __init__(self, array: np.ndarray, offset: int, space: str):
        self.array = array
        self.offset = offset
        self.space = space

    def plus(self, delta: int) -> "Pointer":
        return Pointer(self.array, self.offset + int(delta), self.space)

    def address(self, index: int, width: int = 1, name="pointer") -> int:
        """The position of element ``index`` (of ``width`` from there)
        in the buffer; :class:`OutOfBounds` outside it.  ``name`` is the
        pointer's expression, printed only for the error."""
        addr = self.offset + int(index)
        size = self.array.shape[0]
        if addr < 0 or addr + width > size:
            if not isinstance(name, str):
                name = c.print_expr(name)
            raise OutOfBounds(name, addr, size)
        return addr

    def load(self, index: int) -> Any:
        return self.array[self.address(index)]

    def store(self, index: int, value: Any) -> None:
        self.array[self.address(index)] = value


_VEC_MEMBERS = {"x": 0, "y": 1, "z": 2, "w": 3}


def vector_column(member: str) -> Optional[int]:
    """The component ``x``/``y``/``z``/``w`` or ``sN`` (hex ``N``) names;
    ``None`` for anything else (a struct member may start with ``s``)."""
    col = _VEC_MEMBERS.get(member)
    if col is None and member.startswith("s") and member[1:]:
        try:
            col = int(member[1:], 16)
        except ValueError:
            pass
    return col


def _c_int_div(a: int, b: int) -> int:
    """C semantics: truncation toward zero."""
    if b == 0:
        raise ExecError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_int_mod(a: int, b: int) -> int:
    if b == 0:
        raise ExecError("integer modulo by zero")
    return a - _c_int_div(a, b) * b


# -- static typing: the declared C type wins (ENGINES.md, "Typing") ---------

#: Declared scalar type name -> ``"f"`` / ``"i"`` (``None``: anything else).
scalar_kind = {
    "float": "f", "double": "f",
    **dict.fromkeys(("int", "uint", "long", "bool", "char", "size_t"), "i"),
}.get


def array_dtype(type_name: str):
    """Element dtype of a buffer declared with this element type."""
    return np.int64 if scalar_kind(type_name) == "i" else np.float64


def typed_zero(type_name: str, structs: dict, lanes: Optional[int] = None):
    """What an uninitialised ``T x;`` holds: ``0.0`` or ``0`` by the
    declared kind, a vector of zeros (``(lanes, width)`` in the lane
    tiers), or a struct of typed member zeros."""
    struct = structs.get(type_name)
    if struct is not None:
        return {m: typed_zero(t, structs, lanes) for t, m in struct.members}
    base = type_name.rstrip("0123456789")
    width = type_name[len(base):]
    if width and scalar_kind(base):
        return np.zeros(int(width) if lanes is None else (lanes, int(width)))
    return 0.0 if scalar_kind(type_name) == "f" else 0


def vector_literal_width(e: c.CVectorLiteral) -> int:
    """Width of ``(floatN)(...)``, whose items are one value (a splat) or
    one per component; any other count is an error in every tier (the
    oracle raises it, the lane tiers refuse the kernel with its message)."""
    width = int("".join(ch for ch in e.type_name if ch.isdigit()))
    if len(e.items) not in (1, width):
        raise ExecError(
            f"vector literal {e.type_name} with {len(e.items)} items"
        )
    return width


def convert(kind: Optional[str], v: Any) -> Any:
    """C's implicit conversion of a scalar ``v`` stored into a location
    of declared ``kind``: int -> float is exact, float -> int truncates
    toward zero.  Non-scalars and untyped locations pass through."""
    if kind == "f" and isinstance(v, (int, np.integer, np.bool_)):
        return float(v)
    if kind == "i" and isinstance(v, (float, np.floating, bool, np.bool_)):
        return int(v)
    return v


def kind_of(v: Any) -> Optional[str]:
    """Kind of a scalar value (a struct member's old value names its type)."""
    if isinstance(v, (float, np.floating)):
        return "f"
    return "i" if isinstance(v, (int, np.integer, np.bool_)) else None


def children(e) -> tuple:
    """The sub-expressions of expression ``e``, in evaluation order."""
    t = type(e)
    if t is c.CBinOp:
        return e.lhs, e.rhs
    if t is c.CUnOp or t is c.CCast:
        return (e.operand,)
    if t is c.CTernary:
        return e.cond, e.then, e.otherwise
    if t is c.CIndex:
        return e.base, e.index
    if t is c.CMember:
        return (e.base,)
    if t is c.CCall:
        return tuple(e.args)
    if t is c.CVectorLiteral:
        return tuple(e.items)
    return ()


def statement_parts(s) -> tuple:
    """``(expressions, statements)`` directly inside statement ``s``."""
    t = type(s)
    if t is c.CBlock:
        return (), s.stmts
    if t is c.CFor:
        parts = (s.init, s.step, s.body)
        return (s.cond,) if s.cond is not None else (), [p for p in parts if p]
    if t is c.CIf:
        return (s.cond,), [p for p in (s.then, s.otherwise) if p is not None]
    if t is c.CAssign:
        return (s.target, s.value), ()
    value = {c.CDecl: "init", c.CExprStmt: "expr", c.CReturn: "value"}.get(t)
    part = getattr(s, value) if value else None
    return (part,) if part is not None else (), ()


def iter_decls(stmt) -> list:
    """Every ``CDecl`` under ``stmt``, in source order."""
    if type(stmt) is c.CDecl:
        return [stmt]
    return [d for sub in statement_parts(stmt)[1] for d in iter_decls(sub)]


def declared_kinds(fn: c.CFunctionDef) -> dict:
    """The name table of one function: ``name -> "f" | "i" | None``
    (pointer, array, vector, struct) for its parameters and
    declarations.  Every tier converts stores through it, and the
    static types (:class:`StaticTypes`) follow the same conversions.  The
    environment is flat per function, so a name declared with two kinds
    is ``"mixed"``: untyped in the oracle, a static refusal in the lane
    tiers.  Cached on the function node."""
    kinds = fn.__dict__.get("_declared_kinds")
    if kinds is None:
        kinds = {}
        for p in fn.params:
            kinds[p.name] = None if p.is_pointer else scalar_kind(p.type_name)
        for d in iter_decls(fn.body):
            indirect = d.is_pointer or d.array_size is not None
            kind = None if indirect else scalar_kind(d.type_name)
            if kinds.setdefault(d.name, kind) != kind:
                kinds[d.name] = "mixed"
        fn._declared_kinds = kinds
    return kinds


# -- static expression types (ENGINES.md, "Typing") -------------------------

class CType(NamedTuple):
    """The static type of an expression, as the lane tiers hold it.

    ``kind`` is ``"f"`` / ``"i"`` / ``"b"`` (a comparison's result) for
    an arithmetic value of ``width`` components (1: a scalar or a lane
    array, N: an N-vector), ``"ptr"`` (``elem``: the pointee's kind,
    ``None`` for elements of no arithmetic kind), ``"struct"``
    (``elem``: its name) or ``"void"``.  A rule returns ``None`` for a
    node it cannot type, and the lane tiers refuse the kernel there.
    """

    kind: str
    width: int = 1
    elem: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "ptr":
            if self.elem is None:
                return "pointer to a non-arithmetic dtype"
            return f"{_C_NAMES[self.elem]} *"
        if self.kind == "struct":
            return self.elem
        name = _C_NAMES.get(self.kind, self.kind)
        return name if self.width == 1 else f"{name}{self.width}"


_C_NAMES = {"f": "float", "i": "int", "b": "bool"}
F, I, B, VOID = CType("f"), CType("i"), CType("b"), CType("void")
#: One instance per scalar type: the rules return these.
_SCALAR = {"f": F, "i": I, "b": B}
_ARITH_KINDS = frozenset("fib")
#: ``l op r`` per comparison operator (numpy's ufuncs on lane arrays).
COMPARE = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}


class Untyped(Exception):
    """A node or name the static types cannot type; the message is the
    reason the lane tiers refuse the kernel."""


def is_arith(t: Optional[CType]) -> bool:
    return t is not None and t.kind in _ARITH_KINDS


def is_vector(t: Optional[CType]) -> bool:
    return is_arith(t) and t.width > 1


def vector_type(kind: str, width: int) -> Optional[CType]:
    """An N-vector; a one-component vector is an ``(L, 1)`` array, which
    no scalar type describes, so it is left to the run."""
    return CType(kind, width) if width > 1 else None


def element_kind(array: np.ndarray) -> Optional[str]:
    """The kind of what loading from a global buffer yields: its dtype's
    (a launch binds ``int64`` data to a ``float *`` as it is); ``None``
    unless the buffer is flat and of a floating or signed integer dtype
    (numpy's unsigned and bool arithmetic is not C's)."""
    kind = array.dtype.kind
    return kind if array.ndim == 1 and kind in ("f", "i") else None


def declared_element_kind(type_name: str) -> str:
    """The element kind of a buffer allocated for this element type."""
    return "i" if scalar_kind(type_name) == "i" else "f"


def join(a: Optional[CType], b: Optional[CType]) -> Optional[CType]:
    """The type of a value that is sometimes ``a`` and sometimes ``b``:
    none unless they agree."""
    return a if a == b else None


def arith_operand(t: Optional[CType]) -> Optional[CType]:
    """``t`` as an operand of arithmetic: a comparison's scalar result
    is a C ``int`` (0 or 1).  A vector of comparisons stays ``b`` —
    OpenCL's true is -1 there — and no rule types arithmetic on it."""
    return I if t == B else t


def stored_type(kind: Optional[str], t: Optional[CType]) -> Optional[CType]:
    """``t`` after :func:`convert` into a location of declared scalar
    ``kind``: a scalar takes the kind, anything else passes as it is."""
    if kind in ("f", "i") and is_arith(t) and t.width == 1:
        return _SCALAR[kind]
    return t


def _typed(kind: str, width: int) -> CType:
    return _SCALAR[kind] if width == 1 else CType(kind, width)


@functools.lru_cache(maxsize=None)
def binop_type(op: str, lt: Optional[CType], rt: Optional[CType]) -> Optional[CType]:
    """Result type of a binary operator, mirroring the engines' values:
    a comparison's scalar result is an ``int`` operand
    (:func:`arith_operand`); ``int / int`` and ``int % int`` are C
    integer division; ``/`` on integer vectors is a true division; a
    float operand makes a float of the wider width; ``%`` without one
    stays integer (``fmod`` of integers)."""
    if op in COMPARE:
        if is_arith(lt) and is_arith(rt):
            return _typed("b", max(lt.width, rt.width))
        return None
    lt, rt = arith_operand(lt), arith_operand(rt)
    if lt is not None and lt.kind == "ptr":
        return lt if op in ("+", "-") and is_arith(rt) and rt.kind != "b" else None
    if not (is_arith(lt) and is_arith(rt)) or "b" in (lt.kind, rt.kind):
        return None
    width = max(lt.width, rt.width)
    kinds = {lt.kind, rt.kind}
    if op in ("/", "%") and kinds == {"i"} and width == 1:
        return I
    if "f" in kinds or op == "/":
        return _typed("f", width)
    return _typed("i", width)


def binop_count(
    op: str, lt: Optional[CType], rt: Optional[CType], divisor: Optional[int]
) -> tuple:
    """``(Counters field, units per work-item)`` one arithmetic operator
    charges, as :meth:`WorkItem._count_binop` does: a float operand
    costs its width in ``flops``; otherwise ``/`` and ``%`` by a literal
    ``divisor`` are strength-reduced (a power of two is one ``iops``)
    and any other divisor is an ``idivmod``.  A pointer operand is
    neither integer nor floating."""
    if lt.kind == "f" or rt.kind == "f":
        return "flops", max(
            lt.width if is_arith(lt) else 1, rt.width if is_arith(rt) else 1
        )
    if op in ("/", "%"):
        if divisor is None:
            return "idivmod", 1
        if divisor > 0 and divisor & (divisor - 1) == 0:
            return "iops", 1
        return "idivmod_const", 1
    return "iops", 1


#: Math builtins whose result is floating whatever the argument kind.
_FLOAT_BUILTINS = frozenset((
    "sqrt", "native_sqrt", "rsqrt", "native_rsqrt",
    "exp", "log", "sin", "cos", "tan",
))
#: Math builtins that keep their argument's type (numpy's ``abs`` and
#: ``floor`` of an integer are integers).
_KIND_KEEPING_BUILTINS = frozenset(("fabs", "floor", "ceil"))


def builtin_type(name: str, args: list) -> Optional[CType]:
    """Result type of a math builtin over lane values of types ``args``;
    the rest (``min``/``max``/``pow``/``mad``/``clamp`` …) promote like
    arithmetic, ``dot`` of vectors is one component."""
    args = [arith_operand(a) for a in args]
    if not args or not all(is_arith(a) and a.kind != "b" for a in args):
        return None
    width = max(a.width for a in args)
    if name in _FLOAT_BUILTINS:
        return _typed("f", width)
    if name in _KIND_KEEPING_BUILTINS:
        return args[0]
    if name == "length":
        return F
    if name == "dot":
        if args[0].width == 1:
            return binop_type("*", args[0], args[-1])
        width = 1
    return _typed("f" if any(a.kind == "f" for a in args) else "i", width)


def unop_type(op: str, t: Optional[CType]) -> Optional[CType]:
    """``!t`` is a bool; ``-t`` keeps the type of ``t`` as an operand."""
    if op == "!":
        return B
    t = arith_operand(t)
    return t if is_arith(t) and t.kind != "b" else None


_CASTS = {"int": "i", "uint": "i", "long": "i", "float": "f", "double": "f"}


def cast_type(type_name: str, t: Optional[CType]) -> Optional[CType]:
    """``(int)`` / ``(float)`` convert every component; other casts are
    the operand as it is (as in the engines)."""
    kind = _CASTS.get(type_name)
    if kind is None:
        return t
    return _typed(kind, t.width) if is_arith(t) else None


def index_type(base: Optional[CType], index: Optional[CType]) -> Optional[CType]:
    """``base[index]`` for an integer ``index``: a pointee, or one
    component of a vector."""
    if arith_operand(index) != I:
        return None
    if base is not None and base.kind == "ptr":
        return _SCALAR.get(base.elem)
    return _SCALAR[base.kind] if is_vector(base) else None


_UNSET = object()


class StaticTypes:
    """The static types of one kernel and the helpers it calls.

    The type of every expression node (``exprs``, by ``id``) and the
    name table the typing rules above read and write: every name of
    every function (``names``: after conversion to its declared kind,
    :func:`stored_type`), every helper's returned value and every
    struct member.  Every value stored into a table entry must have the
    type of the first: a helper's parameters take their arguments' at
    every call site, and its returns agree.

    The closure compiler fills it in its one bottom-up walk over the
    kernel (:func:`repro.opencl.simt_compile.compile_kernel_pipeline`),
    in execution order, typing each node from its children's types.  An
    entry that would widen once set (a store that contradicts the
    declaration, a second call site with other argument types, a helper
    that returns both nothing and a value) raises :class:`Untyped`, as
    does a node no rule types: the lane tiers then refuse the kernel —
    well-typed C never needs either.
    """

    __slots__ = ("structs", "exprs", "affine", "names", "returns", "members")

    def __init__(self, structs: dict):
        self.structs = structs
        self.exprs: dict = {}
        #: ``id(node) -> fact`` for the ``int`` nodes whose affine part
        #: was asked for (``None``: they have none); see
        #: :func:`repro.opencl.simt_compile.affine_fact`.
        self.affine: dict = {}
        self.names: dict = {}    # function name -> {name: type}
        self.returns: dict = {}  # function name -> type
        self.members: dict = {}  # (struct name, member) -> type

    def update(self, table: dict, key, t: Optional[CType], label: str) -> None:
        """Store ``t`` into the entry ``label`` names."""
        old = table.get(key, _UNSET)
        if t is None:
            raise Untyped(f"{label} has no static type")
        if old is _UNSET:
            table[key] = t
        elif t != old:
            raise Untyped(f"{label} is both {old} and {t}")

    def zero(self, type_name: str) -> Optional[CType]:
        """The type of :func:`typed_zero` of ``type_name``."""
        if type_name in self.structs:
            return CType("struct", elem=type_name)
        base = type_name.rstrip("0123456789")
        width = type_name[len(base):]
        if width and scalar_kind(base):
            return vector_type("f", int(width))
        return F if scalar_kind(type_name) == "f" else I

    def member(self, struct: str, member: str) -> Optional[CType]:
        key = (struct, member)
        t = self.members.get(key, _UNSET)
        if t is _UNSET:
            t = F  # a missing member reads as the 0.0 it defaults to
            definition = self.structs.get(struct)
            for type_name, name in (definition.members if definition else ()):
                if name == member:
                    t = self.zero(type_name)
            self.members[key] = t
        return t

    def member_of(self, base: Optional[CType], member: str) -> Optional[CType]:
        """``base.member``: a struct member, a vector component or half."""
        if base is None:
            return None
        if base.kind == "struct":
            return self.member(base.elem, member)
        if not is_vector(base):
            return None
        if vector_column(member) is not None:
            return _SCALAR[base.kind]
        if member in ("lo", "hi"):
            return vector_type(base.kind, base.width // 2)
        return None

    def store_member(self, struct: str, member: str, t: Optional[CType]) -> Optional[str]:
        """A member store converts to the kind the member holds, which
        this returns (``None``: not a scalar)."""
        held = self.member(struct, member)
        kind = held.kind if held is not None and held.width == 1 else None
        self.update(
            self.members, (struct, member), stored_type(kind, t),
            f"member {member!r} of {struct!r}",
        )
        return kind


class LaunchContext:
    """Per-launch state: counters, geometry, struct definitions."""

    def __init__(
        self,
        program: ParsedProgram,
        global_size: tuple,
        local_size: tuple,
        counters: Counters,
    ):
        self.program = program
        self.global_size = global_size
        self.local_size = local_size
        self.num_groups = tuple(g // l for g, l in zip(global_size, local_size))
        self.counters = counters
        self._barrier_cache: dict[int, bool] = {}

    # -- static barrier analysis -----------------------------------------
    def contains_barrier(self, stmt: c.CStmt) -> bool:
        key = id(stmt)
        cached = self._barrier_cache.get(key)
        if cached is not None:
            return cached
        result = self._scan_barrier(stmt)
        self._barrier_cache[key] = result
        return result

    def _scan_barrier(self, stmt: c.CStmt) -> bool:
        if isinstance(stmt, c.CBarrier):
            return True
        return any(self._scan_barrier(s) for s in statement_parts(stmt)[1])


class WorkItem:
    """One OpenCL work-item executing a kernel body."""

    def __init__(self, ctx: LaunchContext, env: dict, gid: tuple, lid: tuple,
                 group: tuple, kinds: Optional[dict] = None):
        self.ctx = ctx
        self.env = env
        self.kinds = kinds or {}  # declared_kinds of the running function
        self.gid = gid
        self.lid = lid
        self.group = group
        # Addresses this work-item has already read or written.  A repeat
        # access hits the register file / L1 on real hardware (compilers
        # promote loop-invariant loads to registers); the cost model
        # charges it as a cached load instead of memory traffic.
        self._touched: set = set()

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def run_gen(self, stmt: c.CStmt):
        """Generator path for statements that may contain barriers."""
        if not self.ctx.contains_barrier(stmt):
            self.run_fast(stmt)
            return
        if isinstance(stmt, c.CBlock):
            for s in stmt.stmts:
                yield from self.run_gen(s)
            return
        if isinstance(stmt, c.CBarrier):
            self.ctx.counters.barriers += 1
            yield "barrier"
            return
        if isinstance(stmt, c.CFor):
            if stmt.init is not None:
                self.run_fast(stmt.init)
            while stmt.cond is None or self._truthy(self.eval(stmt.cond)):
                self.ctx.counters.loop_iterations += 1
                yield from self.run_gen(stmt.body)
                if stmt.step is not None:
                    self.run_fast(stmt.step)
            return
        if isinstance(stmt, c.CIf):
            self.ctx.counters.branches += 1
            if self._truthy(self.eval(stmt.cond)):
                yield from self.run_gen(stmt.then)
            elif stmt.otherwise is not None:
                yield from self.run_gen(stmt.otherwise)
            return
        self.run_fast(stmt)

    def run_fast(self, stmt: c.CStmt) -> None:
        """Non-generator path for barrier-free statements."""
        if isinstance(stmt, c.CBlock):
            for s in stmt.stmts:
                self.run_fast(s)
        elif isinstance(stmt, c.CAssign):
            self._assign(stmt)
        elif isinstance(stmt, c.CDecl):
            self._declare(stmt)
        elif isinstance(stmt, c.CFor):
            if stmt.init is not None:
                self.run_fast(stmt.init)
            while stmt.cond is None or self._truthy(self.eval(stmt.cond)):
                self.ctx.counters.loop_iterations += 1
                self.run_fast(stmt.body)
                if stmt.step is not None:
                    self.run_fast(stmt.step)
        elif isinstance(stmt, c.CIf):
            self.ctx.counters.branches += 1
            if self._truthy(self.eval(stmt.cond)):
                self.run_fast(stmt.then)
            elif stmt.otherwise is not None:
                self.run_fast(stmt.otherwise)
        elif isinstance(stmt, c.CExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, c.CReturn):
            value = self.eval(stmt.value) if stmt.value is not None else None
            raise _Return(value)
        elif isinstance(stmt, c.CComment):
            pass
        elif isinstance(stmt, c.CBarrier):
            raise ExecError("barrier reached on the barrier-free path")
        else:
            raise ExecError(f"cannot execute {stmt!r}")

    def _declare(self, decl: c.CDecl) -> None:
        name = decl.name
        if decl.qualifier == "local" and decl.array_size is not None:
            # Bound to the group-shared buffer allocated by the scheduler.
            if name not in self.env:
                raise ExecError(f"local buffer {name} was not pre-allocated")
            return
        if decl.array_size is not None:
            self.env[name] = Pointer(
                np.zeros(decl.array_size, dtype=array_dtype(decl.type_name)),
                0, "private",
            )
        elif decl.init is not None:
            self.env[name] = convert(self.kinds.get(name), self.eval(decl.init))
        else:
            self.env[name] = typed_zero(decl.type_name, self.ctx.program.structs)

    def _assign(self, stmt: c.CAssign) -> None:
        value = self.eval(stmt.value)
        if stmt.op != "=":
            current = self.eval(stmt.target)
            op = stmt.op[0]
            value = self._binop_value(op, current, value)
            self._count_binop(op, current, value)
        target = stmt.target
        if isinstance(target, c.CIdent):
            self.env[target.name] = convert(self.kinds.get(target.name), value)
        elif isinstance(target, c.CIndex):
            base = self.eval(target.base)
            index = self.eval(target.index)
            if not isinstance(base, Pointer):
                raise ExecError(f"indexed store into non-pointer {target.base!r}")
            base.array[base.address(index, 1, target.base)] = value
            self._count_store(base.space, 1)
        elif isinstance(target, c.CMember):
            container = self.eval(target.base)
            if isinstance(container, dict):
                old = container.get(target.member, 0.0)
                container[target.member] = convert(kind_of(old), value)
            elif isinstance(container, np.ndarray):
                container[_VEC_MEMBERS[target.member]] = value
            else:
                raise ExecError(f"member store into {container!r}")
        else:
            raise ExecError(f"cannot assign to {target!r}")

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def eval(self, e: c.CExpr) -> Any:
        if isinstance(e, c.CInt):
            return e.value
        if isinstance(e, c.CFloat):
            return e.value
        if isinstance(e, c.CIdent):
            try:
                return self.env[e.name]
            except KeyError:
                raise ExecError(f"undefined identifier {e.name!r}") from None
        if isinstance(e, c.CBinOp):
            # Comparisons and logical operators give C's int 0 or 1.
            if e.op == "&&":
                return int(self._truthy(self.eval(e.lhs)) and self._truthy(self.eval(e.rhs)))
            if e.op == "||":
                return int(self._truthy(self.eval(e.lhs)) or self._truthy(self.eval(e.rhs)))
            lhs = self.eval(e.lhs)
            rhs = self.eval(e.rhs)
            self._count_binop(e.op, lhs, rhs, const_rhs=isinstance(e.rhs, c.CInt))
            return self._binop_value(e.op, lhs, rhs)
        if isinstance(e, c.CUnOp):
            v = self.eval(e.operand)
            if e.op == "-":
                return -v
            if e.op == "!":
                return int(not self._truthy(v))
            raise ExecError(f"unknown unary operator {e.op}")
        if isinstance(e, c.CTernary):
            self.ctx.counters.branches += 1
            if self._truthy(self.eval(e.cond)):
                return self.eval(e.then)
            return self.eval(e.otherwise)
        if isinstance(e, c.CIndex):
            base = self.eval(e.base)
            index = self.eval(e.index)
            if isinstance(base, Pointer):
                addr = base.address(index, 1, e.base)
                self._count_load(base.space, 1, (id(base.array), addr))
                return base.array[addr]
            if isinstance(base, np.ndarray):
                return base[int(index)]
            raise ExecError(f"cannot index {base!r}")
        if isinstance(e, c.CMember):
            container = self.eval(e.base)
            if isinstance(container, dict):
                return container[e.member]
            if isinstance(container, np.ndarray):
                member = e.member
                if member in _VEC_MEMBERS:
                    return container[_VEC_MEMBERS[member]]
                if member.startswith("s"):
                    return container[int(member[1:], 16)]
                if member == "lo":
                    return container[: len(container) // 2].copy()
                if member == "hi":
                    return container[len(container) // 2 :].copy()
            raise ExecError(f"cannot take member {e.member} of {container!r}")
        if isinstance(e, c.CCall):
            return self._call(e)
        if isinstance(e, c.CCast):
            v = self.eval(e.operand)
            if e.type_name in ("int", "uint", "long"):
                return int(v)
            if e.type_name in ("float", "double"):
                return float(v)
            return v
        if isinstance(e, c.CVectorLiteral):
            width = vector_literal_width(e)
            items = [self.eval(i) for i in e.items]
            if len(items) == 1:
                items = items * width
            return np.array(items, dtype=np.float64)
        raise ExecError(f"cannot evaluate {e!r}")

    # ------------------------------------------------------------------
    # calls and built-ins
    # ------------------------------------------------------------------
    def _call(self, e: c.CCall) -> Any:
        name = e.func
        if name.startswith("get_"):
            dim = int(self.eval(e.args[0])) if e.args else 0
            return self._geometry(name, dim)
        if name.startswith("vload"):
            width = int(name[5:])
            offset = int(self.eval(e.args[0]))
            ptr = self.eval(e.args[1])
            assert isinstance(ptr, Pointer)
            start = ptr.address(offset * width, width, e.args[1])
            self._count_load(ptr.space, width, (id(ptr.array), start, width))
            return ptr.array[start : start + width].astype(np.float64)
        if name.startswith("vstore"):
            width = int(name[6:])
            value = self.eval(e.args[0])
            offset = int(self.eval(e.args[1]))
            ptr = self.eval(e.args[2])
            assert isinstance(ptr, Pointer)
            start = ptr.address(offset * width, width, e.args[2])
            ptr.array[start : start + width] = value
            self._count_store(ptr.space, width)
            return None

        args = [self.eval(a) for a in e.args]
        builtin = _MATH_BUILTINS.get(name)
        if builtin is not None:
            cost, fn = builtin
            self.ctx.counters.flops += cost * _width_of(args)
            return fn(*args)

        fn_def = self.ctx.program.functions.get(name)
        if fn_def is None:
            raise ExecError(f"call to unknown function {name!r}")
        self.ctx.counters.calls += 1
        return self._call_helper(fn_def, args)

    def _call_helper(self, fn: c.CFunctionDef, args: list) -> Any:
        saved = self.env, self.kinds
        kinds = self.kinds = declared_kinds(fn)
        # C passes structs and vectors by value, scalars converted to
        # the parameter's declared type.
        self.env = {
            p.name: dict(a) if isinstance(a, dict)
            else a.copy() if isinstance(a, np.ndarray)
            else convert(kinds[p.name], a)
            for p, a in zip(fn.params, args)
        }
        # Helpers share geometry builtins but not local variables.
        try:
            self.run_fast(fn.body)
            result = None
        except _Return as r:
            result = convert(scalar_kind(fn.return_type), r.value)
        finally:
            self.env, self.kinds = saved
        return result

    def _geometry(self, name: str, dim: int) -> int:
        ctx = self.ctx
        if name == "get_global_id":
            return self.gid[dim]
        if name == "get_local_id":
            return self.lid[dim]
        if name == "get_group_id":
            return self.group[dim]
        if name == "get_local_size":
            return ctx.local_size[dim]
        if name == "get_global_size":
            return ctx.global_size[dim]
        if name == "get_num_groups":
            return ctx.num_groups[dim]
        raise ExecError(f"unknown geometry builtin {name}")

    # ------------------------------------------------------------------
    # counting helpers
    # ------------------------------------------------------------------
    def _count_binop(
        self, op: str, lhs: Any, rhs: Any, const_rhs: bool = False
    ) -> None:
        counters = self.ctx.counters
        if op in ("==", "!=", "<", ">", "<=", ">="):
            counters.iops += 1
            return
        is_float = (
            isinstance(lhs, (float, np.floating, np.ndarray))
            or isinstance(rhs, (float, np.floating, np.ndarray))
        )
        if is_float:
            counters.flops += max(_width_of([lhs]), _width_of([rhs]))
        elif op in ("/", "%"):
            # Real driver compilers strength-reduce division by literal
            # constants: a power of two becomes a shift/mask (one ALU op),
            # any other literal a multiply-by-reciprocal sequence; only a
            # dynamic divisor pays the full multi-instruction cost.
            if const_rhs and _is_int(rhs) and int(rhs) > 0 and (int(rhs) & (int(rhs) - 1)) == 0:
                counters.iops += 1
            elif const_rhs:
                counters.idivmod_const += 1
            else:
                counters.idivmod += 1
        else:
            counters.iops += 1

    @staticmethod
    def _binop_value(op: str, lhs: Any, rhs: Any) -> Any:
        if isinstance(lhs, Pointer):
            if op == "+":
                return lhs.plus(int(rhs))
            if op == "-":
                return lhs.plus(-int(rhs))
            raise ExecError(f"unsupported pointer operation {op}")
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if _is_int(lhs) and _is_int(rhs):
                return _c_int_div(int(lhs), int(rhs))
            return lhs / rhs
        if op == "%":
            if _is_int(lhs) and _is_int(rhs):
                return _c_int_mod(int(lhs), int(rhs))
            return math.fmod(lhs, rhs)
        compare = COMPARE.get(op)
        if compare is None:
            raise ExecError(f"unknown operator {op}")
        r = compare(lhs, rhs)
        # A scalar comparison is a C int; one of vectors stays as numpy
        # gives it (OpenCL's vector true is -1, which no tier models).
        return r if isinstance(r, np.ndarray) else int(r)

    def _count_load(self, space: str, width: int, address=None) -> None:
        counters = self.ctx.counters
        if address is not None and space in ("global", "local"):
            if address in self._touched:
                counters.cached_loads += width
                return
            self._touched.add(address)
        if space == "global":
            counters.global_loads += width
        elif space == "local":
            counters.local_loads += width
        else:
            counters.private_loads += width

    def _count_store(self, space: str, width: int) -> None:
        counters = self.ctx.counters
        if space == "global":
            counters.global_stores += width
        elif space == "local":
            counters.local_stores += width
        else:
            counters.private_stores += width

    @staticmethod
    def _truthy(v: Any) -> bool:
        if isinstance(v, np.ndarray):
            raise ExecError("vector used in a scalar condition")
        return bool(v)


def _item_driver(item: WorkItem, body: c.CBlock):
    try:
        yield from item.run_gen(body)
    except _Return:
        pass


def _run_group(
    ctx: LaunchContext,
    kernel: c.CFunctionDef,
    group_env: dict,
    group: tuple,
    lsize: tuple,
) -> None:
    generators = []
    kinds = declared_kinds(kernel)
    for lz in range(lsize[2]):
        for ly in range(lsize[1]):
            for lx in range(lsize[0]):
                lid = (lx, ly, lz)
                gid = tuple(
                    group[d] * lsize[d] + lid[d] for d in range(3)
                )
                item = WorkItem(ctx, dict(group_env), gid, lid, group, kinds)
                generators.append(_item_driver(item, kernel.body))

    alive = list(generators)
    while alive:
        statuses = []
        still_alive = []
        for gen in alive:
            try:
                status = next(gen)
                statuses.append(status)
                still_alive.append(gen)
            except StopIteration:
                statuses.append("done")
        if still_alive and any(s == "done" for s in statuses):
            raise BarrierDivergence(
                "some work-items finished while others wait at a barrier"
            )
        alive = still_alive


def run_groups(
    program: ParsedProgram,
    kernel: c.CFunctionDef,
    gsize: tuple,
    lsize: tuple,
    base_env: dict,
    local_decls: list,
    counters: Counters,
) -> None:
    """Run a launch on the reference interpreter: work-groups one after
    another, each with fresh ``local_decls`` arrays and its work-items
    in lock-step between barriers."""
    ctx = LaunchContext(program, gsize, lsize, counters)
    num_groups = ctx.num_groups
    items_per_group = lsize[0] * lsize[1] * lsize[2]
    for gz in range(num_groups[2]):
        for gy in range(num_groups[1]):
            for gx in range(num_groups[0]):
                group_env = dict(base_env)
                for decl in local_decls:
                    group_env[decl.name] = Pointer(
                        np.zeros(
                            decl.array_size, dtype=array_dtype(decl.type_name)
                        ),
                        0, "local",
                    )
                _run_group(ctx, kernel, group_env, (gx, gy, gz), lsize)
                counters.work_items += items_per_group


def _is_int(v: Any) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _width_of(args: list) -> int:
    for a in args:
        if isinstance(a, np.ndarray):
            return len(a)
    return 1


def _ordered_dot(a, b):
    """Component-wise dot with explicit left-to-right summation.

    Deliberately *not* ``np.dot``: BLAS is free to reorder the reduction,
    while this fixed order is reproduced exactly by the lane-batched SIMT
    engine (one elementwise multiply-add chain over lane arrays), keeping
    the two engines bitwise-identical.
    """
    if not isinstance(a, np.ndarray):
        return float(a * b)
    acc = a[0] * b[0]
    for i in range(1, len(a)):
        acc = acc + a[i] * b[i]
    return float(acc)


_MATH_BUILTINS = {
    # name: (flop cost, implementation)
    "sqrt": (4, np.sqrt),
    "native_sqrt": (2, np.sqrt),
    "rsqrt": (4, lambda x: 1.0 / np.sqrt(x)),
    "native_rsqrt": (2, lambda x: 1.0 / np.sqrt(x)),
    "fabs": (1, np.abs),
    "exp": (8, np.exp),
    "log": (8, np.log),
    "sin": (8, np.sin),
    "cos": (8, np.cos),
    "tan": (10, np.tan),
    "pow": (10, np.power),
    "floor": (1, np.floor),
    "ceil": (1, np.ceil),
    "fmin": (1, np.minimum),
    "fmax": (1, np.maximum),
    "min": (1, lambda a, b: min(a, b)),
    "max": (1, lambda a, b: max(a, b)),
    "mad": (1, lambda a, b, x: a * b + x),
    "fma": (1, lambda a, b, x: a * b + x),
    "clamp": (2, lambda x, lo, hi: min(max(x, lo), hi)),
    "dot": (7, _ordered_dot),
    "length": (11, lambda a: float(np.sqrt(_ordered_dot(a, a)))),
}

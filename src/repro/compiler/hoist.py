"""Compute it once: index terms and read-only loads kept in registers.

The hand-written kernels of the benchmark suite compute a value once and
keep it in a register; the simulator executes kernel text literally (no
vendor compiler runs behind it) and the code generator prints every
index and every load in full at each use.  :func:`hoist` is the one pass
between the two: a pure function from the :mod:`repro.compiler.cast`
body that ``KernelGenerator`` built to an equivalent body in which

**(a) loop-invariant index arithmetic leaves the loop.**  Integer index
expressions — the ``index`` of every ``CIndex``, the offset and
pointer-offset arguments of ``vloadN`` / ``vstoreN``, ``(int) buf[...]``
gathers — have their ``+`` chains flattened and split by the innermost
loop each term depends on; the part that does not depend on a loop
becomes an ``int`` temporary declared immediately before it.

**(b) loop-invariant loads from input buffers leave the loop.**  A load
from a ``const ... restrict`` kernel argument whose address is invariant
becomes a temporary of the buffer's type the same way (``float h1 =
px[g_id];``, ``float4`` for ``vload4``).

**(c) repeats are computed once.**  A candidate of (a) or (b) that occurs
more than once in the straight-line statements of one block (or in one
statement) is declared before its first occurrence and read thereafter.

Why each rule is sound
----------------------

*Same value.*  Every identifier carries the version it has at the point
of use: a declaration or assignment starts a new version, a loop starts
new versions of everything assigned anywhere inside it on entry and
again on exit, an ``if`` on exit.  Candidates are keyed structurally on
those versions (not on printed text), so two occurrences with one key
read the same values, and a candidate whose versions were all born
outside a loop is invariant in it.  Only integer arithmetic and loads
from buffers the kernel never writes (``const ... restrict`` promises
nobody else does either) are candidates, so the value cannot change
between the temporary and the original use either — which is also why
nothing moves across a barrier or a store in any way that could be
observed.  Floating-point expressions are never re-associated and never
shared: a float temporary only ever holds an unmodified loaded value
(the bitwise contract with the interpreter).

*Dominance.*  A temporary is declared in a block that encloses every use
of it, before the first statement that uses it (rule c) or before the
loop statement that contains the uses (rules a, b), and is never
assigned again: its declaration dominates all its uses.

*Certain execution.*  A temporary is only placed where the original was
certain to be evaluated whenever the placement point is reached, so no
dynamic ``Counters`` field can rise and no new out-of-bounds access or
division trap can appear.  Within a block that is the first
occurrence's own statement.  Out of a loop it holds for a sequential
``for (int i = 0; i < n; ...)`` whose ``n`` is a positive literal or a
size parameter (``Range.natural()`` is ``[1, inf)``): the body's direct
statements run at least once.  Nothing leaves an ``if`` body, a parallel
``get_*_id`` loop (a work-item beyond the trip count runs it zero
times), a loop with any other bound, or the unevaluated side of ``?:``,
``&&`` and ``||``.

A temporary is introduced only when it is hoisted or shared (no
single-use aliases); names are ``h1, h2, ...`` numbered per call, so the
text of a kernel does not depend on what was compiled before it.  An
expression in which nothing was replaced keeps its original node, so a
kernel with nothing to hoist or share prints exactly as before.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.compiler.cast import (
    CAssign,
    CBinOp,
    CBlock,
    CCall,
    CCast,
    CDecl,
    CExpr,
    CExprStmt,
    CFloat,
    CFor,
    CIdent,
    CIf,
    CIndex,
    CInt,
    CMember,
    CReturn,
    CTernary,
    CUnOp,
    CVectorLiteral,
)

_ATOM, _SUM, _BIN, _CAST, _LOAD, _VLOAD, _OPAQUE = range(7)


class _Val:
    """One interned candidate value: equal key, equal value."""

    __slots__ = ("kind", "n", "level", "kids", "expr", "ctype", "tag", "opaque")

    def __init__(self, kind, n, level, kids=(), expr=None, ctype="int", tag=None):
        self.kind = kind
        self.n = n  # serial number: orders the commutative key of a sum
        #: Depth of the innermost block an identifier version inside was
        #: born in; -1 for literals and kernel parameters.
        self.level = level
        self.kids = kids
        self.expr = expr  # atoms and opaque values print as this node
        self.ctype = ctype
        self.tag = tag  # operator, buffer name or vload function
        opaque = kind == _OPAQUE
        for k in kids:
            if k.level > level:
                self.level = level = k.level
            opaque = opaque or k.opaque
        self.opaque = opaque


class _Entry:
    """One statement of a block with what has to happen before it."""

    __slots__ = ("stmt", "hoisted", "roots")

    def __init__(self):
        self.stmt = None
        self.hoisted = []  # values nested loops asked to have declared here
        self.roots = []  # (container, key, value): candidates in the statement


class _Region:
    """One block: straight-line statements that run together."""

    __slots__ = (
        "depth", "floor", "chain", "entries", "current",
        "uses", "names", "lifted", "declared", "out",
    )

    def __init__(self, parent: Optional["_Region"], certain: bool):
        if parent is None:
            self.depth = self.floor = 0
            self.chain = [self]
        else:
            self.depth = parent.depth + 1
            #: The shallowest depth a value may be declared at: through
            #: loops whose body is certain to run, and no further.
            self.floor = parent.floor if certain else self.depth
            self.chain = parent.chain + [self]
        self.entries: list = []
        self.current: Optional[_Entry] = None
        self.uses: dict = {}
        self.names: dict = {}  # value -> name promised to a nested loop
        self.lifted: dict = {}  # value -> identifier declared further out
        self.declared: dict = {}
        self.out: list = []


class _Hoister:
    def __init__(self, params: Sequence):
        self.read_only = {
            p.name: p.scalar_type for p in params if p.kind == "in_buffer"
        }
        self.sizes = {p.name for p in params if p.kind == "size"}
        self.taken = {p.name for p in params}
        self.env: dict = {}  # name -> current version (a _Val) or its level
        self.vals: dict = {}  # structural key -> the one value with it
        self.serial = itertools.count()
        self.modified: dict = {}
        self.region: Optional[_Region] = None
        self.temps = 0
        self.replaced = 0  # how many times a temporary was substituted

    # ------------------------------------------------------------------
    # which names a statement assigns
    # ------------------------------------------------------------------
    def _scan(self, s, into: set) -> None:
        """Add the names ``s`` declares or assigns to ``into``; remember
        the set of every compound statement on the way."""
        t = type(s)
        if t is CDecl:
            self.taken.add(s.name)
            into.add(s.name)
        elif t is CAssign:
            name = _assigned(s)
            if name is not None:
                into.add(name)
        elif t is CFor or t is CIf or t is CBlock:
            if t is CFor:
                parts = (s.init, s.step, s.body)
            else:
                parts = s.stmts if t is CBlock else (s.then, s.otherwise)
            own = self.modified[id(s)] = set()
            for part in parts:
                if part is not None:
                    self._scan(part, own)
            into |= own

    def _restart(self, names, level: int) -> None:
        env = self.env
        for name in names:
            env[name] = level

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def _intern(self, key, kind, kids, ctype="int", tag=None) -> _Val:
        v = self.vals.get(key)
        if v is None:
            v = self.vals[key] = _Val(
                kind, next(self.serial), -1, kids, None, ctype, tag
            )
        return v

    def _int(self, e) -> _Val:
        """The value of an integer expression."""
        t = type(e)
        if t is CIdent:
            name = e.name
            v = self.env.get(name, -1)
            if type(v) is int:  # first read of this version
                v = self.env[name] = _Val(_ATOM, next(self.serial), v, (), e)
            return v
        if t is CInt:
            v = self.vals.get(e.value)
            if v is None:
                v = self.vals[e.value] = _Val(_ATOM, next(self.serial), -1, (), e)
            return v
        if t is CBinOp:
            op = e.op
            if op == "+":
                terms = []
                pending = [e.rhs, e.lhs]
                while pending:
                    x = pending.pop()
                    if type(x) is CBinOp and x.op == "+":
                        pending.append(x.rhs)
                        pending.append(x.lhs)
                    else:
                        terms.append(self._int(x))
                return self._sum(terms)
            if op in ("*", "/", "%", "-"):
                a, b = self._int(e.lhs), self._int(e.rhs)
                return self._intern((op, a.n, b.n), _BIN, (a, b), "int", op)
        elif t is CCast and e.type_name == "int" and type(e.operand) is CIndex:
            load = self._load(e.operand)
            if load is not None:
                return self._intern((_CAST, load.n), _CAST, (load,))
        new = self._expr(e)
        if type(new) is _Val:
            return new
        return _Val(_OPAQUE, next(self.serial), self.region.depth, (), new)

    def _sum(self, terms: list) -> _Val:
        """Terms grouped by level, outermost innermost-nested: what does
        not depend on a loop is one operand, and a value of its own."""
        level = terms[0].level
        for t in terms:
            if t.level != level:
                break
        else:
            return self._chain(terms)
        outer = None
        for level in sorted({t.level for t in terms}):
            group = [t for t in terms if t.level == level]
            here = group[0] if len(group) == 1 else self._chain(group)
            outer = here if outer is None else self._chain([here, outer])
        return outer

    def _chain(self, kids: list) -> _Val:
        return self._intern(
            (_SUM, *sorted([k.n for k in kids])), _SUM, tuple(kids)
        )

    def _load(self, e: CIndex) -> Optional[_Val]:
        base = e.base
        if type(base) is not CIdent:
            return None
        ctype = self.read_only.get(base.name)
        if ctype is None:
            return None
        index = self._int(e.index)
        return self._intern(
            (_LOAD, base.name, index.n), _LOAD, (index,), ctype, base.name
        )

    def _vload(self, e: CCall) -> Optional[_Val]:
        offset, pointer = e.args
        extra = None
        if type(pointer) is CBinOp and pointer.op == "+":
            pointer, extra = pointer.lhs, pointer.rhs
        if type(pointer) is not CIdent:
            return None
        scalar = self.read_only.get(pointer.name)
        if scalar is None:
            return None
        kids = (self._int(offset),)
        if extra is not None:
            kids += (self._int(extra),)
        return self._intern(
            (_VLOAD, e.func, pointer.name, *(k.n for k in kids)),
            _VLOAD, kids, scalar + e.func[5:], (e.func, pointer.name),
        )

    # ------------------------------------------------------------------
    # pass 1: find the candidates, rebuild the spine above them
    # ------------------------------------------------------------------
    def _root(self, container, key, value: _Val) -> None:
        self.region.current.roots.append((container, key, value))

    def _index(self, container, key, e) -> None:
        """``e`` (now at ``container[key]``) is an integer expression."""
        if type(e) is not CIdent and type(e) is not CInt:
            self._root(container, key, self._int(e))

    def _child(self, container, key, e) -> None:
        new = self._expr(e)
        if type(new) is _Val:
            self._root(container, key, new)
        elif new is not e:
            _set(container, key, new)

    def _expr(self, e):
        """``e`` with the spine above every candidate rebuilt, or the
        :class:`_Val` when ``e`` as a whole is a candidate."""
        t = type(e)
        if t is CIdent or t is CFloat or t is CInt:
            return e
        if t is CIndex:
            load = self._load(e)
            if load is not None:
                return load
            new = CIndex(e.base, e.index)
            if type(e.base) is not CIdent:
                self._child(new, "base", e.base)
            self._index(new, "index", e.index)
            return new
        if t is CCall:
            func = e.func
            args = list(e.args)
            if func.startswith("vload") and len(args) == 2:
                load = self._vload(e)
                if load is not None:
                    return load
                address = 0
            elif func.startswith("vstore") and len(args) == 3:
                self._child(args, 0, args[0])
                address = 1
            else:
                for i, a in enumerate(args):
                    self._child(args, i, a)
                return CCall(func, args)
            self._index(args, address, args[address])
            pointer = args[address + 1]
            if type(pointer) is CBinOp and pointer.op == "+":
                args[address + 1] = new = CBinOp("+", pointer.lhs, pointer.rhs)
                self._index(new, "rhs", pointer.rhs)
            return CCall(func, args)
        if t is CBinOp:
            new = CBinOp(e.op, e.lhs, e.rhs)
            self._child(new, "lhs", e.lhs)
            if e.op not in ("&&", "||"):
                self._child(new, "rhs", e.rhs)
            return new
        if t is CCast or t is CUnOp:
            new = t(e.type_name if t is CCast else e.op, e.operand)
            self._child(new, "operand", e.operand)
            return new
        if t is CMember:
            new = CMember(e.base, e.member)
            self._child(new, "base", e.base)
            return new
        if t is CVectorLiteral:
            items = list(e.items)
            for i, item in enumerate(items):
                self._child(items, i, item)
            return CVectorLiteral(e.type_name, items)
        if t is CTernary:
            new = CTernary(e.cond, e.then, e.otherwise)
            self._child(new, "cond", e.cond)
            return new
        return e

    def _stmt(self, s, region: _Region):
        t = type(s)
        depth = region.depth
        if t is CAssign:
            new = CAssign(s.target, s.value, s.op)
            self._child(new, "value", s.value)
            target = s.target
            if type(target) is CIndex:
                new.target = CIndex(target.base, target.index)
                self._index(new.target, "index", target.index)
            name = _assigned(s)
            if name is not None:
                self.env[name] = depth
            return new
        if t is CDecl:
            new = s
            if s.init is not None:
                new = CDecl(
                    s.type_name, s.name, s.qualifier, s.array_size, s.init,
                    s.is_pointer,
                )
                self._child(new, "init", s.init)
            self.env[s.name] = depth
            return new
        if t is CExprStmt or t is CReturn:
            field = "expr" if t is CExprStmt else "value"
            value = getattr(s, field)
            if value is None:
                return s
            new = t(value)
            self._child(new, field, value)
            return new
        if t is CFor:
            mods = self.modified[id(s)]
            self._restart(mods, depth + 1)
            body = self._block(s.body, _Region(region, self._certain(s)))
            self._restart(mods, depth)
            return s if body is s.body else CFor(s.init, s.cond, s.step, body)
        if t is CIf:
            new = CIf(s.cond, s.then, s.otherwise)
            self._child(new, "cond", s.cond)
            new.then = self._block(s.then, _Region(region, False))
            if s.otherwise is not None:
                self._restart(self.modified[id(s.then)], depth + 1)
                new.otherwise = self._block(s.otherwise, _Region(region, False))
            self._restart(self.modified[id(s)], depth)
            return new
        if t is CBlock:
            new = self._block(s, _Region(region, False))
            self._restart(self.modified[id(s)], depth)
            return new
        return s

    def _certain(self, s: CFor) -> bool:
        """``for (int i = 0; i < n; ...)`` with ``n`` provably >= 1."""
        init, cond = s.init, s.cond
        if (
            type(init) is not CDecl or init.type_name != "int"
            or type(init.init) is not CInt or init.init.value != 0
            or type(cond) is not CBinOp or cond.op != "<"
            or type(cond.lhs) is not CIdent or cond.lhs.name != init.name
        ):
            return False
        bound = cond.rhs
        if type(bound) is CInt:
            return bound.value >= 1
        return type(bound) is CIdent and bound.name in self.sizes

    # ------------------------------------------------------------------
    # a block: find, count, declare
    # ------------------------------------------------------------------
    def _block(self, block: CBlock, region: _Region) -> CBlock:
        before = self.replaced
        outer, self.region = self.region, region
        for s in block.stmts:
            entry = region.current = _Entry()
            region.entries.append(entry)
            entry.stmt = self._stmt(s, region)
        self.region = outer

        entries = region.entries
        opaque = False
        for entry in entries:
            for v in entry.hoisted:
                self._count(region, v)
            for _, _, v in entry.roots:
                self._count(region, v)
                opaque = opaque or v.opaque
        if not (opaque or region.lifted or region.names) and all(
            n == 1 for n in region.uses.values()
        ):
            # Nothing to declare here: every candidate stays where it is.
            return block if self.replaced == before else CBlock(
                [entry.stmt for entry in entries]
            )

        out = region.out
        for entry in entries:
            for v in entry.hoisted:
                self._emit(region, v)
            for container, key, v in entry.roots:
                mark = self.replaced
                new = self._emit(region, v)
                if self.replaced != mark or v.opaque:
                    _set(container, key, new)
            out.append(entry.stmt)
        return CBlock(out)

    def _count(self, region: _Region, v: _Val) -> None:
        if v.kind == _ATOM or v.kind == _OPAQUE:
            return
        target = v.level if v.level > region.floor else region.floor
        if target < region.depth:
            if v not in region.lifted:
                region.lifted[v] = CIdent(self._promise(region.chain[target], v))
            return
        seen = region.uses.get(v, 0)
        region.uses[v] = seen + 1
        if not seen:
            for k in v.kids:
                self._count(region, k)

    def _promise(self, region: _Region, v: _Val) -> str:
        """Have ``v`` declared in ``region`` before the statement it is
        in the middle of — the loop the request comes out of."""
        name = region.names.get(v)
        if name is None:
            name = region.names[v] = self._fresh()
            region.current.hoisted.append(v)
        return name

    def _fresh(self) -> str:
        while True:
            self.temps += 1
            name = f"h{self.temps}"
            if name not in self.taken:
                return name

    def _named(self, region: _Region, v: _Val) -> bool:
        """Hoisted or shared: read through a temporary (never an alias
        of a single use)."""
        return v in region.lifted or region.uses[v] > 1 or v in region.names

    def _emit(self, region: _Region, v: _Val) -> CExpr:
        if v.kind == _ATOM or v.kind == _OPAQUE:
            return v.expr
        if not self._named(region, v):
            return self._build(region, v)
        ident = region.lifted.get(v)
        if ident is None:
            ident = region.declared.get(v)
            if ident is None:
                init = self._build(region, v)
                name = region.names.get(v) or self._fresh()
                region.out.append(CDecl(v.ctype, name, init=init))
                ident = region.declared[v] = CIdent(name)
        self.replaced += 1
        return ident

    def _build(self, region: _Region, v: _Val) -> CExpr:
        kind, kids = v.kind, v.kids
        if kind == _SUM:
            terms: list = []
            self._terms(region, v, terms)
            result = terms[0]
            for term in terms[1:]:
                result = CBinOp("+", result, term)
            return result
        if kind == _BIN:
            return CBinOp(
                v.tag, self._emit(region, kids[0]), self._emit(region, kids[1])
            )
        if kind == _CAST:
            return CCast("int", self._emit(region, kids[0]))
        if kind == _LOAD:
            return CIndex(CIdent(v.tag), self._emit(region, kids[0]))
        func, buffer = v.tag
        pointer: CExpr = CIdent(buffer)
        if len(kids) == 2:
            pointer = CBinOp("+", pointer, self._emit(region, kids[1]))
        return CCall(func, [self._emit(region, kids[0]), pointer])

    def _terms(self, region: _Region, v: _Val, terms: list) -> None:
        for k in v.kids:
            if k.kind == _SUM and not self._named(region, k):
                self._terms(region, k, terms)
            else:
                terms.append(self._emit(region, k))


def _assigned(s: CAssign) -> Optional[str]:
    """The name an assignment gives a new value (a store through an index
    changes a buffer, not a name)."""
    target = s.target
    while type(target) is CMember:
        target = target.base
    return target.name if type(target) is CIdent else None


def _set(container, key, value) -> None:
    if type(key) is int:
        container[key] = value
    else:
        setattr(container, key, value)


def hoist(body: CBlock, params: Sequence) -> CBlock:
    """``body`` with invariant index terms and input loads declared once.

    ``params`` are the kernel's ``KernelParamInfo`` entries: ``in_buffer``
    ones are the read-only buffers, ``size`` ones the loop bounds known
    to be at least 1.  The input tree is not modified; statements in
    which nothing changed are shared with it.
    """
    h = _Hoister(params)
    h._scan(body, set())
    return h._block(body, _Region(None, False))

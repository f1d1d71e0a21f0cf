"""Arithmetic expression nodes.

These are the raw, immutable AST nodes.  Constructing them performs *no*
simplification; the smart constructors live in :mod:`repro.arith.simplify`
and are reached through the overloaded Python operators.  All nodes are
hashable so they can be used as dictionary keys during canonicalization.

Nodes are **hash-consed**: construction interns each node in a weak
table keyed by its structure (for variables, including the range — two
same-named variables with different ranges must stay distinct objects).
Structurally identical expressions built through the constructors are
therefore the *same* Python object, which makes repeated hashing,
equality and — crucially — the memo tables of
:mod:`repro.arith.simplify` identity-keyed O(1) instead of
tree-walking.  Intern keys reference child nodes by identity; that is
sound because an interned parent holds strong references to its
children, so a child's ``id`` cannot be recycled while any key
containing it is alive.  Unpickling (e.g. from the tuning cache)
reconstructs nodes through ``__getnewargs__``, so they re-intern on
load; pickles written before hash-consing fail to reconstruct and are
treated as cache misses by the stores that hold them.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Mapping

from repro.arith.ranges import Range

#: The intern table.  Weak values: nodes live exactly as long as
#: something outside the table references them.
_INTERN: "weakref.WeakValueDictionary[tuple, ArithExpr]" = (
    weakref.WeakValueDictionary()
)

def _intern(key: tuple, inst: "ArithExpr") -> "ArithExpr":
    _INTERN[key] = inst
    return inst


class ArithExpr:
    """Base class of all arithmetic expressions.

    Subclasses are value objects: equality and hashing are structural.
    The overloaded operators produce *simplified* results; use the node
    constructors directly (``Sum([a, b])``) to build raw expressions.
    """

    __slots__ = ("__weakref__", "_hash", "_sort_key")

    # -- operators (smart constructors) ---------------------------------
    def __add__(self, other: "ArithExpr | int") -> "ArithExpr":
        from repro.arith.simplify import add

        return add(self, to_expr(other))

    def __radd__(self, other: int) -> "ArithExpr":
        from repro.arith.simplify import add

        return add(to_expr(other), self)

    def __sub__(self, other: "ArithExpr | int") -> "ArithExpr":
        from repro.arith.simplify import sub

        return sub(self, to_expr(other))

    def __rsub__(self, other: int) -> "ArithExpr":
        from repro.arith.simplify import sub

        return sub(to_expr(other), self)

    def __mul__(self, other: "ArithExpr | int") -> "ArithExpr":
        from repro.arith.simplify import mul

        return mul(self, to_expr(other))

    def __rmul__(self, other: int) -> "ArithExpr":
        from repro.arith.simplify import mul

        return mul(to_expr(other), self)

    def __floordiv__(self, other: "ArithExpr | int") -> "ArithExpr":
        from repro.arith.simplify import int_div

        return int_div(self, to_expr(other))

    def __rfloordiv__(self, other: int) -> "ArithExpr":
        from repro.arith.simplify import int_div

        return int_div(to_expr(other), self)

    def __mod__(self, other: "ArithExpr | int") -> "ArithExpr":
        from repro.arith.simplify import mod

        return mod(self, to_expr(other))

    def __rmod__(self, other: int) -> "ArithExpr":
        from repro.arith.simplify import mod

        return mod(to_expr(other), self)

    def __pow__(self, other: "ArithExpr | int") -> "ArithExpr":
        from repro.arith.simplify import pow_

        return pow_(self, to_expr(other))

    def __neg__(self) -> "ArithExpr":
        from repro.arith.simplify import mul

        return mul(Cst(-1), self)

    # -- evaluation ------------------------------------------------------
    # Each node class defines ``evaluate(env)``: the integer value given
    # a value for every free variable.

    def children(self) -> Iterable["ArithExpr"]:
        return ()

    def try_int(self) -> int | None:
        """Return the integer value if this is a constant, else ``None``."""
        return None

    # -- ordering key for canonical forms --------------------------------
    def sort_key(self) -> tuple:
        key = getattr(self, "_sort_key", None)
        if key is None:
            key = (type(self).__name__, str(self))
            self._sort_key = key
        return key

    # -- cached structural hash (each class defines ``_compute_hash``) ----
    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._compute_hash()
            self._hash = h
        return h

    # -- pickling ---------------------------------------------------------
    # ``_hash`` uses Python's per-process string hashing and must never
    # cross a pickle boundary (the tuning cache persists kernels whose
    # metadata embeds these nodes); ``_sort_key``/``__weakref__`` are
    # likewise process-local.
    def __getstate__(self):
        state = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot not in ("__weakref__", "_hash", "_sort_key"):
                    state[slot] = getattr(self, slot)  # set by __new__
        return (None, state)

    def __setstate__(self, state):
        for name, value in state[1].items():
            setattr(self, name, value)


class Cst(ArithExpr):
    """An integer constant."""

    __slots__ = ("value",)

    def __new__(cls, value: int):
        if not isinstance(value, int):
            raise TypeError(f"Cst requires an int, got {value!r}")
        if isinstance(value, bool):
            value = int(value)  # True == 1 would collide in the table
        key = ("c", value)
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.value = value
        return _intern(key, inst)

    def __init__(self, value: int):  # fully constructed in __new__
        pass

    def __getnewargs__(self):
        return (self.value,)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value

    def try_int(self) -> int | None:
        return self.value

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Cst) and other.value == self.value
        )

    def _compute_hash(self) -> int:
        return hash(("Cst", self.value))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return str(self.value)

    __str__ = __repr__


class Var(ArithExpr):
    """A named variable with an optional value range.

    Two variables are equal iff their names are equal; the range is
    metadata attached by whoever introduced the variable (a map loop, a
    size parameter).  Generated loop indices are named by the code
    generator, per compilation, so one name recurs across compilations
    with different ranges.  The intern key *does* include the range
    (same-named variables with different ranges must stay distinct
    objects for the simplifier), and nothing that outlives one
    compilation may key on ``Var`` equality.
    """

    __slots__ = ("name", "range")

    def __new__(cls, name: str, range_: Range | None = None):
        r = range_ if range_ is not None else Range.natural()
        key = (
            "v", name, id(r.min), None if r.max is None else id(r.max)
        )
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.name = name
        inst.range = r
        return _intern(key, inst)

    def __init__(self, name: str, range_: Range | None = None):
        pass

    def __getnewargs__(self):
        return (self.name, self.range)

    def evaluate(self, env: Mapping[str, int]) -> int:
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(f"no value for variable {self.name!r}") from None

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Var) and other.name == self.name
        )

    def _compute_hash(self) -> int:
        return hash(("Var", self.name))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return self.name

    __str__ = __repr__


class Sum(ArithExpr):
    """A sum of two or more terms."""

    __slots__ = ("terms",)

    def __new__(cls, terms: Iterable[ArithExpr]):
        terms = tuple(terms)
        if len(terms) < 2:
            raise ValueError("Sum requires at least two terms")
        key = ("s", *map(id, terms))
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.terms = terms
        return _intern(key, inst)

    def __init__(self, terms: Iterable[ArithExpr]):
        pass

    def __getnewargs__(self):
        return (self.terms,)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return sum(t.evaluate(env) for t in self.terms)

    def children(self) -> Iterable[ArithExpr]:
        return self.terms

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Sum) and other.terms == self.terms
        )

    def _compute_hash(self) -> int:
        return hash(("Sum", self.terms))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return "(" + " + ".join(map(str, self.terms)) + ")"

    __str__ = __repr__


class Prod(ArithExpr):
    """A product of two or more factors."""

    __slots__ = ("factors",)

    def __new__(cls, factors: Iterable[ArithExpr]):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("Prod requires at least two factors")
        key = ("p", *map(id, factors))
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.factors = factors
        return _intern(key, inst)

    def __init__(self, factors: Iterable[ArithExpr]):
        pass

    def __getnewargs__(self):
        return (self.factors,)

    def evaluate(self, env: Mapping[str, int]) -> int:
        result = 1
        for f in self.factors:
            result *= f.evaluate(env)
        return result

    def children(self) -> Iterable[ArithExpr]:
        return self.factors

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Prod) and other.factors == self.factors
        )

    def _compute_hash(self) -> int:
        return hash(("Prod", self.factors))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return "(" + " * ".join(map(str, self.factors)) + ")"

    __str__ = __repr__


class IntDiv(ArithExpr):
    """Integer (floor) division; the divisor is assumed positive."""

    __slots__ = ("numer", "denom")

    def __new__(cls, numer: ArithExpr, denom: ArithExpr):
        key = ("d", id(numer), id(denom))
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.numer = numer
        inst.denom = denom
        return _intern(key, inst)

    def __init__(self, numer: ArithExpr, denom: ArithExpr):
        pass

    def __getnewargs__(self):
        return (self.numer, self.denom)

    def evaluate(self, env: Mapping[str, int]) -> int:
        d = self.denom.evaluate(env)
        if d == 0:
            raise ZeroDivisionError(f"division by zero in {self}")
        return self.numer.evaluate(env) // d

    def children(self) -> Iterable[ArithExpr]:
        return (self.numer, self.denom)

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, IntDiv)
            and other.numer == self.numer
            and other.denom == self.denom
        )

    def _compute_hash(self) -> int:
        return hash(("IntDiv", self.numer, self.denom))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return f"({self.numer} / {self.denom})"

    __str__ = __repr__


class Mod(ArithExpr):
    """Modulo; the divisor is assumed positive."""

    __slots__ = ("numer", "denom")

    def __new__(cls, numer: ArithExpr, denom: ArithExpr):
        key = ("m", id(numer), id(denom))
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.numer = numer
        inst.denom = denom
        return _intern(key, inst)

    def __init__(self, numer: ArithExpr, denom: ArithExpr):
        pass

    def __getnewargs__(self):
        return (self.numer, self.denom)

    def evaluate(self, env: Mapping[str, int]) -> int:
        d = self.denom.evaluate(env)
        if d == 0:
            raise ZeroDivisionError(f"modulo by zero in {self}")
        return self.numer.evaluate(env) % d

    def children(self) -> Iterable[ArithExpr]:
        return (self.numer, self.denom)

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Mod)
            and other.numer == self.numer
            and other.denom == self.denom
        )

    def _compute_hash(self) -> int:
        return hash(("Mod", self.numer, self.denom))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return f"({self.numer} % {self.denom})"

    __str__ = __repr__


class Pow(ArithExpr):
    """A power with integer exponent."""

    __slots__ = ("base", "exp")

    def __new__(cls, base: ArithExpr, exp: ArithExpr):
        key = ("pw", id(base), id(exp))
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.base = base
        inst.exp = exp
        return _intern(key, inst)

    def __init__(self, base: ArithExpr, exp: ArithExpr):
        pass

    def __getnewargs__(self):
        return (self.base, self.exp)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.base.evaluate(env) ** self.exp.evaluate(env)

    def children(self) -> Iterable[ArithExpr]:
        return (self.base, self.exp)

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Pow)
            and other.base == self.base
            and other.exp == self.exp
        )

    def _compute_hash(self) -> int:
        return hash(("Pow", self.base, self.exp))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return f"pow({self.base}, {self.exp})"

    __str__ = __repr__


class Log2(ArithExpr):
    """Base-2 logarithm (exact; the argument must be a power of two)."""

    __slots__ = ("arg",)

    def __new__(cls, arg: ArithExpr):
        key = ("l2", id(arg))
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.arg = arg
        return _intern(key, inst)

    def __init__(self, arg: ArithExpr):
        pass

    def __getnewargs__(self):
        return (self.arg,)

    def evaluate(self, env: Mapping[str, int]) -> int:
        v = self.arg.evaluate(env)
        if v <= 0 or v & (v - 1):
            raise ValueError(f"log2 of non-power-of-two {v} in {self}")
        return v.bit_length() - 1

    def children(self) -> Iterable[ArithExpr]:
        return (self.arg,)

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Log2) and other.arg == self.arg
        )

    def _compute_hash(self) -> int:
        return hash(("Log2", self.arg))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return f"log2({self.arg})"

    __str__ = __repr__


class LoadIndex(ArithExpr):
    """A runtime-dependent index: the value loaded from an index buffer.

    Produced by the ``filter`` pattern (data-dependent gather, as used by
    the SHOC MD benchmark's neighbour lists).  The simplifier treats it
    as an opaque atom: it simplifies the inner index but can prove
    nothing about the loaded value.
    """

    __slots__ = ("memory_name", "index")

    def __new__(cls, memory_name: str, index: ArithExpr):
        key = ("li", memory_name, id(index))
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.memory_name = memory_name
        inst.index = index
        return _intern(key, inst)

    def __init__(self, memory_name: str, index: ArithExpr):
        pass

    def __getnewargs__(self):
        return (self.memory_name, self.index)

    def evaluate(self, env: Mapping[str, int]) -> int:
        raise NotImplementedError(
            "LoadIndex depends on buffer contents; it only exists in "
            "generated code"
        )

    def children(self) -> Iterable[ArithExpr]:
        return (self.index,)

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, LoadIndex)
            and other.memory_name == self.memory_name
            and other.index == self.index
        )

    def _compute_hash(self) -> int:
        return hash(("LoadIndex", self.memory_name, self.index))

    __hash__ = ArithExpr.__hash__

    def __repr__(self) -> str:
        return f"{self.memory_name}[{self.index}]"

    __str__ = __repr__


def to_expr(value: "ArithExpr | int") -> ArithExpr:
    """Coerce a plain integer to a constant node."""
    if isinstance(value, ArithExpr):
        return value
    if isinstance(value, int):
        return Cst(value)
    raise TypeError(f"cannot convert {value!r} to an arithmetic expression")


def free_vars(expr: ArithExpr) -> set[Var]:
    """Collect every variable occurring in ``expr`` (including in ranges
    is *not* done here; only the expression itself is walked)."""
    found: set[Var] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            found.add(node)
        else:
            stack.extend(node.children())
    return found


def substitute(expr: ArithExpr, mapping: Mapping[Var, ArithExpr]) -> ArithExpr:
    """Replace variables by expressions, re-simplifying along the way."""
    from repro.arith.simplify import int_div, log2, mod, pow_, prod_of, sum_of

    def go(node: ArithExpr) -> ArithExpr:
        if isinstance(node, Var):
            return mapping.get(node, node)
        if isinstance(node, Cst):
            return node
        if isinstance(node, Sum):
            return sum_of([go(t) for t in node.terms])
        if isinstance(node, Prod):
            return prod_of([go(f) for f in node.factors])
        if isinstance(node, IntDiv):
            return int_div(go(node.numer), go(node.denom))
        if isinstance(node, Mod):
            return mod(go(node.numer), go(node.denom))
        if isinstance(node, Pow):
            return pow_(go(node.base), go(node.exp))
        if isinstance(node, Log2):
            return log2(go(node.arg))
        assert isinstance(node, LoadIndex), node  # the last node class
        return LoadIndex(node.memory_name, go(node.index))

    return go(expr)


def walk(expr: ArithExpr) -> Iterator[ArithExpr]:
    """Yield every node of the expression tree (pre-order)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())

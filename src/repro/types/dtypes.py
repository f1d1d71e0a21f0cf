"""Type objects for the Lift IR.

The type system distinguishes (paper section 5.1):

* scalar types, corresponding to OpenCL scalars (``int``, ``float``, ...);
* vector types, corresponding to OpenCL vector types (``float4``, ...);
* tuple types, represented as structs in generated code;
* array types, which may nest and which carry the length of each
  dimension as an arithmetic expression over natural numbers.

Types are immutable value objects.
"""

from __future__ import annotations

from typing import Iterable

from repro.arith import ArithExpr, Cst, simplify
from repro.arith.expr import to_expr


class Type:
    """Base class for every type, including function types."""

    __slots__ = ()


class DataType(Type):
    """Base class for types of *values* (everything except functions)."""

    __slots__ = ()


class ScalarType(DataType):
    """An OpenCL scalar type such as ``float`` or ``int``."""

    __slots__ = ("name", "size_bytes")

    def __init__(self, name: str, size_bytes: int):
        self.name = name
        self.size_bytes = size_bytes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScalarType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("ScalarType", self.name))

    def __repr__(self) -> str:
        return self.name

    __str__ = __repr__


FLOAT = ScalarType("float", 4)
INT = ScalarType("int", 4)
DOUBLE = ScalarType("double", 8)
BOOL = ScalarType("bool", 1)


class VectorType(DataType):
    """An OpenCL vector type such as ``float4``."""

    __slots__ = ("elem", "width")

    def __init__(self, elem: ScalarType, width: int):
        if width not in (2, 3, 4, 8, 16):
            raise ValueError(f"unsupported vector width {width}")
        self.elem = elem
        self.width = width

    @property
    def name(self) -> str:
        return f"{self.elem.name}{self.width}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VectorType)
            and other.elem == self.elem
            and other.width == self.width
        )

    def __hash__(self) -> int:
        return hash(("VectorType", self.elem, self.width))

    def __repr__(self) -> str:
        return self.name

    __str__ = __repr__


class TupleType(DataType):
    """A tuple of data types; lowered to a C struct in generated code."""

    __slots__ = ("elems",)

    def __init__(self, elems: Iterable[DataType]):
        self.elems = tuple(elems)
        if len(self.elems) < 2:
            raise ValueError("TupleType requires at least two components")

    @property
    def name(self) -> str:
        inner = "_".join(_mangle(e) for e in self.elems)
        return f"Tuple{len(self.elems)}_{inner}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TupleType) and other.elems == self.elems

    def __hash__(self) -> int:
        return hash(("TupleType", self.elems))

    def __repr__(self) -> str:
        return "(" + ", ".join(map(str, self.elems)) + ")"

    __str__ = __repr__


class ArrayType(DataType):
    """An array with a symbolic length, e.g. ``[float]_N``."""

    __slots__ = ("elem", "length", "_canonical", "_hash")

    def __init__(self, elem: DataType, length: ArithExpr | int):
        self.elem = elem
        self.length = to_expr(length)
        self._canonical = None

    def canonical(self) -> tuple:
        """``(elem, simplified length)``: what equality and the hash
        compare.  Computed once — a type is immutable, and simplifying
        every dimension's length on each comparison is not free."""
        if self._canonical is None:
            self._canonical = (self.elem, simplify(self.length))
            self._hash = hash(("ArrayType",) + self._canonical)
        return self._canonical

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, ArrayType)
            and hash(other) == hash(self)
            and other.canonical() == self.canonical()
        )

    def __hash__(self) -> int:
        self.canonical()
        return self._hash

    def __repr__(self) -> str:
        return f"[{self.elem}]_{self.length}"

    __str__ = __repr__


def _mangle(t: DataType) -> str:
    if isinstance(t, (ScalarType, VectorType)):
        return t.name
    if isinstance(t, TupleType):
        return t.name
    assert isinstance(t, ArrayType), t  # the last data type
    return f"arr_{_mangle(t.elem)}"


def array(elem: DataType, *lengths: ArithExpr | int) -> DataType:
    """Build a (possibly multi-dimensional) array type.

    ``array(FLOAT, N, M)`` is an N-array of M-arrays of float.
    """
    result: DataType = elem
    for length in reversed(lengths):
        result = ArrayType(result, length)
    return result


float2 = VectorType(FLOAT, 2)
float4 = VectorType(FLOAT, 4)
float8 = VectorType(FLOAT, 8)
int2 = VectorType(INT, 2)
int4 = VectorType(INT, 4)


def size_in_bytes(t: DataType) -> ArithExpr:
    """Symbolic size of a value of type ``t`` in bytes."""
    if isinstance(t, ScalarType):
        return Cst(t.size_bytes)
    if isinstance(t, VectorType):
        return Cst(t.elem.size_bytes * t.width)
    if isinstance(t, TupleType):
        total = Cst(0)
        for e in t.elems:
            total = total + size_in_bytes(e)
        return total
    assert isinstance(t, ArrayType), t  # the last data type
    return t.length * size_in_bytes(t.elem)


def element_count(t: DataType) -> ArithExpr:
    """Number of *scalar* elements a value of type ``t`` occupies."""
    if isinstance(t, ScalarType):
        return Cst(1)
    if isinstance(t, VectorType):
        return Cst(t.width)
    if isinstance(t, TupleType):
        total = Cst(0)
        for e in t.elems:
            total = total + element_count(e)
        return total
    assert isinstance(t, ArrayType), t  # the last data type
    return t.length * element_count(t.elem)


def scalar_base(t: DataType) -> ScalarType:
    """The underlying scalar of a scalar/vector/array type."""
    if isinstance(t, ScalarType):
        return t
    if isinstance(t, VectorType):
        return t.elem
    if isinstance(t, ArrayType):
        return scalar_base(t.elem)
    raise TypeError(f"no unique scalar base for {t!r}")

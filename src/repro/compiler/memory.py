"""Memory objects and allocation bookkeeping (paper section 5.2).

Memory is only allocated for functions that actually modify data (calls
whose function is a user function); data-layout patterns compile to views
instead.  Every buffer holds elements of a single scalar type — vector
values occupy ``width`` consecutive scalars, which matches how OpenCL
lays out ``float4`` in memory and keeps the view algebra uniform.

How *many* elements a buffer needs is the caller's business: the
multiplier rules of section 5.2 (a local buffer inside ``mapLcl`` holds
one copy per ``mapLcl`` index, a global one additionally per ``mapWrg``
index, a private one is per-thread already) are applied by
``KernelGenerator._alloc_staged`` to staged scalars and to map
intermediates alike, by wrapping the logical type before it gets here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.arith import ArithExpr, Cst, simplify
from repro.arith.simplify import to_int
from repro.types import ArrayType, DataType, ScalarType, TupleType, VectorType
from repro.ir.nodes import AddressSpace


def scalar_layout(t: DataType) -> tuple[ScalarType, ArithExpr]:
    """The scalar element type and total scalar count of a data type."""
    if isinstance(t, ScalarType):
        return t, Cst(1)
    if isinstance(t, VectorType):
        return t.elem, Cst(t.width)
    if isinstance(t, ArrayType):
        elem, count = scalar_layout(t.elem)
        return elem, simplify(t.length * count)
    if isinstance(t, TupleType):
        # Tuples of identical scalars are stored interleaved.
        elem, count = scalar_layout(t.elems[0])
        for other in t.elems[1:]:
            other_elem, other_count = scalar_layout(other)
            if other_elem != elem:
                raise NotImplementedError(
                    f"mixed-scalar tuple {t} cannot be stored in one buffer"
                )
            count = count + other_count
        return elem, simplify(count)
    raise TypeError(f"cannot lay out {t!r}")


@dataclass
class Memory:
    """A buffer (or a register) holding the value of some expression.

    ``count`` is the number of scalar elements; ``logical_type`` is the
    value type the buffer represents from the perspective of the scope it
    was allocated in (for a private accumulator inside a ``mapLcl`` this is
    the per-thread type, mirroring that each thread owns its own copy —
    the multiplier rules of section 5.2).
    """

    name: str
    space: AddressSpace
    scalar_type: ScalarType
    count: ArithExpr
    logical_type: DataType
    is_param: bool = False

    @property
    def is_scalar_register(self) -> bool:
        """Private memories of one element compile to plain C variables."""
        return (
            self.space == AddressSpace.PRIVATE
            and simplify(self.count) == Cst(1)
        )

    def concrete_count(self) -> int:
        return to_int(simplify(self.count))

    def __repr__(self) -> str:
        return f"Memory({self.name}, {self.space}, {self.scalar_type}x{self.count})"


class MemoryAllocator:
    """Creates uniquely named buffers for a single kernel."""

    def __init__(self) -> None:
        self._counters = {
            AddressSpace.GLOBAL: itertools.count(1),
            AddressSpace.LOCAL: itertools.count(1),
            AddressSpace.PRIVATE: itertools.count(1),
        }
        self.locals: list[Memory] = []
        self.privates: list[Memory] = []
        self.global_temps: list[Memory] = []

    def alloc(self, logical_type: DataType, space: AddressSpace, prefix: str = "") -> Memory:
        if isinstance(logical_type, TupleType):
            # Tuple accumulators live in struct-typed private registers.
            if space != AddressSpace.PRIVATE:
                raise NotImplementedError(
                    "tuple values are only supported in private registers"
                )
            scalar, count = ScalarType("struct", 0), Cst(1)
        else:
            scalar, count = scalar_layout(logical_type)
        stem = {
            AddressSpace.GLOBAL: "g_tmp",
            AddressSpace.LOCAL: "tmp",
            AddressSpace.PRIVATE: "acc",
        }[space]
        if prefix:
            stem = prefix
        name = f"{stem}{next(self._counters[space])}"
        mem = Memory(name, space, scalar, simplify(count), logical_type)
        if space == AddressSpace.LOCAL:
            self.locals.append(mem)
        elif space == AddressSpace.PRIVATE:
            self.privates.append(mem)
        else:
            self.global_temps.append(mem)
        return mem

    @staticmethod
    def for_param(name: str, logical_type: DataType, space: AddressSpace) -> Memory:
        scalar, count = scalar_layout(logical_type)
        return Memory(name, space, scalar, simplify(count), logical_type, is_param=True)

"""Memory objects and allocation bookkeeping (paper section 5.2).

Memory is only allocated for functions that actually modify data (calls
whose function is a user function); data-layout patterns compile to views
instead.  Every buffer holds elements of a single scalar type — vector
values occupy ``width`` consecutive scalars, which matches how OpenCL
lays out ``float4`` in memory and keeps the view algebra uniform.

How *many* elements a buffer needs is section 5.2's multiplier rule,
applied in one place — ``KernelGenerator._alloc_staged`` — to staged
scalars, map intermediates and ``reduceSeq`` accumulators alike:

* a **local** buffer is shared by the group and a **global** one by the
  grid, so a value produced *inside* parallel maps is multiplied: one
  copy per enclosing ``mapLcl`` / ``mapGlb`` index, a global one
  additionally per ``mapWrg`` index;
* a **private** buffer is per work-item, so a value produced *by* a
  parallel map is divided: ``n`` elements spread over ``t`` work-items
  (:class:`Threads`; ``t`` is ``CompilerOptions.local_size`` for
  ``mapLcl``, derived from ``global_size`` for ``mapGlb`` / ``mapWrg``)
  leave every work-item ``ceil(n / t)`` slots in that dimension
  (:func:`per_thread_type`), and element ``idx`` lives in slot
  ``idx / t`` of work-item ``idx % t`` — the one whose strided loop
  visits it.  Every view onto the buffer indexes it that way
  (``views._linearize``).  With ``n <= t`` the buffer is one slot, which
  compiles to a plain C variable (:attr:`Memory.is_register`).

Who may read a spread private value?  Only the work-item that wrote the
element: a parallel map of the same kind and dimension, element-wise.
Reaching it through ``split`` / ``join`` / ``transpose`` / ``gather`` /
``scatter`` / ``slide`` / ``asVector`` / ``asScalar`` in a way that
changes which work-item touches an element, or from a map of another
dimension, would read a slot of one's *own* copy that another work-item
filled in *its* copy — wrong values no hazard detector can see — so the
code generator refuses it (``KernelGenerator._consume``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

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
    # Tuples of identical scalars are stored interleaved.
    assert isinstance(t, TupleType), t  # the last data type
    elem, count = scalar_layout(t.elems[0])
    for other in t.elems[1:]:
        other_elem, other_count = scalar_layout(other)
        if other_elem != elem:
            raise NotImplementedError(
                f"mixed-scalar tuple {t} cannot be stored in one buffer"
            )
        count = count + other_count
    return elem, simplify(count)


class Threads(NamedTuple):
    """One array dimension of a private value spread over work-items:
    the parallel map that produces it (``kind`` is "lcl", "glb" or
    "wrg") and the number of work-items ``count`` it runs on."""

    kind: str
    dim: int
    count: int


def per_thread_type(t: DataType, threads: tuple) -> DataType:
    """What one work-item holds of a ``t`` whose leading dimensions are
    spread per ``threads`` (a :class:`Threads`, or ``None`` for a
    dimension every work-item holds whole)."""
    if not threads:
        return t
    assert isinstance(t, ArrayType)
    length = t.length
    if threads[0] is not None:
        # ceil(n / t), without a negative numerator for the simplifier.
        length = simplify((length + (threads[0].count - 1)) // threads[0].count)
    return ArrayType(per_thread_type(t.elem, threads[1:]), length)


@dataclass
class Memory:
    """A buffer (or a register) holding the value of some expression.

    ``count`` is the number of scalar elements; ``logical_type`` is the
    value type the buffer holds — for private memory what *one* work-item
    holds (:func:`per_thread_type`).
    """

    name: str
    space: AddressSpace
    scalar_type: ScalarType
    count: ArithExpr
    logical_type: DataType
    is_param: bool = False

    @cached_property
    def is_register(self) -> bool:
        """Private memory of one element (a scalar kernel parameter, or
        an array type whose lengths are all 1) is a plain C variable."""
        if self.space != AddressSpace.PRIVATE:
            return False
        if self.is_param:
            return True
        t = self.logical_type
        while isinstance(t, ArrayType):
            if simplify(t.length) != Cst(1):
                return False
            t = t.elem
        return True

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

    def alloc(self, logical_type: DataType, space: AddressSpace) -> Memory:
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

"""Views: implicit array accesses made explicit (paper section 5.3).

Functions that only change the data layout of an array (split, join,
gather, scatter, zip, slide, transpose, asVector, asScalar) produce a
*view* instead of allocating and writing memory.  A view records how
subsequent reads (or writes, for scatter) must index the underlying
buffer.

Consumption walks the view chain from the outermost wrapper to the
:class:`MemView` at the root while maintaining two stacks, exactly as the
paper's Figure 5:

* the *array stack* holds index expressions pushed by array accesses and
  transformed by layout views;
* the *tuple stack* holds tuple component selections, consumed by
  :class:`ZipView` to decide which input array is being accessed.

All index arithmetic here is built with **raw** constructors; the code
generator applies :func:`repro.arith.simplify` only when array-access
simplification is enabled, which is how the Figure 8 ablation produces
both the naive and the simplified kernels from the same views.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arith import ArithExpr, Cst
from repro.arith.expr import IntDiv, Mod, Prod, Sum
from repro.types import ArrayType, DataType, TupleType, VectorType
from repro.compiler.memory import Memory, per_thread_type
from repro.ir.nodes import AddressSpace
from repro.ir.patterns import IndexFun


class View:
    """Base class of view nodes."""

    __slots__ = ()


@dataclass
class MemView(View):
    """The root of a view chain: a buffer and the array type it holds
    as the scope the view was created in sees it.  For a private value
    spread over work-items that is the type of the whole value, with
    ``threads`` saying per leading dimension how it is spread
    (:class:`repro.compiler.memory.Threads`, ``None`` for a dimension
    every work-item holds whole): the buffer itself only holds the
    work-item's own slots (section 5.2, :mod:`repro.compiler.memory`)."""

    memory: Memory
    array_type: DataType
    threads: tuple = ()


@dataclass
class ArrayAccessView(View):
    """An access to one dimension of the parent view."""

    parent: View
    idx: ArithExpr


@dataclass
class SplitView(View):
    parent: View
    chunk: ArithExpr


@dataclass
class JoinView(View):
    parent: View
    inner_len: ArithExpr


@dataclass
class GatherView(View):
    parent: View
    idx_fun: IndexFun
    length: ArithExpr


@dataclass
class ScatterView(View):
    parent: View
    idx_fun: IndexFun
    length: ArithExpr


@dataclass
class TransposeView(View):
    parent: View


@dataclass
class FilterView(View):
    """Data-dependent gather: the new index is loaded from a buffer."""

    parent: View
    idx_view: View


@dataclass
class SlideView(View):
    parent: View
    size: ArithExpr
    step: ArithExpr


@dataclass
class ZipView(View):
    parents: tuple


@dataclass
class TupleAccessView(View):
    parent: View
    index: int


@dataclass
class AsVectorView(View):
    parent: View
    width: int


@dataclass
class AsScalarView(View):
    parent: View
    width: int


@dataclass
class DropIndexView(View):
    """Discard the most recent access index (the write path of ``head``:
    the producer writes a one-element array whose only index is zero)."""

    parent: View


@dataclass
class MappedView(View):
    """A map whose function only rearranges data (no computation).

    ``elem_fn`` receives the view of one element of the parent array and
    returns the view of the corresponding result element.  This is what
    makes compositions like the paper's 2D stencil
    (``map(transpose) o slide o map(slide)``) pure views: consuming an
    access pops the map index, builds the element view lazily and keeps
    walking through it.
    """

    parent: View
    elem_fn: object  # Callable[[View], View]


@dataclass
class Access:
    """The result of consuming a view: which buffer, at which scalar
    index.  ``index`` is an un-simplified arithmetic expression.

    ``tuple_path`` is non-empty when the access lands on a struct-typed
    register (tuple accumulators): the member components to select, in
    outer-to-inner order.  ``owned`` lists, for private memory, the
    ``(threads, element index)`` of every array dimension — the code
    generator checks that the accessing work-item owns the element;
    ``index_loads`` the memories a ``filter`` index was loaded from."""

    memory: Memory
    index: ArithExpr
    tuple_path: tuple = ()
    owned: tuple = ()
    index_loads: tuple = ()


class ViewConsumptionError(Exception):
    """The view chain cannot be turned into a memory access."""


def consume(view: View) -> Access:
    """Figure 5's top-to-bottom walk producing a flat scalar index."""
    array_stack: list[ArithExpr] = []
    tuple_stack: list[int] = []
    lane_offsets: list[ArithExpr] = []
    index_loads: list[Memory] = []

    node = view
    while not isinstance(node, MemView):
        if isinstance(node, ArrayAccessView):
            array_stack.append(node.idx)
            node = node.parent
        elif isinstance(node, TupleAccessView):
            tuple_stack.append(node.index)
            node = node.parent
        elif isinstance(node, SplitView):
            outer = array_stack.pop()
            inner = array_stack.pop()
            array_stack.append(Sum([Prod([outer, node.chunk]), inner]))
            node = node.parent
        elif isinstance(node, JoinView):
            flat = array_stack.pop()
            array_stack.append(Mod(flat, node.inner_len))
            array_stack.append(IntDiv(flat, node.inner_len))
            node = node.parent
        elif isinstance(node, SlideView):
            window = array_stack.pop()
            elem = array_stack.pop()
            array_stack.append(Sum([Prod([window, node.step]), elem]))
            node = node.parent
        elif isinstance(node, (GatherView, ScatterView)):
            i = array_stack.pop()
            array_stack.append(node.idx_fun.apply(i, node.length))
            node = node.parent
        elif isinstance(node, FilterView):
            i = array_stack.pop()
            idx_access = consume(ArrayAccessView(node.idx_view, i))
            from repro.arith.expr import LoadIndex

            array_stack.append(
                LoadIndex(idx_access.memory.name, idx_access.index)
            )
            index_loads.append(idx_access.memory)
            index_loads.extend(idx_access.index_loads)
            node = node.parent
        elif isinstance(node, TransposeView):
            outer = array_stack.pop()
            inner = array_stack.pop()
            array_stack.append(outer)
            array_stack.append(inner)
            node = node.parent
        elif isinstance(node, ZipView):
            if not tuple_stack:
                raise ViewConsumptionError(
                    "zip view reached without a tuple component selection"
                )
            component = tuple_stack.pop()
            node = node.parents[component]
        elif isinstance(node, AsVectorView):
            i = array_stack.pop()
            array_stack.append(Prod([i, Cst(node.width)]))
            node = node.parent
        elif isinstance(node, AsScalarView):
            i = array_stack.pop()
            array_stack.append(IntDiv(i, Cst(node.width)))
            lane_offsets.append(Mod(i, Cst(node.width)))
            node = node.parent
        elif isinstance(node, DropIndexView):
            array_stack.pop()
            node = node.parent
        elif isinstance(node, MappedView):
            i = array_stack.pop()
            node = node.elem_fn(ArrayAccessView(node.parent, i))
        else:
            raise ViewConsumptionError(f"cannot consume view node {node!r}")

    index, owned = _linearize(node, array_stack)
    for lane in lane_offsets:
        index = Sum([index, lane])
    return Access(
        node.memory, index, tuple(reversed(tuple_stack)), owned,
        tuple(index_loads),
    )


_PATTERN_NAMES = {
    SplitView: "split",
    JoinView: "join",
    GatherView: "gather",
    ScatterView: "scatter",
    TransposeView: "transpose",
    FilterView: "filter",
    SlideView: "slide",
    AsVectorView: "asVector",
    AsScalarView: "asScalar",
}


def layout_patterns(view: View) -> set:
    """Names of the data-layout patterns on the chains below ``view``
    (for diagnostics: every branch of a zip is followed)."""
    found: set = set()
    pending = [view]
    while pending:
        node = pending.pop()
        name = _PATTERN_NAMES.get(type(node))
        if name is not None:
            found.add(name)
        if isinstance(node, ZipView):
            pending.extend(node.parents)
        elif not isinstance(node, MemView):
            pending.append(node.parent)
    return found


def _linearize(mem_view: MemView, array_stack: list[ArithExpr]) -> tuple:
    """Flatten the per-dimension indices into a scalar offset; also
    returns :attr:`Access.owned`.

    The most recently pushed index belongs to the outermost dimension
    (see the Figure 5 walk-through); strides are products of the inner
    dimension lengths times the scalar width of the element type.  A
    dimension of private memory spread over ``t`` work-items holds the
    work-item's own slots only: element ``idx`` is slot ``idx / t``.
    """
    threads = mem_view.threads
    t = mem_view.array_type
    if threads:
        t = per_thread_type(t, threads)
    dims: list[ArithExpr] = []
    while isinstance(t, ArrayType):
        dims.append(t.length)
        t = t.elem
    elem_width = _scalar_width(t)

    if len(array_stack) < len(dims):
        raise ViewConsumptionError(
            f"view consumed with {len(array_stack)} indices for "
            f"{len(dims)}-dimensional memory {mem_view.memory.name}"
        )

    private = mem_view.memory.space == AddressSpace.PRIVATE
    owned = []
    index: ArithExpr = Cst(0)
    for dim_pos in range(len(dims)):
        idx = array_stack.pop()
        if private:
            spread = threads[dim_pos] if dim_pos < len(threads) else None
            owned.append((spread, idx))
            if spread is not None:
                idx = IntDiv(idx, Cst(spread.count))
        stride: ArithExpr = Cst(1)
        for inner in dims[dim_pos + 1 :]:
            stride = Prod([stride, inner]) if stride != Cst(1) else inner
        term = Prod([idx, stride]) if stride != Cst(1) else idx
        index = term if index == Cst(0) else Sum([index, term])
    if array_stack:
        raise ViewConsumptionError(
            f"{len(array_stack)} unconsumed indices for memory "
            f"{mem_view.memory.name}"
        )
    if elem_width != 1:
        index = Prod([index, Cst(elem_width)])
    return index, tuple(owned)


def _scalar_width(t: DataType) -> int:
    if isinstance(t, VectorType):
        return t.width
    if isinstance(t, TupleType):
        # Tuples only live in struct registers (memory allocation rejects
        # arrays of tuples); the index is unused for registers.
        return 1
    return 1

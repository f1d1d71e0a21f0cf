"""The Lift IL patterns (paper section 3.2).

Algorithmic patterns
    ``mapSeq``, ``reduceSeq``, ``iterate`` (plus the high-level ``map`` and
    ``reduce`` that the rewrite system lowers).

Data-layout patterns
    ``split``, ``join``, ``gather``, ``scatter``, ``zip``, ``get``,
    ``slide``, ``transpose``, ``pad`` — they perform no computation and
    compile to *views* instead of memory operations.

Parallel patterns
    ``mapGlb``/``mapWrg``/``mapLcl`` in up to three dimensions.

Address-space patterns
    ``toGlobal``, ``toLocal``, ``toPrivate``.

Vectorization patterns
    ``asVector``, ``asScalar`` and vectorized user functions.

Each pattern implements its dependent-type rule in :meth:`infer_type`;
the driver lives in :mod:`repro.ir.typecheck`.

Adding a pattern
    1. The class here, with ``infer_type`` and — if it nests a function
       or carries static payload — the structural protocol of
       :class:`~repro.ir.nodes.Pattern` (``f``/``with_f``, ``payload``/
       ``with_payload``).
    2. The semantic passes that give it meaning: :mod:`repro.ir.interp`,
       :mod:`repro.ir.printer`, ``codegen.gen`` and, where it matters,
       :mod:`repro.compiler.address_space` and the static cost model.
    3. No traversal module: cloning, rewriting, the structural key and
       size specialization go through the protocol.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.arith import ArithExpr, Cst, Range, Var, simplify
from repro.arith.expr import substitute, to_expr
from repro.types import (
    ArrayType,
    DataType,
    ScalarType,
    TupleType,
    VectorType,
)
from repro.ir.nodes import (
    AddressSpace,
    Expr,
    FunCall,
    FunDecl,
    Lambda,
    Param,
    Pattern,
    UserFun,
)


class LiftTypeError(TypeError):
    """A Lift IL program failed to type check."""


def ensure_lambda(f: FunDecl, arity: int = 1) -> FunDecl:
    """Canonicalize a nested function to a lambda.

    In the IR graph every application point is an explicit ``FunCall``
    node (paper Figure 3: each map's ``f`` is a ``Lambda1`` whose body is
    a call chain); compiler passes hang their annotations on those nodes.
    ``mapSeq(id)`` therefore becomes ``mapSeq(λp. id(p))``.
    """
    if isinstance(f, Lambda):
        return f
    if isinstance(f, AddressSpaceWrapper):
        # The wrapper itself is transparent; canonicalize what it wraps.
        return f.with_f(ensure_lambda(f.f, arity))
    params = [Param() for _ in range(arity)]
    return Lambda(params, FunCall(f, params))


def _expect_array(t: DataType, who: str) -> ArrayType:
    if not isinstance(t, ArrayType):
        raise LiftTypeError(f"{who} expects an array, got {t}")
    return t


def _infer_fun(f: FunDecl, arg_types: Sequence[DataType]) -> DataType:
    """Infer the result type of applying ``f`` to values of ``arg_types``."""
    from repro.ir.typecheck import infer_fun_type

    return infer_fun_type(f, arg_types)


def _mul_exact(a: ArithExpr, b: ArithExpr) -> ArithExpr:
    """Multiply two array lengths knowing divisions were exact.

    ``split``/``asVector`` require their factor to divide the array length
    (the paper's types assume this implicitly), so when ``join`` multiplies
    the lengths back, ``(n / k) * k`` recombines to ``n``.  This knowledge
    belongs to the *type rules*; the general simplifier must not assume it
    because index expressions use true floor division.
    """
    from repro.arith.expr import IntDiv

    a, b = simplify(a), simplify(b)
    if isinstance(a, IntDiv) and simplify(a.denom) == b:
        return a.numer
    if isinstance(b, IntDiv) and simplify(b.denom) == a:
        return b.numer
    return simplify(a * b)


# ---------------------------------------------------------------------------
# algorithmic patterns
# ---------------------------------------------------------------------------

class AbstractMap(Pattern):
    """Common behaviour of every map variant."""

    __slots__ = ("f",)

    arity = 1

    def __init__(self, f: FunDecl):
        self.f = ensure_lambda(f, arity=1)

    def with_f(self, g: FunDecl) -> "AbstractMap":
        return type(self)(g)

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], type(self).__name__)
        out_elem = _infer_fun(self.f, [arr.elem])
        return ArrayType(out_elem, arr.length)


class Map(AbstractMap):
    """The high-level, implementation-agnostic map (lowered by rewriting)."""


class MapSeq(AbstractMap):
    """Sequential map: a plain loop in the generated code."""


class MapSeqUnroll(MapSeq):
    """Sequential map emitted as straight-line code (no loop).

    A first-class pattern in the real Lift code base; unrolling lets the
    arithmetic simplifier fold the (now constant) iteration index into
    every array access.  Requires a compile-time trip count.
    """


class ParallelMap(AbstractMap):
    """A map whose iterations execute in parallel across OpenCL threads."""

    __slots__ = payload = ("dim",)

    def __init__(self, f: FunDecl, dim: int = 0):
        super().__init__(f)
        if dim not in (0, 1, 2):
            raise ValueError("OpenCL supports dimensions 0, 1, 2")
        self.dim = dim

    def with_f(self, g: FunDecl) -> "ParallelMap":
        return type(self)(g, self.dim)

    def with_payload(self, dim: int) -> "ParallelMap":
        return type(self)(self.f, dim)


class MapGlb(ParallelMap):
    """Map over global threads (flat parallelism)."""


class MapWrg(ParallelMap):
    """Map over work groups; its body must contain a mapLcl."""


class MapLcl(ParallelMap):
    """Map over the local threads of a work group."""


class ReduceSeq(Pattern):
    """Sequential reduction with an explicit initial value.

    Call convention: ``FunCall(ReduceSeq(f), [init, array])``; the result
    is a one-element array, matching the paper's semantics.
    """

    __slots__ = ("f",)

    arity = 2

    def __init__(self, f: FunDecl):
        self.f = ensure_lambda(f, arity=2)

    def with_f(self, g: FunDecl) -> "ReduceSeq":
        return type(self)(g)

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        init_t = arg_types[0]
        arr = _expect_array(arg_types[1], "reduceSeq")
        out_t = _infer_fun(self.f, [init_t, arr.elem])
        if out_t != init_t:
            raise LiftTypeError(
                f"reduction function returns {out_t}, expected accumulator type {init_t}"
            )
        return ArrayType(init_t, Cst(1))


class ReduceSeqUnroll(ReduceSeq):
    """Sequential reduction emitted as straight-line code (no loop);
    see :class:`MapSeqUnroll`."""


class Reduce(ReduceSeq):
    """High-level reduction (requires associativity; lowered by rewriting)."""


class Iterate(Pattern):
    """Apply ``f`` a number of times, feeding each output back as input.

    The output length is inferred as a closed form of the per-iteration
    length change ``g`` (paper section 3.2): ``g(n) = n`` stays ``n``,
    ``g(n) = n / k`` becomes ``n / k^m`` and ``g(n) = n * k`` becomes
    ``n * k^m``; other shapes are unrolled when ``m`` is concrete.
    """

    __slots__ = ("n", "f")
    payload = ("n",)

    arity = 1

    def __init__(self, n: ArithExpr | int, f: FunDecl):
        self.n = to_expr(n)
        self.f = ensure_lambda(f, arity=1)

    def with_f(self, g: FunDecl) -> "Iterate":
        return type(self)(self.n, g)

    def with_payload(self, n: ArithExpr | int) -> "Iterate":
        return type(self)(n, self.f)

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "iterate")
        length_var = Var.fresh("itr_n", Range.natural())
        probe = _infer_fun(self.f, [ArrayType(arr.elem, length_var)])
        probe_arr = _expect_array(probe, "iterate body result")
        if probe_arr.elem != arr.elem:
            raise LiftTypeError("iterate body must preserve the element type")
        out_len = self.closed_form_length(probe_arr.length, length_var, arr.length)
        return ArrayType(arr.elem, out_len)

    def closed_form_length(
        self, g_of_n: ArithExpr, n_var: Var, n0: ArithExpr
    ) -> ArithExpr:
        """Length after ``self.n`` applications of the map ``n -> g(n)``."""
        from repro.arith.expr import IntDiv, Prod

        g = simplify(g_of_n)
        if g == n_var:
            return n0
        # g(n) = n / k   ->   n0 / k^m
        if isinstance(g, IntDiv) and g.numer == n_var:
            return simplify(n0 // (g.denom ** self.n))
        # g(n) = n * k   ->   n0 * k^m
        if isinstance(g, Prod) and n_var in g.factors:
            rest = list(g.factors)
            rest.remove(n_var)
            k = rest[0] if len(rest) == 1 else Prod(rest)
            return simplify(n0 * (simplify(k) ** self.n))
        m = self.n.try_int()
        if m is None:
            raise LiftTypeError(
                f"cannot find a closed form for iterate length change {g_of_n}"
            )
        length = n0
        for _ in range(m):
            length = simplify(substitute(g, {n_var: length}))
        return length


# ---------------------------------------------------------------------------
# data-layout patterns
# ---------------------------------------------------------------------------

class Split(Pattern):
    """Add a dimension: ``[T]_n  ->  [[T]_k]_{n/k}``."""

    __slots__ = payload = ("n",)

    def __init__(self, n: ArithExpr | int):
        self.n = to_expr(n)

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "split")
        return ArrayType(ArrayType(arr.elem, self.n), simplify(arr.length // self.n))


class Join(Pattern):
    """Remove a dimension: ``[[T]_m]_n  ->  [T]_{n*m}``."""

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        outer = _expect_array(arg_types[0], "join")
        inner = _expect_array(outer.elem, "join")
        return ArrayType(inner.elem, _mul_exact(outer.length, inner.length))


class IndexFun:
    """A permutation on array indices used by gather and scatter.

    ``apply`` maps a symbolic index (plus the array length) to a new
    symbolic index; the same function evaluated on integers drives the
    reference interpreter.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[ArithExpr, ArithExpr], ArithExpr]):
        self.name = name
        self.fn = fn

    def apply(self, i: ArithExpr, n: ArithExpr) -> ArithExpr:
        return self.fn(i, n)

    def eval(self, i: int, n: int) -> int:
        result = self.fn(Cst(i), Cst(n))
        value = simplify(result).try_int()
        if value is None:
            raise ValueError(f"index function {self.name} did not evaluate")
        return value

    def __repr__(self) -> str:
        return f"IndexFun({self.name})"


def reverse_indices() -> IndexFun:
    return IndexFun("reverse", lambda i, n: n - i - 1)


def shift_indices(k: int) -> IndexFun:
    return IndexFun(f"shift({k})", lambda i, n: (i + Cst(k)) % n)


def transpose_indices(rows: ArithExpr | int, cols: ArithExpr | int) -> IndexFun:
    """The permutation of the paper's matrix-transposition example:
    ``i -> (i mod rows) * cols + i / rows`` on the flattened array."""
    r, c = to_expr(rows), to_expr(cols)

    def fn(i: ArithExpr, n: ArithExpr) -> ArithExpr:
        from repro.arith.expr import IntDiv, Mod, Prod, Sum

        return Sum([Prod([Mod(i, r), c]), IntDiv(i, r)])

    return IndexFun(f"transpose({r},{c})", fn)


def stride_indices(s: ArithExpr | int) -> IndexFun:
    """Strided reordering used for coalescing: ``i -> (i * s) mod n +
    (i * s) / n`` — a column-major walk over an ``n/s x s`` grid."""
    stride = to_expr(s)

    def fn(i: ArithExpr, n: ArithExpr) -> ArithExpr:
        from repro.arith.expr import IntDiv, Mod, Prod, Sum

        return Sum([Mod(Prod([i, stride]), n), IntDiv(Prod([i, stride]), n)])

    return IndexFun(f"stride({stride})", fn)


class Gather(Pattern):
    """Remap indices when *reading*: ``gather(f, xs)[i] = xs[f(i)]``."""

    __slots__ = payload = ("idx_fun",)

    def __init__(self, idx_fun: IndexFun):
        self.idx_fun = idx_fun

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "gather")
        return arr


class Scatter(Pattern):
    """Remap indices when *writing*: ``scatter(f, xs)[f(i)] = xs[i]``."""

    __slots__ = payload = ("idx_fun",)

    def __init__(self, idx_fun: IndexFun):
        self.idx_fun = idx_fun

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "scatter")
        return arr


class Transpose(Pattern):
    """Swap the two outermost dimensions (first-class in the Lift code
    base; equivalent to the split/gather/join composition of section 3.2).
    """

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        outer = _expect_array(arg_types[0], "transpose")
        inner = _expect_array(outer.elem, "transpose")
        return ArrayType(ArrayType(inner.elem, outer.length), inner.length)


class Zip(Pattern):
    """Combine arrays element-wise into an array of tuples."""

    __slots__ = payload = ("n",)

    def __init__(self, n: int = 2):
        if n < 2:
            raise ValueError("zip needs at least two arrays")
        self.n = n

    @property
    def arity(self) -> int:  # type: ignore[override]
        return self.n

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arrays = [_expect_array(t, "zip") for t in arg_types]
        length = arrays[0].length
        for other in arrays[1:]:
            if simplify(other.length) != simplify(length):
                raise LiftTypeError(
                    f"zip requires equal lengths, got {length} and {other.length}"
                )
        return ArrayType(TupleType([a.elem for a in arrays]), length)


class Get(Pattern):
    """Project the ``i``-th component out of a tuple value."""

    __slots__ = payload = ("index",)

    def __init__(self, index: int):
        self.index = index

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        t = arg_types[0]
        if not isinstance(t, TupleType):
            raise LiftTypeError(f"get expects a tuple, got {t}")
        if not 0 <= self.index < len(t.elems):
            raise LiftTypeError(f"tuple index {self.index} out of range for {t}")
        return t.elems[self.index]


class MakeTuple(Pattern):
    """Build a tuple value from components (used for reduce accumulators)."""

    __slots__ = payload = ("n",)

    def __init__(self, n: int = 2):
        self.n = n

    @property
    def arity(self) -> int:  # type: ignore[override]
        return self.n

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        return TupleType(list(arg_types))


class Head(Pattern):
    """The first element of an array (as a view; present in real Lift)."""

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "head")
        return arr.elem


class Filter(Pattern):
    """Data-dependent gather: ``filter(data, indices)[i] = data[indices[i]]``.

    Present in the real Lift code base; the SHOC MD benchmark uses it for
    neighbour-list indirection.  The indices array has integer type.
    """

    arity = 2

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        data = _expect_array(arg_types[0], "filter")
        idx = _expect_array(arg_types[1], "filter")
        if not isinstance(idx.elem, ScalarType) or idx.elem.name not in ("int", "float"):
            raise LiftTypeError(f"filter indices must be scalars, got {idx.elem}")
        return ArrayType(data.elem, idx.length)


class Slide(Pattern):
    """Overlapping windows for stencils: ``[T]_n -> [[T]_size]_count``
    with ``count = (n - size) / step + 1``."""

    __slots__ = payload = ("size", "step")

    def __init__(self, size: ArithExpr | int, step: ArithExpr | int):
        self.size = to_expr(size)
        self.step = to_expr(step)

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "slide")
        count = simplify((arr.length - self.size) // self.step + Cst(1))
        return ArrayType(ArrayType(arr.elem, self.size), count)


class Pad(Pattern):
    """Virtually extend an array at both ends (clamped boundary)."""

    __slots__ = payload = ("left", "right")

    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "pad")
        return ArrayType(arr.elem, simplify(arr.length + Cst(self.left + self.right)))


# ---------------------------------------------------------------------------
# address-space patterns
# ---------------------------------------------------------------------------

class AddressSpaceWrapper(Pattern):
    """``toGlobal``/``toLocal``/``toPrivate``: wrap a function so its
    output lands in a chosen address space (paper section 3.2)."""

    __slots__ = ("f", "space")

    def __init__(self, f: FunDecl, space: AddressSpace):
        self.f = f
        self.space = space

    def with_f(self, g: FunDecl) -> "AddressSpaceWrapper":
        # The space is the subclass's (``toLocal(g)``), not payload.
        return type(self)(g)  # type: ignore[call-arg]

    @property
    def arity(self) -> int:  # type: ignore[override]
        return self.f.arity

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        return _infer_fun(self.f, arg_types)


class ToGlobal(AddressSpaceWrapper):
    def __init__(self, f: FunDecl):
        super().__init__(f, AddressSpace.GLOBAL)


class ToLocal(AddressSpaceWrapper):
    def __init__(self, f: FunDecl):
        super().__init__(f, AddressSpace.LOCAL)


class ToPrivate(AddressSpaceWrapper):
    def __init__(self, f: FunDecl):
        super().__init__(f, AddressSpace.PRIVATE)


# ---------------------------------------------------------------------------
# vectorization patterns
# ---------------------------------------------------------------------------

class AsVector(Pattern):
    """Reinterpret ``[S]_n`` as ``[S<w>]_{n/w}``."""

    __slots__ = payload = ("width",)

    def __init__(self, width: int):
        self.width = width

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "asVector")
        if not isinstance(arr.elem, ScalarType):
            raise LiftTypeError(f"asVector expects scalars, got {arr.elem}")
        return ArrayType(
            VectorType(arr.elem, self.width), simplify(arr.length // Cst(self.width))
        )


class AsScalar(Pattern):
    """Reinterpret ``[S<w>]_n`` as ``[S]_{n*w}``."""

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        arr = _expect_array(arg_types[0], "asScalar")
        if not isinstance(arr.elem, VectorType):
            raise LiftTypeError(f"asScalar expects vectors, got {arr.elem}")
        return ArrayType(arr.elem.elem, _mul_exact(arr.length, Cst(arr.elem.width)))


def vectorize(uf: UserFun, width: int) -> UserFun:
    """The paper's ``mapVec``/vectorize transformation for user functions."""
    return uf.vectorized(width)

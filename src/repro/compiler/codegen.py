"""OpenCL code generation from the Lift IR (paper section 5.5).

The generator traverses the IR graph following the data flow and emits a
matching OpenCL snippet for every pattern:

* no code for data-layout patterns — their effect lives in the views;
* ``for`` loops for the map variants (parallel ones strided by
  ``get_local_size``/``get_global_size``/``get_num_groups``);
* an accumulation loop for ``reduceSeq``;
* a double-buffered loop with a runtime ``size`` variable for ``iterate``
  (Figure 7 lines 17-29);
* barriers after ``mapLcl`` and after each ``iterate`` step unless
  eliminated (section 5.4, :mod:`repro.compiler.barriers`);
* control-flow simplification turns a map loop into a plain statement
  when the trip count provably equals the thread count and into an ``if``
  when provably smaller (Figure 7 lines 9, 20 and 30).

Array accesses are produced by consuming views (section 5.3); the
resulting index expressions are passed through the arithmetic simplifier
only when array-access simplification is enabled.

Memory for a result nobody passed a destination for — a staged scalar, a
whole map intermediate or a ``reduceSeq`` array accumulator — follows
section 5.2's multiplier rule (``KernelGenerator._alloc_staged``,
:mod:`repro.compiler.memory`): local and global memory get one copy per
index of every enclosing parallel map whose work-items share them,
private memory only the producing work-item's own slots.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.arith import ArithExpr, Cst, Range, Var, simplify
from repro.arith.expr import IntDiv, Log2, Mod, Pow, Prod, Sum, free_vars
from repro.arith.expr import LoadIndex as LoadIndexNode
from repro.arith.simplify import exact_quotient, prove_lt
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
    Literal,
    Param,
    UserFun,
)
from repro.ir import patterns as pat
from repro.ir.typecheck import infer_fun_type, infer_types
from repro.ir.visit import body_of, unwrap
from repro.compiler import cast as c
from repro.compiler.address_space import infer_address_spaces
from repro.compiler.barriers import find_removable_barriers, step_ends_in_barrier
from repro.compiler.hoist import hoist
from repro.compiler.memory import (
    Memory,
    MemoryAllocator,
    Threads,
    per_thread_type,
)
from repro.compiler.options import CompilerOptions
from repro.compiler.views import (
    Access,
    ArrayAccessView,
    AsScalarView,
    AsVectorView,
    GatherView,
    JoinView,
    MemView,
    ScatterView,
    SlideView,
    SplitView,
    TransposeView,
    TupleAccessView,
    View,
    ViewConsumptionError,
    ZipView,
    consume,
    layout_patterns,
)


class CodeGenError(Exception):
    """The program cannot be compiled to OpenCL."""


@dataclass
class WriteDest:
    """Where the value currently being generated must be stored."""

    memory: Memory
    view: View


@dataclass
class GenResult:
    """What a recursive generation step produced."""

    view: View
    wrote: bool


@dataclass
class KernelParamInfo:
    name: str
    kind: str  # "in_buffer" | "out_buffer" | "scalar" | "size"
    scalar_type: str
    count: Optional[ArithExpr] = None


@dataclass
class CompiledKernel:
    """A generated kernel plus the metadata the runtime harness needs."""

    name: str
    source: str
    params: list
    out_type: DataType
    out_count: ArithExpr
    size_var_names: list
    options: CompilerOptions

    def scalar_out_type(self) -> str:
        t = self.out_type
        while isinstance(t, ArrayType):
            t = t.elem
        if isinstance(t, VectorType):
            return t.elem.name
        if isinstance(t, ScalarType):
            return t.name
        raise CodeGenError(f"unsupported output element type {t}")


_MAP_KINDS = {pat.MapGlb: "glb", pat.MapWrg: "wrg", pat.MapLcl: "lcl"}


def _map_name(kind: str, dim: int) -> str:
    return {"glb": "mapGlb", "wrg": "mapWrg", "lcl": "mapLcl"}[kind] + f"({dim})"


_LAYOUT_PATTERNS = (
    pat.Split,
    pat.Join,
    pat.Gather,
    pat.Scatter,
    pat.Transpose,
    pat.Slide,
    pat.Zip,
    pat.Get,
    pat.MakeTuple,
    pat.AsVector,
    pat.AsScalar,
    pat.Filter,
    pat.Head,
)


def _layout_only(f: FunDecl) -> bool:
    """True when the function only rearranges data (compiles to views)."""
    lam = f
    if isinstance(lam, pat.AddressSpaceWrapper):
        return False  # an address-space request implies materialization
    if not isinstance(lam, Lambda):
        return False

    def scan(e: Expr) -> bool:
        if isinstance(e, Param):
            return True
        if isinstance(e, FunCall):
            g = e.f
            if isinstance(g, Lambda):
                return scan(g.body) and all(scan(a) for a in e.args)
            if isinstance(g, _LAYOUT_PATTERNS):
                return all(scan(a) for a in e.args)
            if isinstance(g, pat.AbstractMap):
                return _layout_only(g.f) and scan(e.args[0])
            return False
        return False

    return scan(lam.body)


def _c_type_name(t: DataType) -> str:
    if isinstance(t, ScalarType):
        return t.name
    if isinstance(t, VectorType):
        return t.name
    if isinstance(t, TupleType):
        return t.name
    raise CodeGenError(f"no C name for {t}")


class KernelGenerator:
    def __init__(self, options: CompilerOptions):
        self.opts = options
        self.alloc = MemoryAllocator()
        self.user_funs: dict[str, UserFun] = {}
        self.tuple_types: dict[str, TupleType] = {}
        self.removable: set[int] = set()
        self.pre_block = c.CBlock()  # kernel-top declarations
        self._lcl_depth = 0  # nesting level of mapLcl constructs
        #: Enclosing parallel map loops as (kind, index var, trip count):
        #: staging allocations inside them get one slot per work-item
        #: (see :meth:`_staging_wrap`).
        self._par_stack: list = []
        #: Index variable name -> (kind, dim) of every parallel map loop
        #: opened so far: who owns an element of a spread private value.
        self._par_vars: dict = {}
        self._out_mem: Optional[Memory] = None
        #: Has a load or store since the last emitted barrier touched
        #: memory work-items share (barrier rule 4)?
        self._shared_touched = False

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def compile(self, fun: Lambda) -> CompiledKernel:
        out_type = infer_types(fun.body)
        infer_address_spaces(fun)
        if self.opts.barrier_elimination:
            self.removable = find_removable_barriers(fun.body)

        params: list[KernelParamInfo] = []
        for p in fun.params:
            if p.type is None:
                raise CodeGenError(f"kernel parameter {p.name} has no type")
            if isinstance(p.type, ArrayType):
                mem = MemoryAllocator.for_param(p.name, p.type, AddressSpace.GLOBAL)
                params.append(
                    KernelParamInfo(p.name, "in_buffer", mem.scalar_type.name, mem.count)
                )
            else:
                mem = MemoryAllocator.for_param(p.name, p.type, AddressSpace.PRIVATE)
                params.append(KernelParamInfo(p.name, "scalar", _c_type_name(p.type)))
            p.mem = mem
            p.view = MemView(mem, p.type)

        if not isinstance(out_type, ArrayType):
            raise CodeGenError("kernel result must be an array")
        out_mem = MemoryAllocator.for_param("out", out_type, AddressSpace.GLOBAL)
        self._out_mem = out_mem
        params.append(
            KernelParamInfo("out", "out_buffer", out_mem.scalar_type.name, out_mem.count)
        )

        body_block = c.CBlock()
        dest = WriteDest(out_mem, MemView(out_mem, out_type))
        result = self.gen(fun.body, body_block, dest)
        if not result.wrote:
            raise CodeGenError(
                "the program performs no writes; materialize the result "
                "with a map(id) as the paper's examples do"
            )

        for mem in self.alloc.global_temps:
            params.append(
                KernelParamInfo(mem.name, "temp_buffer", mem.scalar_type.name, mem.count)
            )

        size_vars = sorted(
            {v.name for p in fun.params for v in free_vars(self._type_len_vars(p.type))}
            | {v.name for v in free_vars(self._type_len_vars(out_type))}
        )
        for name in size_vars:
            params.append(KernelParamInfo(name, "size", "int"))

        self._collect_declarations()
        source = self._render(params, hoist(body_block, params))
        return CompiledKernel(
            name=self.opts.kernel_name,
            source=source,
            params=params,
            out_type=out_type,
            out_count=out_mem.count,
            size_var_names=size_vars,
            options=self.opts,
        )

    @staticmethod
    def _type_len_vars(t: DataType) -> ArithExpr:
        total = Cst(1)
        while isinstance(t, ArrayType):
            total = total * simplify(t.length)
            t = t.elem
        return total

    # ------------------------------------------------------------------
    # recursive generation
    # ------------------------------------------------------------------
    def gen(self, expr: Expr, block: c.CBlock, dest: Optional[WriteDest]) -> GenResult:
        if isinstance(expr, Param):
            if expr.view is None:
                raise CodeGenError(f"parameter {expr.name} has no bound view")
            return GenResult(expr.view, wrote=False)
        if isinstance(expr, Literal):
            raise CodeGenError("literals only appear as user-function arguments")
        if not isinstance(expr, FunCall):
            raise CodeGenError(f"cannot generate {expr!r}")

        f = unwrap(expr.f)

        if isinstance(f, Lambda):
            for p, a in zip(f.params, expr.args):
                p.view = self.gen(a, block, None).view
            return self.gen(f.body, block, dest)

        if isinstance(f, UserFun):
            return self._gen_user_fun(expr, f, block, dest)

        if isinstance(f, pat.AbstractMap) and _layout_only(f.f):
            # A map whose function performs no computation is itself a
            # data-layout pattern and compiles to a view (this is how the
            # paper's 2D stencil composition map(transpose) o slide o
            # map(slide) stays allocation-free).
            if dest is not None:
                raise CodeGenError(
                    "cannot write through a view-only map; route the "
                    "output through scatter or materialize with map(id)"
                )
            arg_r = self.gen(expr.args[0], block, None)
            lam = unwrap(f.f)
            assert isinstance(lam, Lambda)

            def elem_fn(elem_view, lam=lam):
                lam.params[0].view = elem_view
                return self.gen(lam.body, c.CBlock(), None).view

            from repro.compiler.views import MappedView

            return GenResult(MappedView(arg_r.view, elem_fn), wrote=False)

        if isinstance(f, pat.MapSeq):
            return self._gen_map(expr, f, block, dest, kind="seq")
        if type(f) in _MAP_KINDS:
            return self._gen_map(expr, f, block, dest, kind=_MAP_KINDS[type(f)])
        if isinstance(f, (pat.Map, pat.Reduce)) and not isinstance(
            f, (pat.MapSeq, pat.ReduceSeq)
        ):
            raise CodeGenError(
                f"high-level pattern {type(f).__name__} must be lowered "
                "(see repro.rewrite) before code generation"
            )
        if isinstance(f, pat.ReduceSeq):
            return self._gen_reduce(expr, f, block, dest)
        if isinstance(f, pat.Iterate):
            return self._gen_iterate(expr, f, block, dest)

        # ---- data-layout patterns: views only -------------------------
        if isinstance(f, pat.Split):
            # On the write path the destination is viewed through the
            # inverse transformation: writers below a split see the
            # destination joined (Lift's output-view pass).
            inner_dest = dest
            if dest is not None:
                inner_dest = WriteDest(dest.memory, JoinView(dest.view, f.n))
            inner = self.gen(expr.args[0], block, inner_dest)
            return GenResult(SplitView(inner.view, f.n), inner.wrote)
        if isinstance(f, pat.Join):
            arg_t = expr.args[0].type
            assert isinstance(arg_t, ArrayType) and isinstance(arg_t.elem, ArrayType)
            inner_dest = dest
            if dest is not None:
                inner_dest = WriteDest(
                    dest.memory, SplitView(dest.view, arg_t.elem.length)
                )
            inner = self.gen(expr.args[0], block, inner_dest)
            return GenResult(JoinView(inner.view, arg_t.elem.length), inner.wrote)
        if isinstance(f, pat.Gather):
            # Read-side reorder only: a destination cannot pass through
            # (that would need the inverse permutation); writers below a
            # gather materialize into their own memory.
            arg_t = expr.args[0].type
            assert isinstance(arg_t, ArrayType)
            inner = self.gen(expr.args[0], block, None)
            return GenResult(
                GatherView(inner.view, f.idx_fun, arg_t.length), wrote=False
            )
        if isinstance(f, pat.Scatter):
            return self._gen_scatter(expr, f, block, dest)
        if isinstance(f, pat.Transpose):
            # Transpose is its own inverse: writers below it write the
            # destination with swapped indices.
            inner_dest = dest
            if dest is not None:
                inner_dest = WriteDest(dest.memory, TransposeView(dest.view))
            inner = self.gen(expr.args[0], block, inner_dest)
            return GenResult(TransposeView(inner.view), inner.wrote)
        if isinstance(f, pat.Slide):
            inner = self.gen(expr.args[0], block, None)
            return GenResult(SlideView(inner.view, f.size, f.step), wrote=False)
        if isinstance(f, pat.Head):
            inner_dest = dest
            if dest is not None:
                from repro.compiler.views import DropIndexView

                inner_dest = WriteDest(dest.memory, DropIndexView(dest.view))
            inner = self.gen(expr.args[0], block, inner_dest)
            return GenResult(
                ArrayAccessView(inner.view, Cst(0)), inner.wrote
            )
        if isinstance(f, pat.Filter):
            from repro.compiler.views import FilterView

            data = self.gen(expr.args[0], block, None)
            idx = self.gen(expr.args[1], block, None)
            return GenResult(FilterView(data.view, idx.view), wrote=False)
        if isinstance(f, pat.Zip):
            views = []
            for a in expr.args:
                r = self.gen(a, block, None)
                views.append(r.view)
            return GenResult(ZipView(tuple(views)), wrote=False)
        if isinstance(f, pat.Get):
            inner = self.gen(expr.args[0], block, None)
            return GenResult(TupleAccessView(inner.view, f.index), wrote=False)
        if isinstance(f, pat.AsVector):
            inner_dest = dest
            if dest is not None:
                inner_dest = WriteDest(dest.memory, AsScalarView(dest.view, f.width))
            inner = self.gen(expr.args[0], block, inner_dest)
            return GenResult(AsVectorView(inner.view, f.width), inner.wrote)
        if isinstance(f, pat.AsScalar):
            arg_t = expr.args[0].type
            assert isinstance(arg_t, ArrayType) and isinstance(arg_t.elem, VectorType)
            width = arg_t.elem.width
            inner_dest = dest
            if dest is not None:
                inner_dest = WriteDest(dest.memory, AsVectorView(dest.view, width))
            inner = self.gen(expr.args[0], block, inner_dest)
            return GenResult(AsScalarView(inner.view, width), inner.wrote)
        if isinstance(f, pat.Pad):
            raise CodeGenError(
                "pad is not supported by the OpenCL backend; pre-pad the "
                "input instead (the reference kernels do the same)"
            )
        if isinstance(f, pat.MakeTuple):
            raise CodeGenError(
                "tuple construction only appears as a reduction initializer"
            )
        raise CodeGenError(f"no code generation rule for {type(f).__name__}")

    # ------------------------------------------------------------------
    # user functions
    # ------------------------------------------------------------------
    def _gen_user_fun(
        self, call: FunCall, f: UserFun, block: c.CBlock, dest: Optional[WriteDest]
    ) -> GenResult:
        self._register_user_fun(f)
        args = [self._value_of(a, block) for a in call.args]
        value: c.CExpr = c.CCall(f.name, args)
        if dest is None:
            # A value materialized without a destination is a staging
            # slot in the address space Algorithm 1 inferred for it.
            space = call.addr_space or AddressSpace.PRIVATE
            _, view = self._alloc_staged(call.type, space)
            self._emit_store(view, call.type, value, block)
            return GenResult(view, wrote=True)
        self._emit_store(dest.view, call.type, value, block)
        return GenResult(MemView(dest.memory, call.type), wrote=True)

    def _alloc_staged(
        self,
        logical: DataType,
        space: AddressSpace,
        producer: Optional[FunDecl] = None,
    ) -> tuple:
        """Allocate a destination-less result; returns ``(memory, view)``.

        Section 5.2's multiplier rule.  A buffer in local or global memory
        is multiplied by the trip count of every enclosing parallel map
        whose work-items share that memory — one shared copy would be
        written concurrently by all of them, and barrier elimination
        (section 5.4) is only sound on top of per-index copies.  A private
        buffer is per work-item already, so the dimensions the parallel
        maps of ``producer`` spread over work-items are divided instead
        (:meth:`_thread_spread`).  The returned view is already indexed
        by the enclosing maps' loop variables, so readers and writers see
        a value of type ``logical``."""
        if space == AddressSpace.PRIVATE:
            threads = self._thread_spread(producer, logical)
            mem = self.alloc.alloc(per_thread_type(logical, threads), space)
            return mem, MemView(mem, logical, threads)
        wrap = self._staging_wrap(space)
        multiplied = logical
        for _, length in reversed(wrap):
            multiplied = ArrayType(multiplied, length)
        mem = self.alloc.alloc(multiplied, space)
        view: View = MemView(mem, multiplied)
        for idx, _ in wrap:
            view = ArrayAccessView(view, idx)
        return mem, view

    def _thread_spread(self, producer: Optional[FunDecl], t: DataType) -> tuple:
        """Per leading dimension of the private value ``producer`` writes:
        the :class:`Threads` of the parallel map that writes it, ``None``
        under a sequential one.  Follows the map nest through the
        destination position (a map body that is itself a map)."""
        threads: list = []
        f = unwrap(producer) if producer is not None else None
        while isinstance(f, pat.AbstractMap) and isinstance(t, ArrayType):
            threads.append(
                self._threads_of(f, t.length)
                if isinstance(f, pat.ParallelMap)
                else None
            )
            t = t.elem
            body = body_of(f)
            while isinstance(body, FunCall) and isinstance(body.f, Lambda):
                body = body.f.body
            f = unwrap(body.f) if isinstance(body, FunCall) else None
        while threads and threads[-1] is None:
            threads.pop()
        return tuple(threads)

    def _threads_of(self, f: pat.ParallelMap, n: ArithExpr) -> Threads:
        """How many work-items ``f`` spreads its ``n`` elements over."""
        kind = _MAP_KINDS[type(f)]
        count = self._thread_count(kind, f.dim)
        n = simplify(n)
        if n == Cst(1):
            count = 1  # one slot, whatever the launch
        if count is None or n.try_int() is None:
            raise CodeGenError(
                f"a private value produced by {_map_name(kind, f.dim)} over "
                f"{n} elements needs ceil({n} / work-items) slots per "
                "work-item, a static number: "
                + (
                    "set CompilerOptions.global_size"
                    if count is None
                    else "specialize the length"
                )
            )
        return Threads(kind, f.dim, count)

    def _staging_wrap(self, space: AddressSpace) -> list:
        """The ``(index, trip count)`` multipliers of :meth:`_alloc_staged`.

        Private memory is per-thread already.  Local memory is shared by
        the work-items of one group, so slots are needed per enclosing
        ``mapLcl``/``mapGlb`` index; global memory additionally per
        ``mapWrg`` index.  A symbolic local trip count cannot size a
        local array — those keep the (pre-existing) shared cell.
        """
        if space == AddressSpace.PRIVATE:
            return []
        kinds = ("lcl", "glb") if space == AddressSpace.LOCAL else (
            "lcl", "glb", "wrg"
        )
        wrap = [
            (idx, n)
            for kind, idx, n in self._par_stack
            if kind in kinds
        ]
        if space == AddressSpace.LOCAL and any(
            simplify(n).try_int() is None for _, n in wrap
        ):
            return []
        return wrap

    def _register_user_fun(self, f: UserFun) -> None:
        existing = self.user_funs.get(f.name)
        if existing is not None and existing is not f and existing.body != f.body:
            raise CodeGenError(f"two different user functions named {f.name}")
        self.user_funs[f.name] = f
        for t in tuple(f.in_types) + (f.out_type,):
            if isinstance(t, TupleType):
                self.tuple_types[t.name] = t

    # ------------------------------------------------------------------
    # maps
    # ------------------------------------------------------------------
    def _gen_map(
        self,
        call: FunCall,
        f: pat.AbstractMap,
        block: c.CBlock,
        dest: Optional[WriteDest],
        kind: str,
    ) -> GenResult:
        arg = call.args[0]
        arg_result = self.gen(arg, block, None)
        assert isinstance(call.type, ArrayType)
        n = simplify(call.type.length)

        if dest is None:
            # An intermediate result: one copy per enclosing parallel-map
            # index (two mapLcl(1) rows staging through one shared row
            # would race), and that indexed view is what readers get.
            space = call.addr_space or AddressSpace.GLOBAL
            mem, result_view = self._alloc_staged(call.type, space, f)
            dest = WriteDest(mem, result_view)
        else:
            result_view = dest.view

        lam = unwrap(f.f)
        if not isinstance(lam, Lambda):
            raise CodeGenError("map function must be a lambda after canonicalization")

        if isinstance(f, pat.MapSeqUnroll):
            trip = simplify(n).try_int()
            if trip is None:
                raise CodeGenError("mapSeqUnroll requires a concrete length")
            for j in range(trip):
                lam.params[0].view = ArrayAccessView(arg_result.view, Cst(j))
                inner = self.gen(lam.body, block, self._wrap_dest(dest, Cst(j), kind))
                if not inner.wrote:
                    raise CodeGenError("map bodies must write memory")
            return GenResult(result_view, wrote=True)

        body_block, idx = self._open_map_loop(block, n, kind, f)
        elem_view = ArrayAccessView(arg_result.view, idx)
        inner_dest = self._wrap_dest(dest, idx, kind)

        lam.params[0].view = elem_view
        parallel = kind in ("lcl", "wrg", "glb")
        if kind == "lcl":
            self._lcl_depth += 1
        if parallel:
            self._par_stack.append((kind, idx, n))
        try:
            inner = self.gen(lam.body, body_block, inner_dest)
        finally:
            if parallel:
                self._par_stack.pop()
            if kind == "lcl":
                self._lcl_depth -= 1
        if not inner.wrote:
            raise CodeGenError(
                "map bodies must write memory; insert id copies to "
                "materialize values (paper section 5.2)"
            )

        if kind == "lcl" and self._lcl_depth == 0:
            # Only the outermost mapLcl of a nest synchronizes: an inner
            # barrier would sit inside a (possibly non-uniform) loop,
            # which OpenCL forbids.
            self._emit_barrier_after_map_lcl(call, dest.memory.space, block)
        return GenResult(result_view, wrote=True)

    def _emit_barrier(self, fence: str, block: c.CBlock) -> None:
        block.add(c.CBarrier(fence))
        self._shared_touched = False

    def _wrap_dest(self, dest: WriteDest, idx: ArithExpr, kind: str) -> WriteDest:
        if dest.memory.space == AddressSpace.LOCAL and kind in ("wrg", "glb"):
            return dest
        return WriteDest(dest.memory, ArrayAccessView(dest.view, idx))

    def _emit_barrier_after_map_lcl(
        self, call: FunCall, written: AddressSpace, block: c.CBlock
    ) -> None:
        """``written`` is the space of the memory the map stored into —
        what the fence must order (the inferred ``call.addr_space`` is
        "global" for a ``reduceSeq`` body over ``zip(local, global)``
        even when its accumulator lives in local memory)."""
        if id(call) in self.removable:
            return  # rules 1 and 2
        if self.opts.barrier_elimination and not self._shared_touched:
            return  # rule 4: nothing shared was touched since the last one
        self._emit_barrier(
            "CLK_GLOBAL_MEM_FENCE"
            if written == AddressSpace.GLOBAL
            else "CLK_LOCAL_MEM_FENCE",
            block,
        )

    # ------------------------------------------------------------------
    # loop emission with control-flow simplification
    # ------------------------------------------------------------------
    def _open_map_loop(
        self, block: c.CBlock, n: ArithExpr, kind: str, f: pat.AbstractMap
    ) -> tuple:
        """Emit the loop (or simplified form) and return (body_block, idx)."""
        cf = self.opts.control_flow_simplification
        n_int = simplify(n).try_int()

        if kind == "seq":
            if cf and n_int == 1:
                return block, Cst(0)
            idx = Var.fresh("i", Range.of(0, n))
            body = c.CBlock()
            block.add(
                c.CFor(
                    c.CDecl("int", idx.name, init=c.CInt(0)),
                    c.CBinOp("<", c.CIdent(idx.name), self._arith(n)),
                    c.CAssign(c.CIdent(idx.name), c.CInt(1), op="+="),
                    body,
                )
            )
            return body, idx

        dim = f.dim if isinstance(f, pat.ParallelMap) else 0
        getter, size_getter, prefix = {
            "lcl": ("get_local_id", "get_local_size", "l_id"),
            "wrg": ("get_group_id", "get_num_groups", "wg_id"),
            "glb": ("get_global_id", "get_global_size", "g_id"),
        }[kind]

        thread_count = self._thread_count(kind, dim)
        idx = Var.fresh(prefix, Range.of(0, n))
        self._par_vars[idx.name] = (kind, dim)

        if cf and thread_count is not None and n_int is not None and n_int == thread_count:
            block.add(
                c.CDecl("int", idx.name, init=c.CCall(getter, [c.CInt(dim)]))
            )
            return block, idx

        if cf and thread_count is not None and prove_lt(n, Cst(thread_count)):
            block.add(
                c.CDecl("int", idx.name, init=c.CCall(getter, [c.CInt(dim)]))
            )
            body = c.CBlock()
            block.add(
                c.CIf(c.CBinOp("<", c.CIdent(idx.name), self._arith(n)), body)
            )
            return body, idx

        stride: c.CExpr
        if cf and thread_count is not None:
            stride = c.CInt(thread_count)
        else:
            stride = c.CCall(size_getter, [c.CInt(dim)])
        body = c.CBlock()
        block.add(
            c.CFor(
                c.CDecl("int", idx.name, init=c.CCall(getter, [c.CInt(dim)])),
                c.CBinOp("<", c.CIdent(idx.name), self._arith(n)),
                c.CAssign(c.CIdent(idx.name), stride, op="+="),
                body,
            )
        )
        return body, idx

    def _thread_count(self, kind: str, dim: int) -> Optional[int]:
        if kind == "lcl":
            return self.opts.local_size[dim]
        if kind == "glb":
            return self.opts.global_size[dim]
        if kind == "wrg":
            g = self.opts.global_size[dim]
            if g is None:
                return None
            return g // self.opts.local_size[dim]
        return None

    # ------------------------------------------------------------------
    # reduce
    # ------------------------------------------------------------------
    def _gen_reduce(
        self,
        call: FunCall,
        f: pat.ReduceSeq,
        block: c.CBlock,
        dest: Optional[WriteDest],
    ) -> GenResult:
        init_expr, arr_expr = call.args
        arr = self.gen(arr_expr, block, None)
        assert isinstance(arr_expr.type, ArrayType)
        n = simplify(arr_expr.type.length)
        acc_type = init_expr.type
        assert acc_type is not None

        acc_view: View
        if isinstance(acc_type, ArrayType):
            space = call.addr_space or AddressSpace.PRIVATE
            if space == AddressSpace.PRIVATE:
                # The initializer writes the accumulator: its maps say
                # how it is spread over work-items.
                producer = init_expr.f if isinstance(init_expr, FunCall) else None
                acc_mem, acc_view = self._alloc_staged(acc_type, space, producer)
            else:
                # One copy: the result is handed on as a one-element array
                # over this buffer, which the indexed view of a multiplied
                # buffer could not express.
                acc_mem = self.alloc.alloc(acc_type, space)
                acc_view = MemView(acc_mem, acc_type)
            init_result = self.gen(init_expr, block, WriteDest(acc_mem, acc_view))
            if not init_result.wrote:
                raise CodeGenError(
                    "array-accumulator reductions need a writing initializer "
                    "(copy it with map(id))"
                )
        else:
            acc_mem = self.alloc.alloc(acc_type, AddressSpace.PRIVATE)
            acc_view = MemView(acc_mem, acc_type)
            self._emit_init_value(init_expr, acc_view, acc_type, block)

        lam = unwrap(f.f)
        assert isinstance(lam, Lambda)

        if isinstance(f, pat.ReduceSeqUnroll):
            trip = simplify(n).try_int()
            if trip is None:
                raise CodeGenError("reduceSeqUnroll requires a concrete length")
            for j in range(trip):
                lam.params[0].view = acc_view
                lam.params[1].view = ArrayAccessView(arr.view, Cst(j))
                self.gen(lam.body, block, WriteDest(acc_mem, acc_view))
        else:
            body_block, idx = self._open_reduce_loop(block, n)
            elem_view = ArrayAccessView(arr.view, idx)
            lam.params[0].view = acc_view
            lam.params[1].view = elem_view
            self.gen(lam.body, body_block, WriteDest(acc_mem, acc_view))

        if dest is not None:
            # The reduction is the last producer in its chain: copy the
            # accumulator to the destination (usually the paper routes
            # this through an explicit toGlobal/toLocal map(id) instead).
            if isinstance(acc_type, ArrayType):
                raise CodeGenError(
                    "array-accumulator reductions must be copied out with "
                    "an explicit map(id)"
                )
            value = self._load(acc_view, acc_type)
            self._emit_store(
                ArrayAccessView(dest.view, Cst(0)), acc_type, value, block
            )
            return GenResult(dest.view, wrote=True)

        # The result is the accumulator as a one-element array.
        assert isinstance(acc_view, MemView)
        threads = (None,) + acc_view.threads if acc_view.threads else ()
        return GenResult(
            MemView(acc_mem, ArrayType(acc_type, Cst(1)), threads), wrote=True
        )

    def _open_reduce_loop(self, block: c.CBlock, n: ArithExpr) -> tuple:
        if self.opts.control_flow_simplification and simplify(n).try_int() == 1:
            return block, Cst(0)
        idx = Var.fresh("i", Range.of(0, n))
        body = c.CBlock()
        block.add(
            c.CFor(
                c.CDecl("int", idx.name, init=c.CInt(0)),
                c.CBinOp("<", c.CIdent(idx.name), self._arith(n)),
                c.CAssign(c.CIdent(idx.name), c.CInt(1), op="+="),
                body,
            )
        )
        return body, idx

    def _emit_init_value(
        self, init: Expr, acc_view: View, acc_type: DataType, block: c.CBlock
    ) -> None:
        if isinstance(init, FunCall) and isinstance(init.f, pat.MakeTuple):
            assert isinstance(acc_type, TupleType)
            self.tuple_types[acc_type.name] = acc_type
            for i, (component, t) in enumerate(zip(init.args, acc_type.elems)):
                target = self._store_target(
                    TupleAccessView(acc_view, i), t
                )
                block.add(c.CAssign(target, self._value_of(component, block)))
            return
        value = self._value_of(init, block)
        self._emit_store(acc_view, acc_type, value, block)

    # ------------------------------------------------------------------
    # iterate
    # ------------------------------------------------------------------
    def _gen_iterate(
        self,
        call: FunCall,
        f: pat.Iterate,
        block: c.CBlock,
        dest: Optional[WriteDest],
    ) -> GenResult:
        arg = call.args[0]
        arg_result = self.gen(arg, block, None)
        assert isinstance(arg.type, ArrayType)
        n0 = simplify(arg.type.length)
        elem_type = arg.type.elem
        space = call.addr_space or AddressSpace.LOCAL

        in_base = self._flat_base_memory(arg_result.view)
        if in_base is None or in_base.space != space:
            raise CodeGenError(
                "iterate input must be a contiguous buffer in the iterate's "
                "address space"
            )

        buf = self.alloc.alloc(ArrayType(elem_type, n0), space)

        scalar = buf.scalar_type.name
        qual = str(space)
        in_ptr = Memory(
            f"{buf.name}_in", space, buf.scalar_type, buf.count, buf.logical_type
        )
        out_ptr = Memory(
            f"{buf.name}_out", space, buf.scalar_type, buf.count, buf.logical_type
        )
        block.add(
            c.CDecl(scalar, in_ptr.name, qualifier=qual, is_pointer=True,
                    init=c.CIdent(in_base.name))
        )
        block.add(
            c.CDecl(scalar, out_ptr.name, qualifier=qual, is_pointer=True,
                    init=c.CIdent(buf.name))
        )

        size_var = Var.fresh("size", Range.of(1, simplify(n0 + 1)))
        block.add(c.CDecl("int", size_var.name, init=self._arith(n0)))

        # Re-infer the body with the runtime size variable so that all the
        # types (and therefore all the views) inside speak in terms of it.
        lam = unwrap(f.f)
        assert isinstance(lam, Lambda)
        g_type = infer_fun_type(lam, [ArrayType(elem_type, size_var)])
        assert isinstance(g_type, ArrayType)

        iter_idx = Var.fresh("iter", Range.of(0, f.n))
        loop_body = c.CBlock()
        block.add(
            c.CFor(
                c.CDecl("int", iter_idx.name, init=c.CInt(0)),
                c.CBinOp("<", c.CIdent(iter_idx.name), self._arith(f.n)),
                c.CAssign(c.CIdent(iter_idx.name), c.CInt(1), op="+="),
                loop_body,
            )
        )

        lam.params[0].view = MemView(in_ptr, ArrayType(elem_type, size_var))
        inner_dest = WriteDest(out_ptr, MemView(out_ptr, g_type))
        inner = self.gen(lam.body, loop_body, inner_dest)
        if not inner.wrote:
            raise CodeGenError("iterate bodies must write memory")

        loop_body.add(
            c.CAssign(c.CIdent(size_var.name), self._arith(g_type.length))
        )
        # Swap the double buffers (Figure 7 lines 27-28, with a plain temp).
        swap = f"{buf.name}_swap"
        loop_body.add(
            c.CDecl(scalar, swap, qualifier=qual, is_pointer=True,
                    init=c.CIdent(in_ptr.name))
        )
        loop_body.add(c.CAssign(c.CIdent(in_ptr.name), c.CIdent(out_ptr.name)))
        loop_body.add(c.CAssign(c.CIdent(out_ptr.name), c.CIdent(swap)))
        fenced = (
            self.opts.barrier_elimination
            and self._lcl_depth == 0
            and step_ends_in_barrier(lam.body, self.removable)
        )
        if space == AddressSpace.LOCAL and not fenced:
            self._emit_barrier("CLK_LOCAL_MEM_FENCE", loop_body)

        assert isinstance(call.type, ArrayType)
        final_view = MemView(in_ptr, call.type)
        return GenResult(final_view, wrote=True)

    def _flat_base_memory(self, view: View) -> Optional[Memory]:
        node = view
        while isinstance(node, (SplitView, JoinView)):
            node = node.parent
        if isinstance(node, MemView):
            return node.memory
        return None

    # ------------------------------------------------------------------
    # scatter (write-side reorder)
    # ------------------------------------------------------------------
    def _gen_scatter(
        self,
        call: FunCall,
        f: pat.Scatter,
        block: c.CBlock,
        dest: Optional[WriteDest],
    ) -> GenResult:
        assert isinstance(call.type, ArrayType)
        length = call.type.length
        if dest is None:
            space = call.addr_space or AddressSpace.GLOBAL
            mem = self.alloc.alloc(call.type, space)
            dest = WriteDest(mem, MemView(mem, call.type))
        wrapped = WriteDest(dest.memory, ScatterView(dest.view, f.idx_fun, length))
        inner = self.gen(call.args[0], block, wrapped)
        if not inner.wrote:
            raise CodeGenError("scatter requires a writing producer")
        return GenResult(MemView(dest.memory, call.type), wrote=True)

    # ------------------------------------------------------------------
    # values, loads and stores
    # ------------------------------------------------------------------
    def _value_of(self, expr: Expr, block: c.CBlock) -> c.CExpr:
        if isinstance(expr, Literal):
            return self._literal(expr)
        if isinstance(expr, FunCall) and isinstance(unwrap(expr.f), UserFun):
            uf = unwrap(expr.f)
            assert isinstance(uf, UserFun)
            self._register_user_fun(uf)
            return c.CCall(uf.name, [self._value_of(a, block) for a in expr.args])
        result = self.gen(expr, block, None)
        assert expr.type is not None
        if isinstance(expr.type, TupleType):
            return self._tuple_value(result.view, expr.type, block)
        return self._load(result.view, expr.type)

    def _tuple_value(self, view: View, t: TupleType, block: c.CBlock) -> c.CExpr:
        """A tuple value flowing whole into a user function.

        When the tuple already lives in a struct register, pass it
        directly; when it only exists as a zip view, materialize it
        member-wise into a fresh struct register (tuples are structs,
        paper section 5.1).
        """
        self.tuple_types[t.name] = t
        try:
            access = self._consume(view)
            if not access.tuple_path and access.memory.is_register:
                return c.CIdent(access.memory.name)
        except ViewConsumptionError:
            pass
        tmp = self.alloc.alloc(t, AddressSpace.PRIVATE)
        for i, elem_t in enumerate(t.elems):
            member = c.CMember(c.CIdent(tmp.name), f"_{i}")
            value = self._load(TupleAccessView(view, i), elem_t)
            block.add(c.CAssign(member, value))
        return c.CIdent(tmp.name)

    def _literal(self, lit: Literal) -> c.CExpr:
        t = lit.type
        if isinstance(t, VectorType):
            lanes = [c.CFloat(float(lit.value))] * t.width
            if t.elem == ScalarType("int", 4):
                lanes = [c.CInt(int(lit.value))] * t.width
            return c.CVectorLiteral(t.name, lanes)
        if t == ScalarType("int", 4):
            return c.CInt(int(lit.value))
        return c.CFloat(float(lit.value))

    def _consume(self, view: View, store: bool = False) -> Access:
        """:func:`consume`, plus the two things only the generator knows.

        *Ownership.*  An element of a private value spread over
        work-items exists in its owner's copy only, so its index must be
        the loop variable of a parallel map of the kind and dimension
        that produced it; and a dimension every work-item holds whole
        must be written whole — a store there may not depend on a
        work-item id (:mod:`repro.compiler.memory`).

        *Sharing.*  Records whether the access touches memory work-items
        share — anything but private memory, a load from a kernel input
        and a store to the kernel's result (barrier rule 4)."""
        access = consume(view)
        mem = access.memory
        for threads, idx in access.owned:
            if threads is not None or store:
                self._check_owner(mem, threads, idx, view)
        if self._is_shared(mem, store) or any(
            self._is_shared(loaded, False) for loaded in access.index_loads
        ):
            self._shared_touched = True
        return access

    def _is_shared(self, mem: Memory, store: bool) -> bool:
        if mem.space == AddressSpace.PRIVATE:
            return False
        if mem is self._out_mem:
            return not store  # nothing in the kernel reads its result
        return not mem.is_param  # an input is never written

    def _check_owner(
        self, mem: Memory, threads: Optional[Threads], idx: ArithExpr, view: View
    ) -> None:
        if not isinstance(idx, Var):  # (a Var of one value simplifies to it)
            idx = simplify(idx)
        if threads is None:
            foreign = [v.name for v in free_vars(idx) if v.name in self._par_vars]
            if not foreign:
                return
            problem = (
                f"element {idx} of a dimension every work-item holds whole is "
                f"written under {_map_name(*self._par_vars[foreign[0]])}"
            )
            advice = (
                "only the map nest directly under toPrivate spreads a "
                "private value over work-items"
            )
        else:
            owner = self._par_vars.get(idx.name) if isinstance(idx, Var) else None
            if owner == (threads.kind, threads.dim):
                return
            by = f"by {_map_name(*owner)}" if owner else f"at index {idx}"
            problem = (
                f"a dimension produced by {_map_name(threads.kind, threads.dim)} "
                f"is accessed {by}"
            )
            advice = (
                "a toPrivate value produced by a parallel map may only be "
                "consumed element-wise by a map of the same kind and dimension"
            )
        through = sorted(layout_patterns(view))
        raise CodeGenError(
            f"private memory {mem.name} is per work-item, but {problem}"
            + (f" (through {', '.join(through)})" if through else "")
            + f": {advice}"
        )

    def _load(self, view: View, value_type: DataType) -> c.CExpr:
        return self._access_expr(self._consume(view), value_type)

    def _store_target(self, view: View, value_type: DataType) -> c.CExpr:
        return self._access_expr(self._consume(view, store=True), value_type)

    def _emit_store(
        self, view: View, value_type: DataType, value: c.CExpr, block: c.CBlock
    ) -> None:
        access = self._consume(view, store=True)
        if isinstance(value_type, VectorType) and not access.memory.is_register:
            block.add(
                c.CExprStmt(
                    c.CCall(
                        f"vstore{value_type.width}",
                        [value, *self._vector_address(access, value_type.width)],
                    )
                )
            )
            return
        block.add(c.CAssign(self._access_expr(access, value_type), value))

    def _access_expr(self, access: Access, value_type: DataType) -> c.CExpr:
        mem = access.memory
        base: c.CExpr = c.CIdent(mem.name)
        if access.tuple_path:
            for component in access.tuple_path:
                base = c.CMember(base, f"_{component}")
            return base
        if mem.is_register:
            return base
        if isinstance(value_type, VectorType):
            return c.CCall(
                f"vload{value_type.width}",
                self._vector_address(access, value_type.width),
            )
        return c.CIndex(base, self._arith(access.index))

    def _vector_address(self, access: Access, width: int) -> list:
        """The ``(offset, pointer)`` arguments of ``vloadN``/``vstoreN``.

        ``vloadN(i, p)`` reads ``p[N*i .. N*i+N-1]``.  Array-access
        simplification addresses in those element units whenever the
        scalar index is provably a multiple of ``N``; otherwise (and at
        the lower levels) the offset is 0 and the index is pointer
        arithmetic."""
        base = c.CIdent(access.memory.name)
        if self.opts.array_access_simplification:
            element = exact_quotient(access.index, Cst(width))
            if element is not None:
                return [self._arith_raw(element), base]
        return [c.CInt(0), c.CBinOp("+", base, self._arith(access.index))]

    # ------------------------------------------------------------------
    # arithmetic emission
    # ------------------------------------------------------------------
    def _arith(self, e: ArithExpr) -> c.CExpr:
        if self.opts.array_access_simplification:
            e = simplify(e)
        return self._arith_raw(e)

    def _arith_raw(self, e: ArithExpr) -> c.CExpr:
        if isinstance(e, Cst):
            return c.CInt(e.value)
        if isinstance(e, Var):
            return c.CIdent(e.name)
        if isinstance(e, Sum):
            result = self._arith_raw(e.terms[0])
            for t in e.terms[1:]:
                result = c.CBinOp("+", result, self._arith_raw(t))
            return result
        if isinstance(e, Prod):
            result = self._arith_raw(e.factors[0])
            for t in e.factors[1:]:
                result = c.CBinOp("*", result, self._arith_raw(t))
            return result
        if isinstance(e, IntDiv):
            return c.CBinOp("/", self._arith_raw(e.numer), self._arith_raw(e.denom))
        if isinstance(e, Mod):
            return c.CBinOp("%", self._arith_raw(e.numer), self._arith_raw(e.denom))
        if isinstance(e, LoadIndexNode):
            return c.CCast(
                "int",
                c.CIndex(c.CIdent(e.memory_name), self._arith_raw(e.index)),
            )
        if isinstance(e, Pow):
            exp = e.exp.try_int()
            if exp is None or exp < 1 or exp > 8:
                raise CodeGenError(f"cannot emit power {e}")
            result = self._arith_raw(e.base)
            for _ in range(exp - 1):
                result = c.CBinOp("*", result, self._arith_raw(e.base))
            return result
        raise CodeGenError(f"cannot emit arithmetic node {e!r}")

    # ------------------------------------------------------------------
    # final assembly
    # ------------------------------------------------------------------
    def _collect_declarations(self) -> None:
        """Local and private buffers are declared at the kernel top
        (Figure 7 lines 4-6)."""
        decls: list = []
        for mem in self.alloc.locals:
            decls.append(
                c.CDecl(
                    mem.scalar_type.name,
                    mem.name,
                    qualifier="local",
                    array_size=mem.concrete_count(),
                )
            )
        for mem in self.alloc.privates:
            if mem.is_register:
                t = mem.logical_type
                while isinstance(t, ArrayType):
                    t = t.elem
                decls.append(c.CDecl(_c_type_name(t), mem.name))
            else:
                decls.append(
                    c.CDecl(
                        mem.scalar_type.name,
                        mem.name,
                        array_size=mem.concrete_count(),
                    )
                )
        self.pre_block.stmts = decls + list(self.pre_block.stmts)

    def _render(self, params: Sequence[KernelParamInfo], body: c.CBlock) -> str:
        pieces: list[str] = []
        for name, t in sorted(self.tuple_types.items()):
            members = "; ".join(
                f"{_c_type_name(e)} _{i}" for i, e in enumerate(t.elems)
            )
            pieces.append(f"typedef struct {{ {members}; }} {name};")

        for uf in self.user_funs.values():
            args = ", ".join(
                f"{_c_type_name(t)} {n}" for t, n in zip(uf.in_types, uf.param_names)
            )
            pieces.append(
                f"{_c_type_name(uf.out_type)} {uf.name}({args}) {{ {uf.body} }}"
            )

        c_params = []
        for p in params:
            if p.kind in ("in_buffer",):
                c_params.append(
                    c.CParam(p.scalar_type, p.name, ("const", "global"), True, True)
                )
            elif p.kind in ("out_buffer", "temp_buffer"):
                c_params.append(c.CParam(p.scalar_type, p.name, ("global",), True))
            else:
                c_params.append(c.CParam(p.scalar_type, p.name))

        full_body = c.CBlock(list(self.pre_block.stmts) + list(body.stmts))
        kernel = c.CFunctionDef("void", self.opts.kernel_name, c_params, full_body, True)
        pieces.append(c.print_function(kernel))
        return "\n\n".join(pieces) + "\n"


#: Whole-kernel compile memo.  The autotuner, the rewrite-space explorer
#: and repeated benchsuite runs compile structurally identical programs
#: over and over (every lowering recipe clones its input); keying the
#: finished :class:`CompiledKernel` on the canonical form of the program
#: (:mod:`repro.ir.structural`, so parameter renaming and cloning hit)
#: plus the (frozen, hashable) :class:`CompilerOptions` makes every
#: repeat compile a dictionary lookup.  Generated kernels are immutable
#: to their consumers, so sharing one instance is safe.
_COMPILE_MEMO: "OrderedDict[tuple, CompiledKernel]" = OrderedDict()
_COMPILE_MEMO_SIZE = 128
_COMPILE_MEMO_LOCK = threading.Lock()


def clear_compile_memo() -> None:
    with _COMPILE_MEMO_LOCK:
        _COMPILE_MEMO.clear()


def compile_kernel(
    fun: Lambda,
    options: Optional[CompilerOptions] = None,
    memo: bool = True,
) -> CompiledKernel:
    """Compile a Lift IL program (a lambda over arrays) to OpenCL.

    ``memo=False`` bypasses the structural-key compile memo (used by the
    compile-time benchmarks, which must measure a real compilation).

    The ``compile`` fault-injection site sits at this entry (before the
    memo, so chaos runs exercise it on every call); injected faults are
    absorbed by bounded in-place retries.
    """
    from repro import faultinject
    from repro.obs import span

    faultinject.survive("compile")
    options = options or CompilerOptions()
    if not memo:
        with span("compile", memo=False):
            return KernelGenerator(options).compile(fun)

    from repro.ir.structural import canonical

    # The span covers the memo lookup too: a hit shows up in the trace
    # as a near-zero "compile" with memo="hit" instead of vanishing.
    with span("compile") as compile_span:
        key = (canonical(fun), options)
        with _COMPILE_MEMO_LOCK:
            hit = _COMPILE_MEMO.get(key)
            if hit is not None:
                _COMPILE_MEMO.move_to_end(key)
                compile_span.attrs["memo"] = "hit"
                return hit
        compile_span.attrs["memo"] = "miss"
        kernel = KernelGenerator(options).compile(fun)
    with _COMPILE_MEMO_LOCK:
        _COMPILE_MEMO[key] = kernel
        while len(_COMPILE_MEMO) > _COMPILE_MEMO_SIZE:
            _COMPILE_MEMO.popitem(last=False)
    return kernel

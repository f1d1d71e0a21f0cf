"""Unit tests for the individual compiler passes.

The view-consumption tests mirror the paper's Figure 5 step by step; the
address-space tests exercise Algorithm 1's cases; the barrier tests check
the section 5.4 rules.
"""

import numpy as np
import pytest

from repro.arith import Cst, Range, Var, simplify
from repro.types import ArrayType, FLOAT, TupleType, array
from repro.ir.nodes import AddressSpace, FunCall, Lambda, Literal, Param
from repro.ir.dsl import (
    add,
    compose,
    f32,
    get,
    id_fun,
    join,
    lam,
    map_lcl,
    map_seq,
    map_wrg,
    reduce_seq,
    split,
    to_global,
    to_local,
    to_private,
    zip_,
)
from repro.ir.typecheck import infer_types
from repro.ir.patterns import reverse_indices
from repro.compiler.address_space import infer_address_spaces
from repro.compiler.barriers import find_removable_barriers
from repro.compiler.memory import Memory, MemoryAllocator, scalar_layout
from repro.compiler.views import (
    Access,
    ArrayAccessView,
    GatherView,
    JoinView,
    MemView,
    ScatterView,
    SlideView,
    SplitView,
    TransposeView,
    TupleAccessView,
    ViewConsumptionError,
    ZipView,
    consume,
)
from repro.types import VectorType


def mem(name="x", t=None, space=AddressSpace.GLOBAL):
    t = t if t is not None else ArrayType(FLOAT, Var("N"))
    scalar, count = scalar_layout(t)
    return Memory(name, space, scalar, count, t)


class TestFigure5Walkthrough:
    """The exact walk of the paper's Figure 5: the first access of the
    dot-product example, x[2*l_id + 128*wg_id + i]."""

    def test_dot_product_access(self):
        n = Var("N")
        x_mem = mem("x")
        y_mem = mem("y")
        wg_id = Var("wg_id", Range.of(0, n // 128))
        l_id = Var("l_id", Range.of(0, 64))
        i = Var("i", Range.of(0, 2))

        base = ZipView(
            (MemView(x_mem, ArrayType(FLOAT, n)), MemView(y_mem, ArrayType(FLOAT, n)))
        )
        split128 = SplitView(base, Cst(128))
        chunk = ArrayAccessView(split128, wg_id)
        split2 = SplitView(chunk, Cst(2))
        pair_row = ArrayAccessView(split2, l_id)
        elem = ArrayAccessView(pair_row, i)
        first = TupleAccessView(elem, 0)

        access = consume(first)
        assert access.memory is x_mem
        expected = simplify(Cst(2) * l_id + Cst(128) * wg_id + i)
        assert simplify(access.index) == expected

    def test_second_zip_component_reaches_y(self):
        n = Var("N")
        x_mem, y_mem = mem("x"), mem("y")
        base = ZipView(
            (MemView(x_mem, ArrayType(FLOAT, n)), MemView(y_mem, ArrayType(FLOAT, n)))
        )
        i = Var("i", Range.of(0, n))
        access = consume(TupleAccessView(ArrayAccessView(base, i), 1))
        assert access.memory is y_mem


class TestViewAlgebra:
    def test_split_then_join_is_identity(self):
        n = Var("N")
        m = mem()
        i = Var("i", Range.of(0, n))
        v = JoinView(SplitView(MemView(m, ArrayType(FLOAT, n)), Cst(8)), Cst(8))
        access = consume(ArrayAccessView(v, i))
        assert simplify(access.index) == i

    def test_transpose_swaps_indices(self):
        m = mem("a", array(FLOAT, 4, 8))
        r = Var("r", Range.of(0, 8))
        c_ = Var("c", Range.of(0, 4))
        v = TransposeView(MemView(m, array(FLOAT, 4, 8)))
        access = consume(ArrayAccessView(ArrayAccessView(v, r), c_))
        # transposed[r][c] = a[c][r] -> flat c*8 + r
        assert simplify(access.index) == simplify(c_ * 8 + r)

    def test_gather_applies_index_function(self):
        m = mem("x", ArrayType(FLOAT, 16))
        i = Var("i", Range.of(0, 16))
        v = GatherView(MemView(m, ArrayType(FLOAT, 16)), reverse_indices(), Cst(16))
        access = consume(ArrayAccessView(v, i))
        assert simplify(access.index) == simplify(Cst(15) - i)

    def test_slide_window_indexing(self):
        m = mem("x", ArrayType(FLOAT, 16))
        w = Var("w", Range.of(0, 14))
        e = Var("e", Range.of(0, 3))
        v = SlideView(MemView(m, ArrayType(FLOAT, 16)), Cst(3), Cst(1))
        access = consume(ArrayAccessView(ArrayAccessView(v, w), e))
        assert simplify(access.index) == simplify(w + e)

    def test_vector_element_width_scales_index(self):
        f4 = VectorType(FLOAT, 4)
        m = mem("p", ArrayType(f4, 8))
        i = Var("i", Range.of(0, 8))
        access = consume(ArrayAccessView(MemView(m, ArrayType(f4, 8)), i))
        assert simplify(access.index) == simplify(i * 4)

    def test_missing_tuple_selection_raises(self):
        m = mem()
        v = ZipView((MemView(m, ArrayType(FLOAT, 4)),) * 2)
        with pytest.raises(ViewConsumptionError):
            consume(ArrayAccessView(v, Cst(0)))

    def test_too_few_indices_raises(self):
        m = mem("a", array(FLOAT, 4, 8))
        with pytest.raises(ViewConsumptionError):
            consume(ArrayAccessView(MemView(m, array(FLOAT, 4, 8)), Cst(0)))

    def test_private_memory_drops_parallel_indices(self):
        """64 elements over 64 work-items: one slot each, index 0; the
        access reports which work-item must own the element."""
        from repro.compiler.memory import Threads

        m = mem("acc", ArrayType(FLOAT, 1), AddressSpace.PRIVATE)
        l_id = Var("l_id", Range.of(0, 64))
        spread = (Threads("lcl", 0, 64),)
        access = consume(
            ArrayAccessView(MemView(m, ArrayType(FLOAT, 64), spread), l_id)
        )
        assert simplify(access.index) == Cst(0)
        assert access.owned == ((spread[0], l_id),)
        assert m.is_register

    def test_private_memory_keeps_one_slot_per_strided_visit(self):
        """16 elements over 8 work-items: two slots, element idx in slot
        idx / 8 (section 5.2's private rule)."""
        from repro.compiler.memory import Threads, per_thread_type

        spread = (Threads("lcl", 0, 8),)
        whole = ArrayType(FLOAT, 16)
        assert per_thread_type(whole, spread) == ArrayType(FLOAT, 2)
        m = mem("acc", per_thread_type(whole, spread), AddressSpace.PRIVATE)
        l_id = Var("l_id", Range.of(0, 16))
        access = consume(ArrayAccessView(MemView(m, whole, spread), l_id))
        assert simplify(access.index) == simplify(l_id // 8)
        assert not m.is_register

    def test_unconsumed_indices_raise_for_every_space(self):
        m = mem("acc", FLOAT, AddressSpace.PRIVATE)
        with pytest.raises(ViewConsumptionError):
            consume(ArrayAccessView(MemView(m, FLOAT), Var("l_id")))


class TestAddressSpaceInference:
    """Algorithm 1's cases."""

    def _infer(self, fun):
        infer_types(fun.body)
        infer_address_spaces(fun)
        return fun

    def test_array_params_are_global(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        fun = self._infer(Lambda([x], map_seq(id_fun())(x)))
        assert x.addr_space == AddressSpace.GLOBAL

    def test_scalar_params_are_private(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        s = Param(FLOAT, "s")
        fun = self._infer(Lambda([x, s], map_seq(id_fun())(x)))
        assert s.addr_space == AddressSpace.PRIVATE

    def test_to_local_sets_local(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = to_local(map_lcl(id_fun()))(x)
        self._infer(Lambda([x], body))
        assert body.addr_space == AddressSpace.LOCAL

    def test_to_private_sets_private(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = to_private(map_seq(id_fun()))(x)
        self._infer(Lambda([x], body))
        assert body.addr_space == AddressSpace.PRIVATE

    def test_reduce_takes_initializer_space(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = reduce_seq(add(), f32(0.0))(x)
        self._infer(Lambda([x], body))
        # literal initializer -> private accumulator (Algorithm 1 line 22)
        assert body.addr_space == AddressSpace.PRIVATE

    def test_literals_are_private(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        init = f32(0.0)
        body = FunCall(reduce_seq(add(), init).body.f, [init, x]) if False else None
        fun = Lambda([x], reduce_seq(add(), init)(x))
        self._infer(fun)
        assert init.addr_space == AddressSpace.PRIVATE

    def test_layout_patterns_keep_arg_space(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = join()(split(4)(x))
        fun = Lambda([x], map_seq(id_fun())(body))
        self._infer(fun)
        assert body.addr_space == AddressSpace.GLOBAL


class TestBarrierElimination:
    def _analyze(self, body):
        infer_types(body)
        return find_removable_barriers(body)

    def test_consecutive_elementwise_maplcl_removable(self):
        x = Param(ArrayType(FLOAT, 64), "x")
        first = to_local(map_lcl(id_fun()))(x)
        second = to_global(map_lcl(id_fun()))(first)
        removable = self._analyze(second)
        assert id(first) in removable

    def test_layout_pattern_between_forces_barrier(self):
        x = Param(ArrayType(FLOAT, 64), "x")
        first = to_local(map_lcl(id_fun()))(x)
        reordered = join()(split(8)(first))
        second = to_global(map_lcl(id_fun()))(reordered)
        removable = self._analyze(second)
        assert id(first) not in removable

    def test_zip_branches_keep_only_one_barrier(self):
        x = Param(ArrayType(FLOAT, 64), "x")
        y = Param(ArrayType(FLOAT, 64), "y")
        a = to_local(map_lcl(id_fun()))(x)
        b = to_local(map_lcl(id_fun()))(y)
        zipped = zip_(a, b)
        removable = self._analyze(zipped)
        assert (id(a) in removable) != (id(b) in removable)

    def test_dot_product_keeps_its_barriers(self):
        from tests.programs import partial_dot

        prog = partial_dot()
        infer_types(prog.body)
        removable = find_removable_barriers(prog.body)
        # Figure 7 keeps every mapLcl barrier of the dot product.
        assert not removable

    @staticmethod
    def _iterate_step_barriers(options):
        """Barriers directly in the ``iterate`` loop of the dot product."""
        from repro.compiler import cast as c
        from repro.compiler.codegen import compile_kernel
        from repro.opencl.cparser import parse
        from tests.programs import partial_dot

        kernel = compile_kernel(partial_dot(), options)
        loops = []

        def walk(block):
            for stmt in block.stmts:
                if isinstance(stmt, c.CFor):
                    if stmt.init.name.startswith("iter_"):
                        loops.append(stmt)
                    walk(stmt.body)

        walk(parse(kernel.source).functions[kernel.name].body)
        (loop,) = loops
        return [s for s in loop.body.stmts if isinstance(s, c.CBarrier)]

    def test_iterate_step_ends_in_exactly_one_barrier(self):
        from repro.compiler.options import CompilerOptions

        # The halving step's own mapLcl barrier ends the step; the
        # pointer swap behind it is per-work-item and adds none.
        for options in (CompilerOptions.barrier_cf(), CompilerOptions.all()):
            assert len(self._iterate_step_barriers(options)) == 1
        assert len(self._iterate_step_barriers(CompilerOptions.none())) == 2

    def test_iterate_step_without_own_barrier_keeps_the_swap_barrier(self):
        from repro.compiler.barriers import step_ends_in_barrier

        x = Param(ArrayType(FLOAT, 64), "x")
        ends_in_map_lcl = join()(map_lcl(map_seq(id_fun()))(split(2)(x)))
        ends_in_map_seq = map_seq(id_fun())(x)
        infer_types(ends_in_map_lcl)
        infer_types(ends_in_map_seq)
        assert step_ends_in_barrier(ends_in_map_lcl, set())
        assert not step_ends_in_barrier(ends_in_map_seq, set())
        # ... nor when another rule already removed that mapLcl's barrier.
        assert not step_ends_in_barrier(
            ends_in_map_lcl, {id(ends_in_map_lcl.args[0])}
        )

    @staticmethod
    def _let_bound(second_reads_first):
        x = Param(ArrayType(FLOAT, 64), "x")
        y = Param(ArrayType(FLOAT, 64), "y")
        a = to_local(map_lcl(id_fun()))(x)
        b = to_local(map_lcl(id_fun()))(
            join()(split(8)(a)) if second_reads_first else y
        )
        p, q = Param(None, "p"), Param(None, "q")
        sum_pair = lam(lambda pq: FunCall(add(), [get(pq, 0), get(pq, 1)]))
        body = to_global(map_lcl(sum_pair))(zip_(join()(split(8)(p)), q))
        return a, b, FunCall(Lambda([p, q], body), [a, b])

    def test_let_bound_siblings_keep_only_the_last_barrier(self):
        a, b, bound = self._let_bound(second_reads_first=False)
        removable = self._analyze(bound)
        assert id(a) in removable and id(b) not in removable

    def test_let_bound_sibling_that_reads_the_first_keeps_both(self):
        a, b, bound = self._let_bound(second_reads_first=True)
        removable = self._analyze(bound)
        assert id(a) not in removable and id(b) not in removable

    @staticmethod
    def _fences(fun, options):
        """``(buffer the statement before the barrier stored into,
        fence)`` per barrier of the compiled kernel, in text order."""
        import re

        from repro.compiler.codegen import compile_kernel

        source = compile_kernel(fun, options, memo=False).source
        lines = [
            line.strip() for line in source.splitlines() if line.strip() != "}"
        ]
        stored = re.compile(r"(?:vstore\d+\(.*, (\w+)\);|(\w+)(?:\[.*\])? = .*;)$")
        return [
            ("".join(filter(None, stored.match(lines[i - 1]).groups())),
             line[len("barrier("):-2])
            for i, line in enumerate(lines) if line.startswith("barrier(")
        ]

    def test_fence_names_the_space_the_map_lcl_wrote(self):
        """A ``reduceSeq`` over ``zip(local, global)`` is inferred
        "global" (mixed arguments), but its ``mapLcl`` body stores into
        the *local* accumulator: the barrier behind it must fence local
        memory."""
        from repro.compiler.options import CompilerOptions
        from repro.ir.dsl import to_local
        from tests.programs import tiled_outer_sums

        fences = self._fences(
            tiled_outer_sums(to_local), CompilerOptions.all(local_size=(8, 1, 1))
        )
        assert fences == [
            ("tmp1", "CLK_LOCAL_MEM_FENCE"),  # the accumulator's zeros
            ("tmp2", "CLK_LOCAL_MEM_FENCE"),  # the tile copy
            ("tmp1", "CLK_LOCAL_MEM_FENCE"),  # the tile walk
            ("out", "CLK_GLOBAL_MEM_FENCE"),  # the copy-out reads tmp1
        ]

    @pytest.mark.parametrize("level", ["barrier_cf", "all"])
    def test_private_accumulator_leaves_two_barriers(self, level):
        """Rule 4.  The accumulator's initialisation reads an input and
        writes private memory, the copy-out reads private memory and
        writes the kernel's result: neither ends in a barrier.  The tile
        walk writes private memory too but *reads* the local tile the
        next tile copy overwrites: it keeps its barrier."""
        from repro.compiler.options import OPTIMIZATION_LEVELS
        from tests.programs import tiled_outer_sums

        for chunk in (8, 16):  # one register / two slots per work-item
            fences = self._fences(
                tiled_outer_sums(to_private, chunk=chunk),
                OPTIMIZATION_LEVELS[level](local_size=(8, 1, 1)),
            )
            assert fences == [
                ("tmp1", "CLK_LOCAL_MEM_FENCE"),  # the tile copy
                ("acc1", "CLK_LOCAL_MEM_FENCE"),  # the tile walk
            ]

    def test_nbody_nvidia_keeps_the_reference_kernels_two_barriers(self):
        from repro.benchsuite.common import get_benchmark
        from repro.compiler.options import CompilerOptions

        bench = get_benchmark("nbody-nvidia")
        (stage,) = bench.stages
        fences = self._fences(
            stage.build(dict(bench.sizes["small"])),
            CompilerOptions.all(local_size=stage.local_size),
        )
        # Tile copy and tile walk; nothing behind the position and
        # accumulator registers' initialisation or the final vstore8.
        assert fences == [
            ("tmp1", "CLK_LOCAL_MEM_FENCE"),
            ("acc2", "CLK_LOCAL_MEM_FENCE"),
        ]

    def test_a_result_read_through_split_keeps_its_barrier(self):
        """A ``toGlobal(mapLcl)`` whose result a later ``mapLcl`` reads
        through ``split`` writes memory other work-items read: neither
        rule 1 nor rule 4 applies."""
        from repro.compiler.options import CompilerOptions

        x = Param(ArrayType(FLOAT, 16), "x")
        first = to_global(map_lcl(id_fun()))(x)
        second = join()(
            to_global(map_lcl(map_seq(id_fun())))(split(2)(first))
        )
        fences = self._fences(
            Lambda([x], second), CompilerOptions.all(local_size=(8, 1, 1))
        )
        # The second mapLcl reads that temporary: a barrier of its own.
        assert fences == [
            ("g_tmp1", "CLK_GLOBAL_MEM_FENCE"),
            ("out", "CLK_GLOBAL_MEM_FENCE"),
        ]

    def test_level_none_keeps_every_barrier(self):
        from repro.compiler.options import CompilerOptions
        from tests.programs import tiled_outer_sums

        fences = self._fences(
            tiled_outer_sums(to_private), CompilerOptions.none(local_size=(8, 1, 1))
        )
        assert [fence for _, fence in fences] == [
            "CLK_LOCAL_MEM_FENCE",  # init (private: a local fence)
            "CLK_LOCAL_MEM_FENCE",  # tile copy
            "CLK_LOCAL_MEM_FENCE",  # tile walk
            "CLK_GLOBAL_MEM_FENCE",  # copy-out
        ]

    def test_a_map_lcl_over_inputs_writing_the_result_needs_no_barrier(self):
        """Rule 4 on the smallest kernel with a work-group: it touches
        nothing two work-items share."""
        from repro.compiler.options import CompilerOptions

        x = Param(ArrayType(FLOAT, 64), "x")
        body = join()(map_wrg(to_global(map_lcl(id_fun())))(split(8)(x)))
        options = CompilerOptions.all(local_size=(8, 1, 1))
        assert self._fences(Lambda([x], body), options) == []


class TestMemoryAllocator:
    def test_unique_names(self):
        alloc = MemoryAllocator()
        a = alloc.alloc(ArrayType(FLOAT, 8), AddressSpace.LOCAL)
        b = alloc.alloc(ArrayType(FLOAT, 8), AddressSpace.LOCAL)
        assert a.name != b.name

    def test_scalar_layout_of_nested_array(self):
        scalar, count = scalar_layout(array(FLOAT, 4, 8))
        assert scalar == FLOAT
        assert simplify(count) == Cst(32)

    def test_vector_layout(self):
        scalar, count = scalar_layout(ArrayType(VectorType(FLOAT, 4), 8))
        assert scalar == FLOAT
        assert simplify(count) == Cst(32)

    def test_tuple_register(self):
        alloc = MemoryAllocator()
        t = TupleType([FLOAT, FLOAT])
        m = alloc.alloc(t, AddressSpace.PRIVATE)
        assert m.logical_type == t

    def test_tuple_array_rejected_outside_private(self):
        alloc = MemoryAllocator()
        with pytest.raises(NotImplementedError):
            alloc.alloc(TupleType([FLOAT, FLOAT]), AddressSpace.LOCAL)

    def test_tuples_of_one_scalar_are_laid_out_interleaved(self):
        from repro.compiler.memory import scalar_layout
        from repro.types import INT

        pair = TupleType([FLOAT, FLOAT])
        assert scalar_layout(ArrayType(pair, 8)) == (FLOAT, Cst(16))
        with pytest.raises(NotImplementedError, match="mixed-scalar tuple"):
            scalar_layout(TupleType([FLOAT, INT]))
        m = MemoryAllocator.for_param("x", ArrayType(pair, 8), AddressSpace.GLOBAL)
        assert repr(m) == "Memory(x, global, floatx16)"

    def test_param_memory(self):
        m = MemoryAllocator.for_param("x", ArrayType(FLOAT, 16), AddressSpace.GLOBAL)
        assert m.is_param
        assert m.concrete_count() == 16


class TestHoist:
    """``compiler/hoist.py`` on hand-written kernel text: what moves,
    what is shared, and every place nothing may leave."""

    HEADER = (
        "kernel void KERNEL(const global float * restrict a, "
        "const global float * restrict x, global float * g_tmp1, "
        "global float * out, float alpha, int n, int N) {\n"
    )

    def _kernel(self, body):
        return self.HEADER + body + "}\n"

    def _hoist(self, body):
        from tests.programs import hoisted_source

        source = self._kernel(body)
        return source, hoisted_source(source, sizes=("N",))

    def _iops(self, source, items=4):
        from repro.opencl import Buffer, OpenCLProgram, launch

        args = {
            "a": Buffer.from_array(np.arange(64.0)),
            "x": Buffer.from_array(np.arange(64.0)),
            "g_tmp1": Buffer.zeros(64),
            "out": Buffer.zeros(64),
            "alpha": 2.0, "n": 3, "N": items,
        }
        counters = launch(
            OpenCLProgram(source), items, items, args, engine="compiled"
        )
        return counters.iops, args["out"].data.copy()

    def test_every_statement_and_expression_form_survives(self):
        # Forms the code generator does not print: an early return, a
        # cast and a negation of computed values, a vector member, an
        # indexed pointer sum, if/else and a nested block.  Only the two
        # invariant loads leave the loop, and the kernel computes the same.
        from repro.compiler import cast
        from repro.opencl.cparser import parse
        from tests.programs import hoisted_source

        source = cast.print_function(parse(self._kernel(
            "  int g = get_global_id(0);\n"
            "  if (g >= N) { return; }\n"
            "  float4 v = vload4(g, a);\n"
            "  float s = 0.0f;\n"
            "  for (int i = 0; i < 4; i += 1) {\n"
            "    s = s + (float)(n + i) * -x[g] + v.y + (a + 1)[i] + vload4(0, a + g).x;\n"
            "    if (s > 100.0f) { s = s - 1.0f; } else { s = s + (float)(i); }\n"
            "    { s = s * 0.5f; }\n"
            "  }\n"
            "  out[g] = s;\n"
        )).functions["KERNEL"]) + "\n"
        hoisted = hoisted_source(source, sizes=("N",))
        assert "  float h1 = x[g];\n  float4 h2 = vload4(0, a + g);\n" in hoisted
        assert hoisted.count("h1") == 2 and hoisted.count("h2") == 2
        np.testing.assert_array_equal(self._iops(source, 8)[1], self._iops(hoisted, 8)[1])

    def test_invariant_index_term_leaves_the_loop_as_one_declaration(self):
        plain, hoisted = self._hoist(
            "  float acc;\n"
            "  for (int g = get_global_id(0); g < N; g += get_global_size(0)) {\n"
            "    acc = 0.0f;\n"
            "    for (int i = 0; i < 8; i += 1) {\n"
            "      acc = acc + a[8 * g + i];\n"
            "    }\n"
            "    out[g] = acc;\n"
            "  }\n"
        )
        assert hoisted.count("int h") == 1
        assert (
            "    int h1 = 8 * g;\n"
            "    for (int i = 0; i < 8; i += 1) {\n"
            "      acc = acc + a[i + h1];\n"
        ) in hoisted
        # Per work-item the loop did 8 x (mul + add); now 1 mul + 8 adds.
        (before, out_plain), (after, out_hoisted) = self._iops(plain), self._iops(hoisted)
        assert before - after == 4 * 7
        assert out_plain.tobytes() == out_hoisted.tobytes()

    def test_split_is_by_the_innermost_loop_each_term_depends_on(self):
        _, hoisted = self._hoist(
            "  float acc;\n"
            "  int g = get_global_id(0);\n"
            "  for (int i = 0; i < 4; i += 1) {\n"
            "    for (int j = 0; j < N; j += 1) {\n"
            "      acc = acc + a[16 * g + 4 * i + j + n * N];\n"
            "    }\n"
            "  }\n"
        )
        assert (
            "  int h2 = 16 * g + n * N;\n"
            "  for (int i = 0; i < 4; i += 1) {\n"
            "    int h1 = 4 * i + h2;\n"
            "    for (int j = 0; j < N; j += 1) {\n"
            "      acc = acc + a[j + h1];\n"
        ) in hoisted

    def test_input_load_is_hoisted_written_memory_never(self):
        loop = (
            "  local float tmp1[8];\n"
            "  local float *tmp1_in = tmp1;\n"
            "  float acc;\n"
            "  int g = get_global_id(0);\n"
            "  for (int i = 0; i < N; i += 1) {\n"
            "    acc = acc + BUFFER[g];\n"
            "  }\n"
        )
        _, hoisted = self._hoist(loop.replace("BUFFER", "x"))
        assert (
            "  float h1 = x[g];\n"
            "  for (int i = 0; i < N; i += 1) {\n"
            "    acc = acc + h1;\n"
        ) in hoisted
        for written in ("out", "g_tmp1", "tmp1", "tmp1_in"):
            plain, hoisted = self._hoist(loop.replace("BUFFER", written))
            assert hoisted == plain, written

    def test_vector_load_is_hoisted_with_its_vector_type(self):
        _, hoisted = self._hoist(
            "  float4 acc;\n"
            "  int g = get_global_id(0);\n"
            "  for (int i = 0; i < 4; i += 1) {\n"
            "    acc = acc + vload4(g, x) + vload4(0, a + 4 * g);\n"
            "  }\n"
        )
        assert "  float4 h1 = vload4(g, x);\n" in hoisted
        assert "  float4 h2 = vload4(0, a + 4 * g);\n" in hoisted
        assert "    acc = acc + h1 + h2;\n" in hoisted

    @pytest.mark.parametrize(
        "body",
        [
            # an ``if`` body, although the loop around it is certain to run
            "  for (int i = 0; i < 4; i += 1) {\n"
            "    if (i < n) {\n"
            "      out[i] = a[8 * n + i];\n"
            "    }\n"
            "  }\n",
            # a parallel loop: a work-item past the trip count runs it 0 times
            "  for (int l = get_local_id(0); l < 8; l += get_local_size(0)) {\n"
            "    out[l] = a[8 * n + l];\n"
            "  }\n",
            # bounds that are not provably >= 1
            "  for (int i = 0; i < n; i += 1) {\n"  # a scalar, not a size
            "    out[i] = a[8 * n + i];\n"
            "  }\n",
            "  for (int i = 0; i < N / 2; i += 1) {\n"
            "    out[i] = a[8 * n + i];\n"
            "  }\n",
            "  for (int i = 0; i < 0; i += 1) {\n"
            "    out[i] = a[8 * n + i];\n"
            "  }\n",
            "  for (int i = 4; i < N; i += 1) {\n"
            "    out[i] = a[8 * n + i];\n"
            "  }\n",
            # the sides of ?:, && and || that may not be evaluated
            "  for (int i = 0; i < N; i += 1) {\n"
            "    out[i] = (i < n ? x[8 * n] : alpha);\n"
            "  }\n",
            "  for (int i = 0; i < N; i += 1) {\n"
            "    if (i < n && x[8 * n] < alpha) {\n"
            "      out[i] = alpha;\n"
            "    }\n"
            "  }\n",
        ],
    )
    def test_nothing_leaves_where_the_original_might_not_run(self, body):
        plain, hoisted = self._hoist(body)
        assert hoisted == plain

    def test_repeats_in_one_block_are_computed_once(self):
        _, hoisted = self._hoist(
            "  int g = get_global_id(0);\n"
            "  out[8 * g] = a[8 * g] + x[8 * g + 1];\n"
            "  out[8 * g + 1] = a[8 * g] + alpha;\n"
        )
        assert (
            "  int h1 = 8 * g;\n"
            "  float h2 = a[h1];\n"
            "  int h3 = h1 + 1;\n"
            "  out[h1] = h2 + x[h3];\n"
            "  out[h3] = h2 + alpha;\n"
        ) in hoisted

    def test_float_expressions_are_never_shared(self):
        plain, hoisted = self._hoist(
            "  int g = get_global_id(0);\n"
            "  out[g] = alpha * 3.0f + alpha * 3.0f;\n"
        )
        assert hoisted == plain
        _, hoisted = self._hoist(
            "  int g = get_global_id(0);\n"
            "  out[g] = x[g] * 3.0f + x[g] * 3.0f;\n"
        )
        # Only the load is kept; the product is still computed twice.
        assert "  float h1 = x[g];\n  out[g] = h1 * 3.0f + h1 * 3.0f;\n" in hoisted

    def test_a_reassigned_name_is_a_different_value(self):
        plain, hoisted = self._hoist(
            "  int size_1 = 8;\n"
            "  out[size_1 + 1] = alpha;\n"
            "  size_1 = size_1 / 2;\n"
            "  out[size_1 + 1] = alpha;\n"
            "  for (int i = 0; i < 4; i += 1) {\n"
            "    out[2 * size_1 + i] = alpha;\n"
            "    size_1 = size_1 / 2;\n"
            "  }\n"
            "  out[2 * size_1] = alpha;\n"
        )
        assert hoisted == plain

    def test_temporaries_avoid_names_the_kernel_uses(self):
        _, hoisted = self._hoist(
            "  int h1 = get_global_id(0);\n"
            "  out[8 * h1] = a[8 * h1];\n"
        )
        assert "  int h2 = 8 * h1;\n  out[h2] = a[h2];\n" in hoisted

"""Tests for OpenCL code generation: structure and, crucially, semantics.

The differential-testing contract: for every program, the generated
kernel executed on the simulated device must agree with the IR reference
interpreter and with a NumPy oracle — at every optimization level.
"""

import re

import numpy as np
import pytest

from repro.arith import Var
from repro.types import ArrayType, FLOAT, array
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir.dsl import (
    add,
    compose,
    f32,
    gather,
    get,
    head,
    id_fun,
    join,
    lam,
    lam2,
    make_tuple,
    map_glb,
    map_lcl,
    map_seq,
    map_wrg,
    mult,
    reduce_seq,
    scatter,
    slide,
    split,
    to_global,
    to_local,
    to_private,
    transpose,
    zip_,
)
from repro.ir.patterns import ReduceSeq, transpose_indices
from repro.compiler.codegen import CodeGenError, compile_kernel
from repro.compiler.kernel import compile_and_run
from tests.engines import RUNS, check_engines
from repro.compiler.options import CompilerOptions

from tests.programs import (
    compile_unhoisted,
    double_staged_rows,
    partial_dot,
    plus_one,
    simple_map_add_one,
)

ALL_LEVELS = [
    CompilerOptions.none,
    CompilerOptions.barrier_cf,
    CompilerOptions.all,
]


class TestKernelStructure:
    def test_simple_map_source(self):
        k = compile_kernel(simple_map_add_one())
        assert "kernel void KERNEL" in k.source
        assert "get_global_id(0)" in k.source
        assert "plusOne" in k.source

    def test_dot_product_matches_figure7_structure(self):
        k = compile_kernel(partial_dot(), CompilerOptions(local_size=(64, 1, 1)))
        src = k.source
        # work-group loop with stride (Figure 7 line 7)
        assert "get_group_id(0)" in src and "get_num_groups(0)" in src
        # double buffering with pointer swap (lines 17-28)
        assert "local float *" in src
        # control-flow simplified guard (lines 20, 30)
        assert "if (" in src
        # barriers present (lines 16, 25, 29)
        assert src.count("barrier(") >= 3
        # simplified global access of section 5.3
        assert "128 * wg_id" in src

    def test_layout_patterns_emit_no_code(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        prog = Lambda([x], compose(join(), map_glb(map_seq(id_fun())), split(4))(x))
        k = compile_kernel(prog)
        assert "split" not in k.source and "join" not in k.source

    def test_unoptimized_kernel_has_no_if_simplification(self):
        k_all = compile_kernel(partial_dot(), CompilerOptions(local_size=(64, 1, 1)))
        k_none = compile_kernel(
            partial_dot(), CompilerOptions.none(local_size=(64, 1, 1))
        )
        # without CF simplification every map is a loop
        assert k_none.source.count("for (") > k_all.source.count("for (")
        # without barrier elimination at least as many barriers
        assert k_none.source.count("barrier(") >= k_all.source.count("barrier(")

    def test_high_level_patterns_rejected(self):
        from repro.ir.dsl import map_

        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        prog = Lambda([x], map_(id_fun())(x))
        with pytest.raises(CodeGenError):
            compile_kernel(prog)

    def test_pure_view_program_rejected(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        prog = Lambda([x], compose(join(), split(4))(x))
        with pytest.raises(CodeGenError):
            compile_kernel(prog)

    def test_compiling_one_program_twice_hits_the_memo(self):
        """Compilation types the program in place; the memo key must
        not read those annotations, or the second compile of the same
        object misses and stores a second kernel."""
        from repro.compiler import codegen

        codegen.clear_compile_memo()
        prog = partial_dot()
        first = compile_kernel(prog)
        assert compile_kernel(prog) is first
        assert len(codegen._COMPILE_MEMO) == 1


@pytest.mark.parametrize("level", ALL_LEVELS, ids=["none", "barrier_cf", "all"])
class TestSemanticsAtEveryLevel:
    """Generated code must be correct with and without optimizations."""

    def test_map_glb(self, level):
        n = 64
        prog = simple_map_add_one()
        x = np.arange(n, dtype=float)
        result = compile_and_run(
            prog, {"x": x}, {"N": n}, global_size=n,
            options=level(local_size=(16, 1, 1)),
        )
        np.testing.assert_allclose(result.output, x + 1)

    def test_partial_dot_listing1(self, level):
        n = 512
        rng = np.random.default_rng(42)
        x = rng.random(n)
        y = rng.random(n)
        result = compile_and_run(
            partial_dot(), {"x": x, "y": y}, {"N": n},
            global_size=128, options=level(local_size=(64, 1, 1)),
        )
        expected = (x * y).reshape(-1, 128).sum(axis=1)
        np.testing.assert_allclose(result.output, expected, rtol=1e-12)

    def test_zip_mult(self, level):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        y = Param(ArrayType(FLOAT, n), "y")
        m = mult()
        body = map_glb(lam(lambda xy: FunCall(m, [get(xy, 0), get(xy, 1)])))(
            zip_(x, y)
        )
        prog = Lambda([x, y], body)
        xs = np.arange(32, dtype=float)
        ys = np.arange(32, dtype=float) + 1
        result = compile_and_run(
            prog, {"x": xs, "y": ys}, {"N": 32}, global_size=32,
            options=level(local_size=(8, 1, 1)),
        )
        np.testing.assert_allclose(result.output, xs * ys)

    def test_gather_transpose_composition(self, level):
        """The paper's matrix transposition (section 5.3)."""
        rows, cols = 8, 16
        x = Param(array(FLOAT, rows, cols), "x")
        body = compose(
            map_wrg(map_lcl(id_fun())),
            split(cols),
            gather(transpose_indices(rows, cols)),
            join(),
        )(x)
        prog = Lambda([x], body)
        data = np.arange(rows * cols, dtype=float).reshape(rows, cols)
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=rows * 8,
            options=level(local_size=(8, 1, 1)),
        )
        np.testing.assert_allclose(result.output.reshape(cols, rows), data.T)

    def test_transpose_pattern(self, level):
        rows, cols = 4, 8
        x = Param(array(FLOAT, rows, cols), "x")
        body = compose(
            join(), map_wrg(map_lcl(id_fun())), transpose()
        )(x)
        prog = Lambda([x], body)
        data = np.arange(rows * cols, dtype=float).reshape(rows, cols)
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=cols * 4,
            options=level(local_size=(4, 1, 1)),
        )
        np.testing.assert_allclose(result.output.reshape(cols, rows), data.T)

    def test_scatter_write_reorder(self, level):
        n = 16
        x = Param(ArrayType(FLOAT, n), "x")
        from repro.ir.patterns import reverse_indices

        body = scatter(reverse_indices())(map_glb(id_fun())(x))
        prog = Lambda([x], body)
        data = np.arange(n, dtype=float)
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=n,
            options=level(local_size=(4, 1, 1)),
        )
        np.testing.assert_allclose(result.output, data[::-1])

    def test_slide_stencil(self, level):
        """mapGlb(reduceSeq(add, 0)) o slide(3, 1): 3-point stencil."""
        n = 18
        x = Param(ArrayType(FLOAT, n), "x")
        body = compose(
            join(),
            map_glb(reduce_seq(add(), f32(0.0))),
            slide(3, 1),
        )(x)
        prog = Lambda([x], body)
        data = np.arange(n, dtype=float)
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=16,
            options=level(local_size=(4, 1, 1)),
        )
        expected = data[:-2] + data[1:-1] + data[2:]
        np.testing.assert_allclose(result.output, expected)

    def test_local_memory_staging(self, level):
        """toLocal copy then compute, work-group wise."""
        n = 64
        x = Param(ArrayType(FLOAT, n), "x")
        plus_one = UserFun(
            "plusOne", ["v"], "return v + 1.0f;", [FLOAT], FLOAT,
            py=lambda v: v + 1.0,
        )
        work_group = compose(
            to_global(map_lcl(plus_one)),
            to_local(map_lcl(id_fun())),
        )
        body = compose(join(), map_wrg(work_group), split(16))(x)
        prog = Lambda([x], body)
        data = np.arange(n, dtype=float)
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=n,
            options=level(local_size=(16, 1, 1)),
        )
        np.testing.assert_allclose(result.output, data + 1)

    def test_tuple_accumulator_reduction(self, level):
        """argmin via a (value, index) tuple accumulator — K-Means style."""
        from repro.types import INT, TupleType

        n = 16
        x = Param(ArrayType(FLOAT, n), "x")
        acc_t = TupleType([FLOAT, FLOAT])
        take_min = UserFun(
            "takeMin",
            ["acc", "v"],
            "if (v < acc._0) { acc._0 = v; } acc._1 = acc._1 + 1.0f; return acc;",
            [acc_t, FLOAT],
            acc_t,
        )
        body = compose(
            join(),
            map_glb(
                lam(
                    lambda chunk: FunCall(
                        map_seq(
                            UserFun(
                                "fst", ["t"], "return t._0;", [acc_t], FLOAT,
                                py=lambda t: t[0],
                            )
                        ),
                        [
                            FunCall(
                                __import__("repro.ir.patterns", fromlist=["ReduceSeq"]).ReduceSeq(take_min),
                                [make_tuple(f32(1e30), f32(0.0)), chunk],
                            )
                        ],
                    )
                )
            ),
            split(4),
        )(x)
        prog = Lambda([x], body)
        data = np.asarray(
            [4.0, 2.0, 7.0, 5.0, 1.0, 9.0, 0.5, 3.0, 8.0, 8.5, 2.5, 6.0,
             11.0, 10.0, 12.0, 9.5]
        )
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=4,
            options=level(local_size=(2, 1, 1)),
        )
        expected = data.reshape(-1, 4).min(axis=1)
        np.testing.assert_allclose(result.output, expected)

    def test_counters_change_with_optimization(self, level):
        """Unoptimized kernels execute more int div/mod operations."""
        n = 512
        x = np.ones(n)
        y = np.ones(n)
        result = compile_and_run(
            partial_dot(), {"x": x, "y": y}, {"N": n},
            global_size=128, options=level(local_size=(64, 1, 1)),
        )
        assert result.counters.work_items == 128


class TestIntermediateAllocation:
    """Section 5.2: a map result without a destination of its own is
    multiplied by the enclosing parallel maps that share its memory."""

    OPTIONS = CompilerOptions(local_size=(4, 4, 1))

    def test_local_intermediate_gets_one_row_per_outer_lcl_index(self):
        src = compile_kernel(double_staged_rows(), self.OPTIONS).source
        outer = re.search(r"int (l_id_\d+) = get_local_id\(1\);", src).group(1)
        # Both stagings hold all four rows and are indexed by the row.
        assert src.count("local float tmp1[64];") == 1
        assert src.count("local float tmp2[64];") == 1
        # compiler/hoist.py keeps a repeated index in a temporary; read
        # through it.
        temps = dict(re.findall(r"int (h\d+) = ([^;]*);", src))
        for tmp in ("tmp1", "tmp2"):
            accesses = re.findall(rf"{tmp}\[([^\]]*)\]", src)[1:]  # [0]: decl
            assert len(accesses) == 2  # one store, one load
            for index in accesses:
                inlined = re.sub(r"h\d+", lambda m: temps[m.group()], index)
                assert f"16 * {outer}" in inlined

    def test_symbolic_trip_count_keeps_the_shared_cell(self):
        # A local array needs a static size: _staging_wrap's documented
        # exception.
        src = compile_kernel(
            double_staged_rows(rows=Var("R")), self.OPTIONS
        ).source
        assert "local float tmp1[16];" in src
        assert "local float tmp2[16];" in src


class TestPrivateAllocation:
    """Section 5.2, the private half: a private value produced by a
    parallel map of ``n`` elements on ``t`` work-items is ``ceil(n / t)``
    slots per work-item, and only its owner may touch an element."""

    @staticmethod
    def _copy_through_private(width=16):
        """join o mapWrg(toGlobal(mapLcl(plusOne)) o toPrivate(mapLcl(id)))
        o split(width) on 64 floats."""
        x = Param(ArrayType(FLOAT, 64), "x")
        group = compose(
            to_global(map_lcl(plus_one())), to_private(map_lcl(id_fun()))
        )
        return Lambda([x], compose(join(), map_wrg(group), split(width))(x))

    @pytest.mark.parametrize(
        "lanes", RUNS, ids=["-".join(run) for run in RUNS]
    )
    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_sixteen_elements_on_eight_work_items(self, level, lanes):
        """Every work-item holds two elements: one ``float`` that each
        overwrites returned ``[9..16, 9..16, 25..]`` at every level, on
        every lane tier over one block and over several."""
        data = np.arange(64, dtype=float)
        kernel = compile_kernel(
            self._copy_through_private(), level(local_size=(8, 1, 1))
        )
        assert re.search(r"^  float acc1\[2\];$", kernel.source, re.M)

        def run(engine):
            result = compile_and_run(
                self._copy_through_private(), {"x": data}, {}, global_size=32,
                options=level(local_size=(8, 1, 1)), engine=engine,
            )
            return {"out": result.output}, result.counters

        outs, _ = check_engines(run, 32, 8, runs=(lanes,))["scalar"]
        np.testing.assert_array_equal(outs["out"], data + 1.0)

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_one_element_per_work_item_is_a_plain_register(self, level):
        src = compile_kernel(
            self._copy_through_private(), level(local_size=(16, 1, 1))
        ).source
        assert re.search(r"^  float acc1;$", src, re.M)
        assert "acc1[" not in src

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_private_tile_as_reduction_accumulator(self, level):
        """toPrivate(mapLcl(mapLcl(zero, 0), 1)) initialises a reduceSeq
        (it used to die with an internal ViewConsumptionError); each
        work-item keeps one element of the 4 x 4 tile in a register."""
        x = Param(array(FLOAT, 3, 4, 4), "x")
        zero = UserFun("zeroF", ["v"], "return 0.0f;", [FLOAT], FLOAT, py=lambda v: 0.0)
        add_row = lam(lambda ab: FunCall(add(), [get(ab, 0), get(ab, 1)]))
        step = lam2(
            lambda acc, tile: map_lcl(
                lam(lambda rows: map_lcl(add_row, 0)(zip_(get(rows, 0), get(rows, 1)))),
                1,
            )(zip_(acc, tile))
        )
        init = to_private(map_lcl(map_lcl(zero, 0), 1))(head(x))
        total = join()(FunCall(ReduceSeq(step), [init, x]))
        out = to_global(map_lcl(map_lcl(id_fun(), 0), 1))(total)
        program = Lambda([x], out)
        options = level(local_size=(4, 4, 1))
        src = compile_kernel(program, options).source
        assert re.search(r"^  float acc1;$", src, re.M) and "local float" not in src
        data = np.arange(48, dtype=float)
        result = compile_and_run(
            program, {"x": data}, {}, global_size=(4, 4, 1), options=options,
            engine="compiled",
        )
        np.testing.assert_array_equal(
            result.output, data.reshape(3, 16).sum(axis=0)
        )

    @staticmethod
    def _read_private_tile(reader, *through):
        x = Param(array(FLOAT, 8, 8), "x")
        tile = to_private(map_lcl(map_lcl(id_fun(), 0), 1))
        return Lambda([x], compose(to_global(reader), *through, tile)(x))

    @pytest.mark.parametrize("level", ALL_LEVELS)
    @pytest.mark.parametrize(
        "case", ["transpose", "other dimension", "split", "partial write"]
    )
    def test_touching_another_work_items_element_is_refused(self, case, level):
        """The hazard detector cannot see a private mis-share (every
        work-item reads its *own* copy), so the compiler must."""
        if case == "transpose":
            program = self._read_private_tile(
                map_lcl(map_lcl(plus_one(), 0), 1), transpose()
            )
            names = ["through transpose", "mapLcl(1)", "mapLcl(0)"]
        elif case == "other dimension":
            program = self._read_private_tile(map_lcl(map_lcl(plus_one(), 1), 0))
            names = ["mapLcl(1)", "mapLcl(0)"]
        elif case == "partial write":
            # The inner mapLcl writes through a join, so toPrivate's own
            # map nest does not show that rows are spread: every
            # work-item would fill in a part of its copy of a row.
            x = Param(array(FLOAT, 8, 8), "x")
            rows = to_private(
                map_lcl(compose(join(), map_lcl(map_seq(id_fun()), 0), split(1)), 1)
            )
            out = to_global(map_lcl(map_lcl(plus_one(), 0), 1))
            program = Lambda([x], out(rows(x)))
            names = ["written under mapLcl(0)"]
        else:
            x = Param(ArrayType(FLOAT, 16), "x")
            pairs = compose(
                join(), to_global(map_lcl(map_seq(plus_one()))), split(2),
                to_private(map_lcl(id_fun())),
            )
            program = Lambda([x], pairs(x))
            names = ["through split", "mapLcl(0)"]
        with pytest.raises(CodeGenError) as error:
            compile_kernel(program, level(local_size=(8, 8, 1)))
        for name in names:
            assert name in str(error.value)

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_map_glb_needs_the_global_size_for_more_than_one_slot(self, level):
        def program(n):
            x = Param(ArrayType(FLOAT, n), "x")
            return Lambda(
                [x],
                compose(
                    to_global(map_glb(plus_one())), to_private(map_glb(id_fun()))
                )(x),
            )

        with pytest.raises(CodeGenError, match=r"mapGlb\(0\).*global_size"):
            compile_kernel(program(64), level(local_size=(8, 1, 1)))
        # Known: 64 elements on 32 work-items are two slots each.
        options = level(local_size=(8, 1, 1), global_size=(32, 1, 1))
        assert "float acc1[2];" in compile_kernel(program(64), options).source
        data = np.arange(64, dtype=float)
        result = compile_and_run(
            program(64), {"x": data}, {}, global_size=32, options=options,
            engine="compiled",
        )
        np.testing.assert_array_equal(result.output, data + 1.0)
        # One element needs one slot whatever the launch.
        assert "float acc1;" in compile_kernel(
            program(1), level(local_size=(8, 1, 1))
        ).source


class TestVectorization:
    def test_vectorized_map(self):
        from repro.ir.dsl import as_scalar, as_vector

        n = 32
        x = Param(ArrayType(FLOAT, n), "x")
        scale4 = UserFun(
            "scale4", ["v"], "return v * 2.0f;",
            [array and __import__("repro.types", fromlist=["VectorType"]).VectorType(FLOAT, 4)],
            __import__("repro.types", fromlist=["VectorType"]).VectorType(FLOAT, 4),
        )
        body = compose(
            as_scalar(),
            map_glb(scale4),
            as_vector(4),
        )(x)
        prog = Lambda([x], body)
        data = np.arange(n, dtype=float)
        result = compile_and_run(
            prog, {"x": data}, {}, global_size=8,
            options=CompilerOptions(local_size=(4, 1, 1)),
        )
        np.testing.assert_allclose(result.output, data * 2)

    def test_vload_in_source(self):
        from repro.ir.dsl import as_scalar, as_vector
        from repro.types import VectorType

        n = 32
        x = Param(ArrayType(FLOAT, n), "x")
        scale4 = UserFun(
            "scale4", ["v"], "return v * 2.0f;",
            [VectorType(FLOAT, 4)], VectorType(FLOAT, 4),
        )
        prog = Lambda([x], compose(as_scalar(), map_glb(scale4), as_vector(4))(x))
        k = compile_kernel(prog)
        assert "vload4" in k.source and "vstore4" in k.source

    @staticmethod
    def _overlapping_windows(n=34):
        """scale4 over the float4 at every third float of x: the load
        index 3*i is no multiple of 4, the store index 4*i is."""
        from repro.ir.dsl import as_scalar, as_vector
        from repro.types import VectorType

        x = Param(ArrayType(FLOAT, n), "x")
        f4 = VectorType(FLOAT, 4)
        scale4 = UserFun("scale4", ["v"], "return v * 2.0f;", [f4], f4)
        per_window = lam(
            lambda w: to_global(map_seq(scale4))(as_vector(4)(w))
        )
        return Lambda(
            [x], as_scalar()(join()(map_glb(per_window)(slide(4, 3)(x))))
        )

    def test_vector_access_in_element_units_only_for_multiples_of_width(self):
        k = compile_kernel(
            self._overlapping_windows(), CompilerOptions.all(local_size=(4, 1, 1))
        )
        (access,) = [l.strip() for l in k.source.splitlines() if "vstore4" in l]
        index = re.search(r"g_id_\d+", access).group()
        assert access == (
            f"vstore4(scale4(vload4(0, x + 3 * {index})), {index}, out);"
        )

    def test_vector_access_keeps_pointer_form_below_level_all(self):
        k = compile_kernel(
            self._overlapping_windows(),
            CompilerOptions.barrier_cf(local_size=(4, 1, 1)),
        )
        assert re.search(r"vload4\(0, x \+ ", k.source)
        assert re.search(r"vstore4\(.*, 0, out \+ ", k.source)

    def test_vector_access_forms_agree_on_the_device(self):
        data = np.arange(34, dtype=float)
        expected = np.concatenate(
            [2.0 * data[3 * i:3 * i + 4] for i in range(11)]
        )
        for level in ALL_LEVELS:
            result = compile_and_run(
                self._overlapping_windows(), {"x": data}, {}, global_size=12,
                options=level(local_size=(4, 1, 1)),
            )
            np.testing.assert_array_equal(result.output, expected)


class TestHoistedKernels:
    """``compiler/hoist.py`` as part of ``compile_kernel``."""

    @staticmethod
    def _saxpy():
        x = Param(ArrayType(FLOAT, Var("N")), "x")
        y = Param(ArrayType(FLOAT, Var("N")), "y")
        axpy = UserFun(
            "axpy", ["x", "y"], "return 2.5f * x + y;", [FLOAT, FLOAT], FLOAT
        )
        body = map_glb(lam(lambda p: FunCall(axpy, [get(p, 0), get(p, 1)])))(
            zip_(x, y)
        )
        return Lambda([x, y], body)

    def test_md_gathers_its_neighbour_index_once(self):
        from repro.benchsuite.common import get_benchmark

        bench = get_benchmark("md")
        (stage,) = bench.stages
        fun = stage.build(dict(bench.sizes["small"]))
        options = CompilerOptions(local_size=stage.local_size)
        assert compile_unhoisted(fun, options).source.count("neigh[") == 3
        src = compile_kernel(fun, options, memo=False).source
        assert src.count("neigh[") == 1
        # ... inside the neighbour loop, while the work-item's own
        # position is loaded before it.
        loop = src.index("for (int i_")
        assert src.index("neigh[") > loop
        for own in ("px[g_id", "py[g_id", "pz[g_id"):
            assert src.count(own) == 1 and src.index(own) < loop

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_nothing_to_hoist_means_the_same_text(self, level):
        from repro.benchsuite.common import get_benchmark

        nn = get_benchmark("nn")
        (stage,) = nn.stages
        programs = [
            (stage.build(dict(nn.sizes["small"])), stage.local_size),
            (self._saxpy(), (64, 1, 1)),
        ]
        for fun, local_size in programs:
            options = level(local_size=local_size)
            hoisted = compile_kernel(fun, options, memo=False).source
            assert compile_unhoisted(fun, options).source == hoisted


class TestTextIsAFunctionOfTheProgram:
    """Every name the code generator invents is numbered per compilation,
    so a kernel's text depends on (program, options) and on nothing the
    process compiled before or beside it."""

    @staticmethod
    def _jobs() -> list:
        """Every stage x level x size, the two sizes of one stage and
        level side by side: on a thread pool they compile at once, with
        one name such as ``i_0`` live under two ranges."""
        from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark

        jobs = []
        for name in ALL_BENCHMARKS:
            bench = get_benchmark(name)
            for stage in bench.stages:
                for level in ALL_LEVELS:
                    for size in ("small", "large"):
                        fun = stage.build(dict(bench.sizes[size]))
                        jobs.append((fun, level(local_size=stage.local_size)))
        return jobs

    def test_text_does_not_depend_on_what_was_compiled_before(self):
        import random
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.ir.visit import clone_decl

        def text(job):
            fun, options = job
            return compile_kernel(fun, options, memo=False).source

        def private(job):
            return clone_decl(job[0]), job[1]

        jobs = self._jobs()
        assert len(jobs) == 13 * 3 * 2
        first = [text(job) for job in jobs]
        assert [text(job) for job in reversed(jobs)][::-1] == first
        order = list(range(len(jobs)))
        random.Random(27).shuffle(order)
        shuffled = dict(zip(order, map(text, (jobs[i] for i in order))))
        assert [shuffled[i] for i in range(len(jobs))] == first
        assert [text(private(job)) for job in jobs] == first
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(text, map(private, jobs), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == first
        # Numbered from 0 in creation order, one counter for all prefixes.
        names = re.compile(r"\b(?:i|l_id|g_id|wg_id|size|iter)_(\d+)\b")
        for source in first:
            numbers = {int(n) for n in names.findall(source)}
            assert numbers == set(range(len(numbers))), numbers
        assert max(len(set(names.findall(t))) for t in first) >= 10
        assert any("int h1 = " in t for t in first)


def _p(name, t):
    return Param(t, name)


def _over(t, f):
    """``f`` applied to one parameter of type ``t``."""
    y = _p("y", t)
    return Lambda([y], f(y))


def _malformed(name):
    """A program the code generator refuses, and the reason it gives."""
    from repro.arith import Cst
    from repro.arith.expr import Log2, Pow
    from repro.ir.dsl import iterate, map_seq_unroll
    from repro.ir.nodes import Literal
    from repro.ir.patterns import reverse_indices

    n = Var("N")
    x = _p("x", array(FLOAT, n))
    rows = {
        "a literal as a map body": (
            lambda: Lambda([x], map_glb(lam(lambda a: Literal(1.0, FLOAT)))(x)),
            "literals only appear as user-function arguments"),
        "a tuple built outside an initializer": (
            lambda: Lambda([x], map_glb(lam(
                lambda a: add()(get(make_tuple(a, a), 0), a)))(x)),
            "tuple construction only appears as a reduction initializer"),
        "a parameter of no type": (
            lambda: Lambda([x, Param(None, "u")], map_glb(id_fun())(x)),
            "kernel parameter u has no type"),
        "two user functions of one name": (
            lambda: Lambda([x], map_glb(lam(lambda a: FunCall(
                UserFun("f", ["p"], "return p;", [FLOAT], FLOAT),
                [FunCall(UserFun("f", ["p"], "return p + 1;", [FLOAT], FLOAT), [a])],
            )))(x)),
            "two different user functions named f"),
        "an unrolled map of a symbolic length": (
            lambda: _over(array(array(FLOAT, n), 4),
                          map_glb(map_seq_unroll(id_fun()))),
            "mapSeqUnroll requires a concrete length"),
        "a scatter of a parameter": (
            lambda: Lambda([x], scatter(reverse_indices())(x)),
            "scatter requires a writing producer"),
        "an iterate whose body writes nothing": (
            lambda: Lambda([x], iterate(2, lam(lambda a: a))(x)),
            "iterate bodies must write memory"),
        "an iterate of a gathered input": (
            lambda: Lambda([x], iterate(1, map_glb(id_fun()))(
                gather(reverse_indices())(x))),
            "iterate input must be a contiguous buffer"),
        "a map that only rearranges, as the result": (
            lambda: Lambda([x], map_glb(lam(lambda a: a))(x)),
            "cannot write through a view-only map"),
        "an array accumulator initialised by a view": (
            lambda: _array_reduction(lambda r: r, copied=True),
            "need a writing initializer"),
        "an array accumulator as the result": (
            lambda: _array_reduction(lambda r: map_seq(id_fun())(r), copied=False),
            "must be copied out with an explicit map(id)"),
        "a log2 in a length": (
            lambda: _over(array(FLOAT, Log2(n)), map_glb(id_fun())),
            "cannot emit arithmetic node log2(N)"),
        "a power of a symbolic exponent": (
            lambda: _over(array(FLOAT, Pow(Cst(2), n)), map_glb(id_fun())),
            "cannot emit power pow(2, N)"),
    }
    return rows[name]


def _array_reduction(init, copied):
    """Per row of ``x``, a reduction whose accumulator is a 4-array."""
    x = _p("x", array(array(FLOAT, 4), Var("N")))
    step = lam2(lambda acc, e: map_seq(id_fun())(acc))
    reduce = lambda r: reduce_seq(step, init(r))(split(4)(r))
    body = (lambda r: map_seq(id_fun())(join()(reduce(r)))) if copied else reduce
    return Lambda([x], map_glb(lam(body))(x))


_MALFORMED_NAMES = [
    "a literal as a map body", "a tuple built outside an initializer",
    "a parameter of no type", "two user functions of one name",
    "an unrolled map of a symbolic length", "a scatter of a parameter",
    "an iterate whose body writes nothing", "an iterate of a gathered input",
    "a map that only rearranges, as the result",
    "an array accumulator initialised by a view",
    "an array accumulator as the result", "a log2 in a length",
    "a power of a symbolic exponent",
]


class TestMalformedPrograms:
    @pytest.mark.parametrize("name", _MALFORMED_NAMES)
    def test_the_code_generator_names_the_fault(self, name):
        build, reason = _malformed(name)
        with pytest.raises(CodeGenError, match=re.escape(reason)):
            compile_kernel(build(), CompilerOptions(local_size=(4, 1, 1)))

    def test_a_parameter_bound_nowhere_is_refused_first(self):
        x = _p("x", array(FLOAT, Var("N")))
        y = _p("y", array(FLOAT, Var("N")))
        with pytest.raises(ValueError, match="parameter y visited before binding"):
            compile_kernel(Lambda([x], map_glb(id_fun())(y)))

    def test_a_private_value_over_a_symbolic_length_names_the_length(self):
        n = Var("N")
        x = _p("x", array(array(FLOAT, n), 8))
        prog = Lambda([x], map_glb(lam(lambda r: to_global(map_seq(id_fun()))(
            to_private(map_glb(id_fun(), 1))(r))))(x))
        with pytest.raises(CodeGenError, match="specialize the length"):
            compile_kernel(prog, CompilerOptions(global_size=(8, 4, 1)))


def _flat(value) -> list:
    """The scalars of a nested value of the IR interpreter, in order."""
    from repro.ir.interp import VecValue

    if isinstance(value, VecValue):
        value = value.items
    if isinstance(value, (list, tuple)):
        return [s for v in value for s in _flat(v)]
    return [float(value)]


class TestSeldomGeneratedForms:
    """Forms no benchmark stage writes, run against the IR interpreter
    at every optimization level."""

    @staticmethod
    def _forms():
        from repro.arith import Cst
        from repro.arith.expr import Pow
        from repro.ir.dsl import as_vector
        from repro.ir.nodes import Literal
        from repro.ir.patterns import reverse_indices
        from repro.types import INT

        n = Var("N")
        return {
            # A transpose, and an asVector, hand the output on as their
            # destination.
            "a transposed result": (array(FLOAT, 16), lambda x: join()(transpose()(
                map_glb(map_seq(id_fun()))(split(4)(x))))),
            "a vectorised result": (array(FLOAT, 16), lambda x: as_vector(4)(
                map_glb(id_fun())(x))),
            # A scatter read by a map allocates its own buffer.
            "a scatter read by a map": (array(array(FLOAT, 4), 16), lambda x: map_glb(
                lam(lambda r: map_seq(id_fun())(
                    scatter(reverse_indices())(map_seq(id_fun())(r)))))(x)),
            "a user function of a user function": (array(FLOAT, 16), lambda x: map_glb(
                lam(lambda a: add()(mult()(a, a), a)))(x)),
            "an int literal": (array(INT, 16), lambda x: map_glb(
                lam(lambda a: add(INT)(a, Literal(3, INT))))(x)),
            "a length that is a power": (array(FLOAT, Pow(n, Cst(2))), lambda x: map_glb(
                id_fun())(x)),
            "a reduction of one element": (array(array(FLOAT, 1), 16), lambda x: map_glb(
                lam(lambda r: reduce_seq(add(), f32(0.0))(r)))(x)),
        }

    @pytest.mark.parametrize("level", ALL_LEVELS)
    @pytest.mark.parametrize("name", [
        "a transposed result", "a vectorised result", "a scatter read by a map",
        "a user function of a user function", "an int literal",
        "a length that is a power", "a reduction of one element",
    ])
    def test_the_kernel_computes_what_the_program_means(self, name, level):
        from repro.ir.interp import evaluate

        t, body = self._forms()[name]
        x = _p("x", t)
        prog = Lambda([x], body(x))
        width = 1 if not isinstance(t.elem, ArrayType) else int(t.elem.length.try_int())
        data = np.arange(16 * width, dtype=np.int64 if "int" in name else float)
        data = data.reshape(16, width) if width > 1 or t.elem != FLOAT and "int" not in name else data
        want = _flat(evaluate(prog.body, {x: data.tolist()}, {"N": 4}))
        result = compile_and_run(
            prog, {"x": data}, {"N": 4}, global_size=16,
            options=level(local_size=(4, 1, 1)),
        )
        np.testing.assert_array_equal(np.asarray(result.output).ravel(), want)

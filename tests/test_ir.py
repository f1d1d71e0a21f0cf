"""Tests for IR nodes, type inference and the reference interpreter."""

import re

import pytest

from repro.arith import Cst, Var, simplify
from repro.types import ArrayType, FLOAT, INT, TupleType, VectorType, array
from repro.ir.nodes import FunCall, Lambda, Literal, Param, UserFun
from repro.ir.typecheck import infer_types
from repro.ir.patterns import (
    Filter,
    Iterate,
    MapGlb,
    Zip,
    LiftTypeError,
    reverse_indices,
    shift_indices,
    transpose_indices,
)
from repro.ir.dsl import (
    add,
    as_scalar,
    as_vector,
    compose,
    f32,
    gather,
    get,
    id_fun,
    join,
    lam,
    make_tuple,
    map_seq,
    mult,
    pad,
    pipe,
    reduce_seq,
    scatter,
    slide,
    split,
    transpose,
    zip_,
)
from repro.ir.interp import VecValue, apply_fun, evaluate
from repro.ir.visit import clone_decl, clone_expr, count_nodes, post_order

from tests.programs import partial_dot, simple_map_add_one


def typed_param(t, name=None):
    return Param(t, name)


class TestNodes:
    def test_call_arity_check(self):
        f = add()
        with pytest.raises(TypeError):
            f(Param())

    def test_userfun_rejects_arrays(self):
        with pytest.raises(TypeError):
            UserFun("bad", ["a"], "return a;", [ArrayType(FLOAT, 4)], FLOAT)

    def test_param_names_unique(self):
        assert Param().name != Param().name


class TestTypeInference:
    def test_map_seq(self):
        n = Var("N")
        x = typed_param(ArrayType(FLOAT, n))
        e = map_seq(id_fun())(x)
        assert infer_types(e) == ArrayType(FLOAT, n)

    def test_split_join_roundtrip_type(self):
        n = Var("N")
        x = typed_param(ArrayType(FLOAT, n))
        e = pipe(x, split(8), join())
        assert infer_types(e) == ArrayType(FLOAT, n)

    def test_zip_type(self):
        n = Var("N")
        x = typed_param(ArrayType(FLOAT, n))
        y = typed_param(ArrayType(FLOAT, n))
        e = zip_(x, y)
        assert infer_types(e) == ArrayType(TupleType([FLOAT, FLOAT]), n)

    def test_zip_length_mismatch(self):
        x = typed_param(ArrayType(FLOAT, 4))
        y = typed_param(ArrayType(FLOAT, 8))
        with pytest.raises(LiftTypeError):
            infer_types(zip_(x, y))

    def test_reduce_type(self):
        x = typed_param(ArrayType(FLOAT, 16))
        e = reduce_seq(add(), f32(0.0))(x)
        assert infer_types(e) == ArrayType(FLOAT, Cst(1))

    def test_reduce_accumulator_mismatch(self):
        x = typed_param(ArrayType(FLOAT, 16))
        bad = UserFun("toInt", ["a", "b"], "return 1;", [FLOAT, FLOAT], INT)
        with pytest.raises(LiftTypeError):
            infer_types(reduce_seq(bad, f32(0.0))(x))

    def test_transpose_type(self):
        x = typed_param(array(FLOAT, 4, 8))
        assert infer_types(transpose()(x)) == array(FLOAT, 8, 4)

    def test_slide_type(self):
        n = Var("N")
        x = typed_param(ArrayType(FLOAT, n))
        out = infer_types(slide(3, 1)(x))
        assert out == ArrayType(ArrayType(FLOAT, 3), simplify(n - 2))

    def test_pad_type(self):
        x = typed_param(ArrayType(FLOAT, 8))
        assert infer_types(pad(1, 1)(x)) == ArrayType(FLOAT, 10)

    def test_vectorize_types(self):
        x = typed_param(ArrayType(FLOAT, 64))
        e = pipe(x, as_vector(4))
        assert infer_types(e) == ArrayType(VectorType(FLOAT, 4), 16)
        e2 = pipe(x, as_vector(4), as_scalar())
        assert infer_types(e2) == ArrayType(FLOAT, 64)

    def test_iterate_halving_closed_form(self):
        x = typed_param(ArrayType(FLOAT, 64))
        halve = compose(join(), map_seq(reduce_seq(add(), f32(0.0))), split(2))
        e = Iterate(6, halve)(x)
        assert infer_types(e) == ArrayType(FLOAT, Cst(1))

    def test_iterate_identity_closed_form(self):
        n = Var("N")
        x = typed_param(ArrayType(FLOAT, n))
        e = Iterate(10, map_seq(id_fun()))(x)
        assert infer_types(e) == ArrayType(FLOAT, n)

    def test_nested_iterate_probes_are_named_by_the_program(self):
        """Each iterate types its body over a probe length.  The inner
        probe's input length contains the outer probe, so the two are
        distinct; both are functions of the program, not of what was
        typed before, and neither reaches the inferred type."""
        from repro.arith.expr import free_vars

        def program():
            halve = compose(
                join(), map_seq(reduce_seq(add(), f32(0.0))), split(2)
            )
            x = typed_param(ArrayType(FLOAT, Var("N")), "x")
            step = compose(Iterate(3, halve), halve)
            return Iterate(2, step)(x)

        def typed(e):
            out = infer_types(e)
            return out, [str(node.type) for node in post_order(e)]

        e = program()
        out, annotations = typed(e)
        assert out == ArrayType(FLOAT, simplify(Var("N") // 256))
        assert {v.name for v in free_vars(out.length)} == {"N"}
        probes = set(re.findall(r"itr_n_\d+", " ".join(annotations)))
        assert probes == {"itr_n_0", "itr_n_1"}
        assert typed(program()) == typed(e) == (out, annotations)

    def test_get_type(self):
        x = typed_param(TupleType([FLOAT, INT]))
        assert infer_types(get(x, 1)) == INT
        with pytest.raises(LiftTypeError):
            infer_types(get(x, 2))

    def test_make_tuple(self):
        a = typed_param(FLOAT)
        b = typed_param(INT)
        assert infer_types(make_tuple(a, b)) == TupleType([FLOAT, INT])

    def test_untyped_param_rejected(self):
        with pytest.raises(LiftTypeError):
            infer_types(map_seq(id_fun())(Param()))

    def test_listing1_partial_dot_types(self):
        prog = partial_dot()
        n = Var("N")
        out = infer_types(prog.body)
        assert out == ArrayType(FLOAT, simplify(n // 128))


class TestInterp:
    def test_map_seq(self):
        x = typed_param(ArrayType(FLOAT, 4))
        e = map_seq(id_fun())(x)
        assert evaluate(e, {x: [1.0, 2.0, 3.0, 4.0]}) == [1.0, 2.0, 3.0, 4.0]

    def test_reduce(self):
        x = typed_param(ArrayType(FLOAT, 4))
        e = reduce_seq(add(), f32(0.0))(x)
        assert evaluate(e, {x: [1.0, 2.0, 3.0, 4.0]}) == [10.0]

    def test_split_join(self):
        x = typed_param(ArrayType(FLOAT, 6))
        e = pipe(x, split(2), join())
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert evaluate(e, {x: data}) == data

    def test_split_shape(self):
        x = typed_param(ArrayType(FLOAT, 6))
        e = pipe(x, split(3))
        assert evaluate(e, {x: [1, 2, 3, 4, 5, 6]}) == [[1, 2, 3], [4, 5, 6]]

    def test_gather_reverse(self):
        x = typed_param(ArrayType(FLOAT, 4))
        e = gather(reverse_indices())(x)
        assert evaluate(e, {x: [1, 2, 3, 4]}) == [4, 3, 2, 1]

    def test_scatter_is_inverse_of_gather_for_shift(self):
        x = typed_param(ArrayType(FLOAT, 5))
        data = [1, 2, 3, 4, 5]
        shifted = apply_fun(gather(shift_indices(2)).__class__ and gather(shift_indices(2)), [data])
        unshifted = apply_fun(scatter(shift_indices(2)), [shifted])
        assert unshifted == data

    def test_transpose(self):
        x = typed_param(array(FLOAT, 2, 3))
        e = transpose()(x)
        assert evaluate(e, {x: [[1, 2, 3], [4, 5, 6]]}) == [[1, 4], [2, 5], [3, 6]]

    def test_transpose_via_gather_matches_pattern(self):
        rows, cols = 3, 4
        data = [[r * cols + c for c in range(cols)] for r in range(rows)]
        direct = apply_fun(transpose(), [data])
        composed = apply_fun(
            compose(split(rows), gather(transpose_indices(rows, cols)), join()),
            [data],
        )
        assert composed == direct

    def test_slide_windows(self):
        x = typed_param(ArrayType(FLOAT, 5))
        e = slide(3, 1)(x)
        assert evaluate(e, {x: [1, 2, 3, 4, 5]}) == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]

    def test_pad_clamps(self):
        x = typed_param(ArrayType(FLOAT, 3))
        e = pad(2, 1)(x)
        assert evaluate(e, {x: [7, 8, 9]}) == [7, 7, 7, 8, 9, 9]

    def test_vector_roundtrip(self):
        x = typed_param(ArrayType(FLOAT, 8))
        data = [float(i) for i in range(8)]
        e = pipe(x, as_vector(4), as_scalar())
        assert evaluate(e, {x: data}) == data

    def test_vectorized_userfun(self):
        f = mult().vectorized(4)
        a = VecValue([1.0, 2.0, 3.0, 4.0])
        b = VecValue([5.0, 6.0, 7.0, 8.0])
        assert f.py(a, b) == VecValue([5.0, 12.0, 21.0, 32.0])

    def test_listing1_partial_dot_semantics(self):
        prog = partial_dot()
        n = 256
        xs = [float(i % 7) for i in range(n)]
        ys = [float((i * 3) % 5) for i in range(n)]
        result = apply_fun(prog, [xs, ys], size_env={"N": n})
        expected = [
            sum(x * y for x, y in zip(xs[i : i + 128], ys[i : i + 128]))
            for i in range(0, n, 128)
        ]
        assert len(result) == 2
        for got, want in zip(result, expected):
            assert got == pytest.approx(want)

    def test_iterate_runs_n_times(self):
        x = typed_param(ArrayType(FLOAT, 64))
        halve = compose(join(), map_seq(reduce_seq(add(), f32(0.0))), split(2))
        e = Iterate(6, halve)(x)
        data = [1.0] * 64
        assert evaluate(e, {x: data}) == [64.0]


class TestVisit:
    def test_post_order_covers_args(self):
        prog = simple_map_add_one()
        nodes = list(post_order(prog.body))
        assert prog.body in nodes
        assert prog.params[0] in nodes

    def test_clone_is_deep(self):
        prog = partial_dot()
        copy = clone_decl(prog)
        original = set(id(e) for e in post_order(prog.body))
        cloned = set(id(e) for e in post_order(copy.body))
        assert not (original & cloned)

    def test_clone_preserves_semantics(self):
        prog = partial_dot()
        copy = clone_decl(prog)
        xs = [1.0] * 128
        ys = [2.0] * 128
        assert apply_fun(copy, [xs, ys], {"N": 128}) == apply_fun(
            prog, [xs, ys], {"N": 128}
        )

    def test_count_nodes(self):
        prog = simple_map_add_one()
        assert count_nodes(prog.body) > 1

    def test_clone_expr_param_substitution(self):
        x = typed_param(ArrayType(FLOAT, 4), "x")
        y = typed_param(ArrayType(FLOAT, 4), "y")
        e = map_seq(id_fun())(x)
        swapped = clone_expr(e, {x: y})
        assert evaluate(swapped, {y: [9.0] * 4}) == [9.0] * 4


class TestPatternProtocol:
    """Traversals know patterns only through ``f`` / ``with_f`` /
    ``payload`` / ``with_payload``: a map variant and a payload-carrying
    leaf that no traversal module has heard of clone, rewrite,
    canonicalize and specialize like the built-in ones."""

    def _probe(self):
        from repro.arith.expr import to_expr
        from repro.ir.dsl import map_
        from repro.ir.nodes import Pattern
        from repro.ir.patterns import AbstractMap

        class MapProbe(AbstractMap):
            """A map variant the traversal modules do not list."""

        class Window(Pattern):
            """``[T]_n -> [T]_size``, with ``size`` as static payload."""

            __slots__ = payload = ("size",)

            def __init__(self, size):
                self.size = to_expr(size)

            def infer_type(self, arg_types, call):
                return ArrayType(arg_types[0].elem, self.size)

        n = Var("N")
        x = typed_param(ArrayType(FLOAT, n), "x")
        rows = split(4)(FunCall(Window(n // 2), [x]))
        body = FunCall(MapProbe(lam(lambda row: map_(id_fun())(row))), [rows])
        return MapProbe, Window, x, body

    def test_clone_rebuilds_an_unlisted_map(self):
        MapProbe, _, _, body = self._probe()
        copy = clone_expr(body)
        assert type(copy.f) is MapProbe and copy.f is not body.f
        # The nested lambda's parameter is fresh, not shared.
        assert copy.f.f.params[0] is not body.f.f.params[0]
        assert copy.f.f.body.args[0] is copy.f.f.params[0]

    def test_traversals_reach_the_nested_body(self):
        from repro.ir.patterns import Map, MapSeq
        from repro.ir.visit import transform_calls
        from repro.rewrite.rules import map_to_seq
        from repro.rewrite.strategies import one_step_rewrites

        MapProbe, _, _, body = self._probe()
        inner = body.f.f.body
        assert any(e is inner for e in post_order(body))

        # A pass that replaces nothing hands its argument back ...
        seen = []
        assert transform_calls(body, lambda call: seen.append(call.f)) is body
        assert [type(f).__name__ for f in seen] == [
            "UserFun", "Map", "Window", "Split", "MapProbe",
        ]
        # ... and one that replaces a single call allocates nodes only on
        # the path to it: the root call, the probe and its lambda.
        lowered = map_to_seq().apply(inner)
        rebuilt = transform_calls(
            body, lambda call: lowered if call is inner else None
        )
        assert rebuilt is not body and type(rebuilt.f) is MapProbe
        assert rebuilt.f is not body.f and rebuilt.f.f is not body.f.f
        assert rebuilt.f.f.body is lowered
        assert rebuilt.f.f.params == body.f.f.params
        assert rebuilt.args[0] is body.args[0]
        assert lowered.args[0] is inner.args[0]

        (variant,) = one_step_rewrites(map_to_seq(), body)
        assert type(variant.f) is MapProbe
        assert type(variant.f.f.body.f) is MapSeq
        assert type(inner.f) is Map  # the source is untouched

    def test_canonical_and_specialize_read_the_payload(self):
        from repro.ir.structural import canonical
        from repro.rewrite.explore import specialize_sizes

        _, Window, x, body = self._probe()
        prog = Lambda([x], body)
        text = canonical(prog)
        assert "(call (MapProbe (lam [None] " in text
        assert f"(Window:{Var('N') // 2})" in text
        special = specialize_sizes(prog, {"N": 16})
        (window,) = [
            e.f for e in post_order(special.body)
            if isinstance(e, FunCall) and isinstance(e.f, Window)
        ]
        assert window.size == Cst(8)
        assert "(Window:8)" in canonical(special)
        assert infer_types(special.body) == ArrayType(ArrayType(FLOAT, 4), 2)


def _typed(name, t):
    p = Param(name)
    p.type = t
    return p


def _uf(name, ins, out):
    return UserFun(name, [f"p{i}" for i in range(len(ins))], "return p0;", ins, out)


#: Malformed programs, each refused by the type checker with its reason.
_MALFORMED = {
    "a split of a scalar": (
        lambda: split(2)(_typed("x", FLOAT)), "split expects an array"),
    "a lambda of two parameters applied to one argument": (
        lambda: map_seq(Lambda([Param("a"), Param("b")], Param("a")))(
            _typed("xs", array(FLOAT, 4))),
        "lambda of 2 parameter(s) applied to 1 argument(s)"),
    "get of an array": (
        lambda: get(_typed("xs", array(FLOAT, 4)), 0), "get expects a tuple"),
    "filter by tuple indices": (
        lambda: FunCall(Filter(), [_typed("xs", array(FLOAT, 4)),
                                   _typed("ix", array(TupleType([INT, INT]), 2))]),
        "filter indices must be scalars"),
    "asVector of vectors": (
        lambda: as_vector(4)(_typed("xs", array(VectorType(FLOAT, 4), 8))),
        "asVector expects scalars"),
    "asScalar of scalars": (
        lambda: as_scalar()(_typed("xs", array(FLOAT, 8))),
        "asScalar expects vectors"),
    "an iterate body that changes the element type": (
        lambda: Iterate(2, map_seq(_uf("to_int", [FLOAT], INT)))(
            _typed("xs", array(FLOAT, 4))),
        "iterate body must preserve the element type"),
    "a parameter of no type": (
        lambda: map_seq(id_fun())(Param(name="xs")), "parameter xs has no type"),
}


class TestMalformedPrograms:
    @pytest.mark.parametrize("name", sorted(_MALFORMED))
    def test_the_type_checker_names_the_fault(self, name):
        build, reason = _MALFORMED[name]
        with pytest.raises(LiftTypeError, match=re.escape(reason)):
            infer_types(build())

    def test_a_typed_memo_refuses_a_parameter_of_no_type(self):
        from repro.ir.typecheck import TypeMemo

        with pytest.raises(LiftTypeError, match="parameter xs has no type"):
            TypeMemo().infer(map_seq(id_fun())(Param(name="xs")))

    @pytest.mark.parametrize("build, error", [
        (lambda: UserFun("f", ["a", "b"], "", [FLOAT], FLOAT), "differ in length"),
        (lambda: MapGlb(id_fun(), 3), "dimensions 0, 1, 2"),
        (lambda: Zip(1), "at least two arrays"),
        (lambda: compose(), "at least one function"),
    ])
    def test_a_constructor_refuses_bad_arguments(self, build, error):
        with pytest.raises((TypeError, ValueError), match=error):
            build()


class TestSmallForms:
    def test_reprs_name_the_node(self):
        a = Param(name="a")
        assert repr(Literal(1.5, FLOAT)) == "Literal(1.5)"
        assert repr(Lambda([a], a)) == "Lambda(a)"
        assert repr(reverse_indices()) == "IndexFun(reverse)"

    def test_iterate_rebuilds_with_a_new_count(self):
        it = Iterate(2, map_seq(id_fun()))
        again = it.with_payload(5)
        assert type(again) is Iterate and again.n == Cst(5)

    def test_join_of_a_transposed_split_is_the_whole_length(self):
        n = Var("N")
        xs = _typed("xs", array(FLOAT, n * 4))
        assert infer_types(join()(transpose()(split(4)(xs)))) == array(FLOAT, n * 4)

    def test_a_vectorized_user_function_keeps_its_tuple_types(self):
        pair = TupleType([FLOAT, FLOAT])
        vec = _uf("first", [pair], FLOAT).vectorized(4)
        assert vec.in_types == (pair,) and vec.out_type == VectorType(FLOAT, 4)

    def test_pad_prints_its_widths(self):
        from repro.ir.printer import print_decl

        assert print_decl(pad(1, 2)) == "pad(1,2)"

    def test_a_user_function_maps_without_a_lambda(self):
        from repro.ir.interp import VecValue, evaluate

        xs = _typed("xs", array(FLOAT, 3))
        assert evaluate(map_seq(id_fun())(xs), {xs: [1.0, 2.0, 3.0]}) == [1.0, 2.0, 3.0]
        v = VecValue([1.0, 2.0])
        assert v.width == 2 and repr(v) == "VecValue(1.0, 2.0)"

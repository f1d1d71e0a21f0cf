"""Unit and property tests for the symbolic arithmetic substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import (
    Cst,
    IntDiv,
    Mod,
    Prod,
    Range,
    Sum,
    Var,
    bound_max,
    bound_min,
    prove_ge_zero,
    prove_lt,
    simplify,
    substitute,
)
from repro.arith.expr import free_vars, to_expr
from repro.arith.simplify import int_div, mod, pow_, sum_of, prod_of, to_int


def var(name, lo=0, hi=None):
    return Var(name, Range.of(lo, hi))


class TestConstruction:
    def test_constant_folding_add(self):
        assert Cst(2) + Cst(3) == Cst(5)

    def test_constant_folding_mul(self):
        assert Cst(4) * Cst(5) == Cst(20)

    def test_constant_folding_div(self):
        assert Cst(7) // Cst(2) == Cst(3)

    def test_constant_folding_mod(self):
        assert Cst(7) % Cst(2) == Cst(1)

    def test_int_coercion(self):
        x = Var("x")
        assert x + 0 == x
        assert x * 1 == x
        assert x * 0 == Cst(0)

    def test_like_terms_collected(self):
        x = Var("x")
        assert x + x == Cst(2) * x

    def test_like_terms_cancel(self):
        x = Var("x")
        assert x - x == Cst(0)

    def test_sum_flattening(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        e = (x + y) + z
        assert isinstance(e, Sum)
        assert len(e.terms) == 3

    def test_product_flattening(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        e = (x * y) * z
        assert isinstance(e, Prod)
        assert len(e.factors) == 3

    def test_distribution(self):
        x, y = Var("x"), Var("y")
        e = Cst(2) * (x + y)
        assert e == Cst(2) * x + Cst(2) * y

    def test_commutativity_canonical(self):
        x, y = Var("x"), Var("y")
        assert x + y == y + x
        assert x * y == y * x

    def test_raw_constructors_do_not_simplify(self):
        x = Var("x")
        raw = Sum([x, Cst(0), Cst(0)])
        assert len(raw.terms) == 3

    def test_sum_requires_two_terms(self):
        with pytest.raises(ValueError):
            Sum([Cst(1)])

    def test_cst_requires_int(self):
        with pytest.raises(TypeError):
            Cst(1.5)

    def test_to_expr_rejects_junk(self):
        with pytest.raises(TypeError):
            to_expr("x")

    def test_to_int(self):
        assert to_int(Cst(3) + Cst(4)) == 7
        with pytest.raises(ValueError):
            to_int(Var("n"))


class TestPaperRules:
    """The six rules listed in section 5.3 of the paper."""

    def test_rule1_div_of_smaller(self):
        # x / y = 0 if x < y
        l_id = var("l_id", 0, Var("M"))
        assert l_id // Var("M") == Cst(0)

    def test_rule1_needs_proof(self):
        x = Var("x")  # range [1, inf): not provably < M
        e = x // Var("M")
        assert isinstance(e, IntDiv)

    def test_rule2_multiple_extraction(self):
        # (x * y + z) / y = x + z / y
        x, y, z = Var("x"), Var("y"), Var("z")
        assert (x * y + z) // y == x + z // y

    def test_rule3_mod_of_smaller(self):
        l_id = var("l_id", 0, Var("M"))
        assert l_id % Var("M") == l_id

    def test_rule4_div_mod_recomposition(self):
        # (x / y) * y + x mod y = x
        x, y = Var("x"), Var("y")
        e = (x // y) * y + x % y
        assert e == x

    def test_rule4_with_shared_coefficient(self):
        x, y = Var("x"), Var("y")
        e = Cst(3) * (x // y) * y + Cst(3) * (x % y)
        assert e == Cst(3) * x

    def test_rule5_mod_of_multiple(self):
        x, y = Var("x"), Var("y")
        assert (x * y) % y == Cst(0)

    def test_rule5_constant_multiple(self):
        x = Var("x")
        assert (Cst(6) * x) % Cst(3) == Cst(0)

    def test_rule6_mod_distribution(self):
        # (wg_id * M + l_id) mod M = l_id  given l_id < M
        m = Var("M")
        wg_id = var("wg_id", 0, Var("N"))
        l_id = var("l_id", 0, m)
        assert (wg_id * m + l_id) % m == l_id

    def test_div_distribution(self):
        m = Var("M")
        wg_id = var("wg_id", 0, Var("N"))
        l_id = var("l_id", 0, m)
        assert (wg_id * m + l_id) // m == wg_id


class TestFigure6:
    """The matrix-transposition index of Figure 6 simplifies to line 3."""

    def test_full_simplification(self):
        m, n = Var("M"), Var("N")
        wg_id = var("wg_id", 0, n)
        l_id = var("l_id", 0, m)
        flat = wg_id * m + l_id
        # line 1 of Figure 6 (with x = flat):
        remapped = (flat // m) + (flat % m) * n
        index = (remapped // n) * n + remapped % n
        assert index == l_id * n + wg_id

    def test_intermediate_step_line2(self):
        m, n = Var("M"), Var("N")
        wg_id = var("wg_id", 0, n)
        l_id = var("l_id", 0, m)
        flat = wg_id * m + l_id
        remapped = (flat // m) + (flat % m) * n
        assert remapped == wg_id + l_id * n


class TestDivMod:
    def test_nested_div(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        assert (x // y) // z == x // (y * z)

    def test_div_cancel_factor(self):
        x, y = Var("x"), Var("y")
        assert (x * y) // y == x

    def test_div_gcd_reduction(self):
        x = Var("x")
        assert (Cst(4) * x) // Cst(8) == x // Cst(2)

    def test_mod_idempotent(self):
        x, y = Var("x"), Var("y")
        assert (x % y) % y == x % y

    def test_mod_common_factor(self):
        x = Var("x")
        assert (Cst(4) * x) % Cst(8) == Cst(4) * (x % Cst(2))

    def test_div_by_one(self):
        x = Var("x")
        assert x // Cst(1) == x

    def test_mod_by_one(self):
        x = Var("x")
        assert x % Cst(1) == Cst(0)

    def test_self_div(self):
        x = Var("x")
        assert x // x == Cst(1)

    def test_self_mod(self):
        x = Var("x")
        assert x % x == Cst(0)

    def test_exact_quotient_needs_every_term_to_be_a_multiple(self):
        from repro.arith.simplify import exact_quotient

        i, j = var("i", 0, 4), var("j")
        assert exact_quotient(Cst(4) * i + Cst(64) * j + Cst(8), Cst(4)) == (
            i + Cst(16) * j + Cst(2)
        )
        assert exact_quotient(Cst(3) * i, Cst(4)) is None
        assert exact_quotient(Cst(4) * j + Cst(2), Cst(4)) is None
        # i < 4 makes i // 4 == 0, but i is still no multiple of 4.
        assert exact_quotient(i, Cst(4)) is None


class TestPow:
    def test_pow_zero(self):
        assert pow_(Var("x"), Cst(0)) == Cst(1)

    def test_pow_one(self):
        x = Var("x")
        assert pow_(x, Cst(1)) == x

    def test_pow_const(self):
        assert pow_(Cst(2), Cst(10)) == Cst(1024)


class TestRanges:
    def test_bound_of_var(self):
        n = Var("N")
        i = var("i", 0, n)
        assert bound_min(i) == Cst(0)
        assert bound_max(i) == n - 1

    def test_bound_of_sum(self):
        n = Var("N")
        i = var("i", 0, n)
        assert bound_max(i + 1) == n

    def test_bound_of_product(self):
        i = var("i", 0, 4)
        j = var("j", 0, 8)
        assert bound_max(i * j) == Cst(21)
        assert bound_min(i * j) == Cst(0)

    def test_unbounded_var(self):
        assert bound_max(Var("N")) is None

    def test_prove_lt(self):
        n = Var("N")
        i = var("i", 0, n)
        assert prove_lt(i, n)
        assert not prove_lt(n, i)

    def test_prove_ge_zero(self):
        i = var("i", 0, 4)
        assert prove_ge_zero(i)
        assert prove_ge_zero(i * 3 + 1)

    def test_split_index_in_bounds(self):
        # 2*l_id + i with l_id in [0,64), i in [0,2) is < 128
        l_id = var("l_id", 0, 64)
        i = var("i", 0, 2)
        e = Cst(2) * l_id + i
        assert prove_lt(e, Cst(128))
        assert (Cst(2) * l_id + i) % Cst(128) == e


class TestEvalSubstitute:
    def test_evaluate(self):
        x, y = Var("x"), Var("y")
        e = (x * y + 3) % (y + 1)
        assert e.evaluate({"x": 5, "y": 4}) == (5 * 4 + 3) % 5

    def test_evaluate_missing_var(self):
        with pytest.raises(KeyError):
            Var("q").evaluate({})

    def test_substitute(self):
        x, y = Var("x"), Var("y")
        e = x * 2 + y
        assert substitute(e, {x: Cst(3)}) == Cst(6) + y

    def test_free_vars(self):
        x, y = Var("x"), Var("y")
        assert free_vars(x * 2 + y % x) == {x, y}

    def test_division_by_zero_raises(self):
        e = IntDiv(Var("x"), Var("y"))
        with pytest.raises(ZeroDivisionError):
            e.evaluate({"x": 1, "y": 0})


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------

_names = ("a", "b", "c")


def _exprs(depth=3):
    leaves = st.one_of(
        st.integers(min_value=0, max_value=12).map(Cst),
        st.sampled_from([Var(n, Range.of(1, 13)) for n in _names]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: Sum([p[0], p[1]])),
            st.tuples(children, children).map(lambda p: Prod([p[0], p[1]])),
            st.tuples(children, children).map(lambda p: IntDiv(p[0], Sum([p[1], Cst(1)]))),
            st.tuples(children, children).map(lambda p: Mod(p[0], Sum([p[1], Cst(1)]))),
        )

    return st.recursive(leaves, extend, max_leaves=depth * 4)


@given(_exprs(), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_simplify_preserves_value(expr, a, b, c):
    """Simplification never changes the value of an expression."""
    env = {"a": a, "b": b, "c": c}
    assert simplify(expr).evaluate(env) == expr.evaluate(env)


@given(_exprs(), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_simplify_idempotent(expr, a, b, c):
    env = {"a": a, "b": b, "c": c}
    once = simplify(expr)
    twice = simplify(once)
    assert twice.evaluate(env) == once.evaluate(env)


@given(_exprs(), _exprs())
@settings(max_examples=150, deadline=None)
def test_prove_lt_is_sound(x, y):
    """Whenever the prover claims x < y, every valuation agrees."""
    if prove_lt(x, y):
        for a in (1, 5, 12):
            for b in (1, 7):
                env = {"a": a, "b": b, "c": 3}
                assert x.evaluate(env) < y.evaluate(env)


@given(_exprs())
@settings(max_examples=150, deadline=None)
def test_bounds_are_sound(expr):
    lo, hi = bound_min(expr), bound_max(expr)
    for a in (1, 4, 12):
        env = {"a": a, "b": 2, "c": 9}
        v = expr.evaluate(env)
        if lo is not None:
            assert lo.evaluate(env) <= v
        if hi is not None:
            assert v <= hi.evaluate(env)


def _one_of_each(n):
    """One node of every class, over the variable ``n``."""
    from repro.arith import Log2, Pow
    from repro.arith.expr import LoadIndex

    return {
        "Cst": Cst(3), "Var": n, "Sum": Sum([n, Cst(1)]),
        "Prod": Prod([Cst(2), n]), "IntDiv": IntDiv(n, Cst(2)),
        "Mod": Mod(n, Cst(2)), "Pow": Pow(n, Cst(2)), "Log2": Log2(n),
        "LoadIndex": LoadIndex("idx", n),
    }


class TestEveryNodeClass:
    """The value-object protocol of each node class: the tuning cache
    pickles kernels that hold them."""

    @pytest.mark.parametrize("name", sorted(_one_of_each(Var("N"))))
    def test_a_pickle_round_trip_gives_the_interned_node(self, name):
        import pickle

        node = _one_of_each(var("N", 1, 64))[name]
        back = pickle.loads(pickle.dumps(node))
        assert back is node and hash(back) == hash(node)

    @pytest.mark.parametrize("name", sorted(_one_of_each(Var("N"))))
    def test_equality_is_structural(self, name):
        # Same-named variables with other ranges are distinct objects
        # that compare equal, and so are the nodes built over them.
        a = _one_of_each(var("N", 1, 64))[name]
        b = _one_of_each(var("N", 2, 32))[name]
        assert a == b and hash(a) == hash(b)
        assert a != Var("M") + 7

    def test_reflected_operators_simplify(self):
        n = Var("N")
        assert 2 * n == n * 2 and 1 + n == n + 1
        assert 1 - n == Cst(1) + (-n) == -n + 1
        assert 8 // Cst(2) == Cst(4) and 9 % Cst(4) == Cst(1)
        assert (8 // n).evaluate({"N": 3}) == 2 and (9 % n).evaluate({"N": 4}) == 1

    def test_pow_and_log2(self):
        from repro.arith import Log2, Pow
        from repro.arith.simplify import log2

        n = var("n", 0, 4)
        p = n ** Cst(3)
        assert isinstance(p, Pow) and repr(p) == "pow(n, 3)"
        assert p.evaluate({"n": 2}) == 8 and set(p.children()) == {n, Cst(3)}
        assert pow_(Cst(1), Var("k")) == Cst(1)
        assert log2(Cst(2) ** Var("k")) == Var("k") and log2(Cst(8)) == Cst(3)
        lg = log2(n)
        assert isinstance(lg, Log2) and repr(lg) == "log2(n)"
        assert lg.evaluate({"n": 8}) == 3 and tuple(lg.children()) == (n,)
        with pytest.raises(ValueError, match="non-power-of-two"):
            lg.evaluate({"n": 6})
        assert simplify(Pow(Cst(2), Cst(3))) == Cst(8)
        assert simplify(Log2(Cst(16))) == Cst(4)
        m = Var("m")
        assert substitute(p, {n: Cst(3)}) == Cst(27)
        assert substitute(Log2(m), {m: Cst(32)}) == Cst(5)
        # Bounds of a power of a positive base; a log is non-negative.
        q = var("q", 1, 4) ** Cst(3)
        assert bound_max(q) == Cst(27) and bound_min(q) == Cst(1)
        assert bound_max(p) is None  # 0 ** 0 is 1: no monotone bound
        # k ** 2 for k in [-2, 2) reaches 4, above (max k) ** 2.
        assert bound_max(Pow(Var("k", Range.of(-2, 2)), Cst(2))) is None
        assert bound_max(lg) is None
        assert prove_ge_zero(lg) and prove_ge_zero(Pow(n, Var("k")))
        assert prove_lt(Cst(0), Pow(Var("k"), Cst(2)) + 0)

    def test_the_raw_constructors_check_their_arguments(self):
        assert Cst(True) is Cst(1)
        with pytest.raises(ValueError, match="two factors"):
            Prod([Var("N")])
        with pytest.raises(ZeroDivisionError, match="modulo by zero"):
            Mod(Var("N"), Cst(0)).evaluate({"N": 3})

    def test_deep_proofs_give_up(self, monkeypatch):
        import sys

        simplify_module = sys.modules["repro.arith.simplify"]
        monkeypatch.setattr(simplify_module, "_MAX_PROOF_DEPTH", 0)
        i = var("i", 0, 4)
        assert not prove_lt(i, Cst(4))
        assert bound_max(i) is None
        assert mod(i, Cst(4)) == Mod(i, Cst(4))  # rule (3) unproved

    def test_bounds_through_symbolic_ranges(self):
        n = Var("N")
        i = var("i", n, None)  # i >= N >= 1
        assert prove_ge_zero(i) and prove_lt(Cst(0), i)
        assert bound_max(n + 1) is None and bound_max(i % n) is None
        assert bound_min(var("j", 0, 8) // n) == Cst(0)

    def test_recomposition_cancels_a_term(self):
        x = Var("x")
        recomposed = sum_of([Prod([Cst(4), IntDiv(x, Cst(4))]), Mod(x, Cst(4)),
                             Prod([Cst(-1), x])])
        assert recomposed == Cst(0)
        assert prod_of([Cst(0), x]) == Cst(0)

    def test_a_zero_coefficient_guards(self):
        from repro.arith.simplify import _exact_quotient, _from_factors

        x = Var("x")
        assert _from_factors(0, [x]) == Cst(0)
        assert _exact_quotient(x, Cst(0)) is None

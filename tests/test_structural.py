"""Structural hash/equality: alpha-equivalence, clone stability, and
sensitivity to rewrites."""

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir.dsl import add, f32, join, map_, reduce_, split
from repro.ir.structural import canonical, structural_eq, structural_hash
from repro.ir.visit import clone_decl, clone_expr
from repro.rewrite.rules import map_fusion, map_to_seq, split_join
from repro.rewrite.strategies import rewrite_first


def _plus_one():
    return UserFun("plusOne", ["v"], "return v + 1.0f;", [FLOAT], FLOAT,
                   py=lambda v: v + 1.0)


def _program(param_name="x"):
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), param_name)
    return Lambda([x], map_(_plus_one())(x))


class TestAlphaEquivalence:
    def test_parameter_names_do_not_matter(self):
        assert structural_eq(_program("x"), _program("completely_different"))
        assert structural_hash(_program("x")) == structural_hash(_program("y"))

    def test_independent_constructions_are_equal(self):
        assert structural_eq(_program(), _program())

    def test_nested_lambda_renaming(self):
        n = Var("N")

        def build(inner_name):
            x = Param(ArrayType(FLOAT, n), "x")
            p = Param(None, inner_name)
            inner = Lambda([p], FunCall(_plus_one(), [p]))
            return Lambda([x], map_(inner)(x))

        assert structural_eq(build("a"), build("zzz"))

    def test_different_structure_differs(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        mapped = Lambda([x], map_(_plus_one())(x))
        reduced = Lambda([x], reduce_(add(), f32(0.0))(x))
        assert not structural_eq(mapped, reduced)

    def test_different_user_fun_bodies_differ(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        other = UserFun("plusOne", ["v"], "return v + 2.0f;", [FLOAT], FLOAT)
        a = Lambda([x], map_(_plus_one())(x))
        b = Lambda([x], map_(other)(x))
        assert not structural_eq(a, b)

    def test_split_factor_is_part_of_identity(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        a = join()(split(4)(x))
        b = join()(split(8)(x))
        assert canonical(a) != canonical(b)

    def test_parallel_map_dimension_is_part_of_identity(self):
        """``mapGlb(f, 0)`` and ``mapGlb(f, 1)`` are different schedules;
        the explorer's dedup and the on-disk tuning cache must never
        collapse them (likewise for mapWrg/mapLcl)."""
        from repro.ir import patterns as pat

        n = Var("N")
        for cls in (pat.MapGlb, pat.MapWrg, pat.MapLcl):
            x = Param(ArrayType(FLOAT, n), "x")
            dim0 = Lambda([x], FunCall(cls(_plus_one(), 0), [x]))
            dim1 = Lambda([x], FunCall(cls(_plus_one(), 1), [x]))
            assert not structural_eq(dim0, dim1)
            assert structural_hash(dim0) != structural_hash(dim1)
            # ...while equal dims stay alpha-equivalent across clones.
            assert structural_eq(dim0, clone_decl(dim0))


class TestCloneStability:
    def test_hash_stable_across_clone_decl(self):
        prog = _program()
        assert structural_hash(prog) == structural_hash(clone_decl(prog))

    def test_hash_stable_across_clone_expr(self):
        prog = _program()
        assert structural_hash(prog.body) == structural_hash(
            clone_expr(prog.body)
        )

    def test_repeated_clones_stay_equal(self):
        prog = _program()
        current = prog
        for _ in range(4):
            current = clone_decl(current)
        assert structural_eq(prog, current)


class TestRewriteSensitivity:
    def test_rule_application_changes_hash(self):
        prog = _program()
        lowered = rewrite_first(map_to_seq(), prog.body)
        assert lowered is not None
        assert structural_hash(prog.body) != structural_hash(lowered)

    def test_split_join_changes_hash(self):
        prog = _program()
        tiled = rewrite_first(split_join(4), prog.body)
        assert structural_hash(prog.body) != structural_hash(tiled)

    def test_fusion_changes_hash_but_is_self_stable(self):
        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        body = map_(_plus_one())(map_(_plus_one())(x))
        fused = rewrite_first(map_fusion(), body)
        assert structural_hash(body) != structural_hash(fused)
        # Cloning the fused program does not change its identity.
        assert structural_hash(fused) == structural_hash(clone_expr(fused))

    def test_process_independent_digest_shape(self):
        digest = structural_hash(_program())
        assert len(digest) == 64
        int(digest, 16)  # hex


class TestKeyDependsOnStructureOnly:
    """``infer_types`` writes types onto bound lambda parameters; the
    key is an on-disk content address and must not move when it does."""

    def test_typing_a_program_keeps_its_key(self):
        from repro.ir.typecheck import infer_types

        prog = _program()
        key = canonical(prog)
        infer_types(prog.body)
        assert canonical(prog) == key

    def test_key_survives_clone_and_typing_on_the_benchmark_corpus(self):
        """Every benchmark's high-level and stage programs, plus every
        depth-3 derivation of the explorable ones."""
        from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
        from repro.benchsuite.explore import EXPLORABLE
        from repro.ir.typecheck import infer_types
        from repro.rewrite.explore import (
            ExploreConfig,
            ExploreStats,
            _enumerate,
            rule_menu,
        )

        corpus = []
        for name in ALL_BENCHMARKS:
            bench = get_benchmark(name)
            size_env = dict(bench.sizes["small"])
            corpus.append(bench.high_level(size_env))
            corpus.extend(stage.build(size_env) for stage in bench.stages)
        for name in EXPLORABLE:
            bench = get_benchmark(name)
            high_level = bench.high_level(dict(bench.sizes["small"]))
            derivations = _enumerate(
                high_level.body, rule_menu(), ExploreConfig(depth=3),
                ExploreStats(),
            )
            corpus.extend(
                Lambda(list(high_level.params), body)
                for body, _ in derivations
            )
        assert len(corpus) > 400
        for prog in corpus:
            key = canonical(prog)
            clone = clone_decl(prog)
            assert canonical(clone) == key
            try:
                infer_types(clone.body)
            except Exception:
                pass  # untypable derivations are typed as far as they go
            assert canonical(clone) == key


class TestKeyFormat:
    """The canonical string is an on-disk key format (tuning cache,
    calibration log): one literal per payload shape, so it cannot drift
    silently."""

    ID = "(uf id [x] 'return x;' [float]->float)"

    def _canonical(self, build):
        x = Param(ArrayType(FLOAT, Var("N")), "x")
        return canonical(Lambda([x], build(x)))

    def test_leaf_payloads(self):
        from repro.ir.dsl import as_scalar, as_vector, gather, pad, slide
        from repro.ir.patterns import reverse_indices

        expected = {
            "(call (Join) (call (Split:4) (b0)))":
                lambda x: join()(split(4)(x)),
            "(call (Slide:3:1) (b0))": lambda x: slide(3, 1)(x),
            "(call (Pad:1:2) (b0))": lambda x: pad(1, 2)(x),
            "(call (Gather:reverse) (b0))":
                lambda x: gather(reverse_indices())(x),
            "(call (AsScalar) (call (AsVector:4) (b0)))":
                lambda x: as_scalar()(as_vector(4)(x)),
        }
        for body, build in expected.items():
            assert self._canonical(build) == f"(lam [[float]_N] {body})"

    def test_nested_function_payloads(self):
        from repro.ir.dsl import (
            get, id_fun, iterate, lam, map_glb, map_seq, to_local, zip_,
        )

        n = Var("N")
        seq = f"(MapSeq (lam [None] (call {self.ID} (b2))))"
        expected = {
            f"(call (MapGlb:0 (lam [None] (call {self.ID} (b1)))) (b0))":
                lambda x: map_glb(id_fun(), 0)(x),
            f"(call (to:local (MapSeq (lam [None] (call {self.ID} (b1)))))"
            " (b0))": lambda x: to_local(map_seq(id_fun()))(x),
            f"(call (Iterate:N (lam [None] (call {seq} (b1)))) (b0))":
                lambda x: iterate(n, map_seq(id_fun()))(x),
            f"(call (MapSeq (lam [None] (call {self.ID} (call (Get:0) (b1)))))"
            " (call (Zip:2) (b0) (b0)))":
                lambda x: map_seq(lam(lambda p: id_fun()(get(p, 0))))(
                    zip_(x, x)
                ),
        }
        for body, build in expected.items():
            assert self._canonical(build) == f"(lam [[float]_N] {body})"


class TestFreeParametersHaveIdentity:
    """The explorer dedups *bodies*, where the program inputs are free:
    numbering them by first occurrence made ``zip(x, y)`` and
    ``zip(y, x)`` one program, so a rule that commutes or re-routes
    inputs would have been dropped as a duplicate."""

    def test_swapped_inputs_are_different_programs(self):
        from repro.ir.dsl import zip_
        from repro.ir.structural import key

        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        y = Param(ArrayType(FLOAT, n), "y")
        assert not structural_eq(zip_(x, y), zip_(y, x))
        assert key(zip_(x, y)) != key(zip_(y, x))
        assert structural_eq(zip_(x, y), zip_(x, y))
        # Bound, the order is the binder's business again.
        assert structural_eq(
            Lambda([x, y], zip_(x, y)), Lambda([y, x], zip_(y, x))
        )
        assert not structural_eq(
            Lambda([x, y], zip_(x, y)), Lambda([x, y], zip_(y, x))
        )

    def test_the_text_of_an_open_graph_only_numbers_them(self):
        from repro.ir.dsl import zip_

        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        y = Param(ArrayType(FLOAT, n), "y")
        assert canonical(zip_(x, y)) == canonical(zip_(y, x)) == (
            "(call (Zip:2) (free0) (free1))"
        )


#: SHA-256 over the ``structural_hash`` of every program of
#: :func:`_benchmark_corpus`, in order, recorded with the traversal-global
#: canonicalizer this key replaced.
CORPUS_DIGEST = "f05eac95e408e4961d4eb6a7037de53bb49876003ea89373f1a739ad1c89aa41"


def _benchmark_corpus():
    """The programs of ``test_key_survives_clone_and_typing_on_the_
    benchmark_corpus``: every benchmark's high-level and stage programs
    and every depth-3 derivation of the explorable ones."""
    from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
    from repro.benchsuite.explore import EXPLORABLE
    from repro.rewrite.explore import (
        ExploreConfig,
        ExploreStats,
        _enumerate,
        rule_menu,
    )

    corpus = []
    for name in ALL_BENCHMARKS:
        bench = get_benchmark(name)
        size_env = dict(bench.sizes["small"])
        corpus.append(bench.high_level(size_env))
        corpus.extend(stage.build(size_env) for stage in bench.stages)
    for name in EXPLORABLE:
        bench = get_benchmark(name)
        high_level = bench.high_level(dict(bench.sizes["small"]))
        derivations = _enumerate(
            high_level.body, rule_menu(), ExploreConfig(depth=3),
            ExploreStats(),
        )
        corpus.extend(
            Lambda(list(high_level.params), body) for body, _ in derivations
        )
    return corpus


class TestOneNotionOfEquality:
    """The key cached on the nodes and the printed text are one
    equivalence on programs; the key is context-free."""

    def test_key_and_text_agree_on_the_benchmark_corpus(self):
        import hashlib

        from repro.ir.structural import key
        from repro.ir.typecheck import infer_types

        corpus = _benchmark_corpus()
        assert len(corpus) > 400
        by_text, by_key = {}, {}
        for prog in corpus:
            text, k = canonical(prog), key(prog)
            # One class of programs per text and per key, and the same.
            assert by_text.setdefault(text, k) == k
            assert by_key.setdefault(k, text) == text
            clone = clone_decl(prog)
            assert key(clone) == k and key(clone_expr(prog.body)) == key(prog.body)
            try:
                infer_types(clone.body)
            except Exception:
                pass
            assert key(clone) == k and key(prog) == k
        assert 100 < len(by_text) == len(by_key) < len(corpus)
        # The text is an on-disk key (tuning cache, calibration log):
        # this is the digest of the corpus as the previous, whole-program
        # canonicalizer printed it.
        digest = hashlib.sha256(
            "".join(structural_hash(p) for p in corpus).encode()
        ).hexdigest()
        assert digest == CORPUS_DIGEST

    def test_a_shared_subtree_has_one_key_under_any_binders(self):
        from repro.ir.structural import key

        n = Var("N")
        p, q = Param(None, "p"), Param(None, "q")
        shared = FunCall(_plus_one(), [p])
        before = key(shared)
        x = Param(ArrayType(FLOAT, n), "x")
        shallow = Lambda([x], map_(Lambda([p], shared))(x))
        deep = Lambda(
            [x],
            map_(Lambda([p], shared))(
                map_(Lambda([q], FunCall(_plus_one(), [q])))(x)
            ),
        )
        # Printed, the subtree reads (b1) in one program and (b2) in the
        # other; keyed, it is the one cached object in both.
        uf = "(uf plusOne [v] 'return v + 1.0f;' [float]->float)"
        mapped = "(Map (lam [None] (call %s (b%%d))))" % uf
        assert canonical(shallow) == (
            f"(lam [[float]_N] (call {mapped % 1} (b0)))"
        )
        assert canonical(deep) == (
            f"(lam [[float]_N] (call {mapped % 2} (call {mapped % 1} (b0))))"
        )
        assert key(shared) is before
        assert key(shallow.body.f.f.body) is key(deep.body.f.f.body) is before
        # Same shape, another outer parameter: another key.
        other = FunCall(_plus_one(), [q])
        assert key(other)[0] == before[0] and key(other) != before
        assert structural_eq(Lambda([p], shared), Lambda([q], other))

    def test_racing_threads_cache_equal_keys(self):
        """``evaluate_candidates``' workers ask for the keys and texts of
        programs nobody keyed before (the fixed menu's): the lazy caches
        are single-slot writes of equal values."""
        import sys
        import threading

        from repro.benchsuite.common import get_benchmark
        from repro.ir.structural import key

        bench = get_benchmark("mm")
        prog = bench.high_level(dict(bench.sizes["small"]))
        expected = canonical(clone_decl(prog))
        results = []
        start = threading.Barrier(8)

        def work():
            start.wait(timeout=10)
            results.append((key(prog), canonical(prog)))

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 8
        assert all(
            k == key(prog) and text == expected for k, text in results
        )


class TestTextOfEveryKindOfRoot:
    """``canonical`` serialises whatever it is handed — a call, a
    declaration of any kind, a bare parameter or literal — and the
    corners of the format are part of it: a call without arguments keeps
    the blank its (empty) argument list follows, an open graph numbers
    its free parameters arguments-first."""

    ADD = "(uf add [a,b] 'return a + b;' [float,float]->float)"
    ONE = "(uf one [] 'return 1.0f;' []->float)"

    def test_literal_texts(self):
        from repro.ir import patterns as pat
        from repro.ir.dsl import id_fun, zip_
        from repro.ir.nodes import Literal

        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        y = Param(ArrayType(FLOAT, n), "y")
        p, q = Param(None, "p"), Param(None, "q")
        one = UserFun("one", [], "return 1.0f;", [], FLOAT)
        head_of_pairs = FunCall(
            pat.Get(0), [FunCall(pat.Head(), [zip_(x, y)])]
        )
        expected = [
            (FunCall(one, []), f"(call {self.ONE} )"),
            (Lambda([], FunCall(one, [])), f"(lam [] (call {self.ONE} ))"),
            (Lambda([x], x), "(lam [[float]_N] (b0))"),
            (one, self.ONE),
            (pat.Join(), "(Join)"),
            (x, "(free0)"),
            (Literal(0.0, FLOAT), "(lit 0.0:float)"),
            (
                pat.ToLocal(pat.MapLcl(id_fun(), 1)),
                "(to:local (MapLcl:1 (lam [None] (call "
                "(uf id [x] 'return x;' [float]->float) (b0)))))",
            ),
            (
                pat.MapSeq(Lambda([p], map_(
                    Lambda([q], FunCall(add(), [q, p]))
                )(x))),
                f"(MapSeq (lam [None] (call (Map (lam [None] "
                f"(call {self.ADD} (b1) (b0)))) (free0))))",
            ),
            (
                map_(Lambda([p], FunCall(add(), [p, head_of_pairs])))(y),
                f"(call (Map (lam [None] (call {self.ADD} (b0) (call (Get:0) "
                "(call (Head) (call (Zip:2) (free1) (free0))))))) (free0))",
            ),
        ]
        for node, text in expected:
            assert canonical(node) == text
            assert canonical(node) == text  # and again, from the cache

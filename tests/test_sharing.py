"""Structure sharing in the rewrite layer, and why it is safe.

Rewriting allocates nodes only on the spine from the root to a
replacement and shares the rest with its source (``ir/visit.py``);
whoever annotates clones first.  These tests pin both halves on the
three explorable benchmarks: how little a rewrite allocates, and that a
search neither reads the annotations of the program it was given nor
leaves any behind — on it or between the schedules it derives."""

import functools
import itertools

import pytest

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir.dsl import map_
from repro.ir.structural import canonical
from repro.ir.typecheck import infer_types
from repro.ir.visit import (
    body_of,
    clone_decl,
    clone_expr,
    nested_fun,
    post_order,
)
from repro.benchsuite.common import get_benchmark
from repro.compiler.codegen import compile_kernel
from repro.compiler.options import CompilerOptions
from repro.rewrite.explore import (
    ExploreConfig,
    ExploreStats,
    _enumerate,
    explore_program,
    finish_candidates,
    rule_menu,
    specialize_sizes,
)
from repro.rewrite.strategies import find_matches, one_step_rewrites

NAMES = ["nn", "gemv", "mm"]
CONFIG = dict(depth=3, max_eval=12)


def _bench(name):
    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    return bench.high_level(size_env), inputs, size_env


def _annotations(fun: Lambda) -> list:
    return [
        (e.type, e.addr_space, e.mem, e.view)
        for e in itertools.chain(fun.params, post_order(fun.body))
    ]


def _summary(result) -> tuple:
    stats = result.stats
    return (
        stats.enumerated, stats.dedup_hits, stats.finish_dedup_hits,
        stats.invalid, stats.finished, stats.pruned, stats.evaluated,
        [(c.trace, c.runtime, c.cycles, c.local_size, c.global_size)
         for c in result.candidates],
    )


@functools.lru_cache(maxsize=None)
def _searched(name: str, typed: bool = False):
    """One cold search per benchmark (and per typing), shared by the
    tests below: ``(high_level, annotations and key before, result)``."""
    high_level, inputs, size_env = _bench(name)
    if typed:
        infer_types(high_level.body)
    before = (_annotations(high_level), canonical(high_level))
    result = explore_program(
        high_level, inputs, size_env,
        config=ExploreConfig(workload=name, **CONFIG),
    )
    return high_level, before, result


def test_find_matches_returns_the_programs_own_nodes():
    x = Param(ArrayType(FLOAT, Var("N")), "x")
    double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT)
    body = map_(double)(map_(double)(x))
    rules = {r.name: r for r in rule_menu()}
    inner, outer = find_matches(rules["map -> mapSeq"], body)
    assert inner is body.args[0] and outer is body

    high_level, _, _ = _bench("mm")
    own = {id(e) for e in post_order(high_level.body)}
    matches = [
        m for rule in rules.values() for m in find_matches(rule, high_level.body)
    ]
    assert len(matches) > 10 and all(id(m) in own for m in matches)


def _depth(root, target):
    """Calls strictly above ``target`` on the path from ``root``."""
    if root is target:
        return 0
    if isinstance(root, FunCall):
        below = list(root.args)
        body = body_of(root.f)
        if body is not None:
            below.append(body)
        for child in below:
            d = _depth(child, target)
            if d is not None:
                return d + 1
    return None


@pytest.mark.parametrize("name", NAMES)
def test_a_variant_allocates_its_spine_and_its_replacement_only(name):
    high_level, _, _ = _bench(name)
    rules = rule_menu()
    sources = [high_level.body] + [
        v for rule in rules for v in one_step_rewrites(rule, high_level.body)
    ]
    checked = 0
    for source in sources:
        own = {id(e) for e in post_order(source)}
        copy = clone_expr(source)
        for rule in rules:
            variants = one_step_rewrites(rule, source)
            on_copy = one_step_rewrites(rule, copy)
            matches = find_matches(rule, source)
            assert len(variants) == len(on_copy) == len(matches)
            for variant, reference, match in zip(variants, on_copy, matches):
                # Same rewrite as on a private deep copy ...
                assert canonical(variant) == canonical(reference)
                # ... for the price of one spine plus the replacement.
                replacement = rule.apply(match)
                budget = _depth(source, match) + sum(
                    id(e) not in own for e in post_order(replacement)
                )
                fresh = sum(id(e) not in own for e in post_order(variant))
                assert 0 < fresh <= budget, (rule.name, fresh, budget)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("typed", [False, True], ids=["untyped", "typed"])
@pytest.mark.parametrize("name", NAMES)
def test_searching_leaves_its_input_alone(name, typed):
    high_level, before, result = _searched(name, typed)
    assert result.stats.executions == CONFIG["max_eval"]
    assert (_annotations(high_level), canonical(high_level)) == before


@pytest.mark.parametrize("name", NAMES)
def test_search_does_not_depend_on_who_typed_the_input(name):
    """Three rules read ``arg.type``; shared subtrees must not carry a
    caller's annotations to them."""
    _, _, untyped = _searched(name, False)
    _, _, typed = _searched(name, True)
    assert _summary(typed) == _summary(untyped)


@pytest.mark.parametrize("name", NAMES)
def test_no_annotation_leaks_between_schedules(name):
    """Finished schedules share subtrees with each other; compiling one
    must not change what another compiles to."""
    high_level, _, size_env = _bench(name)
    stats = ExploreStats()
    derivations = _enumerate(
        high_level.body, rule_menu(), ExploreConfig(**CONFIG), stats
    )
    finished = finish_candidates(high_level, derivations, size_env, stats)
    assert len(finished) >= 15
    shared = {id(e) for e in post_order(high_level.body)}
    assert all(
        any(id(e) in shared for e in post_order(c.program.body))
        for c in finished
    )

    def kernel_text(program, cand) -> str:
        try:
            return compile_kernel(
                specialize_sizes(program, size_env),
                CompilerOptions(local_size=cand.local_size), memo=False,
            ).source
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    private = [kernel_text(clone_decl(c.program), c) for c in finished]
    assert sum("kernel void" in text for text in private) >= 12
    in_place = [kernel_text(c.program, c) for c in finished]
    again = [kernel_text(c.program, c) for c in reversed(finished)][::-1]
    assert in_place == private and again == private
    assert all(
        e.type is None and e.addr_space is e.mem is e.view is None
        for c in finished for e in post_order(c.program.body)
        if isinstance(e, FunCall)
    )


def test_clones_share_no_mutable_node_with_their_input():
    """What the annotating passes rely on: ``clone_*`` stay deep."""
    high_level, _, _ = _bench("mm")
    (tiled,) = one_step_rewrites(
        next(r for r in rule_menu() if "toLocal" in r.name), high_level.body
    )[:1]

    def mutable(e) -> set:
        nodes = set()
        for x in post_order(e):
            if isinstance(x, FunCall):
                nodes.add(id(x))
                f = x.f
                while f is not None and not isinstance(f, Lambda):
                    f = nested_fun(f)
                if f is not None:
                    nodes.add(id(f))
                    nodes.update(id(p) for p in f.params)
        return nodes

    assert not mutable(tiled) & mutable(clone_expr(tiled))
    program = Lambda(high_level.params, tiled)
    copy = clone_decl(program)
    assert not mutable(program.body) & mutable(copy.body)
    assert not set(map(id, program.params)) & set(map(id, copy.params))
    assert canonical(copy) == canonical(program)


# ---------------------------------------------------------------------------
# the structural key and the memos indexed by it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_keying_a_variant_keys_the_calls_it_allocated(name):
    """The key is cached on the nodes and context-free, so the key of a
    rewritten program costs its new spine and its replacement — not the
    program."""
    from repro.ir.structural import key, keys_computed

    high_level, _, _ = _bench(name)
    source = high_level.body
    key(source)
    own = {id(e) for e in post_order(source)}
    checked = 0
    for rule in rule_menu():
        for variant in one_step_rewrites(rule, source):
            fresh = sum(
                isinstance(e, FunCall) and id(e) not in own
                for e in post_order(variant)
            )
            before = keys_computed()
            key(variant)
            assert 0 < keys_computed() - before == fresh
            before = keys_computed()
            assert key(variant) is key(variant)
            assert keys_computed() == before
            checked += 1
    assert checked > 10


def _derivations(name: str, depth: int):
    high_level, _, size_env = _bench(name)
    derivations = _enumerate(
        high_level.body, rule_menu(), ExploreConfig(depth=depth),
        ExploreStats(),
    )
    return high_level, derivations, size_env


def _typed_body(params, body):
    from repro.rewrite.explore import typed_clone

    typed = typed_clone(Lambda(params, body))
    return None if typed is None else typed.body


def _sized(t, size_env):
    """``t`` with its array lengths evaluated: ``16 * (N / 16)`` and
    ``N`` are one length."""
    from repro.rewrite.explore import concrete_length

    if isinstance(t, ArrayType):
        return concrete_length(t.length, size_env), _sized(t.elem, size_env)
    return t


def _tiny_inputs(high_level, size_env, seed):
    """Seeded random arguments for ``high_level`` under ``size_env``,
    nested the way ``ir.interp`` wants them."""
    import numpy as np
    from repro.rewrite.explore import concrete_length

    rng = np.random.default_rng(seed)
    args = []
    for p in high_level.params:
        dims, t = [], p.type
        while isinstance(t, ArrayType):
            dims.append(concrete_length(t.length, size_env))
            t = t.elem
        value = rng.uniform(-1.0, 1.0, dims or None)
        args.append(value.tolist() if dims else float(value))
    return args


@pytest.mark.parametrize("name", NAMES)
def test_rules_are_pure_functions_of_the_call_they_match(name):
    """What makes a memo indexed by structural key sound (ROADMAP item
    2(a), first slice): at every position a rule of the menu matches in
    the high-level program and its depth <= 2 derivations, rewriting
    the subtree alone and rewriting it inside its program are the same
    rewrite; the source's annotations and key do not move; and the
    result has the source's type and, where the schedule is one the
    interpreter can run, its value."""
    import numpy as np
    from repro.ir.interp import apply_fun
    from repro.ir.structural import key, structural_eq
    from repro.ir.visit import transform_calls
    from repro.rewrite.explore import _splits_divide

    # Small enough to interpret a few hundred programs; the tiles, the
    # vector width and two of the five split factors divide it.
    bench = get_benchmark(name)
    size_env = {k: 8 for k in bench.sizes["small"]}
    high_level = bench.high_level(size_env)
    params = high_level.params
    derivations = _enumerate(
        high_level.body, rule_menu(), ExploreConfig(depth=2), ExploreStats()
    )
    assert len(derivations) > 20
    args = _tiny_inputs(high_level, size_env, seed=24)
    expected = np.asarray(
        apply_fun(high_level, args, size_env), dtype=float
    ).ravel()
    rules = rule_menu()
    checked = interpreted = 0
    # Every derivation is rewritten; one in four is also interpreted.
    for index, (body, _) in enumerate(derivations):
        before = (_annotations(Lambda(params, body)), key(body))
        source_typed = _typed_body(params, body)
        for rule in rules:
            variants = one_step_rewrites(rule, body)
            matches = find_matches(rule, body)
            assert len(variants) == len(matches)
            for match, variant in zip(matches, variants):
                alone = rule.apply(match)
                spliced = transform_calls(
                    body, lambda c: alone if c is match else None
                )
                assert structural_eq(variant, spliced), rule.name
                checked += 1
                if source_typed is None:
                    continue
                typed = _typed_body(params, variant)
                if typed is None or not _splits_divide(typed, size_env):
                    # Left to the explorer's validity filter: a tile or
                    # vector width that does not fit the data.
                    continue
                assert _sized(typed.type, size_env) == _sized(
                    source_typed.type, size_env
                ), rule.name
                if index % 4 == 0:
                    # Index functions evaluate on concrete sizes only.
                    runnable = specialize_sizes(
                        Lambda(params, variant), size_env
                    )
                    got = apply_fun(runnable, args, size_env)
                    np.testing.assert_allclose(
                        np.asarray(got, dtype=float).ravel(), expected,
                        rtol=1e-6, err_msg=rule.name,
                    )
                    interpreted += 1
        after = (_annotations(Lambda(params, body)), key(body))
        assert after[0] == before[0] and after[1] is before[1]
    assert checked > 100 and interpreted > 20


def _reference_nesting_ok(body) -> bool:
    """The thread-hierarchy check as two plain walks of the whole
    program — what ``SearchMemo.nesting_ok`` computes per shared
    subtree."""
    from repro.ir import patterns as pat
    from repro.ir.visit import unwrap

    def walk(e, active, seq):
        if not isinstance(e, FunCall):
            return True
        f = unwrap(e.f)
        inner_active, inner_seq = active, seq
        if isinstance(f, pat.MapGlb):
            if seq or any(kind in ("wrg", "lcl") for kind, _ in active):
                return False
            if ("glb", f.dim) in active:
                return False
            inner_active = active | {("glb", f.dim)}
        elif isinstance(f, pat.MapWrg):
            if seq or ("wrg", f.dim) in active:
                return False
            if any(kind in ("glb", "lcl") for kind, _ in active):
                return False
            inner_active = active | {("wrg", f.dim)}
        elif isinstance(f, pat.MapLcl):
            if seq or ("lcl", f.dim) in active:
                return False
            if ("wrg", f.dim) not in active:
                return False
            if any(kind == "glb" for kind, _ in active):
                return False
            inner_active = active | {("lcl", f.dim)}
        elif isinstance(f, (pat.MapSeq, pat.ReduceSeq, pat.Iterate)):
            inner_seq = True
        if not all(walk(a, active, seq) for a in e.args):
            return False
        inner = body_of(f)
        return inner is None or walk(inner, inner_active, inner_seq)

    if not walk(body, frozenset(), False):
        return False
    for e in post_order(body):
        if isinstance(e, FunCall) and isinstance(e.f, pat.MapWrg):
            if not any(
                isinstance(x, FunCall) and isinstance(x.f, pat.MapLcl)
                for x in post_order(e) if x is not e
            ):
                return False
    return True


def _reference_finish(high_level, derivations, size_env) -> list:
    """``finish_candidates`` from the unmemoised public pieces: every
    derivation finished, validated, keyed and typed from its root."""
    from repro.ir import patterns as pat
    from repro.ir.visit import unwrap
    from repro.rewrite.explore import (
        _collect_parallel,
        _geometry,
        _splits_divide,
        typed_clone,
    )
    from repro.rewrite.mapping import finish_mappings
    from repro.rewrite.rules import map_to_seq, reduce_to_seq
    from repro.rewrite.strategies import exhaustively

    def has_parallel(body) -> bool:
        return any(
            isinstance(e, FunCall) and isinstance(unwrap(e.f), pat.ParallelMap)
            for e in post_order(body)
        )

    finished = {}
    for body, trace in derivations:
        mapped = [(body, None)]
        if not has_parallel(body):
            mapped = [
                (m, f"finish:{label}") for m, label in finish_mappings(body)
            ] or mapped
        for m, label in mapped:
            fin = exhaustively([map_to_seq(), reduce_to_seq()], m)
            if not (_reference_nesting_ok(fin) and has_parallel(fin)):
                continue
            program = Lambda(high_level.params, fin)
            text = canonical(program)
            if text in finished:
                continue
            typed = typed_clone(program)
            geometry = None
            if typed is not None and _splits_divide(typed.body, size_env):
                geometry = _geometry(_collect_parallel(typed.body), size_env)
            if geometry is not None:
                finished[text] = (
                    text, trace + ((label,) if label else ()), *geometry
                )
    return list(finished.values())


@pytest.mark.parametrize("name", NAMES)
def test_finishing_per_shared_subtree_is_finishing_per_program(name):
    high_level, derivations, size_env = _derivations(name, CONFIG["depth"])
    stats = ExploreStats()
    finished = finish_candidates(high_level, derivations, size_env, stats)
    assert [
        (c.canonical_form, c.trace, c.local_size, c.global_size)
        for c in finished
    ] == _reference_finish(high_level, derivations, size_env)
    assert len(finished) >= 15 and stats.finish_dedup_hits > 0


def test_structure_is_write_once(monkeypatch):
    """``FunCall.f`` / ``args``, ``Lambda.params`` / ``body`` and a
    pattern's ``f`` and payload are assigned in ``__init__`` and never
    again, from building a program to running its kernel: the key cached
    on a node is computed from them."""
    from repro.ir.nodes import Pattern

    def guard(cls, structural):
        def setattr_(self, name, value):
            if structural(self, name) and hasattr(self, name):
                raise AssertionError(
                    f"{type(self).__name__}.{name} assigned a second time"
                )
            object.__setattr__(self, name, value)

        monkeypatch.setattr(cls, "__setattr__", setattr_, raising=False)

    guard(FunCall, lambda self, name: name in ("f", "args"))
    guard(Lambda, lambda self, name: name in ("params", "body"))
    guard(Pattern, lambda self, name: name == "f" or name in self.payload)

    probe = Lambda([Param(None, "p")], Param(None, "q"))
    with pytest.raises(AssertionError, match="Lambda.body assigned"):
        probe.body = probe.params[0]

    high_level, inputs, size_env = _bench("gemv")
    result = explore_program(
        high_level, inputs, size_env,
        config=ExploreConfig(depth=2, max_eval=4),
    )
    assert result.stats.executions == 4 and not result.failures
    bench = get_benchmark("mm-nvidia")  # hand-lowered stages, every pass
    inputs, size_env = bench.inputs_for("small")
    bench.run_generated(inputs, size_env, cache=None)

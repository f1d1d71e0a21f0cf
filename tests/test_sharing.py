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
from repro import faultinject
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

from tests.programs import restart_variable_names

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
    with faultinject.plan_installed(None):  # every candidate must launch
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
def test_no_annotation_leaks_between_schedules(name, monkeypatch):
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
        restart_variable_names(monkeypatch)
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

"""The rewrite-space exploration engine: enumeration, validity filtering,
pruning, verified evaluation, cache behaviour, and the explorer-vs-menu
acceptance criterion on real benchmarks."""

import numpy as np
import pytest

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import Lambda, Param, UserFun
from repro.ir.dsl import map_
from repro.ir.typecheck import infer_types
from repro.ir.visit import clone_decl
from repro.cache import TuningCache
from repro.rewrite.autotune import autotune, default_candidates
from repro.rewrite.explore import (
    ExploreConfig,
    explore_program,
    _collect_parallel,
    _finish_variants,
    _nesting_ok,
    _splits_divide,
)
from repro.rewrite.lowering import lower_to_global
from repro.rewrite.rules import map_to_glb, map_to_lcl, map_to_wrg
from repro.rewrite.strategies import rewrite_first
from repro.benchsuite.common import get_benchmark


def _toy_program():
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), "x")
    double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                     py=lambda v: v * 2.0)
    return Lambda([x], map_(double)(x))


def _dbl():
    return UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                   py=lambda v: v * 2.0)


def _nested_body(outer_builder, inner_builder):
    """``outer(λrow. inner(dbl)(row))(x)`` over a 2-D input."""
    from repro.types import array
    from repro.ir.dsl import lam

    x = Param(array(FLOAT, Var("N"), Var("M")), "x")
    body = outer_builder(lam(lambda row: inner_builder(_dbl())(row)))(x)
    return Lambda([x], body)


class TestDimensionSemantics:
    """Per-dimension nesting rules of the thread-hierarchy checker."""

    def _check(self, prog):
        typed = clone_decl(prog)
        infer_types(typed.body)
        return _nesting_ok(typed.body)

    def test_same_dim_nested_glb_rejected(self):
        from repro.ir.dsl import map_glb

        prog = _nested_body(
            lambda f: map_glb(f, 0), lambda f: map_glb(f, 0)
        )
        assert not self._check(prog)

    def test_cross_dim_nested_glb_accepted(self):
        from repro.ir.dsl import map_glb

        prog = _nested_body(
            lambda f: map_glb(f, 1), lambda f: map_glb(f, 0)
        )
        assert self._check(prog)

    def test_lcl_needs_wrg_of_same_dim(self):
        from repro.ir.dsl import map_lcl, map_wrg

        mismatched = _nested_body(
            lambda f: map_wrg(f, 0), lambda f: map_lcl(f, 1)
        )
        assert not self._check(mismatched)
        matched = _nested_body(
            lambda f: map_wrg(f, 0), lambda f: map_lcl(f, 0)
        )
        assert self._check(matched)

    def test_2d_wrg_lcl_nest_accepted(self):
        """The tiled-mm hierarchy: wrg(1)(wrg(0)(lcl(1)(lcl(0))))."""
        from repro.types import array
        from repro.ir.dsl import lam, map_lcl, map_wrg

        x = Param(array(FLOAT, 4, 4, 4, 4), "x")
        body = map_wrg(
            lam(lambda a: map_wrg(
                lam(lambda b: map_lcl(
                    lam(lambda c: map_lcl(_dbl(), 0)(c)), 1
                )(b)), 0
            )(a)), 1
        )(x)
        assert self._check(Lambda([x], body))

    def test_beta_redex_bodies_are_checked(self):
        """Parallel maps inside a directly-applied lambda's body (the
        shape staged tiles use) must not escape the checker."""
        from repro.ir.nodes import FunCall
        from repro.ir.dsl import map_lcl

        n = Var("N")
        x = Param(ArrayType(FLOAT, n), "x")
        p = Param(None, "p")
        redex = FunCall(Lambda([p], map_lcl(_dbl())(p)), [x])
        typed_prog = clone_decl(Lambda([x], redex))
        infer_types(typed_prog.body)
        # a bare mapLcl with no enclosing mapWrg is invalid
        assert not _nesting_ok(typed_prog.body)


class TestValidity:
    def test_lcl_outside_wrg_rejected(self):
        prog = _toy_program()
        body = rewrite_first(map_to_lcl(0), prog.body)
        typed = clone_decl(Lambda(list(prog.params), body))
        infer_types(typed.body)
        assert not _nesting_ok(typed.body)

    def test_wrg_without_lcl_rejected(self):
        prog = _toy_program()
        body = rewrite_first(map_to_wrg(0), prog.body)
        typed = clone_decl(Lambda(list(prog.params), body))
        infer_types(typed.body)
        assert not _nesting_ok(typed.body)

    def test_glb_schedule_accepted(self):
        prog = _toy_program()
        body = rewrite_first(map_to_glb(0), prog.body)
        typed = clone_decl(Lambda(list(prog.params), body))
        infer_types(typed.body)
        assert _nesting_ok(typed.body)
        assert len(_collect_parallel(typed.body)) == 1

    def test_non_dividing_split_rejected(self):
        from repro.rewrite.rules import split_join

        prog = _toy_program()
        body = rewrite_first(split_join(5), prog.body)
        typed = clone_decl(Lambda(list(prog.params), body))
        infer_types(typed.body)
        assert not _splits_divide(typed.body, {"N": 16})
        assert _splits_divide(typed.body, {"N": 20})

    def test_finish_lowers_everything(self):
        from repro.ir import patterns as pat
        from repro.ir.nodes import FunCall
        from repro.ir.visit import post_order

        (finished, label), = _finish_variants(_toy_program().body)
        assert label == "finish:mapGlb(0)"
        highs = [
            e for e in post_order(finished)
            if isinstance(e, FunCall) and type(e.f) in (pat.Map, pat.Reduce)
        ]
        assert not highs


def test_one_step_rewrites_follow_find_matches_order():
    """Variant ``p`` of the single-traversal enumerator rewrites the
    ``p``-th ``find_matches`` node and nothing else (``apply_at`` and
    ``rewrite_first`` index this list)."""
    from repro.ir.structural import structural_eq
    from repro.rewrite.rules import map_fusion, map_to_seq, split_join
    from repro.rewrite.strategies import find_matches, one_step_rewrites

    n = Var("N")
    x = Param(ArrayType(FLOAT, n), "x")
    double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT)
    body = map_(double)(map_(double)(x))

    for rule in (map_to_seq(), split_join(4)):
        # Post-order: the inner map (the outer one's argument) first.
        inner, outer = find_matches(rule, body)
        assert inner.args[0] is x and outer.args[0] is inner
        first, second = one_step_rewrites(rule, body)
        assert structural_eq(first, map_(double)(rule.apply(inner)))
        assert structural_eq(second, rule.apply(outer))

    (outer,) = find_matches(map_fusion(), body)
    (fused,) = one_step_rewrites(map_fusion(), body)
    assert structural_eq(fused, map_fusion().apply(outer))


class TestToyExploration:
    def test_winner_matches_reference_bitwise(self, tmp_path):
        prog = _toy_program()
        n = 128
        data = np.linspace(-3, 3, n)
        result = explore_program(
            prog, {"x": data}, {"N": n},
            config=ExploreConfig(depth=2, max_eval=8),
            cache=TuningCache(tmp_path),
        )
        best = result.best()
        assert best.cycles is not None
        assert "kernel void" in best.kernel_source
        # every evaluated candidate passed the bitwise verification
        assert result.stats.verify_failures == 0
        assert result.stats.evaluated > 1

    def test_dedup_collapses_alpha_equivalent_derivations(self, tmp_path):
        prog = _toy_program()
        result = explore_program(
            prog, {"x": np.ones(64)}, {"N": 64},
            config=ExploreConfig(depth=3, max_eval=4),
            cache=TuningCache(tmp_path),
        )
        # Enumeration-time dedup (alpha-equivalent rewrite results) and
        # finish-time dedup (distinct derivations lowering to the same
        # schedule) are reported separately; the rate stays a fraction
        # of enumerated applications.
        assert result.stats.dedup_hits > 0
        assert result.stats.finish_dedup_hits > 0
        assert 0 < result.stats.dedup_hit_rate() <= 1

    def test_all_sequential_schedules_are_not_ranked(self, tmp_path):
        prog = _toy_program()
        result = explore_program(
            prog, {"x": np.ones(64)}, {"N": 64},
            config=ExploreConfig(depth=2, max_eval=8),
            cache=TuningCache(tmp_path),
        )
        for cand in result.candidates:
            assert _collect_parallel(
                clone_and_type(cand.program).body
            ), f"sequential schedule ranked: {cand.describe_trace()}"


def clone_and_type(prog):
    typed = clone_decl(prog)
    infer_types(typed.body)
    return typed


class TestCacheIntegration:
    def test_warm_run_compiles_nothing(self, tmp_path):
        prog = _toy_program()
        cache = TuningCache(tmp_path)
        config = ExploreConfig(depth=2, max_eval=6)
        cold = explore_program(prog, {"x": np.ones(64)}, {"N": 64},
                               config=config, cache=cache)
        warm = explore_program(prog, {"x": np.ones(64)}, {"N": 64},
                               config=config, cache=cache)
        assert cold.stats.compilations > 0
        assert warm.stats.compilations == 0
        assert warm.stats.executions == 0
        assert warm.stats.kernel_cache_hit_rate() == 1.0
        assert warm.stats.cycle_cache_hit_rate() == 1.0
        assert [c.cycles for c in warm.candidates] == [
            c.cycles for c in cold.candidates
        ]

    def test_changed_inputs_reuse_kernels_but_re_execute(self, tmp_path):
        prog = _toy_program()
        cache = TuningCache(tmp_path)
        config = ExploreConfig(depth=1, max_eval=4)
        explore_program(prog, {"x": np.ones(64)}, {"N": 64},
                        config=config, cache=cache)
        second = explore_program(prog, {"x": np.zeros(64)}, {"N": 64},
                                 config=config, cache=cache)
        assert second.stats.compilations == 0
        assert second.stats.executions > 0

    def test_without_a_cache_no_input_is_fingerprinted(self, monkeypatch):
        """``cache=None`` is the disabled cache: nothing would be filed
        under a key, so the search hashes no inputs (its own dedup goes
        on calling ``canonical``) and reports no lookups."""
        import repro.cache as cache_mod

        def hashed(inputs):
            raise AssertionError("inputs fingerprinted without a cache")

        monkeypatch.setattr(cache_mod, "fingerprint_inputs", hashed)
        result = explore_program(
            _toy_program(), {"x": np.ones(64)}, {"N": 64},
            config=ExploreConfig(depth=1, max_eval=4),
        )
        assert result.candidates and not result.failures
        stats = result.stats
        assert stats.compilations == stats.executions == len(result.candidates)
        assert stats.kernel_cache_misses == stats.cycle_cache_misses == 0


@pytest.mark.parametrize("name", ["nn", "gemv", "mm-nvidia"])
def test_explorer_at_least_matches_the_menu(tmp_path, name):
    """Acceptance: at depth >= 3 the explorer finds a candidate at least
    as good (in parallelism-aware runtime) as the best of the old
    ``default_candidates`` menu, with every winner verified bitwise
    against the reference interpreter."""
    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    high_level = bench.high_level(size_env)

    result = explore_program(
        high_level, inputs, size_env,
        config=ExploreConfig(depth=3, max_eval=10),
        cache=TuningCache(tmp_path),
    )
    menu_results = autotune(high_level, inputs, size_env)

    assert result.stats.verify_failures == 0
    assert result.best().runtime <= menu_results[0].runtime


@pytest.mark.parametrize("name", ["nn", "gemv", "mm"])
def test_exploration_has_no_scalar_cliff(name, fault_free):
    """No explorer launch is declined by the first backend and re-run on
    a slower tier (mm's two ``toLocal insertion`` schedules used to race
    through an unmultiplied staging row and fall to ``scalar``)."""
    from repro.backend import LEDGER
    from repro.obs import metrics

    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    declines_before = LEDGER.total()
    scalar_before = metrics.REGISTRY.counter("launch.served.scalar")
    result = explore_program(
        bench.high_level(size_env), inputs, size_env,
        config=ExploreConfig(depth=3, max_eval=12, engine="auto"),
        cache=None,
    )
    assert result.stats.executions == 12 and not result.failures
    assert LEDGER.total() == declines_before
    assert metrics.REGISTRY.counter("launch.served.scalar") == scalar_before
    assert result.stats.declined_launches == 0


def test_declined_launches_are_counted_and_named(monkeypatch, fault_free):
    """A candidate whose kernel races (here: every work-item writes and
    reads back one local cell, result unused) still verifies — on the
    scalar tier — and the search says so, per benchmark."""
    import dataclasses
    from repro.rewrite import explore as explore_mod
    from repro.benchsuite.explore import explore_benchmark, format_explore

    real_compile = explore_mod.compile_kernel

    def racy_compile(program, options):
        kernel = real_compile(program, options)
        head, brace, body = kernel.source.partition(") {\n")
        assert "kernel void" in head.splitlines()[-1]
        return dataclasses.replace(
            kernel,
            source=head + brace
            + "  local float race_cell[1];\n"
            + "  race_cell[0] = 1.0f;\n"
            + "  float race_read = race_cell[0];\n"
            + body,
        )

    def entry_and_text():
        entry = explore_benchmark("nn", depth=1, max_eval=2, engine="auto")
        text = format_explore({
            "config": {"depth": 1, "size": "small", "cache_dir": "off"},
            "benchmarks": [entry],
        })
        return entry, text

    entry, text = entry_and_text()
    assert entry["stats"]["declined_launches"] == 0
    assert "DECLINED" not in text

    monkeypatch.setattr(explore_mod, "compile_kernel", racy_compile)
    racy_entry, racy_text = entry_and_text()
    stats = racy_entry["stats"]
    assert stats["evaluated"] == 2 and stats["verify_failures"] == 0
    assert stats["declined_launches"] == 2
    search_line, = [l for l in racy_text.splitlines() if "search:" in l]
    assert "2 launch(es) DECLINED by a backend" in search_line
    # Same winner either way: the decline costs time, not correctness.
    assert racy_entry["explorer_best_trace"] == entry["explorer_best_trace"]


@pytest.fixture
def interpretations(monkeypatch):
    """The calls of ``ir.interp.apply_fun`` made through ``explore.py``,
    the one module of the rewrite package that interprets."""
    from repro.rewrite import explore as explore_mod

    calls = []
    real_apply_fun = explore_mod.apply_fun

    def counting_apply_fun(*args, **kwargs):
        calls.append(1)
        return real_apply_fun(*args, **kwargs)

    monkeypatch.setattr(explore_mod, "apply_fun", counting_apply_fun)
    return calls


def test_menu_reuses_the_explorers_reference(interpretations):
    """``explore_benchmark`` interprets the high-level program once: the
    menu checks its candidates against the exploration's reference."""
    from repro.rewrite.autotune import TuningError
    from repro.benchsuite.explore import explore_benchmark

    entry = explore_benchmark("nn", depth=1, max_eval=2)
    assert entry["menu_best_runtime"] > 0
    assert len(interpretations) == 1

    # ... and the menu's own check against it is still live.
    bench = get_benchmark("nn")
    inputs, size_env = bench.inputs_for("small")
    high_level = bench.high_level(size_env)
    result = explore_program(
        high_level, inputs, size_env, config=ExploreConfig(depth=1, max_eval=2)
    )
    autotune(high_level, inputs, size_env, reference=result.reference)
    with pytest.raises(
        TuningError, match="candidate mapGlb computed a wrong result"
    ):
        autotune(high_level, inputs, size_env, reference=result.reference + 1)


def test_oracle_is_interpreted_only_when_something_launches(
    tmp_path, interpretations, fault_free
):
    """Cold: once for search and menu together.  Warm: every candidate
    is served from the cycles level, nothing is verified, nothing is
    interpreted."""
    from repro.benchsuite.explore import explore_benchmark

    cold = explore_benchmark(
        "nn", depth=1, max_eval=2, cache=TuningCache(tmp_path)
    )
    assert cold["stats"]["executions"] == 2 and len(interpretations) == 1
    warm = explore_benchmark(
        "nn", depth=1, max_eval=2, cache=TuningCache(tmp_path)
    )
    assert warm["stats"]["executions"] == 0 and len(interpretations) == 1
    assert warm["ranking"] == cold["ranking"]


@pytest.mark.parametrize("workers", [1, 4])
def test_oracle_is_interpreted_once_under_any_workers(
    workers, interpretations, fault_free
):
    """Workers reaching their first verify together share one
    interpretation; ``result.reference`` is that array."""
    bench = get_benchmark("nn")
    inputs, size_env = bench.inputs_for("small")
    result = explore_program(
        bench.high_level(size_env), inputs, size_env,
        config=ExploreConfig(depth=2, max_eval=8, workers=workers),
    )
    assert result.stats.executions == 8 and len(interpretations) == 1
    assert result.reference is result.reference
    assert result.reference.shape == (size_env["N"],)
    assert len(interpretations) == 1


def test_a_failing_oracle_fails_the_search(monkeypatch):
    """The interpreter's exception is the search's own — not eight
    candidates quarantined as ``infra``."""
    from repro.rewrite import explore as explore_mod

    def broken_apply_fun(*args, **kwargs):
        raise ZeroDivisionError("oracle down")

    monkeypatch.setattr(explore_mod, "apply_fun", broken_apply_fun)
    bench = get_benchmark("nn")
    inputs, size_env = bench.inputs_for("small")
    with pytest.raises(ZeroDivisionError, match="oracle down"):
        explore_program(
            bench.high_level(size_env), inputs, size_env,
            config=ExploreConfig(depth=1, max_eval=8),
        )


def test_autotune_without_a_reference_interprets_its_own(interpretations):
    bench = get_benchmark("nn")
    inputs, size_env = bench.inputs_for("small")
    ranked = autotune(bench.high_level(size_env), inputs, size_env)
    assert ranked and len(interpretations) == 1


@pytest.mark.parametrize("name", ["nn", "gemv", "mm"])
def test_same_schedule_same_cost_whichever_generator(name):
    """The menu's ``mapGlb`` and the search's ``finish:mapGlb(0)`` are
    one schedule; one evaluator gives them one kernel and one cost."""
    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    high_level = bench.high_level(size_env)
    result = explore_program(
        high_level, inputs, size_env,
        config=ExploreConfig(depth=3, max_eval=12),
    )
    derived, = [
        c for c in result.candidates if c.trace == ("finish:mapGlb(0)",)
    ]
    menu = autotune(high_level, inputs, size_env, reference=result.reference)
    flat, = [c for c in menu if c.label == "mapGlb"]
    assert (flat.cycles, flat.runtime) == (derived.cycles, derived.runtime)
    assert (flat.local_size, flat.global_size) == (
        derived.local_size, derived.global_size
    )
    assert flat.kernel_source == derived.kernel_source
    if name == "nn":
        chunk32, = [c for c in menu if c.label == "mapWrg/mapLcl(chunk=32)"]
        # 215040 / 105 with the barrier behind its only mapLcl, which
        # reads inputs and writes the result (barrier rule 4).
        assert (chunk32.cycles, chunk32.runtime) == (202752.0, 99.0)
        assert menu[0] is chunk32


def test_warm_explore_benchmark_launches_and_compiles_nothing(
    tmp_path, fault_free
):
    """Warm means warm for the whole command: the menu is served from the
    same cycles level as the search."""
    from repro.obs import metrics
    from repro.opencl import simt_compile
    from repro.benchsuite.explore import explore_benchmark

    def served() -> dict:
        counters = metrics.REGISTRY.snapshot()["counters"]
        return {
            k: v for k, v in counters.items() if k.startswith("launch.served.")
        }

    cache = TuningCache(tmp_path)
    cold = explore_benchmark("nn", cache=cache)
    launches, pipelines = served(), simt_compile.compile_count()
    assert sum(launches.values()) > 0
    warm = explore_benchmark("nn", cache=cache)
    assert served() == launches
    assert simt_compile.compile_count() == pipelines
    assert warm["menu_best_runtime"] == cold["menu_best_runtime"]
    assert warm["stats"]["compilations"] == warm["stats"]["executions"] == 0


def test_explorer_derives_2d_tiled_mm(tmp_path):
    """The tentpole scenario: from the high-level mm expression the
    explorer derives a 2-D tiled schedule — nested mapWrg dims, mapLcl
    nest, cooperative toLocal staging — that beats every 1-D candidate
    on measured runtime, with the parallelism-aware static cost ranking
    it first before execution."""
    from repro.ir import patterns as pat
    from repro.ir.visit import post_order
    from repro.ir.nodes import FunCall

    bench = get_benchmark("mm-nvidia")
    inputs, size_env = bench.inputs_for("small")
    high_level = bench.high_level(size_env)

    result = explore_program(
        high_level, inputs, size_env,
        config=ExploreConfig(depth=2, max_eval=10),
        cache=TuningCache(tmp_path),
    )
    assert result.stats.verify_failures == 0
    best = result.best()

    wrg_dims = set()
    lcl_dims = set()
    has_to_local = False
    for e in post_order(best.program.body):
        if not isinstance(e, FunCall):
            continue
        f = e.f
        while isinstance(f, pat.AddressSpaceWrapper):
            if isinstance(f, pat.ToLocal):
                has_to_local = True
            f = f.f
        if isinstance(f, pat.MapWrg):
            wrg_dims.add(f.dim)
        elif isinstance(f, pat.MapLcl):
            lcl_dims.add(f.dim)
    assert wrg_dims == {0, 1}
    assert lcl_dims == {0, 1}
    assert has_to_local
    assert best.local_size[0] > 1 and best.local_size[1] > 1

    # Beats every 1-D candidate on measured runtime...
    one_d = [
        c for c in result.candidates
        if c.local_size[1] == 1 and c.global_size[1] == 1
    ]
    assert all(best.runtime < c.runtime for c in one_d)
    # ...and the static model already ranked it first.
    static_best = min(result.candidates, key=lambda c: c.static_cost)
    assert static_best is best


def test_default_candidates_tile_irregular_sizes():
    """n with no configured chunk divisor still gets a work-group tiling
    (the largest divisor below the biggest chunk)."""
    prog = _toy_program()
    candidates = default_candidates(prog, 48, chunks=(32, 64, 128))
    labels = [c.label for c in candidates]
    assert "mapGlb" in labels
    assert any("chunk=48" in l for l in labels)

    # A small prime still tiles as one work-group (chunk = n)...
    prime = default_candidates(prog, 17, chunks=(32, 64, 128))
    assert any("chunk=17" in c.label for c in prime)

    # ...but a prime above every chunk genuinely cannot be split.
    big_prime = default_candidates(prog, 257, chunks=(32, 64, 128))
    assert [c.label for c in big_prime] == ["mapGlb"]

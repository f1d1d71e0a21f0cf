"""Tests for the fixed lowering menu and its ``autotune`` front door:
candidates come out of generators, evaluation is the explorer's."""

import numpy as np
import pytest

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import Lambda, Param, UserFun
from repro.ir.dsl import map_
from repro.rewrite.autotune import TuningError, autotune, default_candidates
from repro.rewrite.explore import (
    ExploreConfig,
    ExploredCandidate,
    evaluate_candidates,
    reference_output,
)


def _program():
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), "x")
    double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                     py=lambda v: v * 2.0)
    return Lambda([x], map_(double)(x))


def test_default_candidates_cover_both_shapes():
    candidates = default_candidates(_program(), 256)
    labels = [c.label for c in candidates]
    assert "mapGlb" in labels
    assert any("mapWrg" in label for label in labels)


def test_autotune_ranks_and_verifies():
    n = 256
    data = np.arange(n, dtype=float)
    results = autotune(_program(), {"x": data}, {"N": n})
    assert len(results) >= 2
    # Ranking is by parallelism-aware runtime, not by total cycles: a
    # schedule doing slightly more work over more threads may win.
    runtimes = [r.runtime for r in results]
    assert runtimes == sorted(runtimes)
    assert all(r.runtime <= r.cycles for r in results)
    assert "kernel void" in results[0].kernel_source
    assert all(r.trace == () for r in results)


def test_autotune_rejects_empty_candidate_list():
    with pytest.raises(TuningError):
        autotune(_program(), {"x": np.ones(8)}, {"N": 8}, candidates=[])


def test_autotune_skips_uncompilable_candidates():
    n = 64
    data = np.ones(n)
    good = default_candidates(_program(), n, chunks=(32,))
    from repro.ir.dsl import join, split, pipe

    x = Param(ArrayType(FLOAT, Var("N")), "x")
    broken = ExploredCandidate(
        "pure-view (uncompilable)",
        Lambda([x], pipe(x, split(8), join())),
        (8, 1, 1),
        (n, 1, 1),
    )
    results = autotune(
        _program(), {"x": data}, {"N": n}, candidates=[broken] + good
    )
    assert all("uncompilable" not in r.label for r in results)
    assert results

    # The evaluator quarantines it as a *compile* failure.
    ranked, failures, _ = evaluate_candidates(
        [broken] + good, {"x": data}, {"N": n},
        reference_output(_program(), {"x": data}, {"N": n}),
        ExploreConfig(),
    )
    assert [f.kind for f in failures] == ["compile"]
    assert failures[0].label == "pure-view (uncompilable)"
    assert len(ranked) == len(good)

    # ... and a menu with nothing else left is an error, not an empty list.
    with pytest.raises(TuningError, match="pure-view"):
        autotune(_program(), {"x": data}, {"N": n}, candidates=[broken])


class TestTile2dMenu:
    """The fixed menu reuses the tile-2d mapping strategy for square
    two-deep map nests (guarded by shape divisibility)."""

    def _mm(self):
        from repro.benchsuite.common import get_benchmark

        bench = get_benchmark("mm-nvidia")
        inputs, size_env = bench.inputs_for("small")
        hl = bench.high_level(size_env)
        flat = {
            p.name: np.asarray(inputs[p.name], dtype=float).ravel()
            for p in hl.params
        }
        return hl, flat, size_env

    def test_menu_includes_tiled_schedules_for_mm(self):
        hl, _, size_env = self._mm()
        labels = [
            c.label for c in default_candidates(hl, 16, size_env=size_env)
        ]
        assert "tile-2d(8x8)" in labels
        assert "tile-2d(8x8,toLocal)" in labels

    def test_menu_guards_on_divisibility(self):
        hl, _, size_env = self._mm()
        from repro.rewrite.autotune import tile_2d_candidates

        assert tile_2d_candidates(hl, size_env, tiles=((5, 5),)) == []
        assert tile_2d_candidates(hl, size_env, tiles=((8, 8),)) != []

    def test_flat_program_gets_no_tiled_candidates(self):
        labels = [
            c.label
            for c in default_candidates(_program(), 256, size_env={"N": 256})
        ]
        assert not any(label.startswith("tile-2d") for label in labels)

    def test_autotune_verifies_and_prefers_the_tiled_schedule(self):
        hl, flat, size_env = self._mm()
        results = autotune(hl, flat, size_env)
        labels = [r.label for r in results]
        assert "tile-2d(8x8,toLocal)" in labels
        # The staged 2-D tiling must win the fixed menu on estimated
        # runtime (the explorer derives the same schedule; see
        # REWRITE.md) — and autotune verified it bitwise on the way.
        assert results[0].label == "tile-2d(8x8,toLocal)"

"""Rewrite rules and lowering strategies.

The paper builds on prior work ([18], ICFP 2015) that maps portable
high-level Lift IL (generic ``map``/``reduce``) onto the OpenCL-specific
low-level IL via semantics-preserving rewrite rules.  This package
reproduces that substrate: algorithmic rules (fusion, split-join,
vectorization), lowering rules (map -> mapGlb/mapWrg/mapLcl/mapSeq), a
small strategy language, the dimension-aware mapping layer
(:mod:`repro.rewrite.mapping`, including the 2-D tiling macro rule),
deterministic lowering recipes, and the rewrite-space search with the
one candidate evaluator (the fixed menu of
:mod:`repro.rewrite.autotune` feeds it too).  ``src/repro/rewrite/REWRITE.md``
documents the whole rewrite → explore → cost stack.
"""

from repro.rewrite.rules import (
    Rule,
    fusion_rules,
    simplification_rules,
)
from repro.rewrite.mapping import (
    MappingStrategy,
    global_1d,
    global_nd,
    replace_map_nest,
    tile_2d,
    tiling_rules,
    work_group_1d,
)
from repro.rewrite.strategies import (
    apply_at,
    apply_everywhere,
    exhaustively,
    find_matches,
    rewrite_first,
)
from repro.rewrite.lowering import lower_to_global, lower_to_work_groups
from repro.rewrite.explore import (
    ExplorationResult,
    ExploreConfig,
    ExploreStats,
    ExploredCandidate,
    evaluate_candidates,
    explore_program,
)

__all__ = [
    "ExplorationResult",
    "ExploreConfig",
    "ExploreStats",
    "ExploredCandidate",
    "evaluate_candidates",
    "explore_program",
    "MappingStrategy",
    "Rule",
    "apply_at",
    "apply_everywhere",
    "exhaustively",
    "find_matches",
    "fusion_rules",
    "global_1d",
    "global_nd",
    "lower_to_global",
    "lower_to_work_groups",
    "replace_map_nest",
    "rewrite_first",
    "simplification_rules",
    "tile_2d",
    "tiling_rules",
    "work_group_1d",
]

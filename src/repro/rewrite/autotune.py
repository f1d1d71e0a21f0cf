"""The fixed lowering menu: a candidate generator.

The paper separates optimization decisions (prior work [18], rewrite
rules + search) from code generation (the paper itself).  A fixed
lowering is just one more point of the derivation space, so this module
only *generates* schedules — the flat ``mapGlb`` recipe, work-group
tilings at a few chunk sizes, and the 2-D ``tile-2d`` schedules for
square map nests — as :class:`~repro.rewrite.explore.ExploredCandidate`
objects.  How a candidate is compiled, launched, verified and costed is decided
in one place, :func:`repro.rewrite.explore.evaluate_candidates`, which
the rewrite-space search feeds too: menu and search share cache keys,
verification and fault handling, so their numbers are comparable.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.types import ArrayType
from repro.ir.nodes import FunCall, Lambda
from repro.ir import patterns as pat
from repro.ir.visit import post_order, unwrap
from repro.rewrite.explore import (
    ExploreConfig,
    ExploreStats,
    ExploredCandidate,
    Oracle,
    concrete_length,
    evaluate_candidates,
    finish_candidates,
    flat_global_geometry,
    typed_clone,
)
from repro.rewrite.lowering import lower_to_global, lower_to_work_groups
from repro.rewrite.mapping import _match_map_nest_2d, tiling_rules
from repro.rewrite.strategies import one_step_rewrites


class TuningError(Exception):
    pass


def outer_map_length(
    high_level: Lambda, size_env: Mapping[str, int]
) -> Optional[int]:
    """Trip count of the outermost high-level ``map`` — the length the
    split-join tiling menu must divide.  ``None`` when it cannot be
    determined (no map on the spine, symbolic size)."""

    def find(e) -> Optional[int]:
        if not isinstance(e, FunCall):
            return None
        if isinstance(unwrap(e.f), pat.AbstractMap) and isinstance(
            e.args[0].type, ArrayType
        ):
            return concrete_length(e.args[0].type.length, size_env)
        for a in e.args:
            found = find(a)
            if found is not None:
                return found
        return None

    typed = typed_clone(high_level)
    return find(typed.body) if typed is not None else None


def _largest_divisor_at_most(n: int, cap: int) -> Optional[int]:
    """The largest divisor of ``n`` in ``[2, cap]`` (``None`` if none)."""
    for d in range(min(cap, n), 1, -1):
        if n % d == 0:
            return d
    return None


def _square_nest_lengths(
    high_level: Lambda, size_env: Mapping[str, int]
) -> Optional[tuple]:
    """``(rows, cols)`` of the first independent two-deep map nest of
    the program, or ``None`` (no nest / symbolic sizes)."""
    typed = typed_clone(high_level)
    if typed is None:
        return None
    for e in post_order(typed.body):
        match = _match_map_nest_2d(e) if isinstance(e, FunCall) else None
        if match is not None:
            rows, cols = (
                concrete_length(m.type.length, size_env)
                if isinstance(m.type, ArrayType) else None
                for m in match[:2]
            )
            return None if rows is None or cols is None else (rows, cols)
    return None


def tile_2d_candidates(
    high_level: Lambda,
    size_env: Mapping[str, int],
    tiles: Sequence[tuple] = ((8, 8),),
) -> list:
    """2-D tiled schedules for square two-deep map nests.

    Applies the ``tile-2d`` macro rules of :mod:`repro.rewrite.mapping`
    (unstaged and cooperative ``toLocal`` staging) and finishes the
    rewrite through the search's own
    :func:`~repro.rewrite.explore.finish_candidates`, so the menu entry
    and the derived ``tile-2d(...)@0`` schedule are one program with one
    geometry.  Guarded by shape: the nest must be square and (checked by
    the finish step) both dimensions divisible by the tile — non-matching
    programs get an empty list, so the fixed menu keeps its 1-D shapes
    only.
    """
    dims = _square_nest_lengths(high_level, size_env)
    if dims is None or dims[0] != dims[1]:
        return []
    candidates = []
    for rule in tiling_rules(tiles):
        rewritten = one_step_rewrites(rule, high_level.body)[:1]
        for cand in finish_candidates(
            high_level, [(body, ()) for body in rewritten], size_env,
            ExploreStats(),
        ):
            cand.label = rule.name
            candidates.append(cand)
    return candidates


def default_candidates(
    high_level: Lambda,
    n: int,
    chunks: Sequence[int] = (32, 64, 128),
    size_env: Optional[Mapping[str, int]] = None,
) -> list:
    """The standard lowering menu: flat global mapping plus work-group
    tilings at several chunk sizes (the split-join rule's knob), plus —
    for square two-deep map nests with a concrete ``size_env`` — the
    2-D ``tile-2d`` schedules of :func:`tile_2d_candidates`.

    When no configured chunk divides ``n`` the menu falls back to the
    largest divisor of ``n`` below the biggest chunk, so irregular sizes
    still get a work-group tiling instead of silently degrading to the
    flat ``mapGlb`` schedule only.
    """
    candidates = [
        ExploredCandidate(
            "mapGlb", lower_to_global(high_level), *flat_global_geometry(n)
        )
    ]

    def tiled(chunk: int) -> ExploredCandidate:
        return ExploredCandidate(
            f"mapWrg/mapLcl(chunk={chunk})",
            lower_to_work_groups(high_level, chunk=chunk),
            (min(chunk, 64), 1, 1),
            (n // chunk * min(chunk, 64), 1, 1),
        )

    dividing = [chunk for chunk in chunks if n % chunk == 0]
    if not dividing and chunks:
        fallback = _largest_divisor_at_most(n, max(chunks))
        dividing = [fallback] if fallback is not None else []
    candidates.extend(tiled(chunk) for chunk in dividing)
    if size_env is not None:
        candidates.extend(tile_2d_candidates(high_level, size_env))
    return candidates


def autotune(
    high_level: Lambda,
    inputs: Mapping[str, Any],
    size_env: Mapping[str, int],
    candidates: Optional[Iterable[ExploredCandidate]] = None,
    config: Optional[ExploreConfig] = None,
    cache=None,
    reference: "np.ndarray | Oracle | None" = None,
) -> list:
    """Evaluate the menu (or the given ``candidates``) and return the
    verified :class:`~repro.rewrite.explore.ExploredCandidate` list, best
    (smallest parallelism-aware estimated runtime — *not* fewest total
    cycles; a wider schedule doing slightly more work can rank first)
    first; ties keep menu order.

    ``config`` carries device, engine and the fault-tolerance knobs
    (the search-only fields are ignored);
    ``cache`` is an optional :class:`repro.cache.TuningCache`;
    ``reference`` is the flat ``ir.interp`` result of ``high_level``
    when the caller has it already, or the
    :class:`~repro.rewrite.explore.Oracle` that will produce it (an
    :class:`~repro.rewrite.explore.ExplorationResult` carries one, so
    search and menu interpret once between them — and not at all when
    neither launches anything).
    Candidates that fail to compile or run are quarantined and dropped;
    one that computes a wrong answer raises — a miscompiled schedule is
    a bug, not a slow schedule — and so does an empty ranking.
    """
    if candidates is None:
        n = outer_map_length(high_level, size_env)
        if n is None:
            n = len(np.asarray(next(iter(inputs.values()))).ravel())
        candidates = default_candidates(high_level, n, size_env=size_env)
    if reference is None:
        reference = Oracle(high_level, inputs, size_env)
    ranked, failures, _ = evaluate_candidates(
        list(candidates), inputs, size_env, reference,
        config or ExploreConfig(), cache,
    )
    for report in failures:
        if report.kind == "verify":
            raise TuningError(
                f"candidate {report.label} computed a wrong result"
            )
    if not ranked:
        raise TuningError(
            "no candidate schedule passed evaluation"
            + "".join(f"\n  - {report.describe()}" for report in failures)
        )
    return ranked

"""Automatic schedule selection over the rewrite space.

The paper separates optimization decisions (prior work [18], rewrite
rules + search) from code generation (the paper itself).  This module
closes the loop the way the Lift project does: enumerate lowerings of a
portable high-level program, compile each candidate, *execute* it on the
simulated device, verify it against the reference interpreter, and rank
by the cost model.  It is the reproduction's stand-in for the
auto-tuning arrow in the paper's Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.ir.nodes import Lambda
from repro.ir.interp import apply_fun
from repro.ir.printer import print_decl
from repro.compiler.codegen import CodeGenError, compile_kernel
from repro.compiler.kernel import execute_kernel
from repro.compiler.options import CompilerOptions
from repro.opencl.cost import DEVICES, estimate_cycles, estimate_runtime
from repro.rewrite.lowering import lower_to_global, lower_to_work_groups


@dataclass
class Candidate:
    """One point in the schedule space."""

    label: str
    program: Lambda
    local_size: tuple
    global_size: tuple


@dataclass
class TuningResult:
    candidate: Candidate
    cycles: float
    kernel_source: str
    #: ``cycles`` divided by the launch's effective parallelism — what
    #: the ranking sorts by (see :func:`repro.opencl.cost.estimate_runtime`).
    runtime: Optional[float] = None

    def __repr__(self) -> str:
        runtime = (
            f", runtime {self.runtime:.1f}" if self.runtime is not None else ""
        )
        return f"TuningResult({self.candidate.label}, {self.cycles:.0f} cycles{runtime})"


class TuningError(Exception):
    pass


def interp_args(fun: Lambda, inputs: Mapping[str, Any], size_env) -> list:
    """Shape concrete inputs per the program's parameter types for the
    reference interpreter (nested lists for multi-dimensional arrays)."""
    from repro.arith import simplify
    from repro.types import ArrayType

    args = []
    for p in fun.params:
        value = inputs[p.name]
        if isinstance(p.type, ArrayType):
            dims = []
            t = p.type
            while isinstance(t, ArrayType):
                dims.append(int(simplify(t.length).evaluate(dict(size_env))))
                t = t.elem
            args.append(np.asarray(value, dtype=float).reshape(dims).tolist())
        else:
            args.append(value)
    return args


def outer_map_length(
    high_level: Lambda, size_env: Mapping[str, int]
) -> Optional[int]:
    """Trip count of the outermost high-level ``map`` — the length the
    split-join tiling menu must divide.  ``None`` when it cannot be
    determined (no map on the spine, symbolic size)."""
    from repro.arith import simplify
    from repro.types import ArrayType
    from repro.ir.nodes import FunCall
    from repro.ir import patterns as pat
    from repro.ir.typecheck import infer_types
    from repro.ir.visit import clone_decl

    typed = clone_decl(high_level)
    assert isinstance(typed, Lambda)
    try:
        infer_types(typed.body)
    except Exception:
        return None

    def find(e) -> Optional[int]:
        if not isinstance(e, FunCall):
            return None
        f = e.f
        while isinstance(f, pat.AddressSpaceWrapper):
            f = f.f
        if isinstance(f, pat.AbstractMap):
            arg_t = e.args[0].type
            if isinstance(arg_t, ArrayType):
                try:
                    return int(simplify(arg_t.length).evaluate(dict(size_env)))
                except Exception:
                    return None
        for a in e.args:
            found = find(a)
            if found is not None:
                return found
        return None

    return find(typed.body)


def flat_global_geometry(n: int) -> tuple:
    """``(local_size, global_size)`` for a flat ``mapGlb`` schedule over
    ``n`` items: the largest power-of-two local size dividing ``n`` (cap
    64), and a global size capped at 1024 (generated kernels stride when
    the NDRange is smaller than the data).  Shared by the fixed menu and
    the explorer so both sides agree on geometry — and therefore on
    tuning-cache keys — for the same schedule."""
    import math

    local0 = math.gcd(n, 64) or 1
    global0 = n if n <= 1024 else 1024 - (1024 % local0)
    return (local0, 1, 1), (global0, 1, 1)


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
    from repro.arith import simplify
    from repro.types import ArrayType
    from repro.ir.nodes import FunCall
    from repro.ir.typecheck import infer_types
    from repro.ir.visit import clone_decl, post_order
    from repro.rewrite.mapping import _match_map_nest_2d

    typed = clone_decl(high_level)
    assert isinstance(typed, Lambda)
    try:
        infer_types(typed.body)
    except Exception:
        return None

    def length_of(e) -> Optional[int]:
        t = getattr(e, "type", None)
        if not isinstance(t, ArrayType):
            return None
        try:
            return int(simplify(t.length).evaluate(dict(size_env)))
        except Exception:
            return None

    for e in post_order(typed.body):
        if isinstance(e, FunCall):
            match = _match_map_nest_2d(e)
            if match is not None:
                rows, cols = length_of(match[0]), length_of(match[1])
                if rows is None or cols is None:
                    return None
                return rows, cols
    return None


def tile_2d_candidates(
    high_level: Lambda,
    size_env: Mapping[str, int],
    tiles: Sequence[tuple] = ((8, 8),),
) -> list:
    """2-D tiled schedules for square two-deep map nests.

    Applies the ``tile-2d`` macro rule of :mod:`repro.rewrite.mapping`
    (unstaged and cooperative ``toLocal`` staging), finishes and
    specializes the rewrite the way the explorer does, and returns one
    :class:`Candidate` per applicable tile shape.  Guarded by shape:
    the nest must be square and both dimensions divisible by the tile —
    non-matching programs get an empty list, so the fixed menu keeps
    its 1-D shapes only.
    """
    from repro.ir.typecheck import infer_types
    from repro.ir.visit import clone_decl
    from repro.rewrite.mapping import tile_2d
    from repro.rewrite.strategies import one_step_rewrites
    from repro.rewrite.explore import (
        _collect_parallel,
        _finish_variants,
        _geometry,
        _nesting_ok,
        specialize_sizes,
    )

    dims = _square_nest_lengths(high_level, size_env)
    if dims is None:
        return []
    rows, cols = dims
    candidates = []
    for th, tw in tiles:
        if rows != cols or rows % th or cols % tw:
            continue
        for stage in (False, True):
            rule = tile_2d(th, tw, stage=stage)
            rewritten = one_step_rewrites(rule, high_level.body)
            if not rewritten:
                continue
            variants = _finish_variants(rewritten[0])
            if not variants:
                continue
            finished, _ = variants[0]
            program = clone_decl(Lambda(list(high_level.params), finished))
            typed = clone_decl(program)
            try:
                infer_types(typed.body)
            except Exception:
                continue
            if not _nesting_ok(typed.body):
                continue
            geometry = _geometry(_collect_parallel(typed.body), size_env)
            if geometry is None:
                continue
            local, global_ = geometry
            candidates.append(
                Candidate(
                    rule.name,
                    specialize_sizes(program, size_env),
                    local,
                    global_,
                )
            )
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
    glb_local, glb_global = flat_global_geometry(n)
    candidates = [
        Candidate("mapGlb", lower_to_global(high_level), glb_local, glb_global)
    ]

    def tiled(chunk: int) -> Candidate:
        return Candidate(
            f"mapWrg/mapLcl(chunk={chunk})",
            lower_to_work_groups(high_level, chunk=chunk),
            (min(chunk, 64), 1, 1),
            (n // chunk * min(chunk, 64), 1, 1),
        )

    any_tiled = False
    for chunk in chunks:
        if n % chunk:
            continue
        any_tiled = True
        candidates.append(tiled(chunk))
    if not any_tiled and chunks:
        fallback = _largest_divisor_at_most(n, max(chunks))
        if fallback is not None:
            candidates.append(tiled(fallback))
    if size_env is not None:
        candidates.extend(tile_2d_candidates(high_level, size_env))
    return candidates


def autotune(
    high_level: Lambda,
    inputs: Mapping[str, Any],
    size_env: Mapping[str, int],
    candidates: Optional[Iterable[Candidate]] = None,
    device: str = "nvidia",
    rtol: float = 1e-9,
    engine: Optional[str] = None,
    explore_config=None,
    cache=None,
    reference: Optional[np.ndarray] = None,
) -> list:
    """Compile, run, verify and rank every candidate schedule.

    Returns the surviving candidates' :class:`TuningResult` list, sorted
    best (smallest parallelism-aware estimated runtime — *not* fewest
    total cycles; a wider schedule doing slightly more work can rank
    first) first.  Candidates that fail to
    compile are skipped; candidates that compute a wrong answer raise —
    a miscompiled schedule is a bug, not a slow schedule.  ``engine``
    picks the simulator engine for every candidate execution (the
    default ``auto`` runs vectorizable kernels through the closure
    pipeline of :mod:`repro.opencl.simt_compile`, which is what makes
    the execute-and-rank loop fast; pipelines attach to the shared
    parsed program, so re-running ``autotune`` over the same candidates
    — as every benchsuite repetition does — re-launches the already
    compiled pipelines instead of re-walking kernel ASTs).

    Candidate generation has two modes: the fast preset
    (:func:`default_candidates`, used when neither ``candidates`` nor
    ``explore_config`` is given) and the full rewrite-space search of
    :mod:`repro.rewrite.explore`, selected by passing an
    :class:`~repro.rewrite.explore.ExploreConfig`.  ``cache`` is an
    optional :class:`repro.cache.TuningCache`; the menu path uses it to
    skip recompilations, the explorer additionally caches measured
    cycles.  ``reference`` is the flat ``ir.interp`` result of
    ``high_level`` when the caller has it already (an
    :class:`~repro.rewrite.explore.ExplorationResult` carries one); the
    menu candidates are checked against it instead of re-interpreting.
    """
    if candidates is None and explore_config is not None:
        from repro.rewrite.explore import explore_program

        exploration = explore_program(
            high_level, inputs, size_env, config=explore_config, cache=cache
        )
        results = [
            TuningResult(
                Candidate(c.label, c.program, c.local_size, c.global_size),
                c.cycles,
                c.kernel_source,
                runtime=c.runtime,
            )
            for c in exploration.candidates
        ]
        if not results:
            raise TuningError("exploration produced no runnable candidate")
        return results

    if candidates is None:
        n = outer_map_length(high_level, size_env)
        if n is None:
            n = len(np.asarray(next(iter(inputs.values()))).ravel())
        candidates = default_candidates(high_level, n, size_env=size_env)

    profile = DEVICES[device]
    results = []

    for candidate in candidates:
        options = CompilerOptions(local_size=candidate.local_size)
        kernel = None
        key = None
        if cache is not None:
            key = cache.kernel_key(candidate.program, options, size_env)
            kernel = cache.get_kernel(key)
        if kernel is None:
            try:
                kernel = compile_kernel(candidate.program, options)
            except CodeGenError:
                continue
            if cache is not None:
                cache.put_kernel(key, kernel)

        run = execute_kernel(
            kernel, inputs, size_env, candidate.global_size,
            local_size=candidate.local_size, engine=engine,
        )

        if reference is None:
            args = interp_args(candidate.program, inputs, size_env)
            reference = np.asarray(
                apply_fun(candidate.program, args, size_env), dtype=float
            ).ravel()
        np.testing.assert_allclose(
            run.output, reference, rtol=rtol, atol=1e-9,
            err_msg=f"candidate {candidate.label} computed a wrong result",
        )

        results.append(
            TuningResult(
                candidate,
                estimate_cycles(run.counters, profile),
                kernel.source,
                runtime=estimate_runtime(
                    run.counters, profile,
                    candidate.global_size, candidate.local_size,
                ),
            )
        )

    if not results:
        raise TuningError("no candidate schedule compiled")
    results.sort(key=lambda r: r.runtime)
    return results


def describe(results: Iterable[TuningResult]) -> str:
    lines = ["schedule ranking (fastest estimated runtime first):"]
    for rank, r in enumerate(results, 1):
        lines.append(
            f"  {rank}. {r.candidate.label:<28} {r.runtime:>12.1f} est "
            f"({r.cycles:.0f} cycles)"
        )
    return "\n".join(lines)

"""Derivation-tree exploration of the rewrite space.

The paper's Figure 1 separates *optimization* (rewrite rules plus
exploration, prior work [18]) from *code generation*.  This module is
the optimization side: a search over the rule set of
:mod:`repro.rewrite.rules`, and the one compile → simulate → verify →
rank loop (:func:`evaluate_candidates`) every candidate schedule goes
through — the search's survivors and the fixed lowering menu of
:mod:`repro.rewrite.autotune` alike.

Search
------
Starting from a high-level ``Lambda``, the engine runs a bounded
breadth-first enumeration: at every level it applies each rule of the
menu at every matching position (one traversal for all of them,
:func:`repro.rewrite.strategies.rewrites_by_rule`), recording the
derivation trace ``rule@position``.  The frontier is deduplicated with the
structural key of :mod:`repro.ir.structural` — alpha-equivalent
programs collapse to one node — and capped at ``BEAM`` programs per
level.  Rewriting shares structure: a variant is one new spine from the
root to its replacement, the rest is its source's own nodes
(:mod:`repro.ir.visit`: whoever annotates clones first), so the search
starts from one private copy of the body and annotates nothing after
it.  What is true of a subtree is true of it
in every derivation that shares it: the search's :class:`SearchMemo`
keeps, per structural key, a subtree's single-step rewrites under each
rule, its sequentially finished form, its validity and its types, so a
derivation costs what its last rewrite changed, not the size of the
program.

The rule menu includes the dimension-aware layer of
:mod:`repro.rewrite.mapping`: lowering rules parametrized over thread
dimensions, vectorization, and the 2-D tiling macro rule (``tile-2d``)
that turns a two-deep map nest into the paper's ``mapWrg(1)/mapWrg(0)``
+ ``mapLcl`` + ``toLocal`` tiled schedule in a single derivation step.

Every enumerated derivation is then *finished* into executable
schedules: if no parallel map was chosen yet, each applicable mapping
strategy (flat 1-D ``mapGlb``, and the 2-D ``mapGlb(1)/mapGlb(0)`` nest
when the spine has two nested maps) produces one variant; remaining
high-level patterns are lowered sequentially (``map → mapSeq``,
``reduce → reduceSeq``).  A structural validity check rejects schedules
the OpenCL thread hierarchy cannot express (nested parallel maps over
the same dimension, ``mapLcl`` outside a work-group of the same
dimension, parallel patterns under sequential ones) before they are
lowered; a check on their types rejects split factors that do not
divide their input length (:func:`finish_candidates`).

Pruning
-------
Surviving candidates are ranked by the *static* cost estimate
(:func:`repro.opencl.cost.static_program_cost`, parallelism-aware: a
critical-path estimate against the candidate's own launch geometry) —
no compilation or execution happens yet — and only the ``max_eval``
cheapest proceed.

Evaluation
----------
Survivors go through :func:`evaluate_candidates`: compile → simulate →
verify, one candidate after another in the caller's thread (under the
GIL a pool of threads only added overhead).  Results are verified
*bitwise* against the reference interpreter running the original
high-level program (our rules never reorder floating-point reductions,
so a correct schedule reproduces the exact bits) — an :class:`Oracle`
interpreted once, by the first candidate that actually launched; a
search served entirely from the cycles cache interprets nothing.
Ranking divides the
measured-counter cost (:func:`repro.opencl.cost.estimate_cycles`) by
the launch's effective parallelism
(:func:`repro.opencl.cost.runtime_from_cycles`) — wider schedules win when
their per-thread work shrinks faster than their overheads grow.

Cache key
---------
The evaluator asks the cache (:meth:`repro.cache.TuningCache.fetch`)
for each candidate's kernel, keyed by ``(structural hash of the program,
CompilerOptions, size env)``, then for its cycles, keyed additionally by
``(input fingerprint, launch geometry, device, engine)``; compiling and
simulate + verify are what run on a miss.  A warm cache therefore
performs zero recompilations and zero re-executions for unchanged
programs; the explorer reports both hit-rates in its stats.

Fault tolerance
---------------
The compile → simulate → verify loop degrades gracefully instead of
dying with the worst candidate (see ``src/repro/RESILIENCE.md``):

* every candidate failure is *classified* (``compile`` / ``simulate`` /
  ``verify``, or ``infra`` for an unexpected exception) and quarantined
  into a structured :class:`FailureReport` on
  :class:`ExplorationResult` — the rest of the search completes;
* a candidate is evaluated once: a schedule that fails to compile,
  run or verify fails the same way on every attempt.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.arith import ArithExpr, Cst, Var, simplify
from repro.arith.expr import substitute
from repro.types import ArrayType
from repro.ir.nodes import Expr, FunCall, Lambda, Param, Pattern
from repro.ir import patterns as pat
from repro.ir.interp import apply_fun
from repro.ir.structural import canonical, key, keys_computed
from repro.ir.typecheck import (
    SharedAtTwoTypes,
    TypeMemo,
    infer_types,
    type_reader,
)
from repro.ir.visit import (
    body_of,
    clone_decl,
    clone_expr,
    nested_fun,
    transform_calls,
    unwrap,
)
from repro.cache import or_disabled
from repro.compiler.codegen import CodeGenError, CompiledKernel, compile_kernel
from repro.compiler.kernel import execute_kernel
from repro.compiler.options import CompilerOptions
from repro.opencl.cost import (
    DEVICES,
    DeviceProfile,
    estimate_cycles,
    runtime_from_cycles,
    static_program_cost,
)
from repro.opencl import simt_compile
from repro.rewrite.lowering import lower_inner_sequential
from repro.rewrite.mapping import finish_mappings, tiling_rules
from repro.rewrite.rules import (
    fusion_rules,
    map_to_glb,
    map_to_lcl,
    map_to_seq,
    map_to_wrg,
    reduce_to_seq,
    simplification_rules,
    split_join,
    to_local_insertion,
    vectorize_map,
)
from repro.rewrite.strategies import rewrites_by_rule
from repro import obs


class ExplorationError(Exception):
    pass


class _StageFailure(Exception):
    """A deterministic (non-transient) failure of one evaluation stage."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


class _OracleFailure(Exception):
    """The reference interpretation itself failed (``__cause__``): the
    whole evaluation's failure, not the candidate's that asked first."""


#: Programs kept per BFS level.
BEAM = 64
#: Split factors of the split-join (tiling) rule.
CHUNKS = (4, 8, 16, 32, 64)
#: Thread dimensions the lowering rules may assign.
DIMS = (0, 1)
#: Tile shapes of the 2-D tiling macro rule (rows x columns).
TILES = ((4, 4), (8, 8))
#: Widths of the vectorization rule.
VECTOR_WIDTHS = (4,)


def rule_menu() -> list:
    """The rules the search applies, in enumeration order."""
    # Macro rules first: the beam caps each BFS level, and one
    # tiling application is worth more than many fine-grained steps.
    rules = tiling_rules(TILES)
    for dim in DIMS:
        rules += [map_to_glb(dim), map_to_wrg(dim), map_to_lcl(dim)]
    rules += [map_to_seq(), reduce_to_seq()]
    rules += fusion_rules()
    rules += simplification_rules()
    rules += [split_join(k) for k in CHUNKS]
    rules += [to_local_insertion()]
    rules += [vectorize_map(w) for w in VECTOR_WIDTHS]
    return rules


@dataclass
class ExploreConfig:
    """Knobs of the derivation search (see the module docstring)."""

    depth: int = 3
    max_eval: int = 16
    device: str = "nvidia"
    engine: Optional[str] = None
    #: Label under which evaluated candidates are recorded in the
    #: cost-model calibration log (:mod:`repro.obs.analysis`); the
    #: benchsuite passes the benchmark name.  ``None`` records under
    #: ``"adhoc"``.
    workload: Optional[str] = None


@dataclass
class ExploreStats:
    enumerated: int = 0
    dedup_hits: int = 0
    finish_dedup_hits: int = 0
    finished: int = 0
    invalid: int = 0
    pruned: int = 0
    evaluated: int = 0
    compilations: int = 0
    executions: int = 0
    compile_failures: int = 0
    verify_failures: int = 0
    #: Failure taxonomy beyond compile/verify (see RESILIENCE.md):
    #: candidates whose execution raised (engine refusal, bad geometry).
    simulate_failures: int = 0
    #: Candidates whose evaluation raised an unexpected exception.
    infra_failures: int = 0
    #: Always 0: nothing times out or cancels a search.  Kept because
    #: the end-to-end harness (``benchmarks/e2e/workloads.py``) sums
    #: both among its failure counts; ROADMAP item 1(b) drops them with
    #: that pin.
    timeouts: int = 0
    cancelled: int = 0
    kernel_cache_hits: int = 0
    kernel_cache_misses: int = 0
    cycle_cache_hits: int = 0
    cycle_cache_misses: int = 0
    #: Closure pipelines compiled during evaluation — at most one per
    #: distinct kernel; repeat launches of a candidate reuse the
    #: pipeline through the source-keyed parse LRU (see
    #: :mod:`repro.opencl.simt_compile`).
    pipeline_compiles: int = 0

    def dedup_hit_rate(self) -> float:
        return self.dedup_hits / self.enumerated if self.enumerated else 0.0

    def kernel_cache_hit_rate(self) -> float:
        total = self.kernel_cache_hits + self.kernel_cache_misses
        return self.kernel_cache_hits / total if total else 0.0

    def cycle_cache_hit_rate(self) -> float:
        total = self.cycle_cache_hits + self.cycle_cache_misses
        return self.cycle_cache_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "dedup_hit_rate": round(self.dedup_hit_rate(), 4),
            "kernel_cache_hit_rate": round(self.kernel_cache_hit_rate(), 4),
            "cycle_cache_hit_rate": round(self.cycle_cache_hit_rate(), 4),
        }


@dataclass
class ExploredCandidate:
    """One finished, schedulable point of the derivation space — derived
    by the search or generated by the fixed menu (``trace == ()``)."""

    label: str
    program: Lambda
    local_size: tuple
    global_size: tuple
    trace: tuple = ()
    #: Pre-execution estimate the search prunes by; the menu has none.
    static_cost: Optional[float] = None
    cycles: Optional[float] = None
    #: ``cycles`` divided by the launch's effective parallelism — the
    #: quantity candidates are ranked by.
    runtime: Optional[float] = None
    kernel_source: Optional[str] = None
    #: Wall-clock seconds of the successful evaluation.
    eval_seconds: Optional[float] = None

    @property
    def canonical_form(self) -> str:
        """Canonical (alpha-equivalence) text of ``program`` — the
        calibration/trace join key.  Printed when first asked for, then
        a read of the program's structural key."""
        return canonical(self.program)

    def describe_trace(self) -> str:
        return " -> ".join(self.trace) if self.trace else "(original)"


@dataclass
class ExplorationResult:
    candidates: list  # evaluated ExploredCandidates, best first
    stats: ExploreStats
    #: Structured quarantine records of candidates that failed
    #: (:class:`FailureReport`); the search completes around them.
    failures: list = field(default_factory=list)
    #: The oracle every launched candidate was verified against; still
    #: unevaluated when nothing launched (a fully warm search).
    oracle: Optional["Oracle"] = None

    @property
    def reference(self) -> np.ndarray:
        """The oracle's array (interpreting now if no launch needed it)."""
        return self.oracle()

    def best(self) -> ExploredCandidate:
        if not self.candidates:
            raise ExplorationError("exploration produced no runnable candidate")
        return self.candidates[0]

    def describe(self, top: int = 5) -> str:
        lines = ["exploration ranking (fastest estimated runtime first):"]
        for rank, cand in enumerate(self.candidates[:top], 1):
            lines.append(
                f"  {rank}. {cand.label:<34} {cand.runtime:>12.1f} est "
                f"({cand.cycles:.0f} cycles over "
                f"{'x'.join(str(g) for g in cand.global_size)} items, "
                f"local {'x'.join(str(l) for l in cand.local_size)})"
            )
            lines.append(f"     derivation: {cand.describe_trace()}")
        s = self.stats
        lines.append(
            f"  [{s.enumerated} enumerated, dedup hit-rate "
            f"{s.dedup_hit_rate():.0%}, {s.evaluated} evaluated, "
            f"kernel cache hit-rate {s.kernel_cache_hit_rate():.0%}]"
        )
        if self.failures:
            lines.append(f"  {len(self.failures)} candidate(s) quarantined:")
            for report in self.failures[:top]:
                lines.append(f"    - {report.describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# schedule validity and geometry
# ---------------------------------------------------------------------------

def typed_clone(fun: Lambda) -> Optional[Lambda]:
    """A type-annotated clone of ``fun`` (inference annotates nodes in
    place, and rewriting shares subtrees), or ``None`` when it does not
    type-check."""
    typed = clone_decl(fun)
    assert isinstance(typed, Lambda)
    try:
        infer_types(typed.body)
    except Exception:
        return None
    return typed


def concrete_length(length, size_env: Mapping[str, int]) -> Optional[int]:
    """``length`` (an arithmetic expression or ``None``) as an integer
    under ``size_env``; ``None`` while it is still symbolic."""
    if length is None:
        return None
    try:
        return int(simplify(length).evaluate(dict(size_env)))
    except Exception:
        return None


#: Bits of :meth:`SearchMemo.maps_below`.
_PARALLEL, _LOCAL = 1, 2


class SearchMemo:
    """What one search has worked out about subtrees, indexed by
    structural key (:func:`repro.ir.structural.key`) — or by its shape,
    for the facts that do not depend on which parameters are free — and,
    for what is read off types, by node.

    Rewriting shares subtrees, rules are pure, and every fact kept here
    is context-free — a function of the subtree alone, or of the
    subtree and the thread-hierarchy context (or the free-parameter
    types) it is entered in — so each is computed once, by whichever
    derivation reaches the subtree first.
    One :func:`explore_program` call owns one: nothing is process-wide,
    nothing needs invalidating, and it is garbage when the search
    returns.
    """

    def __init__(self) -> None:
        #: rule menu -> its
        #: :func:`~repro.rewrite.strategies.rewrites_by_rule` memo.
        self.rewrites: dict = {}
        #: :func:`~repro.rewrite.lowering.lower_inner_sequential`'s memo.
        self.sequential: dict = {}
        #: The types of every program finished so far.
        self.types = TypeMemo()
        #: :func:`_splits_divide`'s verdict per node, for the search's
        #: one size environment.
        self.splits: dict = {}
        self._maps: dict = {}
        self._nesting: dict = {}

    def typed(self, program: Lambda) -> Optional[tuple]:
        """``(program, {node: type})`` — the search's type table, with
        no node annotated — or ``(typed clone, None)`` when a node of
        ``program`` sits at another type in an earlier one; ``None``
        when it does not type."""
        try:
            self.types.infer(program.body)
            return program, self.types.types
        except SharedAtTwoTypes:
            typed = typed_clone(program)
            return None if typed is None else (typed, None)
        except Exception:
            return None

    def maps_below(self, e: Expr) -> int:
        """Which maps are among the calls of ``e``
        (:func:`~repro.ir.visit.post_order`), as bits: :data:`_PARALLEL`
        — :func:`_collect_parallel` would find something, no types
        needed; :data:`_LOCAL` — a ``mapLcl``, so a ``mapWrg`` around
        ``e`` has local parallelism to use."""
        if type(e) is not FunCall:
            return 0
        k = (e._key or key(e))[0]
        found = self._maps.get(k)
        if found is None:
            found = _PARALLEL if isinstance(unwrap(e.f), pat.ParallelMap) else 0
            if isinstance(e.f, pat.MapLcl):
                found |= _LOCAL
            for child in e.args:
                found |= self.maps_below(child)
            body = body_of(e.f)
            if body is not None:
                found |= self.maps_below(body)
            self._maps[k] = found
        return found

    def nesting_ok(self, e: Expr, active: frozenset, seq: bool) -> bool:
        """:func:`_nesting_ok` of ``e`` entered below the parallel maps
        ``active`` (``(kind, dim)`` pairs), ``seq``: below a sequential
        pattern."""
        if type(e) is not FunCall:
            return True
        k = ((e._key or key(e))[0], active, seq)
        ok = self._nesting.get(k)
        if ok is None:
            ok = self._nesting[k] = self._well_nested(e, active, seq)
        return ok

    def _well_nested(self, e: FunCall, active: frozenset, seq: bool) -> bool:
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
        elif isinstance(f, (pat.Map, pat.MapSeq, pat.ReduceSeq, pat.Iterate)):
            # A high-level ``map`` is the ``mapSeq`` it lowers to
            # (``reduce`` is a ``reduceSeq`` already): the verdict on a
            # mapped body is the verdict on its sequential lowering.
            inner_seq = True
        # Every work-group map must actually use local parallelism.
        if isinstance(e.f, pat.MapWrg) and not any(
            self.maps_below(child) & _LOCAL for child in _children(e)
        ):
            return False
        # The full data flow — including the bodies of beta-redex
        # lambdas, which the tiled schedules use to share ``toLocal``
        # staging between compute maps.
        for a in e.args:
            if not self.nesting_ok(a, active, seq):
                return False
        inner = body_of(f)
        return inner is None or self.nesting_ok(inner, inner_active, inner_seq)


def _children(e: FunCall) -> list:
    """The expressions directly below a call: its arguments and the
    body its function ends in."""
    body = body_of(e.f)
    return [*e.args] if body is None else [*e.args, body]


def _mapped_variants(body: Expr, memo: Optional[SearchMemo] = None) -> list:
    """The thread-hierarchy choices that finish ``body``, before the
    sequential lowering of what stays high-level.

    Returns ``(mapped_body, strategy_label)`` pairs.  A derivation that
    already chose parallel patterns has one (label ``None``); one that
    did not has one per applicable mapping strategy — the flat 1-D
    schedule and, for two-deep map nests, the 2-D ``mapGlb`` nest."""
    memo = memo or SearchMemo()
    if memo.maps_below(body) & _PARALLEL:
        return [(body, None)]
    mapped = [(m, f"finish:{name}") for m, name in finish_mappings(body)]
    # No high-level map on the spine: a sequential schedule.
    return mapped or [(body, None)]


def _nesting_ok(body: Expr, memo: Optional[SearchMemo] = None) -> bool:
    """OpenCL thread-hierarchy wellformedness of the parallel patterns:
    no parallel map under a sequential pattern or over a dimension
    already taken, ``mapLcl`` only inside a ``mapWrg`` of its dimension,
    ``mapGlb`` never mixed with either, and every ``mapWrg`` with a
    ``mapLcl`` to run.  A high-level ``map`` counts as the ``mapSeq``
    it lowers to, so a body is judged before it is lowered."""
    memo = memo or SearchMemo()
    return memo.nesting_ok(body, frozenset(), False)


def _splits_divide(
    body: Expr,
    size_env: Mapping[str, int],
    types: Optional[Mapping] = None,
    done: Optional[dict] = None,
) -> bool:
    """Split factors and vector widths must divide their (typed) input
    lengths exactly (``asVector(4)`` over a one-element array would
    silently compute garbage).  Types as
    :func:`~repro.ir.typecheck.type_reader` reads them; ``done`` keeps
    the verdict per call node across calls — a type table gives a node
    one type in every program that shares it."""
    type_of = type_reader(types)
    done = {} if done is None else done

    def fits(e: Expr) -> bool:
        if type(e) is not FunCall:
            return True
        ok = done.get(e)
        if ok is None:
            ok = done[e] = _split_fits(e, size_env, type_of) and all(
                map(fits, _children(e))
            )
        return ok

    return fits(body)


def _split_fits(e: FunCall, size_env: Mapping[str, int], type_of) -> bool:
    """The check of :func:`_splits_divide` at one call."""
    f = e.f
    if not isinstance(f, (pat.Split, pat.AsVector)):
        return True
    arg_t = type_of(e.args[0])
    if not isinstance(arg_t, ArrayType):
        return False
    n = concrete_length(arg_t.length, size_env)
    k = concrete_length(f.n, size_env) if isinstance(f, pat.Split) else int(f.width)
    if n is None or k is None:
        return True  # symbolic: let the type checker decide
    return not (k <= 0 or n <= 0 or n % k)


def _collect_parallel(body: Expr, types: Optional[Mapping] = None) -> list:
    """Pre-order ``(kind, dim, trip-length-expr, staging)`` of parallel
    map calls.  ``staging`` marks maps that implement an address-space
    copy (their function sits under ``toLocal``/``toGlobal``/
    ``toPrivate``) — geometry selection prefers the trip counts of the
    *compute* maps and lets staging loops stride.  Types as
    :func:`~repro.ir.typecheck.type_reader` reads them."""
    type_of = type_reader(types)
    found: list = []

    def walk(e: Expr, staging: bool) -> None:
        if not isinstance(e, FunCall):
            return
        f = unwrap(e.f)
        inner_staging = staging or f is not e.f
        if isinstance(f, pat.ParallelMap):
            kind = {pat.MapGlb: "glb", pat.MapWrg: "wrg", pat.MapLcl: "lcl"}[
                type(f)
            ]
            arg_t = type_of(e.args[0])
            length = arg_t.length if isinstance(arg_t, ArrayType) else None
            found.append((kind, f.dim, length, inner_staging))
        if isinstance(f, Lambda):
            walk(f.body, staging)
        elif nested_fun(f) is not None:
            g = unwrap(f.f)
            if isinstance(g, Lambda):
                walk(g.body, inner_staging or g is not f.f)
        for a in e.args:
            walk(a, staging)

    walk(body, False)
    return found


#: Per-dimension cap on the chosen local size.
_MAX_LOCAL_PER_DIM = 64


def flat_global_geometry(n: int) -> tuple:
    """``(local_size, global_size)`` for a flat ``mapGlb`` schedule over
    ``n`` items: the largest power-of-two local size dividing ``n`` (cap
    64), and a global size capped at 1024 (generated kernels stride when
    the NDRange is smaller than the data).  Shared by the fixed menu and
    the search so both sides agree on geometry — and therefore on
    tuning-cache keys — for the same schedule."""
    local0 = math.gcd(n, 64) or 1
    global0 = n if n <= 1024 else 1024 - (1024 % local0)
    return (local0, 1, 1), (global0, 1, 1)


def _geometry(
    parallel: list, size_env: Mapping[str, int]
) -> Optional[tuple]:
    """Launch geometry (local_size, global_size) for a valid schedule.

    Dimension-aware: every thread dimension with a ``mapWrg`` gets its
    group count from the first such map and its local size from the
    first non-staging ``mapLcl`` of that dimension (staging copies
    stride); pure ``mapGlb`` schedules keep the flat 1-D geometry of the
    fixed menu on dimension 0 and gain per-dimension sizes beyond it."""

    def first_per_dim(kind: str, include_staging: bool = True) -> dict:
        out: dict = {}
        for k, d, t, staging in parallel:
            if k == kind and d not in out and (include_staging or not staging):
                out[d] = concrete_length(t, size_env)
        return out

    wrg = first_per_dim("wrg")
    if wrg:
        lcl = first_per_dim("lcl", include_staging=False)
        lcl_any = first_per_dim("lcl")
        local = [1, 1, 1]
        glob = [1, 1, 1]
        for d in (0, 1, 2):
            groups = wrg.get(d)
            trip = lcl.get(d, lcl_any.get(d))
            if groups is None and d in wrg:
                return None
            if trip is None and d in lcl_any:
                return None
            local[d] = min(trip, _MAX_LOCAL_PER_DIM) if trip else 1
            glob[d] = (groups if groups else 1) * local[d]
        return tuple(local), tuple(glob)

    glb = first_per_dim("glb")
    if glb:
        if any(n is None for n in glb.values()):
            return None
        local = [1, 1, 1]
        glob = [1, 1, 1]
        if len(glb) == 1:
            # A single mapGlb dimension gets the fixed menu's flat
            # geometry whatever the dimension is — an identical flat
            # schedule must rank identically on dim 0 and dim 1 (and
            # share tuning-cache keys with the menu on dim 0).
            (d, n), = glb.items()
            (l0, _, _), (g0, _, _) = flat_global_geometry(n)
            local[d], glob[d] = l0, g0
            return tuple(local), tuple(glob)
        # Multi-dimensional global schedules split the flat path's
        # ~1024-item launch budget across dimensions (32 per dim);
        # generated kernels stride when the NDRange is smaller than
        # the data, exactly like the flat 1-D case.
        per_dim_cap = 32
        for d, n in glb.items():
            local[d] = math.gcd(n, 16) or 1
            glob[d] = n if n <= per_dim_cap else per_dim_cap
        return tuple(local), tuple(glob)
    return (1, 1, 1), (1, 1, 1)


def finish_candidates(
    high_level: Lambda,
    derivations: list,
    size_env: Mapping[str, int],
    stats: ExploreStats,
    memo: Optional[SearchMemo] = None,
    profile: Optional[DeviceProfile] = None,
) -> list:
    """Turn ``(body, trace)`` derivations of ``high_level`` into the
    distinct valid schedules they finish to, as unlabelled
    :class:`ExploredCandidate` objects with program and launch geometry
    — and, given a device ``profile``, their ``static_cost`` on it.

    The one map → validate → lower → dedup → type → geometry → price
    step, shared by the search (every enumerated derivation) and the
    fixed menu's 2-D tilings; rejections and collapses are counted on
    ``stats``.  Each check runs before the work it spares: the thread
    hierarchy is judged on the mapped body, so a rejected variant is
    never lowered, keyed or typed, and types are read off the memo
    (:meth:`SearchMemo.typed`) rather than a typed clone.  The programs
    returned share subtrees with ``high_level``, the derivations and
    each other, so consumers clone before they annotate
    (:func:`specialize_sizes`)."""
    memo = memo or SearchMemo()
    seen: set = set()
    finished: list = []
    for body, trace in derivations:
        for mapped, finish_label in _mapped_variants(body, memo):
            # An all-sequential schedule "wins" under the total-work
            # cost model (no loop strides, no barriers) but is never a
            # useful GPU schedule; only parallel ones are ranked.
            if not (
                _nesting_ok(mapped, memo) and memo.maps_below(mapped) & _PARALLEL
            ):
                stats.invalid += 1
                continue
            lowered = lower_inner_sequential(mapped, memo.sequential)
            # Every program here has ``high_level``'s parameters, so the
            # key of its body tells it apart.
            body_key = key(lowered)
            if body_key in seen:
                # Distinct derivations collapsing to one schedule after the
                # finishing lowering; kept separate from the enumeration-time
                # dedup_hits so dedup_hit_rate stays a fraction of enumerated.
                stats.finish_dedup_hits += 1
                continue
            program = Lambda(high_level.params, lowered)
            typed = memo.typed(program)
            geometry = None
            if typed is not None:
                fun, types = typed
                if _splits_divide(fun.body, size_env, types, memo.splits):
                    geometry = _geometry(
                        _collect_parallel(fun.body, types), size_env
                    )
            if geometry is None:
                stats.invalid += 1
                continue
            seen.add(body_key)
            cand = ExploredCandidate(
                "", program, *geometry,
                trace=trace + ((finish_label,) if finish_label else ()),
            )
            if profile is not None:
                try:
                    with obs.span("explore.static-cost"):
                        cand.static_cost = static_program_cost(
                            fun, size_env, profile,
                            local_size=cand.local_size,
                            global_size=cand.global_size,
                            types=types,
                        )
                except Exception:
                    stats.invalid += 1
                    continue
            finished.append(cand)
    return finished


def specialize_sizes(fun: Lambda, size_env: Mapping[str, int]) -> Lambda:
    """Clone ``fun`` with every size variable — in parameter types and in
    pattern payloads (whatever value is an arithmetic expression or an
    index function: split factors, iterate counts, gather/scatter
    permutations) — replaced by its concrete value.

    The low-level benchmark programs are written this way by hand (gemv
    fixes ``K`` \"so the local staging buffers have compile-time sizes\");
    derived schedules that stage ``toLocal`` tiles need the same
    specialization, because OpenCL local arrays must have static sizes.
    Kernel cache keys stay on the *symbolic* program — the size
    environment is part of the key already."""
    env = {Var(k): Cst(int(v)) for k, v in size_env.items()}

    def subst_arith(x):
        return simplify(substitute(x, env))

    def subst_type(t):
        if isinstance(t, ArrayType):
            return ArrayType(subst_type(t.elem), subst_arith(t.length))
        return t

    def subst_payload(value):
        if isinstance(value, ArithExpr):
            return subst_arith(value)
        if isinstance(value, pat.IndexFun):
            return pat.IndexFun(
                value.name,
                lambda i, n, _f=value.fn: substitute(_f(i, n), env),
            )
        return value

    def visit(call: FunCall) -> Optional[Expr]:
        f = call.f
        if not isinstance(f, Pattern) or not f.payload:
            return None
        values = [subst_payload(getattr(f, name)) for name in f.payload]
        return FunCall(f.with_payload(*values), list(call.args))

    fresh = [Param(subst_type(p.type), p.name) for p in fun.params]
    body = clone_expr(fun.body, dict(zip(fun.params, fresh)))
    return Lambda(fresh, transform_calls(body, visit))


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _enumerate(
    start: Expr,
    rules: list,
    config: ExploreConfig,
    stats: ExploreStats,
    memo: Optional[SearchMemo] = None,
) -> list:
    """Bounded BFS over rule applications; returns (body, trace) pairs."""
    memo = memo or SearchMemo()
    rewrites = memo.rewrites.setdefault(tuple(rules), {})
    seen = {key(start)}
    frontier: list = [(start, ())]
    derivations: list = [(start, ())]

    for level in range(config.depth):
        next_frontier: list = []
        with obs.span(
            "explore.bfs-level", level=level, frontier=len(frontier)
        ):
            for body, trace in frontier:
                # One traversal yields every single-application variant
                # of every rule (position order matches
                # find_matches/apply_at).
                by_rule = rewrites_by_rule(rules, body, rewrites)
                for i, rule in enumerate(rules):
                    for position, candidate in enumerate(by_rule.get(i, ())):
                        stats.enumerated += 1
                        candidate_key = key(candidate)
                        if candidate_key in seen:
                            stats.dedup_hits += 1
                            continue
                        seen.add(candidate_key)
                        entry = (
                            candidate, trace + (f"{rule.name}@{position}",)
                        )
                        next_frontier.append(entry)
                        derivations.append(entry)
                        if len(next_frontier) >= BEAM:
                            break
                    if len(next_frontier) >= BEAM:
                        break
                if len(next_frontier) >= BEAM:
                    break
        frontier = next_frontier
        if not frontier:
            break
    return derivations


def reference_output(
    high_level: Lambda, inputs: Mapping[str, Any], size_env: Mapping[str, int]
) -> np.ndarray:
    """The ``ir.interp`` result of the high-level program as a flat float
    array — the oracle every candidate schedule is verified against.
    Inputs are shaped per the parameter types (nested lists for
    multi-dimensional arrays)."""
    obs.inc("explore.reference")
    with obs.span("explore.reference"):
        args = []
        for p in high_level.params:
            value = inputs[p.name]
            if isinstance(p.type, ArrayType):
                dims = []
                t = p.type
                while isinstance(t, ArrayType):
                    dims.append(int(simplify(t.length).evaluate(dict(size_env))))
                    t = t.elem
                value = np.asarray(value, dtype=float).reshape(dims).tolist()
            args.append(value)
        return np.asarray(
            apply_fun(high_level, args, size_env), dtype=float
        ).ravel()


class Oracle:
    """:func:`reference_output` of a program, interpreted the first time
    it is called and at most once — under a lock, because callers may
    verify from threads of their own, and two of them must not both
    interpret.  A search that
    launches nothing (every candidate served from the cycles cache)
    verifies nothing and never pays for it.  A failure is kept and
    re-raised to every caller."""

    def __init__(
        self, high_level: Lambda, inputs: Mapping[str, Any],
        size_env: Mapping[str, int],
    ):
        self._args = (high_level, inputs, size_env)
        self._lock = threading.Lock()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[Exception] = None

    def __call__(self) -> np.ndarray:
        with self._lock:
            if self._value is None and self._error is None:
                try:
                    self._value = reference_output(*self._args)
                except Exception as exc:
                    self._error = exc
            if self._error is not None:
                raise self._error
            return self._value


#: The explorer's failure taxonomy: each kind and the
#: :class:`ExploreStats` count it adds to.
_FAILURE_STAT = {
    "compile": "compile_failures",
    "simulate": "simulate_failures",
    "verify": "verify_failures",
    "infra": "infra_failures",
}
FAILURE_KINDS = tuple(_FAILURE_STAT)


@dataclass
class FailureReport:
    """Structured quarantine record of one failed candidate."""

    label: str
    trace: tuple
    kind: str  # one of FAILURE_KINDS
    message: str
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "trace": list(self.trace),
            "kind": self.kind,
            "message": self.message,
            "elapsed": round(self.elapsed, 6),
        }

    def describe(self) -> str:
        return f"{self.label or '(unlabelled)'}: {self.kind} — {self.message}"


def evaluate_candidates(
    candidates: Sequence[ExploredCandidate],
    inputs: Mapping[str, Any],
    size_env: Mapping[str, int],
    reference: "np.ndarray | Oracle",
    config: ExploreConfig,
    cache=None,
) -> tuple:
    """Compile → simulate → verify → cost every candidate schedule.

    The single place that decides how a schedule is compiled
    (size-specialized, keyed on the symbolic program), launched,
    verified (bitwise) against ``reference`` and costed, with the
    tuning-cache lookups of the module docstring.
    Candidates are evaluated once each, one after another, in order, in
    the caller's thread.  ``reference`` is the expected flat
    array or an :class:`Oracle`, which is forced by the first candidate
    that actually launched — a failing oracle fails the whole call with
    its own exception, it is not a candidate's fault.  Successful
    candidates get ``cycles`` / ``runtime`` / ``kernel_source`` /
    ``eval_seconds`` filled in.

    Returns ``(ranked, failures, events)``: the verified candidates best
    first (stable on ``(runtime, len(trace), trace)``, so ties keep the
    caller's order), one :class:`FailureReport` per quarantined
    candidate, and the ``compiled`` / ``executed`` event totals."""
    profile = DEVICES[config.device]
    cache = or_disabled(cache)
    inputs_fp = cache.fingerprint(inputs)

    def _evaluate_once(
        cand: ExploredCandidate, events: dict
    ) -> ExploredCandidate:
        """Ask the cache for the kernel, then for its cycles; compile /
        simulate + verify are what it runs on a miss, between the lookup
        and the store.

        Raises :class:`_StageFailure` for a stage's own failure and lets
        anything unexpected propagate unclassified to ``evaluate``.
        """
        cand_hash = obs.analysis.short_hash(cand.canonical_form)
        options = CompilerOptions(
            local_size=cand.local_size, global_size=cand.global_size
        )

        def compile_candidate() -> CompiledKernel:
            try:
                with obs.span(
                    "explore.compile", candidate=cand.label,
                    structural_hash=cand_hash,
                ):
                    kernel = compile_kernel(
                        specialize_sizes(cand.program, size_env), options
                    )
            except (CodeGenError, pat.LiftTypeError, ValueError) as exc:
                raise _StageFailure("compile", str(exc)) from exc
            events["compiled"] += 1
            return kernel

        key = cache.kernel_key(cand.program, options, size_env)
        kernel = cache.fetch("kernel", key, compile_candidate)

        def measure_cycles() -> float:
            kernel_inputs = {
                p.name: inputs[p.name] for p in cand.program.params
            }
            try:
                with obs.span(
                    "explore.simulate", candidate=cand.label,
                    structural_hash=cand_hash,
                ):
                    run = execute_kernel(
                        kernel, kernel_inputs, size_env, cand.global_size,
                        local_size=cand.local_size, engine=config.engine,
                    )
            except Exception as exc:
                raise _StageFailure("simulate", str(exc)) from exc
            events["executed"] += 1
            try:
                expected = reference() if callable(reference) else reference
            except Exception as exc:
                raise _OracleFailure from exc
            with obs.span(
                "explore.verify", candidate=cand.label,
                structural_hash=cand_hash,
            ):
                out = np.asarray(run.output, dtype=float).ravel()
                ok = np.array_equal(out, expected)
            if not ok:
                raise _StageFailure("verify", "result differs from reference")
            return estimate_cycles(run.counters, profile)

        # Total work is what the cache stores (it is engine- and
        # geometry-keyed); the parallelism division is pure arithmetic.
        cand.cycles = cache.fetch(
            "cycles",
            cache.cycles_key(
                key, inputs_fp, cand.global_size, cand.local_size,
                config.device, config.engine,
            ),
            measure_cycles,
        )
        cand.runtime = runtime_from_cycles(
            cand.cycles, profile, cand.global_size, cand.local_size
        )
        cand.kernel_source = kernel.source
        return cand

    def evaluate(cand: ExploredCandidate):
        """One evaluation, classified.  Returns ``(candidate | None,
        events, FailureReport | None)``."""
        events = {"compiled": 0, "executed": 0}
        start = time.monotonic()

        def fail(kind: str, message: str):
            report = FailureReport(
                label=cand.label, trace=cand.trace, kind=kind,
                message=message, elapsed=time.monotonic() - start,
            )
            return None, events, report

        try:
            result = _evaluate_once(cand, events)
        except _OracleFailure as exc:
            raise exc.__cause__
        except _StageFailure as exc:
            return fail(exc.kind, exc.message)
        except Exception as exc:  # unexpected
            return fail("infra", f"unexpected {type(exc).__name__}: {exc}")
        result.eval_seconds = time.monotonic() - start
        return result, events, None

    ranked: list = []
    failures: list = []
    totals = {"compiled": 0, "executed": 0}
    with obs.span(
        "explore.evaluate", candidates=len(candidates),
        engine=config.engine or "auto", device=config.device,
        workload=config.workload or "adhoc",
    ):
        for cand in candidates:
            result, events, report = evaluate(cand)
            for name in totals:
                totals[name] += events[name]
            if report is not None:
                failures.append(report)
            else:
                ranked.append(result)
    ranked.sort(key=lambda c: (c.runtime, len(c.trace), c.trace))
    return ranked, failures, totals


def explore_program(
    high_level: Lambda,
    inputs: Mapping[str, Any],
    size_env: Mapping[str, int],
    config: Optional[ExploreConfig] = None,
    cache=None,
) -> ExplorationResult:
    """Search the rewrite space of ``high_level`` and rank the survivors.

    ``inputs`` maps the program's parameter names to concrete values
    (arrays may be any shape; they are flattened for the simulator and
    nested for the interpreter).  ``cache`` is an optional
    :class:`repro.cache.TuningCache`.
    """
    config = config or ExploreConfig()
    stats = ExploreStats()
    profile = DEVICES[config.device]
    rules = rule_menu()
    memo = SearchMemo()
    keys_before = keys_computed()

    with obs.span(
        "explore.enumerate", depth=config.depth, rules=len(rules)
    ):
        # Rewrites share nodes with their source and three rules read
        # ``arg.type``: start from one copy without the caller's call
        # annotations, so what is enumerated does not depend on whether
        # the caller typed the program.
        derivations = _enumerate(
            clone_expr(high_level.body), rules, config, stats, memo
        )

    with obs.span("explore.finish", derivations=len(derivations)):
        finished = finish_candidates(
            high_level, derivations, size_env, stats, memo, profile
        )
    stats.finished = len(finished)
    obs.inc("explore.keys_computed", keys_computed() - keys_before)

    # -- static prune ----------------------------------------------------
    finished.sort(key=lambda c: (c.static_cost, len(c.trace), c.trace))
    survivors = finished[: config.max_eval]
    stats.pruned = len(finished) - len(survivors)
    for i, cand in enumerate(survivors):
        head = cand.trace[-1].split("@")[0] if cand.trace else "original"
        cand.label = f"#{i} {head} (depth {len(cand.trace)})"

    oracle = Oracle(high_level, inputs, size_env)

    # -- compile, simulate, verify --------------------------------------
    cache = or_disabled(cache)
    cache_before = replace(cache.stats)
    pipelines_before = simt_compile.compile_count()
    evaluated, failures, events = evaluate_candidates(
        survivors, inputs, size_env, oracle, config, cache
    )
    stats.evaluated = len(evaluated)
    stats.compilations = events["compiled"]
    stats.executions = events["executed"]
    stats.pipeline_compiles = simt_compile.compile_count() - pipelines_before
    for report in failures:
        counter = _FAILURE_STAT[report.kind]
        setattr(stats, counter, getattr(stats, counter) + 1)
    after = cache.stats
    stats.kernel_cache_hits = after.kernel_hits - cache_before.kernel_hits
    stats.kernel_cache_misses = after.kernel_misses - cache_before.kernel_misses
    stats.cycle_cache_hits = after.cycle_hits - cache_before.cycle_hits
    stats.cycle_cache_misses = after.cycle_misses - cache_before.cycle_misses

    # Out-of-band calibration records, in static-rank order: prediction
    # (static cost) next to measurement (counter-model runtime) — what
    # ``benchsuite calibrate`` summarizes and CI gates on.
    verified = {id(c) for c in evaluated}
    for cand in survivors:
        if id(cand) in verified:
            obs.analysis.record_candidate(
                workload=config.workload or "adhoc",
                label=cand.label,
                canonical_text=cand.canonical_form,
                trace=cand.trace,
                static_cost=cand.static_cost,
                modeled_runtime=cand.runtime,
                measured_cycles=cand.cycles,
                wall_seconds=cand.eval_seconds,
            )
    # The latest search owns the metrics snapshot's "explore" slot.
    reports = list(failures)
    obs.register_provider("explore", lambda: {
        "stats": stats.as_dict(),
        "failures": [f.as_dict() for f in reports],
    })
    return ExplorationResult(
        candidates=evaluated, stats=stats, failures=failures, oracle=oracle,
    )

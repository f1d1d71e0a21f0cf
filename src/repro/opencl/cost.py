"""Cost model: performance counters to estimated cycles and runtime.

The paper measures wall-clock kernel time on an AMD Radeon R9 295X2 and
an NVIDIA GTX Titan Black.  The simulator instead counts dynamic events
(ALU operations, memory traffic per address space, barriers) and weights
them per device profile.  The *weights* are order-of-magnitude figures
from vendor optimization guides for the two architectures (GCN Hawaii
and Kepler GK110): global memory costs tens of cycles per access even
when amortized, local memory a few cycles, integer division and modulo
are expensive multi-instruction sequences on both (which is exactly why
the paper's array-access simplification matters), and barriers cost tens
of cycles.

Two quantities come out of the model:

* :func:`estimate_cycles` — the weighted sum of *total* dynamic work.
  Figure 8 plots generated-kernel performance relative to the
  hand-written reference at identical launch geometry, so total work is
  the right quantity there (both sides divide by the same parallelism).
* :func:`runtime_from_cycles` — that total divided by the *effective
  parallelism* of the launch (work-items, warp-padded and capped by the
  device's occupancy limit).  Schedule search ranks by this one: a 2-D
  tiled schedule does slightly *more* total work than a flat 1-D one
  (staging copies, index arithmetic) but spreads it over many more
  threads — ranking by total work alone can never prefer the wider
  schedule the paper's Table 1 rows 11-12 rely on.

Only *relative* numbers are meaningful in either quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arith import simplify
from repro.types import ArrayType
from repro.ir.nodes import FunCall, Lambda, Literal, Param, UserFun
from repro.ir import patterns as pat
from repro.ir.typecheck import type_reader
from repro.opencl.interp import Counters


@dataclass(frozen=True)
class DeviceProfile:
    """Cost weights (cycles per event) plus the parallel-capacity figures
    of one simulated GPU."""

    name: str
    flop: float
    iop: float
    idivmod: float
    idivmod_const: float
    cached_load: float
    global_access: float
    local_access: float
    private_access: float
    barrier: float
    call: float
    branch: float
    loop_overhead: float
    #: SIMD execution width: work-groups occupy hardware in units of
    #: this many lanes (warps / wavefronts), so a 10-thread group pays
    #: for a full warp.
    warp_width: int = 32
    #: Number of compute units (SMX / CU).
    compute_units: int = 16
    #: Maximum resident threads per compute unit (the occupancy limit).
    max_threads_per_cu: int = 2048
    #: Peak single-precision throughput (GFLOP/s) — the roofline's flat
    #: ceiling.  Vendor datasheet figures, like the cycle weights.
    peak_gflops: float = 1000.0
    #: Peak DRAM bandwidth (GB/s) — the roofline's sloped ceiling.
    peak_bandwidth_gbs: float = 100.0

    @staticmethod
    def nvidia_titan_black() -> "DeviceProfile":
        """Kepler GK110: strong FP throughput, costly int div/mod.

        Barriers are cheap: the benchmark work-groups fit in one or two
        warps, and intra-warp barriers are nearly free — which is why the
        paper found barrier elimination to have little performance effect
        (section 7.4).  Calls cost nothing: the driver compiler inlines
        every helper function (their body operations are still counted).
        15 SMX at 2048 resident threads each, 32-wide warps.
        """
        return DeviceProfile(
            name="NVIDIA GTX Titan Black",
            flop=1.0,
            iop=1.0,
            idivmod=24.0,
            idivmod_const=6.0,
            cached_load=1.0,
            global_access=28.0,
            local_access=4.0,
            private_access=1.0,
            barrier=6.0,
            call=0.0,
            branch=2.0,
            loop_overhead=1.0,
            warp_width=32,
            compute_units=15,
            max_threads_per_cu=2048,
            peak_gflops=5121.0,
            peak_bandwidth_gbs=336.0,
        )

    @staticmethod
    def amd_r9_295x2() -> "DeviceProfile":
        """GCN Hawaii: slightly cheaper LDS, more expensive int division,
        wavefront-level barriers (see the NVIDIA profile's notes).
        44 CUs at 40 resident wavefronts of 64 lanes each."""
        return DeviceProfile(
            name="AMD Radeon R9 295X2",
            flop=1.0,
            iop=1.0,
            idivmod=32.0,
            idivmod_const=7.0,
            cached_load=1.0,
            global_access=32.0,
            local_access=3.0,
            private_access=1.0,
            barrier=5.0,
            call=0.0,
            branch=2.5,
            loop_overhead=1.0,
            warp_width=64,
            compute_units=44,
            max_threads_per_cu=2560,
            peak_gflops=5632.0,
            peak_bandwidth_gbs=320.0,
        )

    def occupancy_limit(self) -> int:
        """Maximum concurrently resident threads on the whole device."""
        return self.compute_units * self.max_threads_per_cu

    def ridge_point(self) -> float:
        """Arithmetic intensity (flop/byte) where the roofline's memory
        slope meets the compute ceiling.  Kernels below it are
        bandwidth-bound; above it, compute-bound."""
        return self.peak_gflops / self.peak_bandwidth_gbs


#: Which :class:`DeviceProfile` weight prices which ``Counters`` field
#: (``work_items`` is not an event and has no price).
COUNTER_PRICES = (
    ("flops", "flop"),
    ("iops", "iop"),
    ("idivmod", "idivmod"),
    ("idivmod_const", "idivmod_const"),
    ("cached_loads", "cached_load"),
    ("global_loads", "global_access"),
    ("global_stores", "global_access"),
    ("local_loads", "local_access"),
    ("local_stores", "local_access"),
    ("private_loads", "private_access"),
    ("private_stores", "private_access"),
    ("barriers", "barrier"),
    ("calls", "call"),
    ("branches", "branch"),
    ("loop_iterations", "loop_overhead"),
)


def priced_counters(counters: Counters, profile: DeviceProfile) -> dict:
    """Cycles each counter contributes under ``profile``, by field name."""
    return {
        field: getattr(counters, field) * getattr(profile, weight)
        for field, weight in COUNTER_PRICES
    }


def estimate_cycles(counters: Counters, profile: DeviceProfile) -> float:
    """Weighted sum of dynamic events — total simulated work."""
    return float(sum(priced_counters(counters, profile).values()))


def effective_parallelism(
    profile: DeviceProfile, global_size, local_size
) -> float:
    """How many work-items of this launch actually run concurrently.

    Work-groups occupy the hardware in whole warps, so a partially
    filled warp wastes lanes (the capacity shrinks by the utilization
    factor); the device can keep at most :meth:`DeviceProfile.
    occupancy_limit` threads resident.  The result is clamped to at
    least one."""
    items = 1
    for g in tuple(global_size):
        items *= max(1, int(g))
    wg = 1
    for l in tuple(local_size):
        wg *= max(1, int(l))
    padded_wg = profile.warp_width * math.ceil(wg / profile.warp_width)
    utilization = wg / padded_wg
    capacity = profile.occupancy_limit() * utilization
    return float(max(1.0, min(items, capacity)))


def runtime_from_cycles(
    cycles: float, profile: DeviceProfile, global_size, local_size
) -> float:
    """Parallelism-aware runtime estimate: already-weighted total work
    (:func:`estimate_cycles`, measured or read from a cache) divided by
    the launch's effective parallelism.  This is what schedule search
    ranks by — see the module docstring."""
    return cycles / effective_parallelism(profile, global_size, local_size)


DEVICES = {
    "nvidia": DeviceProfile.nvidia_titan_black(),
    "amd": DeviceProfile.amd_r9_295x2(),
}


# ---------------------------------------------------------------------------
# static (pre-execution) cost estimate
# ---------------------------------------------------------------------------

def static_program_cost(
    fun, size_env, profile: DeviceProfile, local_size=None, global_size=None,
    types=None,
) -> float:
    """Estimate the *critical-path* cost of a Lift IL program without
    running it.

    The rewrite-space explorer uses this to prune clearly-bloated
    candidates and to rank schedules before paying for compilation and
    simulation.  Unlike its total-work predecessor the model is
    parallelism-aware:

    * trip counts of **sequential** patterns multiply the cost of their
      bodies, exactly as before;
    * trip counts of **parallel** patterns (``mapGlb``/``mapWrg``/
      ``mapLcl``) do *not* — their iterations run on distinct threads.
      Each parallel map only charges the serialization factor
      ``ceil(trip / width)`` where the width comes from the launch
      geometry (``local_size``/``global_size``, when given) — a
      ``mapLcl`` over 128 elements with 64 local threads costs two
      iterations per thread, not 128;
    * user-function argument loads are priced by the address space their
      data actually comes from, tracked through views and ``toLocal``/
      ``toPrivate`` copies — so staging a reused tile in local memory
      pays off statically, exactly like it does in measured counters;
    * every ``mapLcl`` nest charges one barrier, data-layout patterns a
      small per-element index-arithmetic surcharge, and launches larger
      than the device's occupancy limit serialize by the overflow
      factor.

    Only the *ordering* of candidates matters; absolute numbers are
    meaningless.  Every trip count is read off a type: ``types`` is the
    ``{node: type}`` table of a :class:`repro.ir.typecheck.TypeMemo` (what
    the explorer passes), or ``None`` for a program annotated in place
    (a typed private copy).  ``fun`` is only read.  An untyped program
    is a ``LiftTypeError``.
    """
    type_of = type_reader(types)
    if type_of(fun.body) is None:
        raise pat.LiftTypeError("static_program_cost prices a typed program")
    estimator = _StaticEstimator(
        dict(size_env), profile, local_size, global_size, type_of
    )
    cost = estimator.expr(fun.body, 1.0, "global", {})
    if global_size is not None:
        items = 1
        for g in tuple(global_size):
            items *= max(1, int(g))
        overflow = items / profile.occupancy_limit()
        if overflow > 1.0:
            cost *= overflow
    return cost


class _StaticEstimator:
    """Recursive walker behind :func:`static_program_cost`.

    ``expr`` carries three pieces of context: ``mult`` — the serialized
    per-thread repetition count of the current position; ``space`` — the
    address space results are written to; ``env`` — a map from bound
    parameter ids to the address space their data comes from (how
    ``toLocal`` staging becomes visible to load pricing).
    """

    #: Fallback trip count when a length does not evaluate (fresh probe
    #: variables introduced by ``iterate`` type inference).
    DEFAULT_TRIP = 16.0
    #: Per-dimension width cap used when no launch geometry is given.
    DEFAULT_WIDTH = 64

    def __init__(self, size_env, profile: DeviceProfile,
                 local_size, global_size, type_of):
        self.size_env = size_env
        self.type_of = type_of
        self.profile = profile
        self.local_size = tuple(local_size) if local_size is not None else None
        self.global_size = tuple(global_size) if global_size is not None else None

    # -- helpers ---------------------------------------------------------
    def _trip(self, expr) -> float:
        """Length of ``expr``'s (array-typed) value, as a float."""
        t = self.type_of(expr)
        if not isinstance(t, ArrayType):
            return 1.0
        try:
            return float(simplify(t.length).evaluate(self.size_env))
        except Exception:
            return self.DEFAULT_TRIP

    @staticmethod
    def _fun_flops(uf) -> float:
        """Operator count of a C user-function body (rough flop proxy)."""
        ops = sum(uf.body.count(ch) for ch in "+-*/")
        return float(max(1, ops))

    def _access_cost(self, space: str) -> float:
        return {
            "global": self.profile.global_access,
            "local": self.profile.local_access,
            "private": self.profile.private_access,
            "scalar": self.profile.cached_load,
        }[space]

    def _parallel_width(self, f) -> float:
        """Concurrent iterations the launch geometry grants this map."""
        dim = f.dim
        if isinstance(f, pat.MapLcl):
            if self.local_size is not None:
                return float(max(1, self.local_size[dim]))
        elif isinstance(f, pat.MapWrg):
            if self.local_size is not None and self.global_size is not None:
                groups = self.global_size[dim] // max(1, self.local_size[dim])
                return float(max(1, groups))
        elif isinstance(f, pat.MapGlb):
            if self.global_size is not None:
                return float(max(1, self.global_size[dim]))
        return float(self.DEFAULT_WIDTH)

    def _source_space(self, e, env) -> str:
        """The address space ``e``'s data is read from, tracked through
        views, tuples and address-space copies."""
        if isinstance(e, Literal):
            return "scalar"
        if isinstance(e, Param):
            space = env.get(id(e))
            if space is not None:
                return space
            return "global" if isinstance(self.type_of(e), ArrayType) else "scalar"
        if isinstance(e, FunCall):
            f = e.f
            if isinstance(f, pat.AddressSpaceWrapper):
                return str(f.space)
            if isinstance(f, UserFun):
                return "private"
            if isinstance(f, pat.ReduceSeq):
                return "private"
            if isinstance(f, Lambda):
                return self._source_space(f.body, env)
            if e.args:
                return self._source_space(e.args[0], env)
        return "global"

    # -- traversal -------------------------------------------------------
    def expr(self, e, mult: float, space: str, env: dict) -> float:
        if not isinstance(e, FunCall):
            return 0.0

        f = e.f
        while isinstance(f, pat.AddressSpaceWrapper):
            space = str(f.space)
            f = f.f

        if isinstance(f, Lambda):
            total = sum(self.expr(a, mult, space, env) for a in e.args)
            inner = dict(env)
            for p, a in zip(f.params, e.args):
                inner[id(p)] = self._source_space(a, env)
            return total + self.expr(f.body, mult, space, inner)

        if isinstance(f, UserFun):
            total = sum(self.expr(a, mult, space, env) for a in e.args)
            loads = sum(
                self._access_cost(self._source_space(a, env)) for a in e.args
            )
            per_call = (
                self._fun_flops(f) * self.profile.flop
                + loads
                + self._access_cost(space)
            )
            return total + mult * per_call

        if isinstance(f, pat.AbstractMap):
            arg_cost = self.expr(e.args[0], mult, space, env)
            trip = self._trip(e.args[0])
            if isinstance(f, pat.ParallelMap):
                width = self._parallel_width(f)
                per_thread = max(1.0, math.ceil(trip / width))
            else:
                per_thread = trip
            body = self._decl_body_cost(
                f.f, mult * per_thread, space, env,
                arg_space=self._source_space(e.args[0], env),
            )
            barrier = (
                mult * self.profile.barrier if isinstance(f, pat.MapLcl) else 0.0
            )
            return (
                arg_cost
                + body
                + mult * per_thread * self.profile.loop_overhead
                + barrier
            )

        if isinstance(f, pat.ReduceSeq):  # covers Reduce
            init_cost = self.expr(e.args[0], mult, "private", env)
            arr_cost = self.expr(e.args[1], mult, space, env)
            trip = self._trip(e.args[1])
            body = self._decl_body_cost(
                f.f, mult * trip, "private", env,
                arg_space=self._source_space(e.args[1], env),
                acc_space="private",
            )
            return (
                init_cost + arr_cost + body
                + mult * trip * self.profile.loop_overhead
            )

        if isinstance(f, pat.Iterate):
            try:
                n = float(simplify(f.n).evaluate(self.size_env))
            except Exception:
                n = self.DEFAULT_TRIP
            arg_cost = self.expr(e.args[0], mult, space, env)
            body = self._decl_body_cost(
                f.f, mult * n, space, env,
                arg_space=self._source_space(e.args[0], env),
            )
            return arg_cost + body

        # Data-layout patterns: children plus an index-arithmetic surcharge.
        child_cost = sum(self.expr(a, mult, space, env) for a in e.args)
        surcharge = self.profile.iop
        if isinstance(f, (pat.Gather, pat.Scatter, pat.Transpose)):
            surcharge = self.profile.idivmod_const
        elif isinstance(f, (pat.Zip, pat.Get, pat.MakeTuple, pat.Head)):
            surcharge = 0.0
        return child_cost + mult * self._trip(e) * surcharge * 0.25

    def _decl_body_cost(
        self, f, mult: float, space: str, env: dict,
        arg_space: str = "global", acc_space: str = None,
    ) -> float:
        while isinstance(f, pat.AddressSpaceWrapper):
            space = str(f.space)
            f = f.f
        if isinstance(f, Lambda):
            inner = dict(env)
            if acc_space is not None and len(f.params) == 2:
                inner[id(f.params[0])] = acc_space
                inner[id(f.params[1])] = arg_space
            elif f.params:
                inner[id(f.params[0])] = arg_space
            return self.expr(f.body, mult, space, inner)
        if isinstance(f, UserFun):
            per_call = (
                self._fun_flops(f) * self.profile.flop
                + f.arity * self._access_cost(arg_space)
                + self._access_cost(space)
            )
            return mult * per_call
        return 0.0

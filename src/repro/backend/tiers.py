"""Backend adapters for the scalar oracle and the blocked lane tier.

These wrap the two engines of :mod:`repro.opencl` behind the
:class:`~repro.backend.base.Backend` protocol:

* :class:`ScalarBackend` — the per-work-item reference interpreter of
  :mod:`repro.opencl.interp` (generators synchronizing at barriers);
  defines the semantics every other backend must reproduce bit for bit.
* :class:`CompiledBackend` — the lane-batched block runtime of
  :mod:`repro.opencl.simt` (one block of work-groups per step) driven
  by the pipeline of :mod:`repro.opencl.simt_compile`, whose accesses
  carry the affine facts the plan derived.

The module only *adapts*; all execution semantics live in the wrapped
modules.  The scalar group scheduler (formerly inlined in
``opencl.runtime.launch``) lives here because the scalar tier is its
only user.
"""

from __future__ import annotations

import numpy as np

from repro.compiler import cast as c
from repro.backend.base import Backend, CompileUnsupported, ExecutionRequest
from repro.backend.registry import register_backend, register_engine
from repro.opencl import simt, simt_compile
from repro.opencl.interp import (
    BarrierDivergence,
    LaunchContext,
    Pointer,
    WorkItem,
    _Return,
    array_dtype,
    declared_kinds,
)

__all__ = ["ScalarBackend", "CompiledBackend"]


# ---------------------------------------------------------------------------
# scalar reference tier
# ---------------------------------------------------------------------------

def _item_driver(item: WorkItem, body: c.CBlock):
    try:
        yield from item.run_gen(body)
    except _Return:
        pass


def _run_group(
    ctx: LaunchContext,
    kernel: c.CFunctionDef,
    group_env: dict,
    group: tuple,
    lsize: tuple,
) -> None:
    generators = []
    kinds = declared_kinds(kernel)
    for lz in range(lsize[2]):
        for ly in range(lsize[1]):
            for lx in range(lsize[0]):
                lid = (lx, ly, lz)
                gid = tuple(
                    group[d] * lsize[d] + lid[d] for d in range(3)
                )
                item = WorkItem(ctx, dict(group_env), gid, lid, group, kinds)
                generators.append(_item_driver(item, kernel.body))

    alive = list(generators)
    while alive:
        statuses = []
        still_alive = []
        for gen in alive:
            try:
                status = next(gen)
                statuses.append(status)
                still_alive.append(gen)
            except StopIteration:
                statuses.append("done")
        if still_alive and any(s == "done" for s in statuses):
            raise BarrierDivergence(
                "some work-items finished while others wait at a barrier"
            )
        alive = still_alive


class ScalarBackend(Backend):
    """The per-work-item reference interpreter; never refuses."""

    name = "scalar"
    dynamic_class = "scalar"
    description = "per-work-item reference interpreter"

    def plan(self, parsed, kernel):
        return None

    def run(self, plan, request: ExecutionRequest) -> None:
        kernel = request.kernel
        gsize, lsize = request.gsize, request.lsize
        counters = request.counters
        ctx = LaunchContext(request.parsed, gsize, lsize, counters)
        num_groups = tuple(g // l for g, l in zip(gsize, lsize))
        items_per_group = lsize[0] * lsize[1] * lsize[2]
        for gz in range(num_groups[2]):
            for gy in range(num_groups[1]):
                for gx in range(num_groups[0]):
                    group = (gx, gy, gz)
                    group_env = dict(request.base_env)
                    for decl in request.local_decls:
                        group_env[decl.name] = Pointer(
                            np.zeros(
                                decl.array_size, dtype=array_dtype(decl.type_name)
                            ),
                            0, "local",
                        )
                    _run_group(ctx, kernel, group_env, group, lsize)
                    counters.work_items += items_per_group


# ---------------------------------------------------------------------------
# lane-batched tier
# ---------------------------------------------------------------------------

def _pipeline(entry):
    """A compiled pipeline, or its refusal reason raised as a static
    decline."""
    if isinstance(entry, str):
        raise CompileUnsupported(entry)
    return entry


class CompiledBackend(Backend):
    """Lane-batched block runtime driven by the compiled pipeline."""

    name = "compiled"
    dynamic_class = "blocked"
    description = "compiled lane-batched pipeline"
    #: The launcher's layout: blocks of at most ``simt.MAX_LANES`` lanes,
    #: or the whole launch as one block.
    whole_grid = False

    def plan(self, parsed, kernel):
        return _pipeline(simt_compile.get_pipeline(parsed, kernel))

    def run(self, plan, request: ExecutionRequest) -> None:
        # The launch's buffers may hold element kinds the plan was not
        # typed for; a refusal of those is raised before any write.
        pipeline = _pipeline(simt_compile.launch_pipeline(
            request.parsed, request.kernel, plan, request.base_env
        ))
        simt.try_launch(
            request.parsed, request.kernel, request.gsize, request.lsize,
            dict(request.base_env), request.local_decls, request.counters,
            pipeline, whole_grid=self.whole_grid,
        )


def _register_default_tiers() -> None:
    register_backend(ScalarBackend())
    register_backend(CompiledBackend())
    register_engine(
        "scalar", ("scalar",),
        description="reference interpreter only",
    )
    register_engine(
        "compiled", ("compiled",), strict=True,
        description="closure pipeline, strict",
    )
    register_engine(
        "auto", ("compiled", "scalar"),
        description="compiled -> scalar",
    )


_register_default_tiers()

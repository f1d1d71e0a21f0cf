"""The ``fused`` engine: the compiled pipeline over one whole-grid block.

There is one plan and one launcher (:mod:`repro.opencl.simt_compile`,
:func:`repro.opencl.simt.try_launch`); this backend only selects the
launcher's second layout, which executes the **entire launch as one
block** — zero per-work-group Python loop iterations — instead of
blocks of at most ``MAX_LANES`` lanes.  The plan is the compiled
backend's (a cache hit); its access facts hold over the whole grid.

* A launch beyond :data:`~repro.opencl.simt.FUSED_MAX_LANES` work-items
  raises :class:`~repro.backend.base.CompileUnsupported` before any
  buffer is touched, and the chain moves on to ``compiled``.
* A dynamic bail-out — a cross-lane race, or the whole-grid layout
  running out of memory — rolls the written buffers back and re-raises
  :class:`~repro.opencl.simt.VectorUnsupported`.  The whole-grid race
  detector sees cross-group conflicts that blocks order by construction,
  so this backend has its own ``dynamic_class`` and ``compiled`` still
  gets its turn.
"""

from __future__ import annotations

from repro.backend.base import CompileUnsupported, ExecutionRequest
from repro.backend.registry import register_backend, register_engine
from repro.backend.tiers import CompiledBackend
from repro.opencl import simt

__all__ = ["FusedBackend"]


class FusedBackend(CompiledBackend):
    """The compiled pipeline in the whole-grid layout."""

    name = "fused"
    dynamic_class = "grid"
    description = "compiled pipeline over one whole-grid block"
    whole_grid = True

    def run(self, plan, request: ExecutionRequest) -> None:
        total = request.total_work_items
        if total > simt.FUSED_MAX_LANES:
            raise CompileUnsupported(
                f"launch of {total} work-items exceeds the whole-grid cap "
                f"({simt.FUSED_MAX_LANES})"
            )
        super().run(plan, request)


register_backend(FusedBackend())
register_engine(
    "fused",
    ("fused", "compiled", "scalar"),
    description="whole-grid layout -> compiled -> scalar",
)

"""Common protocol of the pluggable execution backends.

A *backend* is one way of running a kernel launch on the simulated
device: the scalar reference interpreter, the closure-compiled
lane-batched pipeline, or the whole-grid fused-numpy engine.  Every
backend obeys one contract — **bitwise-identical buffer
contents and identical** :class:`~repro.opencl.interp.Counters` for
every launch it completes — so the launcher may pick any of them (and
fall through a chain of them) without observable differences beyond
speed.

The life cycle mirrors an OpenCL driver:

``plan``
    Compile/analyze the kernel once per parsed program.  Raises
    :class:`CompileUnsupported` when the backend cannot run this kernel
    at all (the launcher then falls through to the next backend in the
    chain).  Plans are cached by the backend on the parsed program
    object, which the runtime shares per source through an LRU.

``run``
    Execute one launch; returning means success (buffers written,
    counters merged).  A *dynamic* refusal — the backend noticed
    mid-launch that it cannot reproduce the scalar semantics (e.g. a
    cross-lane data race) — rolls the global buffers back to their
    pre-launch contents and raises :class:`VectorUnsupported`, whose
    message is the reason the chain ledgers.  It may also raise
    :class:`CompileUnsupported` for launch-shape refusals that occur
    before any buffer is touched (e.g. the fused backend's whole-grid
    lane cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.opencl.simt import VectorUnsupported

__all__ = [
    "Backend",
    "CompileUnsupported",
    "ExecutionRequest",
    "VectorUnsupported",
]


class CompileUnsupported(Exception):
    """Static refusal: this backend cannot run the kernel (or this launch
    shape), try the next one.  The message is the reason the chain
    ledgers."""


@dataclass
class ExecutionRequest:
    """Everything one kernel launch needs, backend-independent.

    ``base_env`` maps parameter names to
    :class:`~repro.opencl.interp.Pointer` values (global buffers) or
    scalars; ``local_decls`` are the kernel's ``local`` array
    declarations (allocated per work-group by each backend in its own
    layout).  ``counters`` is the caller's accumulator — backends must
    only merge into it on success.
    """

    parsed: Any  # ParsedProgram
    kernel: Any  # c.CFunctionDef
    gsize: tuple
    lsize: tuple
    base_env: Mapping[str, Any]
    local_decls: Sequence
    counters: Any  # Counters

    @property
    def total_work_items(self) -> int:
        g = self.gsize
        return g[0] * g[1] * g[2]


class Backend:
    """Base class of the execution backends (see the module docstring).

    ``dynamic_class`` groups backends that share one dynamic-refusal
    behaviour: when a backend refuses a launch *dynamically*, trying
    another backend of the same class is pointless (it would detect the
    same condition), so the fallback chain skips ahead to the next
    class.  The block-by-block compiled tier is ``"blocked"``; the
    fused whole-grid engine is ``"grid"`` (its race detector sees
    cross-group conflicts the blocked tier orders by construction);
    the scalar reference is ``"scalar"`` and never refuses.
    """

    #: Registry name (also the ``launch(engine=...)`` spelling).
    name: str = ""
    #: Dynamic-refusal equivalence class (see above).
    dynamic_class: str = ""
    #: One-line description for the registry listing.
    description: str = ""

    def plan(self, parsed, kernel):
        """Prepare a kernel once; raise :class:`CompileUnsupported` to
        decline.  The returned object is passed back to :meth:`run`."""
        raise NotImplementedError

    def run(self, plan, request: ExecutionRequest) -> None:
        """Execute one launch; raise :class:`VectorUnsupported` for a
        dynamic refusal after rollback (see the module docstring)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<backend {self.name!r}>"

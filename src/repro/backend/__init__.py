"""Pluggable execution backends for the simulated OpenCL platform.

The paper's premise is one IR, many targets; this package is the
simulator-side seam for that: every way of executing a kernel launch is
a :class:`~repro.backend.base.Backend` behind a common
compile -> launch -> buffers + counters protocol, registered by name in
:mod:`repro.backend.registry`, and ``repro.opencl.launch`` resolves
``engine=`` / ``REPRO_SIM_ENGINE`` strings into fallback chains of
them.

Built-in backends: ``scalar`` (reference interpreter, the oracle),
``compiled`` (closure pipeline over blocks of work-groups) and ``fused``
(whole-grid fused numpy array programs, :mod:`repro.backend.fused`).
All are bitwise-identical in buffer contents and
:class:`~repro.opencl.interp.Counters` on every launch they complete;
see ``src/repro/opencl/ENGINES.md``.
"""

from repro.backend.base import Backend, CompileUnsupported, ExecutionRequest
from repro.backend.ledger import LEDGER, DegradationEvent, DegradationLedger
from repro.backend.registry import (
    EngineSpec,
    ResolvedChain,
    backend_names,
    engine_names,
    get_backend,
    register_backend,
    register_engine,
    resolve,
)

# Importing the implementation modules populates the registry.
from repro.backend import tiers as _tiers  # noqa: F401
from repro.backend import fused as _fused  # noqa: F401
from repro.backend.fused import FusedBackend, FusedKernel, get_fused_kernel

__all__ = [
    "Backend",
    "CompileUnsupported",
    "DegradationEvent",
    "DegradationLedger",
    "EngineSpec",
    "LEDGER",
    "ExecutionRequest",
    "FusedBackend",
    "FusedKernel",
    "ResolvedChain",
    "backend_names",
    "engine_names",
    "get_backend",
    "get_fused_kernel",
    "register_backend",
    "register_engine",
    "resolve",
]

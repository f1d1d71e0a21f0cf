"""Kernel launching: the simulated ``clEnqueueNDRangeKernel``.

Work-groups execute sequentially (their relative order is unspecified in
OpenCL, so any order is conforming); work-items within a group run in
lock-step between barriers via the generator mechanism of
:mod:`repro.opencl.interp`.

Execution is delegated to the pluggable backend subsystem of
:mod:`repro.backend` (see ``ENGINES.md`` in this package).  Three
backends are registered out of the box:

* ``"fused"`` — whole-grid fused numpy array programs
  (:mod:`repro.backend.fused`);
* ``"compiled"`` — the lane-batched SIMT runtime of
  :mod:`repro.opencl.simt` driven by the closure pipeline of
  :mod:`repro.opencl.simt_compile` (kernel AST lowered once per
  program);
* ``"scalar"`` — the per-work-item reference interpreter, the oracle.

Engine names resolve through :mod:`repro.backend.registry` to fallback
chains: ``"auto"`` (the default) runs compiled -> scalar, ``"fused"``
prepends the whole-grid backend to that chain, and ``"compiled"`` alone
is strict.  ``REPRO_SIM_ENGINE`` overrides the default with a
*preference* — a strict name set through the environment still falls
back gracefully so unsupported kernels keep running on the reference
path.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from repro.compiler import cast as c
from repro.opencl.cparser import ParsedProgram, parse
from repro.opencl.interp import (
    Counters,
    Pointer,
    array_dtype,
    convert,
    declared_kinds,
    iter_decls,
)


@dataclass
class Buffer:
    """A global-memory buffer (host-visible numpy array)."""

    data: np.ndarray

    @staticmethod
    def zeros(count: int, dtype: str = "float") -> "Buffer":
        return Buffer(np.zeros(count, dtype=array_dtype(dtype)))

    @staticmethod
    def from_array(values) -> "Buffer":
        arr = np.asarray(values)
        if arr.dtype.kind == "i":
            return Buffer(arr.astype(np.int64).ravel())
        return Buffer(arr.astype(np.float64).ravel())


# Source-keyed LRU of parsed programs.  The autotuner and benchmark
# harnesses construct :class:`OpenCLProgram` repeatedly for identical
# kernels; the AST is immutable during execution, so sharing is safe
# (and lets the vectorizability analysis cache per parse, too).
# Tracing sits inside the LRU so only genuine parses show as spans.
def _parse_traced(source: str) -> ParsedProgram:
    from repro.obs import span

    with span("parse", chars=len(source)):
        return parse(source)


_parse_cached = functools.lru_cache(maxsize=128)(_parse_traced)


class OpenCLProgram:
    """A parsed OpenCL program with one or more kernels."""

    def __init__(self, source: str):
        self.source = source
        self.parsed: ParsedProgram = _parse_cached(source)
        if not self.parsed.kernels:
            raise ValueError("program contains no kernel")

    def kernel(self, name: Optional[str] = None) -> c.CFunctionDef:
        if name is None:
            name = self.parsed.kernels[0]
        fn = self.parsed.functions.get(name)
        if fn is None or not fn.is_kernel:
            raise KeyError(f"no kernel named {name!r}")
        return fn


def _normalize_size(size) -> tuple:
    if isinstance(size, int):
        size = (size,)
    size = tuple(size)
    return size + (1,) * (3 - len(size))


def _local_decls_of(parsed: ParsedProgram, kernel: c.CFunctionDef) -> list:
    """Local-buffer declarations, memoized per kernel on the parsed
    program (the AST is immutable during execution)."""
    cache = getattr(parsed, "_local_decls", None)
    if cache is None:
        cache = {}
        parsed._local_decls = cache
    decls = cache.get(kernel.name)
    if decls is None:
        decls = cache[kernel.name] = [
            d for d in iter_decls(kernel.body)
            if d.qualifier == "local" and d.array_size is not None
        ]
    return decls


def _resolve_engine(engine: Optional[str]):
    """Resolve an engine request to a backend chain.

    An explicit ``engine=`` argument keeps its exact (possibly strict)
    registry semantics; a name from ``REPRO_SIM_ENGINE`` is treated as
    a preference and falls back gracefully.  Unknown names report the
    valid ones from the registry.
    """
    from repro.backend import registry

    if engine is not None:
        return registry.resolve(engine)
    env = os.environ.get("REPRO_SIM_ENGINE")
    if env:
        return registry.resolve(env, prefer=True)
    return registry.resolve("auto")


def launch(
    program: OpenCLProgram,
    global_size,
    local_size,
    args: Mapping[str, Any],
    kernel_name: Optional[str] = None,
    counters: Optional[Counters] = None,
    engine: Optional[str] = None,
) -> Counters:
    """Execute a kernel over the NDRange; returns the counters.

    The ``simulate`` fault-injection site sits here, before any buffer
    is wrapped or touched: an injected fault is absorbed by bounded
    in-place retries (:func:`repro.faultinject.survive`), so a chaos
    run recovers to bit-identical results.
    """
    from repro import faultinject
    from repro.backend.base import ExecutionRequest

    faultinject.survive("simulate")
    kernel = program.kernel(kernel_name)
    gsize = _normalize_size(global_size)
    lsize = _normalize_size(local_size)
    for g, l in zip(gsize, lsize):
        if l <= 0 or g % l:
            raise ValueError(
                f"global size {gsize} not divisible by local size {lsize}"
            )

    counters = counters if counters is not None else Counters()

    base_env: dict[str, Any] = {}
    kinds = declared_kinds(kernel)
    for p in kernel.params:
        if p.name not in args:
            raise KeyError(f"missing kernel argument {p.name!r}")
        value = args[p.name]
        if p.is_pointer:
            if isinstance(value, Buffer):
                base_env[p.name] = Pointer(value.data, 0, "global")
            elif isinstance(value, np.ndarray):
                base_env[p.name] = Pointer(value, 0, "global")
            else:
                raise TypeError(f"buffer expected for parameter {p.name}")
        else:
            # A scalar argument takes the parameter's declared type
            # (``5`` for a ``float alpha`` is ``5.0`` in every tier).
            base_env[p.name] = convert(kinds[p.name], value)

    from repro.obs import span

    chain = _resolve_engine(engine)
    with span(
        "launch", kernel=kernel.name, engine=chain.name,
        gsize=gsize, lsize=lsize,
    ):
        chain.execute(
            ExecutionRequest(
                parsed=program.parsed,
                kernel=kernel,
                gsize=gsize,
                lsize=lsize,
                base_env=base_env,
                local_decls=_local_decls_of(program.parsed, kernel),
                counters=counters,
            )
        )
    return counters

"""Kernel launching: the simulated ``clEnqueueNDRangeKernel``.

Work-groups execute sequentially (their relative order is unspecified in
OpenCL, so any order is conforming); work-items within a group run in
lock-step between barriers via the generator mechanism of
:mod:`repro.opencl.interp`.

:func:`launch` checks the NDRange, binds the arguments and hands the
launch to :func:`repro.backend.execute` on the backend its engine name
runs in :data:`repro.backend.ENGINES` (see ``ENGINES.md`` in this
package): ``"auto"`` (the default) and ``"compiled"`` run the compiled
pipeline, ``"scalar"`` the reference interpreter.  ``REPRO_SIM_ENGINE``
names the default.  Nothing falls back: a kernel the compiled pipeline
does not run raises :class:`~repro.backend.CompileUnsupported`, and a
cross-lane race :class:`~repro.opencl.simt.DataRace`.
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


def _normalize_size(size, what: str) -> tuple:
    size = (size,) if isinstance(size, int) else tuple(size)
    if not 1 <= len(size) <= 3:
        raise ValueError(f"{what} size {size} must have 1 to 3 dimensions")
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


def launch(
    program: OpenCLProgram,
    global_size,
    local_size,
    args: Mapping[str, Any],
    kernel_name: Optional[str] = None,
    counters: Optional[Counters] = None,
    engine: Optional[str] = None,
) -> Counters:
    """Execute a kernel over the NDRange; returns the counters."""
    from repro import backend

    kernel = program.kernel(kernel_name)
    gsize = _normalize_size(global_size, "global")
    lsize = _normalize_size(local_size, "local")
    if min(gsize) < 1:
        raise ValueError(f"global size {gsize} has a dimension below 1")
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

    engine = engine or os.environ.get("REPRO_SIM_ENGINE") or "auto"
    with span(
        "launch", kernel=kernel.name, engine=engine,
        gsize=gsize, lsize=lsize,
    ):
        backend.execute(
            engine, program.parsed, kernel, gsize, lsize, base_env,
            _local_decls_of(program.parsed, kernel), counters,
        )
    return counters

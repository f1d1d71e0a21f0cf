"""Convenience layer: compile a Lift program and run it on the simulator.

This is the equivalent of the host code a Lift user would write: allocate
buffers, set kernel arguments (including the inferred size variables) and
enqueue the kernel over an NDRange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from repro.arith import simplify
from repro.ir.nodes import Lambda
from repro.compiler.codegen import CompiledKernel, compile_kernel
from repro.compiler.options import CompilerOptions
from repro.opencl import Buffer, Counters, OpenCLProgram, launch


@dataclass
class RunResult:
    output: np.ndarray
    counters: Counters


def execute_kernel(
    compiled: CompiledKernel,
    inputs: Mapping[str, Any],
    size_env: Mapping[str, int],
    global_size,
    local_size=None,
    counters: Optional[Counters] = None,
    engine: Optional[str] = None,
) -> RunResult:
    """Run a compiled kernel on the simulated device.

    ``engine`` selects the execution engine (``"auto"``/``"fused"``/
    ``"compiled"``/``"scalar"``, see :func:`repro.opencl.launch`).
    """
    program = OpenCLProgram(compiled.source)
    args: dict[str, Any] = {}
    out_buffer: Optional[Buffer] = None

    for p in compiled.params:
        if p.kind == "in_buffer":
            value = inputs[p.name]
            args[p.name] = Buffer.from_array(np.asarray(value))
        elif p.kind == "scalar":
            args[p.name] = inputs[p.name]
        elif p.kind == "size":
            args[p.name] = int(size_env[p.name])
        elif p.kind == "out_buffer":
            count = simplify(compiled.out_count).evaluate(dict(size_env))
            out_buffer = Buffer.zeros(int(count), p.scalar_type)
            args[p.name] = out_buffer
        elif p.kind == "temp_buffer":
            count = simplify(p.count).evaluate(dict(size_env))
            args[p.name] = Buffer.zeros(int(count), p.scalar_type)
        else:
            raise ValueError(f"unknown parameter kind {p.kind}")

    assert out_buffer is not None
    if local_size is None:
        local_size = compiled.options.local_size
    counters = launch(
        program, global_size, local_size, args,
        kernel_name=compiled.name, counters=counters, engine=engine,
    )
    return RunResult(out_buffer.data.copy(), counters)


def compile_and_run(
    fun: Lambda,
    inputs: Mapping[str, Any],
    size_env: Mapping[str, int],
    global_size,
    options: Optional[CompilerOptions] = None,
    local_size=None,
    engine: Optional[str] = None,
) -> RunResult:
    compiled = compile_kernel(fun, options)
    return execute_kernel(
        compiled, inputs, size_env, global_size, local_size, engine=engine
    )

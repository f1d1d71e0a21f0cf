"""A simulated OpenCL platform.

The paper evaluates generated kernels on two physical GPUs; this package
is the substitution substrate (see DESIGN.md): a lexer and parser for the
OpenCL-C subset the Lift compiler emits, an NDRange interpreter with
correct work-group/barrier semantics, hardware-style performance
counters, and a cost model with per-device profiles.
"""

from repro.opencl.runtime import Buffer, OpenCLProgram, launch
from repro.opencl.interp import Counters, OutOfBounds
from repro.opencl.cost import DeviceProfile, estimate_cycles
from repro.opencl.simt import VectorizationError

__all__ = [
    "Buffer",
    "Counters",
    "DeviceProfile",
    "OpenCLProgram",
    "OutOfBounds",
    "VectorizationError",
    "estimate_cycles",
    "launch",
]

"""Compiler options: the optimization knobs evaluated in Figure 8.

The paper's ablation compares three configurations:

* ``NONE``            — no barrier elimination, no control-flow
                        simplification, no array-access simplification;
* ``BARRIER_CF``      — barrier elimination + control-flow simplification;
* ``ALL``             — everything, including array-access simplification.

One pass is *not* among the knobs: :mod:`repro.compiler.hoist` (index
terms and input loads that do not depend on a loop are computed before
it, repeats once) runs at every level.  It is not one of the paper's
three ablated optimizations but what any vendor compiler does behind
them, and the simulator executes kernel text literally — without it the
levels would be compared on work no real device performs.  It narrows
the ``NONE`` -> ``ALL`` spread without closing it (gesummv, nvidia,
small: 0.748 -> 0.905 at ``NONE``, 0.940 -> 0.999 at ``ALL``): the
pass shares an unsimplified index between its uses, but the ``/`` and
``%`` chains array-access simplification removes are still evaluated
once per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class CompilerOptions:
    """Configuration of the Lift-to-OpenCL code generator.

    ``local_size`` must be concrete (the compiler exploits it for
    control-flow simplification exactly as section 5.5 describes);
    ``global_size`` entries may be ``None``, in which case the generated
    code loops with a ``get_global_size``/``get_num_groups`` stride the way
    Figure 7 line 7 does.
    """

    local_size: Tuple[int, int, int] = (64, 1, 1)
    global_size: Tuple[Optional[int], Optional[int], Optional[int]] = (None, None, None)
    barrier_elimination: bool = True
    control_flow_simplification: bool = True
    array_access_simplification: bool = True

    @staticmethod
    def none(**kw) -> "CompilerOptions":
        return CompilerOptions(
            barrier_elimination=False,
            control_flow_simplification=False,
            array_access_simplification=False,
            **kw,
        )

    @staticmethod
    def barrier_cf(**kw) -> "CompilerOptions":
        return CompilerOptions(array_access_simplification=False, **kw)

    @staticmethod
    def all(**kw) -> "CompilerOptions":
        return CompilerOptions(**kw)


#: The three optimization levels of Figure 8, in plotting order.
OPTIMIZATION_LEVELS = {
    "none": CompilerOptions.none,
    "barrier_cf": CompilerOptions.barrier_cf,
    "all": CompilerOptions.all,
}

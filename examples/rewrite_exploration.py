#!/usr/bin/env python3
"""From portable high-level IL to tuned low-level IL via rewriting.

The paper separates *what* to compute (high-level IL) from *how* (the
OpenCL-specific low-level IL); the bridge is the rewrite system of its
prior work [18].  This example takes a portable program, lowers two
variants by hand, compiles both and compares their simulated
performance, then lets the rewrite-space search derive and rank the
schedules itself.
"""

import numpy as np

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import Lambda, Param, UserFun
from repro.ir.dsl import map_
from repro.ir.printer import print_decl
from repro.compiler import CompilerOptions, compile_kernel, execute_kernel
from repro.opencl.cost import DEVICES, estimate_cycles
from repro.rewrite import lower_to_global, lower_to_work_groups


def high_level_program() -> Lambda:
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), "x")
    gelu_ish = UserFun(
        "scaleClamp", ["v"],
        "float s = v * 0.5f; return fmin(fmax(s, 0.0f), 1.0f);",
        [FLOAT], FLOAT,
        py=lambda v: min(max(v * 0.5, 0.0), 1.0),
    )
    return Lambda([x], map_(gelu_ish)(x))


def main() -> None:
    program = high_level_program()
    print("=== portable high-level program ===")
    print(print_decl(program))
    print()

    n = 1024
    x = np.linspace(-4, 4, n)
    expected = np.clip(x * 0.5, 0.0, 1.0)

    candidates = {
        "mapGlb (flat)": (lower_to_global(program), (64, 1, 1), n),
        "mapWrg/mapLcl (chunked)": (
            lower_to_work_groups(high_level_program(), chunk=128),
            (64, 1, 1),
            512,
        ),
    }
    profile = DEVICES["amd"]
    for label, (lowered, local, global_size) in candidates.items():
        kernel = compile_kernel(lowered, CompilerOptions(local_size=local))
        result = execute_kernel(
            kernel, {"x": x}, {"N": n}, global_size=(global_size, 1, 1),
            local_size=local,
        )
        np.testing.assert_allclose(result.output, expected, rtol=1e-12)
        print(f"{label:<26} OK  estimated cycles: "
              f"{estimate_cycles(result.counters, profile):>10.0f}")

    print("\nBoth lowerings compute the same function; picking between "
          "them is the search problem of the paper's prior work [18].")

    # The full engine: enumerate the derivation tree, dedup by structural
    # hash, prune with the static cost model, then compile/simulate/verify
    # the survivors (with a persistent tuning cache, so re-running this
    # example skips every recompilation).
    import tempfile

    from repro.cache import TuningCache
    from repro.rewrite.explore import ExploreConfig, explore_program

    cache = TuningCache(tempfile.mkdtemp(prefix="repro-example-cache-"))
    result = explore_program(
        high_level_program(), {"x": x}, {"N": n},
        config=ExploreConfig(depth=2, max_eval=8), cache=cache,
    )
    print("\n=== derivation-tree exploration (depth 2) ===")
    print(result.describe())

    # Dimension-aware mapping: on a *nested* map program (matrix
    # multiplication) the explorer's menu includes the 2-D tiling macro
    # rule, and the parallelism-aware cost model prefers the wide tiled
    # schedule — nested mapWrg(1)/mapWrg(0), a mapLcl nest and
    # cooperative toLocal staging, derived, not hand-written.
    from repro.benchsuite.common import get_benchmark

    bench = get_benchmark("mm")
    mm_inputs, mm_sizes = bench.inputs_for("small")
    mm_result = explore_program(
        bench.high_level(mm_sizes), mm_inputs, mm_sizes,
        config=ExploreConfig(depth=2, max_eval=8), cache=cache,
    )
    print("\n=== 2-D tiled matrix multiply, derived by rewriting ===")
    print(mm_result.describe(top=3))


if __name__ == "__main__":
    main()

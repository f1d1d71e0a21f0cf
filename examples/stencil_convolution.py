#!/usr/bin/env python3
"""2D stencil (convolution) with the paper's slide composition.

Demonstrates the data-layout patterns of section 3.2 working together:
``slide`` builds overlapping 1D windows; composed with ``map`` and
``transpose`` it builds 2D tiles and 2D windows entirely as views — no
intermediate arrays are ever materialized.
"""

import numpy as np

from repro.benchsuite.convolution import K, T, _program, correlate_valid
from repro.compiler import CompilerOptions, compile_kernel, execute_kernel


def main() -> None:
    h = w = 16
    rng = np.random.default_rng(2)
    img = rng.random((h + K - 1, w + K - 1))   # input with halo
    weights = rng.random((K, K))

    program = _program(low_level=True, h=h, w=w)
    kernel = compile_kernel(program, CompilerOptions(local_size=(T, T, 1)))

    print(f"=== {K}x{K} convolution over a {h}x{w} image, "
          f"{T}x{T} work-group tiles ===")
    print(kernel.source)

    result = execute_kernel(
        kernel, {"img": img, "weights": weights}, {},
        global_size=(w, h, 1), local_size=(T, T, 1),
    )
    expected = correlate_valid(img, weights).ravel()
    np.testing.assert_allclose(result.output, expected, rtol=1e-9)
    print("result matches the numpy cross-correlation oracle: OK")
    print(f"local memory traffic: {result.counters.local_loads} loads / "
          f"{result.counters.local_stores} stores "
          f"(the staged tile is reused {result.counters.local_loads // max(result.counters.local_stores, 1)}x)")


if __name__ == "__main__":
    main()

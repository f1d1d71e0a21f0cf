"""Simulated-device throughput: the execution substrate's own speed.

Tracks how many work-items per second the NDRange simulator executes for
representative kernels — useful for sizing future experiments.  Each
benchmark is parametrized over the execution backend (``scalar``
reference interpreter, ``compiled`` pipeline in blocks of work-groups,
``fused`` the same pipeline over the whole grid) so each backend's
speedup is tracked as a first-class number (baseline:
``BENCH_simulator.json``; regression gate: ``check_perf_regression.py``,
which also holds ``compiled`` within its tolerance of ``fused`` on
SAXPY, one block in both layouts).
"""

import pytest
import numpy as np

from repro.opencl import Buffer, OpenCLProgram, launch

# Kernel sources and launch shapes are shared with
# check_perf_regression.py so the CI gate always measures exactly what
# the committed BENCH_simulator.json baseline recorded.
SAXPY_SOURCE = """
kernel void SAXPY(const global float * restrict x,
                  const global float * restrict y,
                  global float *out, float a, int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""
SAXPY_N = 4096
SAXPY_LOCAL = 64

REDUCTION_SOURCE = """
kernel void REDUCE(const global float * restrict x, global float *out) {
  local float tmp[64];
  int l = get_local_id(0);
  tmp[l] = x[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = 32; s > 0; s = s / 2) {
    if (l < s) { tmp[l] = tmp[l] + tmp[l + s]; }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (l < 1) { out[get_group_id(0)] = tmp[0]; }
}
"""
REDUCTION_N = 1024
REDUCTION_LOCAL = 64

ENGINES = ("scalar", "compiled", "fused")


@pytest.mark.parametrize("engine", ENGINES)
def test_simulator_saxpy_throughput(benchmark, engine):
    n = SAXPY_N
    program = OpenCLProgram(SAXPY_SOURCE)
    x = Buffer.from_array(np.arange(n, dtype=float))
    y = Buffer.from_array(np.ones(n))

    def run():
        out = Buffer.zeros(n)
        launch(program, n, SAXPY_LOCAL,
               {"x": x, "y": y, "out": out, "a": 2.0, "n": n},
               engine=engine)
        return out

    out = benchmark(run)
    benchmark.extra_info["work_items"] = n
    np.testing.assert_allclose(out.data, 2.0 * np.arange(n) + 1)


@pytest.mark.parametrize("engine", ENGINES)
def test_simulator_barrier_lockstep_throughput(benchmark, engine):
    n = REDUCTION_N
    program = OpenCLProgram(REDUCTION_SOURCE)
    x = Buffer.from_array(np.ones(n))

    def run():
        out = Buffer.zeros(n // REDUCTION_LOCAL)
        launch(program, n, REDUCTION_LOCAL, {"x": x, "out": out}, engine=engine)
        return out

    out = benchmark(run)
    benchmark.extra_info["work_items"] = n
    np.testing.assert_allclose(out.data, 64.0)


@pytest.mark.parametrize("engine", ENGINES)
def test_simulator_engines_agree(engine, tmp_path):
    """Every engine produces identical buffers and counters (sanity tie-in
    for the throughput numbers above; the exhaustive check lives in
    tests/test_simt.py)."""
    n = 1024
    program = OpenCLProgram(SAXPY_SOURCE)
    x = Buffer.from_array(np.arange(n, dtype=float))
    y = Buffer.from_array(np.ones(n))
    out = Buffer.zeros(n)
    counters = launch(
        program, n, 64, {"x": x, "y": y, "out": out, "a": 3.0, "n": n},
        engine=engine,
    )
    np.testing.assert_array_equal(out.data, 3.0 * np.arange(n) + 1)
    assert counters.global_loads == 2 * n
    assert counters.global_stores == n

"""Simulated-device throughput: the execution substrate's own speed.

Tracks how many work-items per second the NDRange simulator executes for
representative kernels — the hand-written SAXPY and barrier reduction,
and three kernels the compiler generates at level ``all`` (mriq, a
uniform inner loop; mm-nvidia, 2-D local tiles; nbody-nvidia, a
loop-heavy tile loop, the most of what ``benchsuite figure8`` waits
for) — useful for sizing
future experiments.  Each
benchmark is parametrized over the execution backend (``scalar``
reference interpreter, ``compiled`` pipeline in blocks of work-groups)
so the compiled tier's speedup is tracked as a first-class number
(baseline: ``BENCH_simulator.json``; regression gate:
``check_perf_regression.py``).
"""

import pytest
import numpy as np

from repro.benchsuite.common import get_benchmark
from repro.compiler.codegen import compile_kernel
from repro.compiler.kernel import execute_kernel
from repro.compiler.options import CompilerOptions
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

ENGINES = ("scalar", "compiled")

#: Generated level-``all`` kernels and the sizes they launch at, chosen
#: so that one ``scalar`` launch stays under 0.5 s.
GENERATED = {
    "mriq": {"N": 128, "M": 32},
    "mm-nvidia": {"M": 16, "N": 16, "Kd": 16},
    "nbody-nvidia": {"N": 48},
}


def generated_kernel(name: str):
    """``(run(engine), work-items)`` for benchmark ``name``'s level-``all``
    kernel at its :data:`GENERATED` size, inputs and plan made once."""
    bench = get_benchmark(name)
    size_env = dict(GENERATED[name])
    inputs = bench.make_inputs(size_env, np.random.default_rng(0))
    (stage,) = bench.stages
    fun = stage.build(size_env)
    compiled = compile_kernel(fun, CompilerOptions.all(local_size=stage.local_size))
    stage_inputs = {p.name: inputs[n] for p, n in zip(fun.params, stage.param_names)}
    gsize = stage.global_size(size_env)

    def run(engine):
        return execute_kernel(
            compiled, stage_inputs, size_env, gsize,
            local_size=stage.local_size, engine=engine,
        )

    return run, int(np.prod(gsize))


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
@pytest.mark.parametrize("name", GENERATED)
def test_simulator_generated_throughput(benchmark, name, engine):
    run, items = generated_kernel(name)
    reference = run("scalar") if engine != "scalar" else None
    result = benchmark(lambda: run(engine))
    benchmark.extra_info["work_items"] = items
    if reference is not None:
        np.testing.assert_array_equal(result.output, reference.output)
        assert vars(result.counters) == vars(reference.counters)


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

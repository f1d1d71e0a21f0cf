"""Shared benchmark infrastructure.

A :class:`Benchmark` bundles everything needed to reproduce one row of
the paper's Table 1 and one group of bars of Figure 8.  Benchmarks may
consist of several chained kernels (ATAX runs two GEMV-shaped kernels);
stage outputs feed the next stage under the reserved name ``__prev``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.ir.nodes import Lambda
from repro.ir.printer import program_lines
from repro.cache import or_disabled
from repro.compiler.options import CompilerOptions
from repro.opencl import Buffer, Counters, OpenCLProgram, launch


@dataclass
class Characteristics:
    """The per-benchmark columns of Table 1."""

    local_memory: bool
    private_memory: bool
    vectorization: bool
    coalescing: bool
    iteration_space: str  # "1D" or "2D"


@dataclass
class LiftStage:
    """One Lift kernel of a benchmark.

    ``build`` receives the size environment and returns the low-level IL
    program; ``param_names`` maps the lambda's parameters to entries of
    the benchmark's input dictionary (``__prev`` is the previous stage's
    output buffer).
    """

    build: Callable[[Mapping[str, int]], Lambda]
    param_names: Sequence[str]
    global_size: Callable[[Mapping[str, int]], tuple]
    local_size: tuple


@dataclass
class RefLaunch:
    """One launch of the hand-written reference program."""

    kernel: str
    make_args: Callable[..., dict]  # (inputs, size_env, scratch) -> args
    global_size: Callable[[Mapping[str, int]], tuple]
    local_size: tuple
    out_arg: str  # which argument holds this launch's output


@dataclass
class Benchmark:
    name: str
    source_suite: str
    characteristics: Characteristics
    sizes: Mapping[str, Mapping[str, int]]  # "small"/"large" -> size env
    make_inputs: Callable[[Mapping[str, int], np.random.Generator], dict]
    oracle: Callable[[dict, Mapping[str, int]], np.ndarray]
    reference_source: str
    reference_launches: Sequence[RefLaunch]
    high_level: Callable[[Mapping[str, int]], Lambda]
    stages: Sequence[LiftStage]
    rtol: float = 1e-9

    # ------------------------------------------------------------------
    def inputs_for(self, size: str, seed: int = 7) -> tuple:
        size_env = dict(self.sizes[size])
        rng = np.random.default_rng(seed)
        return self.make_inputs(size_env, rng), size_env

    # ------------------------------------------------------------------
    def run_reference(
        self,
        inputs: dict,
        size_env: Mapping[str, int],
        engine: Optional[str] = None,
        cache=None,
    ) -> tuple:
        """Run the hand-written kernels; returns (output, counters).

        With a :class:`repro.cache.TuningCache`, each launch's output
        and counters are stored content-addressed (source + sizes +
        argument fingerprint + geometry + engine); warm reruns skip the
        simulation entirely.
        """
        cache = or_disabled(cache)
        program = OpenCLProgram(self.reference_source)
        counters = Counters()
        scratch: dict[str, Any] = {}
        output: Optional[np.ndarray] = None
        for launch_spec in self.reference_launches:
            args = launch_spec.make_args(inputs, size_env, scratch)
            global_size = launch_spec.global_size(size_env)

            def execute() -> tuple:
                wrapped = {
                    name: Buffer.from_array(v) if isinstance(v, np.ndarray) else v
                    for name, v in args.items()
                }
                launch_counters = launch(
                    program,
                    global_size,
                    launch_spec.local_size,
                    wrapped,
                    kernel_name=launch_spec.kernel,
                    engine=engine,
                )
                out_buffer = wrapped[launch_spec.out_arg]
                assert isinstance(out_buffer, Buffer)
                return out_buffer.data.copy(), launch_counters

            source_key = cache.source_key(
                self.reference_source, launch_spec.kernel, size_env
            )
            output, launch_counters = cache.fetch(
                "run",
                cache.run_key(
                    source_key, cache.fingerprint(args), global_size,
                    launch_spec.local_size, engine,
                ),
                execute,
            )
            counters = counters.merged_with(launch_counters)
            scratch[launch_spec.kernel] = output
        assert output is not None
        return output, counters

    # ------------------------------------------------------------------
    def run_generated(
        self,
        inputs: dict,
        size_env: Mapping[str, int],
        options_factory: Callable[..., CompilerOptions] = CompilerOptions.all,
        engine: Optional[str] = None,
        cache=None,
    ) -> tuple:
        """Compile and run the low-level Lift stages; returns
        (output, counters).

        With a :class:`repro.cache.TuningCache`, compiled kernels are
        served from the store (structural hash + options + sizes) and
        whole stage executions from run entries — a warm rerun performs
        zero compilations and zero simulations.
        """
        cache = or_disabled(cache)
        counters = Counters()
        prev: Optional[np.ndarray] = None
        for stage in self.stages:
            fun = stage.build(size_env)
            options = options_factory(local_size=stage.local_size)
            stage_inputs: dict[str, Any] = {}
            for lam_param, name in zip(fun.params, stage.param_names):
                if name == "__prev":
                    assert prev is not None
                    stage_inputs[lam_param.name] = prev
                else:
                    stage_inputs[lam_param.name] = inputs[name]

            prev, stage_counters = cache.compile_and_run(
                fun, options, stage_inputs, size_env,
                stage.global_size(size_env), stage.local_size, engine,
            )
            counters = counters.merged_with(stage_counters)
        assert prev is not None
        return prev, counters

    # ------------------------------------------------------------------
    def verify(
        self, size: str = "small", seed: int = 7, engine: Optional[str] = None
    ) -> None:
        """Check reference and generated outputs against the oracle."""
        inputs, size_env = self.inputs_for(size, seed)
        expected = self.oracle(inputs, size_env)
        ref_out, _ = self.run_reference(inputs, size_env, engine=engine)
        np.testing.assert_allclose(
            ref_out, expected, rtol=self.rtol, atol=1e-7,
            err_msg=f"{self.name}: reference kernel wrong",
        )
        gen_out, _ = self.run_generated(inputs, size_env, engine=engine)
        np.testing.assert_allclose(
            gen_out, expected, rtol=self.rtol, atol=1e-7,
            err_msg=f"{self.name}: generated kernel wrong",
        )

    # ------------------------------------------------------------------
    def code_sizes(self, size: str = "small") -> dict:
        """Lines of code for Table 1."""
        size_env = dict(self.sizes[size])
        opencl_loc = sum(
            1 for line in self.reference_source.splitlines() if line.strip()
        )
        high = program_lines(self.high_level(size_env))
        low = sum(program_lines(stage.build(size_env)) for stage in self.stages)
        return {"opencl": opencl_loc, "high_level": high, "low_level": low}


_REGISTRY: dict[str, Callable[[], Benchmark]] = {}


def register(name: str):
    def decorator(fn: Callable[[], Benchmark]):
        _REGISTRY[name] = fn
        return fn

    return decorator


def get_benchmark(name: str) -> Benchmark:
    import repro.benchsuite.loader  # noqa: F401 - populates the registry

    return _REGISTRY[name]()


def all_benchmark_names() -> list:
    import repro.benchsuite.loader  # noqa: F401

    return list(_REGISTRY)


#: Names in the paper's Table 1 order.
ALL_BENCHMARKS = [
    "nbody-nvidia",
    "nbody-amd",
    "md",
    "kmeans",
    "nn",
    "mriq",
    "convolution",
    "atax",
    "gemv",
    "gesummv",
    "mm-amd",
    "mm-nvidia",
]

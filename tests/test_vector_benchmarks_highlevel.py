"""High-level IL semantics for the vector-typed benchmarks.

These complement test_benchsuite.py's generic check: N-Body, MD and
MRI-Q use float2/float4 values and tuple zips, so their inputs need
explicit conversion into the interpreter's value representation
(``tests.programs.VECTOR_HIGH_LEVEL``).
"""

import numpy as np
import pytest

from repro.ir.interp import apply_fun
from repro.benchsuite.common import get_benchmark
from tests.programs import flat_floats, high_level_case


def matches_oracle(name):
    bench, program, args, env, inputs = high_level_case(name)
    result = apply_fun(program, args, env)
    expected = bench.oracle(inputs, env)
    np.testing.assert_allclose(flat_floats(result), expected, rtol=1e-7)


class TestNBodyHighLevel:
    def test_matches_oracle(self):
        matches_oracle("nbody-amd")


class TestMDHighLevel:
    def test_matches_oracle(self):
        matches_oracle("md")


class TestMRIQHighLevel:
    def test_matches_oracle(self):
        matches_oracle("mriq")


class TestKernelOutputsAgree:
    """The three versions of each vector benchmark agree pairwise."""

    @pytest.mark.parametrize("name", ["nbody-amd", "md", "mriq"])
    def test_reference_equals_generated(self, name):
        bench = get_benchmark(name)
        inputs, env = bench.inputs_for("small", seed=11)
        ref, _ = bench.run_reference(inputs, env)
        gen, _ = bench.run_generated(inputs, env)
        np.testing.assert_allclose(ref, gen, rtol=1e-9)

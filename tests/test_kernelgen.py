"""The engines' differential test over generated kernels
(:mod:`tests.kernelgen`): a fixed slice of seeds, each kernel in every
launch shape, bit-equal buffers and ``Counters`` on every engine.  CI
runs a longer seed range with ``python -m tests.kernelgen``."""

import pytest

from tests import kernelgen
from tests.programs import checked_static_types

SEEDS = range(16)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_kernels_agree_on_every_engine(seed):
    for shape in range(len(kernelgen.SHAPES)):
        if shape == 1 and seed % 8:
            continue  # the many-lane shape: every eighth seed
        kernelgen.check(seed, shape)


def test_the_slice_exercises_races_and_acceptances():
    # Some generated kernels race (a lane reads what another stored),
    # and the lane engine raises DataRace naming the kernel; most run.
    raced = [kernelgen.check(seed, 0) for seed in SEEDS]
    assert 0 < sum(map(bool, raced)) < len(raced)
    assert all(m.startswith("K: cross-lane ") for r in raced for m in r), raced


def test_the_facts_hold_on_generated_kernels():
    # Every node's value against its static type and affine fact.
    with checked_static_types() as record:
        for seed in SEEDS:
            kernelgen.check(seed, 2 if seed % 2 else 0)
    assert record.affine > 0

"""The bits of the reference interpreter's results, pinned.

The explorer accepts a schedule only if its simulated output equals the
``ir.interp`` result of the high-level program bit for bit, so a change
of the interpreter that moves one bit of one result moves the oracle.
``tests/oracle_digests.json`` holds the SHA-256 of the float64 output
bytes of ``apply_fun`` for every interpreted benchmark's high-level
program (on the inputs its semantics test builds) and for every finished
schedule of a depth-2 search of nn, gemv and mm.  Re-record only for a
deliberate change of the patterns' semantics::

    PYTHONPATH=src python -m tests.test_oracle_bits > tests/oracle_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.benchsuite.common import ALL_BENCHMARKS
from repro.ir.interp import apply_fun
from repro.ir.structural import structural_hash
from repro.ir.visit import clone_expr
from repro.opencl.cost import DEVICES
from repro.rewrite.explore import (
    ExploreConfig,
    ExploreStats,
    SearchMemo,
    _enumerate,
    finish_candidates,
    reference_output,
    rule_menu,
    specialize_sizes,
)
from tests.programs import UNINTERPRETED, flat_floats, high_level_case

PINNED = Path(__file__).parent / "oracle_digests.json"
HIGH_LEVEL = [n for n in ALL_BENCHMARKS if n not in UNINTERPRETED]
EXPLORED = ["nn", "gemv", "mm"]


def _digest(flat) -> str:
    return hashlib.sha256(flat.tobytes()).hexdigest()


def high_level_digest(name: str) -> str:
    _, program, args, size_env, _ = high_level_case(name)
    return _digest(flat_floats(apply_fun(program, args, size_env)))


def schedule_digests(name: str) -> tuple:
    """``[structural hash, digest]`` of every finished schedule of a
    depth-2 search of ``name``, in the finish step's order, each
    interpreted with its sizes specialized as the explorer compiles it;
    and the same with each interpreted as found, over the size
    environment (mm's tile-2d schedules gather and scatter through
    permutations over its size variables)."""
    _, high_level, _, size_env, inputs = high_level_case(name)
    stats, memo = ExploreStats(), SearchMemo()
    derivations = _enumerate(
        clone_expr(high_level.body), rule_menu(), ExploreConfig(depth=2),
        stats, memo,
    )
    finished = finish_candidates(
        high_level, derivations, size_env, stats, memo, DEVICES["nvidia"]
    )
    return tuple(
        [[structural_hash(c.program),
          _digest(reference_output(specialize(c.program, size_env), inputs, size_env))]
         for c in finished]
        for specialize in (specialize_sizes, lambda program, sizes: program)
    )


def record() -> dict:
    return {
        "high_level": {n: high_level_digest(n) for n in HIGH_LEVEL},
        "schedules": {n: schedule_digests(n)[0] for n in EXPLORED},
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", HIGH_LEVEL)
def test_high_level_bits_are_pinned(name, pinned):
    assert high_level_digest(name) == pinned["high_level"][name]


@pytest.mark.parametrize("name", EXPLORED)
def test_finished_schedule_bits_are_pinned(name, pinned):
    specialized, as_found = schedule_digests(name)
    assert len(specialized) >= 10
    assert specialized == pinned["schedules"][name]
    assert as_found == pinned["schedules"][name]


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))

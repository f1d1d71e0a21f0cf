"""Repository-root pytest configuration.

Makes the ``tests`` package importable when running ``benchmarks/``
stand-alone (the benchmark harness reuses shared test programs such as
the Listing 1 dot product).
"""

import sys
from pathlib import Path

import pytest

_ROOT = str(Path(__file__).parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


@pytest.fixture
def fault_free():
    """Suspend any ``REPRO_FAULT_PLAN`` for a test that asserts a
    fault-free invariant (which tier served a launch, an empty ledger,
    an exact cache count): injected ``backend-run`` faults legitimately
    decline tiers, and injected cache faults turn reads into misses and
    skip writes.  The chaos plan's draw sequence resumes untouched
    afterwards."""
    from repro import faultinject

    with faultinject.plan_installed(None):
        yield

"""The one cross-engine check of the test suite.

Every lane tier must agree with the ``scalar`` oracle bit for bit: the
same buffers and equal ``Counters``, or a typed error where the lane
engine does not run the kernel.  :func:`check_engines` runs a launch on ``scalar`` and on each of
:data:`RUNS`: an engine over :data:`ONE` block or over :data:`SEVERAL`
(``simt.MAX_LANES`` lowered for the run, the last block ragged).  Counters and buffers do not depend on the
block size, so both layouts must give the oracle's.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.backend import CompileUnsupported
from repro.opencl import DataRace, simt
from repro.opencl.runtime import _normalize_size

ONE, SEVERAL = "one block", "several blocks"

#: The runs each check compares with ``scalar``.
RUNS = (("auto", ONE), ("compiled", ONE), ("compiled", SEVERAL))
#: The rows of a test parametrized over every engine and layout.
ALL_RUNS = (("scalar", ONE),) + RUNS


def _shape(gsize, lsize) -> tuple:
    """``(lanes, lanes per work-group, work-groups)`` of a launch."""
    gsize = _normalize_size(gsize, "global")
    lsize = _normalize_size(lsize, "local")
    groups = int(np.prod([g // l for g, l in zip(gsize, lsize)]))
    return int(np.prod(gsize)), int(np.prod(lsize)), groups


@contextmanager
def blocks(layout: str, gsize=None, lsize=None):
    """Lay the launches inside out as ``layout``.

    :data:`ONE` raises ``simt.MAX_LANES`` to the launch's lane count
    (a test may have patched a small cap in).  :data:`SEVERAL`, unless
    the launch already exceeds the cap, lowers it to ``n // 2 + 1`` of
    the launch's ``n`` work-groups (one for ``n = 2``), so the second
    of two blocks is ragged; without a launch shape (a check of many
    launches) every work-group is a block of its own."""
    cap = simt.MAX_LANES
    if gsize is None:
        cap = cap if layout == ONE else 1
    else:
        lanes, per_group, groups = _shape(gsize, lsize)
        if layout == ONE:
            cap = max(cap, lanes)
        elif lanes <= cap:
            cap = per_group * (groups // 2 + 1 if groups > 2 else 1)
            assert lanes > cap or groups == 1, (gsize, lsize)
    with mock.patch.object(simt, "MAX_LANES", cap):
        yield


def _as_bytes(buffers) -> dict:
    return {
        name: data if isinstance(data, bytes) else np.asarray(data).tobytes()
        for name, data in buffers.items()
    }


def check_engines(launch, gsize=None, lsize=None, runs=RUNS,
                  races=False, refused=None) -> dict:
    """Run ``launch(engine)`` on ``scalar`` and on each of ``runs``,
    each under :func:`blocks` for the launch shape ``gsize`` / ``lsize``
    (``None`` when ``launch`` makes several launches).  ``launch``
    returns ``(buffers, counters)``: a mapping of name to array or
    bytes, and the ``Counters``.  Asserts each run's buffers bitwise and
    counters equal to scalar's.

    ``races`` lets a run raise ``DataRace`` for a cross-lane race (its
    result is then the error).  ``refused``, a kernel the lane engine
    refuses statically, is the reason: every run must raise
    ``CompileUnsupported`` with it, and ``scalar`` runs the kernel.
    Returns ``{"scalar": result, (engine, layout): result}``."""
    results = {"scalar": launch("scalar")}
    reference = _as_bytes(results["scalar"][0]), vars(results["scalar"][1])
    for run in runs:
        with blocks(run[1], gsize, lsize):
            try:
                results[run] = launch(run[0])
            except CompileUnsupported as refusal:
                assert refusal.reason == refused, (run, refusal)
                results[run] = refusal
                continue
            except DataRace as race:
                assert races and "cross-lane" in str(race), (run, race)
                results[run] = race
                continue
        assert refused is None, f"{run} ran a kernel refused for {refused!r}"
        buffers, counters = results[run]
        assert _as_bytes(buffers) == reference[0], f"buffers differ on {run}"
        assert vars(counters) == reference[1], (
            f"counters differ on {run}:\n{reference[1]}\n{vars(counters)}"
        )
    return results


def check_out_of_bounds(launch, gsize=None, lsize=None, runs=ALL_RUNS) -> dict:
    """Run ``launch(engine)`` on each of ``runs`` under :func:`blocks`:
    each must raise ``OutOfBounds``, all naming one buffer of one size
    (``opencl/ENGINES.md``, "Bounds").  Which out-of-range element each
    names is the first its engine meets, so only that it lies outside
    the buffer is asserted.  Returns ``{run: error}``."""
    from repro.opencl import OutOfBounds

    raised = {}
    for run in runs:
        with blocks(run[1], gsize, lsize):
            try:
                launch(run[0])
            except OutOfBounds as error:
                raised[run] = error
            else:
                raise AssertionError(f"no OutOfBounds on {run}")
    assert len({(e.buffer, e.size) for e in raised.values()}) == 1, raised
    for run, error in raised.items():
        assert not 0 <= error.index < error.size, (run, error)
    return raised

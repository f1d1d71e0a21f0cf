"""Out-of-bounds buffer indices raise :class:`repro.opencl.OutOfBounds`
on every engine, over one block and over several, for the active
lanes only, naming the buffer and the element: scalar and vector loads and stores, in global, local and
private memory, below the start and past the end.  No engine wraps a
negative index numpy-style or lets numpy's bare ``IndexError`` out."""

import numpy as np
import pytest

from repro.opencl import Buffer, OpenCLProgram, OutOfBounds, launch
from tests.engines import ALL_RUNS, blocks, check_out_of_bounds

N = 64

#: (name, kernel source, the buffer the error names, the element).
CASES = [
    ("load before the start", """
     kernel void K(const global float * restrict x, global float *out) {
       int i = get_global_id(0);
       out[i] = x[get_global_id(0) - 1];
     }""", "x", -1),
    ("store before the start", """
     kernel void K(const global float * restrict x, global float *out) {
       int i = get_global_id(0);
       out[i - 1] = x[i];
     }""", "out", -1),
    ("load past the end", """
     kernel void K(const global float * restrict x, global float *out) {
       int i = get_global_id(0);
       out[i] = x[i + 1];
     }""", "x", N),
    ("store past the end of an offset pointer", """
     kernel void K(const global float * restrict x, global float *out) {
       int i = get_global_id(0);
       global float *p = out + 2;
       p[i] = x[i];
     }""", "p", N),
    ("uniform load past the end", """
     kernel void K(const global float * restrict x, global float *out) {
       out[get_global_id(0)] = x[64];
     }""", "x", N),
    ("data-dependent load", """
     kernel void K(const global int * restrict idx, const global float * restrict x,
                   global float *out) {
       int i = get_global_id(0);
       out[i] = x[idx[i]];
     }""", "x", -5),
    ("local load before the start", """
     kernel void K(const global float * restrict x, global float *out) {
       local float tmp[16];
       int l = get_local_id(0);
       tmp[l] = x[get_global_id(0)];
       barrier(CLK_LOCAL_MEM_FENCE);
       out[get_global_id(0)] = tmp[l - 1];
     }""", "tmp", -1),
    ("private store past the end", """
     kernel void K(const global float * restrict x, global float *out) {
       float acc[4];
       int l = get_local_id(0);
       if (l < 5) { acc[l] = x[get_global_id(0)]; }
       out[get_global_id(0)] = acc[0];
     }""", "acc", 4),
    ("vload before the start", """
     kernel void K(const global float * restrict x, global float *out) {
       int i = get_global_id(0);
       float4 v = vload4(i - 1, x);
       out[i] = v.x;
     }""", "x", -4),
    ("vstore past the end", """
     kernel void K(const global float * restrict x, global float *out) {
       int i = get_global_id(0);
       vstore2((float2)(x[i], 1.0f), i + 1, out);
     }""", "out", 2 * N),
]


def args_for(case: str) -> dict:
    idx = np.zeros(N, dtype=np.int64)
    idx[37] = -5  # one lane reads before the start
    args = {
        "x": Buffer.from_array(np.arange(N, dtype=float)),
        "out": Buffer.zeros(2 * N if case == "vstore past the end" else N),
    }
    if case == "data-dependent load":
        args["idx"] = Buffer.from_array(idx)
    return args


@pytest.mark.parametrize("engine, layout", ALL_RUNS)
@pytest.mark.parametrize("case, src, buffer, index", CASES, ids=[c[0] for c in CASES])
def test_an_out_of_bounds_access_raises_a_typed_error(
    case, src, buffer, index, engine, layout
):
    program = OpenCLProgram(src)
    with pytest.raises(OutOfBounds) as raised, blocks(layout, N, 16):
        launch(program, N, 16, args_for(case), engine=engine)
    assert (raised.value.buffer, raised.value.index) == (buffer, index)
    assert buffer in str(raised.value) and str(index) in str(raised.value)


@pytest.mark.parametrize("engine, layout", ALL_RUNS)
def test_inactive_lanes_are_not_checked(engine, layout):
    # Lanes past n hold out-of-range addresses but never access them.
    src = """
    kernel void K(const global float * restrict x, global float *out, int n) {
      int i = get_global_id(0);
      if (i < n) { out[i] = x[i + 8]; }
    }
    """
    out = Buffer.zeros(N)
    with blocks(layout, N, 16):
        launch(OpenCLProgram(src), N, 16,
               {"x": Buffer.from_array(np.arange(N, dtype=float)), "out": out,
                "n": N - 8},
               engine=engine)
    np.testing.assert_array_equal(out.data[: N - 8], np.arange(8, N, dtype=float))


def test_engines_agree_on_the_buffer_not_on_the_element():
    """Work-items 43 to 63 all read past the end of ``x`` (256
    elements).  The scalar oracle runs work-item by work-item and meets
    work-item 43's x[258] first (iteration 6); a lane engine runs a
    block iteration by iteration and, over one block, meets lane 52's
    x[260] first (iteration 5).  Every engine names ``x`` and its size,
    and an element the kernel does read."""
    src = """
    kernel void K(const global float * restrict x, global float *out, int trips) {
      int i = get_global_id(0);
      float acc = 0.0f;
      for (int t = 0; t < trips; t += 1) { acc = acc + x[t * i]; }
      out[i] = acc;
    }"""

    def run(engine):
        args = {"x": Buffer.from_array(np.arange(4 * N, dtype=float)),
                "out": Buffer.zeros(N), "trips": 7}
        launch(OpenCLProgram(src), N, 16, args, engine=engine)

    raised = check_out_of_bounds(run, N, 16)
    assert {(e.buffer, e.size) for e in raised.values()} == {("x", 4 * N)}
    read = {t * i for t in range(7) for i in range(N)}
    assert {e.index for e in raised.values()} <= read

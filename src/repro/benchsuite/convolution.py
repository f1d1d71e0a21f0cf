"""2D convolution (NVIDIA SDK style): tiled stencil with local memory.

Overlapping 2D tiles are built with the paper's slide composition
(``map(transpose) o slide o map(slide)``, section 7.2), staged
cooperatively in local memory, and each thread reduces one output
pixel's window against the weights.  The tiled output is reassembled
row-major through a ``scatter`` permutation — whose un-simplified index
expression is exactly the kind of monster the paper's section 7.4
blames for the 10-20x slowdowns without array-access simplification.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.arith import Cst
from repro.arith.expr import IntDiv, Mod, Prod, Sum
from repro.types import ArrayType, FLOAT, array
from repro.ir.nodes import FunCall, Lambda, Param
from repro.ir.dsl import (
    compose,
    f32,
    get,
    head,
    id_fun,
    join,
    lam,
    lam2,
    map_,
    map_lcl,
    map_seq,
    map_wrg,
    mult_and_sum_up,
    reduce_,
    reduce_seq,
    scatter,
    slide,
    split,
    to_global,
    to_local,
    transpose,
    zip_,
)
from repro.ir.patterns import IndexFun
from repro.benchsuite.common import (
    Benchmark,
    Characteristics,
    LiftStage,
    RefLaunch,
    register,
)

K = 5  # stencil diameter
T = 8  # tile (and work-group) edge
S = T + K - 1  # staged tile edge including the halo

_REFERENCE_TEMPLATE = """
kernel void CONV(const global float * restrict img,
                 const global float * restrict weights,
                 global float *out, int H, int W) {{
  local float tile[{SS}];
  int tx = get_group_id(0);
  int ty = get_group_id(1);
  int lx = get_local_id(0);
  int ly = get_local_id(1);
  int wp = W + {K} - 1;
  for (int r = ly; r < {S}; r += {T}) {{
    for (int c = lx; c < {S}; c += {T}) {{
      tile[r * {S} + c] = img[(ty * {T} + r) * wp + tx * {T} + c];
    }}
  }}
  barrier(CLK_LOCAL_MEM_FENCE);
  float s = 0.0f;
  for (int i = 0; i < {K}; i += 1) {{
    for (int j = 0; j < {K}; j += 1) {{
      s = s + tile[(ly + i) * {S} + lx + j] * weights[i * {K} + j];
    }}
  }}
  out[(ty * {T} + ly) * W + tx * {T} + lx] = s;
}}
"""

REFERENCE = _REFERENCE_TEMPLATE.format(K=K, T=T, S=S, SS=S * S)


def slide_2d(size, step):
    """The paper's 2D stencil composition (section 7.2)."""
    return compose(map_(transpose()), slide(size, step), map_(slide(size, step)))


def untile_indices(nty: int, ntx: int, tile: int, width: int) -> IndexFun:
    """Permutation reassembling a grid of flattened tiles row-major.

    Built with raw arithmetic nodes so the un-simplified form survives
    into the generated code when array-access simplification is off.
    """
    per_row = Cst(ntx * tile * tile)
    per_tile = Cst(tile * tile)
    t = Cst(tile)
    w = Cst(width)

    def fn(i, n):
        ty = IntDiv(i, per_row)
        rest = Mod(i, per_row)
        tx = IntDiv(rest, per_tile)
        r2 = Mod(rest, per_tile)
        py = IntDiv(r2, t)
        px = Mod(r2, t)
        row = Sum([Prod([ty, t]), py])
        col = Sum([Prod([tx, t]), px])
        return Sum([Prod([row, w]), col])

    return IndexFun(f"untile({nty}x{ntx},{tile},{width})", fn)


def _program(low_level: bool, h: int, w: int):
    hp, wp = h + K - 1, w + K - 1
    nty, ntx = h // T, w // T
    img = Param(array(FLOAT, hp, wp), "img")
    weights = Param(ArrayType(FLOAT, K * K), "weights")
    musu = mult_and_sum_up()
    reduce_pairs = lam2(lambda acc, p: FunCall(musu, [acc, get(p, 0), get(p, 1)]))

    def window_dot(reduce_builder, win):
        """Nested 2D reduction over the window rows, mirroring the
        reference's two tap loops (a flat join would introduce i/K and
        i%K into every access)."""
        def tap_row(acc, rw):
            inner = reduce_builder(reduce_pairs, acc)(
                zip_(get(rw, 0), get(rw, 1))
            )
            return head(inner)

        return reduce_builder(lam2(tap_row), f32(0.0))(
            zip_(win, split(K)(weights))
        )

    if not low_level:
        per_win = lam(
            lambda win: map_(id_fun())(window_dot(reduce_, win))
        )
        rows = slide_2d(K, 1)(img)
        body = join()(
            map_(lam(lambda row: join()(map_(per_win)(row))))(rows)
        )
        return Lambda([img, weights], body)

    def per_tile(t):
        staged = to_local(map_lcl(map_lcl(id_fun(), 0), 1))(t)
        wins = slide_2d(K, 1)(staged)
        per_pixel = lam(
            lambda win: to_global(map_seq(id_fun()))(
                window_dot(reduce_seq, win)
            )
        )
        computed = map_lcl(lam(lambda r: map_lcl(per_pixel, 0)(r)), 1)(wins)
        return join()(join()(computed))

    tiles = slide_2d(S, T)(img)
    tiled_out = join()(
        map_wrg(lam(lambda row: join()(map_wrg(lam(per_tile), 0)(row))), 1)(tiles)
    )
    body = scatter(untile_indices(nty, ntx, T, w))(tiled_out)
    return Lambda([img, weights], body)


def correlate_valid(img: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """2D cross-correlation over the positions where ``weights`` fits
    entirely inside ``img`` (the benchmark's oracle)."""
    windows = sliding_window_view(img, weights.shape)  # (H, W, K, K) view
    return np.einsum("hwij,ij->hw", windows, weights)


def build() -> Benchmark:
    def make_inputs(size_env, rng):
        h, w = size_env["H"], size_env["W"]
        return {
            "img": rng.random((h + K - 1, w + K - 1)),
            "weights": rng.random((K, K)),
        }

    def oracle(inputs, size_env):
        img = inputs["img"].reshape(
            size_env["H"] + K - 1, size_env["W"] + K - 1
        )
        return correlate_valid(img, inputs["weights"].reshape(K, K)).ravel()

    def ref_args(inputs, size_env, scratch):
        return {
            "img": inputs["img"],
            "weights": inputs["weights"],
            "out": np.zeros(size_env["H"] * size_env["W"]),
            "H": size_env["H"],
            "W": size_env["W"],
        }

    return Benchmark(
        name="convolution",
        source_suite="NVIDIA SDK",
        characteristics=Characteristics(
            local_memory=True,
            private_memory=False,
            vectorization=False,
            coalescing=True,
            iteration_space="2D",
        ),
        sizes={
            "small": {"H": 16, "W": 16},
            "large": {"H": 32, "W": 32},
        },
        make_inputs=make_inputs,
        oracle=oracle,
        reference_source=REFERENCE,
        reference_launches=[
            RefLaunch(
                kernel="CONV",
                make_args=ref_args,
                global_size=lambda env: (env["W"], env["H"], 1),
                local_size=(T, T, 1),
                out_arg="out",
            )
        ],
        high_level=lambda env: _program(False, env["H"], env["W"]),
        stages=[
            LiftStage(
                build=lambda env: _program(True, env["H"], env["W"]),
                param_names=["img", "weights"],
                global_size=lambda env: (env["W"], env["H"], 1),
                local_size=(T, T, 1),
            )
        ],
        rtol=1e-9,
    )


register("convolution")(build)

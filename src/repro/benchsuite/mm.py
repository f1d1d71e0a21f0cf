"""Matrix multiplication — two CLBlast-style variants (Table 1 rows 11-12).

* **NVIDIA variant**: classic local-memory tiling; A- and B-tiles are
  staged cooperatively, and the C tile is the *private* array accumulator
  (``toPrivate(mapLcl(mapLcl(zero)))``: one element per work-item, the
  reference's ``float acc``) of the ``reduceSeq`` over k-tiles.
* **AMD variant**: no local-memory tiling; each thread keeps a
  ``float4`` register block of the output row and streams the B columns
  through vector loads (``asVector``) — register blocking +
  vectorization, as the paper describes for CLBlast on AMD.
"""

from __future__ import annotations

import numpy as np

from repro.arith import Var
from repro.types import ArrayType, FLOAT, VectorType, array
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir.dsl import (
    as_vector,
    f32,
    get,
    head,
    id_fun,
    join,
    lam,
    lam2,
    map_,
    map_glb,
    map_lcl,
    map_seq,
    map_wrg,
    mult_and_sum_up,
    reduce_,
    reduce_seq,
    scatter,
    split,
    to_global,
    to_local,
    to_private,
    transpose,
    vec_literal,
    zip_,
)
from repro.ir.patterns import ReduceSeq
from repro.benchsuite.common import (
    Benchmark,
    Characteristics,
    LiftStage,
    RefLaunch,
    register,
)
from repro.benchsuite.convolution import untile_indices

T = 8  # tile edge for the NVIDIA variant (Tm = Tn = Tk = T)
VW = 4  # vector width for the AMD variant

_REFERENCE_NVIDIA_TEMPLATE = """
kernel void MM(const global float * restrict A,
               const global float * restrict B,
               global float *out, int M, int N, int Kd) {{
  local float aTile[{TT}];
  local float bTile[{TT}];
  int tx = get_group_id(0);
  int ty = get_group_id(1);
  int lx = get_local_id(0);
  int ly = get_local_id(1);
  float acc = 0.0f;
  for (int kt = 0; kt < Kd / {T}; kt += 1) {{
    aTile[ly * {T} + lx] = A[(ty * {T} + ly) * Kd + kt * {T} + lx];
    bTile[ly * {T} + lx] = B[(kt * {T} + ly) * N + tx * {T} + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int k = 0; k < {T}; k += 1) {{
      acc = acc + aTile[ly * {T} + k] * bTile[k * {T} + lx];
    }}
    barrier(CLK_LOCAL_MEM_FENCE);
  }}
  out[(ty * {T} + ly) * N + tx * {T} + lx] = acc;
}}
"""

_REFERENCE_AMD_TEMPLATE = """
kernel void MM(const global float * restrict A,
               const global float * restrict B,
               global float *out, int M, int N, int Kd) {{
  int jv = get_global_id(0);
  int i = get_global_id(1);
  float4 acc = (float4)(0.0f, 0.0f, 0.0f, 0.0f);
  for (int k = 0; k < Kd; k += 1) {{
    float a = A[i * Kd + k];
    float4 b = vload4(jv, B + k * N);
    acc = acc + a * b;
  }}
  vstore4(acc, jv, out + i * N);
}}
"""

REFERENCE_NVIDIA = _REFERENCE_NVIDIA_TEMPLATE.format(T=T, TT=T * T)
REFERENCE_AMD = _REFERENCE_AMD_TEMPLATE.format(VW=VW)

_FLOAT4 = VectorType(FLOAT, 4)


def _zero() -> UserFun:
    return UserFun("zeroF", ["x"], "return 0.0f;", [FLOAT], FLOAT, py=lambda x: 0.0)


def _vmadd() -> UserFun:
    from repro.ir.interp import VecValue

    return UserFun(
        "vmadd",
        ["acc", "a", "b"],
        "return acc + a * b;",
        [_FLOAT4, FLOAT, _FLOAT4],
        _FLOAT4,
        py=lambda acc, a, b: VecValue(
            [acc.items[i] + a * b.items[i] for i in range(4)]
        ),
    )


def _id4() -> UserFun:
    return UserFun("idF4", ["v"], "return v;", [_FLOAT4], _FLOAT4, py=lambda v: v)


def _tiles_of_a(a):
    """A [[f]K]M  ->  tiles[i][kt] of shape [[f]T]T."""
    return map_(transpose())(split(T)(map_(split(T))(a)))


def _tiles_of_b_transposed(b):
    """B [[f]N]K  ->  tiles[j][kt] of shape [[f]T]T (j = column tile)."""
    tiles = map_(transpose())(split(T)(map_(split(T))(b)))  # [kt][j]
    return transpose()(tiles)  # [j][kt]


def _program_nvidia(m_val, n_val, k_val):
    a = Param(array(FLOAT, m_val, k_val), "A")
    b = Param(array(FLOAT, k_val, n_val), "B")
    musu = mult_and_sum_up()
    zero, id_f = _zero(), id_fun()

    def per_tile_pair(arow_tiles, bcol_tiles):
        def per_ij():
            acc0 = to_private(map_lcl(map_lcl(zero, 0), 1))(head(bcol_tiles))

            def per_ktile(acc_chunk, ab):
                a_loc = to_local(map_lcl(map_lcl(id_f, 0), 1))(get(ab, 0))
                b_loc = to_local(map_lcl(map_lcl(id_f, 0), 1))(get(ab, 1))
                at = Param(None, "at")
                bt = Param(None, "bt")

                def update_row(acc_a):
                    acc_row = get(acc_a, 0)
                    a_row = get(acc_a, 1)

                    def update_elem(acc_b):
                        inner = lam2(
                            lambda s, p: FunCall(
                                musu, [s, get(p, 0), get(p, 1)]
                            )
                        )
                        return FunCall(
                            reduce_seq(inner, get(acc_b, 0)),
                            [zip_(a_row, get(acc_b, 1))],
                        )

                    return join()(
                        map_lcl(lam(update_elem), 0)(
                            zip_(acc_row, transpose()(bt))
                        )
                    )

                body = map_lcl(lam(update_row), 1)(zip_(acc_chunk, at))
                return FunCall(Lambda([at, bt], body), [a_loc, b_loc])

            c_tile = join()(
                FunCall(
                    ReduceSeq(lam2(per_ktile)),
                    [acc0, zip_(arow_tiles, bcol_tiles)],
                )
            )
            write = to_global(map_lcl(lam(lambda r: map_lcl(id_f, 0)(r)), 1))
            return join()(write(c_tile))

        return per_ij()

    a_tiles = _tiles_of_a(a)
    b_tiles = _tiles_of_b_transposed(b)

    def per_row_tile(arow_tiles):
        return join()(
            map_wrg(
                lam(lambda bcol_tiles: per_tile_pair(arow_tiles, bcol_tiles)), 0
            )(b_tiles)
        )

    tiled = join()(map_wrg(lam(per_row_tile), 1)(a_tiles))
    body = scatter(untile_indices(m_val // T, n_val // T, T, n_val))(tiled)
    return Lambda([a, b], body)


def _program_amd(m_val, n_val, k_val):
    a = Param(array(FLOAT, m_val, k_val), "A")
    b = Param(array(FLOAT, k_val, n_val), "B")
    vmadd, id4 = _vmadd(), _id4()

    # B as columns of float4 groups: [[float4]K]{N/4}, all views.
    b_vec_cols = transpose()(map_(as_vector(VW))(b))

    def per_row(a_row):
        def per_col_group(b_col):
            step = lam2(
                lambda acc, p: FunCall(vmadd, [acc, get(p, 0), get(p, 1)])
            )
            acc = reduce_seq(step, vec_literal(0.0, 4))(zip_(a_row, b_col))
            return to_global(map_seq(id4))(acc)

        return join()(map_glb(lam(per_col_group), 0)(b_vec_cols))

    body = join()(map_glb(lam(per_row), 1)(a))
    return Lambda([a, b], body)


def _high_level():
    m, n, k = Var("M"), Var("N"), Var("Kd")
    a = Param(array(FLOAT, m, k), "A")
    b = Param(array(FLOAT, k, n), "B")
    musu = mult_and_sum_up()

    def per_row(a_row):
        def per_col(b_col):
            inner = lam2(lambda s, p: FunCall(musu, [s, get(p, 0), get(p, 1)]))
            return map_(id_fun())(reduce_(inner, f32(0.0))(zip_(a_row, b_col)))

        return join()(map_(lam(per_col))(transpose()(b)))

    body = join()(map_(lam(per_row))(a))
    return Lambda([a, b], body)


def _oracle(inputs, size_env):
    m, n, k = size_env["M"], size_env["N"], size_env["Kd"]
    return (inputs["A"].reshape(m, k) @ inputs["B"].reshape(k, n)).ravel()


def _make_inputs(size_env, rng):
    m, n, k = size_env["M"], size_env["N"], size_env["Kd"]
    return {"A": rng.random((m, k)), "B": rng.random((k, n))}


def _ref_args(inputs, size_env, scratch):
    return {
        "A": inputs["A"],
        "B": inputs["B"],
        "out": np.zeros(size_env["M"] * size_env["N"]),
        "M": size_env["M"],
        "N": size_env["N"],
        "Kd": size_env["Kd"],
    }


def _build_variant(variant: str) -> Benchmark:
    nvidia = variant == "nvidia"
    if nvidia:
        local = (T, T, 1)

        def geometry(env):
            return (env["N"], env["M"], 1)

    else:
        local = (4, 4, 1)

        def geometry(env):
            return (env["N"] // VW, env["M"], 1)

    return Benchmark(
        name=f"mm-{variant}",
        source_suite=f"CLBlast ({variant.upper()})",
        characteristics=Characteristics(
            local_memory=nvidia,
            private_memory=True,
            vectorization=True,
            coalescing=True,
            iteration_space="2D",
        ),
        sizes={
            "small": {"M": 16, "N": 16, "Kd": 16},
            "large": {"M": 32, "N": 32, "Kd": 32},
        },
        make_inputs=_make_inputs,
        oracle=_oracle,
        reference_source=REFERENCE_NVIDIA if nvidia else REFERENCE_AMD,
        reference_launches=[
            RefLaunch(
                kernel="MM",
                make_args=_ref_args,
                global_size=geometry,
                local_size=local,
                out_arg="out",
            )
        ],
        high_level=lambda env: _high_level(),
        stages=[
            LiftStage(
                build=lambda env: (
                    _program_nvidia(env["M"], env["N"], env["Kd"])
                    if nvidia
                    else _program_amd(env["M"], env["N"], env["Kd"])
                ),
                param_names=["A", "B"],
                global_size=geometry,
                local_size=local,
            )
        ],
        rtol=1e-9,
    )


def build_nvidia() -> Benchmark:
    return _build_variant("nvidia")


def build_amd() -> Benchmark:
    return _build_variant("amd")


register("mm-nvidia")(build_nvidia)
register("mm-amd")(build_amd)
# Plain "mm" (the name the explorer and the CLI use for the matrix
# multiplication *high-level* program, which both variants share) maps
# to the NVIDIA build; it is not part of ALL_BENCHMARKS, so Table 1 and
# Figure 8 keep listing the two reference variants separately.
register("mm")(build_nvidia)

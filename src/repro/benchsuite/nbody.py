"""N-Body simulation — two reference styles, as in the paper's Table 1.

* **NVIDIA SDK style**: work-group tiling; each tile of bodies is staged
  in local memory (``toLocal(mapLcl(id))``) and every thread accumulates
  accelerations against the tile.  The across-tile accumulation is a
  ``reduceSeq`` whose body is a ``mapLcl`` and whose *array* accumulator
  is private (``toPrivate(mapLcl(zero))``): one register per work-item.
* **AMD SDK style**: no local memory; one global thread per body reads
  every other body directly, with vectorized ``float4`` arithmetic.

Positions are ``float4`` (x, y, z, mass); the kernel writes ``float8``
(new position, new velocity) per body.
"""

from __future__ import annotations

import numpy as np

from repro.arith import Var
from repro.types import ArrayType, FLOAT, VectorType
from repro.ir.nodes import FunCall, Lambda, Param, UserFun
from repro.ir.dsl import (
    get,
    join,
    lam,
    lam2,
    map_,
    map_glb,
    map_lcl,
    map_seq,
    map_wrg,
    reduce_,
    reduce_seq,
    split,
    to_global,
    to_local,
    to_private,
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

_FLOAT4 = VectorType(FLOAT, 4)
_FLOAT8 = VectorType(FLOAT, 8)

TILE = 16

_REFERENCE_NVIDIA_TEMPLATE = """
kernel void NBODY(const global float * restrict pos,
                  const global float * restrict vel,
                  global float *out, int N, float deltaT, float espSqr) {{
  local float tileBuf[{T4}];
  int i = get_global_id(0);
  int l = get_local_id(0);
  float4 p1 = vload4(i, pos);
  float4 acc = (float4)(0.0f, 0.0f, 0.0f, 0.0f);
  for (int t = 0; t < N / {T}; t += 1) {{
    vstore4(vload4(t * {T} + l, pos), l, tileBuf);
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int j = 0; j < {T}; j += 1) {{
      float4 p2 = vload4(j, tileBuf);
      float rx = p2.x - p1.x;
      float ry = p2.y - p1.y;
      float rz = p2.z - p1.z;
      float distSqr = rx * rx + ry * ry + rz * rz + espSqr;
      float invDist = 1.0f / sqrt(distSqr);
      float s = p2.w * invDist * invDist * invDist;
      acc = acc + (float4)(s * rx, s * ry, s * rz, 0.0f);
    }}
    barrier(CLK_LOCAL_MEM_FENCE);
  }}
  float4 v1 = vload4(i, vel);
  float8 r = (float8)(
    p1.x + v1.x * deltaT + 0.5f * acc.x * deltaT * deltaT,
    p1.y + v1.y * deltaT + 0.5f * acc.y * deltaT * deltaT,
    p1.z + v1.z * deltaT + 0.5f * acc.z * deltaT * deltaT,
    p1.w,
    v1.x + acc.x * deltaT,
    v1.y + acc.y * deltaT,
    v1.z + acc.z * deltaT,
    v1.w);
  vstore8(r, i, out);
}}
"""

_REFERENCE_AMD = """
kernel void NBODY(const global float * restrict pos,
                  const global float * restrict vel,
                  global float *out, int N, float deltaT, float espSqr) {
  int i = get_global_id(0);
  float4 p1 = vload4(i, pos);
  float4 acc = (float4)(0.0f, 0.0f, 0.0f, 0.0f);
  for (int j = 0; j < N; j += 1) {
    float4 p2 = vload4(j, pos);
    float rx = p2.x - p1.x;
    float ry = p2.y - p1.y;
    float rz = p2.z - p1.z;
    float distSqr = rx * rx + ry * ry + rz * rz + espSqr;
    float invDist = 1.0f / sqrt(distSqr);
    float s = p2.w * invDist * invDist * invDist;
    acc = acc + (float4)(s * rx, s * ry, s * rz, 0.0f);
  }
  float4 v1 = vload4(i, vel);
  float8 r = (float8)(
    p1.x + v1.x * deltaT + 0.5f * acc.x * deltaT * deltaT,
    p1.y + v1.y * deltaT + 0.5f * acc.y * deltaT * deltaT,
    p1.z + v1.z * deltaT + 0.5f * acc.z * deltaT * deltaT,
    p1.w,
    v1.x + acc.x * deltaT,
    v1.y + acc.y * deltaT,
    v1.z + acc.z * deltaT,
    v1.w);
  vstore8(r, i, out);
}
"""

REFERENCE_NVIDIA = _REFERENCE_NVIDIA_TEMPLATE.format(T=TILE, T4=4 * TILE)


def _calc_acc() -> UserFun:
    from repro.ir.interp import VecValue

    def py(acc, p1, p2, esp):
        rx = p2.items[0] - p1.items[0]
        ry = p2.items[1] - p1.items[1]
        rz = p2.items[2] - p1.items[2]
        dist_sqr = rx * rx + ry * ry + rz * rz + esp
        inv = 1.0 / np.sqrt(dist_sqr)
        s = p2.items[3] * inv * inv * inv
        return VecValue(
            [acc.items[0] + s * rx, acc.items[1] + s * ry,
             acc.items[2] + s * rz, acc.items[3]]
        )

    return UserFun(
        "calcAcc",
        ["acc", "p1", "p2", "espSqr"],
        "float rx = p2.x - p1.x;"
        " float ry = p2.y - p1.y;"
        " float rz = p2.z - p1.z;"
        " float distSqr = rx * rx + ry * ry + rz * rz + espSqr;"
        " float invDist = 1.0f / sqrt(distSqr);"
        " float s = p2.w * invDist * invDist * invDist;"
        " return acc + (float4)(s * rx, s * ry, s * rz, 0.0f);",
        [_FLOAT4, _FLOAT4, _FLOAT4, FLOAT],
        _FLOAT4,
        py=py,
    )


def _update() -> UserFun:
    from repro.ir.interp import VecValue

    def py(p, v, a, dt):
        return VecValue(
            [
                p.items[0] + v.items[0] * dt + 0.5 * a.items[0] * dt * dt,
                p.items[1] + v.items[1] * dt + 0.5 * a.items[1] * dt * dt,
                p.items[2] + v.items[2] * dt + 0.5 * a.items[2] * dt * dt,
                p.items[3],
                v.items[0] + a.items[0] * dt,
                v.items[1] + a.items[1] * dt,
                v.items[2] + a.items[2] * dt,
                v.items[3],
            ]
        )

    return UserFun(
        "update",
        ["p", "v", "a", "deltaT"],
        "return (float8)("
        "p.x + v.x * deltaT + 0.5f * a.x * deltaT * deltaT,"
        " p.y + v.y * deltaT + 0.5f * a.y * deltaT * deltaT,"
        " p.z + v.z * deltaT + 0.5f * a.z * deltaT * deltaT,"
        " p.w,"
        " v.x + a.x * deltaT, v.y + a.y * deltaT, v.z + a.z * deltaT, v.w);",
        [_FLOAT4, _FLOAT4, _FLOAT4, FLOAT],
        _FLOAT8,
        py=py,
    )


def _zero4() -> UserFun:
    from repro.ir.interp import VecValue

    return UserFun(
        "zero4",
        ["x"],
        "return (float4)(0.0f, 0.0f, 0.0f, 0.0f);",
        [_FLOAT4],
        _FLOAT4,
        py=lambda x: VecValue([0.0, 0.0, 0.0, 0.0]),
    )


def _id4() -> UserFun:
    return UserFun("idF4", ["v"], "return v;", [_FLOAT4], _FLOAT4, py=lambda v: v)


def _program_nvidia(n_val):
    """Work-group tiled version with local memory staging."""
    pos = Param(ArrayType(_FLOAT4, n_val), "pos")
    vel = Param(ArrayType(_FLOAT4, n_val), "vel")
    delta_t = Param(FLOAT, "deltaT")
    esp = Param(FLOAT, "espSqr")
    calc, upd, zero, id4 = _calc_acc(), _update(), _zero4(), _id4()

    def per_chunk(chunk):
        v1chunk = get(chunk, 1)
        # Every thread keeps its own position and its acceleration in
        # registers across the whole walk over tiles, as the reference's
        # ``float4 p1`` / ``float4 acc`` do: toPrivate under mapLcl is
        # one slot per work-item (TILE bodies on TILE work-items).
        p1chunk = Param(None, "p1")
        acc_init = to_private(map_lcl(zero))(p1chunk)

        def per_tile(acc_chunk, p2chunk):
            tile = Param(None, "tile")

            def per_body(ap):
                step = lam2(
                    lambda a, p2: FunCall(calc, [a, get(ap, 1), p2, esp])
                )
                return FunCall(reduce_seq(step, get(ap, 0)), [tile])

            walk = join()(map_lcl(lam(per_body))(zip_(acc_chunk, p1chunk)))
            return FunCall(
                Lambda([tile], walk), [to_local(map_lcl(id4))(p2chunk)]
            )

        acc_final = join()(
            FunCall(ReduceSeq(lam2(per_tile)), [acc_init, split(TILE)(pos)])
        )
        finish = to_global(
            map_lcl(
                lam(
                    lambda apv: FunCall(
                        upd, [get(apv, 1), get(apv, 2), get(apv, 0), delta_t]
                    )
                )
            )
        )
        return FunCall(
            Lambda([p1chunk], finish(zip_(acc_final, p1chunk, v1chunk))),
            [to_private(map_lcl(id4))(get(chunk, 0))],
        )

    chunks = zip_(split(TILE)(pos), split(TILE)(vel))
    body = join()(map_wrg(lam(per_chunk))(chunks))
    return Lambda([pos, vel, delta_t, esp], body)


def _program_amd(n_val):
    """Flat version: one global thread per body, float4 arithmetic."""
    pos = Param(ArrayType(_FLOAT4, n_val), "pos")
    vel = Param(ArrayType(_FLOAT4, n_val), "vel")
    delta_t = Param(FLOAT, "deltaT")
    esp = Param(FLOAT, "espSqr")
    calc, upd = _calc_acc(), _update()

    def per_body(pv):
        # Bound through toPrivate(id4): a register for the whole walk, as
        # the reference's ``float4 p1``; a bare id4 would be staged in
        # global memory (Algorithm 1) and re-read per inner iteration.
        p1_reg = Param(None, "p1r")
        step = lam2(lambda a, p2: FunCall(calc, [a, p1_reg, p2, esp]))
        acc = reduce_seq(step, vec_literal(0.0, 4))(pos)
        finish = to_global(
            map_seq(
                lam(lambda a: FunCall(upd, [p1_reg, get(pv, 1), a, delta_t]))
            )
        )
        return FunCall(
            Lambda([p1_reg], finish(acc)),
            [FunCall(to_private(_id4()), [get(pv, 0)])],
        )

    body = join()(map_glb(lam(per_body))(zip_(pos, vel)))
    return Lambda([pos, vel, delta_t, esp], body)


def _high_level(n_val=None):
    n = n_val if n_val is not None else Var("N")
    pos = Param(ArrayType(_FLOAT4, n), "pos")
    vel = Param(ArrayType(_FLOAT4, n), "vel")
    delta_t = Param(FLOAT, "deltaT")
    esp = Param(FLOAT, "espSqr")
    calc, upd = _calc_acc(), _update()

    def per_body(pv):
        step = lam2(lambda a, p2: FunCall(calc, [a, get(pv, 0), p2, esp]))
        acc = reduce_(step, vec_literal(0.0, 4))(pos)
        return map_(
            lam(lambda a: FunCall(upd, [get(pv, 0), get(pv, 1), a, delta_t]))
        )(acc)

    body = join()(map_(lam(per_body))(zip_(pos, vel)))
    return Lambda([pos, vel, delta_t, esp], body)


def _oracle(inputs, size_env):
    pos = inputs["pos"].reshape(-1, 4)
    vel = inputs["vel"].reshape(-1, 4)
    dt = inputs["deltaT"]
    esp = inputs["espSqr"]
    r = pos[None, :, :3] - pos[:, None, :3]
    dist_sqr = (r ** 2).sum(axis=2) + esp
    inv = 1.0 / np.sqrt(dist_sqr)
    s = pos[None, :, 3] * inv ** 3
    acc = (s[:, :, None] * r).sum(axis=1)
    out = np.zeros((len(pos), 8))
    out[:, :3] = pos[:, :3] + vel[:, :3] * dt + 0.5 * acc * dt * dt
    out[:, 3] = pos[:, 3]
    out[:, 4:7] = vel[:, :3] + acc * dt
    out[:, 7] = vel[:, 7 - 4]
    return out.ravel()


def _make_inputs(size_env, rng):
    n = size_env["N"]
    pos = rng.random((n, 4)) * 2.0
    pos[:, 3] = rng.random(n) + 0.5  # masses
    vel = rng.random((n, 4)) * 0.1
    return {
        "pos": pos.ravel(),
        "vel": vel.ravel(),
        "deltaT": 0.005,
        "espSqr": 500.0,
    }


def _ref_args(inputs, size_env, scratch):
    return {
        "pos": inputs["pos"],
        "vel": inputs["vel"],
        "out": np.zeros(8 * size_env["N"]),
        "N": size_env["N"],
        "deltaT": inputs["deltaT"],
        "espSqr": inputs["espSqr"],
    }


def _build_variant(variant: str) -> Benchmark:
    nvidia = variant == "nvidia"
    return Benchmark(
        name=f"nbody-{variant}",
        source_suite="NVIDIA SDK" if nvidia else "AMD SDK",
        characteristics=Characteristics(
            local_memory=nvidia,
            private_memory=True,
            vectorization=not nvidia,
            coalescing=True,
            iteration_space="1D",
        ),
        sizes={"small": {"N": 128}, "large": {"N": 384}},
        make_inputs=_make_inputs,
        oracle=_oracle,
        reference_source=REFERENCE_NVIDIA if nvidia else _REFERENCE_AMD,
        reference_launches=[
            RefLaunch(
                kernel="NBODY",
                make_args=_ref_args,
                global_size=lambda env: (env["N"], 1, 1),
                local_size=(TILE, 1, 1) if nvidia else (64, 1, 1),
                out_arg="out",
            )
        ],
        high_level=lambda env: _high_level(),
        stages=[
            LiftStage(
                build=lambda env: (
                    _program_nvidia(env["N"]) if nvidia else _program_amd(env["N"])
                ),
                param_names=["pos", "vel", "deltaT", "espSqr"],
                global_size=lambda env: (env["N"], 1, 1),
                local_size=(TILE, 1, 1) if nvidia else (64, 1, 1),
            )
        ],
        rtol=1e-7,
    )


def build_nvidia() -> Benchmark:
    return _build_variant("nvidia")


def build_amd() -> Benchmark:
    return _build_variant("amd")


register("nbody-nvidia")(build_nvidia)
register("nbody-amd")(build_amd)

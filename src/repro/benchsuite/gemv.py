"""GEMV — y = alpha*A*x + beta*y (CLBlast-style).

One work-group per matrix row: local threads compute strided partial dot
products (the gather permutation makes global reads coalesced, section
7.2), stage them in local memory and tree-reduce with ``iterate`` — the
same shape as the paper's Listing 1.
"""

from __future__ import annotations

import numpy as np

from repro.arith import Var
from repro.types import ArrayType, FLOAT, array
from repro.ir.nodes import Expr, FunCall, Lambda, Param, UserFun
from repro.ir.dsl import (
    add,
    compose,
    f32,
    gather,
    get,
    id_fun,
    iterate,
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
    reduce_seq_unroll,
    split,
    to_global,
    to_local,
    zip_,
)
from repro.ir.patterns import stride_indices
from repro.benchsuite.common import (
    Benchmark,
    Characteristics,
    LiftStage,
    RefLaunch,
    register,
)

LOCAL = 16  # work-group size; must be a power of two
_LOG2_LOCAL = 4

_REFERENCE_TEMPLATE = """
kernel void GEMV(const global float * restrict A,
                 const global float * restrict x,
                 const global float * restrict y,
                 global float *out, int N, int K,
                 float alpha, float beta) {{
  local float part[{L}];
  for (int wg = get_group_id(0); wg < N; wg += get_num_groups(0)) {{
    int l = get_local_id(0);
    float s = 0.0f;
    for (int j = l; j < K; j += {L}) {{
      s = s + A[wg * K + j] * x[j];
    }}
    part[l] = s;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int sz = {L} / 2; sz > 0; sz = sz / 2) {{
      if (l < sz) {{ part[l] = part[l] + part[l + sz]; }}
      barrier(CLK_LOCAL_MEM_FENCE);
    }}
    if (l < 1) {{ out[wg] = alpha * part[0] + beta * y[wg]; }}
    barrier(CLK_GLOBAL_MEM_FENCE);
  }}
}}
"""

REFERENCE = _REFERENCE_TEMPLATE.format(L=LOCAL)


def axpby_fun() -> UserFun:
    return UserFun(
        "axpby",
        ["dot", "y", "alpha", "beta"],
        "return alpha * dot + beta * y;",
        [FLOAT, FLOAT, FLOAT, FLOAT],
        FLOAT,
        py=lambda dot, y, alpha, beta: alpha * dot + beta * y,
    )


def halving_step():
    """One tree-reduction step: halve the array by pairwise addition
    (the iterate body of Listing 1).  A pair is not a loop: the
    reference writes ``part[l] + part[l + sz]``, so the two-element
    reduction is unrolled."""
    return compose(
        join(),
        map_lcl(
            compose(
                to_local(map_seq(id_fun())), reduce_seq_unroll(add(), f32(0.0))
            )
        ),
        split(2),
    )


def dot_row_work_group(row_pairs: Expr, k) -> Expr:
    """Partial-dot + iterate tree-reduce over a zipped row (length k),
    yielding a one-element array in local memory.

    The per-thread chunk reduction is unrolled (CLBlast unrolls its
    work-per-thread loops the same way); unrolling turns the iteration
    index into a constant that the simplifier folds into every access.
    """
    musu = mult_and_sum_up()
    reduce_pairs = lam2(
        lambda acc, xy: FunCall(musu, [acc, get(xy, 0), get(xy, 1)])
    )
    chunk = k // LOCAL
    chunk_concrete = chunk.try_int() if hasattr(chunk, "try_int") else chunk
    reducer = (
        reduce_seq_unroll(reduce_pairs, f32(0.0))
        if chunk_concrete is not None and int(chunk_concrete) <= 8
        else reduce_seq(reduce_pairs, f32(0.0))
    )
    return compose(
        iterate(_LOG2_LOCAL, halving_step()),
        join(),
        map_lcl(compose(to_local(map_seq(id_fun())), reducer)),
        split(chunk),
        gather(stride_indices(LOCAL)),
    )(row_pairs)


def gemv_program(low_level: bool, k_val=None):
    # The low-level kernel is specialized for a concrete K so the local
    # staging buffers have compile-time sizes and the mapLcl trip counts
    # are provably equal to the work-group size.
    n = Var("N")
    k = k_val if (low_level and k_val is not None) else Var("K")
    a = Param(array(FLOAT, n, k), "A")
    x = Param(ArrayType(FLOAT, k), "x")
    y = Param(ArrayType(FLOAT, n), "y")
    alpha = Param(FLOAT, "alpha")
    beta = Param(FLOAT, "beta")
    axpby = axpby_fun()

    if not low_level:
        musu = mult_and_sum_up()
        reduce_pairs = lam2(
            lambda acc, xy: FunCall(musu, [acc, get(xy, 0), get(xy, 1)])
        )

        def per_row_hl(ry):
            dot = reduce_(reduce_pairs, f32(0.0))(zip_(get(ry, 0), x))
            return map_(
                lam(lambda d: FunCall(axpby, [d, get(ry, 1), alpha, beta]))
            )(dot)

        body = join()(map_(lam(per_row_hl))(zip_(a, y)))
        return Lambda([a, x, y, alpha, beta], body)

    def per_row(ry):
        partial = dot_row_work_group(zip_(get(ry, 0), x), k)
        finish = to_global(
            map_lcl(lam(lambda d: FunCall(axpby, [d, get(ry, 1), alpha, beta])))
        )
        return finish(partial)

    body = join()(map_wrg(lam(per_row))(zip_(a, y)))
    return Lambda([a, x, y, alpha, beta], body)


def build() -> Benchmark:
    def make_inputs(size_env, rng):
        n, k = size_env["N"], size_env["K"]
        return {
            "A": rng.random((n, k)),
            "x": rng.random(k),
            "y": rng.random(n),
            "alpha": 1.5,
            "beta": 0.75,
        }

    def oracle(inputs, size_env):
        return (
            inputs["alpha"] * (inputs["A"] @ inputs["x"])
            + inputs["beta"] * inputs["y"]
        )

    def ref_args(inputs, size_env, scratch):
        return {
            "A": inputs["A"],
            "x": inputs["x"],
            "y": inputs["y"],
            "out": np.zeros(size_env["N"]),
            "N": size_env["N"],
            "K": size_env["K"],
            "alpha": inputs["alpha"],
            "beta": inputs["beta"],
        }

    return Benchmark(
        name="gemv",
        source_suite="CLBlast",
        characteristics=Characteristics(
            local_memory=True,
            private_memory=False,
            vectorization=False,
            coalescing=True,
            iteration_space="1D",
        ),
        sizes={
            "small": {"N": 64, "K": 64},
            "large": {"N": 128, "K": 128},
        },
        make_inputs=make_inputs,
        oracle=oracle,
        reference_source=REFERENCE,
        reference_launches=[
            RefLaunch(
                kernel="GEMV",
                make_args=ref_args,
                global_size=lambda env: (min(env["N"], 32) * LOCAL, 1, 1),
                local_size=(LOCAL, 1, 1),
                out_arg="out",
            )
        ],
        high_level=lambda env: gemv_program(low_level=False),
        stages=[
            LiftStage(
                build=lambda env: gemv_program(low_level=True, k_val=env["K"]),
                param_names=["A", "x", "y", "alpha", "beta"],
                global_size=lambda env: (min(env["N"], 32) * LOCAL, 1, 1),
                local_size=(LOCAL, 1, 1),
            )
        ],
        rtol=1e-9,
    )


register("gemv")(build)

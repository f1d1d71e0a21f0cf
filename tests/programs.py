"""Shared Lift IL programs used across the test suite.

The central one is the paper's Listing 1: the partial dot product.
"""

from contextlib import contextmanager

import numpy as np

from repro.arith import Var
from repro.opencl import Buffer, OpenCLProgram, launch
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import FunCall, Lambda, Param
from repro.ir.dsl import (
    add,
    compose,
    f32,
    get,
    id_fun,
    iterate,
    join,
    lam,
    lam2,
    map_lcl,
    map_seq,
    map_wrg,
    mult_and_sum_up,
    reduce_seq,
    split,
    to_global,
    to_local,
    zip_,
)


#: The OpenCL kernel the backend, observability and resilience tests
#: launch: ``out = a * x + y`` on the work-items below ``n``.
SAXPY = """
kernel void SAXPY(const global float * restrict x,
                  const global float * restrict y,
                  global float *out, float a, int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""


def saxpy_args(n, xs=None):
    """SAXPY's arguments over ``n`` elements (``x`` = ``xs`` or 0..n-1)."""
    x = Buffer.from_array(xs if xs is not None else np.arange(n, dtype=float))
    return {"x": x, "y": Buffer.from_array(np.ones(n)), "out": Buffer.zeros(n),
            "a": 2.0, "n": n}


def run_saxpy(engine, n=64, local=16, **overrides):
    """``(out, counters as a dict)`` of a SAXPY launch on ``engine``."""
    args = saxpy_args(n)
    args.update(overrides)
    counters = launch(OpenCLProgram(SAXPY), n, local, args, engine=engine)
    return args["out"].data.copy(), vars(counters)


def partial_dot(n=None):
    """Listing 1: the partial dot product, one work-group per 128 elements.

    Returns a ``Lambda`` with two array parameters of length ``n`` (a fresh
    ``N`` variable if not given).
    """
    length = n if n is not None else Var("N")
    x = Param(ArrayType(FLOAT, length), "x")
    y = Param(ArrayType(FLOAT, length), "y")

    musu = mult_and_sum_up()
    reduce_pairs = lam2(
        lambda acc, xy: FunCall(musu, [acc, get(xy, 0), get(xy, 1)])
    )

    work_group = compose(
        join(),
        to_global(map_lcl(map_seq(id_fun()))),
        split(1),
        iterate(
            6,
            compose(
                join(),
                map_lcl(compose(to_local(map_seq(id_fun())), reduce_seq(add(), f32(0.0)))),
                split(2),
            ),
        ),
        join(),
        map_lcl(compose(to_local(map_seq(id_fun())), reduce_seq(reduce_pairs, f32(0.0)))),
        split(2),
    )

    body = compose(join(), map_wrg(work_group), split(128))(zip_(x, y))
    return Lambda([x, y], body)


def plus_one():
    from repro.ir.nodes import UserFun

    return UserFun(
        "plusOne", ["v"], "return v + 1.0f;", [FLOAT], FLOAT, py=lambda v: v + 1.0
    )


def simple_map_add_one(n=None):
    """mapGlb(plus_one) over a float array — the smallest useful kernel."""
    from repro.ir.dsl import map_glb

    length = n if n is not None else Var("N")
    x = Param(ArrayType(FLOAT, length), "x")
    return Lambda([x], map_glb(plus_one())(x))


def double_staged_rows(rows=4, cols=16):
    """A 2 x 2 grid of work-groups, each copying a ``rows`` x ``cols``
    tile through *two* local stagings per row:

        mapWrg(1)(mapWrg(0)(mapLcl(1)(
            toGlobal(mapLcl(0)(id)) o toLocal(mapLcl(0)(id))
                                    o toLocal(mapLcl(0)(id)))))

    The inner staging has no destination of its own, so its buffer must
    be multiplied by the enclosing ``mapLcl(1)`` trip count (paper
    section 5.2) — with one shared row, the ``rows`` work-item rows race
    (the schedule the explorer derives for ``mm`` via ``toLocal
    insertion``).  ``rows`` may be symbolic."""
    row = ArrayType(FLOAT, cols)
    x = Param(ArrayType(ArrayType(ArrayType(row, rows), 2), 2), "x")

    def copy(space):
        return space(map_lcl(id_fun(), 0))

    per_row = compose(copy(to_global), copy(to_local), copy(to_local))
    return Lambda([x], map_wrg(map_wrg(map_lcl(per_row, 1), 0), 1)(x))


def tiled_outer_sums(acc_space, chunk=8, tile=4, groups=2, tiles=3):
    """A work-group-tiled reduction, the shape of the n-body and matrix
    multiplication stages: ``out[i] = sum_j x[i] * y[j]``.

        join o mapWrg(λ xs.
            toGlobal(mapLcl(id)) o join o reduceSeq(λ acc, ys.
                (λ t. mapLcl(λ (a, x). reduceSeq(musu(·, x, ·), a)(t))
                          (zip(acc, xs)))
                  (toLocal(mapLcl(id))(ys)),
              acc_space(mapLcl(zero))(xs)) o split(tile) $ y
        ) o split(chunk) $ x

    ``acc_space`` is ``to_private`` or ``to_local``: where the array
    accumulator of the ``reduceSeq`` over tiles lives.  With ``to_local``
    its body is a ``mapLcl`` over ``zip(local, global)`` that stores into
    local memory.  ``chunk`` may exceed the local size (several slots per
    work-item) and ``tile`` need not equal it."""
    from repro.ir.nodes import UserFun
    from repro.ir.patterns import ReduceSeq

    x = Param(ArrayType(FLOAT, groups * chunk), "x")
    y = Param(ArrayType(FLOAT, tiles * tile), "y")
    zero = UserFun("zeroF", ["v"], "return 0.0f;", [FLOAT], FLOAT, py=lambda v: 0.0)
    musu = mult_and_sum_up()

    def per_group(xs):
        def per_tile(acc, ys):
            staged = Param(None, "t")

            def per_element(ax):
                step = lam2(lambda a, t: FunCall(musu, [a, get(ax, 1), t]))
                return FunCall(reduce_seq(step, get(ax, 0)), [staged])

            walk = join()(map_lcl(lam(per_element))(zip_(acc, xs)))
            return FunCall(
                Lambda([staged], walk), [to_local(map_lcl(id_fun()))(ys)]
            )

        sums = FunCall(
            ReduceSeq(lam2(per_tile)),
            [acc_space(map_lcl(zero))(xs), split(tile)(y)],
        )
        return to_global(map_lcl(id_fun()))(join()(sums))

    return Lambda([x, y], join()(map_wrg(lam(per_group))(split(chunk)(x))))


# ---------------------------------------------------------------------------
# repro.compiler.hoist has no switch; these reach the kernel before it
# ---------------------------------------------------------------------------

def compile_unhoisted(fun, options):
    """``compile_kernel`` with :func:`repro.compiler.hoist.hoist` taken
    out of the pipeline: the kernel the code generator printed before
    the pass existed."""
    from repro.compiler import codegen

    real, codegen.hoist = codegen.hoist, lambda body, params: body
    try:
        return codegen.compile_kernel(fun, options, memo=False)
    finally:
        codegen.hoist = real


def hoisted_source(source, params=None, sizes=(), kernel_name="KERNEL"):
    """Parse ``source``, run the pass on a kernel's body, print it back.

    ``params`` are a ``CompiledKernel``'s; for hand-written text the
    read-only buffers are the ``const ... restrict`` pointer parameters,
    as in generated kernels, and ``sizes`` names the size parameters."""
    from dataclasses import replace

    from repro.compiler import cast
    from repro.compiler.codegen import KernelParamInfo
    from repro.compiler.hoist import hoist
    from repro.opencl.cparser import parse

    fn = parse(source).functions[kernel_name]
    params = params or [
        KernelParamInfo(
            p.name,
            "in_buffer" if p.is_restrict and "const" in p.qualifiers
            else "out_buffer" if p.is_pointer
            else "size" if p.name in sizes else "scalar",
            p.type_name,
        )
        for p in fn.params
    ]
    before = cast.print_function(fn)
    assert before in source  # the printer and the parser agree on this text
    after = cast.print_function(replace(fn, body=hoist(fn.body, params)))
    assert cast.print_function(fn) == before  # the input tree is untouched
    return source.replace(before, after)


# ---------------------------------------------------------------------------
# the closure compiler's static types, checked against the values
# ---------------------------------------------------------------------------

class TypeRecord:
    """What :func:`checked_static_types` saw: expression nodes compiled
    (each with a static type), values checked, and values of nodes with
    an affine fact checked against it."""

    def __init__(self):
        self.typed = 0
        self.values = 0
        self.affine = 0


def holds_fact(b, m, value, fact) -> bool:
    """Whether ``value`` is ``u + sum(c * id)`` on the active lanes of
    block ``b`` for one uniform ``u`` (a fact whose coefficients are no
    ``int`` in this block claims nothing).  In a batched loop's virtual
    block (``simt._Chunk``) each iteration has a ``u`` of its own, and
    a coefficient reading a name the iterations change claims nothing
    there (the name holds an array of its iterations' values)."""
    import numpy as np

    from repro.opencl.simt_compile import _value_of

    ids = 0
    for k, coefficient in enumerate(fact):
        c = _value_of(coefficient, b)
        if c is None:
            return True
        ids = ids + c * b._basis[k]
    if not np.ndim(ids) and not np.ndim(value):
        return True
    uniform = np.broadcast_to(np.asarray(value) - ids, m.shape)
    count = getattr(b, "count", 1)  # lane l * count + j: iteration j
    columns = uniform.reshape(-1, count).T
    active = m.reshape(-1, count).T
    return all(np.unique(u[a]).size <= 1 for u, a in zip(columns, active))


def lane_type(v):
    """The type of a lane value: what a static type must predict."""
    import numpy as np

    from repro.opencl.interp import B, CType, F, I, VOID
    from repro.opencl.simt import RowPtr, VPtr

    if isinstance(v, np.ndarray):
        kind = v.dtype.kind
        if kind not in ("f", "i", "b"):
            return None
        return CType(kind, v.shape[1]) if v.ndim == 2 else CType(kind)
    if isinstance(v, (bool, np.bool_)):
        return B
    if isinstance(v, (int, np.integer)):
        return I
    if isinstance(v, (float, np.floating)):
        return F
    if isinstance(v, (VPtr, RowPtr)):
        kind = v.array.dtype.kind
        return CType("ptr", elem=kind if kind in "fi" else None)
    if isinstance(v, dict):
        return CType("struct")
    return VOID if v is None else None


def has_static_type(value, t) -> bool:
    """Whether a lane value is what the static type ``t`` says: an
    ``ndarray`` of its dtype kind with one column per component (1-D
    for one), or a Python / numpy scalar of its kind; a pointer to
    elements of its kind, a struct, nothing for ``void``."""
    actual = lane_type(value)
    if actual is None or actual.kind != t.kind:
        return False
    if t.kind == "ptr":
        return actual.elem == t.elem
    return t.kind in ("struct", "void") or actual.width == t.width


@contextmanager
def checked_static_types():
    """Compile every pipeline launched meanwhile afresh, with each
    expression closure checking that the values it returns have the
    static type the compiler gave its node (every node has one: the
    walk refuses a kernel it cannot type) and, on the active lanes, the
    affine fact it gave it.  Yields a :class:`TypeRecord`."""
    from repro.opencl import simt_compile
    from repro.opencl.runtime import _parse_cached

    compile_expr = simt_compile._compile_expr
    record = TypeRecord()

    def compile_checked(e, ctx):
        fn = compile_expr(e, ctx)
        t = ctx.type_of(e)
        assert t is not None, e
        record.typed += 1
        fact = ctx.fact(e)

        def checked(b, m, n):
            value = fn(b, m, n)
            assert has_static_type(value, t), (e, t, value)
            record.values += 1
            if fact is not None:
                assert holds_fact(b, m, value, fact), (e, fact, value)
                record.affine += 1
            return value

        return checked

    _parse_cached.cache_clear()  # no pipeline compiled before survives
    simt_compile._compile_expr = compile_checked
    try:
        yield record
    finally:
        simt_compile._compile_expr = compile_expr
        _parse_cached.cache_clear()


def _vec4s(flat) -> list:
    from repro.ir.interp import VecValue

    return [VecValue(chunk) for chunk in flat.reshape(-1, 4).tolist()]


#: The vector-typed benchmarks' interpreter runs: size environment,
#: input seed and the arguments built from the inputs.  N-Body, MD and
#: MRI-Q use float2/float4 values and tuple zips, so their inputs need
#: explicit conversion into the interpreter's value representation.
VECTOR_HIGH_LEVEL = {
    "nbody-amd": ({"N": 32}, 5, lambda i: [
        _vec4s(i["pos"]), _vec4s(i["vel"]), i["deltaT"], i["espSqr"],
    ]),
    "md": ({"N": 32, "J": 8}, 6, lambda i: [
        i["px"].tolist(), i["py"].tolist(), i["pz"].tolist(),
        i["neigh"].ravel().tolist(),
    ]),
    "mriq": ({"N": 16, "M": 8}, 7, lambda i: [
        i[k].tolist() for k in ("x", "y", "z", "kx", "ky", "kz", "mag")
    ]),
}

#: Benchmarks whose high-level program no test interprets.
UNINTERPRETED = ("nbody-nvidia",)


def high_level_case(name: str) -> tuple:
    """``(bench, program, args, size_env, inputs)``: the high-level
    program of benchmark ``name`` and the interpreter arguments its
    semantics tests apply it to — the ``small`` inputs nested per the
    parameter types, or :data:`VECTOR_HIGH_LEVEL`'s for the vector
    benchmarks."""
    import numpy as np

    from repro.benchsuite.common import get_benchmark

    bench = get_benchmark(name)
    if name in VECTOR_HIGH_LEVEL:
        size_env, seed, build = VECTOR_HIGH_LEVEL[name]
        inputs = bench.make_inputs(size_env, np.random.default_rng(seed))
        return bench, bench.high_level(size_env), build(inputs), size_env, inputs
    inputs, size_env = bench.inputs_for("small")
    program = bench.high_level(size_env)
    args = []
    for p, pname in zip(program.params, bench.stages[0].param_names):
        value = inputs[pname]
        if isinstance(value, np.ndarray):
            t = p.type
            if isinstance(t, ArrayType) and isinstance(t.elem, ArrayType):
                rows = int(
                    np.prod(value.shape[:-1])
                    if value.ndim > 1
                    else len(value) // int(t.elem.length.evaluate(size_env))
                )
                args.append(np.asarray(value).reshape(rows, -1).tolist())
            else:
                args.append(np.asarray(value).ravel().tolist())
        else:
            args.append(value)
    return bench, program, args, size_env, inputs


def flat_floats(value):
    """An interpreter result as one flat float64 array: nested lists and
    tuples in order, a vector's lanes in place."""
    import numpy as np

    from repro.ir.interp import VecValue

    out = []

    def walk(v):
        if isinstance(v, VecValue):
            out.extend(v.items)
        elif isinstance(v, (list, tuple)):
            for x in v:
                walk(x)
        else:
            out.append(v)

    walk(value)
    return np.asarray(out, dtype=float)

"""A seeded generator of OpenCL C kernels for the engines' differential
test: every engine must agree with the scalar oracle bit for bit.

Each kernel is one the lane tiers' plan admits
(:func:`repro.opencl.simt_compile.get_pipeline`) and well-typed by
construction.  It mixes int and float scalars, float vectors, casts
and comparisons in arithmetic; affine, strided and gathered indices,
pointer offsets and 2-D ids; ``if`` on ids and on data; loops of a
uniform trip count with straight-line bodies (which the engine batches,
some of them accumulating ``acc = acc ⊕ h``, which it closes) and
lane-varying loops; straight-line and branching helpers; local memory
behind a barrier, sometimes under control only a group's work-items
agree on (``if`` on the group id, a uniform-trip loop); a uniform
scale that changes after an index it scaled was stored; and a global
read that a barrier orders before another work-item's
read-modify-write of the same address.  Every index
it builds stays inside its buffer on every lane.

:func:`check` launches one kernel on ``scalar`` and on every run of
:data:`tests.engines.RUNS` (``auto`` and ``compiled`` over one block,
``compiled`` over several) and compares the buffers (bytes) and
``Counters``.  An engine may refuse a kernel only at run time, with a
``DataRace`` for a cross-lane race: a static refusal
(``CompileUnsupported``) of a generated kernel fails the check.  Run a
seed range by hand (it prints the acceptance share and the races per
message)::

    PYTHONPATH=src python -m tests.kernelgen 0 200
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from unittest import mock

import numpy as np

from repro.opencl import Buffer, DataRace, OpenCLProgram, launch, simt, simt_compile
from tests.engines import RUNS, check_engines

#: The block cap the checks run under (``simt.MAX_LANES`` patched).
BLOCK = 256
#: The fewest iterations a batched loop's chunk runs under the checks
#: (``simt_compile.MIN_CHUNK`` and ``MIN_CLOSED_CHUNK`` patched): a block
#: of 64 lanes leaves room for 4 iterations per chunk.
CHUNK = 2

#: (global size, local size) per launch shape: small 1-D; more lanes
#: than one block holds, the last block ragged (three work-groups); 2-D.
SHAPES = (
    ((64, 1), (16, 1)),
    ((BLOCK + 3 * 32, 1), (32, 1)),
    ((16, 8), (8, 4)),
)

#: How far an affine index may reach past ``STRIDE * lanes``.
REACH = 24
STRIDE = 3


@dataclass
class Kernel:
    """A generated kernel, the seed its inputs are drawn from and how
    many loops of a uniform trip count it holds (each batched)."""

    seed: int
    source: str
    counted_loops: int = 0
    closed_loops: int = 0  # of which the engine closes (``acc = acc ⊕ h``)


def buffer_size(lanes: int) -> int:
    """Every buffer's length: room for ``vload4`` at the lane index and
    for any affine index the generator builds."""
    return 4 * lanes + STRIDE * lanes + REACH + 8


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.side = random.Random(-1 - seed)
        self.lines: list = []
        self.floats: list = []  # float names in scope
        self.ints: list = []  # lane-varying int names in scope
        self.counter = 0
        self.depth = 0
        self.counted_loops = 0
        self.closed_loops = 0

    # -- names -------------------------------------------------------------
    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def emit(self, line: str) -> None:
        self.lines.append("  " * (self.depth + 1) + line)

    # -- expressions ---------------------------------------------------------
    def index(self, loop: str = "") -> str:
        """An int in ``[0, buffer_size)`` on every lane."""
        r = self.rng
        kind = r.randrange(4)
        if kind == 0:
            return str(r.randrange(REACH))  # lane-uniform
        extra = f" + {loop}" if loop else ""
        if kind == 1:  # affine, unit or strided
            a = r.randrange(1, STRIDE + 1)
            return f"{a} * i + {r.randrange(REACH - 4)}{extra}"
        if kind == 2:  # through a local or group id
            return f"l + {r.randrange(REACH - 4)}{extra}"
        return f"idx[i + {r.randrange(REACH - 4)}]"  # gathered

    def int_expr(self, depth: int = 0) -> str:
        r = self.rng
        atoms = ["i", "l", "g", "n", str(r.randrange(1, 9))] + self.ints
        if depth > 1 or r.random() < 0.4:
            return r.choice(atoms)
        op = r.choice(["+", "-", "*", "/", "%", "<", "cmp"])
        a = self.int_expr(depth + 1)
        if op in ("/", "%"):
            return f"({a} {op} {r.choice([2, 3, 4, 7])})"
        if op == "cmp":  # comparisons in arithmetic
            return f"(({a} < {r.randrange(9)}) + ({self.int_expr(depth + 1)} > 2))"
        if op == "<":
            return f"({a} < {self.int_expr(depth + 1)})"
        return f"({a} {op} {self.int_expr(depth + 1)})"

    def load(self, loop: str = "") -> str:
        r = self.rng
        kind = r.randrange(6)
        if kind == 0:
            return f"q[{self.index(loop)}]"  # through an offset pointer
        if kind == 1:
            return f"vload4(i, x).{r.choice('xyzw')}"
        if kind == 2:
            return f"(float) k[{self.index(loop)}]"
        return f"{r.choice(['x', 'y'])}[{self.index(loop)}]"

    def float_expr(self, depth: int = 0, loop: str = "") -> str:
        r = self.rng
        if depth > 2 or r.random() < 0.3:
            atoms = [self.load(loop), f"{r.randrange(1, 40) / 8}f"] + self.floats
            return r.choice(atoms)
        kind = r.randrange(8)
        a = self.float_expr(depth + 1, loop)
        b = self.float_expr(depth + 1, loop)
        if kind == 0:
            return f"line({a}, {b})"
        if kind == 1:
            return f"bend({a}, {self.int_expr(1)})"
        if kind == 2:
            return f"fmax({a}, {b})"
        if kind == 3:
            return f"sqrt({a} * {a} + 1.0f)"
        if kind == 4:
            return f"((float) {self.int_expr(1)} + {a})"
        if kind == 5:
            return f"({a} < {b} ? {a} : {b})"
        return f"({a} {r.choice('+-*')} {b})"

    def cond(self) -> str:
        r = self.rng
        kind = r.randrange(4)
        if kind == 0:
            return f"i < n - {r.randrange(8)}"  # a bound on an affine id
        if kind == 1:
            return f"l % {r.choice([2, 3])} == 0"
        if kind == 2:
            return f"{self.load()} > {r.randrange(8)}.5f"  # on data
        return f"g < {r.randrange(1, 4)}"  # group-uniform

    # -- statements -----------------------------------------------------------
    def assign(self, loop: str = "") -> None:
        target = self.rng.choice(self.floats)
        self.emit(f"{target} = {self.float_expr(loop=loop)};")

    def statement(self) -> None:
        r = self.rng
        kind = r.randrange(7)
        if kind == 0:
            name = self.fresh("f")
            self.emit(f"float {name} = {self.float_expr()};")
            self.floats.append(name)
        elif kind == 1:
            name = self.fresh("k")
            self.emit(f"int {name} = {self.int_expr()};")
            self.ints.append(name)
        elif kind == 2:
            self.emit(f"if ({self.cond()}) {{")
            self.depth += 1
            self.assign()
            self.depth -= 1
            if r.random() < 0.5:
                self.emit("} else {")
                self.depth += 1
                self.assign()
                self.depth -= 1
            self.emit("}")
        elif kind == 3:
            self.counted()
        elif kind == 4:  # lane-varying trip count
            t = self.fresh("t")
            self.emit(f"for (int {t} = 0; {t} < l % 3 + (n > 4); {t} = {t} + 1) {{")
            self.depth += 1
            self.assign(loop=t)
            self.depth -= 1
            self.emit("}")
        elif kind == 5:
            name = self.fresh("v")
            self.emit(f"float4 {name} = vload4({self.rng.choice(['i', 'l', '2'])}, y);")
            self.emit(f"{self.rng.choice(self.floats)} = {name}.x + {name}.w;")
        else:
            self.assign()

    def counted(self) -> None:
        """A loop of 0 to 40 trips that every lane shares, whose
        straight-line body declares names of its own, loads a vector
        and calls a straight-line helper: the engine batches it."""
        r = self.rng
        t, f, w = self.fresh("t"), self.fresh("b"), self.fresh("w")
        self.counted_loops += 1
        self.emit(f"for (int {t} = 0; {t} < {r.randrange(41)}; {t} += 1) {{")
        self.depth += 1
        self.emit(f"float {f} = {self.float_expr(loop=t)};")
        self.emit(f"float4 {w} = vload4({t} + {r.randrange(8)}, y);")
        if r.random() < 0.5:
            self.emit(f"{f} = line({f}, {w}.{r.choice('xyzw')});")
        target = r.choice(self.floats)
        # line(a, 0.5f) is 0.5f - 0.5f * a: the accumulator stays bounded.
        self.emit(
            f"{target} = line({target}, 0.5f)"
            f" + 0.125f * ({f} + {w}.{r.choice('xyzw')});"
        )
        self.depth -= 1
        self.emit("}")
        self.accumulated()

    def accumulated(self) -> None:
        """Half the time, a loop of 0 to 40 trips whose one carried
        statement is ``z = z + h``, ``z = h + z`` or ``z = z * h`` over a
        float, float2 or float4, sometimes under ``if (l < K)``: the
        engine closes its chain.  Drawn from ``side``, with names of its
        own, so the rest of a seed's kernel is the same with or without
        it."""
        r = self.side
        if r.random() < 0.5:
            return
        self.counted_loops += 1
        self.closed_loops += 1
        t, z = f"u{self.closed_loops}", f"z{self.closed_loops}"
        width, op = r.choice([1, 2, 4]), r.choice(["acc + h", "h + acc", "acc * h"])
        c = r.randrange(8)
        if width == 1:
            zero, h = "x[i]", r.choice([
                f"y[{t} + {c}] * 0.5f", f"x[i + {t}] - y[{t}]",
                f"0.75f + 0.125f * y[l + {t}]",
            ])
            result = z
        elif width == 2:
            zero, h = "(float2)(x[i], 1.0f)", f"(float2)(y[{t} + {c}], x[i + {t}] * 0.5f)"
            result = f"{z}.x + {z}.y"
        else:
            zero = "vload4(i, x)"
            h = f"vload4({t} + {c}, y) * 0.125f + (float4)(0.75f)"
            result = f"{z}.y + {z}.w"
        if op == "acc * h" and width == 1:
            h = f"0.75f + 0.125f * y[{t} + {c}]"
        self.emit(f"{'float' if width == 1 else f'float{width}'} {z} = {zero};")
        guarded = r.random() < 0.3
        if guarded:
            self.emit(f"if (l < {r.randrange(1, 16)}) {{")
            self.depth += 1
        self.emit(f"for (int {t} = 0; {t} < {r.randrange(41)}; {t} += 1) {{")
        self.emit(f"  {z} = {op.replace('acc', z).replace('h', f'({h})', 1)};")
        self.emit("}")
        if guarded:
            self.depth -= 1
            self.emit("}")
        self.emit(f"acc = acc + 0.125f * ({result});")

    def rescaled(self) -> None:
        """Half the time, a load at an index scaled by a uniform name
        that changes after the index was stored.  Drawn from ``side``, so
        the rest of a seed's kernel is the same with or without it."""
        r = self.side
        if r.random() < 0.5:
            return
        s, j = self.fresh("s"), self.fresh("j")
        a = r.randrange(1, STRIDE + 1)
        self.emit(f"int {s} = {a};")
        self.emit(f"int {j} = l * {s} + {r.randrange(REACH - 4)};")
        self.emit(f"{s} = {a % STRIDE + 1};")
        target = self.floats[-1]  # stored to out
        self.emit(f"{target} = {target} + x[{j}] * (float) {s};")

    def guarded(self, start: int, stop: int) -> None:
        """Two times in three, put lines ``start:stop`` (the barrier
        stage) under control the work-items of each group agree on:
        ``if (g < K)`` on the group id, which the grid's work-items do
        not agree on, or a uniform-trip loop whose trips a second
        barrier separates.  Drawn from ``side`` after everything else,
        so the rest of a seed's kernel is the same with or without it."""
        r = self.side
        kind = r.randrange(3)
        if kind == 0:
            return
        pad = "  " * (self.depth + 1)
        stage = ["  " + line for line in self.lines[start:stop]]
        if kind == 1:
            head = f"if (g < {r.randrange(1, 4)}) {{"
        else:
            head = f"for (int trip = 0; trip < {r.randrange(1, 3)}; trip += 1) {{"
            stage.append(pad + "  barrier(CLK_LOCAL_MEM_FENCE);")
        self.lines[start:stop] = [pad + head, *stage, pad + "}"]

    def ordered(self) -> None:
        """Half the time, a read of ``out2`` at its work-group's own
        address (past what the rest of the kernel stores there) before a
        barrier, and another work-item's read-modify-write of it after:
        the barrier orders the two, so no engine may call it a race.
        Drawn from ``side`` after everything else, so the rest of a
        seed's kernel is the same with or without it."""
        r = self.side
        if r.random() < 0.5:
            return
        self.emit("int own = 4 * n + g;")
        read = "acc = acc + out2[own];"
        self.emit(read if r.random() < 0.5 else f"if (l == 0) {{ {read} }}")
        self.emit("barrier(CLK_GLOBAL_MEM_FENCE);")
        self.emit(f"if (l == {r.randrange(1, 4)}) {{ out2[own] = out2[own] * 0.5f + 1.0f; }}")

    def kernel(self, two_d: bool) -> str:
        r = self.rng
        ident = (
            "get_global_id(0) + get_global_size(0) * get_global_id(1)"
            if two_d else "get_global_id(0)"
        )
        local = (
            "get_local_id(0) + get_local_size(0) * get_local_id(1)"
            if two_d else "get_local_id(0)"
        )
        group = "get_group_id(0) + get_num_groups(0) * get_group_id(1)" if two_d \
            else "get_group_id(0)"
        self.emit(f"int i = {ident};")
        self.emit(f"int l = {local};")
        self.emit(f"int g = {group};")
        self.emit(f"const global float *q = x + {r.randrange(1, 8)};")
        self.emit(f"float acc = {self.float_expr()};")
        self.floats.append("acc")
        for _ in range(r.randrange(2, 6)):
            self.statement()
        stage = None
        if r.random() < 0.5:  # local memory behind a barrier
            start = len(self.lines)
            self.emit(f"tmp[l] = {self.float_expr()};")
            self.emit("barrier(CLK_LOCAL_MEM_FENCE);")
            self.emit(f"acc = acc + tmp[(l + {r.randrange(1, 5)}) % LS];")
            stage = (start, len(self.lines))
            for _ in range(r.randrange(2)):
                self.statement()
        if r.random() < 0.1:  # reads what another lane stored: a race
            self.emit("out2[l] = acc;")
            self.emit("acc = acc + out2[l + 1];")
        self.rescaled()
        if stage is not None:
            self.guarded(*stage)
        self.ordered()
        self.emit(f"out[i] = {' + '.join(self.floats[-3:])};")
        if r.random() < 0.4:
            self.emit(f"vstore2((float2)(acc, {self.float_expr()}), i, out2);")
        return "\n".join(self.lines)


HELPERS = """
float line(float a, float b) { float c = a * b; float d = c - a; return d + 0.5f; }

float bend(float a, int k) {
  if (k > 2) { return a * 2.0f; }
  for (int j = 0; j < k % 4; j += 1) { a = a - 0.25f; }
  return a;
}
"""


def generate(seed: int, two_d: bool = False, local_lanes: int = 16) -> Kernel:
    """The kernel of ``seed`` (a 2-D launch's when ``two_d``)."""
    gen = _Gen(seed)
    body = gen.kernel(two_d)
    source = (
        HELPERS
        + "\nkernel void K(const global float * restrict x,"
        " const global float * restrict y, const global int * restrict k,"
        " const global int * restrict idx, global float *out,"
        " global float *out2, int n) {\n"
        f"  local float tmp[{local_lanes}];\n"
        + body.replace("% LS", f"% {local_lanes}")
        + "\n}\n"
    )
    return Kernel(seed, source, gen.counted_loops, gen.closed_loops)


def arguments(kernel: Kernel, lanes: int) -> dict:
    """Fresh buffers for one launch of ``lanes`` work-items."""
    rng = np.random.default_rng(kernel.seed)
    size = buffer_size(lanes)
    return {
        "x": Buffer.from_array(rng.uniform(-4, 4, size)),
        "y": Buffer.from_array(rng.uniform(-4, 4, size)),
        "k": Buffer.from_array(rng.integers(-9, 9, size)),
        "idx": Buffer.from_array(rng.integers(0, size - 8, size)),  # q is x + 1..7
        "out": Buffer.zeros(size),
        "out2": Buffer.zeros(2 * size),
        "n": lanes - int(rng.integers(0, 6)),
    }


def run(kernel: Kernel, engine: str, gsize: tuple, lsize: tuple):
    """``(buffers as bytes, Counters)`` of one launch."""
    args = arguments(kernel, gsize[0] * gsize[1])
    counters = launch(OpenCLProgram(kernel.source), gsize, lsize, args, engine=engine)
    data = {k: v.data.tobytes() for k, v in args.items() if isinstance(v, Buffer)}
    return data, counters


def check(seed: int, shape: int) -> list:
    """Launch kernel ``seed`` in launch shape ``shape`` on every engine;
    assert each agrees with ``scalar`` or raises ``DataRace``.  The
    messages of the races raised (none: every run completed)."""
    (g0, g1), (l0, l1) = SHAPES[shape]
    kernel = generate(seed, two_d=g1 > 1, local_lanes=l0 * l1)
    gsize, lsize = (g0, g1), (l0, l1)
    program = OpenCLProgram(kernel.source)
    plan = simt_compile.get_pipeline(program.parsed, program.kernel())
    assert (plan.batched, plan.closed) == (kernel.counted_loops, kernel.closed_loops), (
        seed, kernel.source
    )
    try:
        with mock.patch.object(simt, "MAX_LANES", BLOCK), \
                mock.patch.object(simt_compile, "MIN_CHUNK", CHUNK), \
                mock.patch.object(simt_compile, "MIN_CLOSED_CHUNK", CHUNK):
            results = check_engines(
                lambda engine: run(kernel, engine, gsize, lsize),
                gsize, lsize, races=True,
            )
    except AssertionError as failure:
        raise AssertionError(seed, shape, kernel.source) from failure
    return [str(results[r]) for r in RUNS if isinstance(results[r], DataRace)]


def main(start: int, stop: int) -> None:
    accepted = total = 0
    races: Counter = Counter()
    for seed in range(start, stop):
        for shape in range(len(SHAPES)):
            if shape == 1 and seed % 8:
                continue  # the many-lane shape: every eighth seed
            raised = check(seed, shape)
            races.update(raised)
            accepted += not raised
            total += 1
    print(f"kernelgen seeds {start}..{stop}: {accepted}/{total} launches "
          f"run by every engine in every layout ({accepted / total:.0%})")
    for message, count in sorted(races.items()):
        print(f"  {count:5d} races: {message}")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))

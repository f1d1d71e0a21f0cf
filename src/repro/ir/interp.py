"""Reference interpreter for the Lift IL.

Executes a Lift IR graph on Python values, giving the patterns their
paper semantics (section 3.2).  Its purpose is *differential testing*:
the NumPy oracle, this interpreter and the generated OpenCL kernel on
the simulator must agree, and the explorer verifies every schedule it
launches against this interpreter bit for bit.

Each :func:`apply_fun` or :func:`evaluate` call translates the program
once into nested closures and runs them, as :mod:`repro.opencl.
simt_compile` does for kernels: an ``Expr`` becomes a closure of no
arguments, a ``FunDecl`` a callable (a ``UserFun`` is its ``py``).  A
``Param`` reads a *cell* that its ``Lambda`` sets when applied and
restores on return, so a parameter bound by two lambdas, one applied
inside the other, reads its own binding.  Cells belong to the one call,
so threads interpreting at once share nothing.  Errors are raised, and
size payloads evaluated, when their node is applied.

Values are represented as:

* scalars — Python ``float``/``int``;
* tuples — Python ``tuple``;
* arrays — Python ``list`` (nested for multi-dimensional arrays);
* vectors — :class:`VecValue` (distinct from arrays on purpose).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Mapping

from repro.arith import simplify
from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Literal, Param, UserFun
from repro.ir import patterns as pat
from repro.types import VectorType


class VecValue:
    """An OpenCL vector value of fixed width."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)

    @property
    def width(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VecValue) and other.items == self.items

    def __repr__(self) -> str:
        return f"VecValue{self.items}"


_UNBOUND = object()

#: The closure of a call on 0 to 4 argument closures, spelled out (a
#: list of arguments costs a comprehension per call); with none, it is
#: the function itself.
_CALLS = (
    lambda fn: fn,
    lambda fn, a: lambda: fn(a()),
    lambda fn, a, b: lambda: fn(a(), b()),
    lambda fn, a, b, c: lambda: fn(a(), b(), c()),
    lambda fn, a, b, c, d: lambda: fn(a(), b(), c(), d()),
)


def _raise(error: Exception) -> Callable:
    def fail(*_):
        raise error

    return fail


class _Translation:
    """One program's closures, their parameter cells and its sizes."""

    def __init__(self, size_env: Mapping[str, int] | None):
        self.size_env = dict(size_env or {})
        self.cells: dict = {}

    def cell(self, p: Param) -> list:
        return self.cells.setdefault(p, [_UNBOUND])

    def size(self, e) -> int:
        """A size payload's value, evaluated whenever its node runs."""
        return int(simplify(e).evaluate(self.size_env))

    def expr(self, e: Expr) -> Callable[[], Any]:
        if isinstance(e, Literal):
            value = e.value
            if isinstance(e.type, VectorType):
                # Vector literals broadcast, as in OpenCL: (float4)(0.0f).
                value = VecValue([value] * e.type.width)
            return lambda: value
        if isinstance(e, Param):
            cell, name = self.cell(e), e.name

            def read():
                if cell[0] is _UNBOUND:
                    raise KeyError(f"unbound parameter {name}")
                return cell[0]

            return read
        assert isinstance(e, FunCall), e  # the last expression class
        fn, args = self.fun(e.f), [self.expr(a) for a in e.args]
        if len(args) < len(_CALLS):
            return _CALLS[len(args)](fn, *args)
        return lambda: fn(*[a() for a in args])

    def inline(self, f: FunDecl, arity: int) -> tuple:
        """``(cells, body)``: ``f`` applied to ``arity`` values is the
        cells set to them and ``body()`` called — with no call of
        ``f`` in between when it is a lambda of that many parameters."""
        if isinstance(f, Lambda) and len(f.params) == arity:
            return [self.cell(p) for p in f.params], self.expr(f.body)
        g, cells = self.fun(f), [[None] for _ in range(arity)]
        return cells, lambda: g(*[c[0] for c in cells])

    def fun(self, f: FunDecl) -> Callable:
        if isinstance(f, Lambda):
            cells, body = [self.cell(p) for p in f.params], self.expr(f.body)

            def apply(*args):
                saved = [c[0] for c in cells]
                for c, a in zip(cells, args):
                    c[0] = a
                result = body()
                for c, old in zip(cells, saved):
                    c[0] = old
                return result

            return apply
        if isinstance(f, UserFun):
            if f.py is None:
                return _raise(NotImplementedError(
                    f"user function {f.name} has no Python semantics"
                ))
            return f.py
        if isinstance(f, pat.AddressSpaceWrapper):
            return self.fun(f.f)
        # Every pattern class has semantics here (an ancestor's at least).
        cls = next(cls for cls in type(f).__mro__ if cls in _PATTERNS)
        return _PATTERNS[cls](self, f)


def _map(t: _Translation, f: pat.AbstractMap) -> Callable:
    ((cell,), body) = t.inline(f.f, 1)

    def map_(xs):
        saved, out = cell[0], []
        for x in xs:
            cell[0] = x
            out.append(body())
        cell[0] = saved
        return out

    return map_


def _reduce(t: _Translation, f: pat.ReduceSeq) -> Callable:
    ((acc, cell), body) = t.inline(f.f, 2)

    def reduce_(init, xs):
        saved = acc[0], cell[0]
        acc[0] = init
        for x in xs:
            cell[0] = x
            acc[0] = body()
        result = acc[0]
        acc[0], cell[0] = saved
        return [result]

    return reduce_


def _iterate(t: _Translation, f: pat.Iterate) -> Callable:
    g = t.fun(f.f)

    def iterate_(xs):
        for _ in range(t.size(f.n)):
            xs = g(xs)
        return xs

    return iterate_


def _chunks(name: str, k: int, xs: list, wrap=None) -> list:
    """``xs`` cut into chunks of ``k``, as ``name(k)`` cuts it."""
    if len(xs) % k:
        raise ValueError(f"{name}({k}) of array of length {len(xs)}")
    chunks = [xs[i : i + k] for i in range(0, len(xs), k)]
    return chunks if wrap is None else [wrap(c) for c in chunks]


def _scatter(idx_fun: pat.IndexFun, xs: list, size_env: dict) -> list:
    out = [None] * len(xs)
    for i, x in enumerate(xs):
        out[idx_fun.eval(i, len(xs), size_env)] = x
    return out


def _zip(*arrays):
    if any(len(a) != len(arrays[0]) for a in arrays[1:]):
        raise ValueError("zip of arrays with different lengths")
    return list(zip(*arrays))


def _slide(xs: list, size: int, step: int) -> list:
    count = (len(xs) - size) // step + 1
    return [xs[i * step : i * step + size] for i in range(count)]


#: Each pattern's closure factory ``(translation, pattern) -> callable``,
#: found along the pattern's MRO.
_PATTERNS = {
    pat.AbstractMap: _map,
    pat.ReduceSeq: _reduce,
    pat.Iterate: _iterate,
    pat.Split: lambda t, f: lambda xs: _chunks("split", t.size(f.n), xs),
    pat.Join: lambda t, f: lambda xs: [x for chunk in xs for x in chunk],
    pat.Gather: lambda t, f: lambda xs: [
        xs[f.idx_fun.eval(i, len(xs), t.size_env)] for i in range(len(xs))
    ],
    pat.Scatter: lambda t, f: lambda xs: _scatter(f.idx_fun, xs, t.size_env),
    pat.Transpose: lambda t, f: lambda xs: [list(col) for col in zip(*xs)],
    pat.Zip: lambda t, f: _zip,
    pat.Get: lambda t, f: itemgetter(f.index),
    pat.MakeTuple: lambda t, f: lambda *args: tuple(args),
    pat.Head: lambda t, f: lambda xs: xs[0],
    pat.Filter: lambda t, f: lambda data, idx: [data[int(j)] for j in idx],
    pat.Slide: lambda t, f: lambda xs: _slide(xs, t.size(f.size), t.size(f.step)),
    pat.Pad: lambda t, f: lambda xs: [xs[0]] * f.left + list(xs) + [xs[-1]] * f.right,
    pat.AsVector: lambda t, f: lambda xs: _chunks("asVector", f.width, xs, VecValue),
    pat.AsScalar: lambda t, f: lambda xs: [lane for v in xs for lane in v.items],
}


def evaluate(
    expr: Expr,
    bindings: Mapping[Param, Any],
    size_env: Mapping[str, int] | None = None,
) -> Any:
    """Evaluate an IR expression with the given parameter bindings."""
    t = _Translation(size_env)
    for p, value in bindings.items():
        t.cell(p)[0] = value
    return t.expr(expr)()


def apply_fun(
    f: FunDecl,
    args: list,
    size_env: Mapping[str, int] | None = None,
) -> Any:
    """Apply a function declaration to Python values."""
    return _Translation(size_env).fun(f)(*args)

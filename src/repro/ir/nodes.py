"""The Lift IR node classes (paper section 4, Figure 2).

Programs are graphs of two kinds of objects:

* :class:`Expr` — values: literals, parameters, and function calls;
* :class:`FunDecl` — things that can be called: lambdas, user functions
  and the built-in patterns (defined in :mod:`repro.ir.patterns`).

Compiler passes annotate expressions in place (``type``, ``addr_space``,
``mem``, ``view``), mirroring the mutable-graph design of the original
Scala implementation, which avoids wholesale renaming when transforming
functional programs.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional, Sequence

from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.memory import Memory
    from repro.compiler.views import View

_param_counter = itertools.count()


class AddressSpace(enum.Enum):
    """The three OpenCL address spaces (paper section 3.2)."""

    GLOBAL = "global"
    LOCAL = "local"
    PRIVATE = "private"

    def __str__(self) -> str:
        return self.value


class Expr:
    """Base class of IR expressions.

    ``type`` is filled in by type inference, ``addr_space`` by Algorithm 1,
    ``mem`` by memory allocation and ``view`` by the view construction that
    runs inside code generation.
    """

    __slots__ = ("type", "addr_space", "mem", "view")

    def __init__(self) -> None:
        self.type: Optional[DataType] = None
        self.addr_space: Optional[AddressSpace] = None
        self.mem: Optional["Memory"] = None
        self.view: Optional["View"] = None


class Literal(Expr):
    """A compile-time constant such as ``0.0f``."""

    __slots__ = ("value", "_key")

    def __init__(self, value: float | int | str, type_: DataType):
        super().__init__()
        self.value = value
        self.type = type_
        self._key = None

    def __repr__(self) -> str:
        return f"Literal({self.value})"


class Param(Expr):
    """A function parameter; its value is bound at each call site."""

    __slots__ = ("name",)

    def __init__(self, type_: Optional[DataType] = None, name: Optional[str] = None):
        super().__init__()
        self.type = type_
        self.name = name if name is not None else f"p_{next(_param_counter)}"

    def __repr__(self) -> str:
        return f"Param({self.name})"


class FunCall(Expr):
    """Application of a function declaration to argument expressions.

    ``f`` and ``args`` are write-once (:mod:`repro.ir.visit`): ``_key``
    caches the structural key computed from them.
    """

    __slots__ = ("f", "args", "_key")

    def __init__(self, f: "FunDecl", args: Sequence[Expr]):
        super().__init__()
        if len(args) != f.arity:
            raise TypeError(
                f"{f} expects {f.arity} argument(s), got {len(args)}"
            )
        self.f = f
        self.args = tuple(args)
        self._key = None

    def __repr__(self) -> str:
        return f"FunCall({self.f!r}, {len(self.args)} args)"


class FunDecl:
    """Base class of anything callable: lambdas, patterns, user functions."""

    __slots__ = ()

    arity: int = 1

    def __call__(self, *args: Expr) -> FunCall:
        return FunCall(self, args)

    def name_hint(self) -> str:
        return type(self).__name__


class Lambda(FunDecl):
    """An anonymous function with explicit parameters and a body
    (write-once; ``_key`` caches its structural key as a root program)."""

    __slots__ = ("params", "body", "_key")

    def __init__(self, params: Sequence[Param], body: Expr):
        self.params = tuple(params)
        self.body = body
        self._key = None

    @property
    def arity(self) -> int:  # type: ignore[override]
        return len(self.params)

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.params)
        return f"Lambda({names})"


class UserFun(FunDecl):
    """A user function: a C expression over scalar/vector/tuple values.

    ``body`` is the C function body (it must ``return`` a value); the code
    generator pastes it into the kernel as a helper function.  The Lift IL
    restricts user functions to non-array types (paper section 3.2).
    """

    __slots__ = (
        "name", "param_names", "body", "in_types", "out_type", "py", "_text",
    )

    def __init__(
        self,
        name: str,
        param_names: Sequence[str],
        body: str,
        in_types: Sequence[DataType],
        out_type: DataType,
        py=None,
    ):
        from repro.types import ArrayType

        if len(param_names) != len(in_types):
            raise TypeError("UserFun parameter names and types differ in length")
        for t in tuple(in_types) + (out_type,):
            if isinstance(t, ArrayType):
                raise TypeError("user functions may not take or return arrays")
        self.name = name
        self.param_names = tuple(param_names)
        self.body = body
        self.in_types = tuple(in_types)
        self.out_type = out_type
        # Optional Python semantics, used by the reference interpreter for
        # differential testing against generated OpenCL code.
        self.py = py
        #: What the function contributes to a structural key.
        self._text = None

    @property
    def arity(self) -> int:  # type: ignore[override]
        return len(self.in_types)

    def vectorized(self, width: int) -> "UserFun":
        """A vector-width-``width`` version of this function.

        OpenCL arithmetic is defined component-wise on vector types, so the
        same C body works as long as it only uses arithmetic operators and
        vector-capable built-ins (paper section 3.2, vectorize pattern).
        """
        from repro.types import ScalarType, VectorType

        def vec(t: DataType) -> DataType:
            if isinstance(t, ScalarType):
                return VectorType(t, width)
            return t

        vec_py = None
        if self.py is not None:
            scalar_py = self.py

            def vec_py(*args):  # noqa: F811 - deliberate conditional def
                from repro.ir.interp import VecValue

                lanes = []
                for lane in range(width):
                    lane_args = [
                        a.items[lane] if isinstance(a, VecValue) else a for a in args
                    ]
                    lanes.append(scalar_py(*lane_args))
                return VecValue(lanes)

        return UserFun(
            f"{self.name}{width}",
            self.param_names,
            self.body,
            [vec(t) for t in self.in_types],
            vec(self.out_type),
            py=vec_py,
        )

    def name_hint(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"UserFun({self.name})"


class Pattern(FunDecl):
    """Base class of the built-in algorithmic and data-layout patterns.

    Every traversal (clone, rewrite, canonical form, size
    specialization) walks and rebuilds patterns through this structural
    protocol alone, so none of them names a concrete subclass:

    * ``f`` — the nested function, absent on leaves.  A pattern that
      nests one stores it in a slot called ``f`` and defines
      ``with_f(g)``: the same pattern and payload around ``g``.
    * ``payload`` — the names of the static slots (split factor, thread
      dimension, ...) in constructor order; ``with_payload(*values)``
      rebuilds the pattern with new ones.

    Both are write-once: the structural key of a call
    (:mod:`repro.ir.structural`) is computed from them, once.
    """

    __slots__ = ()

    payload: tuple = ()

    def with_payload(self, *values) -> "Pattern":
        return type(self)(*values)

    def infer_type(self, arg_types: Sequence[DataType], call: FunCall) -> DataType:
        raise NotImplementedError(f"{type(self).__name__} has no type rule")

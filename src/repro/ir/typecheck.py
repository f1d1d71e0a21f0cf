"""Type analysis for Lift IR graphs (paper section 5.1).

Types of function bodies are inferred from parameter types by traversing
the graph following the data flow.  Every expression node is annotated in
place with its type; the same pass is re-run by the compiler after
rewrites.
"""

from __future__ import annotations

from contextvars import ContextVar
from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence

from repro.types import DataType
from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Param, UserFun
from repro.ir.patterns import LiftTypeError, Pattern
from repro.ir.structural import key

#: While a :class:`TypeMemo` types a call: how the lambda its function
#: ends in is applied (``(lam, arg_types) -> result type``) instead of
#: annotating the lambda's parameters and body in place.
_APPLY_LAMBDA: ContextVar = ContextVar("apply_lambda", default=None)


def infer_types(expr: Expr) -> DataType:
    """Infer and annotate the type of ``expr`` and everything below it.

    Parameters reachable from ``expr`` must already carry types (they are
    the roots of the data flow).
    """
    if expr.type is not None and not isinstance(expr, FunCall):
        return expr.type
    if isinstance(expr, Param):  # a literal always has its type
        raise LiftTypeError(f"parameter {expr.name} has no type")
    assert isinstance(expr, FunCall), expr  # the last expression class
    arg_types = [infer_types(a) for a in expr.args]
    result = infer_fun_type(expr.f, arg_types, expr)
    expr.type = result
    return result


def infer_fun_type(
    f: FunDecl, arg_types: Sequence[DataType], call: FunCall | None = None
) -> DataType:
    """Infer the result type of applying ``f`` to ``arg_types``."""
    if isinstance(f, Lambda):
        if len(f.params) != len(arg_types):
            raise LiftTypeError(
                f"lambda of {len(f.params)} parameter(s) applied to "
                f"{len(arg_types)} argument(s)"
            )
        apply = _APPLY_LAMBDA.get()
        if apply is not None:
            return apply(f, arg_types)
        for p, t in zip(f.params, arg_types):
            p.type = t
        return infer_types(f.body)
    if isinstance(f, UserFun):
        # FunCall checks the arity, and a pattern holds its function as a
        # lambda of the pattern's arity (patterns.ensure_lambda).
        assert len(arg_types) == len(f.in_types), f
        for got, want in zip(arg_types, f.in_types):
            if got != want:
                raise LiftTypeError(
                    f"user function {f.name} expects {want}, got {got}"
                )
        return f.out_type
    assert isinstance(f, Pattern), f  # the last kind of declaration
    return f.infer_type(arg_types, call)  # type: ignore[arg-type]


def type_reader(types: Optional[Mapping] = None) -> Callable[[Expr], DataType]:
    """How a reader of a program's types gets them: from a ``{node:
    type}`` table (:attr:`TypeMemo.types`) when given one, else from
    the nodes' own annotations (a program typed in place)."""
    return attrgetter("type") if types is None else types.__getitem__


class SharedAtTwoTypes(Exception):
    """One node object sits at two places of a program that give it two
    different types: no table keyed by node can hold both."""


class TypeMemo:
    """The types :func:`infer_types` would annotate on private clones of
    many programs that share subtrees — without annotating anything,
    and typing each distinct subtree once.

    ``types`` is the table ``{node: type}`` of every expression typed so
    far (the parameters of applied lambdas included) — what a reader of
    the types of a program reads instead of ``.type``.  Behind it, a
    call's type and the argument types of the lambda its function ends
    in are kept per (shape of its structural key, types of its free
    parameters), all they depend on; a call that does not type is kept
    too, and raises again.  A call whose function ends in no lambda
    (a user function, a leaf pattern) has its rule run once per
    function text and argument types.  A node reached again in the
    context it was typed in is not descended into.
    """

    def __init__(self) -> None:
        self.types: dict = {}
        self._by_shape: dict = {}
        self._by_rule: dict = {}
        self._context: dict = {}

    def infer(self, expr: Expr) -> DataType:
        """Type ``expr`` and everything below it into :attr:`types`.
        Raises what :func:`infer_types` raises, or
        :class:`SharedAtTwoTypes` when a node is reached at a second
        type (the table keeps the first)."""
        return self._walk(expr, {})

    def _record(self, e: Expr, t: DataType) -> None:
        seen = self.types.setdefault(e, t)
        if seen is not t and seen != t:
            raise SharedAtTwoTypes(f"{e!r} is both {seen} and {t}")

    def _bind(self, lam: Lambda, arg_types: Sequence[DataType], env: dict) -> dict:
        inner = dict(env)
        for p, t in zip(lam.params, arg_types):
            inner[p] = t
            self._record(p, t)
        return inner

    def _walk(self, e: Expr, env: dict) -> DataType:
        if type(e) is not FunCall:
            t = env.get(e, e.type)
            if t is None:
                raise LiftTypeError(f"parameter {e.name} has no type")
            self._record(e, t)
            return t
        shape, free = e._key or key(e)
        context = tuple([env.get(p, p.type) for p in free])
        if self._context.get(e) == context:
            return self.types[e]
        k = (shape, context)
        entry = self._by_shape.get(k, self)
        if entry is None:
            raise LiftTypeError(f"{e!r} does not type")
        if entry is self:
            try:
                entry = self._by_shape[k] = self._apply(e, env, shape.head)
            except SharedAtTwoTypes:
                raise
            except Exception:
                self._by_shape[k] = None
                raise
        else:
            for a in e.args:
                self._walk(a, env)
            if entry[1] is not None:
                lam = e.f
                while type(lam) is not Lambda:
                    lam = lam.f
                self._walk(lam.body, self._bind(lam, entry[1], env))
        self._record(e, entry[0])
        self._context[e] = context
        return entry[0]

    def _apply(self, e: FunCall, env: dict, head: tuple) -> tuple:
        """``e``'s type by its function's typing rule, and the argument
        types of the lambda that rule applied (``None``: no lambda)."""
        arg_types = [self._walk(a, env) for a in e.args]
        if type(head[-1]) is not int:
            # No lambda: the rule reads the function's text — ``head``
            # of its shape — and the argument types, nothing else.
            k = (head, tuple(arg_types))
            result = self._by_rule.get(k)
            if result is None:
                result = self._by_rule[k] = infer_fun_type(e.f, arg_types, e)
            return result, None
        applied: list = []

        def apply(lam: Lambda, types: Sequence[DataType]) -> DataType:
            applied.append(tuple(types))
            return self._walk(lam.body, self._bind(lam, types, env))

        token = _APPLY_LAMBDA.set(apply)
        try:
            result = infer_fun_type(e.f, arg_types, e)
        finally:
            _APPLY_LAMBDA.reset(token)
        return result, applied[0] if applied else None

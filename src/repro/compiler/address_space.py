"""Address space inference — Algorithm 1 of the paper (section 5.2).

Walks the expression graph and annotates every expression with the OpenCL
address space its value lives in:

* scalar kernel parameters are private, array parameters global (OpenCL
  requires this);
* literals are private;
* ``toPrivate``/``toLocal``/``toGlobal`` change the ``writeTo`` argument
  before recursing into their nested function;
* ``reduce`` writes into the memory of its initializer expression;
* user functions take the ``writeTo`` space, or infer it from their
  arguments (same space -> that space, mixed -> global by default);
* data-layout patterns take the space of their argument.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.types import ArrayType, ScalarType
from repro.ir.nodes import (
    AddressSpace,
    Expr,
    FunCall,
    FunDecl,
    Lambda,
    Literal,
    Param,
    UserFun,
)
from repro.ir import patterns as pat


def infer_address_spaces(fun: Lambda) -> None:
    """Annotate ``addr_space`` on every expression of a kernel lambda."""
    for param in fun.params:
        if isinstance(param.type, ScalarType):
            param.addr_space = AddressSpace.PRIVATE
        else:
            param.addr_space = AddressSpace.GLOBAL
    _infer_expr(fun.body, None)


def _infer_expr(expr: Expr, write_to: Optional[AddressSpace]) -> None:
    if isinstance(expr, Literal):
        expr.addr_space = AddressSpace.PRIVATE
        return
    if isinstance(expr, Param):
        if expr.addr_space is None:
            raise ValueError(f"parameter {expr.name} visited before binding")
        return
    assert isinstance(expr, FunCall), expr  # the last expression class

    for arg in expr.args:
        _infer_expr(arg, write_to)

    f = expr.f
    if isinstance(f, UserFun):
        if write_to is not None:
            expr.addr_space = write_to
        else:
            expr.addr_space = _from_args(expr.args)
    elif isinstance(f, Lambda):
        _infer_fun_as(f, [a.addr_space for a in expr.args], write_to)
        expr.addr_space = f.body.addr_space
    elif isinstance(f, pat.ToPrivate):
        _infer_wrapped(f, expr, AddressSpace.PRIVATE)
    elif isinstance(f, pat.ToLocal):
        _infer_wrapped(f, expr, AddressSpace.LOCAL)
    elif isinstance(f, pat.ToGlobal):
        _infer_wrapped(f, expr, AddressSpace.GLOBAL)
    elif isinstance(f, pat.ReduceSeq):
        init = expr.args[0]
        _infer_fun_as(f.f, [init.addr_space, expr.args[1].addr_space], init.addr_space)
        expr.addr_space = init.addr_space
    elif isinstance(f, (pat.AbstractMap, pat.Iterate)):
        inner_space = _infer_fun_as(
            f.f, [a.addr_space for a in expr.args], write_to
        )
        expr.addr_space = inner_space if inner_space is not None else write_to
        if expr.addr_space is None:
            expr.addr_space = _from_args(expr.args)
    else:
        # Data-layout patterns: the value stays where the argument lives.
        expr.addr_space = _from_args(expr.args)


def _infer_wrapped(wrapper: pat.AddressSpaceWrapper, call: FunCall, space: AddressSpace) -> None:
    _infer_fun_as(wrapper.f, [a.addr_space for a in call.args], space)
    call.addr_space = space


def _infer_fun_as(
    f: FunDecl,
    arg_spaces: Sequence[Optional[AddressSpace]],
    write_to: Optional[AddressSpace],
) -> Optional[AddressSpace]:
    """``inferASFunCall`` of Algorithm 1, returning the body's space."""
    if isinstance(f, Lambda):
        for p, space in zip(f.params, arg_spaces):
            p.addr_space = space if space is not None else AddressSpace.GLOBAL
        _infer_expr(f.body, write_to)
        return f.body.addr_space
    if isinstance(f, UserFun):
        # A bare user function nested in a map: behaves like a unary lambda.
        return write_to
    if isinstance(f, pat.AddressSpaceWrapper):
        return _infer_fun_as(f.f, arg_spaces, f.space)
    # Reached through the functions patterns nest: maps and iterate.
    assert isinstance(f, (pat.AbstractMap, pat.Iterate)), f
    return _infer_fun_as(f.f, arg_spaces, write_to)


def _from_args(args: Sequence[Expr]) -> AddressSpace:
    spaces = {a.addr_space for a in args if a.addr_space is not None}
    if len(spaces) == 1:
        return spaces.pop()
    # Mixed or unknown: global by default (Algorithm 1, line 14).
    return AddressSpace.GLOBAL

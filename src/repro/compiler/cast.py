"""A small C AST for the OpenCL code the Lift compiler emits.

Only the constructs the code generator needs are modelled; the printer
produces the exact textual subset that :mod:`repro.opencl` parses and
executes, closing the loop for differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


class CNode:
    __slots__ = ()


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class CExpr(CNode):
    __slots__ = ()


@dataclass
class CIdent(CExpr):
    name: str


@dataclass
class CInt(CExpr):
    value: int


@dataclass
class CFloat(CExpr):
    value: float


@dataclass
class CBinOp(CExpr):
    op: str
    lhs: CExpr
    rhs: CExpr


@dataclass
class CUnOp(CExpr):
    op: str
    operand: CExpr


@dataclass
class CTernary(CExpr):
    cond: CExpr
    then: CExpr
    otherwise: CExpr


@dataclass
class CCall(CExpr):
    func: str
    args: Sequence[CExpr]


@dataclass
class CIndex(CExpr):
    base: CExpr
    index: CExpr


@dataclass
class CMember(CExpr):
    base: CExpr
    member: str


@dataclass
class CCast(CExpr):
    type_name: str
    operand: CExpr


@dataclass
class CVectorLiteral(CExpr):
    type_name: str
    items: Sequence[CExpr]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

class CStmt(CNode):
    __slots__ = ()


@dataclass
class CDecl(CStmt):
    """``[qualifier] type name[array_size] = init;``"""

    type_name: str
    name: str
    qualifier: str = ""  # "local", "private" (dropped when printing), ...
    array_size: Optional[int] = None
    init: Optional[CExpr] = None
    is_pointer: bool = False


@dataclass
class CAssign(CStmt):
    target: CExpr
    value: CExpr
    op: str = "="


@dataclass
class CExprStmt(CStmt):
    expr: CExpr


@dataclass
class CFor(CStmt):
    init: Optional[CStmt]
    cond: Optional[CExpr]
    step: Optional[CStmt]
    body: "CBlock"


@dataclass
class CIf(CStmt):
    cond: CExpr
    then: "CBlock"
    otherwise: Optional["CBlock"] = None


@dataclass
class CBlock(CStmt):
    stmts: list = field(default_factory=list)

    def add(self, stmt: CStmt) -> None:
        self.stmts.append(stmt)


@dataclass
class CReturn(CStmt):
    value: Optional[CExpr] = None


@dataclass
class CBarrier(CStmt):
    """``barrier(CLK_LOCAL_MEM_FENCE)`` or the global variant."""

    fence: str = "CLK_LOCAL_MEM_FENCE"


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

@dataclass
class CParam:
    type_name: str
    name: str
    qualifiers: tuple = ()  # e.g. ("const", "global") for pointers
    is_pointer: bool = False
    is_restrict: bool = False


@dataclass
class CFunctionDef:
    return_type: str
    name: str
    params: list
    body: CBlock
    is_kernel: bool = False


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

#: Binary operators, loosest first; the parser climbs the same table.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    ">": 4,
    "<=": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


def print_expr(e: CExpr, parent_prec: int = 0) -> str:
    if isinstance(e, CIdent):
        return e.name
    if isinstance(e, CInt):
        return str(e.value)
    if isinstance(e, CFloat):
        text = repr(float(e.value))
        return f"{text}f"
    if isinstance(e, CBinOp):
        prec = BINARY_PRECEDENCE.get(e.op, 5)
        inner = f"{print_expr(e.lhs, prec)} {e.op} {print_expr(e.rhs, prec + 1)}"
        if prec < parent_prec:
            return f"({inner})"
        return inner
    if isinstance(e, CUnOp):
        return f"({e.op}{print_expr(e.operand, 7)})"
    if isinstance(e, CTernary):
        return (
            f"({print_expr(e.cond)} ? {print_expr(e.then)}"
            f" : {print_expr(e.otherwise)})"
        )
    if isinstance(e, CCall):
        args = ", ".join(print_expr(a) for a in e.args)
        return f"{e.func}({args})"
    if isinstance(e, CIndex):
        return f"{print_expr(e.base, 8)}[{print_expr(e.index)}]"
    if isinstance(e, CMember):
        return f"{print_expr(e.base, 8)}.{e.member}"
    if isinstance(e, CCast):
        return f"(({e.type_name}) {print_expr(e.operand, 7)})"
    assert isinstance(e, CVectorLiteral), e  # the last expression class
    items = ", ".join(print_expr(i) for i in e.items)
    return f"(({e.type_name})({items}))"


def print_stmt(s: CStmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, CDecl):
        qual = f"{s.qualifier} " if s.qualifier and s.qualifier != "private" else ""
        star = "*" if s.is_pointer else ""
        size = f"[{s.array_size}]" if s.array_size is not None else ""
        init = f" = {print_expr(s.init)}" if s.init is not None else ""
        return f"{pad}{qual}{s.type_name} {star}{s.name}{size}{init};"
    if isinstance(s, CAssign):
        return f"{pad}{print_expr(s.target)} {s.op} {print_expr(s.value)};"
    if isinstance(s, CExprStmt):
        return f"{pad}{print_expr(s.expr)};"
    if isinstance(s, CFor):
        init = print_stmt(s.init, 0).strip() if s.init else ";"
        cond = print_expr(s.cond) if s.cond else ""
        step = print_stmt(s.step, 0).strip().rstrip(";") if s.step else ""
        header = f"{pad}for ({init} {cond}; {step}) {{"
        body = print_block_body(s.body, indent + 1)
        return f"{header}\n{body}\n{pad}}}"
    if isinstance(s, CIf):
        header = f"{pad}if ({print_expr(s.cond)}) {{"
        body = print_block_body(s.then, indent + 1)
        text = f"{header}\n{body}\n{pad}}}"
        if s.otherwise is not None:
            text += f" else {{\n{print_block_body(s.otherwise, indent + 1)}\n{pad}}}"
        return text
    if isinstance(s, CBlock):
        return f"{pad}{{\n{print_block_body(s, indent + 1)}\n{pad}}}"
    if isinstance(s, CReturn):
        if s.value is None:
            return f"{pad}return;"
        return f"{pad}return {print_expr(s.value)};"
    assert isinstance(s, CBarrier), s  # the last statement class
    return f"{pad}barrier({s.fence});"


def print_block_body(block: CBlock, indent: int) -> str:
    return "\n".join(print_stmt(s, indent) for s in block.stmts)


def print_function(f: CFunctionDef) -> str:
    params = []
    for p in f.params:
        quals = " ".join(p.qualifiers)
        star = "*" if p.is_pointer else ""
        restrict = " restrict" if p.is_restrict else ""
        prefix = f"{quals} " if quals else ""
        params.append(f"{prefix}{p.type_name} {star}{restrict} {p.name}".replace("  ", " "))
    header = "kernel " if f.is_kernel else ""
    sig = f"{header}{f.return_type} {f.name}({', '.join(params)}) {{"
    return f"{sig}\n{print_block_body(f.body, 1)}\n}}"

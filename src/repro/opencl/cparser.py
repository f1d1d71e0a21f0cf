"""Recursive-descent parser for the OpenCL-C subset.

Produces the same AST node classes the Lift code generator emits
(:mod:`repro.compiler.cast`), which means the whole pipeline —
generator, printer, parser, interpreter — shares one representation and
hand-written reference kernels go through exactly the same execution
path as generated ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.compiler import cast as c
from repro.opencl.lexer import Token, tokenize


class ParseError(Exception):
    pass


_SCALAR_TYPES = {"float", "int", "uint", "double", "bool", "void", "long", "size_t", "char"}
_VECTOR_WIDTHS = ("2", "3", "4", "8", "16")
_VECTOR_TYPES = {
    f"{base}{w}" for base in ("float", "int", "uint", "double") for w in _VECTOR_WIDTHS
}
_QUALIFIERS = {"const", "global", "local", "private", "restrict", "__global", "__local",
               "__private", "__constant", "constant", "volatile", "unsigned"}


@dataclass
class StructDef:
    name: str
    members: list  # [(type_name, member_name)]


@dataclass
class ParsedProgram:
    functions: dict = field(default_factory=dict)   # name -> CFunctionDef
    structs: dict = field(default_factory=dict)     # name -> StructDef
    kernels: list = field(default_factory=list)     # kernel names in order


class Parser:
    def __init__(self, source: str):
        tokens = tokenize(source)
        # ``next`` never steps over ``eof`` and no lookahead reaches past
        # offset 2, so two more copies make every ``peek`` a plain index.
        self.tokens = tokens + tokens[-1:] * 2
        self.texts = [tok.text for tok in self.tokens]
        self.pos = 0
        self.structs: dict[str, StructDef] = {}

    # -- token helpers ----------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "eof":
            raise ParseError(f"line {tok.line}: unexpected end of input")
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(
                f"line {tok.line}: expected {text!r}, found {tok.text!r}"
            )
        return tok

    def _is_type_name(self, text: str) -> bool:
        return (
            text in _SCALAR_TYPES
            or text in _VECTOR_TYPES
            or text in self.structs
        )

    # -- top level ---------------------------------------------------------
    def parse_program(self) -> ParsedProgram:
        prog = ParsedProgram()
        while self.peek().kind != "eof":
            if self.peek().text == "typedef":
                struct = self.parse_typedef()
                prog.structs[struct.name] = struct
                continue
            fn = self.parse_function()
            prog.functions[fn.name] = fn
            if fn.is_kernel:
                prog.kernels.append(fn.name)
        return prog

    def parse_typedef(self) -> StructDef:
        self.expect("typedef")
        self.expect("struct")
        self.expect("{")
        members = []
        while not self.accept("}"):
            type_name = self.next().text
            member = self.next().text
            self.expect(";")
            members.append((type_name, member))
        name = self.next().text
        self.expect(";")
        struct = StructDef(name, members)
        self.structs[name] = struct
        return struct

    def parse_function(self) -> c.CFunctionDef:
        is_kernel = False
        while self.peek().text in ("kernel", "__kernel", "static", "inline"):
            if self.next().text in ("kernel", "__kernel"):
                is_kernel = True
        ret_type = self.next().text
        name = self.next().text
        self.expect("(")
        params = []
        if not self.accept(")"):
            while True:
                params.append(self.parse_param())
                if not self.accept(","):
                    break
            self.expect(")")
        body = self.parse_block()
        return c.CFunctionDef(ret_type, name, params, body, is_kernel)

    def parse_param(self) -> c.CParam:
        quals = []
        while self.peek().text in _QUALIFIERS:
            quals.append(self.next().text.lstrip("_"))
        type_name = self.next().text
        is_pointer = self.accept("*")
        is_restrict = False
        while self.peek().text in _QUALIFIERS:
            if self.next().text == "restrict":
                is_restrict = True
        name = self.next().text
        return c.CParam(type_name, name, tuple(quals), is_pointer, is_restrict)

    # -- statements ----------------------------------------------------------
    def parse_block(self) -> c.CBlock:
        self.expect("{")
        block = c.CBlock()
        while not self.accept("}"):
            block.add(self.parse_stmt())
        return block

    def parse_stmt(self) -> c.CStmt:
        tok = self.peek()
        if tok.text == "{":
            return self.parse_block()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "return":
            self.next()
            if self.accept(";"):
                return c.CReturn(None)
            value = self.parse_expr()
            self.expect(";")
            return c.CReturn(value)
        if tok.text == "barrier":
            self.next()
            self.expect("(")
            fence = self.parse_expr()
            self.expect(")")
            self.expect(";")
            fence_name = fence.name if isinstance(fence, c.CIdent) else "CLK_LOCAL_MEM_FENCE"
            return c.CBarrier(fence_name)
        if self._starts_decl():
            return self.parse_decl()
        stmt = self.parse_expr_or_assign()
        self.expect(";")
        return stmt

    def _starts_decl(self) -> bool:
        i = 0
        while self.peek(i).text in _QUALIFIERS:
            i += 1
        return self.peek(i).kind == "ident" and self._is_type_name(self.peek(i).text)

    def parse_decl(self) -> c.CStmt:
        qualifier = ""
        while self.peek().text in _QUALIFIERS:
            q = self.next().text.lstrip("_")
            if q in ("global", "local", "private", "constant"):
                qualifier = q
        type_name = self.next().text
        decls = []
        while True:
            is_pointer = self.accept("*")
            name = self.next().text
            array_size: Optional[int] = None
            init: Optional[c.CExpr] = None
            if self.accept("["):
                size_tok = self.next()
                if size_tok.kind != "int":
                    raise ParseError(
                        f"line {size_tok.line}: array sizes must be integer "
                        f"literals, found {size_tok.text!r}"
                    )
                array_size = int(size_tok.text, 0)
                self.expect("]")
            if self.accept("="):
                init = self.parse_expr()
            decls.append(
                c.CDecl(type_name, name, qualifier, array_size, init, is_pointer)
            )
            if not self.accept(","):
                break
        self.expect(";")
        if len(decls) == 1:
            return decls[0]
        return c.CBlock(decls)

    def parse_for(self) -> c.CFor:
        self.expect("for")
        self.expect("(")
        init: Optional[c.CStmt] = None
        if not self.accept(";"):
            if self._starts_decl():
                init = self.parse_decl()
            else:
                init = self.parse_expr_or_assign()
                self.expect(";")
        cond: Optional[c.CExpr] = None
        if not self.accept(";"):
            cond = self.parse_expr()
            self.expect(";")
        step: Optional[c.CStmt] = None
        if self.peek().text != ")":
            step = self.parse_expr_or_assign()
        self.expect(")")
        body = self.parse_stmt()
        if not isinstance(body, c.CBlock):
            body = c.CBlock([body])
        return c.CFor(init, cond, step, body)

    def parse_while(self) -> c.CFor:
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        if not isinstance(body, c.CBlock):
            body = c.CBlock([body])
        return c.CFor(None, cond, None, body)

    def parse_if(self) -> c.CIf:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_stmt()
        if not isinstance(then, c.CBlock):
            then = c.CBlock([then])
        otherwise = None
        if self.accept("else"):
            other = self.parse_stmt()
            otherwise = other if isinstance(other, c.CBlock) else c.CBlock([other])
        return c.CIf(cond, then, otherwise)

    def parse_expr_or_assign(self) -> c.CStmt:
        target = self.parse_expr()
        tok = self.peek().text
        if tok in ("=", "+=", "-=", "*=", "/="):
            self.next()
            value = self.parse_expr()
            return c.CAssign(target, value, tok)
        return c.CExprStmt(target)

    # -- expressions --------------------------------------------------------
    def parse_expr(self) -> c.CExpr:
        cond = self.parse_binary(1)
        if self.accept("?"):
            then = self.parse_expr()
            self.expect(":")
            return c.CTernary(cond, then, self.parse_expr())
        return cond

    def parse_binary(self, min_prec: int) -> c.CExpr:
        """Precedence climbing: operators binding at least ``min_prec``
        tight, each left-associative."""
        lhs = self.parse_unary()
        while True:
            op = self.texts[self.pos]
            prec = c.BINARY_PRECEDENCE.get(op, 0)
            if prec < min_prec:
                return lhs
            self.pos += 1
            lhs = c.CBinOp(op, lhs, self.parse_binary(prec + 1))

    def parse_unary(self) -> c.CExpr:
        text = self.texts[self.pos]
        if text in ("-", "!", "+"):
            self.pos += 1
            operand = self.parse_unary()
            return operand if text == "+" else c.CUnOp(text, operand)
        if text == "(" and self._is_cast():
            type_name = self.texts[self.pos + 1]
            self.pos += 3
            if type_name in _VECTOR_TYPES and self.accept("("):
                items = [self.parse_expr()]
                while self.accept(","):
                    items.append(self.parse_expr())
                self.expect(")")
                return c.CVectorLiteral(type_name, items)
            return c.CCast(type_name, self.parse_unary())
        return self.parse_postfix()

    def _is_cast(self) -> bool:
        """At a ``(``: does ``type)`` follow?"""
        return (
            self.texts[self.pos + 2] == ")"
            and self.peek(1).kind == "ident"
            and self._is_type_name(self.texts[self.pos + 1])
        )

    def parse_postfix(self) -> c.CExpr:
        expr = self.parse_primary()
        while True:
            text = self.texts[self.pos]
            if text == "[":
                self.pos += 1
                index = self.parse_expr()
                self.expect("]")
                expr = c.CIndex(expr, index)
            elif text == "." and self.peek(1).kind == "ident":
                expr = c.CMember(expr, self.texts[self.pos + 1])
                self.pos += 2
            elif text == "(" and isinstance(expr, c.CIdent):
                self.pos += 1
                args = []
                if self.texts[self.pos] != ")":
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                expr = c.CCall(expr.name, args)
            else:
                return expr

    def parse_primary(self) -> c.CExpr:
        tok = self.next()
        if tok.kind == "int":
            return c.CInt(int(tok.text, 0))
        if tok.kind == "float":
            return c.CFloat(float(tok.text))
        if tok.kind == "ident":
            return c.CIdent(tok.text)
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"line {tok.line}: unexpected token {tok.text!r}")


def parse(source: str) -> ParsedProgram:
    try:
        return Parser(source).parse_program()
    except RecursionError:
        raise ParseError("nesting too deep to parse") from None

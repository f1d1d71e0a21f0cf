"""Tokenizer for the OpenCL-C subset: one master regex, one match per token."""

from __future__ import annotations

import re
from typing import NamedTuple


class LexError(Exception):
    pass


class Token(NamedTuple):
    kind: str  # "ident", "int", "float", "punct", "eof"
    text: str  # numbers: without their f/u/l suffix
    pos: int
    line: int


# A number must not run into a letter, digit or dot: that is what makes
# `010`, `1e`, `1.5u` and integers wider than 64 bits fail to match here
# instead of splitting in two.
_TOKEN = re.compile(
    r"[ \t\r]*(?://[^\n]*)?(?:"
    r"(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+(?=[fF]))"
    r"[fF]?(?![\w.])"
    r"|(?P<int>0[xX][0-9a-fA-F]{1,16}|[1-9]\d{0,19}|0)[uUlL]?(?![\w.])"
    r"|(?P<comment>/\*)"
    r"|(?P<punct><<=|>>=|[-+*/%=!<>]=|&&|\|\||<<|>>|->|[-+*/%=<>!?:,;()\[\]{}.&|^~])"
    r"|(?P<newline>\n)"
    r")?",
    re.ASCII,
)
_NUMBER_START = re.compile(r"\.?\d[\w.]{0,30}", re.ASCII)  # for the message


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    # tuple.__new__ skips the NamedTuple's Python-level __new__: ~15 %
    # of the whole function.
    append, match, new = tokens.append, _TOKEN.match, tuple.__new__
    i = 0
    line = 1
    while True:
        m = match(source, i)
        kind = m.lastgroup
        i = m.end()
        if kind == "newline":
            line += 1
        elif kind == "comment":
            end = source.find("*/", i)
            if end < 0:
                raise LexError(f"unterminated comment at line {line}")
            line += source.count("\n", i, end)
            i = end + 2
        elif kind is not None:
            start, stop = m.span(kind)
            append(new(Token, (kind, source[start:stop], start, line)))
        elif i == len(source):
            append(Token("eof", "", i, line))
            return tokens
        else:
            number = _NUMBER_START.match(source, i)
            if number:
                raise LexError(f"malformed number {number[0]!r} at line {line}")
            raise LexError(f"unexpected character {source[i]!r} at line {line}")

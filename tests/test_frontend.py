"""The OpenCL C front end (lexer + parser) against everything the
repository feeds it: every generated kernel, every hand-written
reference, a precedence table, malformed input and a mutation fuzzer.

There is no second lexer or parser to compare against; the checks are
properties one implementation must have on its own.
"""

import random
import time

import pytest

from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
from repro.compiler import OPTIMIZATION_LEVELS, compile_kernel
from repro.compiler import cast as c
from repro.opencl.cparser import ParsedProgram, ParseError, parse
from repro.opencl.lexer import LexError, tokenize
from repro.opencl.simt import analyze_kernel


def _generated(name, sizes=("small", "large"), levels=tuple(OPTIMIZATION_LEVELS)):
    bench = get_benchmark(name)
    for size in sizes:
        size_env = dict(bench.sizes[size])
        for stage in bench.stages:
            for level in levels:
                options = OPTIMIZATION_LEVELS[level](local_size=stage.local_size)
                yield compile_kernel(stage.build(size_env), options, memo=False)


@pytest.fixture(scope="module")
def generated():
    """13 stages x 2 sizes x 3 levels."""
    kernels = [k for name in ALL_BENCHMARKS for k in _generated(name)]
    assert len(kernels) == 78
    return kernels


@pytest.fixture(scope="module")
def corpus(generated):
    references = [get_benchmark(name).reference_source for name in ALL_BENCHMARKS]
    return [k.source for k in generated] + references


def _render(parsed: ParsedProgram) -> str:
    """A parsed program as text, in the layout ``codegen._render`` uses."""
    pieces = []
    for struct in parsed.structs.values():
        members = "; ".join(f"{t} {m}" for t, m in struct.members)
        pieces.append(f"typedef struct {{ {members}; }} {struct.name};")
    pieces.extend(c.print_function(fn) for fn in parsed.functions.values())
    return "\n\n".join(pieces) + "\n"


def _ast(parsed: ParsedProgram):
    return parsed.functions, parsed.structs, parsed.kernels


class TestRoundTrip:
    def test_generated_kernels_print_back_exactly(self, generated):
        """The kernel text was printed from an AST, so the parser must
        rebuild that AST: printing it again gives the same characters."""
        for kernel in generated:
            fn = parse(kernel.source).functions[kernel.name]
            printed = kernel.source[kernel.source.index("kernel void"):]
            assert c.print_function(fn) + "\n" == printed, kernel.name

    def test_printing_is_a_fixed_point_on_every_source(self, corpus):
        """Helpers and hand-written references are not in the printer's
        layout; one print normalises them and loses no structure."""
        for source in corpus:
            parsed = parse(source)
            printed = _render(parsed)
            again = parse(printed)
            assert _ast(again) == _ast(parsed)
            assert _render(again) == printed


class TestLexerInvariants:
    def test_positions_lines_and_eof(self, corpus):
        total = 0
        for source in corpus:
            tokens = tokenize(source)
            total += len(tokens)
            for tok in tokens:
                assert source[tok.pos:tok.pos + len(tok.text)] == tok.text
                assert tok.line == 1 + source.count("\n", 0, tok.pos)
            assert tokens[-1] == ("eof", "", len(source), tokens[-1].line)
            assert [t.kind for t in tokens].count("eof") == 1
        assert total > 35_000

    def test_kinds_and_suffixes(self):
        toks = tokenize("x1 0x1F 7u 2L 1.5f 1.f .5 1e3 1e-3F 3f a.s0 v.5")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("ident", "x1"), ("int", "0x1F"), ("int", "7"), ("int", "2"),
            ("float", "1.5"), ("float", "1."), ("float", ".5"),
            ("float", "1e3"), ("float", "1e-3"), ("float", "3"),
            ("ident", "a"), ("punct", "."), ("ident", "s0"),
            ("ident", "v"), ("float", ".5"),
        ]

    def test_longest_punctuation_wins(self):
        texts = [t.text for t in tokenize("a<<=b>>c<=d->e&&f&g||h|i!=!j")[:-1]]
        assert texts == ["a", "<<=", "b", ">>", "c", "<=", "d", "->", "e",
                         "&&", "f", "&", "g", "||", "h", "|", "i", "!=", "!", "j"]

    @pytest.mark.parametrize("source, lines", [
        ("a /* \n */ b", [1, 2]),
        ("a /* // */ b /* * / \n\n */ c", [1, 1, 3]),
        ("a // b /* c\nd", [1, 2]),
        ("a\r\n\tb // ends at EOF", [1, 2]),
        ("a / b /**/ * c", [1, 1, 1, 1, 1]),
    ])
    def test_comments_and_line_counts(self, source, lines):
        tokens = tokenize(source)
        assert [t.line for t in tokens[:-1]] == lines
        assert tokens[-1].pos == len(source)

    @pytest.mark.parametrize("source, message", [
        ("a\n/* b\n", "unterminated comment at line 2"),
        ("a /*/", "unterminated comment at line 1"),
        ("a\n @", "unexpected character '@' at line 2"),
        ("a = 'c';", "unexpected character \"'\" at line 1"),
        ("é", "unexpected character 'é' at line 1"),
    ])
    def test_lex_errors_name_the_line(self, source, message):
        with pytest.raises(LexError, match=message):
            tokenize(source)


def _expr(text):
    body = parse(f"void f() {{ r = {text}; }}").functions["f"].body
    return body.stmts[0].value


class TestPrecedence:
    a, b, d, x, y, z = (c.CIdent(n) for n in "abdxyz")
    cc = c.CIdent("c")

    @pytest.mark.parametrize("text, build", [
        ("a - b - c", lambda s: c.CBinOp("-", c.CBinOp("-", s.a, s.b), s.cc)),
        ("a * b + c * d", lambda s: c.CBinOp(
            "+", c.CBinOp("*", s.a, s.b), c.CBinOp("*", s.cc, s.d))),
        ("a < b == c < d", lambda s: c.CBinOp(
            "==", c.CBinOp("<", s.a, s.b), c.CBinOp("<", s.cc, s.d))),
        ("a || b && c", lambda s: c.CBinOp("||", s.a, c.CBinOp("&&", s.b, s.cc))),
        ("a && b || c", lambda s: c.CBinOp("||", c.CBinOp("&&", s.a, s.b), s.cc)),
        ("-a * b", lambda s: c.CBinOp("*", c.CUnOp("-", s.a), s.b)),
        ("a / b % c * d", lambda s: c.CBinOp(
            "*", c.CBinOp("%", c.CBinOp("/", s.a, s.b), s.cc), s.d)),
        ("a - (b - c)", lambda s: c.CBinOp("-", s.a, c.CBinOp("-", s.b, s.cc))),
        ("a + b >= c != d", lambda s: c.CBinOp(
            "!=", c.CBinOp(">=", c.CBinOp("+", s.a, s.b), s.cc), s.d)),
        ("c ? x : d ? y : z", lambda s: c.CTernary(
            s.cc, s.x, c.CTernary(s.d, s.y, s.z))),
        ("a < b ? x + y : z", lambda s: c.CTernary(
            c.CBinOp("<", s.a, s.b), c.CBinOp("+", s.x, s.y), s.z)),
        ("!a == +b", lambda s: c.CBinOp("==", c.CUnOp("!", s.a), s.b)),
        ("(float) a * b", lambda s: c.CBinOp("*", c.CCast("float", s.a), s.b)),
    ])
    def test_expression_shapes(self, text, build):
        assert _expr(text) == build(self)

    def test_every_binary_operator_of_the_printer_parses(self):
        for op in c.BINARY_PRECEDENCE:
            assert _expr(f"a {op} b") == c.CBinOp(op, self.a, self.b)


class TestNumbers:
    def test_hex_integers(self):
        assert _expr("0x1F") == c.CInt(31)
        assert _expr("0XfFu + 0") == c.CBinOp("+", c.CInt(255), c.CInt(0))
        decl = parse("void f() { local float t[0x10]; }").functions["f"].body.stmts[0]
        assert decl.array_size == 16

    @pytest.mark.parametrize("statement", [
        "int x = 010;", "float x = 1e;", "a[0] = 1.5u;",
        "x = 1.0e+;", "x = 0x;", "x = 12ab;", "x = 1.0ff;", "x = 1..2;",
        "x = 0x10000000000000000;",
        pytest.param("x = " + "9" * 5000 + ";", id="5000 digits"),
    ])
    def test_malformed_numbers_are_lex_errors(self, statement):
        source = f"kernel void f(global float *a) {{\n  {statement}\n}}"
        with pytest.raises(LexError, match="malformed number .* at line 2"):
            parse(source)


class TestTruncatedInput:
    @pytest.mark.parametrize("source, line", [
        ("kernel void f(", 1),
        ("kernel", 1),
        ("typedef struct { float x; ", 1),
        ("typedef struct { float x; }", 1),
        ("kernel void f(global float *", 1),
        ("kernel void f() {\n  x = (", 2),
        ("kernel void f() {\n  for (int i = 0;\n", 3),
        ("kernel void f() {\n  x = a[\n\n", 4),
    ])
    def test_running_off_the_end_is_a_parse_error(self, source, line):
        with pytest.raises(ParseError, match=f"line {line}: unexpected end of input"):
            parse(source)

    def test_nesting_beyond_the_recursion_limit(self):
        deep = "(" * 5000 + "1" + ")" * 5000
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(f"void f() {{ x = {deep}; }}")

    def test_empty_program(self):
        assert _ast(parse("")) == ({}, {}, [])
        assert _ast(parse(" \n// nothing\n/* at all */")) == ({}, {}, [])


_HAND_WRITTEN = [
    """
typedef struct { float _0; int _1; } Pair;
float pick(Pair p, float w) { return p._1 > 0 ? p._0 * w : -w; }
kernel void K(const global float * restrict x, global float *out, int n) {
  // one element per work-item
  for (int i = get_global_id(0); i < n; i += get_global_size(0)) {
    Pair p;
    p._0 = x[i];
    p._1 = i % 0x4;
    out[i] = pick(p, 2.5e-1f);
  }
}
""",
    """
kernel void V(const global float * restrict a, global float *out) {
  local float tile[8];
  int l = get_local_id(0), g = get_global_id(0);
  float4 v = (float4)(a[g], 1.0f, .5f, (float) l);
  tile[l] = v.x + v.s1;
  barrier(CLK_LOCAL_MEM_FENCE);
  int s = 4;
  while (s > 0) {
    if (l < s && !(l >= 8)) { tile[l] += tile[l + s]; } else tile[l] *= 1.f;
    barrier(CLK_LOCAL_MEM_FENCE);
    s = s / 2;
  }
  /* first lane
     writes */
  if (l == 0 || g < 0) out[get_group_id(0)] = tile[0];
}
""",
    """
static inline float sq(float v) { return v * v; }
__kernel void W(__global float *x, uint n) {
  private float acc = 0.0f;
  { acc -= sq(x[0]) / (1 + n); }
  if (acc != 0.0f) return;
  x[1] = vload4(0, x).y;
}
""",
]


def _fuzz_seeds():
    seeds = list(_HAND_WRITTEN)
    for name in ("nn", "mm-amd", "kmeans", "mriq"):
        seeds.extend(k.source for k in _generated(name, ("small",), ("all",)))
    for name in ("nn", "mm-amd", "kmeans"):
        seeds.append(get_benchmark(name).reference_source)
    return seeds


_JUNK = "@#$`'\"\\\x00\x7fé(){}[];,.?:0x9eEfuL+-*/%<>=!&|~^ \n"


def _mutants(source, rng, per_operator=14):
    """(label, text): every truncation at a token boundary, then seeded
    deletions, duplications, swaps of neighbours and junk insertions."""
    tokens = tokenize(source)
    for tok in tokens:
        yield f"truncate@{tok.pos}", source[:tok.pos]
    spans = [(t.pos, t.pos + len(t.text)) for t in tokens[:-1]]
    for _ in range(per_operator):
        start, stop = rng.choice(spans)
        yield f"delete@{start}", source[:start] + source[stop:]
        start, stop = rng.choice(spans)
        yield f"duplicate@{start}", source[:stop] + " " + source[start:]
        k = rng.randrange(len(spans) - 1)
        (s0, e0), (s1, e1) = spans[k], spans[k + 1]
        yield f"swap@{s0}", (
            source[:s0] + source[s1:e1] + source[e0:s1] + source[s0:e0] + source[e1:]
        )
        at = rng.randrange(len(source) + 1)
        yield f"junk@{at}", source[:at] + rng.choice(_JUNK) + source[at:]


def test_mutation_fuzzer_raises_only_typed_errors():
    """Grammar-fuzzer half of ROADMAP's differential-testing item: a
    mutant parses or is refused with ``LexError``/``ParseError``; one
    that parses is analysable.  Nothing else escapes and nothing hangs."""
    rng = random.Random(20260929)
    outcomes = {"parsed": 0, "LexError": 0, "ParseError": 0}
    slowest = (0.0, "")
    for n, source in enumerate(_fuzz_seeds()):
        assert parse(source).functions, f"seed {n} must parse"
        for label, text in _mutants(source, rng):
            start = time.process_time()
            try:
                parsed = parse(text)
            except (LexError, ParseError) as exc:
                outcomes[type(exc).__name__] += 1
            else:
                outcomes["parsed"] += 1
                for fn in parsed.functions.values():
                    reason = analyze_kernel(parsed, fn)
                    assert reason is None or isinstance(reason, str)
            slowest = max(slowest, (time.process_time() - start, f"seed {n} {label}"))
    assert sum(outcomes.values()) > 1900
    assert all(outcomes.values()), outcomes
    assert slowest[0] < 0.05, slowest

"""Parsers, printers, and compilers for the input file formats.

Equation systems, behavioral differential equations, CCS agent files, and
grammars are line-oriented text with `#` comments; circuits are JSON.
Rational literals accept `p/q`, decimal, and integer forms and are read
exactly.  A `TokenStream` cuts a text into tokens with one `findall` and
builds a `Tok` only for a token a parser reads, and each text format is
read in one pass over its tokens, so parsing takes time linear in the file
size.  One reader, `_read_kind`, maps a `kind …` header or a kind argument
to a built-in table; the term grammar, which BDE clauses share, and the
printers then read the syntax the kind states.
"""

from __future__ import annotations

import json
import operator
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .behavior import (
    Step,
    move_action,
    process_actions,
    process_step,
)
from .errors import (
    DanglingPort,
    InvalidCircuit,
    NotGnf,
    ParseError,
    Unguarded,
    UnknownSymbol,
)
from .rules import GsosRule, RpsDef, RuleTable, extend_with_rps
from .solver import System
from .terms import App, Guard, Term, Var, mk_app, sig_sum, signature
from . import instances


def format_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_label(value) -> str:
    """A label or parameter as text: a rational through `format_rat`, a
    bool as ``1``/``0``, anything else through ``str``."""
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


# ---------------------------------------------------------------------------
# Lexer


# One findall cuts the text into pieces: a blank run or a comment (both
# skipped), a newline, an arrow, a number, an identifier, a symbol, any
# other single character, which is an error, and an empty piece at the end.
# A piece's kind is its first character's.  Outside the table are `-`,
# which starts an arrow or a number, and non-ASCII digits, which `\d`
# takes: any other character there is an error.
_PIECE_RE = re.compile(r"""
    [ \t\r]+ | \#[^\n]* | \n | ->
  | -?\d+(?:/\d+|\.\d+)?
  | [A-Za-z_][A-Za-z0-9_]*'*
  | . | \Z""", re.VERBOSE)
_FIRST = dict.fromkeys(string.ascii_letters + "_", "ident") \
    | dict.fromkeys(string.digits, "num") | dict.fromkeys(" \t\r#") \
    | dict.fromkeys("().,;:=+*|\\{}[]", "sym") | {"\n": "nl", "": "eof"}


class Tok(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str):
    """All tokens of ``text``, ending with one `eof` token; a character no
    token starts with raises ParseError before anything is parsed."""
    ts = TokenStream(text)
    return list(map(Tok, ts.kinds, ts.values, ts.lines, ts.cols))


_INT_RATIO = re.compile(r"(-?\d+)(?:/(\d+))?")


def parse_rational(text: str, line: int = 1, col: int = 1) -> Fraction:
    """A rational, `p/q` or a decimal, as a Fraction; anything else, a zero
    denominator included, is a ParseError at ``line`` and ``col``.  Integers
    and ratios of integers are read through `int`."""
    try:
        m = _INT_RATIO.fullmatch(text)
        return Fraction(int(m[1]), int(m[2] or 1)) if m \
            else Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        what = "bad rational" if isinstance(exc, ValueError) else \
            "zero denominator in"
        raise ParseError(line, col, f"{what} {text.strip()!r}") from None


class TokenStream:
    """A text's tokens, `eof` last, as lists of kinds, values, lines and
    columns: a `Tok` is built only for a token a parser reads."""

    def __init__(self, text: str):
        kinds, values, lines, cols = \
            self.kinds, self.values, self.lines, self.cols = [], [], [], []
        line, line_start, pos, first = 1, 0, 0, _FIRST.get
        for piece in _PIECE_RE.findall(text):
            kind = first(piece[:1], "?")
            if kind is not None:
                if kind == "?":  # `-`, a non-ASCII digit or a stray character
                    kind = "arrow" if piece == "->" else "num" \
                        if piece[1:] or piece.isdecimal() else "bad"
                    if kind == "bad":
                        raise ParseError(line, pos - line_start + 1,
                                         f"unexpected character {piece!r}")
                kinds.append(kind)
                values.append(piece)
                lines.append(line)
                cols.append(pos - line_start + 1)
                if kind == "nl":
                    line += 1
                    line_start = pos + 1
            pos += len(piece)
        self.i = 0

    def peek(self) -> Tok:
        i = self.i
        return tuple.__new__(Tok, (self.kinds[i], self.values[i],
                                   self.lines[i], self.cols[i]))

    def next(self) -> Tok:
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def skip_newlines(self):
        while self.kinds[self.i] == "nl":
            self.i += 1

    def expect(self, kind, value=None) -> Tok:
        t = self.next()
        if t.kind != kind or (value is not None and t.value != value):
            want = value or kind
            raise ParseError(t.line, t.col, f"expected {want!r}, got {t.value!r}")
        return t

    # No other token kind has a punctuation value, so the value decides.
    def at_sym(self, value) -> bool:
        return self.values[self.i] == value

    def eat_sym(self, value) -> bool:
        if self.values[self.i] == value:
            self.i += 1
            return True
        return False

    def end_line(self):
        t = self.peek()
        if t.kind not in ("nl", "eof"):
            raise ParseError(t.line, t.col, f"junk at end of line: {t.value!r}")
        self.skip_newlines()


# ---------------------------------------------------------------------------
# Expressions for the deterministic kinds
#
# Parse nodes: ("num", r, tok)  ("var", name, tok)  ("call", name, args, tok)
# ("guard", label, payload-list, tok), its label a "num" or "var" node


def _parse_expr(ts: TokenStream):
    t = ts.next()
    if t.kind == "num":
        node = ("num", parse_rational(t.value, t.line, t.col), t)
    elif t.kind == "ident":
        if ts.eat_sym("("):
            args = []
            if not ts.at_sym(")"):
                args.append(_parse_expr(ts))
                while ts.eat_sym(","):
                    args.append(_parse_expr(ts))
            ts.expect("sym", ")")
            return ("call", t.value, args, t)
        node = ("var", t.value, t)
    else:
        raise ParseError(t.line, t.col, f"expected a term, got {t.value!r}")
    if ts.eat_sym("."):
        return ("guard", node, _parse_payload(ts), t)
    return node


def _parse_payload(ts: TokenStream):
    if ts.eat_sym("("):
        out = [_parse_expr(ts)]
        while ts.eat_sym(","):
            out.append(_parse_expr(ts))
        ts.expect("sym", ")")
        return out
    return [_parse_expr(ts)]


def _param(ptype, node):
    """A parameter or label node read as ``ptype``; None if it is not one."""
    if ptype == "rat" and node[0] == "num":
        return node[1]
    if ptype == "letter" and node[0] == "var":
        return node[1]
    if ptype == "bit" and node[0] == "num" and node[1] in (0, 1):
        return bool(node[1])
    return None


def _letter_step(table: RuleTable, letter, term) -> Step:
    """The language step that accepts nothing now and continues with
    ``term`` after ``letter`` and with the empty language after the rest."""
    empty = mk_app(table.op("empty"), ())
    return Step(False, tuple((a, term if a == letter else empty)
                             for a in table.kind.ports))


class _DetCompiler:
    """Turns parse nodes into terms and guarded contexts over a table."""

    def __init__(self, table: RuleTable, variables, ops):
        self.table = table
        self.kind = table.kind
        self.vars = variables
        self.ops = ops

    def _op(self, name, args, tok):
        try:
            decl = self.table.sig.decl(name)
        except UnknownSymbol:
            raise ParseError(tok.line, tok.col,
                             f"unknown operation {name!r}") from None
        if not decl.parametric:
            return self.table.sig.op(name), args
        if not args:
            raise ParseError(tok.line, tok.col,
                             f"{name!r} needs a leading parameter")
        param = _param(self.kind.params.get(name), args[0])
        if param is None:
            raise ParseError(tok.line, tok.col, f"bad parameter for {name!r}")
        return self.table.sig.op(name, param), args[1:]

    def _call(self, node):
        """The symbol of a call node and its argument nodes."""
        _, name, args, tok = node
        if name in self.vars:
            raise ParseError(tok.line, tok.col,
                             f"variable {name!r} applied to arguments")
        op, rest = self._op(name, args, tok)
        if len(rest) != op.arity:
            raise ParseError(tok.line, tok.col,
                             f"{name!r} expects {op.arity} arguments")
        return op, rest

    def term(self, node) -> Term:
        tag = node[0]
        if tag == "num":  # a numeral in term position is `const`
            return self.term(("call", "const", [node], node[2]))
        if tag == "var":
            name = node[1]
            if name in self.vars:
                return Var(name)
            if name in self.ops:
                op, _ = self._op(name, [], node[2])
                return mk_app(op, ())
            raise ParseError(node[2].line, node[2].col,
                             f"unknown name {name!r}")
        if tag == "call":
            op, rest = self._call(node)
            return mk_app(op, tuple(self.term(a) for a in rest))
        # `r . t` in term position is the kind's prefix symbol
        _, label, payload, tok = node
        if self.kind.prefix is None:
            raise ParseError(tok.line, tok.col,
                             f"no term-level guard for {self.kind.name}")
        return self.term(("call", self.kind.prefix, [label, *payload], tok))

    def guard_step(self, node) -> Step:
        """A label and one term per port, or a language's letter guard."""
        _, label, payload, tok = node
        kind = self.kind
        if label[0] == "var" and not kind.rational:
            if label[1] not in kind.ports or len(payload) != 1:
                raise ParseError(tok.line, tok.col, "letter guard is "
                                 f"`letter . term`, a letter of {kind.ports}")
            return _letter_step(self.table, label[1], self.term(payload[0]))
        n = len(kind.ports)
        value = _param("rat" if kind.rational else "bit", label)
        if value is None or len(payload) != n:
            raise ParseError(tok.line, tok.col, f"{kind.name} guard is `"
                             f"{'rational' if kind.rational else '0/1'} . "
                             f"{'term' if n == 1 else f'({n} terms)'}`")
        return Step(value, tuple(zip(kind.ports, map(self.term, payload))))

    def rhs(self, node, path=()):
        """The guarded term of a right-hand side, or of its part at
        ``path``, which lies above the guards."""
        tag = node[0]
        if tag == "guard":
            return Guard(self.guard_step(node))
        if tag == "var" and node[1] in self.vars:
            raise Unguarded(node[1], path)
        if tag == "call":
            op, rest = self._call(node)
            return App(op, tuple(self.rhs(a, path + (i,))
                                 for i, a in enumerate(rest)))
        # a bare constant is a closed given term, vacuously guarded
        return self.term(node)


# ---------------------------------------------------------------------------
# Equation-system files for the deterministic kinds


def _read_kind(ts: TokenStream, kind=None) -> Optional[RuleTable]:
    """The table that the `kind …` header, or else ``kind`` ("stream",
    "tree", "language:<letters>", "process" or a kind object), names; None
    for processes, whose actions fix their table.  The only reader of kinds."""
    ts.skip_newlines()
    t, line, col = ts.peek(), 1, 1
    if t.kind == "ident" and t.value == "kind":
        ts.next()
        t = ts.expect("ident")
        name, line, col = t.value, t.line, t.col
        letters = ts.expect("ident").value if name == "language" else ""
        ts.end_line()
    elif kind is None:
        raise ParseError(1, 1, "no kind header and no kind argument")
    elif isinstance(kind, str):
        name, _, letters = kind.partition(":")
    else:
        name, _, letters = kind.header.partition(" ")
    if name == "process":
        return None
    if name == "language":
        return instances.language_table(letters)
    if name == "stream":
        return instances.stream_table()
    if name == "tree":
        return instances.tree_table()
    raise ParseError(line, col, f"unknown kind {name!r}")


def parse_system(text: str, kind=None) -> System:
    """Parse a flat or sandwiched equation system over a built-in table.

    The file may declare its kind (`kind stream`, `kind tree`,
    `kind language ab`, `kind process`); otherwise ``kind`` must name one
    ("stream", "tree", "language:<letters>", "process", or a kind object).
    A process system is an agent file, as `parse_ccs` reads it.
    """
    ts = TokenStream(text)
    table = _read_kind(ts, kind)
    if table is None:
        return parse_ccs(text)

    entries = []
    ts.skip_newlines()
    while ts.peek().kind != "eof":
        name_tok = ts.expect("ident")
        ts.expect("sym", "=")
        node = _parse_expr(ts)
        ts.end_line()
        entries.append((name_tok, node))
    if not entries:
        raise ParseError(1, 1, "empty system")

    ops = set(table.sig.names)
    variables = {}
    for tok, node in entries:
        if tok.value in ops:
            raise ParseError(tok.line, tok.col,
                             f"variable {tok.value!r} shadows an operation")
        if tok.value in variables:
            raise ParseError(tok.line, tok.col,
                             f"variable {tok.value!r} defined twice")
        variables[tok.value] = node

    comp = _DetCompiler(table, variables, ops)
    rhs = {v: comp.rhs(node) for v, node in variables.items()}
    return System(table.kind, table, tuple(variables), rhs)


def format_term(table: RuleTable, t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not isinstance(t, App):
        raise ValueError(f"term {t!r} has no textual form")
    name, param = t.op.name, t.op.param
    if name == "const":
        return format_rat(param)
    if name == table.kind.prefix:
        return f"{format_label(param)} . {format_term(table, t.args[0])}"
    return _format_call(t.op, [format_term(table, a) for a in t.args])


def _format_call(op, args) -> str:
    """``op`` applied to formatted ``args``, its parameter leading."""
    if op.param is None:
        return f"{op.name}({', '.join(args)})"
    return f"{op.name}({', '.join([format_label(op.param), *args])})"


def _format_step(table: RuleTable, step: Step) -> str:
    terms = [format_term(table, c) for _, c in step.children]
    inner = terms[0] if len(terms) == 1 else f"({', '.join(terms)})"
    return f"{format_label(step.label)} . {inner}"


def _format_ctx(table: RuleTable, ctx) -> str:
    """A guarded term above its guards, where ``r . t`` is a `Guard`, not
    the `register` or `prefix` it is below them."""
    if isinstance(ctx, Guard):
        return _format_step(table, ctx.step)
    if not ctx.args:
        return format_term(table, ctx)
    return _format_call(ctx.op, [_format_ctx(table, a) for a in ctx.args])


def format_system(system: System) -> str:
    """Textual form of a system over a built-in table; parses back equal."""
    if not system.kind.deterministic:
        return format_ccs_system(system)
    lines = [f"kind {system.kind.header}"]
    for v in system.vars:
        rhs = system.rhs[v]
        if not isinstance(rhs, (Guard, App)):
            raise ValueError(f"rhs of {v!r} has no textual form")
        lines.append(f"{v} = {_format_ctx(system.table, rhs)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Behavioral differential equations


@dataclass(frozen=True)
class BdeProgram:
    """Parsed operation definitions plus the table of given operations."""

    kind: object
    given: RuleTable
    rps: RpsDef
    names: tuple

    def extended_table(self) -> RuleTable:
        return extend_with_rps(self.given, self.rps)


def _parse_head_expr(ts: TokenStream, head_kw, params):
    """The initial-value expression as a function of the argument labels."""
    def binary(op, a, b):
        return lambda labels: op(a(labels), b(labels))

    def atom():
        t = ts.peek()
        if t.kind == "num":
            ts.next()
            value = parse_rational(t.value, t.line, t.col)
            return lambda labels: value
        if ts.eat_sym("("):
            e = add()
            ts.expect("sym", ")")
            return e
        if t.kind == "ident" and t.value == head_kw:
            ts.next()
            ts.expect("sym", "(")
            var = ts.expect("ident")
            ts.expect("sym", ")")
            if var.value not in params:
                raise ParseError(var.line, var.col,
                                 f"unknown argument {var.value!r}")
            i = params.index(var.value)
            return lambda labels: labels[i]
        raise ParseError(t.line, t.col,
                         f"bad initial-value expression at {t.value!r}")

    def mul():
        e = atom()
        while ts.eat_sym("*"):
            e = binary(operator.mul, e, atom())
        return e

    def add():
        e = mul()
        while ts.eat_sym("+"):
            e = binary(operator.add, e, mul())
        return e

    return add()


def _clause_argument(pos, node):
    """The position of the `x` of head(x), tail(x), left(x), right(x) or
    root(x), arguments at ``pos`` by name."""
    _, name, args, tok = node
    if len(args) != 1 or args[0][0] != "var":
        raise ParseError(tok.line, tok.col,
                         f"{name!r} takes one argument name")
    var = args[0]
    if var[1] not in pos:
        raise ParseError(var[2].line, var[2].col,
                         f"unknown argument {var[1]!r}")
    return pos[var[1]]


class _ClauseCompiler:
    """Derivative clauses' parse nodes (`_parse_expr`) as functions from the
    premises to continuation terms over ``sig``, one compiler per program.
    A token serves only errors: a generated, well-formed node holds None."""

    def __init__(self, sig, kind):
        self.sig, self.kind, self.head_kw = sig, kind, kind.clauses[0]
        self.ports = dict(zip(kind.clauses[1:], kind.ports))
        self.reads = {}

    def _read(self, i, port=None):
        """Premise ``i``, or its continuation at ``port``; one per program."""
        fn = self.reads.get((i, port))
        if fn is None:
            fn = self.reads[i, port] = (lambda a: a[i].self_term) \
                if port is None else (lambda a: a[i].at(port))
        return fn

    def compile(self, pos, node):
        """The function of ``node``, arguments at ``pos`` by name."""
        sig, kind, head_kw = self.sig, self.kind, self.head_kw
        tag, tok = node[0], node[-1]
        if tag == "num":
            term = mk_app(sig.op("const", node[1]), ())
            return lambda a: term
        if tag == "var":
            if node[1] not in pos:
                raise ParseError(tok.line, tok.col, f"unknown name {node[1]!r}")
            return self._read(pos[node[1]])
        if tag == "guard":
            _, label, payload, _ = node
            if label[0] == "var":
                raise ParseError(tok.line, tok.col,
                                 f"unknown name {label[1]!r}")
            if kind.prefix is None:
                raise ParseError(tok.line, tok.col,
                                 "prefix terms are stream-only")
            return self.compile(pos, ("call", kind.prefix,
                                      [label, *payload], tok))
        _, name, args, _ = node
        if name == head_kw:
            i = _clause_argument(pos, node)
            return lambda a: mk_app(sig.op("const", a[i].head), ())
        if name in self.ports:
            return self._read(_clause_argument(pos, node), self.ports[name])
        try:
            decl = sig.decl(name)
        except UnknownSymbol:
            raise ParseError(tok.line, tok.col,
                             f"unknown operation {name!r}") from None
        if not decl.parametric:
            op = sig.op(name)
            op_of = lambda a: op  # noqa: E731
        elif args and args[0][0] == "num":
            op, args = sig.op(name, args[0][1]), args[1:]
            op_of = lambda a: op  # noqa: E731
        elif args and args[0][0] == "call" and args[0][1] == head_kw:
            i, args = _clause_argument(pos, args[0]), args[1:]
            op_of = lambda a: sig.op(name, a[i].head)  # noqa: E731
        else:
            raise ParseError(tok.line, tok.col,
                             f"{name!r} needs a rational parameter")
        if len(args) != decl.arity:
            raise ParseError(tok.line, tok.col,
                             f"{name!r} expects {decl.arity} arguments")
        kids = [self.compile(pos, n) for n in args]
        return lambda a: mk_app(op_of(a), tuple(k(a) for k in kids))


def parse_bde(text: str) -> BdeProgram:
    """Behavioral differential equations over the staged given table.

    Stream definitions have the shape
    ``f(x, y): head = <expr>; tail = <term>``; tree definitions provide
    ``root``, ``left``, and ``right`` clauses.  Clauses are equation-system
    terms in which ``x`` is the argument, ``tail(x)`` a continuation,
    ``head(x)``/``root(x)`` the argument's output as a constant, and
    ``r . t`` a stream register; ``mult(head(x), t)`` takes a parameter.
    """
    ts = TokenStream(text)
    given = _read_kind(ts, "stream")
    if given is None or given.kind.clauses is None:
        raise ParseError(1, 1, "bde files are `kind stream` or `kind tree`")
    kind = given.kind
    head_kw = kind.clauses[0]

    ts.skip_newlines()
    if ts.peek().kind == "ident" and ts.peek().value == "given":
        ts.next()
        while ts.peek().kind == "ident":
            g = ts.next()
            if g.value not in given.sig:
                raise ParseError(g.line, g.col,
                                 f"no given operation {g.value!r}")
        ts.end_line()

    defs = {}
    while ts.peek().kind != "eof":
        name_tok = ts.expect("ident")
        name = name_tok.value
        if name in defs:
            raise ParseError(name_tok.line, name_tok.col,
                             f"operation {name!r} defined twice")
        if name in given.sig:
            raise ParseError(name_tok.line, name_tok.col,
                             f"operation {name!r} shadows a given")
        ts.expect("sym", "(")
        params = []
        if not ts.at_sym(")"):
            while True:
                p = ts.expect("ident")
                if p.value in params:
                    raise ParseError(p.line, p.col,
                                     f"argument {p.value!r} named twice")
                params.append(p.value)
                if not ts.eat_sym(","):
                    break
        ts.expect("sym", ")")
        ts.expect("sym", ":")
        kw = ts.expect("ident")
        if kw.value != head_kw:
            raise ParseError(kw.line, kw.col,
                             f"definition must start with `{head_kw} =`")
        ts.expect("sym", "=")
        head_expr = _parse_head_expr(ts, head_kw, params)
        clauses = []
        for clause in kind.clauses[1:]:
            if not ts.eat_sym(";"):
                t = ts.peek()
                raise ParseError(t.line, t.col, f"missing `{clause} =` clause")
            kw = ts.expect("ident")
            if kw.value != clause:
                raise ParseError(kw.line, kw.col,
                                 f"expected clause {clause!r}")
            ts.expect("sym", "=")
            clauses.append(_parse_expr(ts))
        ts.end_line()
        defs[name] = (params, head_expr, clauses)
    return _bde_program(given, defs)


def _bde_program(given: RuleTable, defs) -> BdeProgram:
    """The program of ``defs``, ``{name: (params, head, clauses)}`` over
    ``given``: a head maps the argument labels to the label, and the
    clauses are parse nodes (`_parse_expr`), one per port of the kind."""
    kind = given.kind
    new_sig = signature(*((n, len(d[0])) for n, d in defs.items()))
    sum_sig = sig_sum(given.sig, new_sig)
    comp, rules = _ClauseCompiler(sum_sig, kind), {}
    for name, (params, head_expr, clauses) in defs.items():
        pos = {p: i for i, p in enumerate(params)}
        derivs = [comp.compile(pos, node) for node in clauses]

        def conclude(op, args, head_expr=head_expr, derivs=derivs):
            return Step(head_expr([a.head for a in args]),
                        tuple(zip(kind.ports, [d(args) for d in derivs])))

        rules[name] = GsosRule(sum_sig.template(name), conclude)
    return BdeProgram(kind, given, RpsDef(new_sig, rules), tuple(defs))


# ---------------------------------------------------------------------------
# CCS agent files
#
# AST as in `instances.ccs_term`: ("pref", a, t) ("sum", (t...)) ("par", l, r)
# ("seq", l, r) ("alt", l, r) ("relabel", pairs, t) ("restrict", names, t)
# ("ref", name)


_CCS_RESERVED = {"alt", "seq", "tau", "kind"}


def _parse_ccs_expr(ts: TokenStream, actions, names):
    """One agent expression.  Action names go into ``actions``; each
    identifier read as an action prefix or an agent reference goes into
    ``names`` as ``(token, is_prefix)``, to be checked once every agent is
    known."""
    def atom():
        t = ts.peek()
        if t.kind == "num" and t.value == "0":
            ts.next()
            return ("sum", ())
        if ts.eat_sym("("):
            e = expr()
            ts.expect("sym", ")")
            return e
        if t.kind != "ident":
            raise ParseError(t.line, t.col, f"expected an agent, got {t.value!r}")
        ts.next()
        name = t.value
        if name in ("alt", "seq") and ts.at_sym("("):
            ts.next()
            a = expr()
            ts.expect("sym", ",")
            b = expr()
            ts.expect("sym", ")")
            return (name, a, b)
        if ts.eat_sym("."):
            names.append((t, True))
            actions.add(name)
            return ("pref", name, postfix())
        names.append((t, False))
        return ("ref", name)

    def action():
        a = ts.expect("ident").value
        actions.add(a)
        return a

    def postfix():
        e = atom()
        while True:
            if ts.eat_sym("["):
                pairs = []
                while True:
                    a = action()
                    ts.expect("arrow", "->")
                    pairs.append((a, action()))
                    if not ts.eat_sym(","):
                        break
                ts.expect("sym", "]")
                e = ("relabel", tuple(pairs), e)
            elif ts.eat_sym("\\"):
                ts.expect("sym", "{")
                restricted = []
                if not ts.at_sym("}"):
                    restricted.append(action())
                    while ts.eat_sym(","):
                        restricted.append(action())
                ts.expect("sym", "}")
                e = ("restrict", tuple(sorted(restricted)), e)
            else:
                return e

    def seq_level():
        e = postfix()
        while ts.eat_sym(";"):
            e = ("seq", e, postfix())
        return e

    def par_level():
        e = seq_level()
        while ts.eat_sym("|"):
            e = ("par", e, seq_level())
        return e

    def expr():
        e = par_level()
        if ts.at_sym("+"):
            parts = [e]
            while ts.eat_sym("+"):
                parts.append(par_level())
            return ("sum", tuple(parts))
        return e

    return expr()


_NO_MOVES = Guard(process_step(()))


def _ccs_context(table, ast, path=()):
    """Guarded term of an agent AST; a sum of guards is one guard, and a
    guard with no moves (`0`) below any other operator is `nil`, which the
    `par` law drops."""
    tag = ast[0]
    if tag == "pref":
        return Guard(process_step(
            ((ast[1], instances.ccs_term(table, ast[2])),)))
    if tag == "ref":
        raise Unguarded(ast[1], path)
    op, subs = instances.ccs_op(table, ast)
    kids = tuple(_ccs_context(table, s, path + (i,))
                 for i, s in enumerate(subs))
    if tag == "sum" and all(isinstance(k, Guard) for k in kids):
        return Guard(process_step(
            tuple(m for k in kids for m in k.step.children)))
    nil = App(table.op("nil"), ())
    return App(op, tuple(nil if k == _NO_MOVES else k for k in kids))


def parse_ccs(text: str) -> System:
    """Parse mutually recursive agent definitions into a process system.

    An optional `kind process` header comes first.  One agent per line.
    Right-hand sides admit the prefix combinator anywhere inside terms;
    every agent variable must occur weakly guarded.  Agent constants
    require an explicit `.0` (`c.0`, not `c`).
    """
    ts = TokenStream(text)
    if _read_kind(ts, "process") is not None:
        raise ParseError(1, 1, "agent files are `kind process`")
    asts, actions, names = {}, set(), []
    while ts.peek().kind != "eof":
        name_tok = ts.expect("ident")
        name = name_tok.value
        if name in _CCS_RESERVED:
            raise ParseError(name_tok.line, name_tok.col,
                             f"{name!r} cannot name an agent")
        if name in asts:
            raise ParseError(name_tok.line, name_tok.col,
                             f"agent {name!r} defined twice")
        ts.expect("sym", "=")
        asts[name] = _parse_ccs_expr(ts, actions, names)
        t = ts.peek()
        if t.kind not in ("nl", "eof"):
            raise ParseError(t.line, t.col, f"junk after agent: {t.value!r}")
        ts.skip_newlines()
    if not asts:
        raise ParseError(1, 1, "empty agent file")
    for t, is_prefix in names:
        if is_prefix and t.value in asts:
            raise ParseError(t.line, t.col,
                             f"{t.value!r} is an agent, not an action")
        if not is_prefix and t.value not in asts:
            raise ParseError(t.line, t.col, f"unknown agent {t.value!r}")

    bases = sorted({a.rstrip("'") for a in actions} - {"tau"})
    kind = process_actions(*bases)
    table = instances.ccs_table(kind)
    rhs = {v: _ccs_context(table, ast) for v, ast in asts.items()}
    return System(kind, table, tuple(asts), rhs)


def _is_ccs_atom(t) -> bool:
    """Whether ``t`` needs no parentheses after a prefix."""
    return isinstance(t, Var) or (isinstance(t, App) and (
        t.op.name in ("nil", "pref") or t.op.name == "sum" and not t.args))


def _format_ccs_term(kind, t) -> str:
    """Agent text of a term, `Guard` leaves included."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Guard):
        moves = t.step.children
        if not moves:
            return "0"
        parts = []
        for port, term in moves:
            action = move_action(port)
            sub = _format_ccs_term(kind, term)
            parts.append(f"{action}.{sub}" if _is_ccs_atom(term)
                         else f"{action}.({sub})")
        return "(" + " + ".join(parts) + ")" if len(parts) > 1 else parts[0]
    name, param = t.op.name, t.op.param
    if name == "nil":
        return "0"
    if name == "pref":
        sub = _format_ccs_term(kind, t.args[0])
        return f"{param}.{sub}" if _is_ccs_atom(t.args[0]) \
            else f"{param}.({sub})"
    if name == "sum":
        if not t.args:
            return "0"
        if len(t.args) == 1:
            raise ValueError("one-armed sums have no textual form")
        return "(" + " + ".join(_format_ccs_term(kind, a)
                                for a in t.args) + ")"
    if name == "par":
        return (f"({_format_ccs_term(kind, t.args[0])} | "
                f"{_format_ccs_term(kind, t.args[1])})")
    if name in ("seq", "alt"):
        return (f"{name}({_format_ccs_term(kind, t.args[0])}, "
                f"{_format_ccs_term(kind, t.args[1])})")
    if name == "relabel":
        pairs = [f"{a}->{b}" for a, b in param
                 if a != b and not a.endswith("'") and a != kind.tau]
        return f"({_format_ccs_term(kind, t.args[0])})[{', '.join(pairs)}]"
    if name == "restrict":
        return (f"({_format_ccs_term(kind, t.args[0])})"
                "\\{" + ", ".join(param) + "}")
    raise ValueError(f"no textual form for {t!r}")


def format_ccs_system(system: System) -> str:
    lines = []
    for v in system.vars:
        rhs = system.rhs[v]
        if not isinstance(rhs, (Guard, App)):
            raise ValueError(f"rhs of {v!r} has no textual form")
        lines.append(f"{v} = {_format_ccs_term(system.kind, rhs)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Grammars in Greibach normal form


@dataclass(frozen=True)
class GnfFile:
    terminals: tuple
    nonterminals: tuple
    start: str
    productions: tuple  # ((lhs, (symbol, ...)), ...)


def _check_gnf_shape(g: GnfFile):
    terms, nonterms = set(g.terminals), set(g.nonterminals)
    for lhs, rhs in g.productions:
        shown = f"{lhs} -> {' '.join(rhs) if rhs else 'ε'}"
        if lhs not in nonterms:
            raise NotGnf(shown)
        if not rhs or rhs[0] not in terms:
            raise NotGnf(shown)
        if any(s not in nonterms for s in rhs[1:]):
            raise NotGnf(shown)


def parse_gnf(text: str) -> GnfFile:
    """Parse a grammar file; productions must be in Greibach normal form."""
    ts = TokenStream(text)
    header = {}
    ts.skip_newlines()
    for key in ("terminals", "nonterminals", "start"):
        kw = ts.expect("ident")
        if kw.value != key:
            raise ParseError(kw.line, kw.col, f"expected `{key}:` header")
        ts.expect("sym", ":")
        names = []
        while ts.peek().kind == "ident":
            names.append(ts.next().value)
        ts.end_line()
        header[key] = tuple(names)
    if len(header["start"]) != 1:
        raise ParseError(1, 1, "exactly one start symbol")
    for t in header["terminals"]:
        if len(t) != 1:
            raise ParseError(1, 1, f"terminals are single letters, got {t!r}")

    productions = []
    while ts.peek().kind != "eof":
        lhs = ts.expect("ident")
        ts.expect("arrow", "->")
        rhs = []
        while ts.peek().kind == "ident":
            rhs.append(ts.next().value)
        ts.end_line()
        productions.append((lhs.value, tuple(rhs)))

    g = GnfFile(header["terminals"], header["nonterminals"],
                header["start"][0], tuple(productions))
    if g.start not in g.nonterminals:
        raise ParseError(1, 1, f"start symbol {g.start!r} is not declared")
    _check_gnf_shape(g)
    return g


def format_gnf(g: GnfFile) -> str:
    lines = [
        "terminals: " + " ".join(g.terminals),
        "nonterminals: " + " ".join(g.nonterminals),
        "start: " + g.start,
    ]
    for lhs, rhs in g.productions:
        lines.append(f"{lhs} -> {' '.join(rhs)}")
    return "\n".join(lines) + "\n"


def compile_gnf(g: GnfFile) -> System:
    """One variable per nonterminal; the start variable solves to the
    generated language.  Each production `n -> a w` contributes the
    observation accepting nothing now and continuing after `a` with the
    concatenation of `w` (the empty product is the empty-word language)."""
    _check_gnf_shape(g)
    table = instances.language_table("".join(g.terminals))
    for n in g.nonterminals:
        if n in table.sig:
            raise NotGnf(f"nonterminal {n!r} shadows a language operation")
    empty = mk_app(table.op("empty"), ())

    def production_guard(terminal, body):
        if body:
            term = Var(body[0])
            for n in body[1:]:
                term = mk_app(table.op("concat"), (term, Var(n)))
        else:
            term = mk_app(table.op("eps"), ())
        return Guard(_letter_step(table, terminal, term))

    rhs = {}
    for n in g.nonterminals:
        guards = [production_guard(a_rhs[0], a_rhs[1:])
                  for lhs, a_rhs in g.productions if lhs == n]
        rhs[n] = guards[0] if guards else empty
        for guard in guards[1:]:
            rhs[n] = App(table.op("union"), (rhs[n], guard))
    return System(table.kind, table, tuple(g.nonterminals), rhs)


# ---------------------------------------------------------------------------
# Stream circuits (JSON)


_PORTS = {
    "input": (0, 1),
    "output": (1, 0),
    "adder": (2, 1),
    "copier": (1, 2),
    "mult": (1, 1),
    "register": (1, 1),
}


@dataclass(frozen=True)
class CircuitNode:
    id: str
    kind: str
    value: Optional[Fraction] = None


@dataclass(frozen=True)
class CircuitFile:
    nodes: tuple
    edges: tuple


def load_circuit(text: str) -> CircuitFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, f"bad JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise InvalidCircuit(f"circuit is {type(raw).__name__}, not object")
    items, pairs = raw.get("nodes", []), raw.get("edges", [])
    for key, value in (("nodes", items), ("edges", pairs)):
        if not isinstance(value, list):
            raise InvalidCircuit(f"{key} is {type(value).__name__}, not list")
    nodes = []
    for item in items:
        if not isinstance(item, dict):
            raise InvalidCircuit(f"node {item!r} is not an object")
        node_id = item.get("id")
        if not isinstance(node_id, str) or not re.fullmatch(
                r"[A-Za-z_][A-Za-z0-9_]*", node_id):
            raise InvalidCircuit(f"bad node id {node_id!r}")
        kind = item.get("kind")
        if not isinstance(kind, str) or kind not in _PORTS:
            raise InvalidCircuit(f"unknown node kind {kind!r}")
        value = item.get("value")
        if kind in ("mult", "register"):
            if value is None:
                raise InvalidCircuit(f"{kind} node {node_id!r} needs a value")
            try:
                value = Fraction(str(value))
            except (ValueError, ZeroDivisionError):
                raise InvalidCircuit(f"{kind} node {node_id!r} has value "
                                     f"{value!r}, not a rational") from None
        elif value is not None:
            raise InvalidCircuit(f"{kind} node {node_id!r} takes no value")
        nodes.append(CircuitNode(node_id, kind, value))
    ids = {n.id for n in nodes}
    if len(ids) != len(nodes):
        raise InvalidCircuit("duplicate node ids")
    edges = []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2 or not all(
                isinstance(end, str) for end in pair):
            raise InvalidCircuit(f"edge {pair!r} is not a pair of node ids")
        src, dst = pair
        if src not in ids or dst not in ids:
            raise DanglingPort(f"edge {src!r} -> {dst!r} misses a node")
        edges.append((src, dst))
    return CircuitFile(tuple(nodes), tuple(edges))


def format_circuit(cf: CircuitFile) -> str:
    nodes = []
    for n in cf.nodes:
        item = {"id": n.id, "kind": n.kind}
        if n.value is not None:
            item["value"] = format_rat(n.value)
        nodes.append(item)
    return json.dumps({"nodes": nodes, "edges": [list(e) for e in cf.edges]},
                      indent=2)


@dataclass(frozen=True)
class CompiledCircuit:
    """One BDE definition per output (`f_<id>`) and per register (`g_<id>`),
    each taking the backward-reachable input streams in circuit order."""

    program: BdeProgram
    inputs: tuple
    outputs: tuple  # ((symbol, output node id, (input ids...)), ...)
    registers: tuple  # ((symbol, register id, (input ids...)), ...)

    def table(self) -> RuleTable:
        return self.program.extended_table()


def _wire_value(node, labels, values):
    """A wire's parse node (`compile_circuit`) valued at the ``labels`` of
    its inputs by id and the ``values`` of its registers by symbol."""
    if node[0] == "var":
        return labels[node[1]]
    _, name, args, _ = node
    if name == "mult":
        return args[0][1] * _wire_value(args[1], labels, values)
    if name == "plus":
        return (_wire_value(args[0], labels, values)
                + _wire_value(args[1], labels, values))
    return values[name]


def compile_circuit(cf: CircuitFile) -> CompiledCircuit:
    """The circuit's BDE program over the reachable inputs: register ``r``
    is ``g_r: head = <value>; tail = <its wire>``, and output ``o`` is
    ``f_o: head = <its wire's head>; tail = <its wire's tail>``."""
    by_id = {n.id: n for n in cf.nodes}
    incoming = {n.id: [] for n in cf.nodes}
    outgoing = {n.id: [] for n in cf.nodes}
    for src, dst in cf.edges:
        incoming[dst].append(src)
        outgoing[src].append(dst)
    for n in cf.nodes:
        want_in, want_out = _PORTS[n.kind]
        if len(incoming[n.id]) != want_in or len(outgoing[n.id]) != want_out:
            raise DanglingPort(
                f"{n.kind} node {n.id!r} has {len(incoming[n.id])} inputs "
                f"and {len(outgoing[n.id])} outputs, needs "
                f"{want_in}/{want_out}")

    # validity: every loop must pass through a register
    loop = _register_free_loop(cf, incoming)
    if loop is not None:
        raise InvalidCircuit(
            "register-free loop through " + " -> ".join(loop), loop=loop)

    inputs = tuple(n.id for n in cf.nodes if n.kind == "input")
    input_pos = {nid: i for i, nid in enumerate(inputs)}

    def reachable_inputs(start):
        seen, stack = set(), [start]
        while stack:
            cur = stack.pop()
            if cur not in seen:
                seen.add(cur)
                stack.extend(incoming[cur])
        return tuple(sorted(seen & input_pos.keys(),
                            key=input_pos.__getitem__))

    registers = tuple(n for n in cf.nodes if n.kind == "register")
    outputs = tuple(n for n in cf.nodes if n.kind == "output")
    params = {n.id: reachable_inputs(n.id) for n in registers + outputs}

    def wire(src, whole=True):
        """The parse node of the stream out of ``src``, or of its tail; an
        output or a copier passes its input's on."""
        node = by_id[src]
        if node.kind == "input":
            var = ("var", src, None)
            return var if whole else ("call", "tail", [var], None)
        if node.kind == "register":
            if not whole:
                return wire(incoming[src][0])
            return ("call", f"g_{src}",
                    [("var", i, None) for i in params[src]], None)
        kids = [wire(s, whole) for s in incoming[src]]
        if node.kind == "mult":
            return ("call", "mult", [("num", node.value, None), *kids], None)
        return ("call", "plus", kids, None) if node.kind == "adder" \
            else kids[0]

    values = {f"g_{r.id}": r.value for r in registers}
    defs = {f"g_{r.id}": (params[r.id], lambda labels, v=r.value: v,
                          [wire(r.id, False)]) for r in registers}
    for o in outputs:
        def head(labels, node=wire(o.id), names=params[o.id]):
            return _wire_value(node, dict(zip(names, labels)), values)

        defs[f"f_{o.id}"] = (params[o.id], head, [wire(o.id, False)])
    return CompiledCircuit(
        _bde_program(instances.stream_table(), defs),
        inputs,
        tuple((f"f_{o.id}", o.id, params[o.id]) for o in outputs),
        tuple((f"g_{r.id}", r.id, params[r.id]) for r in registers),
    )


def _register_free_loop(cf: CircuitFile, incoming):
    """A cycle avoiding all registers, as a node-id list, or None."""
    blocked = {n.id for n in cf.nodes if n.kind == "register"}
    graph = {n.id: [s for s in incoming[n.id] if s not in blocked]
             for n in cf.nodes if n.id not in blocked}
    state = {}
    stack = []

    def visit(nid):
        state[nid] = 1
        stack.append(nid)
        for nxt in graph.get(nid, ()):
            if state.get(nxt) == 1:
                i = stack.index(nxt)
                return stack[i:] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[nid] = 2
        return None

    for nid in graph:
        if nid not in state:
            found = visit(nid)
            if found:
                return found
    return None


# ---------------------------------------------------------------------------
# Stream argument specs for the command line


def parse_stream_spec(spec: str):
    """Eventually periodic stream literal: `pre1;pre2|c1;c2`, `ones`,
    `zeros`, or a plain rational list (continued with zeros)."""
    spec = spec.strip()
    if spec == "ones":
        return (), (Fraction(1),)
    if spec == "zeros":
        return (), (Fraction(0),)
    pre_txt, bar, cyc_txt = spec.partition("|")

    def parts(txt):
        return tuple(parse_rational(p) for p in txt.split(";")) \
            if txt.strip() else ()

    pre, cyc = parts(pre_txt), parts(cyc_txt)
    if not bar:
        return pre, (Fraction(0),)
    return pre, cyc or (Fraction(0),)

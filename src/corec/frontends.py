"""Parsers and compilers for the input file formats.

Equation systems and behavioral differential equations are one file
format with one reader, `_read`, and two views: `parse_system` gives a
file's equations, over its kind's table extended by the file's
definitions, and `parse_bde` its definitions.  Those files, agent files
and grammars are line-oriented text with `#` comments; circuits are JSON.
Rational literals accept `p/q`, decimal, and integer forms and are read
exactly.  A `TokenStream` reads a text's token values with one `findall`
and their kinds off their first characters; the readers index those two
lists, and a parse node holds the index of its first token, whose line and
column are found only for an error.  Each text format is read in one pass
over its tokens, in time linear in the file size, with one `Var` per
variable name and one symbol per name and parameter.  `_read_kind` maps a
`kind …` header or a kind argument to a built-in table.  Equations and
definition clauses are one term grammar, read by `_parse_expr` and
compiled by `_Compiler`, each on an explicit stack, so a term of any depth
reads and compiles.  A definition, parsed or made from a circuit, is
compiled once into its conclusion on symbolic premises, which one
`_conclude` fills in; such a rule is natural and concludes on the kind's
ports by construction, so a program's table is built without probing it
(`BdeProgram.extended_table`).  Agents and initial values are read by
one loop, `_infix`, on a stack of the groups still open, and an agent's
term is built on `build_term`'s.  `format_rat` and `format_label` print
labels for the CLI.
"""

from __future__ import annotations

import json
import operator
import re
import string
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import compress, islice
from operator import itemgetter
from typing import Optional

from .behavior import Step, SymbolicLabel, process_actions, process_step
from .errors import (
    CorecError,
    DanglingPort,
    InvalidCircuit,
    NotGnf,
    ParseError,
)
from .rules import GsosRule, RpsDef, RuleTable, _adjoin
from .solver import System
from .terms import (App, Guard, OpSym, Signature, Slot, Term, Var,
                    build_term, mk_app, sig_sum, signature)
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


# One findall reads the token values.  The pattern skips the blanks and the
# comment before a token and captures an identifier, a number, a newline,
# an arrow, any other single character, which is an error, or the empty
# value at the end.  A token's kind is its first character's.  Outside the
# table are `-`, which starts an arrow or a number, and non-ASCII digits,
# which `\d` takes: any other character there is an error.
_TOKEN_RE = re.compile(r"""[ \t\r]*(?:\#[^\n]*)?
    ( [A-Za-z_][A-Za-z0-9_]*'* | -?\d+(?:/\d+|\.\d+)? | \n | -> | . | \Z )""",
                       re.VERBOSE)
_FIRST = dict.fromkeys(string.ascii_letters + "_", "ident") \
    | dict.fromkeys(string.digits, "num") \
    | dict.fromkeys("().,;:=+*|\\{}[]", "sym") | {"\n": "nl"}


_INT_RATIO = re.compile(r"(-?\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    """A rational, `p/q` or a decimal, as a Fraction; anything else, a zero
    denominator included, is a ParseError at line 1, col 1, which a reader
    of tokens moves to the token.  Integers and ratios of integers are read
    through `int`."""
    try:
        m = _INT_RATIO.fullmatch(text)
        return Fraction(int(m[1]), int(m[2] or 1)) if m \
            else Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        what = "bad rational" if isinstance(exc, ValueError) else \
            "zero denominator in"
        raise ParseError(1, 1, f"{what} {text.strip()!r}") from None


class TokenStream:
    """A text's token values, the empty `eof` value last, and their kinds:
    two lists that readers index, at the cursor ``i`` or at an index they
    hold.  A token's line and column are found only for an error, by
    lexing the text again (`positions`)."""

    def __init__(self, text: str):
        self.text = text
        values = self.values = _TOKEN_RE.findall(text)
        if len(values) > 1 and not values[-2]:  # the end, after blanks,
            values.pop()  # matches once with them and once alone
        kinds = self.kinds = list(map(_FIRST.get,
                                      map(itemgetter(0), values[:-1])))
        kinds.append("eof")
        if None in kinds:  # `-`, a non-ASCII digit or a stray character
            for i, value in enumerate(values):
                if kinds[i] is None:
                    kinds[i] = "arrow" if value == "->" else "num" \
                        if value[1:] or value.isdecimal() else None
                    if kinds[i] is None:
                        raise self.error(i, f"unexpected character {value!r}")
        self.rats = {}
        self.i = 0

    def positions(self):
        """Each token's line and column, in order."""
        line, start = 1, 0
        for m in _TOKEN_RE.finditer(self.text):
            at = m.start(1)
            yield line, at - start + 1
            if m[1] == "\n":
                line, start = line + 1, at + 1

    def error(self, i, message) -> ParseError:
        """A ParseError at token ``i``."""
        return ParseError(*next(islice(self.positions(), i, None)), message)

    def rational(self, i) -> Fraction:
        """Token ``i`` read by `parse_rational`; one Fraction per spelling."""
        value = self.values[i]
        r = self.rats.get(value)
        if r is None:
            try:
                r = self.rats[value] = parse_rational(value)
            except ParseError as exc:
                raise self.error(i, exc.message) from None
        return r

    def ident(self) -> int:
        """The index of the identifier at the cursor, which moves past it."""
        i = self.i
        if self.kinds[i] != "ident":
            raise self.error(i, f"expected 'ident', got {self.values[i]!r}")
        self.i = i + 1
        return i

    def expect(self, value):
        """Move the cursor past ``value``, which must be there."""
        i = self.i
        if self.values[i] != value:
            raise self.error(i, f"expected {value!r}, got {self.values[i]!r}")
        self.i = i + 1

    def eat(self, value) -> bool:
        if self.values[self.i] == value:
            self.i += 1
            return True
        return False

    def skip_newlines(self):
        while self.kinds[self.i] == "nl":
            self.i += 1

    def end_line(self, junk="junk at end of line"):
        i = self.i
        if self.kinds[i] not in ("nl", "eof"):
            raise self.error(i, f"{junk}: {self.values[i]!r}")
        self.skip_newlines()


# ---------------------------------------------------------------------------
# Terms of systems and BDE clauses: one reader and one compiler
#
# Parse nodes: ("num", r, i)  ("var", name, i)  ("call", name, args, i)
# ("guard", label, payload-list, i), its label a "num" or "var" node; ``i``
# is the index of the node's first token, which positions an error.


def _parse_expr(ts: TokenStream, i):
    """The parse node of the term at token ``i``, and the index after it,
    read in one loop over a stack of the calls and guards still open: a
    call, or a guard's parenthesized payload, closes at its `)`, and a
    guard's bare payload after one term."""
    values, kinds, opened = ts.values, ts.kinds, []
    while True:
        if kinds[i] == "ident" and values[i + 1] == "(":
            if values[i + 2] != ")":
                opened.append(("call", values[i], [], i, True))
                i += 2
                continue
            node, i = ("call", values[i], [], i), i + 3
        else:
            if kinds[i] == "ident":
                node = ("var", values[i], i)
            elif kinds[i] == "num":
                node = ("num", ts.rational(i), i)
            else:
                raise ts.error(i, f"expected a term, got {values[i]!r}")
            if values[i + 1] == ".":
                paren = values[i + 2] == "("
                opened.append(("guard", node, [], i, paren))
                i += 3 if paren else 2
                continue
            i += 1
        while opened:  # close what ``node`` completes
            tag, head, args, at, closes = opened[-1]
            args.append(node)
            if closes:
                if values[i] == ",":
                    i += 1
                    break
                if values[i] != ")":
                    raise ts.error(i, f"expected ')', got {values[i]!r}")
                i += 1
            opened.pop()
            node = (tag, head, args, at)
        else:
            return node, i


def _letter_step(sig, ports, letter, term) -> Step:
    """The language step that accepts nothing now and continues with
    ``term`` after ``letter`` and with the empty language after the rest."""
    empty = mk_app(sig.op("empty"), ())
    return Step(False, tuple((a, term if a == letter else empty)
                             for a in ports))


_PARAM_TYPES = {"rat": "rational", "letter": "letter", "bit": "0/1"}


class _Compiler:
    """The one compiler of parse nodes into terms over ``sig``, for system
    right-hand sides and BDE clauses, on the stack of `build_term`, with one
    symbol per name and parameter.  A name in ``leaves`` is its leaf, a
    system's `Var` or a definition's argument `Slot`, and another name a
    nullary symbol; a numeral is `const`, and `r . t` the ``kind``'s prefix
    symbol.  ``reads``, a BDE's clause names and none in systems, read an
    argument: of P ports argument i is `Slot` i·(P+1), ``reads[k](x_i)``
    its k-th continuation `Slot` i·(P+1)+k, as `rules.plan_rule` numbers
    holes, and ``reads[0](x_i)`` `SymbolicLabel(i)`, in `const` or a
    parameter.  ``error`` places an error at a node's token."""

    def __init__(self, sig, kind, leaves, reads, error):
        self.sig, self.kind, self.leaves, self.reads = sig, kind, leaves, reads
        self.error, self.syms = error, {}

    def term(self, node) -> Term:
        leaf = self.leaves.get(node[1]) if node[0] == "var" else None
        return leaf if leaf is not None else build_term(node, self._split)

    def rhs(self, node):
        """The term of a system's right-hand side above its guards, where
        `r . t` is a `Guard`; `Guard.above` checks it guarded."""
        if node[0] == "guard":
            return Guard(self._step(node))
        return build_term(node, self._split_rhs)

    def _split_rhs(self, node):
        tag = node[0]
        if tag == "guard":
            return Guard(self._step(node)), None
        return self._call(node) if tag == "call" else (self.term(node), None)

    def _step(self, node) -> Step:
        """A label and one term per port, or a language's letter guard."""
        _, label, payload, at = node
        kind = self.kind
        if label[0] == "var" and not kind.rational:
            if label[1] not in kind.ports or len(payload) != 1:
                raise self.error(at, "letter guard is "
                                 f"`letter . term`, a letter of {kind.ports}")
            return _letter_step(self.sig, kind.ports, label[1],
                                self.term(payload[0]))
        n = len(kind.ports)
        if label[0] != "num" or len(payload) != n or not (
                kind.rational or label[1] in (0, 1)):
            raise self.error(at, f"{kind.name} guard is `"
                             f"{'rational' if kind.rational else '0/1'} . "
                             f"{'term' if n == 1 else f'({n} terms)'}`")
        value = label[1] if kind.rational else bool(label[1])
        return Step(value, tuple(zip(kind.ports, map(self.term, payload))))

    def _split(self, node):
        """A term node's symbol and argument nodes, or its leaf and None."""
        tag = node[0]
        if tag == "var":
            leaf = self.leaves.get(node[1])
            if leaf is not None:
                return leaf, None
            if node[1] not in self.sig:
                raise self.error(node[2], f"unknown name {node[1]!r}")
            node = ("call", node[1], [], node[2])
        elif tag == "num":
            node = ("call", "const", [node], node[2])
        elif tag == "guard":
            if self.kind.prefix is None:
                raise self.error(node[3], "prefix terms are stream-only")
            node = ("call", self.kind.prefix, [node[1], *node[2]], node[3])
        return self._call(node)

    def _call(self, node):
        _, name, args, at = node
        if name in self.reads:
            i, k = self._argument(node), self.reads.index(name)
            if k:
                return _slot(i * len(self.reads) + k), None
            return self._op("const", _premise_label(i)), ()
        if name not in self.sig:
            raise self.error(at, f"variable {name!r} applied to arguments"
                             if name in self.leaves
                             else f"unknown operation {name!r}")
        param = None
        if self.sig.decl(name).parametric:
            param = self._param(name, args[0] if args else ("", None), at)
            args = args[1:]
        op = self._op(name, param)
        if len(args) != op.arity:
            raise self.error(at, f"{name!r} expects {op.arity} arguments")
        return op, args

    def _param(self, name, node, at):
        """The parameter ``node`` leading the arguments of ``name`` at
        ``at``: a numeral, a letter, or the head read of an argument."""
        ptype, (tag, value) = self.kind.params.get(name), node[:2]
        if tag == "num" and ptype == "rat":
            return value
        if tag == "num" and ptype == "bit" and value in (0, 1):
            return bool(value)
        if tag == "var" and ptype == "letter":
            if value in self.kind.ports:
                return value
            raise self.error(node[2], f"{value!r} is not in the alphabet")
        if tag == "var" and value not in self.leaves and value not in self.sig:
            raise self.error(node[2], f"unknown name {value!r}")
        if tag == "call" and value in self.reads[:1]:
            return _premise_label(self._argument(node))
        raise self.error(
            at, f"{name!r} needs a {_PARAM_TYPES[ptype]} parameter")

    def _argument(self, node):
        """The number of the argument ``x`` that ``read(x)`` reads."""
        _, name, args, at = node
        if len(args) != 1 or args[0][0] != "var":
            raise self.error(at, f"{name!r} takes one argument name")
        _, var, at = args[0]
        if var not in self.leaves:
            raise self.error(at, f"unknown argument {var!r}")
        return self.leaves[var].node // len(self.reads)

    def _op(self, name, param=None):
        """The symbol ``name`` with ``param``, one object per pair; a
        `SymbolicLabel`, which has no hash, gets a new one."""
        if param.__class__ is SymbolicLabel:
            return self.sig.op(name, param)
        op = self.syms.get((name, param))
        if op is None:
            op = self.syms[name, param] = self.sig.op(name, param)
        return op


# ---------------------------------------------------------------------------
# Equation-system and BDE files: one reader, two views


def _read_kind(text: str, kind=None):
    """The `TokenStream` of ``text`` past its `kind …` header, and the table
    that the header, or else ``kind`` ("stream", "tree", "language:<letters>",
    "process" or a kind object), names; None for processes, whose actions
    fix their table.  The only reader of kinds."""
    ts = TokenStream(text)
    ts.skip_newlines()
    at = None
    if ts.values[ts.i] == "kind":
        ts.i += 1
        at = ts.ident()
        name = ts.values[at]
        letters = ts.values[ts.ident()] if name == "language" else ""
        ts.end_line()
    elif kind is None:
        raise ParseError(1, 1, "no kind header and no kind argument")
    elif isinstance(kind, str):
        name, _, letters = kind.partition(":")
    else:
        name, _, letters = kind.header.partition(" ")
    if name == "process":
        return ts, None
    if name == "language":
        return ts, instances.language_table(letters)
    if name == "stream":
        return ts, instances.stream_table()
    if name == "tree":
        return ts, instances.tree_table()
    message = f"unknown kind {name!r}"
    raise ParseError(1, 1, message) if at is None else ts.error(at, message)


def parse_system(text: str, kind=None) -> System:
    """The equations of a file read by `_read`, over its kind's table and
    definitions.  The file may declare its kind (`kind stream`, `kind tree`,
    `kind language ab`, `kind process`); otherwise ``kind`` must name one
    ("stream", "tree", "language:<letters>", "process", or a kind object).
    A process system is an agent file, as `parse_ccs` reads it."""
    ts, given = _read_kind(text, kind)
    if given is None:
        return _read_agents(ts)
    system = _read(ts, given)[1]
    if not system.vars:
        raise ParseError(1, 1, "empty system")
    return system


def parse_bde(text: str) -> BdeProgram:
    """The definitions of a file read by `_read`, a `kind stream` file
    unless it declares `kind tree`: behavioral differential equations over
    the kind's built-in table."""
    ts, given = _read_kind(text, "stream")
    if given is None or given.kind.clauses is None:
        raise ParseError(1, 1, "bde files are `kind stream` or `kind tree`")
    return _read(ts, given)[0] or _bde_program(given, {})


@dataclass(frozen=True)
class BdeProgram:
    """Compiled operation definitions plus the table of given operations
    (`parse_bde`, `compile_circuit`).  The rules are compiled over ``sig``,
    the sum of ``given``'s signature and ``rps.new_sig``."""

    kind: object
    given: RuleTable
    rps: RpsDef
    names: tuple
    sig: Signature
    _table: object = field(default=None, init=False, repr=False, compare=False)

    def extended_table(self) -> RuleTable:
        """``given`` extended by the definitions over ``sig``, built once, and
        unprobed: each rule fills in a step built from `Slot`s and label
        arithmetic, so it is natural and concludes on the kind's ports, and
        the table takes ``given``'s report (`rules.validate_table` probes)."""
        if self._table is None:
            object.__setattr__(self, "_table", _adjoin(
                self.given, self.rps.new_sig, self.rps.rules,
                "bde definition", self.sig))
        return self._table


def _read(ts: TokenStream, given: RuleTable):
    """The definitions' `BdeProgram`, None if there are none, and the
    equations' `System` of a file past its kind header, which names
    ``given``.  One a line come: an optional `given` line, naming operations
    of ``given``; in a stream or tree file, definitions ``f(x, y): head =
    <expr>; tail = <term>``, or with clauses ``root``, ``left``, ``right``
    for trees, where ``x`` is the argument, ``tail(x)`` a continuation,
    ``head(x)``/``root(x)`` its output as a constant, ``r . t`` a stream
    register, and ``mult(head(x), t)`` takes a parameter; then equations
    ``v = <term>`` over the table the definitions extend, or ``given``."""
    values, kinds, kind = ts.values, ts.kinds, given.kind
    if ts.eat("given"):
        while kinds[ts.i] == "ident":
            if values[ts.i] not in given.sig:
                raise ts.error(ts.i, f"no given operation {values[ts.i]!r}")
            ts.i += 1
        ts.end_line()

    defs = {}
    while kind.clauses and kinds[ts.i] == "ident" and values[ts.i + 1] == "(":
        at = ts.ident()
        name = values[at]
        if name in defs:
            raise ts.error(at, f"operation {name!r} defined twice")
        if name in given.sig:
            raise ts.error(at, f"operation {name!r} shadows a given")
        ts.i += 1
        params = []
        while values[ts.i] != ")" and (not params or ts.eat(",")):
            p = ts.ident()
            if values[p] in params:
                raise ts.error(p, f"argument {values[p]!r} named twice")
            params.append(values[p])
        ts.expect(")")
        ts.expect(":")
        exprs = []
        for k, clause in enumerate(kind.clauses):
            if k and not ts.eat(";"):
                raise ts.error(ts.i, f"missing `{clause} =` clause")
            kw = ts.ident()
            if values[kw] != clause:
                raise ts.error(kw, f"expected clause {clause!r}" if k
                               else f"definition must start with `{clause} =`")
            ts.expect("=")
            node, ts.i = _parse_expr(ts, ts.i) if k \
                else _parse_head_expr(ts, clause, params)
            exprs.append(node)
        ts.end_line()
        defs[name] = (params, exprs[0], exprs[1:])
    program = _bde_program(given, defs, ts.error) if defs else None
    table = program.extended_table() if defs and values[ts.i] else given

    # Past the definitions, whose clause names precede an `=` too, a
    # variable's name is the token before its `=`, the only `=` an equation
    # holds, so each right-hand side is compiled as soon as it is read.
    # The first error of the compiler waits, so that errors come in the
    # order: syntax, then names, then right-hand sides.
    comp = _Compiler(table.sig, kind, {v: Var(v) for v in compress(
        values[ts.i:], map("=".__eq__, values[ts.i + 1:]))}, (), ts.error)
    names, rhs, late = [], {}, None
    while kinds[ts.i] != "eof":
        names.append(ts.ident())
        if values[ts.i] == "(":
            raise ts.error(names[-1], "definitions come before the "
                           "equations, in stream and tree files")
        ts.expect("=")
        node, ts.i = _parse_expr(ts, ts.i)
        ts.end_line()
        if late is None:
            try:
                t = rhs.setdefault(values[names[-1]], comp.rhs(node))
                Guard.above(t)
            except CorecError as exc:
                late = exc

    first = {}
    for at in names:
        name = values[at]
        if name in table.sig:
            raise ts.error(at, f"variable {name!r} shadows an operation")
        if first.setdefault(name, at) != at:
            raise ts.error(at, f"variable {name!r} defined twice")
    if late is not None:
        raise late
    return program, System(kind, table, tuple(rhs), rhs)


def _infix(ts: TokenStream, levels, operand):
    """The expression at the cursor of operands and the infix tokens of
    ``levels``, ``{token: (rank, join)}``, loosest rank 0, each joining the
    operands it separates, left to right, read in one loop: ``operand()``
    is an operand, or opens a group, ``[k, close]``: ``k`` takes the
    group's expression, which ``close`` ends, answering as ``operand``."""
    values, groups, waiting = ts.values, [], []
    v = operand()
    while True:
        while v.__class__ is list:  # a group opens
            groups.append([*v, waiting])
            waiting, v = [], operand()
        rank, join = levels.get(values[ts.i], (-1, None))
        while waiting and waiting[-1][0] > rank:  # the tighter levels end
            _, done, parts = waiting.pop()
            v = done(parts + [v])
        if join is not None:
            ts.i += 1
            if not waiting or waiting[-1][0] < rank:
                waiting.append((rank, join, []))
            waiting[-1][2].append(v)
            v = operand()
        elif groups:
            k, close, waiting = groups.pop()
            ts.expect(close)
            v = k(v)
        else:
            return v


def _pairwise(op, parts):
    """``parts`` joined by ``op`` in a tree of depth log2 of their number."""
    while len(parts) > 1:
        parts = [op(a, b) for a, b in zip(parts[::2], parts[1::2])] \
            + parts[len(parts) // 2 * 2:]
    return parts[0]


_VALUE_LEVELS = {"+": (0, partial(_pairwise, operator.add)),
                 "*": (1, partial(_pairwise, operator.mul))}

# Premise labels and slots are immutable, so one object per number serves
# every program: a wide circuit keeps one, not one per definition.
_premise_label = lru_cache(maxsize=None)(SymbolicLabel)
_slot = lru_cache(maxsize=None)(Slot)


def _parse_head_expr(ts: TokenStream, head_kw, params):
    """The initial value at the cursor and the index after it: a Fraction,
    or the `SymbolicLabel` that its arithmetic records over ``head(x)``,
    `SymbolicLabel(k)` for the k-th of the argument names ``params``."""
    values = ts.values

    def operand():
        i = ts.i
        ts.i = i + 1
        if ts.kinds[i] == "num":
            return ts.rational(i)
        if values[i] == "(":
            return [lambda e: e, ")"]
        if values[i] == head_kw:
            ts.expect("(")
            var = ts.ident()
            ts.expect(")")
            if values[var] not in params:
                raise ts.error(var, f"unknown argument {values[var]!r}")
            return _premise_label(params.index(values[var]))
        raise ts.error(i, f"bad initial-value expression at {values[i]!r}")

    return _infix(ts, _VALUE_LEVELS, operand), ts.i


def _conclude(step: Step, op, args) -> Step:
    """A compiled conclusion ``step`` (`_bde_program`) at the premises
    ``args``: each `Slot` the premise so numbered, each `SymbolicLabel` its
    value at their labels; at `rules.plan_symbolic`'s, ``step`` itself."""
    if not args or args[0].head.__class__ is SymbolicLabel:
        return step
    labels = [a.head for a in args]
    slots = [s for a in args for s in (a.self_term, *[t for _, t in a.tails])]

    def split(t):
        if t.__class__ is Slot:
            return slots[t.node], None
        sym = t.op
        if sym.param.__class__ is SymbolicLabel:
            sym = OpSym(sym.name, sym.arity, sym.sig_id, sym.param.ev(labels))
        return (sym, t.args) if t.args or sym is not t.op else (t, None)

    label = step.label.ev(labels) if step.label.__class__ is SymbolicLabel \
        else step.label
    return Step(label, tuple([(p, slots[t.node] if t.__class__ is Slot
                               else build_term(t, split))
                              for p, t in step.children]))


def _bde_program(given: RuleTable, defs, error=None) -> BdeProgram:
    """The program of ``defs``, ``{name: (params, head, clauses)}`` over
    ``given``, a head a Fraction or a `SymbolicLabel` over the arguments and
    a clause a parse node per port; ``error`` places an error at a node's
    token.  Each rule concludes its compiled step through `_conclude`."""
    new_sig = signature(*((n, len(d[0])) for n, d in defs.items()))
    sig, kind = sig_sum(given.sig, new_sig), given.kind
    comp, rules = _Compiler(sig, kind, {}, kind.clauses, error), {}
    for name, (params, head, clauses) in defs.items():
        comp.leaves = {p: _slot(i * len(kind.clauses))
                       for i, p in enumerate(params)}
        step = Step(head, tuple(zip(kind.ports, map(comp.term, clauses))))
        rules[name] = GsosRule(sig.template(name), partial(_conclude, step))
    return BdeProgram(kind, given, RpsDef(new_sig, rules), tuple(defs), sig)


# ---------------------------------------------------------------------------
# CCS agent files
#
# AST as in `instances.ccs_term`: ("pref", a, t) ("sum", (t...)) ("par", l, r)
# ("seq", l, r) ("alt", l, r) ("relabel", pairs, t) ("restrict", names, t)
# ("ref", name)


_CCS_RESERVED = {"alt", "seq", "tau", "kind"}
_AGENT_LEVELS = {"+": (0, lambda parts: ("sum", tuple(parts))),
                 "|": (1, partial(reduce, lambda a, b: ("par", a, b))),
                 ";": (2, partial(reduce, lambda a, b: ("seq", a, b)))}


def _parse_ccs_expr(ts: TokenStream, actions, names):
    """One agent expression from the cursor on, read by `_infix`.  Action
    names go into ``actions``; the index of each identifier read as an
    action prefix, which a `.` follows, or as an agent reference goes into
    ``names``, to be checked once every agent is known."""
    values, kinds = ts.values, ts.kinds

    def action(i):
        a = values[i]
        if a[-2:] == "''" or a == "tau'":
            raise ts.error(i, f"malformed action {a!r}")
        actions.add(a)
        return a

    def operand(prefixes=None, e=None):
        """The prefixes `a.` at the cursor, read in one loop, then an atom,
        or a group that `(`, `alt(` or `seq(` opens and a call with
        ``prefixes`` ends, taking its agent ``e``; ``e`` under its `[…]`/
        `\\{…}` postfixes, each read in one loop, and under ``prefixes``."""
        if prefixes is None:
            prefixes = []
            while kinds[ts.i] == "ident" and values[ts.i + 1] == ".":
                names.append(ts.i)
                prefixes.append(action(ts.i))
                ts.i += 2
            i = ts.i
            value, ts.i = values[i], i + 1
            if value == "(":
                return [partial(operand, prefixes), ")"]
            if value == "0":
                e = ("sum", ())
            elif kinds[i] != "ident":
                raise ts.error(i, f"expected an agent, got {value!r}")
            elif values[i + 1] == "(" and value in ("alt", "seq"):
                ts.i = i + 2
                return [lambda a: [lambda b: operand(
                    prefixes, (value, a, b)), ")"], ","]
            else:
                names.append(i)
                e = ("ref", value)
        while values[ts.i] in ("[", "\\"):
            pairs, items = values[ts.i] == "[", []
            ts.i += 1
            if not pairs:
                ts.expect("{")
            while ts.eat(",") if items else pairs or values[ts.i] != "}":
                i = ts.ident()
                a = action(i)
                if pairs:
                    if a.rstrip("'") in {s.rstrip("'") for s, _ in items}:
                        raise ts.error(i, f"action {a!r} relabeled twice")
                    ts.expect("->")
                    a = (a, action(ts.ident()))
                items.append(a)
            ts.expect("]" if pairs else "}")
            e = ("relabel", tuple(items), e) if pairs \
                else ("restrict", tuple(sorted(items)), e)
        for a in reversed(prefixes):
            e = ("pref", a, e)
        return e

    return _infix(ts, _AGENT_LEVELS, operand)


_NO_MOVES = Guard(process_step(()))


def _ccs_contexts(table, asts, shared):
    """Each agent AST of ``asts`` as a term, on `build_term`: a prefix is a
    `Guard`, a sum of guards one guard, and a guard with no moves (`0`)
    below any other operator `nil`, which the `par` law drops.  Leaves and
    symbols are shared through ``shared``, as in `instances.ccs_term`."""
    def split(ast):
        if ast[0] == "pref":
            return Guard(process_step(((ast[1], instances.ccs_term(
                table, ast[2], shared)),))), None
        if ast[0] == "ref":
            return instances.ccs_term(table, ast, shared), None
        return instances.ccs_op(table, ast, shared)

    def join(op, kids):
        if op.name in ("sum", "nil") and {type(k) for k in kids} <= {Guard}:
            return Guard(process_step(
                tuple(m for k in kids for m in k.step.children)))
        return App(op, tuple([k if k != _NO_MOVES else instances.ccs_term(
            table, ("sum", ()), shared) for k in kids]))

    return {v: build_term(ast, split, join) for v, ast in asts.items()}


def parse_ccs(text: str) -> System:
    """Parse mutually recursive agent definitions into a process system.

    An optional `kind process` header comes first.  One agent per line.
    Right-hand sides admit the prefix combinator anywhere inside terms;
    every agent variable must occur weakly guarded.  Agent constants
    require an explicit `.0` (`c.0`, not `c`).
    """
    return _read_agents(*_read_kind(text, "process"))


def _read_agents(ts: TokenStream, table=None) -> System:
    """The process system of an agent file past a header naming no table."""
    if table is not None:
        raise ParseError(1, 1, "agent files are `kind process`")
    asts, actions, names, values = {}, set(), [], ts.values
    while ts.kinds[ts.i] != "eof":
        at = ts.ident()
        name = values[at]
        if name in _CCS_RESERVED:
            raise ts.error(at, f"{name!r} cannot name an agent")
        if name in asts:
            raise ts.error(at, f"agent {name!r} defined twice")
        ts.expect("=")
        asts[name] = _parse_ccs_expr(ts, actions, names)
        ts.end_line("junk after agent")
    if not asts:
        raise ParseError(1, 1, "empty agent file")
    for i in names:
        name = values[i]
        if values[i + 1] == ".":
            if name in asts:
                raise ts.error(i, f"{name!r} is an agent, not an action")
        elif name not in asts:
            raise ts.error(i, f"unknown agent {name!r}")

    bases = sorted({a.rstrip("'") for a in actions} - {"tau"})
    kind = process_actions(*bases)
    table, shared = instances.ccs_table(kind), {}
    rhs = _ccs_contexts(table, asts, shared)
    for t in rhs.values():
        Guard.above(t)
    return System(kind, table, tuple(asts), rhs)


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
    values, kinds = ts.values, ts.kinds

    def idents():
        start = ts.i
        while kinds[ts.i] == "ident":
            ts.i += 1
        return tuple(values[start:ts.i])

    header = {}
    ts.skip_newlines()
    for key in ("terminals", "nonterminals", "start"):
        kw = ts.ident()
        if values[kw] != key:
            raise ts.error(kw, f"expected `{key}:` header")
        ts.expect(":")
        header[key] = idents()
        ts.end_line()
    if len(header["start"]) != 1:
        raise ParseError(1, 1, "exactly one start symbol")
    for t in header["terminals"]:
        if len(t) != 1:
            raise ParseError(1, 1, f"terminals are single letters, got {t!r}")

    productions = []
    while kinds[ts.i] != "eof":
        lhs = values[ts.ident()]
        ts.expect("->")
        productions.append((lhs, idents()))
        ts.end_line()

    g = GnfFile(header["terminals"], header["nonterminals"],
                header["start"][0], tuple(productions))
    if g.start not in g.nonterminals:
        raise ParseError(1, 1, f"start symbol {g.start!r} is not declared")
    _check_gnf_shape(g)
    return g


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
        return Guard(_letter_step(table.sig, table.kind.ports,
                                  terminal, term))

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


def compile_circuit(cf: CircuitFile) -> CompiledCircuit:
    """The circuit's BDE program over the reachable inputs.  One walk in
    Kahn's order of the non-registers gives each wire its linear form
    ``{input or register id: coefficient}``.  Register ``r`` is ``g_r``,
    head its value and tail its input's form; output ``o`` is ``f_o``, its
    form read at the heads, then at the tails, of inputs and registers.
    Each takes the inputs that reach it, in input order, which one pass
    over the registers' forms finds (`_reachable_inputs`)."""
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

    waiting = {n.id: sum(by_id[s].kind != "register" for s in incoming[n.id])
               for n in cf.nodes if n.kind != "register"}
    order = [nid for nid, k in waiting.items() if not k]
    for nid in order:  # Kahn's order grows as it is read
        for dst in outgoing[nid]:
            if dst in waiting:
                waiting[dst] -= 1
                if not waiting[dst]:
                    order.append(dst)
    if len(order) < len(waiting):
        # a node left out waits on an input left out: walk back along those
        # until a node repeats, and read that loop along the edges
        at, nid = {}, next(n for n, k in waiting.items() if k)
        while nid not in at:
            at[nid] = len(at)
            nid = next(s for s in incoming[nid] if waiting.get(s))
        loop = [nid, *reversed(list(at)[at[nid]:])]
        raise InvalidCircuit(
            "register-free loop through " + " -> ".join(loop), loop=loop)

    inputs = tuple(n.id for n in cf.nodes if n.kind == "input")
    registers = tuple(n for n in cf.nodes if n.kind == "register")
    outputs = tuple(n for n in cf.nodes if n.kind == "output")
    form = {r.id: {r.id: Fraction(1)} for r in registers}
    for nid in order:  # a mult scales its input's form, an adder adds two
        node, kids = by_id[nid], [form[s] for s in incoming[nid]]
        form[nid] = {nid: Fraction(1)} if node.kind == "input" \
            else _compose({0: node.value}, kids) if node.kind == "mult" \
            else _compose({0: 1, 1: 1}, kids) if node.kind == "adder" \
            else kids[0]
    # a form keeps the ids whose coefficients cancel, so it names every
    # input and register with a register-free path to its wire
    reach = _reachable_inputs(
        {r.id: form[incoming[r.id][0]] for r in registers}, inputs)
    for o in outputs:
        reach[o.id] = _union([reach[i] for i in form[o.id]])
    params = {n.id: tuple([inputs[k] for k in reach[n.id]])
              for n in registers + outputs}
    leaf = {i: ("var", i, None) for i in inputs}
    leaf |= {("tail", i): ("call", "tail", [leaf[i]], None) for i in inputs}
    leaf |= {r.id: ("call", f"g_{r.id}", [leaf[i] for i in params[r.id]],
                    None) for r in registers}
    heads = {i: {i: 1} for i in inputs} \
        | {r.id: {None: r.value} for r in registers}
    tails = {i: {("tail", i): 1} for i in inputs} \
        | {r.id: form[incoming[r.id][0]] for r in registers}
    defs = {f"g_{r.id}": (params[r.id], r.value, [_clause(tails[r.id], leaf)])
            for r in registers} | {f"f_{o.id}": (params[o.id], _form_label(
                _compose(form[o.id], heads), params[o.id]), [_clause(
                    _compose(form[o.id], tails), leaf)]) for o in outputs}
    return CompiledCircuit(
        _bde_program(instances.stream_table(), defs),
        inputs,
        tuple((f"f_{o.id}", o.id, params[o.id]) for o in outputs),
        tuple((f"g_{r.id}", r.id, params[r.id]) for r in registers),
    )


def _reachable_inputs(reads, inputs) -> dict:
    """Each input's and register's backward-reachable ``inputs``, as the
    ascending tuple of their positions there, from ``reads``, the inputs
    and registers each register's input wire reads: one pass of Tarjan's
    algorithm over the registers, on an explicit stack, which closes each
    strongly connected component after every component it reads.  The
    component's tuple joins its reads' (`_union`), so a chain shares one."""
    reach = {i: (k,) for k, i in enumerate(inputs)}
    index, low, stack = {}, {}, []
    for root in reads:
        if root in reach:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(reads[root]))]
        while work:
            v, ids = work[-1]
            for w in ids:
                if w in reach:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(reads[w])))
                    break
                low[v] = min(low[v], index[w])  # on the stack
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    k = len(stack) - 1
                    while stack[k] != v:
                        k -= 1
                    members, stack[k:] = stack[k:], []
                    reach.update(dict.fromkeys(members, _union([
                        reach[w] for m in members for w in reads[m]
                        if w in reach])))
    return reach


def _union(parts) -> tuple:
    """The ascending union of the ascending tuples ``parts``: if they are
    all one tuple, that tuple itself."""
    if all(p is parts[0] for p in parts[1:]):
        return parts[0] if parts else ()
    return tuple(sorted(set().union(*parts)))


def _compose(form, forms):
    """The linear ``form`` with each id ``k`` read as the form ``forms[k]``."""
    out = {}
    for k, c in form.items():
        for j, d in forms[k].items():
            out[j] = out.get(j, 0) + c * d
    return out


def _clause(form, leaf):
    """The linear ``form`` as a parse node over ``leaf``, a sum of the
    leaves of coefficient 1 and of one ``mult(c, ·)`` per other c."""
    groups = {}
    for k, c in form.items():
        groups.setdefault(c, []).append(leaf[k])
    plus = partial(_pairwise, lambda a, b: ("call", "plus", [a, b], None))
    return plus([x for c, xs in groups.items() for x in (xs if c == 1 else [
        ("call", "mult", [("num", c, None), plus(xs)], None)])])


def _form_label(form, names):
    """The linear ``form`` (`compile_circuit`) as a value over ``names``."""
    pos = {n: k for k, n in enumerate(names)}
    return _pairwise(operator.add, [
        c if i is None else _premise_label(pos[i]) * c if c != 1
        else _premise_label(pos[i]) for i, c in form.items() if c]
        or [Fraction(0)])


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

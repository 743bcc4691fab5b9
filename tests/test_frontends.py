import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from corec.behavior import LanguageKind, Step, process_step
from corec.checking import bounded_equal
from corec import frontends
from corec.errors import (
    BadActionStructure,
    DanglingPort,
    InvalidCircuit,
    NotGnf,
    ParseError,
    Unguarded,
)
from corec.frontends import (
    BdeProgram,
    GnfFile,
    TokenStream,
    compile_circuit,
    compile_gnf,
    load_circuit,
    parse_bde,
    parse_ccs,
    parse_gnf,
    parse_rational,
    parse_stream_spec,
    parse_system,
)
from corec.instances import (
    DEFAULT_ACTIONS,
    ccs_table,
    language_member,
    language_table,
    oracle_eval,
    periodic_stream,
    periodic_values,
    relabel_param,
    restrict_param,
    stream_table,
    stream_take,
    tree_table,
)
from corec.solver import Engine
from corec.terms import App, Guard, Var, subterms


@pytest.fixture()
def engine():
    return Engine()


FLAT_TM = """kind stream
t = 1 . zip(u, t)
u = 0 . zip(t, u)
"""

SANDWICHED = """kind stream
t = zip(1 . u, 0 . t)
u = zip(0 . t, 1 . u)
"""


# One text that holds every token kind, every symbol, primed identifiers,
# the three literal forms, comments, tabs, a CRLF line ending, a blank line
# and a last line with no newline.  Tabs count as one column.
TOKEN_TEXT = ("kind stream\r\n"
              "# a comment line\n"
              "\n"
              "x' = -3 . f(x'', 1/2)\t# tail comment\n"
              "\ty_1 = 0.25 -> ( ) . , ; : = + * | \\ { } [ ]")

TOKENS = [
    ("ident", "kind", 1, 1), ("ident", "stream", 1, 6), ("nl", "\n", 1, 13),
    ("nl", "\n", 2, 17),
    ("nl", "\n", 3, 1),
    ("ident", "x'", 4, 1), ("sym", "=", 4, 4), ("num", "-3", 4, 6),
    ("sym", ".", 4, 9), ("ident", "f", 4, 11), ("sym", "(", 4, 12),
    ("ident", "x''", 4, 13), ("sym", ",", 4, 16), ("num", "1/2", 4, 18),
    ("sym", ")", 4, 21), ("nl", "\n", 4, 37),
    ("ident", "y_1", 5, 2), ("sym", "=", 5, 6), ("num", "0.25", 5, 8),
    ("arrow", "->", 5, 13), ("sym", "(", 5, 16), ("sym", ")", 5, 18),
    ("sym", ".", 5, 20), ("sym", ",", 5, 22), ("sym", ";", 5, 24),
    ("sym", ":", 5, 26), ("sym", "=", 5, 28), ("sym", "+", 5, 30),
    ("sym", "*", 5, 32), ("sym", "|", 5, 34), ("sym", "\\", 5, 36),
    ("sym", "{", 5, 38), ("sym", "}", 5, 40), ("sym", "[", 5, 42),
    ("sym", "]", 5, 44), ("eof", "", 5, 45),
]


def test_tokens_kind_value_and_position():
    ts = TokenStream(TOKEN_TEXT)
    assert [(k, v, *p) for k, v, p in zip(ts.kinds, ts.values,
                                          ts.positions())] == TOKENS


def _offset(text, line, col):
    """The index in ``text`` of a 1-based line and column; a tab, a carriage
    return and any other character count as one column."""
    lines = text.split("\n")
    return sum(len(x) + 1 for x in lines[:line - 1]) + col - 1


_BETWEEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?")
_PIECES = ["x", "y_1", "f'", "0", "-3", "007/010", "0.25", "\u0663",
           "-\u0664/\u0665", "->", "(", ")", ".", ",", ";", "=", "+", "\\", "[",
           "\n"]
_GAPS = ["", " ", "  ", "\t", "\r", " \t\r ", " # note", "# (", "\r\n"]


@pytest.mark.parametrize("seed", range(40))
def test_mutated_tokens_point_at_their_values(seed):
    rng = random.Random(seed)
    fixtures = (TOKEN_TEXT, FLAT_TM, SANDWICHED, GRAMMAR, HALF_BDE,
                "P = a.(P | c.0) + b.0\n")
    values = TokenStream(rng.choice(fixtures)).values[:-1]
    for _ in range(rng.randint(1, 12)):
        i = rng.randrange(len(values) + 1)
        mutation = rng.choice(("insert", "delete", "replace"))
        if mutation == "insert" or i == len(values):
            values.insert(i, rng.choice(_PIECES))
        elif mutation == "delete":
            del values[i]
        else:
            values[i] = rng.choice(_PIECES)
    bad = rng.random() < 0.3
    if bad:
        values.insert(rng.randrange(len(values) + 1), rng.choice("@~%$?!"))
    text = "".join(v + rng.choice(_GAPS) for v in values)
    try:
        ts = TokenStream(text)
    except ParseError as err:
        assert bad
        at = _offset(text, err.line, err.col)
        assert text[at] in "@~%$?!"
        assert err.message == f"unexpected character {text[at]!r}"
        return
    toks = list(zip(ts.kinds, ts.values, ts.positions()))
    end = 0
    for t in toks:
        _, value, (line, col) = t
        at = _offset(text, line, col)
        assert text[at:at + len(value)] == value
        # only blanks and a comment lie between two tokens
        assert _BETWEEN.fullmatch(text, end, at), (t, text[end:at])
        end = at + len(value)
    assert toks[-1][0] == "eof" and end == len(text)


@pytest.mark.parametrize("text, line, col, char", [
    ("x =\t@", 1, 5, "@"),
    ("kind stream\r\n@", 2, 1, "@"),
    ("kind stream\r\nx = 1 . x # c\r\n  $", 3, 3, "$"),
    ("x = 1 . x\t# c @ \n\t\r\t&", 2, 4, "&"),
    ("x = 1 . x # note\n   \t!", 2, 5, "!"),
], ids=["tab", "crlf", "comment-crlf", "comment-tabs", "comment"])
def test_unexpected_character_position(text, line, col, char):
    with pytest.raises(ParseError) as err:
        TokenStream(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.message == f"unexpected character {char!r}"


@pytest.mark.parametrize("seed", range(10))
def test_parse_rational_agrees_with_fraction(seed):
    rng = random.Random(seed)

    def digits():
        return "0" * rng.randint(0, 2) + str(rng.randint(0, 10 ** 30)) \
            if rng.random() < 0.5 else str(rng.randint(0, 99))

    for _ in range(200):
        text = rng.choice(("", "-")) + digits()
        form = rng.random()
        if form < 0.4:
            text += "/" + "0" * rng.randint(0, 2) + str(rng.randint(1, 10 ** 9))
        elif form < 0.5:
            text += "." + digits()
        value = parse_rational(text)
        assert type(value) is Fraction
        assert value == Fraction(text)
        assert (value.numerator, value.denominator) == \
            Fraction(text).as_integer_ratio()


def test_parse_rational_reads_non_ascii_digits_as_fraction_does():
    for text in ("\u0663", "-\u0664/\u0665", "\u0661\u0660.\u0665"):
        assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("text, message", [
    ("1/0", "line 1, col 1: zero denominator in '1/0'"),
    ("-1/000", "line 1, col 1: zero denominator in '-1/000'"),
    (" 1/0 ", "line 1, col 1: zero denominator in '1/0'"),
    ("abc", "line 1, col 1: bad rational 'abc'"),
    ("1/", "line 1, col 1: bad rational '1/'"),
    ("1" * 5000, f"line 1, col 1: bad rational '{'1' * 5000}'"),
])
def test_parse_rational_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_rational(text)
    assert str(err.value) == message


def test_parse_flat_stream_system(engine):
    system = parse_system(FLAT_TM)
    assert system.vars == ("t", "u")
    assert isinstance(system.rhs["t"], Guard)
    sol = engine.solve(system)
    assert stream_take(sol["t"], 4) == [1, 0, 1, 1]


def test_parse_sandwiched_system(engine):
    system = parse_system(SANDWICHED)
    assert isinstance(system.rhs["t"], App)
    engine.solve(system)


def test_kind_argument_instead_of_header():
    system = parse_system("x = 1 . x\n", kind="stream")
    assert system.vars == ("x",)


def test_one_header_reader_for_every_format():
    text = "x = 1 . (x, a . x)\n"
    assert parse_system(text, kind=LanguageKind(("a", "b"))) \
        == parse_system(text, kind="language:ab") \
        == parse_system("kind language ab\n" + text)
    agents = "P = a.P\n"
    assert parse_system(agents, kind="process") \
        == parse_system("kind process\n" + agents) \
        == parse_ccs("kind process\n" + agents) == parse_ccs(agents)
    with pytest.raises(ParseError):
        parse_ccs("kind stream\n" + agents)
    with pytest.raises(ParseError):
        parse_bde("kind language ab\nf(x): head = 1; tail = x\n")


def test_a_process_file_is_tokenized_once(monkeypatch):
    made = []

    class Counted(TokenStream):
        def __init__(self, text):
            made.append(text)
            super().__init__(text)

    monkeypatch.setattr(frontends, "TokenStream", Counted)
    parse_system("kind process\nP = a.P\n")
    assert len(made) == 1


@pytest.mark.parametrize("table", [
    stream_table(), tree_table(), language_table("ab"),
    ccs_table(DEFAULT_ACTIONS)], ids=lambda t: t.kind.name)
def test_kind_states_its_syntax(table):
    kind = table.kind
    for name in kind.params:
        assert table.sig.decl(name).parametric
    if kind.prefix is not None:
        decl = table.sig.decl(kind.prefix)
        assert decl.parametric and decl.arity == 1
    if kind.clauses is not None:
        assert len(kind.clauses) == 1 + len(kind.ports)


def test_missing_kind():
    with pytest.raises(ParseError):
        parse_system("x = 1 . x\n")


def test_unguarded_variable():
    with pytest.raises(Unguarded) as err:
        parse_system("kind stream\nx = zip(x, y)\ny = 0 . y\n")
    assert err.value.var == "x"


def test_variable_shadowing_an_operation():
    with pytest.raises(ParseError):
        parse_system("kind stream\nzip = 1 . zip\n")


def test_duplicate_variable():
    with pytest.raises(ParseError):
        parse_system("kind stream\nx = 1 . x\nx = 2 . x\n")


def _guard(table, label, *terms):
    """The guard of ``label`` and one term per port of ``table``'s kind."""
    return Guard(Step(label, tuple(zip(table.kind.ports, terms))))


def _app(table, name, *args, param=None):
    return App(table.op(name, param), args)


def _parses_to(text, rhs):
    """``text`` parses to the system of the right-hand sides ``rhs``."""
    system = parse_system(text)
    assert system.vars == tuple(rhs)
    assert system.rhs == rhs


def test_system_round_trips():
    s, lab, la, tr = stream_table(), language_table("ab"), \
        language_table("a"), tree_table()
    t, u, x, y = Var("t"), Var("u"), Var("x"), Var("y")
    one, zero = Fraction(1), Fraction(0)
    _parses_to(FLAT_TM, {"t": _guard(s, one, _app(s, "zip", u, t)),
                         "u": _guard(s, zero, _app(s, "zip", t, u))})
    _parses_to(SANDWICHED, {
        "t": _app(s, "zip", _guard(s, one, u), _guard(s, zero, t)),
        "u": _app(s, "zip", _guard(s, zero, t), _guard(s, one, u))})
    # a parametric given applied inside a guarded context
    _parses_to("kind stream\nx = mult(2, 1 . x)\n", {"x": _app(
        s, "mult", _guard(s, one, x), param=Fraction(2))})
    _parses_to("kind stream\nx = register(3, 1 . x)\n", {"x": _app(
        s, "register", _guard(s, one, x), param=Fraction(3))})
    _parses_to("kind language ab\nx = prefix(a, 1 . (x, x))\n", {"x": _app(
        lab, "prefix", _guard(lab, True, x, x), param="a")})
    # a letter guard is a guard of 0 with the empty language after the
    # other letters, and `r . t` in term position is the kind's prefix
    # symbol: each text against the same system spelled with those
    for text, other in (
            ("kind language ab\nx = a . x\ny = 1 . (b . y, a . x)\n",
             "kind language ab\nx = 0 . (x, empty)\n"
             "y = 1 . (prefix(b, y), prefix(a, x))\n"),
            ("kind stream\nx = 1 . 2 . x\ny = zip(1 . -1/2 . y, 0 . x)\n",
             "kind stream\nx = 1 . register(2, x)\n"
             "y = zip(1 . register(-1/2, y), 0 . x)\n")):
        assert parse_system(text) == parse_system(other)
    _parses_to("kind language a\nx = 1 . x\ny = union(a . y, 0 . a . x)\n",
               {"x": _guard(la, True, x), "y": _app(
                   la, "union", _guard(la, False, y), _guard(
                       la, False, _app(la, "prefix", x, param="a")))})
    # tree guards, and a numeral in term position is `const`
    _parses_to("kind tree\nx = 1/2 . (plus(x, y), 3)\n"
               "y = plus(1 . (y, x), 2 . (x, pi))\n", {
                   "x": _guard(tr, Fraction(1, 2), _app(tr, "plus", x, y),
                               _app(tr, "const", param=Fraction(3))),
                   "y": _app(tr, "plus", _guard(tr, one, y, x),
                             _guard(tr, Fraction(2), x, _app(tr, "pi")))})


def test_tree_system(engine):
    text = """kind tree
x = 1 . (x, y)
y = 2 . (plus(x, y), y)
"""
    system = parse_system(text)
    sol = engine.solve(system)
    tree = engine.observe(sol["x"], 2)
    assert tree.label == 1
    assert [c.label for _, c in tree.children] == [1, 2]
    table = tree_table()
    assert system.rhs == {
        "x": _guard(table, Fraction(1), Var("x"), Var("y")),
        "y": _guard(table, Fraction(2),
                    _app(table, "plus", Var("x"), Var("y")), Var("y"))}


def test_language_system(engine):
    text = """kind language ab
x = 1 . (x, y)
y = a . y
"""
    system = parse_system(text)
    sol = engine.solve(system)
    assert language_member(sol["x"], "")
    assert language_member(sol["y"], "aa") is False
    # `a . y` is the guard of 0 that goes on with y after `a`
    assert system == parse_system("kind language ab\n"
                                  "x = 1 . (x, y)\ny = 0 . (y, empty)\n")


def test_rational_literals_parse_exactly():
    system = parse_system("kind stream\nx = 1/3 . plus(x, 0.25)\n")
    assert system.rhs["x"].step.label == Fraction(1, 3)
    assert system == parse_system(
        "kind stream\nx = 1/3 . plus(x, const(1/4))\n")


# -- behavioral differential equations -----------------------------------------


def test_bde_shuffle_matches_builtin(engine):
    program = parse_bde(
        "kind stream\n"
        "sh(x, y): head = head(x) * head(y); "
        "tail = plus(sh(x, tail(y)), sh(tail(x), y))\n")
    assert isinstance(program, BdeProgram)
    table = program.extended_table()
    builtin = stream_table()
    a = periodic_stream(engine, (1, 2), (3,))
    b = periodic_stream(engine, (), (2,))
    mine = engine.interpret_op(table, table.op("sh"), [a, b])
    theirs = engine.interpret_op(builtin, builtin.op("shuffle"), [a, b])
    assert bounded_equal(mine, theirs, 10)


def test_bde_convolution_matches_builtin(engine):
    program = parse_bde(
        "kind stream\n"
        "cv(x, y): head = head(x) * head(y); "
        "tail = plus(cv(tail(x), y), cv(const(head(x)), tail(y)))\n")
    table = program.extended_table()
    builtin = stream_table()
    a = periodic_stream(engine, (2,), (1, 4))
    b = periodic_stream(engine, (), (3,))
    mine = engine.interpret_op(table, table.op("cv"), [a, b])
    theirs = engine.interpret_op(builtin, builtin.op("conv"), [a, b])
    assert bounded_equal(mine, theirs, 10)


def test_bde_head_expression_with_sums_and_parentheses(engine):
    program = parse_bde(
        "kind stream\n"
        "f(x, y): head = 2*head(x) + (head(y) + 1) * 3; "
        "tail = f(tail(x), tail(y))\n")
    table = program.extended_table()
    x = periodic_stream(engine, (1, 2), (Fraction(1, 2), -3))
    y = periodic_stream(engine, (), (4, 0, Fraction(-2, 3)))
    h = engine.interpret_op(table, table.op("f"), [x, y])
    xs = periodic_values((1, 2), (Fraction(1, 2), -3), 12)
    ys = periodic_values((), (4, 0, Fraction(-2, 3)), 12)
    assert stream_take(h, 12) == [2 * a + (b + 1) * 3
                                  for a, b in zip(xs, ys)]


@pytest.mark.parametrize("opening, head", [("(", 2), ("1 + (", 10_002)],
                         ids=["parentheses", "sums"])
def test_initial_values_nested_10000_deep_parse(engine, opening, head):
    assert sys.getrecursionlimit() <= 1000
    n = 10_000
    table = parse_bde("kind stream\nf(x): head = " + opening * n + "2"
                      + ")" * n + " + head(x); tail = x\n").extended_table()
    h = engine.interpret_op(table, table.op("f"),
                            [periodic_stream(engine, (1,), (0,))])
    assert stream_take(h, 3) == [head + 1, 1, 0]


def test_bde_clause_prefix_and_head_parameter(engine):
    # p(x) = 1, 3, x0*x0, x0*x1, x0*x2, ...
    program = parse_bde(
        "kind stream\n"
        "p(x): head = 1; tail = 3 . mult(head(x), x)\n")
    table = program.extended_table()
    x = periodic_stream(engine, (2, 5), (7, -1))
    h = engine.interpret_op(table, table.op("p"), [x])
    xs = periodic_values((2, 5), (7, -1), 6)
    assert stream_take(h, 8) == [1, 3] + [2 * v for v in xs]


def test_bde_missing_tail_clause():
    with pytest.raises(ParseError):
        parse_bde("kind stream\nf(x): head = head(x)\n")


def test_bde_unknown_symbol():
    with pytest.raises(ParseError):
        parse_bde("kind stream\nf(x): head = head(x); tail = mystery(x)\n")


def test_bde_mutual_recursion(engine):
    program = parse_bde(
        "kind stream\n"
        "evens(x): head = head(x); tail = odds(tail(x))\n"
        "odds(x): head = 0; tail = evens(tail(x))\n")
    table = program.extended_table()
    s = periodic_stream(engine, (1, 2, 3, 4), (0,))
    h = engine.interpret_op(table, table.op("evens"), [s])
    assert stream_take(h, 4) == [1, 0, 3, 0]


def test_tree_bde(engine):
    program = parse_bde(
        "kind tree\n"
        "mirror(x): root = root(x); "
        "left = mirror(right(x)); right = mirror(left(x))\n")
    t = program.extended_table()
    one = engine.interpret_op(t, t.op("const", Fraction(1)), [])
    two = engine.interpret_op(t, t.op("const", Fraction(2)), [])
    s = engine.interpret_op(t, t.op("plus"), [one, two])
    m = engine.interpret_op(t, t.op("mirror"), [s])
    assert engine.observe(m, 2) == engine.observe(s, 2)


# -- definitions and equations in one file -------------------------------------


SH = ("sh(x, y): head = head(x) * head(y); "
      "tail = plus(sh(x, tail(y)), sh(tail(x), y))\n")


def test_equations_use_the_files_definitions(engine):
    # x' = x ⊗ x makes x the stream of factorials
    system = parse_system("kind stream\n" + SH + "x = 1 . sh(x, x)\n")
    assert system.vars == ("x",)
    assert "sh" in system.table.sig
    sol = engine.solve(system)
    assert stream_take(sol["x"], 200) == [math.factorial(n)
                                          for n in range(200)]


def test_a_file_without_definitions_keeps_the_builtin_table():
    assert parse_system(FLAT_TM).table is stream_table()
    assert parse_system("kind tree\nx = 1 . (x, x)\n").table is tree_table()


def _periodic_equations(name, prefix, cycle):
    """Flat equations whose variable ``name``0 is prefix·cycle^ω."""
    labels, lines = prefix + cycle, []
    for k, value in enumerate(labels):
        nxt = k + 1 if k + 1 < len(labels) else len(prefix)
        lines.append(f"{name}{k} = {value.numerator}/{value.denominator} "
                     f". {name}{nxt}\n")
    return "".join(lines)


def test_a_file_defined_shuffle_is_the_builtin_shuffle(engine):
    # the modularity suite's shuffle case, written as one file
    rng = random.Random(32)

    def stream():
        def rat():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return ([rat() for _ in range(rng.randint(0, 2))],
                [rat() for _ in range(rng.randint(1, 3))])

    for _ in range(20):
        a, b = stream(), stream()
        text = ("kind stream\n" + SH + _periodic_equations("a", *a)
                + _periodic_equations("b", *b)
                + "s = 0 . sh(a0, b0)\nt = 0 . shuffle(a0, b0)\n")
        sol = Engine().solve(parse_system(text))
        mine = stream_take(sol["s"], 51)[1:]
        assert mine == stream_take(sol["t"], 51)[1:]
        assert mine == oracle_eval("binomial_shuffle",
                                   periodic_values(*a, 50),
                                   periodic_values(*b, 50))


def test_a_definition_uses_an_earlier_definition(engine):
    # ex(x)' = x' ⊗ ex(x): ex(X) = 1, 1, 1, … and ex(2X) = 1, 2, 4, …
    text = ("kind stream\n" + SH
            + "ex(x): head = 1; tail = sh(tail(x), ex(x))\n")
    table = parse_bde(text).extended_table()
    x = periodic_stream(engine, (0, 1), (0,))
    assert stream_take(engine.interpret_op(table, table.op("ex"), [x]),
                       30) == [1] * 30
    sol = engine.solve(parse_system(text + "y = ex(0 . 1)\nz = ex(0 . 2)\n"))
    assert stream_take(sol["y"], 30) == [1] * 30
    assert stream_take(sol["z"], 30) == [2 ** n for n in range(30)]


def test_a_tree_file_mixes_definitions_and_equations(engine):
    text = ("kind tree\n"
            "mirror(x): root = root(x); "
            "left = mirror(right(x)); right = mirror(left(x))\n"
            "x = 1 . (x, y)\n"
            "y = 2 . (mirror(x), plus(x, y))\n")
    sol = engine.solve(parse_system(text))

    def tree(t):
        return None if t.cut else (t.label, *[tree(c) for _, c in t.children])

    def mirror(t):
        return t and (t[0], mirror(t[2]), mirror(t[1]))

    def plus(s, t):
        return s and (s[0] + t[0], plus(s[1], t[1]), plus(s[2], t[2]))

    def x(d):
        return d and (1, x(d - 1), y(d - 1)) or None

    def y(d):
        return d and (2, mirror(x(d - 1)), plus(x(d - 1), y(d - 1))) or None

    for depth in range(6):
        assert tree(engine.observe(sol["x"], depth)) == x(depth)
        assert tree(engine.observe(sol["y"], depth)) == y(depth)
    # the same file read as a BDE program holds the definition alone
    assert parse_bde(text).names == ("mirror",)


# -- grammars -------------------------------------------------------------------


GRAMMAR = """terminals: a b
nonterminals: S B
start: S
S -> a S B
S -> b
B -> b
"""


def test_gnf_round_trip():
    assert parse_gnf(GRAMMAR) == GnfFile(
        ("a", "b"), ("S", "B"), "S",
        (("S", ("a", "S", "B")), ("S", ("b",)), ("B", ("b",))))


def test_gnf_membership_against_derivation_oracle(engine):
    g = parse_gnf(GRAMMAR)
    system = compile_gnf(g)
    sol = engine.solve(system)
    productions = {"S": (("a", ("S", "B")), ("b", ())), "B": (("b", ()),)}
    words = oracle_eval("gnf_derivations", productions, "S", 7)
    import itertools
    for n in range(8):
        for tup in itertools.product("ab", repeat=n):
            w = "".join(tup)
            assert language_member(sol["S"], w) == (w in words)


def test_gnf_nonterminal_without_productions_is_empty(engine):
    g = parse_gnf("terminals: a\nnonterminals: S C\nstart: S\nS -> a C\n")
    sol = engine.solve(compile_gnf(g))
    for w in ("", "a", "aa"):
        assert not language_member(sol["C"], w)
        assert not language_member(sol["S"], w)


def test_not_gnf():
    with pytest.raises(NotGnf):
        parse_gnf("terminals: a\nnonterminals: S\nstart: S\nS -> S a\n")
    with pytest.raises(NotGnf):
        parse_gnf("terminals: a\nnonterminals: S\nstart: S\nS ->\n")


# -- CCS ------------------------------------------------------------------------


def test_ccs_parse_and_round_trip(engine):
    text = "P = a.(P | c.0) + b.0\n"
    system = parse_ccs(text)
    assert system.vars == ("P",)
    assert isinstance(system.rhs["P"], Guard)
    sol = engine.solve(system)
    assert [p[0] for p, _ in engine.unfold(sol["P"]).children] == ["a", "b"]
    table = system.table
    nil = _app(table, "nil")
    assert system.rhs == {"P": Guard(process_step((
        ("a", _app(table, "par", Var("P"), _app(table, "pref", nil,
                                                param="c"))),
        ("b", nil))))}


def test_ccs_sandwiched_rhs(engine):
    text = "Q = b.(Q + R) | a.R\nR = b.0\n"
    system = parse_ccs(text)
    assert isinstance(system.rhs["Q"], App)
    engine.solve(system)
    table, q, r = system.table, Var("Q"), Var("R")
    assert system.rhs == {
        "Q": _app(table, "par",
                  Guard(process_step((("b", _app(table, "sum", q, r,
                                                 param=2)),))),
                  Guard(process_step((("a", r),)))),
        "R": Guard(process_step((("b", _app(table, "nil")),)))}


def test_ccs_relabel_restrict_seq_alt(engine):
    text = ("P = (a.0 | a'.0)\\{a}\n"
            "Q = (b.P)[b->c]\n"
            "R = alt(a.b.0, c.0)\n"
            "S = a.0 ; b.0\n")
    system = parse_ccs(text)
    sol = engine.solve(system)
    assert [p[0] for p, _ in engine.unfold(sol["P"]).children] == ["tau"]
    assert [p[0] for p, _ in engine.unfold(sol["Q"]).children] == ["c"]
    table, kind = system.table, system.kind
    nil = _app(table, "nil")

    def to_nil(*actions):
        return Guard(process_step(tuple((a, nil) for a in actions)))

    assert system.rhs == {
        "P": _app(table, "restrict", _app(table, "par", to_nil("a"),
                                          to_nil("a'")),
                  param=restrict_param(kind, ("a",))),
        "Q": _app(table, "relabel", Guard(process_step((("b", Var("P")),))),
                  param=relabel_param(kind, {"b": "c"})),
        "R": _app(table, "alt", Guard(process_step((
            ("a", _app(table, "pref", nil, param="b")),))), to_nil("c")),
        "S": _app(table, "seq", to_nil("a"), to_nil("b"))}


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_a_chain_of_agent_prefixes_parses_and_solves(engine, n):
    assert sys.getrecursionlimit() <= 1000
    system = parse_ccs("P = " + "a." * n + "0\n")
    (action, t), = system.rhs["P"].step.children
    prefixes = 1
    while t.args:
        assert t.op == system.table.op("pref", "a")
        t, prefixes = t.args[0], prefixes + 1
    assert (action, prefixes, t.op.name) == ("a", n, "nil")
    p = engine.solve(system)["P"]
    assert [q[0] for q, _ in engine.unfold(p).children] == ["a"]


@pytest.mark.parametrize("opening, closing, op", [
    ("(", ")", None), ("a.0 + (", ")", "sum"), ("alt(", ", b.0)", "alt"),
    ("seq(", ", b.0)", "seq"), ("a.0 | (", ")", "par"),
    ("(", ")[a->b]", "relabel")],
    ids=["parentheses", "sum", "alt", "seq", "par", "relabel"])
def test_agents_nested_10000_deep_parse_and_solve(engine, opening, closing,
                                                  op):
    assert sys.getrecursionlimit() <= 1000
    n = 10_000
    system = parse_ccs("P = " + opening * n + "a.P" + closing * n + "\n")
    rhs = system.rhs["P"]
    if op in (None, "sum"):  # a sum of guards is one guard
        assert rhs.step.children[-1] == Guard(process_step((
            ("a", Var("P")),))).step.children[0]
        assert len(rhs.step.children) == (1 if op is None else n + 1)
    else:
        assert sum(isinstance(t, App) and t.op.name == op
                   for t in subterms(rhs)) == n
    engine.solve(system)


def test_a_relabeling_maps_an_action_and_its_complement_once():
    # a->b relabels a' as b', so a'->c conflicts with it
    mapping, agent = {"a": "b", "a'": "c"}, ("pref", "a", ("sum", ()))
    with pytest.raises(BadActionStructure,
                       match="relabeling maps \"a'\" twice"):
        relabel_param(DEFAULT_ACTIONS, mapping)
    with pytest.raises(BadActionStructure):
        oracle_eval("ccs_sos", DEFAULT_ACTIONS,
                    ("relabel", tuple(mapping.items()), agent))
    assert relabel_param(DEFAULT_ACTIONS, {"a": "b", "b": "a"})


def test_ccs_agent_constant_requires_dot_zero():
    with pytest.raises(ParseError):
        parse_ccs("P = a.(P | c) + b.0\n")


def test_ccs_unguarded():
    with pytest.raises(Unguarded):
        parse_ccs("P = P | a.0\n")


def test_ccs_weak_guardedness_inside_terms(engine):
    # variables under a prefix anywhere in the term are fine
    system = parse_ccs("P = a.P | b.(P + a.0)\n")
    engine.solve(system)


# -- parse errors ----------------------------------------------------------------


def _bde_table(text):
    return parse_bde(text).extended_table()


_S = "kind stream\n"
_MISPLACED = ("definitions come before the equations, "
              "in stream and tree files")

PARSE_ERRORS = [
    ("bde-missing-tail", _bde_table, _S + "f(x): head = head(x)\n",
     ParseError, "line 2, col 21: missing `tail =` clause"),
    ("bde-unknown-op", _bde_table,
     _S + "f(x): head = head(x); tail = mystery(x)\n",
     ParseError, "line 2, col 30: unknown operation 'mystery'"),
    ("bde-unknown-arg", _bde_table,
     _S + "f(x): head = head(x); tail = f(tail(z))\n",
     ParseError, "line 2, col 37: unknown argument 'z'"),
    ("bde-unknown-name", _bde_table,
     _S + "f(x): head = head(x); tail = plus(x, y)\n",
     ParseError, "line 2, col 38: unknown name 'y'"),
    ("bde-mult-param", _bde_table,
     _S + "f(x): head = head(x); tail = mult(x, x)\n",
     ParseError, "line 2, col 30: 'mult' needs a rational parameter"),
    ("bde-tree-prefix", _bde_table,
     "kind tree\nf(x): root = 1; left = 3 . f(x); right = x\n",
     ParseError, "line 2, col 24: prefix terms are stream-only"),
    ("bde-given-nope", _bde_table,
     _S + "given nope\nf(x): head = 1; tail = x\n",
     ParseError, "line 2, col 7: no given operation 'nope'"),
    ("bde-tail-pi", _bde_table, _S + "f(x): head = 1; tail = pi\n",
     ParseError, "line 2, col 24: unknown name 'pi'"),
    ("bde-letter-guard", _bde_table, _S + "f(x): head = 1; tail = a . x\n",
     ParseError, "line 2, col 24: unknown name 'a'"),
    ("bde-arity", _bde_table, _S + "f(x): head = 1; tail = f(x, x)\n",
     ParseError, "line 2, col 24: 'f' expects 1 arguments"),
    ("bde-defined-twice", _bde_table,
     _S + "f(x): head = 1; tail = x\nf(y): head = 2; tail = y\n",
     ParseError, "line 3, col 1: operation 'f' defined twice"),
    ("bde-argument-named-twice", _bde_table,
     _S + "f(x, x): head = head(x); tail = x\n",
     ParseError, "line 2, col 6: argument 'x' named twice"),
    ("bde-shadows-given", _bde_table,
     _S + "f(x): head = 1; tail = x\nzip(y): head = 2; tail = y\n",
     ParseError, "line 3, col 1: operation 'zip' shadows a given"),
    ("ccs-constant-without-dot-zero", parse_ccs, "P = a.(P | c) + b.0\n",
     ParseError, "line 1, col 12: unknown agent 'c'"),
    ("ccs-agent-as-action", parse_ccs, "P = a.P\nQ = P.0\n",
     ParseError, "line 2, col 5: 'P' is an agent, not an action"),
    ("ccs-unknown-agent", parse_ccs, "P = a.Q\n",
     ParseError, "line 1, col 7: unknown agent 'Q'"),
    ("ccs-defined-twice", parse_ccs, "P = a.P\nP = b.P\n",
     ParseError, "line 2, col 1: agent 'P' defined twice"),
    ("ccs-tau-agent", parse_ccs, "tau = a.0\n",
     ParseError, "line 1, col 1: 'tau' cannot name an agent"),
    ("ccs-junk", parse_ccs, "P = a.0 b.0\n",
     ParseError, "line 1, col 9: junk after agent: 'b'"),
    ("ccs-empty", parse_ccs, "# nothing\n",
     ParseError, "line 1, col 1: empty agent file"),
    ("ccs-unguarded", parse_ccs, "P = P | a.0\n",
     Unguarded, "variable 'P' is unguarded at (0,)"),
    ("ccs-one-agent-per-line", parse_ccs, "P = (a.0 +\n b.0)\n",
     ParseError, "line 1, col 11: expected an agent, got '\\n'"),
    ("ccs-relabel-twice", parse_ccs, "P = a.P[a->b, a->c]\n",
     ParseError, "line 1, col 15: action 'a' relabeled twice"),
    ("ccs-relabel-complement-twice", parse_ccs,
     "P = (a.0 | a'.0)[a->b, a'->c]\n",
     ParseError, "line 1, col 24: action \"a'\" relabeled twice"),
    ("ccs-prefix-two-primes", parse_ccs, "P = a''.P\n",
     ParseError, "line 1, col 5: malformed action \"a''\""),
    ("ccs-prefix-primed-tau", parse_ccs, "P = a.tau'.P\n",
     ParseError, "line 1, col 7: malformed action \"tau'\""),
    ("ccs-relabel-source-two-primes", parse_ccs, "P = a.P[a''->b]\n",
     ParseError, "line 1, col 9: malformed action \"a''\""),
    ("ccs-relabel-target-two-primes", parse_ccs, "P = a.P[a->b'']\n",
     ParseError, "line 1, col 12: malformed action \"b''\""),
    ("ccs-restrict-two-primes", parse_ccs, "P = a.P\\{b''}\n",
     ParseError, "line 1, col 10: malformed action \"b''\""),
    ("ccs-restrict-primed-tau", parse_ccs, "P = a.P\\{a, tau'}\n",
     ParseError, "line 1, col 13: malformed action \"tau'\""),
    ("system-bad-char", parse_system, _S + "x = 1 . x @\n",
     ParseError, "line 2, col 11: unexpected character '@'"),
    ("system-bad-char-after-comment", parse_system,
     _S + "x = 1 . x  # fine\n%y = 0 . y\n",
     ParseError, "line 3, col 1: unexpected character '%'"),
    ("system-bad-char-before-syntax-error", parse_system,
     _S + "x = = 1\ny = 1 . y ?\n",
     ParseError, "line 3, col 11: unexpected character '?'"),
    ("system-variable-applied-in-context", parse_system, _S + "x = x(1 . x)\n",
     ParseError, "line 2, col 5: variable 'x' applied to arguments"),
    ("system-variable-applied-in-term", parse_system, _S + "x = 1 . x(x)\n",
     ParseError, "line 2, col 9: variable 'x' applied to arguments"),
    ("system-arity-in-context", parse_system, _S + "x = plus(1 . x)\n",
     ParseError, "line 2, col 5: 'plus' expects 2 arguments"),
    ("system-arity-in-term", parse_system, _S + "x = 1 . plus(x)\n",
     ParseError, "line 2, col 9: 'plus' expects 2 arguments"),
    ("system-reserved-name", parse_system, _S + "~x = 1 . x\n",
     ParseError, "line 2, col 1: unexpected character '~'"),
    ("ccs-reserved-name", parse_ccs, "~P = a.0\n",
     ParseError, "line 1, col 1: unexpected character '~'"),
    ("system-zero-denominator", parse_system, _S + "x = 1/0 . x\n",
     ParseError, "line 2, col 5: zero denominator in '1/0'"),
    ("system-zero-denominator-const", parse_system,
     _S + "x = 1 . const(1/0)\n",
     ParseError, "line 2, col 15: zero denominator in '1/0'"),
    ("system-zero-denominator-tree", parse_system,
     "kind tree\nx = 1/0 . (x, x)\n",
     ParseError, "line 2, col 5: zero denominator in '1/0'"),
    ("bde-zero-denominator-head", _bde_table,
     _S + "f(x): head = 1/0; tail = x\n",
     ParseError, "line 2, col 14: zero denominator in '1/0'"),
    ("bde-zero-denominator-mult", _bde_table,
     _S + "f(x): head = 1; tail = mult(1/0, x)\n",
     ParseError, "line 2, col 29: zero denominator in '1/0'"),
    ("system-char-letter", parse_system,
     "kind language ab\nx = 1 . (char(z), prefix(b, x))\n",
     ParseError, "line 2, col 15: 'z' is not in the alphabet"),
    ("system-prefix-letter", parse_system,
     "kind language ab\nx = 1 . (char(a), prefix(q, x))\n",
     ParseError, "line 2, col 26: 'q' is not in the alphabet"),
    ("bde-tail-first", _bde_table, _S + "f(x): tail = x; head = 1\n",
     ParseError, "line 2, col 7: definition must start with `head =`"),
    ("bde-tree-clause-order", _bde_table,
     "kind tree\nf(x): root = 1; right = x; left = x\n",
     ParseError, "line 2, col 17: expected clause 'left'"),
    ("bde-language-kind", parse_bde,
     "kind language ab\nf(x): head = 1; tail = x\n",
     ParseError, "line 1, col 1: bde files are `kind stream` or `kind tree`"),
    ("system-variable-shadows-op", parse_system, _S + "plus = 1 . plus\n",
     ParseError, "line 2, col 1: variable 'plus' shadows an operation"),
    ("system-empty", parse_system, _S + "# nothing\n",
     ParseError, "line 1, col 1: empty system"),
    ("system-no-kind", parse_system, "x = 1 . x\n",
     ParseError, "line 1, col 1: no kind header and no kind argument"),
    ("system-unknown-kind", parse_system, "kind foo\nx = 1 . x\n",
     ParseError, "line 1, col 6: unknown kind 'foo'"),
    ("system-variable-named-as-definition", parse_system,
     _S + SH + "sh = 1 . sh\n",
     ParseError, "line 3, col 1: variable 'sh' shadows an operation"),
    ("system-unguarded-definition-use", parse_system,
     _S + SH + "x = sh(x, x)\n",
     Unguarded, "variable 'x' is unguarded at (0,)"),
    ("system-definition-after-equation", parse_system,
     _S + SH + "x = 1 . x\nf(x): head = 1; tail = x\n",
     ParseError, f"line 4, col 1: {_MISPLACED}"),
    ("system-definition-in-language-file", parse_system,
     "kind language ab\nf(x): head = 1; tail = x\n",
     ParseError, f"line 2, col 1: {_MISPLACED}"),
    ("system-definition-after-language-equation", parse_system,
     "kind language ab\nx = a . x\nf(x): head = 1; tail = x\n",
     ParseError, f"line 3, col 1: {_MISPLACED}"),
    ("circuit-list", load_circuit, "[]",
     InvalidCircuit, "circuit is list, not object"),
    ("circuit-node-number", load_circuit, '{"nodes": [1]}',
     InvalidCircuit, "node 1 is not an object"),
    ("circuit-nodes-string", load_circuit, '{"nodes": "ab"}',
     InvalidCircuit, "nodes is str, not list"),
    ("circuit-edge-single", load_circuit, '{"nodes": [], "edges": [["a"]]}',
     InvalidCircuit, "edge ['a'] is not a pair of node ids"),
] + [
    (f"circuit-value-{value}", load_circuit,
     json.dumps({"nodes": [{"id": "r", "kind": "register", "value": value}]}),
     InvalidCircuit, f"register node 'r' has value {value!r}, not a rational")
    for value in ("1/0", "abc", "nan")
]


@pytest.mark.parametrize("parse, text, exc, message",
                         [row[1:] for row in PARSE_ERRORS],
                         ids=[row[0] for row in PARSE_ERRORS])
def test_parse_error_class_and_position(parse, text, exc, message):
    with pytest.raises(exc) as err:
        parse(text)
    assert type(err.value) is exc
    assert str(err.value) == message


# -- wide files -------------------------------------------------------------------


WIDE = 20_000


def _wide_system(n):
    """x_i = (i mod 10) . plus(x_{i+1}, x_{7i+3}), indices mod n."""
    lines = [f"x{i} = {i % 10} . plus(x{(i + 1) % n}, x{(7 * i + 3) % n})"
             for i in range(n)]
    return "kind stream\n" + "\n".join(lines) + "\n"


def _wide_digits(n, i, depth):
    """The first ``depth`` digits of x_i in `_wide_system`."""
    if depth == 0:
        return []
    left = _wide_digits(n, (i + 1) % n, depth - 1)
    right = _wide_digits(n, (7 * i + 3) % n, depth - 1)
    return [i % 10] + [a + b for a, b in zip(left, right)]


def test_wide_system_redefinition_reports_its_line():
    with pytest.raises(ParseError) as err:
        parse_system(_wide_system(WIDE) + "x0 = 1 . x0\n")
    assert str(err.value) == "line 20002, col 1: variable 'x0' defined twice"


def test_wide_system_solves(engine):
    sol = engine.solve(parse_system(_wide_system(WIDE)))
    assert stream_take(sol["x0"], 4) == _wide_digits(WIDE, 0, 4)


def test_wide_ccs_file_reports_an_unknown_agent_on_its_last_line():
    n = 5000
    lines = [f"P{i} = a.P{i + 1} + b.P{3 * i % n}" for i in range(n - 1)]
    text = "\n".join(lines + [f"P{n - 1} = a.P0 + b.Q"]) + "\n"
    with pytest.raises(ParseError) as err:
        parse_ccs(text)
    assert str(err.value) == "line 5000, col 18: unknown agent 'Q'"


def _seeded_stream_system(n, seed=1):
    """A wide seeded stream system: x_i = r . t, where t is a variable or
    `plus`, `zip`, `mult` or a term-level register over variables."""
    rng = random.Random(seed)

    def term(depth=1):
        pick = rng.random()
        if depth <= 0 or pick < 0.3:
            return f"x{rng.randrange(n)}"
        if pick < 0.4:
            return f"mult({rng.choice(('1/2', '2', '-3'))}, {term(depth - 1)})"
        if pick < 0.5:
            return f"{rng.choice(('0', '1/3'))} . {term(depth - 1)}"
        return (f"{rng.choice(('plus', 'zip'))}({term(depth - 1)}, "
                f"{term(depth - 1)})")

    lines = [f"x{i} = {rng.randint(0, 4)}/{rng.choice((1, 2))} . {term()}"
             for i in range(n)]
    return "kind stream\n" + "\n".join(lines) + "\n"


def _seeded_agents(n, seed=1):
    """A seeded agent file A0 … A(n-1) of sums, parallels and relabelings."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        j, k = rng.randrange(n), rng.randrange(n)
        lines.append(rng.choice((f"A{i} = a.A{j} + b.(A{k} | c.0)",
                                 f"A{i} = c.A{j} + b.A{k} + a.0",
                                 f"A{i} = (a.A{j})[a->b] + c.A{k}")))
    return "\n".join(lines) + "\n"


def _leaves_and_symbols(terms):
    """The ids of the `Var`s below ``terms`` by name, and of the symbols by
    name and parameter."""
    leaves, symbols = {}, {}
    for t in terms:
        for node in subterms(t):
            if isinstance(node, Var):
                leaves.setdefault(node.name, set()).add(id(node))
            elif isinstance(node, App):
                symbols.setdefault((node.op.name, node.op.param),
                                   set()).add(id(node.op))
    return leaves, symbols


def test_a_wide_system_keeps_one_leaf_per_name_and_symbol_per_parameter():
    system = parse_system(_seeded_stream_system(2000))
    leaves, symbols = _leaves_and_symbols(system.rhs.values())
    assert len(leaves) > 1500
    assert all(len(ids) == 1 for ids in leaves.values())
    assert {name for name, _ in symbols} == {"plus", "zip", "mult",
                                             "register"}
    assert len(symbols) == 7
    assert all(len(ids) == 1 for ids in symbols.values())


def test_an_agent_file_keeps_one_leaf_per_agent_name():
    system = parse_ccs(_seeded_agents(500))
    leaves, symbols = _leaves_and_symbols(system.rhs.values())
    assert len(leaves) > 400
    assert all(len(ids) == 1 for ids in leaves.values())
    assert all(len(ids) == 1 for ids in symbols.values())


_LAST = _seeded_stream_system(2000).rsplit("\n", 2)[0] + "\n"
_LAST_AGENT = _seeded_agents(500).rsplit("\n", 2)[0] + "\n"


@pytest.mark.parametrize("parse, text, message", [
    (parse_system, _LAST + "x1999 = 1 . plus(x5, nope)\n",
     "line 2001, col 22: unknown name 'nope'"),
    (parse_system, _LAST + "x7 = 1 . x7\n",
     "line 2001, col 1: variable 'x7' defined twice"),
    (parse_system, _LAST + f"x1999 = 1 . mult({'7' * 5000}, x3)\n",
     f"line 2001, col 18: bad rational '{'7' * 5000}'"),
    (parse_system, _LAST + "x1999 = 1 . x0  # fine\n\t@ x\n",
     "line 2002, col 2: unexpected character '@'"),
    (parse_ccs, _LAST_AGENT + "A3 = a.0\n",
     "line 500, col 1: agent 'A3' defined twice"),
    (parse_ccs, _LAST_AGENT + "A499 = a.A1 + b.(A2 | Q)\n",
     "line 500, col 23: unknown agent 'Q'"),
    (parse_ccs, _LAST_AGENT + "A499 = a.A1 + A2.0\n",
     "line 500, col 15: 'A2' is an agent, not an action"),
], ids=["unknown-name", "defined-twice", "bad-rational", "after-comment",
        "agent-twice", "unknown-agent", "agent-as-action"])
def test_errors_on_the_last_line_of_a_wide_file_keep_their_position(
        parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_errors_come_syntax_first_then_names_then_right_hand_sides():
    bad_rhs = _S + "x = 1 . nope\ny = 1 . x\n"
    with pytest.raises(ParseError, match="line 2, col 9: unknown name"):
        parse_system(bad_rhs)
    with pytest.raises(ParseError, match="line 4, col 1: variable 'y'"):
        parse_system(bad_rhs + "y = 0 . y\n")
    with pytest.raises(ParseError, match="line 4, col 9: expected a term"):
        parse_system(bad_rhs + "y = 1 . )\n")
    with pytest.raises(Unguarded):
        parse_system(_S + "x = plus(x, 1 . x)\nz = 1 . plus(x)\n")


# -- circuits --------------------------------------------------------------------


CIRCUIT = {
    "nodes": [
        {"id": "sigma", "kind": "input"},
        {"id": "add", "kind": "adder"},
        {"id": "cp", "kind": "copier"},
        {"id": "reg", "kind": "register", "value": "1"},
        {"id": "out", "kind": "output"},
    ],
    "edges": [["sigma", "add"], ["reg", "add"], ["add", "cp"],
              ["cp", "out"], ["cp", "reg"]],
}


def test_circuit_compiles_the_example(engine):
    compiled = compile_circuit(load_circuit(json.dumps(CIRCUIT)))
    table = compiled.table()
    assert table.validation().ok
    ones = periodic_stream(engine, (), (1,))
    f = engine.interpret_op(table, table.op("f_out"), [ones])
    assert stream_take(f, 10) == list(range(2, 12))
    g = engine.interpret_op(table, table.op("g_reg"), [ones])
    assert stream_take(g, 5) == [1, 2, 3, 4, 5]


def test_circuit_symbols_mention_only_reachable_inputs():
    compiled = compile_circuit(load_circuit(json.dumps(CIRCUIT)))
    assert compiled.outputs == (("f_out", "out", ("sigma",)),)
    assert compiled.registers == (("g_reg", "reg", ("sigma",)),)


def test_register_free_loop_is_rejected_with_witness():
    bad = {
        "nodes": [
            {"id": "i", "kind": "input"},
            {"id": "add", "kind": "adder"},
            {"id": "cp", "kind": "copier"},
            {"id": "o", "kind": "output"},
        ],
        "edges": [["i", "add"], ["cp", "add"], ["add", "cp"], ["cp", "o"]],
    }
    with pytest.raises(InvalidCircuit) as err:
        compile_circuit(load_circuit(json.dumps(bad)))
    assert err.value.loop is not None


def test_dangling_port():
    bad = {
        "nodes": [
            {"id": "i", "kind": "input"},
            {"id": "add", "kind": "adder"},
            {"id": "o", "kind": "output"},
        ],
        "edges": [["i", "add"], ["add", "o"]],
    }
    with pytest.raises(DanglingPort):
        compile_circuit(load_circuit(json.dumps(bad)))


def test_two_output_circuit(engine):
    both = {
        "nodes": [
            {"id": "x", "kind": "input"},
            {"id": "cp", "kind": "copier"},
            {"id": "m", "kind": "mult", "value": "2"},
            {"id": "o1", "kind": "output"},
            {"id": "o2", "kind": "output"},
        ],
        "edges": [["x", "cp"], ["cp", "o1"], ["cp", "m"], ["m", "o2"]],
    }
    compiled = compile_circuit(load_circuit(json.dumps(both)))
    table = compiled.table()
    s = periodic_stream(engine, (1, 2), (3,))
    doubled = engine.interpret_op(table, table.op("f_o2"), [s])
    assert stream_take(doubled, 4) == [2, 4, 6, 6]
    plain = engine.interpret_op(table, table.op("f_o1"), [s])
    assert stream_take(plain, 4) == [1, 2, 3, 3]


def test_wide_circuit_loads_and_compiles_in_linear_time(engine):
    # 10,000 input -> output pairs: each adjoined symbol and each edge end
    # is looked up in constant time, so this takes about a second.
    n = 10_000
    wide = {
        "nodes": [{"id": f"i{k}", "kind": "input"} for k in range(n)]
        + [{"id": f"o{k}", "kind": "output"} for k in range(n)],
        "edges": [[f"i{k}", f"o{k}"] for k in range(n)],
    }
    compiled = compile_circuit(load_circuit(json.dumps(wide)))
    table = compiled.table()
    assert len(compiled.outputs) == n and table.validation().ok
    s = periodic_stream(engine, (1, 2), (3,))
    out = engine.interpret_op(table, table.op(f"f_o{n - 1}"), [s])
    assert stream_take(out, 4) == [1, 2, 3, 3]


def test_two_input_circuit_with_shared_register(engine):
    # y(t) accumulates x1 + x2 through a register starting at 0
    circ = {
        "nodes": [
            {"id": "x1", "kind": "input"},
            {"id": "x2", "kind": "input"},
            {"id": "a1", "kind": "adder"},
            {"id": "a2", "kind": "adder"},
            {"id": "cp", "kind": "copier"},
            {"id": "r", "kind": "register", "value": "0"},
            {"id": "o", "kind": "output"},
        ],
        "edges": [["x1", "a1"], ["x2", "a1"], ["a1", "a2"], ["r", "a2"],
                  ["a2", "cp"], ["cp", "o"], ["cp", "r"]],
    }
    compiled = compile_circuit(load_circuit(json.dumps(circ)))
    assert compiled.outputs[0][2] == ("x1", "x2")
    assert compiled.registers[0][2] == ("x1", "x2")
    table = compiled.table()
    ones = periodic_stream(engine, (), (1,))
    twos = periodic_stream(engine, (), (2,))
    out = engine.interpret_op(table, table.op("f_o"), [ones, twos])
    # running sums of the constant-3 stream
    assert stream_take(out, 5) == [3, 6, 9, 12, 15]


def test_compiled_definitions_print():
    from test_symbolic import HALF_ACCUMULATOR

    program = parse_bde("kind stream\n" + SH + "x = 1 . sh(x, x)\n")
    circuit = compile_circuit(load_circuit(HALF_ACCUMULATOR))
    for value, names in ((program, ["sh"]), (program.rps.rules, ["sh"]),
                         (circuit, ["f_out", "g_reg"])):
        assert all(name in repr(value) for name in names)


# a circuit compiles to one BDE definition per register and output: the
# halving accumulator (tests/test_symbolic.py) written as its BDE program
HALF_BDE = (
    "g_reg(sigma): head = 1; tail = mult(1/2, plus(sigma, g_reg(sigma)))\n"
    "f_out(sigma): head = head(sigma) + 1; "
    "tail = plus(tail(sigma), mult(1/2, plus(sigma, g_reg(sigma))))\n")


def test_a_circuit_runs_as_its_bde_program():
    from test_symbolic import HALF_ACCUMULATOR

    pre, cyc = (1, 2), (3, Fraction(-1, 4))
    want, r = [], Fraction(1)
    for x in periodic_values(pre, cyc, 500):
        want.append(x + r)
        r = want[-1] / 2
    for table in (compile_circuit(load_circuit(HALF_ACCUMULATOR)).table(),
                  parse_bde(HALF_BDE).extended_table()):
        engine = Engine()
        h = engine.interpret_op(table, table.op("f_out"),
                                [periodic_stream(engine, pre, cyc)])
        assert stream_take(h, 500) == want
        assert len(engine._nodes) == 1_007 and len(engine._plans) == 3


def test_circuit_ids_may_be_bde_keywords_and_symbols(engine):
    # y = head + tail + plus + mult + g_r / 3 + r, r(0) = 2, r(n + 1) = -y(n) / 2
    names = ("head", "tail", "plus", "mult", "g_r")
    adds = [f"a{k}" for k in range(5)]
    circ = {
        "nodes": [{"id": i, "kind": "input"} for i in names]
        + [{"id": a, "kind": "adder"} for a in adds]
        + [{"id": "third", "kind": "mult", "value": "1/3"},
           {"id": "neg_half", "kind": "mult", "value": "-1/2"},
           {"id": "r", "kind": "register", "value": "2"},
           {"id": "cp", "kind": "copier"}, {"id": "o", "kind": "output"}],
        "edges": [["head", "a0"], ["tail", "a0"], ["a0", "a1"],
                  ["plus", "a1"], ["a1", "a2"], ["mult", "a2"],
                  ["g_r", "third"], ["third", "a3"], ["a2", "a3"],
                  ["a3", "a4"], ["r", "a4"], ["a4", "cp"], ["cp", "o"],
                  ["cp", "neg_half"], ["neg_half", "r"]],
    }
    compiled = compile_circuit(load_circuit(json.dumps(circ)))
    assert compiled.outputs == (("f_o", "o", names),)
    assert compiled.registers == (("g_r", "r", names),)
    specs = [((1,), (2,)), ((), (Fraction(1, 2), -1)), ((3,), (0,)),
             ((), (Fraction(-2, 3),)), ((5, 6), (1, 2, 3))]
    table = compiled.table()
    out = engine.interpret_op(table, table.op("f_o"), [
        periodic_stream(engine, *spec) for spec in specs])
    columns = [periodic_values(*spec, 40) for spec in specs]
    want, r = [], Fraction(2)
    for h, t, p, m, g in zip(*columns):
        want.append(h + t + p + m + g / 3 + r)
        r = -want[-1] / 2
    assert stream_take(out, 40) == want


@pytest.mark.parametrize("n", [400, 10_000])
def test_a_chain_of_multipliers_runs_under_the_default_limit(engine, n):
    assert sys.getrecursionlimit() <= 1000
    ids = ["x", *(f"m{k}" for k in range(n)), "o"]
    chain = {
        "nodes": [{"id": "x", "kind": "input"}, {"id": "o", "kind": "output"}]
        + [{"id": m, "kind": "mult", "value": "2" if k % 2 else "1/2"}
           for k, m in enumerate(ids[1:-1])],
        "edges": [list(pair) for pair in zip(ids, ids[1:])],
    }
    table = compile_circuit(load_circuit(json.dumps(chain))).table()
    out = engine.interpret_op(table, table.op("f_o"),
                              [periodic_stream(engine, (1,), (2, -3))])
    assert stream_take(out, 5) == [1, 2, -3, 2, -3]


def test_a_chain_of_1000_copier_diamonds_doubles_1000_times(engine):
    # x -> c0 => a0 -> c1 => a1 -> ... -> o: each copier's two outputs meet
    # again in the next adder, so each wire is read once, not 2^k times
    assert sys.getrecursionlimit() <= 1000
    n = 1_000
    chain = {
        "nodes": [{"id": "x", "kind": "input"}, {"id": "o", "kind": "output"}]
        + [{"id": f"{kind[0]}{k}", "kind": kind}
           for k in range(n) for kind in ("copier", "adder")],
        "edges": [["x", "c0"], [f"a{n - 1}", "o"]]
        + [[f"c{k}", f"a{k}"] for k in range(n) for _ in range(2)]
        + [[f"a{k}", f"c{k + 1}"] for k in range(n - 1)],
    }
    table = compile_circuit(load_circuit(json.dumps(chain))).table()
    out = engine.interpret_op(table, table.op("f_o"),
                              [periodic_stream(engine, (1,), (2, -3))])
    assert stream_take(out, 3) == [2 ** n * v for v in (1, 2, -3)]


# -- stream specs -----------------------------------------------------------------


def test_parse_stream_spec():
    assert parse_stream_spec("ones") == ((), (1,))
    assert parse_stream_spec("1;2|3;4") == ((Fraction(1), Fraction(2)),
                                            (Fraction(3), Fraction(4)))
    assert parse_stream_spec("5") == ((Fraction(5),), (Fraction(0),))
    assert parse_stream_spec("|1/2") == ((), (Fraction(1, 2),))
    with pytest.raises(ParseError):
        parse_stream_spec("a;b")

"""System right-hand sides and BDE clauses share one term reader and one
compiler: both read and compile terms of any depth under the default
recursion limit, a BDE's clause names stay unknown operations in systems,
each parameter error has one wording, and a tree clause may name a nullary
given symbol.  `Guard.above` names a deep witness by its full path."""

import sys
from fractions import Fraction

import pytest

from corec import Engine
from corec.behavior import stream_step
from corec.errors import ParseError, Unguarded
from corec.frontends import parse_bde, parse_system
from corec.instances import periodic_stream, stream_table, stream_take
from corec.terms import App, Guard, Var

DEEP = 10_000


def test_a_system_nested_10000_deep_parses_and_solves():
    assert sys.getrecursionlimit() <= 1000
    text = ("kind stream\nx = " + "plus(1 . x, " * DEEP + "1 . x"
            + ")" * DEEP + "\n")
    sol = Engine().solve(parse_system(text))
    n = DEEP + 1  # x = n . x
    assert stream_take(sol["x"], 3) == [n, n * n, n ** 3]


def test_a_bde_clause_nested_10000_deep_parses_and_runs():
    assert sys.getrecursionlimit() <= 1000
    program = parse_bde("kind stream\nf(x): head = 1; tail = "
                        + "plus(x, " * DEEP + "x" + ")" * DEEP + "\n")
    table = program.extended_table()
    engine = Engine()
    h = engine.interpret_op(table, table.op("f"),
                            [periodic_stream(engine, (), (1,))])
    assert stream_take(h, 3) == [1, DEEP + 1, DEEP + 1]


@pytest.mark.parametrize("text, message", [
    # a BDE's clause names read arguments only in its clauses
    ("kind stream\nx = 1 . tail(x)\n",
     "line 2, col 9: unknown operation 'tail'"),
    ("kind tree\nx = 1 . (left(x), x)\n",
     "line 2, col 10: unknown operation 'left'"),
    ("kind tree\nx = 1 . (root(x), x)\n",
     "line 2, col 10: unknown operation 'root'"),
    # each system message that the one compiler words as BDE clauses do
    ("kind stream\nx = 1 . mult(x)\n",
     "line 2, col 9: 'mult' needs a rational parameter"),
    ("kind stream\nx = 1 . mult\n",
     "line 2, col 9: 'mult' needs a rational parameter"),
    ("kind stream\nx = 1 . x . x\n",
     "line 2, col 9: 'register' needs a rational parameter"),
    ("kind stream\nx = 1 . a . x\n", "line 2, col 9: unknown name 'a'"),
    ("kind stream\nx = 1 . const(y)\n", "line 2, col 15: unknown name 'y'"),
    ("kind stream\nx = 1 . plus\n",
     "line 2, col 9: 'plus' expects 2 arguments"),
    ("kind tree\nx = 1 . (1 . x, x)\n",
     "line 2, col 10: prefix terms are stream-only"),
    ("kind language ab\nx = 1 . (char(1), x)\n",
     "line 2, col 10: 'char' needs a letter parameter"),
    ("kind language ab\nx = 1 . (cons(2, x, x), x)\n",
     "line 2, col 10: 'cons' needs a 0/1 parameter"),
    ("kind language ab\nx = 1 . (1 . (x, x), x)\n",
     "line 2, col 10: 'prefix' needs a letter parameter"),
])
def test_system_term_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert str(err.value) == message


@pytest.mark.parametrize("clause, message", [
    ("x(x)", "line 2, col 24: variable 'x' applied to arguments"),
    ("mult(y, x)", "line 2, col 29: unknown name 'y'"),
    ("x . x", "line 2, col 24: 'register' needs a rational parameter"),
    ("const", "line 2, col 24: 'const' needs a rational parameter"),
    ("f", "line 2, col 24: 'f' expects 1 arguments"),
])
def test_bde_clause_errors_are_worded_as_system_ones(clause, message):
    with pytest.raises(ParseError) as err:
        parse_bde(f"kind stream\nf(x): head = 1; tail = {clause}\n")
    assert str(err.value) == message


def test_a_symbol_named_without_its_arguments_is_a_parse_error():
    # not an ArityMismatch of the term builder, which has no position
    with pytest.raises(ParseError) as err:
        parse_system("kind language ab\nx = 1 . (star, x)\n")
    assert str(err.value) == "line 2, col 10: 'star' expects 1 arguments"


def test_a_tree_clause_may_name_a_nullary_given_symbol():
    program = parse_bde("kind tree\nf(x): root = root(x); left = pi; "
                        "right = plus(x, pi)\n")
    table = program.extended_table()
    engine = Engine()
    third = engine.interpret_op(table, table.op("const", Fraction(1, 3)), [])
    tree = engine.observe(engine.interpret_op(table, table.op("f"), [third]),
                          2)
    pi = Fraction(355, 113)
    kids = dict(tree.children)
    assert (tree.label, kids["L"].label, kids["R"].label) == \
        (Fraction(1, 3), pi, Fraction(1, 3) + pi)


def test_the_witness_40000_levels_down_is_its_full_path():
    plus = stream_table().op("plus")
    g = Guard(stream_step(1, Var("x")))
    t = Var("y")
    for _ in range(40_000):
        t = App(plus, (g, t))
    with pytest.raises(Unguarded) as err:
        Guard.above(t)
    assert (err.value.var, err.value.path) == ("y", (1,) * 40_000)

"""One gate for states that enter a term, and one guardedness walker.

Every entry point that puts an already-solved state into a term vets it as
a `Param` is: a state of another engine is InvalidHandle, a state of the
wrong kind KindMismatch, and a value that is no state a CorecError, never
an AttributeError or a silent read of this engine's node with the same id.
`Guard.above` names the leftmost unguarded variable, the same witness for
the parsers and for `Engine.solve`."""

from fractions import Fraction

import pytest

from corec.behavior import STREAM, stream_step
from corec.checking import bounded_equal, diagram_check, find_divergence
from corec.errors import (
    CorecError,
    InvalidHandle,
    KindMismatch,
    Unguarded,
    UnguardedPath,
)
from corec.frontends import parse_ccs, parse_system
from corec.instances import (
    ccs_term,
    language_table,
    language_term,
    periodic_stream,
    stream_table,
    stream_take,
)
from corec.solver import Engine, System
from corec.terms import App, Guard, Param, Slot, Var, mk_app

NOT_STATES = [None, 3, "x", Fraction(1), Var("x")]


@pytest.fixture()
def engine():
    return Engine()


def test_a_state_of_another_engine_is_rejected_by_interpret_term(engine):
    table = stream_table()
    periodic_stream(engine, (), (1, 0, 0, 0))
    foreign = periodic_stream(Engine(), (5, 6, 7), (0,))
    plus = mk_app(table.op("plus"), (Var("s"), Var("s")))
    with pytest.raises(InvalidHandle):
        engine.interpret_term(table, plus, {"s": foreign})
    with pytest.raises(InvalidHandle):
        engine.interpret_term(table, Var("s"), {"s": foreign})


def test_a_state_of_another_engine_is_rejected_by_materialize_rhs(engine):
    table = stream_table()
    system = System(STREAM, table, ("x",), {
        "x": Guard(stream_step(1, Var("x")))})
    other = Engine()
    periodic_stream(other, (2, 3), (4,))
    foreign = other.solve(system)
    engine.solve(system)
    with pytest.raises(InvalidHandle):
        engine.materialize_rhs(system, "x", foreign)


def test_a_state_of_the_wrong_kind_is_rejected_by_interpret_term(engine):
    table = stream_table()
    lang = language_table("ab")
    word = engine.interpret_term(lang, language_term(lang, ("eps",)))
    with pytest.raises(KindMismatch):
        engine.interpret_term(table, Var("s"), {"s": word})
    with pytest.raises(KindMismatch):
        engine.interpret_term(
            table, mk_app(table.op("plus"), (Var("s"), Var("s"))),
            {"s": word})


def test_a_state_of_the_wrong_kind_is_rejected_by_elaborate_guards(engine):
    table = stream_table()
    lang = language_table("ab")
    word = engine.interpret_term(lang, language_term(lang, ("eps",)))
    ctx = Guard(stream_step(3, Var("k")))
    with pytest.raises(KindMismatch):
        engine.elaborate_guards(table, ctx, {"k": word})
    zipped = mk_app(table.op("zip"), (ctx, Guard(stream_step(0, Var("k")))))
    with pytest.raises(KindMismatch):
        engine.elaborate_guards(table, zipped, {"k": word})


@pytest.mark.parametrize("value", NOT_STATES, ids=repr)
def test_a_value_that_is_no_state_is_a_corec_error(engine, value):
    table = stream_table()
    ones = periodic_stream(engine, (), (1,))
    with pytest.raises(CorecError):
        engine.interpret_term(table, Var("s"), {"s": value})
    with pytest.raises(CorecError):
        engine.elaborate_guards(table, Guard(stream_step(1, Var("s"))),
                                {"s": value})
    with pytest.raises(CorecError):
        engine.interpret_op(table, table.op("plus"), [ones, value])
    for left, right in ((ones, value), (value, ones), (value, value)):
        with pytest.raises(CorecError):
            bounded_equal(left, right, 3)
        with pytest.raises(CorecError):
            find_divergence(left, right, 3)


def test_good_states_still_enter_every_entry_point(engine):
    table = stream_table()
    s = periodic_stream(engine, (5, 6, 7), (0,))
    plus = mk_app(table.op("plus"), (Var("s"), Param(s)))
    assert stream_take(engine.interpret_term(table, plus, {"s": s}), 4) == \
        [10, 12, 14, 0]
    step = engine.elaborate_guards(table, Guard(stream_step(9, Var("s"))),
                                   {"s": s})
    assert step.label == 9 and stream_take(step.children[0][1], 3) == \
        [5, 6, 7]
    system = System(STREAM, table, ("x", "y"), {
        "x": Guard(stream_step(1, Var("y"))), "y": Param(s)})
    sol = engine.solve(system)
    assert bounded_equal(engine.materialize_rhs(system, "x", sol),
                         sol["x"], 5)
    assert engine.materialize_rhs(system, "y", sol) == sol["y"] == s


# -- the guardedness witness --------------------------------------------------


def test_solve_names_the_leftmost_unguarded_variable_as_the_parser_does(
        engine):
    table = stream_table()
    system = System(STREAM, table, ("x", "y"), {
        "x": mk_app(table.op("zip"), (Var("x"), Var("y"))),
        "y": Guard(stream_step(0, Var("y"))),
    })
    with pytest.raises(Unguarded) as solved:
        engine.solve(system)
    with pytest.raises(Unguarded) as parsed:
        parse_system("kind stream\nx = zip(x, y)\ny = 0 . y\n")
    assert (solved.value.var, solved.value.path) == ("x", (0,))
    assert (parsed.value.var, parsed.value.path) == ("x", (0,))


def test_guard_above_visits_arguments_left_to_right():
    table = stream_table()
    zip_, plus = table.op("zip"), table.op("plus")
    g = Guard(stream_step(1, Var("z")))
    t = App(zip_, (App(plus, (g, g)), App(plus, (g, Var("b")))))
    with pytest.raises(Unguarded) as err:
        Guard.above(App(zip_, (t, Var("a"))))
    assert (err.value.var, err.value.path) == ("b", (0, 1, 1))
    assert Guard.above(App(plus, (g, g))) == [App(plus, (g, g)), g, g]


def test_an_unguarded_variable_is_an_unguarded_path():
    assert issubclass(Unguarded, UnguardedPath)
    with pytest.raises(UnguardedPath):
        Guard.above(Var("x"))
    # a leaf that is neither a guard nor a variable keeps the parent class
    with pytest.raises(UnguardedPath) as err:
        Guard.above(Param(None))
    assert type(err.value) is UnguardedPath


def test_the_agent_parser_and_solve_agree_on_the_witness(engine):
    system = parse_ccs("P = a.P\n")
    rhs = {"P": ccs_term(system.table, (
        "par", ("pref", "a", ("sum", ())), ("ref", "P")))}
    with pytest.raises(Unguarded) as solved:
        engine.solve(System(system.kind, system.table, ("P",), rhs))
    with pytest.raises(Unguarded) as parsed:
        parse_ccs("P = a.0 | P\n")
    assert (solved.value.var, solved.value.path) == \
        (parsed.value.var, parsed.value.path) == ("P", (1,))


# -- a `Param` argument above the guards is a solved constant -----------------


def _plus_param(table, s, right):
    return mk_app(table.op("plus"), (Param(s), right))


def test_a_param_above_the_guards_is_a_constant(engine):
    table = stream_table()
    ones = periodic_stream(engine, (), (1,))
    system = System(STREAM, table, ("x",), {"x": _plus_param(
        table, ones, Guard(stream_step(1, Var("x"))))})
    sol = engine.solve(system)
    assert stream_take(sol["x"], 5) == [2, 3, 4, 5, 6]
    assert diagram_check(system, sol, 8).passed
    # a numeral above the guards is a nullary `const`, accepted alike
    one = periodic_stream(engine, (1,), (0,))
    system = System(STREAM, table, ("x",), {"x": _plus_param(
        table, one, Guard(stream_step(1, Var("x"))))})
    parsed = engine.solve(parse_system("kind stream\nx = plus(1, 1 . x)\n"))
    assert bounded_equal(parsed["x"], engine.solve(system)["x"], 8)


def test_other_leaves_above_the_guards_keep_their_witness(engine):
    table = stream_table()
    ones = periodic_stream(engine, (), (1,))
    plus = table.op("plus")
    with pytest.raises(Unguarded) as err:
        Guard.above(mk_app(plus, (Var("x"), Param(ones))))
    assert (err.value.var, err.value.path) == ("x", (0,))
    with pytest.raises(Unguarded) as err:
        Guard.above(_plus_param(table, ones, Var("x")))
    assert (err.value.var, err.value.path) == ("x", (1,))
    with pytest.raises(UnguardedPath) as err:
        Guard.above(_plus_param(table, ones, Slot(0)))
    assert type(err.value) is UnguardedPath
    assert str(err.value) == "path (1,) ends in <node 0> with no guard"
    # the parser names the variable after a numeral at the same path
    with pytest.raises(Unguarded) as parsed:
        parse_system("kind stream\nx = plus(1, x)\n")
    assert (parsed.value.var, parsed.value.path) == ("x", (1,))


def test_a_param_above_the_guards_is_still_vetted_at_solve(engine):
    table = stream_table()
    lang = language_table("ab")
    guard = Guard(stream_step(1, Var("x")))
    for state, error in (
            (periodic_stream(Engine(), (), (1,)), InvalidHandle),
            (engine.interpret_term(lang, language_term(lang, ("eps",))),
             KindMismatch)):
        system = System(STREAM, table, ("x",), {
            "x": _plus_param(table, state, guard)})
        nodes, cons = len(engine._nodes), dict(engine._cons)
        with pytest.raises(error):
            engine.solve(system)
        assert len(engine._nodes) == nodes and engine._cons == cons

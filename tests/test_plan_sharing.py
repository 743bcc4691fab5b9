"""Plans live with their table: every engine over one table shares them.

A rule's conclusion for a symbol, its parameter and the premises' shape is
the same in every engine, so `RuleTable.plans` keeps it once per table and
each engine binds its names to its own symbol records.  Code that names a
state, from a `Param` in a conclusion, stays with the engine that planned
it."""

import random

import pytest

from helpers import agent_handle

from corec import solver
from corec.behavior import stream_step
from corec.checking import bounded_equal
from corec.errors import InvalidHandle
from corec.frontends import compile_gnf, parse_gnf
from corec.instances import (
    DEFAULT_ACTIONS,
    ccs_table,
    language_member,
    periodic_stream,
    random_agent,
    stream_table,
    stream_take,
)
from corec.rules import GsosRule, add_rule
from corec.solver import Engine
from corec.terms import Param, mk_app, sig_sum, signature

ANBN = compile_gnf(parse_gnf("terminals: a b\nnonterminals: S B\nstart: S\n"
                             "S -> a S B\nS -> a B\nB -> b\n"))
WORDS = [a * "a" + b * "b" for a in range(12) for b in range(12)]


@pytest.fixture()
def planned(monkeypatch):
    """The number of planning runs, counted at `solver`'s planners."""
    count = [0]

    def counted(fn):
        def run(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(solver, "plan_rule", counted(solver.plan_rule))
    monkeypatch.setattr(solver, "plan_symbolic",
                        counted(solver.plan_symbolic))
    return count


def _members(engine):
    start = engine.solve(ANBN)["S"]
    return [language_member(start, w) for w in WORDS]


def test_a_second_engine_plans_nothing_on_the_same_table(planned):
    first = Engine()
    want = _members(first)
    assert want == [a == b > 0 for a in range(12) for b in range(12)]
    planned[0] = 0
    second = Engine()
    assert _members(second) == want
    assert planned[0] == 0
    assert len(second._nodes) == len(first._nodes)
    assert len(second._plans) == len(first._plans)


def _param_table(ones):
    """``f(x)`` steps to ``x``'s label and continues to ``plus(ones,
    tail(x))``, ``ones`` a state of one engine."""
    base = stream_table()
    new = signature(("f", 1))
    plus = sig_sum(base.sig, new).op("plus")

    def rule(op, args):
        (a,) = args
        return stream_step(a.head, mk_app(plus, (Param(ones), a.tail)))

    return add_rule(base, GsosRule(new.op("f"), rule))


def test_a_plan_that_names_a_state_stays_with_its_engine():
    a, b = Engine(), Engine()
    table = _param_table(periodic_stream(a, (), (1,)))
    f = table.op("f")
    h = a.interpret_op(table, f, [periodic_stream(a, (), (2,))])
    assert stream_take(h, 4) == [2, 3, 3, 3]
    h = b.interpret_op(table, f, [periodic_stream(b, (), (2,))])
    with pytest.raises(InvalidHandle):
        stream_take(h, 4)
    assert not [key for key in table.plans if key[0] == "f"]
    assert not [i for plan in table.plans.values() if plan
                for i in plan if i.__class__ is int and i < 0]


def _sevenless_table():
    """``g(x)`` copies ``x`` label by label, but its rule raises on a
    label of 7, which the build probe's labels never are."""
    new = signature(("g", 1))

    def rule(op, args):
        (a,) = args
        if a.head == 7:
            raise ValueError("seven")
        return stream_step(a.head, mk_app(op, (a.tail,)))

    return add_rule(stream_table(), GsosRule(new.op("g"), rule))


def test_a_rule_that_raises_on_a_shape_raises_in_every_engine(planned):
    table = _sevenless_table()
    g = table.op("g")
    for _ in range(2):
        engine = Engine()
        h = engine.interpret_op(table, g,
                                [periodic_stream(engine, (1,), (3,))])
        assert stream_take(h, 2) == [1, 3]
        h = engine.interpret_op(table, g, [periodic_stream(engine, (), (7,))])
        with pytest.raises(ValueError, match="seven"):
            stream_take(h, 1)
        assert ("g", None, ((7, 1),)) not in table.plans
    assert set(table.plans) == {("g", None), ("g", None, ((1, 1),)),
                                ("g", None, ((3, 1),))}
    # three plans kept, False among them, and the raising shape planned
    # once per engine
    assert planned[0] == 3 + 2


def _agent_pairs(table, shared):
    rng = random.Random(10)
    out = []
    for _ in range(100):
        if not shared:
            table.plans.clear()
        engine = Engine()
        x, y = (agent_handle(engine, table, random_agent(rng, table.kind, 5))
                for _ in range(2))
        out.append((bounded_equal(x, y, 4), len(engine._nodes),
                    len(engine._plans)))
    return out


def test_shared_process_plans_give_the_verdicts_of_fresh_ones(planned):
    table = ccs_table(DEFAULT_ACTIONS)
    fresh = _agent_pairs(table, shared=False)
    fresh_plans = planned[0]
    planned[0] = 0
    table.plans.clear()
    assert _agent_pairs(table, shared=True) == fresh
    assert planned[0] == len(table.plans) < fresh_plans
    assert {verdict for verdict, _, _ in fresh} == {True, False}


"""Conclusion templates: the engine runs each rule once per premise shape and
fills the compiled conclusion with node ids.  Nothing observable changes:
the arena node counts below are those of running the rule once per
application, and an engine with its plans is freed by reference counting.
"""

import gc
import weakref

import pytest

from helpers import flat_tm_system, flat_tm_values, sandwiched_tm_system

from corec.behavior import STREAM, stream_step
from corec.checking import bounded_equal
from corec.frontends import compile_gnf, parse_ccs, parse_gnf
from corec.instances import (
    language_member,
    oracle_eval,
    periodic_stream,
    stream_table,
    stream_take,
)
from corec.rules import GsosRule, build_table
from corec.solver import Engine
from corec.terms import mk_app, signature

ANBN = "terminals: a b\nnonterminals: S B\nstart: S\nS -> a S B\nS -> a B\n" \
       "B -> b\n"


def test_thue_morse_arena_is_unchanged():
    engine = Engine()
    got = stream_take(engine.solve(sandwiched_tm_system())["u"], 2000)
    assert got == [oracle_eval("thue_morse", k) for k in range(2000)]
    assert len(engine._nodes) == 3004


def test_flat_thue_morse_arena_is_unchanged():
    engine = Engine()
    got = stream_take(engine.solve(flat_tm_system())["u"], 2000)
    assert got == flat_tm_values(2000)[0]
    assert len(engine._nodes) == 3002


def test_anbn_arena_is_unchanged():
    engine = Engine()
    sol = engine.solve(compile_gnf(parse_gnf(ANBN)))
    assert language_member(sol["S"], "a" * 500 + "b" * 500)
    assert len(engine._nodes) == 1008


def test_replicator_arena_is_unchanged():
    engine = Engine()
    sol = engine.solve(parse_ccs("P = b.P + a.(P | c.0)\n"
                                 "Q = a.(c.0 | Q) + b.Q\n"))
    assert bounded_equal(sol["P"], sol["Q"], 14)
    assert len(engine._nodes) == 45


def test_a_rule_runs_once_per_premise_shape():
    sig = signature(("zip", 2))
    calls = []

    def zip_rule(op, args):
        calls.append(op)
        a, b = args
        return stream_step(a.head,
                           mk_app(sig.op("zip"), (b.self_term, a.tail)))

    table = build_table(STREAM, sig, [GsosRule(sig.op("zip"), zip_rule)])
    del calls[:]
    got = stream_take(Engine().solve(flat_tm_system(table))["u"], 5000)
    assert got == flat_tm_values(5000)[0]
    # two premises, each labelled 0 or 1
    assert len(calls) <= 4


def test_an_engine_and_its_plans_die_without_the_cycle_collector():
    table = stream_table()
    gc.disable()
    try:
        engine = Engine()
        ones = periodic_stream(engine, (), (1,))
        h = engine.interpret_op(table, table.op("shuffle"), [ones, ones])
        assert stream_take(h, 40)[-1] == 2 ** 39
        ref = weakref.ref(engine)
        del engine, ones, h
        assert ref() is None
    finally:
        gc.enable()

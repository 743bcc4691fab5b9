"""Label-symbolic plans: a stream or tree rule that does only field
arithmetic on its labels is planned once per symbol and parameter, its
labels computed from the premises' labels at every application.  A rule
that reads its labels otherwise is planned once per tuple of labels, as
before, and answers and errors stay what they were.
"""

import json
from fractions import Fraction

import pytest

from corec import checking
from corec.behavior import STREAM, SymbolicLabel, _LabelRead, stream_step
from corec.errors import ValidationFailed
from corec.frontends import compile_circuit, load_circuit
from corec.instances import (
    periodic_stream,
    periodic_values,
    stream_base_table,
    stream_take,
)
from corec.rules import GsosRule, SrpsDef, build_table, register_srps
from corec.solver import Engine
from corec.terms import Guard, mk_app, signature

PRE, CYC = (Fraction(-1, 2), 3), (-2, Fraction(5, 3), 0)


def _unary_table(label_of):
    """A table of one symbol ``f/1`` concluding ``label_of(a.head)`` and
    continuing to ``f`` of the tail."""
    sig = signature(("f", 1))

    def rule(op, args):
        (a,) = args
        return stream_step(label_of(a.head), mk_app(op, (a.tail,)))

    return build_table(STREAM, sig, [GsosRule(sig.op("f"), rule)])


def _take_f(table, n):
    engine = Engine()
    h = engine.interpret_op(table, table.op("f"),
                            [periodic_stream(engine, PRE, CYC)])
    return stream_take(h, n), engine


def test_symbolic_labels_record_arithmetic_and_refuse_reads():
    a, b = SymbolicLabel(0), SymbolicLabel(1)
    e = -(2 * a - b / Fraction(3)) + 1
    assert e.ev([Fraction(5), Fraction(6)]) == -7
    assert (1 - a / b).at(STREAM, [Fraction(1), Fraction(4)]) == \
        Fraction(3, 4)
    reads = [lambda: a > 0, lambda: a == b, lambda: bool(a),
             lambda: hash(a), lambda: int(a), lambda: float(a),
             lambda: f"{a}", lambda: repr(a), lambda: a.numerator,
             lambda: 0.5 * a, lambda: a * 0.5, lambda: a + True]
    for read in reads:
        with pytest.raises(_LabelRead):
            read()


def test_a_rule_doing_field_arithmetic_is_planned_once():
    got, engine = _take_f(_unary_table(lambda x: 2 * x - Fraction(1, 3)), 40)
    assert got == [2 * v - Fraction(1, 3)
                   for v in periodic_values(PRE, CYC, 40)]
    assert all(type(v) is Fraction for v in got)
    assert len(engine._plans) == 1


def test_a_rule_that_branches_on_a_label_is_planned_per_label():
    got, engine = _take_f(_unary_table(lambda x: x if x > 0 else -x), 40)
    assert got == [abs(v) for v in periodic_values(PRE, CYC, 40)]
    # the symbol's entry marks the fallback, then one plan per label seen
    assert len(engine._plans) == 1 + len(set(PRE + CYC))


def test_a_rule_with_a_float_constant_fails_as_before():
    with pytest.raises(TypeError, match="not an exact rational"):
        _unary_table(lambda x: 0.5 * x)


def test_a_rule_that_tells_symbolic_labels_apart_is_not_natural():
    with pytest.raises(ValidationFailed, match="not natural"):
        _unary_table(lambda x: x if type(x) is Fraction else Fraction(1))


def test_guard_labels_of_a_sandwiched_rule_are_symbolic():
    new = signature(("triple", 1))

    def ctx(op, args):
        (a,) = args
        return Guard(stream_step(3 * a.head, mk_app(op, (a.tail,))))

    table = register_srps(stream_base_table(), SrpsDef(new, {"triple": ctx}))
    engine = Engine()
    h = engine.interpret_op(table, table.op("triple"),
                            [periodic_stream(engine, PRE, CYC)])
    assert stream_take(h, 30) == [3 * v for v in periodic_values(PRE, CYC,
                                                                 30)]
    assert len(engine._plans) == 1


# an accumulator whose feedback passes a multiplier by 1/2: y = x + r,
# r(0) = 1, r(n + 1) = y(n) / 2
HALF_ACCUMULATOR = json.dumps({
    "nodes": [
        {"id": "sigma", "kind": "input"},
        {"id": "add", "kind": "adder"},
        {"id": "cp", "kind": "copier"},
        {"id": "half", "kind": "mult", "value": "1/2"},
        {"id": "reg", "kind": "register", "value": "1"},
        {"id": "out", "kind": "output"},
    ],
    "edges": [["sigma", "add"], ["reg", "add"], ["add", "cp"],
              ["cp", "out"], ["cp", "half"], ["half", "reg"]],
})


def test_a_scaled_feedback_circuit_keeps_one_plan_per_symbol():
    compiled = compile_circuit(load_circuit(HALF_ACCUMULATOR))
    table = compiled.table()
    (symbol, _, _), = compiled.outputs
    shapes = []
    for n in (50, 2000):
        engine = Engine()
        h = engine.interpret_op(table, table.op(symbol),
                                [periodic_stream(engine, PRE, CYC)])
        want, r = [], Fraction(1)
        for x in periodic_values(PRE, CYC, n):
            want.append(x + r)
            r = want[-1] / 2
        assert stream_take(h, n) == want
        names = [key[1] for key in engine._plans]
        assert len(names) == len(set(names))
        shapes.append(set(engine._plans))
    assert shapes[0] == shapes[1]


def test_the_modularity_suite_plans_once_per_symbol(monkeypatch):
    made = []

    class Recorded(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(checking, "Engine", Recorded)
    assert all(r.passed for r in checking.run_suite("modularity"))
    main = made[0]
    assert len(main._plans) <= 50
    assert len(main._nodes) == 2215

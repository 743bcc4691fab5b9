"""Tables of compiled BDE programs and circuits are valid by construction:
building one probes no rule and keeps the program's rules as built,
`validate_table` still probes every rule and finds them all valid, seeded
random programs included; a circuit's definitions take their reachable
inputs in input order, and a long register chain compiles and runs."""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from corec import Engine, rules
from corec.frontends import compile_circuit, load_circuit, parse_bde
from corec.instances import (periodic_stream, periodic_values, stream_table,
                             stream_take, tree_table)
from corec.rules import validate_table
from test_compiled_definitions import simulate

SHUFFLE = ("kind stream\nf(x, y): head = head(x) * head(y); "
           "tail = plus(f(x, tail(y)), f(tail(x), y))\n")
ACCUMULATOR = {
    "nodes": [{"id": "sigma", "kind": "input"},
              {"id": "add", "kind": "adder"},
              {"id": "cp", "kind": "copier"},
              {"id": "half", "kind": "mult", "value": "1/2"},
              {"id": "reg", "kind": "register", "value": "1"},
              {"id": "out", "kind": "output"}],
    "edges": [["sigma", "add"], ["reg", "add"], ["add", "cp"],
              ["cp", "out"], ["cp", "half"], ["half", "reg"]],
}


@pytest.fixture
def probed(monkeypatch):
    """The names `rules._probe` is called on, from here on."""
    stream_table(), tree_table()  # built, and probed, before counting
    names, probe = [], rules._probe

    def counting(kind, sig, name, *rest):
        names.append(name)
        return probe(kind, sig, name, *rest)

    monkeypatch.setattr(rules, "_probe", counting)
    return names


def test_compiled_tables_probe_no_rule_and_validate_probes_every_rule(
        probed):
    tables = [parse_bde(SHUFFLE).extended_table(),
              compile_circuit(load_circuit(json.dumps(ACCUMULATOR))).table()]
    assert probed == []
    for table in tables:
        assert table.validation().ok and probed == []
        report = validate_table(table)
        assert report.ok and sorted(probed) == sorted(table.rules)
        probed.clear()


def test_a_compiled_table_carries_the_given_report_and_probes_python_rules(
        probed):
    program = parse_bde(SHUFFLE)
    table = program.extended_table()
    assert table.validation() is program.given.validation()
    rules.extend_with_rps(program.given, program.rps)
    assert probed == ["f"]


def test_adjoining_keeps_a_rule_that_holds_its_symbol_and_sets_others():
    program = parse_bde(SHUFFLE)
    built = program.rps.rules["f"]
    assert program.extended_table().rules["f"] is built
    # a rule whose symbol differs only in its parameter is stored with the
    # symbol of the sum
    odd = replace(built, op=replace(built.op, param=Fraction(1)))
    table = rules.extend_with_rps(program.given,
                                  rules.RpsDef(program.rps.new_sig, {"f": odd}))
    assert table.rules["f"].op == built.op and built.op.param is None


def _head(rng, reads, depth):
    """An initial value over ``+``, ``*``, rationals and ``reads``."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(reads) if reads and rng.random() < 0.5 \
            else str(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    a, b = _head(rng, reads, depth - 1), _head(rng, reads, depth - 1)
    return f"({a} {rng.choice('+*')} {b})"


def _clause(rng, kind, args, defs, depth):
    """A clause over the given symbols of ``kind``, the definitions
    ``defs`` (name, arity), the arguments ``args`` and their reads."""
    reads = [f"{c}({x})" for c in kind.clauses[1:] for x in args]
    leaves = args + reads + [str(rng.randint(0, 3))]
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)

    def sub():
        return _clause(rng, kind, args, defs, depth - 1)

    pick = rng.choice(["plus", "def", "num", "read"] + (
        ["zip", "shuffle", "conv", "mult", "prefix"]
        if kind.name == "stream" else ["pi"]))
    if pick == "def":
        name, arity = rng.choice(defs)
        return f"{name}({', '.join(sub() for _ in range(arity))})"
    if pick in ("plus", "zip", "shuffle", "conv"):
        return f"{pick}({sub()}, {sub()})"
    if pick == "mult":
        c = rng.choice([f"{kind.clauses[0]}({x})" for x in args]
                       + [str(Fraction(rng.randint(-3, 3), 2))])
        return f"mult({c}, {sub()})"
    if pick == "prefix":
        return f"{rng.randint(-2, 2)} . {sub()}"
    if pick == "pi":
        return "pi"
    if pick == "read":
        return f"{kind.clauses[0]}({rng.choice(args)})"
    return str(Fraction(rng.randint(0, 9), rng.randint(1, 3)))


def random_bde(rng, table):
    """A program of one to four definitions, each over one to three
    arguments, whose clauses may call every earlier definition and itself."""
    kind, defs, lines = table.kind, [], [f"kind {table.kind.name}"]
    for k in range(rng.randint(1, 4)):
        args = [f"x{i}" for i in range(rng.randint(1, 3))]
        name = f"f{k}"
        defs.append((name, len(args)))
        head = _head(rng, [f"{kind.clauses[0]}({x})" for x in args],
                     rng.randint(0, 3))
        clauses = "; ".join(
            f"{c} = {_clause(rng, kind, args, defs, rng.randint(1, 4))}"
            for c in kind.clauses[1:])
        lines.append(f"{name}({', '.join(args)}): {kind.clauses[0]} = "
                     f"{head}; {clauses}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("given", [stream_table, tree_table],
                         ids=["stream", "tree"])
def test_random_bde_programs_validate_ok(given, probed):
    rng = random.Random(28)
    table = given()
    for _ in range(100):
        text = random_bde(rng, table)
        program = parse_bde(text)
        extended = program.extended_table()
        assert probed == []
        assert validate_table(extended).ok, text
        assert sorted(probed) == sorted(extended.rules), text
        probed.clear()
        engine = Engine()
        arg = periodic_stream(engine, (1,), (2, Fraction(-1, 2))) \
            if table.kind.name == "stream" else engine.interpret_op(
                extended, extended.op("const", Fraction(1, 3)), [])
        for name in program.names:
            op = extended.op(name)
            engine.observe(engine.interpret_op(extended, op,
                                               [arg] * op.arity), 2)


def test_circuit_definitions_take_their_inputs_in_input_order():
    # the adder reads c before a; b feeds an output of its own
    circuit = {
        "nodes": [{"id": i, "kind": "input"} for i in "abc"]
        + [{"id": "s", "kind": "adder"},
           {"id": "r", "kind": "register", "value": "1"},
           {"id": "o", "kind": "output"}, {"id": "p", "kind": "output"}],
        "edges": [["c", "s"], ["a", "s"], ["s", "r"], ["r", "o"],
                  ["b", "p"]],
    }
    compiled = compile_circuit(load_circuit(json.dumps(circuit)))
    assert compiled.registers == (("g_r", "r", ("a", "c")),)
    assert compiled.outputs == (("f_o", "o", ("a", "c")),
                                ("f_p", "p", ("b",)))


def test_a_chain_of_10000_registers_compiles_under_the_default_limit():
    assert sys.getrecursionlimit() <= 1000
    ids = ["x", *(f"r{k}" for k in range(10_000)), "o"]
    chain = {
        "nodes": [{"id": "x", "kind": "input"}, {"id": "o", "kind": "output"}]
        + [{"id": r, "kind": "register", "value": str(k)}
           for k, r in enumerate(ids[1:-1])],
        "edges": [list(pair) for pair in zip(ids, ids[1:])],
    }
    compiled = compile_circuit(load_circuit(json.dumps(chain)))
    assert compiled.outputs == (("f_o", "o", ("x",)),)
    table, engine = compiled.table(), Engine()
    spec = ((1,), (2, -3))
    h = engine.interpret_op(table, table.op("f_o"),
                            [periodic_stream(engine, *spec)])
    want = simulate(chain, {"x": periodic_values(*spec, 3)}, 3)
    assert stream_take(h, 3) == want["o"] == [9999, 9998, 9997]

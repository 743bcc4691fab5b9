"""Hash-consing CCS parallel composition modulo its commutative-monoid law:
`P | Q = Q | P`, `(P | Q) | R = P | (Q | R)` and `P | 0 = P`.

Every test here runs under the default recursion limit.
"""

import itertools
import random

from helpers import agent_handle, sos_agree

from corec.behavior import process_step
from corec.checking import bounded_equal, find_divergence
from corec.frontends import parse_ccs
from corec.instances import DEFAULT_ACTIONS, ccs_table, random_agent
from corec.rules import Law
from corec.solver import Engine
from corec.terms import App, Guard

ZERO = ("sum", ())
P = ("sum", (("pref", "a", ("pref", "b", ZERO)), ("pref", "c", ZERO)))
Q = ("pref", "b'", ("pref", "a", ZERO))
R = ("seq", ("pref", "c'", ZERO), ("pref", "a'", ZERO))


def _node(engine, ast):
    return agent_handle(engine, ccs_table(DEFAULT_ACTIONS), ast).node


def test_ccs_table_declares_the_law_and_zero_is_nil():
    table = ccs_table(DEFAULT_ACTIONS)
    assert table.laws["par"] == Law(unit="nil", commutative=True)
    engine = Engine()
    zero = _node(engine, ZERO)
    assert engine._nodes[zero].name == "nil"
    assert engine.node_step(zero).children == ()


def test_zero_in_context_position_is_nil():
    for text, nil_at in (("P = a.0 | 0\n", 1), ("P = (0 + 0) | a.0\n", 0)):
        system = parse_ccs(text)
        engine = Engine()
        p = engine.solve(system)["P"]
        assert not any(n.tag == "term" and n.name == "par"
                       for n in engine._nodes)
        assert bounded_equal(p, engine.solve(parse_ccs("Q = a.0\n"))["Q"], 4)
        table = system.table
        nil = App(table.op("nil"), ())
        a0 = Guard(process_step((("a", nil),)))
        args = (a0, nil) if nil_at else (nil, a0)
        assert system.rhs == {"P": App(table.op("par"), args)}
    # in a sum, `0` adds no moves to the sum's one guard
    assert parse_ccs("P = a.0 + 0\n") == parse_ccs("P = a.0\n")


def test_nil_is_the_unit():
    engine = Engine()
    p = _node(engine, P)
    assert _node(engine, ("par", P, ZERO)) == p
    assert _node(engine, ("par", ZERO, P)) == p
    assert _node(engine, ("par", ZERO, ZERO)) == _node(engine, ZERO)


def test_every_bracketing_and_order_shares_one_node():
    engine = Engine()
    nodes = set()
    for x, y, z in itertools.permutations((P, Q, R)):
        nodes.add(_node(engine, ("par", ("par", x, y), z)))
        nodes.add(_node(engine, ("par", x, ("par", y, z))))
    assert len(nodes) == 1


def test_par_is_a_multiset_not_a_set():
    engine = Engine()
    pp = _node(engine, ("par", P, P))
    assert pp != _node(engine, P)
    assert _node(engine, ("par", ("par", P, Q), P)) == \
        _node(engine, ("par", ("par", P, P), Q))
    table = ccs_table(DEFAULT_ACTIONS)
    assert not bounded_equal(agent_handle(engine, table, ("par", P, P)),
                             agent_handle(engine, table, P), 3)


def test_synchronisation_survives_normalisation():
    engine = Engine()
    h = _node(engine, ("par", ("pref", "a", ZERO), ("pref", "a'", ZERO)))
    moves = engine.node_step(h).children
    assert [p for p, _ in moves] == [("a", 0), ("a'", 0), ("tau", 0)]
    tau_target = moves[-1][1]
    assert tau_target == _node(engine, ZERO)


# The replicating agent templates of the benchmark's `equivalence`
# workload: each agent against its mirror image (summands reversed,
# parallel operands swapped) and against a mutant whose `z.0` became `x.0`.
REPLICATORS = (
    "P = x.P + y.(P | z.0)\n"
    "Q = y.(z.0 | Q) + x.Q\n"
    "U = y.(x.0 | U) + x.U\n",
    "P = x.R + y.(P | z.0)\nR = y.P + x.0\n"
    "Q = y.(z.0 | Q) + x.S\nS = x.0 + y.Q\n"
    "U = y.(x.0 | U) + x.V\nV = x.0 + y.U\n",
    "P = x.(R | z.0) + y.P\nR = x.P + y.R + x.0\n"
    "Q = y.Q + x.(z.0 | S)\nS = x.0 + y.S + x.Q\n"
    "U = y.U + x.(x.0 | V)\nV = x.0 + y.V + x.U\n",
)


def test_replicating_agents_reach_linearly_many_nodes():
    for text in REPLICATORS:
        for d in range(1, 15):
            engine = Engine()
            sol = engine.solve(parse_ccs(text))
            assert bounded_equal(sol["P"], sol["Q"], d)
            assert len(engine._nodes) <= 6 * d + 20, (text, d)
        assert find_divergence(sol["P"], sol["U"], 14) is not None


def test_the_mirror_pair_is_small_at_depth_fourteen():
    engine = Engine()
    sol = engine.solve(parse_ccs("P = b.P + a.(P | c.0)\n"
                                 "Q = a.(c.0 | Q) + b.Q\n"))
    assert bounded_equal(sol["P"], sol["Q"], 14)
    assert len(engine._nodes) <= 104


def _has_par(ast):
    tag = ast[0]
    if tag == "sum":
        return any(map(_has_par, ast[1]))
    if tag in ("pref", "restrict"):
        return _has_par(ast[2])
    return tag == "par" or tag == "seq" and (_has_par(ast[1]) or
                                             _has_par(ast[2]))


def test_agents_with_par_agree_with_the_sos_oracle():
    table = ccs_table(DEFAULT_ACTIONS)
    rng = random.Random(17)
    engine = Engine()
    checked = 0
    while checked < 30:
        ast = random_agent(rng, table.kind, 3)
        if not _has_par(ast):
            continue
        assert sos_agree(table.kind, engine, ast,
                         agent_handle(engine, table, ast), 4), ast
        checked += 1

"""Sums of an additive symbol hash-consed as weighted multisets.

Every test here runs under the default recursion limit.
"""

import random
from fractions import Fraction

import pytest

from corec.behavior import STREAM, TREE, language_step, stream_step, tree_step
from corec.errors import KindMismatch, ValidationFailed
from corec.frontends import compile_gnf, parse_gnf
from corec.instances import (
    language_member,
    language_table,
    oracle_eval,
    periodic_stream,
    periodic_values,
    stream_table,
    stream_take,
    tree_table,
)
from corec.rules import GsosRule, Law, RuleTable, build_table, validate_table
from corec.solver import Engine, System
from corec.terms import Guard, Param, Var, mk_app, signature


def test_sums_are_multisets_of_their_operands():
    table = stream_table()
    engine = Engine()
    x = periodic_stream(engine, (1,), (2,))
    y = periodic_stream(engine, (), (3, 4))

    def node(t):
        return engine.interpret_term(table, t).node

    def plus(a, b):
        return mk_app(table.op("plus"), (a, b))

    px, py = Param(x), Param(y)
    assert node(plus(px, py)) == node(plus(py, px))
    h = engine.interpret_term(table, plus(plus(px, py), px))
    twice_x = h.node
    assert twice_x == node(plus(px, plus(py, px)))
    assert engine._nodes[twice_x].children == \
        tuple(sorted(((x.node, 2), (y.node, 1))))
    assert twice_x != node(plus(px, py))
    doubled = node(plus(px, px))
    assert doubled != x.node
    assert engine._nodes[doubled].children == ((x.node, 2),)
    assert stream_take(h, 5) == [5, 8, 7, 8, 7]


def test_a_chain_of_ten_thousand_sums():
    table = stream_table()
    engine = Engine()
    xs = [periodic_stream(engine, (), (k,)) for k in (1, 2, 3)]
    h = xs[0]
    for i in range(10_000):
        h = engine.interpret_op(table, table.op("plus"), [xs[(i + 1) % 3], h])
    digit = 1 + sum((i + 1) % 3 + 1 for i in range(10_000))
    assert stream_take(h, 3) == [digit] * 3


def _int_spec(rng):
    return (tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 2))),
            tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3))))


@pytest.mark.parametrize("op, oracle", [
    ("shuffle", "binomial_shuffle"),
    ("conv", "cauchy_convolution"),
])
def test_products_at_two_thousand_digits(op, oracle):
    table = stream_table()
    rng = random.Random(f"sums/{op}")
    for _ in range(2):
        a, b = _int_spec(rng), _int_spec(rng)
        engine = Engine()
        h = engine.interpret_op(table, table.op(op), [
            periodic_stream(engine, *a), periodic_stream(engine, *b)])
        n = 2000
        got = stream_take(h, n)
        xs = [int(v) for v in periodic_values(*a, n)]
        ys = [int(v) for v in periodic_values(*b, n)]
        assert got == oracle_eval(oracle, xs, ys), (a, b)
        size_a, size_b = (len(a[0]) + len(a[1]), len(b[0]) + len(b[1]))
        assert len(engine._nodes) <= \
            n + 8 * size_a * size_b + 2 * (size_a + size_b)


def _tree_graph(rng, prefix, size=4):
    names = [f"{prefix}{i}" for i in range(size)]
    return {n: (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                rng.choice(names), rng.choice(names)) for n in names}


def _tree_handle(engine, graph):
    rhs = {n: Guard(tree_step(label, Var(left), Var(right)))
           for n, (label, left, right) in graph.items()}
    sol = engine.solve(System(TREE, tree_table(), tuple(graph), rhs))
    return sol[next(iter(graph))]


def _nodewise(graphs_and_weights, depth):
    """Observation of the weighted nodewise sum of the roots of ``graphs``,
    whose states map to ``(label, child, ...)``, as nested ``(label,
    child, ...)`` in `Fraction` arithmetic; None is a cut."""
    if depth <= 0:
        return None
    g0, n0, _ = graphs_and_weights[0]
    label = sum(w * g[n][0] for g, n, w in graphs_and_weights)
    return (label,) + tuple(
        _nodewise([(g, g[n][i], w) for g, n, w in graphs_and_weights],
                  depth - 1) for i in range(1, len(g0[n0])))


def _as_tuple(tree):
    if tree.cut:
        return None
    return (tree.label,) + tuple(_as_tuple(c) for _, c in tree.children)


def test_tree_sums_match_the_nodewise_oracle():
    table = tree_table()
    rng = random.Random(11)
    plus = table.op("plus")
    for _ in range(5):
        engine = Engine()
        g, k = _tree_graph(rng, "g"), _tree_graph(rng, "k")
        x, y = _tree_handle(engine, g), _tree_handle(engine, k)
        px, py = Param(x), Param(y)
        h = engine.interpret_term(
            table, mk_app(plus, (mk_app(plus, (px, py)), px)))
        want = _nodewise([(g, "g0", 2), (k, "k0", 1)], 8)
        assert _as_tuple(engine.observe(h, 8)) == want


def _mixed_graph(rng, prefix, ports):
    names = [f"{prefix}{i}" for i in range(rng.randint(1, 4))]
    return {n: (Fraction(rng.randint(-9, 9), rng.randint(1, 7)),)
            + tuple(rng.choice(names) for _ in range(ports))
            for n in names}


@pytest.mark.parametrize("kind, table, step", [
    (STREAM, stream_table, stream_step),
    (TREE, tree_table, tree_step),
])
def test_weighted_sums_with_mixed_denominators_are_exact(kind, table, step):
    table = table()
    rng = random.Random(f"mixed/{kind.name}")
    for i in range(200):
        engine = Engine()
        graphs = [_mixed_graph(rng, f"g{k}_", len(kind.ports))
                  for k in range(rng.randint(1, 4))]
        rhs = {n: Guard(step(label, *map(Var, kids)))
               for g in graphs for n, (label, *kids) in g.items()}
        sol = engine.solve(System(kind, table, tuple(rhs), rhs))
        weights = [rng.randint(1, 10 ** 6) for _ in graphs]
        roots = [next(iter(g)) for g in graphs]
        h = engine._handle(engine._sum_node(
            table, "plus", [(sol[r].node, w) for r, w in zip(roots, weights)]))
        want = _nodewise(list(zip(graphs, roots, weights)), 8)
        assert _as_tuple(engine.observe(h, 8)) == want, i


def _rational_spec(rng):
    def value():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return (tuple(value() for _ in range(rng.randint(0, 2))),
            tuple(value() for _ in range(rng.randint(1, 3))))


@pytest.mark.parametrize("op, oracle", [
    ("shuffle", "binomial_shuffle"),
    ("conv", "cauchy_convolution"),
])
def test_products_of_rational_streams_at_six_hundred_digits(op, oracle):
    table = stream_table()
    rng = random.Random(f"rational/{op}")
    for _ in range(2):
        a, b = _rational_spec(rng), _rational_spec(rng)
        engine = Engine()
        h = engine.interpret_op(table, table.op(op), [
            periodic_stream(engine, *a), periodic_stream(engine, *b)])
        n = 600
        assert stream_take(h, n) == oracle_eval(
            oracle, periodic_values(*a, n), periodic_values(*b, n)), (a, b)


def test_integral_sums_carry_fraction_labels():
    table = stream_table()
    engine = Engine()
    third = periodic_stream(engine, (), (Fraction(1, 3), Fraction(-2, 3)))
    seventh = periodic_stream(engine, (), (Fraction(3, 7),))
    h = engine._sum_node(table, "plus", [(third.node, 3), (seventh.node, 7)])
    labels = stream_take(engine._handle(h), 4)
    assert labels == [4, 1, 4, 1]
    assert all(type(label) is Fraction for label in labels)
    step = engine.node_step(h)
    assert type(step.label) is Fraction and step.label.denominator == 1


def test_bool_labels_key_plans_as_before():
    # the number of plans aⁿbⁿ needs, counted with every label keyed as
    # itself; rational labels are keyed by their integer ratio instead
    engine = Engine()
    sol = engine.solve(compile_gnf(parse_gnf(
        "terminals: a b\nnonterminals: S B\nstart: S\nS -> a S B\n"
        "S -> a B\nB -> b\n")))
    assert sol["S"].kind == language_table("ab").kind
    assert language_member(sol["S"], "a" * 500 + "b" * 500)
    assert len(engine._plans) == 3


def _difference(op, args):
    a, b = args
    return stream_step(a.head - b.head, mk_app(op, (a.tail, b.tail)))


def _left_twice(op, args):
    a, b = args
    return stream_step(a.head + b.head, mk_app(op, (a.tail, a.tail)))


def _sum(op, args):
    a, b = args
    return stream_step(a.head + b.head, mk_app(op, (a.tail, b.tail)))


@pytest.mark.parametrize("plus_rule, law", [
    (_difference, Law(additive=True)),
    (_left_twice, Law(additive=True)),
    (_sum, Law(unit="one", additive=True)),
    (_sum, Law(additive=True, commutative=True)),
])
def test_malformed_additive_laws_are_rejected(plus_rule, law):
    sig = signature(("one", 0), ("plus", 2))

    def one(op, args):
        return stream_step(1, mk_app(op, ()))

    rules = {"one": GsosRule(sig.op("one"), one),
             "plus": GsosRule(sig.op("plus"), plus_rule, law=law)}
    with pytest.raises(ValidationFailed):
        build_table(STREAM, sig, rules.values())
    assert any(v.startswith("rule 'plus'") for v in
               validate_table(RuleTable(STREAM, sig, rules)).violations)


def test_a_directly_built_table_admits_laws_only_once_its_probe_passes():
    sig = signature(("const", 0, True), ("plus", 2))

    def const(op, args):
        return stream_step(op.param, mk_app(sig.op("const", Fraction(0)), ()))

    rules = {"const": GsosRule(sig.template("const"), const, (Fraction(1),)),
             "plus": GsosRule(sig.op("plus"), _difference,
                              law=Law(additive=True))}
    table = RuleTable(STREAM, sig, rules)
    assert table.laws == {}
    engine = Engine()
    five, two = (engine.interpret_op(table, sig.op("const", Fraction(c)), [])
                 for c in (5, 2))
    h = engine.interpret_op(table, sig.op("plus"), [five, two])
    assert stream_take(h, 3) == [3, 0, 0]


def test_additive_law_needs_rational_labels():
    kind = language_table("ab").kind
    sig = signature(("both", 2))

    def both(op, args):
        a, b = args
        return language_step(a.head or b.head,
                             {x: mk_app(op, (a.at(x), b.at(x)))
                              for x in kind.alphabet}, kind.alphabet)

    rule = GsosRule(sig.op("both"), both, law=Law(additive=True))
    with pytest.raises(KindMismatch):
        build_table(kind, sig, [rule])
    table = RuleTable(kind, sig, {"both": rule})
    assert table.laws == {}
    assert any(v.startswith("rule 'both'")
               for v in validate_table(table).violations)


def test_the_sum_tables_declare_the_law():
    assert stream_table().laws["plus"] == Law(additive=True)
    assert tree_table().laws == {"plus": Law(additive=True)}
    assert validate_table(stream_table()).ok
    assert validate_table(tree_table()).ok

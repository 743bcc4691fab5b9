"""The unfold kernel resolves each symbol once per engine.

An engine interns one record per table, symbol and parameter, and every
node and plan of that symbol reads it, so the rule author's symbol is
worked out once per record.  Seeded inputs of every kind build the arena,
plans and hash-cons table they always have, and nodes of different tables
or symbols, or a term and a sum of one table, never share a node."""

import random
import zlib
from fractions import Fraction

import pytest

from test_frontends import _seeded_stream_system
from test_on_demand import _agent_file

from corec.behavior import canonicalize_step
from corec.frontends import parse_bde, parse_ccs, parse_system
from corec.instances import (language_member, language_table,
                             language_term, periodic_stream,
                             random_language_expr, stream_table,
                             stream_take)
from corec.rules import RuleTable
from corec.solver import Engine


def test_each_symbol_is_resolved_once_per_engine(monkeypatch):
    system = parse_system(_seeded_stream_system(2000))
    calls = []
    author_op = RuleTable.author_op

    def counting(self, name, op):
        calls.append((id(self), name, op.param))
        return author_op(self, name, op)

    monkeypatch.setattr(RuleTable, "author_op", counting)
    engine = Engine()
    sol = engine.solve(system)
    for v in system.vars:
        stream_take(sol[v], 4)
    assert calls and len(calls) == len(set(calls))


def test_tables_symbols_terms_and_sums_never_share_a_node():
    engine = Engine()
    base = stream_table()
    wider = parse_bde("kind stream\nf(x): head = head(x); tail = f(tail(x))\n"
                      ).extended_table()
    x = periodic_stream(engine, (1,), (2, 3))
    y = periodic_stream(engine, (), (5,))
    nodes = {(t, name): engine.interpret_op(t, t.op(name), [x, y]).node
             for t in (base, wider) for name in ("zip", "plus", "shuffle")}
    assert len(set(nodes.values())) == 6
    for name in ("zip", "plus", "shuffle"):
        assert engine._nodes[nodes[base, name]].name == name
        assert stream_take(engine._handle(nodes[base, name]), 8) == \
            stream_take(engine._handle(nodes[wider, name]), 8)
    # a term and a sum of one symbol, on the same (empty) children
    plus = engine._nodes[nodes[base, "plus"]].sym
    term, total = engine._cons_term(plus, ()), engine._sum_node(base, "plus",
                                                                [])
    assert (engine._nodes[term].tag, engine._nodes[total].tag) == \
        ("term", "sum")


# -- seeded inputs of every kind keep their arena --------------------------


def _stream(engine):
    system = parse_system(_seeded_stream_system(300, seed=5))
    sol = engine.solve(system)
    seen = [stream_take(sol[v], 6) for v in system.vars]
    # `mult(head(x), …)` takes its parameter from a premise's label
    table = parse_bde(
        "kind stream\n"
        "f(x, y): head = head(x) * head(y); "
        "tail = plus(f(x, tail(y)), mult(head(y), f(tail(x), y)))\n"
    ).extended_table()
    x = periodic_stream(engine, (1, 2), (Fraction(1, 3), -2))
    y = periodic_stream(engine, (3,), (Fraction(-1, 2), 1))
    seen.append(stream_take(
        engine.interpret_op(table, table.op("f"), [x, y]), 12))
    return seen


def _tree_text(n, seed):
    rng = random.Random(seed)

    def term(depth):
        pick = rng.random()
        if depth <= 0 or pick < 0.4:
            return f"n{rng.randrange(n)}"
        if pick < 0.6:
            return rng.choice(("pi", "1/2", "-3"))
        return f"plus({term(depth - 1)}, {term(depth - 1)})"

    return "kind tree\n" + "".join(
        f"n{i} = {rng.randint(-3, 3)}/{rng.randint(1, 3)} . "
        f"({term(2)}, {term(2)})\n" for i in range(n))


def _tree(engine):
    system = parse_system(_tree_text(120, seed=7))
    sol = engine.solve(system)
    return [engine.observe(sol[v], 4) for v in system.vars]


def _language(engine):
    rng = random.Random(11)
    table = language_table("ab")
    words = ["", "a", "b", "ab", "ba", "aab", "abba", "babab"]
    seen = []
    for _ in range(60):
        h = engine.interpret_term(table, language_term(
            table, random_language_expr(rng, "ab", 4)))
        seen.append([language_member(h, w) for w in words])
        seen.append(engine.observe(h, 4))
    sol = engine.solve(parse_system(
        "kind language ab\nx = 1 . (concat(y, x), prefix(b, x))\n"
        "y = 0 . (star(char(b)), union(x, y))\n"))
    seen += [engine.observe(sol[v], 5) for v in ("x", "y")]
    return seen


def _process(engine):
    text, _ = _agent_file(4, n=20)
    system = parse_ccs(text)
    sol = engine.solve(system)
    return [engine.observe(sol[v], 4) for v in system.vars]


# What the engine built for each input before symbols were interned:
# crc32 of the observations' repr, then len(_nodes), len(_plans) and
# len(_cons).
PINS = {
    "stream": (_stream, (3_024_201_388, 1_514, 10, 1_207)),
    "tree": (_tree, (265_863_653, 1_320, 4, 1_200)),
    "language": (_language, (2_618_702_535, 361, 21, 359)),
    "process": (_process, (4_110_850_962, 1_710, 174, 1_670)),
}


@pytest.mark.parametrize("kind", sorted(PINS))
def test_seeded_inputs_keep_their_arena(kind):
    build, want = PINS[kind]
    engine = Engine()
    seen = build(engine)
    assert (zlib.crc32(repr(seen).encode()), len(engine._nodes),
            len(engine._plans), len(engine._cons)) == want


# -- the objects the kernel keeps -------------------------------------------


@pytest.mark.parametrize("kind", sorted(PINS))
def test_memoized_steps_keep_their_representation(kind, monkeypatch):
    """Every node within six steps of a handle that a `PINS` input made,
    read only through `Engine.node_step`: a deterministic step's children
    are a tuple of ``(port, node id)`` pairs on the kind's ports in order,
    a process step is canonical, and a node's step is one object."""
    roots = []
    for name in ("solve", "interpret_op", "interpret_term"):
        def kept(*args, _call=getattr(Engine, name), **kwargs):
            out = _call(*args, **kwargs)
            roots.extend(out.values() if isinstance(out, dict) else [out])
            return out
        monkeypatch.setattr(Engine, name, kept)
    engine = Engine()
    PINS[kind][0](engine)
    assert roots
    seen = {h.node: h.kind for h in roots}
    level = list(seen)
    for _ in range(6):
        following = []
        for n in level:
            step, of = engine.node_step(n), seen[n]
            assert engine.node_step(n) is step
            assert step.children.__class__ is tuple
            assert all(pair.__class__ is tuple and len(pair) == 2
                       and pair[1].__class__ is int for pair in step.children)
            if of.deterministic:
                assert tuple([p for p, _ in step.children]) == \
                    tuple(of.ports)
            else:
                assert step == canonicalize_step(of, step)
            for _, c in step.children:
                if c not in seen:
                    seen[c] = of
                    following.append(c)
        level = following
    assert len(seen) > 100

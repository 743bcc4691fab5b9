"""BDE programs and circuits compiled into conclusions on symbolic premises:
deep circuits compile without recursion, random circuits agree with a
synchronous simulator, register-free loops are reported along their edges,
and initial values agree with the same arithmetic on Fractions."""

import json
import random
import sys
from fractions import Fraction

import pytest

from corec import Engine
from corec.errors import InvalidCircuit
from corec.frontends import (compile_circuit, load_circuit, parse_bde,
                             parse_system)
from corec.instances import periodic_stream, periodic_values, stream_take
from corec.rules import validate_table


def _value(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_circuit(rng, loops=0):
    """A circuit over 1-3 inputs with up to ten adders, copiers, mults and
    registers, as a JSON-ready dict.  Every edge into a non-register comes
    from an older node, so each loop passes through a register, except the
    ``loops`` register-free ones added on purpose: adder -> mults ->
    copier -> back into the adder."""
    nodes, edges, pool, pending = [], [], [], []

    def add(kind, value=None):
        nodes.append({"id": f"n{len(nodes)}", "kind": kind})
        if value is not None:
            nodes[-1]["value"] = str(value)
        return nodes[-1]["id"]

    def take():
        return pool.pop(rng.randrange(len(pool)))

    def copier():
        c = add("copier")
        edges.append([take(), c])
        pool.extend([c, c])

    for _ in range(rng.randint(1, 3)):
        pool.append(add("input"))
    steps = ["op"] * rng.randint(0, 10) + ["loop"] * loops
    rng.shuffle(steps)
    for step in steps:
        op = rng.choice(["mult", "adder", "copier", "register"])
        if step == "loop":
            a = add("adder")
            edges.append([take(), a])
            port = a
            for _ in range(rng.randint(0, 2)):
                m = add("mult", _value(rng))
                edges.append([port, m])
                port = m
            c = add("copier")
            edges.extend([[port, c], [c, a]])
            pool.append(c)
        elif op == "register":
            r = add("register", _value(rng))
            pending.append(r)
            pool.append(r)
        elif op == "adder" and len(pool) > 1:
            a = add("adder")
            edges.extend([[take(), a], [take(), a]])
            pool.append(a)
        elif op == "copier":
            copier()
        else:
            m = add("mult", _value(rng))
            edges.append([take(), m])
            pool.append(m)
    for r in pending:
        if len(pool) < 2:
            copier()
        edges.append([take(), r])
    for p in pool:
        edges.append([p, add("output")])
    return {"nodes": nodes, "edges": edges}


def simulate(circuit, feeds, n):
    """Each output's first ``n`` values, one synchronous step at a time:
    the non-registers are valued in the order they were made, from the
    inputs' values and the registers' state, and then every register takes
    its input's value."""
    nodes = {x["id"]: x for x in circuit["nodes"]}
    into = {}
    for src, dst in circuit["edges"]:
        into.setdefault(dst, []).append(src)
    state = {i: Fraction(x["value"]) for i, x in nodes.items()
             if x["kind"] == "register"}
    out = {i: [] for i, x in nodes.items() if x["kind"] == "output"}
    for t in range(n):
        val = dict(state)
        for i, x in nodes.items():
            kind, args = x["kind"], [val.get(s) for s in into.get(i, ())]
            if kind == "input":
                val[i] = feeds[i][t]
            elif kind == "mult":
                val[i] = Fraction(x["value"]) * args[0]
            elif kind == "adder":
                val[i] = args[0] + args[1]
            elif kind != "register":
                val[i] = args[0]
        for i, values in out.items():
            values.append(val[i])
        state = {r: val[into[r][0]] for r in state}
    return out


def test_a_chain_of_10000_multipliers_compiles_under_the_default_limit():
    assert sys.getrecursionlimit() <= 1000
    ids = ["x", *(f"m{k}" for k in range(10_000)), "o"]
    chain = {
        "nodes": [{"id": "x", "kind": "input"}, {"id": "o", "kind": "output"}]
        + [{"id": m, "kind": "mult", "value": "2" if k % 2 else "1/2"}
           for k, m in enumerate(ids[1:-1])],
        "edges": [list(pair) for pair in zip(ids, ids[1:])],
    }
    table = compile_circuit(load_circuit(json.dumps(chain))).table()
    assert table.validation().ok and validate_table(table).ok


@pytest.mark.parametrize("seed", range(4))
def test_random_circuits_agree_with_a_synchronous_simulator(seed):
    rng = random.Random(seed)
    for _ in range(50):
        circuit = random_circuit(rng)
        compiled = compile_circuit(load_circuit(json.dumps(circuit)))
        table = compiled.table()
        assert validate_table(table).ok
        specs = {i: (tuple(_value(rng) for _ in range(rng.randint(0, 2))),
                     tuple(_value(rng) for _ in range(rng.randint(1, 3))))
                 for i in compiled.inputs}
        want = simulate(circuit, {i: periodic_values(*spec, 40)
                                  for i, spec in specs.items()}, 40)
        engine = Engine()
        feeds = {i: periodic_stream(engine, *spec)
                 for i, spec in specs.items()}
        for symbol, node_id, input_ids in compiled.outputs:
            h = engine.interpret_op(table, table.op(symbol),
                                    [feeds[i] for i in input_ids])
            assert stream_take(h, 40) == want[node_id], (circuit, node_id)


def _circuit(nodes, edges):
    return {"nodes": [dict(zip(("id", "kind", "value"), n)) for n in nodes],
            "edges": [list(e) for e in edges]}


@pytest.mark.parametrize("circuit, want", [
    # x - x: a wire whose coefficient cancels to 0
    (_circuit([("x", "input"), ("c", "copier"), ("m", "mult", "-1"),
               ("a", "adder"), ("o", "output")],
              [("x", "c"), ("c", "a"), ("c", "m"), ("m", "a"), ("a", "o")]),
     [0] * 5),
    # an output read straight off a register
    (_circuit([("x", "input"), ("r", "register", "7"), ("o", "output")],
              [("x", "r"), ("r", "o")]),
     [7, 1, 2, -3, 2]),
    # no inputs: a register doubling its own value
    (_circuit([("r", "register", "3"), ("c", "copier"), ("m", "mult", "2"),
               ("o", "output")],
              [("r", "c"), ("c", "m"), ("m", "r"), ("c", "o")]),
     [3, 6, 12, 24, 48]),
], ids=["cancelling-copier", "register-output", "no-inputs"])
def test_linear_form_edge_cases_agree_with_the_simulator(circuit, want):
    compiled = compile_circuit(load_circuit(json.dumps(circuit)))
    spec = ((1,), (2, -3))
    assert simulate(circuit, {i: periodic_values(*spec, 5)
                              for i in compiled.inputs}, 5) == {"o": want}
    engine, table = Engine(), compiled.table()
    (symbol, _, input_ids), = compiled.outputs
    h = engine.interpret_op(table, table.op(symbol), [
        periodic_stream(engine, *spec) for _ in input_ids])
    assert stream_take(h, 5) == want


def test_random_register_free_loops_are_reported_along_their_edges():
    rng = random.Random(7)
    for _ in range(100):
        circuit = random_circuit(rng, loops=rng.randint(1, 2))
        kinds = {x["id"]: x["kind"] for x in circuit["nodes"]}
        edges = {tuple(e) for e in circuit["edges"]}
        with pytest.raises(InvalidCircuit) as err:
            compile_circuit(load_circuit(json.dumps(circuit)))
        loop = err.value.loop
        assert len(loop) > 1 and loop[0] == loop[-1], loop
        assert all(pair in edges for pair in zip(loop, loop[1:])), loop
        assert all(kinds[n] != "register" for n in loop), loop


def test_the_loop_witness_follows_the_edges():
    circuit = {
        "nodes": [{"id": "i", "kind": "input"}, {"id": "a", "kind": "adder"},
                  {"id": "m", "kind": "mult", "value": "2"},
                  {"id": "cp", "kind": "copier"},
                  {"id": "o", "kind": "output"}],
        "edges": [["i", "a"], ["a", "m"], ["m", "cp"], ["cp", "a"],
                  ["cp", "o"]],
    }
    with pytest.raises(InvalidCircuit) as err:
        compile_circuit(load_circuit(json.dumps(circuit)))
    assert err.value.loop == ["a", "m", "cp", "a"]
    assert str(err.value) == "register-free loop through a -> m -> cp -> a"


def _random_initial_value(rng, heads, depth):
    """An initial-value expression over ``+``, ``*``, parentheses,
    rationals and ``head(x_k)``, parenthesized where precedence needs it and
    at random elsewhere, and its value at the argument ``heads``."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            k = rng.randrange(len(heads))
            return f"head(x{k})", heads[k], "atom"
        if rng.random() < 0.3:
            cents = rng.randint(-250, 250)
            text = f"{'-' if cents < 0 else ''}{abs(cents) // 100}." \
                f"{abs(cents) % 100:02d}"
            return text, Fraction(cents, 100), "atom"
        r = _value(rng)
        return str(r), r, "atom"
    op = rng.choice("+*")
    a, av, at = _random_initial_value(rng, heads, depth - 1)
    b, bv, bt = _random_initial_value(rng, heads, depth - 1)
    if op == "*" and at == "+" or rng.random() < 0.2:
        a = f"({a})"
    if op == "*" and bt == "+" or op == "+" and bt == "+" or \
            rng.random() < 0.2:
        b = f"({b})"
    return f"{a} {op} {b}", av + bv if op == "+" else av * bv, op


def test_random_initial_values_are_their_arithmetic_on_fractions():
    rng = random.Random(11)
    for _ in range(200):
        heads = [_value(rng) for _ in range(3)]
        text, want, _ = _random_initial_value(rng, heads, rng.randint(0, 4))
        program = parse_bde(f"kind stream\nf(x0, x1, x2): head = {text}; "
                            "tail = plus(x0, tail(x2))\n")
        table = program.extended_table()
        engine = Engine()
        args = [periodic_stream(engine, (h,), (1,)) for h in heads]
        h = engine.interpret_op(table, table.op("f"), args)
        assert engine.unfold(h).label == want, text


def test_an_initial_value_of_5000_terms_runs_under_the_default_limit():
    assert sys.getrecursionlimit() <= 1000
    program = parse_bde("kind stream\nf(x): head = head(x)" + " + 1" * 5000
                        + " * 2 * head(x); tail = x\n")
    table = program.extended_table()
    engine = Engine()
    h = engine.interpret_op(table, table.op("f"),
                            [periodic_stream(engine, (3,), (1,))])
    assert stream_take(h, 2) == [3 + 4999 + 2 * 3, 3]


def test_a_numeral_and_a_head_read_in_a_clause_are_constants():
    # `2` and `head(x)` in a clause are `const`: [c] = c, 0, 0, ...
    program = parse_bde("kind stream\nf(x): head = 0; "
                        "tail = plus(head(x), plus(2, tail(x)))\n")
    table = program.extended_table()
    engine = Engine()

    def run(pre, cyc, n):
        x = periodic_stream(engine, pre, cyc)
        return stream_take(engine.interpret_op(table, table.op("f"), [x]), n)

    assert run((5, 7, 11, 13), (0,), 6) == [0, 14, 11, 13, 0, 0]
    rng = random.Random(23)
    for _ in range(30):
        pre = [_value(rng) for _ in range(rng.randint(0, 3))]
        cyc = [_value(rng) for _ in range(rng.randint(1, 3))]
        n = rng.randint(1, 12)
        x = periodic_values(pre, cyc, n)
        want = [Fraction(0)] + [x[k + 1] + (x[0] + 2 if k == 0 else 0)
                                for k in range(n - 1)]
        assert run(pre, cyc, n) == want, (pre, cyc)


def _tree_observation(tree):
    """An observation tree as nested ``(label, left, right)``; None a cut."""
    if tree.cut:
        return None
    kids = dict(tree.children)
    return (tree.label, _tree_observation(kids["L"]),
            _tree_observation(kids["R"]))


def test_a_root_read_in_a_tree_clause_is_a_constant():
    # f(x) keeps x's root and right subtree and adds const(root(x)) to its
    # left subtree, which raises only the left child's label
    program = parse_bde("kind tree\nf(x): root = root(x); "
                        "left = plus(root(x), left(x)); right = right(x)\n")
    table = program.extended_table()
    rng = random.Random(29)
    for _ in range(20):
        names = [f"n{i}" for i in range(rng.randint(1, 4))]
        graph = {n: (_value(rng), rng.choice(names), rng.choice(names))
                 for n in names}

        def observe(name, depth, add=Fraction(0)):
            if depth == 0:
                return None
            label, left, right = graph[name]
            return (label + add, observe(left, depth - 1),
                    observe(right, depth - 1))

        engine = Engine()
        sol = engine.solve(parse_system("kind tree\n" + "".join(
            f"{n} = {label} . ({left}, {right})\n"
            for n, (label, left, right) in graph.items())))
        h = engine.interpret_op(table, table.op("f"), [sol[names[0]]])
        label, left, right = graph[names[0]]
        want = (label, observe(left, 3, label), observe(right, 3))
        assert _tree_observation(engine.observe(h, 4)) == want, graph

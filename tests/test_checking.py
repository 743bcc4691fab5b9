import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import (
    agent_handle,
    flat_tm_system,
    milner_system,
    sandwiched_tm_system,
)

from corec.behavior import TREE, stream_step
from corec.checking import (
    CheckReport,
    Witness,
    _Simulation,
    bounded_equal,
    diagram_check,
    find_divergence,
    run_suite,
    suite_names,
)
from corec.errors import InvalidHandle, KindMismatch, UnknownSuite
from corec.frontends import parse_ccs, parse_system
from corec.instances import (
    DEFAULT_ACTIONS,
    ccs_table,
    language_table,
    periodic_stream,
    random_agent,
    stream_table,
)
from corec.solver import Engine, SolutionHandle


@pytest.fixture()
def engine():
    return Engine()


def test_reflexivity(engine):
    h = periodic_stream(engine, (1, 2), (3,))
    for d in (0, 1, 5, 40):
        assert bounded_equal(h, h, d)


def test_stream_divergence_at_the_root(engine):
    table = stream_table()
    p1 = periodic_stream(engine, (1,), (5,))
    p2 = periodic_stream(engine, (2,), (5,))
    assert not bounded_equal(p1, p2, 1)
    w = find_divergence(p1, p2, 1)
    assert w is not None and w.depth == 0 and w.path == ()


def test_divergence_witness_is_minimal(engine):
    a = periodic_stream(engine, (1, 1, 1, 9), (0,))
    b = periodic_stream(engine, (1, 1, 1, 8), (0,))
    assert bounded_equal(a, b, 3)
    assert not bounded_equal(a, b, 4)
    w = find_divergence(a, b, 10)
    assert w.depth == 3
    assert w.path == ("tail",) * 3


def test_bounded_equal_antitone(engine):
    rng = random.Random(17)
    for _ in range(20):
        a = periodic_stream(
            engine,
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))),
            tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3))))
        b = periodic_stream(
            engine,
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))),
            tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3))))
        for d in range(5):
            if bounded_equal(a, b, d + 1):
                assert bounded_equal(a, b, d)


def test_bounded_equal_is_an_equivalence_on_samples(engine):
    rng = random.Random(19)
    table = ccs_table(DEFAULT_ACTIONS)
    agents = [agent_handle(engine, table, random_agent(rng, table.kind, 2))
              for _ in range(8)]
    for a in agents:
        assert bounded_equal(a, a, 4)
    for a in agents:
        for b in agents:
            assert bounded_equal(a, b, 4) == bounded_equal(b, a, 4)
    for a in agents:
        for b in agents:
            for c in agents:
                if bounded_equal(a, b, 4) and bounded_equal(b, c, 4):
                    assert bounded_equal(a, c, 4)


def test_process_sum_commutes(engine):
    rng = random.Random(31)
    table = ccs_table(DEFAULT_ACTIONS)
    for _ in range(10):
        x = random_agent(rng, table.kind, 2)
        y = random_agent(rng, table.kind, 2)
        assert bounded_equal(agent_handle(engine, table, ("sum", (x, y))),
                             agent_handle(engine, table, ("sum", (y, x))), 4)


def test_kind_mismatch(engine):
    from corec.instances import language_term

    s = periodic_stream(engine, (), (1,))
    table = language_table("ab")
    lang = engine.interpret_term(table, language_term(table, ("eps",)))
    with pytest.raises(KindMismatch):
        bounded_equal(s, lang, 3)


def test_diagram_check_passes_for_solved_fixtures(engine):
    for system, depth in ((sandwiched_tm_system(), 8),
                          (milner_system(), 4)):
        sol = engine.solve(system)
        report = diagram_check(system, sol, depth)
        assert report.passed, report.to_text()


def test_diagram_check_catches_a_corrupted_memo(engine):
    system = flat_tm_system()
    sol = engine.solve(system)
    engine.observe(sol["t"], 4)
    node = sol["t"].node
    good = engine._memo[node]
    engine._memo[node] = stream_step(42, good.children[0][1])
    report = diagram_check(system, sol, 4)
    assert not report.passed
    assert report.witness is not None
    assert report.witness.depth == 0


def test_reports_serialize(engine):
    system = flat_tm_system()
    sol = engine.solve(system)
    report = diagram_check(system, sol, 4)
    assert report.to_text().startswith("PASS")
    blob = report.to_json()
    assert blob["passed"] is True


def test_run_suite_modularity():
    reports = run_suite("modularity", seed=1)
    assert len(reports) == 5
    assert all(r.passed for r in reports), [r.to_text() for r in reports]


def test_run_suite_language_laws():
    reports = run_suite("language-laws", seed=1)
    assert all(r.passed for r in reports)


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("unknown")


def test_suite_names_exposed():
    assert set(suite_names()) == {"modularity", "language-laws"}


_digits = st.lists(st.integers(min_value=-2, max_value=2), max_size=3)
_cycles = st.lists(st.integers(min_value=-2, max_value=2), min_size=1,
                   max_size=3)


@given(_digits, _cycles, _digits, _cycles, st.integers(min_value=0, max_value=5))
def test_equal_at_deeper_depth_implies_equal_shallower(p1, c1, p2, c2, d):
    engine = Engine()
    a = periodic_stream(engine, p1, c1)
    b = periodic_stream(engine, p2, c2)
    if bounded_equal(a, b, d + 1):
        assert bounded_equal(a, b, d)
    if not bounded_equal(a, b, d):
        assert not bounded_equal(a, b, d + 1)


@given(_digits, _cycles, _digits, _cycles)
def test_stream_addition_commutes_behaviorally(p1, c1, p2, c2):
    engine = Engine()
    table = stream_table()
    a = periodic_stream(engine, p1, c1)
    b = periodic_stream(engine, p2, c2)
    left = engine.interpret_op(table, table.op("plus"), [a, b])
    right = engine.interpret_op(table, table.op("plus"), [b, a])
    assert bounded_equal(left, right, 8)


def test_solutions_are_deterministic_across_engines():
    one, two = Engine(), Engine()
    for system in (flat_tm_system(), sandwiched_tm_system(), milner_system()):
        sol1 = one.solve(system)
        sol2 = two.solve(system)
        for v in system.vars:
            assert one.observe(sol1[v], 5) == two.observe(sol2[v], 5)


# --- the pair walker ---------------------------------------------------------


def _tree_text(*graphs):
    """System text of tree graphs ``{name: (label, left, right)}``."""
    return "kind tree\n" + "".join(
        f"{name} = {label} . ({left}, {right})\n"
        for graph in graphs for name, (label, left, right) in graph.items())


def _random_tree_graph(rng, prefix):
    names = [f"{prefix}{i}" for i in range(rng.randint(1, 4))]
    return {n: (rng.randint(0, 1), rng.choice(names), rng.choice(names))
            for n in names}


def _reference_divergence(g1, r1, g2, r2, depth):
    """First label mismatch over all paths, by length, then in port order."""
    for n in range(depth):
        for path in itertools.product("LR", repeat=n):
            x, y = r1, r2
            for port in path:
                x = g1[x][1 if port == "L" else 2]
                y = g2[y][1 if port == "L" else 2]
            if g1[x][0] != g2[y][0]:
                return Witness(n, path, f"label {Fraction(g1[x][0])} != "
                                        f"{Fraction(g2[y][0])}")
    return None


def test_bounded_equal_runs_deep_without_recursion_error():
    sol = Engine().solve(parse_system(
        "kind stream\na = 1 . b\nb = 2 . a\n"
        "p = 1 . q\nq = 2 . r\nr = 1 . s\ns = 2 . p\n"))
    assert bounded_equal(sol["a"], sol["p"], 5000)


def test_process_simulation_runs_deep_without_recursion_error():
    assert sys.getrecursionlimit() <= 1000
    sol = Engine().solve(parse_ccs("P = a.P + b.0\nQ = b.0 + a.Q\n"
                                   "R = a.R + c.0\n"))
    assert bounded_equal(sol["P"], sol["Q"], 5000)
    assert find_divergence(sol["P"], sol["R"], 5000) == \
        Witness(0, (("b", 0),), "left move 'b' has no depth-0 match")


def test_deep_process_witness_is_found_by_binary_search():
    # the least refuting depth is found by doubling and halving, not by
    # deepening one level at a time, which took quadratic time here
    n = 2000
    sol = Engine().solve(parse_ccs(
        "P = a.P\n" + "".join(f"Q{i} = a.Q{i + 1}\n" for i in range(n))
        + f"Q{n} = b.0\n"))
    assert find_divergence(sol["P"], sol["Q0"], n + 5) == \
        Witness(0, (("a", 0),), f"left move 'a' has no depth-{n} match")


def _counting_node_step(monkeypatch):
    calls = []
    node_step = Engine.node_step

    def counted(self, nid):
        calls.append(nid)
        return node_step(self, nid)

    monkeypatch.setattr(Engine, "node_step", counted)
    return calls


def test_process_verdict_costs_one_full_depth_simulation(monkeypatch):
    n = 50
    engine = Engine()
    sol = engine.solve(parse_ccs(
        "P = a.P\n" + "".join(f"Q{i} = a.Q{i + 1}\n" for i in range(n))
        + f"Q{n} = b.0\n"))
    p, q = sol["P"], sol["Q0"]
    calls = _counting_node_step(monkeypatch)
    sim = _Simulation(engine, engine)
    assert sim.known(p.node, q.node, n + 5) is None
    assert sim.unmatched(p.node, q.node, n + 5) is not None
    one_simulation = len(calls)
    del calls[:]
    assert not bounded_equal(p, q, n + 5)
    assert len(calls) <= one_simulation
    del calls[:]
    assert find_divergence(p, q, n + 5) is not None
    # the witness search deepens over the same memo, so it costs more
    assert len(calls) > one_simulation


def test_process_verdict_agrees_with_the_witness_search():
    rng = random.Random(23)
    table = ccs_table(DEFAULT_ACTIONS)
    refuted = 0
    for _ in range(200):
        engine = Engine()
        x, y = (agent_handle(engine, table, random_agent(rng, table.kind, 3))
                for _ in range(2))
        depth = rng.randint(0, 5)
        same = bounded_equal(x, y, depth)
        assert same == (find_divergence(x, y, depth) is None)
        refuted += not same
    assert 0 < refuted < 200


def test_tree_search_visits_each_state_pair_once(monkeypatch):
    engine = Engine()
    sol = engine.solve(parse_system(_tree_text(
        {"x": (1, "y", "x"), "y": (1, "x", "y"), "u": (1, "u", "u")})))
    calls = _counting_node_step(monkeypatch)
    assert find_divergence(sol["x"], sol["u"], 60) is None
    # two left states against one right state: at most two pairs
    assert len(calls) <= 2 * 2


def test_tree_witness_matches_brute_force_reference():
    rng = random.Random(7)
    for i in range(120):
        g1 = _random_tree_graph(rng, "a")
        if i % 2:
            g2 = _random_tree_graph(rng, "b")
        else:  # a copy with one label changed
            g2 = {"b" + n[1:]: (label, "b" + left[1:], "b" + right[1:])
                  for n, (label, left, right) in g1.items()}
            name = rng.choice(sorted(g2))
            label, left, right = g2[name]
            g2[name] = (1 - label, left, right)
        sol = Engine().solve(parse_system(_tree_text(g1, g2)))
        want = _reference_divergence(g1, "a0", g2, "b0", 6)
        assert find_divergence(sol["a0"], sol["b0"], 6) == want
        assert bounded_equal(sol["a0"], sol["b0"], 6) == (want is None)


def test_handles_of_two_engines_compare_like_one_engine():
    graph = {"x": (1, "y", "x"), "y": (0, "x", "z"), "z": (0, "z", "x"),
             "w": (1, "z", "w")}
    text = _tree_text(graph)
    one, two = Engine(), Engine()
    sol1, sol2 = one.solve(parse_system(text)), two.solve(parse_system(text))
    for a, b in itertools.product(graph, repeat=2):
        assert find_divergence(sol1[a], sol2[b], 8) == \
            find_divergence(sol1[a], sol1[b], 8)
    assert find_divergence(sol1["x"], sol2["w"], 8) is not None
    table = ccs_table(DEFAULT_ACTIONS)
    rng = random.Random(3)
    for _ in range(10):
        x = random_agent(rng, table.kind, 2)
        y = random_agent(rng, table.kind, 2)
        assert find_divergence(agent_handle(one, table, x),
                               agent_handle(two, table, y), 4) == \
            find_divergence(agent_handle(one, table, x),
                            agent_handle(one, table, y), 4)
    stale = SolutionHandle(one, 10 ** 6, TREE)
    with pytest.raises(InvalidHandle):
        find_divergence(sol1["x"], stale, 3)
    with pytest.raises(InvalidHandle):
        bounded_equal(stale, stale, 3)


def _leaf_prefixes_renamed(ast, action):
    """``ast`` with every prefix of the form `x.0` turned into `action.0`."""
    tag = ast[0]
    if tag == "pref":
        if ast[2] == ("sum", ()):
            return ("pref", action, ast[2])
        return ("pref", ast[1], _leaf_prefixes_renamed(ast[2], action))
    if tag == "sum":
        return ("sum", tuple(_leaf_prefixes_renamed(a, action)
                             for a in ast[1]))
    if tag == "restrict":
        return ("restrict", ast[1], _leaf_prefixes_renamed(ast[2], action))
    return (tag, _leaf_prefixes_renamed(ast[1], action),
            _leaf_prefixes_renamed(ast[2], action))


def test_process_witness_is_pinned(engine):
    table = ccs_table(DEFAULT_ACTIONS)
    agent = random_agent(random.Random(1), table.kind, 3)
    mutant = _leaf_prefixes_renamed(agent, "a")
    w = find_divergence(agent_handle(engine, table, agent),
                        agent_handle(engine, table, mutant), 5)
    assert w == Witness(0, (("c", 0),), "left move 'c' has no depth-3 match")


def test_a_failing_report_prints_its_witness(engine):
    sol = engine.solve(parse_system(
        "kind tree\nu = 1 . (v, u)\nv = 1 . (u, w)\nw = 2 . (w, w)\n"))
    report = CheckReport("trees", False, find_divergence(sol["u"], sol["v"], 5),
                         "u against v")
    assert report.to_text() == \
        "FAIL trees [depth 1, path ['R']: label 1 != 2] (u against v)"
    assert report.to_json() == {
        "name": "trees", "passed": False, "detail": "u against v",
        "witness": {"depth": 1, "path": ["R"], "detail": "label 1 != 2"}}

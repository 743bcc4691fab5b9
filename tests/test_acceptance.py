"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact equality throughout (rationals are exact and
process steps compare by depth-bounded mutual simulation at the stated
depths).
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    agent_handle,
    flat_tm_system,
    flat_tm_values,
    milner_system,
    sandwiched_tm_system,
    sos_agree,
)

from corec.behavior import STREAM, is_prefix, stream_step
from corec.checking import bounded_equal, diagram_check, run_suite
from corec.errors import InvalidCircuit
from corec.frontends import compile_circuit, compile_gnf, load_circuit, parse_gnf
from corec.instances import (
    DEFAULT_ACTIONS,
    ccs_table,
    language_member,
    language_table,
    language_term,
    oracle_eval,
    periodic_stream,
    periodic_values,
    random_agent,
    random_language_expr,
    random_periodic_spec,
    stream_base_table,
    stream_table,
    stream_take,
)
from corec.rules import GsosRule, RpsDef, extend_with_rps
from corec.solver import Engine, System
from corec.terms import Guard, Param, Var, mk_app, sig_sum, signature


def _verdict(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture()
def engine():
    return Engine()


def test_criterion_01_thue_morse_sandwiched(engine):
    sol = engine.solve(sandwiched_tm_system())
    got = stream_take(sol["u"], 32)
    want = [Fraction(oracle_eval("thue_morse", i)) for i in range(32)]
    _verdict(1, got == want,
             "sandwiched system solves to the parity-of-ones stream, "
             "32 digits exact")


def test_criterion_02_flat_variant(engine):
    sol = engine.solve(flat_tm_system())
    want_u, want_t = flat_tm_values(16)
    prefix_ok = (stream_take(sol["u"], 16) == want_u
                 and stream_take(sol["t"], 16) == want_t)
    tm = engine.solve(sandwiched_tm_system())
    differs = not bounded_equal(sol["u"], tm["u"], 4)
    _verdict(2, prefix_ok and differs,
             "flat system matches 16 hand-iterated steps and differs from "
             "criterion 1 within depth 4")


def _random_pair_check(engine, opname, oracle, count=20, prefix=12, seed=12):
    table = stream_table()
    rng = random.Random(seed)
    for _ in range(count):
        spec_a = random_periodic_spec(rng)
        spec_b = random_periodic_spec(rng)
        a = periodic_stream(engine, *spec_a)
        b = periodic_stream(engine, *spec_b)
        got = stream_take(engine.interpret_op(table, table.op(opname),
                                              [a, b]), prefix)
        want = oracle_eval(oracle,
                           periodic_values(*spec_a, prefix),
                           periodic_values(*spec_b, prefix))
        if got != want:
            return False
    return True


def test_criterion_03_shuffle(engine):
    ok = _random_pair_check(engine, "shuffle", "binomial_shuffle")
    _verdict(3, ok, "shuffle equals the binomial-convolution oracle on 20 "
                    "random pairs, prefix 12, exact")


def test_criterion_04_convolution(engine):
    ok = _random_pair_check(engine, "conv", "cauchy_convolution", seed=13)
    _verdict(4, ok, "convolution equals the polynomial-multiplication "
                    "oracle on 20 random pairs, prefix 12, exact")


_CIRCUIT = {
    "nodes": [
        {"id": "sigma", "kind": "input"},
        {"id": "add", "kind": "adder"},
        {"id": "cp", "kind": "copier"},
        {"id": "reg", "kind": "register", "value": "1"},
        {"id": "out", "kind": "output"},
    ],
    "edges": [["sigma", "add"], ["reg", "add"], ["add", "cp"],
              ["cp", "out"], ["cp", "reg"]],
}

_BAD_CIRCUIT = {
    "nodes": [
        {"id": "i", "kind": "input"},
        {"id": "add", "kind": "adder"},
        {"id": "cp", "kind": "copier"},
        {"id": "o", "kind": "output"},
    ],
    "edges": [["i", "add"], ["cp", "add"], ["add", "cp"], ["cp", "o"]],
}


def test_criterion_05_circuit(engine):
    import json

    compiled = compile_circuit(load_circuit(json.dumps(_CIRCUIT)))
    table = compiled.table()
    ones = periodic_stream(engine, (), (1,))
    f = engine.interpret_op(table, table.op("f_out"), [ones])
    values_ok = stream_take(f, 10) == [Fraction(n) for n in range(2, 12)]
    try:
        compile_circuit(load_circuit(json.dumps(_BAD_CIRCUIT)))
        rejected = False
    except InvalidCircuit as exc:
        rejected = exc.loop is not None
    _verdict(5, values_ok and rejected,
             "compiled circuit gives 2..11 on ones; register-free loop "
             "rejected with a loop witness")


def _zip_fix_table():
    base = stream_base_table()
    new = signature(("fix", 1))
    s = sig_sum(base.sig, new)

    def fix_rule(op, args):
        (a,) = args
        return stream_step(a.head, mk_app(s.op("zip"), (
            mk_app(s.op("fix"), (a.self_term,)), a.tail)))

    return extend_with_rps(base, RpsDef(new, {
        "fix": GsosRule(s.op("fix"), fix_rule)}))


def test_criterion_06_zip_fixpoint(engine):
    table = _zip_fix_table()
    rng = random.Random(21)
    ok = True
    for i in range(20):
        spec = random_periodic_spec(rng)
        sigma = periodic_stream(engine, *spec)
        f = engine.interpret_op(table, table.op("fix"), [sigma])
        got = stream_take(f, 16)
        want = oracle_eval("zip_fixpoint", periodic_values(*spec, 16), 16)
        head_law = got[0] == periodic_values(*spec, 1)[0]
        ok = ok and got == want and head_law
    _verdict(6, ok, "fix matches the interleaving recurrence to prefix 16 "
                    "and keeps its argument's head on 20 random streams")


def test_criterion_07_languages(engine):
    table = language_table("ab")
    rng = random.Random(33)
    words = ["".join(w) for n in range(7)
             for w in itertools.product("ab", repeat=n)]
    assert len(words) == 127
    member_ok = True
    for _ in range(50):
        expr = random_language_expr(rng, "ab", 4)
        h = engine.interpret_term(table, language_term(table, expr))
        for w in words:
            if language_member(h, w) != oracle_eval("word_membership", expr,
                                                    w, ("a", "b")):
                member_ok = False
                break
        if not member_ok:
            break
    star_ok = True
    for _ in range(20):
        expr = random_language_expr(rng, "ab", 3)
        lang = engine.interpret_term(table, language_term(table, expr))
        star = engine.interpret_op(table, table.op("star"), [lang])
        for letter in "ab":
            lhs = engine.unfold(star).child(letter)
            rhs = engine.interpret_op(
                table, table.op("concat"),
                [engine.unfold(lang).child(letter), star])
            star_ok = star_ok and bounded_equal(lhs, rhs, 5)
    _verdict(7, member_ok and star_ok,
             "50 random tower terms agree with enumeration on all 127 words "
             "up to length 6; star-derivative law holds at depth 5")


def test_criterion_08_gnf(engine):
    g = parse_gnf("terminals: a b\nnonterminals: S B\nstart: S\n"
                  "S -> a S B\nS -> b\nB -> b\n")
    sol = engine.solve(compile_gnf(g))
    productions = {"S": (("a", ("S", "B")), ("b", ())), "B": (("b", ()),)}
    words = oracle_eval("gnf_derivations", productions, "S", 7)
    ok = True
    for n in range(8):
        for tup in itertools.product("ab", repeat=n):
            w = "".join(tup)
            if language_member(sol["S"], w) != (w in words):
                ok = False
    _verdict(8, ok, "a^n b b^n grammar agrees with the derivation oracle "
                    "on all words up to length 7")


def test_criterion_09_ccs(engine):
    table = ccs_table(DEFAULT_ACTIONS)
    system = milner_system(table)
    sol = engine.solve(system)
    diagram_ok = diagram_check(system, sol, 4).passed

    zero_ast = ("sum", ())
    p_ast = ("sum", (("pref", "a", ("par", ("ref", "P"),
                                    ("pref", "c", zero_ast))),
                     ("pref", "b", zero_ast)))
    env = {"P": p_ast}
    step = engine.unfold(sol["x"])
    zero = mk_app(table.op("nil"), ())
    c0 = mk_app(table.op("pref", "c"), (zero,))
    expected_a = engine.interpret_term(
        table, mk_app(table.op("par"), (Param(sol["x"]), c0)))
    expected_b = engine.interpret_term(table, zero)
    transitions_ok = step.children == ((("a", 0), expected_a),
                                       (("b", 0), expected_b))
    oracle_ok = sos_agree(table.kind, engine, ("ref", "P"), sol["x"], 4, env)

    rng = random.Random(41)
    laws_ok = True
    for _ in range(30):
        x = random_agent(rng, table.kind, 2)
        y = random_agent(rng, table.kind, 2)
        z = random_agent(rng, table.kind, 2)
        laws_ok = laws_ok and bounded_equal(
            agent_handle(engine, table, ("sum", (x, y))),
            agent_handle(engine, table, ("sum", (y, x))), 4)
        laws_ok = laws_ok and bounded_equal(
            agent_handle(engine, table, ("sum", (("sum", (x, y)), z))),
            agent_handle(engine, table, ("sum", (x, ("sum", (y, z))))), 4)
        laws_ok = laws_ok and bounded_equal(
            agent_handle(engine, table, ("sum", (x, x))),
            agent_handle(engine, table, x), 4)

    a0, b0, c0_ast = (("pref", "a", zero_ast), ("pref", "b", zero_ast),
                      ("pref", "c", zero_ast))
    hand_built = [
        ("alt", a0, b0),
        ("alt", zero_ast, b0),
        ("alt", a0, zero_ast),
        ("alt", zero_ast, zero_ast),
        ("alt", ("pref", "a", b0), c0_ast),
        ("seq", a0, b0),
        ("seq", zero_ast, b0),
        ("seq", ("alt", a0, b0), c0_ast),
        ("alt", ("seq", a0, b0), ("par", a0, b0)),
        ("alt", ("alt", a0, b0), c0_ast),
    ]
    seq_alt_ok = all(
        sos_agree(table.kind, engine, ast,
                  agent_handle(engine, table, ast), 4)
        for ast in hand_built)

    _verdict(9, diagram_ok and transitions_ok and oracle_ok and laws_ok
             and seq_alt_ok,
             "Milner equation passes the diagram at depth 4 with the exact "
             "transition set; sum laws hold on 30 random agents; seq/alt "
             "match the SOS oracle on 10 hand-built cases")


def test_criterion_10_modularity_suite():
    reports = run_suite("modularity", seed=0)
    names = [r.name for r in reports]
    ok = all(r.passed for r in reports) and {
        "rps-restriction", "rps-order-independence", "compositionality",
        "srps-equals-rps"}.issubset(set(names))
    for r in reports:
        print("   ", r.to_text())
    _verdict(10, ok, "restriction, order independence, compositionality "
                     "(depth 12 streams / 4 processes), and "
                     "srps-equals-rps all pass")


def _random_stream_system(rng, table, size):
    names = [f"x{i}" for i in range(size)]

    def term(depth):
        if depth <= 0 or rng.random() < 0.4:
            return Var(rng.choice(names))
        choice = rng.random()
        if choice < 0.4:
            return mk_app(table.op("plus"), (term(depth - 1), term(depth - 1)))
        if choice < 0.8:
            return mk_app(table.op("zip"), (term(depth - 1), term(depth - 1)))
        return mk_app(table.op("const",
                               Fraction(rng.randint(-3, 3))), ())

    rhs = {n: Guard(stream_step(Fraction(rng.randint(-5, 5)), term(2)))
           for n in names}
    return System(STREAM, table, tuple(names), rhs)


def test_criterion_11_engine_invariants(engine):
    from corec.terms import free_vars, substitute

    total = 0
    failures = 0
    rng = random.Random(101)
    table = stream_table()

    # monad laws on random terms
    sig = signature(("p", 2), ("z", 2), ("k", 0))

    def rand_term(depth):
        if depth <= 0 or rng.random() < 0.35:
            return Var(rng.choice("xyz"))
        name = rng.choice(["p", "z", "k"])
        op = sig.op(name)
        return mk_app(op, tuple(rand_term(depth - 1)
                                for _ in range(op.arity)))

    def rand_env():
        return {v: rand_term(2) for v in rng.sample("xyz", rng.randint(0, 3))}

    for _ in range(160):
        t = rand_term(3)
        e1, e2 = rand_env(), rand_env()
        checks = [
            substitute(t, {}) == t,
            substitute(substitute(t, e1), e2) == substitute(
                t, {**e2, **{v: substitute(b, e2) for v, b in e1.items()}}),
            all(substitute(Var(v), e1) == e1.get(v, Var(v))
                for v in ("x", "y", "z")),
            free_vars(substitute(t, e1)) <= free_vars(t) | set().union(
                *[free_vars(b) for b in e1.values()] or [set()]),
        ]
        total += len(checks)
        failures += checks.count(False)

    # memo determinism and observe monotonicity on random solved systems
    handles = []
    systems = []
    for _ in range(30):
        system = _random_stream_system(rng, table, rng.randint(1, 3))
        sol = engine.solve(system)
        systems.append((system, sol))
        handles.extend(sol.values())
    for _ in range(90):
        spec = random_periodic_spec(rng)
        handles.append(periodic_stream(engine, *spec))
    for h in handles:
        total += 1
        if engine.unfold(h) != engine.unfold(h):
            failures += 1
    for h in handles:
        total += 1
        depth = rng.randint(1, 4)
        if not is_prefix(engine.observe(h, depth),
                         engine.observe(h, depth + 1)):
            failures += 1

    # the solution diagram on every fixture solved in this run
    fixtures = [(flat_tm_system(), 8), (sandwiched_tm_system(), 8),
                (milner_system(), 4)]
    for system, depth in fixtures:
        sol = engine.solve(system)
        total += 1
        if not diagram_check(system, sol, depth).passed:
            failures += 1
    for system, sol in systems:
        total += 1
        if not diagram_check(system, sol, 6).passed:
            failures += 1
    for _ in range(90):
        system = _random_stream_system(rng, table, rng.randint(1, 3))
        sol = engine.solve(system)
        total += 1
        if not diagram_check(system, sol, 6).passed:
            failures += 1

    print(f"    property harness: {total} randomized cases, "
          f"{failures} failures")
    _verdict(11, total >= 1000 and failures == 0,
             f"engine invariants hold on {total} randomized cases")

from fractions import Fraction

import pytest

from helpers import (
    flat_tm_system,
    flat_tm_values,
    milner_system,
    sandwiched_tm_system,
    swapped_guard_system,
    swapped_guard_values,
)

from corec.behavior import STREAM, TREE, Step, process_step, stream_step, \
    tree_step
from corec.checking import bounded_equal, diagram_check, find_divergence
from corec.errors import (
    ArityMismatch,
    ForeignSymbol,
    InvalidHandle,
    KindMismatch,
    RuleDiverged,
    UnguardedPath,
    UnknownSymbol,
    ValidationFailed,
    VariableClash,
)
from corec.frontends import compile_circuit, load_circuit
from corec.instances import (
    DEFAULT_ACTIONS,
    ccs_table,
    language_table,
    language_term,
    language_member,
    oracle_eval,
    periodic_stream,
    periodic_values,
    stream_base_table,
    stream_table,
    stream_take,
    tree_table,
)
from corec.solver import Engine, EngineConfig, ExternalRhs, System
from corec.terms import App, Guard, Param, Var, mk_app, signature


@pytest.fixture()
def engine():
    return Engine()


def _two_constant_states(engine, table):
    sys = System(STREAM, table, ("h1", "h2"), {
        "h1": Guard(stream_step(1, Var("h1"))),
        "h2": Guard(stream_step(2, Var("h2"))),
    })
    sol = engine.solve(sys)
    return sol["h1"], sol["h2"]


def test_unfold_plus_reuses_the_same_state(engine):
    table = stream_table()
    h1, h2 = _two_constant_states(engine, table)
    s = engine.interpret_op(table, table.op("plus"), [h1, h2])
    step = engine.unfold(s)
    assert step.label == 3
    # (1+2, plus(h1', h2')) and both tails are the states themselves,
    # so the continuation is the very same shared state
    assert step.children == (("tail", s),)


def test_unfold_zip(engine):
    table = stream_table()
    h1, h2 = _two_constant_states(engine, table)
    z = engine.interpret_op(table, table.op("zip"), [h1, h2])
    step = engine.unfold(z)
    assert step.label == 1
    assert step.children[0][1] == engine.interpret_op(
        table, table.op("zip"), [h2, h1])


def test_unfold_language_intersection_label(engine):
    table = language_table("ab")
    la = engine.interpret_term(table, language_term(table, ("char", "a")))
    eps = engine.interpret_term(table, language_term(table, ("eps",)))
    inter = engine.interpret_op(table, table.op("inter"), [la, eps])
    assert engine.unfold(inter).label is False
    union = engine.interpret_op(table, table.op("union"), [la, eps])
    assert engine.unfold(union).label is True


def test_flat_tm_solution_and_iteration_oracle(engine):
    sol = engine.solve(flat_tm_system())
    assert stream_take(sol["t"], 4) == [1, 0, 1, 1]
    want_u, want_t = flat_tm_values(16)
    assert stream_take(sol["u"], 16) == want_u
    assert stream_take(sol["t"], 16) == want_t


def test_sandwiched_tm_is_thue_morse(engine):
    sol = engine.solve(sandwiched_tm_system())
    got = stream_take(sol["u"], 16)
    assert got == [oracle_eval("thue_morse", i) for i in range(16)]


# Deep prefixes under the default recursion limit: observation unfolds
# level by level without a Python frame per digit.


def test_thue_morse_5000_digits(engine):
    sol = engine.solve(sandwiched_tm_system())
    got = stream_take(sol["u"], 5000)
    assert got == [oracle_eval("thue_morse", k) for k in range(5000)]


@pytest.mark.parametrize("op, oracle, n", [
    ("conv", "cauchy_convolution", 2000),
    ("shuffle", "binomial_shuffle", 600),
])
def test_deep_products_against_oracles(engine, op, oracle, n):
    t = stream_table()
    a = periodic_stream(engine, (1, 2), (3, -1))
    b = periodic_stream(engine, (2,), (1, 0, -2))
    got = stream_take(engine.interpret_op(t, t.op(op), [a, b]), n)
    xs = [int(v) for v in periodic_values((1, 2), (3, -1), n)]
    ys = [int(v) for v in periodic_values((2,), (1, 0, -2), n)]
    assert got == oracle_eval(oracle, xs, ys)


def test_swapped_guard_system_regression(engine):
    # the same equations with the other variable under each guard solve to
    # a different automatic sequence, pinned by its own recurrence
    sol = engine.solve(swapped_guard_system())
    assert stream_take(sol["u"], 16) == swapped_guard_values(16)
    assert stream_take(sol["u"], 8) == [0, 1, 1, 0, 0, 1, 0, 1]


def test_milner_equation_transitions(engine):
    table = ccs_table(DEFAULT_ACTIONS)
    sol = engine.solve(milner_system(table))
    step = engine.unfold(sol["x"])
    actions = [p for p, _ in step.children]
    assert actions == [("a", 0), ("b", 0)]
    a_target = step.children[0][1]
    zero = mk_app(table.op("nil"), ())
    c0 = mk_app(table.op("pref", "c"), (zero,))
    expect = engine.interpret_term(
        table, mk_app(table.op("par"), (Param(sol["x"]), c0)))
    assert a_target == expect


def test_memo_determinism(engine):
    sol = engine.solve(flat_tm_system())
    first = engine.unfold(sol["t"])
    again = engine.unfold(sol["t"])
    assert first == again


def test_observe_depth_zero_is_cut(engine):
    sol = engine.solve(flat_tm_system())
    tree = engine.observe(sol["t"], 0)
    assert tree.cut


def test_observe_monotone(engine):
    from corec.behavior import is_prefix

    sol = engine.solve(flat_tm_system())
    for d in range(5):
        assert is_prefix(engine.observe(sol["u"], d),
                         engine.observe(sol["u"], d + 1))


def test_interpret_shuffle_against_binomial_oracle(engine):
    table = stream_table()
    ones = periodic_stream(engine, (), (1,))
    h = engine.interpret_op(table, table.op("shuffle"), [ones, ones])
    assert stream_take(h, 5) == [1, 2, 4, 8, 16]
    assert stream_take(h, 5) == oracle_eval(
        "binomial_shuffle", [1] * 5, [1] * 5)


def test_interpret_star_concat_membership(engine):
    table = language_table("ab")
    ab = ("concat", ("char", "a"), ("char", "b"))
    h = engine.interpret_term(table, language_term(table, ("star", ab)))
    assert [language_member(h, w) for w in ("", "ab", "abab", "a")] == \
        [True, True, True, False]


def test_zip_fixpoint_head_law(engine):
    # f defined by f(s) = zip(s, f(s)) keeps the head of its argument
    from corec.instances import stream_base_table
    from corec.rules import GsosRule, RpsDef, extend_with_rps
    from corec.terms import sig_sum, signature

    base = stream_base_table()
    new = signature(("fix", 1))
    s = sig_sum(base.sig, new)

    def fix_rule(op, args):
        (a,) = args
        return stream_step(a.head, mk_app(s.op("zip"), (
            mk_app(s.op("fix"), (a.self_term,)), a.tail)))

    table = extend_with_rps(base, RpsDef(new, {
        "fix": GsosRule(s.op("fix"), fix_rule)}))
    sigma = periodic_stream(engine, (5, 7), (2,))
    h = engine.interpret_op(table, table.op("fix"), [sigma])
    assert stream_take(h, 1)[0] == 5
    got = stream_take(h, 16)
    assert got == oracle_eval("zip_fixpoint", stream_take(sigma, 16), 16)


def test_interpret_op_errors(engine):
    table = stream_table()
    ones = periodic_stream(engine, (), (1,))
    with pytest.raises(ArityMismatch):
        engine.interpret_op(table, table.op("plus"), [ones])
    lang = language_table("ab")
    with pytest.raises(KindMismatch):
        engine.interpret_op(lang, lang.op("star"), [ones])


def test_interpret_term_rejects_a_wrong_arity_app(engine):
    table = stream_table()
    p = Param(periodic_stream(engine, (), (1,)))
    with pytest.raises(ArityMismatch):
        engine.interpret_term(table, App(table.op("zip"), (p, p, p)))


def test_interpret_term_rejects_a_step(engine):
    # the builder takes a step as its root when `solve` hands it one
    table = stream_table()
    with pytest.raises(KindMismatch):
        engine.interpret_term(table, stream_step(1, Param(
            periodic_stream(engine, (), (1,)))))


def test_cross_engine_parameters_are_rejected(engine):
    other = Engine()
    foreign = periodic_stream(other, (), (1,))
    table = stream_table()
    sys = System(STREAM, table, ("x",), {
        "x": Guard(stream_step(1, Param(foreign))),
    })
    with pytest.raises(InvalidHandle):
        engine.solve(sys)
    with pytest.raises(InvalidHandle):
        engine.unfold(foreign)


def test_constant_parameters_resolve(engine):
    table = stream_table()
    ones = periodic_stream(engine, (), (1,))
    sys = System(STREAM, table, ("x", "y"), {
        "x": Guard(stream_step(9, mk_app(table.op("plus"),
                                         (Var("y"), Param(ones))))),
        "y": Param(ones),
    })
    sol = engine.solve(sys)
    assert stream_take(sol["x"], 3) == [9, 2, 2]
    assert sol["y"] == ones


def test_external_refs_do_not_solve_directly(engine):
    table = stream_table()
    sys = System(STREAM, table, ("x",), {"x": ExternalRhs("p")})
    with pytest.raises(ValidationFailed):
        engine.solve(sys)


def test_reserved_variable_names_rejected(engine):
    table = stream_table()
    sys = System(STREAM, table, ("~x",), {
        "~x": Guard(stream_step(1, Var("~x")))})
    with pytest.raises(ValidationFailed):
        engine.solve(sys)


def test_unguarded_context_rejected(engine):
    table = stream_table()
    sys = System(STREAM, table, ("x",), {
        "x": App(table.op("zip"), (Var("x"), Var("x"))),
    })
    with pytest.raises(UnguardedPath):
        engine.solve(sys)


def test_rule_fuse_trips_as_diverged():
    # the first step of zip nested 6 deep applies a rule at every level
    small = Engine(EngineConfig(unfold_fuse=3))
    table = stream_table()
    ones = periodic_stream(small, (), (1,))
    h = ones
    for _ in range(6):
        h = small.interpret_op(table, table.op("zip"), [h, ones])
    with pytest.raises(RuleDiverged):
        small.observe(h, 1)


def test_rule_fuse_counts_per_step_not_per_observation():
    n = 3000
    small = Engine(EngineConfig(unfold_fuse=1000))
    u = small.solve(sandwiched_tm_system())["u"]
    tree, digits = small.observe(u, n), []
    while not tree.cut:
        digits.append(tree.label)
        tree = tree.children[0][1]
    want = [bin(k).count("1") % 2 for k in range(n)]
    assert digits == want == stream_take(u, n)


def test_compose_systems_ccs_matches_displayed_combination(engine):
    table = ccs_table(DEFAULT_ACTIONS)
    f = milner_system(table)
    y_plus_z = mk_app(table.op("sum", 2), (Var("y"), Var("z")))
    e = System(table.kind, table, ("y", "z"), {
        "y": App(table.op("par"), (
            Guard(stream_like_process((("b", y_plus_z),))),
            Guard(stream_like_process((("a", Var("z")),))),
        )),
        "z": ExternalRhs("x"),
    })
    combined, ok = engine.compose_systems(f, e, depth=4)
    assert ok
    assert combined.vars == ("y", "z", "x")
    # the external row is replaced by the base equation's right-hand side
    assert combined.rhs["z"] == f.rhs["x"]
    assert combined.rhs["y"] == e.rhs["y"]


def stream_like_process(moves):
    from corec.behavior import process_step

    return process_step(moves)


def test_compose_systems_streams(engine):
    table = stream_table()
    f = System(STREAM, table, ("p",), {
        "p": Guard(stream_step(1, Var("p")))})
    e = System(STREAM, table, ("q", "w"), {
        "q": Guard(stream_step(7, mk_app(table.op("plus"),
                                         (Var("q"), Var("w"))))),
        "w": ExternalRhs("p"),
    })
    combined, ok = engine.compose_systems(f, e, depth=12)
    assert ok
    sol = engine.solve(combined)
    assert stream_take(sol["q"], 4) == [7, 8, 9, 10]


def test_compose_systems_variable_clash(engine):
    table = stream_table()
    f = System(STREAM, table, ("p",), {
        "p": Guard(stream_step(1, Var("p")))})
    e = System(STREAM, table, ("p",), {
        "p": Guard(stream_step(2, Var("p")))})
    with pytest.raises(VariableClash):
        engine.compose_systems(f, e)


def test_elaborate_guards_degenerate_root(engine):
    table = stream_table()
    ones = periodic_stream(engine, (), (1,))
    ctx = Guard(stream_step(3, Var("k")))
    step = engine.elaborate_guards(table, ctx, {"k": ones})
    assert step.label == 3
    assert stream_take(step.children[0][1], 2) == [1, 1]


def test_elaborate_guards_zip_of_guards(engine):
    table = stream_table()
    u = periodic_stream(engine, (), (4,))
    t = periodic_stream(engine, (), (9,))
    ctx = App(table.op("zip"), (
        Guard(stream_step(1, Param(u))),
        Guard(stream_step(0, Param(t))),
    ))
    step = engine.elaborate_guards(table, ctx, {})
    # the zip rule applied to heads 1 and 0
    assert step.label == 1
    tail = step.children[0][1]
    assert stream_take(tail, 4) == [0, 4, 9, 4]


def test_elaborate_guards_unguarded(engine):
    table = stream_table()
    with pytest.raises(UnguardedPath):
        engine.elaborate_guards(table, Var("x"), {})


def test_srps_guard_elaboration_matches_hand_reduction(engine):
    # the four fresh guard states of the swapped-guard pair, written out
    # by hand as a flat system, then combined by interpreting zip
    table = stream_table()
    z = table.op("zip")
    t_term = mk_app(z, (Var("g1"), Var("g2")))
    u_term = mk_app(z, (Var("g3"), Var("g4")))
    flat = System(STREAM, table, ("g1", "g2", "g3", "g4"), {
        "g1": Guard(stream_step(1, u_term)),
        "g2": Guard(stream_step(0, t_term)),
        "g3": Guard(stream_step(0, t_term)),
        "g4": Guard(stream_step(1, u_term)),
    })
    hand = engine.solve(flat)
    t_hand = engine.interpret_op(table, z, [hand["g1"], hand["g2"]])
    u_hand = engine.interpret_op(table, z, [hand["g3"], hand["g4"]])
    direct = engine.solve(swapped_guard_system())
    assert bounded_equal(t_hand, direct["t"], 16)
    assert bounded_equal(u_hand, direct["u"], 16)


def test_solutions_satisfy_their_diagram(engine):
    for system in (flat_tm_system(), sandwiched_tm_system(),
                   swapped_guard_system()):
        sol = engine.solve(system)
        assert diagram_check(system, sol, 8).passed


def test_periodic_stream_matches_value_oracle(engine):
    pre, cyc = (Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))
    h = periodic_stream(engine, pre, cyc)
    assert stream_take(h, 9) == periodic_values(pre, cyc, 9)


def _tree_state(engine):
    sys = System(TREE, tree_table(), ("t",), {
        "t": Guard(tree_step(1, Var("t"), Var("t")))})
    return engine.solve(sys)["t"]


def _one(rhs, var="x"):
    """A stream system defining ``var`` alone by ``rhs(engine)``, or by no
    rhs at all when ``rhs`` is None."""
    def system(engine):
        table = stream_table()
        return System(STREAM, table, (var,),
                      {} if rhs is None else {var: rhs(engine)})
    return system


def _ccs_move(action):
    def system(engine):
        table = ccs_table(DEFAULT_ACTIONS)
        return System(table.kind, table, ("p",), {
            "p": Guard(process_step(((action, Var("p")),)))})
    return system


_ZIP = stream_table().op("zip")
_GUARD = Guard(stream_step(1, Var("x")))


@pytest.mark.parametrize("system, error", [
    (_one(lambda e: Guard(Step(Fraction(1), (("head", Var("x")),)))),
     KindMismatch),
    (_one(lambda e: Guard(Step(1, (("tail", Var("x")),)))), KindMismatch),
    (_ccs_move("zz"), KindMismatch),
    (_one(lambda e: Guard(stream_step(1, Var("y")))), UnknownSymbol),
    (_one(lambda e: Guard(stream_step(1, mk_app(
        signature(("plus", 2)).op("plus"), (Var("x"), Var("x")))))),
     ForeignSymbol),
    (_one(lambda e: App(_ZIP, (_GUARD, _GUARD, _GUARD))),
     ArityMismatch),
    (_one(lambda e: App(_ZIP, (_GUARD, Var("x")))),
     UnguardedPath),
    (_one(lambda e: Guard(stream_step(1, App(_ZIP, (Var("x"),) * 3)))),
     ArityMismatch),
    (_one(lambda e: Var("x")), UnguardedPath),
    (_one(lambda e: Guard(stream_step(
        1, Param(periodic_stream(Engine(), (), (1,)))))), InvalidHandle),
    (_one(lambda e: Guard(stream_step(1, Param(_tree_state(e))))),
     KindMismatch),
    (_one(lambda e: ExternalRhs("p")), ValidationFailed),
    (_one(None), ValidationFailed),
    (_one(lambda e: Guard(stream_step(1, Var("~x"))), var="~x"),
     ValidationFailed),
], ids=["ports", "label", "action", "undeclared", "foreign", "ctx-arity",
        "unguarded", "term-arity", "bare-var", "other-engine", "param-kind",
        "external", "missing", "reserved"])
def test_solve_rejects_each_malformed_rhs(engine, system, error):
    system = system(engine)
    nodes, cons = len(engine._nodes), dict(engine._cons)
    with pytest.raises(error):
        engine.solve(system)
    assert len(engine._nodes) == nodes and engine._cons == cons


def test_materialize_rhs_again_adds_no_node(engine):
    for system in (flat_tm_system(), sandwiched_tm_system()):
        sol = engine.solve(system)
        assert diagram_check(system, sol, 8).passed
        nodes = len(engine._nodes)
        assert diagram_check(system, sol, 8).passed
        assert len(engine._nodes) == nodes


def test_solve_accepts_a_summand_symbol(engine):
    plus = stream_base_table().op("plus")
    sys = _one(lambda e: Guard(stream_step(
        1, mk_app(plus, (Var("x"), Var("x"))))))(engine)
    assert stream_take(engine.solve(sys)["x"], 4) == [1, 2, 4, 8]


def test_interpret_op_accepts_a_summand_symbol(engine):
    table = stream_table()
    a, b = _two_constant_states(engine, table)
    got = engine.interpret_op(table, stream_base_table().op("plus"), [a, b])
    assert got == engine.interpret_op(table, table.op("plus"), [a, b])


def test_observing_a_flat_solution_instantiates_nothing(engine, monkeypatch):
    table = stream_table()
    blink = System(table.kind, table, ("x", "y"), {
        "x": Guard(stream_step(0, Var("y"))),
        "y": Guard(stream_step(1, Var("x"))),
    })
    sol = engine.solve(blink)
    calls = []
    instantiate = Engine._instantiate

    def counting(self, *args):
        calls.append(args)
        return instantiate(self, *args)

    monkeypatch.setattr(Engine, "_instantiate", counting)
    engine.observe(sol["x"], 8)
    assert len(calls) == 0


# the unfold kernel keeps its arena: equal parameters share a node and a
# plan, and long runs build the node and plan counts they always have


def test_equal_numeric_parameters_share_one_node_and_one_plan(engine):
    table = stream_table()
    x = periodic_stream(engine, (1,), (2, 3))
    by_int = engine.interpret_op(table, table.op("mult", 2), [x])
    by_fraction = engine.interpret_op(table, table.op("mult", Fraction(2)),
                                      [x])
    assert by_int.node == by_fraction.node
    nodes = len(engine._nodes)
    want = [2 * v for v in periodic_values((1,), (2, 3), 40)]
    assert stream_take(by_int, 40) == want == stream_take(by_fraction, 40)
    assert len(engine._plans) == 1
    assert len(engine._nodes) == nodes + 2


def test_thue_morse_to_20000_digits_keeps_its_arena(engine):
    sol = engine.solve(sandwiched_tm_system())
    assert stream_take(sol["u"], 20_000) == \
        [bin(n).count("1") % 2 for n in range(20_000)]
    assert len(engine._nodes) == 30_004 and len(engine._plans) == 1


def test_the_halving_accumulator_keeps_its_arena(engine):
    from test_symbolic import CYC, HALF_ACCUMULATOR, PRE

    compiled = compile_circuit(load_circuit(HALF_ACCUMULATOR))
    table = compiled.table()
    (symbol, _, _), = compiled.outputs
    h = engine.interpret_op(table, table.op(symbol),
                            [periodic_stream(engine, PRE, CYC)])
    want, r = [], Fraction(1)
    for x in periodic_values(PRE, CYC, 3_000):
        want.append(x + r)
        r = want[-1] / 2
    assert stream_take(h, 3_000) == want
    assert len(engine._nodes) == 6_008 and len(engine._plans) == 3


_DEPTH_ENTRIES = {
    "observe": lambda h, d: h.engine.observe(h, d),
    "stream_take": stream_take,
    "bounded_equal": lambda h, d: bounded_equal(h, h, d),
    "find_divergence": lambda h, d: find_divergence(h, h, d),
}


@pytest.mark.parametrize("bad", [2.5, "3", True, None, Fraction(3)],
                         ids=["float", "str", "bool", "none", "fraction"])
@pytest.mark.parametrize("entry", sorted(_DEPTH_ENTRIES))
def test_depths_and_lengths_must_be_ints(engine, entry, bad):
    h = periodic_stream(engine, (1,), (2, 3))
    name = "n" if entry == "stream_take" else "depth"
    with pytest.raises(ValidationFailed, match=f"^{name} must be an int"):
        _DEPTH_ENTRIES[entry](h, bad)
    # an int, negative or not, keeps its meaning
    assert [_DEPTH_ENTRIES[entry](h, d) for d in (-1, 0)] == \
        [_DEPTH_ENTRIES[entry](h, 0)] * 2
    assert _DEPTH_ENTRIES[entry](h, 3) == {
        "observe": engine.observe(h, 3), "stream_take": [1, 2, 3],
        "bounded_equal": True, "find_divergence": None}[entry]

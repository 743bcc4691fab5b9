import itertools
import random
from fractions import Fraction

import pytest

from helpers import agent_handle, sos_agree

from corec.behavior import process_actions
from corec.checking import bounded_equal
from corec.errors import (
    BadActionStructure,
    EmptyAlphabet,
    KindMismatch,
    UnknownOracle,
    UnknownSymbol,
)
from corec.instances import (
    DEFAULT_ACTIONS,
    ccs_sos,
    ccs_table,
    ccs_term,
    language_member,
    language_table,
    language_term,
    oracle_eval,
    periodic_stream,
    periodic_values,
    random_agent,
    random_language_expr,
    stream_table,
    stream_take,
    tree_table,
)
from corec.solver import Engine
from corec.terms import App, Var


@pytest.fixture()
def engine():
    return Engine()


# -- streams ----------------------------------------------------------------


def test_constant_stream(engine):
    t = stream_table()
    h = engine.interpret_op(t, t.op("const", Fraction(5)), [])
    assert stream_take(h, 4) == [5, 0, 0, 0]


def test_register_prepends(engine):
    t = stream_table()
    ones = periodic_stream(engine, (), (1,))
    h = engine.interpret_op(t, t.op("register", Fraction(9)), [ones])
    assert stream_take(h, 3) == [9, 1, 1]


def test_multiplier(engine):
    t = stream_table()
    h = periodic_stream(engine, (1, 2), (3,))
    m = engine.interpret_op(t, t.op("mult", Fraction(1, 2)), [h])
    assert stream_take(m, 4) == [Fraction(1, 2), 1, Fraction(3, 2),
                                 Fraction(3, 2)]


def test_stream_take_rejects_other_kinds(engine):
    tree = engine.interpret_op(tree_table(), tree_table().op("pi"), [])
    lang = engine.interpret_term(language_table("ab"), language_term(
        language_table("ab"), ("char", "a")))
    for h in (tree, lang, None):
        with pytest.raises(KindMismatch):
            stream_take(h, 3)


def test_convolution_against_oracle(engine):
    t = stream_table()
    rng = random.Random(3)
    for _ in range(6):
        pre_a, cyc_a = _spec(rng)
        pre_b, cyc_b = _spec(rng)
        a = periodic_stream(engine, pre_a, cyc_a)
        b = periodic_stream(engine, pre_b, cyc_b)
        got = stream_take(engine.interpret_op(t, t.op("conv"), [a, b]), 10)
        want = oracle_eval("cauchy_convolution",
                           periodic_values(pre_a, cyc_a, 10),
                           periodic_values(pre_b, cyc_b, 10))
        assert got == want


def _spec(rng):
    pre = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 2)))
    cyc = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3)))
    return pre, cyc


# -- trees --------------------------------------------------------------------


def _tree_labels(tree):
    if tree.cut:
        return []
    out = [tree.label]
    for _, sub in tree.children:
        out.extend(_tree_labels(sub))
    return out


def test_pi_tree_is_constant(engine):
    t = tree_table()
    pi = engine.interpret_op(t, t.op("pi"), [])
    labels = _tree_labels(engine.observe(pi, 3))
    assert set(labels) == {Fraction(355, 113)}


def test_tree_addition(engine):
    t = tree_table()
    one = engine.interpret_op(t, t.op("const", Fraction(1)), [])
    two = engine.interpret_op(t, t.op("const", Fraction(2)), [])
    s = engine.observe(engine.interpret_op(t, t.op("plus"), [one, two]), 2)
    assert s.label == 3
    assert [c.label for _, c in s.children] == [0, 0]


def test_tree_constant_children_are_zero(engine):
    t = tree_table()
    r = engine.interpret_op(t, t.op("const", Fraction(7)), [])
    step = engine.unfold(r)
    left = step.children[0][1]
    assert engine.unfold(left).label == 0


def test_tree_table_accepts_other_pi_values(engine):
    t = tree_table(Fraction(22, 7))
    pi = engine.interpret_op(t, t.op("pi"), [])
    assert set(_tree_labels(engine.observe(pi, 2))) == {Fraction(22, 7)}


# -- languages ----------------------------------------------------------------


def test_language_membership_star_concat(engine):
    t = language_table("ab")
    h = engine.interpret_term(
        t, language_term(t, ("star", ("concat", ("char", "a"),
                                      ("char", "b")))))
    assert language_member(h, "abab")
    assert not language_member(h, "aab")


@pytest.mark.parametrize("name", ["char", "prefix"])
def test_letter_parameters_are_letters_of_the_alphabet(engine, name):
    t = language_table("ab")
    with pytest.raises(UnknownSymbol, match="'z' is not in the alphabet"):
        t.op(name, "z")
    expr = ("char", "z") if name == "char" else ("prefix", "z", ("eps",))
    with pytest.raises(UnknownSymbol):
        language_term(t, expr)
    expr = ("char", "b") if name == "char" else ("prefix", "b", ("eps",))
    h = engine.interpret_term(t, language_term(t, expr))
    assert [language_member(h, w) for w in ("", "a", "b", "bb")] == \
        [False, False, True, False]


@pytest.mark.parametrize("param", ["abc", "3/2", 2.5, True, False])
def test_rational_parameters_are_ints_or_fractions(param):
    with pytest.raises(UnknownSymbol, match="not a rat parameter of 'mult'"):
        stream_table().op("mult", param)


@pytest.mark.parametrize("param", [2, Fraction(3, 2)])
def test_an_int_or_fraction_parameter_scales(engine, param):
    t = stream_table()
    h = engine.interpret_op(t, t.op("mult", param),
                            [periodic_stream(engine, (1,), (2,))])
    assert stream_take(h, 3) == [param, 2 * param, 2 * param]


@pytest.mark.parametrize("param", [2, -1, "x", 1.0, Fraction(1), None])
def test_bit_parameters_are_zero_or_one(param):
    with pytest.raises(UnknownSymbol):
        language_table("ab").op("cons", param)


@pytest.mark.parametrize("param", [False, True, 0, 1])
def test_a_bit_parameter_says_whether_the_empty_word_is_in(engine, param):
    t = language_table("ab")
    eps = engine.interpret_op(t, t.op("eps"), [])
    h = engine.interpret_op(t, t.op("cons", param), [eps, eps])
    assert [language_member(h, w) for w in ("", "a", "b", "ab")] == \
        [bool(param), True, True, False]


def test_complement_of_empty_is_everything(engine):
    t = language_table("ab")
    h = engine.interpret_term(t, language_term(t, ("compl", ("empty",))))
    for n in range(7):
        for w in itertools.product("ab", repeat=n):
            assert language_member(h, "".join(w))


def test_language_randoms_against_enumeration(engine):
    t = language_table("ab")
    rng = random.Random(11)
    words = ["".join(w) for n in range(5)
             for w in itertools.product("ab", repeat=n)]
    for _ in range(15):
        expr = random_language_expr(rng, "ab", 3)
        h = engine.interpret_term(t, language_term(t, expr))
        for w in words:
            assert language_member(h, w) == oracle_eval(
                "word_membership", expr, w, ("a", "b"))


def test_prefix_and_cons_operations(engine):
    t = language_table("ab")
    eps = language_term(t, ("eps",))
    h = engine.interpret_term(t, language_term(t, ("prefix", "a", ("eps",))))
    assert language_member(h, "a") and not language_member(h, "")
    rebuilt = engine.interpret_term(
        t, language_term(t, ("cons", True, (("eps",), ("empty",)))))
    assert language_member(rebuilt, "")
    assert language_member(rebuilt, "a")
    assert not language_member(rebuilt, "b")


def test_empty_alphabet_rejected():
    with pytest.raises(EmptyAlphabet):
        language_table("")


def test_language_term_builds_a_concat_nested_ten_thousand_deep(engine):
    table, n = language_table("ab"), 10_000
    expr = ("char", "a")
    for k in range(n - 1):
        expr = ("concat", ("char", "ab"[k % 2]), expr)
    term = language_term(table, expr)
    assert isinstance(engine.interpret_term(table, term).node, int)
    letters = []
    while term.op.name == "concat":
        letters.append(term.args[0].op.param)
        term = term.args[1]
    assert letters + [term.op.param] == ["ab"[k % 2] for k in reversed(
        range(n - 1))] + ["a"]


# -- processes ----------------------------------------------------------------


def test_prefix_unfolds_to_one_move(engine):
    t = ccs_table(DEFAULT_ACTIONS)
    zero = ("sum", ())
    h = agent_handle(engine, t, ("pref", "a", zero))
    step = engine.unfold(h)
    assert [p for p, _ in step.children] == [("a", 0)]


def test_seq_with_inactive_first_argument(engine):
    t = ccs_table(DEFAULT_ACTIONS)
    q = ("pref", "b", ("sum", ()))
    h = agent_handle(engine, t, ("seq", ("sum", ()), q))
    assert [p for p, _ in engine.unfold(h).children] == [("b", 0)]


def test_parallel_synchronization(engine):
    t = ccs_table(DEFAULT_ACTIONS)
    h = agent_handle(engine, t, ("par", ("pref", "a", ("sum", ())),
                                 ("pref", "a'", ("sum", ()))))
    actions = {p[0] for p, _ in engine.unfold(h).children}
    assert actions == {"a", "a'", "tau"}


def test_relabel_and_restrict(engine):
    t = ccs_table(DEFAULT_ACTIONS)
    agent = ("restrict", ("b",), ("relabel", (("a", "b"),),
                                  ("pref", "a", ("sum", ()))))
    h = agent_handle(engine, t, agent)
    assert engine.unfold(h).children == ()
    visible = agent_handle(engine, t, ("relabel", (("a", "b"),),
                                       ("pref", "a", ("sum", ()))))
    assert [p[0] for p, _ in engine.unfold(visible).children] == ["b"]


def test_sum_laws_on_random_agents(engine):
    t = ccs_table(DEFAULT_ACTIONS)
    rng = random.Random(23)
    for _ in range(12):
        x = random_agent(rng, t.kind, 2)
        y = random_agent(rng, t.kind, 2)
        z = random_agent(rng, t.kind, 2)
        hx = agent_handle(engine, t, x)
        hy = agent_handle(engine, t, y)
        hz = agent_handle(engine, t, z)
        comm1 = agent_handle(engine, t, ("sum", (x, y)))
        comm2 = agent_handle(engine, t, ("sum", (y, x)))
        assert bounded_equal(comm1, comm2, 4)
        assoc1 = agent_handle(engine, t, ("sum", (("sum", (x, y)), z)))
        assoc2 = agent_handle(engine, t, ("sum", (x, ("sum", (y, z)))))
        assert bounded_equal(assoc1, assoc2, 4)
        idem1 = agent_handle(engine, t, ("sum", (x, x)))
        assert bounded_equal(idem1, hx, 4)


def test_engine_matches_sos_oracle_on_randoms(engine):
    t = ccs_table(DEFAULT_ACTIONS)
    rng = random.Random(29)
    for _ in range(20):
        ast = random_agent(rng, t.kind, 3)
        h = agent_handle(engine, t, ast)
        assert sos_agree(t.kind, engine, ast, h, 3)


def test_alt_and_seq_against_oracle(engine):
    t = ccs_table(DEFAULT_ACTIONS)
    zero = ("sum", ())
    a0, b0, c0 = ("pref", "a", zero), ("pref", "b", zero), ("pref", "c", zero)
    cases = [
        ("alt", a0, b0),
        ("alt", zero, b0),
        ("alt", a0, zero),
        ("alt", zero, zero),
        ("seq", a0, b0),
        ("seq", zero, ("alt", a0, b0)),
        ("alt", ("seq", a0, b0), c0),
        ("alt", ("pref", "a", b0), ("pref", "c", a0)),
        ("seq", ("alt", a0, b0), c0),
        ("alt", ("par", a0, b0), c0),
    ]
    for ast in cases:
        h = agent_handle(engine, t, ast)
        assert sos_agree(t.kind, engine, ast, h, 4), ast


def test_bad_action_structure():
    with pytest.raises(BadActionStructure):
        ccs_table("not a kind")


def test_process_actions_shape():
    kind = process_actions("a", "b")
    assert kind.tau == "tau"
    assert set(kind.actions) == {"a", "a'", "b", "b'", "tau"}


def test_ccs_term_builds_a_chain_of_ten_thousand_prefixes(engine):
    table, n = ccs_table(DEFAULT_ACTIONS), 10_000
    ast = ("ref", "X")
    for k in range(n):
        ast = ("pref", "ab"[k % 2], ast)
    term, actions = ccs_term(table, ast), []
    while isinstance(term, App):
        actions.append(term.op.param)
        term = term.args[0]
    assert term == Var("X")
    assert actions == ["ab"[k % 2] for k in reversed(range(n))]
    shared = {}
    assert ccs_term(table, ("pref", "a", ("ref", "X")), shared).args[0] \
        is ccs_term(table, ("ref", "X"), shared)


# -- oracles -------------------------------------------------------------------


def test_thue_morse_oracle():
    assert [oracle_eval("thue_morse", i) for i in range(8)] == \
        [0, 1, 1, 0, 1, 0, 0, 1]


def test_binomial_shuffle_oracle_doubles():
    out = oracle_eval("binomial_shuffle", [1] * 10, [1] * 10)
    assert out == [2 ** n for n in range(10)]


def test_gnf_derivation_oracle():
    productions = {"S": (("a", ("S", "B")), ("b", ())), "B": (("b", ()),)}
    words = oracle_eval("gnf_derivations", productions, "S", 5)
    assert "abb" in words and "aabbb" in words
    assert "ab" not in words and "" not in words


def test_ccs_sos_oracle_dedupes():
    kind = DEFAULT_ACTIONS
    zero = ("sum", ())
    moves = ccs_sos(kind, ("sum", (("pref", "a", zero), ("pref", "a", zero))))
    assert moves == (("a", zero),)


def test_unknown_oracle():
    with pytest.raises(UnknownOracle):
        oracle_eval("nope")


def _prefix_cons_expr(rng, letters, depth):
    """A random language expression whose inner nodes are mostly `prefix`
    and `cons`, the extras of the language table."""
    if depth <= 0:
        return random_language_expr(rng, letters, 0)
    tag = rng.choice(["prefix", "cons", "prefix", "cons", "union", "concat",
                      "star"])
    if tag == "prefix":
        return ("prefix", rng.choice(letters),
                _prefix_cons_expr(rng, letters, depth - 1))
    if tag == "cons":
        return ("cons", rng.randint(0, 1), tuple(
            _prefix_cons_expr(rng, letters, depth - 1) for _ in letters))
    if tag == "star":
        return ("star", _prefix_cons_expr(rng, letters, depth - 1))
    return (tag, _prefix_cons_expr(rng, letters, depth - 1),
            _prefix_cons_expr(rng, letters, depth - 1))


def test_prefix_and_cons_against_the_word_oracle(engine):
    t, letters = language_table("ab"), "ab"
    words = ["".join(w) for n in range(5)
             for w in itertools.product(letters, repeat=n)]
    rng = random.Random(31)
    for _ in range(150):
        expr = _prefix_cons_expr(rng, letters, 3)
        h = engine.interpret_term(t, language_term(t, expr))
        want = oracle_eval("language_words", expr, 4, letters)
        assert [language_member(h, w) for w in words] == \
            [w in want for w in words], expr


def _relabelling(rng, kind):
    """One or two pairs renaming distinct visible base actions."""
    bases = [a for a in kind.actions if a != kind.tau and "'" not in a]
    return tuple((a, rng.choice(bases + [f"{b}'" for b in bases]))
                 for a in sorted(rng.sample(bases, rng.randint(1, 2))))


def test_relabelling_against_the_sos_oracle(engine):
    t = ccs_table(DEFAULT_ACTIONS)
    kind = t.kind
    rng = random.Random(37)
    for _ in range(200):
        inner = ("relabel", _relabelling(rng, kind),
                 random_agent(rng, kind, 2))
        agent = ("relabel", _relabelling(rng, kind),
                 ("par", inner, random_agent(rng, kind, 2)))
        assert sos_agree(kind, engine, agent, agent_handle(engine, t, agent),
                         3), agent

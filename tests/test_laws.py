"""Hash-consing modulo the declared laws of `union`, `inter` and `concat`.

Every test here runs under the default recursion limit.
"""

import itertools
import random

import pytest

from corec.behavior import Step, language_step
from corec.errors import ArityMismatch, ForeignSymbol, KindMismatch, \
    UnknownSymbol
from corec.instances import (
    language_member,
    language_table,
    language_term,
    oracle_eval,
    periodic_stream,
    random_language_expr,
)
from corec.rules import (
    GsosRule,
    Law,
    RpsDef,
    RuleTable,
    add_rule,
    build_table,
    extend_with_rps,
    validate_table,
)
from corec.solver import Engine, System
from corec.terms import App, Guard, Param, Var, mk_app, sig_sum, signature

WORDS = ["".join(w) for n in range(7)
         for w in itertools.product("ab", repeat=n)]


def anbn_system(table):
    """`S -> a S B | a B`, `B -> b`, as `frontends.compile_gnf` builds it,
    over any table that carries the language operations."""
    empty = mk_app(table.op("empty"), ())

    def guard(a_child, b_child):
        return Guard(Step(False, (("a", a_child), ("b", b_child))))

    s_b = mk_app(table.op("concat"), (Var("S"), Var("B")))
    return System(table.kind, table, ("S", "B"), {
        "S": App(table.op("union"), (guard(s_b, empty),
                                     guard(Var("B"), empty))),
        "B": guard(empty, mk_app(table.op("eps"), ())),
    })


def anbn_member(table, word):
    engine = Engine()
    verdict = language_member(engine.solve(anbn_system(table))["S"], word)
    return verdict, len(engine._nodes)


ABA = ("concat", ("star", ("char", "a")),
       ("concat", ("star", ("char", "b")), ("star", ("char", "a"))))


def expr_member(table, expr, word):
    engine = Engine()
    h = engine.interpret_term(table, language_term(table, expr))
    return language_member(h, word), len(engine._nodes)


def test_engine_agrees_with_the_language_words_oracle():
    table = language_table("ab")
    rng = random.Random(5)
    engine = Engine()
    for _ in range(200):
        expr = random_language_expr(rng, "ab", 5)
        words = oracle_eval("language_words", expr, 6, ("a", "b"))
        h = engine.interpret_term(table, language_term(table, expr))
        assert [language_member(h, w) for w in WORDS] == \
            [w in words for w in WORDS], expr


def test_anbn_at_two_thousand():
    table = language_table("ab")
    n = 2000
    assert anbn_member(table, "a" * n + "b" * n)[0] is True
    assert anbn_member(table, "a" * n + "b" * (n + 1))[0] is False
    assert anbn_member(table, "a" * n + "b" * (n - 1))[0] is False


def test_arena_stays_small():
    table = language_table("ab")
    n = 100
    verdict, nodes = anbn_member(table, "a" * n + "b" * n)
    assert verdict and nodes <= 3 * n + 20
    verdict, nodes = expr_member(table, ABA, "a" * 70 + "b" * 70 + "a" * 60)
    assert verdict and nodes <= 16


def test_normal_forms_share_nodes():
    table = language_table("ab")
    engine = Engine()

    def node(expr):
        return engine.interpret_term(table, language_term(table, expr)).node

    a, b, c = ("char", "a"), ("char", "b"), ("star", ("char", "a"))
    empty, eps = ("empty",), ("eps",)
    assert node(("union", a, empty)) == node(a)
    assert node(("union", a, b)) == node(("union", b, a))
    assert node(("union", a, ("union", b, a))) == node(("union", a, b))
    assert node(("inter", a, empty)) == node(empty)
    assert node(("inter", b, ("inter", a, b))) == node(("inter", a, b))
    assert node(("concat", eps, a)) == node(a) == node(("concat", a, eps))
    assert node(("concat", a, empty)) == node(empty)
    assert node(("concat", ("concat", a, b), c)) == \
        node(("concat", a, ("concat", b, c)))
    assert node(("concat", a, b)) != node(("concat", b, a))
    assert node(("union", eps, empty)) == node(eps)
    assert node(("concat", eps, eps)) == node(eps)


def test_nodes_of_another_table_are_opaque_operands():
    base = language_table("ab")
    wider = add_rule(base, _identity_rule())
    engine = Engine()
    x = engine.interpret_term(wider, language_term(wider, ("empty",)))
    a = language_term(base, ("char", "a"))
    h = engine.interpret_term(base, mk_app(base.op("union"), (Param(x), a)))
    assert engine._nodes[h.node].children == \
        tuple(sorted((x.node, engine.interpret_term(base, a).node)))
    assert language_member(h, "a") and not language_member(h, "")


def _identity_rule(name="idle"):
    sig = signature((name, 1))

    def identity(op, args):
        (a,) = args
        return Step(a.label, a.tails)

    return GsosRule(sig.op(name), identity)


def test_laws_survive_extension():
    base = language_table("ab")
    wider = add_rule(base, _identity_rule())
    assert wider.laws == base.laws
    assert wider.laws["concat"] == Law(unit="eps", zero="empty")
    n = 150
    for word in ("a" * n + "b" * n, "a" * n + "b" * (n + 1)):
        assert anbn_member(wider, word) == anbn_member(base, word)
    word = "a" * 70 + "b" * 70 + "a" * 60
    assert expr_member(wider, ABA, word) == expr_member(base, ABA, word)
    rng = random.Random(9)
    for _ in range(20):
        expr = random_language_expr(rng, "ab", 4)
        for w in WORDS[:31]:
            assert expr_member(wider, expr, w) == expr_member(base, expr, w)


def _pair_rules(law_on=None, law=None):
    """A language signature with `nil`, a parametric `lit`, a binary
    `pair`, a unary `one` and a parametric binary `fam`, each symbol's rule
    stepping to itself over the derivatives of its arguments; ``law``
    goes on the rule of ``law_on``."""
    kind = language_table("ab").kind
    sig = signature(("nil", 0), ("lit", 0, True), ("pair", 2), ("one", 1),
                    ("fam", 2, True))

    def conclude(op, args):
        return language_step(False, {
            x: mk_app(op, tuple(a.at(x) for a in args))
            for x in kind.alphabet}, kind.alphabet)

    params = {"lit": ("a",), "fam": (1,)}
    return kind, sig, [
        GsosRule(sig.template(n) if n in params else sig.op(n), conclude,
                 params.get(n, (None,)), law if n == law_on else None)
        for n in sig.names]


@pytest.mark.parametrize("name, law, error", [
    ("nil", Law(), ArityMismatch),
    ("one", Law(), ArityMismatch),
    ("fam", Law(), ArityMismatch),
    ("pair", Law(unit="ghost"), ForeignSymbol),
    ("pair", Law(zero="pair"), ForeignSymbol),
    ("pair", Law(unit="lit"), ForeignSymbol),
    ("one", Law(commutative=True), ArityMismatch),
    ("fam", Law(unit="nil", commutative=True), ArityMismatch),
])
def test_malformed_laws_are_rejected(name, law, error):
    kind, sig, rules = _pair_rules(name, law)
    with pytest.raises(error):
        build_table(kind, sig, rules)
    with pytest.raises(error):
        extend_with_rps(build_table(kind, signature(), []),
                        RpsDef(sig, {r.op.name: r for r in rules}))
    table = RuleTable(kind, sig, {r.op.name: r for r in rules})
    assert name not in table.laws
    assert any(v.startswith(f"rule {name!r}")
               for v in validate_table(table).violations)


def test_laws_resolve_through_the_rename_map():
    kind, sig, rules = _pair_rules("pair", Law(unit="nil"))
    assert build_table(kind, sig, rules).laws == {"pair": Law(unit="nil")}
    # The same rules as the right summand of a sum that renames their
    # `nil` to `nil'`: the law's unit is renamed with its symbol.
    left = signature(("nil", 0))
    _, _, (nil_rule, *_) = _pair_rules()
    both = sig_sum(left, sig)
    emb = both.embedding_from(sig)
    table = RuleTable(kind, both,
                      {"nil": nil_rule, **{emb[r.op.name]: r for r in rules}},
                      origin={"nil": (left, "nil"),
                              **{emb[n]: (sig, n) for n in sig.names}})
    assert table.laws == {"pair": Law(unit="nil'")}
    assert validate_table(table).ok
    engine = Engine()

    def node(t):
        return engine.interpret_term(table, t).node

    lit = mk_app(both.op("lit", "a"), ())
    units = [mk_app(both.op(n), ()) for n in ("nil'", "nil")]
    assert node(mk_app(both.op("pair"), (lit, units[0]))) == node(lit)
    plain = node(mk_app(both.op("pair"), (lit, units[1])))
    assert engine._nodes[plain].children == (node(lit), node(units[1]))


def test_language_member_rejects_foreign_letters_and_kinds():
    table = language_table("ab")
    engine = Engine()
    h = engine.interpret_term(table, language_term(table, ABA))
    with pytest.raises(UnknownSymbol, match="'c'"):
        language_member(h, "abc")
    with pytest.raises(KindMismatch):
        language_member(periodic_stream(engine, (), (1,)), "a")

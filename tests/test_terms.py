import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corec.errors import ArityMismatch, ForeignSymbol, NotASummand
from corec.instances import stream_base_table, stream_table
from corec.terms import (
    App,
    Param,
    Slot,
    Var,
    embed_signature,
    free_vars,
    mk_app,
    sig_sum,
    signature,
    subterms,
    substitute,
)

K = signature(("plus", 2), ("times", 2), ("zero", 0))
V = signature(("shuffle", 2), ("f", 1))
KV = sig_sum(K, V)

PLUS = K.op("plus")
TIMES = K.op("times")
ZERO = K.op("zero")


def test_substituting_a_variable_gives_the_replacement():
    t = mk_app(PLUS, (Var("a"), Var("b")))
    assert substitute(Var("x"), {"x": t}) == t


def test_mk_app_examples():
    t = mk_app(PLUS, (Var("x"), Var("y")))
    assert t.op == PLUS and t.args == (Var("x"), Var("y"))
    assert mk_app(ZERO, ()).args == ()


def test_mk_app_arity_mismatch():
    with pytest.raises(ArityMismatch):
        mk_app(PLUS, (Var("x"),))


def test_mk_app_foreign_symbol():
    foreign = mk_app(V.op("f"), (Var("x"),))
    with pytest.raises(ForeignSymbol):
        mk_app(PLUS, (foreign, Var("y")))


def test_substitute_example():
    t = mk_app(PLUS, (Var("x"), Var("y")))
    replacement = mk_app(TIMES, (Var("z"), Var("z")))
    out = substitute(t, {"x": replacement})
    assert out == mk_app(PLUS, (replacement, Var("y")))


def test_substitute_leaves_params_alone():
    p = Param("some-handle")
    t = mk_app(PLUS, (p, Var("x")))
    assert substitute(t, {"x": Var("y")}) == mk_app(PLUS, (p, Var("y")))


def test_slots_are_leaves_of_every_walker():
    slot = Slot(7)
    t = mk_app(PLUS, (slot, Var("x")))
    assert substitute(t, {"x": slot}) == mk_app(PLUS, (slot, slot))
    embedded = embed_signature(t, KV)
    assert embedded.args == (slot, Var("x"))
    assert free_vars(t) == {"x"}
    assert slot in set(subterms(t))
    assert repr(slot) == "<node 7>"


# -- random terms for the law tests -----------------------------------------

_names = st.sampled_from(["x", "y", "z"])


def _terms(max_depth=4):
    leaves = _names.map(Var)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: mk_app(PLUS, p)),
            st.tuples(sub, sub).map(lambda p: mk_app(TIMES, p)),
            st.just(mk_app(ZERO, ())),
        ),
        max_leaves=8,
    )


_envs = st.dictionaries(_names, _terms(), max_size=3)


@given(_terms())
def test_substitute_identity_law(t):
    assert substitute(t, {}) is t or substitute(t, {}) == t


@given(_terms(), _envs, _envs)
def test_substitute_associativity_law(t, e1, e2):
    lhs = substitute(substitute(t, e1), e2)
    composed = {v: substitute(body, e2) for v, body in e1.items()}
    rhs = substitute(t, {**e2, **composed})
    assert lhs == rhs


@given(_names, _envs)
def test_substitute_left_unit(name, env):
    assert substitute(Var(name), env) == env.get(name, Var(name))


@given(_terms(), _envs)
def test_embed_commutes_with_substitute(t, env):
    emb_env = {v: embed_signature(b, KV) for v, b in env.items()}
    assert embed_signature(substitute(t, env), KV) == \
        substitute(embed_signature(t, KV), emb_env)


def test_embed_injection():
    t = mk_app(PLUS, (Var("x"), Var("y")))
    out = embed_signature(t, KV)
    assert out.op.name == "plus" and out.op.sig_id == KV.sig_id
    assert out.args == (Var("x"), Var("y"))


def test_embed_preserves_variables():
    assert embed_signature(Var("x"), KV) == Var("x")


def test_embed_along_nested_sums_composes():
    W = signature(("g", 1))
    KVW = sig_sum(KV, W)
    t = mk_app(PLUS, (Var("x"), mk_app(ZERO, ())))
    once = embed_signature(embed_signature(t, KV), KVW)
    direct = embed_signature(t, KVW)
    assert once == direct


def test_embed_not_a_summand():
    other = signature(("h", 1))
    with pytest.raises(NotASummand):
        embed_signature(mk_app(PLUS, (Var("x"), Var("y"))), other)


def test_embed_injective_on_symbols():
    # colliding names get primed apart, so distinct symbols stay distinct
    A = signature(("f", 1), ("g", 1))
    B = signature(("f", 2))
    AB = sig_sum(A, B)
    emb_a = AB.embedding_from(A)
    emb_b = AB.embedding_from(B)
    assert emb_a["f"] != emb_b["f"]
    assert AB.decl(emb_b["f"]).arity == 2


def _chain(t):
    """The symbols of a chain of unary applications, root first, and the
    leaf below them, read without recursion."""
    ops = []
    while isinstance(t, App):
        ops.append(t.op)
        (t,) = t.args
    return ops, t


def test_substitute_and_embed_take_a_mult_chain_10000_deep():
    assert sys.getrecursionlimit() <= 1000
    mult = stream_base_table().op("mult", Fraction(2))
    t = Var("x")
    for _ in range(10_000):
        t = App(mult, (t,))
    ops, leaf = _chain(substitute(t, {"x": Var("y")}))
    assert ops == [mult] * 10_000 and leaf == Var("y")
    full = stream_table().sig
    ops, leaf = _chain(embed_signature(t, full))
    assert ops == [full.op("mult", Fraction(2))] * 10_000 and leaf == Var("x")


def test_free_vars_examples():
    t = mk_app(PLUS, (Var("x"), mk_app(TIMES, (Var("y"), Var("x")))))
    assert free_vars(t) == {"x", "y"}
    assert free_vars(mk_app(ZERO, ())) == frozenset()
    assert free_vars(Param("p")) == frozenset()


def test_signature_sum_records_embedding():
    emb = KV.embedding_from(V)
    assert emb == {"shuffle": "shuffle", "f": "f"}
    with pytest.raises(NotASummand):
        KV.embedding_from(signature(("nope", 0)))


def test_parametric_arity_families():
    S = signature(("sum", None, True))
    assert S.op("sum", 3).arity == 3
    assert S.op("sum", 0).arity == 0

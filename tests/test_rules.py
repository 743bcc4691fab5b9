import random
from fractions import Fraction

import pytest

from corec.behavior import STREAM, Step, language_step, stream_step
from corec.errors import (
    ArityMismatch,
    DuplicateRule,
    ForeignSymbol,
    KindMismatch,
    MissingRule,
    UnguardedPath,
    ValidationFailed,
)
from corec.instances import (
    language_table,
    periodic_stream,
    periodic_values,
    shuffle_rps,
    stream_base_table,
    stream_table,
    stream_take,
)
from corec.rules import (
    GsosRule,
    RpsDef,
    RuleTable,
    SrpsDef,
    add_rule,
    arg_obs,
    build_table,
    extend_with_rps,
    register_srps,
    validate_table,
)
from corec.solver import Engine
from corec.terms import (
    App,
    Guard,
    OpSym,
    Signature,
    Slot,
    Var,
    embed_signature,
    mk_app,
    sig_sum,
    signature,
    subterms,
)


def _zip_plus_table():
    sig = signature(("plus", 2), ("zip", 2))

    def plus_rule(op, args):
        a, b = args
        return stream_step(a.head + b.head,
                           mk_app(sig.op("plus"), (a.tail, b.tail)))

    def zip_rule(op, args):
        a, b = args
        return stream_step(a.head, mk_app(sig.op("zip"),
                                          (b.self_term, a.tail)))

    return sig, [GsosRule(sig.op("plus"), plus_rule),
                 GsosRule(sig.op("zip"), zip_rule)]


def test_build_table_from_the_two_stream_rules():
    sig, rules = _zip_plus_table()
    table = build_table(STREAM, sig, rules)
    assert table.validation().ok
    assert set(table.rules) == {"plus", "zip"}


def test_empty_table_is_fine():
    table = build_table(STREAM, Signature(()), [])
    assert table.validation().ok
    assert table.sig.names == ()


def test_build_table_missing_rule():
    sig, rules = _zip_plus_table()
    with pytest.raises(MissingRule):
        build_table(STREAM, sig, rules[1:])


def test_build_table_duplicate_rule():
    sig, rules = _zip_plus_table()
    with pytest.raises(DuplicateRule):
        build_table(STREAM, sig, rules + [rules[0]])


def test_extend_with_rps_adds_shuffle():
    base = stream_base_table()
    table = extend_with_rps(base, shuffle_rps(base.sig))
    assert "shuffle" in table.sig.names
    assert table.validation().ok


def test_extend_rejects_undeclared_conclusion_symbols():
    base = stream_base_table()
    new = signature(("bad", 1))
    other = signature(("ghost", 1))

    def bad_rule(op, args):
        (a,) = args
        return stream_step(a.head, mk_app(other.op("ghost"), (a.tail,)))

    with pytest.raises(ForeignSymbol):
        extend_with_rps(base, RpsDef(new, {"bad": GsosRule(new.op("bad"),
                                                           bad_rule)}))


def test_old_conclusions_are_embedded_verbatim():
    # Carried rules are stored as written; the table resolves every symbol
    # of the old signature to the name embed_signature gives it.
    base = stream_base_table()
    table = extend_with_rps(base, shuffle_rps(base.sig))
    for name, rule in base.rules.items():
        assert table.rules[name] is rule
        assert table.origin[name] == (base.sig, name)
        op = base.sig.template(name)
        embedded = embed_signature(
            mk_app(op, [Var(f"x{i}") for i in range(op.arity)]), table.sig)
        assert table.resolve(op) == embedded.op.name
        assert table.author_op(embedded.op.name, embedded.op) == op
    step = Step(Fraction(2), (("tail", None),))
    obs = tuple(arg_obs(STREAM, i, step) for i in range(2))
    old = base.rules["plus"].conclude(base.op("plus"), obs)
    for _, t in old.children:
        pairs = zip(subterms(t), subterms(embed_signature(t, table.sig)))
        for node, emb in pairs:
            if isinstance(node, App):
                assert table.resolve(node.op) == emb.op.name


def _identity_rule(name):
    def identity(op, args):
        return stream_step(args[0].head, args[0].tail)

    return GsosRule(signature((name, 1)).op(name), identity)


def test_carried_rules_survive_eight_add_rule_layers():
    base = stream_table()
    table = base
    for k in range(8):
        table = add_rule(table, _identity_rule(f"id{k}"))
    for name, rule in base.rules.items():
        assert table.rules[name] is rule

    def zip_prefix(t):
        engine = Engine()
        x = periodic_stream(engine, (1, 2), (3, 0))
        y = periodic_stream(engine, (), (5, 4, 1))
        h = engine.interpret_op(t, t.op("zip"), [x, y])
        return stream_take(h, 290), len(engine._nodes)

    digits, nodes = zip_prefix(base)
    assert (digits, nodes) == zip_prefix(table)
    xs = periodic_values((1, 2), (3, 0), 145)
    ys = periodic_values((), (5, 4, 1), 145)
    assert digits == [v for pair in zip(xs, ys) for v in pair]


def test_layers_share_the_maps_of_names_they_do_not_rename():
    base = stream_base_table()
    table = base
    for k in range(3):
        table = add_rule(table, _identity_rule(f"id{k}"))
    assert table.renames[base.sig.sig_id] is base.renames[base.sig.sig_id]


def _ghost_term(sig, a):
    return mk_app(signature(("ghost", 1)).op("ghost"), (a.tail,))


def _wrong_arity_term(sig, a):
    return mk_app(OpSym("bad", 2, sig.sig_id), (a.tail, a.tail))


@pytest.mark.parametrize("bad_term", [_ghost_term, _wrong_arity_term])
def test_foreign_conclusions_raise_when_probed_and_unfolded(bad_term):
    sig = signature(("bad", 1))

    def bad_rule(op, args):
        (a,) = args
        return stream_step(a.head, bad_term(sig, a))

    rule = GsosRule(sig.op("bad"), bad_rule)
    with pytest.raises(ForeignSymbol):
        build_table(STREAM, sig, [rule])
    # Built directly, then extended: the bad rule and the report that
    # names it are carried over as they are.
    table = add_rule(RuleTable(STREAM, sig, {"bad": rule}),
                     _identity_rule("idle"))
    assert table.rules["bad"] is rule
    assert not table.validation().ok
    report = validate_table(table)
    assert any(v.startswith("rule 'bad'") and "outside the table" in v
               for v in report.violations)
    engine = Engine()
    ones = periodic_stream(engine, (), (1,))
    h = engine.interpret_op(table, table.op("bad"), [ones])
    with pytest.raises(ForeignSymbol):
        engine.unfold(h)


def _unary_extension(tail):
    """The stream base table extended by ``f/1``, which keeps its argument's
    head and continues to ``tail(base, s, a)``: ``s`` is the sum signature
    and ``a`` the premise."""
    base = stream_base_table()
    new = signature(("f", 1))
    s = sig_sum(base.sig, new)

    def rule(op, args):
        (a,) = args
        return stream_step(a.head, tail(base, s, a))

    return extend_with_rps(base, RpsDef(new, {"f": GsosRule(new.op("f"),
                                                            rule)}))


@pytest.mark.parametrize("tail, error", [
    (lambda base, s, a: App(s.op("plus"), (a.tail,)), ArityMismatch),
    (lambda base, s, a: Guard(Step(True, (("tail", a.tail),))), KindMismatch),
], ids=["app-arity", "nested-guard-label"])
def test_conclusions_the_engine_rejects_are_rejected_at_build(tail, error):
    with pytest.raises(error):
        _unary_extension(tail)


def test_a_summand_symbol_resolves_in_a_conclusion():
    table = _unary_extension(
        lambda base, s, a: mk_app(base.op("plus"), (a.tail, a.tail)))
    engine = Engine()
    ones = periodic_stream(engine, (), (1,))
    h = engine.interpret_op(table, table.op("f"), [ones])
    assert stream_take(h, 3) == [1, 2, 2]


def test_variables_in_conclusions_are_rejected():
    sig = signature(("loose", 1))

    def loose(op, args):
        return stream_step(args[0].head, Var("x"))

    with pytest.raises(ForeignSymbol):
        build_table(STREAM, sig, [GsosRule(sig.op("loose"), loose)])
    with pytest.raises(ForeignSymbol):
        register_srps(stream_base_table(), SrpsDef(
            sig, {"loose": lambda op, args: Guard(loose(op, args))}))


def test_a_slot_that_is_no_premise_is_rejected_at_build():
    sig = signature(("stray", 1))

    def stray(op, args):
        return stream_step(args[0].head, Slot("x"))

    rule = GsosRule(sig.op("stray"), stray)
    with pytest.raises(ForeignSymbol, match="not a premise"):
        build_table(STREAM, sig, [rule])
    report = RuleTable(STREAM, sig, {"stray": rule}).validation()
    assert not report.ok
    assert "not a premise" in report.violations[0]
    with pytest.raises(ForeignSymbol, match="not a premise"):
        register_srps(stream_base_table(), SrpsDef(
            sig, {"stray": lambda op, args: Guard(stray(op, args))}))


def test_variables_below_a_nested_guard_are_rejected():
    sig = signature(("loose", 1))

    def loose(op, args):
        return stream_step(args[0].head, Guard(stream_step(1, Var("x"))))

    with pytest.raises(ForeignSymbol):
        build_table(STREAM, sig, [GsosRule(sig.op("loose"), loose)])


def test_add_rule_intersection_to_a_partial_language_table():
    kind = language_table("ab").kind
    sig = signature(("empty", 0))

    def empty_rule(op, args):
        none = {a: mk_app(sig.op("empty"), ()) for a in kind.alphabet}
        return language_step(False, none, kind.alphabet)

    table = build_table(kind, sig, [GsosRule(sig.op("empty"), empty_rule)])

    one = signature(("inter", 2))
    s = sig_sum(table.sig, one)

    def inter_rule(op, args):
        a, b = args
        kids = {x: mk_app(s.op("inter"), (a.at(x), b.at(x)))
                for x in kind.alphabet}
        return language_step(a.head and b.head, kids, kind.alphabet)

    out = add_rule(table, GsosRule(one.op("inter"), inter_rule))
    assert set(out.sig.names) == {"empty", "inter"}
    assert out.validation().ok


def test_add_rule_r_multiplier():
    sig, rules = _zip_plus_table()
    table = build_table(STREAM, sig, rules)
    one = signature(("mult", 1, True))
    s = sig_sum(table.sig, one)

    def mult_rule(op, args):
        (a,) = args
        return stream_step(op.param * a.head, mk_app(op, (a.tail,)))

    out = add_rule(table, GsosRule(one.template("mult"), mult_rule,
                                   (Fraction(2),)))
    assert "mult" in out.sig.names
    assert out.validation().ok


def test_add_rule_duplicate():
    sig, rules = _zip_plus_table()
    table = build_table(STREAM, sig, rules)
    with pytest.raises(DuplicateRule):
        add_rule(table, rules[0])


def test_register_srps_degenerate_guard_is_accepted():
    base = stream_base_table()
    new = signature(("twice", 1))
    s = sig_sum(base.sig, new)

    def ctx(op, args):
        (a,) = args
        return Guard(stream_step(2 * a.head,
                                 mk_app(s.op("twice"), (a.tail,))))

    table = register_srps(base, SrpsDef(new, {"twice": ctx}))
    assert table.rules["twice"].outer == frozenset(base.sig.names)
    assert table.validation().ok


def test_register_srps_unguarded_context():
    base = stream_base_table()
    new = signature(("broken", 1))

    def ctx(op, args):
        (a,) = args
        return a.self_term  # bare placeholder leaf, no guard anywhere

    with pytest.raises(UnguardedPath):
        register_srps(base, SrpsDef(new, {"broken": ctx}))


def test_register_srps_outer_context_must_use_givens():
    base = stream_base_table()
    new = signature(("weird", 1))
    s = sig_sum(base.sig, new)

    def ctx(op, args):
        (a,) = args
        inner = Guard(stream_step(a.head, a.tail))
        return App(s.op("weird"), (inner,))  # new symbol in the outer part

    with pytest.raises(ForeignSymbol):
        register_srps(base, SrpsDef(new, {"weird": ctx}))


def _unnatural_rule(sig, name):
    # tests its premises for equality: its conclusion for zip(x, x) is not
    # the one for zip(x, y) with y renamed to x
    def rule(op, args):
        a, b = args
        tail = a.tail if a.tail == b.tail else \
            mk_app(sig.op(name), (b.self_term, a.tail))
        return stream_step(a.head, tail)

    return GsosRule(sig.op(name), rule)


def test_a_rule_comparing_its_premises_is_rejected():
    sig = signature(("zip", 2))
    with pytest.raises(ValidationFailed, match="not natural"):
        build_table(STREAM, sig, [_unnatural_rule(sig, "zip")])
    report = validate_table(RuleTable(STREAM, sig, {
        "zip": _unnatural_rule(sig, "zip")}))
    (violation,) = report.violations
    assert violation.startswith("rule 'zip'") and "not natural" in violation
    base = stream_base_table()
    one = signature(("zap", 2))
    s = sig_sum(base.sig, one)
    with pytest.raises(ValidationFailed, match="not natural"):
        add_rule(base, _unnatural_rule(s, "zap"))
    with pytest.raises(ValidationFailed, match="not natural"):
        extend_with_rps(base, RpsDef(one, {"zap": _unnatural_rule(s, "zap")}))


def test_validate_reports_missing_rule():
    sig, rules = _zip_plus_table()
    table = RuleTable(STREAM, sig, {"plus": rules[0]})
    report = validate_table(table)
    assert report.violations == ("missing rule for 'zip'",)
    assert table.validation() == report


def test_validate_reports_unguarded_srps():
    sig, rules = _zip_plus_table()
    bad_sig = sig_sum(sig, signature(("oops", 1)))
    oops = GsosRule(bad_sig.op("oops"), lambda op, args: args[0].self_term,
                    outer=frozenset(sig.names))
    table = RuleTable(STREAM, bad_sig,
                      {**{r.op.name: r for r in rules}, "oops": oops},
                      origin={**{n: (sig, n) for n in sig.names},
                              "oops": (bad_sig, "oops")})
    report = validate_table(table)
    assert table.validation() == report
    (violation,) = report.violations
    assert violation.startswith("rule 'oops'") and "no guard" in violation


def test_sandwiched_rules_carry_over_as_written():
    from corec.instances import DEFAULT_ACTIONS, ccs_table

    base = ccs_table(DEFAULT_ACTIONS)
    alt = base.rules["alt"]
    assert alt.outer is not None
    assert all(r.outer is None for n, r in base.rules.items() if n != "alt")
    table = base
    for k in range(3):
        table = add_rule(table, GsosRule(
            signature((f"id{k}", 1)).op(f"id{k}"),
            lambda op, args: Step(None, args[0].moves)))
    assert table.rules["alt"] is alt
    assert table.validation().ok


def test_extend_rejects_an_ordinary_rule_concluding_a_context():
    base = stream_base_table()
    new = signature(("twice", 1))
    twice = _doubling_srps(base.sig).contexts["twice"]
    with pytest.raises(KindMismatch):
        extend_with_rps(base, RpsDef(new, {"twice": GsosRule(new.op("twice"),
                                                              twice)}))


def test_instance_tables_validate_cleanly():
    from corec.instances import DEFAULT_ACTIONS, ccs_table, tree_table

    assert validate_table(stream_table()).ok
    assert validate_table(tree_table()).ok
    assert validate_table(language_table("ab")).ok
    assert validate_table(ccs_table(DEFAULT_ACTIONS)).ok


def test_tables_are_probed_once(monkeypatch):
    from corec import rules

    probed = []
    probe = rules._probe

    def counting(kind, sig, name, *rest):
        probed.append(name)
        return probe(kind, sig, name, *rest)

    monkeypatch.setattr(rules, "_probe", counting)
    table = language_table.__wrapped__("ab")
    assert len(probed) == 10
    assert table.validation().ok and len(probed) == 10
    idle = signature(("idle", 1)).op("idle")
    wider = add_rule(table, GsosRule(
        idle, lambda op, args: Step(args[0].label, args[0].tails)))
    assert probed[10:] == ["idle"]
    assert wider.validation().ok and len(probed) == 11
    doubled = register_srps(stream_table(), _doubling_srps(stream_table().sig))
    assert doubled.validation().ok and probed[11:] == ["twice"]
    direct = RuleTable(table.kind, table.sig, table.rules, origin=table.origin)
    assert len(probed) == 22
    assert direct.validation().ok and len(probed) == 22


def _doubling_srps(base_sig):
    new = signature(("twice", 1))
    s = sig_sum(base_sig, new)

    def ctx(op, args):
        (a,) = args
        return Guard(stream_step(2 * a.head,
                                 mk_app(s.op("twice"), (a.tail,))))

    return SrpsDef(new, {"twice": ctx})


def test_srps_and_rps_extensions_commute():
    from corec.checking import bounded_equal

    base = stream_base_table()
    first = register_srps(extend_with_rps(base, shuffle_rps(base.sig)),
                          _doubling_srps(sig_sum(base.sig,
                                                 shuffle_rps(base.sig).new_sig)))
    second = extend_with_rps(register_srps(base, _doubling_srps(base.sig)),
                             shuffle_rps(sig_sum(base.sig,
                                                 signature(("twice", 1)))))
    engine = Engine()
    rng = random.Random(9)
    for _ in range(6):
        a = periodic_stream(engine, (rng.randint(0, 3),),
                            (rng.randint(1, 3),))
        b = periodic_stream(engine, (), (rng.randint(1, 3),))
        for name, handles in (("shuffle", [a, b]), ("twice", [a])):
            one = engine.interpret_op(first, first.op(name), handles)
            two = engine.interpret_op(second, second.op(name), handles)
            assert bounded_equal(one, two, 8)

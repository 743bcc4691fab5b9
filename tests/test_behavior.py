from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corec.behavior import (
    CUT,
    LanguageKind,
    ObservationTree,
    ProcessKind,
    STREAM,
    Step,
    TREE,
    canonicalize_step,
    is_prefix,
    process_actions,
    process_step,
    rat,
    stream_step,
    truncate,
)
from corec.errors import BadActionStructure
from corec.frontends import parse_system
from corec.solver import Engine

ACTIONS = process_actions("a", "b")


def test_rat_parses_exactly():
    assert rat("1/3") == Fraction(1, 3)
    assert rat("0.25") == Fraction(1, 4)
    assert rat(7) == Fraction(7)
    with pytest.raises(TypeError):
        rat(0.1)


def test_canonicalize_sorts_and_deduplicates():
    s = process_step((("b", 1), ("a", 2), ("a", 2)))
    out = canonicalize_step(ACTIONS, s)
    assert out.children == ((("a", 0), 2), (("b", 0), 1))


def test_canonicalize_empty():
    assert canonicalize_step(ACTIONS, process_step(())).children == ()


def test_canonicalize_keeps_distinct_moves_with_same_action():
    s = process_step((("a", 5), ("a", 2)))
    out = canonicalize_step(ACTIONS, s)
    assert out.children == ((("a", 0), 2), (("a", 1), 5))


def test_canonicalize_leaves_deterministic_steps_alone():
    s = stream_step(1, "x")
    assert canonicalize_step(STREAM, s) is s


def test_canonicalize_idempotent():
    s = process_step((("b", 1), ("a", 2), ("a", 3), ("a", 2)))
    once = canonicalize_step(ACTIONS, s)
    assert canonicalize_step(ACTIONS, once) == once


def test_deterministic_step_equality_is_per_port():
    assert stream_step(1, "x") == stream_step(1, "x")
    assert stream_step(1, "x") != stream_step(1, "y")
    assert stream_step(1, "x") != stream_step(2, "x")


def test_process_kind_validates_structure():
    with pytest.raises(BadActionStructure):
        ProcessKind(("a", "tau"), (("a", "a'"), ("tau", "tau")), "tau")
    with pytest.raises(BadActionStructure):
        ProcessKind(("a", "b", "tau"),
                    (("a", "b"), ("b", "a"), ("tau", "a")), "tau")


def test_process_complement_involution():
    assert ACTIONS.co("a") == "a'"
    assert ACTIONS.co("a'") == "a"
    assert ACTIONS.co("tau") == "tau"


def test_tree_kind_ports():
    assert TREE.ports == ("L", "R")
    assert LanguageKind(("a", "b")).ports == ("a", "b")


# observation trees


def _chain(depth):
    tree = CUT
    for i in reversed(range(depth)):
        tree = ObservationTree(Fraction(i), (("tail", tree),))
    return tree


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_truncation_gives_prefixes(d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    deep = _chain(hi)
    assert truncate(deep, lo) == _chain(lo)
    assert is_prefix(truncate(deep, lo), deep)


def test_depth_zero_is_a_cut():
    assert truncate(_chain(3), 0) is CUT
    assert CUT.cut


def test_steps_and_trees_are_slotted_values():
    step, same = stream_step(1, "x"), stream_step(Fraction(1), "x")
    assert step == same and hash(step) == hash(same) and {step: 1}[same] == 1
    assert step != stream_step(1, "y")
    assert repr(step) == \
        "Step(label=Fraction(1, 1), children=(('tail', 'x'),))"
    tree = _chain(2)
    assert tree == _chain(2) and hash(tree) == hash(_chain(2))
    assert {tree: 1}[_chain(2)] == 1 and tree != _chain(3)
    assert repr(tree) == "(0 tail:(1 tail:#))" and repr(CUT) == "#"
    for value in (step, tree, CUT):
        assert not hasattr(value, "__dict__")


def _same_chain(a, b):
    """``a == b`` for two chains of one port, walked without recursion."""
    while not (a.cut or b.cut):
        if a.label != b.label or a.children[0][0] != b.children[0][0]:
            return False
        a, b = a.children[0][1], b.children[0][1]
    return a.cut and b.cut


THUE_MORSE = ("kind stream\nu = 0 . t\nt = 1 . a\na = zip(1 . a, 0 . b)\n"
              "b = zip(0 . b, 1 . a)\n")


def test_truncate_and_is_prefix_at_depth_ten_thousand():
    engine = Engine()
    sol = engine.solve(parse_system(THUE_MORSE))
    deep = engine.observe(sol["u"], 10_001)
    direct, flipped = CUT, CUT
    for n in reversed(range(10_000)):
        digit = Fraction(bin(n).count("1") % 2)
        direct = ObservationTree(digit, (("tail", direct),))
        flipped = ObservationTree(1 - digit if n == 9_000 else digit,
                                  (("tail", flipped),))
    cut = truncate(deep, 10_000)
    assert _same_chain(cut, direct) and not _same_chain(cut, flipped)
    assert _same_chain(truncate(direct, 20_000), direct)
    assert is_prefix(cut, deep) and is_prefix(direct, deep)
    assert not is_prefix(deep, cut) and not is_prefix(flipped, deep)


def test_deep_observations_compare_hash_and_print():
    engine = Engine()
    deep = engine.observe(engine.solve(parse_system(THUE_MORSE))["u"], 10_000)
    direct, changed = CUT, CUT
    for n in reversed(range(10_000)):
        digit = Fraction(bin(n).count("1") % 2)
        direct = ObservationTree(digit, (("tail", direct),))
        changed = ObservationTree(1 - digit if n == 9_999 else digit,
                                  (("tail", changed),))
    assert deep == direct and hash(deep) == hash(direct)
    assert {deep: 1}[direct] == 1
    assert deep != changed and not deep == changed
    text = repr(deep)
    assert text == repr(direct) and text != repr(changed)
    assert text.startswith("(0 tail:(1 tail:(1 tail:(0 tail:(1 tail:")
    assert text.endswith(" tail:#" + ")" * 10_000)

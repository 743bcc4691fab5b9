"""Behavior kinds, one-step observations, and finite observation trees.

A behavior kind is one functor: it fixes the label domain and the ports of
one-step observations.  Four kinds are built in: streams and infinite binary
trees over exact rationals, formal languages over a finite alphabet, and
finitely branching processes over an action set with involutive complement.
A kind also states the syntax that the parsers read: its file
``header``, the parameter type (``rat``, ``letter``, ``bit``) of each
parametric symbol (``params``), the unary symbol ``r . t`` denotes in term
position (``prefix``), and the head and port clause names of its behavioral
differential equations (``clauses``); agent files have their own grammar.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import BadActionStructure, KindMismatch


class _LabelRead(BaseException):
    """A `SymbolicLabel` read; no Exception, which a rule might swallow."""


class SymbolicLabel:
    """A rational label the planner does not read: premise ``index``'s, or
    (``index`` -1) ``+ - * /`` and unary minus over such labels, ints and
    Fractions, recorded as ``ev``, a function of the premises' labels.  Any
    other use, a float operand included, raises `_LabelRead`."""

    __slots__ = ("index", "ev")

    def __init__(self, index, ev=None):
        self.index, self.ev = index, ev or operator.itemgetter(index)

    def at(self, kind, labels):
        """The value at the premises' ``labels``, checked as a label."""
        value = self.ev(labels)
        kind.check_label(value)
        return value

    def __neg__(self):
        return self * -1

    def _arith(fn):
        def method(self, other):
            cls, f = other.__class__, self.ev
            if cls not in (SymbolicLabel, int, Fraction):
                raise _LabelRead
            g = other.ev if cls is SymbolicLabel else lambda ls: other
            return SymbolicLabel(-1, lambda ls: fn(f(ls), g(ls)))
        return method

    def _read(self, *_):
        raise _LabelRead

    __add__ = __radd__ = _arith(operator.add)
    __mul__ = __rmul__ = _arith(operator.mul)
    __sub__, __rsub__ = _arith(operator.sub), _arith(lambda x, y: y - x)
    __truediv__, __rtruediv__ = _arith(operator.truediv), _arith(
        lambda x, y: y / x)
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = \
        __bool__ = __int__ = __float__ = __index__ = __repr__ = __str__ = \
        __format__ = __getattr__ = _read
    del _arith, _read


def rat(value) -> Fraction:
    """Exact rational from int, Fraction, or a `p/q` / decimal string."""
    if isinstance(value, Fraction) or value.__class__ is SymbolicLabel:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational label")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class StreamKind:
    name = header = "stream"
    deterministic = True
    rational = True
    ports: Tuple[str, ...] = ("tail",)
    params = {"const": "rat", "mult": "rat", "register": "rat"}
    prefix = "register"
    clauses = ("head", "tail")

    def check_label(self, label):
        if not isinstance(label, (Fraction, SymbolicLabel)):
            raise KindMismatch(f"stream label must be a Fraction, got {label!r}")


@dataclass(frozen=True)
class TreeKind:
    name = header = "tree"
    deterministic = True
    rational = True
    ports: Tuple[str, ...] = ("L", "R")
    params = {"const": "rat"}
    prefix = None
    clauses = ("root", "left", "right")

    def check_label(self, label):
        if not isinstance(label, (Fraction, SymbolicLabel)):
            raise KindMismatch(f"tree label must be a Fraction, got {label!r}")


@dataclass(frozen=True)
class LanguageKind:
    alphabet: Tuple[str, ...]
    name = "language"
    deterministic = True
    rational = False
    params = {"char": "letter", "prefix": "letter", "cons": "bit"}
    prefix = "prefix"
    clauses = None

    @property
    def ports(self):
        return self.alphabet

    @property
    def header(self):
        return "language " + "".join(self.alphabet)

    def check_label(self, label):
        if not isinstance(label, bool):
            raise KindMismatch(f"language label must be a bool, got {label!r}")


@dataclass(frozen=True)
class ProcessKind:
    """Finitely branching labelled transitions; label slot unused (None)."""

    actions: Tuple[str, ...]
    complement: Tuple[Tuple[str, str], ...]
    tau: str
    name = header = "process"
    deterministic = False
    rational = False
    params, prefix, clauses = {}, None, None

    def __post_init__(self):
        comp = dict(self.complement)
        if set(comp) != set(self.actions):
            raise BadActionStructure("complement must be total on the actions")
        for a, b in comp.items():
            if b not in comp or comp[b] != a:
                raise BadActionStructure(f"complement not involutive at {a!r}")
        if self.tau not in comp or comp[self.tau] != self.tau:
            raise BadActionStructure("tau must be its own complement")

    def co(self, action: str) -> str:
        for a, b in self.complement:
            if a == action:
                return b
        raise KindMismatch(f"unknown action {action!r}")

    def action_index(self, action: str) -> int:
        try:
            return self.actions.index(action)
        except ValueError:
            raise KindMismatch(f"unknown action {action!r}") from None

    def check_label(self, label):
        if label is not None:
            raise KindMismatch("process observations carry no label")


STREAM = StreamKind()
TREE = TreeKind()


def process_actions(*base_names) -> ProcessKind:
    """Action structure with a primed complement for every base name, and
    the silent action ``tau``."""
    actions = []
    comp = []
    for n in sorted(base_names):
        co = n + "'"
        actions.extend([n, co])
        comp.extend([(n, co), (co, n)])
    actions.append("tau")
    comp.append(("tau", "tau"))
    return ProcessKind(tuple(actions), tuple(comp), "tau")


@dataclass(slots=True, unsafe_hash=True)
class Step:
    """One observation: a label plus a finite port-indexed family of children.

    For deterministic kinds the ports are exactly the kind's ports, once
    each, in order.  For processes the ports are (action, index) pairs at
    the node level; rule conclusions may use bare action strings, which the
    engine canonicalizes.  A slotted value, equal and hashed by its fields.
    """

    label: object
    children: tuple

    def child(self, port):
        for p, x in self.children:
            if p == port:
                return x
        raise KeyError(port)


def stream_step(label, tail) -> Step:
    return Step(rat(label), (("tail", tail),))


def tree_step(label, left, right) -> Step:
    return Step(rat(label), (("L", left), ("R", right)))


def language_step(accepting, children, alphabet) -> Step:
    """children: mapping letter -> continuation, total on the alphabet."""
    return Step(bool(accepting), tuple((a, children[a]) for a in alphabet))


def process_step(moves) -> Step:
    return Step(None, tuple(moves))


def move_action(port):
    """Action name of a process port, which is either `a` or `(a, index)`."""
    return port[0] if isinstance(port, tuple) else port


def canonicalize_step(kind, step: Step) -> Step:
    """Set semantics for process steps: sort, deduplicate, index ports.

    Children are ordered by (action order, child) and exact duplicates
    (same action, same child) collapse; deterministic kinds pass through
    unchanged.  Children must be totally ordered, as the engine's node ids
    are.
    """
    if kind.deterministic:
        return step
    seen = set()
    moves = []
    for port, child in step.children:
        action = move_action(port)
        if (action, child) in seen:
            continue
        seen.add((action, child))
        moves.append(((kind.action_index(action), child), action, child))
    moves.sort(key=lambda m: m[0])
    counts = {}
    out = []
    for _, action, child in moves:
        idx = counts.get(action, 0)
        counts[action] = idx + 1
        out.append(((action, idx), child))
    return Step(None, tuple(out))


def check_step(kind, step: Step):
    """Port-discipline check; raises KindMismatch on violation."""
    kind.check_label(step.label)
    if kind.deterministic:
        ports = tuple(p for p, _ in step.children)
        if ports != tuple(kind.ports):
            raise KindMismatch(
                f"{kind.name} step must cover ports {kind.ports}, got {ports}"
            )
    else:
        for p, _ in step.children:
            kind.action_index(move_action(p))


@dataclass(slots=True)
class ObservationTree:
    """Finite unfolding of steps; leaves below the depth bound are cuts.
    Equality, hash and repr walk an explicit stack, so any depth works."""

    label: object = None
    children: tuple = ()
    cut: bool = False

    def _preorder(self):
        """Each node's cut flag, label and ports, parents first."""
        todo = [self]
        while todo:
            t = todo.pop()
            yield t.cut, t.label, tuple([p for p, _ in t.children])
            todo.extend([c for _, c in reversed(t.children)])

    def __eq__(self, other):
        # the ports fix each node's arity, so equal entries are equal trees
        if other.__class__ is not ObservationTree:
            return NotImplemented
        return all(map(operator.eq, self._preorder(), other._preorder()))

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        out, todo = [], [self]
        while todo:
            t = todo.pop()
            if t.__class__ is str:
                out.append(t)
            elif t.cut:
                out.append("#")
            else:
                out.append(f"({t.label} ")
                todo.append(")")
                for i in reversed(range(len(t.children))):
                    port, child = t.children[i]
                    todo += [child, f", {port}:" if i else f"{port}:"]
        return "".join(out)


CUT = ObservationTree(cut=True)


def truncate(tree: ObservationTree, depth: int) -> ObservationTree:
    """``tree`` cut off below ``depth`` by a stack of ``(tree, depth)`` pairs,
    each kept tree below its pairs to assemble their cuts from ``done``."""
    todo, done = [(tree, depth)], []
    while todo:
        item = todo.pop()
        if item.__class__ is ObservationTree:
            k = len(done) - len(item.children)
            done[k:] = [ObservationTree(item.label, tuple(
                zip([p for p, _ in item.children], done[k:])))]
        elif item[0].cut or item[1] <= 0:
            done.append(CUT)
        else:
            tree, depth = item
            todo.append(tree)
            todo.extend([(c, depth - 1) for _, c in reversed(tree.children)])
    return done[0]


def is_prefix(shallow: ObservationTree, deep: ObservationTree) -> bool:
    """True when ``shallow`` is a cut-truncation of ``deep``, by a stack."""
    todo = [(shallow, deep)]
    while todo:
        s, d = todo.pop()
        if s.cut:
            continue
        if d.cut or s.label != d.label or \
                [p for p, _ in s.children] != [q for q, _ in d.children]:
            return False
        todo.extend(zip([c for _, c in s.children],
                        [e for _, e in d.children]))
    return True

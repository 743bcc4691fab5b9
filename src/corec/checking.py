"""Bounded equality, solution-diagram verification, and check suites.

Equality of solved states is approximated to a finite depth: identical
observation trees for the deterministic kinds, depth-bounded mutual
simulation with set semantics for processes.  Failures carry a witness at
the least depth where the behaviors diverge.

Comparison runs on the node ids of the engines' arenas, not on handles:
the deterministic kinds are searched breadth first over state pairs, and
processes by a mutual simulation memoized on node-id pairs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .behavior import check_depth, move_action
from .errors import InvalidHandle, KindMismatch, UnknownSuite
from .solver import Engine, ExternalRhs, SolutionHandle, System
from .terms import App, Guard, Var, mk_app


@dataclass(frozen=True)
class Witness:
    """Least depth and observation path at which two behaviors diverge."""

    depth: int
    path: tuple
    detail: str


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    witness: Optional[Witness] = None
    detail: str = ""

    def to_text(self) -> str:
        if self.passed:
            return f"PASS {self.name}" + (f" ({self.detail})" if self.detail else "")
        where = ""
        if self.witness is not None:
            where = (f" [depth {self.witness.depth}, path "
                     f"{list(self.witness.path)}: {self.witness.detail}]")
        return f"FAIL {self.name}{where}" + (
            f" ({self.detail})" if self.detail else "")

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = {
                "depth": self.witness.depth,
                "path": [str(p) for p in self.witness.path],
                "detail": self.witness.detail,
            }
        return out


# ---------------------------------------------------------------------------
# Bounded equality
#
# Both searches reach an engine only through ``Engine.node_step``.


def _check_states(h1, h2):
    """Raise InvalidHandle unless both are live states of their engines."""
    for h in (h1, h2):
        if not isinstance(h, SolutionHandle):
            raise InvalidHandle(f"{h!r} is not a state")
        h.engine.check_handle(h)


def bounded_equal(h1: SolutionHandle, h2: SolutionHandle, depth: int) -> bool:
    """Depth-d behavioral equality; for processes one mutual simulation."""
    _check_states(h1, h2)
    check_depth(depth)
    if h1.kind.deterministic or h1.kind != h2.kind:
        return find_divergence(h1, h2, depth) is None
    sim = _Simulation(h1.engine, h2.engine)
    return sim.known(h1.node, h2.node, depth) or \
        sim.unmatched(h1.node, h2.node, depth) is None


def find_divergence(h1: SolutionHandle, h2: SolutionHandle,
                    depth: int) -> Optional[Witness]:
    """Minimal-depth divergence witness, or None when depth-d equal."""
    _check_states(h1, h2)
    check_depth(depth)
    if h1.kind != h2.kind:
        raise KindMismatch(
            f"cannot compare {h1.kind.name} with {h2.kind.name}")
    walk = _pair_search if h1.kind.deterministic else _simulation_search
    return walk(h1.engine, h1.node, h2.engine, h2.node, depth)


def _pair_search(e1, n1, e2, n2, depth) -> Optional[Witness]:
    """Breadth-first search over (left id, right id) pairs, ports in order.

    A pair is expanded once, from the port-order-least of its shortest
    paths, so the first label mismatch is the minimal-depth,
    port-order-least witness.
    """
    same = e1 is e2
    parent = {(n1, n2): None}
    level = [(n1, n2)]
    for d in range(depth):
        following = []
        for pair in level:
            s1, s2 = e1.node_step(pair[0]), e2.node_step(pair[1])
            if s1.label != s2.label:
                return Witness(d, _path_to(parent, pair),
                               f"label {s1.label} != {s2.label}")
            for (port, c1), (_, c2) in zip(s1.children, s2.children):
                child = (c1, c2)
                if child not in parent and not (same and c1 == c2):
                    parent[child] = (pair, port)
                    following.append(child)
        level = following
    return None


def _path_to(parent, pair) -> tuple:
    path = []
    while parent[pair] is not None:
        pair, port = parent[pair]
        path.append(port)
    return tuple(reversed(path))


class _Simulation:
    """Depth-bounded mutual simulation, memoized on node-id pairs: a pair
    related to depth d is related to every lesser depth, one refuted at d
    to every greater one.  The search is depth first on an explicit stack
    of `_expand` generators, one per pair being expanded, each sent the
    verdicts of the child pairs it yields."""

    def __init__(self, e1, e2):
        self.e1, self.e2 = e1, e2
        self.same = e1 is e2
        self.proven, self.refuted = {}, {}

    def known(self, a, b, d):
        """The verdict for ``(a, b)`` at depth ``d`` when a base case or the
        memo gives it, else None."""
        if d <= 0 or (self.same and a == b):
            return True
        key = (a, b)
        if self.proven.get(key, 0) >= d:
            return True
        if self.refuted.get(key, d + 1) <= d:
            return False
        return None

    def unmatched(self, a, b, d):
        """First move of either side with no depth-(d-1) match, or None;
        every pair expanded on the way, this one included, is memoized."""
        stack = [(a, b, d, self._expand(a, b, d))]
        verdict = None
        while True:
            a, b, d, frame = stack[-1]
            try:
                c1, c2 = frame.send(verdict)
            except StopIteration as done:
                stack.pop()
                found = done.value
                (self.proven if found is None else self.refuted)[(a, b)] = d
                if not stack:
                    return found
                verdict = found is None
                continue
            verdict = self.known(c1, c2, d - 1)
            if verdict is None:
                stack.append((c1, c2, d - 1, self._expand(c1, c2, d - 1)))

    def _expand(self, a, b, d):
        """Yield, in move order, the child pairs that could match each move
        of ``a`` and then of ``b`` (the other side's moves grouped by
        action once), stopping at a move's first related pair; return the
        first move with none as ``(side, port)``, or None."""
        s1, s2 = self.e1.node_step(a), self.e2.node_step(b)
        for side, mine, theirs in (("left", s1.children, s2.children),
                                   ("right", s2.children, s1.children)):
            by_action = {}
            for q, c in theirs:
                by_action.setdefault(move_action(q), []).append(c)
            for p, c in mine:
                for other in by_action.get(move_action(p), ()):
                    if (yield (c, other) if side == "left" else (other, c)):
                        break
                else:
                    return side, p
        return None


def _simulation_search(e1, n1, e2, n2, depth) -> Optional[Witness]:
    """Mutual simulation once at the full depth; only when that fails is
    the least depth at which a move of one side has no match on the other
    searched for, over the same memo, doubling from depth 1 and then
    halving: a pair refuted at some depth is refuted at every greater one."""
    sim = _Simulation(e1, e2)
    found = None if sim.known(n1, n2, depth) else \
        sim.unmatched(n1, n2, depth)
    if found is None:
        return None
    lo, hi = 0, depth
    while hi - lo > 1:
        mid = min(2 * lo or 1, (lo + hi) // 2)
        at_mid = sim.unmatched(n1, n2, mid)
        if at_mid is None:
            lo = mid
        else:
            hi, found = mid, at_mid
    side, p = found
    return Witness(0, (p,), f"{side} move {move_action(p)!r} "
                            f"has no depth-{hi - 1} match")


# ---------------------------------------------------------------------------
# Solution diagram


def diagram_check(system: System, sol, depth: int,
                  name: str = "solution-diagram") -> CheckReport:
    """Verify that each solved variable unfolds as its right-hand side.

    Observing the solution of x to the given depth must equal first
    applying x's right-hand side to the solved states and then observing.
    """
    for var in system.vars:
        engine = sol[var].engine
        expected = engine.materialize_rhs(system, var, sol)
        witness = find_divergence(sol[var], expected, depth)
        if witness is not None:
            return CheckReport(name, False, witness, f"variable {var!r}")
    return CheckReport(name, True, detail=f"{len(system.vars)} variables")


# ---------------------------------------------------------------------------
# Suites


def _divergence_over(pairs, depth):
    for label, a, b in pairs:
        w = find_divergence(a, b, depth)
        if w is not None:
            return w, label
    return None, None


def _suite_modularity(seed: int):
    from . import instances as inst

    rng = random.Random(seed or 0xA11CE)
    reports = []
    engine = Engine()
    base = inst.stream_base_table()
    full = inst.stream_table()

    def rand_stream():
        pre, cyc = inst.random_periodic_spec(rng)
        return inst.periodic_stream(engine, pre, cyc)

    # extending a table must leave the old operations' behavior untouched
    pairs = []
    shuffled = inst.extend_with_rps(base, inst.shuffle_rps(base.sig))
    for _ in range(8):
        a, b = rand_stream(), rand_stream()
        for opname in ("plus", "zip"):
            pairs.append((opname,
                          engine.interpret_op(base, base.op(opname), [a, b]),
                          engine.interpret_op(shuffled, shuffled.op(opname),
                                              [a, b])))
        r = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        pairs.append(("mult",
                      engine.interpret_op(base, base.op("mult", r), [a]),
                      engine.interpret_op(shuffled, shuffled.op("mult", r),
                                          [a])))
    w, label = _divergence_over(pairs, 8)
    reports.append(CheckReport("rps-restriction", w is None, w,
                               label or "old symbols unchanged at depth 8"))

    # two independent extensions commute
    t12 = inst.extend_with_rps(
        inst.extend_with_rps(base, inst.shuffle_rps(base.sig)),
        inst.convolution_rps(
            inst.extend_with_rps(base, inst.shuffle_rps(base.sig)).sig))
    t21 = inst.extend_with_rps(
        inst.extend_with_rps(base, inst.convolution_rps(base.sig)),
        inst.shuffle_rps(
            inst.extend_with_rps(base, inst.convolution_rps(base.sig)).sig))
    pairs = []
    for _ in range(8):
        a, b = rand_stream(), rand_stream()
        for opname in ("shuffle", "conv", "plus"):
            pairs.append((opname,
                          engine.interpret_op(t12, t12.op(opname), [a, b]),
                          engine.interpret_op(t21, t21.op(opname), [a, b])))
    w, label = _divergence_over(pairs, 8)
    reports.append(CheckReport("rps-order-independence", w is None, w,
                               label or "either extension order, depth 8"))

    # solving a composed system equals solving in stages
    w = _compositionality_stream(engine) or \
        _compositionality_process(Engine())
    reports.append(CheckReport(
        "compositionality", w is None, w,
        "streams at depth 12, processes at depth 4"))

    # a definition posed as a degenerate sandwiched scheme solves the same
    pairs = []
    degenerate = inst.register_srps(base, _shuffle_as_srps(base.sig))
    for _ in range(8):
        a, b = rand_stream(), rand_stream()
        pairs.append(("shuffle",
                      engine.interpret_op(full, full.op("shuffle"), [a, b]),
                      engine.interpret_op(degenerate,
                                          degenerate.op("shuffle"), [a, b])))
    w, label = _divergence_over(pairs, 8)
    reports.append(CheckReport("srps-equals-rps", w is None, w,
                               label or "degenerate guard at root, depth 8"))

    reports.append(_star_derivative_report(rng))
    return reports


def _shuffle_as_srps(base_sig):
    from . import instances as inst
    from .rules import SrpsDef

    rps = inst.shuffle_rps(base_sig)
    rule = rps.rules["shuffle"].conclude

    def ctx(op, args):
        return Guard(rule(op, args))

    return SrpsDef(rps.new_sig, {"shuffle": ctx})


def _compositionality_stream(engine: Engine):
    from . import instances as inst
    from .behavior import STREAM, stream_step

    table = inst.stream_table()
    plus = table.op("plus")
    f = System(STREAM, table, ("p",),
               {"p": Guard(stream_step(1, Var("p")))})
    e = System(STREAM, table, ("q", "w"), {
        "q": Guard(stream_step(Fraction(1, 2),
                               mk_app(plus, (Var("q"), Var("w"))))),
        "w": ExternalRhs("p"),
    })
    return engine.composition_witness(f, e, depth=12)[1]


def _compositionality_process(engine: Engine):
    from . import instances as inst
    from .behavior import process_step

    table = inst.ccs_table(inst.DEFAULT_ACTIONS)
    zero = mk_app(table.op("nil"), ())
    c0 = mk_app(table.op("pref", "c"), (zero,))
    par_xc = mk_app(table.op("par"), (Var("x"), c0))
    f = System(table.kind, table, ("x",), {
        "x": Guard(process_step((("a", par_xc), ("b", zero)))),
    })
    y_plus_z = mk_app(table.op("sum", 2), (Var("y"), Var("z")))
    e = System(table.kind, table, ("y", "z"), {
        "y": App(table.op("par"), (
            Guard(process_step((("b", y_plus_z),))),
            Guard(process_step((("a", Var("z")),))),
        )),
        "z": ExternalRhs("x"),
    })
    return engine.composition_witness(f, e, depth=4)[1]


def _star_derivative_report(rng) -> CheckReport:
    from . import instances as inst

    table = inst.language_table("ab")
    engine = Engine()
    pairs = []
    for _ in range(10):
        expr = inst.random_language_expr(rng, "ab", 3)
        lang = engine.interpret_term(table, inst.language_term(table, expr))
        star = engine.interpret_op(table, table.op("star"), [lang])
        for port, letter in enumerate("ab"):
            lhs = engine.walk(star.node, (port,))
            deriv = engine.walk(lang.node, (port,))
            rhs = engine.interpret_op(
                table, table.op("concat"),
                [SolutionHandle(engine, deriv, table.kind), star])
            pairs.append((f"star-deriv {letter}",
                          SolutionHandle(engine, lhs, table.kind), rhs))
    w, label = _divergence_over(pairs, 5)
    return CheckReport("star-derivative-law", w is None, w,
                       label or "(L*)^a = L^a . L* at depth 5")


def _suite_language_laws(seed: int):
    from . import instances as inst

    rng = random.Random(seed or 0x1A26)
    table = inst.language_table("ab")
    engine = Engine()
    words = ["".join(w) for n in range(7)
             for w in itertools.product("ab", repeat=n)]
    bad = None
    for i in range(50):
        expr = inst.random_language_expr(rng, "ab", 4)
        handle = engine.interpret_term(table, inst.language_term(table, expr))
        language = inst.oracle_eval("language_words", expr, 6, ("a", "b"))
        for word in words:
            got = inst.language_member(handle, word)
            want = word in language
            if got != want:
                bad = Witness(len(word), tuple(word),
                              f"term {i}: engine {got}, oracle {want}")
                break
        if bad:
            break
    reports = [CheckReport("membership-vs-enumeration", bad is None, bad,
                           "50 random terms, all words up to length 6")]
    reports.append(_star_derivative_report(rng))
    return reports


_SUITES = {
    "modularity": _suite_modularity,
    "language-laws": _suite_language_laws,
}


def suite_names():
    return tuple(_SUITES)


def run_suite(name: str, seed: int = 0):
    """Run a registered property suite; returns its reports."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise UnknownSuite(f"no suite named {name!r}") from None
    return fn(seed)

"""Shared pieces of the benchmark: locating and importing the engine,
operations, table set-up, and the benchmark's own reference evaluators.

Every expected answer is computed here or by the brute-force oracles of
``corec.instances`` when a workload's inputs are generated, never by the
engine under test.  The engine is always reached through module
attributes (``corec.instances.stream_take``, not a name bound at import),
so the traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class BenchSetupError(Exception):
    """The checkout cannot run the benchmark (no engine sources)."""


def import_corec():
    """Import ``corec`` from this checkout's ``src``, never from elsewhere."""
    pkg = os.path.join(SRC, "corec", "__init__.py")
    if not os.path.isfile(pkg):
        raise BenchSetupError(f"no engine sources at {pkg}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import corec
    import corec.checking
    import corec.cli
    import corec.frontends
    import corec.instances
    import corec.rules
    import corec.solver

    if os.path.dirname(os.path.abspath(corec.__file__)) != \
            os.path.join(SRC, "corec"):
        raise BenchSetupError(f"imported corec from {corec.__file__}")
    return corec


class Op:
    """One closed-loop operation: ``run()`` calls the engine, and its
    answer is compared with ``expected`` by ``check`` (equality unless
    given).  ``units`` is the work size: digits, letters, compared
    depth, or observed digits."""

    __slots__ = ("family", "run", "expected", "units", "check")

    def __init__(self, family, run, expected, units, check=None):
        self.family = family
        self.run = run
        self.expected = expected
        self.units = units
        self.check = check

    def verify(self, answer) -> bool:
        if self.check is not None:
            return self.check(answer, self.expected)
        return answer == self.expected


# ---------------------------------------------------------------------------
# Tables built during set-up (process-wide lru caches in corec.instances)


PROCESS_ACTIONS = ("a", "b", "c")
LANG_ALPHABET = "ab"


def build_tables(corec, workload: str):
    """Build and validate every table the workload uses; returns them."""
    inst = corec.instances
    tables = [inst.stream_table()]
    if workload in ("grammar_member", "equivalence", "cli_files"):
        tables.append(inst.language_table(LANG_ALPHABET))
    if workload in ("equivalence", "cli_files"):
        tables.append(inst.tree_table())
        tables.append(inst.ccs_table(
            corec.behavior.process_actions(*PROCESS_ACTIONS)))
    for t in tables:
        report = t.validation()
        if not report.ok:
            raise BenchSetupError(f"table invalid: {report.violations}")
    return tables


# ---------------------------------------------------------------------------
# Reference evaluators (independent of the engine)


def rand_rat(rng, lo=-4, hi=4, den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def periodic(pre, cyc, n):
    out = list(pre)
    while len(out) < n:
        out.extend(cyc)
    return out[:n]


def zip_values(xs, ys, n):
    return [xs[k // 2] if k % 2 == 0 else ys[k // 2] for k in range(n)]


def fmt_rat(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class StreamSystemEval:
    """Digits of a flat stream system ``x = c . t`` where each tail term
    ``t`` is a variable, ``plus(t, t)``, or ``zip(t, t)``.

    Terms are tuples: ("var", name), ("plus", a, b), ("zip", a, b).
    """

    def __init__(self, heads, tails):
        self.heads = heads
        self.tails = tails
        self.memo = {}

    def var(self, name, k):
        if k == 0:
            return self.heads[name]
        key = (name, k)
        got = self.memo.get(key)
        if got is None:
            got = self.term(self.tails[name], k - 1)
            self.memo[key] = got
        return got

    def term(self, t, k):
        if t[0] == "var":
            return self.var(t[1], k)
        if t[0] == "plus":
            return self.term(t[1], k) + self.term(t[2], k)
        if t[0] == "zip":
            return self.term(t[1] if k % 2 == 0 else t[2], k // 2)
        raise ValueError(f"unknown stream term {t!r}")

    def prefix(self, name, n):
        return [self.var(name, k) for k in range(n)]


def stream_term_text(t) -> str:
    if t[0] == "var":
        return t[1]
    return f"{t[0]}({stream_term_text(t[1])}, {stream_term_text(t[2])})"


def random_stream_term(rng, names, depth=1):
    if depth <= 0 or rng.random() < 0.3:
        return ("var", rng.choice(names))
    op = rng.choice(("plus", "zip"))
    return (op, random_stream_term(rng, names, depth - 1),
            random_stream_term(rng, names, depth - 1))


def random_stream_system(rng, size, prefix="x"):
    """A wide flat stream system: text, its evaluator, and variable names."""
    names = [f"{prefix}{i}" for i in range(size)]
    heads, tails = {}, {}
    lines = ["kind stream"]
    for name in names:
        heads[name] = Fraction(rng.randint(0, 4), rng.choice((1, 1, 2)))
        tails[name] = random_stream_term(rng, names)
        lines.append(f"{name} = {fmt_rat(heads[name])} . "
                     f"{stream_term_text(tails[name])}")
    return "\n".join(lines) + "\n", StreamSystemEval(heads, tails), names


def random_tree_graph(rng, size, prefix="n"):
    """A regular tree graph: node -> (label, left node, right node)."""
    names = [f"{prefix}{i}" for i in range(size)]
    return {name: (Fraction(rng.randint(1, 3)), rng.choice(names),
                   rng.choice(names)) for name in names}, names


def tree_graph_text(graph, order) -> str:
    lines = ["kind tree"]
    for name in order:
        label, left, right = graph[name]
        lines.append(f"{name} = {fmt_rat(label)} . ({left}, {right})")
    return "\n".join(lines) + "\n"


def tree_observation(graph, node, depth):
    """Expected observation as nested (label, left, right); None is a cut."""
    if depth <= 0:
        return None
    label, left, right = graph[node]
    return (label, tree_observation(graph, left, depth - 1),
            tree_observation(graph, right, depth - 1))

"""Shared fixtures for the test suite: canonical systems, random generators,
and the oracle-vs-engine comparison for processes."""

from __future__ import annotations

import random

from corec import Engine, System
from corec.behavior import STREAM, process_step, stream_step
from corec.instances import (
    DEFAULT_ACTIONS,
    ccs_sos,
    ccs_table,
    ccs_term,
    stream_table,
)
from corec.terms import App, Guard, Var, mk_app


def flat_tm_system(table=None) -> System:
    """t = 1.zip(u,t); u = 0.zip(t,u)"""
    table = table or stream_table()
    z = table.op("zip")
    return System(STREAM, table, ("t", "u"), {
        "t": Guard(stream_step(1, mk_app(z, (Var("u"), Var("t"))))),
        "u": Guard(stream_step(0, mk_app(z, (Var("t"), Var("u"))))),
    })


def flat_tm_values(n: int):
    """Hand iteration of the flat system's defining recurrences."""
    u = {0: 0}
    t = {0: 1}

    def uval(i):
        if i not in u:
            u[i] = tval((i - 1) // 2) if i % 2 == 1 else uval((i - 2) // 2)
        return u[i]

    def tval(i):
        if i not in t:
            t[i] = uval((i - 1) // 2) if i % 2 == 1 else tval((i - 2) // 2)
        return t[i]

    return [uval(i) for i in range(n)], [tval(i) for i in range(n)]


def sandwiched_tm_system(table=None) -> System:
    """The Thue-Morse stream as u: u = 0.t, t = 1.a, with (a, b) the
    shift-by-two pair a = zip(1.a, 0.b), b = zip(0.b, 1.a)."""
    table = table or stream_table()
    z = table.op("zip")
    g1a = Guard(stream_step(1, Var("a")))
    g0b = Guard(stream_step(0, Var("b")))
    return System(STREAM, table, ("u", "t", "a", "b"), {
        "u": Guard(stream_step(0, Var("t"))),
        "t": Guard(stream_step(1, Var("a"))),
        "a": App(z, (g1a, g0b)),
        "b": App(z, (g0b, g1a)),
    })


def swapped_guard_system(table=None) -> System:
    """t = zip(1.u, 0.t); u = zip(0.t, 1.u) - the guards carry the other
    variable, which yields a different automatic sequence than u = 0.t etc."""
    table = table or stream_table()
    z = table.op("zip")
    g1u = Guard(stream_step(1, Var("u")))
    g0t = Guard(stream_step(0, Var("t")))
    return System(STREAM, table, ("t", "u"), {
        "t": App(z, (g1u, g0t)),
        "u": App(z, (g0t, g1u)),
    })


def swapped_guard_values(n: int):
    """Independent recurrence for the swapped-guard system's u:
    u(0)=0, u(1)=1, u(2k+2)=t(k), u(2k+3)=u(k) and dually for t."""
    u = {0: 0, 1: 1}
    t = {0: 1, 1: 0}

    def uval(i):
        if i not in u:
            u[i] = tval((i - 2) // 2) if i % 2 == 0 else uval((i - 3) // 2)
        return u[i]

    def tval(i):
        if i not in t:
            t[i] = uval((i - 2) // 2) if i % 2 == 0 else tval((i - 3) // 2)
        return t[i]

    return [uval(i) for i in range(n)]


def milner_system(table=None) -> System:
    """x = a.(x | c.0) + b.0 over the default action structure."""
    table = table or ccs_table(DEFAULT_ACTIONS)
    zero = mk_app(table.op("nil"), ())
    c0 = mk_app(table.op("pref", "c"), (zero,))
    par_xc = mk_app(table.op("par"), (Var("x"), c0))
    return System(table.kind, table, ("x",), {
        "x": Guard(process_step((("a", par_xc), ("b", zero)))),
    })


def random_term(rng: random.Random, sig, variables, depth):
    """Random term over a signature of plain symbols and given variables."""
    if depth <= 0 or (variables and rng.random() < 0.3):
        return Var(rng.choice(variables))
    name = rng.choice([d.name for d in sig.decls if not d.parametric])
    op = sig.op(name)
    return mk_app(op, tuple(random_term(rng, sig, variables, depth - 1)
                            for _ in range(op.arity)))


def sos_agree(kind, engine: Engine, ast, handle, depth, env=None) -> bool:
    """Mutual depth-bounded simulation between the SOS oracle on an agent
    AST and an engine state."""
    if depth <= 0:
        return True
    oracle_moves = ccs_sos(kind, ast, env)
    engine_moves = engine.unfold(handle).children
    for action, sub in oracle_moves:
        if not any(port[0] == action and
                   sos_agree(kind, engine, sub, child, depth - 1, env)
                   for port, child in engine_moves):
            return False
    for port, child in engine_moves:
        if not any(port[0] == action and
                   sos_agree(kind, engine, sub, child, depth - 1, env)
                   for action, sub in oracle_moves):
            return False
    return True


def agent_handle(engine: Engine, table, ast):
    return engine.interpret_term(table, ccs_term(table, ast))

#!/usr/bin/env python3
"""Solve a few stream systems and print their prefixes.

Run as `python scripts/stream_zoo.py`.
"""

from fractions import Fraction

from corec import Engine, System, STREAM
from corec.behavior import stream_step
from corec.frontends import format_rat, parse_system
from corec.instances import periodic_stream, stream_table, stream_take
from corec.terms import Guard, Var, mk_app

TM = """kind stream
u = 0 . t
t = 1 . a
a = zip(1 . a, 0 . b)
b = zip(0 . b, 1 . a)
"""

FLAT = """kind stream
t = 1 . zip(u, t)
u = 0 . zip(t, u)
"""


def show(name, handle, n=16):
    digits = " ".join(format_rat(x) for x in stream_take(handle, n))
    print(f"{name:>14}: {digits}")


def main():
    engine = Engine()
    table = stream_table()

    sol = engine.solve(parse_system(TM))
    show("thue-morse", sol["u"])
    show("its tail", sol["t"])

    flat = engine.solve(parse_system(FLAT))
    show("flat variant", flat["u"])

    ones = periodic_stream(engine, (), (1,))
    nat_ish = engine.interpret_op(table, table.op("conv"), [ones, ones])
    show("conv(1s,1s)", nat_ish)
    powers = engine.interpret_op(table, table.op("shuffle"), [ones, ones])
    show("shuffle(1s,1s)", powers)

    # powers of two, directly: s = 1.(s + s)
    s = System(STREAM, table, ("s",), {
        "s": Guard(stream_step(1, mk_app(table.op("plus"),
                                         (Var("s"), Var("s"))))),
    })
    show("1.(s+s)", engine.solve(s)["s"])

    half = engine.interpret_op(table, table.op("mult", Fraction(1, 2)),
                               [powers])
    show("halved", half)


if __name__ == "__main__":
    main()

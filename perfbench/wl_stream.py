"""stream_prefix: deep single-path unfolding of stream terms.

Each operation gets a fresh ``Engine``, as the CLI does, solves or
interprets one stream term and observes a prefix of at most 300 digits.
Sizes cycle through a fixed ladder per family, so every seed runs the same
mix of work; the seed picks the values, variable names and definitions.
"""

from __future__ import annotations

import random

from common import (
    Op,
    fmt_rat,
    periodic,
    rand_rat,
    zip_values,
)

FAMILIES = ("tm", "tm_flat", "plus", "zip", "mult", "shuffle", "conv",
            "zip_ext", "bde", "circuit")

# Prefix lengths stay near 60% of the seed's recursion ceiling (about 480
# Thue-Morse digits); shuffle and convolution are kept shorter because
# their cost grows with the arena they build per digit.
LADDER = {
    "tm": (200, 230, 260, 290),
    "tm_flat": (200, 230, 260, 290),
    "plus": (200, 230, 260, 290),
    "zip": (200, 230, 260, 290),
    "mult": (200, 230, 260, 290),
    "shuffle": (100, 130, 160, 190),
    "conv": (100, 130, 160, 190),
    "zip_ext": (200, 230, 260, 290),
    "bde": (100, 130, 160, 190),
    "circuit": (200, 230, 260, 290),
}
# Every cycle runs each family once per ladder size (tm and tm_flat twice),
# so all cycles hold the same mix of work and the median operation is a
# Thue-Morse prefix.  Pools hold two cycles' worth of seeded inputs.
PER_CYCLE = {f: 2 * len(LADDER[f]) if f in ("tm", "tm_flat")
             else len(LADDER[f]) for f in FAMILIES}
EXT_LAYERS = (0, 2, 5, 8)  # trivial add_rule extensions under zip_ext
BDE_KINDS = ("sh", "cv", "lin", "lin")

TM_SANDWICHED = ("u = 0 . t", "t = 1 . a", "a = zip(1 . a, 0 . b)",
                 "b = zip(0 . b, 1 . a)")
TM_FLAT = ("u = 0 . t", "t = 1 . a", "a = 1 . zip(c, a)", "c = 0 . b",
           "b = 0 . zip(d, b)", "d = 1 . a")


def _rename(lines, rng):
    names = sorted({ln.split("=")[0].strip() for ln in lines})
    fresh = {n: f"{n}{rng.randint(0, 999)}" for n in names}
    out = []
    for ln in lines:
        toks = ln.replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
        out.append(" ".join(fresh.get(tok, tok) for tok in toks.split()))
    rng.shuffle(out)
    return "kind stream\n" + "\n".join(out) + "\n", fresh["u"]


def _spec(rng):
    pre = tuple(rand_rat(rng) for _ in range(rng.randint(0, 3)))
    cyc = tuple(rand_rat(rng) for _ in range(rng.randint(1, 3)))
    return pre, cyc


def _int_spec(rng):
    """1, 2 and 3 in seeded order, one before the cycle: the cost of
    shuffle and convolution grows with the size of their exact values, so
    these keep it a function of the prefix length alone."""
    x, y, z = rng.sample((1, 2, 3), 3)
    return (x,), (y, z)


def simulate_circuit(nodes, edges, inputs, n):
    """Digits of every output node, by synchronous evaluation in time.

    ``nodes`` maps id -> (kind, value); ``inputs`` maps input id -> list
    of at least n values.  Registers emit their value first and then
    their input delayed by one step.
    """
    incoming = {nid: [] for nid in nodes}
    for src, dst in edges:
        incoming[dst].append(src)
    prev = {}
    outs = {nid: [] for nid, (kind, _) in nodes.items() if kind == "output"}
    for k in range(n):
        now = {}

        def value(nid):
            got = now.get(nid)
            if got is not None:
                return got
            kind, param = nodes[nid]
            if kind == "input":
                got = inputs[nid][k]
            elif kind == "register":
                got = param if k == 0 else prev[incoming[nid][0]]
            elif kind == "adder":
                got = sum(value(s) for s in incoming[nid])
            elif kind == "mult":
                got = param * value(incoming[nid][0])
            else:  # copier, output
                got = value(incoming[nid][0])
            now[nid] = got
            return got

        for nid in nodes:
            value(nid)
        for nid in outs:
            outs[nid].append(now[nid])
        prev = now
    return outs


def _circuit(rng, i):
    """Accumulator with a scaled feedback loop (even i), or a delayed
    two-input sum (odd i)."""
    if i % 2 == 0:
        nodes = {"sigma": ("input", None), "add": ("adder", None),
                 "cp": ("copier", None),
                 "scale": ("mult", rand_rat(rng, 1, 3)),
                 "reg": ("register", rand_rat(rng)), "out": ("output", None)}
        edges = [("sigma", "add"), ("reg", "add"), ("add", "cp"),
                 ("cp", "out"), ("cp", "scale"), ("scale", "reg")]
    else:
        nodes = {"s1": ("input", None), "s2": ("input", None),
                 "reg": ("register", rand_rat(rng)), "add": ("adder", None),
                 "out": ("output", None)}
        edges = [("s1", "add"), ("s2", "reg"), ("reg", "add"), ("add", "out")]
    return nodes, edges


def _circuit_json(nodes, edges):
    import json

    items = []
    for nid, (kind, value) in nodes.items():
        item = {"id": nid, "kind": kind}
        if value is not None:
            item["value"] = fmt_rat(value)
        items.append(item)
    return json.dumps({"nodes": items, "edges": [list(e) for e in edges]})


BDE_PROGRAMS = {
    # f(x, y) = p*x + q*y, the shuffle product, the convolution product
    "lin": "{f}({x}, {y}): head = {p}*head({x}) + {q}*head({y}); "
           "tail = {f}(tail({x}), tail({y}))",
    "sh": "{f}({x}, {y}): head = head({x}) * head({y}); "
          "tail = plus({f}({x}, tail({y})), {f}(tail({x}), {y}))",
    "cv": "{f}({x}, {y}): head = head({x}) * head({y}); "
          "tail = plus({f}(tail({x}), {y}), {f}(head({x}), tail({y})))",
}


class StreamPrefix:
    name = "stream_prefix"
    families = FAMILIES
    probe_start = 64
    probe_cap = 8192
    period = 2  # cycles after which the operations repeat

    def __init__(self, corec, seed, scale=1.0):
        self.corec = corec
        rng = random.Random(f"stream_prefix/{seed}")
        oracle = corec.instances.oracle_eval
        self.pool = {f: [] for f in FAMILIES}

        def size(fam, i):
            ladder = LADDER[fam]
            return max(4, int(ladder[i % len(ladder)] * scale))

        for fam, lines in (("tm", TM_SANDWICHED), ("tm_flat", TM_FLAT)):
            for i in range(2 * PER_CYCLE[fam]):
                n = size(fam, i)
                text, var = _rename(lines, rng)
                want = [oracle("thue_morse", k) for k in range(n)]
                self.pool[fam].append((text, var, n, want))
        for fam in ("plus", "zip", "mult", "shuffle", "conv"):
            spec = _int_spec if fam in ("shuffle", "conv") else _spec
            for i in range(2 * PER_CYCLE[fam]):
                n = size(fam, i)
                a, b = spec(rng), spec(rng)
                xs, ys = periodic(*a, n), periodic(*b, n)
                param = rand_rat(rng, 1, 4) if fam == "mult" else None
                if fam == "plus":
                    want = [x + y for x, y in zip(xs, ys)]
                elif fam == "zip":
                    want = zip_values(xs, ys, n)
                elif fam == "mult":
                    want = [param * x for x in xs]
                elif fam == "shuffle":
                    want = oracle("binomial_shuffle", xs, ys)
                else:
                    want = oracle("cauchy_convolution", xs, ys)
                self.pool[fam].append((a, b, param, n, want))
        for i in range(2 * PER_CYCLE["zip_ext"]):
            n = size("zip_ext", i)
            a, b = _spec(rng), _spec(rng)
            self.pool["zip_ext"].append(
                (a, b, EXT_LAYERS[i % len(EXT_LAYERS)], n,
                 zip_values(periodic(*a, n), periodic(*b, n), n)))
        for i in range(2 * PER_CYCLE["bde"]):
            kind = BDE_KINDS[i % len(BDE_KINDS)]
            n = size("bde" if kind != "lin" else "plus", i)
            self.pool["bde"].append(self._bde(rng, kind, n, oracle))
        for i in range(2 * PER_CYCLE["circuit"]):
            n = size("circuit", i)
            nodes, edges = _circuit(rng, i)
            specs = {nid: _spec(rng) for nid, (kind, _) in nodes.items()
                     if kind == "input"}
            feeds = {nid: periodic(*s, n) for nid, s in specs.items()}
            want = simulate_circuit(nodes, edges, feeds, n)
            self.pool["circuit"].append(
                (_circuit_json(nodes, edges), specs, n, want))

    def _bde(self, rng, kind, n, oracle):
        f = f"f{rng.randint(0, 999)}"
        p, q = rand_rat(rng, 1, 3), rand_rat(rng, 1, 3)
        text = "kind stream\n" + BDE_PROGRAMS[kind].format(
            f=f, x="x", y="y", p=fmt_rat(p), q=fmt_rat(q)) + "\n"
        spec = _spec if kind == "lin" else _int_spec
        a, b = spec(rng), spec(rng)
        xs, ys = periodic(*a, n), periodic(*b, n)
        if kind == "lin":
            want = [p * x + q * y for x, y in zip(xs, ys)]
        elif kind == "sh":
            want = oracle("binomial_shuffle", xs, ys)
        else:
            want = oracle("cauchy_convolution", xs, ys)
        return text, f, a, b, n, want

    # -- operations ---------------------------------------------------------

    def once(self):
        return []

    def cycle(self, c):
        ops = []
        for fam in FAMILIES:
            pool, m = self.pool[fam], PER_CYCLE[fam]
            make = getattr(self, "_op_" + fam)
            ops.extend(make(*pool[(c * m + j) % len(pool)]) for j in range(m))
        return ops

    def _op_tm(self, text, var, n, want, family="tm"):
        c = self.corec

        def run():
            engine = c.solver.Engine()
            sol = engine.solve(c.frontends.parse_system(text))
            return c.instances.stream_take(sol[var], n)

        return Op(family, run, want, n)

    def _op_tm_flat(self, text, var, n, want):
        return self._op_tm(text, var, n, want, "tm_flat")

    def _binary(self, family, a, b, param, n, want):
        c = self.corec

        def run():
            engine = c.solver.Engine()
            table = c.instances.stream_table()
            x = c.instances.periodic_stream(engine, *a)
            if param is not None:
                h = engine.interpret_op(table, table.op(family, param), [x])
            else:
                y = c.instances.periodic_stream(engine, *b)
                h = engine.interpret_op(table, table.op(family), [x, y])
            return c.instances.stream_take(h, n)

        return Op(family, run, want, n)

    def _op_plus(self, *entry):
        return self._binary("plus", *entry)

    def _op_zip(self, *entry):
        return self._binary("zip", *entry)

    def _op_mult(self, *entry):
        return self._binary("mult", *entry)

    def _op_shuffle(self, *entry):
        return self._binary("shuffle", *entry)

    def _op_conv(self, *entry):
        return self._binary("conv", *entry)

    def _op_zip_ext(self, a, b, layers, n, want):
        c = self.corec
        step = c.behavior.stream_step

        def identity(op, args):
            return step(args[0].head, args[0].tail)

        def run():
            table = c.instances.stream_table()
            for k in range(layers):
                op = c.terms.signature((f"id{k}", 1)).op(f"id{k}")
                table = c.rules.add_rule(table, c.rules.GsosRule(op, identity))
            engine = c.solver.Engine()
            x = c.instances.periodic_stream(engine, *a)
            y = c.instances.periodic_stream(engine, *b)
            h = engine.interpret_op(table, table.op("zip"), [x, y])
            return c.instances.stream_take(h, n)

        return Op("zip_ext", run, want, n)

    def _op_bde(self, text, name, a, b, n, want):
        c = self.corec

        def run():
            program = c.frontends.parse_bde(text)
            table = program.extended_table()
            engine = c.solver.Engine()
            x = c.instances.periodic_stream(engine, *a)
            y = c.instances.periodic_stream(engine, *b)
            h = engine.interpret_op(table, table.op(name), [x, y])
            return c.instances.stream_take(h, n)

        return Op("bde", run, want, n)

    def _op_circuit(self, text, specs, n, want):
        c = self.corec

        def run():
            compiled = c.frontends.compile_circuit(
                c.frontends.load_circuit(text))
            table = compiled.table()
            engine = c.solver.Engine()
            feeds = {nid: c.instances.periodic_stream(engine, *specs[nid])
                     for nid in compiled.inputs}
            out = {}
            for symbol, node_id, input_ids in compiled.outputs:
                h = engine.interpret_op(table, table.op(symbol),
                                        [feeds[i] for i in input_ids])
                out[node_id] = c.instances.stream_take(h, n)
            return out

        return Op("circuit", run, want, n)

    # -- recursion ceiling ------------------------------------------------

    def probe(self, n):
        """One Thue-Morse prefix of n digits on a fresh engine."""
        c = self.corec
        engine = c.solver.Engine()
        text = "kind stream\n" + "\n".join(TM_SANDWICHED) + "\n"
        sol = engine.solve(c.frontends.parse_system(text))
        got = c.instances.stream_take(sol["u"], n)
        return got == [c.instances.oracle_eval("thue_morse", k)
                       for k in range(n)]

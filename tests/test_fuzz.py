"""Seeded token mutations of every input format: parsing and solving a
mutant either succeeds or raises a `CorecError`, never anything else.  The
command line's argument lists over the same inputs are mutated the same
way: `cli_main` returns 0, 1 or 2, and nothing escapes it."""

import random
import re
from fractions import Fraction

import pytest

from corec import Engine
from corec.behavior import StreamKind
from corec.cli import cli_main
from corec.errors import CorecError
from corec.frontends import (
    compile_circuit,
    compile_gnf,
    load_circuit,
    parse_bde,
    parse_ccs,
    parse_gnf,
    parse_system,
)
from corec.instances import language_member, periodic_stream

DEPTH = 3


def _observe_all(engine, handles):
    for h in handles:
        engine.observe(h, DEPTH)


def _run_system(text):
    engine = Engine()
    _observe_all(engine, engine.solve(parse_system(text)).values())


def _run_ccs(text):
    engine = Engine()
    _observe_all(engine, engine.solve(parse_ccs(text)).values())


def _run_bde(text):
    program = parse_bde(text)
    table = program.extended_table()
    engine = Engine()
    if isinstance(program.kind, StreamKind):
        arg = periodic_stream(engine, (1,), (2, Fraction(-1, 2)))
    else:
        arg = engine.interpret_op(table, table.op("const", Fraction(1, 3)), [])
    for name in program.names:
        op = table.op(name)
        handle = engine.interpret_op(table, op, [arg] * op.arity)
        _observe_all(engine, [handle])


def _run_gnf(text):
    grammar = parse_gnf(text)
    sol = Engine().solve(compile_gnf(grammar))
    for word in ("", "ab", "aabb", "abb"):
        language_member(sol[grammar.start], word)


def _run_circuit(text):
    compiled = compile_circuit(load_circuit(text))
    table = compiled.table()
    engine = Engine()
    feeds = {i: periodic_stream(engine, (1,), (0, 2)) for i in compiled.inputs}
    _observe_all(engine, [
        engine.interpret_op(table, table.op(symbol), [feeds[i] for i in ins])
        for symbol, _, ins in compiled.outputs])


FIXTURES = [
    ("system", _run_system,
     "kind stream\nu = 0 . t\nt = 1 . a\na = zip(1 . a, 0 . b)\n"
     "b = zip(0 . b, 1 . a)\nx = plus(mult(1/2, 1 . x), 2 . register(3, u))\n"
     "y = shuffle(1 . y, conv(const(2), 1 . x))\n"),
    ("tree", _run_system,
     "kind tree\nu = 1 . (v, u)\nv = 1/2 . (plus(u, pi), const(3))\n"
     "w = plus(1 . (w, u), 2 . (v, pi))\n"),
    ("language", _run_system,
     "kind language ab\nx = union(a . x, b . y)\ny = 1 . (y, prefix(a, y))\n"
     "z = concat(star(char(a)), cons(1, 0 . (x, z), compl(eps)))\n"),
    ("bde", _run_bde,
     "kind stream\ngiven plus mult\n"
     "sh(x, y): head = head(x) * head(y); "
     "tail = plus(sh(x, tail(y)), sh(tail(x), y))\n"
     "f(x): head = 2 + head(x); tail = 3 . mult(head(x), f(tail(x)))\n"),
    ("tree-bde", _run_bde,
     "kind tree\nf(x): root = root(x); left = x; right = f(plus(x, x))\n"),
    ("ccs", _run_ccs,
     "P = a.(P | c.0) + b.0\nQ = b.0 + a.(P | c.0)\n"
     "R = (a'.R | a.0)\\{a} + alt(b.0, c.0)\nS = seq(a.0, b.P)[a->b]\n"),
    ("gnf", _run_gnf,
     "terminals: a b\nnonterminals: S B\nstart: S\n"
     "S -> a S B\nS -> a B\nB -> b\n"),
    ("circuit", _run_circuit,
     '{"nodes": [{"id": "sigma", "kind": "input"}, '
     '{"id": "add", "kind": "adder"}, {"id": "cp", "kind": "copier"}, '
     '{"id": "half", "kind": "mult", "value": "1/2"}, '
     '{"id": "reg", "kind": "register", "value": "1"}, '
     '{"id": "out", "kind": "output"}], '
     '"edges": [["sigma", "add"], ["reg", "add"], ["add", "cp"], '
     '["cp", "out"], ["cp", "half"], ["half", "reg"]]}'),
]

_TOKEN = re.compile(r"\s+|[A-Za-z_]\w*'*|-?\d+(?:/\d+|\.\d+)?|->|.", re.S)
# tokens of every fixture, plus ones that no fixture holds
POOL = sorted({tok for _, _, text in FIXTURES for tok in _TOKEN.findall(text)}
              | {"kind", "process", "0", "-1", "1/0", "0.5", "~", "é", "\n"})


def _mutant(rng, text):
    """``text`` after one to three token deletions, insertions,
    replacements or duplications."""
    toks = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(toks))
        how = rng.choice(("delete", "insert", "replace", "duplicate"))
        if how == "delete" and len(toks) > 1:
            del toks[i]
        elif how == "insert":
            toks.insert(i, rng.choice(POOL))
        elif how == "replace":
            toks[i] = rng.choice(POOL)
        else:
            toks.insert(i, toks[i])
    return "".join(toks)


@pytest.mark.parametrize("name, run, text", FIXTURES,
                         ids=[row[0] for row in FIXTURES])
def test_token_mutants_raise_only_corec_errors(name, run, text):
    run(text)
    rng = random.Random(f"fuzz/{name}")
    for _ in range(250):
        mutant = _mutant(rng, text)
        try:
            run(mutant)
        except CorecError:
            pass
        except Exception as exc:  # any other escape is a defect at its source
            pytest.fail(f"{type(exc).__name__}: {exc} on\n{mutant}")


# -- the command line ----------------------------------------------------------


def _cli_cases(tmp_path):
    """Argument lists over the fixtures, written to files, and one
    headerless system that needs ``--kind``."""
    files = {name: tmp_path / name for name, _, _ in FIXTURES}
    for name, _, text in FIXTURES:
        files[name].write_text(text)
    files["headerless"] = tmp_path / "headerless"
    files["headerless"].write_text(FIXTURES[0][2].partition("\n")[2])
    f = {name: str(path) for name, path in files.items()}
    return [
        ["solve", f["system"], "--observe", "u:4", "--observe", "y:3"],
        ["--format", "json", "solve", f["tree"], "--observe", "w:3"],
        ["solve", f["headerless"], "--kind", "stream", "--observe", "x:5"],
        ["solve", f["language"], "--kind", "language:ab", "--observe", "z:3"],
        ["bde", f["bde"], "--apply", "sh:1;2|3,ones", "--prefix", "5"],
        ["--format", "json", "bde", f["tree-bde"], "--apply", "f:1/2",
         "--prefix", "3"],
        ["ccs", f["ccs"], "--bisim", "P", "Q", "--depth", "4"],
        ["--format", "json", "ccs", f["ccs"], "--agent", "R", "--depth", "3"],
        ["member", f["gnf"], "aabb"],
        ["circuit", f["circuit"], "--input", "sigma=1;2|-1/2", "--prefix",
         "6", "--output", "out"],
    ]


# arguments beyond the cases': every option, bad depths and specs, a
# missing file and a name that `open` refuses
CLI_EXTRAS = ["--apply", "--input", "--observe", "--bisim", "--prefix",
              "--depth", "--kind", "--output", "--agent", "--format", "json",
              "-1", "0", "x:", ":2", "u:-1", "u:x", "1/0", "zeros", "=",
              "sigma=", "", "process", "tree", "language:a", "f:", "nul\x00"]


def _clamped(arg):
    """``arg`` with a depth above 6 lowered to 6: tree and process
    observations grow exponentially with depth."""
    head, colon, depth = arg.rpartition(":")
    return f"{head}{colon}6" if depth.isdigit() and int(depth) > 6 else arg


def test_argument_mutants_exit_0_1_or_2(tmp_path, capsys):
    cases = _cli_cases(tmp_path)
    args = {arg for argv in cases for arg in argv} | {
        *CLI_EXTRAS, str(tmp_path / "missing")}
    # an option is replaced by an option and a value by a value, so that
    # more mutants get past the argument parser
    options = sorted(arg for arg in args if arg.startswith("--"))
    values = sorted(args.difference(options))
    rng = random.Random("fuzz/cli")
    for argv in cases:
        assert cli_main(argv) in (0, 1)
        for _ in range(50):
            mutant = list(argv)
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(len(mutant))
                how = rng.choice(("delete", "duplicate", "replace"))
                if how == "delete" and len(mutant) > 1:
                    del mutant[i]
                elif how == "duplicate":
                    mutant.insert(i, mutant[i])
                else:
                    mutant[i] = rng.choice(
                        options if mutant[i].startswith("--") else values)
            mutant = [_clamped(arg) for arg in mutant]
            try:
                code = cli_main(mutant)
            except (Exception, SystemExit) as exc:  # a defect at its source
                pytest.fail(f"{type(exc).__name__}: {exc} on {mutant!r}")
            assert code in (0, 1, 2), mutant
    capsys.readouterr()

import json
import math
import random
from fractions import Fraction

import pytest

from corec import cli, frontends
from corec.cli import cli_main
from corec.instances import oracle_eval, periodic_stream
from corec.solver import Engine


TM = """kind stream
u = 0 . t
t = 1 . a
a = zip(1 . a, 0 . b)
b = zip(0 . b, 1 . a)
"""

GRAMMAR = """terminals: a b
nonterminals: S B
start: S
S -> a S B
S -> b
B -> b
"""

MILNER = "P = a.(P | c.0) + b.0\nQ = b.0 + a.(P | c.0)\nR = b.0\n"

CIRCUIT = json.dumps({
    "nodes": [
        {"id": "sigma", "kind": "input"},
        {"id": "add", "kind": "adder"},
        {"id": "cp", "kind": "copier"},
        {"id": "reg", "kind": "register", "value": "1"},
        {"id": "out", "kind": "output"},
    ],
    "edges": [["sigma", "add"], ["reg", "add"], ["add", "cp"],
              ["cp", "out"], ["cp", "reg"]],
})

TREES = "kind tree\nu = 1 . (v, u)\nv = 1/2 . (u, v)\n"

LANGUAGE = "kind language ab\nx = 1 . (y, x)\ny = 0 . (x, y)\n"

TREE_BDE = "kind tree\nf(x): root = root(x); left = x; right = x\n"

SHUFFLE_BDE = ("kind stream\n"
               "sh(x, y): head = head(x) * head(y); "
               "tail = plus(sh(x, tail(y)), sh(tail(x), y))\n")


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, body in (("tm.sys", TM), ("anbbn.gnf", GRAMMAR),
                       ("milner.ccs", MILNER), ("circ.json", CIRCUIT),
                       ("shuffle.bde", SHUFFLE_BDE), ("trees.sys", TREES),
                       ("lang.sys", LANGUAGE)):
        p = tmp_path / name
        p.write_text(body)
        paths[name] = str(p)
    return paths


def test_solve_observe(files, capsys):
    rc = cli_main(["solve", files["tm.sys"], "--observe", "u:8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "u: 0 1 1 0 1 0 0 1"


def test_solve_json(files, capsys):
    rc = cli_main(["--format", "json", "solve", files["tm.sys"],
                   "--observe", "u:2"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["u"]["label"] == "0"


def test_solve_observes_5000_digits(files, capsys):
    rc = cli_main(["solve", files["tm.sys"], "--observe", "u:5000"])
    assert rc == 0
    digits = capsys.readouterr().out.split()
    assert digits[0] == "u:"
    assert digits[1:] == [str(oracle_eval("thue_morse", k))
                          for k in range(5000)]


def _depth2(labels, ports):
    """JSON of a depth-2 observation: the root, then one child per port."""
    def node(label, kids):
        return {"label": label, "children": [list(c) for c in zip(ports, kids)]}

    root, *kids = labels
    return node(root, [node(k, [{"cut": True}] * len(ports)) for k in kids])


@pytest.mark.parametrize("name, var, text, blob", [
    ("trees.sys", "u", "u: (1 L:(1/2 L:# R:#) R:(1 L:# R:#))",
     _depth2(("1", "1/2", "1"), ("L", "R"))),
    ("lang.sys", "x", "x: (1 a:(0 a:# b:#) b:(1 a:# b:#))",
     _depth2((True, False, True), ("a", "b"))),
])
def test_solve_prints_trees_and_languages(files, capsys, name, var, text,
                                          blob):
    assert cli_main(["solve", files[name], "--observe", f"{var}:2"]) == 0
    assert capsys.readouterr().out.strip() == text
    assert cli_main(["--format", "json", "solve", files[name],
                     "--observe", f"{var}:2"]) == 0
    assert json.loads(capsys.readouterr().out) == {var: blob}


def test_member_true_and_false(files, capsys):
    assert cli_main(["member", files["anbbn.gnf"], "abb"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli_main(["member", files["anbbn.gnf"], "ab"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_member_bad_letter(files, capsys):
    assert cli_main(["member", files["anbbn.gnf"], "abc"]) == 2


def test_member_anbn_at_three_thousand(tmp_path, capsys):
    gnf = tmp_path / "anbn.gnf"
    gnf.write_text("terminals: a b\nnonterminals: S B\nstart: S\n"
                   "S -> a S B\nS -> a B\nB -> b\n")
    n = 3000
    assert cli_main(["member", str(gnf), "a" * n + "b" * n]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli_main(["member", str(gnf), "a" * n + "b" * (n + 1)]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_ccs_observe_and_bisim(files, capsys):
    assert cli_main(["ccs", files["milner.ccs"], "--agent", "P",
                     "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("P:")
    assert cli_main(["ccs", files["milner.ccs"], "--bisim", "P", "Q"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli_main(["ccs", files["milner.ccs"], "--bisim", "P", "R"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_circuit_run(files, capsys):
    rc = cli_main(["circuit", files["circ.json"], "--input", "sigma=|1",
                   "--prefix", "10"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "out: 2 3 4 5 6 7 8 9 10 11"


def test_circuit_builds_only_the_inputs_its_outputs_read(
        tmp_path, capsys, monkeypatch):
    n = 300
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({
        "nodes": [{"id": f"i{k}", "kind": "input"} for k in range(n)]
        + [{"id": f"o{k}", "kind": "output"} for k in range(n)],
        "edges": [[f"i{k}", f"o{k}"] for k in range(n)]}))
    built = []

    def counting(engine, prefix, cycle=(0,)):
        built.append((tuple(prefix), tuple(cycle)))
        return periodic_stream(engine, prefix, cycle)

    monkeypatch.setattr(cli.instances, "periodic_stream", counting)
    assert cli_main(["circuit", str(path), "--output", "o0",
                     "--input", "i7=1;2|3", "--prefix", "3"]) == 0
    assert capsys.readouterr().out == "o0: 0 0 0\n"
    assert built == [((), (Fraction(0),))]
    # every spec is still parsed, and every name still checked
    for bad in ("nope=ones", "i5=1/0", "i5"):
        assert cli_main(["circuit", str(path), "--output", "o0",
                         "--input", bad]) == 2
        assert capsys.readouterr().out == ""
    assert len(built) == 1


def test_bde_apply(files, capsys):
    rc = cli_main(["bde", files["shuffle.bde"], "--apply", "sh:ones,ones",
                   "--prefix", "5"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "sh: 1 2 4 8 16"


FACTORIALS = SHUFFLE_BDE + "x = 1 . sh(x, x)\n"


def test_solve_and_bde_read_one_file_of_definitions_and_equations(
        tmp_path, capsys):
    path = tmp_path / "factorials.sys"
    path.write_text(FACTORIALS)
    assert cli_main(["solve", str(path), "--observe", "x:200"]) == 0
    assert capsys.readouterr().out == "x: " + " ".join(
        str(math.factorial(n)) for n in range(200)) + "\n"
    assert cli_main(["bde", str(path), "--apply", "sh:ones,ones",
                     "--prefix", "6"]) == 0
    assert capsys.readouterr().out == "sh: 1 2 4 8 16 32\n"
    path.write_text(SHUFFLE_BDE + "x = sh(x, x)\n")
    assert cli_main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: variable 'x' is unguarded at (0,)\n"


def test_bde_adjoins_a_files_definitions_once(tmp_path, capsys,
                                              monkeypatch):
    path = tmp_path / "factorials.sys"
    path.write_text(FACTORIALS)
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return adjoin(*args)
    adjoin = frontends._adjoin
    monkeypatch.setattr(frontends, "_adjoin", counted)
    assert cli_main(["bde", str(path), "--apply", "sh:ones,ones",
                     "--prefix", "6"]) == 0
    assert capsys.readouterr().out == "sh: 1 2 4 8 16 32\n"
    assert len(calls) == 1


def _stream_system(seed, n):
    """A seeded wide stream system over constants, prefixes, sums, zips
    and scalings, with heads of every sign and denominator."""
    rng = random.Random(seed)
    lines = ["kind stream"]
    for i in range(n):
        a, b = (f"x{rng.randrange(n)}" for _ in range(2))
        head = frontends.format_rat(
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
        tail = rng.choice((a, f"plus({a}, {b})", f"zip({a}, {b})",
                           f"mult(-3/2, {a})", f"2 . {a}", "const(1/3)"))
        lines.append(f"x{i} = {head} . {tail}")
    return "\n".join(lines) + "\n"


def _observed(engine, h, depth):
    """A stream observation's labels printed with `format_rat`."""
    tree, labels = engine.observe(h, depth), []
    while not tree.cut:
        labels.append(frontends.format_rat(tree.label))
        tree = tree.children[0][1]
    return " ".join(labels)


@pytest.mark.parametrize("n", [300, 2000])
def test_solve_text_is_the_observed_labels(tmp_path, capsys, n):
    text = _stream_system(n, n)
    path = tmp_path / "wide.sys"
    path.write_text(text)
    engine = Engine()
    system = frontends.parse_system(text)
    sol = engine.solve(system)
    want = "".join(f"{v}: {_observed(engine, sol[v], 4)}\n"
                   for v in system.vars)
    assert cli_main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == want
    requests = ["x0:0", "x1:9", f"x{n - 1}:1", "x0:3"]
    want = "".join(f"{v}: {_observed(engine, sol[v], int(d))}\n"
                   for v, d in (r.split(":") for r in requests))
    assert want.startswith("x0: \n")
    assert cli_main(["solve", str(path), *(
        a for r in requests for a in ("--observe", r))]) == 0
    assert capsys.readouterr().out == want


def test_bde_and_circuit_text_are_the_observed_labels(files, capsys):
    specs = ["1/2|1/3;-2/5", "3/4;2|-1/6"]
    program = frontends.parse_bde(SHUFFLE_BDE)
    table = program.extended_table()
    engine = Engine()
    args = [periodic_stream(engine, *frontends.parse_stream_spec(s))
            for s in specs]
    h = engine.interpret_op(table, table.op("sh"), args)
    assert cli_main(["bde", files["shuffle.bde"], "--apply",
                     "sh:" + ",".join(specs), "--prefix", "60"]) == 0
    assert capsys.readouterr().out == f"sh: {_observed(engine, h, 60)}\n"

    spec = "1;2|3;-1/4"
    table = frontends.compile_circuit(frontends.load_circuit(CIRCUIT)).table()
    engine = Engine()
    h = engine.interpret_op(table, table.op("f_out"), [
        periodic_stream(engine, *frontends.parse_stream_spec(spec))])
    assert cli_main(["circuit", files["circ.json"], "--input",
                     f"sigma={spec}", "--prefix", "60"]) == 0
    assert capsys.readouterr().out == f"out: {_observed(engine, h, 60)}\n"


def test_solve_reads_a_process_header(tmp_path, capsys):
    agents = "P = a.(P | c.0) + b.0\n"
    (tmp_path / "p.sys").write_text("kind process\n" + agents)
    (tmp_path / "p.ccs").write_text(agents)
    assert cli_main(["solve", str(tmp_path / "p.sys")]) == 0
    solved = capsys.readouterr().out
    assert cli_main(["ccs", str(tmp_path / "p.ccs")]) == 0
    assert solved == capsys.readouterr().out


@pytest.mark.parametrize("body, argv, line", [
    ("P = a.P\n", ["ccs", "--depth", "5000"],
     "P: " + "{a." * 5000 + "#" + "}" * 5000),
    ("kind language a\nx = 1 . x\n", ["solve", "--observe", "x:3000"],
     "x: " + "(1 a:" * 3000 + "#" + ")" * 3000),
], ids=["ccs-depth-5000", "language-depth-3000"])
def test_text_observations_print_at_any_depth(tmp_path, capsys, body, argv,
                                              line):
    path = tmp_path / "deep.txt"
    path.write_text(body)
    assert cli_main([argv[0], str(path), *argv[1:]]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_a_chain_of_10000_agent_prefixes_observes_to_depth_1(tmp_path,
                                                             capsys):
    path = tmp_path / "prefixes.ccs"
    path.write_text("P = " + "a." * 10_000 + "0\n")
    assert cli_main(["ccs", str(path), "--depth", "1"]) == 0
    assert capsys.readouterr().out == "P: {a.#}\n"


def test_check_suite(capsys):
    rc = cli_main(["check", "--suite", "modularity"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5


def test_check_all_json(capsys):
    rc = cli_main(["--format", "json", "check"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert all(entry["passed"] for entry in blob)


def test_input_errors_exit_2(files, capsys, tmp_path):
    assert cli_main(["solve", str(tmp_path / "missing.sys")]) == 2
    bad = tmp_path / "bad.sys"
    bad.write_text("kind stream\nx = zip(x, x)\n")
    assert cli_main(["solve", str(bad)]) == 2
    assert cli_main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, bad, arg", [
    (["ccs", "milner.ccs", "--bisim", "P", "Q", "--depth", "{}"], "-1",
     "--depth"),
    (["ccs", "milner.ccs", "--depth", "{}"], "-1", "--depth"),
    (["solve", "tm.sys", "--observe", "u:{}"], "-2", "--observe u:-2"),
    (["solve", "tm.sys", "--observe", "u:{}"], "abc", "--observe u:abc"),
    (["bde", "shuffle.bde", "--apply", "sh:ones,ones", "--prefix", "{}"],
     "-3", "--prefix"),
    (["circuit", "circ.json", "--input", "sigma=ones", "--prefix", "{}"],
     "-1", "--prefix"),
])
def test_negative_or_malformed_depths_exit_2(files, capsys, argv, bad, arg):
    argv = [files.get(a, a) for a in argv]
    assert cli_main([a.format(bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {arg}: depth {bad} is not a non-negative integer\n"
    # depth 0 stays valid: an empty observation, or bisimilar
    assert cli_main([a.format(0) for a in argv]) == 0


@pytest.mark.parametrize("body, argv, message", [
    ("kind stream\nx = 1/0 . x\n", ["solve", "{}"],
     "line 2, col 5: zero denominator in '1/0'"),
    ("kind stream\nf(x): head = 1/0; tail = x\n",
     ["bde", "{}", "--apply", "f:ones"],
     "line 2, col 14: zero denominator in '1/0'"),
    ("[]", ["circuit", "{}"], "circuit is list, not object"),
    (CIRCUIT.replace('"value": "1"', '"value": "1/0"'), ["circuit", "{}"],
     "register node 'reg' has value '1/0', not a rational"),
    (CIRCUIT, ["circuit", "{}", "--input", "zz"],
     "--input zz: expected NAME=SPEC"),
    (TREE_BDE, ["bde", "{}", "--apply", "f:1/0"],
     "line 1, col 1: zero denominator in '1/0'"),
    (TREE_BDE, ["bde", "{}", "--apply", "f:abc"],
     "line 1, col 1: bad rational 'abc'"),
], ids=["solve-zero-denominator", "bde-zero-denominator", "circuit-list",
        "circuit-zero-denominator", "circuit-input-without-name",
        "bde-tree-zero-denominator", "bde-tree-not-a-rational"])
def test_malformed_inputs_exit_2(tmp_path, capsys, body, argv, message):
    path = tmp_path / "input"
    path.write_text(body)
    assert cli_main([a.format(path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.sys"
    path.write_bytes("kind stream\n# caf\u00e9\nx = 1 . x\n".encode("latin-1"))
    assert cli_main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not UTF-8 text: 'utf-8' " \
        "codec can't decode byte 0xe9 in position 17: invalid " \
        "continuation byte\n"


def test_a_value_error_from_a_bug_is_not_an_input_error(files, monkeypatch):
    def broken(args):
        raise ValueError("an engine bug")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    with pytest.raises(ValueError, match="an engine bug"):
        cli_main(["solve", files["tm.sys"]])


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth "
                                                "exceeded"), MemoryError()])
def test_resource_errors_exit_2(files, capsys, monkeypatch, exc):
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_solve", exhausted)
    assert cli_main(["solve", files["tm.sys"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {type(exc).__name__}")


def test_a_file_name_holding_a_nul_byte_exits_2(capsys):
    assert cli_main(["bde", "sh\x00.bde", "--apply", "f:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'sh\\x00.bde': embedded null byte\n"


def test_circuit_output_that_the_circuit_lacks_exits_2(files, capsys):
    assert cli_main(["circuit", files["circ.json"], "--output", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no output 'nope'\n"

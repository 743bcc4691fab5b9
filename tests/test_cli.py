import json

import pytest

from corec import cli
from corec.cli import cli_main


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

SHUFFLE_BDE = ("kind stream\n"
               "sh(x, y): head = head(x) * head(y); "
               "tail = plus(sh(x, tail(y)), sh(tail(x), y))\n")


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, body in (("tm.sys", TM), ("anbbn.gnf", GRAMMAR),
                       ("milner.ccs", MILNER), ("circ.json", CIRCUIT),
                       ("shuffle.bde", SHUFFLE_BDE)):
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


def test_member_true_and_false(files, capsys):
    assert cli_main(["member", files["anbbn.gnf"], "abb"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli_main(["member", files["anbbn.gnf"], "ab"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_member_bad_letter(files, capsys):
    assert cli_main(["member", files["anbbn.gnf"], "abc"]) == 2


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


def test_bde_apply(files, capsys):
    rc = cli_main(["bde", files["shuffle.bde"], "--apply", "sh:ones,ones",
                   "--prefix", "5"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "sh: 1 2 4 8 16"


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

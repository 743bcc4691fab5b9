"""Solving on demand, and a CLI parser built once per process.

`Engine.solve` checks and compiles every right-hand side, so a malformed
system is still rejected there with the arena as it was; a variable's nodes
are built at its first step.  An observed variable builds only what its
steps need, and a fully observed system ends with the arena it always had.
A process's moves with the same action are ordered by node id, which
follows the order in which states are first built, so moves are compared
here as sets, against the SOS oracle."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import corec
from test_solver import test_solve_rejects_each_malformed_rhs as _rejects

from corec import cli
from corec.behavior import move_action, process_step, stream_step
from corec.checking import bounded_equal
from corec.cli import cli_main
from corec.frontends import parse_ccs, parse_system
from corec.instances import ccs_sos, stream_take
from corec.solver import Engine, System
from corec.terms import App, Guard, Var


@pytest.fixture()
def engine():
    return Engine()


# -- every malformed right-hand side is still rejected at `solve` ----------

# the cases of test_solver's rejection test, read from its mark, so that the
# two tests share one list
_MARK, = [m for m in _rejects.pytestmark if m.name == "parametrize"]


def _after_two_well_formed(system):
    """``system`` with a flat and a sandwiched variable put before its own,
    which nobody observes."""
    table = system.table
    if system.kind.deterministic:
        flat = Guard(stream_step(0, Var("w1")))
        sandwiched = App(table.op("zip"), (Guard(stream_step(1, Var("w0"))),
                                           Guard(stream_step(0, Var("w1")))))
    else:
        flat = Guard(process_step((("a", Var("w1")),)))
        sandwiched = App(table.op("par"), (
            Guard(process_step((("b", Var("w0")),))),
            Guard(process_step((("c", Var("w1")),)))))
    return System(system.kind, table, ("w0", "w1") + system.vars,
                  {"w0": flat, "w1": sandwiched, **system.rhs})


@pytest.mark.parametrize("system, error", _MARK.args[1],
                         ids=_MARK.kwargs["ids"])
def test_a_malformed_third_rhs_is_rejected_at_solve(engine, system, error):
    system = _after_two_well_formed(system(engine))
    nodes, cons = len(engine._nodes), dict(engine._cons)
    with pytest.raises(error):
        engine.solve(system)
    assert len(engine._nodes) == nodes and engine._cons == cons


# -- a wide stream system: one node per variable, rhs built on demand ------

WIDE = 2_000


def _wide_system(seed=11):
    """A seeded stream system of `WIDE` variables, half flat
    ``d . plus(xj, xk)``, half sandwiched ``zip(d . xj, plus(e, f . xk))``,
    and its values to depth 4 by direct recurrence."""
    rng = random.Random(seed)
    lines, defs = ["kind stream"], []
    for i in range(WIDE):
        j, k = rng.randrange(WIDE), rng.randrange(WIDE)
        d, e, f = rng.randrange(10), rng.randrange(10), rng.randrange(10)
        flat = rng.random() < 0.5
        lines.append(f"x{i} = {d} . plus(x{j}, x{k})" if flat else
                     f"x{i} = zip({d} . x{j}, plus({e}, {f} . x{k}))")
        defs.append((flat, j, k, d, e, f))
    rows = [[None] * WIDE for _ in range(4)]
    for t in range(4):
        for i, (flat, j, k, d, e, f) in enumerate(defs):
            if flat:
                v = d if t == 0 else rows[t - 1][j] + rows[t - 1][k]
            elif t % 2 == 0:  # zip's left operand, d . xj, at t // 2
                v = d if t == 0 else rows[t // 2 - 1][j]
            else:  # its right operand, e . 0… + f . xk, at t // 2
                v = e + f if t == 1 else rows[t // 2 - 1][k]
            rows[t][i] = v
    return parse_system("\n".join(lines) + "\n"), defs, rows


def test_solve_adds_one_node_per_variable(engine):
    system, _, _ = _wide_system()
    engine.solve(system)
    assert len(engine._nodes) == WIDE and engine._cons == {}


def test_observing_one_variable_builds_only_its_rhs(engine):
    system, defs, rows = _wide_system()
    sol = engine.solve(system)
    i = next(i for i, (flat, *_) in enumerate(defs) if flat)
    assert stream_take(sol[f"x{i}"], 1) == [rows[0][i]]
    # its rhs is one guard over one `plus` node, and no other rhs is built
    assert len(engine._nodes) == WIDE + 1
    built = [v for v in system.vars
             if not engine._nodes[sol[v].node].children]
    assert built == [f"x{i}"]


def test_a_fully_observed_system_keeps_its_arena(engine):
    system, _, rows = _wide_system()
    sol = engine.solve(system)
    got = [stream_take(sol[f"x{i}"], 4) for i in range(WIDE)]
    assert got == [[rows[t][i] for t in range(4)] for i in range(WIDE)]
    assert len(engine._nodes) == 15_585 and len(engine._plans) == 11


# -- process moves: the same sets as the oracle's --------------------------

ACTIONS = ("a", "b", "c", "a'")


def _body(rng, names, depth, guarded=False):
    """A random agent AST; agent references only under a prefix."""
    if guarded and (depth == 0 or rng.random() < 0.4):
        return ("ref", rng.choice(names))
    if depth == 0:
        return ("sum", ())
    r = rng.random()
    if r < 0.45:
        return ("pref", rng.choice(ACTIONS),
                _body(rng, names, depth - 1, True))
    if r < 0.8:
        return ("sum", tuple(_body(rng, names, depth - 1, guarded)
                             for _ in range(2)))
    return ("par", _body(rng, names, depth - 1, guarded),
            _body(rng, names, depth - 1, guarded))


def _mirror(ast):
    """A bisimilar AST: summands reversed, parallel operands swapped, and
    references to the mirrored agents."""
    tag = ast[0]
    if tag == "ref":
        return ("ref", "M" + ast[1])
    if tag == "pref":
        return ("pref", ast[1], _mirror(ast[2]))
    if tag == "sum":
        return ("sum", tuple(_mirror(s) for s in reversed(ast[1])))
    return ("par", _mirror(ast[2]), _mirror(ast[1]))


def _text(ast):
    tag = ast[0]
    if tag == "ref":
        return ast[1]
    if tag == "pref":
        return f"{ast[1]}.{_atom(ast[2])}"
    if tag == "sum":
        return " + ".join(map(_atom, ast[1])) if ast[1] else "0"
    return f"{_atom(ast[1])} | {_atom(ast[2])}"


def _atom(ast):
    text = _text(ast)
    return text if ast[0] in ("ref", "pref") or ast == ("sum", ()) \
        else f"({text})"


def _agent_file(seed, n=30):
    rng = random.Random(seed)
    names = [f"P{i}" for i in range(n)]
    env = {p: _body(rng, names, 3) for p in names}
    env.update({"M" + p: _mirror(env[p]) for p in names})
    text = "".join(f"{p} = {_text(ast)}\n" for p, ast in env.items())
    return text, env


def _oracle_moves(kind, ast, env, depth, memo):
    """The depth-bounded move tree of ``ast`` as nested frozensets."""
    if depth == 0:
        return None
    tree = memo.get((ast, depth))
    if tree is None:
        tree = memo[ast, depth] = frozenset(
            (a, _oracle_moves(kind, sub, env, depth - 1, memo))
            for a, sub in ccs_sos(kind, ast, env))
    return tree


def _engine_moves(tree):
    if tree.cut:
        return None
    return frozenset((move_action(p), _engine_moves(c))
                     for p, c in tree.children)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_agent_moves_as_the_oracle_says(engine, seed):
    text, env = _agent_file(seed)
    system = parse_ccs(text)
    sol, memo = engine.solve(system), {}
    for name in system.vars:
        assert _engine_moves(engine.observe(sol[name], 4)) == \
            _oracle_moves(system.kind, ("ref", name), env, 4, memo), name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bisimulation_verdicts_agree_with_the_oracle(engine, seed):
    text, env = _agent_file(seed)
    system = parse_ccs(text)
    sol = engine.solve(system)
    memo = {}
    tree = {name: _oracle_moves(system.kind, ("ref", name), env, 4, memo)
            for name in system.vars}
    verdicts = []
    for p in system.vars[:30]:
        for q in (f"M{p}", "P0", "MP1"):
            same = bounded_equal(sol[p], sol[q], 4)
            assert same == (tree[p] == tree[q]), (p, q)
            verdicts.append(same)
    assert True in verdicts and False in verdicts


# -- the CLI parser is built once, and no call leaks into the next ---------

TM = ("kind stream\nu = 0 . t\nt = 1 . a\na = zip(1 . a, 0 . b)\n"
      "b = zip(0 . b, 1 . a)\n")

ADDER = ('{"nodes": [{"id": "x", "kind": "input"}, {"id": "y", "kind": '
         '"input"}, {"id": "add", "kind": "adder"}, {"id": "o", "kind": '
         '"output"}], "edges": [["x", "add"], ["y", "add"], ["add", "o"]]}')

RUNS = [
    (["solve", "tm.sys", "--observe", "u:8"],
     ["solve", "tm.sys", "--observe", "t:3", "--observe", "b:5"]),
    (["circuit", "add.json", "--input", "x=ones", "--input", "y=2;1|3"],
     ["circuit", "add.json", "--input", "x=1;2|3", "--prefix", "4"]),
    (["--format", "json", "solve", "tm.sys", "--observe", "a:3"],
     ["solve", "tm.sys"]),
]


def _fresh(argv, cwd):
    """Exit code and output of ``corec argv`` in a new process."""
    env = dict(os.environ, PYTHONPATH=str(Path(corec.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "corec.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=60)
    return done.returncode, done.stdout


@pytest.mark.parametrize("first, second", RUNS, ids=["solve", "circuit",
                                                     "json-then-text"])
def test_two_calls_print_what_two_processes_print(tmp_path, monkeypatch,
                                                  capsys, first, second):
    (tmp_path / "tm.sys").write_text(TM)
    (tmp_path / "add.json").write_text(ADDER)
    monkeypatch.chdir(tmp_path)
    got = []
    for argv in (first, second):
        code = cli_main(argv)
        got.append((code, capsys.readouterr().out))
    assert got == [_fresh(first, tmp_path), _fresh(second, tmp_path)]
    assert got[0][1] != got[1][1]
    assert cli.build_parser() is cli.build_parser()

"""Command-line interface.

Subcommands: `solve` (equation systems), `bde` (behavioral differential
equations), `circuit` (stream circuits), `member` (grammar membership),
`ccs` (process systems), and `check` (property suites).  Exit code 0 on
success, 1 when a check fails, 2 on input errors (including inputs that
exhaust the stack or memory).  A stream's text prints straight from its
first labels (`instances.stream_take`), all else from `Engine.observe`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import checking, frontends, instances
from .behavior import ObservationTree, StreamKind, move_action
from .errors import CorecError
from .solver import Engine


def _obs_json(tree: ObservationTree):
    if tree.cut:
        return {"cut": True}
    label = tree.label
    if isinstance(label, Fraction):
        label = frontends.format_rat(label)
    return {
        "label": label,
        "children": [[move_action(p), _obs_json(c)]
                     for p, c in tree.children],
    }


def _obs_text(h, depth: int) -> str:
    """A stream's first labels, read on node ids; any other observation as
    nested ``(label port:…)``, a process's as ``{action.…}``, a cut as
    ``#``."""
    if isinstance(h.kind, StreamKind):
        return " ".join(map(frontends.format_rat,
                            instances.stream_take(h, depth)))
    # an explicit stack of subtrees and text, so that any depth prints
    det, out, todo = h.kind.deterministic, [], [h.engine.observe(h, depth)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.cut:
            out.append("#")
        else:
            out.append(f"({frontends.format_label(item.label)} " if det
                       else "{")
            todo.append(")" if det else "}")
            for i in reversed(range(len(item.children))):
                port, child = item.children[i]
                mark = f"{port}:" if det else f"{move_action(port)}."
                todo += [child, " " + mark if i else mark]
    return "".join(out)


def _emit(args, payload_text, payload_json):
    if args.format == "json":
        print(json.dumps(payload_json, indent=2))
    else:
        print(payload_text)


def _emit_observations(args, requests):
    """Print ``(name, state, depth)`` requests in the requested format."""
    if args.format == "json":
        print(json.dumps({name: _obs_json(h.engine.observe(h, depth))
                          for name, h, depth in requests}, indent=2))
    else:
        print("\n".join(f"{name}: {_obs_text(h, depth)}"
                        for name, h, depth in requests))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CorecError(f"{path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # open refuses a name holding a NUL byte
        raise CorecError(f"{path!r}: {exc}") from None


def _depth(value, arg: str) -> int:
    if not str(value).isdecimal():
        raise CorecError(f"{arg}: depth {value} is not a non-negative integer")
    return int(value)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> int:
    system = frontends.parse_system(_read(args.file), args.kind)
    engine = Engine()
    sol = engine.solve(system)
    requests = args.observe or [f"{v}:4" for v in system.vars]
    observed = []
    for req in requests:
        var, _, depth_txt = req.partition(":")
        if var not in sol:
            raise CorecError(f"no variable {var!r} in the system")
        depth = _depth(depth_txt, f"--observe {req}") if depth_txt else 4
        observed.append((var, sol[var], depth))
    _emit_observations(args, observed)
    return 0


def _cmd_bde(args) -> int:
    program = frontends.parse_bde(_read(args.file))
    table = program.extended_table()
    engine = Engine()
    name, _, arg_txt = args.apply.partition(":")
    if name not in program.names:
        raise CorecError(f"no defined operation {name!r}")
    arg_specs = [s for s in arg_txt.split(",") if s.strip()] if arg_txt else []
    if isinstance(program.kind, StreamKind):
        handles = [instances.periodic_stream(
            engine, *frontends.parse_stream_spec(s)) for s in arg_specs]
    else:
        handles = [engine.interpret_op(table, table.op(
            "const", frontends.parse_rational(s)), []) for s in arg_specs]
    op = table.op(name)
    result = engine.interpret_op(table, op, handles)
    _emit_observations(args, [
        (name, result, _depth(args.prefix, "--prefix"))])
    return 0


def _cmd_circuit(args) -> int:
    compiled = frontends.compile_circuit(
        frontends.load_circuit(_read(args.file)))
    table = compiled.table()
    engine = Engine()
    for pair in args.input or []:
        if "=" not in pair:
            raise CorecError(f"--input {pair}: expected NAME=SPEC")
    given = {name: frontends.parse_stream_spec(spec) for name, spec in (
        pair.split("=", 1) for pair in args.input or [])}
    unknown = given.keys() - set(compiled.inputs)
    if unknown:
        raise CorecError(f"unknown inputs: {sorted(unknown)}")
    prefix = _depth(args.prefix, "--prefix")
    wanted = [o for o in compiled.outputs
              if args.output in (None, o[0], o[1])]
    if not wanted:
        raise CorecError(f"no output {args.output!r}")
    # one stream, zeros unless given, per input that a wanted output reads
    feeds = {i: instances.periodic_stream(engine, *given.get(i, ((), (0,))))
             for i in dict.fromkeys(j for o in wanted for j in o[2])}
    _emit_observations(args, [
        (node_id, engine.interpret_op(table, table.op(symbol),
                                      [feeds[i] for i in input_ids]), prefix)
        for symbol, node_id, input_ids in wanted])
    return 0


def _cmd_member(args) -> int:
    grammar = frontends.parse_gnf(_read(args.grammar))
    system = frontends.compile_gnf(grammar)
    engine = Engine()
    sol = engine.solve(system)
    word = args.word
    verdict = instances.language_member(sol[grammar.start], word)
    _emit(args, "true" if verdict else "false",
          {"word": word, "member": verdict})
    return 0


def _cmd_ccs(args) -> int:
    system = frontends.parse_ccs(_read(args.file))
    engine = Engine()
    sol = engine.solve(system)
    depth = _depth(args.depth, "--depth")
    if args.bisim:
        left, right = args.bisim
        for name in (left, right):
            if name not in sol:
                raise CorecError(f"no agent {name!r}")
        same = checking.bounded_equal(sol[left], sol[right], depth)
        _emit(args, "true" if same else "false",
              {"left": left, "right": right, "depth": depth,
               "bisimilar": same})
        return 0 if same else 1
    agent = args.agent or system.vars[0]
    if agent not in sol:
        raise CorecError(f"no agent {agent!r}")
    _emit_observations(args, [(agent, sol[agent], depth)])
    return 0


def _cmd_check(args) -> int:
    names = [args.suite] if args.suite else list(checking.suite_names())
    reports = []
    for name in names:
        reports.extend(checking.run_suite(name, seed=args.seed))
    _emit(args, "\n".join(r.to_text() for r in reports),
          [r.to_json() for r in reports])
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; its ``append`` options copy
    their lists, so no call leaves state for the next.  A subcommand runs
    `_cmd_<name>`, looked up at each call."""
    parser = argparse.ArgumentParser(
        prog="corec",
        description="corecursion engine: unique solutions of guarded "
                    "equation systems over streams, trees, languages, "
                    "and processes")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an equation-system file")
    p.add_argument("file")
    p.add_argument("--kind", help="kind when the file has no header")
    p.add_argument("--observe", action="append", metavar="VAR:DEPTH")

    p = sub.add_parser("bde", help="apply an operation defined by "
                                   "behavioral differential equations")
    p.add_argument("file")
    p.add_argument("--apply", required=True, metavar="F:ARG,ARG")
    p.add_argument("--prefix", type=int, default=8)

    p = sub.add_parser("circuit", help="run a compiled stream circuit")
    p.add_argument("file")
    p.add_argument("--input", action="append", metavar="NAME=SPEC")
    p.add_argument("--prefix", type=int, default=8)
    p.add_argument("--output", help="restrict to one output")

    p = sub.add_parser("member", help="grammar membership via derivatives")
    p.add_argument("grammar")
    p.add_argument("word")

    p = sub.add_parser("ccs", help="solve a process definition file")
    p.add_argument("file")
    p.add_argument("--agent")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--bisim", nargs=2, metavar=("P", "Q"))

    p = sub.add_parser("check", help="run property suites")
    p.add_argument("--suite", choices=checking.suite_names())
    p.add_argument("--seed", type=int, default=0)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (CorecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # Last resort: an input too deep or too large for this process is
        # an input error, not a failed check.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

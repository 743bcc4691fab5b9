"""cli_files: ``cli_main`` in-process on generated files, output captured.

Wide stream and tree systems (hundreds to about 2000 variables), CCS files
with hundreds of agents, grammars, BDE files and circuits, printed as text
and as ``--format json`` at shallow depth.  The benchmark parses what the
CLI printed and compares it with its own recurrence evaluation, the
``ccs_sos`` oracle or answers known by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction

from common import (
    ROOT,
    Op,
    fmt_rat,
    periodic,
    rand_rat,
    random_stream_system,
    random_tree_graph,
    tree_graph_text,
    tree_observation,
)
from wl_equiv import CCS_TEMPLATES, _ccs_body, ccs_file
from wl_grammar import _accepted, _grammar_text
from wl_stream import BDE_PROGRAMS, _circuit, _circuit_json, _spec, \
    simulate_circuit

FAMILIES = ("cli_solve_text", "cli_solve_json", "cli_tree_json",
            "cli_ccs_json", "cli_ccs_bisim", "cli_member", "cli_bde",
            "cli_circuit")
# A cycle runs every family on one small and one large file.  What a
# file costs depends on its seeded contents, so the pool holds six of
# each, which cycles go through in turn: the run's latencies then sample
# many files, and their percentiles depend little on the seed.
POOL = 12
PER_CYCLE = 2
STREAM_SIZES = (300, 2000)
STREAM_DEPTH = 4
TREE_SIZES = (200, 500)
TREE_DEPTH = 4
CCS_AGENTS = (200, 500)
CCS_DEPTH = 4
MEMBER_N = (10, 25)
PREFIX = 8


def _lines_to_digits(out):
    got = {}
    for line in out.strip().splitlines():
        var, _, digits = line.partition(": ")
        got[var] = [Fraction(d) for d in digits.split()]
    return got


def _json_stream(blob):
    out = []
    while not blob.get("cut"):
        out.append(Fraction(blob["label"]))
        blob = blob["children"][0][1]
    return out


def _json_tree(blob):
    if blob.get("cut"):
        return None
    kids = dict(blob["children"])
    return (Fraction(blob["label"]), _json_tree(kids["L"]),
            _json_tree(kids["R"]))


def _json_moves(blob):
    """A process observation as a set of (action, subtree) pairs."""
    if blob.get("cut"):
        return None
    return frozenset((a, _json_moves(sub)) for a, sub in blob["children"])


def _sos_moves(kind, ast, env, depth, oracle):
    if depth <= 0:
        return None
    return frozenset((a, _sos_moves(kind, cont, env, depth - 1, oracle))
                     for a, cont in oracle("ccs_sos", kind, ast, env))


def _ccs_ast(template, names, acts):
    """The AST of one agent body, as ``instances.ccs_sos`` reads it."""
    summands = []
    for act, cont in template:
        if cont is None:
            body = ("sum", ())
        elif isinstance(cont, tuple):
            body = ("par", ("ref", names[cont[1]]),
                    ("pref", acts[cont[2]], ("sum", ())))
        else:
            body = ("ref", names[cont])
        summands.append(("pref", acts[act], body))
    return ("sum", tuple(summands))


class CliFiles:
    name = "cli_files"
    families = FAMILIES
    probe_start = 64
    probe_cap = 8192
    period = POOL // PER_CYCLE  # cycles after which the operations repeat

    def __init__(self, corec, seed, scale=1.0):
        self.corec = corec
        rng = random.Random(f"cli_files/{seed}")
        self.dir = os.path.join(ROOT, "perfbench", "out",
                                f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        oracle = corec.instances.oracle_eval
        kind = corec.behavior.process_actions("a", "b", "c")
        self.pool = {f: [] for f in FAMILIES}

        def size(n):
            return max(4, int(n * scale))

        for i in range(POOL):
            n = size(STREAM_SIZES[i % PER_CYCLE])
            text, ev, names = random_stream_system(rng, n)
            path = self._write(f"stream{i}.sys", text)
            want = {v: ev.prefix(v, STREAM_DEPTH) for v in names}
            self.pool["cli_solve_text"].append((path, want))
            deep = rng.sample(names, 4)
            self.pool["cli_solve_json"].append(
                (path, deep, {v: ev.prefix(v, PREFIX) for v in deep}))

            graph, names = random_tree_graph(
                rng, size(TREE_SIZES[i % PER_CYCLE]))
            path = self._write(f"tree{i}.sys", tree_graph_text(graph, names))
            picked = rng.sample(names, 8)
            self.pool["cli_tree_json"].append(
                (path, picked,
                 {v: tree_observation(graph, v, TREE_DEPTH) for v in picked}))

            path, agents, env, roots = self._ccs(
                rng, size(CCS_AGENTS[i % PER_CYCLE]), i)
            agent = rng.choice(agents)
            self.pool["cli_ccs_json"].append(
                (path, agent,
                 _sos_moves(kind, ("ref", agent), env, CCS_DEPTH, oracle)))
            self.pool["cli_ccs_bisim"].append((path, roots))

            style = ("anbn", "anbn1")[i % PER_CYCLE]
            path = self._write(f"g{i}.gnf", _grammar_text(style, rng))
            m = size(MEMBER_N[i % PER_CYCLE])
            word = _accepted(style, m)
            self.pool["cli_member"].append(
                (path, [(word, True), (word[:-1], False),
                        (word + "b", False)]))

            kind_name = ("lin", "sh")[i % PER_CYCLE]
            f = f"f{rng.randint(0, 999)}"
            p, q = rand_rat(rng, 1, 4), rand_rat(rng, 1, 4)
            text = "kind stream\n" + BDE_PROGRAMS[kind_name].format(
                f=f, x="x", y="y", p=fmt_rat(p), q=fmt_rat(q)) + "\n"
            a, b = _spec(rng), _spec(rng)
            xs, ys = periodic(*a, PREFIX), periodic(*b, PREFIX)
            if kind_name == "lin":
                want = [p * x + q * y for x, y in zip(xs, ys)]
            elif kind_name == "sh":
                want = oracle("binomial_shuffle", xs, ys)
            else:
                want = oracle("cauchy_convolution", xs, ys)
            self.pool["cli_bde"].append(
                (self._write(f"op{i}.bde", text),
                 f"{f}:{_spec_text(a)},{_spec_text(b)}", f, want))

            nodes, edges = _circuit(rng, i)
            specs = {nid: _spec(rng) for nid, (k, _) in nodes.items()
                     if k == "input"}
            feeds = {nid: periodic(*s, PREFIX) for nid, s in specs.items()}
            self.pool["cli_circuit"].append(
                (self._write(f"c{i}.json", _circuit_json(nodes, edges)),
                 [f"{nid}={_spec_text(s)}" for nid, s in specs.items()],
                 simulate_circuit(nodes, edges, feeds, PREFIX)))

    def _write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _ccs(self, rng, agents, i):
        """Many independent copies of the agent templates in one file."""
        lines, names_all, env, roots = [], [], {}, None
        perm = list("abc")
        while len(names_all) < agents:
            template = CCS_TEMPLATES[rng.randrange(len(CCS_TEMPLATES))]
            rng.shuffle(perm)
            acts = dict(zip("xyz", perm))
            tag = len(names_all)
            names = {n: f"A{n}{tag}" for n in template}
            for n, summands in template.items():
                env[names[n]] = _ccs_ast(summands, names, acts)
                names_all.append(names[n])
            if roots is None:
                text, roots = ccs_file(template, rng)
                lines.append(text.strip())
            for n, summands in template.items():
                lines.append(
                    f"{names[n]} = {_ccs_body(summands, names, acts, False)}")
        path = self._write(f"agents{i}.ccs", "\n".join(lines) + "\n")
        return path, names_all, env, roots[:2]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- operations ---------------------------------------------------------

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.corec.cli.cli_main(argv)
        out = buf.getvalue()
        self.out_bytes += len(out.encode())
        return code, out

    out_bytes = 0

    def once(self):
        return []

    def cycle(self, k):
        ops = []
        for j in range(PER_CYCLE):
            ops.extend(self._ops((k * PER_CYCLE + j) % POOL))
        return ops

    def _ops(self, j):
        # the closures bind their inputs as defaults: the names are reused
        ops = []
        path, want = self.pool["cli_solve_text"][j]

        def solve_text(path=path):
            code, out = self._cli(["solve", path])
            return code, _lines_to_digits(out)

        ops.append(Op("cli_solve_text", solve_text, (0, want),
                      len(want) * STREAM_DEPTH))

        path, deep, want = self.pool["cli_solve_json"][j]
        argv = ["--format", "json", "solve", path]
        for v in deep:
            argv += ["--observe", f"{v}:{PREFIX}"]

        def solve_json(argv=argv):
            code, out = self._cli(argv)
            blob = json.loads(out)
            return code, {v: _json_stream(t) for v, t in blob.items()}

        ops.append(Op("cli_solve_json", solve_json, (0, want),
                      len(deep) * PREFIX))

        path, picked, want = self.pool["cli_tree_json"][j]
        argv = ["--format", "json", "solve", path]
        for v in picked:
            argv += ["--observe", f"{v}:{TREE_DEPTH}"]

        def tree_json(argv=argv):
            code, out = self._cli(argv)
            blob = json.loads(out)
            return code, {v: _json_tree(t) for v, t in blob.items()}

        ops.append(Op("cli_tree_json", tree_json, (0, want),
                      len(picked) * (2 ** TREE_DEPTH)))

        path, agent, want = self.pool["cli_ccs_json"][j]

        def ccs_json(path=path, agent=agent):
            code, out = self._cli(["--format", "json", "ccs", path, "--agent",
                                   agent, "--depth", str(CCS_DEPTH)])
            return code, _json_moves(json.loads(out)[agent])

        ops.append(Op("cli_ccs_json", ccs_json, (0, want), CCS_DEPTH))

        path, (left, right) = self.pool["cli_ccs_bisim"][j]

        def ccs_bisim(path=path, left=left, right=right):
            code, out = self._cli(["ccs", path, "--bisim", left, right,
                                   "--depth", str(CCS_DEPTH + 2)])
            return code, out.strip()

        ops.append(Op("cli_ccs_bisim", ccs_bisim, (0, "true"), CCS_DEPTH + 2))

        path, words = self.pool["cli_member"][j]
        for word, verdict in words:
            def member(path=path, word=word):
                code, out = self._cli(["member", path, word])
                return code, out.strip()

            ops.append(Op("cli_member", member,
                          (0, "true" if verdict else "false"), len(word)))

        path, apply, name, want = self.pool["cli_bde"][j]

        def bde(path=path, apply=apply, name=name):
            code, out = self._cli(["bde", path, "--apply", apply,
                                   "--prefix", str(PREFIX)])
            return code, _lines_to_digits(out).get(name)

        ops.append(Op("cli_bde", bde, (0, want), PREFIX))

        path, inputs, want = self.pool["cli_circuit"][j]
        argv = ["--format", "json", "circuit", path, "--prefix", str(PREFIX)]
        for spec in inputs:
            argv += ["--input", spec]

        def circuit(argv=argv):
            code, out = self._cli(argv)
            blob = json.loads(out)
            return code, {nid: _json_stream(t) for nid, t in blob.items()}

        ops.append(Op("cli_circuit", circuit, (0, want), PREFIX))
        return ops

    # -- recursion ceiling ------------------------------------------------

    def probe(self, n):
        """`corec solve --observe u:n` on the Thue-Morse file exits 0."""
        path = os.path.join(self.dir, "tm.sys")
        if not os.path.exists(path):
            self._write("tm.sys", "kind stream\nu = 0 . t\nt = 1 . a\n"
                        "a = zip(1 . a, 0 . b)\nb = zip(0 . b, 1 . a)\n")
        code, out = self._cli(["solve", path, "--observe", f"u:{n}"])
        digits = _lines_to_digits(out).get("u", [])
        return code == 0 and len(digits) == n


def _spec_text(spec):
    pre, cyc = spec
    return ";".join(fmt_rat(v) for v in pre) + "|" + \
        ";".join(fmt_rat(v) for v in cyc)

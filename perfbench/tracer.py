"""Spans around the public functions of the engine's layers.

Only the traced run installs the wrappers; the untraced run leaves the
engine untouched.  A wrapper replaces the function object wherever a
``corec`` module binds it (``from .rules import build_table`` makes a
second binding), or the method on its class.  ``behavior`` and ``terms``
are imported by name throughout and have no outside boundary, so their
time counts in the caller's self time.

Spans are kept in flat typed arrays (name, start, end, parent, operation
id) and written out when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (layer module, attribute path) of every wrapped public function.
TARGETS = {
    "frontends": ("parse_system", "parse_bde", "parse_ccs", "parse_gnf",
                  "compile_gnf", "load_circuit", "compile_circuit",
                  "parse_stream_spec", "BdeProgram.extended_table",
                  "CompiledCircuit.table"),
    "rules": ("build_table", "extend_with_rps", "register_srps", "add_rule",
              "validate_table", "RuleTable.validation"),
    "solver": ("Engine.unfold", "Engine.observe", "Engine.solve",
               "Engine.interpret_op", "Engine.interpret_term",
               "Engine.elaborate_guards", "Engine.materialize_rhs",
               "Engine.compose_systems"),
    "instances": ("oracle_eval", "language_member", "stream_take",
                  "periodic_stream", "stream_base_table", "stream_table",
                  "tree_table", "language_table", "ccs_table",
                  "language_term", "ccs_term"),
    "checking": ("find_divergence", "bounded_equal", "diagram_check",
                 "run_suite"),
    "cli": ("cli_main", "build_parser"),
}
PARSERS = {"frontends.parse_system", "frontends.parse_bde",
           "frontends.parse_ccs", "frontends.parse_gnf",
           "frontends.load_circuit"}


class Tracer:
    def __init__(self, corec):
        self.corec = corec
        self.names = []
        self.name_id = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = -1
        self.parse_bytes = 0
        self.engines = {}
        self.arena_nodes = 0
        self.memo_entries = 0
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        engine_cls = self.corec.solver.Engine
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "corec" or
                                         n.startswith("corec."))]
        for layer, paths in TARGETS.items():
            mod = getattr(self.corec, layer)
            for path in paths:
                name = f"{layer}.{path.split('.')[-1]}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    wrapped = self._wrap(name, fn, cls is engine_cls)
                    setattr(cls, meth, wrapped)
                    self._undo.append((cls, meth, fn))
                    continue
                fn = getattr(mod, path)
                wrapped = self._wrap(name, fn, False)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    def _wrap(self, name, fn, engine_method):
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        parser = name in PARSERS
        tr = self

        def wrapper(*args, **kwargs):
            i = len(tr.start)
            tr.name_of.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.op.append(tr.current_op)
            if engine_method:
                tr.touch(args[0])
            elif parser and args and isinstance(args[0], str):
                tr.parse_bytes += len(args[0].encode())
            tr.end.append(0.0)
            tr.stack.append(i)
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = perf_counter()
                tr.stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- engine counters (read-only reads of engine internals) --------------

    def touch(self, engine):
        key = id(engine)
        if key not in self.engines:
            self.engines[key] = (engine, len(engine._nodes),
                                 len(engine._memo))

    def begin_op(self, op_id):
        self.current_op = op_id
        self.engines = {}

    def end_op(self):
        for engine, nodes0, memo0 in self.engines.values():
            self.arena_nodes += len(engine._nodes) - nodes0
            self.memo_entries += len(engine._memo) - memo0
        self.engines = {}
        self.current_op = -1

    # -- derived metrics -----------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self seconds, total seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total = defaultdict(float)
        name_of = self.name_of
        names = self.names
        for i in range(n):
            name = names[name_of[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            total[name] += dur[i]
        return calls, self_s, total

    def write(self, path):
        """Spans as CSV: name, start, end, parent index, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]},{self.op[i]}\n")

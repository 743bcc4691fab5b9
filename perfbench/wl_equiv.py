"""equivalence: checker verdicts with answers known by construction.

Tree pairs are a regular tree graph against a layered copy of itself,
equal or with one label changed at a seeded depth; process pairs are an
agent against its mirror image (summands reversed, parallel operands
swapped) or against a mutant that lost one action.  The property suites
run once per run with their default seeds.
"""

from __future__ import annotations

import random

from common import (
    PROCESS_ACTIONS,
    Op,
    fmt_rat,
    random_stream_system,
    random_tree_graph,
    tree_graph_text,
)

FAMILIES = ("tree_eq", "tree_neq", "ccs_mirror", "ccs_neq", "diagram",
            "compose", "suite_modularity", "suite_language_laws")
TREE_EQ_DEPTHS = (10, 11, 12, 13)
TREE_NEQ_DEPTHS = (7, 8, 9, 10)  # depth of the changed label
CCS_DEPTHS = (8, 9, 10)
DIAGRAM_DEPTH = 16
COMPOSE_DEPTHS = (8, 10, 12)
# Every cycle runs each family once per depth in its ladder, so all cycles
# hold the same mix of work.  The cost of a check depends on the seeded
# graphs and agents, so pools hold POOL_CYCLES cycles' worth of inputs:
# the run's latencies then sample many inputs, and their percentiles
# depend little on the seed.
POOL_CYCLES = 8
PER_CYCLE = {"tree_eq": len(TREE_EQ_DEPTHS), "tree_neq": len(TREE_NEQ_DEPTHS),
             "ccs_mirror": len(CCS_DEPTHS), "ccs_neq": len(CCS_DEPTHS),
             "diagram": 2, "compose": len(COMPOSE_DEPTHS)}

# Agent templates over actions x, y, z; z occurs only in `z.0`, so the
# mutant that renames it cannot match the original's z move.
CCS_TEMPLATES = (
    {"P": [("x", "P"), ("y", ("par", "P", "z"))]},
    {"P": [("x", "R"), ("y", ("par", "P", "z"))],
     "R": [("y", "P"), ("x", None)]},
    {"P": [("x", ("par", "R", "z")), ("y", "P")],
     "R": [("x", "P"), ("y", "R"), ("x", None)]},
)


def _ccs_body(summands, names, acts, mirror):
    parts = []
    for act, cont in summands:
        if cont is None:
            body = "0"
        elif isinstance(cont, tuple):
            left, right = names[cont[1]], f"{acts[cont[2]]}.0"
            if mirror:
                left, right = right, left
            body = f"({left} | {right})"
        else:
            body = names[cont]
        parts.append(f"{acts[act]}.{body}")
    if mirror:
        parts.reverse()
    return " + ".join(parts)


def ccs_file(template, rng):
    """Original, mirror and mutant agents in one file; their root names."""
    perm = list(PROCESS_ACTIONS)
    rng.shuffle(perm)
    acts = dict(zip("xyz", perm))
    mutant_acts = dict(acts, z=acts["x"])
    tag = rng.randint(0, 999)
    lines, roots = [], []
    for prefix, mirror, a in (("P", False, acts), ("Q", True, acts),
                              ("U", True, mutant_acts)):
        names = {n: f"{prefix}{n}{tag}" for n in template}
        roots.append(names["P"])
        for n, summands in template.items():
            lines.append(f"{names[n]} = "
                         f"{_ccs_body(summands, names, a, mirror)}")
    return "\n".join(lines) + "\n", roots


def layered_copy(graph, root, layers, prefix, mutate=None):
    """System text of ``graph`` unrolled ``layers`` deep, then a copy.

    ``mutate`` = (layer, node) bumps one label in the unrolled part.
    """
    lines = []
    for j in range(layers + 1):
        nxt = min(j + 1, layers)
        for name, (label, left, right) in graph.items():
            if mutate == (j, name):
                label = label + 1
            lines.append(f"{prefix}{j}_{name} = {fmt_rat(label)} . "
                         f"({prefix}{nxt}_{left}, {prefix}{nxt}_{right})")
    return "\n".join(lines) + "\n", f"{prefix}0_{root}"


def nodes_at_depth(graph, root, depth):
    layer = {root}
    for _ in range(depth):
        layer = {graph[n][k] for n in layer for k in (1, 2)}
    return sorted(layer)


def walk(graph, root, path):
    node = root
    for port in path:
        node = graph[node][1 if port == "L" else 2]
    return node


class Equivalence:
    name = "equivalence"
    families = FAMILIES
    probe_start = 64
    probe_cap = 8192
    period = POOL_CYCLES  # cycles after which the operations repeat

    def __init__(self, corec, seed, scale=1.0):
        self.corec = corec
        rng = random.Random(f"equivalence/{seed}")
        small = scale < 1

        def depth(d):
            return max(2, int(d * scale)) if small else d

        self.pool = {f: [] for f in PER_CYCLE}
        for i in range(POOL_CYCLES * PER_CYCLE["tree_eq"]):
            graph, names = random_tree_graph(rng, rng.randint(2, 3))
            copy_text, copy_root = layered_copy(graph, names[0],
                                                rng.randint(2, 4), "m")
            self.pool["tree_eq"].append(
                (tree_graph_text(graph, names) + copy_text, names[0],
                 copy_root, depth(TREE_EQ_DEPTHS[i % len(TREE_EQ_DEPTHS)])))
        for i in range(POOL_CYCLES * PER_CYCLE["tree_neq"]):
            graph, names = random_tree_graph(rng, rng.randint(2, 3))
            at = depth(TREE_NEQ_DEPTHS[i % len(TREE_NEQ_DEPTHS)])
            target = rng.choice(nodes_at_depth(graph, names[0], at))
            copy_text, copy_root = layered_copy(graph, names[0], at + 1, "m",
                                                mutate=(at, target))
            self.pool["tree_neq"].append(
                (tree_graph_text(graph, names) + copy_text, names[0],
                 copy_root, at + 1, graph, at, target))
        for i in range(POOL_CYCLES * PER_CYCLE["ccs_mirror"]):
            ccs_text, roots = ccs_file(
                CCS_TEMPLATES[i % len(CCS_TEMPLATES)], rng)
            d = depth(CCS_DEPTHS[i % len(CCS_DEPTHS)])
            self.pool["ccs_mirror"].append((ccs_text, roots[0], roots[1], d))
            self.pool["ccs_neq"].append((ccs_text, roots[0], roots[2], d))
        for i in range(POOL_CYCLES * PER_CYCLE["diagram"]):
            sys_text, _, _ = random_stream_system(
                rng, 6 if small else 30, prefix=f"x{i}_")
            self.pool["diagram"].append((sys_text, depth(DIAGRAM_DEPTH)))
        for i in range(POOL_CYCLES * PER_CYCLE["compose"]):
            self.pool["compose"].append(
                (self._compose_texts(rng, small),
                 depth(COMPOSE_DEPTHS[i % len(COMPOSE_DEPTHS)])))

    @staticmethod
    def _compose_texts(rng, small):
        base_text, _, base_names = random_stream_system(
            rng, 3 if small else 8, prefix="p")
        ext_text, _, ext_names = random_stream_system(
            rng, 3 if small else 8, prefix="q")
        # the last two variables of the extension become external refs
        externals = {ext_names[-1]: rng.choice(base_names),
                     ext_names[-2]: rng.choice(base_names)}
        return base_text, ext_text, externals

    # -- operations ---------------------------------------------------------

    def once(self):
        c = self.corec

        def suite(name):
            return lambda: all(r.passed for r in c.checking.run_suite(name))

        return [Op("suite_modularity", suite("modularity"), True, 1),
                Op("suite_language_laws", suite("language-laws"), True, 1)]

    def cycle(self, k):
        ops = []
        for fam, m in PER_CYCLE.items():
            pool = self.pool[fam]
            make = getattr(self, "_op_" + fam)
            ops.extend(make(*pool[(k * m + j) % len(pool)]) for j in range(m))
        return ops

    def _op_tree_eq(self, text, root, other, d):
        c = self.corec

        def tree_eq():
            engine = c.solver.Engine()
            sol = engine.solve(c.frontends.parse_system(text))
            return c.checking.find_divergence(sol[root], sol[other], d)

        return Op("tree_eq", tree_eq, None, d)

    def _op_tree_neq(self, text, root, other, d, graph, at, target):
        c = self.corec

        def tree_neq():
            engine = c.solver.Engine()
            sol = engine.solve(c.frontends.parse_system(text))
            w = c.checking.find_divergence(sol[root], sol[other], d)
            return None if w is None else (w.depth, tuple(w.path))

        def minimal_at(got, want):
            return got is not None and got[0] == want[0] and \
                walk(graph, root, got[1]) == want[1]

        return Op("tree_neq", tree_neq, (at, target), d, minimal_at)

    def _ccs(self, family, want, text, left, right, d):
        c = self.corec

        def ccs():
            engine = c.solver.Engine()
            sol = engine.solve(c.frontends.parse_ccs(text))
            return c.checking.bounded_equal(sol[left], sol[right], d)

        return Op(family, ccs, want, d)

    def _op_ccs_mirror(self, *entry):
        return self._ccs("ccs_mirror", True, *entry)

    def _op_ccs_neq(self, *entry):
        return self._ccs("ccs_neq", False, *entry)

    def _op_diagram(self, text, d):
        c = self.corec

        def diagram():
            system = c.frontends.parse_system(text)
            sol = c.solver.Engine().solve(system)
            return c.checking.diagram_check(system, sol, d).passed

        return Op("diagram", diagram, True, d)

    def _op_compose(self, texts, d):
        c = self.corec
        base_text, ext_text, externals = texts

        def compose():
            f = c.frontends.parse_system(base_text)
            parsed = c.frontends.parse_system(ext_text)
            rhs = dict(parsed.rhs)
            for var, target in externals.items():
                rhs[var] = c.solver.ExternalRhs(target)
            e = c.solver.System(parsed.kind, parsed.table, parsed.vars, rhs)
            _, ok = c.solver.Engine().compose_systems(f, e, depth=d)
            return ok

        return Op("compose", compose, True, d)

    # -- recursion ceiling ------------------------------------------------

    def probe(self, n):
        """bounded_equal of two formulations of one periodic stream."""
        c = self.corec
        engine = c.solver.Engine()
        text = ("kind stream\na = 1 . b\nb = 2 . a\n"
                "p = 1 . q\nq = 2 . r\nr = 1 . s\ns = 2 . p\n")
        sol = engine.solve(c.frontends.parse_system(text))
        return c.checking.bounded_equal(sol["a"], sol["p"], n) is True

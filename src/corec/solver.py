"""Lazy memoized unfolding of terms over states and equation solving.

The engine owns an arena of nodes: operation symbols applied to child
nodes, sums of an additive symbol as multisets of their operands, guard
states holding a precomputed step, and the variables of systems.  Every
node's step is computed at most once and memoized; terms over the same
states that are equal modulo the laws their rules declare (`rules.Law`)
share a node.  Solving a system allocates a node per variable and checks
and compiles every right-hand side, so a malformed one is rejected there; a
variable's right-hand side is built at its first step, and
`unfold`/`observe` step on demand.  Terms, right-hand sides and rule
conclusions compile to post-order code (`rules.compile_code`).  A rule runs
once per premise shape: symbol, parameter and the premises' labels (numbers
keyed as integer ratios, and labels left to the plan to compute where the
rule only does arithmetic on them: `rules.plan_symbolic`) or, for
processes, actions.  Its plan, made by `rules.plan_rule` as the table
probe's is, is filled with the premises' node ids at every application of
that shape, as natural rules allow (`rules.GsosRule`).  Plans live with
their table (`RuleTable.plans`), shared by every engine over it, and name
symbols by name; an engine binds them to its symbol records (`_Sym`),
which term and sum nodes and filled code name and which die with it.  A
plan that names a state is its engine's alone.  A sum adds its operands'
labels as integers over a common denominator, and its step, on the kind's
ports with a `Fraction` label by construction, is not checked again.  A
solved state enters a term, as a `Param`, a variable's value or an
argument of `interpret_op`, through one check (`rules.state_node`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional

from .behavior import (CUT, ObservationTree, Step, SymbolicLabel,
                       canonicalize_step)
from .errors import (
    ArityMismatch,
    InvalidHandle,
    KindMismatch,
    RuleDiverged,
    ValidationFailed,
    VariableClash,
)
from .rules import (RuleTable, compile_code, plan_rule, plan_symbolic,
                    state_node)
from .terms import Guard, OpSym, Param, Term, free_vars, is_reserved_name


@dataclass
class EngineConfig:
    """Operational limits; the fuse bounds rule applications per step."""

    unfold_fuse: int = 1_000_000


@dataclass(frozen=True)
class ExternalRhs:
    """Reference to another system's variable; only valid under composition."""

    var: str


@dataclass(frozen=True, eq=True)
class System:
    """Equations ``v = rhs[v]``, one per variable of ``vars``.

    A right-hand side is a term over the variables, guarded: a `Guard` at
    the root makes a flat equation, given symbols of ``table`` above
    `Guard` leaves and `Param` arguments a sandwiched one, and a `Param` a
    constant."""

    kind: object
    table: RuleTable
    vars: tuple
    rhs: dict

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class SolutionHandle:
    """A state of the solved coalgebra; valid while its engine lives."""

    engine: "Engine"
    node: int
    kind: object

    def __repr__(self):
        return f"<state {self.node} of engine {id(self.engine):#x}>"


class _Sym:
    # One symbol of one table at one parameter, as an engine resolves it
    # once: ``key`` is ``(table, name, parameter key)``, the `Engine._plans`
    # key prefix (and less the table, `RuleTable.plans`'), ``op`` the symbol
    # as the author of its rule knew it, ``law`` its law or None, and
    # ``plan`` its symbolic plan, False when it has none, or None until its
    # first application; a symbol of a kind without rational labels has
    # none.
    __slots__ = ("table", "name", "op", "law", "key", "plan")

    def __init__(self, key, op):
        table, name, _ = self.key = key
        self.table, self.name, self.op, self.law = table, name, \
            table.author_op(name, op), table.laws.get(name)
        self.plan = None if table.kind.rational else False


class _Node:
    # Term nodes apply the symbol record ``sym`` to ``children``.  Sum
    # nodes of an additive symbol ``sym``: ``children`` are ``(node,
    # multiplicity)`` pairs, ascending by node.  A variable (tag ``var``)
    # holds its right-hand side's checked, interned code in ``children``
    # until its first step builds it.
    __slots__ = ("tag", "kind", "sym", "children", "step")

    def __init__(self, tag, kind, sym=None, children=(), step=None):
        self.tag, self.kind, self.sym = tag, kind, sym
        self.children, self.step = children, step

    @property
    def name(self):  # a term's or sum's symbol, by its name in its table
        return self.sym and self.sym.name


class Engine:
    """Single-owner arena of state graphs plus the unfolding machinery."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self._nodes = []
        self._memo = {}
        self._cons = {}
        self._plans = {}
        self._syms = {}
        self._work = 0

    # -- bookkeeping --------------------------------------------------------

    def _tick(self):
        raise RuleDiverged(
            f"more than {self.config.unfold_fuse} rule applications in "
            "one step; the input table is ill-formed")

    def _sym(self, table: RuleTable, name: str, op) -> _Sym:
        """The record of ``op``, named ``name`` in ``table``."""
        # A number parameter keys as its integer ratio, equal for equal
        # values and cheap to hash, where `Fraction.__hash__` is not.
        p = op.param
        key = (table, name, p.as_integer_ratio()
               if p.__class__ in (Fraction, int, bool) else p)
        return self._syms.get(key) or self._syms.setdefault(key, _Sym(key, op))

    def _intern(self, table: RuleTable):
        """``intern`` for `rules.compile_code`: a symbol's record in ``table``,
        or if its parameter is symbolic, table and name for `_fill`."""
        return lambda name, op: (
            (table, name) if op.param.__class__ is SymbolicLabel
            else self._sym(table, name, op))

    def _cons_term(self, sym: _Sym, children) -> int:
        """The node of ``sym`` on ``children``."""
        nodes = self._nodes
        nid = self._cons.setdefault((sym, children), len(nodes))
        if nid == len(nodes):
            nodes.append(_Node("term", sym.table.kind, sym, children))
        return nid

    def _law_node(self, sym: _Sym, law, child_ids) -> int:
        """``sym(l, r)`` modulo ``law``.  Only term nodes of its table can
        be units, zeros or same-symbol operands; every such node is already
        normal: right-nested, with no unit, zero or same-symbol left
        operand, and for a commutative law operands ascending by id
        (strictly, for a semilattice).  A zero absorbs and units drop.  A
        commutative law sorts the operands of both sides, keeping
        duplicates, and a semilattice also de-duplicates them; otherwise
        the left side's operands fold onto the right side, which is normal
        already.  An additive law gives a sum node (`_sum_node`)."""
        table = sym.table
        if law.additive:
            return self._sum_node(table, sym.name,
                                  [(c, 1) for c in child_ids], sym)
        nodes = self._nodes
        kept = []
        for c in child_ids:
            s = nodes[c].sym
            if s is not None and s.table is table:
                if s.name == law.zero:
                    return c
                if s.name == law.unit:
                    continue
            kept.append(c)
        if not kept:
            return self._cons_term(
                self._sym(table, law.unit, table.op(law.unit)), ())
        unordered = law.semilattice or law.commutative
        acc = None if unordered else kept.pop()
        operands = []
        for c in kept:
            n = nodes[c]
            while n.sym is sym:
                operands.append(n.children[0])
                c = n.children[1]
                n = nodes[c]
            operands.append(c)
        if unordered:
            operands = sorted(set(operands) if law.semilattice else operands)
            acc = operands.pop()
        for c in reversed(operands):
            acc = self._cons_term(sym, (c, acc))
        return acc

    def _sum_node(self, table, name, weighted, sym=None) -> int:
        """The sum of the additive ``name``, or ``sym``, over ``(node,
        multiplicity)`` pairs: operands that are sums of the same symbol are
        flattened, their multiplicities multiplied, and the multiset is
        hash-consed as one node."""
        sym = sym or self._sym(table, name, table.op(name))
        nodes = self._nodes
        acc = {}
        for c, m in weighted:
            n = nodes[c]
            if n.sym is sym:
                for d, k in n.children:
                    acc[d] = acc.get(d, 0) + m * k
            else:
                acc[c] = acc.get(c, 0) + m
        return self._cons_sum(sym, acc)

    def _cons_sum(self, sym: _Sym, acc: dict) -> int:
        """The sum node of the multiset ``acc``, flat already, from node to
        multiplicity, hash-consed on ``(children, sym)``: no term's key."""
        nodes = self._nodes
        children = tuple(sorted(acc.items()))
        nid = self._cons.setdefault((children, sym), len(nodes))
        if nid == len(nodes):
            nodes.append(_Node("sum", sym.table.kind, sym, children))
        return nid

    def _guard_node(self, kind, step: Step) -> int:
        step = canonicalize_step(kind, step)
        nodes = self._nodes
        nid = self._cons.setdefault(("g", kind, step.label, step.children),
                                    len(nodes))
        if nid == len(nodes):
            nodes.append(_Node("guard", kind, step=step))
        return nid

    def check_handle(self, h: SolutionHandle):
        """Raise InvalidHandle unless ``h`` is a live state of this engine."""
        if not isinstance(h, SolutionHandle) or h.engine is not self:
            raise InvalidHandle(f"handle {h!r} does not belong to this engine")
        if not (0 <= h.node < len(self._nodes)):
            raise InvalidHandle(f"stale node id {h.node}")

    def _handle(self, nid: int) -> SolutionHandle:
        return SolutionHandle(self, nid, self._nodes[nid].kind)

    # -- term instantiation --------------------------------------------------

    def _instantiate(self, table: RuleTable, root, binding):
        """The node of the term ``root``, or the step ``root`` with its
        continuations built, checked and canonical; variables are looked up
        in ``binding``.  The callers check a guarded term's part above the
        guards first, by `Guard.above`."""
        return self._fill(table.kind, compile_code(
            table.kind, table.resolve, root, binding, self.check_handle,
            self._intern(table)), ())

    def _fill(self, kind, code, holes, labels=()):
        """The root's node, or its canonical step: `_intern`ed ``code`` run
        on a value stack, a symbol's node built by `_cons_term`, or by
        `_law_node` if it has a law, guards by `_guard_node`, symbolic
        labels and parameters valued at the premises' ``labels``."""
        stack = []
        for ins in code:
            if ins.__class__ is int:
                stack.append(holes[ins] if ins >= 0 else ~ins)
                continue
            tag, n, a, b = ins
            k = len(stack) - n
            kids = tuple(stack[k:])
            del stack[k:]
            if tag == "param":
                a = self._sym(*a, OpSym(b.name, b.arity, b.sig_id,
                                        b.param.at(kind, labels)))
            if tag == "app" or tag == "param":
                law = a.law
                stack.append(self._cons_term(a, kids) if law is None
                             else self._law_node(a, law, kids))
            else:
                if a.__class__ is SymbolicLabel:
                    a = labels[a.index] if a.index >= 0 else a.at(kind, labels)
                step = Step(a, tuple(zip(b, kids)))
                stack.append(self._guard_node(kind, step) if tag == "guard"
                             else step if kind.deterministic
                             else canonicalize_step(kind, step))
        return stack[0]

    # -- unfolding -----------------------------------------------------------

    def _unfold(self, nid: int) -> Step:
        step = self._memo.get(nid)
        if step is not None:
            return step
        self._work += 1
        if self._work > self.config.unfold_fuse:
            self._tick()
        node = self._nodes[nid]
        tag = node.tag
        if tag == "term":
            step = self._apply_rule(node)
        elif tag == "guard":
            step = node.step
        elif tag == "sum":
            step = self._sum_step(node)
        else:
            out = self._fill(node.kind, node.children, ())
            node.children = ()
            step = out if out.__class__ is Step else self._unfold(out)
        self._memo[nid] = step
        return step

    def _apply_rule(self, node: _Node) -> Step:
        """The rule's conclusion (for a sandwiched rule, its guarded term's
        step): the symbol's plan, or the plan for the premises' shape,
        filled with their ids, each followed by its continuations, and
        their labels."""
        holes, shape, memo = [], [], self._memo
        for cid in node.children:
            step = memo.get(cid)
            if step is None:
                step = self._unfold(cid)
            holes.append(cid)
            for p, c in step.children:
                holes.append(c)
            label = step.label
            shape.append(tuple([p for p, _ in step.children])
                         if label is None else label)
        sym, kind = node.sym, node.kind
        plan = sym.plan
        if plan is None:
            plan = sym.plan = self._plans[sym.key] = self._plan(
                sym, sym.key, None)
        if plan is False:
            key = sym.key + (tuple([x.as_integer_ratio() for x in shape])
                             if kind.rational else tuple(shape),)
            plan = self._plans.get(key)
            if plan is None:
                plan = self._plans[key] = self._plan(
                    sym, key, [memo[c] for c in node.children])
        out = self._fill(kind, plan, holes, shape)
        return out if out.__class__ is Step else self._unfold(out)

    def _plan(self, sym: _Sym, key, steps):
        """The rule's conclusion planned once per table: on premises
        observed as ``steps`` (`rules.plan_rule`), or for ``steps`` None on
        symbolic ones, False if that fails (`rules.plan_symbolic`).  The
        table keeps it under ``key`` less the table, naming symbols by
        name, and this engine binds the names to its records (`_intern`).
        Code that names a state, from a `Param` in the conclusion, is
        planned again with this engine's `check_handle` and kept by it
        alone, so that another engine's state stays `InvalidHandle`."""
        table = sym.table
        args = (table.kind, table.resolve, table.rule_for(sym.name), sym.op)
        intern = self._intern(table)

        def planned(*hooks):
            return (plan_symbolic(*args, *hooks) or False) if steps is None \
                else plan_rule(*args, steps, itertools.count(), *hooks)
        plan = table.plans.get(key[1:])
        if plan is None:
            plan = planned()
            if plan and any(i.__class__ is int and i < 0 for i in plan):
                return planned(self.check_handle, intern)
            table.plans[key[1:]] = plan
        return plan and [
            i if i.__class__ is int or i[0] == "guard" or i[0] == "step"
            else (i[0], i[1], intern(i[2], i[3]), i[3]) for i in plan]

    def _sum_step(self, node: _Node) -> Step:
        """``Σ m·g`` steps to ``Σ m·label(g)`` and, at each port, the sum
        of ``m·child(g)``, flattened as `_sum_node` does but in one pass; no
        rule runs.  The label is summed as an integer numerator over the lcm
        of the operands' denominators, and reduced only if that is not 1.
        The step is not checked again: its ports are the kind's, and its
        label a `Fraction`, which `rules._check_law` confines additive laws
        to."""
        nodes, memo, sym, ports = self._nodes, self._memo, node.sym, \
            node.kind.ports
        num, den = 0, 1
        kids = [{} for _ in ports]
        for c, m in node.children:
            step = memo.get(c)
            if step is None:
                step = self._unfold(c)
            n, d = step.label.as_integer_ratio()
            if den % d:
                grow = d // gcd(den, d)
                num, den = num * grow, den * grow
            num += m * n * (den // d)
            for acc, (_, child) in zip(kids, step.children):
                g = nodes[child]
                if g.sym is sym:
                    for e, k in g.children:
                        acc[e] = acc.get(e, 0) + m * k
                else:
                    acc[child] = acc.get(child, 0) + m
        return Step(Fraction(num) if den == 1 else Fraction(num, den), tuple([
            (p, self._cons_sum(sym, acc)) for p, acc in zip(ports, kids)]))

    def _observe(self, nid: int, depth: int) -> ObservationTree:
        """Depth-bounded unfolding in pre-order, port order, without Python
        recursion: ``todo`` holds ``(node, depth)`` pairs to unfold, each
        unfolded step below its children, to be assembled once they are
        done; finished subtrees wait on ``done``.  The fuse counts the rule
        applications of each unfolded node on its own."""
        todo = [(nid, depth)]
        done = []
        while todo:
            item = todo.pop()
            if isinstance(item, Step):
                split = len(done) - len(item.children)
                kids = done[split:]
                del done[split:]
                done.append(ObservationTree(item.label, tuple(
                    (p, kid) for (p, _), kid in zip(item.children, kids))))
                continue
            nid, depth = item
            if depth <= 0:
                done.append(CUT)
                continue
            self._work = 0
            step = self._unfold(nid)
            todo.append(step)
            for _, c in reversed(step.children):
                todo.append((c, depth - 1))
        return done[0]

    # -- public operations ---------------------------------------------------

    def unfold(self, h: SolutionHandle) -> Step:
        """One observation of a state; memoized, identical on re-query."""
        self.check_handle(h)
        self._work = 0
        step = self._unfold(h.node)
        return Step(step.label,
                    tuple((p, self._handle(c)) for p, c in step.children))

    def node_step(self, nid: int) -> Step:
        """`unfold` for a node id the caller already holds: the memoized
        step itself, children as node ids."""
        self._work = 0
        return self._unfold(nid)

    def walk(self, nid: int, ports, labels=None) -> int:
        """The node reached from ``nid`` along port indices: each step is
        read from the memo, unfolded as by `node_step` only on a miss, and
        its label appended to ``labels`` if given."""
        memo = self._memo
        for i in ports:
            step = memo.get(nid)
            if step is None:
                self._work = 0
                step = self._unfold(nid)
            if labels is not None:
                labels.append(step.label)
            nid = step.children[i][1]
        return nid

    def observe(self, h: SolutionHandle, depth: int) -> ObservationTree:
        """Depth-bounded unfolding; deeper behavior is cut off."""
        self.check_handle(h)
        return self._observe(h.node, depth)

    def interpret_op(self, table: RuleTable, op, args) -> SolutionHandle:
        """The state denoting ``op`` applied to already-solved states, each
        vetted as a `Param` is (`rules.state_node`)."""
        name = table.resolve(op)
        code = [~state_node(table.kind, h, self.check_handle) for h in args]
        if len(code) != op.arity:
            raise ArityMismatch(f"{op!r} applied to {len(code)} states")
        code.append(("app", op.arity, self._sym(table, name, op), op))
        return self._handle(self._fill(table.kind, code, ()))

    def interpret_term(self, table: RuleTable, t: Term,
                       env: Optional[Mapping[str, SolutionHandle]] = None
                       ) -> SolutionHandle:
        """State for a closed term over parameters and ``env`` variables,
        each state vetted as a `Param` is (`rules.state_node`)."""
        if not isinstance(t, Term):
            raise KindMismatch(f"not a term: {t!r}")
        binding = {v: state_node(table.kind, h, self.check_handle)
                   for v, h in (env or {}).items()}
        self._work = 0
        return self._handle(self._instantiate(table, t, binding))

    def elaborate_guards(self, table: RuleTable, ctx,
                         binding: Mapping[str, SolutionHandle]) -> Step:
        """One step of a guarded term over already-solved states."""
        Guard.above(ctx)
        return self.unfold(self.interpret_term(table, ctx, binding))

    def solve(self, system: System) -> dict:
        """Solutions of a flat or sandwiched equation system.

        Allocates one node per variable, then checks and compiles each
        right-hand side over them (`Guard.above`, `rules.compile_code`),
        which rejects what is ill-formed; a rejected system leaves the
        arena as it was.  A variable's nodes are built from its code at
        its first step.  Returns one handle per variable; unfolding the
        handles satisfies the defining equations (see
        `checking.diagram_check`).
        """
        report = system.table.validation()
        if not report.ok:
            raise ValidationFailed(f"table invalid: {report.violations}")
        if system.kind != system.table.kind:
            raise KindMismatch("system kind differs from its table's kind")
        if len(set(system.vars)) != len(system.vars):
            raise VariableClash("duplicate variable names")
        table, n0 = system.table, len(self._nodes)
        try:
            binding = self._var_nodes(system)
            for v in system.vars:
                rhs = system.rhs[v]
                if isinstance(rhs, Param):
                    continue
                if isinstance(rhs, Guard):
                    rhs = rhs.step
                else:
                    Guard.above(rhs)
                self._nodes[binding[v]].children = compile_code(
                    table.kind, table.resolve, rhs, binding, self.check_handle,
                    self._intern(table))
        except Exception:
            # Solving adds only the variables' nodes, later than any other.
            del self._nodes[n0:]
            raise
        return {v: self._handle(binding[v]) for v in system.vars}

    def _var_nodes(self, system: System) -> dict:
        """One ``var`` node per variable, still empty, and the given state
        for a constant."""
        binding = {}
        for v in system.vars:
            if is_reserved_name(v):
                raise ValidationFailed(f"variable name {v!r} is reserved")
            if v not in system.rhs:
                raise ValidationFailed(f"no right-hand side for {v!r}")
            rhs = system.rhs[v]
            if isinstance(rhs, Param):
                binding[v] = state_node(system.kind, rhs.ref,
                                        self.check_handle)
            elif isinstance(rhs, ExternalRhs):
                raise ValidationFailed(
                    "external variable references are only solvable through "
                    "compose_systems")
            elif isinstance(rhs, Term):
                binding[v] = len(self._nodes)
                self._nodes.append(_Node("var", system.kind))
            else:
                raise ValidationFailed(f"unrecognized right-hand side {rhs!r}")
        return binding

    # -- rhs re-application, used by the solution-diagram check -------------

    def materialize_rhs(self, system: System, var: str,
                        sol: Mapping[str, SolutionHandle]) -> SolutionHandle:
        """State obtained by applying ``var``'s rhs to the solved states of
        its variables (`interpret_term`), its part above the guards checked
        as `solve` checks it; hash-consed, so repeating it adds no node."""
        rhs = system.rhs[var]
        if isinstance(rhs, Term) and not isinstance(rhs, Param):
            Guard.above(rhs)
        return self.interpret_term(system.table, rhs, {
            v: sol[v] for v in free_vars(rhs) if v in sol})

    # -- composition of systems ----------------------------------------------

    def compose_systems(self, f: System, e: System, depth: int = 4):
        """Simultaneous system vs. solve-then-substitute, checked to depth.

        ``f`` may use constant parameters; ``e`` may in addition map a
        variable directly to one of ``f``'s variables (ExternalRhs).
        Returns the combined system and whether both solution routes agree
        on every variable to the given depth.
        """
        combined, witness = self.composition_witness(f, e, depth)
        return combined, witness is None

    def composition_witness(self, f: System, e: System, depth: int = 4):
        """`compose_systems` with, in place of the verdict, the first
        divergence between the two routes (None when they agree)."""
        from . import checking

        if f.table is not e.table or f.kind != e.kind:
            raise ValidationFailed("composed systems must share one table")
        clash = set(f.vars) & set(e.vars)
        if clash:
            raise VariableClash(f"variables {sorted(clash)} appear twice")
        for v in f.vars:
            if isinstance(f.rhs[v], ExternalRhs):
                raise ValidationFailed("the base system has no externals")
        combined_rhs = {}
        for v in e.vars:
            rhs = e.rhs[v]
            if isinstance(rhs, ExternalRhs):
                if rhs.var not in f.vars:
                    raise ValidationFailed(
                        f"external {rhs.var!r} is not a base variable")
                combined_rhs[v] = f.rhs[rhs.var]
            else:
                combined_rhs[v] = rhs
        for v in f.vars:
            combined_rhs[v] = f.rhs[v]
        combined = System(f.kind, f.table, tuple(e.vars) + tuple(f.vars),
                          combined_rhs)

        f_sol = self.solve(f)
        staged_rhs = {}
        for v in e.vars:
            rhs = e.rhs[v]
            if isinstance(rhs, ExternalRhs):
                staged_rhs[v] = Param(f_sol[rhs.var])
            else:
                staged_rhs[v] = rhs
        staged_sol = self.solve(System(e.kind, e.table, e.vars, staged_rhs))
        combined_sol = self.solve(combined)

        routes = [(combined_sol[v], staged_sol[v]) for v in e.vars] + \
            [(combined_sol[v], f_sol[v]) for v in f.vars]
        for left, right in routes:
            witness = checking.find_divergence(left, right, depth)
            if witness is not None:
                return combined, witness
        return combined, None

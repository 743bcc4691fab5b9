"""Executable rule tables and their extension by recursive definitions.

A rule assigns to an operation symbol, given one observation per argument,
a single conclusion step whose continuations are terms over the arguments
and their continuations, which the rule sees as `Slot` leaves carrying
their arena nodes.  Tables are immutable; extending a table with new
recursively defined operations returns a new table over the sum signature
that carries the old rules over unchanged.  Each table records which
signature every rule was written against, and the engine resolves the
symbols of a conclusion through the table's rename map
(``Signature.embeddings``), so old interpretations are untouched.  One
planner, `plan_rule`, checks the rule contract at build and at first use;
it resolves symbols, the summands' too, by `resolver`.  A sandwiched
definition is a rule too, one whose conclusion is a guarded term, given
operations above `Guard` leaves; both kinds are adjoined to a table the
same way.  A rule may also declare the algebraic law of its symbol
(`Law`), which the engine applies when it builds nodes of that symbol.
Every table holds its `TableReport` from construction: an extension
probes only the rules it adds, and a compiled BDE program's none.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping, Optional

from . import behavior
from .behavior import Step, SymbolicLabel, check_step
from .errors import (
    ArityMismatch,
    DuplicateRule,
    ForeignSymbol,
    KindMismatch,
    MissingRule,
    UnknownSymbol,
    ValidationFailed,
)
from .terms import (
    App,
    Guard,
    OpDecl,
    OpSym,
    Param,
    Signature,
    Slot,
    Term,
    Var,
    sig_sum,
    signature,
)

# ---------------------------------------------------------------------------
# Premise observations


@dataclass(frozen=True)
class ArgObs:
    """What a rule sees of one argument: its one-step behavior plus itself.

    ``tails`` holds the port continuations of deterministic kinds, ``moves``
    the transition list of processes; continuations and ``self_term`` are
    `Slot` leaves carrying the arena nodes they stand for, to be used
    verbatim inside conclusions.
    """

    label: object
    tails: tuple
    moves: tuple
    self_term: Term

    @property
    def head(self):
        return self.label

    @property
    def tail(self) -> Term:
        return self.at("tail")

    @property
    def left(self) -> Term:
        return self.at("L")

    @property
    def right(self) -> Term:
        return self.at("R")

    def at(self, port) -> Term:
        for p, t in self.tails:
            if p == port:
                return t
        raise KeyError(port)


def arg_obs(kind, node, step: Step) -> ArgObs:
    """The argument at node ``node`` (a hole number in a plan), observed as
    ``step`` whose children are node ids, seen through `Slot` leaves."""
    if kind.deterministic:
        return ArgObs(step.label,
                      tuple([(p, Slot(c)) for p, c in step.children]), (),
                      Slot(node))
    return ArgObs(step.label, (),
                  tuple([(behavior.move_action(p), Slot(c))
                         for p, c in step.children]),
                  Slot(node))


# ---------------------------------------------------------------------------
# Rules, contexts, and definitions


@dataclass(frozen=True)
class Law:
    """The law of an associative binary symbol ``op``: an optional nullary
    ``unit`` (``op(x, unit) = op(unit, x) = x``) and ``zero``
    (``op(x, zero) = op(zero, x) = zero``), named in the rule author's
    signature; ``commutative`` adds ``op(x, y) = op(y, x)``, so an
    application is a multiset of its operands (CCS parallel composition),
    and ``semilattice`` adds commutativity and idempotence, a set.
    Soundness is the author's claim, as a rule's totality is.

    ``additive`` declares ``op`` the pointwise sum of a deterministic kind
    with rational labels, so a sum is a multiset of its operands; it takes
    no other field, and the probe checks the rule's shape:
    label ``a.head + b.head``, each port continuing to ``op`` over the two
    premises' continuations at that port."""

    unit: Optional[str] = None
    zero: Optional[str] = None
    semilattice: bool = False
    additive: bool = False
    commutative: bool = False


def _check_law(kind, sig: Signature, name: str, law: Law):
    """Raise unless ``law`` fits the symbol ``name`` of ``sig``: binary and
    not parametric, with a unit and zero that are nullary symbols; an
    additive law stands alone, on states with rational labels."""
    d = sig.decl(name)
    if d.arity != 2 or d.parametric:
        raise ArityMismatch(f"law for {name!r}, which is not a binary symbol")
    if law.additive:
        if law.unit or law.zero or law.semilattice or law.commutative:
            raise ValidationFailed(f"additive law for {name!r} with a unit, "
                                   "zero, semilattice or commutativity")
        if not kind.rational:
            raise KindMismatch(f"additive law for {name!r} on {kind.name} "
                               "states, whose labels are not rationals")
    for role, other in (("unit", law.unit), ("zero", law.zero)):
        if other is None:
            continue
        if other not in sig or sig.decl(other) != OpDecl(other, 0):
            raise ForeignSymbol(f"{role} {other!r} of the law for {name!r} "
                                f"is not a nullary symbol of {sig!r}")


@dataclass(frozen=True)
class GsosRule:
    """One rule: op symbol plus a total conclusion function.

    ``conclude(op, args)`` receives the concrete symbol (carrying the family
    parameter, if any) and one ArgObs per argument; it must return a Step
    whose continuations are terms over the ArgObs leaves and the symbols
    of the author's signature and its summands, with no variables;
    `plan_rule` checks it at build and at first use.  The rule must be
    natural: it may read the labels, the actions and ``op.param``, and may
    use the `Slot` leaves only verbatim, never compare or inspect them,
    since the engine runs it once per premise shape (once per symbol if it
    does only arithmetic on rational labels: `plan_symbolic`) and fills the
    conclusion with the states of every application of that shape.
    ``probe_params`` supplies example parameters so parametric families
    can be validated.  ``law``, for a binary symbol, declares the equations
    its applications satisfy; the engine hash-conses them modulo those
    equations.

    A sandwiched rule has ``outer``, the names of the given symbols it may
    use above its guards, in the table it was adjoined to; it concludes a
    guarded term in place of a step: applications of ``outer`` symbols
    whose leaves are all `Guard`s, or one `Guard` alone.  ``outer`` is None
    for an ordinary rule.
    """

    op: OpSym
    # not shown: a compiled conclusion holds `SymbolicLabel`s, which refuse
    # to be read, by repr too
    conclude: Callable = field(repr=False)
    probe_params: tuple = (None,)
    law: Optional[Law] = None
    outer: Optional[frozenset] = None


@dataclass(frozen=True)
class RpsDef:
    """Recursively defined operations whose bodies are one guarded step.

    Conclusion terms range over the sum of the base signature and
    ``new_sig``; form the sum with ``sig_sum(table.sig, new_sig)`` when
    authoring the rules.
    """

    new_sig: Signature
    rules: Mapping[str, GsosRule]


@dataclass(frozen=True)
class SrpsDef:
    """Sandwiched definitions: the guard may sit inside a context of givens.

    ``contexts`` maps each new symbol to a conclusion function
    ``(op, args) -> Term``, a guarded term over the symbols of the table it
    extends and `Guard` leaves; `register_srps` adjoins each as a
    sandwiched `GsosRule` whose ``outer`` is every symbol of the table it
    extends.
    """

    new_sig: Signature
    contexts: Mapping[str, Callable]
    probe_params: Mapping[str, tuple] = field(default_factory=dict)


@dataclass(frozen=True)
class TableReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


class RuleTable:
    """An abstract GSOS rule as an executable table, one rule per symbol.

    ``rules`` is keyed by the names of ``sig``, ordinary and sandwiched
    rules alike.  A rule carried over from an older table is stored as it
    was written; ``origin`` maps each name to the signature and name its
    rule's author used (by default the table's own), ``renames`` is the
    composed ``sig_id -> {name -> name here}`` map of ``sig`` and all its
    summands, and ``resolve`` names a symbol of either here (`resolver`).
    ``report`` is the table's `TableReport` when its builder
    probed it; a table given none probes all its rules at construction.
    ``laws`` holds each rule's law, with its unit and zero under their names
    here, when the report is ok, and is empty otherwise.  ``plans`` holds
    the rules' plans that every engine shares (`solver.Engine._plan`).
    """

    __slots__ = ("kind", "sig", "rules", "origin", "renames", "resolve",
                 "laws", "plans", "_report")

    def __init__(self, kind, sig: Signature, rules, origin=None, report=None):
        self.kind = kind
        self.sig = sig
        self.rules = dict(rules)
        self.origin = dict(origin) if origin is not None else \
            {name: (sig, name) for name in sig.names}
        self.renames = sig.embeddings()
        self.resolve = resolver(sig)
        self._report = report if report is not None else validate_table(self)
        self.laws, self.plans = {}, {}
        for name, r in self.rules.items():
            if r.law is None or not self._report.ok:
                continue
            author_sig, orig = self.origin[name]
            here = self.renames[author_sig.sig_id]
            self.laws[name] = replace(r.law, unit=here.get(r.law.unit),
                                      zero=here.get(r.law.zero))

    def author_op(self, name: str, op: OpSym) -> OpSym:
        """``op``, resolved to ``name``, as the author of its rule knew it."""
        sig, orig = self.origin[name]
        if op.sig_id == sig.sig_id:
            return op
        return OpSym(orig, op.arity, sig.sig_id, op.param)

    def rule_for(self, name: str) -> GsosRule:
        try:
            return self.rules[name]
        except KeyError:
            raise MissingRule(f"no rule for symbol {name!r}") from None

    def op(self, name: str, param=None) -> OpSym:
        """``name`` at ``param``, of the type its kind gives it: a letter of
        the alphabet, a ``rat`` (an int but no bool, or a Fraction) or a
        ``bit`` (False, True, 0 or 1)."""
        ptype = self.kind.params.get(name)
        if ptype == "letter" and param not in (None, *self.kind.ports):
            raise UnknownSymbol(f"{param!r} is not in the alphabet")
        if param is not None and (ptype == "rat" and (
                not isinstance(param, (int, Fraction))
                or isinstance(param, bool)) or ptype == "bit" and not (
                    isinstance(param, int) and param in (0, 1))):
            raise UnknownSymbol(f"{param!r} is not a {ptype} parameter of "
                                f"{name!r}")
        return self.sig.op(name, param)

    def validation(self) -> TableReport:
        return self._report


# ---------------------------------------------------------------------------
# Planning: one compiler and one planner decide what a valid conclusion is,
# for the engine at first use and for the probe at build


def resolver(sig: Signature) -> Callable:
    """``resolve(op)``: the name in ``sig`` of ``op``, a symbol of ``sig``
    or of one of its summands (`Signature.embeddings`); ForeignSymbol for
    anything else, including a known name at the wrong arity."""
    renames, decl = sig.embeddings(), sig.decl

    def resolve(op: OpSym) -> str:
        names = renames.get(op.sig_id)
        name = names.get(op.name) if names is not None else None
        if name is not None:
            d = decl(name)
            if op.arity == (op.param if d.arity is None else d.arity):
                return name
        raise ForeignSymbol(f"{op!r} is outside the table signature")

    return resolve


def state_node(kind, state, check_handle=None) -> int:
    """The node of ``state``, a `Param`'s or a variable's, checked to be of
    ``kind`` and live in the engine of ``check_handle`` if one is given."""
    if check_handle is not None:
        check_handle(state)
    have = getattr(state, "kind", None)
    if have is not kind and have != kind:
        raise KindMismatch(f"{state!r} is not a {kind.name} state")
    return state.node


def compile_code(kind, resolve, root, binding, check_handle=None,
                 intern=None) -> list:
    """Post-order code building the term, or step, ``root`` of ``kind``,
    names resolved and arities, labels and ports checked: a hole number
    pushes that premise, ``~n`` the node ``n`` of a variable or `Param`, and
    ``(tag, n, ...)`` for ``app``, ``guard`` and ``step`` pops ``n``
    operands.  ``binding`` maps variables to nodes; None marks a rule
    conclusion, whose `Slot`s are holes and which has no variables.
    ``check_handle``, where an engine is at hand, vets each `Param`
    (`state_node`), and ``intern(name, op)`` stands for a symbol's name."""
    code = []
    todo = [root]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is Var:
            if binding is None:
                raise ForeignSymbol(f"free variable {t!r} in conclusion")
            if t.name not in binding:
                raise UnknownSymbol(f"unbound variable {t.name!r}")
            code.append(~binding[t.name])
        elif cls is App:
            name = resolve(t.op)
            if len(t.args) != t.op.arity:
                raise ArityMismatch(
                    f"{t.op!r} applied to {len(t.args)} arguments")
            code.append(("param" if t.op.param.__class__ is SymbolicLabel
                         else "app", len(t.args),
                         name if intern is None else intern(name, t.op), t.op))
            todo.extend(t.args)
        elif cls is Guard or t is root and cls is Step:
            step = t.step if cls is Guard else t
            check_step(kind, step)
            code.append(("step" if step is t else "guard", len(step.children),
                         step.label, tuple([p for p, _ in step.children])))
            todo.extend([c for _, c in step.children])
        elif cls is Slot and binding is None:
            if t.node.__class__ is not int:
                raise ForeignSymbol(f"{t!r} is not a premise of the rule")
            code.append(t.node)
        elif cls is Param:
            code.append(~state_node(kind, t.ref, check_handle))
        else:
            raise KindMismatch(f"not a {kind.name} term: {t!r}")
    # The walk is pre-order, children pushed in order: reversed, post-order.
    code.reverse()
    return code


def plan_rule(kind, resolve, rule: GsosRule, op: OpSym, steps, holes,
              check_handle=None, intern=None) -> list:
    """The code (`compile_code`) of ``rule``'s conclusion for ``op`` on
    premises observed as ``steps``, their `Slot`s numbered by ``holes`` in
    the order the engine lists premise ids: each argument, then its
    continuations.  The conclusion must be a step, or for a sandwiched rule
    a guarded term with only ``outer`` symbols above its guards.  An
    engine passes its ``check_handle`` and ``intern``."""
    args = tuple([arg_obs(kind, next(holes), Step(s.label, tuple(
        [(p, next(holes)) for p, _ in s.children]))) for s in steps])
    out = rule.conclude(op, args)
    if rule.outer is None:
        if out.__class__ is not Step:
            raise KindMismatch(f"rule conclusion is not a Step: {out!r}")
    else:
        for node in Guard.above(out):
            if node.__class__ is App and resolve(node.op) not in rule.outer:
                raise ForeignSymbol(f"sandwiched conclusion uses {node.op!r}"
                                    " above its guards, not a given symbol")
    return compile_code(kind, resolve, out, None, check_handle, intern)


def plan_symbolic(kind, resolve, rule, op, check_handle=None, intern=None):
    """`plan_rule` on `SymbolicLabel` premise labels of a rational ``kind``,
    a plan for every label; None when the run raises anything."""
    steps = [Step(SymbolicLabel(i), tuple([(p, None) for p in kind.ports]))
             for i in range(op.arity)]
    try:
        return plan_rule(kind, resolve, rule, op, steps, itertools.count(),
                         check_handle, intern)
    except (Exception, behavior._LabelRead):
        return None


def _valued(kind, code, labels) -> list:
    """Symbolic ``code`` valued at ``labels``, as `Engine._fill` does."""
    def value(tag, n, a, b):
        if tag == "param":
            return "app", n, a, replace(b, param=b.param.at(kind, labels))
        if a.__class__ is SymbolicLabel:
            a = a.at(kind, labels)
        return tag, n, a, b
    return [ins if ins.__class__ is int else value(*ins) for ins in code]


def _synthetic_step(kind, rng: random.Random) -> Step:
    """A premise for probes: a random label over every port, or up to two
    random moves."""
    if not kind.deterministic:
        return Step(None, tuple((rng.choice(kind.actions), None)
                                for _ in range(rng.randint(0, 2))))
    label = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) \
        if kind.rational else rng.choice([True, False])
    return Step(label, tuple((p, None) for p in kind.ports))


def _pointwise_sum(op, args):
    """The conclusion an additive law claims: ``a.head + b.head``, and at
    each port ``op`` over the premises' continuations at that port."""
    a, b = args
    return Step(a.head + b.head, tuple((p, App(op, (x, y))) for (p, x), (_, y)
                                       in zip(a.tails, b.tails)))


def _probe(kind, sig: Signature, name: str, rule: GsosRule,
           rng: random.Random):
    """Check the rule's law if it has one, then plan the rule as the engine
    does on synthetic premises, resolving against ``sig``, three times per
    probe parameter; an additive rule must plan as `_pointwise_sum`.
    Planned again with every hole 0, a natural rule gives the same code
    with its holes set to 0, as its symbolic plan valued at the labels does."""
    law = rule.law
    if law is not None:
        _check_law(kind, sig, name, law)
    resolve = resolver(sig)
    decl = sig.decl(name)
    for param in rule.probe_params:
        op = sig.op(name, param) if decl.parametric else sig.op(name)
        symbolic = kind.rational and plan_symbolic(kind, resolve, rule, op)
        for _ in range(3):
            steps = [_synthetic_step(kind, rng) for _ in range(op.arity)]
            code = plan_rule(kind, resolve, rule, op, steps,
                             itertools.count())
            if symbolic and _valued(
                    kind, symbolic, [s.label for s in steps]) != code:
                raise ValidationFailed(f"rule for {op!r} is not natural: "
                                       "it tells symbolic labels apart")
            if law is not None and law.additive and code != plan_rule(
                    kind, resolve, GsosRule(op, _pointwise_sum), op, steps,
                    itertools.count()):
                raise ValidationFailed(f"additive {op!r} is not the pointwise"
                                       " sum of its premises")
            merged = [0 if c.__class__ is int and c > 0 else c for c in code]
            if plan_rule(kind, resolve, rule, op, steps,
                         itertools.repeat(0)) != merged:
                raise ValidationFailed(f"rule for {op!r} is not natural: it "
                                       "tells its premise states apart")


# ---------------------------------------------------------------------------
# Table construction and extension


def build_table(kind, sig: Signature, rules) -> RuleTable:
    """Validated table from one rule per declared symbol."""
    by_name = {}
    for r in rules:
        if r.op.name in by_name:
            raise DuplicateRule(f"two rules for {r.op.name!r}")
        if r.op.name not in sig:
            raise ForeignSymbol(f"rule for {r.op!r} outside the signature")
        by_name[r.op.name] = r
    missing = [n for n in sig.names if n not in by_name]
    if missing:
        raise MissingRule(f"no rule for symbols {missing}")
    rng = random.Random(0xC0)
    for name, r in by_name.items():
        _probe(kind, sig, name, r, rng)
    return RuleTable(kind, sig, by_name, report=TableReport(()))


def _adjoin(table: RuleTable, new_sig: Signature, new_rules, what: str,
            compiled_sum: Signature = None) -> RuleTable:
    """``table`` extended by the symbols of ``new_sig`` and ``new_rules``
    keyed by their names there, each stored with its symbol in the sum;
    the old rules, origins and report carry over (`sig_sum` keeps the left
    summand's names).  Only the new rules are probed, and not even those if
    a compiler made them over ``compiled_sum``, the sum of the signatures:
    they are natural and conclude on the kind's ports by construction
    (`frontends.BdeProgram`)."""
    sum_sig = compiled_sum or sig_sum(table.sig, new_sig)
    emb_new = sum_sig.embedding_from(new_sig)
    rules, origin = dict(table.rules), dict(table.origin)
    rng = random.Random(0xC1)
    for name, rule in new_rules.items():
        if name not in new_sig:
            raise ForeignSymbol(f"{what} for undeclared symbol {name!r}")
        new_name = emb_new[name]
        op = sum_sig.template(new_name)
        if rule.op != op:  # `frontends._bde_program`'s rules hold it already
            rule = replace(rule, op=op)
        if compiled_sum is None:
            _probe(table.kind, sum_sig, new_name, rule, rng)
        rules[new_name] = rule
        origin[new_name] = (sum_sig, new_name)
    missing = [n for n in new_sig.names if n not in new_rules]
    if missing:
        raise MissingRule(f"no {what} for {missing}")
    return RuleTable(table.kind, sum_sig, rules, origin, table._report)


def extend_with_rps(table: RuleTable, rps: RpsDef) -> RuleTable:
    """Adjoin recursively defined symbols; old interpretations carry over,
    and so does the old table's report: only the new rules are probed."""
    return _adjoin(table, rps.new_sig, rps.rules, "rps rule")


def register_srps(table: RuleTable, srps_def: SrpsDef) -> RuleTable:
    """Adjoin sandwiched definitions, as rules whose context may use every
    symbol of ``table``; the engine elaborates their guards when it applies
    them."""
    outer = frozenset(table.sig.names)
    rules = {name: GsosRule(None, fn,
                            tuple(srps_def.probe_params.get(name, (None,))),
                            outer=outer)
             for name, fn in srps_def.contexts.items()}
    return _adjoin(table, srps_def.new_sig, rules, "srps context")


def add_rule(table: RuleTable, rule: GsosRule) -> RuleTable:
    """Incremental table building: one more symbol with an ordinary rule.

    The symbol is treated as a parametric family exactly when the rule
    carries non-default ``probe_params``.
    """
    name = rule.op.name
    if name in table.sig:
        raise DuplicateRule(f"symbol {name!r} already has a rule")
    parametric = rule.probe_params != (None,)
    one = signature((name, rule.op.arity, parametric))
    return extend_with_rps(table, RpsDef(one, {name: rule}))


def validate_table(table: RuleTable) -> TableReport:
    """Report-based check of totality, arity, ports, laws, and the
    guardedness of sandwiched rules.

    Every rule is probed against the signature it was written for
    (``table.origin``), exactly as when it was first added."""
    violations = [f"missing rule for {name!r}" for name in table.sig.names
                  if name not in table.rules]
    rng = random.Random(0xC3)
    for name, r in table.rules.items():
        if name not in table.sig:
            violations.append(f"rule for foreign symbol {name!r}")
            continue
        try:
            _probe(table.kind, *table.origin[name], r, rng)
        except Exception as exc:  # noqa: BLE001 - collected into the report
            violations.append(f"rule {name!r}: {exc}")
    return TableReport(tuple(violations))

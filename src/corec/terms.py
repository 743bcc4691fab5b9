"""Signatures and finite terms over them.

A signature is a finite list of operation symbol declarations.  Terms are
immutable trees whose leaves are variables, references to already-solved
states (parameters), the engine's premise slots, or guards (one full
observation over continuation terms), shared by reference and compared
structurally.  A guarded term, such as the right-hand side of an equation
or a sandwiched rule's conclusion, has only `Guard` leaves and `Param`
arguments above its guards, which `Guard.above`, the one guardedness
walker, checks.  Sums of signatures rename colliding symbols and record
the embedding, so terms built over a summand can be injected into the
sum.  `build_term` builds a term from a tree of any depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Optional

from .errors import (
    ArityMismatch,
    ForeignSymbol,
    NotASummand,
    Unguarded,
    UnguardedPath,
    UnknownSymbol,
)

# Variable names starting with this prefix are reserved: `Engine.solve` and
# the user-facing formats reject them.
RESERVED_PREFIX = "~"


def is_reserved_name(name: str) -> bool:
    return name.startswith(RESERVED_PREFIX)


@dataclass(frozen=True)
class OpDecl:
    """Declaration of one operation symbol or symbol family.

    ``parametric`` families instantiate one concrete symbol per parameter
    value (e.g. one constant per rational).  ``arity=None`` means the arity
    is the (integer) parameter itself, used for finite n-ary summation.
    """

    name: str
    arity: Optional[int]
    parametric: bool = False


@dataclass(frozen=True)
class OpSym:
    name: str
    arity: int
    sig_id: str
    param: Hashable = None

    def __repr__(self):
        if self.param is None:
            return f"{self.name}/{self.arity}"
        return f"{self.name}[{self.param}]/{self.arity}"


def _decl(spec) -> OpDecl:
    if isinstance(spec, OpDecl):
        return spec
    name, arity = spec[0], spec[1]
    parametric = bool(spec[2]) if len(spec) > 2 else False
    return OpDecl(name, arity, parametric)


class Signature:
    """A finite ordered family of operation declarations.

    Identity is structural: two signatures built from the same declarations
    and summand structure are the same signature.  This keeps sums
    reproducible, so rule authors and table constructors can independently
    form ``sig_sum(k, v)`` and obtain interchangeable symbols.
    """

    __slots__ = ("decls", "summands", "sig_id", "_by_name", "_embeddings")

    def __init__(self, decls: Iterable, summands=()):
        decls = tuple(_decl(d) for d in decls)
        by_name = {}
        for d in decls:
            if d.name in by_name:
                raise ForeignSymbol(f"duplicate symbol {d.name!r} in signature")
            by_name[d.name] = d
        self.decls = decls
        self.summands = tuple(summands)
        self._by_name = by_name
        self._embeddings = None
        self.sig_id = self._compute_id()

    def _compute_id(self) -> str:
        # Python's hash, which is fixed within a process, where ids live;
        # hashlib would load OpenSSL, megabytes of resident memory.
        key = (self.decls, tuple((sub.sig_id, tuple(sorted(renames.items())))
                                 for sub, renames in self.summands))
        return f"{hash(key) & 0xFFFFFFFFFFFFFFFF:016x}"

    def __eq__(self, other):
        return isinstance(other, Signature) and self.sig_id == other.sig_id

    def __hash__(self):
        return hash(self.sig_id)

    def __repr__(self):
        return f"Signature({[d.name for d in self.decls]})"

    @property
    def names(self):
        return tuple(d.name for d in self.decls)

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` is declared here, in constant time."""
        return name in self._by_name

    def decl(self, name: str) -> OpDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownSymbol(f"no symbol {name!r} in signature") from None

    def op(self, name: str, param: Hashable = None) -> OpSym:
        """Instantiate a concrete symbol, supplying the parameter for families."""
        d = self.decl(name)
        if d.parametric:
            if param is None:
                raise UnknownSymbol(f"symbol family {name!r} needs a parameter")
            arity = d.arity if d.arity is not None else int(param)
        else:
            if param is not None:
                raise UnknownSymbol(f"symbol {name!r} takes no parameter")
            arity = d.arity
        return OpSym(name, arity, self.sig_id, param)

    def template(self, name: str) -> OpSym:
        """Parameter-less symbol used when declaring rules for families."""
        d = self.decl(name)
        return OpSym(name, d.arity if d.arity is not None else 0, self.sig_id)

    def embedding_from(self, source: "Signature") -> Mapping[str, str]:
        """Name translation of ``source``'s symbols into this signature.

        Raises NotASummand when ``source`` is not this signature or a
        (possibly nested) recorded summand.  When the same signature occurs
        as several summands the leftmost occurrence wins.
        """
        m = self.embeddings().get(source.sig_id)
        if m is None:
            raise NotASummand(f"{source!r} is not a summand of {self!r}")
        return MappingProxyType(m)

    def embeddings(self) -> Mapping[str, Mapping[str, str]]:
        """``sig_id -> {name -> name here}`` for this signature and every
        nested summand, composed once and memoized; read-only.

        Summands are taken depth first from the left, so the leftmost
        occurrence of a repeated summand wins.  A summand none of whose
        names was renamed shares its maps.
        """
        if self._embeddings is None:
            out = {self.sig_id: {d.name: d.name for d in self.decls}}
            for sub, renames in self.summands:
                for sig_id, inner in sub.embeddings().items():
                    if sig_id not in out:
                        out[sig_id] = inner if not renames else {
                            orig: renames.get(mid, mid)
                            for orig, mid in inner.items()}
            self._embeddings = out
        return self._embeddings


def signature(*decls) -> Signature:
    """Build a base signature from ``(name, arity[, parametric])`` specs."""
    return Signature(decls)


def sig_sum(left: Signature, right: Signature) -> Signature:
    """Disjoint sum of two signatures; right-hand collisions get primed
    names, and each summand records only the names it renamed."""
    used = set(left.names)
    renames = {}
    decls = list(left.decls)
    for d in right.decls:
        name = d.name
        while name in used:
            name += "'"
        used.add(name)
        if name != d.name:
            renames[d.name] = name
        decls.append(OpDecl(name, d.arity, d.parametric))
    return Signature(decls, summands=((left, {}), (right, renames)))


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Param(Term):
    """Leaf referencing an already-solved state (a constant parameter)."""

    ref: object

    def __repr__(self):
        return f"<param {self.ref!r}>"


@dataclass(frozen=True)
class Slot(Term):
    """Leaf standing for a rule's premise (an argument or one of its
    continuations): a hole number when the engine plans, an id in probes."""

    node: object

    def __repr__(self):
        return f"<node {self.node}>"


@dataclass(frozen=True)
class Guard(Term):
    """Leaf of one full observation, a `behavior.Step` whose continuations
    are terms: one layer of behavior, under which variables are guarded.
    `subterms` visits those terms; `substitute` and `embed_signature`
    leave a guard as it is."""

    step: object

    @staticmethod
    def above(t: Term) -> list:
        """The `App` nodes and `Guard` leaves of ``t`` above its guards,
        parents first, arguments left to right.  Above the guards of a
        guarded term every leaf is a `Guard` or, as an argument, a `Param`,
        a solved constant: the first other leaf, at its path of argument
        indices, raises Unguarded if it is a variable and UnguardedPath if
        not."""
        out, todo = [], [(t, None, None)]  # a node, its index, its parent's
        while todo:
            entry = todo.pop()
            node = entry[0]
            cls = node.__class__
            if cls is App:
                todo += [(node.args[i], i, entry)
                         for i in range(len(node.args) - 1, -1, -1)]
            elif cls is Param and entry[2]:
                continue
            elif cls is not Guard:
                path = []
                while entry[2]:
                    path.append(entry[1])
                    entry = entry[2]
                path = tuple(reversed(path))
                raise Unguarded(node.name, path) if cls is Var else \
                    UnguardedPath(f"path {path} ends in {node!r} "
                                  "with no guard")
            out.append(node)
        return out


@dataclass(frozen=True)
class App(Term):
    op: OpSym
    args: tuple

    def __repr__(self):
        if not self.args:
            return repr(self.op)
        return f"{self.op!r}({', '.join(map(repr, self.args))})"


def mk_app(op: OpSym, args) -> App:
    args = tuple(args)
    if len(args) != op.arity:
        raise ArityMismatch(
            f"{op!r} applied to {len(args)} arguments"
        )
    for a in args:
        if isinstance(a, App) and a.op.sig_id != op.sig_id:
            raise ForeignSymbol(
                f"argument head {a.op!r} is not in the signature of {op!r}"
            )
        if not isinstance(a, Term):
            raise TypeError(f"not a term: {a!r}")
    return App(op, args)


def build_term(root, split, join=App) -> Term:
    """The term of the tree ``root``, built in post-order on a stack:
    ``split(node)`` is its symbol and child nodes, or its leaf term and
    None, and ``join(symbol, terms)`` a symbol's term, `App` by default."""
    stack, built = [root], []  # a None follows a symbol and its arity
    while stack:
        node = stack.pop()
        if node is not None:
            head, subs = split(node)
            if subs is None:
                built.append(head)
            else:
                stack += (head, len(subs), None, *reversed(subs))
            continue
        cut = len(built) - stack.pop()
        built[cut:] = [join(stack.pop(), tuple(built[cut:]))]
    return built[0]


def substitute(t: Term, env: Mapping[str, Term]) -> Term:
    """Simultaneous replacement of variables; missing entries stay in place."""
    def split(node):
        if isinstance(node, App):
            return node.op, node.args
        return (env.get(node.name, node) if isinstance(node, Var)
                else node), None

    return build_term(t, split)


def embed_signature(t: Term, into: Signature) -> Term:
    """Rename the symbols of ``t`` into the sum signature ``into``."""
    embeddings = into.embeddings()

    def split(node):
        if not isinstance(node, App):
            return node, None
        op = node.op
        if op.sig_id != into.sig_id:
            renames = embeddings.get(op.sig_id)
            if renames is None:
                raise NotASummand(
                    f"signature of {op!r} is not a summand of {into!r}")
            op = OpSym(renames[op.name], op.arity, into.sig_id, op.param)
        return op, node.args

    return build_term(t, split)


def subterms(t: Term):
    """Every node of ``t``: its leaves and applications, and the terms
    below its guards."""
    stack = [t]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, App):
            stack.extend(n.args)
        elif isinstance(n, Guard):
            stack.extend(c for _, c in n.step.children)


def free_vars(t: Term) -> frozenset:
    return frozenset(n.name for n in subterms(t) if isinstance(n, Var))

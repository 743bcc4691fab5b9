"""Built-in rule tables for the four application domains, plus oracles.

The oracles are brute-force evaluators sharing no code with the rule
engine; tests and check suites compare engine results against them.
Shared expression vocabularies (tuple ASTs for languages and processes)
let the same randomly generated input drive both sides.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .behavior import (
    LanguageKind,
    ProcessKind,
    STREAM,
    TREE,
    StreamKind,
    check_depth,
    language_step,
    process_actions,
    process_step,
    rat,
    stream_step,
    tree_step,
)
from .errors import (
    BadActionStructure,
    EmptyAlphabet,
    KindMismatch,
    UnknownOracle,
    UnknownSymbol,
)
from .rules import (
    GsosRule,
    Law,
    RpsDef,
    RuleTable,
    SrpsDef,
    build_table,
    extend_with_rps,
    register_srps,
)
from .solver import Engine, SolutionHandle, System
from .terms import (App, Guard, Signature, Term, Var, build_term, mk_app,
                    sig_sum, signature)

# ---------------------------------------------------------------------------
# Streams (componentwise givens, shuffle and convolution staged on top)


@lru_cache(maxsize=None)
def stream_base_table() -> RuleTable:
    """Givens: rational constants, +, zip, r-multipliers, and registers."""
    sig = signature(
        ("const", 0, True),
        ("plus", 2),
        ("zip", 2),
        ("mult", 1, True),
        ("register", 1, True),
    )

    zero = mk_app(sig.op("const", Fraction(0)), ())
    plus, zip_ = sig.op("plus"), sig.op("zip")

    def const_rule(op, args):
        return stream_step(op.param, zero)

    def plus_rule(op, args):
        a, b = args
        return stream_step(a.head + b.head, mk_app(plus, (a.tail, b.tail)))

    def zip_rule(op, args):
        a, b = args
        return stream_step(a.head, mk_app(zip_, (b.self_term, a.tail)))

    def mult_rule(op, args):
        (a,) = args
        return stream_step(op.param * a.head, mk_app(op, (a.tail,)))

    def register_rule(op, args):
        (a,) = args
        return stream_step(op.param, a.self_term)

    return build_table(STREAM, sig, [
        GsosRule(sig.template("const"), const_rule, (Fraction(1),)),
        GsosRule(plus, plus_rule, law=Law(additive=True)),
        GsosRule(zip_, zip_rule),
        GsosRule(sig.template("mult"), mult_rule, (Fraction(2),)),
        GsosRule(sig.template("register"), register_rule, (Fraction(1),)),
    ])


def shuffle_rps(base: Signature) -> RpsDef:
    new = signature(("shuffle", 2))
    s = sig_sum(base, new)
    shuffle, plus = s.op("shuffle"), s.op("plus")

    def shuffle_rule(op, args):
        a, b = args
        left = mk_app(shuffle, (a.self_term, b.tail))
        right = mk_app(shuffle, (a.tail, b.self_term))
        return stream_step(a.head * b.head, mk_app(plus, (left, right)))

    return RpsDef(new, {"shuffle": GsosRule(shuffle, shuffle_rule)})


def convolution_rps(base: Signature) -> RpsDef:
    new = signature(("conv", 2))
    s = sig_sum(base, new)
    conv, plus = s.op("conv"), s.op("plus")

    def conv_rule(op, args):
        a, b = args
        left = mk_app(conv, (a.tail, b.self_term))
        head_const = mk_app(s.op("const", a.head), ())
        right = mk_app(conv, (head_const, b.tail))
        return stream_step(a.head * b.head, mk_app(plus, (left, right)))

    return RpsDef(new, {"conv": GsosRule(conv, conv_rule)})


@lru_cache(maxsize=None)
def stream_table() -> RuleTable:
    """The staged stream table: givens, then shuffle, then convolution."""
    t = stream_base_table()
    t = extend_with_rps(t, shuffle_rps(t.sig))
    t = extend_with_rps(t, convolution_rps(t.sig))
    return t


# ---------------------------------------------------------------------------
# Infinite binary trees


@lru_cache(maxsize=None)
def tree_table(pi_value: Fraction = Fraction(355, 113)) -> RuleTable:
    """Constants, nodewise addition, and the all-`pi_value` tree.

    Exact arithmetic cannot hold an irrational, so the `pi` constant is a
    configurable rational; tests assert only that every node carries it.
    """
    sig = signature(("const", 0, True), ("plus", 2), ("pi", 0))
    zero = mk_app(sig.op("const", Fraction(0)), ())
    plus, pi = sig.op("plus"), sig.op("pi")
    pi_me = mk_app(pi, ())

    def const_rule(op, args):
        return tree_step(op.param, zero, zero)

    def plus_rule(op, args):
        a, b = args
        return tree_step(a.head + b.head, mk_app(plus, (a.left, b.left)),
                         mk_app(plus, (a.right, b.right)))

    def pi_rule(op, args):
        return tree_step(pi_value, pi_me, pi_me)

    return build_table(TREE, sig, [
        GsosRule(sig.template("const"), const_rule, (Fraction(1),)),
        GsosRule(plus, plus_rule, law=Law(additive=True)),
        GsosRule(pi, pi_rule),
    ])


# ---------------------------------------------------------------------------
# Formal languages: the staged tower, then the step-rebuilding extras


def _lang_kind(alphabet) -> LanguageKind:
    letters = tuple(alphabet)
    if not letters:
        raise EmptyAlphabet("language tables need a nonempty alphabet")
    if len(set(letters)) != len(letters):
        raise EmptyAlphabet("alphabet letters must be distinct")
    return LanguageKind(letters)


@lru_cache(maxsize=None)
def language_table(alphabet) -> RuleTable:
    """Tower over the empty table: constants, boolean operations,
    concatenation, star, and finally prefixing plus the step-rebuilding
    operation of the terminal coalgebra structure itself."""
    kind = _lang_kind(alphabet)
    letters = kind.alphabet
    table = build_table(kind, Signature(()), [])

    # stage 1: constant languages
    v0 = signature(("empty", 0), ("eps", 0), ("char", 0, True))
    s0 = sig_sum(table.sig, v0)
    none = {a: mk_app(s0.op("empty"), ()) for a in letters}
    eps = mk_app(s0.op("eps"), ())

    def empty_rule(op, args):
        return language_step(False, none, letters)

    def eps_rule(op, args):
        return language_step(True, none, letters)

    def char_rule(op, args):
        kids = dict(none)
        kids[op.param] = eps
        return language_step(False, kids, letters)

    table = extend_with_rps(table, RpsDef(v0, {
        "empty": GsosRule(s0.op("empty"), empty_rule),
        "eps": GsosRule(s0.op("eps"), eps_rule),
        "char": GsosRule(s0.template("char"), char_rule, (letters[0],)),
    }))

    # stage 2: union, intersection, complement
    v1 = signature(("union", 2), ("inter", 2), ("compl", 1))
    s1 = sig_sum(table.sig, v1)
    union, inter, compl = s1.op("union"), s1.op("inter"), s1.op("compl")

    def union_rule(op, args):
        a, b = args
        kids = {x: mk_app(union, (a.at(x), b.at(x))) for x in letters}
        return language_step(a.head or b.head, kids, letters)

    def inter_rule(op, args):
        a, b = args
        kids = {x: mk_app(inter, (a.at(x), b.at(x))) for x in letters}
        return language_step(a.head and b.head, kids, letters)

    def compl_rule(op, args):
        (a,) = args
        kids = {x: mk_app(compl, (a.at(x),)) for x in letters}
        return language_step(not a.head, kids, letters)

    table = extend_with_rps(table, RpsDef(v1, {
        "union": GsosRule(union, union_rule,
                          law=Law(unit="empty", semilattice=True)),
        "inter": GsosRule(inter, inter_rule,
                          law=Law(zero="empty", semilattice=True)),
        "compl": GsosRule(compl, compl_rule),
    }))

    # stage 3: concatenation
    v2 = signature(("concat", 2))
    s2 = sig_sum(table.sig, v2)
    concat, union2 = s2.op("concat"), s2.op("union")

    def concat_rule(op, args):
        a, b = args
        kids = {}
        for x in letters:
            t = mk_app(concat, (a.at(x), b.self_term))
            if a.head:
                t = mk_app(union2, (t, b.at(x)))
            kids[x] = t
        return language_step(a.head and b.head, kids, letters)

    table = extend_with_rps(
        table, RpsDef(v2, {"concat": GsosRule(
            concat, concat_rule,
            law=Law(unit="eps", zero="empty"))}))

    # stage 4: Kleene star, using concatenation from the previous stage
    v3 = signature(("star", 1))
    s3 = sig_sum(table.sig, v3)
    star, concat3 = s3.op("star"), s3.op("concat")

    def star_rule(op, args):
        (a,) = args
        me = mk_app(star, (a.self_term,))
        kids = {x: mk_app(concat3, (a.at(x), me)) for x in letters}
        return language_step(True, kids, letters)

    table = extend_with_rps(
        table, RpsDef(v3, {"star": GsosRule(star, star_rule)}))

    # extras: prefixing a.L and the inverse of the coalgebra structure,
    # which rebuilds a language from derivatives and an acceptance bit
    v4 = signature(("prefix", 1, True), ("cons", len(letters), True))
    s4 = sig_sum(table.sig, v4)
    none4 = {a: mk_app(s4.op("empty"), ()) for a in letters}

    def prefix_rule(op, args):
        (a,) = args
        kids = dict(none4)
        kids[op.param] = a.self_term
        return language_step(False, kids, letters)

    def cons_rule(op, args):
        kids = {x: args[i].self_term for i, x in enumerate(letters)}
        return language_step(op.param, kids, letters)

    return extend_with_rps(table, RpsDef(v4, {
        "prefix": GsosRule(s4.template("prefix"), prefix_rule, (letters[0],)),
        "cons": GsosRule(s4.template("cons"), cons_rule, (True, False)),
    }))


# ---------------------------------------------------------------------------
# CCS-style processes


def relabel_param(kind: ProcessKind, mapping: Mapping[str, str]):
    """Canonical total relabeling: completes complements and fixes tau."""
    full = {}
    for a, b in mapping.items():
        if a in full:
            raise BadActionStructure(f"relabeling maps {a!r} twice")
        full[a], full[kind.co(a)] = b, kind.co(b)
    full.setdefault(kind.tau, kind.tau)
    for a in kind.actions:
        full.setdefault(a, a)
    if full[kind.tau] != kind.tau:
        raise BadActionStructure("relabeling must fix tau")
    for a in kind.actions:
        if full[kind.co(a)] != kind.co(full[a]):
            raise BadActionStructure("relabeling must respect complements")
    return tuple(sorted(full.items()))


def restrict_param(kind: ProcessKind, actions):
    closed = set()
    for a in actions:
        if a == kind.tau:
            raise BadActionStructure("tau cannot be restricted")
        closed.add(a)
    return tuple(sorted(closed))


@lru_cache(maxsize=None)
def ccs_table(kind: ProcessKind) -> RuleTable:
    """The inactive process `nil`, prefixing, finite sums, parallel,
    relabeling, restriction, and sequential composition; alternation is
    sandwiched on top.  Parallel composition is commutative and associative
    with unit `nil` (Milner's laws for strong bisimilarity), so the engine
    hash-conses it as a multiset of its operands."""
    if not isinstance(kind, ProcessKind):
        raise BadActionStructure("ccs_table needs a ProcessKind")
    sig = signature(
        ("nil", 0),
        ("pref", 1, True),
        ("sum", None, True),
        ("par", 2),
        ("relabel", 1, True),
        ("restrict", 1, True),
        ("seq", 2),
    )
    nil, par, seq = sig.op("nil"), sig.op("par"), sig.op("seq")

    def nil_rule(op, args):
        return process_step(())

    def pref_rule(op, args):
        (a,) = args
        return process_step(((op.param, a.self_term),))

    def sum_rule(op, args):
        return process_step(tuple(m for a in args for m in a.moves))

    def par_rule(op, args):
        a, b = args
        moves = [(act, mk_app(par, (x, b.self_term))) for act, x in a.moves]
        moves += [(act, mk_app(par, (a.self_term, y))) for act, y in b.moves]
        for act, x in a.moves:
            if act != kind.tau:
                co = kind.co(act)
                moves += [(kind.tau, mk_app(par, (x, y)))
                          for act2, y in b.moves if act2 == co]
        return process_step(tuple(moves))

    def relabel_rule(op, args):
        (a,) = args
        f = dict(op.param)
        return process_step(tuple(
            (f[act], mk_app(op, (x,))) for act, x in a.moves))

    def restrict_rule(op, args):
        (a,) = args
        banned = set(op.param)
        return process_step(tuple(
            (act, mk_app(op, (x,))) for act, x in a.moves
            if act not in banned and kind.co(act) not in banned))

    def seq_rule(op, args):
        a, b = args
        if a.moves:
            return process_step(tuple(
                (act, mk_app(seq, (x, b.self_term))) for act, x in a.moves))
        return process_step(tuple(b.moves))

    table = build_table(kind, sig, [
        GsosRule(nil, nil_rule),
        GsosRule(sig.template("pref"), pref_rule, (kind.actions[0],)),
        GsosRule(sig.template("sum"), sum_rule, (0, 2)),
        GsosRule(par, par_rule, law=Law(unit="nil", commutative=True)),
        GsosRule(sig.template("relabel"), relabel_rule,
                 (relabel_param(kind, {}),)),
        GsosRule(sig.template("restrict"), restrict_rule, ((),)),
        GsosRule(seq, seq_rule),
    ])

    v = signature(("alt", 2))
    s = sig_sum(table.sig, v)
    alt, seq_s = s.op("alt"), s.op("seq")

    def alt_context(op, args):
        a, b = args
        me = mk_app(alt, (a.self_term, b.self_term))
        flipped = mk_app(alt, (b.self_term, a.self_term))
        if b.moves:
            first = Guard(process_step(tuple(a.moves)))
            second = Guard(process_step(tuple(
                (act, mk_app(seq_s, (y, me))) for act, y in b.moves)))
            return App(seq_s, (first, second))
        if a.moves:
            return Guard(process_step(tuple(
                (act, mk_app(seq_s, (x, flipped))) for act, x in a.moves)))
        return Guard(process_step(()))

    return register_srps(table, SrpsDef(v, {"alt": alt_context}))


DEFAULT_ACTIONS = process_actions("a", "b", "c")


# ---------------------------------------------------------------------------
# Handles for common inputs


def periodic_stream(engine: Engine, prefix, cycle=(0,)) -> SolutionHandle:
    """Eventually periodic stream as the solution of a flat system."""
    prefix = [rat(v) for v in prefix]
    cycle = [rat(v) for v in cycle] or [Fraction(0)]
    names = [f"s{i}" for i in range(len(prefix))]
    names += [f"c{j}" for j in range(len(cycle))]
    rhs = {}
    values = prefix + cycle
    for i, name in enumerate(names):
        if i + 1 < len(names):
            succ = names[i + 1]
        else:
            succ = names[len(prefix)]
        rhs[name] = Guard(stream_step(values[i], Var(succ)))
    sol = engine.solve(System(STREAM, stream_table(), tuple(names), rhs))
    return sol[names[0]]


def periodic_values(prefix, cycle, n):
    prefix = [rat(v) for v in prefix]
    cycle = [rat(v) for v in cycle] or [Fraction(0)]
    out = list(prefix)
    while len(out) < n:
        out.extend(cycle)
    return out[:n]


def stream_take(h: SolutionHandle, n: int):
    """First n labels of a stream state, one engine walk along its tails."""
    if not isinstance(getattr(h, "kind", None), StreamKind):
        raise KindMismatch(f"{h!r} is not a stream state")
    h.engine.check_handle(h)
    out = []
    h.engine.walk(h.node, itertools.repeat(0, check_depth(n, "n")), out)
    return out


def language_member(h: SolutionHandle, word: str) -> bool:
    """Membership by one engine walk along the word's derivatives; the
    letters are checked before the handle."""
    kind = getattr(h, "kind", None)
    if not isinstance(kind, LanguageKind):
        raise KindMismatch(f"{h!r} is not a language state")
    index = {a: i for i, a in enumerate(kind.alphabet)}
    try:
        ports = [index[x] for x in word]
    except KeyError as e:
        raise UnknownSymbol(f"letter {e.args[0]!r} is not in the alphabet "
                            f"{kind.alphabet}") from None
    engine = h.engine
    engine.check_handle(h)
    return engine.node_step(engine.walk(h.node, ports)).label


# ---------------------------------------------------------------------------
# Shared tuple ASTs compiled for the engine (oracles consume them directly)


def language_term(table: RuleTable, expr) -> Term:
    """Compile a language expression AST into a term over the table."""
    def split(e):
        tag = e[0]
        if tag in ("empty", "eps"):
            return table.op(tag), ()
        if tag == "char":
            return table.op("char", e[1]), ()
        if tag in ("union", "inter", "concat"):
            return table.op(tag), e[1:3]
        if tag in ("compl", "star"):
            return table.op(tag), e[1:2]
        if tag == "prefix":
            return table.op("prefix", e[1]), e[2:3]
        if tag == "cons":
            return table.op("cons", bool(e[1])), e[2]
        raise UnknownOracle(f"unknown language expression {e!r}")

    return build_term(expr, split)


def ccs_op(table: RuleTable, ast, shared=None):
    """The root symbol of a process AST other than ("ref", x), and the
    ASTs of its arguments.  ``shared``, a dict kept across calls, keeps one
    symbol per tag and parameter, under a tuple key."""
    tag = ast[0]
    if tag in ("par", "seq", "alt"):
        key, subs = (tag,), ast[1:]
    elif tag == "sum":
        key, subs = (tag, len(ast[1])), ast[1]
    elif tag in ("pref", "relabel", "restrict"):
        key, subs = (tag, ast[1]), ast[2:]
    else:
        raise UnknownOracle(f"unknown process expression {ast!r}")
    shared = {} if shared is None else shared
    op = shared.get(key)
    if op is None:
        if tag == "relabel":
            op = table.op(tag, relabel_param(table.kind, dict(ast[1])))
        elif tag == "restrict":
            op = table.op(tag, restrict_param(table.kind, ast[1]))
        else:
            op = table.op(*key) if subs else table.op("nil")
        shared[key] = op
    return op, subs


def ccs_term(table: RuleTable, ast, shared=None) -> Term:
    """Compile a process AST into a term; ("ref", x) becomes a variable.
    ``shared``, a dict kept across calls, keeps one `Var` per name, under
    the name, and one symbol per tag and parameter, as `ccs_op` does."""
    shared = {} if shared is None else shared

    def split(a):
        if a[0] != "ref":
            return ccs_op(table, a, shared)
        leaf = shared.get(a[1])
        if leaf is None:
            leaf = shared[a[1]] = Var(a[1])
        return leaf, None

    return build_term(ast, split)


# ---------------------------------------------------------------------------
# Oracles: brute-force evaluators independent of the rule engine


def _thue_morse(n: int) -> int:
    return bin(n).count("1") % 2


def _binomial_shuffle(xs, ys):
    """``sum(comb(k, i) * xs[i] * ys[k - i])``, one Pascal row per k."""
    n = min(len(xs), len(ys))
    out = []
    row = [1]
    for k in range(n):
        out.append(sum(c * xs[i] * ys[k - i] for i, c in enumerate(row)))
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return out


def _cauchy_convolution(xs, ys):
    n = min(len(xs), len(ys))
    return [sum(xs[i] * ys[k - i] for i in range(k + 1)) for k in range(n)]


def _zip_fixpoint(sigma, n):
    memo = {}

    def f(k):
        if k in memo:
            return memo[k]
        v = sigma[k // 2] if k % 2 == 0 else f((k - 1) // 2)
        memo[k] = v
        return v

    return [f(k) for k in range(n)]


def _all_words(alphabet, maxlen):
    for n in range(maxlen + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def _lang_eval(expr, maxlen, alphabet):
    tag = expr[0]
    if tag == "empty":
        return frozenset()
    if tag == "eps":
        return frozenset({""})
    if tag == "char":
        return frozenset({expr[1]} if maxlen >= 1 else ())
    if tag == "union":
        return _lang_eval(expr[1], maxlen, alphabet) | \
            _lang_eval(expr[2], maxlen, alphabet)
    if tag == "inter":
        return _lang_eval(expr[1], maxlen, alphabet) & \
            _lang_eval(expr[2], maxlen, alphabet)
    if tag == "compl":
        inner = _lang_eval(expr[1], maxlen, alphabet)
        return frozenset(w for w in _all_words(alphabet, maxlen)
                         if w not in inner)
    if tag == "concat":
        left = _lang_eval(expr[1], maxlen, alphabet)
        right = _lang_eval(expr[2], maxlen, alphabet)
        return frozenset(u + v for u in left for v in right
                         if len(u) + len(v) <= maxlen)
    if tag == "star":
        base = _lang_eval(expr[1], maxlen, alphabet)
        out = {""}
        while True:
            more = {u + v for u in out for v in base
                    if v and len(u) + len(v) <= maxlen}
            if more <= out:
                return frozenset(out)
            out |= more
    if tag == "prefix":
        inner = _lang_eval(expr[2], maxlen, alphabet)
        return frozenset(expr[1] + w for w in inner
                         if len(w) + 1 <= maxlen)
    if tag == "cons":
        out = {""} if expr[1] else set()
        for letter, sub in zip(alphabet, expr[2]):
            inner = _lang_eval(sub, maxlen, alphabet)
            out |= {letter + w for w in inner if len(w) + 1 <= maxlen}
        return frozenset(out)
    raise UnknownOracle(f"unknown language expression {expr!r}")


def _word_membership(expr, word, alphabet) -> bool:
    return word in _lang_eval(expr, len(word), alphabet)


def _gnf_words(productions, start, maxlen):
    """All words up to maxlen derivable in a GNF grammar by leftmost steps."""
    words = set()
    frontier = {("", (start,))}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for w, stack in frontier:
            if not stack:
                words.add(w)
                continue
            head, rest = stack[0], stack[1:]
            for terminal, body in productions.get(head, ()):
                # every pending nonterminal still costs at least one letter
                if len(w) + 1 + len(body) + len(rest) > maxlen:
                    continue
                state = (w + terminal, tuple(body) + rest)
                if state not in seen:
                    seen.add(state)
                    nxt.add(state)
        frontier = nxt
    return frozenset(words)


def ccs_sos(kind: ProcessKind, ast, env=None):
    """Direct one-step SOS transitions of a process AST (set semantics),
    without repeats, stably sorted by action: first seen first."""
    env = env or {}
    tag = ast[0]
    if tag == "ref":
        moves = ccs_sos(kind, env[ast[1]], env)
    elif tag == "state":
        moves = list(ast[1])
    elif tag == "pref":
        moves = [(ast[1], ast[2])]
    elif tag == "sum":
        moves = [m for sub in ast[1] for m in ccs_sos(kind, sub, env)]
    elif tag == "par":
        left, right = ast[1], ast[2]
        lm = ccs_sos(kind, left, env)
        rm = ccs_sos(kind, right, env)
        moves = [(a, ("par", x, right)) for a, x in lm]
        moves += [(a, ("par", left, y)) for a, y in rm]
        moves += [(kind.tau, ("par", x, y))
                  for a, x in lm if a != kind.tau
                  for b, y in rm if b == kind.co(a)]
    elif tag == "relabel":
        f = dict(relabel_param(kind, dict(ast[1])))
        moves = [(f[a], ("relabel", ast[1], x))
                 for a, x in ccs_sos(kind, ast[2], env)]
    elif tag == "restrict":
        banned = set(ast[1])
        moves = [(a, ("restrict", ast[1], x))
                 for a, x in ccs_sos(kind, ast[2], env)
                 if a not in banned and kind.co(a) not in banned]
    elif tag == "seq":
        lm = ccs_sos(kind, ast[1], env)
        if lm:
            moves = [(a, ("seq", x, ast[2])) for a, x in lm]
        else:
            moves = ccs_sos(kind, ast[2], env)
    elif tag == "alt":
        left, right = ast[1], ast[2]
        lm = ccs_sos(kind, left, env)
        rm = ccs_sos(kind, right, env)
        if rm:
            cont = ("state", tuple((a, ("seq", y, ("alt", left, right)))
                                   for a, y in rm))
            if lm:
                moves = [(a, ("seq", x, cont)) for a, x in lm]
            else:
                moves = list(cont[1])
        elif lm:
            moves = [(a, ("seq", x, ("alt", right, left))) for a, x in lm]
        else:
            moves = []
    else:
        raise UnknownOracle(f"unknown process expression {ast!r}")
    return tuple(sorted(dict.fromkeys(moves),
                        key=lambda m: kind.action_index(m[0])))


ORACLES = {
    "thue_morse": _thue_morse,
    "binomial_shuffle": _binomial_shuffle,
    "cauchy_convolution": _cauchy_convolution,
    "zip_fixpoint": _zip_fixpoint,
    "word_membership": _word_membership,
    "language_words": _lang_eval,
    "gnf_derivations": _gnf_words,
    "ccs_sos": ccs_sos,
}


def oracle_eval(name, *args, **kwargs):
    """Evaluate the brute-force oracle registered under ``name``."""
    try:
        oracle = ORACLES[name]
    except KeyError:
        raise UnknownOracle(f"no oracle named {name!r}") from None
    return oracle(*args, **kwargs)


# ---------------------------------------------------------------------------
# Random fixtures shared by the check suites and the test harness


def random_language_expr(rng, alphabet, depth):
    letters = tuple(alphabet)
    if depth <= 0:
        return rng.choice([("empty",), ("eps",)] +
                          [("char", a) for a in letters])
    tag = rng.choice(["union", "inter", "concat", "compl", "star",
                      "union", "concat", "leaf"])
    if tag == "leaf":
        return random_language_expr(rng, letters, 0)
    if tag in ("compl", "star"):
        return (tag, random_language_expr(rng, letters, depth - 1))
    return (tag,
            random_language_expr(rng, letters, depth - 1),
            random_language_expr(rng, letters, depth - 1))


def random_agent(rng, kind: ProcessKind, depth):
    if depth <= 0:
        return rng.choice([("sum", ()),
                           ("pref", rng.choice(kind.actions), ("sum", ()))])
    tag = rng.choice(["pref", "pref", "sum", "par", "restrict", "seq"])
    if tag == "pref":
        return ("pref", rng.choice(kind.actions),
                random_agent(rng, kind, depth - 1))
    if tag == "sum":
        n = rng.randint(0, 3)
        return ("sum", tuple(random_agent(rng, kind, depth - 1)
                             for _ in range(n)))
    if tag == "restrict":
        k = rng.randint(0, 1)
        banned = tuple(sorted(rng.sample(
            [a for a in kind.actions if a != kind.tau], k)))
        return ("restrict", banned, random_agent(rng, kind, depth - 1))
    return (tag, random_agent(rng, kind, depth - 1),
            random_agent(rng, kind, depth - 1))


def random_periodic_spec(rng, size=3):
    pre = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(0, size)))
    cyc = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, size)))
    return pre, cyc

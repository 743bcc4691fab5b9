"""grammar_member: membership queries that share one engine per grammar.

A batch solves one aⁿbⁿ-style grammar in Greibach normal form on a fresh
engine and asks for words that share prefixes, so derivatives, hash-consed
nodes and memo entries are reused across queries.  Answers are known by
construction.  Random depth-4 language expressions, checked by the
``word_membership`` oracle, ride along: one operation solves each of
them on a fresh engine and asks for every prefix of one word.  The cost
of an expression depends on the seed, from well below to well above the
median query; one operation for all of them keeps that out of the
median, which the memoized queries then set on every seed.
"""

from __future__ import annotations

import random

from common import LANG_ALPHABET, Op

FAMILIES = ("anbn", "lang_expr")

# Every cycle runs these batches: (grammar style, accepted-word length).
# aⁿbⁿ reaches n = 96, 60% of the seed's recursion ceiling (n about 160).
# Each batch has one costly first query, one half-new path and four
# memoized ones, so every cycle holds the same mix of work.
BATCHES = (("anbn", 192), ("anb2n", 144), ("anbn1", 96), ("anbn", 72),
           ("anb2n", 48), ("anbn1", 24))
STYLES = ("anbn", "anbn1", "anb2n")
EXPRS = 4  # the same expressions in every cycle, all in one operation
EXPR_WORD = 10  # every prefix of one random word per expression


def _size(style, length):
    """n such that the style's accepted word has about ``length`` letters."""
    return max(1, length // 3 if style == "anb2n" else length // 2)


def _accepted(style, n):
    if style == "anbn":
        return "a" * n + "b" * n
    if style == "anbn1":
        return "a" * n + "b" * (n + 1)
    return "a" * n + "b" * (2 * n)


def _grammar_text(style, rng):
    """The style's grammar under seeded nonterminal names.  Production
    order is fixed: it sets the nesting of the solved unions, and so the
    cost of every query."""
    s = f"S{rng.randint(0, 999)}"
    b = f"B{rng.randint(0, 999)}"
    prods = {
        "anbn": [f"{s} -> a {s} {b}", f"{s} -> a {b}"],
        "anbn1": [f"{s} -> a {s} {b}", f"{s} -> b"],
        "anb2n": [f"{s} -> a {s} {b} {b}", f"{s} -> a {b} {b}"],
    }[style] + [f"{b} -> b"]
    return (f"terminals: a b\nnonterminals: {s} {b}\nstart: {s}\n"
            + "\n".join(prods) + "\n")


def _batch_words(style, n):
    """Words sharing prefixes with the accepted one, with their answers."""
    word = _accepted(style, n)
    shorter = _accepted(style, n - 1) if n > 1 else None
    out = [(word, True), (word[:-1], False), (word + "b", False),
           (word + "a", False)]
    mid = len(word) // 2
    out.append((word[:mid] + ("b" if word[mid] == "a" else "a")
                + word[mid + 1:], False))
    if shorter:
        out.append((shorter, True))
    return out


class GrammarMember:
    name = "grammar_member"
    families = FAMILIES
    probe_start = 16
    probe_cap = 256
    period = 1  # every cycle runs the same operations

    def __init__(self, corec, seed, scale=1.0):
        self.corec = corec
        rng = random.Random(f"grammar_member/{seed}")
        self.batches = [(style, _size(style, max(4, int(length * scale))))
                        for style, length in BATCHES]
        self.grammars = {st: _grammar_text(st, rng) for st in STYLES}
        self.starts = {st: txt.split("start: ")[1].split()[0]
                       for st, txt in self.grammars.items()}
        oracle = corec.instances.oracle_eval
        letters = tuple(LANG_ALPHABET)
        self.exprs = []
        depth = 4 if scale >= 1 else 2
        for _ in range(EXPRS):
            expr = corec.instances.random_language_expr(rng, letters, depth)
            full = "".join(rng.choice(letters) for _ in
                           range(EXPR_WORD if scale >= 1 else 4))
            words = [full[:k] for k in range(len(full) + 1)]
            self.exprs.append(
                (expr, [(w, oracle("word_membership", expr, w, letters))
                        for w in words]))

    def once(self):
        return []

    def cycle(self, k):
        c = self.corec
        ops = []
        for style, n in self.batches:
            ops.extend(self._batch(style, n))

        def run_exprs():
            table = c.instances.language_table(LANG_ALPHABET)
            out = []
            for expr, words in self.exprs:
                h = c.solver.Engine().interpret_term(
                    table, c.instances.language_term(table, expr))
                out.append([c.instances.language_member(h, w)
                            for w, _ in words])
            return out

        ops.append(Op("lang_expr", run_exprs,
                      [[want for _, want in words]
                       for _, words in self.exprs],
                      sum(len(w) for _, words in self.exprs
                          for w, _ in words)))
        return ops

    def _batch(self, style, n):
        c = self.corec
        text, start = self.grammars[style], self.starts[style]
        holder = {}

        def member(word):
            h = holder.get("h")
            if h is None:
                system = c.frontends.compile_gnf(c.frontends.parse_gnf(text))
                h = holder["h"] = c.solver.Engine().solve(system)[start]
            return c.instances.language_member(h, word)

        return [Op("anbn", (lambda w=w: member(w)), want, len(w))
                for w, want in _batch_words(style, n)]

    def probe(self, n):
        """Membership of aⁿbⁿ in its grammar on a fresh engine."""
        c = self.corec
        text = ("terminals: a b\nnonterminals: S B\nstart: S\n"
                "S -> a S B\nS -> a B\nB -> b\n")
        system = c.frontends.compile_gnf(c.frontends.parse_gnf(text))
        sol = c.solver.Engine().solve(system)
        return c.instances.language_member(sol["S"], "a" * n + "b" * n) \
            is True

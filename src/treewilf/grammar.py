"""Context-free grammars for tree pattern avoidance languages.

The grammar for a pattern set has one nonterminal per avoiding tree of
height at most d (the maximal pattern height), plus a start symbol.  A word
belongs to the class of the nonterminal matching its height-d truncation,
which makes the grammar unambiguous; derivation counting below certifies
that empirically rather than assuming it.

The empty pattern set degenerates to d = 0 with the single nonterminal
receiving every one-step rule body (the classic Catalan grammar in the
binary case).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .trees import (
    Alphabet,
    PatternSet,
    Tree,
    avoids,
    emit_polish,
    is_rooted_subtree,
    occurs_at_root,
    truncate,
    word_key,
)

START = "S"


class GrammarSizeError(RuntimeError):
    """Nonterminal budget exceeded; the construction is meant for desk-scale pattern sets."""


@dataclass(frozen=True)
class Rule:
    """head None means the start symbol; body entries are terminal labels (str) or index trees (Tree)."""

    head: Tree | None
    body: tuple[str | Tree, ...]


@dataclass(frozen=True)
class Grammar:
    alphabet: Alphabet
    patterns: PatternSet
    d: int
    nonterminals: tuple[Tree, ...]
    rules: tuple[Rule, ...]

    @cached_property
    def numbered_rules(self) -> tuple[tuple[int, ...],
                                      dict[str, list[tuple[int, tuple[str | int, ...]]]]]:
        """The rules with every nonterminal replaced by its index in
        nonterminals: (start, by_terminal), where start lists the start
        symbol's alternatives and by_terminal maps a terminal label to the
        (head, rest of the body) of every body that begins with it, terminals
        kept as labels.  Integer keys spare derivation counting the Tree hash.
        Raises ValueError for a body that does not begin with a terminal;
        every body build_grammar emits begins with its root label."""
        index = {v: i for i, v in enumerate(self.nonterminals)}
        start: list[int] = []
        by_terminal: dict[str, list[tuple[int, tuple[str | int, ...]]]] = {}
        for r in self.rules:
            if r.head is None:
                start.append(index[r.body[0]])
            elif not r.body or not isinstance(r.body[0], str):
                raise ValueError(f"rule body {r.body!r} does not begin with a terminal")
            else:
                rest = tuple(s if isinstance(s, str) else index[s] for s in r.body[1:])
                by_terminal.setdefault(r.body[0], []).append((index[r.head], rest))
        return tuple(start), by_terminal

    def is_proper(self) -> bool:
        """Every non-start rule body contains at least one terminal."""
        return all(
            any(isinstance(sym, str) for sym in r.body)
            for r in self.rules
            if r.head is not None
        )

    def _name(self, nt: Tree | None) -> str:
        return START if nt is None else f"T[{emit_polish(nt)}]"

    def _sym_text(self, sym: str | Tree) -> str:
        return sym if isinstance(sym, str) else self._name(sym)

    def to_bnf(self) -> str:
        lines = [
            f"{self._name(r.head)} -> {' '.join(self._sym_text(s) for s in r.body)}"
            for r in self.rules
        ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "terminals": [name for name, _ in self.alphabet.labels],
            "free_end": self.alphabet.free_end,
            "start": START,
            "nonterminals": [self._name(v) for v in self.nonterminals],
            "rules": [
                {
                    "head": self._name(r.head),
                    "body": [self._sym_text(s) for s in r.body],
                }
                for r in self.rules
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _bodies(alphabet: Alphabet, n: int) -> int:
    """Number of trees with one internal root over children drawn from n trees."""
    return sum(n ** k for _, k in alphabet.internal_labels)


def build_Ld(alphabet: Alphabet, patterns: PatternSet, max_size: int | None = None,
             height: int | None = None) -> list[Tree]:
    """All avoiding trees of height at most d (max pattern height, unless
    another height is given), in canonical order."""
    d = patterns.d if height is None else height
    x = Tree(alphabet.free_end)
    layer: list[Tree] = [x]
    for _ in range(d):
        # every tree of height <= h is either x or a root over height <= h-1 trees
        size = 1 + _bodies(alphabet, len(layer))
        if max_size is not None and size > max_size:
            raise GrammarSizeError(
                f"height-{d} tree layer exceeds the budget of {max_size} candidates"
            )
        nxt = [x]
        for label, k in alphabet.internal_labels:
            for kids in product(layer, repeat=k):
                nxt.append(Tree(label, kids))
        layer = nxt
    plist = patterns.patterns
    avoiders = [t for t in layer if avoids(t, plist)]
    return sorted(avoiders, key=lambda t: word_key(t, alphabet))


def membership_class(w: Tree, patterns: PatternSet) -> Tree | None:
    """The unique nonterminal index tree whose block contains w, or None if w is not an avoider.

    Computed as the height-d truncation of w, which is the maximal rooted
    subtree of w among avoiding trees of height at most d.
    """
    if not avoids(w, patterns.patterns):
        return None
    return truncate(w, patterns.d)


def membership_class_setwise(w: Tree, patterns: PatternSet, Ld: list[Tree] | None = None) -> Tree | None:
    """Set-theoretic block membership: the unique v in L_d with v a rooted subtree of w
    dominating every other rooted subtree of w in L_d.  Returns None on no or ambiguous match.

    This is an independent re-derivation used to validate membership_class.
    """
    if not avoids(w, patterns.patterns):
        return None
    if Ld is None:
        Ld = build_Ld(patterns.alphabet, patterns)
    below = [v for v in Ld if is_rooted_subtree(v, w)]
    hits = [
        v
        for v in below
        if not any(s is not v and is_rooted_subtree(v, s) for s in below)
    ]
    return hits[0] if len(hits) == 1 else None


def build_grammar(alphabet: Alphabet, patterns: PatternSet, max_nonterminals: int | None = None,
                  height: int | None = None) -> Grammar:
    """The avoidance-language grammar: S -> T_v for v in L_d, T_x -> x, and
    T_v -> m T_{v1} ... T_{vk} whenever m(v1,...,vk) avoids the patterns and
    its height-d truncation is v.  d is the maximal pattern height unless
    another height is given; any height from d - 1 up gives an unambiguous
    grammar of the same language, since a root occurrence of a height-d
    pattern shows in the height-(d-1) truncations of the children.

    The rules come in canonical order: the start rules in L_d order, then
    each head's bodies by label in alphabet order and by children in
    product order over L_d, which is the order of their Polish words.

    max_nonterminals bounds |L_d| and, through its square, the number of
    candidate rule bodies, which is known once L_d is built; a binary
    grammar within the first bound is within the second."""
    d = patterns.d if height is None else height
    if d < max(patterns.d - 1, 0):
        raise ValueError(f"height {d} is too low to see a root occurrence of a height-{patterns.d} pattern")
    Ld = build_Ld(alphabet, patterns, max_size=max_nonterminals, height=d)
    if max_nonterminals is not None and len(Ld) > max_nonterminals:
        raise GrammarSizeError(
            f"|L_d| = {len(Ld)} exceeds the nonterminal budget of {max_nonterminals}"
        )
    candidates = _bodies(alphabet, len(Ld))
    if max_nonterminals is not None and candidates > max_nonterminals ** 2:
        raise GrammarSizeError(
            f"{candidates} candidate rule bodies exceed the budget of "
            f"{max_nonterminals}^2 = {max_nonterminals ** 2}"
        )
    index = {v: i for i, v in enumerate(Ld)}
    plist = patterns.patterns
    x = Tree(alphabet.free_end)
    # the head of m(v1,...,vk) is m over the children's height-(d-1) truncations
    low = [truncate(v, d - 1) for v in Ld]
    bodies: list[list[Rule]] = [[] for _ in Ld]
    for label, k in alphabet.labels:
        if k == 0:
            if x in index:
                bodies[index[x]].append(Rule(x, (label,)))
            continue
        for kids, lows in zip(product(Ld, repeat=k), product(low, repeat=k)):
            if occurs_at_root(Tree(label, kids), plist):
                continue
            i = index[Tree(label, lows)] if d else 0  # L_0 is [x]
            bodies[i].append(Rule(Ld[i], (label,) + kids))
    rules = [Rule(None, (v,)) for v in Ld]
    for b in bodies:
        rules += b
    return Grammar(alphabet, patterns, d, tuple(Ld), tuple(rules))


def count_derivations(grammar: Grammar, word: str) -> int:
    """Number of distinct parse trees (equivalently, rightmost derivations) of word from S.

    The word is treated as a plain symbol sequence; nothing about the tree
    structure of the language is assumed, so this is an independent check of
    unambiguity.  Malformed words count 0.  Every rule body must begin with a
    terminal, as every body build_grammar emits does.
    """
    try:
        tokens = grammar.alphabet.tokenize(word)
    except ValueError:
        return 0
    n = len(tokens)
    start, by_terminal = grammar.numbered_rules
    # spans[i][v] maps each end j to the number of derivations of tokens[i:j]
    # from nonterminal v.  Every body begins with a terminal, so the rest of
    # a body starting at i reads spans starting right of i: fill i from the
    # right, following each body's symbols over every end they can reach.
    spans: list[dict[int, dict[int, int]]] = [{} for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for head, rest in by_terminal.get(tokens[i], ()):
            ends = {i + 1: 1}
            for sym in rest:
                nxt: dict[int, int] = {}
                if isinstance(sym, str):
                    for mid, ways in ends.items():
                        if mid < n and tokens[mid] == sym:
                            nxt[mid + 1] = ways
                else:
                    for mid, ways in ends.items():
                        for j, c in spans[mid].get(sym, {}).items():
                            nxt[j] = nxt.get(j, 0) + ways * c
                ends = nxt
                if not ends:
                    break
            counts = spans[i].setdefault(head, {})
            for j, ways in ends.items():
                counts[j] = counts.get(j, 0) + ways
    return sum(spans[0].get(v, {}).get(n, 0) for v in start)

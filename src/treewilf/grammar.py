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
    def rules_by_head(self) -> dict[Tree | None, tuple[Rule, ...]]:
        out: dict[Tree | None, list[Rule]] = {}
        for r in self.rules:
            out.setdefault(r.head, []).append(r)
        return {h: tuple(rs) for h, rs in out.items()}

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


def build_Ld(alphabet: Alphabet, patterns: PatternSet, max_size: int | None = None,
             height: int | None = None) -> list[Tree]:
    """All avoiding trees of height at most d (max pattern height, unless
    another height is given), in canonical order."""
    d = patterns.d if height is None else height
    x = Tree(alphabet.free_end)
    layer: list[Tree] = [x]
    for _ in range(d):
        # every tree of height <= h is either x or a root over height <= h-1 trees
        nxt = [x]
        for label, k in alphabet.internal_labels:
            for kids in product(layer, repeat=k):
                nxt.append(Tree(label, kids))
        layer = nxt
        if max_size is not None and len(layer) > max_size:
            raise GrammarSizeError(
                f"height-{d} tree layer exceeds the budget of {max_size} candidates"
            )
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


def build_grammar(alphabet: Alphabet, patterns: PatternSet, max_nonterminals: int | None = None) -> Grammar:
    """The avoidance-language grammar: S -> T_v for v in L_d, T_x -> x, and
    T_v -> m T_{v1} ... T_{vk} whenever m(v1,...,vk) avoids the patterns and
    its height-d truncation is v."""
    d = patterns.d
    Ld = build_Ld(alphabet, patterns, max_size=max_nonterminals)
    if max_nonterminals is not None and len(Ld) > max_nonterminals:
        raise GrammarSizeError(
            f"|L_d| = {len(Ld)} exceeds the nonterminal budget of {max_nonterminals}"
        )
    in_Ld = set(Ld)
    plist = patterns.patterns

    rules: list[Rule] = [Rule(None, (v,)) for v in Ld]
    x = Tree(alphabet.free_end)
    if x in in_Ld:
        rules.append(Rule(x, (alphabet.free_end,)))
    body_rules: list[Rule] = []
    for label, k in alphabet.internal_labels:
        for kids in product(Ld, repeat=k):
            w = Tree(label, kids)
            if occurs_at_root(w, plist):
                continue
            v = truncate(w, d)
            body_rules.append(Rule(v, (label,) + kids))

    def rule_key(r: Rule):
        head = word_key(r.head, alphabet) if r.head is not None else ()
        body = tuple(
            (0, alphabet.label_index[s]) if isinstance(s, str) else (1,) + word_key(s, alphabet)
            for s in r.body
        )
        return (r.head is not None, head, body)

    all_rules = tuple(sorted(rules + body_rules, key=rule_key))
    return Grammar(alphabet, patterns, d, tuple(Ld), all_rules)


def count_derivations(grammar: Grammar, word: str) -> int:
    """Number of distinct parse trees (equivalently, rightmost derivations) of word from S.

    The word is treated as a plain symbol sequence; nothing about the tree
    structure of the language is assumed, so this is an independent check of
    unambiguity.  Malformed words count 0.
    """
    try:
        tokens = grammar.alphabet.tokenize(word)
    except ValueError:
        return 0
    n = len(tokens)
    by_head = grammar.rules_by_head
    nt_count_cache: dict[tuple[Tree, int, int], int] = {}
    seq_cache: dict[tuple[int, int, int, int], int] = {}
    bodies: list[tuple[str | Tree, ...]] = []
    body_id: dict[tuple[str | Tree, ...], int] = {}

    def count_nt(nt: Tree, i: int, j: int) -> int:
        key = (nt, i, j)
        if key in nt_count_cache:
            return nt_count_cache[key]
        nt_count_cache[key] = 0  # cycle guard; grammar rules always consume a terminal
        total = 0
        for rule in by_head.get(nt, ()):
            if rule.body not in body_id:
                body_id[rule.body] = len(bodies)
                bodies.append(rule.body)
            total += count_seq(body_id[rule.body], 0, i, j)
        nt_count_cache[key] = total
        return total

    def count_seq(bid: int, pos: int, i: int, j: int) -> int:
        body = bodies[bid]
        if pos == len(body):
            return 1 if i == j else 0
        key = (bid, pos, i, j)
        if key in seq_cache:
            return seq_cache[key]
        sym = body[pos]
        if isinstance(sym, str):
            result = count_seq(bid, pos + 1, i + 1, j) if i < j and tokens[i] == sym else 0
        else:
            result = 0
            for mid in range(i + 1, j + 1):
                left = count_nt(sym, i, mid)
                if left:
                    result += left * count_seq(bid, pos + 1, mid, j)
        seq_cache[key] = result
        return result

    return sum(count_nt(r.body[0], 0, n) for r in by_head.get(None, ()))

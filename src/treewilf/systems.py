"""Polynomial fixed-point systems whose solutions are avoidance / occurrence series.

Three constructions are provided:

* cs_system        -- the Chomsky-Schutzenberger system read off an
                      unambiguous avoidance grammar, one unknown per
                      nonterminal, weights attached to terminals.
* stamp_system     -- the CS system of the grammar truncated one level lower,
                      at height d-1, with only free ends weighted: unknowns
                      indexed by avoiding trees of height below the maximal
                      pattern height, and the sum of the unknowns is the
                      generating function of avoiders graded by leaf count.
* enumeration_system -- bivariate system for the occurrence-counting series
                      of a single binary pattern, with a mark variable per
                      occurrence.

enumeration_system's unknowns are the states of a bottom-up automaton that
tracks, per tree, which rooted subtrees of the pattern embed at its root;
that set is the exact information needed to propagate occurrence marks, and
its reachable-state count stays small for every pattern, which is what
makes whole-sweep classification practical.  The tests pin its series to
brute-force occurrence counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

from .trees import Alphabet, PatternSet, Tree, emit_polish, subtrees

if TYPE_CHECKING:
    from .grammar import Grammar


class ImproperSystemError(ValueError):
    """The system admits no unique zero-constant-term power series solution."""


class SystemSizeError(RuntimeError):
    """State-space budget exceeded."""


@dataclass(frozen=True)
class Monomial:
    """coeff * prod(weight_var^e) * prod(unknowns); factor order is preserved."""

    coeff: int
    wexp: tuple[int, ...]
    factors: tuple[int, ...]


@dataclass(frozen=True)
class AlgebraicSystem:
    """Fixed-point system: one polynomial right-hand side per unknown, plus a
    set of unknowns whose sum is the output series.  The target holds
    distinct unknown indices, so the solver's majorant (series._majorant),
    which bounds the sum of all unknowns, bounds the target too."""

    weight_vars: tuple[str, ...]
    unknowns: tuple[str, ...]
    equations: tuple[tuple[Monomial, ...], ...]
    target: tuple[int, ...]

    def __post_init__(self):
        if len(self.equations) != len(self.unknowns):
            raise ValueError("one equation per unknown required")
        if len(set(self.target)) != len(self.target):
            raise ValueError(f"target repeats an unknown: {self.target}")
        if any(not 0 <= ui < len(self.unknowns) for ui in self.target):
            raise ValueError(f"target index out of range: {self.target}")

    @cached_property
    def n_unknowns(self) -> int:
        return len(self.unknowns)

    def validate_proper(self) -> None:
        """Every monomial must carry positive primary-weight degree or hold at
        least two unknown factors; either way the degree-n coefficients of the
        solution depend only on lower-degree ones, which pins a unique
        solution with zero constant term."""
        for ui, eq in enumerate(self.equations):
            for m in eq:
                if m.coeff <= 0:
                    raise ImproperSystemError(
                        f"equation {self.unknowns[ui]}: nonpositive coefficient {m.coeff}"
                    )
                if m.wexp[0] < 1 and len(m.factors) < 2:
                    raise ImproperSystemError(
                        f"equation {self.unknowns[ui]}: monomial with weight exponents "
                        f"{m.wexp} and {len(m.factors)} unknown factor(s) breaks properness"
                    )

    def _term_text(self, m: Monomial) -> str:
        parts = []
        if m.coeff != 1 or (not any(m.wexp) and not m.factors):
            parts.append(str(m.coeff))
        for var, e in zip(self.weight_vars, m.wexp):
            if e == 1:
                parts.append(var)
            elif e > 1:
                parts.append(f"{var}^{e}")
        for f in m.factors:
            parts.append(self.unknowns[f])
        return "*".join(parts)

    def canonical_monomials(self, eq: tuple[Monomial, ...]) -> list[Monomial]:
        merged: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for m in eq:
            key = (m.wexp, tuple(sorted(m.factors)))
            merged[key] = merged.get(key, 0) + m.coeff
        return [
            Monomial(c, w, f)
            for (w, f), c in sorted(merged.items())
            if c != 0
        ]

    def to_text(self) -> str:
        """Canonical export: one equation per line, terms merged and sorted."""
        lines = [f"vars: {','.join(self.weight_vars)}"]
        for ui, eq in enumerate(self.equations):
            terms = [self._term_text(m) for m in self.canonical_monomials(eq)]
            rhs = " + ".join(terms) if terms else "0"
            lines.append(f"{self.unknowns[ui]} = {rhs}")
        tparts = [self.unknowns[ui] for ui in self.target]
        lines.append("target = " + (" + ".join(tparts) if tparts else "0"))
        return "\n".join(lines) + "\n"


def _nt_name(v: Tree) -> str:
    return f"H[{emit_polish(v)}]"


def cs_system(grammar: Grammar, weights: dict[str, tuple[int, ...]] | None = None,
              weight_vars: tuple[str, ...] = ("x",)) -> AlgebraicSystem:
    """Chomsky-Schutzenberger enumeration system of an avoidance grammar.

    One unknown per nonterminal; each rule body becomes a monomial whose
    weight exponents accumulate the terminal weights and whose factors are
    the body's nonterminals.  The target sums the unknowns reachable from
    the start symbol.  Default weights count every terminal once (vertex
    weight).  Internal labels may weigh zero; the free end may not.
    """
    if not grammar.is_proper():
        raise ImproperSystemError("grammar has a terminal-free rule body")
    nv = len(weight_vars)
    if weights is None:
        weights = {name: (1,) * nv for name, _ in grammar.alphabet.labels}
    for name, vec in weights.items():
        if len(vec) != nv:
            raise ValueError(f"weight vector for {name!r} has wrong arity {vec}")
        if any(e < 0 for e in vec):
            raise ValueError(f"weight vector for {name!r} must be nonnegative")
    if not any(weights.get(grammar.alphabet.free_end, ())):
        # a weightless free end makes T_x -> x a rule with no weight and no unknown
        raise ValueError(f"the free end {grammar.alphabet.free_end!r} needs a nonzero weight")

    index = {v: i for i, v in enumerate(grammar.nonterminals)}
    equations: list[list[Monomial]] = [[] for _ in grammar.nonterminals]
    target: list[int] = []
    for rule in grammar.rules:
        if rule.head is None:
            target.append(index[rule.body[0]])
            continue
        wexp = [0] * nv
        factors = []
        for sym in rule.body:
            if isinstance(sym, str):
                for vi, e in enumerate(weights[sym]):
                    wexp[vi] += e
            else:
                factors.append(index[sym])
        equations[index[rule.head]].append(Monomial(1, tuple(wexp), tuple(factors)))
    return AlgebraicSystem(
        weight_vars=weight_vars,
        unknowns=tuple(_nt_name(v) for v in grammar.nonterminals),
        equations=tuple(tuple(eq) for eq in equations),
        target=tuple(sorted(target)),
    )


# stamp_system's nonterminal budget: at most this many stamps
MAX_STAMPS = 20000


def stamp_system(alphabet: Alphabet, patterns: PatternSet) -> AlgebraicSystem:
    """Leaf-graded avoidance system with unknowns indexed by stamps: avoiding
    trees of height strictly below the maximal pattern height (height 0 for
    an empty pattern set).  The stamp of a tree is its height-(d-1)
    truncation, which carries exactly enough of the top of the tree to
    decide whether adding a root creates a pattern occurrence.

    This is the Chomsky-Schutzenberger system of the grammar truncated at
    height d-1, with the weight variable z on free ends only, so the target
    series grades avoiders by leaf count (operad arity).  More than
    MAX_STAMPS stamps raise SystemSizeError.
    """
    from .grammar import GrammarSizeError, build_grammar

    try:
        grammar = build_grammar(alphabet, patterns, max_nonterminals=MAX_STAMPS,
                                height=max(patterns.d - 1, 0))
    except GrammarSizeError as exc:
        raise SystemSizeError(str(exc)) from exc
    weights = {name: (int(k == 0),) for name, k in alphabet.labels}
    system = cs_system(grammar, weights, weight_vars=("z",))
    return replace(system, unknowns=tuple(f"Y[{emit_polish(s)}]" for s in grammar.nonterminals))


def _require_binary_pattern(pattern: Tree) -> None:
    labels = {t.label for t in subtrees(pattern)}
    if not labels <= {"m", "x"}:
        raise ValueError("occurrence systems support the binary alphabet {m, x} only")
    if pattern.is_free_end():
        raise ValueError(
            "degenerate pattern: the bare free end occurs at every vertex, "
            "so its occurrence count is just the vertex count"
        )


def _collect_subtrees(t: Tree, kids: dict[str, tuple[str, str] | None]) -> str:
    """Record every subtree of t by Polish word: in kids, the words of its two
    children (None for the free end).  Returns the word of t."""
    if t.is_free_end():
        word, pair = t.label, None
    else:
        pair = (_collect_subtrees(t.children[0], kids),
                _collect_subtrees(t.children[1], kids))
        word = t.label + pair[0] + pair[1]
    kids[word] = pair
    return word


class OccurrenceAutomaton:
    """Deterministic bottom-up automaton tracking which rooted subtrees of a
    binary pattern embed at the root of a tree.

    States are sets of pattern subtrees (bitmasks over the distinct subtrees
    of the pattern).  Joining two trees under a new root maps state pairs to
    a state, and creates a root occurrence exactly when the pattern's two
    immediate subtrees are present on the respective sides.

    The distinct subtrees are collected by Polish word and numbered in word
    order; on {m, x} the order of the strings is the order of the label
    sequences.  So a state's list of subtree indices orders the states as
    their sorted subtree words do, and names them from words computed once.
    A join depends on a state only through its left or right projection
    (the bits it can contribute on that side), and reachable() joins each
    pair of projections once, recording the result in a transition table
    that the system builder reads.
    """

    def __init__(self, pattern: Tree):
        _require_binary_pattern(pattern)
        kids: dict[str, tuple[str, str] | None] = {}
        top = _collect_subtrees(pattern, kids)
        self.words: list[str] = sorted(kids)
        idx = {w: i for i, w in enumerate(self.words)}
        self._internal = [(idx[w], idx[pair[0]], idx[pair[1]]) for w, pair in kids.items() if pair]
        self.x_bit = 1 << idx["x"]
        self.p_left_bit = 1 << idx[kids[top][0]]
        self.p_right_bit = 1 << idx[kids[top][1]]
        self.left_mask = 0
        self.right_mask = 0
        for _, li, ri in self._internal:
            self.left_mask |= 1 << li
            self.right_mask |= 1 << ri

    def join(self, left_proj: int, right_proj: int) -> int:
        out = self.x_bit
        for si, li, ri in self._internal:
            if (left_proj >> li) & 1 and (right_proj >> ri) & 1:
                out |= 1 << si
        return out

    def root_occurrence(self, left_proj: int, right_proj: int) -> bool:
        return bool(left_proj & self.p_left_bit) and bool(right_proj & self.p_right_bit)

    def reachable(self, marked: bool) -> tuple[list[int], dict[tuple[int, int], int]]:
        """All states reachable from the free-end state, in word order, and
        the transition table {(left projection, right projection): state}
        over every pair of their projections; with marked=False, joins that
        create a root occurrence are excluded (avoidance mode) and have no
        entry.  Each round joins only the pairs with a projection new in it."""
        states = {self.x_bit}
        lefts: set[int] = set()
        rights: set[int] = set()
        table: dict[tuple[int, int], int] = {}
        fresh = states
        while fresh:
            new_lefts = {a & self.left_mask for a in fresh} - lefts
            new_rights = {b & self.right_mask for b in fresh} - rights
            lefts |= new_lefts
            rights |= new_rights
            fresh = set()
            for lp in lefts:
                for rp in rights if lp in new_lefts else new_rights:
                    if not marked and self.root_occurrence(lp, rp):
                        continue
                    t = table[lp, rp] = self.join(lp, rp)
                    if t not in states:
                        fresh.add(t)
            states |= fresh
        return sorted(states, key=self._indices), table

    def _indices(self, mask: int) -> list[int]:
        return [i for i in range(len(self.words)) if (mask >> i) & 1]

    def state_name(self, mask: int) -> str:
        return "C[" + "|".join(self.words[i] for i in self._indices(mask)) + "]"


def enumeration_system(pattern: Tree, *, reduced: bool = True, marked: bool = True,
                       leaf_weights: bool = False) -> AlgebraicSystem:
    """System whose target series counts binary trees by vertex number and by
    number of occurrences of the pattern (mark variable y).

    Setting y = 0 — equivalently marked=False, which drops the marked bodies
    and the states they feed — yields the avoidance system.  leaf_weights
    switches the primary variable to count free ends instead of vertices
    (a tree with n vertices has (n+1)/2 free ends, so this is a pure
    reindexing for binary trees; it halves the truncation order the solver
    needs).

    The unknowns are the occurrence-automaton states; this is the only
    construction.  The keyword reduced remains so that callers passing
    reduced=True keep working; reduced=False raises ValueError.
    """
    if not reduced:
        raise ValueError("only the reduced occurrence construction exists; drop reduced=False")
    auto = OccurrenceAutomaton(pattern)
    states, table = auto.reachable(marked)
    index = {s: i for i, s in enumerate(states)}
    weight_vars = (("z",) if leaf_weights else ("x",)) + (("y",) if marked else ())
    nv = len(weight_vars)
    base_wexp = (1,) + (0,) * (nv - 1)
    join_wexp = ((0,) if leaf_weights else (1,)) + (0,) * (nv - 1)
    join_wexp_marked = ((0, 1) if leaf_weights else (1, 1)) if marked else None
    # each transition as (target unknown, weight exponents)
    cells = {
        pair: (index[t], join_wexp_marked if auto.root_occurrence(*pair) else join_wexp)
        for pair, t in table.items()
    }
    right_projs = [b & auto.right_mask for b in states]

    equations: list[list[Monomial]] = [[] for _ in states]
    equations[index[auto.x_bit]].append(Monomial(1, base_wexp, ()))
    for i, a in enumerate(states):
        lp = a & auto.left_mask
        for j, rp in enumerate(right_projs):
            cell = cells.get((lp, rp))
            if cell is not None:
                equations[cell[0]].append(Monomial(1, cell[1], (i, j)))
    return AlgebraicSystem(
        weight_vars=weight_vars,
        unknowns=tuple(auto.state_name(s) for s in states),
        equations=tuple(tuple(eq) for eq in equations),
        target=tuple(range(len(states))),
    )


def occurrence_state_count(pattern: Tree) -> int:
    """Number of unknowns the marked occurrence system uses for this pattern."""
    states, _ = OccurrenceAutomaton(pattern).reachable(marked=True)
    return len(states)

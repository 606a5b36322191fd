"""Polynomial fixed-point systems whose solutions are avoidance / occurrence series.

Three constructions are provided:

* cs_system        -- the Chomsky-Schutzenberger system read off an
                      unambiguous avoidance grammar, one unknown per
                      nonterminal, weights attached to terminals.
* stamp_system     -- unknowns indexed by avoiding trees of height below the
                      maximal pattern height; the sum of the unknowns is the
                      generating function of avoiders graded by leaf count.
* enumeration_system -- bivariate system for the occurrence-counting series
                      of a single binary pattern, with a mark variable per
                      occurrence.

For enumeration_system two state spaces are supported.  The truncation form
(reduced=False) indexes unknowns by all binary trees of bounded height; it
is the transparent construction but its state count explodes with pattern
height.  The reduced form tracks, per tree, which rooted subtrees of the
pattern embed at its root; that set is the exact information needed to
propagate occurrence marks, and its reachable-state count stays small for
every pattern, which is what makes whole-sweep classification practical.
Both forms solve to the same series and are cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .grammar import Grammar, GrammarSizeError, build_Ld
from .trees import (
    Alphabet,
    PatternSet,
    Tree,
    emit_polish,
    height,
    is_rooted_subtree,
    occurs_at_root,
    subtrees,
    truncate,
    word_key,
)


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
    designated linear combination of unknowns as the output series."""

    weight_vars: tuple[str, ...]
    unknowns: tuple[str, ...]
    equations: tuple[tuple[Monomial, ...], ...]
    target: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.equations) != len(self.unknowns):
            raise ValueError("one equation per unknown required")

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
        tparts = []
        for c, ui in self.target:
            tparts.append(self.unknowns[ui] if c == 1 else f"{c}*{self.unknowns[ui]}")
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
    weight).
    """
    if not grammar.is_proper():
        raise ImproperSystemError("grammar has a terminal-free rule body")
    nv = len(weight_vars)
    if weights is None:
        weights = {name: (1,) * nv for name, _ in grammar.alphabet.labels}
    for name, vec in weights.items():
        if len(vec) != nv:
            raise ValueError(f"weight vector for {name!r} has wrong arity {vec}")
        if any(e < 0 for e in vec) or not any(vec):
            raise ValueError(f"weight vector for {name!r} must be nonzero and nonnegative")

    index = {v: i for i, v in enumerate(grammar.nonterminals)}
    equations: list[list[Monomial]] = [[] for _ in grammar.nonterminals]
    target: list[tuple[int, int]] = []
    for rule in grammar.rules:
        if rule.head is None:
            target.append((1, index[rule.body[0]]))
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
        target=tuple(sorted(target, key=lambda t: t[1])),
    )


def stamp_system(alphabet: Alphabet, patterns: PatternSet,
                 max_stamps: int | None = 20000) -> AlgebraicSystem:
    """Leaf-graded avoidance system with unknowns indexed by stamps: avoiding
    trees of height strictly below the maximal pattern height (height 0 for
    an empty pattern set).  The stamp of a tree is its height-(d-1)
    truncation, which carries exactly enough of the top of the tree to
    decide whether adding a root creates a pattern occurrence.

    The weight variable z marks free ends, so the target series grades
    avoiders by leaf count (operad arity).
    """
    level = max(patterns.d - 1, 0)
    try:
        stamps = build_Ld(alphabet, patterns, max_size=max_stamps, height=level)
    except GrammarSizeError as exc:
        raise SystemSizeError(str(exc)) from exc
    index = {s: i for i, s in enumerate(stamps)}
    equations: list[list[Monomial]] = [[] for _ in stamps]
    plist = patterns.patterns
    x = Tree(alphabet.free_end)
    if x in index:
        equations[index[x]].append(Monomial(1, (1,), ()))
    for label, k in alphabet.internal_labels:
        for kids in product(stamps, repeat=k):
            w = Tree(label, kids)
            if occurs_at_root(w, plist):
                continue
            cls = truncate(w, level)
            equations[index[cls]].append(
                Monomial(1, (0,), tuple(index[c] for c in kids))
            )
    return AlgebraicSystem(
        weight_vars=("z",),
        unknowns=tuple(f"Y[{emit_polish(s)}]" for s in stamps),
        equations=tuple(tuple(eq) for eq in equations),
        target=tuple((1, i) for i in range(len(stamps))),
    )


def _require_binary_pattern(pattern: Tree) -> None:
    labels = {t.label for t in subtrees(pattern)}
    if not labels <= {"m", "x"}:
        raise ValueError("occurrence systems support the binary alphabet {m, x} only")
    if pattern.is_free_end():
        raise ValueError(
            "degenerate pattern: the bare free end occurs at every vertex, "
            "so its occurrence count is just the vertex count"
        )


class OccurrenceAutomaton:
    """Deterministic bottom-up automaton tracking which rooted subtrees of a
    binary pattern embed at the root of a tree.

    States are sets of pattern subtrees (bitmasks over the distinct subtrees
    of the pattern).  Joining two trees under a new root maps state pairs to
    a state, and creates a root occurrence exactly when the pattern's two
    immediate subtrees are present on the respective sides.
    """

    def __init__(self, pattern: Tree):
        _require_binary_pattern(pattern)
        alphabet = Alphabet.binary()
        self.pattern = pattern
        self.subs: list[Tree] = sorted(set(subtrees(pattern)),
                                       key=lambda t: word_key(t, alphabet))
        idx = {s: i for i, s in enumerate(self.subs)}
        self._internal = [
            (idx[s], idx[s.children[0]], idx[s.children[1]])
            for s in self.subs
            if not s.is_free_end()
        ]
        self.x_bit = 1 << idx[Tree("x")]
        self.p_left_bit = 1 << idx[pattern.children[0]]
        self.p_right_bit = 1 << idx[pattern.children[1]]
        self.left_mask = 0
        self.right_mask = 0
        for _, li, ri in self._internal:
            self.left_mask |= 1 << li
            self.right_mask |= 1 << ri

    def start(self) -> int:
        return self.x_bit

    def join(self, left_proj: int, right_proj: int) -> int:
        out = self.x_bit
        for si, li, ri in self._internal:
            if (left_proj >> li) & 1 and (right_proj >> ri) & 1:
                out |= 1 << si
        return out

    def root_occurrence(self, left_proj: int, right_proj: int) -> bool:
        return bool(left_proj & self.p_left_bit) and bool(right_proj & self.p_right_bit)

    def state_of(self, tree: Tree) -> int:
        if tree.is_free_end():
            return self.start()
        a = self.state_of(tree.children[0]) & self.left_mask
        b = self.state_of(tree.children[1]) & self.right_mask
        return self.join(a, b)

    def reachable_states(self, marked: bool) -> list[int]:
        """All states reachable from the free-end state; with marked=False,
        joins that create a root occurrence are excluded (avoidance mode)."""
        states = {self.start()}
        while True:
            lefts = {a & self.left_mask for a in states}
            rights = {b & self.right_mask for b in states}
            fresh = set()
            for lp in lefts:
                for rp in rights:
                    if not marked and self.root_occurrence(lp, rp):
                        continue
                    t = self.join(lp, rp)
                    if t not in states:
                        fresh.add(t)
            if not fresh:
                return self._sorted(states)
            states |= fresh

    def _sorted(self, states: set[int]) -> list[int]:
        alphabet = Alphabet.binary()

        def key(mask: int):
            return tuple(sorted(
                word_key(self.subs[i], alphabet)
                for i in range(len(self.subs))
                if (mask >> i) & 1
            ))

        return sorted(states, key=key)

    def state_name(self, mask: int) -> str:
        words = sorted(
            emit_polish(self.subs[i])
            for i in range(len(self.subs))
            if (mask >> i) & 1
        )
        return "C[" + "|".join(words) + "]"


def _reduced_occurrence_system(pattern: Tree, marked: bool, leaf_weights: bool) -> AlgebraicSystem:
    auto = OccurrenceAutomaton(pattern)
    states = auto.reachable_states(marked)
    index = {s: i for i, s in enumerate(states)}
    weight_vars = (("z",) if leaf_weights else ("x",)) + (("y",) if marked else ())
    nv = len(weight_vars)
    base_wexp = (1,) + (0,) * (nv - 1)
    join_wexp = ((0,) if leaf_weights else (1,)) + (0,) * (nv - 1)
    join_wexp_marked = None
    if marked:
        join_wexp_marked = ((0, 1) if leaf_weights else (1, 1))

    equations: list[list[Monomial]] = [[] for _ in states]
    equations[index[auto.start()]].append(Monomial(1, base_wexp, ()))
    for i, a in enumerate(states):
        lp = a & auto.left_mask
        for j, b in enumerate(states):
            rp = b & auto.right_mask
            occ = auto.root_occurrence(lp, rp)
            if occ and not marked:
                continue
            t = index[auto.join(lp, rp)]
            wexp = join_wexp_marked if occ else join_wexp
            equations[t].append(Monomial(1, wexp, (i, j)))
    return AlgebraicSystem(
        weight_vars=weight_vars,
        unknowns=tuple(auto.state_name(s) for s in states),
        equations=tuple(tuple(eq) for eq in equations),
        target=tuple((1, i) for i in range(len(states))),
    )


def _all_trees_up_to_height(h: int, max_states: int) -> list[Tree]:
    x = Tree("x")
    layer: list[Tree] = [x]
    for _ in range(h):
        nxt = [x]
        for kids in product(layer, repeat=2):
            nxt.append(Tree("m", kids))
        if len(nxt) > max_states:
            raise SystemSizeError(
                f"height-{h} truncation states exceed {max_states}; "
                "use the reduced construction for tall patterns"
            )
        layer = nxt
    return sorted(layer, key=lambda t: word_key(t, Alphabet.binary()))


def _truncation_occurrence_system(pattern: Tree, marked: bool, leaf_weights: bool,
                                  max_states: int) -> AlgebraicSystem:
    _require_binary_pattern(pattern)
    d = height(pattern)
    states = _all_trees_up_to_height(d - 1, max_states)
    index = {s: i for i, s in enumerate(states)}
    weight_vars = (("z",) if leaf_weights else ("x",)) + (("y",) if marked else ())
    nv = len(weight_vars)
    base_wexp = (1,) + (0,) * (nv - 1)
    join_plain = ((0,) if leaf_weights else (1,)) + (0,) * (nv - 1)
    join_marked = ((0, 1) if leaf_weights else (1, 1)) if marked else None

    equations: list[list[Monomial]] = [[] for _ in states]
    equations[index[Tree("x")]].append(Monomial(1, base_wexp, ()))
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            w = Tree("m", (a, b))
            occ = is_rooted_subtree(pattern, w)
            if occ and not marked:
                continue
            t = index[truncate(w, d - 1)]
            equations[t].append(Monomial(1, join_marked if occ else join_plain, (i, j)))
    return AlgebraicSystem(
        weight_vars=weight_vars,
        unknowns=tuple(f"F[{emit_polish(s)}]" for s in states),
        equations=tuple(tuple(eq) for eq in equations),
        target=tuple((1, i) for i in range(len(states))),
    )


def enumeration_system(pattern: Tree, *, reduced: bool = True, marked: bool = True,
                       leaf_weights: bool = False, max_states: int = 2000) -> AlgebraicSystem:
    """System whose target series counts binary trees by vertex number and by
    number of occurrences of the pattern (mark variable y).

    Setting y = 0 — equivalently marked=False, which drops the marked bodies
    and the states they feed — yields the avoidance system.  leaf_weights
    switches the primary variable to count free ends instead of vertices
    (a tree with n vertices has (n+1)/2 free ends, so this is a pure
    reindexing for binary trees; it halves the truncation order the solver
    needs).  reduced=False selects the bounded-height truncation state space
    instead of the pattern-subtree automaton.
    """
    if reduced:
        return _reduced_occurrence_system(pattern, marked, leaf_weights)
    return _truncation_occurrence_system(pattern, marked, leaf_weights, max_states)


def occurrence_state_count(pattern: Tree, marked: bool = True) -> int:
    """Number of unknowns the reduced construction uses for this pattern."""
    auto = OccurrenceAutomaton(pattern)
    return len(auto.reachable_states(marked))

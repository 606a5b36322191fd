"""Labelled planar rooted trees with a distinguished free-end leaf label.

Trees are encoded as Polish-notation words (preorder label sequences).
Every value here is immutable and hashable, so trees can be shared freely
across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Sequence


class ParseError(ValueError):
    """Malformed Polish word; carries the 0-based failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Alphabet:
    """Label set partitioned by arity, with exactly one arity-0 label (the free end)."""

    labels: tuple[tuple[str, int], ...]
    free_end: str

    def __post_init__(self):
        names = [name for name, _ in self.labels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate label names in {names}")
        zero = [name for name, k in self.labels if k == 0]
        if zero != [self.free_end]:
            raise ValueError(
                f"expected exactly one arity-0 label equal to free end {self.free_end!r}, got {zero}"
            )
        for name, k in self.labels:
            if k < 0:
                raise ValueError(f"negative arity for {name!r}")

    @classmethod
    def binary(cls) -> "Alphabet":
        """The one-operation binary alphabet: m (arity 2) and free end x."""
        return cls(labels=(("m", 2), ("x", 0)), free_end="x")

    @classmethod
    def from_config(cls, text: str) -> "Alphabet":
        """Parse a declarative alphabet config like ``"m:2,x:0"``.

        The unique arity-0 label is taken as the free end.
        """
        labels = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, arity = part.partition(":")
            if not arity.strip().isdigit():
                raise ValueError(f"bad alphabet entry {part!r}, expected name:arity")
            labels.append((name.strip(), int(arity)))
        zero = [name for name, k in labels if k == 0]
        if len(zero) != 1:
            raise ValueError(f"alphabet needs exactly one arity-0 label, got {zero}")
        return cls(labels=tuple(labels), free_end=zero[0])

    @cached_property
    def arities(self) -> dict[str, int]:
        return dict(self.labels)

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {name: i for i, (name, _) in enumerate(self.labels)}

    @cached_property
    def internal_labels(self) -> tuple[tuple[str, int], ...]:
        return tuple((name, k) for name, k in self.labels if k >= 1)

    def arity(self, name: str) -> int:
        return self.arities[name]

    def tokenize(self, word: str) -> list[str]:
        """Split a word into label tokens, greedy longest match first."""
        by_len = sorted((name for name, _ in self.labels), key=len, reverse=True)
        out = []
        i = 0
        while i < len(word):
            for name in by_len:
                if word.startswith(name, i):
                    out.append(name)
                    i += len(name)
                    break
            else:
                raise ParseError(f"unknown symbol {word[i]!r}", i)
        return out


@dataclass(frozen=True)
class Tree:
    """Planar rooted labelled tree; children count must equal the root label's arity."""

    label: str
    children: tuple["Tree", ...] = ()

    def is_free_end(self) -> bool:
        return not self.children


def parse_polish(word: str | Sequence[str], alphabet: Alphabet) -> Tree:
    """Parse a Polish-notation word into the unique tree with that preorder label sequence."""
    tokens = alphabet.tokenize(word) if isinstance(word, str) else list(word)
    pos = 0

    def build() -> Tree:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("word ended before all arities were satisfied", pos)
        label = tokens[pos]
        if label not in alphabet.arities:
            raise ParseError(f"unknown symbol {label!r}", pos)
        pos += 1
        k = alphabet.arities[label]
        return Tree(label, tuple(build() for _ in range(k)))

    tree = build()
    if pos != len(tokens):
        raise ParseError("trailing symbols after a complete tree", pos)
    return tree


def emit_polish(tree: Tree) -> str:
    """Preorder label sequence; inverse of parse_polish."""
    parts: list[str] = []

    def walk(t: Tree) -> None:
        parts.append(t.label)
        for c in t.children:
            walk(c)

    walk(tree)
    return "".join(parts)


def word_key(tree: Tree, alphabet: Alphabet) -> tuple[int, ...]:
    """Preorder label indices; the canonical sort key for trees (lexicographic on Polish words)."""
    idx = alphabet.label_index
    out: list[int] = []

    def walk(t: Tree) -> None:
        out.append(idx[t.label])
        for c in t.children:
            walk(c)

    walk(tree)
    return tuple(out)


def vertex_count(tree: Tree) -> int:
    return 1 + sum(vertex_count(c) for c in tree.children)


def free_end_count(tree: Tree) -> int:
    if tree.is_free_end():
        return 1
    return sum(free_end_count(c) for c in tree.children)


def height(tree: Tree) -> int:
    """Maximal number of internal nodes on a single root-to-leaf branch."""
    if tree.is_free_end():
        return 0
    return 1 + max(height(c) for c in tree.children)


def graft(host: Tree, leaf_index: int, scion: Tree) -> Tree:
    """Replace the leaf_index-th free end of host (numbered left to right) with scion."""
    n = free_end_count(host)
    if not 0 <= leaf_index < n:
        raise ValueError(f"leaf index {leaf_index} out of range, host has {n} free ends")

    def rebuild(t: Tree, skip: int) -> tuple[Tree, int]:
        if t.is_free_end():
            if skip == 0:
                return scion, -1
            return t, skip - 1
        kids = []
        for c in t.children:
            if skip >= 0:
                c, skip = rebuild(c, skip)
            kids.append(c)
        return Tree(t.label, tuple(kids)), skip

    out, _ = rebuild(host, leaf_index)
    return out


def is_rooted_subtree(t: Tree, v: Tree) -> bool:
    """True iff v can be obtained from t by grafting trees onto t's free ends."""
    if t.is_free_end():
        return True
    if v.is_free_end() or t.label != v.label:
        return False
    return all(is_rooted_subtree(tc, vc) for tc, vc in zip(t.children, v.children))


def occurs_at_root(tree: Tree, patterns: Sequence[Tree]) -> bool:
    return any(is_rooted_subtree(p, tree) for p in patterns)


def count_occurrences(tree: Tree, pattern: Tree) -> int:
    """Number of vertices u of tree (root included) whose rooted subtree contains pattern."""
    total = 1 if is_rooted_subtree(pattern, tree) else 0
    return total + sum(count_occurrences(c, pattern) for c in tree.children)


def avoids(tree: Tree, patterns: Sequence[Tree]) -> bool:
    if occurs_at_root(tree, patterns):
        return False
    return all(avoids(c, patterns) for c in tree.children)


def mirror(tree: Tree) -> Tree:
    """Reverse child order at every internal node; an involution."""
    return Tree(tree.label, tuple(mirror(c) for c in reversed(tree.children)))


def truncate(tree: Tree, h: int) -> Tree:
    """Keep internal nodes whose root path holds at most h internal nodes; deeper subtrees become free ends.

    The free-end label is taken from the tree itself (leaves are free ends by construction).
    """
    if h <= 0 or tree.is_free_end():
        return tree if tree.is_free_end() else Tree(_free_end_label(tree), ())
    return Tree(tree.label, tuple(truncate(c, h - 1) for c in tree.children))


def _free_end_label(tree: Tree) -> str:
    t = tree
    while not t.is_free_end():
        t = t.children[0]
    return t.label


def subtrees(tree: Tree) -> Iterator[Tree]:
    """All rooted subtrees at vertices of tree, in preorder (with repetition)."""
    yield tree
    for c in tree.children:
        yield from subtrees(c)


@lru_cache(maxsize=None)
def _binary_trees(n_leaves: int) -> tuple[Tree, ...]:
    if n_leaves == 1:
        return (Tree("x"),)
    out = []
    for left_leaves in range(1, n_leaves):
        for a in _binary_trees(left_leaves):
            for b in _binary_trees(n_leaves - left_leaves):
                out.append(Tree("m", (a, b)))
    return tuple(out)


def enumerate_binary_patterns(n_leaves: int) -> list[Tree]:
    """All planar binary trees with n_leaves leaves over {m, x}, sorted by Polish word."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    alphabet = Alphabet.binary()
    return sorted(_binary_trees(n_leaves), key=lambda t: word_key(t, alphabet))


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class PatternSet:
    """A finite set of forbidden patterns over a shared alphabet.

    A pattern equal to the bare free end makes the avoidance language empty;
    it is accepted only when allow_degenerate is set, and downstream code
    treats the resulting language as empty rather than failing.
    """

    alphabet: Alphabet
    patterns: tuple[Tree, ...]
    allow_degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        for p in self.patterns:
            if p.is_free_end() and not self.allow_degenerate:
                raise ValueError(
                    "bare free end as a pattern makes every tree a match; "
                    "pass allow_degenerate=True to accept the empty language"
                )

    @classmethod
    def from_words(cls, words: Sequence[str], alphabet: Alphabet | None = None,
                   allow_degenerate: bool = False) -> "PatternSet":
        alphabet = alphabet or Alphabet.binary()
        trees = tuple(parse_polish(w, alphabet) for w in words)
        return cls(alphabet, trees, allow_degenerate)

    @cached_property
    def d(self) -> int:
        """Maximal pattern height (0 for the empty set)."""
        return max((height(p) for p in self.patterns), default=0)

    @cached_property
    def degenerate(self) -> bool:
        return any(p.is_free_end() for p in self.patterns)

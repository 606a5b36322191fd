"""Labelled planar rooted trees with a distinguished free-end leaf label.

Trees are encoded as Polish-notation words (preorder label sequences).
Every value here is immutable and hashable, so trees can be shared freely
across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
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
    arities = alphabet.arities
    open_nodes: list[tuple[str, int, list[Tree]]] = []  # label, arity, children so far
    for pos, label in enumerate(tokens):
        if label not in arities:
            raise ParseError(f"unknown symbol {label!r}", pos)
        if arities[label]:
            open_nodes.append((label, arities[label], []))
            continue
        # a free end completes its parent, which may complete its own, and so on
        node = Tree(label)
        while open_nodes:
            parent, k, kids = open_nodes[-1]
            kids.append(node)
            if len(kids) < k:
                break
            open_nodes.pop()
            node = Tree(parent, tuple(kids))
        if not open_nodes:
            if pos + 1 < len(tokens):
                raise ParseError("trailing symbols after a complete tree", pos + 1)
            return node
    raise ParseError("word ended before all arities were satisfied", len(tokens))


def subtrees(tree: Tree) -> list[Tree]:
    """All rooted subtrees at vertices of tree, in preorder (with repetition).

    The tree layer's one walk.  It keeps an explicit stack, so no depth
    limit applies: each subtree taken off the stack is followed down its
    leftmost branch while the other children wait on the stack."""
    out: list[Tree] = []
    stack = [tree]
    while stack:
        t = stack.pop()
        out.append(t)
        while t.children:
            stack += t.children[:0:-1]
            t = t.children[0]
            out.append(t)
    return out


def emit_polish(tree: Tree) -> str:
    """Preorder label sequence; inverse of parse_polish."""
    return "".join([t.label for t in subtrees(tree)])


def word_key(tree: Tree, alphabet: Alphabet) -> tuple[int, ...]:
    """Preorder label indices; the canonical sort key for trees (lexicographic on Polish words)."""
    idx = alphabet.label_index
    return tuple([idx[t.label] for t in subtrees(tree)])


def vertex_count(tree: Tree) -> int:
    return len(subtrees(tree))


def free_end_count(tree: Tree) -> int:
    return sum(1 for t in subtrees(tree) if t.is_free_end())


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
    path: list[tuple[Tree, int]] = []  # each node above that free end, with the child taken
    t = host
    while t.children:
        for i, c in enumerate(t.children):
            ends = free_end_count(c)
            if leaf_index < ends:
                break
            leaf_index -= ends
        path.append((t, i))
        t = c
    for t, i in reversed(path):
        scion = Tree(t.label, t.children[:i] + (scion,) + t.children[i + 1:])
    return scion


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
    return sum(1 for t in subtrees(tree) if is_rooted_subtree(pattern, t))


def avoids(tree: Tree, patterns: Sequence[Tree]) -> bool:
    return not any(occurs_at_root(t, patterns) for t in subtrees(tree))


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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# (alphabet, leaf_size) -> the layers built so far, indexed by size
_LAYERS: dict[tuple[Alphabet, int], list[tuple[Tree, ...]]] = {}


def trees_of_size(alphabet: Alphabet, size: int, leaf_size: int = 0) -> tuple[Tree, ...]:
    """Every tree of the given size over alphabet, sorted by Polish word.

    A tree's size is its number of internal nodes, plus its number of free
    ends when leaf_size is 1 (then it is the vertex count, the length of
    the Polish word).  Layers are built bottom-up once and cached."""
    if size < 0 or leaf_size not in (0, 1):
        raise ValueError(f"need size >= 0 and leaf_size 0 or 1, got {size}, {leaf_size}")
    layers = _LAYERS.setdefault((alphabet, leaf_size), [])
    while len(layers) <= size:
        s = len(layers)
        out = [Tree(alphabet.free_end)] if s == leaf_size else []
        if s:  # a root of size 1 over children whose sizes sum to s - 1
            for label, k in alphabet.internal_labels:
                for comp in _compositions(s - 1, k):
                    out += (Tree(label, kids) for kids in product(*(layers[c] for c in comp)))
        layers.append(tuple(sorted(out, key=lambda t: word_key(t, alphabet))))
    return layers[size]


def enumerate_binary_patterns(n_leaves: int) -> list[Tree]:
    """All planar binary trees with n_leaves leaves over {m, x}, sorted by Polish word."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    return list(trees_of_size(Alphabet.binary(), n_leaves - 1))


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

"""Edge-labeled ordered tries over byte alphabets.

A trie here is a rooted tree whose edges carry byte labels, with the labels
of the edges leaving one node pairwise distinct and siblings ordered by
label.  Nodes are identified by dense integer ids 0..n-1 assigned in
pre-order, so the root is always node 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Alphabet:
    """Effective alphabet of a trie: the edge labels plus a sentinel.

    ``symbols`` are the byte values labeling at least one edge, ascending.
    ``sentinel`` is the smallest byte value not labeling any edge; in the
    symbol order used throughout, the sentinel precedes every symbol.
    """

    symbols: tuple[int, ...]
    sentinel: int

    def __post_init__(self):
        if any(not 0 <= s <= 255 for s in self.symbols):
            raise ValueError("symbols must be byte values")
        if list(self.symbols) != sorted(set(self.symbols)):
            raise ValueError("symbols must be strictly increasing")
        if self.sentinel in self.symbols:
            raise ValueError("sentinel must not be a symbol")

    @classmethod
    def from_symbols(cls, symbols: Iterable[int]) -> "Alphabet":
        syms = tuple(sorted(set(symbols)))
        used = set(syms)
        sentinel = next((b for b in range(256) if b not in used), None)
        if sentinel is None:
            raise ValueError("no sentinel available")
        return cls(syms, sentinel)

    @property
    def sigma(self) -> int:
        """Number of symbols, sentinel excluded."""
        return len(self.symbols)

    def full(self) -> tuple[int, ...]:
        """All characters in order: sentinel first, then symbols."""
        return (self.sentinel,) + self.symbols


@dataclass(frozen=True)
class SymbolDistribution:
    """Per-symbol edge counts of an n-node trie; counts sum to n - 1."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if len(self.counts) < 1:
            raise ValueError("at least one symbol count required")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) != self.n - 1:
            raise ValueError("counts must sum to n - 1")

    @property
    def sigma(self) -> int:
        return len(self.counts)


def _preorder(kids, root: int) -> list[int]:
    """Node ids in depth-first pre-order from ``root``, where ``kids[v]``
    holds v's (label, child) pairs in label order."""
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for _, w in reversed(kids[v]):
            stack.append(w)
    return order


_PARENT_RANGE = "node ids must be in pre-order (parent < child)"


def _label_fault(parent: Sequence[int], label: Sequence[int], p: int) -> str:
    """Why node p's out-labels, in child-id order, are not strictly
    increasing: a repeated label, or else an unsorted one."""
    labs = [label[w] for w in range(p + 1, len(parent)) if parent[w] == p]
    if len(set(labs)) != len(labs):
        return "outgoing labels must be distinct"
    return "children must be sorted by label"


def _fault(parent: Sequence[int], label: Sequence[int], v: int,
           msg: str) -> ValueError:
    """The error for the first fault met at node v; a parent out of range
    at a later node is reported first, as it is the more basic fault."""
    for w in range(v + 1, len(parent)):
        if not 0 <= parent[w] < w:
            return ValueError(_PARENT_RANGE)
    return ValueError(msg)


class Trie:
    """Immutable trie; build via :func:`build_from_strings` or classmethods."""

    __slots__ = ("n", "parent", "label", "children", "alphabet", "_paths",
                 "_xbwt")

    def __init__(self, parent: Sequence[int], label: Sequence[int]):
        n = len(parent)
        if n == 0 or len(label) != n:
            raise ValueError("parent and label must be nonempty and equal length")
        if parent[0] != 0:
            raise ValueError("root must be node 0 and its own parent")
        # One forward walk.  ``path`` holds the ancestors of v - 1, root
        # first: the ids are in pre-order exactly when every parent is on
        # it.  A node's labels are distinct and sorted exactly when each
        # exceeds the one before it.  Byte labels allow at most 256
        # children, so growing a node's tuple child by child stays cheap.
        kids: list[tuple[tuple[int, int], ...]] = [()] * n
        path = [0]
        for v, p, c in zip(range(1, n), islice(parent, 1, None),
                           islice(label, 1, None)):
            if not 0 <= p < v:
                raise _fault(parent, label, v, _PARENT_RANGE)
            while path[-1] > p:
                path.pop()
            if path[-1] != p:
                raise _fault(parent, label, v, "node ids must be in pre-order")
            sibs = kids[p]
            if sibs and c <= sibs[-1][0]:
                raise _fault(parent, label, v, _label_fault(parent, label, p))
            kids[p] = sibs + ((c, v),)
            path.append(v)
        # after the walk, so a structural fault is reported first
        alphabet = Alphabet.from_symbols(islice(label, 1, None))
        self.n = n
        self.parent = tuple(parent)
        self.label = (alphabet.sentinel, *islice(label, 1, None))
        self.children = tuple(kids)
        self.alphabet = alphabet
        self._paths: tuple[bytes, ...] | None = None
        # XBWT columns, filled in once by index.xbwt_columns
        self._xbwt: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def from_preorder_outsets(cls, outsets: Sequence[Sequence[int]]) -> "Trie":
        """Rebuild a trie from the out-label sets of its pre-order nodes.

        Node i+1 in pre-order attaches to the deepest pending edge on the
        left, i.e. the most recent node that still has unused out-labels.
        """
        n = len(outsets)
        parent = [0] * n
        label = [0] * n
        # stack of (node, sorted out labels, next label index)
        stack: list[list] = []
        for v in range(n):
            if v > 0:
                while stack and stack[-1][2] >= len(stack[-1][1]):
                    stack.pop()
                if not stack:
                    raise ValueError("out-degree sequence leaves node unattached")
                top = stack[-1]
                parent[v] = top[0]
                label[v] = top[1][top[2]]
                top[2] += 1
                if top[2] >= len(top[1]):
                    stack.pop()
            out = sorted(outsets[v])
            if out:
                stack.append([v, out, 0])
        if stack:
            raise ValueError("pending edges left over")
        return cls(parent, label)

    @classmethod
    def from_parent_labels(cls, parent: Sequence[int], label: Sequence[int],
                           root: int) -> "Trie":
        """Build from arbitrary node ids, renumbering into pre-order."""
        n = len(parent)
        if not 0 <= root < n:
            raise ValueError("root id out of range")
        kids: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for v in range(n):
            if v != root:
                p = parent[v]
                if not 0 <= p < n:
                    raise ValueError("parent id out of range")
                kids[p].append((label[v], v))
        for sibs in kids:
            sibs.sort()
        order = _preorder(kids, root)
        if len(order) != n:
            raise ValueError("nodes not all reachable from root")
        newid = [0] * n
        for i, old in enumerate(order):
            newid[old] = i
        rest = order[1:]
        return cls([0, *map(newid.__getitem__, map(parent.__getitem__, rest))],
                   [0, *map(label.__getitem__, rest)])

    def out_labels(self, v: int) -> tuple[int, ...]:
        return tuple(c for c, _ in self.children[v])

    def paths(self) -> tuple[bytes, ...]:
        """Root-to-node label strings; the root's path is empty."""
        if self._paths is None:
            out = [b""] * self.n
            for v in range(1, self.n):
                out[v] = out[self.parent[v]] + bytes([self.label[v]])
            self._paths = tuple(out)
        return self._paths

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trie):
            return NotImplemented
        return self.parent == other.parent and self.label == other.label

    def __hash__(self) -> int:
        return hash((self.parent, self.label))

    def __repr__(self) -> str:
        return f"Trie(n={self.n}, sigma={self.alphabet.sigma})"


def build_from_strings(strings: Iterable[bytes]) -> Trie:
    """Trie of all prefixes of the given byte strings (the empty prefix is the root).

    Pre-order with label-sorted children is the lexicographic order of the
    node paths, so the sorted distinct strings create the nodes in id
    order: each adds the bytes past its longest common prefix with the
    string before it, below the node at that depth on the current path.
    """
    # bytes(iter(s)) also takes bytearrays and lists of byte values, and,
    # like iterating, rejects an int instead of reading it as a length
    words = sorted({s if type(s) is bytes else bytes(iter(s))
                    for s in strings})
    if not words:
        raise ValueError("no strings")
    parent = [0]
    label = [0]
    path = [0]  # path[d]: id of the depth-d node on the previous string
    prev = b""
    for s in words:
        d = 0
        m = min(len(prev), len(s))
        while d < m and prev[d] == s[d]:
            d += 1
        del path[d + 1:]
        v = len(parent)
        new = len(s) - d
        if new:
            parent.append(path[d])
            parent.extend(range(v, v + new - 1))
            label.extend(s[d:])
            path.extend(range(v, v + new))
        prev = s
    return Trie(parent, label)


def preorder(trie: Trie) -> list[int]:
    """Node ids in depth-first pre-order, children visited in label order."""
    return _preorder(trie.children, 0)


def colex_order(trie: Trie) -> list[int]:
    """Node ids sorted by the co-lexicographic order of their incoming paths.

    Paths are compared right to left with the empty string smallest, so the
    root always comes first.
    """
    paths = trie.paths()
    return sorted(range(trie.n), key=lambda v: paths[v][::-1])


def context(trie: Trie, node: int, k: int) -> bytes:
    """Last k symbols of the root-to-node path, sentinel-padded on the left."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return b""
    path = trie.paths()[node]
    if len(path) >= k:
        return path[-k:]
    return bytes([trie.alphabet.sentinel]) * (k - len(path)) + path


def naive_count(trie: Trie, pattern: bytes) -> int:
    """Number of nodes whose incoming path ends with ``pattern``, by full traversal."""
    if trie.alphabet.sentinel in pattern:
        raise ValueError("pattern contains sentinel")
    m = len(pattern)
    if m == 0:
        return trie.n
    paths = trie.paths()
    return sum(1 for v in range(trie.n)
               if len(paths[v]) >= m and paths[v][-m:] == pattern)


def symbol_distribution(trie: Trie) -> SymbolDistribution:
    """Edge counts per alphabet symbol; a single-node trie reports one zero count."""
    if trie.alphabet.sigma == 0:
        return SymbolDistribution(trie.n, (0,))
    index = {c: i for i, c in enumerate(trie.alphabet.symbols)}
    counts = [0] * trie.alphabet.sigma
    for v in range(1, trie.n):
        counts[index[trie.label[v]]] += 1
    return SymbolDistribution(trie.n, tuple(counts))


def strings_from_bytes(data: bytes) -> list[bytes]:
    """Parse the newline-delimited string-set format (LF terminated, no escapes)."""
    if data == b"":
        return []
    parts = data.split(b"\n")
    if data.endswith(b"\n"):
        parts.pop()
    return parts

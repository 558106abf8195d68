"""Edge-labeled ordered tries over byte alphabets.

A trie here is a rooted tree whose edges carry byte labels, with the labels
of the edges leaving one node pairwise distinct and siblings ordered by
label.  Nodes are identified by dense integer ids 0..n-1 assigned in
pre-order, so the root is always node 0.  A trie also keeps its XBWT once
derived (``index.xbwt_columns``): one ``array`` of 4-byte co-lex positions
per symbol, and beside it each column's packed bitmap, which every
bitvector back-end builds from.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice, repeat
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


_BYTES = bytes(range(256))

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

    __slots__ = ("n", "parent", "label", "alphabet", "_children", "_paths",
                 "_xbwt", "_bitmaps")

    def __init__(self, parent: Sequence[int], label: Sequence[int]):
        n = len(parent)
        if n == 0 or len(label) != n:
            raise ValueError("parent and label must be nonempty and equal length")
        if parent[0] != 0:
            raise ValueError("root must be node 0 and its own parent")
        # One forward walk.  ``path`` holds the ancestors of v - 1, root
        # first: the ids are in pre-order exactly when every parent is on
        # it.  The node popped last, just above the parent p, is then p's
        # latest child (0 when p is v - 1 and has none yet), so a node's
        # labels are distinct and sorted exactly when each exceeds the
        # label of that sibling.
        path = [0]
        for v, p, c in zip(range(1, n), islice(parent, 1, None),
                           islice(label, 1, None)):
            if not 0 <= p < v:
                raise _fault(parent, label, v, _PARENT_RANGE)
            sib = 0
            while path[-1] > p:
                sib = path.pop()
            if path[-1] != p:
                raise _fault(parent, label, v, "node ids must be in pre-order")
            if sib and c <= label[sib]:
                raise _fault(parent, label, v, _label_fault(parent, label, p))
            path.append(v)
        # the alphabet is derived after the walk, so a structural fault is
        # reported first
        self._init(parent, label)

    @classmethod
    def _trusted(cls, parent: Sequence[int], label: Sequence[int]) -> "Trie":
        """A trie whose ids are in pre-order with each node's labels
        distinct and ascending by construction, made without the walk of
        ``__init__``.  The alphabet is still derived, so a trie that uses
        all 256 byte values is still refused."""
        self = cls.__new__(cls)
        self._init(parent, label)
        return self

    def _init(self, parent: Sequence[int], label: Sequence[int]) -> None:
        if isinstance(label, (bytes, bytearray)):
            # the byte values that label an edge: the 256 less those absent,
            # two C-level passes where a set would take n - 1 ints
            alphabet = Alphabet.from_symbols(_BYTES.translate(
                None, _BYTES.translate(None, memoryview(label)[1:])))
        else:
            alphabet = Alphabet.from_symbols(islice(label, 1, None))
        self.n = len(parent)
        self.parent = tuple(parent)
        self.label = (alphabet.sentinel, *islice(label, 1, None))
        self.alphabet = alphabet
        # filled in on first use by the children property and by paths
        self._children: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._paths: tuple[bytes, ...] | None = None
        # the XBWT columns, arrays of 4-byte co-lex positions, filled in once
        # by index.xbwt_columns or index.invert; and their packed bitmaps,
        # which every back-end shares, filled in once by index.xbwt_bitmaps
        self._xbwt: tuple[array, ...] | None = None
        self._bitmaps: tuple[bytes, ...] | None = None

    @classmethod
    def from_outsets(cls, outsets: Sequence[Sequence[int]]) -> "Trie":
        """Rebuild a trie from the out-label sets of its pre-order nodes.

        Node i+1 in pre-order attaches to the deepest pending edge on the
        left: the stack's top, pushed with out-labels, popped at its last.
        The walk gives pre-order ids and each node's labels in ascending
        order, so only their distinctness is left to check.
        """
        n = len(outsets)
        parent = [0] * n
        label = [0] * n
        repeated = False
        # stack of (node, sorted out labels, next label index)
        stack: list[list] = []
        for v in range(n):
            if v > 0:
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
                repeated = repeated or len(set(out)) < len(out)
                stack.append([v, out, 0])
        if stack:
            raise ValueError("pending edges left over")
        if not n:
            raise ValueError("parent and label must be nonempty and equal length")
        if repeated:
            raise ValueError("outgoing labels must be distinct")
        return cls._trusted(parent, label)

    @property
    def children(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each node's (label, child) pairs in label order, built on first
        use: the ids are in pre-order, so one pass in id order appends every
        node's children in label order."""
        if self._children is None:
            kids: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for v, p, c in zip(range(1, self.n), islice(self.parent, 1, None),
                               islice(self.label, 1, None)):
                kids[p].append((c, v))
            self._children = tuple(map(tuple, kids))
        return self._children

    def out_labels(self, v: int) -> tuple[int, ...]:
        return tuple(c for c, _ in self.children[v])

    def paths(self) -> tuple[bytes, ...]:
        """Root-to-node label strings; the root's path is empty.

        They hold the sum of all depths in bytes, so only the references
        read them: :func:`naive_count`, the tests and the benchmark's
        round-trip check.
        """
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
    order: each adds the bytes past its longest common prefix d with the
    string before it, below the node at depth d on that string's path.
    The loop does a constant number of Python steps per string:

    - d comes from one XOR of the two strings read as big-endian ints, the
      longer cut to the shorter's length by a shift: the XOR's highest set
      bit falls in the first byte that differs, and it is 0 when the
      shorter string is a prefix of the longer.
    - The node at depth d is found on a stack of runs.  A run is the nodes
      that one string added, kept as its start depth and a base: its node
      at depth j >= start is ``base + j``.  The runs that start deeper
      than d are popped, the top one then holds the node, and the
      string's own run is pushed, so each run is pushed and popped once.
    - Each string appends its new bytes to the labels, and its new nodes
      to the parents: the first below the node p at depth d, the rest
      each below the node before it, one range of ids.  Node p + 1 is p's
      first child in pre-order, so its parent entry already holds an int
      for p, and the first new node takes that object: the parents share
      one int per id.  No int is made only to be dropped later: the small
      objects of an index built next would fill the freed slots, spread
      over twice the memory pages, and ``count`` on it would be slower.
    """
    # bytes(iter(s)) also takes bytearrays and lists of byte values, and,
    # like iterating, rejects an int instead of reading it as a length
    words = sorted({s if type(s) is bytes else bytes(iter(s))
                    for s in strings})
    if not words:
        raise ValueError("no strings")
    if not words[0]:
        del words[0]  # the empty string, first if present, adds no node
    parent = [0]
    label = bytearray(1)  # the root's, which Trie replaces by the sentinel
    # the stack of runs, as start depths and bases: the root's run holds
    # node 0 at depth 0
    starts = [0]
    bases = [0]
    x = lp = 0  # the string before, as an int, and its length
    for s, y in zip(words, map(int.from_bytes, words, repeat("big"))):
        ls = len(s)
        if ls >= lp:
            d = lp - ((((y >> ((ls - lp) << 3)) ^ x).bit_length() + 7) >> 3)
        else:
            d = ls - ((((x >> ((lp - ls) << 3)) ^ y).bit_length() + 7) >> 3)
        while starts[-1] > d:
            starts.pop()
            bases.pop()
        p = bases[-1] + d  # the node at depth d, the new nodes' parent
        v = len(parent)
        # p's first child is node p + 1, unless it is node v
        parent.append(parent[p + 1] if p + 1 < v else p)
        parent.extend(range(v, v + ls - d - 1))
        label += s[d:]
        starts.append(d + 1)
        bases.append(v - d - 1)
        x = y
        lp = ls
    del words  # before Trie copies parent
    # distinct sorted strings give pre-order ids and ascending labels
    return Trie._trusted(parent, label)


# window keys stay below 2^62, so they stay small ints whatever the height
_KEY_LIMIT = 1 << 62


def colex_order(trie: Trie) -> list[int]:
    """Node ids sorted by the co-lexicographic order of their incoming paths.

    Paths are compared right to left with the empty string smallest, so the
    root always comes first.

    A node's first key packs the last t labels of its path into one int,
    the last label most significant, each label as its 1-based symbol
    position in base B = max(2, sigma + 1) and 0 padding past the root; t
    is the largest window with B^t < 2^62.  Each key follows from its
    parent's in id order.  Two nodes can share a key only when both lie at
    depth t or more, so on a trie shallower than t, which the keys' lowest
    digits show, one sort is final.
    Otherwise the ranks are refined by prefix doubling (Manber and Myers):
    the pair (rank of v, rank of its d-th ancestor, 0 if none) ranks v by
    its last 2d labels, and the ancestor pointers are then composed with
    themselves, until every rank is distinct.  Memory stays O(n).
    """
    n = trie.n
    parent = trie.parent
    base = max(2, trie.alphabet.sigma + 1)
    t = 1
    while base ** (t + 1) < _KEY_LIMIT:
        t += 1
    top = base ** (t - 1)
    digit = [0] * 256
    for i, c in enumerate(trie.alphabet.symbols, start=1):
        digit[c] = i * top
    key = [0] * n
    for v, p, c in zip(range(1, n), islice(parent, 1, None),
                       islice(trie.label, 1, None)):
        key[v] = digit[c] + key[p] // base
    order = sorted(range(n), key=key.__getitem__)
    # a key's lowest digit is nonzero only at depth t or more, so a trie
    # with no such node needs no set of its keys, which holds n entries
    if not any(map(base.__rmod__, key)) or len(set(key)) == n:
        return order
    # anc[v]: the t-th ancestor of v, or n (whose rank stays 0) when v is
    # shallower than t; ``path`` holds the ancestors of v, root first
    anc = [n] * (n + 1)
    path = [0]
    for v, p in zip(range(1, n), islice(parent, 1, None)):
        while path[-1] != p:
            path.pop()
        path.append(v)
        if len(path) > t:
            anc[v] = path[-1 - t]
    rank = [0] * (n + 1)
    while True:
        r = 0
        prev = -1
        for v in order:
            if key[v] != prev:
                r += 1
                prev = key[v]
            rank[v] = r
        key = [r * (n + 1) + rank[a] for r, a in zip(rank, anc)]
        order.sort(key=key.__getitem__)
        # key[n], that of the slot past the nodes, is 0 and below the rest
        if len(set(key)) == n + 1:
            return order
        anc = [anc[a] for a in anc]


def context(trie: Trie, node: int, k: int) -> bytes:
    """Last k symbols of the root-to-node path, sentinel-padded on the left.

    Walks up at most k parents.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    tail = bytearray()
    v = node
    while len(tail) < k and v:
        tail.append(trie.label[v])
        v = trie.parent[v]
    tail.extend(bytes([trie.alphabet.sentinel]) * (k - len(tail)))
    return bytes(reversed(tail))


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

"""Count-query index over the XBWT of a trie.

The nodes are sorted by the co-lexicographic order of their incoming paths;
one bitvector per symbol marks which sorted nodes have an outgoing edge with
that symbol, and the C array, a prefix sum of the vector weights, locates
each symbol's block of incoming edges.
The sort and the per-symbol columns are derived once per trie
(:func:`xbwt_columns`) and shared by every back-end and every report.
A pattern is matched by forward search: one rank-pair per symbol maps the
interval of nodes reached by p to the interval reached by p plus one symbol.
The intervals of all patterns of length at most k are precomputed on the
first count, so a query starts its search k symbols in.
"""
from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .succinct import (BitCost, Bitvector, FixedBlockVector, IdVector,
                       PlainBitvector, RrrVector, deserialize_bitvector,
                       serialize_bitvector)
from .trie import Alphabet, Trie, colex_order

# a file stores a mode by position; every vector's kind is its index's mode
MODES = ("plain", "fid", "id", "fixedblock")

MAGIC = b"XBWT"
VERSION = 2

# A file's header can declare any n (a 39-byte ID file holds a path trie of
# 2^40 nodes), so the operations that allocate n-entry lists refuse larger n.
MAX_NODES = 10 ** 8


@dataclass(frozen=True)
class NodeInterval:
    """Inclusive interval of 1-based co-lex node ranks; empty when lo > hi."""

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def __len__(self) -> int:
        return max(0, self.hi - self.lo + 1)


@dataclass(frozen=True)
class RunCounts:
    """Total number of symbol runs and the per-symbol breakdown."""

    total: int
    by_symbol: dict[int, int]


class XbwtIndex:
    """Searchable XBWT: one rank/select bitvector per symbol, plus the C
    array derived from their weights (C[c] = 1 + the weights of the symbols
    before c, with the sentinel's slot first).

    Every vector has length n and the weights sum to n - 1, so forward
    search keeps 0 <= lo - 1 <= hi <= n and may call each vector's
    unchecked ``_rank``.

    ``_head`` maps every pattern of length 0..``_k`` whose interval is
    non-empty to that interval (FM-index engines call it an "ftab").  It is
    None until the first :func:`count` builds it (:func:`_head_table`), and
    it is never stored in a file.
    """

    __slots__ = ("n", "alphabet", "mode", "c_array", "vectors", "_sym",
                 "_k", "_head")

    def __init__(self, n: int, alphabet: Alphabet, mode: str,
                 vectors: tuple[Bitvector, ...]):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if len(vectors) != alphabet.sigma:
            raise ValueError("need one bitvector per non-sentinel symbol")
        if any(vec.m != n for vec in vectors):
            raise ValueError("not a valid XBWT: bitvector length is not n")
        if any(vec.ones == 0 for vec in vectors):
            raise ValueError("not a valid XBWT: symbol labels no edge")
        c_array = [0]
        cum = 1
        for vec in vectors:
            c_array.append(cum)
            cum += vec.ones
        if cum != n:  # the weights count the n - 1 edges of an n-node trie
            raise ValueError("not a valid XBWT: bitvector weights do not sum "
                             "to n - 1")
        self.n = n
        self.alphabet = alphabet
        self.mode = mode
        self.c_array = tuple(c_array)
        self.vectors = vectors
        self._sym = {c: (c_array[i + 1], vectors[i]._rank)
                     for i, c in enumerate(alphabet.symbols)}
        self._k = 0
        self._head: dict[bytes, tuple[int, int]] | None = None

    @property
    def sigma(self) -> int:
        """Full alphabet size, sentinel included."""
        return self.alphabet.sigma + 1


def _head_table(index: XbwtIndex) -> dict[bytes, tuple[int, int]]:
    """Set and return ``index._head``: the interval of every pattern of
    length 0..k with a non-empty one, k being ``index._k``.

    Filled level by level, one forward step per (entry, symbol).  Level 1
    is always built.  A further level is added while two caps hold:
    max(sigma, 2)^k * ceil(log2 n)^2 <= n, so the table has at most about
    2n / log^2 n + log n entries, o(n) bits; and the steps past level 1
    stay within the items the vectors store (``stored_items``), so a file
    whose header declares a huge n cannot make the table outgrow the file.
    """
    n = index.n
    logn = max(1, (n - 1).bit_length())  # ceil(log2 n), at least 1
    base = max(index.alphabet.sigma, 2)
    budget = sum(vec.stored_items() for vec in index.vectors)
    edges = [(bytes((c,)), c0, rank) for c, (c0, rank) in index._sym.items()]
    head = {b"": (1, n)}
    level = [(b"", 1, n)]
    k = steps = 0
    while True:
        nxt = []
        for p, lo, hi in level:
            for edge, c0, rank in edges:
                before, upto = rank(lo - 1), rank(hi)
                if before < upto:
                    q = p + edge
                    head[q] = (c0 + before + 1, c0 + upto)
                    nxt.append((q, c0 + before + 1, c0 + upto))
        k += 1
        level = nxt
        steps += len(edges) * len(level)  # the next level's cost
        if not level or base ** (k + 1) * logn * logn > n or steps > budget:
            break
    index._k, index._head = k, head
    return head


def resolve_mode(mode: str, n: int, sigma_full: int) -> str:
    """'auto' picks the FID back-end when the full alphabet size is at most
    sqrt(log2 n), ID otherwise."""
    if mode != "auto":
        return mode
    logn = math.log2(n) if n > 1 else 1.0
    return "fid" if sigma_full <= max(1.0, logn) ** 0.5 else "id"


def default_block_size(n: int, sigma_eff: int) -> int:
    logn = math.ceil(math.log2(n)) if n > 1 else 1
    return max(1, max(1, sigma_eff) * logn * logn)


def xbwt_columns(trie: Trie) -> tuple[tuple[int, ...], ...]:
    """The XBWT of the trie, computed once and kept on it.

    One tuple per symbol, in alphabet order, holding the ascending 1-based
    co-lex positions of the nodes with an out-edge labeled by that symbol:
    the one-positions of the symbol's bitvector.  Past the root, the co-lex
    order holds the nodes labeled c as one block, ordered by their parents'
    co-lex ranks, so column c is the parents' ranks over that block.
    """
    if trie._xbwt is None:
        order = colex_order(trie)
        rank = [0] * trie.n
        for r, v in enumerate(order, start=1):
            rank[v] = r
        # parent_rank[r]: co-lex rank of the parent of the rank-r node, filled
        # in id order, where a node's parent is a recently visited id
        parent_rank = [0] * (trie.n + 1)
        for v, p in enumerate(trie.parent):
            parent_rank[rank[v]] = rank[p]
        label = trie.label.__getitem__
        cols = []
        start = 1  # order[0] is the root
        for c in trie.alphabet.symbols:
            end = bisect_right(order, c, start, key=label)
            cols.append(tuple(parent_rank[start + 1:end + 1]))
            start = end
        trie._xbwt = tuple(cols)
    return trie._xbwt


def build_index(trie: Trie, mode: str = "auto", *,
                block_size: int | None = None) -> XbwtIndex:
    """Index the trie with the selected bitvector back-end.

    In ID mode a symbol occurring on more than half the nodes is stored as
    its complement, which changes the measured size but no query answer.
    Fixed-block vectors hold their blocks as ID vectors.
    """
    n = trie.n
    alphabet = trie.alphabet
    mode = resolve_mode(mode, n, alphabet.sigma + 1)
    columns = xbwt_columns(trie)
    if mode == "plain":
        vectors = [PlainBitvector(n, ones) for ones in columns]
    elif mode == "fid":
        vectors = [RrrVector(n, ones) for ones in columns]
    elif mode == "id":
        vectors = [IdVector(n, ones, len(ones) > n / 2) for ones in columns]
    elif mode == "fixedblock":
        if block_size is None:
            block_size = default_block_size(n, alphabet.sigma)
        vectors = [FixedBlockVector(n, ones, block_size) for ones in columns]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return XbwtIndex(n, alphabet, mode, tuple(vectors))


def index_bits(index: XbwtIndex) -> BitCost:
    """The measured payload and overhead bits of all the index's vectors."""
    costs = [vec.payload_bits() for vec in index.vectors]
    return BitCost(sum(c.payload for c in costs),
                   sum(c.overhead for c in costs))


def forward_step(index: XbwtIndex, iv: NodeInterval, c: int) -> NodeInterval:
    """Interval of nodes reached by extending the current pattern with c."""
    if iv.empty or iv.lo < 1 or iv.hi > index.n:
        raise ValueError("interval must be nonempty and within [1, n]")
    if c == index.alphabet.sentinel:
        raise ValueError("pattern contains sentinel")
    ent = index._sym.get(c)
    if ent is None:
        return NodeInterval(1, 0)
    base, rank = ent
    return NodeInterval(base + rank(iv.lo - 1) + 1, base + rank(iv.hi))


def count(index: XbwtIndex, pattern: bytes) -> int:
    """Number of trie nodes whose incoming path ends with ``pattern``, a
    sequence of byte values.

    The search starts from the tabled interval of ``pattern[:k]``; a prefix
    missing from the table (it holds a sentinel, a foreign byte or an empty
    interval) or one that cannot be a key (a bytearray, a list) is searched
    from the whole range as usual.
    """
    table = index._head or _head_table(index)
    k = index._k
    try:
        head = table.get(pattern[:k])
    except TypeError:  # unhashable
        head = None
    if head is None:
        lo, hi = 1, index.n
    else:
        lo, hi = head
        if len(pattern) <= k:
            return hi - lo + 1
        pattern = pattern[k:]
    sentinel = index.alphabet.sentinel
    sym = index._sym
    for c in pattern:
        if c == sentinel:
            raise ValueError("pattern contains sentinel")
        ent = sym.get(c)
        if ent is None:
            return 0
        base, rank = ent
        lo, hi = base + rank(lo - 1) + 1, base + rank(hi)
        if lo > hi:
            return 0
    return hi - lo + 1


def ith_child(index: XbwtIndex, j: int, i: int) -> int | None:
    """Co-lex rank of the i-th child (in label order) of the rank-j node.

    Scans the symbols in order, testing membership with a partial-rank
    query; the i-th hit is followed by one forward step.  None when the
    node has fewer than i children.
    """
    if not 1 <= j <= index.n:
        raise ValueError("position out of range")
    if i < 1:
        raise ValueError("child ordinal must be positive")
    seen = 0
    for k, c in enumerate(index.alphabet.symbols):
        pr = index.vectors[k].prank(j)
        if pr != -1:
            seen += 1
            if seen == i:
                return index.c_array[k + 1] + pr
    return None


def _runs(positions: Iterable[int]) -> int:
    """Number of maximal runs of consecutive values in ascending positions."""
    runs = 0
    prev = -2
    for p in positions:
        if p != prev + 1:
            runs += 1
        prev = p
    return runs


def count_runs(symbols: Sequence[int],
               columns: Iterable[Sequence[int]]) -> RunCounts:
    """Run counts of per-symbol one-position lists, e.g. ``xbwt_columns``."""
    by_symbol = {c: _runs(col) for c, col in zip(symbols, columns)}
    return RunCounts(sum(by_symbol.values()), by_symbol)


def run_count(index: XbwtIndex) -> RunCounts:
    """Number of positions where a symbol's run of out-edges ends."""
    return count_runs(index.alphabet.symbols,
                      (vec.one_positions() for vec in index.vectors))


def _check_size(index: XbwtIndex) -> None:
    if index.n > MAX_NODES:
        raise ValueError("index too large")


def leaf_run_count(index: XbwtIndex) -> int:
    """Number of maximal co-lex runs of leaves (nodes with no out-edges)."""
    _check_size(index)
    internal = bytearray(index.n + 1)
    for vec in index.vectors:
        for p in vec.one_positions():
            internal[p] = 1
    return _runs(p for p in range(1, index.n + 1) if not internal[p])


def invert(index: XbwtIndex) -> Trie:
    """Rebuild the unique trie whose XBWT matches the stored vectors.

    The children reached by symbol c occupy co-lex ranks C[c]+1 .. C[c]+n_c
    in order of their parents' ranks, so the parents are B_c's one-positions.
    """
    _check_size(index)
    n = index.n
    parent = [0] * n  # 0-based ids are colex rank - 1
    label = [0] * n
    for i, c in enumerate(index.alphabet.symbols):
        # the child of rank C[c] + j has 0-based id C[c] + j - 1
        for child, p in enumerate(index.vectors[i].one_positions(),
                                  start=index.c_array[i + 1]):
            parent[child] = p - 1
            label[child] = c
    try:
        return Trie.from_parent_labels(parent, label, root=0)
    except ValueError as exc:
        raise ValueError("not a valid XBWT") from exc


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_CRC_TABLE = []
for _b in range(256):
    _c = _b
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _CRC_TABLE.append(_c)

# slicing-by-8: _CRC_TABLES[k][b] is the CRC register after byte b followed
# by k zero bytes, so eight lookups advance the register by 8 bytes
_CRC_TABLES = [_CRC_TABLE]
for _ in range(7):
    _CRC_TABLES.append([(t >> 8) ^ _CRC_TABLE[t & 0xFF]
                        for t in _CRC_TABLES[-1]])


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of data, continuing from a previous ``crc``."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC_TABLES
    c = crc ^ 0xFFFFFFFF
    body = len(data) & ~7
    for lo, hi in struct.iter_unpack("<II", memoryview(data)[:body]):
        c ^= lo
        c = (t7[c & 0xFF] ^ t6[(c >> 8) & 0xFF] ^ t5[(c >> 16) & 0xFF]
             ^ t4[c >> 24] ^ t3[hi & 0xFF] ^ t2[(hi >> 8) & 0xFF]
             ^ t1[(hi >> 16) & 0xFF] ^ t0[hi >> 24])
    for byte in data[body:]:
        c = (c >> 8) ^ t0[(c ^ byte) & 0xFF]
    return c ^ 0xFFFFFFFF


def serialize(index: XbwtIndex) -> bytes:
    """Magic, version, mode, n, sigma, the alphabet (sentinel first), each
    symbol's vector body, and a CRC-32C of everything before it."""
    sigma_full = index.sigma
    body = b"".join([MAGIC,
                     struct.pack("<HHQH", VERSION, MODES.index(index.mode),
                                 index.n, sigma_full),
                     bytes(index.alphabet.full()),
                     *map(serialize_bitvector, index.vectors)])
    return body + struct.pack("<I", crc32c(body))


def deserialize(data: bytes) -> XbwtIndex:
    if len(data) < len(MAGIC) + 4 + 10 + 4:
        raise ValueError("truncated")
    if data[:4] != MAGIC:
        raise ValueError("bad magic")
    version, code = struct.unpack_from("<HH", data, 4)
    if version != VERSION:
        raise ValueError(f"version mismatch: {version}")
    if crc32c(data[:-4]) != struct.unpack_from("<I", data, len(data) - 4)[0]:
        raise ValueError("checksum failure")
    if code >= len(MODES):
        raise ValueError(f"unknown mode {code}")
    mode = MODES[code]
    body = data[:-4]
    off = 8
    n, sigma_full = struct.unpack_from("<QH", body, off)
    off += 10
    if sigma_full < 1 or off + sigma_full > len(body):
        raise ValueError("truncated")
    chars = body[off:off + sigma_full]
    off += sigma_full
    alphabet = Alphabet(tuple(chars[1:]), chars[0])
    vectors = []
    for _ in range(sigma_full - 1):
        vec, off = deserialize_bitvector(mode, n, body, off)
        vectors.append(vec)
    if off != len(body):
        raise ValueError("trailing bytes in index body")
    return XbwtIndex(n, alphabet, mode, tuple(vectors))

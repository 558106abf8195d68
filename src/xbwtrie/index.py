"""Count-query index over the XBWT of a trie.

The nodes are sorted by the co-lexicographic order of their incoming paths;
one bitvector per symbol marks which sorted nodes have an outgoing edge with
that symbol, and the C array, a prefix sum of the vector weights, locates
each symbol's block of incoming edges.
The sort and the per-symbol columns are derived once per trie, each column
a packed ``array`` of 4-byte positions (:func:`xbwt_columns`), and so is
each column's packed bitmap (:func:`xbwt_bitmaps`); both are shared by
every back-end and every report.  The mode's vector class builds and
accounts each column from them (:mod:`.succinct`), so this module names no
back-end: ``MODES`` is the kinds of ``succinct.VECTORS``.
A pattern is matched by forward search: one rank-pair per symbol maps the
interval of nodes reached by p to the interval reached by p plus one symbol.
The intervals of all patterns of length at most k are precomputed on the
first count, so a query starts its search k symbols in.
"""
from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from typing import Iterable, Sequence

from .succinct import (_POS32, VECTORS, BitCost, Bitvector, _bitmap,
                       deserialize_bitvector, serialize_bitvector)
from .trie import Alphabet, Trie, colex_order

# a file stores a mode by position; every vector's kind is its index's mode
MODES = tuple(VECTORS)

MAGIC = b"XBWT"
VERSION = 7

# magic, version, mode, n and sigma (the sentinel counted); the alphabet,
# the vector bodies and a CRC-32C follow
_HEADER = struct.Struct("<4sHHQH")

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
        if alphabet != Alphabet.from_symbols(alphabet.symbols):
            raise ValueError("not a valid XBWT: sentinel is not the smallest "
                             "unused byte")
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


def xbwt_columns(trie: Trie) -> tuple[array, ...]:
    """The XBWT of the trie, derived once and kept on it, or set by invert.

    One array of 4-byte items (``succinct._POS32``) per symbol, in alphabet
    order, holding the ascending 1-based co-lex positions of the nodes with
    an out-edge labeled by that symbol: the one-positions of the symbol's
    bitvector.  Past the root, the co-lex order holds the nodes labeled c
    as one block, ordered by their parents' co-lex ranks, so column c is
    the parents' ranks over that block.  The ranks are arrays from the
    sort on, so each column is a slice of one.
    """
    if trie._xbwt is None:
        order = colex_order(trie)
        rank = array(_POS32, [0]) * trie.n
        for r, v in enumerate(order, start=1):
            rank[v] = r
        # parent_rank[r]: co-lex rank of the parent of the rank-r node, filled
        # in id order, where a node's parent is a recently visited id
        parent_rank = array(_POS32, [0]) * (trie.n + 1)
        for r, p in zip(rank, trie.parent):
            parent_rank[r] = rank[p]
        label = trie.label.__getitem__
        cols = []
        start = 1  # order[0] is the root
        for c in trie.alphabet.symbols:
            end = bisect_right(order, c, start, key=label)
            cols.append(parent_rank[start + 1:end + 1])
            start = end
        trie._xbwt = tuple(cols)
    return trie._xbwt


def xbwt_bitmaps(trie: Trie) -> tuple[bytes, ...]:
    """Each of the trie's :func:`xbwt_columns` as its packed bitmap of n
    bits, bit p - 1 holding position p (``succinct._bitmap``): made once
    and kept on the trie beside the columns, and handed to every back-end,
    which builds or accounts its vector from the form it stores."""
    if trie._bitmaps is None:
        trie._bitmaps = tuple(_bitmap(trie.n, col)
                              for col in xbwt_columns(trie))
    return trie._bitmaps


def _vector_class(mode: str) -> type[Bitvector]:
    """The mode's vector class; 'auto' names no class and is refused."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return VECTORS[mode]


def build_index(trie: Trie, mode: str = "auto") -> XbwtIndex:
    """Index the trie with the selected bitvector back-end, each column's
    vector at the back-end's own setting (``Bitvector.over_column``).

    'auto' builds the one back-end with the smallest file
    (:func:`smallest_file`).
    """
    if mode == "auto":
        mode = smallest_file({m: column_cost(trie, m) for m in MODES})
    make = _vector_class(mode).over_column
    return XbwtIndex(trie.n, trie.alphabet, mode,
                     tuple(map(make, repeat(trie.n), xbwt_columns(trie),
                               xbwt_bitmaps(trie))))


@dataclass(frozen=True)
class IndexCost:
    """What ``index_bits`` and the vectors' entropy-block fields report of
    an index: its measured bits, the largest entropy block (None when no
    vector codes blocks: plain, or no symbols) and the number of blocks;
    and ``len(serialize(index))``."""

    bits: BitCost
    block_size: int | None
    block_count: int
    file_length: int


def column_cost(trie: Trie, mode: str) -> IndexCost:
    """The cost of ``build_index(trie, mode)``, accounted from the XBWT
    columns without building a vector: each column's (block size, block
    count, bits) from the mode's class.  The bits are the bodies, to which
    the file adds its header, the alphabet with its sentinel and the
    CRC."""
    cost = _vector_class(mode).column_cost
    costs = list(map(cost, repeat(trie.n), xbwt_columns(trie),
                     xbwt_bitmaps(trie)))
    bits = sum((column for *_, column in costs), BitCost(0, 0))
    return IndexCost(bits, costs[-1][0] if costs else None,
                     sum(blocks for _, blocks, _ in costs),
                     _HEADER.size + trie.alphabet.sigma + 1 + 4
                     + bits.total // 8)


def smallest_file(costs: dict[str, IndexCost]) -> str:
    """The mode of the shortest file among the accounted ``costs`` of every
    mode, the first in ``MODES`` on a tie."""
    return min(MODES, key=lambda m: costs[m].file_length)


def index_bits(index: XbwtIndex) -> BitCost:
    """The payload and overhead bits of all the index's vector bodies."""
    return sum((vec.payload_bits() for vec in index.vectors), BitCost(0, 0))


def forward_step(index: XbwtIndex, iv: NodeInterval, c: int) -> NodeInterval:
    """Interval of nodes reached by extending the current pattern with c."""
    if iv.empty or iv.lo < 1 or iv.hi > index.n:
        raise ValueError("interval must be nonempty and within [1, n]")
    if c == index.alphabet.sentinel:
        raise ValueError("pattern contains sentinel")
    ent = index._sym.get(c)
    if ent is None:
        if not isinstance(c, int):
            raise TypeError(f"pattern symbol {c!r} is not a byte value")
        return NodeInterval(1, 0)
    base, rank = ent
    return NodeInterval(base + rank(iv.lo - 1) + 1, base + rank(iv.hi))


def count(index: XbwtIndex, pattern: bytes) -> int:
    """Number of trie nodes whose incoming path ends with ``pattern``, a
    sequence of byte values; a symbol that is not an int (a character of a
    ``str`` pattern) raises ``TypeError``.

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
        # no str is a table key, so only a miss can be a str pattern, the
        # empty one included
        if isinstance(pattern, str):
            raise TypeError("pattern is a str, not a sequence of byte values")
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
            if not isinstance(c, int):  # a str pattern, say
                raise TypeError(f"pattern symbol {c!r} is not a byte value")
            return 0
        base, rank = ent
        lo, hi = base + rank(lo - 1) + 1, base + rank(hi)
        if lo > hi:
            return 0
    return hi - lo + 1


def _runs(bits: int) -> int:
    """Number of maximal runs of set bits in bits: the set bits whose lower
    neighbour is clear."""
    return (bits & ~(bits << 1)).bit_count()


def count_runs(symbols: Sequence[int],
               bitmaps: Iterable[bytes]) -> RunCounts:
    """Run counts of per-symbol packed bitmaps, e.g. ``xbwt_bitmaps``."""
    by_symbol = {c: _runs(int.from_bytes(raw, "little"))
                 for c, raw in zip(symbols, bitmaps)}
    return RunCounts(sum(by_symbol.values()), by_symbol)


def _check_size(index: XbwtIndex) -> None:
    if index.n > MAX_NODES:
        raise ValueError("index too large")


def run_count(index: XbwtIndex) -> RunCounts:
    """Number of positions where a symbol's run of out-edges ends, read off
    each vector's n-bit bitmap; an index past ``MAX_NODES`` is refused."""
    _check_size(index)
    return count_runs(index.alphabet.symbols,
                      (_bitmap(index.n, vec.one_positions())
                       for vec in index.vectors))


def leaf_run_count(index: XbwtIndex) -> int:
    """Number of maximal co-lex runs of leaves (nodes with no out-edges):
    the runs of the n bits that no vector sets."""
    _check_size(index)
    internal = 0
    for vec in index.vectors:
        internal |= int.from_bytes(_bitmap(index.n, vec.one_positions()),
                                   "little")
    return _runs(~internal & ((1 << index.n) - 1))


def invert(index: XbwtIndex) -> Trie:
    """Rebuild the unique trie whose XBWT matches the stored vectors; their
    one-positions are kept on it as its :func:`xbwt_columns`.

    The children reached by symbol c occupy co-lex ranks C[c]+1 .. C[c]+n_c
    in order of their parents' ranks, so the parents are B_c's one-positions.
    Linking each child in front of its parent's list, symbols taken in
    reverse order, leaves every list in label order; one stack walk over
    these first-child/next-sibling lists from rank 1 then numbers the nodes
    in pre-order.  Rank 1 is no node's child and every other rank is linked
    once, so the walk visits a node at most once, and it misses one exactly
    when a cycle cuts it off from the root.  The ranks are then the trie's
    co-lex order (induction on depth), so the vectors are its XBWT.
    """
    _check_size(index)
    n = index.n
    # first[r], nxt[r], sym[r]: first child, next sibling and label of the
    # rank-r node, 0 for none; unboxed to save memory (n <= MAX_NODES < 2^31)
    first = array("i", [0]) * (n + 1)
    nxt = array("i", [0]) * (n + 1)
    sym = bytearray(n + 1)
    symbols = index.alphabet.symbols
    cols = tuple(array(_POS32, vec.one_positions()) for vec in index.vectors)
    for i in reversed(range(len(symbols))):
        c = symbols[i]
        for child, p in enumerate(cols[i], start=index.c_array[i + 1] + 1):
            nxt[child] = first[p]
            first[p] = child
            sym[child] = c
    parent = [0]
    label = [0]
    # pending ranks, each beside the pre-order id of its parent
    stack, above = ([first[1]], [0]) if first[1] else ([], [])
    while stack:
        r = stack.pop()
        p = above.pop()
        v = len(parent)
        parent.append(p)
        label.append(sym[r])
        if nxt[r]:
            stack.append(nxt[r])
            above.append(p)
        if first[r]:
            stack.append(first[r])
            above.append(v)
    del first, nxt, sym  # before Trie copies parent and label
    if len(parent) != n:
        raise ValueError("not a valid XBWT")
    # pre-order ids, and children in label order with distinct labels (a
    # column's one-positions strictly increase): all Trie() would check
    trie = Trie._trusted(parent, label)
    trie._xbwt = cols
    return trie


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_CRC_POLY = 0x82F63B78  # Castagnoli, reflected

# _CRC_TABLE[b]: the register after byte b from register 0
_CRC_TABLE = []
for _b in range(256):
    _c = _b
    for _ in range(8):
        _c = (_c >> 1) ^ _CRC_POLY if _c & 1 else _c >> 1
    _CRC_TABLE.append(_c)

# byte k of every _CRC_TABLE entry, as a ``bytes.translate`` table
_CRC_PLANES = tuple(bytes(t >> 8 * k & 0xFF for t in _CRC_TABLE)
                    for k in range(4))

# the lane pass takes at most this many lanes at a time, so the copy it
# reads its columns from holds at most 1 MiB at every lane length
_CRC_LANES = 2048


@cache
def _crc_shift(s: int) -> tuple[list[int], ...]:
    """The 4 x 256 table of a register shifted by s zero bytes: entry b of
    row k is the shift of register b << 8k, so four lookups shift any
    register.  Built once per s from the 32 single-bit registers, and
    cached.

    A zero bit multiplies the register by x, bit 31 holding x^0; so the
    shift of bit 31 - m is the shift of bit 31 followed by m zero bits.
    """
    c = 1 << 31
    for _ in range(s):
        c = (c >> 8) ^ _CRC_TABLE[c & 0xFF]
    bits = [c]
    for _ in range(31):
        c = (c >> 1) ^ _CRC_POLY if c & 1 else c >> 1
        bits.append(c)
    bits.reverse()  # bits[i]: the shift of register 1 << i
    tables = []
    for k in range(4):
        row = [0]
        for v in bits[8 * k:8 * k + 8]:
            row += [x ^ v for x in row]
        tables.append(row)
    return tuple(tables)


def _crc_lanes(view: memoryview, s: int, c: int) -> tuple[int, memoryview]:
    """The CRC register after the whole s-byte blocks of view, from
    register c, and the view of the fewer than s bytes past them.

    The blocks go up to ``_CRC_LANES`` at a time.  Their registers run in
    lockstep, each from register 0, one in-block byte column a step: the
    column, a strided slice, is XORed into the lanes' low register bytes
    as one int, and those bytes go through the byte table as four
    ``bytes.translate`` calls, one per register byte.  By linearity the
    register after a block from c is c shifted by s zero bytes XOR the
    block's own register, so the lanes then fold into c in order by
    Horner's rule.
    """
    t0, t1, t2, t3 = _CRC_PLANES
    s0, s1, s2, s3 = _crc_shift(s)
    unpack = int.from_bytes
    body = len(view) - len(view) % s
    step = _CRC_LANES * s
    for at in range(0, body, step):
        lanes = view[at:min(at + step, body)].tobytes()
        m = len(lanes) // s
        r0 = r1 = r2 = r3 = 0  # byte k of every lane's register
        for j in range(s):
            x = (r0 ^ unpack(lanes[j::s], "little")).to_bytes(m, "little")
            r0 = r1 ^ unpack(x.translate(t0), "little")
            r1 = r2 ^ unpack(x.translate(t1), "little")
            r2 = r3 ^ unpack(x.translate(t2), "little")
            r3 = unpack(x.translate(t3), "little")
        regs = bytearray(4 * m)
        for k, r in enumerate((r0, r1, r2, r3)):
            regs[k::4] = r.to_bytes(m, "little")
        for r, in struct.iter_unpack("<I", regs):
            c = (s0[c & 0xFF] ^ s1[c >> 8 & 0xFF] ^ s2[c >> 16 & 0xFF]
                 ^ s3[c >> 24] ^ r)
    return c, view[body:]


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of data, continuing from a previous ``crc``:
    the reflected polynomial 0x82F63B78, init and xorout 0xFFFFFFFF, so
    ``crc32c(b"123456789") == 0xE3069283``.

    Whole blocks of s bytes go through :func:`_crc_lanes`, s being the
    largest power of two with s^2 <= len(data), held to 16..512: an input
    under 256 bytes has no lanes.  The fewer than s bytes left go through
    the byte table.
    """
    view = memoryview(data)
    c = crc ^ 0xFFFFFFFF
    log = (len(view).bit_length() - 1) >> 1
    if log >= 4:
        c, view = _crc_lanes(view, 1 << min(log, 9), c)
    for byte in view:
        c = (c >> 8) ^ _CRC_TABLE[(c ^ byte) & 0xFF]
    return c ^ 0xFFFFFFFF


def serialize(index: XbwtIndex) -> bytes:
    """Magic, version, mode, n, sigma, the alphabet (sentinel first), each
    symbol's vector body, and a CRC-32C of everything before it."""
    body = b"".join([_HEADER.pack(MAGIC, VERSION, MODES.index(index.mode),
                                  index.n, index.sigma),
                     bytes(index.alphabet.full()),
                     *map(serialize_bitvector, index.vectors)])
    return body + struct.pack("<I", crc32c(body))


def deserialize(data: bytes) -> XbwtIndex:
    if len(data) < _HEADER.size + 4:
        raise ValueError("truncated")
    magic, version, code, n, sigma_full = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError("bad magic")
    if version != VERSION:
        raise ValueError(f"version mismatch: {version}")
    # a view: a copy would add the file's size to the load's peak
    body = memoryview(data)[:-4]
    if crc32c(body) != struct.unpack_from("<I", data, len(data) - 4)[0]:
        raise ValueError("checksum failure")
    if code >= len(MODES):
        raise ValueError(f"unknown mode {code}")
    mode = MODES[code]
    off = _HEADER.size
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

"""Rank/select bitvector back-ends with measured-bit accounting.

Four interchangeable representations of a static bitvector:

* ``PlainBitvector``   -- raw bits, one int per 512-bit superblock, plus
                          the rank before every superblock.
* ``RrrVector``        -- the FID back-end: u-bit blocks, u = 14, read 8
                          to a word, so a word is one int of a superblock's
                          8u raw bits, plus the rank before every superblock.
* ``IdVector``         -- explicit one-positions, stored as Elias-Fano and
                          held as in-bucket offsets of one byte each (at
                          m / k < 32), ranked by binary search in one
                          bucket of a high-bits directory; optionally
                          stores the complement when ones dominate.
* ``FixedBlockVector`` -- b-bit blocks (b about (log2 m)^2) read one to a
                          word, plus the rank before every block.

``VECTORS`` lists them once, by kind, in the order a file numbers them.
Each class makes every choice an index makes of its back-end: the setting
of a column's vector (``over_column``: fid's u, fixed-block's b, id's
complement flag) and the column's bits (``column_cost``).  The bits are
the file body's: ``payload_bits().total`` is 8 times the length of
``serialize_bitvector``, and the rank directories that memory rebuilds at
load (``_R``, ``_D``) are in no file and not accounted.

Fid and fixed-block are one coded-block vector, ``_CodedBlocks``, at two
settings of its block size and of g, the blocks to a word.  A file stores
a block of l bits holding k ones as k and the block's rank among the
C(l, k) blocks of that count, in ceil(log2 C(l, k)) bits: the class/offset
code of Raman, Raman and Rao.  A fid body after its u byte is the
fixed-block body at b = u after its b field.  A block of at most 14 bits,
every fid block, is ranked and decoded through two tables of its 2^14
words, built once; a longer block by the Pascal columns, one step per set
bit.

Positions are 1-based; ``rank(i)`` counts ones in positions 1..i
inclusive and ``rank(0) == 0``.  A back-end supplies one query, the
unchecked ``_rank``, which callers that already hold the bound (the
index's forward search) call directly, and one bulk read,
``one_positions``.  ``Bitvector`` derives the rest from ``_rank``:
``access(i)`` is ``rank(i) - rank(i - 1)`` and ``select(i)`` the first
position whose rank reaches i, found by binary search in O(log m) ranks;
the four public queries ``rank``, ``access``, ``select`` and ``prank``
check their argument once, there.  Plain, fid and fixed-block rank on one
path, that of their common base ``_WordBlocks``: words of b raw bits (512
for plain, 8u for fid) and the rank before every word.  All structures are
immutable once built, with one exception that no answer can see: a fid or
fixed-block vector read from a file keeps what the file stored for each
word, checked at load, and fills in the word the first time a query reads
it.

The loader takes no Python step per value of a stream of one width (block
counts, id low parts) of 128 values or more: eight w-bit values fill w
bytes, so each of the 8 value slots is cut for all groups at once, from
strided slices shifted and masked as one int; a shorter stream is read
value by value, which costs less than the 8 slot passes.  An id body's unary high parts are read in lanes too,
about a thousand positions at a time, from the bitmap's bits spread to
bytes (:func:`_read_id`).  An empty or a full block stores no rank, so
only the other blocks' ranks are read, checked and kept (fid's as 2-byte
items), and such a block is filled in without an unrank.

The writer mirrors the loader.  A column's m-bit bitmap is packed once
(:func:`_bitmap`, kept per trie by ``index.xbwt_bitmaps``) and handed to
every back-end that reads bits: plain keeps its bytes, and fid and
fixed-block cut their blocks from it with the lane reader and count their
ones with one popcount ``bytes.translate``, to build a vector and to
account one alike.  The lane writer ``_pack_uniform``, the exact inverse
of the lane reader, writes every stream of one width, the block counts and
the id low parts at each width a file holds; an id body's unary bitmap is
packed as a column's is, and the block ranks are one bit string per
distinct block, joined once and read as one int.
"""
from __future__ import annotations

import math
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, compress, count, islice, repeat
from operator import add, itemgetter, lt, or_, sub, xor
from typing import Iterable, Sequence


_LN2 = math.log(2)


@dataclass(frozen=True)
class BitCost:
    """The bits of a vector body: the entropy payload, and the overhead,
    everything else the body stores (size fields, counts, id's flags and
    count, position-width slack and each stream's padding)."""

    payload: int
    overhead: int

    @property
    def total(self) -> int:
        return self.payload + self.overhead

    def __add__(self, other: BitCost) -> BitCost:
        return BitCost(self.payload + other.payload,
                       self.overhead + other.overhead)


def ceil_log2_comb(n: int, k: int) -> int:
    """ceil(log2 C(n, k)), exact.

    An lgamma estimate gives the answer when its error bound is smaller
    than its distance to the nearest integer, which is nearly always.
    Otherwise (C a power of two, an n too large for the bound to be small,
    or k outside 1..n-1) C(n, k) is computed exactly.
    """
    # past 2^53 the bound below exceeds 1, and a float(n) could overflow
    if 0 < k < n < 2 ** 53:
        a, b, c = math.lgamma(n + 1), math.lgamma(k + 1), math.lgamma(n - k + 1)
        est = (a - b - c) / _LN2
        # CPython's lgamma is good to a few ulps of its (here non-negative)
        # value; 2^-46 of each term, plus 2^-46, also covers the rounding
        # of the difference and of the division by ln 2
        err = (a + b + c + 1) * 2.0 ** -44
        low = math.floor(est)
        if err < est - low < 1 - err:
            return low + 1
    return (math.comb(n, k) - 1).bit_length()


def _pack_positions(m: int, ones: Iterable[int]) -> bytes:
    """Pack 1-based positions into ceil(m/8) little-endian bytes, bit i-1
    holding position i; the padding bits past m stay zero.

    Each one sets its digit of a binary numeral, one Python step per one,
    and the numeral is read as one int."""
    if not isinstance(ones, (list, tuple, range, array)):
        ones = list(ones)
    if ones and (min(ones) < 1 or max(ones) > m):
        raise ValueError("one-position out of range")
    return _bitmap(m, ones)


def _bitmap(m: int, ones: Iterable[int]) -> bytes:
    """:func:`_pack_positions` of positions known to lie in 1..m."""
    # digits[p] is "1" when p is a one; read from m down to 1, the digits
    # are a binary numeral whose bit p - 1 is position p
    digits = bytearray(b"0") * (m + 1)
    for p in ones:
        digits[p] = 49  # ord("1")
    return int(digits[:0:-1] or b"0", 2).to_bytes((m + 7) >> 3, "little")


# the 4-byte array typecode of ID positions below 2^32; C fixes only a
# lower bound on each item size, so it is chosen by itemsize
_POS32 = next((t for t in "IL" if array(t).itemsize == 4), "Q")
# an ID body's head: the complement flag and the stored-position count
_ID_HEAD = struct.Struct("<BQ")


def _extend_set_bits(out: list[int], word: int, base: int) -> None:
    """Append base + j to out for every set bit j of ``word``, lowest first."""
    while word:
        low = word & -word
        out.append(base + low.bit_length() - 1)
        word ^= low


def _cut_blocks(raw: bytes, m: int, size: int) -> array | list[int]:
    """The size-bit blocks covering m bits of raw, bit i - 1 of which holds
    position i and whose bits past m are zero, as :func:`_unpack_uniform`
    reads them: raw is cut or padded with zeros to the blocks' bytes."""
    width = min(size, m) or 1  # no block holds more than m bits
    nblocks = -(-m // width)
    nbytes = (nblocks * width + 7) >> 3
    return _unpack_uniform(raw[:nbytes].ljust(nbytes, b"\0"), width, nblocks)


_POPCOUNT = bytes(map(int.bit_count, range(256)))  # a translate table


def _block_counts(blocks) -> Sequence[int]:
    """The one count of every block: one ``bytes.translate`` of an array's
    bytes, whose per-byte counts, at most 8 each, are summed over the item's
    bytes as one int a byte lane, or ``int.bit_count`` over a list."""
    if not isinstance(blocks, array):
        return list(map(int.bit_count, blocks))
    per = blocks.tobytes().translate(_POPCOUNT)
    size = blocks.itemsize
    if size == 1:
        return per
    return sum(int.from_bytes(per[i::size], "little")
               for i in range(size)).to_bytes(len(blocks), "little")


# small ints only: a row of big C(blen, k) for every fixed-block length up
# to 510 would hold megabytes
@cache
def _width_row(blen: int) -> tuple[int, ...]:
    """ceil(log2 C(blen, k)) for k in 0..blen, kept once built."""
    return tuple(ceil_log2_comb(blen, k) for k in range(blen + 1))


def _class_bits(m: int, size: int, counts: Sequence[int]) -> int:
    """The sum of ceil(log2 C(blen, k)) over the size-bit blocks covering
    m bits, each of length blen and holding k ones: the bits of the fid
    offsets or of the fixed-block bodies."""
    full = m // size
    # a size past m has no full block, and m is its short block's length
    row = _width_row(min(size, m))
    if size < 256:  # a count and its width, at most the size, fit a byte
        bits = sum(bytes(counts[:full]).translate(bytes(row).ljust(256, b"\0")))
    else:
        bits = sum(map(row.__getitem__, counts[:full]))
    if m % size:
        bits += _width_row(m % size)[counts[full]]
    return bits


# the largest b a file may hold, the default ``FixedBlockVector.block_size``
# at ``index.MAX_NODES``
MAX_FILE_BLOCK = 510
# the largest fid u a file may hold, and fid's one u: blocks up to this
# length are coded and decoded by the tables of :func:`_code_table` and
# :func:`_inverse_table`
_TABLE_BITS = 14


# ---------------------------------------------------------------------------
# back-ends
# ---------------------------------------------------------------------------

class Bitvector:
    """Common 1-based query surface; concrete back-ends fill in the storage."""

    kind: str
    m: int
    ones: int

    # entropy-block parameters used by the space-bound checks; None marks a
    # back-end that stores raw bits rather than entropy-coded blocks.
    entropy_block_size: int | None = None
    entropy_block_count: int = 0

    @classmethod
    def _restore(cls, *state) -> "Bitvector":
        """A vector from its stored form, as the loader reads it, through the
        same ``_init`` the constructor ends in."""
        self = cls.__new__(cls)
        self._init(*state)
        return self

    def _init(self, *state) -> None:
        raise NotImplementedError

    def rank(self, i: int) -> int:
        if not 0 <= i <= self.m:
            raise ValueError("position out of range")
        return self._rank(i)

    def access(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError("position out of range")
        return self._rank(i) - self._rank(i - 1)

    def select(self, i: int) -> int:
        """Position of the i-th one: the first position whose rank reaches
        i, by binary search over 1..m."""
        if not 1 <= i <= self.ones:
            raise ValueError("select index out of range")
        lo, hi = 1, self.m
        while lo < hi:
            mid = (lo + hi) >> 1
            if self._rank(mid) < i:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def prank(self, i: int) -> int:
        """rank(i) when position i holds a 1, else -1."""
        return self._rank(i) if self.access(i) else -1

    def _rank(self, i: int) -> int:
        """rank(i) without the argument check: i must lie in 0..m.  The one
        query a back-end supplies; access and select derive from it."""
        raise NotImplementedError

    def payload_bits(self) -> BitCost:
        raise NotImplementedError

    @classmethod
    def over_column(cls, m: int, ones: Sequence[int], raw: bytes
                    ) -> Bitvector:
        """The vector an index builds over a column of length m, at the
        back-end's own setting, from the column's strictly increasing
        one-positions in 1..m, an ``array`` as ``index.xbwt_columns`` keeps
        them, and their packed bitmap ``raw`` (:func:`_bitmap`); each
        back-end reads the form it stores."""
        raise NotImplementedError

    @classmethod
    def column_cost(cls, m: int, ones: Sequence[int], raw: bytes
                    ) -> tuple[int | None, int, BitCost]:
        """(block size, block count, bits) of ``over_column(m, ones, raw)``,
        accounted without building it; the block size is None for a
        back-end that codes no blocks."""
        raise NotImplementedError

    def stored_items(self) -> int:
        """Number of items the stored form holds: 64-bit words (plain),
        blocks (fid), positions (id), or one per block plus the block's
        64-bit words (fixedblock).  A file spends at least one bit on each
        item, or on each fixed block, whose at most ``MAX_FILE_BLOCK`` bits
        make at most 8 words, so work held to this count is linear in the
        size of a loaded file."""
        raise NotImplementedError

    def one_positions(self) -> list[int]:
        """The ascending positions of all ones, read off the stored form."""
        raise NotImplementedError


class _WordBlocks(Bitvector):
    """The rank path of the plain, fid and fixed-block back-ends: the bits
    cut into b-bit blocks (a plain superblock, a fid superblock, a fixed
    block), each read as one int whose bit j holds in-block position j + 1,
    and ``_R``, the ranks before every block and after the last.  A cut
    block's rank is the rank after it less the ones past the cut.

    ``children`` is read by block index only: a built vector, and a loaded
    plain one, holds a tuple of the words; a loaded fid or fixed-block one
    a :class:`_LazyWords` that decodes a block's word on its first read."""

    __slots__ = ("m", "ones", "b", "children", "_R")

    def _init(self, m, b, R, children):
        self.m = m
        self.b = b
        self.children = children
        self._R = R
        self.ones = R[-1]

    def _rank(self, i: int) -> int:
        # a block ending at i is counted by _R alone
        bi = i // self.b
        r = i - bi * self.b
        if not r:
            return self._R[bi]
        return self._R[bi + 1] - (self.children[bi] >> r).bit_count()

    def one_positions(self) -> list[int]:
        out: list[int] = []
        children = self.children
        for bi in range(len(self._R) - 1):
            _extend_set_bits(out, children[bi], bi * self.b + 1)
        return out


class PlainBitvector(_WordBlocks):
    """Raw bits, one int per superblock of ``SB_WORDS`` 64-bit words, with
    ``_R`` the rank before every superblock and after the last: plain
    queries run on the fixed-block path at b = 512.  Its entropy fields
    stay None and 0, since no bit is entropy-coded."""

    kind = "plain"
    WORD = 64
    SB_WORDS = 8

    __slots__ = ()

    def __init__(self, m: int, ones: Iterable[int]):
        if m < 0:
            raise ValueError("length must be nonnegative")
        self._init(m, _pack_positions(m, ones))

    def _init(self, m, raw):
        if len(raw) != (m + 7) // 8:
            raise ValueError("bad plain bitvector payload")
        if m & 7 and raw[-1] >> (m & 7):
            raise ValueError("plain bitvector has padding bits set")
        step = self.SB_WORDS * self.WORD // 8  # bytes per superblock
        words = tuple(int.from_bytes(raw[at:at + step], "little")
                      for at in range(0, len(raw), step))
        super()._init(m, 8 * step, [0, *accumulate(map(int.bit_count, words))],
                      words)

    @staticmethod
    def cost(m: int) -> BitCost:
        """The body: m raw bits, padded to whole bytes."""
        return BitCost(m, -m % 8)

    @classmethod
    def over_column(cls, m, ones, raw):
        return cls._restore(m, raw)

    @classmethod
    def column_cost(cls, m, ones, raw):
        return None, 0, cls.cost(m)

    def payload_bits(self) -> BitCost:
        return self.cost(self.m)

    def stored_items(self) -> int:
        return (self.m + self.WORD - 1) // self.WORD


class _CodedBlocks(_WordBlocks):
    """Fid and fixed-block: ``size``-bit blocks read g to a word, and
    ``counts``, every block's one count (bytes below a size of 256).  A
    file codes a block as its count and its rank among the C(l, k) blocks
    of that count (:func:`_pack_blocks`); a loaded vector keeps the ranks
    of the blocks neither empty nor full, to unrank a word from on its
    first read.  A subclass names its kind, g, its file's size field
    ``SIZE_FIELD`` (holding 1..``max_size``), the size's name in a size
    error and its ``block_size`` rule."""

    __slots__ = ("size", "counts", "entropy_block_size",
                 "entropy_block_count")

    def __init__(self, m: int, ones: Iterable[int], size: int | None):
        if m < 0:
            raise ValueError("length must be nonnegative")
        size = self.block_size(m, size)
        self._from_bitmap(m, size, _pack_positions(m, ones))

    @classmethod
    def over_column(cls, m, ones, raw):
        self = cls.__new__(cls)
        self._from_bitmap(m, cls.block_size(m, None), raw)
        return self

    def _from_bitmap(self, m: int, size: int, raw: bytes) -> None:
        """Build from the packed bitmap raw of m bits (:func:`_bitmap`),
        at block size ``size``: the constructor's path and an index's."""
        blocks = _cut_blocks(raw, m, size)
        counts = _block_counts(blocks)
        if self.g == 1:
            words = tuple(blocks)
        else:  # a word of g = 8 blocks is ``size`` whole bytes
            words = tuple(int.from_bytes(raw[at:at + size], "little")
                          for at in range(0, len(raw), size))
        self._init(m, size,
                   bytes(counts) if size < 256
                   else array(_POS32, list(counts)),
                   [0, *accumulate(map(int.bit_count, words))], words)

    def _init(self, m, size, counts, R, children):
        super()._init(m, self.g * size, R, children)
        self.size = size
        self.counts = counts
        self.entropy_block_size = size
        self.entropy_block_count = len(counts)

    @classmethod
    def cost(cls, m: int, size: int, counts: Sequence[int]) -> BitCost:
        """The body (:func:`_pack_blocks`): the payload is each block's rank
        at ceil(log2 C(l, k)) bits, for a block of l bits holding k ones;
        the overhead the size field and the counts at the size's
        bit_length, each stream padded to whole bytes."""
        payload = _class_bits(m, size, counts)
        counts_bytes = (len(counts) * size.bit_length() + 7) // 8
        nbytes = cls.SIZE_FIELD.size + counts_bytes + (payload + 7) // 8
        return BitCost(payload, 8 * nbytes - payload)

    @classmethod
    def column_cost(cls, m, ones, raw):
        size = cls.block_size(m, None)
        counts = cls._column_counts(m, size, ones, raw)
        return size, len(counts), cls.cost(m, size, counts)

    @staticmethod
    def _column_counts(m: int, size: int, ones: Sequence[int], raw: bytes
                       ) -> Sequence[int]:
        """The one count of every size-bit block covering m bits, as the
        constructor takes them: from the blocks cut from the bitmap."""
        return _block_counts(_cut_blocks(raw, m, size))

    def payload_bits(self) -> BitCost:
        return self.cost(self.m, self.size, self.counts)


class RrrVector(_CodedBlocks):
    """FID back-end: u-bit blocks, u = ``size``, 14 unless given, each
    coded as its class (its count) and its offset (its rank).  A word is a
    superblock of 8 blocks, so queries run on the word path at b = 8u with
    ``_R`` the superblock ranks; a loaded vector keeps its offsets as
    2-byte items and decodes a superblock's blocks through
    :func:`_inverse_table`."""

    kind = "fid"
    g = 8
    SIZE_FIELD = struct.Struct("<B")
    max_size = _TABLE_BITS
    _size_name = "rrr"

    __slots__ = ()

    def __init__(self, m: int, ones: Iterable[int], u: int | None = None):
        super().__init__(m, ones, u)

    @classmethod
    def block_size(cls, m: int, u: int | None) -> int:
        """The given u held to 1..``max_size``, by default ``max_size``
        at every m: the longest block a file holds.  A longer block spends
        fewer class bits per position (4 / u), and its offset, read through
        :func:`_inverse_table`, costs no more to decode."""
        return max(1, min(cls.max_size, cls.max_size if u is None else u))

    def stored_items(self) -> int:
        return len(self.counts)


class FixedBlockVector(_CodedBlocks):
    """Fixed-block back-end: b-bit blocks, b = ``size``, one to a word, so
    ``_R`` is the rank before every block."""

    kind = "fixedblock"
    g = 1
    SIZE_FIELD = struct.Struct("<Q")
    max_size = MAX_FILE_BLOCK
    _size_name = "fixed"

    __slots__ = ()

    def __init__(self, m: int, ones: Iterable[int], b: int | None = None):
        super().__init__(m, ones, b)

    @classmethod
    def block_size(cls, m: int, b: int | None) -> int:
        """The given b, which must be positive, by default the largest
        2^j - 2 at most ceil(log2 m)^2, and at least 2: a rule from blocks
        that kept j-bit in-block positions, kept so that files stay
        byte-identical."""
        if b is None:
            logm = max(1, (m - 1).bit_length())  # ceil(log2 m), at least 1
            return max(2, (1 << (logm * logm + 2).bit_length() - 1) - 2)
        if b < 1:
            raise ValueError("block size must be positive")
        return b

    @staticmethod
    def _column_counts(m, b, ones, raw):
        # a block holds many ones, so each block's count is the difference
        # of the bisections at its end and at the one before, in C
        ends = list(map(bisect_right, repeat(ones), range(b, m + b, b)))
        return list(map(sub, ends, [0, *ends]))

    def stored_items(self) -> int:
        full, tail = divmod(self.m, self.b)
        return (len(self.counts) + full * ((self.b + 63) >> 6)
                + ((tail + 63) >> 6))


# items compared by one subtraction in ``_increasing``: its ints stay a few
# kilobytes, so that the check adds little to a load's peak
_LANE_CHUNK = 1 << 10


def _increasing(values: array) -> bool:
    """Whether the items of the unsigned array values strictly increase.

    When no item has its top bit set, that bit is each item's guard: a
    chunk of items, as lanes of one int, is tested by one subtraction, the
    later items, each with its guard set and less 1, less the earlier ones.
    No lane borrows from the next, and each keeps its guard exactly when
    its later item exceeds the earlier (as :func:`_below_row` does).  Items
    with the top bit set (positions of 2^31 and more in 4-byte items, or of
    2^63 and more, which only a vector of length 2^63 or more stores), on
    which a lane may borrow, are compared one pair at a time, so the answer
    is exact for any items."""
    n = len(values) - 1
    if n < 1:
        return True
    size = values.itemsize
    top = memoryview(values).cast("B")[0 if _BIG_ENDIAN else size - 1::size]
    if top.tobytes().translate(None, _BELOW_128):
        return all(map(lt, values, islice(values, 1, None)))
    if _BIG_ENDIAN:  # the lanes are little-endian
        values = array(values.typecode, values)
        values.byteswap()
    raw = memoryview(values).cast("B")
    bits = 8 * size
    guard, less = _guards(size, min(n, _LANE_CHUNK))
    # each chunk's items and the next chunk's first
    return all(_lanes_increase(int.from_bytes(
        raw[size * at:size * (at + _LANE_CHUNK + 1)], "little"),
        min(_LANE_CHUNK, n - at) + 1, bits, guard, less)
        for at in range(0, n, _LANE_CHUNK))


def _guards(size: int, n: int) -> tuple[int, int]:
    """The constants of :func:`_lanes_increase` over n size-byte lanes:
    each lane's top bit, and that less 1."""
    guard = _repeated(1 << 8 * size - 1, size, n)
    return guard, guard - _repeated(1, size, n)


def _lanes_increase(lanes: int, n: int, bits: int, guard: int, less: int
                    ) -> bool:
    """Whether the n values in the bits-wide lanes of lanes, each with its
    top bit clear, strictly increase; guard and less are
    :func:`_guards` over at least n - 1 lanes."""
    cut = (1 << bits * (n - 1)) - 1
    guard &= cut
    return ((lanes >> bits) + (less & cut) - (lanes & cut)) & guard == guard


# bytes.translate tables, one per r in 1..7 and at 0 for 8: each byte c to
# its low r bits
_KEEP_LOW = [None, *(bytes(c & (1 << r) - 1 for c in range(256))
                     for r in range(1, 8))]

# an id vector's directory bucket spans 2^_BUCKET_SHIFT high parts, each of
# which holds 1/2 to 1 stored position on average
_BUCKET_SHIFT = 4


def _low_width(m: int, k: int) -> int:
    """L, the width of an id body's low parts for k stored positions of a
    length-m vector: floor(log2(m / k)), so that the high parts, the
    positions shifted right by L, run up to m >> L < 2k; for k = 0,
    floor(log2 m), and 0 at m = 0."""
    return max(0, (m // max(k, 1)).bit_length() - 1)


def _id_rank(low: array, D: array, L: int, complemented: bool):
    """An id vector's ``_rank``: bisect bucket i >> L of the offsets for
    i's low L bits.  A closure over the fields, which a rank reads as cell
    variables rather than as attributes, since rank is the one query a
    count makes, twice per symbol."""
    mask = (1 << L) - 1
    if complemented:
        def rank(i: int) -> int:
            h = i >> L
            return i - bisect_right(low, i & mask, D[h], D[h + 1])
    else:
        def rank(i: int) -> int:
            h = i >> L
            return bisect_right(low, i & mask, D[h], D[h + 1])
    return rank


class IdVector(Bitvector):
    """ID back-end: stored one-positions (or zero-positions when complemented).

    A file stores the k positions as Elias-Fano (Elias, JACM 1974; Fano,
    MIT Project MAC Memo 61, 1971): the low L = floor(log2(m / k)) bits of
    each, and the high parts, the rest, in unary (:func:`_pack_id`).
    Memory keeps them in the form that rank reads.  ``_D`` is a bucket
    directory, an ``array``: ``_D[h]`` counts the stored positions below
    h * 2^_L, with _L = L + 4, so a bucket spans 16 high parts and holds 8
    to 16 positions on average, and the directory has at most k // 8 + 2
    entries.  ``_low`` holds each position's low _L bits, its offset in its
    bucket, in the narrowest items that hold _L bits: one byte while
    m / k < 32, as at every column of an index over eight letters or more.
    Rank bisects one bucket of ``_low`` (:func:`_id_rank`).
    """

    kind = "id"

    __slots__ = ("m", "ones", "complemented", "_low", "_L", "_D", "_rank",
                 "entropy_block_size", "entropy_block_count")

    def __init__(self, m: int, ones: Iterable[int], complemented: bool = False):
        if m < 0:
            raise ValueError("length must be nonnegative")
        typ = _POS32 if m >> 32 == 0 else "Q"
        if isinstance(ones, array) and ones.typecode == typ:
            stored = ones  # an index's column, kept as it stands
        else:
            if not isinstance(ones, (list, tuple, range, array)):
                ones = list(ones)
            # a position past m may not fit the array's items
            if ones and (min(ones) < 1 or max(ones) > m):
                raise ValueError("one-position out of range")
            stored = array(typ, ones)
        # an index's columns come strictly increasing: sorted only if not;
        # then the ends bound every position
        if not _increasing(stored):
            stored = array(typ, sorted(set(stored)))
        if stored and not (1 <= stored[0] and stored[-1] <= m):
            raise ValueError("one-position out of range")
        if complemented:
            zeros = bytearray(b"\1") * (m + 1)  # zeros[p] is 1 when p is a zero
            zeros[0] = 0
            for p in stored:
                zeros[p] = 0
            stored = array(typ, compress(range(m + 1), zeros))
        self._fill(m, len(stored), (stored,) if stored else (), complemented)

    def _init(self, m, stored, complemented):
        # a list is checked at its ends before it is packed: a position past
        # m may not fit the array's items
        if stored and not (1 <= stored[0] and stored[-1] <= m):
            raise ValueError("position out of range")
        if not isinstance(stored, array):
            stored = array(_POS32 if m >> 32 == 0 else "Q", stored)
        if not _increasing(stored):
            raise ValueError("positions must be strictly increasing")
        self._fill(m, len(stored), (stored,) if stored else (), complemented)

    def _fill(self, m, k, chunks, complemented):
        """Keep the k stored positions that chunks, arrays of consecutive
        positions, hold, known to increase strictly within 1..m: the low _L
        bits of each, cut from the chunk's bytes, in ``_low``, and the
        directory entries of the buckets that end in a chunk, found by
        bisecting it."""
        self._L = L = min(_low_width(m, k) + _BUCKET_SHIFT, m.bit_length())
        # the narrowest items that hold L bits
        low = array(_LANE_TYPE[1 << max(0, (L - 1) >> 3).bit_length()],
                    [0]) * k
        size = low.itemsize
        lanes = memoryview(low).cast("B")
        nb = (L + 7) >> 3  # the bytes of an offset; the last keeps L % 8 bits
        D = array(_POS32 if k >> 32 == 0 else "Q")
        at = due = 0  # due: the first bucket whose entry is not known
        for chunk in chunks:
            end = (chunk[-1] >> L) + 1
            D.extend(map(add, repeat(at), map(
                bisect_left, repeat(chunk), range(due << L, end << L, 1 << L))))
            due = end
            if _BIG_ENDIAN:  # the lanes are little-endian
                chunk = array(chunk.typecode, chunk)
                chunk.byteswap()
            raw = chunk.tobytes()
            for j in range(nb):
                lanes[size * at + j:size * (at + len(chunk)):size] = \
                    raw[j::chunk.itemsize].translate(
                        _KEEP_LOW[L & 7] if j == nb - 1 else None)
            at += len(chunk)
        lanes.release()
        if _BIG_ENDIAN:
            low.byteswap()
        D.extend(repeat(k, (m >> L) + 2 - len(D)))
        self.m = m
        self._low = low
        self._D = D
        self._rank = _id_rank(low, D, L, complemented)
        self.complemented = complemented
        self.ones = (m - k) if complemented else k
        self.entropy_block_size = m
        self.entropy_block_count = 1

    def _stored(self) -> array:
        """The stored positions, ascending: each offset plus the first
        position of its bucket, added as lanes."""
        low, D, L = self._low, self._D, self._L
        stored = array(_POS32 if self.m >> 32 == 0 else "Q")
        size = stored.itemsize
        # each bucket's first position, once for each of its positions
        firsts = b"".join(map(bytes.__mul__, map(
            int.to_bytes, range(0, len(D) - 1 << L, 1 << L), repeat(size),
            repeat("little")), map(sub, D[1:], D[:-1])))
        stored.frombytes((int.from_bytes(firsts, "little")
                          + _lane_int(low, size)).to_bytes(len(firsts),
                                                           "little"))
        if _BIG_ENDIAN:
            stored.byteswap()
        return stored

    def one_positions(self) -> list[int]:
        if not self.complemented:
            return list(self._stored())
        ones = bytearray(b"\1") * (self.m + 1)  # ones[p] is 1 when p is a one
        ones[0] = 0
        for p in self._stored():
            ones[p] = 0
        return list(compress(range(self.m + 1), ones))

    @staticmethod
    def cost(m: int, ones: int, complemented: bool) -> BitCost:
        """The body (:func:`_pack_id`): the payload is ceil(log2 C(m, ones));
        the overhead the flags byte, the count and the Elias-Fano bits of
        the stored positions (the zeros when complemented) past the
        payload, each stream padded to whole bytes."""
        payload = ceil_log2_comb(m, ones)
        k = m - ones if complemented else ones
        L = _low_width(m, k)
        nbytes = (_ID_HEAD.size + (k * L + 7) // 8
                  + (k + (m >> L) + 1 + 7) // 8)
        return BitCost(payload, 8 * nbytes - payload)

    @staticmethod
    def _majority(m: int, ones: Sequence[int]) -> bool:
        """An index's complement flag: whether the ones are the majority."""
        return len(ones) > m / 2

    @classmethod
    def over_column(cls, m, ones, raw):
        return cls(m, ones, cls._majority(m, ones))

    @classmethod
    def column_cost(cls, m, ones, raw):
        return m, 1, cls.cost(m, len(ones), cls._majority(m, ones))

    def payload_bits(self) -> BitCost:
        return self.cost(self.m, self.ones, self.complemented)

    def stored_items(self) -> int:
        return len(self._low)


# every back-end by its kind, in the order a file numbers the modes
VECTORS: dict[str, type[Bitvector]] = {
    cls.kind: cls
    for cls in (PlainBitvector, RrrVector, IdVector, FixedBlockVector)}


# ---------------------------------------------------------------------------
# serialization: a vector's body alone; its kind and length come from the
# caller, and every size inside the body follows from them
# ---------------------------------------------------------------------------

def _unpack_bitstream(data: bytes, widths: Sequence[int]) -> list[int]:
    """The values LSB-first at the given bit widths, read one by one; the
    stream must be exactly ceil(sum/8) bytes with zero padding bits."""
    total = sum(widths)
    if total > len(data) * 8:
        raise ValueError("truncated")
    if len(data) != (total + 7) // 8:
        raise ValueError("bad bitstream length")
    out = []
    acc = 0
    have = 0  # bits pending in acc
    pos = 0
    for w in widths:
        if have < w:
            take = max(8, (w - have + 7) >> 3)
            acc |= int.from_bytes(data[pos:pos + take], "little") << have
            pos += take
            have += 8 * take
        out.append(acc & ((1 << w) - 1))
        acc >>= w
        have -= w
    if acc or any(data[pos:]):
        raise ValueError("bitstream has padding bits set")
    return out


_BIG_ENDIAN = sys.byteorder == "big"

# the array typecode of each lane size the uniform reader cuts a column in
_LANE_TYPE = {1: "B", 2: "H", 4: _POS32, 8: "Q"}


def _relane(raw: bytes, size: int, wide: int) -> bytes:
    """The little-endian items of raw, each of size bytes, as items of wide
    bytes: each item's bytes past wide are dropped (they must be zero), and
    the missing ones are zero."""
    out = bytearray(len(raw) // size * wide)
    for b in range(min(size, wide)):
        out[b::wide] = raw[b::size]
    return out


def _repeated(value: int, size: int, n: int) -> int:
    """value in each of n size-byte lanes."""
    return int.from_bytes(value.to_bytes(size, "little") * n, "little")


def _masked(values: array, w: int) -> array:
    """A copy of values with each item held to its low w bits, one AND of
    lanes; w is at most the items' bits."""
    size = values.itemsize
    out = array(values.typecode)
    out.frombytes((_lane_int(values, size) & _repeated((1 << w) - 1, size,
                                                       len(values))
                   ).to_bytes(size * len(values), "little"))
    if _BIG_ENDIAN:
        out.byteswap()
    return out


def _lane_int(values, size: int) -> int:
    """values, an array or a list of values below 2^(8 * size), as one int
    of size-byte little-endian lanes, one a value."""
    if not isinstance(values, array):  # a list of values past 57 bits
        values = array("Q", values)
    if _BIG_ENDIAN:
        values = array(values.typecode, values)
        values.byteswap()
    raw = values.tobytes()
    if values.itemsize != size:
        raw = _relane(raw, values.itemsize, size)
    return int.from_bytes(raw, "little")


# the fewest full groups of 8 values that :func:`_unpack_uniform` reads in
# lanes: below it the 8 slot passes, about 20 us at any width, cost more
# than reading value by value, about 0.1 us a value
_LANE_GROUPS = 16


def _unpack_uniform(data: bytes, w: int, k: int) -> array | list[int]:
    """``_unpack_bitstream(data, [w] * k)`` for one width w >= 1, with the
    same checks, as an ``array`` of items wide enough for w bits: one byte
    up to w = 8, four up to 32, eight up to 57.  Past 57 bits, which only
    the low parts of an id body with m / k of 2^58 or more hold, or a fixed
    block that a constructor cuts, a value may span 9 bytes, and the stream
    is read by :func:`_unpack_bitstream`.

    Eight w-bit values fill exactly w bytes, so value j of every full
    group lies at the same bit offset j * w of its group.  Each of the 8
    slots is read in C for all groups at once: the bytes it spans are
    gathered from strided slices into one lane of L bytes per group, the
    lanes are shifted and masked as one int, and the column is written
    into every eighth item.  Only the tail group, of fewer than 8 values,
    is read value by value, and its padding checked; so is a stream of
    fewer than ``_LANE_GROUPS`` full groups, whose 8 slot passes would cost
    more than its values."""
    if w > 57:
        return _unpack_bitstream(data, [w] * k)
    total = w * k
    if total > len(data) * 8:
        raise ValueError("truncated")
    if len(data) != (total + 7) // 8:
        raise ValueError("bad bitstream length")
    mask = (1 << w) - 1
    groups = k >> 3 if k >> 3 >= _LANE_GROUPS else 0
    full = groups * w  # the bytes of the full groups
    out = array("B" if w <= 8 else _POS32 if w <= 32 else "Q", [0]) * k
    if groups:
        # strided slices of bytes are cut in one C loop, those of a view
        # item by item
        view = bytes(data)
        # a slot starting at bit s of a byte spans s + w <= 64 bits, so the
        # widest slot takes nb bytes and a lane the power of two past nb - 1
        nb = (max(((j * w) & 7) + w for j in range(8)) + 7) >> 3
        lane = 1 << (nb - 1).bit_length()
        lanes = bytearray(groups * lane)
        every = int.from_bytes(mask.to_bytes(lane, "little") * groups,
                               "little")
        for j in range(8):
            at = (j * w) >> 3
            shift = (j * w) & 7
            # bytes past the slot's span hold an earlier slot's bytes; the
            # mask clears them, and what the shift brings in from the next
            # lane, since s + w bits fit the lane
            for i in range((shift + w + 7) >> 3):
                lanes[i::lane] = view[at + i:full:w]
            cut = ((int.from_bytes(lanes, "little") >> shift) & every
                   ).to_bytes(groups * lane, "little")
            if lane != out.itemsize:  # the values' bytes into the items'
                cut = _relane(cut, lane, out.itemsize)
            col = array(out.typecode, cut)
            if _BIG_ENDIAN:
                col.byteswap()
            out[j:8 * groups:8] = col
    tail = k - 8 * groups
    if tail:
        g = int.from_bytes(data[full:], "little")
        if g >> (tail * w):
            raise ValueError("bitstream has padding bits set")
        for i in range(tail):
            out[8 * groups + i] = (g >> (i * w)) & mask
    return out


def _pack_uniform(values: Sequence[int], w: int) -> bytes:
    """The values LSB-first at one width w >= 1, padded with zero bits to a
    whole byte: the inverse of :func:`_unpack_uniform`.  The values lie
    below 2^min(w, 64) and come as ``bytes``, an ``array`` of unsigned
    items or a list, and fit 8-byte items.  Every width a file holds is
    written here: the widest, 63 bits, is an id low part of one stored
    position at m >= 2^63.

    Value j of every full group of 8 lies at bit j * w of the group's w
    bytes, so each of the 8 slots is written in C for all groups at once:
    the slot's items, every eighth, are spread as bytes into one w-byte lane
    per group by strided slices, read as one int and shifted by j * w, which
    keeps each value inside its lane, and the 8 slots are ORed together.
    Only the tail group, of fewer than 8 values, is written value by
    value."""
    k = len(values)
    if not isinstance(values, (bytes, bytearray, array)):
        values = array("B" if w <= 8 else _POS32 if w <= 32 else "Q", values)
    item = values.itemsize if isinstance(values, array) else 1
    groups = k >> 3
    lanes = bytearray(groups * w)
    acc = 0
    for j in range(8):
        col = values[j:8 * groups:8]
        if isinstance(col, array):
            if _BIG_ENDIAN:  # the lanes are little-endian
                col.byteswap()
            col = col.tobytes()
        # a value's bytes past the first ceil(w / 8) are zero
        for i in range(min(item, (w + 7) >> 3)):
            lanes[i::w] = col[i::item]
        acc |= int.from_bytes(lanes, "little") << j * w
    tail = 0
    for i, value in enumerate(values[8 * groups:]):
        tail |= value << i * w
    return (acc.to_bytes(groups * w, "little")
            + tail.to_bytes(((k & 7) * w + 7) >> 3, "little"))


# The body of a fid or fixed-block block is the rank of the block's ones,
# or of its zeros when ones are the majority, in the combinatorial number
# system: the j-set {c_1 < ... < c_j} of 0-based in-block positions has
# rank sum C(c_i, i), which lies in 0..C(l, j) - 1 and takes
# ceil(log2 C(l, j)) bits.  A file's block size lies in 1..MAX_FILE_BLOCK
# (fid's u in 1..14), so the Pascal columns that rank and unrank its blocks
# hold at most 255 x 511 entries, whatever a header declares.

_PASCAL: list[list[int]] = [[]]  # _PASCAL[j][p] = C(p, j) for j >= 1


def _pascal(size: int) -> list[list[int]]:
    """Columns C(p, j) for p in 0..size and 1 <= j <= size // 2; column 0
    is left empty, since a rank never reads C(p, 0).

    One table is kept, the largest asked for, and serves every smaller
    size.  Column j holds the prefix sums of column j - 1 (C(p, j) is the
    sum of C(q, j - 1) over q < p), so it is built by addition alone.
    """
    if size // 2 >= len(_PASCAL) or (size > 1 and len(_PASCAL[1]) <= size):
        cols = [[], list(range(size + 1))]
        while len(cols) <= size // 2:
            cols.append([0, *accumulate(cols[-1][:size])])
        _PASCAL[:] = cols
    return _PASCAL


def _binomials(cols: list[list[int]], blen: int) -> list[int]:
    """C(blen, k) for k in 0..blen, read off the columns."""
    return [cols[min(k, blen - k)][blen] if 0 < k < blen else 1
            for k in range(blen + 1)]


def _rank_word(cols: list[list[int]], word: int) -> int:
    """The rank of the set bits c_1 < c_2 < ... of word, sum C(c_i, i);
    the inverse of :func:`_unrank`."""
    r = i = 0
    while word:
        low = word & -word
        i += 1
        r += cols[i][low.bit_length() - 1]
        word ^= low
    return r


def _unrank(cols: list[list[int]], r: int, j: int, blen: int) -> int:
    """The word of blen bits whose j set bits have rank r; r must be below
    C(blen, j).  Each c_i, from the largest down, is the last p with
    C(p, i) <= what is left of r, found by one bisect."""
    word = 0
    hi = blen
    for i in range(j, 0, -1):
        col = cols[i]
        hi = bisect_right(col, r, i, hi) - 1
        r -= col[hi]
        word |= 1 << hi
    return word


# A rank sum C(c_i, i) does not depend on the block length: a block of l
# bits and the same bits in a longer block have one rank, the number of
# smaller words of their count (co-lex order).  So one table of the words
# below 2^14 by rank serves every block of up to 14 bits, short blocks too.


# bytes.translate tables, one per bit b: each byte c to c | 1 << b
_SET_BIT = [bytes(c | 1 << b for c in range(256)) for b in range(8)]


@cache
def _inverse_table() -> tuple[array, ...]:
    """``_unrank`` below 2^14: row j, for j in 0..7, holds the words below
    2^14 of j set bits, the word of rank r at r.  In co-lex order the words
    below 2^(i+1) of j ones are those below 2^i, then each word below 2^i
    of j - 1 ones with bit i set, so the rows are built by doubling, a bit
    set by one ``bytes.translate`` of the items' bytes that hold it; a
    block ranks its ones or its zeros, whichever are fewer, so no row past
    7 is read."""
    rows = (array("H", [0]),) + (array("H"),) * (_TABLE_BITS // 2)
    for i in range(_TABLE_BITS):
        at = (i >> 3) ^ _BIG_ENDIAN  # the byte of each item that holds bit i
        raised = []
        for fewer in rows[:-1]:
            items = bytearray(fewer.tobytes())
            items[at::2] = items[at::2].translate(_SET_BIT[i & 7])
            raised.append(array("H", items))
        rows = (rows[0], *(row + more
                           for row, more in zip(rows[1:], raised)))
    return rows


@cache
def _code_table(blen: int) -> list[str]:
    """What :func:`_pack_blocks` stores for each word of blen <= 14 bits,
    by word: the rank of its k ones, or (2k > blen) of its zeros, in
    exactly ceil(log2 C(blen, k)) binary digits.  The words of rank r are
    row k's, or row blen - k's complemented, at r < C(blen, k), and they
    share the numeral of r; the numerals of w digits are built by
    doubling, those of w - 1 digits after a 0 and after a 1."""
    code = [""] * (1 << blen)  # an empty or a full word stores no digit
    mask = (1 << blen) - 1
    widths = _width_row(blen)
    numerals = [""]  # the numerals of widths[j] digits, in order
    for j in range(1, blen // 2 + 1):
        for _ in range(widths[j] - widths[j - 1]):
            numerals = [*map("0".__add__, numerals),
                        *map("1".__add__, numerals)]
        words = _inverse_table()[j][:math.comb(blen, j)]
        any(map(code.__setitem__, words, numerals))  # each call gives None
        if 2 * j < blen:
            any(map(code.__setitem__, map(xor, words, repeat(mask)),
                    numerals))
    return code


# the digits of bin(x) past "0b1": those below x's leading 1
_PAST_LEAD = itemgetter(slice(3, None))


def _codes(words: Iterable[int], blen: int) -> dict[int, str]:
    """What :func:`_pack_blocks` stores for each of the blen-bit words,
    by word, as :func:`_code_table` holds it, each ranked by
    :func:`_rank_word`: the digits of rank | 1 << width past its lead."""
    words = list(set(words))
    rank = partial(_rank_word, _pascal(blen))
    flip = [(1 << blen) - 1 if 2 * k > blen else 0 for k in range(blen + 1)]
    lead = [1 << width for width in _width_row(blen)]
    ks = list(map(int.bit_count, words))
    return dict(zip(words, map(_PAST_LEAD, map(bin, map(
        or_, map(rank, map(xor, words, map(flip.__getitem__, ks))),
        map(lead.__getitem__, ks))))))


def _decode_block(r: int, k: int, blen: int) -> int:
    """The word of a stored block of blen bits holding k ones, 0 < k < blen,
    whose rank is r: the rank of its ones, or of its zeros when the ones
    are the majority (:func:`_pack_blocks`).  It is read from
    :func:`_inverse_table` when blen <= 14, the table built on the first
    such read, or else unranked from the Pascal columns.  The one path that
    decodes a block of a loaded vector."""
    j = blen - k if 2 * k > blen else k
    word = (_inverse_table()[j][r] if blen <= _TABLE_BITS
            else _unrank(_pascal(blen), r, j, blen))
    return word ^ ((1 << blen) - 1) if j < k else word


class _LazyWords(dict):
    """The words of a loaded vector, by index.  A word is decoded by
    ``decode`` from what the file stored for its blocks, checked at load,
    the first time it is read, and then kept, so a read that finds it
    stays in the dict's own lookup."""

    __slots__ = ("decode",)

    def __init__(self, decode):
        super().__init__()
        self.decode = decode

    def __missing__(self, bi: int) -> int:
        word = self[bi] = self.decode(bi)
        return word


def _pack_blocks(v: _CodedBlocks) -> bytes:
    """The body of a coded-block vector after its size field: the one
    counts of its blocks at ``size.bit_length()`` bits, then each block's
    rank at ceil(log2 C(l, k)) bits.

    The words are read by index, as a loaded vector's are, and cut into
    blocks as the constructor cuts them.  Each block's code is one read of
    :func:`_code_table` at fid's u, or of :func:`_codes` over the distinct
    blocks for longer ones, so that no Python step is taken per block, and
    the codes are one int: the blocks' strings, the last block's first,
    joined and parsed as one binary numeral."""
    size, m, counts = v.size, v.m, v.counts
    words = list(map(v.children.__getitem__, range(len(v._R) - 1)))
    if v.g == 1:
        blocks = words
    else:  # a word of g = 8 blocks is ``size`` whole bytes
        blocks = _cut_blocks(b"".join(map(int.to_bytes, words, repeat(size),
                                          repeat("little"))), m, size)
    full, short = divmod(m, size)
    text = _codes(blocks[full:], short)[blocks[full]] if short else ""
    blocks = blocks[:full]
    code = _code_table(size) if size <= _TABLE_BITS else _codes(blocks, size)
    text += "".join(map(code.__getitem__, reversed(blocks)))
    return (_pack_uniform(counts, size.bit_length())
            + int(text or "0", 2).to_bytes((len(text) + 7) >> 3, "little"))


def _pack_id(v: IdVector) -> bytes:
    """An id body: the flags byte (1 when the stored positions are the
    zeros), the u64 count k, then the k stored positions p_0 < ... <
    p_(k-1) as Elias-Fano: the low L = floor(log2(m / k)) bits of each at L
    bits, then the high parts h_i = p_i >> L in unary, a bitmap of
    k + (m >> L) + 1 bits whose ones lie at h_i + i, so that h_i zeros
    precede the i-th one (each stream padded with zero bits to a byte)."""
    m, k = v.m, len(v._low)
    L = _low_width(m, k)
    stored = v._stored()
    size = stored.itemsize
    # the i-th one lies at bit h_i + i, position h_i + i + 1 of the bitmap
    nbits = k + (m >> L) + 1
    if nbits >> 8 * size:
        size = 8
    lanes = (_lane_int(stored, size) >> L) & _repeated((1 << 8 * size - L) - 1,
                                                       size, k)
    lanes += _lane_int(array(_LANE_TYPE[size], range(1, k + 1)), size)
    ones = array(_LANE_TYPE[size])
    ones.frombytes(lanes.to_bytes(size * k, "little"))
    if _BIG_ENDIAN:
        ones.byteswap()
    lows = _pack_uniform(_masked(v._low, L), L) if L else b""
    return _ID_HEAD.pack(int(v.complemented), k) + lows + _bitmap(nbits, ones)


# bytes.translate tables, one per bit b: each byte to 255 where bit b is set
_BIT_FF = [bytes(255 * (c >> b & 1) for c in range(256)) for b in range(8)]
# the bitmap bytes an id chunk is cut from, so at most _LANE_CHUNK ones
_SEGMENT = _LANE_CHUNK // 8
# the two base-128 digits of each bit offset j in a segment, j % 128 and
# j // 128, as bytes, each plus 128; and the bytes such a digit never is
_DIGITS = (bytes(range(128, 256)) * (_SEGMENT // 16),
           b"".join(bytes((128 + d,)) * 128 for d in range(_SEGMENT // 16)))
_BELOW_128 = bytes(range(128))


def _read_id(buf, off: int, m: int):
    """Read what :func:`_pack_id` writes for a length-m vector from buf at
    off.  Returns the count k, the complement flag, the stored positions as
    chunks that :meth:`IdVector._fill` reads, and the offset just past the
    body.

    The sizes follow from m and k, and the bitmap is checked whole before
    a chunk is read: it holds k ones, no padding bit, and no high part past
    m >> L.  m >> L < 2k, so the bitmap's bits, like the low parts', are
    bounded by k, which is at most the body's bits.

    A chunk is the ones of ``_SEGMENT`` bitmap bytes, cut in lanes of the
    positions' item size.  The segment's bits are spread to bytes, 255 for
    a one, by one ``bytes.translate`` per bit; ANDed with the base-128
    digits of each bit's offset, each plus 128, and the bytes below 128
    deleted, they leave each one's digits in order.  The i-th one's bit
    offset less i is its high part h_i, a lane subtraction that no lane
    borrows through, as the i-th one lies at or past bit i; h_i shifted up
    by L, with its low part ORed in, is the position, which fits the lane,
    since h_i << L is at most m.  The chunk is checked as it is cut: its
    positions lie in 1..m and strictly increase, in lanes as
    :func:`_increasing` checks them, from the last of the chunk before."""
    head, off = _take(buf, off, _ID_HEAD.size)
    flags, k = _ID_HEAD.unpack(head)
    if flags > 1:
        raise ValueError(f"bad id flags {flags}")
    if k > m:
        raise ValueError("more stored positions than bits")
    L = _low_width(m, k)
    lows, off = _take(buf, off, (k * L + 7) // 8)
    nbits = k + (m >> L) + 1
    high, off = _take(buf, off, (nbits + 7) // 8)
    high = bytes(high)
    bits = int.from_bytes(high, "little")
    if bits >> nbits:
        raise ValueError("bitstream has padding bits set")
    if bits.bit_count() != k:
        raise ValueError("id high bits do not hold one 1 per position")
    if k and bits.bit_length() - k > m >> L:  # the last one's high part
        raise ValueError("position out of range")
    del bits
    typ = _POS32 if m >> 32 == 0 else "Q"

    def chunks():
        size = array(typ).itemsize
        bits = 8 * size
        most = min(8 * _SEGMENT, k)  # the most ones a segment holds
        steps = _lane_int(array(typ, range(most)), size)
        unit = _repeated(1, size, most)
        guard, less = _guards(size, most)
        spare = m.bit_length() < bits  # a lane's top bit is a guard
        low = _unpack_uniform(lows, L, k) if L else None
        at = last = 0  # the ones before the segment, and the last position
        for first in range(0, len(high), _SEGMENT):
            seg = high[first:first + _SEGMENT]
            n = sum(seg.translate(_POPCOUNT))
            if not n:
                continue
            # bit j of the segment as a byte, 255 where it is set; its two
            # digits j % 128 and j // 128, each plus 128, kept where it is
            # set give the ones' offsets in the segment, 128 * hi + lo
            ones = bytearray(8 * len(seg))
            for b in range(8):
                ones[b::8] = seg.translate(_BIT_FF[b])
            ones = int.from_bytes(ones, "little")
            lo, hi = (int.from_bytes(_relane((int.from_bytes(
                digits[:8 * len(seg)], "little") & ones).to_bytes(
                    8 * len(seg), "little").translate(None, _BELOW_128),
                1, size), "little") for digits in _DIGITS)
            cut = (1 << bits * n) - 1
            # less 128 * 129 for the two digits' top bits, and less i for
            # the i-th one, the zeros before each one are its high part
            pos = (lo + (hi << 7) - (steps & cut)
                   + (8 * first - at - 128 * 129) * (unit & cut)) << L
            if L:
                pos |= _lane_int(low[at:at + n], size)
            at += n
            # h_i never falls, but the low parts may where it stays
            head, tail = pos & (1 << bits) - 1, pos >> bits * (n - 1)
            if head < 1 or tail > m:
                raise ValueError("position out of range")
            chunk = array(typ)
            chunk.frombytes(pos.to_bytes(size * n, "little"))
            if _BIG_ENDIAN:
                chunk.byteswap()
            if head <= last or not (
                    _lanes_increase(pos, n, bits, guard, less) if spare
                    else all(map(lt, chunk, islice(chunk, 1, None)))):
                raise ValueError("positions must be strictly increasing")
            last = tail
            yield chunk
    return k, bool(flags), chunks(), off


def serialize_bitvector(v: Bitvector) -> bytes:
    """The stored body of v, without its kind or length."""
    if isinstance(v, PlainBitvector):
        size = v.b // 8
        return b"".join(w.to_bytes(size, "little")
                        for w in v.children)[:(v.m + 7) // 8]
    if isinstance(v, IdVector):
        return _pack_id(v)
    if isinstance(v, _CodedBlocks):
        if not 1 <= v.size <= v.max_size:
            raise ValueError(f"bad {v._size_name} block size {v.size}")
        return v.SIZE_FIELD.pack(v.size) + _pack_blocks(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


# block counts read between two checks of the summed body size; a multiple
# of 8, so that every full chunk is a whole number of bytes
_COUNT_CHUNK = 1 << 12


def _take(buf: bytes, off: int, size: int) -> tuple[bytes, int]:
    """The ``size`` bytes of buf at off, checked against the buffer."""
    if off + size > len(buf):
        raise ValueError("truncated")
    return buf[off:off + size], off + size


_NONZERO = b"\0" + b"\1" * 255  # a bytes.translate table: 1 where nonzero


def _below_row(ranks: array, counts: bytes, row: list[int]) -> bool:
    """Whether every ranks[i] < row[counts[i]], for ranks an ``array("H")``
    of values below 2^15, counts at least as long and every row entry at
    most 2^15.  Each rank, and each bound - 1 + 2^15, fills a 2-byte lane
    of one of two ints; no lane of their difference borrows from the next,
    and each keeps its bit 15 exactly when its rank is below its bound."""
    if _BIG_ENDIAN:  # the lanes are little-endian
        ranks = array("H", ranks)
        ranks.byteswap()
    n = len(ranks)
    top = [c - 1 + (1 << 15) for c in row]
    bounds = bytearray(2 * n)
    for at in (0, 1):
        byte = bytes(c >> 8 * at & 255 for c in top)
        bounds[at::2] = counts[:n].translate(byte.ljust(256, b"\0"))
    guard = int.from_bytes(b"\0\x80" * n, "little")
    return (int.from_bytes(bounds, "little") - int.from_bytes(ranks, "little")
            ) & guard == guard


def _read_blocks(buf: bytes, off: int, m: int, size: int, g: int):
    """Read what :func:`_pack_blocks` writes for the size-bit blocks
    covering m bits from buf at off, checked: every count lies in 0..l and
    every rank below C(l, k).  Returns the counts, ``_R`` over words of g
    blocks each (``_CodedBlocks.g``), the words as a :class:`_LazyWords`
    that unranks a word's blocks on its first read, and the offset just
    past the body.

    An empty or a full block (k = 0 or l) stores no rank, so only the
    ranks of the other blocks are read, checked and kept."""
    nblocks = (m + size - 1) // size
    bw = size.bit_length()
    view = memoryview(buf)
    stream, off = _take(view, off, (nblocks * bw + 7) // 8)
    cols = _pascal(size)
    last = m - (nblocks - 1) * size
    rows = {blen: _binomials(cols, blen) for blen in {size, last}}
    width_of = {blen: _width_row(blen) for blen in rows}
    # a count, and a width ceil(log2 C(l, k)), is at most the block size:
    # below 256, as at every fid u, both take one byte each, a chunk's
    # widths are its counts translated, and a count past the block size is
    # found by deleting the ones that fit
    small = size < 256
    if small:
        table = bytes(width_of[size]).ljust(256, b"\0")
        fits = bytes(range(size + 1))
        counts, widths = bytearray(), bytearray()
    else:
        table = width_of[size] + (0,) * ((1 << bw) - size - 1)
        counts, widths = array(_POS32), []
    # each block's body width follows from its count; the widths are summed
    # as the counts are read, a chunk of _COUNT_CHUNK at a time, and a sum
    # past the buffer is refused before the next chunk.  Of a count past its
    # block length and a sum past the room, the error names the first block
    # in order that has either fault
    room = 8 * (len(buf) - off)
    spent = 0
    for first in range(0, nblocks, _COUNT_CHUNK):
        chunk = stream[first * bw // 8:][:_COUNT_CHUNK * bw // 8]
        ks = _unpack_uniform(chunk, bw, min(_COUNT_CHUNK, nblocks - first))
        if small:
            ks = ks.tobytes()
            ws = ks.translate(table)
            past = bool(ks.translate(None, fits))
        else:
            ws = list(map(table.__getitem__, ks))
            past = max(ks) > size
        add = sum(ws)
        end = first + len(ks) == nblocks
        if end:  # the last block may be short
            tail = width_of[last][ks[-1]] if ks[-1] <= last else 0
            add += tail - ws[-1]
        if add > room - spent or past or (end and ks[-1] > last):
            for i, k in enumerate(ks, first):
                blen = last if i == nblocks - 1 else size
                if k > blen:
                    raise ValueError("more stored positions than bits")
                spent += width_of[blen][k]
                if spent > room:
                    raise ValueError("truncated")
        spent += add
        counts.extend(ks)
        widths.extend(ws)
    if nblocks:
        widths[-1] = tail
    stream, off = _take(view, off, (spent + 7) // 8)
    ranks = _unpack_bitstream(stream, widths.replace(b"\0", b"") if small
                              else list(filter(None, widths)))
    # every stored rank lies below C(l, k), the short last block's below
    # its own row
    short = last < size and widths[-1] > 0
    if max(width_of[size]) <= 15:  # at every fid u: C(14, 7) < 2^12
        ranks = array("H", ranks)
        # deleting the empty and full counts keeps those of the blocks that
        # store a rank, and at most one more at the end, the short last
        # block's, whatever it holds
        below = _below_row(ranks[:len(ranks) - short],
                           counts.translate(None, bytes((0, size))),
                           rows[size])
    else:
        below = all(map(lt, islice(ranks, len(ranks) - short),
                        map(rows[size].__getitem__,
                            compress(counts, widths))))
    if not below or short and ranks[-1] >= rows[last][counts[-1]]:
        raise ValueError("block rank out of range")

    def word_sums(sums, xs: Sequence[int], total: int):
        # sums, which holds 0, extended by the sums of xs up to the end of
        # every word of g blocks and of the last
        if g == 8 and 8 * size < 255:  # at every fid u: 8 x 14 < 255
            # a whole word's 8 bytes, each at most size, read as one int
            # are their sum mod 255 (256 is 1 mod 255), and it is below 255
            whole = memoryview(xs)[:nblocks - nblocks % 8].cast("Q")
            sums.extend(accumulate(map((255).__rmod__, whole)))
        else:
            sums.extend(islice(accumulate(xs), g - 1, None, g))
        if nblocks % g:  # the last word holds fewer than g blocks
            sums.append(total)
        return sums
    # the index in ranks of each word's first stored rank, and R
    stores = (widths.translate(_NONZERO) if small
              else bytes(map(bool, widths)))
    del widths
    firsts = word_sums(array(_POS32 if len(ranks) >> 32 == 0 else "Q", [0]),
                       stores, len(ranks))
    del stores
    if small:
        counts = bytes(counts)
    R = word_sums([0], counts, sum(counts))

    # each block's bit offset in its word, and its length: size, but for
    # the last block of the last word
    shifts = range(0, g * size, size)
    lens, tail = (size,) * g, (nblocks - 1) // g
    tail_lens = (size,) * ((nblocks - 1) % g) + (last,)

    def unrank(s: int) -> int:
        word = 0
        r = firsts[s]
        for at, blen, k in zip(shifts, tail_lens if s == tail else lens,
                               counts[s * g:s * g + g]):
            if k == blen:  # a full block stores no rank
                word |= ((1 << blen) - 1) << at
            elif k:
                word |= _decode_block(ranks[r], k, blen) << at
                r += 1
        return word
    return counts, R, _LazyWords(unrank), off


def deserialize_bitvector(kind: str, m: int, buf: bytes,
                          off: int = 0) -> tuple[Bitvector, int]:
    """Read the body of a ``kind`` vector of length m from buf at off.

    Every size is checked against the buffer before anything of that size
    is allocated or looped over.  Returns the vector and the offset just
    past its body.
    """
    cls = VECTORS.get(kind)
    if cls is None:
        raise ValueError(f"unknown back-end {kind!r}")
    if cls is PlainBitvector:
        raw, off = _take(buf, off, (m + 7) // 8)
        return cls._restore(m, raw), off
    if cls is IdVector:
        k, complemented, chunks, off = _read_id(buf, off, m)
        v = cls.__new__(cls)
        v._fill(m, k, chunks, complemented)
        return v, off
    head, off = _take(buf, off, cls.SIZE_FIELD.size)
    (size,) = cls.SIZE_FIELD.unpack(head)
    if not 1 <= size <= cls.max_size:
        raise ValueError(f"bad {cls._size_name} block size {size}")
    *state, off = _read_blocks(buf, off, m, size, cls.g)
    return cls._restore(m, size, *state), off

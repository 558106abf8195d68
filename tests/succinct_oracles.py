"""The fid block codec of file versions 3 to 5, the id body codecs of file
versions 3 to 6 and 7, the per-one cut of a vector into words and blocks,
the per-value stream writer, and two small helpers.

Those versions stored a fid block's offset as the lexicographic rank of its
bit string among the strings of its class; version 6 stores the
combinatorial rank of the fixed-block body, at the same width.  These
loops compute the lexicographic (class, offset) pairs one bit at a time,
and the pinned-history tests re-code version-6 fid bodies through them to
compare against the hashes the older versions recorded.

Up to version 6 an id body stored each position at (m + 1).bit_length()
bits; version 7 stores them as Elias-Fano.  The two codecs below write and
read both forms value by value: the referee of the lane codec, the tool of
the tests that hand-build id bodies, and the bridge by which the pinned
history tests re-code a version-7 id body to compare it against the hashes
that version 6 recorded.

The cut sets one bit per one-position and reads each word and block as a
shift of the packed bytes: the referee of the constructors, which pack the
positions through a flag array and cut the blocks in lanes.  The stream
writer packs one value at a time, at any mix of widths: the referee of the
lane writer, and the tool of the tests that hand-build vector bodies.
"""
import math
import struct
from itertools import accumulate


def block_lens(m: int, u: int) -> list[int]:
    """Lengths of the u-bit blocks covering m bits; only the last is short."""
    lens = [u] * (m // u)
    if m % u:
        lens.append(m % u)
    return lens


def parse_bits(s: str) -> tuple[int, tuple[int, ...]]:
    """(length, one-positions) of a '0'/'1' string."""
    return len(s), tuple(i + 1 for i, c in enumerate(s) if c == "1")


def encode_block(pattern: int, u: int) -> tuple[int, int]:
    """(class, offset) of a u-bit pattern; offset is the lexicographic rank
    of the pattern string (position 1 first, '0' < '1') among same-weight
    strings."""
    k = pattern.bit_count()
    offset = 0
    ones_left = k
    for pos in range(u):
        if (pattern >> pos) & 1:
            offset += math.comb(u - pos - 1, ones_left)
            ones_left -= 1
    return k, offset


def decode_block(cls: int, offset: int, u: int) -> int:
    """Inverse of :func:`encode_block`."""
    pattern = 0
    k = cls
    for pos in range(u):
        zeros_first = math.comb(u - pos - 1, k)
        if offset >= zeros_first:
            pattern |= 1 << pos
            offset -= zeros_first
            k -= 1
    if k or offset:
        raise ValueError("offset out of range for class")
    return pattern


def pack_positions(m: int, ones) -> bytearray:
    """Pack 1-based positions into ceil(m/8) little-endian bytes, bit i-1
    holding position i; the padding bits past m stay zero."""
    raw = bytearray((m + 7) >> 3)
    for p in ones:
        if not 1 <= p <= m:
            raise ValueError("one-position out of range")
        p -= 1
        raw[p >> 3] |= 1 << (p & 7)
    return raw


def block_words(m: int, ones, b: int) -> tuple[list[int], tuple[int, ...]]:
    """The b-bit words covering m bits, bit j of a word holding position
    j + 1 of its block, and the ranks before every word and after the
    last."""
    raw = pack_positions(m, ones)
    # the padding bits past m are zero, so the last word has blen bits
    mask = (1 << min(b, m)) - 1
    words = tuple((int.from_bytes(raw[at >> 3:((at + b) >> 3) + 1],
                                  "little") >> (at & 7)) & mask
                  for at in range(0, m, b))
    return [0, *accumulate(map(int.bit_count, words))], words


def split_words(words, m: int, size: int, g: int) -> list[int]:
    """The size-bit blocks covering m bits, cut from the words of g blocks
    each that cover them, read by index; the padding blocks past m in the
    last word are dropped."""
    mask = (1 << min(size, m)) - 1  # no block holds more than m bits
    shifts = range(0, g * size, size)
    nwords = -(-m // (g * size))
    return [(w >> s) & mask for w in map(words.__getitem__, range(nwords))
            for s in shifts][:-(-m // size)]


def pack_bitstream(values, widths) -> bytes:
    """Values LSB-first at the given bit widths, in ceil(sum/8) bytes."""
    out = bytearray()
    acc = 0
    at = 0  # bits pending in acc
    for v, w in zip(values, widths):
        acc |= v << at
        at += w
        while at >= 64:
            out += (acc & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
            acc >>= 64
            at -= 64
    out += acc.to_bytes((at + 7) // 8, "little")
    return bytes(out)


def ef_low_width(m: int, k: int) -> int:
    """L of an id body of version 7: floor(log2(m / k)), or floor(log2 m)
    for k = 0, and 0 at m = 0."""
    return max(0, (m // max(k, 1)).bit_length() - 1)


def ef_id_body(m: int, stored, complemented: bool = False) -> bytes:
    """A version-7 id body, written value by value: the flags byte, the
    u64 count k, the low L bits of each stored position at L bits, then a
    bitmap of k + (m >> L) + 1 bits with the i-th position's one (0-based)
    at bit (p >> L) + i.  The positions may come in any order, so that a
    test can write a body whose positions repeat or fall, but no two may
    set one bit, and none may lie past the bitmap."""
    k = len(stored)
    L = ef_low_width(m, k)
    nbits = k + (m >> L) + 1
    high = 0
    for i, p in enumerate(stored):
        bit = (p >> L) + i
        if bit >= nbits or high >> bit & 1:
            raise ValueError("the high parts do not fit a unary bitmap")
        high |= 1 << bit
    return (struct.pack("<BQ", int(complemented), k)
            + pack_bitstream([p & ((1 << L) - 1) for p in stored], [L] * k)
            + high.to_bytes((nbits + 7) // 8, "little"))


def read_ef_id_body(data: bytes, m: int, off: int = 0):
    """(complemented, stored positions, end offset) of the version-7 id
    body at off, read value by value."""
    flags, k = struct.unpack_from("<BQ", data, off)
    L = ef_low_width(m, k)
    off += 9
    end = off + (k * L + 7) // 8
    lows = int.from_bytes(data[off:end], "little")
    off, end = end, end + (k + (m >> L) + 1 + 7) // 8
    high = int.from_bytes(data[off:end], "little")
    stored = []
    bit = 0
    while high:
        if high & 1:
            i = len(stored)
            stored.append((bit - i) << L | (lows >> (i * L)) & ((1 << L) - 1))
        high >>= 1
        bit += 1
    return bool(flags), stored, end


def fixed_width_id_body(m: int, stored, complemented: bool = False) -> bytes:
    """An id body of versions 3 to 6: the flags byte, the u64 count, and
    each stored position at (m + 1).bit_length() bits."""
    return (struct.pack("<BQ", int(complemented), len(stored))
            + pack_bitstream(stored, [(m + 1).bit_length()] * len(stored)))

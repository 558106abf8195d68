"""The fid block codec of file versions 3 to 5, the per-one cut of a
vector into words and blocks, the per-value stream writer, and two small
helpers.

Those versions stored a fid block's offset as the lexicographic rank of its
bit string among the strings of its class; version 6 stores the
combinatorial rank of the fixed-block body, at the same width.  These
loops compute the lexicographic (class, offset) pairs one bit at a time,
and the pinned-history tests re-code version-6 fid bodies through them to
compare against the hashes the older versions recorded.

The cut sets one bit per one-position and reads each word and block as a
shift of the packed bytes: the referee of the constructors, which pack the
positions through a flag array and cut the blocks in lanes.  The stream
writer packs one value at a time, at any mix of widths: the referee of the
lane writer, and the tool of the tests that hand-build vector bodies.
"""
import math
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

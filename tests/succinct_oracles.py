"""The fid block codec of file versions 3 to 5, and two small helpers.

Those versions stored a fid block's offset as the lexicographic rank of its
bit string among the strings of its class; version 6 stores the
combinatorial rank of the fixed-block body, at the same width.  These
loops compute the lexicographic (class, offset) pairs one bit at a time,
and the pinned-history tests re-code version-6 fid bodies through them to
compare against the hashes the older versions recorded.
"""
import math


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

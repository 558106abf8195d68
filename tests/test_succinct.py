import math
import random
import struct
from array import array
from itertools import accumulate

import pytest

from xbwtrie import FixedBlockVector, IdVector, PlainBitvector, RrrVector
from xbwtrie.succinct import (_POS32, Bitvector, _code_table, _codes,
                              _decode_block, _increasing, _inverse_table,
                              _pack_positions,
                              _pack_uniform, _pascal, _rank_word,
                              _unpack_bitstream, _unpack_uniform, _unrank,
                              _width_row,
                              ceil_log2_comb, deserialize_bitvector,
                              serialize_bitvector)

from conftest import ranked_blocks
from succinct_oracles import (block_lens, block_words, decode_block,
                              ef_id_body, ef_low_width, encode_block,
                              pack_bitstream, pack_positions, parse_bits,
                              split_words)

B_B = "1010010"   # out-edge vector of the middle symbol in the figure index
B_A = "0000100"


def backends(m, ones, heavy=False):
    out = [
        PlainBitvector(m, ones),
        RrrVector(m, ones),
        IdVector(m, ones),
        IdVector(m, ones, complemented=heavy),
        FixedBlockVector(m, ones, b=5),
        # 4-bit blocks: a 7-bit vector ends in a short 3-bit block
        RrrVector(m, ones, u=4),
    ]
    return out


@pytest.fixture(params=range(6), ids=["plain", "rrr", "id", "id-comp",
                                      "fb-id", "rrr-u4"])
def backend(request):
    def make(bits01: str):
        return backends(*parse_bits(bits01), heavy=True)[request.param]
    return make


def test_rank_examples(backend):
    v = backend(B_B)
    assert v.rank(5) == 2
    assert v.rank(0) == 0
    assert v.rank(7) == 3
    assert backend(B_A).rank(4) == 0


def test_rank_monotone_and_range(backend):
    v = backend(B_B)
    assert [v.rank(i) for i in range(8)] == [0, 1, 1, 2, 2, 2, 3, 3]
    with pytest.raises(ValueError, match="out of range"):
        v.rank(8)
    with pytest.raises(ValueError):
        v.rank(-1)


def test_id_restore_checks_stored_positions():
    assert IdVector._restore(10, [1, 4, 10], False).ones == 3
    for stored in ([0, 4], [4, 11], [0, 11]):
        with pytest.raises(ValueError, match="out of range"):
            IdVector._restore(10, stored, False)
    for stored in ([4, 4], [5, 3], [2, 7, 7, 9], [1, 5, 3, 9]):
        with pytest.raises(ValueError, match="strictly increasing"):
            IdVector._restore(10, stored, True)


def _fid_body(u, classes, offsets, widths):
    """u, then the fixed-block body at b = u after its u64 b."""
    return bytes((u,)) + _fixed_block_body(u, classes, offsets, widths)[8:]


def test_rrr_restore_checks_every_block():
    """Each block's class lies in 0..blen and its offset below C(blen,
    class), in every full block and in the short last block, as the loader
    reads them from a packed body, with the messages of the fixed-block
    body."""
    # m = 8, u = 4: two full blocks; m = 7: a full block and a 3-bit one.
    # The classes take 3 bits, an offset ceil(log2 C(blen, class)) bits
    for m, offsets in ((8, [5, 3]), (7, [5, 2])):
        body = _fid_body(4, [2, 1], offsets, [3, 2])
        v, used = deserialize_bitvector("fid", m, body)
        assert v.ones == 3 and used == len(body)
    for m, classes, offsets, widths, message in (
            # C(4, 2) = 6 in a full block
            (8, [2, 1], [6, 0], [3, 2], "block rank out of range"),
            # ... in the last full block
            (8, [1, 2], [0, 6], [2, 3], "block rank out of range"),
            # C(3, 1) = 3 in the short last block
            (7, [2, 1], [0, 3], [3, 2], "block rank out of range"),
            # C(3, 0) = 1 in the short last block: a class-0 offset takes no
            # bit, so offset 1 is a set bit past the stream
            (7, [2, 0], [0, 1], [3, 1], "bitstream has padding bits set"),
            # class 5 in a 4-bit block
            (8, [5, 1], [0, 0], [0, 2], "more stored positions than bits"),
            # class 4 in the 3-bit last block
            (7, [2, 4], [0, 0], [3, 0], "more stored positions than bits"),
            # class -1, all ones at 3 bits
            (7, [7, 1], [0, 0], [0, 2], "more stored positions than bits"),
            # offset -1, all ones at 3 bits
            (7, [2, 1], [7, 0], [3, 2], "block rank out of range"),
            # the streams stop a block short: the offsets are missing
            (7, [2, 1], [], [], "truncated")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            deserialize_bitvector("fid", m,
                                  _fid_body(4, classes, offsets, widths))


def test_rrr_offset_checked_at_every_class():
    """At every u and class k in 1..u-1, offsets of C(u, k) - 1 load, and
    an offset of C(u, k) (when it fits its width) is refused in any of
    three blocks, the others holding their largest offsets."""
    for u in range(2, 15):
        for k in range(1, u):
            c, w = math.comb(u, k), ceil_log2_comb(u, k)
            offsets = [c - 1] * 3
            v, _ = deserialize_bitvector(
                "fid", 3 * u, _fid_body(u, [k] * 3, offsets, [w] * 3))
            assert v.ones == 3 * k
            if c == 2 ** w:
                continue
            for bad in range(3):
                offsets = [c - 1] * 3
                offsets[bad] = c
                with pytest.raises(ValueError,
                                   match="^block rank out of range$"):
                    deserialize_bitvector(
                        "fid", 3 * u, _fid_body(u, [k] * 3, offsets, [w] * 3))


def test_rrr_loader_checks_every_class():
    """A stored class past its block length is refused before any offset
    is read, in a full block and in the short last block."""
    # m = 7, u = 4: classes at 3 bits, then the offsets
    for classes in ([5, 1], [2, 4]):
        body = b"\x04" + pack_bitstream(classes, [3, 3]) + bytes(2)
        with pytest.raises(ValueError,
                           match="^more stored positions than bits$"):
            deserialize_bitvector("fid", 7, body)


def test_select_examples(backend):
    assert backend(B_B).select(2) == 3
    assert backend("1000000").select(1) == 1
    assert backend(B_A).select(1) == 5
    with pytest.raises(ValueError):
        backend(B_B).select(4)
    with pytest.raises(ValueError):
        backend(B_B).select(0)


def test_rank_select_inverse(backend):
    v = backend(B_B)
    for i in range(1, v.ones + 1):
        assert v.rank(v.select(i)) == i


def test_prank(backend):
    v = backend(B_B)
    assert v.prank(3) == 2
    assert v.prank(2) == -1
    assert backend("1").prank(1) == 1
    with pytest.raises(ValueError):
        v.prank(0)


def test_access(backend):
    v = backend(B_B)
    assert [v.access(i) for i in range(1, 8)] == [1, 0, 1, 0, 0, 1, 0]


# --- block codec -----------------------------------------------------------

def test_codec_bijection_exhaustive():
    """The lexicographic reference codec, which re-codes fid bodies into
    their version-5 form, is a bijection at every block length up to 14."""
    for u in range(1, 15):
        seen = {}
        for word in range(1 << u):
            cls, off = encode_block(word, u)
            assert cls == bin(word).count("1")
            assert 0 <= off < math.comb(u, cls)
            assert decode_block(cls, off, u) == word
            seen.setdefault(cls, set()).add(off)
        for cls, offs in seen.items():
            assert offs == set(range(math.comb(u, cls)))


def test_codec_offsets_are_lexicographic():
    u = 6
    for cls in range(u + 1):
        words = [w for w in range(1 << u) if bin(w).count("1") == cls]
        by_string = sorted(words, key=lambda w: tuple((w >> p) & 1
                                                      for p in range(u)))
        assert [encode_block(w, u)[1] for w in by_string] == \
            list(range(len(words)))


def test_codec_sampled_large_u():
    rng = random.Random(5)
    for u in range(13, 21):
        for _ in range(50):
            word = rng.getrandbits(u)
            cls, off = encode_block(word, u)
            assert decode_block(cls, off, u) == word


# --- payload accounting ----------------------------------------------------

def test_rrr_payload_example():
    v = RrrVector(*parse_bits("11000001"), u=4)
    assert v.payload_bits().payload == 3 + 2  # ceil(log C(4,2)) + ceil(log C(4,1))


def test_rrr_payload_all_zero():
    v = RrrVector(64, (), u=4)
    assert v.payload_bits().payload == 0


def test_rrr_payload_alternating():
    m = 64
    ones = tuple(range(1, m + 1, 2))
    v = RrrVector(m, ones, u=4)
    assert v.payload_bits().payload == (m // 4) * ceil_log2_comb(4, 2)


def _fid_blocks(v):
    """(length, class, offset) of every block of the fid vector v, read off
    its serialized body: u, the classes at u.bit_length() bits, then each
    offset at ceil(log2 C(length, class)) bits."""
    body = serialize_bitvector(v)
    u = body[0]
    lens = block_lens(v.m, u)
    head = 1 + (len(lens) * u.bit_length() + 7) // 8
    classes = _unpack_uniform(body[1:head], u.bit_length(), len(lens))
    offsets = _unpack_bitstream(body[head:], list(map(ceil_log2_comb, lens,
                                                      classes)))
    return list(zip(lens, classes, offsets))


def test_rrr_per_block_bound():
    # ceil(log C(len, class)) <= len * H0(block) + 1 for every block.
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 300)
        ones = [p for p in range(1, m + 1) if rng.random() < rng.random()]
        v = RrrVector(m, ones)
        for blen, cls, _ in _fid_blocks(v):
            h0 = 0.0
            if 0 < cls < blen:
                h0 = (cls * math.log2(blen / cls)
                      + (blen - cls) * math.log2(blen / (blen - cls)))
            assert ceil_log2_comb(blen, cls) <= h0 + 1 + 1e-9


def _exact_ceil_log2_comb(n, k):
    return (math.comb(n, k) - 1).bit_length()


def test_ceil_log2_comb_exact():
    for n in range(201):
        for k in range(n + 1):
            assert ceil_log2_comb(n, k) == _exact_ceil_log2_comb(n, k), (n, k)
    for e in range(64):  # C(n, 1) = n is a power of two
        n = 2 ** e
        for k in {0, 1, n - 1, n}:
            assert ceil_log2_comb(n, k) == _exact_ceil_log2_comb(n, k), (n, k)
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 2 ** rng.randint(1, 20))
        # the reference's cost grows with min(k, n - k); keep it below 2^13
        j = rng.randint(0, min(n // 2, 2 ** rng.randint(0, 13)))
        k = rng.choice((j, n - j))
        assert ceil_log2_comb(n, k) == _exact_ceil_log2_comb(n, k), (n, k)
    n = 2 ** 63  # far past the range where the estimate's bound is small
    for k in (2, 3, n - 5):
        assert ceil_log2_comb(n, k) == _exact_ceil_log2_comb(n, k)
    assert ceil_log2_comb(10 ** 400, 1) == (10 ** 400 - 1).bit_length()


def test_id_payload_and_complement():
    m, ones = parse_bits("1110111")
    plainv = IdVector(m, ones)
    comp = IdVector(m, ones, complemented=True)
    assert plainv.payload_bits().payload == comp.payload_bits().payload
    assert comp.stored_items() == 1
    # one zero among 64 bits: 11 bytes stored as the zero, 25 as the ones
    # (at m = 7 both Elias-Fano bodies take 11 bytes)
    m, ones = parse_bits("1" * 31 + "0" + "1" * 32)
    plainv = IdVector(m, ones)
    comp = IdVector(m, ones, complemented=True)
    assert plainv.payload_bits().payload == comp.payload_bits().payload
    assert comp.payload_bits().total < plainv.payload_bits().total
    assert (comp.payload_bits().total, plainv.payload_bits().total) == \
        (88, 200)
    # zeros inside, at 1, at m, adjacent, or none at all
    for bits in ("1110111", "0111111", "1111110", "1100111", "0010011",
                 "0011110", "1111111", "1", "0"):
        m, ones = parse_bits(bits)
        ref = PlainBitvector(m, ones)
        comp = IdVector(m, ones, complemented=True)
        assert comp.ones == ref.ones
        for i in range(0, m + 1):
            assert comp.rank(i) == ref.rank(i), (bits, i)
        for i in range(1, m + 1):
            assert comp.access(i) == ref.access(i), (bits, i)
            assert comp.prank(i) == ref.prank(i), (bits, i)
        for i in range(1, ref.ones + 1):
            assert comp.select(i) == ref.select(i), (bits, i)


def _id_directory_cases():
    """(m, stored) pairs with stored positions on every bucket edge: at
    h * 2^L - 1, h * 2^L and h * 2^L + 1, as many as k allows, the rest
    drawn at random; m = 0, k = 0 and k = m among them, and lengths that
    end on a bucket boundary and just past one, so the last bucket is
    sometimes a single position."""
    rng = random.Random(23)
    for m in (0, 1, 2, 9, 100, 1023, 1024, 1025, 4097):
        for k in sorted({0, 1, m // 50, m // 7, m // 2, m - 1, m}):
            if not 0 <= k <= m:
                continue
            # the bucket width follows from m and k alone
            L = IdVector._restore(m, range(1, k + 1), False)._L
            edges = sorted({p for h in range(1, (m >> L) + 2)
                            for p in ((h << L) - 1, h << L, (h << L) + 1)
                            if 1 <= p <= m})
            stored = set(edges[:k])
            rest = [p for p in range(1, m + 1) if p not in stored]
            stored.update(rng.sample(rest, k - len(stored)))
            yield m, sorted(stored)


def test_id_bucket_directory_against_prefix_sums():
    """An ID vector bisects one bucket of its stored positions' offsets:
    every query agrees with the referee, complemented or not; the directory
    holds at most k // 8 + 2 entries for k stored positions, each the
    count of stored positions below its bucket, and each offset is its
    position's low _L bits; the constructor stores the same positions, and
    a file round trip is byte-identical and restores the same fields."""
    for m, stored in _id_directory_cases():
        k = len(stored)
        for complemented in (False, True):
            v = IdVector._restore(m, stored, complemented)
            ones = (sorted(set(range(1, m + 1)) - set(stored))
                    if complemented else stored)
            _assert_matches_bits(v, _bits(m, ones))
            assert list(v._stored()) == stored and v.stored_items() == k
            assert len(v._D) <= k // 8 + 2, (m, k)
            assert list(v._D) == [sum(p < h << v._L for p in stored)
                                  for h in range((m >> v._L) + 2)]
            assert v._D[0] == 0 and v._D[-1] == k
            assert list(v._low) == [p & (1 << v._L) - 1 for p in stored]
            blob = serialize_bitvector(v)
            assert serialize_bitvector(IdVector(m, ones, complemented)) == blob
            assert blob == ef_id_body(m, stored, complemented)
            back, used = deserialize_bitvector("id", m, blob)
            assert used == len(blob) and serialize_bitvector(back) == blob
            assert (back._L, back._D, back._low) == (v._L, v._D, v._low)


@pytest.mark.parametrize("m, k", [
    (100, 60), (200, 150), (70_000, 3000), (2 ** 32 - 2, 3000),
    (2 ** 40, 3000), (2 ** 62, 3000), (2 ** 64 - 1, 40)],
    ids=["1-byte-spare", "1-byte-wide", "4-byte-spare", "4-byte-wide",
         "8-byte-spare", "8-byte-63", "65-bit"])
def test_id_load_refuses_any_non_increasing_pair(m, k):
    """A loaded id body whose positions repeat or fall once, in the first,
    a middle or the last pair, or across a chunk of the lane test, is
    refused; the sorted body loads.  Elias-Fano's high parts cannot fall,
    so a fall is written inside one high part, where the low parts do, and
    at L = 0 (the first two cases) only a repeat can be written.  The
    cases are named by the items that file version 6 read each length's
    positions into; they cover both lane sizes that version 7 reads
    positions in, 4 and 8 bytes, with the top bit spare and in use."""
    rng = random.Random(k)
    # the positions lie near m, so they use the top bits of their items
    pos = sorted(rng.sample(range(max(1, m - 10 * k), m + 1), k))
    back, _ = deserialize_bitvector("id", m, ef_id_body(m, pos))
    assert back.one_positions() == pos
    # neighbours more than half an item apart load too: a lane whose top
    # bit is in use would carry into the next
    far = [1, 2, m]
    assert deserialize_bitvector("id", m, ef_id_body(m, far))[0
                                 ].one_positions() == far
    L = ef_low_width(m, k)
    for i in {0, 1, k // 2, 1022, 1023, 1024, 2047, k - 2} & set(range(k - 1)):
        bad = [[*pos[:i + 1], pos[i], *pos[i + 2:]]]
        if pos[i] >> L == pos[i + 1] >> L:
            bad.append([*pos[:i], pos[i + 1], pos[i], *pos[i + 2:]])
        elif pos[i] & (1 << L) - 1:  # one less, in pos[i]'s high part
            bad.append([*pos[:i + 1], pos[i] - 1, *pos[i + 2:]])
        for stored in bad:
            with pytest.raises(ValueError,
                               match="^positions must be strictly increasing$"):
                deserialize_bitvector("id", m, ef_id_body(m, stored))


def test_id_load_refuses_hostile_elias_fano():
    """A body whose bitmap is cut short or holds a one more or a one fewer
    than k, whose streams have padding bits set, or that puts a position
    outside 1..m, through its high part or its low part, is refused."""
    rng = random.Random(41)
    m, k = 1000, 100
    stored = sorted(rng.sample(range(1, m + 1), k))
    L = ef_low_width(m, k)
    body = ef_id_body(m, stored)
    high = 9 + (k * L + 7) // 8  # the bitmap's first byte
    nbits = k + (m >> L) + 1
    assert (L, nbits, len(body)) == (3, 226, high + 29)
    assert deserialize_bitvector("id", m, body)[0].one_positions() == stored
    bits = int.from_bytes(body[high:], "little")
    ones = [j for j in range(nbits) if bits >> j & 1]
    zero = next(j for j in range(nbits) if not bits >> j & 1)

    def with_bitmap(b):
        return body[:high] + b.to_bytes(len(body) - high, "little")
    for bad, message in (
            (body[:-1], "truncated"),
            (with_bitmap(bits | 1 << zero), "id high bits do not hold one 1 per "
             "position"),
            (with_bitmap(bits & ~(1 << ones[0])), "id high bits do not hold "
             "one 1 per position"),
            # the last one moved to the bitmap's last bit: high part
            # m >> L + 1
            (with_bitmap(bits & ~(1 << ones[-1]) | 1 << nbits - 1),
             "position out of range"),
            (with_bitmap(bits | 1 << nbits), "bitstream has padding bits set"),
            (body[:high - 1] + bytes((body[high - 1] | 0x80,)) + body[high:],
             "bitstream has padding bits set"),
            # high part m >> L = 125 and low part 7: 1007
            (ef_id_body(m, [*stored[:-1], 1007]), "position out of range"),
            (ef_id_body(m, [0, *stored[1:]]), "position out of range")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            deserialize_bitvector("id", m, bad)


@pytest.mark.parametrize("m", [1, 7, 1000, 2 ** 32 - 1, 2 ** 40, 2 ** 63,
                               2 ** 64 - 1])
def test_id_body_bounded_by_its_count(m):
    """An id body's bitmap holds k + (m >> L) + 1 bits, and m >> L < 2k, so
    a body of k positions spends at least a bit on each and its bitmap
    holds at most 3k bits, whatever length m a header declares: a load's
    work follows from the body's bytes.  The bits are the accounted cost,
    and three positions of m = 2^64 - 1 load in a few kilobytes."""
    import tracemalloc
    for k in range(1, min(m, 300) + 1):
        L = ef_low_width(m, k)
        assert m >> L < 2 * k, (m, k)
        stored = list(range(1, k + 1))
        assert 8 * len(ef_id_body(m, stored)) == \
            IdVector.cost(m, k, False).total
    body = ef_id_body(m, sorted({1, m // 2 + 1, m}))
    tracemalloc.start()
    try:
        v, used = deserialize_bitvector("id", m, body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert used == len(body) and v.one_positions() == sorted({1, m // 2 + 1,
                                                             m})
    assert peak <= 64 * 1024


def test_id_positions_at_64_bits():
    """The offsets sit in the narrowest items of _L bits, one byte while
    m / k < 32, 4-byte ones below m = 2^32 and 8-byte ones from there on
    for one stored position, and rank holds up to m = 2^64 - 1, the
    largest length a file can declare."""
    assert IdVector._restore(2 ** 16, range(1, 2 ** 16 + 1, 4), False
                             )._low.itemsize == 1
    assert IdVector._restore(2 ** 32 - 1, [2 ** 32 - 1], False
                             )._low.itemsize == 4
    assert IdVector._restore(2 ** 32, [2 ** 32], False)._low.itemsize == 8
    m = 2 ** 64 - 1
    v = IdVector._restore(m, [1, 2 ** 63, m], False)
    assert [v.rank(i) for i in (0, 1, 2, 2 ** 63 - 1, 2 ** 63, m)] == [
        0, 1, 1, 1, 2, 3]
    assert [v.select(j) for j in (1, 2, 3)] == [1, 2 ** 63, m]
    assert (v.access(2 ** 63 - 1), v.access(2 ** 63), v.access(m)) == (0, 1, 1)
    blob = serialize_bitvector(v)
    back, used = deserialize_bitvector("id", m, blob)
    assert used == len(blob) and serialize_bitvector(back) == blob


def test_constructors_accept_unsorted_duplicates():
    """Every back-end takes its one-positions in any order and with
    repeats, and answers as the referee over the distinct positions."""
    rng = random.Random(31)
    for m in (1, 7, 64, 300, 1025):
        for density in (0.0, 0.1, 0.6, 1.0):
            ones = _random_ones(rng, m, density)
            messy = list(ones) + (rng.choices(ones, k=len(ones) // 2 + 1)
                                  if ones else [])
            rng.shuffle(messy)
            built = backends(m, messy, heavy=True)
            for v, tidy in zip(built, backends(m, ones, heavy=True)):
                _assert_matches_bits(v, _bits(m, ones))
                assert serialize_bitvector(v) == serialize_bitvector(tidy)


def test_increasing_is_exact_for_any_items():
    """``_increasing`` agrees with a pairwise comparison on arrays of every
    item size, also where items have their top bit set and a lane could
    borrow; so the id constructor, which checks an array's range at its
    ends only once it increases, and the id restore refuse a position past
    m between valid ends."""
    rng = random.Random(45)
    for typ in ("B", "H", _POS32, "Q"):
        top = 8 * array(typ).itemsize
        for k in (0, 1, 2, 3, 100, 1025, 3000):
            for spread in (8, top - 1, top):
                values = sorted(rng.getrandbits(spread) for _ in range(k))
                for case in (values, sorted(set(values)),
                             [*sorted(set(values)), 1]):
                    want = all(a < b for a, b in zip(case, case[1:]))
                    assert _increasing(array(typ, case)) == want, (typ, k)
    # the lane pass reads the pair (2^31 + 10, 5) as increasing, borrowing
    # from the next lane
    hostile = array(_POS32, [1, 50, 2 ** 31 + 10, 5, 60])
    assert not _increasing(hostile)
    with pytest.raises(ValueError, match="^one-position out of range$"):
        IdVector(100, hostile)
    with pytest.raises(ValueError, match="strictly increasing"):
        IdVector._restore(100, hostile, False)


def test_id_takes_a_column_array_as_it_stands():
    """An increasing array of the vector's item type is kept as given, and
    one that does not increase is sorted; either way a position outside
    1..m is refused."""
    ones = array(_POS32, [2, 3, 9])
    assert list(IdVector(9, ones)._stored()) == [2, 3, 9]
    assert IdVector(9, array(_POS32, [9, 2, 3, 2])).one_positions() == \
        [2, 3, 9]
    for bad in ([0, 3], [3, 10], [10, 3], [3, 0, 5]):
        with pytest.raises(ValueError, match="^one-position out of range$"):
            IdVector(9, array(_POS32, bad))


def test_negative_length_refused_by_every_constructor():
    for make in (PlainBitvector, RrrVector, IdVector,
                 lambda m, ones: FixedBlockVector(m, ones, 4)):
        with pytest.raises(ValueError, match="^length must be nonnegative$"):
            make(-1, [])


def test_accounted_bits_are_the_body():
    """A vector's payload and overhead are its body's bits, built and
    loaded: every ``backends`` variant, fid at every u and fixed-block at
    b = 300 and 510, over lengths with a short last block and at densities
    that store id's complement."""
    rng = random.Random(5)
    for m in (0, 1, 7, 13, 64, 700, 5000):
        for density in (0.0, 0.3, 0.9, 1.0):
            ones = _random_ones(rng, m, density)
            for v in [*backends(m, ones, heavy=True),
                      *(RrrVector(m, ones, u) for u in range(1, 15)),
                      *(FixedBlockVector(m, ones, b) for b in (300, 510))]:
                body = serialize_bitvector(v)
                back, _ = deserialize_bitvector(v.kind, m, body)
                for w in (v, back):
                    assert w.payload_bits().total == 8 * len(body), (
                        v.kind, m, density, getattr(v, "size", None))


def test_queries_checked_once_in_base_class():
    """Back-ends supply only the unchecked _rank, from which Bitvector's
    access and select derive, each one entry with no unchecked twin; plain,
    fid and fixed-block share one word-block rank and one bulk read."""
    leaves, todo = set(), [Bitvector]
    while todo:
        cls = todo.pop()
        subs = cls.__subclasses__()
        todo += subs
        if not subs:
            leaves.add(cls)
    assert {cls.__name__ for cls in leaves} == {
        "PlainBitvector", "RrrVector", "IdVector", "FixedBlockVector"}
    for cls in leaves:
        for base in cls.__mro__[:cls.__mro__.index(Bitvector)]:
            assert not set(vars(base)) & {"rank", "access", "select",
                                          "prank"}, base
        assert cls._rank is not Bitvector._rank, cls
        assert not hasattr(cls, "_access") and not hasattr(cls, "_select")
    for name in ("_rank", "one_positions"):
        assert getattr(PlainBitvector, name) is getattr(RrrVector, name) \
            is getattr(FixedBlockVector, name)


def test_payload_breakdown_sums():
    for v in backends(*parse_bits(B_B)):
        cost = v.payload_bits()
        assert cost.total == cost.payload + cost.overhead
        assert cost.payload >= 0 and cost.overhead >= 0


# --- cross-back-end equivalence -------------------------------------------

def _prefix_ranks(m, ones):
    """rank(0..m) as prefix sums over the bits: a referee that shares no
    code with any back-end."""
    bits = [0] * (m + 1)
    for p in ones:
        bits[p] = 1
    return list(accumulate(bits))


def test_backends_agree_on_random_vectors():
    """Every back-end answers as plain does, and plain, which shares its
    query path with fid and fixed-block, as the prefix sums over the bits."""
    rng = random.Random(99)
    for _ in range(120):
        m = rng.randint(1, 400)
        density = rng.choice([0.02, 0.1, 0.5, 0.9, 0.98])
        ones = tuple(p for p in range(1, m + 1) if rng.random() < density)
        prefix = _prefix_ranks(m, ones)
        ref = PlainBitvector(m, ones)
        assert ref.ones == len(ones)
        assert ref.one_positions() == list(ones)
        others = [
            RrrVector(m, ones),
            IdVector(m, ones),
            IdVector(m, ones, complemented=True),
            FixedBlockVector(m, ones, b=rng.choice([1, 3, 17, 64, 500])),
            RrrVector(m, ones, u=5),
        ]
        probes = sorted(rng.sample(range(m + 1), min(m + 1, 12)))
        for v in others:
            assert v.ones == ref.ones
            for i in probes:
                assert v.rank(i) == ref.rank(i) == prefix[i], (v.kind, m, i)
                if i >= 1:
                    assert v.prank(i) == ref.prank(i) == (
                        prefix[i] if prefix[i] > prefix[i - 1] else -1)
            for j in range(1, ref.ones + 1):
                assert v.select(j) == ref.select(j) == ones[j - 1]
        for v in (ref, *others, *backends(m, ones, heavy=True)):
            assert v.one_positions() == [v.select(j)
                                         for j in range(1, v.ones + 1)]


def test_rank_matches_prefix_sums():
    """rank and the unchecked _rank at every i, so every block and
    superblock boundary and the short last block are all hit."""
    rng = random.Random(12)

    def check(v, ones):
        prefix = [0] * (v.m + 1)
        for p in ones:
            prefix[p] = 1
        for i in range(1, v.m + 1):
            prefix[i] += prefix[i - 1]
        assert [v.rank(i) for i in range(v.m + 1)] == prefix
        assert [v._rank(i) for i in range(v.m + 1)] == prefix

    for density in (0.1, 0.5, 0.9):
        for m in (0, 1, 64, 517, 1200, 1283):
            ones = _random_ones(rng, m, density)
            for v in backends(m, ones, heavy=True):
                check(v, ones)
        for u in (1, 3, 8, 13, 14):
            # 16 blocks end on a superblock boundary; for u > 1, 17 blocks
            # and a bit leave a short last block
            for m in (16 * u, 17 * u + u // 2 + 1):
                ones = _random_ones(rng, m, density)
                check(RrrVector(m, ones, u), ones)


# --- serialization ---------------------------------------------------------

def test_serialize_round_trip():
    rng = random.Random(21)
    for _ in range(40):
        m = rng.randint(1, 300)
        ones = tuple(p for p in range(1, m + 1) if rng.random() < 0.3)
        for v in backends(m, ones, heavy=True):
            blob = serialize_bitvector(v)
            back, used = deserialize_bitvector(v.kind, v.m, blob)
            assert used == len(blob)
            assert serialize_bitvector(back) == blob
            assert back.kind == v.kind and back.m == v.m
            assert back.one_positions() == v.one_positions()
            for i in range(0, m + 1, max(1, m // 7)):
                assert back.rank(i) == v.rank(i)


def test_deserialize_errors():
    v = PlainBitvector(*parse_bits(B_B))
    blob = serialize_bitvector(v)
    with pytest.raises(ValueError, match="truncated"):
        deserialize_bitvector("plain", 7, blob[:0])
    with pytest.raises(ValueError, match="unknown back-end"):
        deserialize_bitvector("tagged", 7, blob)


def test_serialized_framing():
    import struct
    m, ones = parse_bits(B_B)  # ones at 1, 3, 6
    # plain packs bits LSB-first: 1010010 -> 0b0100101 = 0x25
    assert serialize_bitvector(PlainBitvector(m, ones)) == b"\x25"
    # rrr: u, then the classes at u.bit_length() bits, then the offsets at
    # ceil(log2 C(block length, class)) bits.  u = 1: the classes are the
    # bits themselves and no offset takes a bit (C(1, c) = 1)
    assert serialize_bitvector(RrrVector(m, ones, u=1)) == b"\x01\x25"
    # the default u = 14: one short block 1010010 of class 3 at 4 bits;
    # its ones {0, 2, 5} rank C(0, 1) + C(2, 2) + C(5, 3) = 11 of
    # C(7, 3) = 35 (6 bits)
    assert serialize_bitvector(RrrVector(m, ones)) == b"\x0e\x03\x0b"
    # u = 4: blocks 1010 (class 2) and 010 (class 1) at 3 bits, 2 | 1 << 3;
    # offsets, the ranks of the fixed-block body below: the ones {0, 2}
    # rank C(0, 1) + C(2, 2) = 1 of C(4, 2) = 6 (3 bits), the one {1}
    # C(1, 1) = 1 of C(3, 1) = 3 (2 bits)
    assert serialize_bitvector(RrrVector(m, ones, u=4)) == \
        b"\x04" + bytes((2 | 1 << 3, 1 | 1 << 3))
    # id: flags, u64 count k, then Elias-Fano: the low L = floor(log2(m /
    # k)) bits of each position, then a bitmap of k + (m >> L) + 1 bits
    # with the i-th position's one at (p >> L) + i.  The ones 1, 3, 6:
    # L = 1, low parts 1, 1, 0 (0b011); high parts 0, 1, 3 at bits 0, 2, 5
    # of 7 bits (0b100101).  The zeros 2, 4, 5, 7: L = 0, no low part;
    # high parts 2, 4, 5, 7 at bits 2, 5, 7, 10 of 12 (0b10010100100)
    assert serialize_bitvector(IdVector(m, ones)) == \
        b"\x00" + struct.pack("<Q", 3) + b"\x03\x25"
    assert serialize_bitvector(IdVector(m, ones, complemented=True)) == \
        b"\x01" + struct.pack("<Q", 4) + b"\xa4\x04"
    # fixed-block: u64 b, the blocks' one-counts at b.bit_length() = 3 bits
    # (2 | 1 << 3), then one stream of block bodies: each block's rank, in
    # the combinatorial number system, of its ones (of its zeros when 2k > l)
    # at ceil(log2 C(l, k)) bits.  10100 holds the ones {0, 2} (0-based):
    # C(0, 1) + C(2, 2) = 1 at ceil(log2 C(5, 2) = 10) = 4 bits.  10 holds
    # the one {0}: C(0, 1) = 0 at ceil(log2 C(2, 1) = 2) = 1 bit.  The
    # stream is 1 | 0 << 4
    assert serialize_bitvector(FixedBlockVector(m, ones, b=5)) == \
        struct.pack("<Q", 5) + bytes((2 | 1 << 3, 1))
    # 11011 holds 4 ones, so its zero {2} is ranked: C(2, 1) = 2 at
    # ceil(log2 C(5, 4) = 5) = 3 bits; 11 is full, C(2, 2) = 1, 0 bits
    assert serialize_bitvector(FixedBlockVector(7, [1, 2, 4, 5, 6, 7],
                                                b=5)) == \
        struct.pack("<Q", 5) + bytes((4 | 2 << 3, 2))


def _blocks_of(v, bits):
    """(length, one-count, child) of every block of v, read off bits."""
    for bi, child in enumerate(v.children):
        block = bits[bi * v.b:(bi + 1) * v.b]
        yield len(block), sum(block), child


def _block_vectors():
    """Fixed-block vectors whose blocks are empty, full, sparse, dense,
    half full and random, at block lengths of the 2^j - 2 form of the
    default ``FixedBlockVector.block_size`` and around one 64-bit word, with
    a short last block or none."""
    rng = random.Random(14)
    for b in (1, 2, 5, 6, 14, 62, 63, 64, 126):
        for tail in (0, 1, b // 2 + 1, b - 1):
            fills = [0, b, 1, b - 1, b // 2, b // 3, 2 * b // 3,
                     rng.randint(0, b)]
            rng.shuffle(fills)
            bits = []
            for k in fills:
                block = [1] * k + [0] * (b - k)
                rng.shuffle(block)
                bits += block
            bits += [rng.randint(0, 1) for _ in range(tail)]
            m = len(bits)
            yield FixedBlockVector(m, [i + 1 for i in range(m) if bits[i]],
                                   b), bits


def test_fixed_block_children_are_raw_words():
    """Every child is an int of its block's bits, bit j holding in-block
    position j + 1, and the loaded children, read by block index, equal
    the built ones; the queries equal plain's, and the prefix sums over
    the bits, at every position, so every block edge, before and after a
    file round trip."""
    for v, bits in _block_vectors():
        blocks = list(_blocks_of(v, bits))
        assert sum(blen for blen, _, _ in blocks) == v.m
        at = 0
        for blen, k, child in blocks:
            assert child.__class__ is int and 0 <= child < 1 << blen
            assert child.bit_count() == k
            assert child == sum(bits[at + j] << j for j in range(blen))
            at += blen
        positions = [i + 1 for i in range(v.m) if bits[i]]
        prefix = _prefix_ranks(v.m, positions)
        ref = PlainBitvector(v.m, positions)
        back, _ = deserialize_bitvector(v.kind, v.m, serialize_bitvector(v))
        assert [back.children[bi] for bi in range(len(v.children))] == \
            list(v.children)
        for u in (v, back):
            assert u.ones == ref.ones == len(positions)
            assert u.one_positions() == ref.one_positions() == positions
            assert [u.rank(i) for i in range(v.m + 1)] == \
                [ref.rank(i) for i in range(v.m + 1)] == prefix
            for i in range(1, v.m + 1):
                assert u.access(i) == ref.access(i) == bits[i - 1]
                assert u.prank(i) == ref.prank(i) == (
                    prefix[i] if bits[i - 1] else -1)
            for j in range(1, ref.ones + 1):
                assert u.select(j) == ref.select(j) == positions[j - 1]


def test_fixed_block_stored_bits():
    """A body holds b, the counts and each block's rank at exactly the
    ceil(log2 C(l, k)) bits the payload charges; a block counts as one
    stored item plus its 64-bit words."""
    for v, bits in _block_vectors():
        blocks = list(_blocks_of(v, bits))
        payload = sum(ceil_log2_comb(blen, k) for blen, k, _ in blocks)
        items = sum(1 + (blen + 63) // 64 for blen, _, _ in blocks)
        assert v.payload_bits().payload == payload
        body = serialize_bitvector(v)
        assert len(body) == (8 + (len(blocks) * v.b.bit_length() + 7) // 8
                             + (payload + 7) // 8)
        assert v.stored_items() == items


def _combination_rank(members):
    """sum C(c_i, i) over the ascending 0-based positions c_1 < c_2 < ..."""
    return sum(math.comb(c, i) for i, c in enumerate(members, start=1))


def test_fixed_block_body_is_combination_rank():
    """Every block body is the rank of its ones (its zeros when 2k > l),
    and the ranks of the j-sets of l bits are exactly 0..C(l, j) - 1."""
    from itertools import combinations
    for blen in range(1, 11):
        for j in range(blen + 1):
            ranks = sorted(_combination_rank(c)
                           for c in combinations(range(blen), j))
            assert ranks == list(range(math.comb(blen, j)))
    for v, bits in _block_vectors():
        body = serialize_bitvector(v)
        counts_end = 8 + (len(v.children) * v.b.bit_length() + 7) // 8
        stream = int.from_bytes(body[counts_end:], "little")
        for blen, k, _ in _blocks_of(v, bits):
            block = bits[:blen]
            bits = bits[blen:]
            ranked = 1 if 2 * k <= blen else 0
            width = ceil_log2_comb(blen, k)
            assert stream & ((1 << width) - 1) == _combination_rank(
                [c for c in range(blen) if block[c] == ranked])
            stream >>= width
        assert stream == 0


def _fixed_block_body(b, counts, ranks, widths):
    import struct
    return (struct.pack("<Q", b)
            + pack_bitstream(counts, [b.bit_length()] * len(counts))
            + pack_bitstream(ranks, widths))


def test_fixed_block_rank_checked():
    """A block rank at or past C(l, k) is refused; C(l, k) - 1 loads."""
    # one 10-bit block of 3 ones (7 bits, C(10, 3) = 120) and one 4-bit
    # block of 3 ones, whose single zero is ranked (2 bits, C(4, 1) = 4)
    for ranks, ok in (((119, 3), True), ((120, 0), False),
                      ((127, 0), False), ((0, 3), True)):
        body = _fixed_block_body(10, [3, 3], ranks, [7, 2])
        if ok:
            v, _ = deserialize_bitvector("fixedblock", 14, body)
            assert serialize_bitvector(v) == body
        else:
            with pytest.raises(ValueError,
                               match="^block rank out of range$"):
                deserialize_bitvector("fixedblock", 14, body)
    # the last block: zero {3} has rank C(3, 1) = 3, the largest below 4;
    # its ones are 1, 2 and 3 of the block, 11 to 13 of the vector
    v, _ = deserialize_bitvector(
        "fixedblock", 14, _fixed_block_body(10, [3, 3], [0, 3], [7, 2]))
    assert v.one_positions() == [1, 2, 3, 11, 12, 13]


def test_fixed_block_rank_checked_at_load_in_last_block(unrank_calls):
    """A rank at C(l, k) in the short last block is refused at load, with
    no block unranked; one below it loads, and still unranks nothing."""
    calls = unrank_calls
    # a 10-bit block of 3 ones, then a 3-bit block of one one, whose rank
    # takes 2 bits and must lie below C(3, 1) = 3
    with pytest.raises(ValueError, match="^block rank out of range$"):
        deserialize_bitvector("fixedblock", 13,
                              _fixed_block_body(10, [3, 1], [0, 3], [7, 2]))
    v, _ = deserialize_bitvector("fixedblock", 13,
                                 _fixed_block_body(10, [3, 1], [0, 2], [7, 2]))
    assert calls == []
    assert v.one_positions() == [1, 2, 3, 13]
    assert len(calls) == 2


def test_fixed_block_counts_checked_in_block_order():
    """Of a count past its block length and a body past the buffer, the
    error names whichever comes first in block order."""
    # b = 10, m = 13: counts at 4 bits, a 10-bit block then a 3-bit one
    for counts, tail, message in (
            ([11, 0], b"", "more stored positions than bits"),
            ([3, 4], bytes(2), "more stored positions than bits"),
            ([3, 15], b"", "truncated"),
            ([3, 1], b"", "truncated")):
        body = struct.pack("<Q", 10) + pack_bitstream(counts, [4, 4]) + tail
        with pytest.raises(ValueError, match=f"^{message}$"):
            deserialize_bitvector("fixedblock", 13, body)


@pytest.mark.parametrize("m", (0, 1, 7, 8, 9, 63, 64, 65, 511, 512, 513,
                               4097))
def test_fixed_blocks_loaded_lazily_agree_with_built(m, unrank_calls):
    """A loaded vector unranks no block until a query reads it, and then
    answers rank, access, select, one_positions and its serialized bytes
    as the built one does."""
    calls = unrank_calls
    rng = random.Random(m)
    for density in (0.0, 0.05, 0.5, 0.95, 1.0):
        ones = tuple(p for p in range(1, m + 1) if rng.random() < density)
        # from b = 256 on, the loader keeps counts in an array, not bytes
        for b in (5, 64, 254, 300, 510):
            v = FixedBlockVector(m, ones, b)
            blob = serialize_bitvector(v)
            del calls[:]
            loaded = [deserialize_bitvector(v.kind, m, blob)[0]
                      for _ in range(5)]
            assert calls == []
            rank, access, select, positions, body = loaded
            assert [rank.rank(i) for i in range(m + 1)] == \
                [v.rank(i) for i in range(m + 1)]
            assert [access.access(i) for i in range(1, m + 1)] == \
                [v.access(i) for i in range(1, m + 1)]
            assert [select.select(j) for j in range(1, v.ones + 1)] == \
                [select.select(j) for j in range(1, v.ones + 1)] == \
                [v.select(j) for j in range(1, v.ones + 1)]
            assert positions.one_positions() == v.one_positions()
            assert serialize_bitvector(body) == blob
            # each loaded vector unranked each block it read once, if the
            # block stores a rank
            assert len(calls) == sum(ranked_blocks(v, u.children)
                                     for u in loaded)
            assert all(set(u.children) <= set(range(len(v.children)))
                       for u in loaded)


@pytest.mark.parametrize("u", (1, 3, 8, 14))
def test_fid_loaded_lazily_agree_with_built(u):
    """A loaded fid vector decodes no superblock until a query reads it,
    and then answers rank, access, select, one_positions and its
    serialized bytes as the built one does."""
    rng = random.Random(u)
    for m in sorted({u - 1, u, 8 * u - 1, 8 * u, 8 * u + 1, 17 * u + 3}):
        for density in (0.0, 0.05, 0.5, 0.95, 1.0):
            ones = _random_ones(rng, m, density)
            v = RrrVector(m, ones, u=u)
            blob = serialize_bitvector(v)
            loaded = [deserialize_bitvector(v.kind, m, blob)[0]
                      for _ in range(5)]
            assert all(len(w.children) == 0 for w in loaded)
            rank, access, select, positions, body = loaded
            assert [rank.rank(i) for i in range(m + 1)] == \
                [v.rank(i) for i in range(m + 1)]
            assert [access.access(i) for i in range(1, m + 1)] == \
                [v.access(i) for i in range(1, m + 1)]
            assert [select.select(j) for j in range(1, v.ones + 1)] == \
                [select.select(j) for j in range(1, v.ones + 1)] == \
                [v.select(j) for j in range(1, v.ones + 1)]
            assert positions.one_positions() == v.one_positions()
            assert serialize_bitvector(body) == blob
            # every superblock read was decoded to the built word
            for w in loaded:
                assert w.counts == v.counts and w._R == v._R
                assert set(w.children) <= set(range(len(v.children)))
                assert all(w.children[s] == v.children[s]
                           for s in list(w.children))


@pytest.mark.parametrize("cls", (RrrVector, FixedBlockVector))
def test_derived_queries_decode_few_words(cls):
    """select is a binary search over _rank and access the difference of
    two ranks, so on a fresh load one select decodes at most
    ceil(log2 m) + 1 words and one access at most one, at the default
    block size and at a small one that makes many words."""
    rng = random.Random(30)
    for m in (1, 9, 511, 4097, 20_997):
        bound = (m - 1).bit_length() + 1
        for density in (0.05, 0.5, 0.95):
            ones = _random_ones(rng, m, density) or (m,)
            for size in (None, 2):
                v = cls(m, ones, size)
                blob = serialize_bitvector(v)
                for j in rng.sample(range(1, v.ones + 1), min(v.ones, 12)):
                    u = deserialize_bitvector(v.kind, m, blob)[0]
                    assert u.select(j) == v.select(j) == ones[j - 1]
                    assert len(u.children) <= bound, (m, density, size, j)
                for i in rng.sample(range(1, m + 1), min(m, 12)):
                    u = deserialize_bitvector(v.kind, m, blob)[0]
                    assert u.access(i) == v.access(i)
                    assert len(u.children) <= 1, (m, density, size, i)


def test_fid_empty_and_full_blocks_hold_no_rank(monkeypatch, unrank_calls):
    """Empty and full blocks store no rank, so a fid body of only such
    blocks reads no rank and keeps none: its words are filled in without
    an unrank, and a body of 2^16 empty blocks holds under 4 bytes a block
    (its classes, R and each word's first rank index)."""
    import tracemalloc
    from xbwtrie import succinct
    read = []
    real = succinct._unpack_bitstream

    def recorded(data, widths):
        read.append(len(widths))
        return real(data, widths)
    monkeypatch.setattr(succinct, "_unpack_bitstream", recorded)
    rng = random.Random(31)
    for u in (1, 3, 8, 14):
        m = 19 * u + u // 2  # a short last block when u > 1
        ones = [p for at in range(0, m, u) if rng.random() < 0.5
                for p in range(at + 1, min(at + u, m) + 1)]
        v = RrrVector(m, ones, u=u)
        loaded, _ = deserialize_bitvector("fid", m, serialize_bitvector(v))
        assert read.pop() == 0
        assert [loaded.rank(i) for i in range(m + 1)] == \
            [v.rank(i) for i in range(m + 1)]
        assert loaded.one_positions() == v.one_positions()
    assert unrank_calls == []
    u, blocks = 14, 1 << 16
    body = bytes([u]) + bytes(blocks // 2)
    tracemalloc.start()
    try:
        loaded, _ = deserialize_bitvector("fid", u * blocks, body)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert read == [0] and loaded.ones == 0
    assert held <= 4 * blocks


def test_fid_words_are_raw_superblocks():
    """A built fid vector holds one word of 8u raw bits per superblock,
    ceil(m / 8u) of them, and one more rank than words; it still stores one
    item per u-bit block."""
    rng = random.Random(9)
    for u in (1, 3, 8, 14):
        for m in (0, 1, u, 8 * u, 8 * u + 1, 17 * u + 3, 500):
            ones = _random_ones(rng, m, 0.4)
            v = RrrVector(m, ones, u=u)
            value = sum(1 << (p - 1) for p in ones)
            sb = 8 * u
            assert v.b == sb
            assert v.children == tuple((value >> at) & ((1 << sb) - 1)
                                       for at in range(0, m, sb))
            assert len(v.children) == -(-m // sb)
            assert v._R == [sum(1 for p in ones if p <= at)
                            for at in range(0, m, sb)] + [len(ones)]
            assert v.stored_items() == len(v.counts) == -(-m // u)
            assert v.counts == bytes(
                sum(1 for p in ones if at < p <= at + u)
                for at in range(0, m, u))


def test_fixed_block_default_b():
    """The default b is the largest 2^j - 2 at most ceil(log2 n)^2, and at
    least 2, read off by brute force at every n where ceil(log2 n) changes
    up to 2^20, and at MAX_NODES."""
    from xbwtrie.index import MAX_NODES

    def brute(n):
        logn = 0
        while 2 ** logn < n:
            logn += 1
        return max(2, max(2 ** j - 2 for j in range(1, 64)
                          if 2 ** j - 2 <= logn * logn))
    ns = {1, MAX_NODES, *(n for j in range(21) for n in (2 ** j, 2 ** j + 1))}
    for n in sorted(ns):
        assert FixedBlockVector.block_size(n, None) == brute(n), n
    assert [FixedBlockVector.block_size(n, None)
            for n in (20_997, 72_772, MAX_NODES)] == [126, 254, 510]
    assert FixedBlockVector(72_772, [1, 5]).b == 254


def test_fixed_block_cost_builds_no_row_past_m():
    """With b past m no block is full, so accounting builds only the row of
    the short block's length, not one of b + 1 widths."""
    from xbwtrie.succinct import _width_row
    _width_row.cache_clear()
    FixedBlockVector(1200, range(1, 1200, 3), 2 ** 16).payload_bits()
    assert _width_row.cache_info().currsize == 1


def test_fixed_block_file_size_bounded():
    """b outside 1..510 (the default b at MAX_NODES) is refused on write
    and on load, and every legal b keeps the Pascal table at 255 x 511
    entries or fewer."""
    from xbwtrie import index
    from xbwtrie import succinct
    assert succinct.MAX_FILE_BLOCK == \
        FixedBlockVector.block_size(index.MAX_NODES, None) == 510
    ones = range(1, 1200, 3)
    for b in (511, 585, 2 ** 40):
        with pytest.raises(ValueError, match=f"^bad fixed block size {b}$"):
            serialize_bitvector(FixedBlockVector(1200, ones, b))
        body = bytearray(serialize_bitvector(FixedBlockVector(1200, ones,
                                                              510)))
        body[:8] = b.to_bytes(8, "little")
        with pytest.raises(ValueError, match=f"^bad fixed block size {b}$"):
            deserialize_bitvector("fixedblock", 1200, bytes(body))
    for b in (1, 2, 3, 254, 509, 510):
        v = FixedBlockVector(1200, ones, b)
        back, _ = deserialize_bitvector("fixedblock", 1200,
                                        serialize_bitvector(v))
        assert back.one_positions() == list(ones)
        assert sum(map(len, succinct._PASCAL)) <= 255 * 511


# --- byte-level construction and loading ------------------------------------

EDGE_LENGTHS = (0, 1, 7, 8, 9, 63, 64, 65, 511, 512, 513, 4097)


def _random_ones(rng, m, density):
    return tuple(p for p in range(1, m + 1) if rng.random() < density)


def _bits(m, ones):
    """The 0/1 list of a vector of length m, bit i-1 holding position i."""
    bits = [0] * m
    for p in ones:
        bits[p - 1] = 1
    return bits


def _assert_matches_bits(v, bits):
    """rank/select/access/prank of v against the 0/1 list bits (bit i-1 is
    i), a referee that shares no code with any back-end."""
    assert v.m == len(bits) and v.ones == sum(bits)
    rank = 0
    assert v.rank(0) == 0
    for i, bit in enumerate(bits, start=1):
        rank += bit
        assert v.access(i) == bit
        assert v.rank(i) == rank
        assert v.prank(i) == (rank if bit else -1)
        if bit:
            assert v.select(rank) == i


@pytest.mark.parametrize("m", EDGE_LENGTHS)
def test_round_trip_edge_lengths(m):
    rng = random.Random(m)
    for density in (0.0, 0.05, 0.5, 0.95, 1.0):
        ones = _random_ones(rng, m, density)
        bits = _bits(m, ones)
        for v in backends(m, ones, heavy=True):
            blob = serialize_bitvector(v)
            back, used = deserialize_bitvector(v.kind, v.m, blob)
            assert used == len(blob)
            assert serialize_bitvector(back) == blob
            assert type(back) is type(v)
            _assert_matches_bits(v, bits)
            _assert_matches_bits(back, bits)


def test_plain_words_are_raw_superblocks():
    """A plain vector holds one word of 512 raw bits per superblock,
    ceil(m / 512) of them, and one more rank than words; it still stores
    one item per 64-bit word, has no entropy blocks, and its file is the
    packed bits, read back byte for byte."""
    rng = random.Random(8)
    for m in EDGE_LENGTHS:  # 511, 512 and 513 among them
        for density in (0.0, 0.4, 1.0):
            ones = _random_ones(rng, m, density)
            v = PlainBitvector(m, ones)
            value = sum(1 << (p - 1) for p in ones)
            assert v.b == 512 and v.ones == len(ones)
            assert v.children == tuple((value >> at) & ((1 << 512) - 1)
                                       for at in range(0, m, 512))
            assert len(v.children) == -(-m // 512)
            assert v._R == [sum(1 for p in ones if p <= at)
                            for at in range(0, m, 512)] + [len(ones)]
            assert v.stored_items() == -(-m // 64)
            assert v.entropy_block_size is None
            assert v.entropy_block_count == 0
            blob = serialize_bitvector(v)
            assert blob == value.to_bytes((m + 7) // 8, "little")
            back, used = deserialize_bitvector("plain", m, blob)
            assert used == len(blob) and serialize_bitvector(back) == blob
            assert back.children == v.children and back._R == v._R


@pytest.mark.parametrize("u", range(1, 25))
def test_rrr_blocks_every_u(u):
    """u is clamped to 14, the largest u a file's u byte may hold."""
    rng = random.Random(u)
    for m in (u - 1, u, u + 1, 3 * u + 2, 5 * u):
        for density in (0.1, 0.5, 0.9):
            ones = _random_ones(rng, m, density)
            bits = [0] * m
            for p in ones:
                bits[p - 1] = 1
            v = RrrVector(m, ones, u=u)
            assert v.size == min(u, 14)
            # every block, the short last one included, is stored as its
            # class and the rank of its ones (of its zeros when 2k > l) at
            # its own length
            blocks = _fid_blocks(v)
            for b, (blen, cls, offset) in enumerate(blocks):
                block = bits[b * v.size:b * v.size + blen]
                ranked = 1 if 2 * cls <= blen else 0
                assert cls == sum(block) == v.counts[b]
                assert offset == _combination_rank(
                    [c for c in range(blen) if block[c] == ranked])
                assert offset < math.comb(blen, cls)
            assert sum(blen for blen, _, _ in blocks) == m
            _assert_matches_bits(v, bits)
            blob = serialize_bitvector(v)
            back, _ = deserialize_bitvector(v.kind, v.m, blob)
            assert serialize_bitvector(back) == blob
            _assert_matches_bits(back, bits)


@pytest.mark.parametrize("u", range(1, 15))
def test_fid_body_is_fixed_block_body_at_u(u):
    """A fid body after its u byte is byte for byte the fixed-block body at
    b = u after its u64 b, and a loaded fid vector answers as the built
    one."""
    rng = random.Random(u)
    for m in EDGE_LENGTHS:
        for density in (0.0, 0.05, 0.5, 0.95, 1.0):
            ones = _random_ones(rng, m, density)
            v = RrrVector(m, ones, u)
            body = serialize_bitvector(v)
            assert body[:1] == bytes((u,))
            assert body[1:] == \
                serialize_bitvector(FixedBlockVector(m, ones, u))[8:]
            back, used = deserialize_bitvector("fid", m, body)
            assert used == len(body)
            assert back.counts == v.counts and back._R == v._R
            assert [back.rank(i) for i in range(m + 1)] == \
                [v.rank(i) for i in range(m + 1)]
            assert back.one_positions() == v.one_positions()
            assert [back.children[s] for s in range(len(v.children))] == \
                list(v.children)


def _stored_rank(word: int, blen: int) -> int:
    """``_rank_word``'s rank of what a blen-bit block stores: its ones, or
    its zeros when the ones are the majority."""
    k = word.bit_count()
    return _rank_word(_pascal(blen),
                      word ^ (1 << blen) - 1 if 2 * k > blen else word)


def test_code_table_is_rank_word():
    """Every word of u <= 14 bits has in the code table of u its
    ``_rank_word`` rank, of its ones or (2k > u) of its zeros, in exactly
    ceil(log2 C(u, k)) digits, as ``_codes`` gives it: a word's rank does
    not depend on its block length."""
    for u in range(1, 15):
        table, widths = _code_table(u), _width_row(u)
        assert len(table) == 1 << u
        assert _codes(range(1 << u), u) == dict(enumerate(table))
        for word in range(1 << u):
            width = widths[word.bit_count()]
            rank = _stored_rank(word, u)
            digits = format(rank, f"0{width}b") if width else ""
            assert table[word] == digits, (u, word)


def test_inverse_table_is_unrank():
    """Row j of the inverse table holds at r the word ``_unrank`` gives for
    rank r of j ones in a block of u bits, for every u <= 14 and j <= u/2,
    and no more: rows 0..7, of C(14, j) words."""
    inv = _inverse_table()
    assert [len(row) for row in inv] == [math.comb(14, j) for j in range(8)]
    for u in range(1, 15):
        cols = _pascal(u)
        for j in range(u // 2 + 1):
            for r in range(math.comb(u, j)):
                word = inv[j][r]
                assert word == _unrank(cols, r, j, u), (u, j, r)
                assert word.bit_count() == j and _rank_word(cols, word) == r


def test_decode_block_by_table_and_by_unrank():
    """The one decode path reads the inverse table for blocks of up to 14
    bits and unranks from the Pascal columns for longer ones: every block
    of up to 10 bits neither empty nor full, and a sample of 15 to 20 bits,
    decodes to the word whose rank it stores."""
    rng = random.Random(15)
    for blen in [*range(2, 11), *range(15, 21)]:
        words = (range(1, (1 << blen) - 1) if blen <= 10 else
                 [rng.randrange(1, (1 << blen) - 1) for _ in range(300)])
        for word in words:
            assert _decode_block(_stored_rank(word, blen), word.bit_count(),
                                 blen) == word


@pytest.mark.parametrize("m", range(61))
def test_default_fid_agrees_with_plain(m):
    """A fid vector at the default u = 14, built and loaded, answers rank,
    access, select and one_positions as a plain vector does, and the loaded
    one writes the bytes it was read from."""
    rng = random.Random(m)
    for density in (0.0, 0.05, 0.5, 0.95, 1.0):
        ones = _random_ones(rng, m, density)
        plain = PlainBitvector(m, ones)
        v = RrrVector(m, ones)
        assert v.size == 14
        blob = serialize_bitvector(v)
        back, used = deserialize_bitvector("fid", m, blob)
        assert used == len(blob) and serialize_bitvector(back) == blob
        for w in (v, back):
            assert [w.rank(i) for i in range(m + 1)] == \
                [plain.rank(i) for i in range(m + 1)]
            assert [w.access(i) for i in range(1, m + 1)] == \
                [plain.access(i) for i in range(1, m + 1)]
            assert [w.select(j) for j in range(1, plain.ones + 1)] == \
                [plain.select(j) for j in range(1, plain.ones + 1)]
            assert w.one_positions() == plain.one_positions()
            assert serialize_bitvector(PlainBitvector(m, w.one_positions())) \
                == serialize_bitvector(plain)


def test_fid_block_limit_keeps_the_lane_paths():
    """fid codes every column at its largest u, whatever m, and that u
    keeps the loader's lane paths: a rank below C(u, u/2) fits
    ``_below_row``'s 15-bit lanes, and a word's 8 counts sum below 255,
    as ``word_sums``' mod-255 shortcut needs."""
    u = RrrVector.max_size
    assert u == 14
    assert {RrrVector.block_size(m, None)
            for m in (0, 1, 2, 13, 14, 255, 2 ** 16, 2 ** 40)} == {u}
    assert RrrVector.block_size(100, 3) == 3
    assert RrrVector.block_size(100, 99) == u
    assert max(_width_row(u)) <= 15
    assert 8 * u < 255


def _reference_pack(values, widths):
    acc = 0
    at = 0
    for v, w in zip(values, widths):
        acc |= v << at
        at += w
    return acc.to_bytes((at + 7) // 8, "little")


# counts read value by value, and from 16 full groups on, in lanes
UNIFORM_COUNTS = (0, 1, 7, 8, 9, 15, 16, 17, 100, 127, 128, 129, 135)


def test_bitstream_round_trip():
    rng = random.Random(13)
    # the lane reader of one width, at every width a file holds: up to 65,
    # an id position's width at n = 2^64 - 1
    for w in range(1, 66):
        for count in UNIFORM_COUNTS:
            values = [rng.getrandbits(w) for _ in range(count)]
            data = pack_bitstream(values, [w] * count)
            assert _unpack_bitstream(data, [w] * count) == values
            assert list(_unpack_uniform(data, w, count)) == values
            assert list(_unpack_uniform(memoryview(data), w, count)) == values
    for w in range(25):
        for count in (0, 1, 7, 8, 9, 100):
            widths = [w] * count
            values = [rng.getrandbits(w) for _ in widths]
            data = pack_bitstream(values, widths)
            assert data == _reference_pack(values, widths)
            assert _unpack_bitstream(data, widths) == values
    for _ in range(50):  # mixed widths, as in an RRR offset section
        widths = [rng.randint(0, 24) for _ in range(rng.randint(0, 200))]
        values = [rng.getrandbits(w) for w in widths]
        data = pack_bitstream(values, widths)
        assert data == _reference_pack(values, widths)
        assert _unpack_bitstream(data, widths) == values


def _unpacked(unpack, *args):
    """The values unpack returns, as a list, or the message of the
    ValueError it raises."""
    try:
        return list(unpack(*args))
    except ValueError as exc:
        return str(exc)


def test_bitstream_rejects_bad_streams():
    """A stream a byte short or a byte long, or with a set bit past its
    last value, is refused; the grouped reader of one width raises the
    general reader's errors, whether that bit is padding in a tail group
    or, when the values end on a byte, a bit in a byte past the last full
    group."""
    widths = [5, 5, 5]
    data = pack_bitstream([31, 0, 17], widths)  # 15 bits in 2 bytes
    with pytest.raises(ValueError, match="truncated"):
        _unpack_bitstream(data[:1], widths)
    with pytest.raises(ValueError, match="length"):
        _unpack_bitstream(data + b"\x00", widths)
    with pytest.raises(ValueError, match="padding"):
        _unpack_bitstream(data[:1] + bytes((data[1] | 0x80,)), widths)
    rng = random.Random(15)
    for w in range(1, 66):
        for count in UNIFORM_COUNTS:
            data = pack_bitstream([rng.getrandbits(w) for _ in range(count)],
                                  [w] * count)
            bad = {"bad bitstream length": [data + b"\x00", data + b"\x80"]}
            if data:
                bad["truncated"] = [data[:-1]]
            # the top bit of the last byte is padding unless the values
            # fill that byte, as they do when count % 8 == 0
            top = data[:-1] + bytes((data[-1] | 0x80,)) if data else b""
            if w * count % 8:
                bad["bitstream has padding bits set"] = [top]
            elif data:
                assert list(_unpack_uniform(top, w, count)) == \
                    _unpack_bitstream(top, [w] * count)
            for message, streams in bad.items():
                for stream in streams:
                    assert _unpacked(_unpack_uniform, stream, w, count) == \
                        _unpacked(_unpack_uniform, memoryview(stream), w,
                                  count) == \
                        _unpacked(_unpack_bitstream, stream, [w] * count) == \
                        message


# every count up to two full groups and a tail, and 1,000 full groups with
# every tail length
LANE_COUNTS = (*range(18), *range(8000, 8008))


def test_pack_uniform_is_the_lane_inverse():
    """The lane writer writes, byte for byte, what the per-value writer
    writes, and the lane reader reads it back: at every width a file holds,
    1..65, at every count of ``LANE_COUNTS``, from a list, from arrays of
    the narrowest item and of 8-byte items, and from bytes.  At w = 65 the
    values lie below 2^64, as the positions an id body at m = 2^64 - 1
    holds do."""
    rng = random.Random(33)
    for w in range(1, 66):
        narrowest = next((t for t in "BHIQ" if 8 * array(t).itemsize >= w),
                         None)
        for k in LANE_COUNTS:
            values = [rng.getrandbits(min(w, 64)) for _ in range(k)]
            data = pack_bitstream(values, [w] * k)
            inputs = [values]
            if narrowest:
                inputs += [array(narrowest, values), array("Q", values)]
            for given in inputs:
                assert _pack_uniform(given, w) == data, (w, k, type(given))
            assert list(_unpack_uniform(data, w, k)) == values
            small = [v & 255 for v in values]  # values a bytes object holds
            assert _pack_uniform(bytes(small), w) == \
                pack_bitstream(small, [w] * k), (w, k)


def test_pack_positions_contract():
    """Positions pack as the per-one referee packs them, whether sorted,
    shuffled with every position twice, or from a generator; no positions,
    and m = 0, pack to zero bytes; the bits past m stay zero; and a
    position outside 1..m is refused, alone or among valid ones."""
    rng = random.Random(35)
    for m in (*range(20), 63, 64, 65, 1000, 1001):
        for density in (0, 0.1, 0.5, 1):
            ones = [p for p in range(1, m + 1) if rng.random() < density]
            want = pack_positions(m, ones)
            twice = ones * 2
            rng.shuffle(twice)
            for given in (ones, twice, iter(twice), (p for p in twice),
                          tuple(twice), array("Q", twice)):
                assert _pack_positions(m, given) == want, (m, density)
        assert _pack_positions(m, []) == _pack_positions(m, iter(())) == \
            bytes((m + 7) // 8)
        # every position a one: the last byte holds m % 8 ones, then zeros
        assert _pack_positions(m, range(1, m + 1)) == \
            ((1 << m) - 1).to_bytes((m + 7) // 8, "little")
        for bad in (0, m + 1, -1):
            for given in ([bad], [*range(1, m + 1), bad], iter([bad, 1])):
                with pytest.raises(ValueError,
                                   match="one-position out of range"):
                    _pack_positions(m, given)


def test_built_blocks_match_the_per_one_cut():
    """A built fid or fixed-block vector holds, as a tuple, the words that
    the referee's per-one cut gives, and its R and block counts: at every
    fid u, whose blocks are read in lanes of 1- and 4-byte items, and at
    fixed-block sizes below and past 57 bits, past 255 (counts held in an
    array) and past m, with and without a short last block."""
    rng = random.Random(37)
    for m in (0, 1, 7, 64, 100, 999, 4096, 5003):
        for density in (0.05, 0.5, 0.95):
            ones = [p for p in range(1, m + 1) if rng.random() < density]
            vectors = [RrrVector(m, ones), FixedBlockVector(m, ones),
                       *(RrrVector(m, ones, u) for u in range(1, 15)),
                       *(FixedBlockVector(m, ones, b) for b in
                         (1, 5, 8, 33, 57, 58, 254, 300, 510, 2 ** 16))]
            for v in vectors:
                R, words = block_words(m, ones, v.g * v.size)
                blocks = split_words(words, m, v.size, v.g)
                assert type(v.children) is tuple
                assert (v.children, v._R, list(v.counts)) == \
                    (words, R, list(map(int.bit_count, blocks))), \
                    (m, v.kind, v.size)


def test_plain_rejects_padding_bits():
    blob = bytearray(serialize_bitvector(PlainBitvector(*parse_bits(B_B))))
    blob[-1] |= 0x80  # bit 8 of a 7-bit vector
    with pytest.raises(ValueError, match="padding"):
        deserialize_bitvector("plain", 7, bytes(blob))


def test_huge_header_length_checked_before_allocating():
    # m = 2**62, as a file header may claim: every size that follows from m
    # is checked against the buffer before anything m-sized is allocated
    # or looped over
    import struct
    m = 2 ** 62
    with pytest.raises(ValueError, match="truncated"):
        deserialize_bitvector("plain", m, b"")
    with pytest.raises(ValueError, match="truncated"):
        deserialize_bitvector("fid", m, b"\x01\x00")
    with pytest.raises(ValueError, match="truncated"):
        deserialize_bitvector("fixedblock", m, struct.pack("<Q", 1))
    with pytest.raises(ValueError, match="bad fixed block size"):
        deserialize_bitvector("fixedblock", m, struct.pack("<Q", 2 ** 40))
    # 2^22 blocks of b = 510 bits whose stored counts claim one position
    # each, a 9-bit rank per block body (a full block's body is empty):
    # the 4.7 MB of counts are refused at the first body past the buffer,
    # with no list of 2^22 counts or widths
    import tracemalloc
    b = 510
    counts = pack_bitstream([1] * 8, [9] * 8) * (2 ** 19)  # 8 per 9 bytes
    data = struct.pack("<Q", b) + counts
    del counts
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated"):
            deserialize_bitvector("fixedblock", b * 2 ** 22, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 10 ** 6
    with pytest.raises(ValueError, match="truncated"):
        deserialize_bitvector("id", m, struct.pack("<BQ", 0, 2 ** 40))
    # no stored positions and not complemented: a valid empty vector, whose
    # bitmap is the 2 bits of m >> L = 1 and its one zero
    v, _ = deserialize_bitvector("id", m, struct.pack("<BQ", 0, 0) + b"\0")
    assert v.m == m and v.ones == 0


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: PlainBitvector._restore(9, b"\0"),
                 "bad plain bitvector payload", id="plain-payload"),
    pytest.param(lambda: FixedBlockVector(8, [], 0),
                 "block size must be positive", id="fixedblock-b-0"),
    pytest.param(lambda: IdVector(4, [5]), "one-position out of range",
                 id="id-position"),
])
def test_argument_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()

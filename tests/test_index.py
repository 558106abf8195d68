import hashlib
import random

import pytest

import xbwtrie.index
from xbwtrie import (NodeInterval, build_from_strings, build_index,
                     check_bounds, count, deserialize, forward_step, invert,
                     leaf_run_count, naive_count, random_trie, run_count,
                     serialize)
from xbwtrie.index import _head_table, crc32c, resolve_mode, xbwt_columns
from xbwtrie.succinct import IdVector, serialize_bitvector

from conftest import complete_binary, zero_weight_symbol_file
from construction_oracles import per_node_columns

MODES = ("plain", "fid", "id", "fixedblock")

FIG_VECTORS = {97: "0000100", 98: "1010010", 99: "0010100"}


def vector_string(idx, i):
    return "".join(str(idx.vectors[i].access(p)) for p in range(1, idx.n + 1))


@pytest.mark.parametrize("mode", MODES)
def test_build_figure_vectors(fig_trie, mode):
    idx = build_index(fig_trie, mode)
    assert idx.c_array == (0, 1, 2, 5)
    for i, c in enumerate(idx.alphabet.symbols):
        assert vector_string(idx, i) == FIG_VECTORS[c]
        assert idx.vectors[i].kind == mode


def test_build_single_node():
    idx = build_index(build_from_strings([b""]), "fid")
    assert idx.n == 1 and idx.vectors == () and idx.c_array == (0,)
    assert count(idx, b"") == 1
    assert count(idx, b"a") == 0


def test_build_complete_binary_vectors():
    idx = build_index(complete_binary(2), "plain")
    assert vector_string(idx, 0) == "1100100"
    assert vector_string(idx, 1) == "1100100"


def test_forward_step_examples(fig_trie):
    idx = build_index(fig_trie, "fid")
    assert forward_step(idx, NodeInterval(1, 7), ord("b")) == NodeInterval(3, 5)
    assert forward_step(idx, NodeInterval(6, 7), ord("b")) == NodeInterval(5, 5)
    out = forward_step(idx, NodeInterval(1, 7), ord("z"))
    assert out.empty


def test_forward_step_errors(fig_trie):
    idx = build_index(fig_trie, "fid")
    with pytest.raises(ValueError, match="sentinel"):
        forward_step(idx, NodeInterval(1, 7), idx.alphabet.sentinel)
    with pytest.raises(ValueError, match="interval"):
        forward_step(idx, NodeInterval(3, 2), ord("b"))
    with pytest.raises(ValueError, match="interval"):
        forward_step(idx, NodeInterval(0, 7), ord("b"))


def test_interval_nesting(fig_trie):
    idx = build_index(fig_trie, "fid")
    iv = NodeInterval(1, 7)
    for c in b"bcb":
        nxt = forward_step(idx, iv, c)
        assert len(nxt) <= len(iv)
        iv = nxt
    assert not iv.empty


@pytest.mark.parametrize("mode", MODES)
def test_count_examples(fig_trie, mode):
    idx = build_index(fig_trie, mode)
    assert count(idx, b"b") == 3
    assert count(idx, b"cb") == 1
    assert count(idx, b"aa") == 0
    assert count(idx, b"") == 7


def test_count_rejects_sentinel(fig_trie):
    idx = build_index(fig_trie, "plain")
    with pytest.raises(ValueError, match="pattern contains sentinel"):
        count(idx, bytes([idx.alphabet.sentinel]))


@pytest.mark.parametrize("mode", MODES)
def test_count_matches_naive_exhaustive(fig_trie, mode):
    idx = build_index(fig_trie, mode)
    alpha = fig_trie.alphabet.symbols
    patterns = [b""]
    for _ in range(3):
        patterns = [p + bytes([c]) for p in patterns for c in alpha] + patterns
    for p in set(patterns):
        assert count(idx, p) == naive_count(fig_trie, p)


def test_count_matches_naive_random(small_tries):
    rng = random.Random(41)
    for t in small_tries[:40]:
        idx = build_index(t, rng.choice(MODES))
        symbols = t.alphabet.symbols or (97,)
        for _ in range(30):
            p = bytes(rng.choice(symbols)
                      for _ in range(rng.randint(0, 6)))
            assert count(idx, p) == naive_count(t, p)


def test_invert_figure(fig_trie):
    for mode in MODES:
        assert invert(build_index(fig_trie, mode)) == fig_trie


def test_invert_single_node():
    t = build_from_strings([b""])
    assert invert(build_index(t, "id")) == t


def test_invert_random(small_tries):
    for i, t in enumerate(small_tries[:100]):
        assert invert(build_index(t, MODES[i % 4])) == t


def test_invert_rejects_malformed():
    # Self-parenting single edge: the child is its own parent.
    from xbwtrie import Alphabet, PlainBitvector, XbwtIndex
    bad = XbwtIndex(2, Alphabet((97,), 0), "plain",
                    (PlainBitvector(2, (2,)),))
    with pytest.raises(ValueError, match="not a valid XBWT"):
        invert(bad)


def test_index_rejects_inconsistent_vectors(fig_trie):
    from xbwtrie import PlainBitvector, XbwtIndex
    idx = build_index(fig_trie, "plain")
    n = idx.n
    ones = idx.vectors[0].one_positions()
    short = (PlainBitvector(n - 1, ones), *idx.vectors[1:])
    with pytest.raises(ValueError, match="length is not n"):
        XbwtIndex(n, idx.alphabet, "plain", short)
    extra = min(set(range(1, n + 1)) - set(ones))
    heavy = (PlainBitvector(n, ones + [extra]), *idx.vectors[1:])
    with pytest.raises(ValueError, match="n - 1"):
        XbwtIndex(n, idx.alphabet, "plain", heavy)
    with pytest.raises(ValueError, match="unknown mode 'rrr'"):
        build_index(fig_trie, "rrr")


def test_count_uses_unchecked_rank(small_tries, monkeypatch):
    from xbwtrie.succinct import Bitvector

    def checked_rank(self, i):
        raise AssertionError("count took the checked rank")

    # patched before building, so no index can hold the checked method
    monkeypatch.setattr(Bitvector, "rank", checked_rank)
    indexes = [(t, build_index(t, mode))
               for t in small_tries[:40] for mode in MODES]
    rng = random.Random(43)
    for t, idx in indexes:
        symbols = t.alphabet.symbols or (97,)
        for _ in range(10):
            p = bytes(rng.choice(symbols) for _ in range(rng.randint(0, 6)))
            assert count(idx, p) == naive_count(t, p)
            iv = NodeInterval(1, idx.n)
            for c in p:
                iv = forward_step(idx, iv, c)
                if iv.empty:
                    break
            assert len(iv) == naive_count(t, p)


def _forward_count(idx, pattern):
    """count by forward_step, stopping at the first empty interval."""
    iv = NodeInterval(1, idx.n)
    for c in pattern:
        iv = forward_step(idx, iv, c)
        if iv.empty:
            return 0
    return len(iv)


def _reference_head(idx):
    """The k-symbol table by forward_step over every (entry, symbol)."""
    head = {b"": (1, idx.n)}
    level = [(b"", NodeInterval(1, idx.n))]
    for _ in range(idx._k):
        nxt = []
        for p, iv in level:
            for c in idx.alphabet.symbols:
                out = forward_step(idx, iv, c)
                if not out.empty:
                    head[p + bytes((c,))] = (out.lo, out.hi)
                    nxt.append((p + bytes((c,)), out))
        level = nxt
    return head


def _answer(fn, idx, pattern):
    try:
        return fn(idx, pattern)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _word_without_bbb(rng):
    w = bytearray()
    for _ in range(rng.randint(8, 20)):
        w.append(97 if w[-2:] == b"bb" else rng.choice(b"ab"))
    return bytes(w)


@pytest.mark.parametrize("mode", MODES)
def test_count_head_table_matches_forward_steps(mode):
    """Every pattern of length 0..k+2 over a, b, a foreign byte and the
    sentinel gets the forward-step answer or error; "bbb" is absent, so
    the patterns past its empty interval are covered too."""
    import itertools
    import math
    rng = random.Random(11)
    words = [_word_without_bbb(rng) for _ in range(140)]
    idx = build_index(build_from_strings(words), mode)
    assert idx._head is None  # built by the first count
    _head_table(idx)
    n, k = idx.n, idx._k
    assert n >= 1000 and k >= 3
    assert len(idx._head) <= 2 * n // math.ceil(math.log2(n)) ** 2 + k + 1
    assert idx._head == _reference_head(idx) and b"bbb" not in idx._head
    letters = (97, 98, ord("z"), idx.alphabet.sentinel)
    for length in range(k + 3):
        for p in itertools.product(letters, repeat=length):
            p = bytes(p)
            assert (_answer(count, idx, p)
                    == _answer(_forward_count, idx, p)), p


@pytest.mark.parametrize("mode", MODES)
def test_count_takes_any_byte_sequence(small_tries, mode):
    """A bytearray or a list of ints cannot key the table; it is searched
    from the whole range and gets the same answer as bytes."""
    idx = build_index(small_tries[0], mode)
    for p in (b"", b"a", b"ab", b"aba", b"zz"):
        assert count(idx, bytearray(p)) == count(idx, list(p)) == count(idx, p)


def _id_file(n, symbols, vectors):
    """A valid-checksum ID-mode index file with sentinel 0."""
    import struct
    from xbwtrie import Alphabet
    from xbwtrie.index import MAGIC, MODES as FILE_MODES, VERSION
    body = (MAGIC + struct.pack("<HHQH", VERSION, FILE_MODES.index("id"), n,
                                len(symbols) + 1)
            + bytes(Alphabet(symbols, 0).full())
            + b"".join(map(serialize_bitvector, vectors)))
    return body + struct.pack("<I", crc32c(body))


def test_count_head_table_bounded_by_header_n():
    """A 39-byte ID file declaring n = 2^40 (a path trie of one symbol,
    stored as the single zero of a complemented vector) loads at once."""
    import time
    n = 2 ** 40
    data = _id_file(n, (97,), [IdVector._restore(n, [n], True)])
    assert len(data) == 39
    t0 = time.perf_counter()
    idx = deserialize(data)
    assert count(idx, b"a" * 40) == n - 40
    assert time.perf_counter() - t0 < 1.0
    assert len(idx._head) <= 41
    assert count(idx, b"a" * 45) == n - 45
    single = build_index(build_from_strings([b""]), "id")
    assert count(single, b"") == 1 and single._head == {b"": (1, 1)}


def _sparse_sigma255(n, per=4):
    """One complemented vector and 254 sparse ones whose ones sit in each
    other's level-1 intervals, so each level has up to 255 times as many
    entries as the one before."""
    zeros = per * 254 + 1
    top = 1 + n - zeros  # C of the first sparse symbol
    vectors = [IdVector._restore(n, list(range(1, zeros + 1)), True)]
    for d in range(254):
        vectors.append(IdVector._restore(
            n, [top + j * per + 1 + d % per for j in range(per)], False))
    return _id_file(n, tuple(range(1, 256)), vectors)


def _sparse_sigma2(n, m=50):
    """A complemented a-vector and a b-vector of m ones, all stored
    positions among the last 4m, where the b-intervals of every level lie."""
    rng = random.Random(3)
    near_n = range(n - 4 * m, n + 1)
    return _id_file(n, (97, 98), [
        IdVector._restore(n, sorted(rng.sample(near_n, m + 1)), True),
        IdVector._restore(n, sorted(rng.sample(near_n, m)), False)])


@pytest.mark.parametrize("data", [_sparse_sigma255(2 ** 63),
                                  _sparse_sigma2(2 ** 63)],
                         ids=["sigma255", "sigma2"])
def test_head_table_capped_by_stored_items(data):
    """At n = 2^63 the n cap alone allows k = 6 (sigma = 255) or k = 51
    (sigma = 2), and these few kilobytes would then make 16,771 or 8,637
    entries.  Past level 1 the table grows by at most one entry per forward
    step, and the steps stay within the items the vectors store."""
    idx = deserialize(data)
    sigma = idx.alphabet.sigma
    stored = sum(vec.stored_items() for vec in idx.vectors)
    assert stored < len(data)
    head = _head_table(idx)
    assert len(head) <= 1 + sigma + stored
    assert head == _reference_head(idx)
    for p in list(head)[-50:]:
        assert count(idx, p + b"a") == _forward_count(idx, p + b"a")


def test_ith_child_figure(fig_trie):
    from xbwtrie import colex_order, ith_child
    idx = build_index(fig_trie, "id")
    rank_of = {v: i + 1 for i, v in enumerate(colex_order(fig_trie))}
    # Node "bcb" (pre-order id 4) has children a -> "bcba" and c -> "bcbc".
    assert ith_child(idx, rank_of[4], 1) == rank_of[5]
    assert ith_child(idx, rank_of[4], 2) == rank_of[6]
    assert ith_child(idx, rank_of[4], 3) is None
    assert ith_child(idx, rank_of[2], 1) is None  # "bb" is a leaf


def test_ith_child_random(small_tries):
    from xbwtrie import colex_order, ith_child
    for t in small_tries[:30]:
        idx = build_index(t, "fixedblock")
        rank_of = {v: i + 1 for i, v in enumerate(colex_order(t))}
        for v in range(t.n):
            kids = t.children[v]
            for i, (_, w) in enumerate(kids, start=1):
                assert ith_child(idx, rank_of[v], i) == rank_of[w]
            assert ith_child(idx, rank_of[v], len(kids) + 1) is None


def test_xbwt_columns_figure(fig_trie):
    cols = xbwt_columns(fig_trie)
    assert cols == tuple(
        tuple(p for p, bit in enumerate(FIG_VECTORS[c], start=1) if bit == "1")
        for c in fig_trie.alphabet.symbols)
    assert xbwt_columns(fig_trie) is cols  # kept on the trie


def _corpus(seed, words):
    rng = random.Random(seed)
    return [bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(3, 12)))
            for _ in range(words)]


def test_xbwt_columns_match_per_node_loop(small_tries):
    tries = small_tries + [build_from_strings(_corpus(5, 3000)),
                           build_from_strings([b""]),
                           build_from_strings([b"\x00\x01", b"\x01\x00"])]
    for t in tries:
        assert xbwt_columns(t) == per_node_columns(t)


# sha256 of the index files of _corpus(2024, 2000) (n = 8,962), recorded
# before the trie and XBWT construction were rewritten
GOLDEN_FILES = {
    "plain": "f9642ae83ad152e64dd59107d89494492a84c17016142701447326fea8372f4b",
    "fid": "95149bb1e34c8fda40d74322aac5169e266b1104b5c26b5ee2c0b4328226279c",
    "id": "6c9c7f0f80e1e3693b908520551cbfee9c11804a9adf1f026b83958b750ac289",
    "fixedblock":
        "3727b82145be02857fd661ce88db305158f4ac6406386cc8b9b9690c4b8fca41",
}


def test_index_files_golden():
    import hashlib
    trie = build_from_strings(_corpus(2024, 2000))
    assert trie.n == 8962
    for mode in MODES:
        data = serialize(build_index(trie, mode))
        assert hashlib.sha256(data).hexdigest() == GOLDEN_FILES[mode], mode


def test_invert_refuses_huge_n():
    """The 39-byte file declaring n = 2^40 loads, but the n-entry lists of
    invert and leaf_run_count are refused before they are allocated."""
    n = 2 ** 40
    idx = deserialize(_id_file(n, (97,), [IdVector._restore(n, [n], True)]))
    with pytest.raises(ValueError, match="^index too large$"):
        invert(idx)
    with pytest.raises(ValueError, match="^index too large$"):
        leaf_run_count(idx)


def test_index_rejects_zero_weight_symbol(fig_trie):
    data = zero_weight_symbol_file(fig_trie)
    with pytest.raises(ValueError,
                       match="^not a valid XBWT: symbol labels no edge$"):
        deserialize(data)


def test_build_memory_linear_on_deep_path():
    """Building a unary path trie and its index holds O(n) memory: no
    root-to-node strings (402 MB at n = 20k when they were built)."""
    import tracemalloc
    peaks = []
    for length in (5000, 20000):
        tracemalloc.start()
        try:
            build_index(build_from_strings([b"a" * length]), "fid")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 20 * 10 ** 6
    assert peaks[1] <= 5 * peaks[0]


def test_check_bounds_sorts_once_per_trie(monkeypatch):
    real = xbwtrie.index.colex_order
    calls = []
    monkeypatch.setattr(xbwtrie.index, "colex_order",
                        lambda trie: calls.append(trie) or real(trie))
    rng = random.Random(17)
    tries = [random_trie(rng, 90, 5) for _ in range(12)]
    for t in tries:
        assert check_bounds(t, 2, modes=MODES).passed
    assert [id(t) for t in calls] == [id(t) for t in tries]


def test_run_count_figure(fig_trie):
    rc = run_count(build_index(fig_trie, "fid"))
    assert rc.total == 6
    assert rc.by_symbol == {97: 1, 98: 3, 99: 2}


def test_run_count_complete_binary():
    rc = run_count(build_index(complete_binary(2), "plain"))
    assert rc.total == 4


def test_run_count_single():
    assert run_count(build_index(build_from_strings([b""]), "plain")).total == 0


def test_leaf_run_count():
    assert leaf_run_count(build_index(complete_binary(2), "plain")) == 2
    assert leaf_run_count(build_index(complete_binary(3), "plain")) == 4


def test_run_bound_on_random_tries(small_tries):
    from xbwtrie import hk
    for t in small_tries[:40]:
        r = run_count(build_index(t, "plain")).total
        sigma_full = t.alphabet.sigma + 1
        for k in (0, 1, 2):
            assert r <= t.n * hk(t, k) + sigma_full ** (k + 1) + 1e-6


def test_auto_mode_selection():
    assert resolve_mode("auto", 200, 9) == "id"
    assert resolve_mode("auto", 200, 2) == "fid"
    assert resolve_mode("plain", 200, 9) == "plain"


def test_id_complement_auto():
    t = build_from_strings([b"a" * 30])  # one symbol on 30 of 31 nodes
    idx = build_index(t, "id")
    assert idx.vectors[0].complemented
    assert count(idx, b"aaa") == naive_count(t, b"aaa")
    assert invert(idx) == t
    from xbwtrie import XbwtIndex
    off = IdVector(t.n, xbwt_columns(t)[0])
    assert not off.complemented
    assert off.one_positions() == idx.vectors[0].one_positions()
    assert count(XbwtIndex(t.n, t.alphabet, "id", (off,)), b"aaa") == \
        count(idx, b"aaa")


@pytest.mark.parametrize("mode", MODES)
def test_serialize_round_trip(fig_trie, mode):
    idx = build_index(fig_trie, mode)
    blob = serialize(idx)
    back = deserialize(blob)
    assert serialize(back) == blob
    assert back.mode == idx.mode and back.n == idx.n
    assert back.c_array == idx.c_array
    for p in (b"", b"b", b"cb", b"bcb", b"abc", b"zzzz"):
        assert count(back, p) == count(idx, p)


def test_serialize_errors(fig_trie):
    blob = serialize(build_index(fig_trie, "fid"))
    with pytest.raises(ValueError, match="truncated"):
        deserialize(b"")
    with pytest.raises(ValueError, match="truncated"):
        deserialize(blob[:10])
    with pytest.raises(ValueError, match="bad magic"):
        deserialize(b"NOPE" + blob[4:])
    with pytest.raises(ValueError, match="version mismatch"):
        deserialize(blob[:4] + b"\x63\x00" + blob[6:])
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    with pytest.raises(ValueError, match="checksum failure"):
        deserialize(bytes(corrupt))
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x10
    with pytest.raises(ValueError, match="checksum failure"):
        deserialize(bytes(flipped))


def test_crc32c_test_vector():
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"") == 0


def _crc32c_bitwise(data, crc=0):
    c = crc ^ 0xFFFFFFFF
    for byte in data:
        c ^= byte
        for _ in range(8):
            c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
    return c ^ 0xFFFFFFFF


def test_crc32c_matches_bitwise_reference():
    rng = random.Random(32)
    for length in range(65):
        data = bytes(rng.randrange(256) for _ in range(length))
        assert crc32c(data) == _crc32c_bitwise(data)
        start = rng.getrandbits(32)
        assert crc32c(data, start) == _crc32c_bitwise(data, start)
        cut = rng.randint(0, length)
        assert crc32c(data[cut:], crc32c(data[:cut])) == crc32c(data)
    assert crc32c(bytearray(b"123456789")) == 0xE3069283


def test_loader_fuzz():
    """Seeded mutate-and-re-CRC fuzz over the four back-ends: a damaged
    file raises ValueError, or loads as an index that answers count within
    [0, n] and inverts (or is refused by invert with ValueError)."""
    import struct
    trie = build_from_strings([b"car", b"cart", b"cat", b"dog", b"do",
                               b"zebra"])
    patterns = [bytes(p) for p in ((97,), (99, 97), (100, 111), (114, 97))]
    rng = random.Random(7)
    rejected = 0
    for mode in MODES:
        body = serialize(build_index(trie, mode))[:-4]
        for _ in range(1000):
            bad = bytearray(body)
            for _ in range(rng.randint(1, 3)):
                bad[rng.randrange(len(bad))] = rng.randrange(256)
            if rng.random() < 0.2:
                del bad[rng.randrange(len(bad)):]
            elif rng.random() < 0.2:
                bad += bytes(rng.randrange(256)
                             for _ in range(rng.randint(1, 9)))
            data = bytes(bad) + struct.pack("<I", crc32c(bytes(bad)))
            try:
                idx = deserialize(data)
            except ValueError:
                rejected += 1
                continue
            for p in patterns:
                assert 0 <= count(idx, p) <= idx.n
            try:
                invert(idx)
            except ValueError:
                pass
    assert rejected > 3500  # of 4000: almost every damage is caught


def test_index_file_header_layout(fig_trie):
    import struct
    idx = build_index(fig_trie, "fid")
    blob = serialize(idx)
    assert blob[:4] == b"XBWT"
    version, mode = struct.unpack_from("<HH", blob, 4)
    assert version == 2 and mode == 1  # the position of "fid" in MODES
    n, sigma = struct.unpack_from("<QH", blob, 8)
    assert (n, sigma) == (7, 4)  # sentinel included
    assert blob[18:22] == b"\x00abc"  # sentinel first, symbols ascending
    # no C array: the vector bodies follow the alphabet back to back
    assert blob[22:-4] == b"".join(map(serialize_bitvector, idx.vectors))
    assert struct.unpack_from("<I", blob, len(blob) - 4)[0] == \
        crc32c(blob[:-4])


# SHA-256 of the index file of each mode for the seeded 2,000-word corpus
# of test_file_bytes_pinned: any change to the bytes a file holds fails here
FILE_SHA256 = {
    "plain": "43000c985f8b0d2b28f5cddcd4cf21781f62954b3d490d6a6fa0dd90ed1c9c13",
    "fid": "d884d4e4d1080ef2f1aa911ef40d64fbed46f4d47e026f58896353b49fa76375",
    "id": "265310627eb815fe43f24bbf8477cc572e686046536dbd821353b69c50f7b397",
    "fixedblock":
        "6d523791ac5ee4c73efa64892d90f9660571dbf8541563fc683683189c154f37",
}


@pytest.mark.parametrize("mode", MODES)
def test_file_bytes_pinned(mode):
    rng = random.Random(1)
    words = [bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(3, 12)))
             for _ in range(2000)]
    data = serialize(build_index(build_from_strings(words), mode))
    assert hashlib.sha256(data).hexdigest() == FILE_SHA256[mode]
    assert serialize(deserialize(data)) == data


@pytest.mark.parametrize("mode", ("plain", "id", "fixedblock"))
def test_file_bits_within_accounting(fig_trie, small_tries, mode):
    # Beyond the accounted bits a file holds only fixed-size fields: the
    # header and CRC, 8 * (22 + sigma) bits; per ID vector (fixed-block
    # children included) the flags byte, the u64 count and the padding of
    # the last position byte, 8 + 64 + 7 = 79 bits; per fixed-block vector
    # b as u64 and the reserved codec byte, 72 bits.  A plain vector's padding is
    # smaller than its accounted rank directory.  fid is left out: each RRR
    # class takes a byte on file against bit_length(u) bits accounted.
    rng = random.Random(3)
    words = [bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(3, 12)))
             for _ in range(2000)]
    for t in [fig_trie, *small_tries, build_from_strings(words)]:
        idx = build_index(t, mode)
        bound = 8 * (22 + idx.sigma)
        for vec in idx.vectors:
            bound += vec.payload_bits().total
            if vec.kind == "id":
                bound += 79
            elif vec.kind == "fixedblock":
                bound += 72 + 79 * len(vec.children)
        assert 8 * len(serialize(idx)) <= bound


def test_backend_answers_identical(small_tries):
    rng = random.Random(77)
    for t in small_tries[:25]:
        idxs = [build_index(t, m) for m in MODES]
        symbols = t.alphabet.symbols or (97,)
        pats = [bytes(rng.choice(symbols) for _ in range(rng.randint(1, 5)))
                for _ in range(20)]
        for p in pats:
            answers = {count(i, p) for i in idxs}
            assert len(answers) == 1

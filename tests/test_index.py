import hashlib
import random
import struct

import pytest

import xbwtrie.index
from xbwtrie import (NodeInterval, Trie, XbwtIndex, build_from_strings,
                     build_index, check_bounds, count, deserialize,
                     forward_step, invert, leaf_run_count, naive_count,
                     random_trie, run_count, serialize)
from xbwtrie.index import (RunCounts, _crc_lanes, _crc_shift, _head_table,
                           column_cost, count_runs, crc32c, index_bits,
                           xbwt_bitmaps, xbwt_columns)
from xbwtrie.succinct import (VECTORS, Bitvector, IdVector, RrrVector,
                              ceil_log2_comb, deserialize_bitvector,
                              serialize_bitvector)

from conftest import (complete_binary, ranked_blocks, word_corpus,
                      zero_weight_symbol_file)
from construction_oracles import per_node_columns, runs_per_position
from succinct_oracles import (block_lens, encode_block, fixed_width_id_body,
                              pack_bitstream, pack_positions, read_ef_id_body)

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
    # A 2-cycle: rank 2 hangs under rank 3 and rank 3 under rank 2, so the
    # root has no child and the walk from it misses both.
    cycle = XbwtIndex(3, Alphabet((97, 98), 0), "plain",
                      (PlainBitvector(3, (3,)), PlainBitvector(3, (2,))))
    with pytest.raises(ValueError, match="not a valid XBWT"):
        invert(cycle)


def test_invert_keeps_the_file_columns(small_tries):
    """invert builds its trie trusted and keeps the vectors' one-positions
    as its columns: both equal what the checked constructor and a co-lex
    sort give."""
    for t in small_tries:
        for mode in MODES:
            got = invert(build_index(t, mode))
            checked = Trie(t.parent, t.label)
            assert checked == got
            assert got._xbwt == xbwt_columns(checked)
            assert all(col.itemsize == 4 for col in got._xbwt)  # packed


def _bit_flips(data: bytes):
    """Every single-bit flip of the bytes before the CRC, the CRC
    recomputed."""
    body = bytearray(data[:-4])
    for i in range(len(body)):
        for bit in range(8):
            body[i] ^= 1 << bit
            yield bytes(body) + struct.pack("<I", crc32c(body))
            body[i] ^= 1 << bit


def test_inverted_mutants_pass_the_checked_constructor():
    """Every single-bit mutant of 30 seeded tries' files, in every mode,
    that loads and inverts is a trie the checked constructor accepts, and
    the file's columns are that trie's XBWT: the trusted build accepts
    nothing ``Trie(parent, label)`` would refuse."""
    rng = random.Random(34)
    inverted = 0
    for _ in range(30):
        t = random_trie(rng, 40, 5)
        for mode in MODES:
            for data in _bit_flips(serialize(build_index(t, mode))):
                try:
                    got = invert(deserialize(data))
                except ValueError:
                    continue
                inverted += 1
                checked = Trie(got.parent, got.label)
                assert checked == got
                assert got._xbwt == xbwt_columns(checked)
    assert inverted > 2000


@pytest.mark.parametrize("command", ["build", "stats"])
def test_index_file_input_takes_no_colex_sort(tmp_path, monkeypatch, capsys,
                                              command):
    """`stats` and `build` read an index file's columns from the file; the
    string set's columns take one co-lex sort."""
    from xbwtrie.cli import main
    words = tmp_path / "words.txt"
    words.write_bytes(b"".join(w + b"\n" for w in word_corpus(3, 300)))
    index_file = str(tmp_path / "words.xbwt")
    assert main(["build", str(words), "--output", index_file]) == 0
    real = xbwtrie.index.colex_order
    calls = []
    monkeypatch.setattr(xbwtrie.index, "colex_order",
                        lambda trie: calls.append(trie) or real(trie))
    for source, sorts in ((index_file, 0), (str(words), 1)):
        calls.clear()
        argv = [command, source]
        if command == "build":
            argv += ["--output", str(tmp_path / "out.xbwt")]
        assert main(argv) == 0
        assert len(calls) == sorts, source


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


class _ReadLog(tuple):
    """A tuple of block words that logs the index of every read."""

    def __getitem__(self, bi):
        self.reads.add(bi)
        return super().__getitem__(bi)


def test_fixed_block_file_unranks_only_blocks_count_reads(unrank_calls):
    """Loading a fixed-block file unranks no block; count unranks exactly
    the blocks it reads, found by logging the reads of the built index's
    tuples, each of them once."""
    calls = unrank_calls
    built = build_index(build_from_strings(word_corpus(1, 2000)),
                        "fixedblock")
    loaded = deserialize(serialize(built))
    assert calls == []
    for vec in built.vectors:
        vec.children = _ReadLog(vec.children)
        vec.children.reads = set()
    rng = random.Random(3)
    patterns = [bytes(rng.choice(b"abcdefgh")
                      for _ in range(rng.randint(1, 6))) for _ in range(40)]
    for _ in range(2):  # the second pass reads only unranked words
        assert [count(loaded, p) for p in patterns] == \
            [count(built, p) for p in patterns]
    blocks = read = 0
    for old, new in zip(built.vectors, loaded.vectors):
        assert set(new.children) == old.children.reads
        blocks += len(old.children)
        read += ranked_blocks(new, new.children)
    assert len(calls) == read < blocks


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


def test_head_table_depth_pinned():
    """On the seed-1 20k-word corpus (n = 72,772) the head table reaches
    k = 2 in every mode; a fid vector counts one stored item per u-bit
    block (u = 14), however its words are held, so its budget is pinned."""
    trie = build_from_strings(word_corpus(1, 20000))
    stored = {"plain": 9104, "fid": 41584, "id": 72771, "fixedblock": 11464}
    for mode in MODES:
        idx = build_index(trie, mode)
        _head_table(idx)
        assert idx._k == 2, mode
        assert sum(vec.stored_items() for vec in idx.vectors) == \
            stored[mode], mode


def test_xbwt_columns_figure(fig_trie):
    cols = xbwt_columns(fig_trie)
    assert tuple(map(tuple, cols)) == tuple(
        tuple(p for p, bit in enumerate(FIG_VECTORS[c], start=1) if bit == "1")
        for c in fig_trie.alphabet.symbols)
    # packed: one array of 4-byte items per column
    assert all(col.itemsize == 4 for col in cols)
    assert xbwt_columns(fig_trie) is cols  # kept on the trie


def test_xbwt_columns_match_per_node_loop(small_tries):
    tries = small_tries + [build_from_strings(word_corpus(5, 3000)),
                           build_from_strings([b""]),
                           build_from_strings([b"\x00\x01", b"\x01\x00"])]
    for t in tries:
        assert tuple(map(tuple, xbwt_columns(t))) == per_node_columns(t)


# sha256 of the index files of word_corpus(2024, 2000) (n = 8,962), recorded
# before the trie and XBWT construction were rewritten and re-recorded for
# file versions 3 to 7, and for fid at u = 14; the
# test_version_*_moved_only_* tests below show which bodies each version
# changed
GOLDEN_FILES = {
    "plain": "d2bd838c7c9059ce7a4ee124dbba28df8c82504a6952c3d1da7032bc1e2c0357",
    "fid": "8133c3d5588fd4630a06010734cce0fc9f20b4af3b7839657e2356b31e5f9e66",
    "id": "92d8b9189700c0c80d1229fc58955942309298f1eb34f080169799bdd8a43c58",
    "fixedblock":
        "1be49ffde62a0ad17be1699d63452cb924a9c955f73ce5513d0adbb98f4de7b9",
}


def test_index_files_golden():
    import hashlib
    trie = build_from_strings(word_corpus(2024, 2000))
    assert trie.n == 8962
    for mode in MODES:
        data = serialize(build_index(trie, mode))
        assert hashlib.sha256(data).hexdigest() == GOLDEN_FILES[mode], mode


def test_invert_refuses_huge_n():
    """The 39-byte file declaring n = 2^40 loads, but the n-entry lists of
    invert, and the n-bit bitmaps of leaf_run_count and run_count, are
    refused before they are allocated."""
    n = 2 ** 40
    idx = deserialize(_id_file(n, (97,), [IdVector._restore(n, [n], True)]))
    for refused in (invert, leaf_run_count, run_count):
        with pytest.raises(ValueError, match="^index too large$"):
            refused(idx)


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


def test_id_index_load_peaks_within_four_times_its_file():
    """An id body's positions are read straight into the vector's array,
    from a view of the file: loading the seeded 20k-word id index
    (n = 72,772) peaks at most 4x its file, a little over what the arrays
    and bucket directories hold (6.5x when the positions went through a
    list and the body was copied)."""
    import tracemalloc
    data = serialize(build_index(build_from_strings(word_corpus(1, 20000)),
                                 "id"))
    tracemalloc.start()
    try:
        loaded = deserialize(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert serialize(loaded) == data
    assert peak <= 4 * len(data)


@pytest.mark.parametrize("mode", ["plain", "id"])
def test_invert_memory_linear_on_deep_path(mode):
    """Inverting the index of a 20k-node path trie holds about what building
    the trie does: three rank-indexed int lists and the pre-order output,
    no per-node tuple and no renumbering."""
    import tracemalloc
    words = [b"a" * 20000]
    tracemalloc.start()
    try:
        trie = build_from_strings(words)
        built = tracemalloc.get_traced_memory()[1]
        idx = build_index(trie, mode)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert invert(idx) == trie
        inverted = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert inverted <= 1.5 * built


def test_column_cost_matches_built_index(small_tries):
    """The cost accounted from the columns is what the built vectors
    report: their bits, their largest entropy block and their block count.
    The cases include a short last block for both u and b, and an id vector
    stored as its complement."""
    tries = [*small_tries, *(complete_binary(h) for h in range(1, 9)),
             *(build_from_strings([b"a" * length]) for length in range(1, 71))]
    seen = set()
    for t in tries:
        for mode in MODES:
            idx = build_index(t, mode)
            acc = column_cost(t, mode)
            assert acc.bits == index_bits(idx), (t, mode)
            sizes = [v.entropy_block_size for v in idx.vectors]
            assert acc.block_size == (None if not sizes or None in sizes
                                      else max(sizes)), (t, mode)
            assert acc.block_count == sum(v.entropy_block_count
                                          for v in idx.vectors), (t, mode)
            for v in idx.vectors:
                if mode == "fid" and v.m % v.size:
                    seen.add("short fid block")
                if mode == "fixedblock" and v.m % v.b:
                    seen.add("short fixed block")
                if mode == "id" and v.complemented:
                    seen.add("complemented id")
    assert seen == {"short fid block", "short fixed block",
                    "complemented id"}


@pytest.mark.parametrize("mode", ["auto", "bogus"])
def test_column_cost_refuses_unknown_mode(fig_trie, mode):
    with pytest.raises(ValueError, match="unknown mode"):
        column_cost(fig_trie, mode)


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


def test_count_runs_matches_the_per_position_count(small_tries):
    """A bitmap's runs, counted as its set bits whose lower neighbour is
    clear, are the runs a per-position count finds: at every length near a
    byte and at several densities, for runs that start, end and cross byte
    boundaries, and for the XBWT columns and the leaves of seeded tries."""
    rng = random.Random(47)
    cases = [(m, [p for p in range(1, m + 1) if rng.random() < density])
             for m in (*range(1, 20), 63, 64, 65, 200)
             for density in (0.1, 0.5, 0.9, 1)]
    # runs 7..9 and 12..17 cross a byte boundary, 16..24 spans a whole
    # byte, and the last run ends at m
    cases += [(48, [*range(7, 10), *range(12, 18), 20, *range(31, 41), 48]),
              (32, [*range(16, 25), 32]), (9, [8, 9]), (9, [1, 8])]
    symbols = range(len(cases))
    want = {c: runs_per_position(ones) for c, (_, ones) in zip(symbols, cases)}
    assert count_runs(symbols, [pack_positions(m, ones) for m, ones in cases]
                      ) == RunCounts(sum(want.values()), want)
    for t in small_tries[:100]:
        cols = per_node_columns(t)
        want = {c: runs_per_position(col)
                for c, col in zip(t.alphabet.symbols, cols)}
        assert count_runs(t.alphabet.symbols, xbwt_bitmaps(t)).by_symbol == \
            want
        idx = build_index(t, "id")
        assert run_count(idx) == RunCounts(sum(want.values()), want)
        internal = {p for col in cols for p in col}
        assert leaf_run_count(idx) == runs_per_position(
            p for p in range(1, t.n + 1) if p not in internal)


def test_vectors_built_from_the_shared_bitmaps_match_the_constructors():
    """A trie's bitmaps are its columns packed, made once; plain, fid and
    fixed-block vectors built from them, and id vectors built from the
    column arrays, serialize byte for byte as each back-end's constructor
    over the column as a list does (id at the index's complement flag): on
    seeded random tries with n < 8, n % 8 != 0 and n below fid's 14-bit
    block, and on paths, whose one column is all ones but the last."""
    rng = random.Random(49)
    tries = [random_trie(rng, top, 5) for top in (7, 13, 40, 300)
             for _ in range(40)]
    tries += [build_from_strings([b"a" * k]) for k in range(20)]
    assert {t.n for t in tries} >= set(range(1, 14))
    for t in tries:
        n = t.n
        cols = xbwt_columns(t)
        bitmaps = xbwt_bitmaps(t)
        assert bitmaps == tuple(pack_positions(n, col) for col in cols)
        assert xbwt_bitmaps(t) is bitmaps  # kept on the trie
        for mode in MODES:
            want = [IdVector(n, list(col), len(col) > n / 2) if mode == "id"
                    else VECTORS[mode](n, list(col)) for col in cols]
            assert list(map(serialize_bitvector,
                            build_index(t, mode).vectors)) == \
                list(map(serialize_bitvector, want)), (n, mode)


def test_run_bound_on_random_tries(small_tries):
    from xbwtrie import hk
    for t in small_tries[:40]:
        r = run_count(build_index(t, "plain")).total
        sigma_full = t.alphabet.sigma + 1
        for k in (0, 1, 2):
            assert r <= t.n * hk(t, k) + sigma_full ** (k + 1) + 1e-6


def test_one_backend_table():
    """The back-ends are listed once, in succinct.VECTORS by kind and in
    file mode order: the index's MODES are its keys, and the index module
    binds no vector class of its own."""
    assert tuple(VECTORS) == xbwtrie.index.MODES == MODES
    for kind, cls in VECTORS.items():
        assert cls.kind == kind
    assert not [name for name, value in vars(xbwtrie.index).items()
                if isinstance(value, type) and issubclass(value, Bitvector)
                and value is not Bitvector]


def test_auto_mode_selection(fig_trie, small_tries):
    """'auto' is the mode with the smallest file, the first in MODES on a
    tie."""
    corpus = build_from_strings(word_corpus(1, 2000))
    for t in [fig_trie, *small_tries, corpus]:
        sizes = [len(serialize(build_index(t, mode))) for mode in MODES]
        auto = serialize(build_index(t, "auto"))
        assert len(auto) == min(sizes)
        assert deserialize(auto).mode == MODES[sizes.index(min(sizes))]
    assert build_index(corpus, "auto").mode == "fixedblock"


def test_auto_writes_smallest_file():
    """On the seed-1 5k-word corpus the accounted totals put fixedblock
    first while fid's version-4 file was the smaller (15,911 against
    18,937 bytes); 'auto' now compares the files themselves.  fid at
    u = 14 writes 14,446 bytes, still more than fixedblock's."""
    trie = build_from_strings(word_corpus(1, 5000))
    sizes = {mode: len(serialize(build_index(trie, mode))) for mode in MODES}
    assert sizes["fid"] == 14446
    assert sizes["fixedblock"] == 12130
    assert len(serialize(build_index(trie, "auto"))) == min(sizes.values())


def test_file_length_is_serialized_length(small_tries):
    """The file length computed from the columns is the serialized one, in
    every mode, and 'auto' builds the mode of the least, the first in
    MODES on a tie."""
    tries = [*small_tries, *(complete_binary(h) for h in range(1, 9)),
             *(build_from_strings([b"a" * length]) for length in range(1, 71)),
             build_from_strings(word_corpus(1, 5000))]
    for t in tries:
        lengths = [column_cost(t, mode).file_length for mode in MODES]
        for mode, length in zip(MODES, lengths):
            assert length == len(serialize(build_index(t, mode))), (t, mode)
        assert build_index(t, "auto").mode == MODES[lengths.index(
            min(lengths))]


@pytest.mark.parametrize("mode", MODES)
def test_str_pattern_refused(fig_trie, mode):
    """A str pattern is not a sequence of byte values: count and
    forward_step refuse it rather than count 0, while a byte value outside
    the alphabet still counts 0."""
    idx = build_index(fig_trie, mode)
    assert count(idx, b"cb") == 1
    for pattern in ("cb", ""):
        with pytest.raises(TypeError):
            count(idx, pattern)
    with pytest.raises(TypeError):
        forward_step(idx, NodeInterval(1, idx.n), "a")
    assert count(idx, b"cz") == 0
    assert forward_step(idx, NodeInterval(1, idx.n), ord("z")).empty


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


LANE_LENGTHS = (16, 32, 64, 128, 256, 512)


def _crc32c_at(data, s, crc=0):
    """crc32c with lanes of length s over the whole s-byte blocks (none
    when s is 0), continued over the rest by crc32c."""
    if not s:  # under 256 bytes at a time, crc32c runs no lanes
        for at in range(0, len(data), 255):
            crc = crc32c(data[at:at + 255], crc)
        return crc
    c, rest = _crc_lanes(memoryview(data), s, crc ^ 0xFFFFFFFF)
    return crc32c(rest, c ^ 0xFFFFFFFF)


def test_crc32c_every_lane_length_matches_bitwise_reference():
    """Each lane length at one block less, one block, one block more and
    k blocks plus a tail, up to twice the largest lane length and past
    it; from register 0 and from a start register."""
    rng = random.Random(33)
    for s in LANE_LENGTHS:
        lengths = {s - 1, s, s + 1, 2 * s + 1, 3 * s + s // 2, 5 * s - 1,
                   2 * 512 + 3, 3 * 512 - 1}
        for length in sorted(lengths):
            data = rng.randbytes(length)
            start = rng.getrandbits(32)
            assert _crc32c_at(data, s) == _crc32c_bitwise(data)
            assert _crc32c_at(data, s, start) == _crc32c_bitwise(data, start)
    # under 256 bytes no lanes run: every byte goes through the byte table
    for length in (*range(20), 100, 255):
        data = rng.randbytes(length)
        assert crc32c(data) == _crc32c_bitwise(data)


def test_crc32c_lane_rule_boundaries_and_lane_batches():
    """crc32c picks the lane length from the input's size; at each
    length where it changes, and across the lanes' 1 MB batches, it
    agrees with the pass that runs no lanes."""
    rng = random.Random(34)
    data = rng.randbytes(512 * 512 + 1)
    view = memoryview(data)
    for s in LANE_LENGTHS:
        first = s * s  # the shortest input that takes lane length s
        for length in (first - 1, first, first + 1):
            assert crc32c(view[:length]) == _crc32c_at(view[:length], 0)
    # lanes go 2048 at a time: two batches and a part of a third
    length = 2 * 2048 * 16 + 5 * 16 + 7
    assert _crc32c_at(view[:length], 16) == _crc32c_at(view[:length], 0)


def test_crc32c_takes_bytes_bytearray_and_views():
    """The loader passes a view of the file without its CRC; a view that
    starts past its buffer's first byte reads from where it starts."""
    rng = random.Random(35)
    for length in (0, 100, 3000, 40000):
        data = rng.randbytes(length + 9)
        want = _crc32c_at(data[5:-4], 0)
        assert crc32c(data[5:-4]) == want
        assert crc32c(bytearray(data[5:-4])) == want
        assert crc32c(memoryview(data)[5:-4]) == want
        assert crc32c(memoryview(bytearray(data))[5:-4]) == want


def test_crc32c_split_at_every_point():
    """A CRC continued from the CRC of a prefix is the CRC of the whole,
    whichever lane lengths the two parts take."""
    rng = random.Random(36)
    data = rng.randbytes(1300)
    whole = crc32c(data)
    assert whole == _crc32c_bitwise(data)
    for cut in range(len(data) + 1):
        assert crc32c(data[cut:], crc32c(data[:cut])) == whole
    start = rng.getrandbits(32)
    assert crc32c(data, start) == _crc32c_bitwise(data, start)
    big = rng.randbytes(300000)
    whole = crc32c(big)
    for cut in (1, 511, 2048, 131071, 150000, 299999):
        assert crc32c(big[cut:], crc32c(big[:cut])) == whole


def test_crc32c_bit_flip_in_every_lane_column_changes_it():
    """A 40 KB buffer (lane length 128): one bit flipped at each of the
    512 in-block positions of some block, so in every lane column of
    every lane length, changes the CRC."""
    rng = random.Random(37)
    data = bytearray(rng.randbytes(40 * 1024))
    base = crc32c(data)
    assert base == _crc32c_bitwise(data)
    blocks = len(data) // 512
    for j in range(512):
        at = (j * 7 % blocks) * 512 + j
        data[at] ^= 1 << (j & 7)
        assert crc32c(data) != base
        data[at] ^= 1 << (j & 7)
    assert crc32c(data) == base


def test_crc32c_shift_tables():
    """The cached table for s zero bytes shifts a register as 8s zero
    bits do."""
    rng = random.Random(38)
    for s in (4, 8, *LANE_LENGTHS):
        s0, s1, s2, s3 = _crc_shift(s)
        for c in [0, 1, 1 << 31, 0xFFFFFFFF] + [rng.getrandbits(32)
                                                for _ in range(8)]:
            want = c
            for _ in range(8 * s):  # one zero bit at a time
                want = (want >> 1) ^ 0x82F63B78 if want & 1 else want >> 1
            assert (s0[c & 0xFF] ^ s1[c >> 8 & 0xFF] ^ s2[c >> 16 & 0xFF]
                    ^ s3[c >> 24]) == want


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
    assert version == 7 and mode == 1  # the position of "fid" in MODES
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
    "plain": "e54311388924a5acb606b403da9da06baf771fcdfede95e8c3261fe69a27e2d0",
    "fid": "fab5d9e86672919b6393a84f38083c0af979328ba54190ad7287b02be3755bd1",
    "id": "5d25d4bd9fd3e23bb9d402344f78867c5058872268e34dacd29e169e4bb6a857",
    "fixedblock":
        "93adcc4cb17e1f9f71353e5437c02ff1639b59a7098d81d44423154bec619433",
}


def _pinned_words():
    rng = random.Random(1)
    return [bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(3, 12)))
            for _ in range(2000)]


@pytest.mark.parametrize("mode", MODES)
def test_file_bytes_pinned(mode):
    data = serialize(build_index(build_from_strings(_pinned_words()), mode))
    assert hashlib.sha256(data).hexdigest() == FILE_SHA256[mode]
    assert serialize(deserialize(data)) == data


@pytest.fixture(scope="module")
def words_20k():
    """The trie of the seed-1 20k-word corpus, n = 72,772."""
    trie = build_from_strings(word_corpus(1, 20_000))
    assert trie.n == 72_772
    return trie


def test_id_index_resident_within_three_times_its_file(words_20k):
    """A loaded id index keeps one byte a stored position, each its offset
    in its directory bucket, and a directory entry per bucket of 8 to 16
    positions: the seeded 20k-word id index holds at most 3x its file
    after the load and after 5,000 counts, which build the head table."""
    import tracemalloc
    data = serialize(build_index(words_20k, "id"))
    rng = random.Random(5)
    patterns = [bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(1, 8)))
                for _ in range(5000)]
    tracemalloc.start()
    try:
        loaded = deserialize(data)
        after_load = tracemalloc.get_traced_memory()[0]
        answers = sum(count(loaded, p) for p in patterns)
        after_counts = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert answers > 0
    assert after_load <= after_counts <= 3 * len(data)


@pytest.mark.parametrize("mode", MODES)
def test_loaded_index_reserializes(words_20k, mode):
    """A loaded index writes the bytes it was read from, on a trie past the
    2,000 words of test_file_bytes_pinned.  A loaded fid or fixed-block
    vector's words are a dict filled in on first read, whose iteration
    yields keys, so the writer reads them by index."""
    data = serialize(build_index(words_20k, mode))
    assert serialize(deserialize(data)) == data


def _lexicographic_fid_body(body: bytes, m: int) -> bytes:
    """A fid body with each block offset re-coded from the block's
    combinatorial rank, as version 6 stores it, to the lexicographic rank
    of ``succinct_oracles.encode_block``, as versions 3 to 5 stored it, at
    the same width."""
    v, used = deserialize_bitvector("fid", m, body)
    assert used == len(body)
    lens = block_lens(m, v.size)
    head = 1 + (len(lens) * v.size.bit_length() + 7) // 8
    value = sum(1 << (p - 1) for p in v.one_positions())
    codes = [encode_block((value >> (b * v.size)) & ((1 << blen) - 1), blen)
             for b, blen in enumerate(lens)]
    assert bytes(cls for cls, _ in codes) == v.counts
    widths = [ceil_log2_comb(blen, cls) for blen, (cls, _) in zip(lens, codes)]
    assert len(body) - head == (sum(widths) + 7) // 8
    return body[:head] + pack_bitstream([off for _, off in codes], widths)


def _file_at_old_fid_u(words, mode: str) -> bytes:
    """The index file of the string set, with each fid column at the u
    that file versions 3 to 6 were written at, floor(floor(log2 n) / 2),
    before fid's one u of 14: the files the version history below
    recorded.  Other modes are built as they are."""
    trie = build_from_strings(words)
    if mode != "fid":
        return serialize(build_index(trie, mode))
    u = (trie.n.bit_length() - 1) // 2
    return serialize(XbwtIndex(trie.n, trie.alphabet, mode, tuple(
        RrrVector(trie.n, ones, u) for ones in xbwt_columns(trie))))


def _as_version(data: bytes, version: int) -> bytes:
    """A version-7 index file as an earlier version wrote it: its version
    field set back, each id body re-coded from Elias-Fano to the
    fixed-width positions of versions 3 to 6
    (``succinct_oracles.fixed_width_id_body``), each fid body before
    version 6 re-coded by :func:`_lexicographic_fid_body`, and its CRC
    recomputed."""
    import struct
    mode, n, sigma = struct.unpack_from("<HQH", data, 6)
    off = 18 + sigma
    parts = [data[:4], struct.pack("<H", version), data[6:off]]
    while MODES[mode] in ("fid", "id") and off < len(data) - 4:
        if MODES[mode] == "id":
            complemented, stored, end = read_ef_id_body(data, n, off)
            parts.append(fixed_width_id_body(n, stored, complemented))
        else:
            _, end = deserialize_bitvector("fid", n, data, off)
            parts.append(_lexicographic_fid_body(data[off:end], n)
                         if version < 6 else data[off:end])
        off = end
    body = b"".join(parts) + data[off:-4]
    return body + struct.pack("<I", crc32c(body))


# FILE_SHA256 and GOLDEN_FILES as file version 3 recorded them
V3_FILE_SHA256 = {
    "plain": "0892624f5868c3a4c86c7301e080ac61e0877cc5bbad4170870c021243ae19d9",
    "fid": "1f30c4d00b48f4f7f54bff56083bdc91d3ac5224745fd89aa9c1699e175c9e5f",
    "id": "e8ee9a80e97d99f3b763815cc94bdeb3654aa3bb66cef3bfcbb5e01e6d70e3f7",
}
V3_GOLDEN_FILES = {
    "plain": "b57c2c24301f0279beed12531e5d7b2afea07e1bc672980a2693706ccd9621b7",
    "fid": "2d6792ef3c0c1656c9e14bb062b568d85d05d48ddaca658d40faf935afc8f4d2",
    "id": "024844d585f45f90186c99cb4e6eb0fa5b0e73e3fb6f7a46752a558ff0ef386e",
}


@pytest.mark.parametrize("mode", ["plain", "fid", "id"])
def test_version_4_moved_only_fixed_block_bodies(mode):
    """A plain, fid or id file, set back to version 3 (its fid offsets
    re-coded to the lexicographic code), is the version 3 file byte for
    byte."""
    for words, v3 in ((_pinned_words(), V3_FILE_SHA256),
                      (word_corpus(2024, 2000), V3_GOLDEN_FILES)):
        data = _file_at_old_fid_u(words, mode)
        assert hashlib.sha256(_as_version(data, 3)).hexdigest() == v3[mode]


# FILE_SHA256 and GOLDEN_FILES as file version 4 recorded them
V4_FILE_SHA256 = {
    "plain": "539829e83ab7aac689828523578abaf3f95b1fc1338044941276e5fd74cd82e4",
    "fid": "3e52210175abf673b364fb381a800374f89d9d6111ccf24ed92e505214880f7a",
    "id": "825b7cff221d632242db32b035df6afce37f98103938e14112dbdfe68b65d3d3",
}
V4_GOLDEN_FILES = {
    "plain": "9893fcdcea8fb1b325c99dc7cb4fe7154b975cef8d8722ebeb79eb226e739f9d",
    "fid": "90576da966b79117fca5d29bfaf1813661d4be8d29a14046e73a38a8ee3da6e6",
    "id": "0e3a66775b8e527526b5ef8475eb2fa1c67aeaca37021d8b7f982440b3ef6518",
}


@pytest.mark.parametrize("mode", ["plain", "fid", "id"])
def test_version_5_moved_only_fixed_block_bodies(mode):
    """A plain, fid or id file, set back to version 4 (its fid offsets
    re-coded to the lexicographic code), is the version 4 file byte for
    byte."""
    for words, v4 in ((_pinned_words(), V4_FILE_SHA256),
                      (word_corpus(2024, 2000), V4_GOLDEN_FILES)):
        data = _file_at_old_fid_u(words, mode)
        assert hashlib.sha256(_as_version(data, 4)).hexdigest() == v4[mode]


# FILE_SHA256 and GOLDEN_FILES as file version 5 recorded them
V5_FILE_SHA256 = {
    "plain": "1dd5f30ac8f25fdef4ee079d277c4209bd473eba2c8c349892afc86924189f1d",
    "fid": "577625cbfce98ddfdadfc51fcac01e7086d6fd80af97e826963ca7dfc8ba0802",
    "id": "fa27e85dc00391d5ef942034274ad84b84628bf547108fb25d5ec2c7ce7d6308",
    "fixedblock":
        "4e56cd852542e323fff6799dbddd4cae9aca34990532379cf455d8a9d158255e",
}
V5_GOLDEN_FILES = {
    "plain": "3c4e20d4e4a4bad6263bb2a6e457568c7ce6c7bf7d2bcd67933e1e8eb50a9714",
    "fid": "4d5807bad7b626c6cc13fc2892647d6f78601b2ca1d2cd2fac005639fae8dc2f",
    "id": "1d0c35d07fbbbbbefd75f7526774951820dae65d524f1a64bde06fff0e386482",
    "fixedblock":
        "8feb58d0cd55267e16ce8ca88d1deaf743460c4e4273934bf0fcb8ae20153ca9",
}


@pytest.mark.parametrize("mode", MODES)
def test_version_6_moved_only_fid_bodies(mode):
    """A file of any mode, set back to version 5, is the version 5 file
    byte for byte once each fid offset is re-coded from its combinatorial
    rank to the lexicographic code: version 6 changed the fid offsets
    alone, and not their widths."""
    for words, v5 in ((_pinned_words(), V5_FILE_SHA256),
                      (word_corpus(2024, 2000), V5_GOLDEN_FILES)):
        data = _file_at_old_fid_u(words, mode)
        assert hashlib.sha256(_as_version(data, 5)).hexdigest() == v5[mode]


# FILE_SHA256 and GOLDEN_FILES as file version 6 recorded them, at fid's
# u = 14
V6_FILE_SHA256 = {
    "plain": "be8935019680584891e04945652b266c6e9b7d53a78ef47996b59fd5cd1289e8",
    "fid": "bbc87c5e82be8d4ac72ed797452a08a9c5ee59352c5ba58cb20ab908a532d8e5",
    "id": "8baed9f7069e7b040daa232839e0d3ec697084ec8c98b3922dfffeb4251afbfc",
    "fixedblock":
        "00957a29ef2109eb328be94990083f08dec053dd74fdb9685b80c1ad6a392999",
}
V6_GOLDEN_FILES = {
    "plain": "8e33d50cc2760952841586df4185f3d57682f4248f4b066ece48885f943eb8a5",
    "fid": "0cdca32e33235e27c56c2bc2e91ee43ddaff794e75babe983580c6febbc3ae9f",
    "id": "fe569e9a6fe00606f95b78601f9386d43a00669c502595e0e9f2b3bdb394ba0e",
    "fixedblock":
        "5143b7fad8c827b56320c0d8f9ad826fa90f1885e334870f1b71aa486f1c5259",
}


@pytest.mark.parametrize("mode", MODES)
def test_version_7_moved_only_id_bodies(mode):
    """A file of any mode, set back to version 6, is the version 6 file
    byte for byte once each id body is re-coded from Elias-Fano to
    fixed-width positions: version 7 changed the id bodies alone, and a
    plain, fid or fixed-block file only in its version field and CRC."""
    for words, v6 in ((_pinned_words(), V6_FILE_SHA256),
                      (word_corpus(2024, 2000), V6_GOLDEN_FILES)):
        data = serialize(build_index(build_from_strings(words), mode))
        assert hashlib.sha256(_as_version(data, 6)).hexdigest() == v6[mode]
        if mode != "id":
            assert _as_version(data, 6)[6:-4] == data[6:-4]


@pytest.mark.parametrize("mode", MODES)
def test_file_bits_within_accounting(fig_trie, small_tries, mode):
    # a file is its header, alphabet and CRC, 8 * (22 + sigma) bits, and
    # the bodies, whose bits are exactly the accounted payload and overhead
    corpus = build_from_strings(word_corpus(3, 2000))
    for t in [fig_trie, *small_tries, corpus]:
        idx = build_index(t, mode)
        assert 8 * len(serialize(idx)) == \
            8 * (22 + idx.sigma) + index_bits(idx).total


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


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda i: XbwtIndex(i.n, i.alphabet, "x", i.vectors),
                 ValueError, "unknown mode 'x'", id="mode"),
    pytest.param(lambda i: XbwtIndex(i.n, i.alphabet, i.mode, i.vectors[:-1]),
                 ValueError, "need one bitvector per non-sentinel symbol",
                 id="vector-too-few"),
    pytest.param(lambda i: count(i, [98, "x"]), TypeError,
                 "pattern symbol 'x' is not a byte value", id="count-str"),
])
def test_argument_errors(fig_trie, call, error, match):
    with pytest.raises(error, match=match):
        call(build_index(fig_trie, "plain"))

import random
from itertools import chain

import pytest

from xbwtrie import (Alphabet, SymbolDistribution, Trie, build_from_strings,
                     build_index, colex_order, context, naive_count,
                     strings_from_bytes, symbol_distribution)

from conftest import (FIG_COLEX, FIG_LABEL, FIG_PARENT, FIG_STRINGS,
                      word_corpus)
from construction_oracles import (colex_order_by_paths, context_by_paths,
                                  dict_trie, old_trie_check)


def test_build_single_node():
    t = build_from_strings([b""])
    assert t.n == 1
    assert t.alphabet.symbols == ()
    assert t.alphabet.sentinel == 0


def test_build_figure_trie():
    t = build_from_strings(FIG_STRINGS)
    assert t.n == 7
    assert t.parent == FIG_PARENT
    assert t.label == FIG_LABEL
    assert t.alphabet.symbols == (97, 98, 99)
    assert t.alphabet.sentinel == 0


def test_build_prefix_sharing():
    t = build_from_strings([b"ab", b"ac"])
    assert t.n == 4
    assert t.parent == (0, 0, 1, 1)


def test_build_empty_list_rejected():
    with pytest.raises(ValueError, match="^no strings$"):
        build_from_strings([])
    with pytest.raises(ValueError, match="^no strings$"):
        build_from_strings(iter([]))


def test_build_no_sentinel_available():
    for strings in ([bytes([b]) for b in range(256)], [bytes(range(256))]):
        with pytest.raises(ValueError, match="^no sentinel available$"):
            build_from_strings(strings)


def test_sentinel_skips_used_low_bytes():
    t = build_from_strings([b"\x00\x01"])
    assert t.alphabet.sentinel == 2


def test_alphabet_invariants():
    with pytest.raises(ValueError):
        Alphabet((98, 97), 0)
    with pytest.raises(ValueError):
        Alphabet((97,), 97)


def test_trie_alphabet_from_labels():
    assert Trie((0, 0), (0, 98)).alphabet == Alphabet((98,), 0)
    with pytest.raises(ValueError, match="symbols must be byte values"):
        Trie((0, 0, 1), (0, 98, 300))
    # a structural fault is reported before a bad label
    with pytest.raises(ValueError, match="parent < child"):
        Trie((0, 0, 5), (0, 98, 300))


def test_node_ids_checked_and_renumbered_in_preorder():
    # node 3 hangs under node 1, so pre-order visits it before node 2
    parent, label = (0, 0, 0, 1), (0, 97, 98, 97)
    with pytest.raises(ValueError, match="node ids must be in pre-order"):
        Trie(parent, label)
    with pytest.raises(ValueError, match="parent < child"):
        Trie((0, 2, 0), (0, 97, 98))


def test_colex_order_figure(fig_trie):
    assert colex_order(fig_trie) == FIG_COLEX


def test_colex_order_trivial():
    # sigma = 0: the window keys are still packed in base 2, so t is finite
    assert colex_order(build_from_strings([b""])) == [0]
    assert colex_order(build_from_strings([b"a", b"b"])) == [0, 1, 2]


def test_colex_matches_reversed_path_sort(small_tries):
    for t in small_tries:
        assert colex_order(t) == colex_order_by_paths(t)
        assert colex_order(t)[0] == 0  # the root comes first


@pytest.mark.parametrize("strings", [
    [b"a" * 300],
    [b"ab" * 150, b"ba" * 150, b"a" * 200],
    [b"ab" * 40, b"b" * 90, b"aab" * 30, b"bab" * 25],
    [bytes(range(1, 256)), bytes(range(1, 200, 2))],
])
def test_colex_deeper_than_window(strings):
    # Deeper than the window (61 labels at sigma 1, 39 at sigma 2) with
    # repeating labels, so equal window keys leave prefix-doubling rounds;
    # or deeper (7 labels at sigma 255) with every window distinct, so the
    # first sort is final.
    t = build_from_strings(strings)
    assert colex_order(t) == colex_order_by_paths(t)


def test_colex_255_symbols():
    # base 256 leaves a 7-label window; the runs and the shifted copies of
    # one long string collide on it
    rng = random.Random(255)
    strings = [bytes([b]) * 12 for b in range(1, 256)]
    strings += [bytes(range(1, 256))[i:] * 2 for i in range(0, 255, 17)]
    strings += [bytes(rng.randrange(1, 256) for _ in range(rng.randrange(30)))
                for _ in range(200)]
    t = build_from_strings(strings)
    assert t.alphabet.sigma == 255
    assert colex_order(t) == colex_order_by_paths(t)


def test_context_basics(fig_trie):
    assert context(fig_trie, 3, 0) == b""
    assert context(fig_trie, 0, 3) == b"\x00\x00\x00"
    assert context(fig_trie, 4, 2) == b"cb"


def test_context_matches_path_oracle(small_tries):
    deep = build_from_strings([b"ab" * 150, b"ba" * 150, b"a" * 200])
    for t in small_tries[:60] + [deep, build_from_strings([b""])]:
        for v in range(t.n):
            for k in range(5):
                assert context(t, v, k) == context_by_paths(t, v, k)


def test_children_built_on_first_use(small_tries):
    # fresh copies: the session's tries may have built theirs already
    for s in small_tries[:60] + [build_from_strings([b""])]:
        t = Trie(s.parent, s.label)
        build_index(t, "plain")
        assert t._children is None  # the index path never reads them
        kids = [[] for _ in range(t.n)]
        for v in range(1, t.n):
            kids[t.parent[v]].append((t.label[v], v))
        assert t.children == tuple(map(tuple, kids))
        assert t.children is t.children
        for v in range(t.n):
            assert list(t.out_labels(v)) == sorted(c for c, _ in kids[v])


def test_context_recurrence(small_tries):
    # The recurrence holds for the root too: its parent is itself and its
    # incoming label is the sentinel, which reproduces the padding rule.
    for t in small_tries[:40]:
        for v in range(t.n):
            for k in range(4):
                assert context(t, v, k + 1) == \
                    context(t, t.parent[v], k) + bytes([t.label[v]])


def test_naive_count_figure(fig_trie):
    assert naive_count(fig_trie, b"b") == 3
    assert naive_count(fig_trie, b"cb") == 1
    assert naive_count(fig_trie, b"") == 7
    assert naive_count(fig_trie, b"zz") == 0


def test_naive_count_rejects_sentinel(fig_trie):
    with pytest.raises(ValueError, match="pattern contains sentinel"):
        naive_count(fig_trie, b"\x00b")


def test_naive_count_longer_than_height(fig_trie):
    assert naive_count(fig_trie, b"bcbabb") == 0


def test_naive_count_child_consistency(small_tries):
    # Nodes matched by p+c are exactly the c-children of nodes matched by p.
    for t in small_tries[:25]:
        paths = t.paths()
        for p in (b"", paths[t.n - 1][-1:], paths[t.n // 2][-2:]):
            if t.alphabet.sentinel in p:
                continue
            matched = {v for v in range(t.n)
                       if len(paths[v]) >= len(p) and paths[v].endswith(p)}
            for c in t.alphabet.symbols:
                kids = {w for v in matched for lab, w in t.children[v]
                        if lab == c}
                assert naive_count(t, p + bytes([c])) == len(kids)


def test_symbol_distribution(fig_trie):
    assert symbol_distribution(fig_trie) == SymbolDistribution(7, (1, 3, 2))
    assert symbol_distribution(build_from_strings([b""])) == \
        SymbolDistribution(1, (0,))
    from conftest import complete_binary
    assert symbol_distribution(complete_binary(2)) == SymbolDistribution(7, (3, 3))


def test_distribution_invariants():
    with pytest.raises(ValueError):
        SymbolDistribution(3, (1, 2))  # sums to 3, not n - 1
    with pytest.raises(ValueError):
        SymbolDistribution(2, (-1, 2))
    with pytest.raises(ValueError):
        SymbolDistribution(1, ())


def test_strings_from_bytes():
    assert strings_from_bytes(b"") == []
    assert strings_from_bytes(b"\n") == [b""]
    assert strings_from_bytes(b"a\nbb\n") == [b"a", b"bb"]
    assert strings_from_bytes(b"a\nbb") == [b"a", b"bb"]
    assert strings_from_bytes(b"\n\n") == [b"", b""]


def _string_sets():
    rng = random.Random(8)
    yield [b"b", b"bb", b"bcba", b"bcbc"]
    yield [b"bcbc", b"b", b"", b"bb", b"bcba", b"b"]  # unsorted, dup, blank
    yield [b"", b""]
    yield [b"\x00", b"\xff", b"\x00\xff", b"\xff\x00\x00", b"\x01"]
    yield [bytes(rng.randrange(1, 256) for _ in range(10 ** 4)), b"ab", b"a"]
    for _ in range(40):
        base = [bytes(rng.choice(b"ab\x00\xff") for _ in range(rng.randint(0, 7)))
                for _ in range(rng.randint(1, 30))]
        extra = [w[:rng.randint(0, len(w))] for w in rng.sample(base, len(base) // 2)]
        words = base + extra + rng.sample(base, len(base) // 3)
        rng.shuffle(words)
        yield words


def _prefix_edge_sets():
    """String sets whose common prefixes a big-endian XOR could misread:
    NULs at either end (which the ints do not show), 0xFF bytes, a first
    difference in the lowest and the highest bit of a byte, prefixes of
    0, 7, 8, 9 and over 1,000 bytes, and a short string sorted after a
    much longer one.  The random bytes leave out 0x80, so every set has
    a sentinel."""
    rng = random.Random(38)
    pool = bytes(b for b in range(256) if b != 0x80)
    yield [b"a", b"a\x00"]
    yield [b"a\x00\x00", b"a", b"a\x00", b"a\x00\x01", b"a\x01"]
    yield [b"\x00a", b"\x00b"]
    yield [b"\x00", b"\x00\x00", b"\x00\x00\x00a", b"\x00\x00b", b"\x01"]
    yield [b"\xff", b"\xff\xff", b"\xff\xfe", b"\xfe\xff\xff", b"\xff\x00"]
    yield [b"q\x00", b"q\x01", b"q\x7f", b"q\x80", b"q\x80\x00", b"q\xff"]
    for d in (0, 7, 8, 9, 1000, 1031):
        head = bytes(rng.choices(pool, k=d))
        yield [head, head + b"\x00", head + b"\x00\xff", head + b"\x01ab",
               head + b"\xff"]
    yield [b"a" * 3000, b"b"]
    yield [b"ab" * 600 + b"c", b"ab" * 600, b"ac", b"b", b"ab" * 600 + b"\x00"]
    yield [b""]
    yield [b"", b"", b"x", b""]
    yield [b"dup", b"dup", b"du", b"dup", b"d"]
    yield [bytes(rng.choices(pool, k=10 ** 4))]
    shared = bytes(rng.choices(pool, k=1990))
    yield [shared + bytes(rng.choices(pool, k=10)) for _ in range(200)]


def test_build_from_strings_matches_dict_builder():
    for words in chain(_string_sets(), _prefix_edge_sets()):
        parent, label, symbols = dict_trie(words)
        t = build_from_strings(words)
        assert t.parent == tuple(parent)
        assert t.label[1:] == tuple(label[1:])
        assert t.alphabet.symbols == symbols
        assert build_from_strings(map(bytearray, words)) == t


def test_build_from_strings_passes_the_checked_constructor():
    """build_from_strings skips the checks of Trie(...), and what it makes
    passes them: bytes, bytearrays and lists of byte values, the empty
    string, and a set using 255 distinct bytes."""
    rng = random.Random(23)
    sets = [[b""], [b"", b"a"]]
    for _ in range(30):
        pool = rng.sample(range(256), rng.randint(1, 6))
        words = [bytes(rng.choices(pool, k=rng.randint(0, 9)))
                 for _ in range(rng.randint(1, 40))]
        sets += [words, [bytearray(w) for w in words], [list(w) for w in words]]
    missing = rng.randrange(256)
    wide = [b for b in range(256) if b != missing]
    sets.append([bytes(rng.choices(wide, k=rng.randint(0, 5)))
                 for _ in range(600)] + [bytes([b]) for b in wide])
    for words in sets:
        t = build_from_strings(words)
        checked = Trie(t.parent, t.label)
        assert t == checked
        assert (t.n, t.alphabet) == (checked.n, checked.alphabet)
    assert len(t.alphabet.symbols) == 255 and t.alphabet.sentinel == missing


def test_from_outsets_passes_the_checked_constructor(small_tries):
    """from_outsets skips the walk of Trie(...): each trie's out-sets, in
    any order within a set, rebuild it, and what they build passes the
    walk.  Only a repeated label is left to refuse, and a fault of the
    out-degree sequence is named first."""
    rng = random.Random(29)
    for t in small_tries[:60]:
        outsets = [rng.sample(labs, len(labs))
                   for labs in map(t.out_labels, range(t.n))]
        back = Trie.from_outsets(outsets)
        assert back == t == Trie(back.parent, back.label)
        assert back.alphabet == t.alphabet
    with pytest.raises(ValueError, match="^outgoing labels must be distinct$"):
        Trie.from_outsets([[97, 98, 97], [], [], []])
    with pytest.raises(ValueError, match="^pending edges left over$"):
        Trie.from_outsets([[97, 97], []])
    with pytest.raises(ValueError, match="^parent and label must be"):
        Trie.from_outsets([])


def test_build_from_strings_rejects_ints():
    # bytes(3) would be three zero bytes; an int is not a string
    with pytest.raises(TypeError):
        build_from_strings([3])
    with pytest.raises(TypeError):
        build_from_strings([b"ab", 3])


def test_trie_of_20k_words_holds_one_int_per_parent_id():
    """The trie of the seeded 20k-word corpus (n = 72,772) holds one int
    object per parent id, as each run's first node takes the int that its
    parent's first child holds, and at most 3.2 MB under tracemalloc: the
    builder with a per-node path list held 3,141,892 bytes, the bound adds
    1.8%.  A fresh int for each string's first node would hold 3,484,732."""
    import tracemalloc
    words = word_corpus(1, 20000)
    tracemalloc.start()
    try:
        t = build_from_strings(words)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert t.n == 72772
    assert len(set(map(id, t.parent))) == len(set(t.parent))
    assert held <= 3.2e6


def _mutations(t, rng):
    """(kind, parent, label) variants of a valid trie, one change each."""
    n = t.n
    for _ in range(6):
        v = rng.randrange(1, n)
        parent, label = list(t.parent), list(t.label)
        parent[v] = rng.randrange(v)
        yield "reparent", parent, label
        parent = list(t.parent)
        parent[v] = rng.randrange(v, n)
        yield "parent>=child", parent, label
        i, j = sorted(rng.sample(range(1, n), 2))
        swap = {i: j, j: i}
        new = [0] * n
        newlab = [0] * n
        for old in range(1, n):
            new[swap.get(old, old)] = swap.get(t.parent[old], t.parent[old])
            newlab[swap.get(old, old)] = t.label[old]
        yield "swap", new, newlab
        sibs = [w for w in range(1, n) if t.parent[w] == t.parent[v] and w != v]
        label = list(t.label)
        if sibs:
            label[v] = t.label[rng.choice(sibs)]
            yield "duplicate", list(t.parent), label
        label = list(t.label)
        label[v] = rng.choice(b"abcdef\x00\xff")
        yield "relabel", list(t.parent), label


def _trie_check(parent, label):
    try:
        Trie(parent, label)
    except ValueError as exc:
        return str(exc)
    return None


def test_trie_check_matches_whole_array_passes(small_tries):
    rng = random.Random(12)
    tries = small_tries[:80] + [build_from_strings(w) for w in _string_sets()]
    single = set()
    no_sentinel = 0
    for t in tries:
        assert _trie_check(t.parent, t.label) is None
        if t.n < 3:
            continue
        for kind, parent, label in _mutations(t, rng):
            message, rules = old_trie_check(parent, label)
            got = _trie_check(parent, label)
            if message is None and len(set(label[1:])) == 256:
                # a valid shape labeled with every byte leaves no sentinel
                assert got == "no sentinel available", (kind, parent, label)
                no_sentinel += 1
                continue
            assert (got is None) == (message is None), (kind, parent, label)
            if len(rules) == 1:
                assert got == message, (kind, parent, label)
                single.add(next(iter(rules)))
    assert single == {"range", "distinct", "sorted", "preorder"}
    assert no_sentinel
    # node 3's parent is off the path, but node 4's parent is out of range,
    # the fault always reported first
    parent, label = (0, 0, 0, 1, 5, 0), (0, 97, 98, 97, 97, 99)
    assert old_trie_check(parent, label) == (
        "node ids must be in pre-order (parent < child)", {"range"})
    assert _trie_check(parent, label) == old_trie_check(parent, label)[0]


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda t: context(t, 0, -1), "k must be nonnegative",
                 id="context"),
    pytest.param(lambda t: SymbolDistribution(0, (0,)), "n must be positive",
                 id="distribution-n-0"),
    pytest.param(lambda t: Trie([], []),
                 "parent and label must be nonempty and equal length",
                 id="empty"),
    pytest.param(lambda t: Trie([1], [0]),
                 "root must be node 0 and its own parent", id="root"),
    pytest.param(lambda t: Trie.from_outsets([[], []]),
                 "out-degree sequence leaves node unattached",
                 id="outsets-unattached"),
])
def test_argument_errors(fig_trie, call, match):
    with pytest.raises(ValueError, match=match):
        call(fig_trie)

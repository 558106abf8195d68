import random

import pytest

from xbwtrie import (Alphabet, PlainBitvector, Trie, build_from_strings,
                     build_index, serialize)

FIG_STRINGS = [b"b", b"bb", b"bcba", b"bcbc"]

# Figure trie goldens, 0-based node ids in pre-order.
FIG_PARENT = (0, 0, 1, 1, 3, 4, 4)
FIG_LABEL = (0, 98, 98, 99, 98, 97, 99)
FIG_COLEX = [0, 5, 1, 2, 4, 3, 6]


@pytest.fixture
def fig_trie() -> Trie:
    return build_from_strings(FIG_STRINGS)


def complete_binary(height: int) -> Trie:
    """Complete binary trie of the given height over {a, b}."""
    words = [bytes(w) for w in _words(height)]
    return build_from_strings(words if words else [b""])


def word_corpus(seed: int, words: int) -> list[bytes]:
    """Seeded random words over a-h of length 3-12; seed 1 and 5,000 words
    give the 5k-word corpus."""
    rng = random.Random(seed)
    return [bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(3, 12)))
            for _ in range(words)]


def zero_weight_symbol_file(trie: Trie) -> bytes:
    """A plain index file of the trie with one more symbol, 1 + the largest,
    whose vector has no ones: a symbol that labels no edge."""
    idx = build_index(trie, "plain")
    syms = idx.alphabet.symbols
    idx.alphabet = Alphabet(syms + (syms[-1] + 1,), idx.alphabet.sentinel)
    idx.vectors += (PlainBitvector(idx.n, ()),)
    return serialize(idx)


def _words(height: int):
    if height == 0:
        return []
    out = [[]]
    for _ in range(height):
        out = [w + [c] for w in out for c in (ord("a"), ord("b"))]
    return out


@pytest.fixture(scope="session")
def small_tries() -> list[Trie]:
    """Seeded random tries for property tests (kept cheap on purpose)."""
    from xbwtrie import random_trie
    rng = random.Random(0xC0FFEE)
    return [random_trie(rng, 60, 6) for _ in range(300)]


def ranked_blocks(v, blocks) -> int:
    """How many of the given blocks of the fixed-block vector v store a
    rank: those neither empty nor full, the only ones a load unranks."""
    return sum(0 < v._R[bi + 1] - v._R[bi] < min(v.b, v.m - bi * v.b)
               for bi in blocks)


@pytest.fixture
def unrank_calls(monkeypatch) -> list[tuple]:
    """A list that gets the arguments of every ``succinct._decode_block``
    call from now on, the one path that decodes a block of a loaded fid or
    fixed-block vector, by table or by unranking: a block that stores a
    rank is decoded on its first read, and an empty or a full block is
    filled in without a call."""
    from xbwtrie import succinct
    calls = []
    real = succinct._decode_block

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(succinct, "_decode_block", counted)
    return calls

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

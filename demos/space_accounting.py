"""
Measured bits per back-end
==========================

Each bitvector back-end reports its file body's bits, split into the
entropy payload and the overhead, everything else the body stores: size
fields, block counts, id's flags and count, and padding.  Highlights: the class/offset coding pays just
ceil(log C(u, class)) bits per u-bit block; the position-list back-end
switches to storing the complement when a symbol occurs on more than half
the nodes; complete binary tries keep r = (n+1)/2 runs, so run-based
structures cannot beat the entropy-coded ones on that family.
"""
import random

from xbwtrie import (build_from_strings, build_index, index_bits,
                     leaf_run_count, run_count)
from xbwtrie.index import MODES
from xbwtrie.entropy import binary_entropy_bits

rng = random.Random(3)


def complete_binary(height):
    words = [[]]
    for _ in range(height):
        words = [w + [c] for w in words for c in (ord("a"), ord("b"))]
    return build_from_strings([bytes(w) for w in words])


def heavy_path(n):
    return build_from_strings([b"a" * (n - 1)])


print(f"{'trie':>16} {'mode':>10} {'payload':>8} {'overhead':>9} {'total':>7}")
for name, trie in [("binary height 7", complete_binary(7)),
                   ("path n=256", heavy_path(256))]:
    for mode in MODES:
        cost = index_bits(build_index(trie, mode))
        print(f"{name:>16} {mode:>10} {cost.payload:>8} {cost.overhead:>9} "
              f"{cost.total:>7}")

# The path trie's only symbol sits on n-1 of n nodes, so the ID back-end
# stores the complement: one position instead of n-1.
idx = build_index(heavy_path(256), "id")
vec = idx.vectors[0]
print(f"\npath trie ID vector: complemented={vec.complemented}, "
      f"stored positions={vec.stored_items()}, ones={vec.ones}")

# Runs on the complete binary family grow linearly while n*H_0 ~ 2n, so
# the run count is a constant fraction of the entropy-coded size.
print(f"\n{'height':>6} {'n':>6} {'r':>6} {'leaf runs':>9} {'r/(n*H0)':>9}")
for height in range(4, 11):
    trie = complete_binary(height)
    idx = build_index(trie, "plain")
    r = run_count(idx).total
    n = trie.n
    nh0 = 2 * binary_entropy_bits(n, (n - 1) // 2)
    print(f"{height:>6} {n:>6} {r:>6} {leaf_run_count(idx):>9} "
          f"{r / nh0:>9.4f}")

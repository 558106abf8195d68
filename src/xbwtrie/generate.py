"""Seeded random tries, drawn uniformly per symbol distribution.

A uniform matrix with fixed row weights, rotated to its unique valid
rotation, inverts to a uniform trie with that distribution; that is the
same bijection the counting formula rests on, so the generator doubles as
a stress test of it.
"""
from __future__ import annotations

import random

from .combinatorics import (DegreeMatrix, _default_symbols, canonical_rotation,
                            matrix_to_trie, rotate)
from .trie import SymbolDistribution, Trie


def random_distribution(rng: random.Random, n: int, sigma: int) -> SymbolDistribution:
    """Composition of n - 1 edges into sigma positive parts (fewer when n is small)."""
    edges = n - 1
    if edges == 0:
        return SymbolDistribution(1, (0,))
    sigma = min(sigma, edges)
    cuts = sorted(rng.sample(range(1, edges), sigma - 1)) if sigma > 1 else []
    bounds = [0] + cuts + [edges]
    return SymbolDistribution(n, tuple(bounds[i + 1] - bounds[i]
                                       for i in range(sigma)))


def random_matrix(rng: random.Random, dist: SymbolDistribution) -> DegreeMatrix:
    """Uniform member of the fixed-row-weight matrix family; its rows are
    named 'a'.. when sigma <= 26, else 1..sigma."""
    rows = tuple(sum(1 << p for p in rng.sample(range(dist.n), c))
                 for c in dist.counts)
    return DegreeMatrix(dist.sigma, dist.n, rows, _default_symbols(dist.sigma))


def random_trie(rng: random.Random, max_n: int, max_sigma: int) -> Trie:
    """Uniform trie for a random distribution with n <= max_n, sigma <= max_sigma."""
    n = rng.randint(1, max_n)
    dist = random_distribution(rng, n, rng.randint(1, max_sigma))
    matrix = random_matrix(rng, dist)
    return matrix_to_trie(rotate(matrix, canonical_rotation(matrix)))

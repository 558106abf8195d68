"""Trie counting, trie entropy, and an XBWT count-query index."""

from .trie import (Alphabet, SymbolDistribution, Trie, build_from_strings,
                   colex_order, context, naive_count, strings_from_bytes,
                   symbol_distribution)
from .combinatorics import (DegreeMatrix, canonical_rotation, count_all_tries,
                            count_tries_formula, d_sequence, enumerate_matrices,
                            enumerate_tries, format_matrix, is_lukasiewicz,
                            l_sequence, matrix_to_trie, rotate, trie_to_matrix)
from .succinct import (BitCost, FixedBlockVector, IdVector, PlainBitvector,
                       RrrVector)
from .index import (NodeInterval, RunCounts, XbwtIndex, build_index, count,
                    deserialize, forward_step, index_bits, invert,
                    leaf_run_count, run_count, serialize)
from .entropy import (BoundCheck, ContextTable, EntropyReport, check_bounds,
                      context_table, h0, hk, worst_case_entropy)
from .generate import random_distribution, random_matrix, random_trie

__all__ = [
    "Alphabet", "SymbolDistribution", "Trie", "build_from_strings",
    "colex_order", "context", "naive_count", "strings_from_bytes",
    "symbol_distribution",
    "DegreeMatrix", "canonical_rotation", "count_all_tries",
    "count_tries_formula", "d_sequence", "enumerate_matrices",
    "enumerate_tries", "format_matrix", "is_lukasiewicz", "l_sequence",
    "matrix_to_trie", "rotate", "trie_to_matrix",
    "BitCost", "FixedBlockVector", "IdVector", "PlainBitvector", "RrrVector",
    "NodeInterval", "RunCounts", "XbwtIndex", "build_index", "count",
    "deserialize", "forward_step", "index_bits", "invert", "leaf_run_count",
    "run_count", "serialize",
    "BoundCheck", "ContextTable", "EntropyReport", "check_bounds",
    "context_table", "h0", "hk", "worst_case_entropy",
    "random_distribution", "random_matrix", "random_trie",
]

__version__ = "0.1.0"

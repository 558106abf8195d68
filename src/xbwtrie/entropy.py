"""Entropy measures for tries and the inequalities tying them to index size.

All logarithms are base 2 and the convention 0 * log(x/0) = 0 applies
throughout.  The worst-case entropy of a symbol distribution is the log of
the number of tries realizing it; the k-th order empirical entropy charges
each node's out-label indicator bits against its k-symbol incoming context
(sentinel-padded near the root).

Every order-k context is one interval of the co-lex order, so
:func:`entropy_profile` reads H_k and the context count l_k for all orders
off the XBWT columns, refining integer class ids one order at a time; no
context is spelled out.  :func:`context_table` keeps the byte-keyed form,
O(nk) bytes, as the reference the profile is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import ne, sub
from typing import Sequence

from . import index as xidx
from .succinct import BitCost
from .trie import SymbolDistribution, Trie, symbol_distribution

TOL_INEQ = 1e-6    # stated tolerance for entropy inequalities, in bits
TOL_MONO = 1e-9    # stated tolerance for the H_{k+1} <= H_k chain
REL_IDENT = 1e-9   # relative tolerance: 2^Hwc against the exact count

_LOG2 = math.log(2.0)


def log2_comb(n: int, k: int) -> float:
    """log2 C(n, k) via log-gamma; exact enough for desk-scale bounds."""
    if k < 0 or k > n:
        raise ValueError("k out of range")
    return (math.lgamma(n + 1) - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)) / _LOG2


def worst_case_entropy(dist: SymbolDistribution) -> float:
    """log2 of the number of tries sharing the symbol distribution."""
    terms = [log2_comb(dist.n, c) for c in dist.counts]
    terms.append(-math.log2(dist.n))
    return math.fsum(terms)


def _h0_terms(n: int, ones: int) -> tuple[float, ...]:
    """The two addends of n * H0 for a length-n bitvector of given weight.

    Kept as separate addends so h0 and hk sum the same floats and agree
    exactly at order zero.
    """
    if n == 0 or ones == 0 or ones == n:
        return ()
    return (ones * math.log2(n / ones),
            (n - ones) * math.log2(n / (n - ones)))


def binary_entropy_bits(n: int, ones: int) -> float:
    """n * H0 of a length-n bitvector with the given weight, in bits."""
    return math.fsum(_h0_terms(n, ones))


def h0(trie: Trie) -> float:
    """Zero-order empirical entropy, bits per node."""
    dist = symbol_distribution(trie)
    terms: list[float] = []
    for c in dist.counts:
        terms.extend(_h0_terms(dist.n, c))
    return math.fsum(terms) / dist.n


@dataclass(frozen=True)
class ContextTable:
    """Realized k-contexts with node and per-symbol out-edge counts."""

    k: int
    n: int
    node_counts: dict[bytes, int]
    out_counts: dict[bytes, dict[int, int]]

    def __len__(self) -> int:
        return len(self.node_counts)


_BYTE = [bytes((b,)) for b in range(256)]


def context_table(trie: Trie, k: int) -> ContextTable:
    """Group nodes by the last k symbols of their incoming path.

    A node's context is its parent's with the node's label appended and
    the first symbol dropped, so the contexts follow in id order from the
    root's all-sentinel one; the edge into v is an out-edge of the parent's
    context.  Memory is O(nk) bytes.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    pad = bytes([trie.alphabet.sentinel]) * k
    ctx = [pad] * trie.n
    node_counts: dict[bytes, int] = {pad: 1}
    out_counts: dict[bytes, dict[int, int]] = {}
    for v, p, c in zip(range(1, trie.n), islice(trie.parent, 1, None),
                       islice(trie.label, 1, None)):
        w = ctx[p]
        per = out_counts.get(w)
        if per is None:
            per = out_counts[w] = {}
        per[c] = per.get(c, 0) + 1
        if k:
            w = w[1:] + _BYTE[c]
            ctx[v] = w
        node_counts[w] = node_counts.get(w, 0) + 1
    return ContextTable(k, trie.n, node_counts, out_counts)


def hk(trie: Trie, k: int) -> float:
    """k-th order empirical entropy, bits per node."""
    return entropy_profile(trie, k)[0][k]


def _table_entropy(table: ContextTable) -> float:
    """H_k of the table's order, bits per node."""
    terms: list[float] = []
    for w, per in table.out_counts.items():
        nw = table.node_counts[w]
        for nwc in per.values():
            terms.extend(_h0_terms(nw, nwc))
    return math.fsum(terms) / table.n


def entropy_profile(trie: Trie, max_order: int
                    ) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """H_k (bits per node) and l_k (realized contexts) for k = 0..max_order,
    read off the XBWT columns alone.

    Rank 1 is the root, and column c holds the parent ranks, in order, of
    the block of ranks whose nodes are labeled c.  Order 0 is one class.
    At order k + 1 the root is a class of its own, and every other node's
    context is its parent's order-k context followed by its label: within
    a column, a new class starts wherever the parent's order-k class
    changes.  The run lengths of the order-k pass are the out-edge counts
    n_{w,c}, and the runs are the classes of order k + 1.  Once every node
    has its own context, higher orders repeat l = n and H = 0.
    """
    if max_order < 0:
        raise ValueError("k must be nonnegative")
    n = trie.n
    cols = xidx.xbwt_columns(trie)
    cls = [0] * (n + 1)  # order-k class of each rank; slot 0 is unused
    sizes = [n]          # node count n_w of each order-k class
    hs: list[float] = []
    ells: list[int] = []
    for _ in range(max_order + 1):
        ells.append(len(sizes))
        nh, cls, sizes = _order_pass(cols, cls, sizes)
        hs.append(nh / n)
        if ells[-1] == n:
            break
    rest = max_order + 1 - len(hs)
    return tuple(hs) + (hs[-1],) * rest, tuple(ells) + (n,) * rest


def _order_pass(cols: Sequence[Sequence[int]], cls: list[int],
                sizes: list[int]) -> tuple[float, list[int], list[int]]:
    """n * H_k from the order-k classes, and the classes of order k + 1
    with their sizes.

    Every step iterates at C level; the Python-level work is per column
    and per class, not per node.
    """
    terms: list[float] = []
    nxt = [0, 0]  # the root, rank 1, is class 0
    nxt_sizes = [1]
    for col in cols:
        ids = list(map(cls.__getitem__, col))  # nondecreasing down a column
        starts = [0]
        starts += compress(count(1), map(ne, islice(ids, 1, None), ids))
        lens = list(map(sub, chain(islice(starts, 1, None), (len(ids),)),
                        starts))
        nw = map(sizes.__getitem__, map(ids.__getitem__, starts))
        terms += chain.from_iterable(map(_h0_terms, nw, lens))
        first = len(nxt_sizes)
        nxt += chain.from_iterable(
            map(repeat, range(first, first + len(lens)), lens))
        nxt_sizes += lens
    return math.fsum(terms), nxt, nxt_sizes


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: slack is RHS minus LHS, so negative beyond
    the tolerance means failure."""

    name: str
    passed: bool
    slack: float


@dataclass(frozen=True)
class EntropyReport:
    n: int
    sigma: int                      # effective alphabet size, sentinel excluded
    hwc: float
    h: tuple[float, ...]            # per-node H_k for k = 0..K
    context_counts: tuple[int, ...]  # realized contexts per k
    r: int
    r_by_symbol: dict[int, int]
    payloads: tuple[tuple[str, BitCost], ...]  # (mode, body bits)
    checks: tuple[BoundCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_bounds(trie: Trie, max_order: int = 2,
                 modes: tuple[str, ...] = xidx.MODES) -> EntropyReport:
    """Measure entropies, run counts and payloads, and check every bound.

    Checks: the worst-case-vs-H0 sandwich, monotonicity of H_k, the run
    bound r <= n H_k + sigma^(k+1) (sigma counting the sentinel), and for
    every entropy-coded back-end the block payload bound
    payload <= n H_k + sigma_eff * (l - 1) * blocksize + #blocks.  The symbol
    distribution, H_k and l_k (:func:`entropy_profile`), the runs and the
    payloads of ``modes``, each one of ``index.MODES``, all come from the
    XBWT columns; no index or context table is built.
    """
    for mode in modes:  # 'auto' names a choice by file size, not a cost
        if mode not in xidx.MODES:
            raise ValueError(f"unknown mode {mode!r}")
    if max_order < 0:
        raise ValueError("max order must be nonnegative")
    try:  # the run bound's sigma^(k+1) must be a float; 2^1025 is not
        float((trie.alphabet.sigma + 1) ** min(max_order + 1, 1025))
    except OverflowError:
        raise ValueError("max order too large") from None
    n = trie.n
    sigma_eff = trie.alphabet.sigma
    cols = xidx.xbwt_columns(trie)
    # a single node has no column and, as in symbol_distribution, one zero
    hwc = worst_case_entropy(
        SymbolDistribution(n, tuple(map(len, cols)) or (0,)))
    hs, ells = entropy_profile(trie, max_order)

    checks: list[BoundCheck] = []
    lower = n * hs[0] - sigma_eff * math.log2(n + 1) - math.log2(n)
    upper = n * hs[0] - math.log2(n)
    checks.append(BoundCheck("sandwich_lower", hwc >= lower - TOL_INEQ,
                             hwc - lower))
    checks.append(BoundCheck("sandwich_upper", upper >= hwc - TOL_INEQ,
                             upper - hwc))
    for k in range(max_order):
        slack = hs[k] - hs[k + 1]
        checks.append(BoundCheck(f"monotone_k{k}", slack >= -TOL_MONO, slack))

    runs = xidx.count_runs(trie.alphabet.symbols, xidx.xbwt_bitmaps(trie))
    sigma_full = sigma_eff + 1
    for k in range(max_order + 1):
        rhs = n * hs[k] + sigma_full ** (k + 1)
        checks.append(BoundCheck(f"run_bound_k{k}", runs.total <= rhs + TOL_INEQ,
                                 rhs - runs.total))

    payloads: list[tuple[str, BitCost]] = []
    for mode in modes:  # accounted from the columns, no index built
        acc = xidx.column_cost(trie, mode)
        payloads.append((mode, acc.bits))
        if acc.block_size is None:
            continue
        payload = acc.bits.payload
        for k in range(max_order + 1):
            rhs = (n * hs[k] + sigma_eff * (ells[k] - 1) * acc.block_size
                   + acc.block_count)
            checks.append(BoundCheck(f"payload_bound_{mode}_k{k}",
                                     payload <= rhs + TOL_INEQ,
                                     rhs - payload))

    return EntropyReport(n, sigma_eff, hwc, tuple(hs), tuple(ells),
                         runs.total, runs.by_symbol, tuple(payloads),
                         tuple(checks))


def report_rows(report: EntropyReport) -> list[tuple[str, ...]]:
    """Flatten a report into (kind, name, k, value) rows for the CLI."""
    rows: list[tuple[str, ...]] = [
        ("metric", "n", "-", str(report.n)),
        ("metric", "sigma", "-", str(report.sigma)),
        ("metric", "hwc", "-", f"{report.hwc:.6f}"),
    ]
    for k, h in enumerate(report.h):
        rows.append(("metric", "nh", str(k), f"{report.n * h:.6f}"))
    for k, ell in enumerate(report.context_counts):
        rows.append(("metric", "contexts", str(k), str(ell)))
    rows.append(("metric", "r", "-", str(report.r)))
    for c, rc in sorted(report.r_by_symbol.items()):
        rows.append(("metric", f"r[{_printable(c)}]", "-", str(rc)))
    for mode, cost in report.payloads:
        rows.append(("metric", f"payload[{mode}]", "-", str(cost.payload)))
        rows.append(("metric", f"overhead[{mode}]", "-", str(cost.overhead)))
        rows.append(("metric", f"total[{mode}]", "-", str(cost.total)))
    for c in report.checks:
        rows.append(("check", c.name, "pass" if c.passed else "fail",
                     f"{c.slack:.6g}"))
    return rows


def _printable(byte: int) -> str:
    if 33 <= byte <= 126:
        return chr(byte)
    return f"\\x{byte:02x}"

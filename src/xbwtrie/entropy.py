"""Entropy measures for tries and the inequalities tying them to index size.

All logarithms are base 2 and the convention 0 * log(x/0) = 0 applies
throughout.  The worst-case entropy of a symbol distribution is the log of
the number of tries realizing it; the k-th order empirical entropy charges
each node's out-label indicator bits against its k-symbol incoming context
(sentinel-padded near the root).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

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
    return _table_entropy(context_table(trie, k))


def _table_entropy(table: ContextTable) -> float:
    """H_k of the table's order, bits per node."""
    terms: list[float] = []
    for w, per in table.out_counts.items():
        nw = table.node_counts[w]
        for nwc in per.values():
            terms.extend(_h0_terms(nw, nwc))
    return math.fsum(terms) / table.n


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: slack is RHS minus LHS, so negative beyond
    the tolerance means failure."""

    name: str
    passed: bool
    slack: float


@dataclass(frozen=True)
class PayloadReport:
    mode: str
    cost: BitCost
    block_size: int | None
    block_count: int


@dataclass(frozen=True)
class EntropyReport:
    n: int
    sigma: int                      # effective alphabet size, sentinel excluded
    hwc: float
    h: tuple[float, ...]            # per-node H_k for k = 0..K
    context_counts: tuple[int, ...]  # realized contexts per k
    r: int
    r_by_symbol: dict[int, int]
    payloads: tuple[PayloadReport, ...]
    checks: tuple[BoundCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_bounds(trie: Trie, max_order: int = 2,
                 modes: tuple[str, ...] = xidx.MODES,
                 block_size: int | None = None) -> EntropyReport:
    """Measure entropies, run counts and payloads, and check every bound.

    Checks: the worst-case-vs-H0 sandwich, monotonicity of H_k, the run
    bound r <= n H_k + sigma^(k+1) (sigma counting the sentinel), and for
    every entropy-coded back-end the block payload bound
    total <= n H_k + sigma_eff * (l - 1) * blocksize + #blocks.
    """
    if max_order < 0:
        raise ValueError("max order must be nonnegative")
    dist = symbol_distribution(trie)
    n = trie.n
    sigma_eff = trie.alphabet.sigma
    hwc = worst_case_entropy(dist)
    hs: tuple[float, ...] = ()
    ells: tuple[int, ...] = ()
    for k in range(max_order + 1):  # one table per order gives H_k and l_k
        table = context_table(trie, k)
        hs += (_table_entropy(table),)
        ells += (len(table),)

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

    runs = xidx.count_runs(trie.alphabet.symbols, xidx.xbwt_columns(trie))
    sigma_full = sigma_eff + 1
    for k in range(max_order + 1):
        rhs = n * hs[k] + sigma_full ** (k + 1)
        checks.append(BoundCheck(f"run_bound_k{k}", runs.total <= rhs + TOL_INEQ,
                                 rhs - runs.total))

    payloads: list[PayloadReport] = []
    for mode in modes:
        idx = xidx.build_index(trie, mode, block_size=block_size)
        cost = xidx.index_bits(idx)
        sizes = [v.entropy_block_size for v in idx.vectors]
        coded = idx.vectors and all(s is not None for s in sizes)
        bsize = max(sizes) if coded else None
        bcount = sum(v.entropy_block_count for v in idx.vectors)
        payloads.append(PayloadReport(mode, cost, bsize, bcount))
        if not coded:
            continue
        for k in range(max_order + 1):
            rhs = n * hs[k] + sigma_eff * (ells[k] - 1) * bsize + bcount
            checks.append(BoundCheck(f"payload_bound_{mode}_k{k}",
                                     cost.payload <= rhs + TOL_INEQ,
                                     rhs - cost.payload))

    return EntropyReport(n, sigma_eff, hwc, hs, ells, runs.total,
                         runs.by_symbol, tuple(payloads), tuple(checks))


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
    for p in report.payloads:
        rows.append(("metric", f"payload[{p.mode}]", "-", str(p.cost.payload)))
        rows.append(("metric", f"overhead[{p.mode}]", "-", str(p.cost.overhead)))
        rows.append(("metric", f"total[{p.mode}]", "-", str(p.cost.total)))
    for c in report.checks:
        rows.append(("check", c.name, "pass" if c.passed else "fail",
                     f"{c.slack:.6g}"))
    return rows


def _printable(byte: int) -> str:
    if 33 <= byte <= 126:
        return chr(byte)
    return f"\\x{byte:02x}"

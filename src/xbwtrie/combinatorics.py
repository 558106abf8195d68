"""Counting tries with a fixed symbol distribution via binary degree matrices.

A trie with n nodes where symbol c_i labels n_i edges maps injectively to a
sigma x n binary matrix whose j-th column is the out-label indicator of the
j-th pre-order node.  The matrices in the image are exactly those whose
column prefix sums form a Lukasiewicz path, and every matrix with the right
row weights has exactly one column rotation in the image (the cycle lemma
of Dvoretzky and Motzkin, 1947).  Counting both sides gives
|tries| = (1/n) * prod C(n, n_i), evaluated here exactly and cross-checked
by two independent enumerators.  The sweep checks each rotation class
once, through its member in the image: that member tests all n rotations,
and the image must hold exactly matrices / n members.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, combinations, islice, product
from typing import Iterator, Sequence

from .trie import Alphabet, SymbolDistribution, Trie

DEFAULT_ENUMERATION_CAP = 10**8

# enumerate_tries chooses out-sets as subset masks of the sigma symbols
MAX_ENUMERATION_SIGMA = 16

_DEFAULT_SYMBOLS = tuple(range(97, 97 + 26))  # 'a', 'b', ...


def _default_symbols(sigma: int) -> tuple[int, ...]:
    if sigma <= 26:
        return _DEFAULT_SYMBOLS[:sigma]
    return tuple(range(1, sigma + 1))


@dataclass(frozen=True)
class DegreeMatrix:
    """Binary sigma x n matrix with fixed row weights summing to n - 1.

    Rows are stored as packed integers, bit j holding column j (0-based).
    ``symbols`` names the rows so matrices can be inverted back to tries.
    """

    sigma: int
    n: int
    rows: tuple[int, ...]
    symbols: tuple[int, ...]
    row_counts: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.sigma < 1 or self.n < 1:
            raise ValueError("sigma and n must be positive")
        if len(self.rows) != self.sigma or len(self.symbols) != self.sigma:
            raise ValueError("need one row and one symbol per character")
        if list(self.symbols) != sorted(set(self.symbols)):
            raise ValueError("symbols must be strictly increasing")
        mask = (1 << self.n) - 1
        if any(row & ~mask for row in self.rows):
            raise ValueError("row bits exceed n columns")
        counts = tuple(row.bit_count() for row in self.rows)
        if sum(counts) != self.n - 1:
            raise ValueError("total ones must be n - 1")
        object.__setattr__(self, "row_counts", counts)

    @classmethod
    def _trusted(cls, sigma: int, n: int, rows: tuple[int, ...],
                 symbols: tuple[int, ...], row_counts: tuple[int, ...]
                 ) -> DegreeMatrix:
        """A matrix whose rows and row counts hold by construction, made
        without the checks of ``__post_init__``."""
        self = cls.__new__(cls)
        self.__dict__.update(sigma=sigma, n=n, rows=rows, symbols=symbols,
                             row_counts=row_counts)
        return self


def trie_to_matrix(trie: Trie) -> DegreeMatrix:
    """Out-label indicator matrix of the pre-order node sequence."""
    symbols = trie.alphabet.symbols
    if not symbols:
        # An edgeless trie still gets one (all-zero) row.
        return DegreeMatrix(1, trie.n, (0,), _default_symbols(1))
    index = {c: i for i, c in enumerate(symbols)}
    rows = [0] * len(symbols)
    # node v's edge labelled c sets bit parent[v] of row c
    for p, c in zip(islice(trie.parent, 1, None), islice(trie.label, 1, None)):
        rows[index[c]] |= 1 << p
    return DegreeMatrix(len(symbols), trie.n, tuple(rows), symbols)


def d_sequence(matrix: DegreeMatrix) -> list[int]:
    """Per-column ones count minus one (out-degree minus one in pre-order),
    from one walk over each row's set bits."""
    d = [-1] * matrix.n
    for row in matrix.rows:
        while row:
            low = row & -row
            d[low.bit_length() - 1] += 1
            row ^= low
    return d


def l_sequence(matrix: DegreeMatrix) -> list[int]:
    """Prefix sums of the D sequence; the final entry is always -1."""
    return list(accumulate(d_sequence(matrix)))


def is_lukasiewicz(values: Sequence[int]) -> bool:
    """True iff the sequence ends at -1, stays nonnegative before that,
    and never steps down by more than one."""
    n = len(values)
    if n == 0:
        raise ValueError("sequence must be nonempty")
    if values[n - 1] != -1:
        return False
    for i in range(n - 1):
        if values[i] < 0:
            return False
        if values[i + 1] - values[i] < -1:
            return False
    return True


def matrix_to_trie(matrix: DegreeMatrix) -> Trie:
    """Invert the out-label matrix into the unique trie it encodes.

    Scanning columns left to right, each new node attaches to the deepest
    pending edge on the left; the j-th edge out of a node takes the j-th
    top-down one of that node's column.  Rows are walked top-down, so each
    out-set is filled in symbol order.
    """
    if not is_lukasiewicz(l_sequence(matrix)):
        raise ValueError("matrix not in image of f")
    outsets: list[list[int]] = [[] for _ in range(matrix.n)]
    for symbol, row in zip(matrix.symbols, matrix.rows):
        while row:
            low = row & -row
            outsets[low.bit_length() - 1].append(symbol)
            row ^= low
    return Trie.from_outsets(outsets)


def rotate(matrix: DegreeMatrix, r: int) -> DegreeMatrix:
    """Cyclically move the last r columns to the front."""
    if r < 0:
        raise ValueError("rotation must be nonnegative")
    n = matrix.n
    r %= n
    if r == 0:
        return matrix
    mask = (1 << n) - 1
    rows = tuple(((row << r) | (row >> (n - r))) & mask for row in matrix.rows)
    return DegreeMatrix(matrix.sigma, n, rows, matrix.symbols)


def canonical_rotation(matrix: DegreeMatrix) -> int:
    """The unique r in [0, n-1] whose rotation has a Lukasiewicz L sequence.

    The valid rotation starts right after the first position where the
    prefix sums of D reach their minimum: later prefixes sit at or above
    the minimum and earlier ones strictly above it, which is exactly the
    nonnegativity condition after the shift.
    """
    n = matrix.n
    best = 0
    best_at = 0
    total = 0
    for i, d in enumerate(d_sequence(matrix), start=1):
        total += d
        if total < best:
            best = total
            best_at = i
    return (n - best_at) % n


def _check_cap(dist: SymbolDistribution, cap: int) -> int:
    total = 1
    for c in dist.counts:
        total *= math.comb(dist.n, c)
    if total > cap:
        raise ValueError("enumeration too large")
    return total


def enumerate_matrices(dist: SymbolDistribution,
                       cap: int = DEFAULT_ENUMERATION_CAP,
                       ) -> Iterator[DegreeMatrix]:
    """All matrices with the given row weights, exactly once.

    Per-row column choices run in lexicographic order, with earlier rows
    varying slowest, so the stream order is reproducible.
    """
    _check_cap(dist, cap)
    n, sigma = dist.n, dist.sigma
    symbols = _default_symbols(sigma)
    counts = tuple(dist.counts)
    per_row = [[sum(1 << p for p in positions)
                for positions in combinations(range(n), c)] for c in counts]
    # row i has counts[i] distinct bits below n, and the counts of a
    # distribution sum to n - 1: what the public constructor checks
    for rows in product(*per_row):
        yield DegreeMatrix._trusted(sigma, n, rows, symbols, counts)


def enumerate_tries(dist: SymbolDistribution,
                    cap: int = DEFAULT_ENUMERATION_CAP,
                    ) -> Iterator[Trie]:
    """All tries with the given symbol distribution, by direct construction.

    Out-sets are chosen per pre-order node (subset bitmasks in increasing
    order), pruning any branch whose pending-edge count hits zero early:
    that is the interior Lukasiewicz condition turned into a bound.
    """
    _check_cap(dist, cap)
    n, sigma = dist.n, dist.sigma
    if sigma > MAX_ENUMERATION_SIGMA:
        raise ValueError("enumeration too large")
    symbols = _default_symbols(sigma)
    masks = list(range(1 << sigma))
    mask_rows = [tuple(i for i in range(sigma) if (m >> i) & 1) for m in masks]
    mask_syms = [tuple(symbols[i] for i in rows) for rows in mask_rows]
    mask_sizes = [m.bit_count() for m in masks]

    outsets: list[tuple[int, ...]] = [()] * n
    rem = list(dist.counts)

    def rec(i: int, avail: int, spent: int) -> Iterator[Trie]:
        # bit k of ``spent`` is set exactly when rem[k] == 0, so a mask
        # that meets it would use a symbol with no edge left
        if i == n:
            yield Trie.from_outsets(outsets)
            return
        for m in masks:
            if m & spent:
                continue
            size = mask_sizes[m]
            nxt = avail - (1 if i > 0 else 0) + size
            # at most n - 1 edges are used, so nxt <= n - 1 - i, 0 at n - 1
            if i < n - 1 and nxt < 1:
                continue
            rows = mask_rows[m]
            now_spent = spent
            for k in rows:
                rem[k] -= 1
                if not rem[k]:
                    now_spent |= 1 << k
            outsets[i] = mask_syms[m]
            yield from rec(i + 1, nxt, now_spent)
            for k in rows:
                rem[k] += 1
        outsets[i] = ()

    yield from rec(0, 0, sum(1 << k for k, c in enumerate(rem) if not c))


def count_tries_formula(dist: SymbolDistribution) -> int:
    """Exact number of tries with the given distribution: (1/n) prod C(n, n_i)."""
    total = 1
    for c in dist.counts:
        total *= math.comb(dist.n, c)
    q, r = divmod(total, dist.n)
    if r:
        raise ValueError("matrix count not divisible by n; distribution infeasible")
    return q


def count_all_tries(n: int, sigma: int) -> int:
    """Exact number of tries with n nodes over a sigma-symbol alphabet."""
    if n < 1 or sigma < 1:
        raise ValueError("n and sigma must be positive")
    q, r = divmod(math.comb(n * sigma, n - 1), n)
    if r:
        raise ValueError("unexpected remainder")
    return q


@dataclass(frozen=True)
class DistributionCheck:
    """Cross-check of one distribution: both enumerators against the formula.

    ``rotations_ok`` holds when every rotation class has n distinct members
    and exactly one of them in the image, checked once per class through
    that member together with (image members) x n == ``matrices``;
    ``roundtrip_ok`` when every enumerated trie comes back from its matrix.
    """

    dist: SymbolDistribution
    formula: int
    matrices: int
    tries: int
    rotations_ok: bool
    roundtrip_ok: bool

    @property
    def ok(self) -> bool:
        return (self.matrices == self.formula * self.dist.n
                and self.tries == self.formula
                and self.rotations_ok and self.roundtrip_ok)


def check_rotations(matrix: DegreeMatrix) -> bool:
    """All n column rotations distinct, with exactly one valid inversion.

    Every rotation is tested.  Rotation r moves the last r columns to the
    front, so its D sequence is D cyclically shifted by r and its rows are
    the rows rotated left by r bits; D is taken once.
    """
    n = matrix.n
    d = d_sequence(matrix)
    rows = matrix.rows
    mask = (1 << n) - 1
    seen = set()
    lukas = 0
    for r in range(n):
        seen.add(tuple(((row << r) | (row >> (n - r))) & mask for row in rows))
        if is_lukasiewicz(list(accumulate(d[n - r:] + d[:n - r]))):
            lukas += 1
    return len(seen) == n and lukas == 1


def verify_distribution(dist: SymbolDistribution,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> DistributionCheck:
    """Run the full counting cross-check for one distribution.

    Rotation classes are checked through their members in the image: a
    matrix whose own L sequence is Lukasiewicz runs ``check_rotations``,
    and no other matrix does.  ``rotations_ok`` then asks that every such
    check pass and that (matrices in the image) x n == matrices.

    This passes exactly when ``check_rotations`` would pass on every
    matrix.  If that per-matrix check passes, every class has n distinct
    members and one image member, so the image holds matrices / n matrices.
    Conversely, if every image member passes, each class holding one has
    exactly n members and no other image member; those classes then cover
    (image members) x n = matrices matrices, which is all of them, and
    leaves no room for a class with no member in the image.  No set of
    matrices is kept, so memory does not grow with the enumeration.
    """
    formula = count_tries_formula(dist)
    matrices = 0
    in_image = 0
    rot_ok = True
    for m in enumerate_matrices(dist, cap):
        matrices += 1
        if is_lukasiewicz(l_sequence(m)):
            in_image += 1
            if not check_rotations(m):
                rot_ok = False
    rot_ok = rot_ok and in_image * dist.n == matrices
    tries = 0
    rt_ok = True
    for t in enumerate_tries(dist, cap):
        tries += 1
        try:
            back = matrix_to_trie(trie_to_matrix(t))
        except ValueError:  # a trie's own matrix refused is a failed roundtrip
            back = None
        if back != t:
            rt_ok = False
    return DistributionCheck(dist, formula, matrices, tries, rot_ok, rt_ok)


def feasible_distributions(max_n: int, max_sigma: int) -> Iterator[SymbolDistribution]:
    """Every (n, counts) with n <= max_n and 1 <= sigma <= max_sigma,
    counts nonnegative and summing to n - 1, in a fixed order."""
    for n in range(1, max_n + 1):
        for sigma in range(1, max_sigma + 1):
            for counts in _compositions(n - 1, sigma):
                yield SymbolDistribution(n, counts)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def format_matrix(matrix: DegreeMatrix) -> str:
    """Text dump: one 0/1 line per row, then the D and L integer lines."""
    lines = ["".join(str((row >> j) & 1) for j in range(matrix.n))
             for row in matrix.rows]
    lines.append("D: " + " ".join(str(d) for d in d_sequence(matrix)))
    lines.append("L: " + " ".join(str(v) for v in l_sequence(matrix)))
    return "\n".join(lines)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else: exact
integer equality for the combinatorial criteria, 1e-6 bits for entropy
inequalities, 1e-9 for the monotonicity chain and the 2^H identity.
"""
import math
import random
import time

import pytest

from xbwtrie import (DegreeMatrix, NodeInterval, SymbolDistribution,
                     build_from_strings, build_index, canonical_rotation,
                     count, count_tries_formula, d_sequence,
                     enumerate_matrices, enumerate_tries, forward_step, hk,
                     invert, is_lukasiewicz, l_sequence, leaf_run_count,
                     matrix_to_trie, random_distribution, random_trie, rotate,
                     run_count, symbol_distribution, trie_to_matrix,
                     worst_case_entropy)
from xbwtrie.combinatorics import feasible_distributions
from xbwtrie.entropy import context_table
from xbwtrie.succinct import (FixedBlockVector, IdVector, PlainBitvector,
                              RrrVector)

from conftest import complete_binary

SEED = 20260808
MODES = ("plain", "fid", "id", "fixedblock")

TOL_BITS = 1e-6
TOL_MONO = 1e-9
REL_IDENT = 1e-9


def _report(num: int, name: str, ok: bool, t0: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} {name}{extra} "
          f"[{time.perf_counter() - t0:.1f}s]")


@pytest.fixture(scope="module")
def tries1000():
    rng = random.Random(SEED)
    return [random_trie(rng, 200, 8) for _ in range(1000)]


@pytest.fixture(scope="module")
def metrics(tries1000):
    """Per-trie entropy/run metrics shared by criteria 6, 7, 8 and 10."""
    out = []
    for t in tries1000:
        hs = tuple(hk(t, k) for k in range(8))
        r = run_count(build_index(t, "plain")).total
        out.append({
            "trie": t,
            "n": t.n,
            "sigma": t.alphabet.sigma,
            "dist": symbol_distribution(t),
            "hwc": worst_case_entropy(symbol_distribution(t)),
            "hs": hs,
            "r": r,
        })
    return out


def test_01_counting_formula_exact():
    t0 = time.perf_counter()
    checked = 0
    for dist in feasible_distributions(8, 3):
        formula = count_tries_formula(dist)
        matrices = sum(1 for _ in enumerate_matrices(dist))
        tries = sum(1 for _ in enumerate_tries(dist))
        assert matrices == formula * dist.n, dist
        assert tries == formula, dist
        checked += 1
    _report(1, "counting formula (enumeration == matrices/n == formula)",
            True, t0, f"{checked} distributions")


def test_02_rotation_bijection_exhaustive():
    t0 = time.perf_counter()
    matrices = 0
    for dist in feasible_distributions(7, 3):
        n = dist.n
        for m in enumerate_matrices(dist):
            d = d_sequence(m)
            rotations = set()
            lukas = 0
            for r in range(n):
                rotations.add(rotate(m, r).rows)
                total = 0
                ok = True
                for i in range(n - 1):
                    total += d[(i - r) % n]
                    if total < 0:
                        ok = False
                        break
                lukas += ok
            assert len(rotations) == n, (dist, m.rows)
            assert lukas == 1, (dist, m.rows)
            matrices += 1
    _report(2, "rotation classes: n distinct rotations, exactly one valid",
            True, t0, f"{matrices} matrices")


def test_03_figure_golden():
    t0 = time.perf_counter()
    trie = build_from_strings([b"b", b"bb", b"bcba", b"bcbc"])
    bottom = trie_to_matrix(trie)
    assert bottom.rows == (0b0010000, 0b0001011, 0b0010010)
    assert d_sequence(bottom) == [0, 1, -1, 0, 1, -1, -1]
    assert l_sequence(bottom) == [0, 1, 0, 0, 1, 0, -1]
    top = rotate(bottom, 7 - 3)  # undo the canonical rotation
    assert d_sequence(top) == [0, 1, -1, -1, 0, 1, -1]
    assert l_sequence(top) == [0, 1, 0, -1, -1, 0, -1]
    assert not is_lukasiewicz(l_sequence(top))
    assert is_lukasiewicz(l_sequence(bottom))
    assert canonical_rotation(top) == 3
    assert rotate(top, 3) == bottom
    assert matrix_to_trie(bottom) == trie
    _report(3, "seven-node worked example: matrix, D/L, rotation 3, round trip",
            True, t0)


def _suffix_counters(trie, maxlen):
    cnt = [dict() for _ in range(maxlen + 1)]
    for p in trie.paths():
        for m in range(1, min(len(p), maxlen) + 1):
            s = p[-m:]
            cnt[m][s] = cnt[m].get(s, 0) + 1
    return cnt


def _check_counts_one_backend(trie, idx, cnt, prng):
    """Exhaustive |p| <= 4 (shared-prefix walk) plus 1000 longer patterns."""
    symbols = trie.alphabet.symbols
    n = trie.n
    if not symbols:  # edgeless trie: every nonempty pattern counts zero
        for length in range(1, 8):
            assert count(idx, b"x" * length) == 0
        assert count(idx, b"") == n
        return
    seen = [set() for _ in range(5)]
    stack = [(b"", 1, n)]
    while stack:
        pat, lo, hi = stack.pop()
        for c in symbols:
            p2 = pat + bytes([c])
            iv = forward_step(idx, NodeInterval(lo, hi), c)
            got = 0 if iv.empty else iv.hi - iv.lo + 1
            assert got == cnt[len(p2)].get(p2, 0), (p2, idx.mode)
            if got:
                seen[len(p2)].add(p2)
                if len(p2) < 4:
                    stack.append((p2, iv.lo, iv.hi))
    # Every realized pattern was reached: anything pruned is zero on both
    # sides, because a context is realized only if its parent prefix is.
    for m in range(1, 5):
        assert seen[m] == set(cnt[m].keys()), idx.mode
    paths = trie.paths()
    for _ in range(1000):
        length = prng.randint(5, 10)
        if prng.random() < 0.5:
            v = prng.randrange(n)
            p = paths[v][-length:]
            if len(p) < length:
                p = bytes(prng.choice(symbols) for _ in range(length))
        else:
            p = bytes(prng.choice(symbols) for _ in range(length))
        assert count(idx, p) == cnt[length].get(p, 0), (p, idx.mode)


def test_04_count_query_oracle_equivalence(tries1000):
    t0 = time.perf_counter()
    queries = 0
    for i, trie in enumerate(tries1000):
        cnt = _suffix_counters(trie, 10)
        for mode in MODES:
            idx = build_index(trie, mode)
            _check_counts_one_backend(trie, idx, cnt, random.Random(SEED + i))
        queries += 4 * (sum(len(c) for c in cnt[1:5]) + 1000)
    _report(4, "count(index, p) == naive count on 1000 tries, 4 back-ends",
            True, t0, f">= {queries} checked queries")


def test_05_xbwt_invertibility(tries1000):
    t0 = time.perf_counter()
    for i, trie in enumerate(tries1000):
        idx = build_index(trie, MODES[i % 4])
        assert invert(idx) == trie
    _report(5, "invert(build_index(T)) == T on the same 1000 tries", True, t0)


def test_06_entropy_sandwich(metrics):
    t0 = time.perf_counter()
    for m in metrics:
        n, sigma = m["n"], m["sigma"]
        nh0 = n * m["hs"][0]
        lower = nh0 - sigma * math.log2(n + 1) - math.log2(n)
        upper = nh0 - math.log2(n)
        assert lower <= m["hwc"] + TOL_BITS, m["dist"]
        assert m["hwc"] <= upper + TOL_BITS, m["dist"]
    rng = random.Random(SEED ^ 0xFF)
    dists = [m["dist"] for m in metrics if m["n"] <= 40]
    for _ in range(200):
        n = rng.randint(1, 40)
        dists.append(random_distribution(rng, n, rng.randint(1, 8)))
    for dist in dists:
        exact = count_tries_formula(dist)
        assert abs(2 ** worst_case_entropy(dist) / exact - 1) <= REL_IDENT
    _report(6, "worst-case entropy sandwich + 2^H identity (n <= 40)",
            True, t0, f"{len(metrics)} tries, {len(dists)} identities")


def test_07_monotonicity(metrics):
    t0 = time.perf_counter()
    for m in metrics:
        hs = m["hs"]
        for k in range(7):
            assert hs[k + 1] <= hs[k] + TOL_MONO, (m["dist"], k)
    _report(7, "H_{k+1} <= H_k for k = 0..6 on every generated trie", True, t0)


def test_08_run_bound(metrics):
    t0 = time.perf_counter()
    for m in metrics:
        sigma_full = m["sigma"] + 1  # the sentinel is part of the alphabet
        for k in (0, 1, 2):
            bound = m["n"] * m["hs"][k] + sigma_full ** (k + 1)
            assert m["r"] <= bound + TOL_BITS, (m["dist"], k)
    _report(8, "r <= n H_k + sigma^(k+1) for k in {0,1,2}", True, t0)


def test_09_theta_nh0_witness():
    t0 = time.perf_counter()
    for height in range(2, 13):
        trie = complete_binary(height)
        n = trie.n
        idx = build_index(trie, "plain")
        r = run_count(idx).total
        assert r == (n + 1) // 2, height
        assert leaf_run_count(idx) == (n + 1) // 4, height
        if height >= 6:
            ratio = r / (n * hk(trie, 0))
            assert 0.2 <= ratio <= 0.3, (height, ratio)
    _report(9, "complete binary tries: r = (n+1)/2, leaf runs = (n+1)/4, "
               "r/(nH0) in [0.2, 0.3]", True, t0)


def test_10_space_accounting_rrr(metrics):
    t0 = time.perf_counter()
    for m in metrics:
        trie = m["trie"]
        idx = build_index(trie, "fid")
        payload = sum(v.payload_bits().payload for v in idx.vectors)
        blocks = sum(v.entropy_block_count for v in idx.vectors)
        u = max((v.entropy_block_size for v in idx.vectors), default=1)
        for k in (0, 1, 2):
            ell = len(context_table(trie, k))
            bound = m["n"] * m["hs"][k] + m["sigma"] * (ell - 1) * u + blocks
            assert payload <= bound + TOL_BITS, (m["dist"], k)
    _report(10, "RRR payload <= n H_k + sigma (l-1) u + blocks, k in {0,1,2}",
            True, t0)


def test_11_backend_cross_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(SEED ^ 0xABCDEF)
    vectors = 0
    for _ in range(10_000):
        m = max(1, int(4096 ** rng.random()))
        density = rng.uniform(0.01, 0.99)
        ones = tuple(p for p in range(1, m + 1) if rng.random() < density)
        ref = PlainBitvector(m, ones)
        others = (
            RrrVector(m, ones),
            IdVector(m, ones),
            FixedBlockVector(m, ones, b=max(1, m // 7)),
        )
        ranks = rng.sample(range(m + 1), min(m + 1, 8))
        pranks = rng.sample(range(1, m + 1), min(m, 8))
        sels = (rng.sample(range(1, ref.ones + 1), min(ref.ones, 8))
                if ref.ones else [])
        for v in others:
            assert v.ones == ref.ones
            for i in ranks:
                assert v.rank(i) == ref.rank(i), (v.kind, m, i)
            for i in pranks:
                assert v.prank(i) == ref.prank(i), (v.kind, m, i)
            for j in sels:
                assert v.select(j) == ref.select(j), (v.kind, m, j)
        vectors += 1
    _report(11, "rank/select/prank agree across plain, FID, ID, fixed-block",
            True, t0, f"{vectors} bitvectors")

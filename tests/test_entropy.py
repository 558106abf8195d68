import math

import pytest

from xbwtrie import (SymbolDistribution, build_from_strings, build_index,
                     check_bounds, context_table, count_tries_formula, h0, hk,
                     random_distribution, run_count, symbol_distribution,
                     worst_case_entropy)
from xbwtrie.entropy import report_rows

from conftest import complete_binary
from construction_oracles import context_table_by_paths


def test_worst_case_entropy_trivial():
    assert worst_case_entropy(SymbolDistribution(1, (0,))) == 0.0


def test_worst_case_entropy_figure():
    h = worst_case_entropy(SymbolDistribution(7, (1, 3, 2)))
    assert abs(h - math.log2(735)) < 1e-9


def test_worst_case_entropy_three():
    assert abs(worst_case_entropy(SymbolDistribution(3, (1, 1)))
               - math.log2(3)) < 1e-9


def test_two_to_hwc_matches_exact_count():
    import random
    rng = random.Random(17)
    dists = [SymbolDistribution(7, (1, 3, 2))]
    for _ in range(300):
        n = rng.randint(1, 40)
        dists.append(random_distribution(rng, n, rng.randint(1, 8)))
    for d in dists:
        exact = count_tries_formula(d)
        assert abs(2 ** worst_case_entropy(d) / exact - 1) <= 1e-9


def test_h0_trivial_and_closed_form():
    assert h0(build_from_strings([b""])) == 0.0
    t = complete_binary(2)
    n = t.n
    expect = ((n - 1) * math.log2(2 * n / (n - 1))
              + (n + 1) * math.log2(2 * n / (n + 1))) / n
    assert abs(h0(t) - expect) < 1e-12
    assert abs(h0(t) - 1.97045) < 1e-4


def test_h0_figure_direct_evaluation(fig_trie):
    n = 7
    expect = sum(c / n * math.log2(n / c) + (n - c) / n * math.log2(n / (n - c))
                 for c in (1, 3, 2))
    assert abs(h0(fig_trie) - expect) < 1e-12


def test_h0_equals_hk_zero_exactly(small_tries, fig_trie):
    for t in [fig_trie] + small_tries[:50]:
        assert h0(t) == hk(t, 0)


def test_context_table_order_zero(fig_trie):
    table = context_table(fig_trie, 0)
    assert table.node_counts == {b"": 7}
    assert table.out_counts[b""] == {97: 1, 98: 3, 99: 2}


def test_context_table_figure_k1(fig_trie):
    table = context_table(fig_trie, 1)
    assert table.node_counts == {b"\x00": 1, b"a": 1, b"b": 3, b"c": 2}


def test_context_table_single_node():
    t = build_from_strings([b""])
    for k in (0, 1, 3):
        table = context_table(t, k)
        assert table.node_counts == {bytes([t.alphabet.sentinel] * k): 1}


def test_context_table_sums(small_tries):
    for t in small_tries[:40]:
        for k in (0, 1, 2, 3):
            table = context_table(t, k)
            assert sum(table.node_counts.values()) == t.n
            assert sum(c for per in table.out_counts.values()
                       for c in per.values()) == t.n - 1
            for w, per in table.out_counts.items():
                assert all(c <= table.node_counts[w] for c in per.values())


def test_context_table_matches_path_oracle(small_tries, fig_trie):
    # k runs past the height of the small tries, of the figure trie
    # (height 4) and of the single node
    deep = build_from_strings([b"ab" * 150, b"ba" * 150, b"a" * 200])
    tries = small_tries + [fig_trie, deep, build_from_strings([b""])]
    for t in tries:
        for k in range(5):
            table = context_table(t, k)
            assert (table.node_counts, table.out_counts) == \
                context_table_by_paths(t, k)


def test_hk_path_trie():
    # Unary path: all realized order-1 contexts continue deterministically,
    # except the stop at the last node, leaving only boundary terms.
    for n in (3, 5, 17):
        t = build_from_strings([b"a" * (n - 1)])
        expect = ((n - 2) * math.log2((n - 1) / (n - 2))
                  + math.log2(n - 1)) / n
        assert abs(hk(t, 1) - expect) < 1e-12
        assert hk(t, 2) <= hk(t, 1) + 1e-9


def test_hk_monotone(small_tries, fig_trie):
    for t in [fig_trie] + small_tries[:60]:
        values = [hk(t, k) for k in range(8)]
        for k in range(7):
            assert values[k + 1] <= values[k] + 1e-9


def test_hk_figure_k2_below_k1(fig_trie):
    assert hk(fig_trie, 2) <= hk(fig_trie, 1)


def test_sandwich(small_tries, fig_trie):
    tries = [fig_trie, complete_binary(3)] + small_tries[:60]
    for t in tries:
        n = t.n
        sigma = t.alphabet.sigma
        hwc = worst_case_entropy(symbol_distribution(t))
        nh0 = n * h0(t)
        assert nh0 - sigma * math.log2(n + 1) - math.log2(n) <= hwc + 1e-6
        assert hwc <= nh0 - math.log2(n) + 1e-6


def test_check_bounds_single_node():
    report = check_bounds(build_from_strings([b""]), 3)
    assert report.passed
    assert report.r == 0 and report.hwc == 0.0


def test_check_bounds_figure(fig_trie):
    report = check_bounds(fig_trie, 2)
    assert report.passed
    assert report.r == 6
    assert report.r_by_symbol == {97: 1, 98: 3, 99: 2}


def test_check_bounds_complete_binaries():
    for height in range(2, 9):
        t = complete_binary(height)
        report = check_bounds(t, 2, modes=("fid",))
        assert report.passed
        assert report.r == (t.n + 1) // 2


def test_check_bounds_random(small_tries):
    for t in small_tries[:30]:
        report = check_bounds(t, 3)
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_check_bounds_runs_match_select_path(small_tries):
    # check_bounds counts runs off the XBWT columns; run_count reads them
    # back from a built index with one select per one-bit.
    for t in small_tries:
        report = check_bounds(t, 2)
        runs = run_count(build_index(t, "id"))
        assert report.r == runs.total
        assert report.r_by_symbol == runs.by_symbol


def test_theta_ratio_converges():
    for height in range(6, 10):
        t = complete_binary(height)
        report = check_bounds(t, 0, modes=())
        ratio = report.r / (t.n * report.h[0])
        assert 0.2 <= ratio <= 0.3


def test_context_classes_are_colex_contiguous(small_tries):
    # The payload bound treats same-context nodes as one block of each
    # bitvector, which is only sound if every context class occupies a
    # contiguous range of co-lex ranks.
    from xbwtrie import colex_order, context
    for t in small_tries[:30]:
        order = colex_order(t)
        for k in (1, 2, 3):
            seen_done = set()
            current = None
            for v in order:
                w = context(t, v, k)
                if w != current:
                    assert w not in seen_done, (k, w)
                    if current is not None:
                        seen_done.add(current)
                    current = w


def test_report_rows_format(fig_trie):
    rows = report_rows(check_bounds(fig_trie, 1, modes=("fid",)))
    kinds = {r[0] for r in rows}
    assert kinds == {"metric", "check"}
    assert any(r[1] == "hwc" for r in rows)
    checks = [r for r in rows if r[0] == "check"]
    assert checks and all(r[2] in ("pass", "fail") for r in checks)

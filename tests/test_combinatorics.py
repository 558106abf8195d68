import random

import pytest

import xbwtrie.combinatorics
from xbwtrie import (DegreeMatrix, SymbolDistribution, Trie,
                     build_from_strings, canonical_rotation, count_all_tries,
                     count_tries_formula, d_sequence, enumerate_matrices,
                     enumerate_tries, format_matrix, is_lukasiewicz,
                     l_sequence, matrix_to_trie, random_distribution,
                     random_matrix, random_trie, rotate, trie_to_matrix)
from xbwtrie.combinatorics import (check_rotations, feasible_distributions,
                                   verify_distribution)

from conftest import FIG_STRINGS
from construction_oracles import (enumerate_matrices_by_positions,
                                  enumerate_tries_by_counts,
                                  trie_to_matrix_by_out_labels,
                                  verify_distribution_per_matrix)

ABC = (97, 98, 99)


def mat(rows: list[str], symbols=None) -> DegreeMatrix:
    packed = tuple(sum(1 << j for j, ch in enumerate(r) if ch == "1")
                   for r in rows)
    return DegreeMatrix(len(rows), len(rows[0]), packed,
                        symbols or ABC[:len(rows)])


# The non-trie matrix and its valid rotation (three symbols, seven columns).
TOP = ["0100000", "1000110", "0100010"]
BOTTOM = ["0000100", "1101000", "0100100"]


def test_trie_to_matrix_figure(fig_trie):
    assert trie_to_matrix(fig_trie) == mat(BOTTOM)


def test_trie_to_matrix_single_node():
    m = trie_to_matrix(build_from_strings([b""]))
    assert (m.sigma, m.n, m.rows) == (1, 1, (0,))


def test_trie_to_matrix_height_one_binary():
    m = trie_to_matrix(build_from_strings([b"a", b"b"]))
    assert m == mat(["100", "100"], (97, 98))


def test_d_l_sequences():
    assert d_sequence(mat(TOP)) == [0, 1, -1, -1, 0, 1, -1]
    assert l_sequence(mat(TOP)) == [0, 1, 0, -1, -1, 0, -1]
    assert d_sequence(mat(BOTTOM)) == [0, 1, -1, 0, 1, -1, -1]
    assert l_sequence(mat(BOTTOM)) == [0, 1, 0, 0, 1, 0, -1]
    zero = DegreeMatrix(1, 1, (0,), (97,))
    assert d_sequence(zero) == [-1]
    assert l_sequence(zero) == [-1]


def _column_d_sequence(m: DegreeMatrix) -> list[int]:
    """Reference D: count the ones of each column, one column at a time."""
    return [sum((row >> j) & 1 for row in m.rows) - 1 for j in range(m.n)]


def _column_matrix_to_trie(m: DegreeMatrix) -> Trie:
    """Reference inversion: read each column's symbols top-down."""
    d = _column_d_sequence(m)
    if not is_lukasiewicz([sum(d[:i + 1]) for i in range(m.n)]):
        raise ValueError("matrix not in image of f")
    return Trie.from_outsets([
        tuple(m.symbols[i] for i in range(m.sigma) if (m.rows[i] >> j) & 1)
        for j in range(m.n)])


def _column_canonical_rotation(m: DegreeMatrix) -> int:
    """Reference canonical rotation: right after the first minimum prefix."""
    d = _column_d_sequence(m)
    prefixes = [sum(d[:i]) for i in range(1, m.n + 1)]
    low = min(0, *prefixes)
    return (m.n - (0 if low == 0 else prefixes.index(low) + 1)) % m.n


def _random_weights(rng: random.Random, n: int, sigma: int) -> tuple:
    """n - 1 edges spread over sigma rows; some rows may get none."""
    counts = [0] * sigma
    for _ in range(n - 1):
        counts[rng.randrange(sigma)] += 1
    return tuple(counts)


def test_one_pass_matches_column_reference():
    rng = random.Random(15)
    zero_rows = past_26 = 0
    for _ in range(150):
        n = rng.randint(1, 400)
        sigma = rng.randint(1, 30)
        m = random_matrix(rng, SymbolDistribution(n, _random_weights(
            rng, n, sigma)))
        zero_rows += 0 in m.rows
        past_26 += m.symbols[0] == 1
        assert d_sequence(m) == _column_d_sequence(m)
        canon = rotate(m, _column_canonical_rotation(m))
        assert matrix_to_trie(canon) == _column_matrix_to_trie(canon)
        if canon is not m:
            with pytest.raises(ValueError, match="matrix not in image of f"):
                matrix_to_trie(m)
    assert zero_rows and past_26
    zero = DegreeMatrix(1, 1, (0,), (97,))
    assert d_sequence(zero) == _column_d_sequence(zero) == [-1]
    assert matrix_to_trie(zero) == _column_matrix_to_trie(zero)


def test_random_trie_matches_column_reference():
    """Same seed, same draws, same tries as the column-by-column path."""
    fast, ref = random.Random(3), random.Random(3)
    for _ in range(150):
        trie = random_trie(fast, 400, 30)
        n = ref.randint(1, 400)
        dist = random_distribution(ref, n, ref.randint(1, 30))
        m = random_matrix(ref, dist)
        assert trie == _column_matrix_to_trie(
            rotate(m, _column_canonical_rotation(m)))
    assert fast.getstate() == ref.getstate()


def test_is_lukasiewicz():
    assert not is_lukasiewicz([0, 1, 0, -1, -1, 0, -1])
    assert is_lukasiewicz([0, 1, 0, 0, 1, 0, -1])
    assert is_lukasiewicz([-1])
    assert not is_lukasiewicz([0])
    assert not is_lukasiewicz([2, 0, -1])  # step of -2


def test_matrix_to_trie_figure(fig_trie):
    assert matrix_to_trie(mat(BOTTOM)) == fig_trie


def test_matrix_to_trie_rejects_invalid():
    with pytest.raises(ValueError, match="matrix not in image of f"):
        matrix_to_trie(mat(TOP))


def test_matrix_to_trie_single():
    t = matrix_to_trie(DegreeMatrix(1, 1, (0,), (97,)))
    assert t.n == 1


def test_rotate():
    assert rotate(mat(TOP), 3) == mat(BOTTOM)
    assert rotate(mat(TOP), 0) == mat(TOP)
    assert rotate(mat(TOP), 7) == mat(TOP)
    assert rotate(mat(TOP), 10) == rotate(mat(TOP), 3)


def test_rotate_preserves_row_counts():
    m = mat(TOP)
    for r in range(7):
        assert rotate(m, r).row_counts == m.row_counts


def test_d_sequence_of_rotation_is_cyclic_shift():
    m = mat(TOP)
    d = d_sequence(m)
    for r in range(7):
        assert d_sequence(rotate(m, r)) == [d[(i - r) % 7] for i in range(7)]


def test_canonical_rotation():
    assert canonical_rotation(mat(TOP)) == 3
    assert canonical_rotation(mat(BOTTOM)) == 0
    assert canonical_rotation(DegreeMatrix(1, 1, (0,), (97,))) == 0


def test_canonical_rotation_matches_exhaustive_scan():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        m = random_matrix(rng, SymbolDistribution(n, _random_weights(
            rng, n, rng.randint(1, 3))))
        valid = [r for r in range(n)
                 if is_lukasiewicz(l_sequence(rotate(m, r)))]
        assert valid == [canonical_rotation(m)]


def test_enumerate_matrices_small():
    out = list(enumerate_matrices(SymbolDistribution(2, (1,))))
    assert [m.rows for m in out] == [(1,), (2,)]  # columns 10 then 01
    assert len(list(enumerate_matrices(SymbolDistribution(3, (1, 1))))) == 9
    only = list(enumerate_matrices(SymbolDistribution(1, (0,))))
    assert len(only) == 1 and only[0].rows == (0,)


@pytest.mark.parametrize("n, counts", [
    (1, (0,)), (2, (1,)), (3, (1, 1)), (4, (0, 3)), (5, (2, 0, 2)),
    (6, (1, 2, 2)), (7, (3, 2, 1)), (8, (0, 0, 7)), (27, (26,)),
])
def test_enumerated_matrices_equal_checked_ones(n, counts):
    """Each matrix enumerate_matrices makes without the constructor's
    checks equals the one the public constructor builds from its rows."""
    out = list(enumerate_matrices(SymbolDistribution(n, counts)))
    assert len({m.rows for m in out}) == len(out)
    for m in out:
        checked = DegreeMatrix(m.sigma, m.n, m.rows, m.symbols)
        assert m == checked and hash(m) == hash(checked)
        assert m.row_counts == checked.row_counts == counts


def test_enumerate_matrices_skips_checks(monkeypatch):
    calls = []
    monkeypatch.setattr(DegreeMatrix, "__post_init__",
                        lambda self: calls.append(self))
    assert sum(1 for _ in enumerate_matrices(
        SymbolDistribution(7, (3, 2, 1)))) == 35 * 21 * 7
    assert calls == []


def test_enumerate_matrices_cap():
    with pytest.raises(ValueError, match="enumeration too large"):
        list(enumerate_matrices(SymbolDistribution(8, (3, 2, 2)), cap=10))


def test_enumerate_tries_counts():
    assert len(list(enumerate_tries(SymbolDistribution(3, (1, 1))))) == 3
    assert len(list(enumerate_tries(SymbolDistribution(1, (0,))))) == 1
    tries = list(enumerate_tries(SymbolDistribution(7, (1, 3, 2))))
    assert len(tries) == 735
    assert len({(t.parent, t.label) for t in tries}) == 735


def test_enumerate_tries_distribution_respected():
    from xbwtrie import symbol_distribution
    for t in enumerate_tries(SymbolDistribution(6, (2, 3))):
        assert symbol_distribution(t).counts == (2, 3)


def test_count_tries_formula():
    assert count_tries_formula(SymbolDistribution(3, (1, 1))) == 3
    assert count_tries_formula(SymbolDistribution(1, (0,))) == 1
    assert count_tries_formula(SymbolDistribution(7, (1, 3, 2))) == 735


def test_count_all_tries():
    assert count_all_tries(1, 1) == 1
    assert count_all_tries(1, 5) == 1
    assert count_all_tries(3, 2) == 5
    assert count_all_tries(4, 2) == 14


def test_count_all_tries_equals_distribution_sum():
    for n, sigma in [(3, 2), (4, 2), (5, 3)]:
        total = sum(count_tries_formula(d)
                    for d in feasible_distributions(n, sigma)
                    if d.n == n and d.sigma == sigma)
        assert total == count_all_tries(n, sigma)


def test_roundtrip_trie_matrix_trie(small_tries):
    for t in small_tries[:80]:
        assert matrix_to_trie(trie_to_matrix(t)) == t


def test_roundtrip_matrix_trie_matrix():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 15)
        m = random_matrix(rng, SymbolDistribution(n, _random_weights(
            rng, n, rng.randint(1, 3))))
        canon = rotate(m, canonical_rotation(m))
        trie = matrix_to_trie(canon)
        back = trie_to_matrix(trie)
        # Zero-weight rows vanish from the trie's effective alphabet.
        live = tuple(row for row in canon.rows if row)
        assert back.rows == (live if live else (0,))


def test_random_trie_past_26_symbols():
    """Rows are named 'a'.. up to sigma = 26 and 1..sigma past it, the
    rule enumerate_matrices uses."""
    rng = random.Random(1)
    sigmas = []
    for _ in range(200):
        t = random_trie(rng, 300, 40)
        sigma = t.alphabet.sigma
        sigmas.append(sigma)
        first = 97 if sigma <= 26 else 1
        assert t.alphabet.symbols == tuple(range(first, first + sigma))
    assert max(sigmas) > 26


def test_rotation_equivalence_classes():
    # Every class under rotation has exactly n members, one of them valid.
    dist = SymbolDistribution(5, (2, 2))
    seen: dict[tuple, list] = {}
    for m in enumerate_matrices(dist):
        canon = rotate(m, canonical_rotation(m))
        seen.setdefault(canon.rows, []).append(m.rows)
    assert len(seen) == count_tries_formula(dist)
    for members in seen.values():
        assert len(members) == 5
        assert len(set(members)) == 5


def test_check_rotations_and_verify_distribution():
    assert check_rotations(mat(TOP))
    res = verify_distribution(SymbolDistribution(7, (1, 3, 2)))
    assert res.ok and res.formula == 735 and res.matrices == 735 * 7


@pytest.mark.parametrize("verdict", [True, False])
def test_check_rotations_can_fail(monkeypatch, verdict):
    """Each rotation's Lukasiewicz test counts: if all or none pass, the
    exactly-one-valid check fails."""
    monkeypatch.setattr(xbwtrie.combinatorics, "is_lukasiewicz",
                        lambda values: verdict)
    assert not check_rotations(mat(TOP))
    assert not verify_distribution(SymbolDistribution(7, (1, 3, 2))).ok


def test_verify_distribution_matches_per_matrix_reference():
    """Checking each rotation class once, through its member in the image,
    reports what checking every rotation of every matrix reports."""
    for dist in feasible_distributions(6, 3):
        assert verify_distribution(dist) == verify_distribution_per_matrix(dist)


@pytest.mark.parametrize("accepted", [None, [-1, 0, 1, 0, -1]],
                         ids=["class-emptied", "class-doubled"])
def test_rotation_class_fault_fails_both_forms(monkeypatch, accepted):
    """A fault in one rotation class fails both forms of the check.

    In (5, (2, 2)) a matrix with two equal rows is the only one with its
    L sequence.  Refusing [1, 0, 1, 0, -1] (rows 10100) leaves that class
    with no member in the image: every image member left passes
    ``check_rotations``, and only the count identity sees it.  Accepting
    [-1, 0, 1, 0, -1] as well (rows 01100, a rotation of the image member
    11000) gives another class two image members instead: the count holds,
    and only ``check_rotations`` sees it."""
    dist = SymbolDistribution(5, (2, 2))
    dropped = [1, 0, 1, 0, -1]
    seqs = [l_sequence(m) for m in enumerate_matrices(dist)]
    assert seqs.count(dropped) == 1
    assert accepted is None or seqs.count(accepted) == 1
    real = xbwtrie.combinatorics.is_lukasiewicz
    monkeypatch.setattr(xbwtrie.combinatorics, "is_lukasiewicz",
                        lambda values: list(values) == accepted
                        or list(values) != dropped and real(values))
    image = [m for m in enumerate_matrices(dist)
             if xbwtrie.combinatorics.is_lukasiewicz(l_sequence(m))]
    counted = len(image) * dist.n == len(seqs)
    each_passes = all(check_rotations(m) for m in image)
    assert (counted, each_passes) == ((False, True) if accepted is None
                                      else (True, False))
    for res in (verify_distribution(dist),
                verify_distribution_per_matrix(dist)):
        assert not res.rotations_ok and not res.ok


def _pinned_distributions():
    yield from feasible_distributions(6, 3)
    yield SymbolDistribution(7, (1, 3, 2))


def test_enumerators_keep_reference_order():
    for dist in _pinned_distributions():
        assert (list(enumerate_matrices(dist))
                == list(enumerate_matrices_by_positions(dist)))
        assert (list(enumerate_tries(dist))
                == list(enumerate_tries_by_counts(dist)))


def test_trie_to_matrix_matches_out_label_reference(small_tries):
    tries = list(small_tries)
    for dist in _pinned_distributions():
        tries.extend(enumerate_tries(dist))
    for t in tries:
        assert trie_to_matrix(t) == trie_to_matrix_by_out_labels(t)


def test_feasible_distributions_count():
    dists = list(feasible_distributions(4, 2))
    # sigma=1: one per n; sigma=2: n compositions of n-1 into 2 parts.
    assert len(dists) == 4 + (1 + 2 + 3 + 4)


def test_format_matrix_figure():
    expected = ("0000100\n"
                "1101000\n"
                "0100100\n"
                "D: 0 1 -1 0 1 -1 -1\n"
                "L: 0 1 0 0 1 0 -1")
    assert format_matrix(mat(BOTTOM)) == expected


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: DegreeMatrix(0, 1, (), ()),
                 "sigma and n must be positive", id="sigma-0"),
    pytest.param(lambda: DegreeMatrix(1, 2, (1, 1), (97,)),
                 "need one row and one symbol per character", id="rows"),
    pytest.param(lambda: DegreeMatrix(2, 2, (1, 0), (98, 97)),
                 "symbols must be strictly increasing", id="unsorted"),
    pytest.param(lambda: DegreeMatrix(1, 2, (0b100,), (97,)),
                 "row bits exceed n columns", id="bit-at-n"),
    pytest.param(lambda: DegreeMatrix(1, 2, (0b1000,), (97,)),
                 "row bits exceed n columns", id="bit-past-n"),
    pytest.param(lambda: DegreeMatrix(1, 3, (0b1,), (97,)),
                 "total ones must be n - 1", id="weights"),
    pytest.param(lambda: is_lukasiewicz([]), "sequence must be nonempty",
                 id="lukasiewicz-empty"),
    pytest.param(lambda: rotate(mat(BOTTOM), -1),
                 "rotation must be nonnegative", id="rotate-negative"),
    pytest.param(lambda: next(enumerate_tries(SymbolDistribution(1,
                                                                 (0,) * 17))),
                 "enumeration too large", id="sigma-17"),
    pytest.param(lambda: count_all_tries(0, 1),
                 "n and sigma must be positive", id="count-all-n-0"),
])
def test_argument_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()

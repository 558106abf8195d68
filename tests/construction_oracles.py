"""Reference versions of the trie and XBWT construction steps.

These are the straightforward forms the library replaced with faster ones;
the tests require the library to agree with them.
"""
from itertools import combinations, product

import xbwtrie.combinatorics as comb
from xbwtrie import Trie, colex_order


def dict_trie(strings):
    """(parent, label, symbols) of the trie of ``strings``, built as a dict
    of dicts and numbered by an explicit pre-order walk."""
    root = {}
    for s in strings:
        node = root
        for b in s:
            node = node.setdefault(b, {})
    parent = [0]
    label = [0]
    work = [(root[b], 0, b) for b in sorted(root, reverse=True)]
    while work:
        node, pid, b = work.pop()
        vid = len(parent)
        parent.append(pid)
        label.append(b)
        for nb in sorted(node, reverse=True):
            work.append((node[nb], vid, nb))
    symbols = set()
    for s in strings:
        symbols.update(s)
    return parent, label, tuple(sorted(symbols))


def old_trie_check(parent, label):
    """(message, rules) of the trie check as a sequence of whole-array
    passes.  ``message`` is the error the check reports, None when the
    input is valid; ``rules`` names every rule broken: "range" (a parent
    not below its child), "distinct" and "sorted" (a node's out-labels in
    child-id order), and "preorder", which is only judged when every parent
    is in range, as a parent out of range already breaks it."""
    n = len(parent)
    rules = set()
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        if 0 <= parent[v] < v:
            kids[parent[v]].append((label[v], v))
        else:
            rules.add("range")
    message = None
    if rules:
        message = "node ids must be in pre-order (parent < child)"
    for v in range(n):
        labs = [c for c, _ in kids[v]]
        if len(set(labs)) != len(labs):
            rules.add("distinct")
            message = message or "outgoing labels must be distinct"
        if labs != sorted(labs):
            rules.add("sorted")
            message = message or "children must be sorted by label"
    if "range" not in rules:
        order, stack = [], [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(w for _, w in reversed(kids[v]))
        if order != list(range(n)):
            rules.add("preorder")
            message = message or "node ids must be in pre-order"
    return message, rules


def per_node_columns(trie):
    """XBWT columns by visiting every node's children in co-lex order."""
    slot = {c: i for i, c in enumerate(trie.alphabet.symbols)}
    ones = [[] for _ in slot]
    for rank_pos, v in enumerate(colex_order(trie), start=1):
        for c, _ in trie.children[v]:
            ones[slot[c]].append(rank_pos)
    return tuple(tuple(col) for col in ones)


def runs_per_position(positions):
    """Number of maximal runs of consecutive values in ascending positions,
    one step per position."""
    runs = 0
    prev = -2
    for p in positions:
        if p != prev + 1:
            runs += 1
        prev = p
    return runs


def colex_order_by_paths(trie):
    """Node ids sorted by their reversed root-to-node strings."""
    paths = trie.paths()
    return sorted(range(trie.n), key=lambda v: paths[v][::-1])


def context_by_paths(trie, v, k):
    """The last k symbols of v's path, sentinel-padded on the left."""
    path = bytes([trie.alphabet.sentinel]) * k + trie.paths()[v]
    return path[len(path) - k:]


def context_table_by_paths(trie, k):
    """(node_counts, out_counts) of the order-k contexts, from the path
    strings and each node's out-labels."""
    node_counts, out_counts = {}, {}
    for v in range(trie.n):
        w = context_by_paths(trie, v, k)
        node_counts[w] = node_counts.get(w, 0) + 1
        for c in trie.out_labels(v):
            per = out_counts.setdefault(w, {})
            per[c] = per.get(c, 0) + 1
    return node_counts, out_counts


def enumerate_matrices_by_positions(dist):
    """Every matrix with the distribution's row weights, each row packed
    from its chosen column positions as the matrix is made, through the
    public constructor and its checks."""
    n, sigma = dist.n, dist.sigma
    symbols = comb._default_symbols(sigma)
    per_row = [combinations(range(n), c) for c in dist.counts]
    for choice in product(*per_row):
        rows = tuple(sum(1 << p for p in positions) for positions in choice)
        yield comb.DegreeMatrix(sigma, n, rows, symbols)


def enumerate_tries_by_counts(dist):
    """Every trie with the distribution, out-sets chosen per pre-order node
    as subset masks in increasing order; a mask is refused when any of its
    symbols has no edge left, read from the remaining counts."""
    n, sigma = dist.n, dist.sigma
    symbols = comb._default_symbols(sigma)
    masks = list(range(1 << sigma))
    mask_rows = [tuple(i for i in range(sigma) if (m >> i) & 1) for m in masks]
    mask_syms = [tuple(symbols[i] for i in rows) for rows in mask_rows]
    mask_sizes = [m.bit_count() for m in masks]
    outsets = [()] * n
    rem = list(dist.counts)

    def rec(i, avail):
        if i == n:
            yield Trie.from_outsets(outsets)
            return
        for m in masks:
            rows = mask_rows[m]
            if any(rem[k] == 0 for k in rows):
                continue
            size = mask_sizes[m]
            nxt = avail - (1 if i > 0 else 0) + size
            if i < n - 1 and nxt < 1:
                continue
            if nxt > n - 1 - i:
                continue
            if i == n - 1 and nxt != 0:
                continue
            for k in rows:
                rem[k] -= 1
            outsets[i] = mask_syms[m]
            yield from rec(i + 1, nxt)
            for k in rows:
                rem[k] += 1
        outsets[i] = ()

    yield from rec(0, 0)


def trie_to_matrix_by_out_labels(trie):
    """Out-label indicator matrix, read node by node from ``out_labels``."""
    symbols = trie.alphabet.symbols
    if not symbols:
        return comb.DegreeMatrix(1, trie.n, (0,), comb._default_symbols(1))
    index = {c: i for i, c in enumerate(symbols)}
    rows = [0] * len(symbols)
    for v in range(trie.n):
        for c in trie.out_labels(v):
            rows[index[c]] |= 1 << v
    return comb.DegreeMatrix(len(symbols), trie.n, tuple(rows), symbols)


def verify_distribution_per_matrix(dist):
    """``DistributionCheck`` with every matrix running ``check_rotations``,
    so each rotation class is checked once per member, from the reference
    enumerators and trie-to-matrix function above."""
    formula = comb.count_tries_formula(dist)
    matrices = 0
    rot_ok = True
    for m in enumerate_matrices_by_positions(dist):
        matrices += 1
        if not comb.check_rotations(m):
            rot_ok = False
    tries = 0
    rt_ok = True
    for t in enumerate_tries_by_counts(dist):
        tries += 1
        try:
            back = comb.matrix_to_trie(trie_to_matrix_by_out_labels(t))
        except ValueError:
            back = None
        if back != t:
            rt_ok = False
    return comb.DistributionCheck(dist, formula, matrices, tries, rot_ok,
                                  rt_ok)

"""Reference versions of the trie and XBWT construction steps.

These are the straightforward forms the library replaced with faster ones;
the tests require the library to agree with them.
"""
from xbwtrie import colex_order


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

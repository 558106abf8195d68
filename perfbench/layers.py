"""The traced run: per-layer metrics for the seven modules of xbwtrie.

It runs apart from the end-to-end runs.  One fixed amount of work (one
round of each pass) runs untraced, traced, and untraced again; the traced
wall time minus the mean untraced one is the tracing overhead.  Per-layer
times come from the spans of the traced copy, except ``rank`` and
``select``, which are timed by seeded micro-batches over the query pass's
vectors, and the ``*.growth`` ratios, which repeat the build and analyze
layer calls on a 5k-word and a 20k-word corpus.
"""
from __future__ import annotations

import random
import statistics
import time

from spans import SpanTree, Tracer, install_layer_wrappers
from workload import MODES, STATS_K, Passes, corpus, run_passes

MICRO_BATCH = 2000
MICRO_BATCHES = 5
GROWTH_WORDS = (5_000, 20_000)
GROWTH_REPEATS = 2

# Per-layer metric (prefix) -> the end-to-end metric it should move.
MOVES = {
    "trie.build_from_strings_s": "cli_build_s, cli_stats_s",
    "trie.colex_order_": "cli_build_s, cli_stats_s",
    "succinct.rank_us.": "count_qps.<mode>",
    "succinct.select_us.": "cli_build_s, cli_stats_s (run_count)",
    "succinct.payload_bits_per_node.": "file_bits_per_node.<mode>",
    "succinct.overhead_bits_per_node.": "file_bits_per_node.<mode>",
    "succinct.file_over_accounted.": "file_bits_per_node.<mode>",
    "index.build_index_": "cli_build_s, cli_stats_s",
    "index.serialize_s.": "cli_build_s",
    "index.deserialize_s.": "cli_count_s",
    "index.crc32c_s": "cli_count_s, cli_build_s",
    "index.count_us.": "count_qps.<mode>",
    "index.steps_per_query": "normalises count_qps.<mode>",
    "index.hit_ratio": "normalises count_qps.<mode>",
    "index.run_count_s": "cli_build_s, cli_stats_s",
    "index.invert_s.": "none: cost of the round-trip check",
    "entropy.small_check_bounds_us": "random_check_nodes_per_s",
    "entropy.": "cli_stats_s",
    "combinatorics.": "cli_verify_s",
    "generate.": "random_check_nodes_per_s",
    "cli.self_s.build": "cli_build_s",
    "cli.self_s.count": "cli_count_s",
    "cli.self_s.stats": "cli_stats_s",
    "cli.self_s.verify": "cli_verify_s",
    "growth.": "none: base of the growth ratios",
    "trace.": "none: cost of tracing itself",
}


def moves(name: str) -> str:
    if name.endswith(".growth"):
        return "none: reported, not gated"
    for prefix, target in MOVES.items():
        if name.startswith(prefix):
            return target
    return "?"


def _fastest_us(fn, args: list[tuple]) -> float:
    """Mean time per call of the fastest of MICRO_BATCHES batches, in µs."""
    per_call = []
    for _ in range(MICRO_BATCHES):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        per_call.append((time.perf_counter() - t0) / len(args) * 1e6)
    return min(per_call)


def micro_batches(indexes: dict, seed: int) -> dict[str, float]:
    """rank/select cost per back-end over the query pass's vectors."""
    out = {}
    for m in MODES:
        rng = random.Random(f"{seed}:micro:{m}")
        vectors = [v for v in indexes[m].vectors if v.ones]
        ranks, selects = [], []
        for _ in range(MICRO_BATCH):
            v = rng.choice(vectors)
            ranks.append((v, rng.randint(0, v.m)))
            selects.append((v, rng.randint(1, v.ones)))
        out[f"succinct.rank_us.{m}"] = _fastest_us(lambda v, i: v.rank(i), ranks)
        out[f"succinct.select_us.{m}"] = _fastest_us(lambda v, i: v.select(i),
                                                    selects)
    return out


def query_replay(x, index, patterns: list[bytes]) -> tuple[float, float]:
    """Exact forward-search steps per pattern and share of nonzero answers."""
    steps = hits = 0
    for p in patterns:
        iv = x.index.NodeInterval(1, index.n)
        for c in p:
            steps += 1
            iv = x.index.forward_step(index, iv, c)
            if iv.empty:
                break
        hits += not iv.empty
    return steps / len(patterns), hits / len(patterns)


def growth_probe(x, tracer: Tracer, seed: int) -> dict[str, float]:
    """Fastest of GROWTH_REPEATS calls of each stage at 5k and 20k words."""
    stages: dict[str, list[dict[str, float]]] = {}
    sizes = []
    for words_n in GROWTH_WORDS:
        words = corpus(seed, words_n)
        per_stage: dict[str, list[float]] = {}
        with tracer.span("growth", words=words_n) as root:
            for _ in range(GROWTH_REPEATS):
                with tracer.span("trie.build_from_strings"):
                    trie = x.trie.build_from_strings(words)
                with tracer.span("trie.colex_order"):
                    x.trie.colex_order(trie)
                for m in MODES:
                    data = x.index.serialize(x.index.build_index(trie, m))
                    x.index.deserialize(data)
                x.entropy.check_bounds(trie, STATS_K)
        sizes.append(trie.n)
        tree = SpanTree(tracer.spans)
        for rec in tree.children(root):
            key = rec["name"]
            if "mode" in rec["attrs"]:
                key += "." + rec["attrs"]["mode"]
            per_stage.setdefault(key, []).append(SpanTree.duration(rec))
        stages[words_n] = {k: min(v) for k, v in per_stage.items()}
    small, large = (stages[w] for w in GROWTH_WORDS)
    out = {"growth.n_small": float(sizes[0]), "growth.n_large": float(sizes[1])}
    for key in ("trie.build_from_strings", "trie.colex_order",
                *(f"index.build_index.{m}" for m in MODES),
                *(f"index.deserialize.{m}" for m in MODES),
                "entropy.check_bounds"):
        out[key + ".growth"] = large[key] / small[key]
    return out


def span_metrics(tree: SpanTree) -> dict[str, float]:
    """Totals, call counts and self times over the traced fixed work.

    Trie and index stages are summed over the CLI commands only, so the
    random batch's many small calls stay in their own metrics.
    """
    commands = ("build", "count", "stats", "verify")
    cli = [rec for cmd in commands for rec in tree.under("cli." + cmd)]
    stats = tree.under("cli.stats")
    batch = tree.under("analyze.random_batch")
    count = tree.under("cli.count")
    checks = tree.under("checks")
    out = {
        "trie.build_from_strings_s": tree.total(cli, "trie.build_from_strings"),
        "trie.colex_order_s": tree.total(cli, "trie.colex_order"),
        "trie.colex_order_calls": len(tree.select(cli, "trie.colex_order")),
        "index.build_index_calls": len(tree.select(cli, "index.build_index")),
        "index.crc32c_s": tree.total(cli, "index.crc32c"),
        "index.run_count_s": tree.total(cli, "index.run_count"),
        "entropy.check_bounds_s": tree.total(stats, "entropy.check_bounds"),
        "entropy.context_table_s": tree.total(stats, "entropy.context_table"),
        "entropy.context_table_calls":
            len(tree.select(stats, "entropy.context_table")),
        "entropy.hk_s": tree.total(stats, "entropy.hk"),
    }
    for m in MODES:
        out[f"index.build_index_s.{m}"] = tree.total(cli, "index.build_index",
                                                     mode=m)
        out[f"index.serialize_s.{m}"] = tree.total(cli, "index.serialize",
                                                   mode=m)
        out[f"index.deserialize_s.{m}"] = tree.total(count, "index.deserialize",
                                                     mode=m)
        out[f"index.invert_s.{m}"] = tree.total(checks, "index.invert", mode=m)
    small = tree.select(batch, "entropy.check_bounds")
    out["entropy.small_check_bounds_us"] = statistics.mean(
        SpanTree.duration(r) for r in small) * 1e6
    drawn = tree.select(batch, "generate.random_trie")
    out["generate.random_trie_us"] = statistics.mean(
        SpanTree.duration(r) for r in drawn) * 1e6
    dists = tree.select(tree.under("cli.verify"),
                        "combinatorics.verify_distribution")
    out["combinatorics.verify_distribution_s"] = sum(
        SpanTree.duration(r) for r in dists)
    out["combinatorics.distributions"] = len(dists)
    out["combinatorics.matrices"] = sum(r["attrs"]["matrices"] for r in dists)
    out["combinatorics.tries"] = sum(r["attrs"]["tries"] for r in dists)
    for cmd in commands:
        out[f"cli.self_s.{cmd}"] = sum(
            tree.self_time(r) for r in tree.select(tree.spans, "cli." + cmd))
    return out


def space_metrics(x, files: dict[str, bytes], n: int) -> dict[str, float]:
    """Accounted payload/overhead of each loaded file against its size."""
    out = {}
    for m, data in files.items():
        idx = x.index.deserialize(data)
        payload = sum(v.payload_bits().payload for v in idx.vectors)
        overhead = sum(v.payload_bits().overhead for v in idx.vectors)
        out[f"succinct.payload_bits_per_node.{m}"] = payload / n
        out[f"succinct.overhead_bits_per_node.{m}"] = overhead / n
        out[f"succinct.file_over_accounted.{m}"] = 8 * len(data) / (payload
                                                                    + overhead)
    return out


def traced_run(x, wl, inp, seed: int, workdir: str) -> tuple[dict, Passes, Tracer]:
    """Fixed work untraced, traced, untraced again; returns per-layer metrics.

    The traced copy is compared with the mean of the two untraced copies
    around it, so warm-up and slow drift do not show as tracing overhead.
    """
    plain = Passes(x, wl, inp, seed, workdir)

    def untraced() -> float:
        t0 = time.perf_counter()
        run_passes(plain, 0.0, fixed=True)
        return time.perf_counter() - t0

    before = untraced()

    tracer = Tracer()
    traced = Passes(x, wl, inp, seed, workdir, tracer)
    traced.latencies = {}
    install_layer_wrappers(tracer, x)
    try:
        t0 = time.perf_counter()
        run_passes(traced, 0.0, fixed=True)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    untraced_s = (before + untraced()) / 2

    install_layer_wrappers(tracer, x)
    try:
        with tracer.span("checks"):
            traced.roundtrip()
        growth = growth_probe(x, tracer, seed)
    finally:
        tracer.restore()

    tree = SpanTree(tracer.spans)
    metrics = span_metrics(tree)
    metrics.update(growth)
    metrics.update(micro_batches(inp.indexes, seed))
    metrics.update(space_metrics(x, traced.files, inp.build_n))
    for m, lat in traced.latencies.items():
        q = statistics.quantiles(lat, n=100)
        metrics[f"index.count_us.p50.{m}"] = q[49] * 1e6
        metrics[f"index.count_us.p99.{m}"] = q[98] * 1e6
    steps, hits = query_replay(x, inp.indexes["plain"], inp.patterns)
    metrics["index.steps_per_query"] = steps
    metrics["index.hit_ratio"] = hits
    expected_hits = sum(1 for e in inp.expected if e) / len(inp.expected)
    traced.tally.check(hits == expected_hits, "forward_step replay hit ratio")
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    plain.tally.attempted += traced.tally.attempted
    plain.tally.failed += traced.tally.failed
    plain.tally.notes += traced.tally.notes
    for name, value in traced.fingerprints.items():
        plain.fingerprint(name, value)
    return metrics, plain, tracer

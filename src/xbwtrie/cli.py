"""Command-line front end: build, count, stats, enumerate, verify, dump."""
from __future__ import annotations

import argparse
import json
import string
import sys

from . import combinatorics as comb
from . import entropy as ent
from . import index as xidx
from .trie import (SymbolDistribution, Trie, build_from_strings, colex_order,
                   strings_from_bytes)

INDEX_MODES = (*xidx.MODES, "auto")


def parse_pattern(text: str) -> bytes:
    r"""Decode a command-line pattern; ``\xNN`` escapes inject raw bytes."""
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if text[i:i + 2] == "\\\\":
                out.append(ord("\\"))
                i += 2
                continue
            digits = text[i + 2:i + 4]
            if (text[i + 1:i + 2] == "x" and len(digits) == 2
                    and all(d in string.hexdigits for d in digits)):
                out.append(int(digits, 16))
                i += 4
                continue
            raise ValueError(f"bad escape at offset {i} in pattern {text!r}")
        code = ord(ch)
        if code > 255:
            raise ValueError(f"non-byte character {ch!r} in pattern")
        out.append(code)
        i += 1
    return bytes(out)


def format_pattern(pattern: bytes) -> str:
    out = []
    for b in pattern:
        if b == ord("\\"):
            out.append("\\\\")
        elif 32 <= b <= 126:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def _emit(rows: list[tuple[str, ...]], fmt: str, out) -> None:
    """Render (kind, name, k-or-status, value) rows.

    The machine formats write one ``name<TAB>k<TAB>value`` line per metric
    and one ``check<TAB>name<TAB>pass|fail<TAB>slack`` line per verdict;
    json-lines mirrors those rows one to one.
    """
    if fmt == "tsv":
        for kind, name, a, b in rows:
            if kind == "check":
                print(f"check\t{name}\t{a}\t{b}", file=out)
            else:
                print(f"{name}\t{a}\t{b}", file=out)
    elif fmt == "json-lines":
        for kind, name, a, b in rows:
            if kind == "check":
                obj = {"check": name, "status": a, "slack": b}
            else:
                obj = {"metric": name, "k": a, "value": b}
            print(json.dumps(obj), file=out)
    else:  # table
        widths = [max(len(r[i]) for r in rows) for i in range(4)] if rows else []
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(),
                  file=out)


def _load_trie(path: str) -> Trie:
    """The trie of a string set, which must hold one string, or by inversion
    of an index file: ``XBWT``, then a u16 version whose high byte is 0 and
    a u16 mode that names a back-end."""
    with open(path, "rb") as fh:
        data = fh.read()
    if (len(data) >= 8 and data[:4] == xidx.MAGIC and data[5] == 0
            and int.from_bytes(data[6:8], "little") < len(xidx.MODES)):
        return xidx.invert(xidx.deserialize(data))
    strings = strings_from_bytes(data)
    if not strings:
        raise ValueError(f"empty input: {path}")
    return build_from_strings(strings)


def cmd_build(args) -> int:
    trie = _load_trie(args.input)
    # every mode is accounted once, from the columns, for 'auto' and the
    # rows; one index is built
    costs = {mode: xidx.column_cost(trie, mode) for mode in xidx.MODES}
    index = xidx.build_index(trie, xidx.smallest_file(costs)
                             if args.mode == "auto" else args.mode)
    data = xidx.serialize(index)
    with open(args.output, "wb") as fh:
        fh.write(data)
    rows = [("metric", "n", "-", str(trie.n)),
            ("metric", "sigma", "-", str(trie.alphabet.sigma)),
            ("metric", "mode", "-", index.mode),
            ("metric", "r", "-", str(xidx.count_runs(
                trie.alphabet.symbols, xidx.xbwt_bitmaps(trie)).total)),
            ("metric", "bytes", "-", str(len(data)))]
    for mode, acc in costs.items():
        rows.append(("metric", f"payload[{mode}]", "-", str(acc.bits.payload)))
        rows.append(("metric", f"overhead[{mode}]", "-",
                     str(acc.bits.overhead)))
    _emit(rows, args.format, sys.stdout)
    return 0


def cmd_count(args) -> int:
    with open(args.index, "rb") as fh:
        idx = xidx.deserialize(fh.read())
    patterns: list[bytes] = []
    for text in args.patterns:
        patterns.append(parse_pattern(text))
    if args.patterns_file:
        with open(args.patterns_file, "rb") as fh:
            patterns.extend(strings_from_bytes(fh.read()))
    failed = False
    for p in patterns:
        try:
            value = xidx.count(idx, p)
        except ValueError as exc:
            print(f"error: {format_pattern(p)}: {exc}", file=sys.stderr)
            failed = True
            continue
        print(f"{format_pattern(p)}\t{value}")
    return 1 if failed else 0


def cmd_stats(args) -> int:
    trie = _load_trie(args.input)
    modes = (args.mode,) if args.mode != "auto" else xidx.MODES
    report = ent.check_bounds(trie, args.k, modes=modes)
    _emit(ent.report_rows(report), args.format, sys.stdout)
    return 0 if report.passed else 1


def cmd_enumerate(args) -> int:
    counts = tuple(int(c) for c in args.counts.split(","))
    if sum(counts) != args.n - 1:
        print("error: infeasible: sum != n-1", file=sys.stderr)
        return 1
    dist = SymbolDistribution(args.n, counts)
    formula = comb.count_tries_formula(dist)
    matrices = sum(1 for _ in comb.enumerate_matrices(dist, args.cap))
    tries = sum(1 for _ in comb.enumerate_tries(dist, args.cap))
    rows = [("metric", "formula", "-", str(formula)),
            ("metric", "matrices/n", "-", str(matrices // dist.n)),
            ("metric", "tries", "-", str(tries))]
    ok = matrices == formula * dist.n and tries == formula
    rows.append(("check", "counting_equivalence", "pass" if ok else "fail",
                 "0"))
    _emit(rows, args.format, sys.stdout)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.max_n < 1 or args.max_sigma < 1:
        raise ValueError("max_n and max_sigma must be positive")
    # the sweep reaches sigma = 17 at n = 1, where enumerate_tries refuses,
    # so refuse before listing the distributions
    if args.max_sigma > comb.MAX_ENUMERATION_SIGMA:
        raise ValueError("enumeration too large")
    dists = list(comb.feasible_distributions(args.max_n, args.max_sigma))
    results = [comb.verify_distribution(d, args.cap) for d in dists]

    summary: dict[tuple[int, int], list[int]] = {}
    all_ok = True
    for res in results:
        key = (res.dist.n, res.dist.sigma)
        agg = summary.setdefault(key, [0, 0, 0, 0])
        agg[0] += 1
        agg[1] += res.matrices
        agg[2] += res.tries
        agg[3] += 0 if res.ok else 1
        if not res.ok:
            all_ok = False
            print(f"FAIL n={res.dist.n} counts={res.dist.counts} "
                  f"formula={res.formula} matrices={res.matrices} "
                  f"tries={res.tries}", file=sys.stderr)
    rows = [("metric", "distributions", "-", str(len(dists)))]
    for (n, sigma), agg in sorted(summary.items()):
        rows.append(("metric", f"sweep[n={n},sigma={sigma}]", "-",
                     f"dists={agg[0]} matrices={agg[1]} tries={agg[2]} "
                     f"failures={agg[3]}"))
    rows.append(("check", "verify", "pass" if all_ok else "fail", "0"))
    _emit(rows, args.format, sys.stdout)
    return 0 if all_ok else 1


def cmd_dump(args) -> int:
    trie = _load_trie(args.input)
    matrix = comb.trie_to_matrix(trie)
    print(comb.format_matrix(matrix))
    order = colex_order(trie)
    print("colex: " + " ".join(str(v + 1) for v in order))
    outs = []
    for v in order:
        labels = trie.out_labels(v)
        outs.append("{" + ",".join(format_pattern(bytes([c])) for c in labels) + "}")
    print("xbwt: " + " ".join(outs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbwtrie",
        description="Trie counting, entropy reports, and XBWT count queries")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=True, fmt=True):
        if mode:
            p.add_argument("--mode", choices=INDEX_MODES, default="auto")
        if fmt:
            p.add_argument("--format", choices=("table", "tsv", "json-lines"),
                           default="table")

    p = sub.add_parser("build", help="index a string set or re-index an index")
    p.add_argument("input")
    p.add_argument("--output", required=True)
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "count", help="run count queries against an index file",
        description="Count the trie nodes whose path ends with each pattern. "
        "count trusts its file: it checks the CRC, the header, each vector "
        "body and the weights, but not that the vectors are a trie's XBWT; "
        "stats, dump and build refuse a file that is not, through inversion.")
    p.add_argument("index")
    p.add_argument("patterns", nargs="*")
    p.add_argument("--patterns-file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("stats", help="entropy and bound report for a string set or index")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("enumerate", help="cross-check the counting formula")
    p.add_argument("n", type=int)
    p.add_argument("counts", help="comma-separated per-symbol edge counts")
    p.add_argument("--cap", type=int, default=comb.DEFAULT_ENUMERATION_CAP)
    common(p, mode=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="sweep all distributions up to the caps")
    p.add_argument("max_n", type=int)
    p.add_argument("max_sigma", type=int)
    p.add_argument("--cap", type=int, default=comb.DEFAULT_ENUMERATION_CAP)
    common(p, mode=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump", help="print matrix, D/L, co-lex order and XBWT")
    p.add_argument("input")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

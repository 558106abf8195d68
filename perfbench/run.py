"""Benchmark of xbwtrie: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` is the separate traced run that reports the per-layer metrics
and writes its spans to ``.bench_build/perfbench/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program under test is imported from
``src/`` of the current directory and nowhere else; without it the run
exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys

from workload import (WORKLOADS, HostClock, Passes, build_indexes, corpus,
                      run_passes, setup)

# Set-up runs at least SETUP_REPEATS times and for SETUP_MIN_S seconds in all.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def load_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xbwtrie", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import xbwtrie
    import xbwtrie.cli  # noqa: F401  (submodules are reached as attributes)
    if os.path.dirname(os.path.abspath(xbwtrie.__file__)) != os.path.join(
            src, "xbwtrie"):
        return None
    return xbwtrie


def code_digest(root: str) -> str:
    """Digest of the program and benchmark sources: the ledger's code key."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "xbwtrie", "*.py"))
                       + glob.glob(os.path.join(root, "perfbench", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def ledger_check(path: str, key: str, fingerprints: dict, tally) -> None:
    """Fingerprints must equal those of every earlier run with the same key."""
    try:
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    except FileNotFoundError:
        ledger = {}
    known = ledger.setdefault(key, {})
    for name, value in sorted(fingerprints.items()):
        tally.check(known.setdefault(name, value) == value,
                    f"fingerprint {name} differs from an earlier run")
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def end_to_end_run(x, wl, seed, seconds, workdir):
    setups = []
    clock = HostClock()
    words = corpus(seed, wl.query_words)
    # setup_s times the program's set-up alone; the oracles are built once.
    with clock:
        while (len(setups) < SETUP_REPEATS
               or math.fsum(t.seconds for t in setups) < SETUP_MIN_S):
            indexes = None
            gc.collect()
            mark = clock.mark()
            indexes = build_indexes(x, words)
            setups.append(clock.since(mark))
        inp = setup(x, wl, seed, workdir, indexes)
        passes = Passes(x, wl, inp, seed, workdir, clock=clock)
        run_passes(passes, seconds)
    passes.roundtrip()
    metrics = passes.end_to_end()
    metrics["setup_s"] = statistics.median(map(clock.scaled, setups))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024)
    print(f"# set-up runs (s, unscaled): "
          f"{' '.join(f'{t.seconds:.3f}' for t in setups)}"
          f"; {len(clock.samples)} host-speed samples"
          f"; every unit repeated at least {passes.repetitions()} times")
    return metrics, passes, passes.end_to_end(scaled=False)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    x = load_program(root)
    if x is None:
        print("error: run from a checkout of xbwtrie: src/xbwtrie not found",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    threads_env = os.environ.pop("XBWTRIE_THREADS", None)
    wl = WORKLOADS[args.workload]
    outdir = os.path.join(root, ".bench_build", "perfbench")
    workdir = os.path.join(outdir, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            from layers import moves, traced_run
            aside = {}
            inp = setup(x, wl, args.seed, workdir)
            metrics, passes, tracer = traced_run(x, wl, inp, args.seed, workdir)
            spans_path = os.path.join(
                outdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            wanted = spec["per_layer"]
        else:
            metrics, passes, aside = end_to_end_run(x, wl, args.seed,
                                                    args.seconds, workdir)
            wanted = spec["end_to_end"]
        ledger_check(os.path.join(outdir, "fingerprints.json"),
                     f"{args.workload}|seed={args.seed}|code={code_digest(root)}",
                     passes.fingerprints, passes.tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = passes.tally
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} sizes={wl}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
          f"gc_enabled={gc.isenabled()} XBWTRIE_THREADS=unset"
          + (f" (was {threads_env!r}, removed)" if threads_env is not None
             else ""))
    for name, value in sorted(passes.fingerprints.items()):
        print(f"# fingerprint {name} {value}")
    if args.trace:
        print(f"# spans written to {os.path.relpath(spans_path, root)}")
    for note in tally.notes:
        print(f"# FAILED {note}")
    out = {}
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None:
            tally.check(False, f"metric {m['name']} was not measured")
            continue
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        line = f"{m['name']:40s} {value:16.6f} {m['unit']:10s} {m['better']:6s}"
        if args.trace:
            line += f"  -> {moves(m['name'])}"
        elif m["name"] in aside:
            line += f"  (unscaled: {aside[m['name']]:.6f})"
        print(line)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

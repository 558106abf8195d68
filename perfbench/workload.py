"""Seeded inputs, independent oracles and the four timed passes.

Every workload runs the same four passes, so every workload prints every
end-to-end metric; the workloads differ in how large each pass's input is
and how much of the run each pass gets:

* the query pass sends a pattern stream through ``index.count`` on four
  in-memory indexes, back-ends interleaved chunk by chunk;
* the build pass runs ``xbwtrie build`` once per mode, then
  ``xbwtrie count`` on each file with a small pattern file;
* the analyze pass runs ``xbwtrie stats --k 2`` and ``xbwtrie verify``;
* the random pass checks a batch of ``generate.random_trie`` draws with
  ``check_bounds(k=3)``; it is the same batch in every workload.

Each workload gives its own passes the full-size input and most of the
time; the others run at companion size, which keeps their per-call fixed
costs in view.  The oracles use only the word list: the trie's node paths
are the distinct prefixes of the words.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

ALPHABET = b"abcdefgh"
# Bytes outside the corpus alphabet; none is the sentinel (0x00) or a newline.
FOREIGN = b"ijklmnopqrstuvwxyz0123456789"
MODES = ("plain", "fid", "id", "fixedblock")
MAX_PATTERN = 8
PATTERN_FILE_SIZE = 64
STATS_K = 2
RANDOM_MAX_N = 400
RANDOM_MAX_SIGMA = 6
RANDOM_K = 3
RANDOM_TRIES = 300
MIN_ROUNDS = 1
RANDOM_STEP = 25          # random tries per scheduling step
# HostClock's reference loop: iterations, how often it runs, how many samples
# on each side of an operation also count for it, and its mean time on the
# host the bounds were tuned on.
REF_ITERATIONS = 1000
REF_INTERVAL_S = 0.005
REF_MARGIN = 2
REFERENCE_S = 2.3e-4
CHUNK = 500               # patterns per timed unit of the query pass


@dataclass(frozen=True)
class Workload:
    query_words: int            # corpus behind the query pass's indexes
    patterns: int               # length of the query pattern stream
    build_words: int            # corpus given to `xbwtrie build`
    stats_words: int            # corpus given to `xbwtrie stats`
    verify: tuple[int, int]     # max_n, max_sigma of `xbwtrie verify`
    # Share of the run for each pass: query, build, analyze, random.
    shares: tuple[float, float, float, float]


# Companion passes use small inputs: the shorter an operation, the more
# repetitions fit, and the steadier its median.  The random batch is the
# same everywhere: fewer tries would let the seed's draw of trie sizes
# show in the figures.
WORKLOADS = {
    "query": Workload(80_000, 20_000, 500, 500, (4, 3),
                      (0.45, 0.12, 0.1, 0.33)),
    "build": Workload(1_000, 5_000, 20_000, 500, (4, 3),
                      (0.08, 0.64, 0.08, 0.2)),
    "analyze": Workload(1_000, 5_000, 500, 20_000, (6, 3),
                        (0.12, 0.16, 0.5, 0.22)),
}


def corpus(seed: int, words: int) -> list[bytes]:
    """Random words over a-h of length 3-12; seed 1 and 20k words give n = 72,772."""
    rng = random.Random(seed)
    return [bytes(rng.choice(ALPHABET) for _ in range(rng.randint(3, 12)))
            for _ in range(words)]


def node_paths(words: list[bytes]) -> list[bytes]:
    """Root-to-node paths of the trie of ``words``, sorted, root excluded."""
    return sorted({w[:i] for w in words for i in range(1, len(w) + 1)})


def pattern_stream(rng: random.Random, paths: list[bytes],
                   count: int) -> list[bytes]:
    """~80% suffixes of node paths, ~18% random a-h strings, ~2% foreign bytes."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.80:
            path = rng.choice(paths)
            out.append(path[-rng.randint(1, min(MAX_PATTERN, len(path))):])
            continue
        s = bytearray(rng.choice(ALPHABET)
                      for _ in range(rng.randint(1, MAX_PATTERN)))
        if roll >= 0.98:
            s[rng.randrange(len(s))] = rng.choice(FOREIGN)
        out.append(bytes(s))
    return out


def suffix_counts(paths: list[bytes], patterns: list[bytes]) -> list[int]:
    """Exact count answers: nodes whose path ends with the pattern."""
    counts = dict.fromkeys(patterns, 0)
    for p in paths:
        for k in range(1, min(MAX_PATTERN, len(p)) + 1):
            s = p[-k:]
            if s in counts:
                counts[s] += 1
    return [counts[q] for q in patterns]


def verify_expected(max_n: int, max_sigma: int) -> str:
    """`verify --format tsv` output from closed forms, not from enumeration.

    Per (n, sigma): C(n+sigma-2, sigma-1) distributions; the matrices of all
    of them number C(n*sigma, n-1), the coefficient of x^(n-1) in
    (1+x)^(n*sigma); tries are matrices / n.
    """
    rows = []
    total = 0
    for n in range(1, max_n + 1):
        for sigma in range(1, max_sigma + 1):
            dists = math.comb(n + sigma - 2, sigma - 1)
            matrices = math.comb(n * sigma, n - 1)
            total += dists
            rows.append(f"sweep[n={n},sigma={sigma}]\t-\tdists={dists} "
                        f"matrices={matrices} tries={matrices // n} failures=0")
    return "\n".join([f"distributions\t-\t{total}", *rows,
                      "check\tverify\tpass\t0"]) + "\n"


def _reference_loop() -> None:
    """Fixed plain-Python work that runs no xbwtrie code."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
        table[i & 63] = table.get(i & 63, 0) + acc


@dataclass(frozen=True)
class Timing:
    """One timed operation: its own seconds and the samples around it."""

    seconds: float
    first: int      # index of the first reference sample taken during it
    last: int       # index one past the last such sample


class HostClock:
    """Times operations and scales them to the speed of a quiet host.

    The host is shared.  Other tenants slow everything in this process by
    up to ~1.7x, in spells of one to a few seconds, so a long operation can
    run half in a slow spell and half in a fast one.  While the clock is
    running, a SIGALRM every REF_INTERVAL_S runs a fixed reference loop in
    this same thread, between the program's bytecodes, so the loop is
    sampled during every operation at the speed the operation sees.  An
    operation's time excludes the loop's own time, and is scaled by
    REFERENCE_S over the loop's mean time during the operation and over
    REF_MARGIN samples on either side of it (a short operation has none of
    its own).  A change to xbwtrie cannot move the loop.  Outside ``with
    clock:`` no samples are taken and times are reported as measured.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> Timing:
        t0, spent0, first = mark
        spent, last = self.spent, len(self.samples)
        return Timing(time.perf_counter() - t0 - (spent - spent0), first, last)

    def scaled(self, t: Timing) -> float:
        around = self.samples[max(0, t.first - REF_MARGIN):t.last + REF_MARGIN]
        if not around:
            return t.seconds
        return t.seconds * REFERENCE_S / math.fsum(around) * len(around)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Inputs:
    """Everything set-up produces; the timed passes only read it."""

    indexes: dict
    patterns: list[bytes]
    expected: list[int]
    build_corpus: str
    build_n: int
    build_paths: list[bytes]
    pattern_file: str
    expected_count_out: str
    stats_corpus: str
    stats_n: int
    verify_out: str


def _write_corpus(path: str, words: list[bytes]) -> None:
    with open(path, "wb") as fh:
        fh.write(b"\n".join(words) + b"\n")


def build_indexes(x, words: list[bytes]) -> dict:
    """The program's share of set-up: the query pass's trie and 4 indexes."""
    trie = x.trie.build_from_strings(words)
    return {m: x.index.build_index(trie, m) for m in MODES}


def setup(x, wl: Workload, seed: int, workdir: str,
          indexes: dict | None = None) -> Inputs:
    """Generate the inputs from ``seed``, build the query indexes and oracles.

    ``indexes``, if given, are those ``build_indexes`` made from the same
    words; the oracles are harness work and are built here either way.
    """
    words = corpus(seed, wl.query_words)
    if indexes is None:
        indexes = build_indexes(x, words)
    paths = node_paths(words)
    patterns = pattern_stream(random.Random(f"{seed}:patterns"), paths,
                              wl.patterns)
    expected = suffix_counts(paths, patterns)

    words = corpus(seed, wl.build_words)
    build_corpus = os.path.join(workdir, "build-corpus.txt")
    _write_corpus(build_corpus, words)
    build_paths = node_paths(words)
    small = pattern_stream(random.Random(f"{seed}:pattern-file"), build_paths,
                           PATTERN_FILE_SIZE)
    pattern_file = os.path.join(workdir, "patterns.txt")
    _write_corpus(pattern_file, small)
    count_out = "".join(f"{p.decode('ascii')}\t{c}\n"
                        for p, c in zip(small, suffix_counts(build_paths, small)))

    words = corpus(seed, wl.stats_words)
    stats_corpus = os.path.join(workdir, "stats-corpus.txt")
    _write_corpus(stats_corpus, words)
    return Inputs(indexes, patterns, expected, build_corpus,
                  len(build_paths) + 1, build_paths, pattern_file, count_out,
                  stats_corpus, len(node_paths(words)) + 1,
                  verify_expected(*wl.verify))


class NullTracer:
    """Stand-in used when tracing is off: spans cost one empty ``with``."""

    _null = contextlib.nullcontext({"attrs": {}})

    def span(self, name, **attrs):
        return self._null


@dataclass
class Tally:
    """Operations attempted and failed, wrong answers included."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


def report_crash(what: str) -> None:
    """Print the current exception's traceback; the run goes on and counts it."""
    print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)


def run_cli(x, tracer, clock: HostClock,
            argv: list[str]) -> tuple[int, str, Timing]:
    """`xbwtrie <argv>` in-process with stdout captured: (status, stdout, time)."""
    out = io.StringIO()
    crashed = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with tracer.span("cli." + argv[0]):
            mark = clock.mark()
            try:
                status = x.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                status = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                status, crashed = -1, True
                tb = traceback.format_exc()
            dt = clock.since(mark)
    if crashed:
        print(f"xbwtrie {' '.join(argv)} raised:\n{tb}", file=sys.stderr)
    return status, out.getvalue(), dt


class Passes:
    """The four passes over one set of inputs.

    Every timed operation is recorded under (metric, unit), where a unit is
    one repeatable piece of work: a chunk of the pattern stream on one
    back-end, one CLI command, one random trie.  A metric's value sums the
    median repetition of each of its units, each repetition scaled by the
    host's speed while it ran (see ``HostClock``).
    """

    def __init__(self, x, wl: Workload, inp: Inputs, seed: int, workdir: str,
                 tracer=None, clock: HostClock | None = None):
        self.x = x
        self.wl = wl
        self.inp = inp
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer or NullTracer()
        self.tally = Tally()
        self.clock = clock or HostClock()
        self.times: dict[str, dict[object, list[Timing]]] = {}
        self.fingerprints: dict[str, str] = {}
        self.latencies: dict[str, list[float]] | None = None
        self.files: dict[str, bytes] = {}
        self.random_nodes: dict[int, int] = {}
        self.chunks = [(lo, inp.patterns[lo:lo + CHUNK])
                       for lo in range(0, len(inp.patterns), CHUNK)]

    def _time(self, metric: str, unit, timing: Timing) -> None:
        self.times.setdefault(metric, {}).setdefault(unit, []).append(timing)

    def fingerprint(self, name: str, value: str) -> None:
        """First value is kept; a later one that differs is a failure."""
        first = self.fingerprints.setdefault(name, value)
        self.tally.check(first == value, f"{name} changed between rounds")

    # -- query -------------------------------------------------------------

    def query_round(self, r: int):
        """The whole stream, one step per chunk, back-ends interleaved."""
        count = self.x.index.count
        answers: dict[str, list] = {m: [] for m in MODES}
        for j, (lo, chunk) in enumerate(self.chunks):
            turn = (r + j) % len(MODES)
            for m in MODES[turn:] + MODES[:turn]:
                idx = self.inp.indexes[m]
                mark = self.clock.mark()
                try:
                    if self.latencies is None:
                        got = [count(idx, p) for p in chunk]
                    else:
                        got = self._timed_each(count, idx, chunk, m)
                    self._time(f"count.{m}", j, self.clock.since(mark))
                except Exception:  # score each pattern on its own
                    report_crash(f"count[{m}] on chunk {j}")
                    got = [self._count_or_none(count, idx, p) for p in chunk]
                expected = self.inp.expected[lo:lo + len(chunk)]
                wrong = sum(a != e for a, e in zip(got, expected))
                self.tally.add(len(chunk), wrong,
                               f"count[{m}]: {wrong} wrong answers")
                answers[m].extend(got)
            yield
        for m in MODES:
            self.fingerprint("query.answers", digest(repr(answers[m])))

    @staticmethod
    def _count_or_none(count, idx, pattern):
        try:
            return count(idx, pattern)
        except Exception:
            return None

    def _timed_each(self, count, idx, patterns, mode) -> list[int]:
        lat = self.latencies.setdefault(mode, [])
        clock = time.perf_counter
        out = []
        for p in patterns:
            t0 = clock()
            out.append(count(idx, p))
            lat.append(clock() - t0)
        return out

    # -- build -------------------------------------------------------------

    def build_round(self, r: int):
        """One step per `build`, then one per `count`."""
        inp = self.inp
        for m in MODES:
            path = os.path.join(self.workdir, f"{m}.xbwt")
            status, out, dt = run_cli(self.x, self.tracer, self.clock,
                                      ["build", inp.build_corpus, "--output",
                                       path, "--mode", m, "--format", "tsv"])
            self._time("cli_build_s", m, dt)
            rows = dict(line.split("\t")[0::2] for line in out.splitlines()
                        if line.count("\t") == 2)
            data = b""
            if status == 0:
                with open(path, "rb") as fh:
                    data = fh.read()
            self.tally.check(status == 0 and rows.get("n") == str(inp.build_n)
                             and rows.get("bytes") == str(len(data)),
                             f"build[{m}] status {status}")
            self.files[m] = data
            self.fingerprint(f"build.file.{m}", digest(data))
            yield
        expected = inp.expected_count_out.splitlines()
        for m in MODES:
            path = os.path.join(self.workdir, f"{m}.xbwt")
            status, out, dt = run_cli(self.x, self.tracer, self.clock,
                                      ["count", path, "--patterns-file",
                                       inp.pattern_file])
            self._time("cli_count_s", m, dt)
            got = out.splitlines()
            wrong = sum(a != b for a, b in zip(got, expected))
            wrong += abs(len(got) - len(expected))
            self.tally.check(status == 0, f"count[{m}] status {status}")
            self.tally.add(len(expected), min(wrong, len(expected)),
                           f"count[{m}]: {wrong} wrong lines")
            yield

    def roundtrip(self) -> None:
        """invert(deserialize(file)) must have the corpus's node paths."""
        for m, data in self.files.items():
            with self.tracer.span("check.roundtrip", mode=m):
                try:
                    trie = self.x.index.invert(self.x.index.deserialize(data))
                    ok = sorted(trie.paths()[1:]) == self.inp.build_paths
                except Exception:
                    report_crash(f"roundtrip[{m}]")
                    ok = False
            self.tally.check(ok, f"roundtrip[{m}]")

    # -- analyze -----------------------------------------------------------

    def analyze_round(self, r: int):
        """Steps: `stats`, then `verify`."""
        inp = self.inp
        status, out, dt = run_cli(self.x, self.tracer, self.clock,
                                  ["stats", inp.stats_corpus, "--k",
                                   str(STATS_K), "--format", "tsv"])
        self._time("cli_stats_s", "stats", dt)
        rows = [line.split("\t") for line in out.splitlines()]
        checks = [row for row in rows if row[0] == "check"]
        self.tally.check(status == 0 and ["n", "-", str(inp.stats_n)] in rows
                         and checks and all(c[2] == "pass" for c in checks),
                         f"stats: status {status}, or a row is wrong")
        self.fingerprint("analyze.stats", digest(out))
        yield

        status, out, dt = run_cli(self.x, self.tracer, self.clock,
                                  ["verify", *map(str, self.wl.verify),
                                   "--format", "tsv"])
        self._time("cli_verify_s", "verify", dt)
        self.tally.check(status == 0 and out == inp.verify_out,
                         f"verify: status {status}, or rows differ from "
                         "the closed forms")
        self.fingerprint("analyze.verify", digest(out))
        yield

    def random_round(self, r: int):
        """Random tries through `check_bounds`, RANDOM_STEP per step."""
        rng = random.Random(f"{self.seed}:random-tries")
        for lo in range(0, RANDOM_TRIES, RANDOM_STEP):
            with self.tracer.span("analyze.random_batch"):
                for i in range(lo, min(lo + RANDOM_STEP, RANDOM_TRIES)):
                    mark = self.clock.mark()
                    try:
                        trie = self.x.generate.random_trie(rng, RANDOM_MAX_N,
                                                           RANDOM_MAX_SIGMA)
                        self.random_nodes[i] = trie.n
                        ok = self.x.entropy.check_bounds(trie, RANDOM_K).passed
                    except Exception:
                        report_crash(f"random trie {i}")
                        ok = False
                    self._time("random_checks", i, self.clock.since(mark))
                    self.tally.check(ok, f"random trie {i} failed check_bounds")
            yield

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """Metric values from the median repetition of every unit.

        A unit that never completed (its operation raised every time) has no
        time, and a metric with no units is left out.
        """
        value = self.clock.scaled if scaled else (lambda t: t.seconds)
        total = {metric: math.fsum(statistics.median(map(value, reps))
                                   for reps in units.values())
                 for metric, units in self.times.items()}
        out = {name: total[name] for name in
               ("cli_build_s", "cli_count_s", "cli_stats_s", "cli_verify_s")
               if name in total}
        for m in MODES:
            units = self.times.get(f"count.{m}", {})
            if units:
                done = sum(len(self.chunks[j][1]) for j in units)
                out[f"count_qps.{m}"] = done / total[f"count.{m}"]
        if "random_checks" in total:
            nodes = sum(self.random_nodes.get(i, 0)
                        for i in self.times["random_checks"])
            out["random_check_nodes_per_s"] = nodes / total["random_checks"]
        for m, data in self.files.items():
            out[f"file_bits_per_node.{m}"] = 8 * len(data) / self.inp.build_n
        return out

    def repetitions(self) -> int:
        """Fewest repetitions of any unit: how many samples a median covers."""
        return min((len(v) for units in self.times.values()
                    for v in units.values()), default=0)


def _step(p: Passes, name: str, round_) -> bool:
    """Run one step of a pass's round; False once the round has ended."""
    with p.tracer.span("pass." + name):
        return next(round_, StopIteration) is not StopIteration


def run_passes(p: Passes, seconds: float, fixed: bool = False) -> None:
    """Interleave steps of the passes in proportion to their shares.

    The next step goes to the pass that has used the least of its share of
    the time so far, so each pass's repetitions spread over the whole run
    instead of one stretch of it; interference on the host comes in spells
    of a few seconds.  The run ends once ``seconds`` have passed and every
    pass has finished MIN_ROUNDS rounds.  ``fixed`` runs one round of each.
    """
    names = ("query", "build", "analyze", "random")
    if fixed:
        for name in names:
            round_ = getattr(p, name + "_round")(0)
            while _step(p, name, round_):
                pass
        return
    share = dict(zip(names, p.wl.shares))
    spent = dict.fromkeys(names, 0.0)
    rounds = dict.fromkeys(names, 0)
    current = {name: getattr(p, name + "_round")(0) for name in names}
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or min(rounds.values()) < MIN_ROUNDS):
        name = min(names, key=lambda n: spent[n] / share[n])
        t0 = time.perf_counter()
        if not _step(p, name, current[name]):
            rounds[name] += 1
            current[name] = getattr(p, name + "_round")(rounds[name])
        spent[name] += time.perf_counter() - t0

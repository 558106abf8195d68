"""In-memory spans for the traced run, recorded from the benchmark's side.

A span is one call into a layer: name, start, end, the span that caused it
and the run it belongs to (the id of its root span).  Spans come from two
places: ``Tracer.span`` around the benchmark's own calls, and wrappers that
``Tracer.wrap`` installs on module attributes for the calls one layer makes
into another (``cli`` -> ``index.build_index`` and so on).  Nothing under
``src/`` changes; ``Tracer.restore`` puts every original attribute back.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; they are written out once, at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "run": parent["run"] if parent else len(self.spans),
               "start": 0.0, "end": 0.0, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Route ``module.attr`` through a span named ``name``.

        ``describe(args, result)`` may return attributes for the span, such
        as the back-end mode of the index that was built or loaded.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if describe is not None:
                    rec["attrs"].update(describe(args, result))
                return result

        self._installed.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def install_layer_wrappers(tracer: Tracer, x) -> None:
    """Wrap the cross-layer calls the program makes through module attributes.

    ``x`` is the imported ``xbwtrie`` package.  ``rank`` and ``select`` are
    left alone: they are timed by micro-batches instead, because a span per
    call would cost more than the call.
    """
    mode_of_result = lambda args, res: {"mode": res.mode}  # noqa: E731
    mode_of_arg = lambda args, res: {"mode": args[0].mode}  # noqa: E731
    tracer.wrap(x.cli, "build_from_strings", "trie.build_from_strings")
    tracer.wrap(x.index, "colex_order", "trie.colex_order")
    tracer.wrap(x.index, "build_index", "index.build_index", mode_of_result)
    tracer.wrap(x.index, "serialize", "index.serialize", mode_of_arg)
    tracer.wrap(x.index, "deserialize", "index.deserialize", mode_of_result)
    tracer.wrap(x.index, "crc32c", "index.crc32c")
    tracer.wrap(x.index, "run_count", "index.run_count")
    tracer.wrap(x.index, "invert", "index.invert", mode_of_arg)
    tracer.wrap(x.entropy, "check_bounds", "entropy.check_bounds")
    tracer.wrap(x.entropy, "context_table", "entropy.context_table")
    tracer.wrap(x.entropy, "hk", "entropy.hk")
    tracer.wrap(x.combinatorics, "verify_distribution",
                "combinatorics.verify_distribution",
                lambda args, res: {"matrices": res.matrices,
                                   "tries": res.tries})
    tracer.wrap(x.generate, "random_trie", "generate.random_trie")


class SpanTree:
    """Queries over a finished span list: totals, counts and self time."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self._children: dict[int, list[dict]] = {}
        for rec in spans:
            if rec["parent"] is not None:
                self._children.setdefault(rec["parent"], []).append(rec)

    def children(self, rec: dict) -> list[dict]:
        return self._children.get(rec["id"], [])

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def self_time(self, rec: dict) -> float:
        """Duration minus the part covered by child spans.

        The benchmark is single-threaded, so children never overlap and
        their durations add up.
        """
        return self.duration(rec) - sum(self.duration(k)
                                        for k in self.children(rec))

    def under(self, ancestor: str) -> list[dict]:
        """Spans with a span named ``ancestor`` on their parent chain."""
        by_id = {rec["id"]: rec for rec in self.spans}
        out = []
        for rec in self.spans:
            p = rec["parent"]
            while p is not None:
                up = by_id[p]
                if up["name"] == ancestor:
                    out.append(rec)
                    break
                p = up["parent"]
        return out

    @staticmethod
    def select(spans: list[dict], name: str, **attrs) -> list[dict]:
        return [rec for rec in spans if rec["name"] == name
                and all(rec["attrs"].get(k) == v for k, v in attrs.items())]

    def total(self, spans: list[dict], name: str, **attrs) -> float:
        return sum(self.duration(r) for r in self.select(spans, name, **attrs))

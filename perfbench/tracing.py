"""Layer-boundary spans for the traced benchmark run.

The tracer wraps the public entry points of each bincsp layer, as the
benchmark and `bincsp.bench.run_one` call them, for the duration of a
`with tracer.installed():` block. Nothing under `src/` is edited: the
wrappers replace module attributes and per-engine bound methods, and every
original is restored when the block exits.

One span is recorded per wrapped call: (id, parent id, run id, name,
start ns, end ns). Spans stay in memory and are written out once, at the
end, by `write_spans`. A span's self time is its duration minus the time
covered by its direct children; a layer's self time is the sum over its
spans. The layer is the part of the span name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import bincsp.bench as bench
import bincsp.core as core
import bincsp.encode as encode
import bincsp.gen as gen
import bincsp.interchange as interchange
import bincsp.search as search

# `bench` and `cli` are drivers; their self time is not a layer's.
LAYERS = ("gen", "core", "encode", "propagate", "search", "interchange")

_now = time.perf_counter_ns


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Span recorder plus the per-layer counts taken at the same boundaries."""

    def __init__(self):
        # (id, parent, run, name, start, end), appended as each span closes;
        # tuples of ints and strings are not tracked by the cyclic collector
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self.run_id = "setup"
        self.counts = defaultdict(int)
        self.by_run = defaultdict(lambda: defaultdict(int))

    # -- span recording ----------------------------------------------------

    def _open(self, name):
        opened = (self._next_id, self._stack[-1] if self._stack else -1, name, _now())
        self._stack.append(self._next_id)
        self._next_id += 1
        return opened

    def _close(self, opened):
        sid, parent, name, start = opened
        self.spans.append((sid, parent, self.run_id, name, start, _now()))
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """`fn` inside a span; `after(result, args)` records counts."""
        def traced(*args, **kw):
            span = self._open(name)
            try:
                result = fn(*args, **kw)
            finally:
                self._close(span)
            if after is not None:
                after(result, args)
            return result
        return traced

    def count(self, key, amount=1):
        self.counts[key] += amount
        self.by_run[self.run_id][key] += amount

    # -- per-layer counts --------------------------------------------------

    def _after_materialize(self, tuples, args):
        if args[1].relation is None:   # a predicate was expanded
            self.count("materialize_calls")
            self.count("tuples_materialized", len(tuples))

    def _after_build(self, model, args):
        self.count("duals", len(model.duals))
        self.count("dual_pairs", len(model.dual_pairs))
        self.count("groups", sum(p.side1.group_count for p in model.dual_pairs
                                 if p.side1 is not None))
        self.count("tuple_table_bytes", model.tuple_table_bytes())

    def _trace_engine(self, engine):
        """Wrap one engine's per-run entry points as instance attributes."""
        counters = engine.counters
        root_end = {}

        def root_propagate(fn=engine.root_propagate):
            before = counters.snapshot()
            span = self._open("propagate.root_propagate")
            try:
                ok = fn()
            finally:
                self._close(span)
            after = counters.snapshot()
            root_end.update(after)
            for key in ("checks", "microops", "group_updates"):
                self.count("root_" + key, after[key] - before[key])
            self.count("root_removals",
                       after["value_removals"] + after["tuple_removals"]
                       - before["value_removals"] - before["tuple_removals"])
            if not ok:
                self.count("root_refuted")
            return ok

        def failed(result, args):
            if not result:
                self.count("deadends")

        def undo_to(mark, fn=engine.undo_to):
            self.count("trail_undone", len(engine.trail) - mark)
            span = self._open("search.undo_to")
            try:
                fn(mark)
            finally:
                self._close(span)

        def solve(fn=engine.solve):
            span = self._open("search.solve")
            try:
                result = fn()
            finally:
                self._close(span)
            end, start = counters.snapshot(), root_end
            for key in ("checks", "group_updates"):
                self.count("search_" + key, end[key] - start[key])
            self.count("search_removals",
                       end["value_removals"] + end["tuple_removals"]
                       - start["value_removals"] - start["tuple_removals"])
            self.count("nodes", result.nodes)
            return result

        engine.root_propagate = root_propagate
        engine.assign = self.wrap("search.assign", engine.assign, failed)
        engine.lookahead = self.wrap("search.lookahead", engine.lookahead, failed)
        engine.undo_to = undo_to
        engine.solve = solve
        return engine

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Replace the layer entry points with traced wrappers, then restore."""
        build = self._after_build
        materialize = self.wrap("core.materialize", core.materialize,
                                self._after_materialize)
        make_engine = self.wrap("search.make_engine", bench.make_engine,
                                lambda engine, args: self._trace_engine(engine))
        patches = [
            (core, "materialize", materialize),
            (encode, "materialize", materialize),
            (search, "build_hve", self.wrap("encode.build_hve", search.build_hve, build)),
            (search, "build_de", self.wrap("encode.build_de", search.build_de, build)),
            (search, "build_double",
             self.wrap("encode.build_double", search.build_double, build)),
            (bench, "build_double",
             self.wrap("encode.build_double", bench.build_double, build)),
            (bench, "make_engine", make_engine),
            (bench, "run_one", self.wrap("bench.run_one", bench.run_one)),
            (interchange, "emit_report",
             self.wrap("interchange.emit_report", interchange.emit_report,
                       lambda text, args: self.count("report_bytes", len(text)))),
        ]
        for name in ("gen_model_b", "gen_parity_chain", "gen_rlfa"):
            patches.append((gen, name, self.wrap("gen." + name, getattr(gen, name))))
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, fn in patches:
                setattr(module, attr, fn)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    # -- analysis ----------------------------------------------------------

    def self_ms(self, key=lambda run, name: name) -> dict:
        """Self time in ms, summed per `key(run id, span name)`."""
        child_ns = [0] * self._next_id
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(float)
        for sid, _, run, name, start, end in self.spans:
            out[key(run, name)] += (end - start - child_ns[sid]) / 1e6
        return out

    def layer_self_ms(self) -> dict:
        by_layer = self.self_ms(lambda run, name: layer_of(name))
        return {layer: by_layer[layer] for layer in LAYERS}

    def top_level_ms(self) -> float:
        """Total duration of the spans the benchmark itself opened."""
        return sum(end - start for _, parent, _, _, start, end in self.spans
                   if parent < 0) / 1e6

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, run, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "run": run,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")

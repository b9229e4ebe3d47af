"""Time-to-verdict benchmark for bincsp over three fixed workloads.

    python3 perfbench/run.py --workload de-dense --seed 1 --seconds 30 --trace 0

Each run is one (instance, algorithm) pair and goes through the public
per-run path of `bincsp bench`: `bincsp.bench.run_one`, then
`bincsp.interchange.emit_report` (CSV and JSON). Instances are generated
from `--seed` by `bincsp.gen`; the program only ever sees the generated
problems. Everything runs in this one process, with no worker pool.

With `--trace 0` the run list is executed in a closed loop, one run after
another, for `--seconds` seconds and at least one full pass, and the
end-to-end metrics are reported. With `--trace 1` the run list is executed
once untraced and once with layer spans (see tracing.py), and the per-layer
metrics are reported.

Every run's output is checked: verdicts other than NODE_LIMIT agree across
the algorithms of one instance, every SAT solution satisfies the problem,
each report parses back to its record, and a run repeated in the same
process (or traced) reproduces its counters exactly. A failed check names
the run and makes the command exit 1. A run that ends in `ERROR:*` is not
a failed check; it is counted in `failed` and in error_frac.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are the
same figures for people, plus the figures the JSON line leaves out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919     # confirms a claim; never used while tuning a change
RLFA_NODE_LIMIT = 100    # satisfiable rlfa instances need about 50 nodes
SETUP_SHARE = 0.05       # regenerate the instances between runs while the
SETUP_MIN_SWEEPS = 5     # time spent on it is under this share of run time,
                         # and at least this often, for setup_s


@dataclass(frozen=True)
class Cell:
    """Instances of one family, each run with every algorithm."""
    instances: tuple            # zero-argument callables returning a Problem
    algorithms: tuple
    ordering: str               # "heuristic" (dom/deg) or "fixed"
    node_limit: int


def _workloads(gen):
    """Workload name -> function of the seed returning its cells. Generator
    functions are looked up on the module at call time, so the traced run
    sees its wrappers."""

    def model_b(params, seed):
        return lambda: gen.gen_model_b(gen.ModelBParams(*params, seed))

    def de_dense(seed):
        # <14,5,3,25,50>: 91 constraints, ~2.3k dual-dual pairs; every run is
        # refuted at the root, so encode and root propagation do all the work
        return [Cell(tuple(model_b((14, 5, 3, 25, 50), seed * 1000 + i)
                           for i in range(10)),
                     ("MAC-PW-AC", "MAC-PW-ACd", "MAC-2001", "MAC-2001d"),
                     "heuristic", 2000)]

    def fc_deep(seed):
        # per-node lookahead and trail undo dominate; HVE/flat and DE/double
        # lanes share the search layer with different trail tags
        return [Cell(tuple(model_b((20, 4, 3, 5, 55), seed * 1000 + i)
                           for i in range(16)),
                     ("dFC3", "dFC5", "MAC-PW-ACd", "MAC-PW-AC", "hFC3",
                      "MHAC-2001", "MGAC-2001", "nFC3"),
                     "heuristic", 2000),
                Cell((lambda: gen.gen_parity_chain(4),),
                     ("MHAC-2001", "MAC-PW-ACd"), "fixed", 2000)]

    def rlfa_intensional(seed):
        # intensional separation predicates: expansion is most of an encoded
        # run, and MGAC-2001 enumerates predicates instead of scanning tables.
        # Each instance has its own generator seed (instances sharing one
        # share their draws) and runs two lanes, one of which builds the
        # double encoding: peak memory is set by the largest such build, so
        # the more instances build one, the steadier it is across seeds.
        variants = [(t, d) for _ in range(4) for t in ("prob1", "prob2") for d in (20, 25)]

        def rlfa(k):
            return tuple((lambda t=t, d=d, s=seed * 1000 + 2 * i + k: gen.gen_rlfa(t, d, s))
                         for i, (t, d) in enumerate(variants))

        return [Cell(rlfa(0), ("MHAC-2001", "MAC-hybrid"), "heuristic", RLFA_NODE_LIMIT),
                Cell(rlfa(1), ("MAC-PW-ACd", "MGAC-2001"), "heuristic", RLFA_NODE_LIMIT)]

    return {"de-dense": de_dense, "fc-deep": fc_deep,
            "rlfa-intensional": rlfa_intensional}


WORKLOAD_NAMES = ("de-dense", "fc-deep", "rlfa-intensional")


@dataclass
class Run:
    problem: object
    algorithm: str
    cell: Cell

    @property
    def run_id(self) -> str:
        return f"{self.problem.name}/{self.algorithm}"


def generate(cells: list) -> list:
    """(cell, problem) for every instance, in workload order."""
    return [(cell, make()) for cell in cells for make in cell.instances]


def sweep(cells: list) -> float:
    """Seconds to generate every instance again, one at a time; each new
    problem is dropped at once, so a sweep adds one instance to memory."""
    t0 = time.perf_counter()
    for cell in cells:
        for make in cell.instances:
            make()
    return time.perf_counter() - t0


def run_list(instances: list) -> list:
    return [Run(problem, algorithm, cell)
            for cell, problem in instances for algorithm in cell.algorithms]


@dataclass
class Outcome:
    record: object              # interchange.RunRecord
    solution: object
    group_updates: int
    reports: tuple              # (csv text, json text)

    @property
    def counters(self) -> tuple:
        r = self.record
        return (r.verdict, r.nodes, r.checks, r.microops, r.removals,
                self.group_updates)


class Harness:
    """Executes runs through the public per-run path of `bincsp bench`."""

    def __init__(self, seed: int, bench, interchange):
        self.seed = seed
        self.bench = bench
        self.interchange = interchange

    def execute(self, run: Run):
        """Time to verdict in seconds, and the run's outcome."""
        # engines hold reference cycles; collect the previous run's before
        # timing this one, so neither its collection nor its memory lands here
        gc.collect()
        t0 = time.perf_counter()
        record, result = self.bench.run_one(
            run.problem, run.algorithm, run.cell.ordering, self.seed,
            node_limit=run.cell.node_limit, instance_id=run.run_id)
        elapsed = time.perf_counter() - t0
        reports = (self.interchange.emit_report([record], "csv"),
                   self.interchange.emit_report([record], "json"))
        if result is None:
            return elapsed, Outcome(record, None, 0, reports)
        return elapsed, Outcome(record, result.solution,
                                result.counters.group_updates, reports)

    def closed_loop(self, runs: list, seconds: float, cells: list, setup_s: float):
        """Runs back to back, cycling the list, until `seconds` have passed
        and every run has completed at least once. Between runs the
        instances are generated again (see `sweep`) while the time spent on
        that is under SETUP_SHARE of the time spent running, so set-up is
        sampled across the whole loop, not only before it. Returns (loop
        seconds without the sweeps, per-run time samples, per-run outcomes
        of every repeat, set-up time samples starting with `setup_s`)."""
        samples = [[] for _ in runs]
        outcomes = [[] for _ in runs]
        setups = [setup_s]
        run_s = sweep_s = 0.0
        done = 0
        t0 = time.perf_counter()
        while done < len(runs) or time.perf_counter() - t0 - sweep_s < seconds:
            k = done % len(runs)
            elapsed, outcome = self.execute(runs[k])
            samples[k].append(elapsed)
            outcomes[k].append(outcome)
            run_s += elapsed
            done += 1
            if setup_s + sweep_s < SETUP_SHARE * run_s:
                gc.collect()
                setups.append(sweep(cells))
                sweep_s += setups[-1]
        wall = time.perf_counter() - t0 - sweep_s
        while len(setups) < SETUP_MIN_SWEEPS:
            setups.append(sweep(cells))
        return wall, samples, outcomes, setups


def check_outputs(runs: list, outcomes: list, core, interchange) -> list:
    """Failed output checks, one line each, naming the run."""
    failures = []
    verdicts = {}
    for run, out in zip(runs, outcomes):
        rec = out.record
        if rec.verdict == "SAT":
            sol = out.solution
            if sol is None or len(sol) != run.problem.n or \
                    not core.solution_check(run.problem, sol):
                failures.append(f"{run.run_id}: SAT solution fails solution_check")
        if rec.verdict in ("SAT", "UNSAT"):
            verdicts.setdefault(run.problem.name, {})[run.algorithm] = rec.verdict
        for text in out.reports:
            if interchange.parse_report(text) != [rec]:
                failures.append(f"{run.run_id}: report does not parse back to its record")
    for name, seen in verdicts.items():
        if len(set(seen.values())) > 1:
            failures.append(f"{name}: verdicts disagree: {sorted(seen.items())}")
    return failures


def compare_counters(runs: list, first: list, other: list, label: str) -> list:
    return [f"{run.run_id}: counters {b.counters} differ from {a.counters} ({label})"
            for run, a, b in zip(runs, first, other) if a.counters != b.counters]


def counters_digest(outcomes: list) -> str:
    text = json.dumps([o.counters for o in outcomes])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def is_error(outcome: Outcome) -> bool:
    return outcome.record.verdict.startswith("ERROR")


def harrell_davis(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density, taken at
    each order statistic's midpoint. The run lists of de-dense and fc-deep
    split evenly between fast and slow lanes, so a median read off one or
    two order statistics sits in the gap between them and swings with
    whichever single run lands there."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    weights = [math.exp((a - 1) * math.log((i + 0.5) / n)
                        + (b - 1) * math.log(1 - (i + 0.5) / n)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(harness, runs, cells, seconds, setup_s, core, interchange):
    """(metrics, attempted, failed, failures, notes) of the closed loop."""
    wall, samples, repeats, setups = harness.closed_loop(runs, seconds, cells, setup_s)
    firsts = [outs[0] for outs in repeats]
    failures = check_outputs(runs, firsts, core, interchange)
    for run, outs in zip(runs, repeats):
        failures += compare_counters([run] * len(outs), outs[:1] * len(outs), outs,
                                     "repeat in one process")
    attempted = sum(len(s) for s in samples)
    failed = sum(is_error(o) for outs in repeats for o in outs)
    run_ms = [1000.0 * statistics.median(s) for s in samples]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "runs_per_s": metric(attempted / wall, "1/s"),
        "run_ms_p50": metric(harrell_davis(run_ms, 0.50), "ms"),
        "run_ms_p75": metric(harrell_davis(run_ms, 0.75), "ms"),
        "ok_frac": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0, "MB"),
    }
    notes = {"error_frac": f"{failed / attempted:.4f} ratio",
             "runs": len(runs), "samples": attempted,
             "wall_s": f"{wall:.3f}",
             "setup_samples": len(setups), "first_setup_s": f"{setup_s:.6f}",
             "counters_digest": counters_digest(firsts)}
    return metrics, attempted, failed, failures, notes


def per_layer(harness, runs, cells, spans_path, core, interchange):
    """(metrics, attempted, failed, failures, notes) of the traced run."""
    from tracing import LAYERS, Tracer, layer_of

    tracer = Tracer()
    with tracer.installed():
        traced_runs = run_list(generate(cells))
    # each run untraced and traced back to back, alternating which goes
    # first, so both sides see the same machine state
    plain, traced = [], []
    run_s = {False: 0.0, True: 0.0}
    for k, (run, traced_run) in enumerate(zip(runs, traced_runs)):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.run_id = traced_run.run_id
                with tracer.installed():
                    elapsed, outcome = harness.execute(traced_run)
                traced.append(outcome)
            else:
                elapsed, outcome = harness.execute(run)
                plain.append(outcome)
            run_s[with_trace] += elapsed
    tracer.write_spans(spans_path)

    failures = check_outputs(runs, plain, core, interchange)
    failures += check_outputs(traced_runs, traced, core, interchange)
    failures += compare_counters(runs, plain, traced, "untraced vs traced")

    c = tracer.counts
    ms = tracer.self_ms()
    layers = tracer.layer_self_ms()
    n_runs = len(runs)
    nodes = c["nodes"]
    # per-node times are shares of the descent, so that no time metric reads
    # 0 on every run of a workload that never searches (de-dense)
    descent_ms = sum(ms[k] for k in ("search.solve", "search.assign",
                                     "search.lookahead", "search.undo_to"))
    constraints = sum(len(run.problem.constraints) for run in runs)
    values = {
        "core.materialize_ms": (ms["core.materialize"], "ms"),
        "core.materialize_calls": (c["materialize_calls"], "count"),
        "core.tuples_materialized": (c["tuples_materialized"], "count"),
        "core.materialize_calls_per_constraint":
            (c["materialize_calls"] / constraints, "ratio"),
        "encode.build_ms": (layers["encode"], "ms"),
        "encode.duals": (c["duals"], "count"),
        "encode.dual_pairs": (c["dual_pairs"], "count"),
        "encode.groups": (c["groups"], "count"),
        "encode.tuple_table_bytes": (c["tuple_table_bytes"], "bytes"),
        "search.engine_init_ms": (ms["search.make_engine"], "ms"),
        "propagate.root_ms": (ms["propagate.root_propagate"], "ms"),
        "propagate.root_checks": (c["root_checks"], "count"),
        "propagate.root_microops": (c["root_microops"], "count"),
        "propagate.root_group_updates": (c["root_group_updates"], "count"),
        "propagate.root_removals": (c["root_removals"], "count"),
        "propagate.root_refuted_frac": (c["root_refuted"] / n_runs, "ratio"),
        "search.search_ms": (ms["search.solve"], "ms"),
        "search.descent_ms": (descent_ms, "ms"),
        "search.assign_frac": (ms["search.assign"] / descent_ms, "ratio"),
        "search.lookahead_frac": (ms["search.lookahead"] / descent_ms, "ratio"),
        "search.undo_frac": (ms["search.undo_to"] / descent_ms, "ratio"),
        "search.nodes": (nodes, "count"),
        "search.nodes_per_s": (1000.0 * nodes / descent_ms, "1/s"),
        "search.checks": (c["search_checks"], "count"),
        "search.group_updates": (c["search_group_updates"], "count"),
        "search.removals": (c["search_removals"], "count"),
        "search.trail_undone": (c["trail_undone"], "count"),
        "search.deadend_frac": (c["deadends"] / nodes if nodes else 0.0, "ratio"),
        "interchange.report_ms": (ms["interchange.emit_report"], "ms"),
        "interchange.report_bytes": (c["report_bytes"], "bytes"),
        "gen.generate_ms": (layers["gen"], "ms"),
        "trace.overhead_frac": (run_s[True] / run_s[False] - 1.0, "ratio"),
        "trace.layer_self_frac": (sum(layers.values()) / tracer.top_level_ms(),
                                  "ratio"),
    }
    metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}

    lane_of = {run.run_id: run.algorithm for run in traced_runs}
    lane_ms = tracer.self_ms(lambda r, n: (lane_of.get(r), layer_of(n)))
    lane_runs, lane_constraints, lane_expansions = Counter(), Counter(), Counter()
    for run in traced_runs:
        lane_runs[run.algorithm] += 1
        lane_constraints[run.algorithm] += len(run.problem.constraints)
        lane_expansions[run.algorithm] += tracer.by_run[run.run_id]["materialize_calls"]
    names = {span[0]: span[3] for span in tracer.spans}
    by_caller = {}
    for _, parent, _, name, start, end in tracer.spans:
        if name == "core.materialize" and parent >= 0:
            caller = names[parent]
            by_caller[caller] = round(by_caller.get(caller, 0.0) + (end - start) / 1e6, 3)
    notes = {"runs": n_runs, "spans": len(tracer.spans), "spans_file": spans_path,
             "core.materialize_ms by caller": by_caller,
             "layer_self_ms": {k: round(v, 3) for k, v in layers.items()},
             "traced_wall_ms": round(tracer.top_level_ms(), 3),
             "counters_digest": counters_digest(plain)}
    for lane, n in sorted(lane_runs.items()):
        per_run = {layer: round(lane_ms[(lane, layer)] / n, 2)
                   for layer in LAYERS if layer != "gen"}
        notes[f"lane {lane}"] = (f"runs={n} ms/run={per_run} expansions/constraint="
                                 f"{lane_expansions[lane] / lane_constraints[lane]:.3f}")
    attempted = 2 * n_runs
    failed = sum(is_error(o) for o in plain + traced)
    return metrics, attempted, failed, failures, notes


def import_program():
    """Import bincsp from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import bincsp
    except ImportError as e:
        raise SystemExit(f"cannot import bincsp from {SRC}: {e}")
    if os.path.dirname(os.path.abspath(bincsp.__file__)) != os.path.join(SRC, "bincsp"):
        raise SystemExit(f"bincsp imported from {bincsp.__file__}, not from {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="first instance of each family only (smoke tests)")
    parser.add_argument("--out-dir", default=os.path.join(ROOT, "perfbench", "out"),
                        help="where the traced run writes its spans")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import bincsp.bench as bench
    import bincsp.core as core
    import bincsp.gen as gen
    import bincsp.interchange as interchange

    cells = _workloads(gen)[args.workload](args.seed)
    if args.quick:
        cells = [Cell(cell.instances[:1], cell.algorithms, cell.ordering,
                      cell.node_limit) for cell in cells]
    t0 = time.perf_counter()
    instances = generate(cells)
    setup_s = time.perf_counter() - t0
    runs = run_list(instances)
    harness = Harness(args.seed, bench, interchange)

    if args.trace:
        os.makedirs(args.out_dir, exist_ok=True)
        spans_path = os.path.join(args.out_dir,
                                  f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = per_layer(harness, runs, cells, spans_path, core, interchange)
    else:
        result = end_to_end(harness, runs, cells, args.seconds, setup_s,
                            core, interchange)
    metrics, attempted, failed, failures, notes = result

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    for line in failures:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

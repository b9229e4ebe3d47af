"""Benchmark harness: run (algorithm x instance) matrices and write reports.

A matrix config is JSON: either a list of cells or {"cells": [...],
"paired": bool}. Each cell names its instances (a file or a generator
spec), the algorithms to run, the ordering, seeds and limits:

    {"generator": {"family": "modelb", "n": 10, "d": 4, "k": 3,
                   "p": 20, "q": 40},
     "algorithms": ["MGAC-2001", "MHAC-2001"],
     "ordering": "fixed",
     "seeds": [0, 1, 2],
     "node_limit": 100000}

Every cell failure is recorded in its row, never aborting the matrix: the
verdict is `ERROR:<Type>` and the `error` column holds `Type: message`.
Reports are byte-deterministic for fixed seeds when time_mode="zero"
(wall-clock times are the one necessarily unstable column).
"""

from __future__ import annotations

import json
import os
from multiprocessing import Pool
from typing import Optional

from .core import Problem
# nothing here calls build_double; perfbench/tracing.py wraps it by this name
from .encode import EncodedProblem, build_double  # noqa: F401
from .gen import (CrosswordSpec, ModelBParams, gen_clique_embedded,
                  gen_config_like, gen_crossword, gen_model_b,
                  gen_parity_chain, gen_rlfa)
from .interchange import RunRecord, emit_report, load_instance
from .search import ALGORITHMS, make_engine, prepare_model
from .words import WORDS

HIERARCHY_SUBSET_EDGES = [
    ("hFC5", "hFC3"), ("hFC3", "hFC2"), ("hFC5", "hFC4"), ("hFC4", "hFC2"),
    ("MHAC-2001", "hFC5"),
    ("dFC5", "dFC3"), ("dFC3", "dFC2"), ("dFC5", "dFC4"), ("dFC4", "dFC2"),
    ("MAC-PW-ACd", "dFC5"),
    ("dFC2", "hFC2"), ("dFC3", "hFC3"), ("dFC4", "hFC4"), ("dFC5", "hFC5"),
]
HIERARCHY_EQUAL_EDGES = [
    ("nFC2", "hFC2"), ("nFC3", "hFC3"), ("nFC4", "hFC4"), ("nFC5", "hFC5"),
    ("MGAC-2001", "MHAC-2001"), ("dFC0", "hFC0"), ("dFC1", "hFC1"),
]


def instance_from_generator(spec: dict, seed: int) -> Problem:
    family = spec.get("family")
    if family == "modelb":
        return gen_model_b(ModelBParams(spec["n"], spec["d"], spec["k"],
                                        spec["p"], spec["q"], seed))
    if family == "clique":
        base = ModelBParams(spec["n"], spec["d"], spec["k"], spec["p"],
                            spec["q"], seed)
        return gen_clique_embedded(base, spec["clique_size"], seed)
    if family == "crossword":
        if "grid" in spec:
            dictionary = tuple(spec["dictionary"]) if spec.get("dictionary") else WORDS
            cw = CrosswordSpec(tuple(spec["grid"]), dictionary)
        else:
            cw = CrosswordSpec.blank(spec["rows"], spec["cols"])
        return gen_crossword(cw)
    if family == "parity":
        return gen_parity_chain(spec["n"])
    if family == "rlfa":
        return gen_rlfa(spec.get("topology", "prob1"),
                        spec.get("domain_size", 20), seed,
                        spec.get("adjacent8", False),
                        spec.get("co_channel", False))
    if family == "config":
        return gen_config_like(None, spec.get("extra_vars", 6),
                               spec.get("min_constraints", 8),
                               spec.get("max_constraints", 10), seed)
    raise ValueError(f"unknown generator family {family!r}")


def tuple_table_bytes(model) -> int:
    """Analytic tuple-table memory: sum of arity * tuples * 4 bytes per
    value over every materialized relation."""
    if isinstance(model, EncodedProblem):
        return model.tuple_table_bytes()
    total = 0
    for c in model.constraints:
        if c.relation is not None:
            total += c.arity * len(c.relation) * 4
    return total


def _failed_record(instance: str, algorithm: str, ordering: str, seed: int,
                   e: Exception) -> RunRecord:
    """The row of a failed run: verdict `ERROR:<Type>`, "Type: message" in
    the `error` column, and encoding "?" for an unknown algorithm."""
    spec = ALGORITHMS.get(algorithm)
    return RunRecord(
        instance=instance, algorithm=algorithm,
        encoding=spec.representation if spec else "?", ordering=ordering,
        seed=seed, verdict=f"ERROR:{type(e).__name__}", nodes=0, checks=0,
        microops=0, removals=0, time_ms=0, mem_bytes=0,
        error=f"{type(e).__name__}: {e}")


def run_one(problem: Problem, algorithm: str, ordering: str, seed: int,
            node_limit: Optional[int] = None,
            time_limit_ms: Optional[float] = None,
            encode_subset: Optional[list] = None,
            record_nodes: bool = False,
            instance_id: str = "", time_mode: str = "wall"):
    """One matrix cell run on the model `prepare_model` builds (for
    MAC-hybrid, double-encoding `encode_subset`, or else the default
    subset). Returns (RunRecord, SearchResult or None), the result being None when
    the run failed, as it does for an unknown algorithm or ordering."""
    try:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        spec = ALGORITHMS[algorithm]
        model = prepare_model(problem, spec, encode_subset)
        engine = make_engine(model, spec, ordering=ordering, node_limit=node_limit,
                             time_limit_ms=time_limit_ms, record_nodes=record_nodes)
        result = engine.solve()
        counters = result.counters
        record = RunRecord(
            instance=instance_id or (problem.name or "instance"),
            algorithm=algorithm,
            encoding=spec.representation,
            ordering=ordering,
            seed=seed,
            verdict=result.verdict,
            nodes=result.nodes,
            checks=counters.checks,
            microops=counters.microops,
            removals=counters.value_removals + counters.tuple_removals,
            time_ms=0 if time_mode == "zero" else int(round(result.elapsed_ms)),
            mem_bytes=tuple_table_bytes(model),
        )
        return record, result
    except Exception as e:  # a failing cell must not abort the matrix
        return _failed_record(instance_id or (problem.name or "instance"),
                              algorithm, ordering, seed, e), None


def _expand_cells(config):
    if isinstance(config, dict):
        cells = config.get("cells", [])
        paired = bool(config.get("paired", False))
    else:
        cells, paired = list(config), False
    jobs = []
    for cell_idx, cell in enumerate(cells):
        seeds = cell.get("seeds")
        if seeds is None:
            seeds = list(range(cell.get("repeats", 1)))
        for seed in seeds:
            for algorithm in cell.get("algorithms", []):
                jobs.append((cell_idx, cell, seed, algorithm))
    return cells, jobs, paired


def _run_job(args):
    cell_idx, cell, seed, algorithm, paired, time_mode = args
    try:
        if "instance" in cell:
            problem = load_instance(cell["instance"])
            instance_id = os.path.basename(cell["instance"])
        else:
            problem = instance_from_generator(cell["generator"], seed)
            instance_id = problem.name or f"cell{cell_idx}"
    except Exception as e:  # bad cell: record the failure, keep the matrix
        record = _failed_record(f"cell{cell_idx}", algorithm,
                                cell.get("ordering", "heuristic"), seed, e)
        return cell_idx, seed, algorithm, record, None
    record, result = run_one(
        problem, algorithm,
        cell.get("ordering", "heuristic"), seed,
        node_limit=cell.get("node_limit"),
        time_limit_ms=cell.get("time_limit_ms"),
        encode_subset=cell.get("encode_subset"),
        record_nodes=paired,
        instance_id=instance_id, time_mode=time_mode)
    paths = result.node_paths if result is not None else None
    return cell_idx, seed, algorithm, record, paths


def run_bench(config, out_dir: str, jobs: int = 1,
              time_mode: str = "wall") -> list:
    """Execute a matrix; writes report.csv, summary.json and (in paired
    mode) paired.json into out_dir. Returns the RunRecord list."""
    cells, job_list, paired = _expand_cells(config)
    os.makedirs(out_dir, exist_ok=True)
    args = [(ci, cell, seed, algo, paired, time_mode)
            for (ci, cell, seed, algo) in job_list]
    if jobs > 1:
        with Pool(jobs) as pool:
            results = pool.map(_run_job, args)
    else:
        results = [_run_job(a) for a in args]

    records = [r[3] for r in results]
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(emit_report(records, "csv"))

    summary = _summarize(results)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(emit_report(records, "json", summary=summary))

    if paired:
        verdicts = _paired_verdicts(results)
        with open(os.path.join(out_dir, "paired.json"), "w", encoding="utf-8") as fh:
            json.dump(verdicts, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return records


def _summarize(results) -> dict:
    groups: dict = {}
    for cell_idx, seed, algorithm, record, _ in results:
        groups.setdefault((cell_idx, algorithm), []).append(record)
    out = []
    for (cell_idx, algorithm), recs in sorted(groups.items()):
        ok = [r for r in recs if not r.verdict.startswith("ERROR")]
        out.append({
            "cell": cell_idx,
            "algorithm": algorithm,
            "runs": len(recs),
            "errors": len(recs) - len(ok),
            "mean_nodes": (sum(r.nodes for r in ok) / len(ok)) if ok else None,
            "mean_time_ms": (sum(r.time_ms for r in ok) / len(ok)) if ok else None,
            "verdicts": sorted({r.verdict for r in recs}),
        })
    return {"cells": out}


def _paired_verdicts(results) -> dict:
    """Node-set inclusion/equality verdicts for the hierarchy edges, per
    (cell, seed), over the algorithms that ran with recorded nodes."""
    by_run: dict = {}
    for cell_idx, seed, algorithm, record, paths in results:
        if paths is not None:
            by_run.setdefault((cell_idx, seed), {})[algorithm] = set(paths)
    out: dict = {}
    for (cell_idx, seed), node_sets in sorted(by_run.items()):
        entry = {"subset": [], "equal": []}
        for small, big in HIERARCHY_SUBSET_EDGES:
            if small in node_sets and big in node_sets:
                entry["subset"].append(
                    [small, big, node_sets[small] <= node_sets[big]])
        for a, b in HIERARCHY_EQUAL_EDGES:
            if a in node_sets and b in node_sets:
                entry["equal"].append([a, b, node_sets[a] == node_sets[b]])
        out[f"cell{cell_idx}/seed{seed}"] = entry
    return out

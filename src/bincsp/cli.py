"""Command-line front end: generate instances, solve them, run benchmark
matrices and validate documents.

    bincsp solve --instance f.json --algorithm MAC-PW-AC --ordering fixed
    bincsp gen --family modelb --params '{"n":10,"d":4,"k":3,"p":20,"q":40}' \
               --seed 7 --out f.json
    bincsp bench --matrix matrix.json --out-dir runs/ --jobs 2
    bincsp check --instance f.json

Exit status is 0 when the command completed, whatever the verdicts (`bench`
records a failed cell in its row and still exits 0); 1 when `solve`'s run
failed, its row reading `ERROR:<Type>`, or `check` found propagation
deleting a soluble instance; and 2 on configuration errors, among them
`--hybrid-subset` with an algorithm other than MAC-hybrid and `check
--limit` below 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import instance_from_generator, run_bench, run_one
from .core import DEFAULT_ENUMERATION_BOUND, CapacityError, enumerate_solutions
from .gen import is_connected
from .interchange import (InstanceFormatError, emit_report, load_instance,
                          save_instance)
from .search import ALGORITHMS, DOM_DEG, FIXED, gac2001


def _cmd_solve(args) -> int:
    if args.hybrid_subset is not None and args.algorithm != "MAC-hybrid":
        raise ValueError(f"--hybrid-subset applies to MAC-hybrid only, "
                         f"not {args.algorithm}")
    problem = load_instance(args.instance)
    subset = None
    if args.hybrid_subset:
        subset = [int(s) for s in args.hybrid_subset.split(",") if s != ""]
    record, result = run_one(problem, args.algorithm, args.ordering, args.seed,
                             node_limit=args.node_limit,
                             time_limit_ms=args.time_limit,
                             encode_subset=subset,
                             instance_id=args.instance)
    print(emit_report([record], "csv"), end="")
    if args.show_solution and result is not None and result.solution is not None:
        pairs = [f"{problem.variables[x]}={problem.domains[x][a]}"
                 for x, a in enumerate(result.solution)]
        print("solution:", " ".join(pairs))
    return 1 if record.verdict.startswith("ERROR") else 0


def _cmd_gen(args) -> int:
    params = json.loads(args.params) if args.params else {}
    params.setdefault("family", args.family)
    problem = instance_from_generator(params, args.seed)
    save_instance(problem, args.out)
    print(f"wrote {args.out}: {problem.n} variables, "
          f"{len(problem.constraints)} constraints")
    return 0


def _cmd_bench(args) -> int:
    with open(args.matrix, encoding="utf-8") as fh:
        config = json.load(fh)
    records = run_bench(config, args.out_dir, jobs=args.jobs,
                        time_mode=args.time_mode)
    errors = sum(1 for r in records if r.verdict.startswith("ERROR"))
    print(f"{len(records)} runs written to {args.out_dir} ({errors} errors)")
    return 0


def _cmd_check(args) -> int:
    problem = load_instance(args.instance)
    print(f"parsed: {problem.n} variables, {len(problem.constraints)} constraints, "
          f"connected={is_connected(problem)}")
    result = gac2001(problem)
    print(f"gac2001: {result.verdict}")
    try:
        solutions = enumerate_solutions(problem, limit=args.limit, bound=args.bound)
        count = len(solutions)
        suffix = "+" if args.limit is not None and count >= args.limit else ""
        print(f"oracle: {count}{suffix} solutions")
        if count == 0 and result.consistent:
            print("note: GAC-consistent but insoluble (consistency is incomplete)")
        if count > 0 and not result.consistent:
            print("ERROR: propagation deleted a soluble instance")
            return 1
    except CapacityError:
        print(f"oracle: skipped (domain product exceeds bound {args.bound})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bincsp",
        description="binary encodings of non-binary CSPs: encode, propagate, "
                    "search, generate and benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    p.add_argument("--ordering", choices=[DOM_DEG, FIXED], default=DOM_DEG)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=None, metavar="MS",
                   dest="time_limit")
    p.add_argument("--node-limit", type=int, default=None, dest="node_limit")
    p.add_argument("--hybrid-subset", default=None,
                   help="comma-separated constraint ids to double-encode "
                        "(MAC-hybrid only)")
    p.add_argument("--show-solution", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate an instance to a JSON document")
    p.add_argument("--family", required=True,
                   choices=["modelb", "clique", "crossword", "parity", "rlfa",
                            "config"])
    p.add_argument("--params", default="", help="JSON object of family parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run an (algorithm x instance) matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--time-mode", choices=["wall", "zero"], default="wall",
                   help="'zero' blanks the time column for byte-stable reports")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check", help="validate an instance and compare the "
                                     "brute-force oracle with propagation")
    p.add_argument("--instance", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_ENUMERATION_BOUND)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

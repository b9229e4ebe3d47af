import json
from collections import Counter

import bincsp.core as core
import bincsp.encode as encode
from bincsp.bench import run_bench, run_one, tuple_table_bytes
from bincsp.cli import main
from bincsp.encode import build_de
from bincsp.gen import gen_rlfa
from bincsp.interchange import CSV_HEADER, parse_report

from cases import six_var_linear


def _matrix_parity():
    return {
        "cells": [{
            "generator": {"family": "parity", "n": 2},
            "algorithms": ["MHAC-2001", "MAC-PW-ACd"],
            "ordering": "fixed",
            "seeds": [0, 1, 2],
        }],
    }


def test_small_matrix_runs_all_cells(tmp_path):
    records = run_bench(_matrix_parity(), str(tmp_path), time_mode="zero")
    assert len(records) == 6
    assert all(r.verdict == "UNSAT" for r in records)
    text = (tmp_path / "report.csv").read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert parse_report(text) == records
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["summary"]["cells"]) == 2


def test_empty_matrix_writes_header_only(tmp_path):
    records = run_bench({"cells": []}, str(tmp_path))
    assert records == []
    assert (tmp_path / "report.csv").read_text() == ",".join(CSV_HEADER) + "\n"


def test_reports_byte_identical_across_runs(tmp_path):
    config = _matrix_parity()
    run_bench(config, str(tmp_path / "a"), time_mode="zero")
    run_bench(config, str(tmp_path / "b"), time_mode="zero")
    assert (tmp_path / "a/report.csv").read_bytes() == \
        (tmp_path / "b/report.csv").read_bytes()
    assert (tmp_path / "a/summary.json").read_bytes() == \
        (tmp_path / "b/summary.json").read_bytes()


def test_paired_mode_emits_hierarchy_verdicts(tmp_path):
    config = {
        "paired": True,
        "cells": [{
            "generator": {"family": "modelb", "n": 7, "d": 3, "k": 3,
                          "p": 18, "q": 45},
            "algorithms": ["hFC2", "hFC3", "hFC5", "MHAC-2001",
                           "nFC3", "dFC3"],
            "ordering": "fixed",
            "seeds": [0, 1],
        }],
    }
    run_bench(config, str(tmp_path), time_mode="zero")
    paired = json.loads((tmp_path / "paired.json").read_text())
    assert set(paired) == {"cell0/seed0", "cell0/seed1"}
    for entry in paired.values():
        assert entry["subset"], "hierarchy edges should be evaluated"
        assert all(ok for (_, _, ok) in entry["subset"])
        assert all(ok for (_, _, ok) in entry["equal"])


def test_failing_cell_recorded_not_raised(tmp_path):
    config = {"cells": [{
        "generator": {"family": "modelb", "n": 3, "d": 2, "k": 3,
                      "p": 0.0001, "q": 50},
        "algorithms": ["MGAC-2001"], "seeds": [0]}]}
    records = run_bench(config, str(tmp_path))
    assert len(records) == 1
    assert records[0].verdict.startswith("ERROR")


def test_parallel_rows_match_serial(tmp_path):
    config = _matrix_parity()
    serial = run_bench(config, str(tmp_path / "s"), jobs=1, time_mode="zero")
    parallel = run_bench(config, str(tmp_path / "p"), jobs=2, time_mode="zero")
    assert serial == parallel


def test_run_one_counts_tuple_table_bytes():
    p = six_var_linear()
    record, result = run_one(p, "MAC-PW-AC", "fixed", 0)
    assert record.verdict == "SAT"
    enc = build_de(p)
    assert record.mem_bytes == tuple_table_bytes(enc) > 0


def test_hybrid_default_subset_keeps_wide_constraints_residual():
    from bincsp.gen import gen_rlfa
    p = gen_rlfa("prob2", seed=3, adjacent8=True)
    record, result = run_one(p, "MAC-hybrid", "heuristic", 0,
                             node_limit=30)
    assert not record.verdict.startswith("ERROR")


# ---------------------------------------------------------------------------
# command line


def test_cli_gen_check_solve_roundtrip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--family", "modelb",
                 "--params", '{"n": 8, "d": 3, "k": 3, "p": 15, "q": 60}',
                 "--seed", "4", "--out", str(inst)]) == 0
    assert main(["check", "--instance", str(inst)]) == 0
    assert main(["solve", "--instance", str(inst), "--algorithm", "MHAC-2001",
                 "--ordering", "fixed", "--show-solution"]) == 0
    out = capsys.readouterr().out
    assert ",".join(CSV_HEADER) in out


def test_cli_bench(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(_matrix_parity()))
    out_dir = tmp_path / "runs"
    assert main(["bench", "--matrix", str(matrix), "--out-dir", str(out_dir),
                 "--time-mode", "zero"]) == 0
    assert (out_dir / "report.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["solve", "--instance", str(missing),
                 "--algorithm", "MGAC-2001"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--instance", str(bad)]) == 2


def test_cli_parity_gen_and_unsat(tmp_path, capsys):
    inst = tmp_path / "parity.json"
    assert main(["gen", "--family", "parity", "--params", '{"n": 2}',
                 "--out", str(inst)]) == 0
    assert main(["solve", "--instance", str(inst),
                 "--algorithm", "MAC-PW-ACd", "--ordering", "fixed"]) == 0
    out = capsys.readouterr().out
    assert "UNSAT" in out


def test_parity_matrix_rows_exactly_as_specified(tmp_path):
    config = {"cells": [
        {"generator": {"family": "parity", "n": n},
         "algorithms": ["MHAC-2001", "MAC-PW-ACd"],
         "ordering": "fixed", "seeds": [0], "node_limit": 5000}
        for n in (2, 3, 4)]}
    records = run_bench(config, str(tmp_path), time_mode="zero")
    assert len(records) == 6
    assert all(r.verdict in ("UNSAT", "NODE_LIMIT") for r in records)
    assert all(r.verdict == "UNSAT" for r in records
               if r.algorithm == "MAC-PW-ACd")


def test_generator_families_reachable_from_bench(tmp_path):
    from bincsp.bench import instance_from_generator
    specs = [
        {"family": "modelb", "n": 8, "d": 3, "k": 3, "p": 15, "q": 50},
        {"family": "clique", "n": 12, "d": 4, "k": 3, "p": 8, "q": 40,
         "clique_size": 6},
        {"family": "crossword", "rows": 3, "cols": 3},
        {"family": "parity", "n": 2},
        {"family": "rlfa", "topology": "prob2"},
        {"family": "config"},
    ]
    for spec in specs:
        p = instance_from_generator(spec, seed=1)
        assert p.n > 0 and p.constraints


def test_mac_hybrid_expands_each_encoded_constraint_once(monkeypatch):
    problem = gen_rlfa("prob1", 20, 1)
    calls = Counter()
    materialize = core.materialize

    def counting(problem, c, *args):
        calls[id(c)] += 1
        return materialize(problem, c, *args)

    monkeypatch.setattr(core, "materialize", counting)
    monkeypatch.setattr(encode, "materialize", counting)
    record, result = run_one(problem, "MAC-hybrid", "heuristic", 1, node_limit=100)
    # every rlfa constraint is a separation predicate within the budget
    assert len(calls) == len(problem.constraints) == 25
    assert set(calls.values()) == {1}
    assert (record.verdict, record.nodes, record.checks, record.microops,
            record.removals, result.counters.group_updates) == \
        ("SAT", 48, 0, 0, 27989, 96806)

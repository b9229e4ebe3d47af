import json
from collections import Counter

import pytest

import bincsp.bench as bench
import bincsp.core as core
import bincsp.encode as encode
import bincsp.search as search
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


def test_unknown_algorithm_is_an_error_row_not_an_aborted_matrix(tmp_path, capsys):
    """A misspelt algorithm fails its own cell only, with encoding "?"; the
    other algorithm of the cell still runs, and `bincsp bench` exits 0."""
    config = _matrix_parity()
    config["cells"][0].update(algorithms=["MGAC-2001", "MGAC2001"], seeds=[0])
    records = run_bench(config, str(tmp_path / "runs"), time_mode="zero")
    assert [(r.algorithm, r.encoding, r.verdict) for r in records] == [
        ("MGAC-2001", "NONBINARY", "UNSAT"), ("MGAC2001", "?", "ERROR:ValueError")]
    assert records[1].error == "ValueError: unknown algorithm 'MGAC2001'"
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(config))
    assert main(["bench", "--matrix", str(matrix), "--out-dir",
                 str(tmp_path / "cli"), "--time-mode", "zero"]) == 0
    assert "2 runs written" in capsys.readouterr().out
    assert parse_report((tmp_path / "cli" / "report.csv").read_text()) == records


def test_unknown_ordering_is_an_error_row(tmp_path):
    """Only "fixed" and "heuristic" name an ordering: a misspelt one is not
    run under dom/deg and reported under its own name."""
    config = _matrix_parity()
    config["cells"][0].update(ordering="fxed", seeds=[0])
    records = run_bench(config, str(tmp_path), time_mode="zero")
    assert {(r.ordering, r.verdict, r.nodes) for r in records} == {
        ("fxed", "ERROR:ValueError", 0)}
    assert all(r.error == "ValueError: unknown ordering 'fxed'"
               for r in records)
    record, result = run_one(six_var_linear(), "MGAC-2001", "heuristic", 0)
    assert record.verdict == "SAT" and result is not None


def test_failed_run_message_reaches_csv_and_json(tmp_path, monkeypatch):
    """A run that fails says why in the last column, `error`; runs that did
    not fail leave it empty, and the reports stay byte-deterministic."""
    make_engine = bench.make_engine

    def failing_engine(model, spec, **kwargs):
        if spec.name == "MAC-PW-ACd":
            raise AssertionError("forced failure in the MAC-PW-ACd engine")
        return make_engine(model, spec, **kwargs)

    monkeypatch.setattr(bench, "make_engine", failing_engine)
    reports = []
    for out in ("a", "b"):
        records = run_bench(_matrix_parity(), str(tmp_path / out), time_mode="zero")
        reports.append([(tmp_path / out / name).read_bytes()
                        for name in ("report.csv", "summary.json")])
    assert reports[0] == reports[1]
    message = "AssertionError: forced failure in the MAC-PW-ACd engine"
    assert {(r.algorithm, r.verdict, r.error) for r in records} == {
        ("MHAC-2001", "UNSAT", ""), ("MAC-PW-ACd", "ERROR:AssertionError", message)}
    csv_text = (tmp_path / "a" / "report.csv").read_text()
    assert CSV_HEADER[-1] == "error"
    assert csv_text.count("," + message + "\n") == 3
    assert parse_report(csv_text) == records
    doc = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert [r["error"] for r in doc["records"]] == [r.error for r in records]
    assert sum(r["error"] == message for r in doc["records"]) == 3


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


def test_cli_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", "--instance", str(missing),
                 "--algorithm", "MGAC-2001"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--instance", str(bad)]) == 2
    # the oracle refuses a solution limit below 1
    inst = _modelb_instance(tmp_path)
    capsys.readouterr()
    assert main(["check", "--instance", inst, "--limit", "0"]) == 2
    captured = capsys.readouterr()
    assert "oracle:" not in captured.out
    assert "limit must be at least 1" in captured.err
    assert main(["check", "--instance", inst, "--limit", "2"]) == 0
    assert "oracle: 2+ solutions" in capsys.readouterr().out


def _modelb_instance(tmp_path):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--family", "modelb",
                 "--params", '{"n": 8, "d": 3, "k": 3, "p": 10, "q": 40}',
                 "--seed", "3", "--out", str(inst)]) == 0
    return str(inst)


def test_cli_solve_exits_1_when_its_run_fails(tmp_path, capsys):
    """The failed run still prints its `ERROR:<Type>` row, and the exit
    status says it failed; a valid subset runs and exits 0."""
    inst = _modelb_instance(tmp_path)
    capsys.readouterr()
    assert main(["solve", "--instance", inst, "--algorithm", "MAC-hybrid",
                 "--hybrid-subset", "99"]) == 1
    row, = parse_report(capsys.readouterr().out)
    assert row.verdict == "ERROR:ValueError" and "99 out of range" in row.error
    assert main(["solve", "--instance", inst, "--algorithm", "MAC-hybrid",
                 "--hybrid-subset", "0,2"]) == 0
    row, = parse_report(capsys.readouterr().out)
    assert not row.verdict.startswith("ERROR")


def test_cli_hybrid_subset_is_a_configuration_error_off_mac_hybrid(tmp_path, capsys):
    """`--hybrid-subset` names MAC-hybrid's double-encoded constraints; with
    another algorithm it is refused before any run, not ignored."""
    inst = _modelb_instance(tmp_path)
    capsys.readouterr()
    for algorithm in ("MAC-PW-ACd", "dFC3", "MGAC-2001"):
        assert main(["solve", "--instance", inst, "--algorithm", algorithm,
                     "--hybrid-subset", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "MAC-hybrid only" in err, algorithm
        assert main(["solve", "--instance", inst, "--algorithm", algorithm]) == 0
        capsys.readouterr()


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
        ("SAT", 48, 0, 96487, 27989, 96806)


def test_hybrid_subset_budget_holds_on_a_relation_shared_from_a_larger_one(monkeypatch):
    """Two equal 3-ary separations of 205 320 tuples: expanded once under
    500 000, the relation is shared, and the subset's 200 000 budget still
    turns it away."""
    pred = core.Predicate("separation", s=0)
    problem = core.Problem([f"f{i}" for i in range(6)], [list(range(60))] * 6,
                           [core.Constraint((0, 1, 2), predicate=pred),
                            core.Constraint((3, 4, 5), predicate=pred)])
    c0, c1 = problem.constraints
    rows = core.GapRows()
    shared = core.materialize(problem, c0, 500_000, rows)
    assert len(shared) == 60 * 59 * 58
    assert core.materialize(problem, c1, len(shared), rows) is shared
    with pytest.raises(core.CapacityError):
        core.materialize(problem, c1, 200_000, rows)
    monkeypatch.setattr(search, "GapRows", lambda: rows)
    assert search._default_hybrid_subset(problem) == ([], {})

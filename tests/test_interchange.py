import json

import pytest

from bincsp.core import expand_predicate
from bincsp.gen import ModelBParams, gen_model_b, gen_parity_chain, \
    gen_rlfa, tshirt_problem
from bincsp.interchange import (CSV_HEADER, InstanceFormatError, RunRecord,
                                emit_instance, emit_report, parse_instance,
                                parse_report)

from cases import six_var_linear


def test_six_var_example_round_trips_with_predicates():
    p = six_var_linear()
    doc = emit_instance(p)
    assert [c["type"] for c in doc["constraints"]] == ["predicate"] * 4
    back = parse_instance(doc)
    assert back.variables == p.variables
    rel = expand_predicate(back, back.constraints[2])
    assert len(rel) == 4  # the x4+x5-x6 >= 1 constraint


def test_round_trip_is_canonical_fixpoint():
    for seed in range(6):
        p = gen_model_b(ModelBParams(8, 3, 3, 14, 40, seed))
        doc = emit_instance(p)
        assert emit_instance(parse_instance(doc)) == doc


def test_round_trip_predicate_instances():
    for p in (gen_parity_chain(2), gen_rlfa("prob2", seed=1, adjacent8=True)):
        doc = emit_instance(p)
        back = parse_instance(doc)
        assert emit_instance(back) == doc


def test_symbolic_domains_round_trip():
    p = tshirt_problem()
    doc = emit_instance(p)
    assert doc["variables"][0]["symbols"] == ["small", "medium", "large"]
    back = parse_instance(doc)
    assert back.domains[0] == ["small", "medium", "large"]
    assert back.constraints[0].relation == p.constraints[0].relation


def test_tuples_written_in_labels():
    doc = {
        "variables": [{"name": "a", "domain": [5, 3]},
                      {"name": "b", "domain": [0, 1]}],
        "constraints": [{"scope": ["a", "b"], "type": "extension",
                         "tuples": [[3, 1], [5, 0]]}],
    }
    p = parse_instance(doc)
    assert p.constraints[0].relation == [(0, 0), (1, 1)]
    assert emit_instance(p)["constraints"][0]["tuples"] == [[5, 0], [3, 1]]


def test_empty_constraint_list_is_valid():
    p = parse_instance({"variables": [{"name": "a", "domain": [0]}],
                        "constraints": []})
    assert p.n == 1 and p.constraints == []


@pytest.mark.parametrize("mutate,path_fragment", [
    (lambda d: d["variables"].append({"name": "x1", "domain": [0]}),
     "variables[1].name"),
    (lambda d: d["constraints"].append(
        {"scope": ["nope"], "type": "extension", "tuples": []}),
     "constraints[0].scope"),
    (lambda d: d["constraints"].append(
        {"scope": ["x1"], "type": "extension", "tuples": [[9]]}),
     "tuples[0][0]"),
    (lambda d: d["constraints"].append(
        {"scope": ["x1"], "type": "predicate", "predicate": {"kind": "huh"}}),
     "predicate"),
    (lambda d: d["constraints"].append({"scope": ["x1"], "type": "mystery"}),
     "type"),
])
def test_diagnostics_carry_paths(mutate, path_fragment):
    doc = {"variables": [{"name": "x1", "domain": [0, 1]}], "constraints": []}
    mutate(doc)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(doc)
    assert path_fragment in str(err.value)


def test_csv_report_shape():
    rec = RunRecord("inst", "MGAC-2001", "NONBINARY", "fixed", 0, "SAT",
                    5, 10, 20, 3, 7, 1024)
    text = emit_report([rec], "csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "inst,MGAC-2001,NONBINARY,fixed,0,SAT,5,10,20,3,7,1024,"
    assert CSV_HEADER[-1] == "error"  # empty for a run that did not fail
    assert text.endswith("\n")


def test_empty_report_is_header_only():
    assert emit_report([], "csv") == ",".join(CSV_HEADER) + "\n"


def test_json_report_round_trips():
    recs = [RunRecord("i", "hFC3", "HVE", "fixed", s, "UNSAT", s * 2, 1, 2, 3,
                      0, 64) for s in range(3)]
    text = emit_report(recs, "json", summary={"cells": []})
    doc = json.loads(text)
    assert doc["summary"] == {"cells": []}
    assert parse_report(text) == recs
    assert parse_report(emit_report(recs, "csv")) == recs

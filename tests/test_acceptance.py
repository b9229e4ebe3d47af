"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy suites are
computed once per session and shared across criteria.
"""

import time

import pytest

from bincsp.core import Counters, ac1_fixpoint, enumerate_solutions, \
    solution_check
from bincsp.encode import build_de, build_double, build_hve
from bincsp.gen import (CrosswordSpec, ModelBParams, gen_crossword,
                        gen_model_b, gen_parity_chain)
from bincsp.search import (ALGORITHMS, FIXED, HveEngine, NonBinaryEngine,
                           ac2001, gac2001, hac, pwac, sgac_check, solve)
from bincsp.words import WORDS

from cases import appendix_a, example_42, example_51, prop_51, six_var_linear


def _report(criterion, text):
    print(f"\n[criterion {criterion:>2}] PASS  {text}")


# ---------------------------------------------------------------------------
# suite fixtures


SUITE1_COUNT = 1000
SUITE5_COUNT = 200

SEARCH_FAMILY = ["nFC0", "nFC1", "nFC2", "nFC3", "nFC4", "nFC5", "MGAC-2001",
                 "hFC0", "hFC1", "hFC2", "hFC3", "hFC4", "hFC5", "MHAC-2001",
                 "MHAC-2001-full", "MAC-2001", "MAC-PW-AC", "MAC-2001d",
                 "MAC-PW-ACd", "dFC0", "dFC1", "dFC2", "dFC3", "dFC4", "dFC5"]


def _suite1_params(seed):
    q = 5 + (seed * 90) // SUITE1_COUNT  # spans 5..95 percent looseness
    return ModelBParams(10, 4, 3, 10, q, seed)


def _suite5_params(seed):
    q = 20 + (seed * 60) // SUITE5_COUNT
    if seed % 2 == 0:
        return ModelBParams(10, 4, 3, 10, q, seed)
    return ModelBParams(8, 3, 4, 10, q, seed)


@pytest.fixture(scope="session")
def suite1():
    """Propagation results over 1000 seeded <10,4,3,p,q> instances."""
    t0 = time.perf_counter()
    rows = []
    for seed in range(SUITE1_COUNT):
        p = gen_model_b(_suite1_params(seed))
        gc, hc = Counters(), Counters()
        g = gac2001(p, counters=gc)
        hve = build_hve(p)
        h = hac(hve, counters=hc)
        ok, oracle = ac1_fixpoint(p)

        de = build_de(p)
        a = ac2001(de)
        w = pwac(de)

        row = {
            "seed": seed,
            "consistent": ok,
            "g_ok": g.consistent, "h_ok": h.consistent,
            "a_ok": a.consistent, "w_ok": w.consistent,
            "g_checks": gc.checks, "h_checks": hc.checks,
            "domains_equal": None, "duals_equal": None,
        }
        if ok:
            row["domains_equal"] = (
                g.state.domains_as_lists() == h.state.domains_as_lists()
                == oracle.domains_as_lists())
        if a.consistent:
            row["duals_equal"] = (a.state.dual_domains_as_lists()
                                  == w.state.dual_domains_as_lists())
        rows.append(row)
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def suite5():
    """Fixed-ordering search runs over 200 mixed <10,4,3>/<8,3,4> instances."""
    algos = ["nFC2", "nFC3", "nFC4", "nFC5", "MGAC-2001",
             "hFC2", "hFC3", "hFC4", "hFC5", "MHAC-2001",
             "dFC2", "dFC3", "dFC4", "dFC5", "MAC-PW-ACd"]
    t0 = time.perf_counter()
    per_instance = []
    for seed in range(SUITE5_COUNT):
        p = gen_model_b(_suite5_params(seed))
        runs = {}
        for algo in algos:
            r = solve(p, algo, ordering=FIXED, record_nodes=True)
            runs[algo] = (r.verdict, tuple(r.node_paths))
        per_instance.append({"seed": seed, "runs": runs})
    return {"instances": per_instance, "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# criterion 1: oracle fixpoint equivalence


def test_criterion_1_fixpoint_equivalence(suite1):
    rows = suite1["rows"]
    assert len(rows) == SUITE1_COUNT
    for row in rows:
        assert row["g_ok"] == row["h_ok"] == row["consistent"], row["seed"]
        assert row["a_ok"] == row["w_ok"], row["seed"]
        if row["consistent"]:
            assert row["domains_equal"], row["seed"]
        if row["a_ok"]:
            assert row["duals_equal"], row["seed"]
    assert suite1["elapsed"] < 120, f"suite took {suite1['elapsed']:.1f}s"
    _report(1, f"gac2001/hac/ac1 and pwac/ac2001 fixpoints identical on "
               f"{SUITE1_COUNT} instances in {suite1['elapsed']:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: check-count equality and dominance


def test_criterion_2_check_counts(suite1):
    equal_on = dominated_on = 0
    for row in suite1["rows"]:
        if row["consistent"]:
            assert row["g_checks"] == row["h_checks"], row["seed"]
            equal_on += 1
        else:
            assert row["h_checks"] <= row["g_checks"], row["seed"]
            dominated_on += 1
    assert equal_on and dominated_on, "suite must exercise both outcomes"

    # the wipeout fixture: strictly fewer checks in the hidden encoding
    p = appendix_a()
    gc = Counters()
    g = NonBinaryEngine(p, ALGORITHMS["MGAC-2001"], counters=gc)
    hc = Counters()
    h = HveEngine(build_hve(p), ALGORITHMS["MHAC-2001"], counters=hc)
    assert not (g.assign(0, 0) and g.lookahead(0))
    assert not (h.assign(0, 0) and h.lookahead(0))
    assert hc.checks < gc.checks
    _report(2, f"checks equal on {equal_on} arc-consistent instances, "
               f"dominated on {dominated_on} wipeouts; fixture "
               f"{hc.checks} < {gc.checks}")


# ---------------------------------------------------------------------------
# criterion 3: the dual-encoding propagation example


def test_criterion_3_example_42():
    enc = build_de(example_42())
    counters = Counters(search_log=[])
    a = ac2001(enc, counters=counters)
    failed = [e for e in counters.search_log
              if e["bvar"] == 0 and not e["found"]]
    assert [e["value"] for e in failed] == [0, 1]
    assert sum(e["checks"] for e in failed) == 12  # 2 x 6 checks saved

    w = pwac(enc)
    assert w.counters.checks == 0
    assert w.counters.tuple_removals == 3  # v_c2[0] plus v_c1's leading two
    def live(res):
        return {v: set(res.state.live_tuples(v)) for v in range(3)}
    assert live(a) == live(w)
    assert live(w)[0] == {2, 3}  # only the last two tuples of v_c1 survive

    p = example_42()
    g = gac2001(p)
    h = hac(build_hve(p))
    assert g.counters.value_removals == 0
    assert h.counters.value_removals == 0
    _report(3, "ac2001 spends exactly 12 extra checks re-supporting the two "
               "leading tuples of v_c1; pwac deletes them with zero checks; "
               "gac/hac propagate nothing")


# ---------------------------------------------------------------------------
# criterion 4: the double-encoding refutation example


def test_criterion_4_example_51():
    p = example_51()
    enc = build_double(p)
    assert pwac(enc).verdict == "INCONSISTENT"
    g = gac2001(p)
    assert g.verdict == "CONSISTENT" and g.counters.value_removals == 0
    assert sgac_check(p)
    _report(4, "dual-dual AC refutes the fixture that is singleton "
               "generalized arc consistent in the flat representation")


# ---------------------------------------------------------------------------
# criterion 5: node-sequence equality


def test_criterion_5_node_sequence_equality(suite5):
    for inst in suite5["instances"]:
        runs = inst["runs"]
        for i in (2, 3, 4, 5):
            assert runs[f"nFC{i}"] == runs[f"hFC{i}"], (inst["seed"], i)
        assert runs["MGAC-2001"] == runs["MHAC-2001"], inst["seed"]
    assert suite5["elapsed"] < 300, f"suite took {suite5['elapsed']:.1f}s"
    _report(5, f"nFCi = hFCi (i=2..5) and MGAC = MHAC node sequences on "
               f"{SUITE5_COUNT} instances in {suite5['elapsed']:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: node-set hierarchies


def test_criterion_6_hierarchies(suite5):
    for inst in suite5["instances"]:
        ns = {a: set(paths) for a, (v, paths) in inst["runs"].items()}
        assert ns["hFC5"] <= ns["hFC3"] <= ns["hFC2"], inst["seed"]
        assert ns["hFC5"] <= ns["hFC4"] <= ns["hFC2"], inst["seed"]
        assert ns["MHAC-2001"] <= ns["hFC5"], inst["seed"]
        assert ns["dFC5"] <= ns["dFC3"] <= ns["dFC2"], inst["seed"]
        assert ns["dFC5"] <= ns["dFC4"] <= ns["dFC2"], inst["seed"]
        assert ns["MAC-PW-ACd"] <= ns["dFC5"], inst["seed"]
    _report(6, "forward-checking and MAC node-set hierarchies hold on every "
               "instance, in both the hidden and double encodings")


# ---------------------------------------------------------------------------
# criterion 7: the double encoding dominates the hidden encoding


def test_criterion_7_dfc_dominates_hfc(suite5):
    for inst in suite5["instances"]:
        ns = {a: set(paths) for a, (v, paths) in inst["runs"].items()}
        for i in (2, 3, 4, 5):
            assert ns[f"dFC{i}"] <= ns[f"hFC{i}"], (inst["seed"], i)

    p = prop_51()
    rd = solve(p, "dFC2", ordering=FIXED, record_nodes=True)
    rh = solve(p, "hFC2", ordering=FIXED, record_nodes=True)
    d_nodes, h_nodes = set(rd.node_paths), set(rh.node_paths)
    assert d_nodes < h_nodes
    assert ((0, 0),) in d_nodes
    assert not any(len(path) > 1 and path[0] == (0, 0) for path in d_nodes)
    assert any(len(path) > 1 and path[0] == (0, 0) for path in h_nodes)
    _report(7, "nodes(dFCi) subset of nodes(hFCi) everywhere; on the fixture "
               "dFC wipes both dual domains at depth 1 while hFC descends")


# ---------------------------------------------------------------------------
# criterion 8: parity-chain scaling


def test_criterion_8_parity_scaling():
    t0 = time.perf_counter()
    nodes = {}
    for n in (2, 3, 4, 5):
        r = solve(gen_parity_chain(n), "MAC-PW-ACd", ordering=FIXED)
        assert r.verdict == "UNSAT", n
        nodes[n] = r.nodes
    c = nodes[2] / 4  # fit nodes <= c * n^2 at n=2
    assert nodes[5] <= 2 * c * 25, nodes

    budget = 20 * nodes[5]
    rh = solve(gen_parity_chain(5), "MHAC-2001", ordering=FIXED,
               node_limit=budget)
    assert rh.verdict in ("UNSAT", "NODE_LIMIT")
    assert rh.nodes >= 10 * nodes[5]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"{elapsed:.1f}s"
    _report(8, f"MAC-PW-ACd nodes {nodes} fit c*n^2 with c={c:.2f}; "
               f"MHAC-2001 needs >= 10x the nodes at n=5 ({rh.nodes} vs "
               f"{nodes[5]}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: crossword end-to-end


def test_criterion_9_crossword():
    t0 = time.perf_counter()
    p = gen_crossword(CrosswordSpec.blank(5, 5, WORDS))
    verdicts = {}
    for algo in ("MGAC-2001", "MHAC-2001", "MAC-PW-AC"):
        r = solve(p, algo)
        verdicts[algo] = r.verdict
        if r.verdict == "SAT":
            assert solution_check(p, r.solution)
            from bincsp.gen import crossword_solution_words
            for word in crossword_solution_words(p, r.solution):
                assert word in WORDS, word
    assert len(set(verdicts.values())) == 1, verdicts

    toy = gen_crossword(CrosswordSpec(("...",), ("cat", "dog")))
    sols = enumerate_solutions(toy)
    assert len(sols) == 2
    assert solve(toy, "MGAC-2001").verdict == "SAT"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"{elapsed:.1f}s"
    _report(9, f"5x5 crossword: all three MAC algorithms agree on "
               f"{verdicts['MGAC-2001']} with dictionary-valid words; the "
               f"1x3 toy has exactly 2 solutions ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 10: soundness sweep


def test_criterion_10_soundness(suite1, suite5):
    # every search algorithm agrees with the brute-force oracle
    fixtures = [six_var_linear(), example_42(), example_51(), prop_51(),
                appendix_a(), gen_parity_chain(1), gen_parity_chain(2),
                gen_crossword(CrosswordSpec(("...",), ("cat", "dog")))]
    checked = 0
    for inst in suite5["instances"][::5]:
        fixtures.append(gen_model_b(_suite5_params(inst["seed"])))
    for p in fixtures:
        expected = "SAT" if enumerate_solutions(p, limit=1) else "UNSAT"
        for algo in SEARCH_FAMILY:
            r = solve(p, algo, ordering=FIXED)
            assert r.verdict == expected, (p.name, algo)
            if r.verdict == "SAT":
                assert solution_check(p, r.solution)
            checked += 1
    # full-suite verdict agreement for the cached fixed-ordering runs
    for inst in suite5["instances"]:
        p = gen_model_b(_suite5_params(inst["seed"]))
        expected = "SAT" if enumerate_solutions(p, limit=1) else "UNSAT"
        for algo, (verdict, _) in inst["runs"].items():
            assert verdict == expected, (inst["seed"], algo)

    # propagation never deletes a value used by any solution
    preserved = 0
    for inst in suite5["instances"][::4]:
        p = gen_model_b(_suite5_params(inst["seed"]))
        sols = enumerate_solutions(p, limit=400)
        if len(sols) >= 400:
            sols = sols[:50]  # sample the very loose instances
        g = gac2001(p)
        de = build_de(p)
        w = pwac(de)
        for s in sols:
            assert all(g.state.masks[x][s[x]] for x in range(p.n))
            for v in de.duals:
                t = tuple(s[x] for x in v.scope)
                idx = v.tuples.index(t)
                assert w.state.dual_masks[v.id][idx], (inst["seed"], v.id)
            preserved += 1
    # a propagation wipeout must mean the oracle finds nothing
    for row in suite1["rows"][::10]:
        if not row["consistent"]:
            p = gen_model_b(_suite1_params(row["seed"]))
            assert enumerate_solutions(p, limit=1) == []
    _report(10, f"verdicts match the oracle across the family "
                f"({checked} fixture runs plus the cached suite); "
                f"{preserved} oracle solutions survive propagation")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical reports


def test_criterion_11_deterministic_reports(tmp_path):
    from bincsp.bench import run_bench
    config = {
        "cells": [
            {"generator": {"family": "parity", "n": 2},
             "algorithms": ["MHAC-2001", "MAC-PW-ACd"],
             "ordering": "fixed", "seeds": [0, 1]},
            {"generator": {"family": "modelb", "n": 8, "d": 3, "k": 3,
                           "p": 15, "q": 50},
             "algorithms": ["MGAC-2001", "MAC-PW-AC", "hFC3"],
             "ordering": "fixed", "seeds": [0, 1, 2]},
            {"generator": {"family": "config"},
             "algorithms": ["MAC-PW-AC"], "seeds": [0]},
        ],
    }
    run_bench(config, str(tmp_path / "a"), jobs=1, time_mode="zero")
    run_bench(config, str(tmp_path / "b"), jobs=1, time_mode="zero")
    a_csv = (tmp_path / "a/report.csv").read_bytes()
    b_csv = (tmp_path / "b/report.csv").read_bytes()
    assert a_csv == b_csv and len(a_csv) > 100
    assert (tmp_path / "a/summary.json").read_bytes() == \
        (tmp_path / "b/summary.json").read_bytes()
    _report(11, "re-running the matrix with identical seeds reproduces the "
                "CSV and summary byte for byte")

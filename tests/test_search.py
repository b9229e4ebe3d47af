import itertools
import random

import pytest

from bincsp.core import Constraint, Counters, Problem, enumerate_solutions
from bincsp.encode import build_de, build_double, build_hve, induced_assignment
from bincsp.gen import (CrosswordSpec, ModelBParams, gen_crossword,
                        gen_model_b, gen_parity_chain)
from bincsp import propagate
from bincsp.search import (ALGORITHMS, DOM_DEG, FIXED, make_engine,
                           prepare_model, pwac, solve)

from cases import (assert_counters_match_live_members, criterion_1_suite,
                   prop_51, six_var_linear)

SEARCH_ALGOS = ["nFC0", "nFC1", "nFC2", "nFC3", "nFC4", "nFC5", "MGAC-2001",
                "hFC0", "hFC1", "hFC2", "hFC3", "hFC4", "hFC5", "MHAC-2001",
                "MHAC-2001-full", "MAC-2001", "MAC-PW-AC", "MAC-2001d",
                "MAC-PW-ACd", "dFC0", "dFC1", "dFC2", "dFC3", "dFC4", "dFC5"]


def _suite(count=25):
    for seed in range(count):
        q = 20 + (seed * 9) % 70
        yield gen_model_b(ModelBParams(7, 3, 3, 18, q, seed))


def run(problem, algorithm, ordering=FIXED, **kw):
    return solve(problem, algorithm, ordering=ordering, record_nodes=True, **kw)


# ---------------------------------------------------------------------------
# completeness and soundness against the brute-force oracle


@pytest.mark.parametrize("algorithm", SEARCH_ALGOS)
def test_verdicts_match_oracle(algorithm):
    for p in _suite(15):
        expected = "SAT" if enumerate_solutions(p, limit=1) else "UNSAT"
        for ordering in (FIXED, DOM_DEG):
            result = solve(p, algorithm, ordering=ordering)
            assert result.verdict == expected, (p.name, algorithm, ordering)
            if result.verdict == "SAT":
                assert result.solution is not None


def test_full_relation_problem_solves_without_backtracking():
    rel = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    p = Problem(["a", "b", "c"], [[0, 1]] * 3,
                [Constraint((0, 1, 2), relation=rel)])
    for algorithm in ("nFC2", "hFC2", "MGAC-2001", "MAC-PW-ACd"):
        result = run(p, algorithm)
        assert result.verdict == "SAT"
        assert result.nodes == 3  # one assignment per variable, no backtracks


# ---------------------------------------------------------------------------
# the equivalence theorems as node-sequence equality


def test_nfc_equals_hfc_node_sequences():
    for p in _suite(20):
        for i in (2, 3, 4, 5):
            rn = run(p, f"nFC{i}")
            rh = run(p, f"hFC{i}")
            assert rn.verdict == rh.verdict, (p.name, i)
            assert rn.node_paths == rh.node_paths, (p.name, i)


def test_mgac_equals_mhac_node_sequences():
    for p in _suite(20):
        rg = run(p, "MGAC-2001")
        rh = run(p, "MHAC-2001")
        assert rg.verdict == rh.verdict
        assert rg.node_paths == rh.node_paths, p.name


def test_dfc01_equal_hfc01_node_sequences():
    for p in _suite(12):
        for i in (0, 1):
            rd = run(p, f"dFC{i}")
            rh = run(p, f"hFC{i}")
            assert rd.node_paths == rh.node_paths, (p.name, i)


@pytest.mark.parametrize("ordering", [FIXED, DOM_DEG])
def test_unary_constraints_keep_the_lanes_equal(ordering):
    """A unary constraint is revised at the root of every lane, so its
    removals are counted alike and no lane tries a value it excludes. No
    generator emits unary constraints."""
    p = Problem(["a", "b", "c"], [[0, 1, 2]] * 3,
                [Constraint((0,), relation=[(2,)]),
                 Constraint((0, 1, 2), relation=[(0, 0, 0), (1, 1, 1),
                                                 (2, 0, 1), (2, 2, 2)])])

    def outcome(algorithm):
        r = run(p, algorithm, ordering)
        return (r.verdict, r.node_paths, r.counters.checks,
                r.counters.value_removals)

    for i in (2, 3, 4, 5):
        assert outcome(f"nFC{i}") == outcome(f"hFC{i}") == outcome(f"dFC{i}"), i
    for i in (0, 1):
        assert run(p, f"dFC{i}", ordering).node_paths == \
            run(p, f"hFC{i}", ordering).node_paths, i
    assert outcome("MGAC-2001") == outcome("MHAC-2001")
    assert outcome("nFC2")[1][0] == ((0, 2),)


# ---------------------------------------------------------------------------
# node-set hierarchies


def _node_sets(p, algorithms):
    return {a: set(run(p, a).node_paths) for a in algorithms}


def test_hfc_hierarchy():
    for p in _suite(15):
        ns = _node_sets(p, ["hFC2", "hFC3", "hFC4", "hFC5", "MHAC-2001"])
        assert ns["hFC5"] <= ns["hFC3"] <= ns["hFC2"]
        assert ns["hFC5"] <= ns["hFC4"] <= ns["hFC2"]
        assert ns["MHAC-2001"] <= ns["hFC5"]


def test_dfc_hierarchy_and_cross_dominance():
    for p in _suite(15):
        ns = _node_sets(p, ["hFC2", "hFC3", "hFC4", "hFC5",
                            "dFC2", "dFC3", "dFC4", "dFC5", "MAC-PW-ACd"])
        assert ns["dFC5"] <= ns["dFC3"] <= ns["dFC2"]
        assert ns["dFC5"] <= ns["dFC4"] <= ns["dFC2"]
        assert ns["MAC-PW-ACd"] <= ns["dFC5"]
        for i in (2, 3, 4, 5):
            assert ns[f"dFC{i}"] <= ns[f"hFC{i}"], (p.name, i)


def test_prop_51_fixture_dfc_wipes_at_depth_one():
    p = prop_51()
    rh = run(p, "hFC2")
    rd = run(p, "dFC2")
    assert rh.verdict == rd.verdict == "UNSAT"
    d_nodes, h_nodes = set(rd.node_paths), set(rh.node_paths)
    assert d_nodes < h_nodes
    # dFC dead-ends right after x1 <- 0: no deeper node extends that prefix
    root = ((0, 0),)
    assert root in d_nodes
    assert not any(len(path) > 1 and path[0] == (0, 0) for path in d_nodes)
    assert any(len(path) > 1 and path[0] == (0, 0) for path in h_nodes)


# ---------------------------------------------------------------------------
# parity chains: the double encoding needs two instantiations


def test_parity_chain_unsat_and_scaling():
    counts = {}
    for n in (2, 3):
        p = gen_parity_chain(n)
        r = run(p, "MAC-PW-ACd")
        assert r.verdict == "UNSAT"
        counts[n] = r.nodes
        assert r.nodes <= n * n + n
    assert counts[3] > counts[2]


def test_parity_chain_mhac_visits_many_more_nodes():
    p = gen_parity_chain(3)
    rd = run(p, "MAC-PW-ACd")
    rh = solve(p, "MHAC-2001", ordering=FIXED, node_limit=20 * rd.nodes)
    assert rh.verdict in ("UNSAT", "NODE_LIMIT")
    nodes_h = rh.nodes
    assert nodes_h >= 10 * rd.nodes


def test_parity_chain_n1_refuted_at_root():
    p = gen_parity_chain(1)
    from bincsp.search import gac2001
    assert not gac2001(p).consistent
    r = solve(p, "MGAC-2001")
    assert r.verdict == "UNSAT" and r.nodes == 0


# ---------------------------------------------------------------------------
# variable ordering


def test_dom_deg_prefers_higher_degree_on_equal_domains():
    rel2 = [(a, b) for a in range(2) for b in range(2)]
    p = Problem(["a", "b", "c"], [[0, 1]] * 3,
                [Constraint((0, 1), relation=rel2),
                 Constraint((0, 2), relation=rel2),
                 Constraint((0, 1), relation=rel2)])
    engine = make_engine(p, ALGORITHMS["MGAC-2001"], ordering=DOM_DEG)
    assert engine.root_propagate()
    assert engine.select_variable() == 0  # degree 3 vs 1 vs 2


def test_dom_deg_tie_breaks_on_lowest_index():
    rel2 = [(a, b) for a in range(2) for b in range(2)]
    p = Problem(["a", "b"], [[0, 1]] * 2, [Constraint((0, 1), relation=rel2)])
    engine = make_engine(p, ALGORITHMS["MGAC-2001"], ordering=DOM_DEG)
    assert engine.select_variable() == 0


def _recounted_degree(engine, var):
    """The degree of an original variable counted on every call: its duals
    plus the residual constraints over it."""
    problem, enc = engine.problem, engine.enc
    if enc is None:
        return len(problem.constraints_of_var[var])
    return len(enc.duals_of_var[var]) + sum(
        1 for ci in enc.residual_constraints if var in problem.constraints[ci].scope)


def test_degrees_counted_at_build_order_like_a_recount(monkeypatch):
    """MAC-hybrid on an rlfa instance whose four 8-ary constraints stay
    residual: dom/deg reads degrees counted once, and visits the nodes of
    a recount per call."""
    from bincsp.gen import gen_rlfa
    from bincsp import search
    p = gen_rlfa("prob1", 20, 0, adjacent8=True)
    enc = prepare_model(p, ALGORITHMS["MAC-hybrid"])
    assert len(enc.residual_constraints) == 4
    engine = make_engine(enc, ALGORITHMS["MAC-hybrid"], ordering=DOM_DEG)
    assert [engine.degree(x) for x in range(p.n)] == \
        [_recounted_degree(engine, x) for x in range(p.n)]
    assert any(engine.degree(x) > len(enc.duals_of_var[x]) for x in range(p.n))

    def outcome():
        r = solve(enc, "MAC-hybrid", ordering=DOM_DEG, node_limit=30,
                  record_nodes=True)
        return r.verdict, r.node_paths, r.counters.snapshot()

    with monkeypatch.context() as m:
        m.setattr(search.Engine, "degree", _recounted_degree)
        expected = outcome()
    assert len(expected[1]) > 10
    assert outcome() == expected


def test_dual_selected_only_when_strictly_better():
    p = six_var_linear()
    enc = build_hve(p)
    engine = make_engine(enc, ALGORITHMS["MHAC-2001-full"], ordering=DOM_DEG)
    assert engine.root_propagate()
    # originals: dom 2, degree 2 -> ratio 1; duals: dom 3..4, degree >= 3
    choice = engine.select_variable()
    assert not isinstance(choice, tuple)
    ratios = {}
    for cand in engine.branch_candidates():
        ratios[cand] = engine.live_count(cand) / engine.degree(cand)
    best_original = min(v for k, v in ratios.items() if not isinstance(k, tuple))
    chosen = ratios[choice]
    for cand, ratio in ratios.items():
        if isinstance(cand, tuple):
            assert not ratio < best_original or choice == cand


def test_de_lanes_branch_on_every_unassigned_dual():
    enc = build_de(six_var_linear())
    for algorithm in ("MAC-2001", "MAC-PW-AC"):
        engine = make_engine(enc, ALGORITHMS[algorithm], ordering=FIXED)
        assert engine.root_propagate()
        duals = [("dual", v.id) for v in enc.duals]
        assert engine.branch_candidates() == duals, algorithm
        assert engine.assign(duals[1], engine.live_values(duals[1])[0])
        assert engine.branch_candidates() == duals[:1] + duals[2:], algorithm


def test_dual_degree_is_the_pair_count_on_a_de_and_the_arity_on_an_hve():
    p = six_var_linear()
    de, hve = build_de(p), build_hve(p)
    assert any(de.pairs_of_dual[v.id] for v in de.duals)
    de_engine = make_engine(de, ALGORITHMS["MAC-PW-AC"])
    hve_engine = make_engine(hve, ALGORITHMS["MHAC-2001-full"])
    for v in de.duals:
        assert de_engine.degree(("dual", v.id)) == len(de.pairs_of_dual[v.id])
        assert hve_engine.degree(("dual", v.id)) == v.arity


def test_a_declared_empty_domain_is_refuted_by_every_lane():
    """Variable c has an empty domain and is in no constraint: no dual
    wipes out, yet there is no solution."""
    p = Problem(["a", "b", "c"], [[0, 1], [0, 1], []],
                [Constraint((0, 1), relation=[(0, 1), (1, 0)])])
    for algorithm in ALGORITHMS:
        result = solve(p, algorithm)
        assert (result.verdict, result.nodes) == ("UNSAT", 0), algorithm
    assert not pwac(build_double(p)).consistent


def test_mhac_full_branches_on_duals_and_assigns_their_scope():
    p = six_var_linear()
    result = solve(p, "MHAC-2001-full", ordering=FIXED, record_nodes=True)
    assert result.verdict == "SAT"
    assert list(result.solution) in [list(s) for s in enumerate_solutions(p)]


# ---------------------------------------------------------------------------
# dual completion, limits, determinism


def test_induced_assignment_after_sat_run():
    p = six_var_linear()
    enc = build_hve(p)
    engine = make_engine(enc, ALGORITHMS["MHAC-2001"], ordering=FIXED)
    result = engine.solve()
    assert result.verdict == "SAT"
    # raises unless every dual is a singleton and the duals agree
    induced = tuple(induced_assignment(enc, engine.state))
    assert induced == result.solution
    assert induced in set(enumerate_solutions(p))


def test_induced_assignment_zero_duals():
    p = Problem(["a"], [[0, 1]], [])
    enc = build_hve(p)
    assert induced_assignment(enc, enc.fresh_state()) == [0]


def test_induced_assignment_is_the_first_live_values_at_sat():
    """Encoded lanes with original variables extract a solution through
    `induced_assignment`. At a SAT leaf every dual is a singleton that
    agrees with the first live value of each original, so that is the
    assignment the originals alone would give."""
    lanes = ["hFC0", "hFC1", "hFC2", "hFC3", "hFC4", "hFC5", "MHAC-2001",
             "MHAC-2001-full", "MAC-2001d", "MAC-PW-ACd", "dFC0", "dFC1",
             "dFC2", "dFC3", "dFC4", "dFC5", "MAC-hybrid"]
    sat = {}
    problems = list(_suite(12)) + [six_var_linear()]
    for p in problems:
        for algorithm in lanes:
            spec = ALGORITHMS[algorithm]
            model = prepare_model(p, spec, range(0, len(p.constraints), 2))
            engine = make_engine(model, spec, ordering=FIXED)
            result = engine.solve()
            if result.verdict != "SAT":
                continue
            sat[algorithm] = sat.get(algorithm, 0) + 1
            first_live = [engine.state.live_values(x)[0] for x in range(p.n)]
            assert induced_assignment(model, engine.state) == first_live, algorithm
            assert result.solution == tuple(first_live), algorithm
    assert set(sat) == set(lanes), sat


def test_node_limit_verdict():
    p = gen_parity_chain(3)
    r = solve(p, "MHAC-2001", ordering=FIXED, node_limit=5)
    assert r.verdict == "NODE_LIMIT" and r.nodes == 5


def test_determinism_same_run_twice():
    p = gen_model_b(ModelBParams(8, 3, 3, 15, 45, 3))
    for algorithm in ("MGAC-2001", "MAC-PW-AC", "MAC-PW-ACd", "hFC3"):
        r1 = run(p, algorithm)
        r2 = run(p, algorithm)
        assert (r1.verdict, r1.nodes, r1.solution, r1.node_paths,
                r1.counters.snapshot()) == \
               (r2.verdict, r2.nodes, r2.solution, r2.node_paths,
                r2.counters.snapshot())


def test_de_lane_solution_projection():
    p = six_var_linear()
    for algorithm in ("MAC-2001", "MAC-PW-AC"):
        result = solve(p, algorithm, ordering=FIXED)
        assert result.verdict == "SAT"
        assert tuple(result.solution) in set(enumerate_solutions(p))


def test_residual_gac_stops_at_the_first_dual_wipeout(monkeypatch):
    """MAC-hybrid with every other constraint residual: once the double
    encoding's value deletion reports a wipeout within one propagation, no
    residual GAC-2001 arc revision starts in it. The node paths of the 20
    runs are those recorded before the residual layer stopped there."""
    import hashlib
    from bincsp import propagate, search
    seen = {"revisions": 0, "wipeouts": 0, "late": 0, "failed": False}
    revise_arc = propagate.Gac2001.revise_arc
    delete_value = search.DoubleEngine.delete_value
    maintain = search.DoubleEngine._maintain

    def counted_revise_arc(self, *args):
        seen["revisions"] += 1
        seen["late"] += seen["failed"]
        return revise_arc(self, *args)

    def watched_delete_value(self, *args):
        ok = delete_value(self, *args)
        if not ok:
            seen["wipeouts"] += 1
            seen["failed"] = True
        return ok

    def one_propagation(self, *args):
        seen["failed"] = False
        return maintain(self, *args)

    monkeypatch.setattr(propagate.Gac2001, "revise_arc", counted_revise_arc)
    monkeypatch.setattr(search.DoubleEngine, "delete_value", watched_delete_value)
    monkeypatch.setattr(search.DoubleEngine, "_maintain", one_propagation)
    paths = []
    for seed in range(20):
        p = gen_model_b(ModelBParams(12, 4, 3, 12, 40 + seed, seed))
        enc = build_double(p, encoded_subset=range(0, len(p.constraints), 2))
        assert enc.residual_constraints
        paths.append(solve(enc, "MAC-hybrid", ordering=DOM_DEG, node_limit=500,
                           record_nodes=True).node_paths)
    assert seen["revisions"] > 10_000 and seen["wipeouts"] > 50
    assert seen["late"] == 0
    assert hashlib.sha256(repr(paths).encode()).hexdigest()[:16] == "b27be245d671f894"


def test_crossword_toy_two_solutions():
    p = gen_crossword(CrosswordSpec(("...",), ("cat", "dog")))
    assert len(enumerate_solutions(p)) == 2
    result = solve(p, "MGAC-2001")
    assert result.verdict == "SAT"


def test_hybrid_requires_mac():
    enc = build_double(six_var_linear(), encoded_subset=[0, 1])
    # neither forward checking nor generic AC-2001 on the double view
    # propagates the residual constraints
    for algorithm in ("dFC3", "MAC-2001d"):
        with pytest.raises(ValueError, match="cannot search a hybrid model"):
            solve(enc, algorithm)
    solutions = set(enumerate_solutions(six_var_linear()))
    result = solve(enc, "MAC-hybrid", ordering=FIXED)
    assert result.verdict == "SAT"
    assert tuple(result.solution) in solutions
    # on the plain problem, `solve` builds the default subset itself
    result = solve(six_var_linear(), "MAC-hybrid")
    assert result.verdict == "SAT"
    assert tuple(result.solution) in solutions


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        solve(six_var_linear(), "MAC-42")


def test_unknown_ordering_rejected():
    """A misspelt ordering is refused, not run under dom/deg."""
    p = gen_model_b(ModelBParams(12, 4, 3, 15, 45, 2))
    for ordering in ("fixd", "dom_deg"):
        with pytest.raises(ValueError, match=f"unknown ordering '{ordering}'"):
            solve(p, "MGAC-2001", ordering=ordering)
    fixed, heuristic = solve(p, "MGAC-2001", ordering=FIXED), solve(p, "MGAC-2001")
    assert (fixed.nodes, fixed.counters.checks) == (16, 17586)
    assert (heuristic.nodes, heuristic.counters.checks) == (9, 11504)


def test_lookahead_set_operation():
    """The same forward-checking selection over the constraints and over the
    duals of the HVE of the six-variable example, after assigning x1."""
    from bincsp.search import _fc_selected
    p = six_var_linear()
    scopes = [set(c.scope) for c in p.constraints]
    dual_scopes = [set(v.scope) for v in build_hve(p).duals]
    assigned = [True, False, False, False, False, False]
    assert _fc_selected(scopes, assigned, {0}, 2) == [0, 1]  # c1, c2 contain x1
    assert _fc_selected(scopes, assigned, {0}, 5) == [0, 1]
    assert _fc_selected(dual_scopes, assigned, {0}, 3) == [0, 1]


def test_fc_selected_sets_split_by_level():
    from bincsp.search import _fc_selected
    # two ternary constraints sharing the current variable, both with two
    # future variables: levels 0/1 select nothing, level 2 selects both
    scopes = [{0, 1, 2}, {0, 3, 4}]
    assigned = [True, False, False, False, False]
    assert _fc_selected(scopes, assigned, {0}, 1) == []
    assert _fc_selected(scopes, assigned, {0}, 2) == [0, 1]
    # a constraint with a past-but-not-current variable and a future variable
    # is selected at level 4 but not at level 2
    scopes = [{1, 2, 3}]
    assigned = [True, True, False, False]
    assert _fc_selected(scopes, assigned, {0}, 2) == []
    assert _fc_selected(scopes, assigned, {0}, 4) == [0]
    # a dual assignment makes every variable of its scope current: c1
    # assigns x1, x2, x6; c2, c3 and c4 keep unassigned variables, and
    # only c4 exactly one
    dual_scopes = [set(v.scope) for v in build_hve(six_var_linear()).duals]
    assigned = [True, True, False, False, False, True]
    assert _fc_selected(dual_scopes, assigned, {0, 1, 5}, 2) == [1, 2, 3]
    assert _fc_selected(dual_scopes, assigned, {0, 1, 5}, 0) == [3]


def test_fc_plus_hierarchy_levels_0_to_2():
    for p in _suite(12):
        ns = _node_sets(p, ["hFC0", "hFC1", "hFC2"])
        assert ns["hFC1"] <= ns["hFC0"], p.name
        assert ns["hFC2"] <= ns["hFC1"], p.name


def test_prop_51_hfc_prunes_exactly_the_two_tuples():
    p = prop_51()
    enc = build_hve(p)
    engine = make_engine(enc, ALGORITHMS["hFC2"], ordering=FIXED)
    assert engine.root_propagate()
    assert engine.assign(0, 0)           # x1 <- 0
    assert engine.lookahead(0)           # no dead end in the hidden encoding
    live = {v.id: [v.tuples[i] for i in engine.state.live_tuples(v.id)]
            for v in enc.duals}
    assert live[0] == [(0, 0, 1, 0), (0, 1, 0, 1)]   # (1,1,0,1) pruned
    assert live[1] == [(0, 0, 0, 0), (0, 1, 1, 1)]   # (1,0,0,0) pruned
    assert engine.state.domains_as_lists()[1:] == [[0, 1]] * 4  # originals kept


def test_search_on_intensional_constraints():
    from bincsp.core import Predicate
    constraints = [
        Constraint((0, 1, 2), predicate=Predicate("separation", s=1)),
        Constraint((2, 3, 4), predicate=Predicate("separation", s=2)),
        Constraint((0, 4), predicate=Predicate("linear", coeffs=(1, -1),
                                               rel="!=", const=0)),
    ]
    p = Problem([f"f{i}" for i in range(5)], [list(range(8))] * 5, constraints)
    expected = "SAT" if enumerate_solutions(p, limit=1) else "UNSAT"
    for algorithm in ("nFC0", "nFC2", "nFC5", "MGAC-2001",
                      "hFC2", "MHAC-2001", "MAC-PW-AC", "MAC-PW-ACd"):
        result = solve(p, algorithm, ordering=FIXED)
        assert result.verdict == expected, algorithm
        if result.verdict == "SAT":
            from bincsp.core import solution_check
            assert solution_check(p, result.solution)


def test_unsat_search_restores_state_exactly():
    """An exhausted search must unwind every change back to the state it had
    right after root propagation (whose own trail entries are permanent)."""
    unsat = [p for p in _suite(25) if not enumerate_solutions(p, limit=1)]
    assert unsat, "suite should contain insoluble instances"
    for p in unsat[:4]:
        for algorithm in ("MGAC-2001", "MHAC-2001", "hFC3", "dFC4",
                          "MAC-PW-ACd", "MAC-PW-AC", "MAC-2001d", "MAC-hybrid"):
            spec = ALGORITHMS[algorithm]
            model = prepare_model(p, spec, range(0, len(p.constraints), 2))
            engine = make_engine(model, spec, ordering=FIXED)
            if not engine.root_propagate():
                continue  # refuted before any node: nothing to unwind
            state = engine.state
            masks, counts = [bytearray(m) for m in state.masks], list(state.counts)
            if state.dual_masks is not None:
                dual_masks = [bytearray(m) for m in state.dual_masks]
                dual_counts = list(state.dual_counts)
            mark = len(engine.trail)
            assert not engine._descend()  # UNSAT
            assert len(engine.trail) == mark, algorithm
            assert state.masks == masks, algorithm
            assert state.counts == counts, algorithm
            if state.dual_masks is not None:
                assert state.dual_masks == dual_masks, algorithm
                assert state.dual_counts == dual_counts, algorithm
            # group and value-support counters must equal fresh counts
            pw = getattr(engine, "pw", None)
            if pw is not None:
                _assert_all_counted(engine)
                for dec, counts in pw.counts.items():
                    assert counts == dec.fresh_counters(engine.state), algorithm


def _assert_all_counted(engine):
    """Every pair side's decomposition is counted, and so, under the value
    rule, is every hidden arc's."""
    enc, counted = engine.enc, engine.pw.counts
    expected = {side for pair in enc.dual_pairs for side in (pair.side1, pair.side2)}
    if engine.pw.value_queue is not None:
        expected |= {enc.decompositions[v, (x,)] for v, x, _ in enc.hidden}
    assert set(counted) == expected, engine.spec.name


def test_derived_counters_are_right_after_every_undo():
    """Group and value-support counters are not trailed: undoing a tuple
    deletion re-derives them. After every undo, not only once a search is
    exhausted, they must equal a fresh count over the live tuples. The
    value supports are the counters of the hidden arcs' decompositions."""
    verdicts, undos = set(), {}
    for seed, q in enumerate((45, 50, 55, 60, 65), start=1):
        p = gen_model_b(ModelBParams(15, 4, 3, 8, q, seed))
        for algorithm in ("MAC-PW-AC", "MAC-PW-ACd", "dFC1", "dFC3", "dFC5",
                          "MAC-hybrid"):
            spec = ALGORITHMS[algorithm]
            model = prepare_model(p, spec, range(0, len(p.constraints), 2))
            engine = make_engine(model, spec, ordering=DOM_DEG, node_limit=200)

            def checked_undo(mark, engine=engine, undo=engine.undo_to):
                undo(mark)
                undos[engine.spec.name] = undos.get(engine.spec.name, 0) + 1
                _assert_all_counted(engine)
                assert_counters_match_live_members(engine.pw, engine.state)

            engine.undo_to = checked_undo
            verdicts.add(engine.solve().verdict)
    assert {"SAT", "UNSAT"} <= verdicts
    assert min(undos.values()) >= 20 and len(undos) == 6, undos


def test_fc1_reads_exactly_the_duals_that_lost_tuples_from_the_trail():
    """hFC1 and dFC1 revise the duals named by the node's "dt" trail
    entries, one per batch of deleted tuples. Those must be exactly the
    duals whose live count fell since the node began."""
    checked = {}
    for seed, q in enumerate((45, 55, 65), start=1):
        p = gen_model_b(ModelBParams(15, 4, 3, 8, q, seed))
        for algorithm in ("hFC1", "dFC1"):
            spec = ALGORITHMS[algorithm]
            engine = make_engine(prepare_model(p, spec), spec, ordering=DOM_DEG,
                                 node_limit=300)
            before = []

            def assign(var, val, engine=engine, assign=engine.assign):
                before[:] = engine.state.dual_counts
                return assign(var, val)

            def fc_low_level(current_vars, engine=engine,
                             fc_low_level=engine._fc_low_level):
                named = {v for head, v, _ in engine.trail[engine.node_mark:]
                         if head == "dt"}
                fell = {v for v, (was, now) in
                        enumerate(zip(before, engine.state.dual_counts)) if now < was}
                assert named == fell, engine.spec.name
                checked[engine.spec.name] = checked.get(engine.spec.name, 0) + bool(fell)
                return fc_low_level(current_vars)

            engine.assign, engine._fc_low_level = assign, fc_low_level
            engine.solve()
    assert set(checked) == {"hFC1", "dFC1"} and min(checked.values()) >= 20, checked


def test_dfc0_and_dfc1_equal_hfc0_and_hfc1_but_in_group_updates():
    """A value deletion scans its carrying tuples at one micro-op each on
    the double encoding as on the HVE, so dFC0 and dFC1, which add no
    propagation between duals, equal hFC0 and hFC1 in verdict, node paths
    and every counter but group updates, which only PW-AC keeps."""
    from test_counters_pinned import INSTANCES
    problems = [gen_model_b(params) for params in INSTANCES.values()]
    problems += [gen_model_b(ModelBParams(12, 4, 3, 10, 40 + s, s)) for s in range(20)]
    problems.append(gen_parity_chain(4))
    verdicts = set()
    for p in problems:
        hve, double = build_hve(p), build_double(p)
        for level in (0, 1):
            for ordering in (FIXED, DOM_DEG):
                outcomes = []
                for model, lane in ((hve, "hFC"), (double, "dFC")):
                    r = solve(model, f"{lane}{level}", ordering=ordering,
                              node_limit=500, record_nodes=True)
                    counters = r.counters.snapshot()
                    del counters["group_updates"]
                    outcomes.append((r.verdict, r.node_paths, counters))
                assert outcomes[0] == outcomes[1], (p.name, level, ordering)
                verdicts.add(outcomes[0][0])
    assert verdicts == {"SAT", "UNSAT", "NODE_LIMIT"}


def test_every_deletion_reports_exactly_the_wipeout_it_causes():
    """On every engine kind, `delete_value(x, a)` returns False exactly
    when it empties x or some dual, and `delete_tuples(v, idxs)` exactly
    when it empties v. Random deletions from the full domains, until one
    empties a domain."""
    rng = random.Random(23)
    p = gen_model_b(ModelBParams(6, 3, 3, 30, 40, 4))
    double = build_double(p)
    hybrid = build_double(p, encoded_subset=range(0, len(p.constraints), 2))
    lanes = [(p, "MGAC-2001"), (build_hve(p), "MHAC-2001"),
             (double, "MAC-PW-ACd"), (hybrid, "MAC-hybrid"),
             (build_de(p), "MAC-2001"), (double, "MAC-2001d")]
    for model, algorithm in lanes:
        seen = set()
        for _ in range(30):
            engine = make_engine(model, ALGORITHMS[algorithm])
            state = engine.state
            has_duals = bool(state.dual_counts)
            ok = True
            while ok:
                if has_duals and rng.random() < 0.5:
                    kind, v = "tuples", rng.randrange(len(state.dual_counts))
                    live = state.live_tuples(v)
                    ok = engine.delete_tuples(v, rng.sample(live, rng.randint(1, len(live))))
                else:
                    kind, x = "value", rng.choice(range(p.n))
                    ok = engine.delete_value(x, rng.choice(state.live_values(x)))
                assert ok == (all(state.counts) and all(state.dual_counts or ())), \
                    (algorithm, kind)
                seen.add((kind, ok))
        kinds = ("value", "tuples") if has_duals else ("value",)
        assert seen == {(kind, ok) for kind in kinds for ok in (True, False)}, algorithm


def test_fc_lanes_on_the_double_encoding_queue_nothing():
    """dFCi revises pair sides itself and never drains the PW-AC queue, so
    nothing may be pushed onto it. Nodes and counters are those the lanes
    had while they still filled it."""
    p = gen_model_b(ModelBParams(20, 4, 3, 5, 55, 1001))
    expected = {"dFC3": ("UNSAT", 142, (72121, 82759, 792, 25546, 541326)),
                "dFC5": ("UNSAT", 59, (39058, 61316, 570, 19723, 417039))}
    keys = ("checks", "microops", "value_removals", "tuple_removals", "group_updates")
    for algorithm, pinned in expected.items():
        spec = ALGORITHMS[algorithm]
        engine = make_engine(prepare_model(p, spec), spec, ordering=DOM_DEG,
                             node_limit=2000)
        lookaheads = []

        def checked_lookahead(var, engine=engine, lookahead=engine.lookahead):
            ok = lookahead(var)
            lookaheads.append(ok)
            assert not engine.pw.queue and engine.pw.value_queue is None
            return ok

        engine.lookahead = checked_lookahead
        assert not engine.pw.queue  # nothing queued when counting starts
        result = engine.solve()
        snapshot = result.counters.snapshot()
        assert (result.verdict, result.nodes,
                tuple(snapshot[k] for k in keys)) == pinned, algorithm
        assert len(lookaheads) > 50 and not all(lookaheads), algorithm


def test_deep_chain_is_searched_without_recursion():
    """Search depth is not bounded by the interpreter's recursion limit."""
    n = 1500
    equal = [(0, 0), (1, 1)]
    p = Problem([f"x{i}" for i in range(n)], [[0, 1]] * n,
                [Constraint((i, i + 1), relation=equal) for i in range(n - 1)])
    for algorithm in ("MGAC-2001", "MAC-PW-AC", "MAC-PW-ACd"):
        result = solve(p, algorithm, ordering=FIXED)
        assert result.verdict == "SAT", algorithm
        assert set(result.solution) == {0}, algorithm


def test_generic_and_specialized_mac_agree_per_encoding():
    """AC-2001 and the specialized propagator enforce the same consistency on
    a given encoding, so the MAC node sequences coincide."""
    for p in _suite(15):
        a = run(p, "MAC-2001")
        b = run(p, "MAC-PW-AC")
        assert a.node_paths == b.node_paths, p.name
        c = run(p, "MAC-2001d")
        d = run(p, "MAC-PW-ACd")
        assert c.node_paths == d.node_paths, p.name


def test_parity_chain_refuted_at_depth_two():
    p = gen_parity_chain(3)
    r = run(p, "MAC-PW-ACd")
    assert r.verdict == "UNSAT"
    assert max(len(path) for path in r.node_paths) == 2


def test_zero_constraint_problem_is_sat_everywhere():
    p = Problem(["a", "b"], [[0, 1], [0, 1, 2]], [])
    for algorithm in ("nFC2", "MGAC-2001", "MHAC-2001", "MAC-PW-ACd"):
        r = solve(p, algorithm, ordering=FIXED)
        assert r.verdict == "SAT" and r.nodes == 2


def _relation_scan(c, state, counters):
    """Any valid tuple left in the relation? One micro-op per tuple scanned."""
    masks = state.masks
    for t in c.relation:
        counters.microops += 1
        if all(masks[x][t[p]] for p, x in enumerate(c.scope)):
            return True
    return False


def test_byte_lane_wipeout_test_counts_like_the_relation_scan():
    """nFC2-nFC5's wipe-out test reads a relation through columns, of bytes
    up to 256 values and of 16-bit values beyond. On one-constraint problems
    under random 0/1 masks it must give the tuple-by-tuple scan's verdict
    and count its micro-ops: the scan to the first valid tuple, or the
    whole relation when none is valid."""
    rng = random.Random(17)
    problems = []
    for _ in range(40):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        space = list(itertools.product(*map(range, sizes)))
        problems.append((sizes, rng.sample(space, rng.randint(0, len(space)))))
    problems.append(([256, 3], [(a, a % 3) for a in range(0, 256, 5)]))
    problems.append(([300, 3], [(a, a % 3) for a in range(0, 300, 7)]))
    outcomes = set()
    for sizes, rel in problems:
        p = Problem([f"x{i}" for i in range(len(sizes))],
                    [list(range(d)) for d in sizes],
                    [Constraint(range(len(sizes)), relation=rel)])
        engine = make_engine(p, ALGORITHMS["nFC3"])
        for _ in range(25):
            keep = rng.random()
            for x, d in enumerate(sizes):
                engine.state.masks[x][:] = bytes(rng.random() < keep for _ in range(d))
            scan = Counters()
            expected = _relation_scan(p.constraints[0], engine.state, scan)
            before = engine.counters.microops
            assert engine._no_empty_unit() == expected, (sizes, rel)
            assert engine.counters.microops - before == scan.microops, (sizes, rel)
            outcomes.add((expected, bool(rel), max(sizes) > 256))
    # found and not found, on empty and non-empty relations, both column widths
    assert {(True, True, False), (False, True, False), (False, False, False),
            (True, True, True), (False, True, True)} <= outcomes


def test_no_propagator_is_entered_with_an_empty_domain(monkeypatch):
    """The fixpoints do not test for a domain that is empty before they
    start: the root's one test, and assignments that fail on a wipe-out,
    keep every lane from entering one so. Checked on every entry, at the
    root and below it, of seeded runs of every lane."""
    below_root = {}

    def guard(cls, name):
        run = getattr(cls, name)

        def entry(self, state, *args, **kw):
            assert all(state.counts) and all(state.dual_counts or ()), \
                (cls.__name__, name)
            if state.trail is not None:
                below_root[cls.__name__] = below_root.get(cls.__name__, 0) + 1
            return run(self, state, *args, **kw)

        monkeypatch.setattr(cls, name, entry)

    guard(propagate.UnitFixpoint, "run")
    guard(propagate.Ac2001, "run")
    guard(propagate.PwAc, "propagate")
    problems = list(_suite(4)) + list(criterion_1_suite(250))
    verdicts = set()
    for p in problems:
        hybrid = build_double(p, encoded_subset=range(0, len(p.constraints), 2))
        for algorithm in ALGORITHMS:
            model = hybrid if algorithm == "MAC-hybrid" else p
            for ordering in (FIXED, DOM_DEG):
                verdicts.add(solve(model, algorithm, ordering=ordering,
                                   node_limit=300).verdict)
    assert {"SAT", "UNSAT"} <= verdicts
    assert min(below_root.values()) >= 100 and len(below_root) == 3, below_root

import pytest

from bincsp.core import Constraint, Problem, enumerate_solutions
from bincsp.encode import build_double, build_hve
from bincsp.gen import (CrosswordSpec, ModelBParams, gen_crossword,
                        gen_model_b, gen_parity_chain)
from bincsp.propagate import ValueSupports
from bincsp.search import (ALGORITHMS, DOM_DEG, FIXED,
                           complete_dual_assignments, make_engine,
                           prepare_model, solve)

from cases import prop_51, six_var_linear

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
    from bincsp.propagate import gac2001
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


def test_mhac_full_branches_on_duals_and_assigns_their_scope():
    p = six_var_linear()
    result = solve(p, "MHAC-2001-full", ordering=FIXED, record_nodes=True)
    assert result.verdict == "SAT"
    assert list(result.solution) in [list(s) for s in enumerate_solutions(p)]


# ---------------------------------------------------------------------------
# dual completion, limits, determinism


def test_complete_dual_assignments_after_sat_run():
    p = six_var_linear()
    enc = build_hve(p)
    engine = make_engine(enc, ALGORITHMS["MHAC-2001"], ordering=FIXED)
    result = engine.solve()
    assert result.verdict == "SAT"
    completion = complete_dual_assignments(enc, engine.state)
    assert set(completion) == {0, 1, 2, 3}
    induced = tuple(engine.state.live_values(x)[0] for x in range(p.n))
    assert induced in set(enumerate_solutions(p))


def test_complete_dual_assignments_zero_duals():
    p = Problem(["a"], [[0, 1]], [])
    enc = build_hve(p)
    assert complete_dual_assignments(enc, enc.fresh_state()) == {}


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


def test_crossword_toy_two_solutions():
    p = gen_crossword(CrosswordSpec(("...",), ("cat", "dog")))
    assert len(enumerate_solutions(p)) == 2
    result = solve(p, "MGAC-2001")
    assert result.verdict == "SAT"


def test_hybrid_requires_mac():
    enc = build_double(six_var_linear(), encoded_subset=[0, 1])
    with pytest.raises(ValueError):
        solve(enc, "dFC3")
    result = solve(enc, "MAC-hybrid", ordering=FIXED)
    assert result.verdict == "SAT"
    assert tuple(result.solution) in set(enumerate_solutions(six_var_linear()))


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        solve(six_var_linear(), "MAC-42")


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
            from bincsp.search import prepare_model
            if spec.representation == "HYBRID":
                model = build_double(p, encoded_subset=range(0, len(p.constraints), 2))
            else:
                model = p if spec.representation == "NONBINARY" else \
                    prepare_model(p, spec)
            engine = make_engine(model, spec, ordering=FIXED)
            if not engine.root_propagate():
                continue  # refuted before any node: nothing to unwind
            snapshot = engine.state.clone()
            mark = len(engine.trail)
            assert not engine._descend()  # UNSAT
            assert len(engine.trail) == mark, algorithm
            assert engine.state.masks == snapshot.masks, algorithm
            assert engine.state.counts == snapshot.counts, algorithm
            if snapshot.dual_masks is not None:
                assert engine.state.dual_masks == snapshot.dual_masks, algorithm
                assert engine.state.dual_counts == snapshot.dual_counts, algorithm
            # group counters must equal recomputed live counts after unwind
            pw = getattr(engine, "pw", None)
            if pw is not None and pw.pw is not None:
                for pair in model.dual_pairs:
                    for bit, side in ((0, pair.side1), (1, pair.side2)):
                        fresh = side.fresh_counters(engine.state)
                        assert pw.pw.counts[pair.index][bit] == fresh, algorithm
            # and so must the value-support counters of the double encoding
            vs = getattr(engine, "vs", None)
            if vs is not None:
                assert vs.counts == ValueSupports(model, engine.state).counts, \
                    algorithm


def test_derived_counters_are_right_after_every_undo():
    """Group and value-support counters are not trailed: undoing a tuple
    deletion re-derives them. After every undo, not only once a search is
    exhausted, they must equal a fresh count over the live tuples."""
    verdicts, undos = set(), {}
    for seed, q in enumerate((45, 50, 55, 60, 65), start=1):
        p = gen_model_b(ModelBParams(15, 4, 3, 8, q, seed))
        for algorithm in ("MAC-PW-AC", "MAC-PW-ACd", "dFC3", "dFC5", "MAC-hybrid"):
            spec = ALGORITHMS[algorithm]
            if spec.representation == "HYBRID":
                model = build_double(p, encoded_subset=range(0, len(p.constraints), 2))
            else:
                model = prepare_model(p, spec)
            engine = make_engine(model, spec, ordering=DOM_DEG, node_limit=200)

            def checked_undo(mark, engine=engine, undo=engine.undo_to):
                undo(mark)
                undos[engine.spec.name] = undos.get(engine.spec.name, 0) + 1
                engine.pw.check_counters(engine.state)  # raises on drift
                vs = getattr(engine, "vs", None)
                if vs is not None:
                    assert vs.counts == ValueSupports(engine.enc, engine.state).counts

            engine.undo_to = checked_undo
            verdicts.add(engine.solve().verdict)
    assert {"SAT", "UNSAT"} <= verdicts
    assert min(undos.values()) >= 20 and len(undos) == 5, undos


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

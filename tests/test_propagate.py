import itertools
import random

from bincsp.core import Constraint, Counters, DomainState, Problem, \
    ac1_fixpoint, enumerate_solutions
from bincsp.encode import build_de, build_double, build_hve
from bincsp.gen import ModelBParams, gen_model_b
from bincsp.propagate import (BOTH, DUAL_DUAL, HIDDEN_ONLY, Ac2001, DeView,
                              DoubleView, PwAc, PwState, ValueSupports,
                              ac2001, double_ac, gac2001, hac, pwac,
                              seed_assignment_hve, seed_assignment_nonbinary,
                              sgac_check)
from bincsp import search

from cases import appendix_a, example_42, example_51, six_var_linear


def _live_tuples_by_constraint(enc, state):
    return {enc.duals[v].constraint_index:
            {enc.duals[v].tuples[i] for i in state.live_tuples(v)}
            for v in range(len(enc.duals))}


# ---------------------------------------------------------------------------
# worked example: dual-encoding propagation saves the re-support scans


def test_example_42_ac2001_deletes_and_spends_six_checks_per_tuple():
    enc = build_de(example_42())
    counters = Counters(search_log=[])
    result = ac2001(enc, counters=counters)
    assert result.consistent
    live = _live_tuples_by_constraint(enc, result.state)
    # the two leading tuples of v_c1 and the first tuple of v_c2 are gone
    assert live[0] == {(1, 0, 1), (1, 1, 2)}
    assert live[1] == set(enc.duals[1].tuples) - {(0, 0, 0)}
    assert live[2] == set(enc.duals[2].tuples)
    # each failed re-support search for v_c1's leading tuples scanned all six
    # remaining tuples of v_c2
    failed_vc1 = [entry for entry in counters.search_log
                  if entry["bvar"] == 0 and not entry["found"]]
    assert [e["value"] for e in failed_vc1] == [0, 1]
    assert [e["checks"] for e in failed_vc1] == [6, 6]


def test_example_42_pwac_deletes_same_tuples_with_zero_checks():
    enc = build_de(example_42())
    result = pwac(enc)
    assert result.consistent
    assert result.counters.checks == 0
    assert result.counters.tuple_removals == 3
    ac = ac2001(enc)
    assert (_live_tuples_by_constraint(enc, result.state)
            == _live_tuples_by_constraint(enc, ac.state))


def test_example_42_no_propagation_in_nonbinary_or_hidden_encoding():
    p = example_42()
    g = gac2001(p)
    assert g.consistent and g.counters.value_removals == 0
    h = hac(build_hve(p))
    assert h.consistent
    assert h.counters.value_removals == 0 and h.counters.tuple_removals == 0


def test_pwac_counter_integrity_after_run():
    from bincsp.propagate import PwAc
    for p in [example_42()] + list(_random_suite(10)):
        enc = build_de(p)
        engine = PwAc(enc)
        state = enc.fresh_state()
        engine.run(state)
        engine.check_counters(state)


# ---------------------------------------------------------------------------
# worked example: the double encoding refutes an SGAC problem


def test_example_51_dual_dual_refutes():
    p = example_51()
    enc = build_double(p)
    assert double_ac(enc, DUAL_DUAL).verdict == "INCONSISTENT"
    assert double_ac(enc, BOTH).verdict == "INCONSISTENT"


def test_example_51_gac_sees_nothing():
    p = example_51()
    result = gac2001(p)
    assert result.verdict == "CONSISTENT"
    assert result.counters.value_removals == 0
    hidden = double_ac(build_double(p), HIDDEN_ONLY)
    assert hidden.consistent and hidden.counters.value_removals == 0


def test_example_51_is_sgac_yet_insoluble():
    p = example_51()
    assert sgac_check(p)
    assert enumerate_solutions(p) == []


def test_sgac_false_on_gac_wipeout():
    p = Problem(["a", "b"], [[0, 1]] * 2, [Constraint((0, 1), relation=[])])
    assert not sgac_check(p)


def test_sgac_true_when_every_value_extends_to_a_solution():
    for seed in range(15):
        p = gen_model_b(ModelBParams(5, 3, 3, 40, 85, seed))
        sols = enumerate_solutions(p)
        extends = all(any(s[x] == a for s in sols)
                      for x in range(p.n) for a in range(p.domain_size(x)))
        if extends:
            assert sgac_check(p)


def test_double_ac_both_equals_hidden_only_without_intersections():
    p = Problem(["a", "b", "c", "d", "e", "f"], [[0, 1]] * 6,
                [Constraint((0, 1, 2), relation=[(0, 0, 0), (1, 1, 1)]),
                 Constraint((3, 4, 5), relation=[(0, 1, 0), (1, 0, 1)])])
    enc = build_double(p)
    assert enc.dual_pairs == []
    rb = double_ac(enc, BOTH)
    rh = double_ac(enc, HIDDEN_ONLY)
    assert rb.consistent == rh.consistent
    assert rb.state.domains_as_lists() == rh.state.domains_as_lists()
    assert rb.state.dual_domains_as_lists() == rh.state.dual_domains_as_lists()


# ---------------------------------------------------------------------------
# worked example: early wipeout detection in the hidden encoding


def test_appendix_a_hac_detects_wipeout_with_fewer_checks():
    p = appendix_a()

    g_state = DomainState.full(p)
    g_counters = Counters()
    g_seed = seed_assignment_nonbinary(p, g_state, 0, 0)
    g = gac2001(p, g_state, queue_seed=g_seed, counters=g_counters,
                assigned=[True, False, False, False])

    enc = build_hve(p)
    h_state = enc.fresh_state()
    h_counters = Counters()
    ok, h_seed = seed_assignment_hve(enc, h_state, 0, 0, h_counters)
    assert ok
    h = hac(enc, h_state, queue_seed=h_seed, counters=h_counters,
            assigned=[True, False, False, False])

    assert g.verdict == "INCONSISTENT"
    assert h.verdict == "INCONSISTENT"
    assert g_state.counts[1] == 0          # x2 wiped in the flat problem
    assert h_counters.checks < g_counters.checks
    # pinned to the canonical LIFO queue ordering
    assert (h_counters.checks, g_counters.checks) == (5, 28)


def test_appendix_a_consistent_before_assignment():
    p = appendix_a()
    ok, state = ac1_fixpoint(p)
    # x2=1 has no support in c2 even before assigning x1
    assert ok
    assert state.live_values(1) == [0]


# ---------------------------------------------------------------------------
# cross-algorithm fixpoint equality on random instances


def _random_suite(count=60):
    for seed in range(count):
        q = 5 + (seed * 6) % 90
        yield gen_model_b(ModelBParams(10, 4, 3, 10, q, seed))


def test_fixpoint_equivalence_gac_hac_ac1():
    for p in _random_suite():
        g = gac2001(p)
        h = hac(build_hve(p))
        ok, oracle = ac1_fixpoint(p)
        assert g.consistent == h.consistent == ok
        if ok:
            assert (g.state.domains_as_lists() == h.state.domains_as_lists()
                    == oracle.domains_as_lists())


def test_fixpoint_equivalence_pwac_ac2001_on_de():
    for p in _random_suite():
        enc = build_de(p)
        a = ac2001(enc)
        w = pwac(enc)
        assert a.consistent == w.consistent
        if a.consistent:
            assert (_live_tuples_by_constraint(enc, a.state)
                    == _live_tuples_by_constraint(enc, w.state))


def test_check_counts_equal_on_arc_consistent_instances():
    for p in _random_suite():
        gc, hc = Counters(), Counters()
        g = gac2001(p, counters=gc)
        h = hac(build_hve(p), counters=hc)
        if g.consistent and h.consistent:
            assert gc.checks == hc.checks
        else:
            assert hc.checks <= gc.checks


def test_gac_fixpoint_confluent_under_constraint_permutation():
    p = six_var_linear()
    reference = None
    for order in itertools.permutations(range(4)):
        shuffled = Problem(p.variables, p.domains,
                           [p.constraints[i] for i in order])
        result = gac2001(shuffled)
        domains = result.state.domains_as_lists()
        if reference is None:
            reference = (result.consistent, domains)
        assert (result.consistent, domains) == reference


def test_pwac_confluent_under_constraint_permutation():
    p = example_42()
    reference = None
    for order in itertools.permutations(range(3)):
        shuffled = Problem(p.variables, p.domains,
                           [p.constraints[i] for i in order])
        enc = build_de(shuffled)
        result = pwac(enc)
        live = _live_tuples_by_constraint(enc, result.state)
        canonical = {order[ci]: tuples for ci, tuples in live.items()}
        if reference is None:
            reference = (result.consistent, canonical)
        assert (result.consistent, canonical) == reference


def test_propagation_preserves_solutions():
    for p in itertools.islice(_random_suite(), 25):
        sols = enumerate_solutions(p)
        g = gac2001(p)
        if not g.consistent:
            assert sols == []
            continue
        live = g.state.domains_as_lists()
        for s in sols:
            assert all(s[x] in live[x] for x in range(p.n))


def test_gac_handles_intensional_constraints():
    from bincsp.core import Predicate
    p = Problem([f"f{i}" for i in range(4)], [list(range(8))] * 4,
                [Constraint((0, 1, 2, 3), predicate=Predicate("separation", s=1))])
    state = DomainState.full(p)
    state.remove_value(0, 0)
    result = gac2001(p, state)
    # compare against the oracle run from the same seeded state
    seeded = DomainState.full(p)
    seeded.remove_value(0, 0)
    ok, oracle = ac1_fixpoint(p, seeded)
    assert result.consistent == ok
    if ok:
        assert result.state.domains_as_lists() == oracle.domains_as_lists()


def test_gac_detects_infeasible_separation():
    from bincsp.core import Predicate
    # gaps must exceed 2, so four values need a spread of 9 > 7: empty relation
    p = Problem([f"f{i}" for i in range(4)], [list(range(8))] * 4,
                [Constraint((0, 1, 2, 3), predicate=Predicate("separation", s=2))])
    assert not gac2001(p).consistent


def test_pwac_dual_domains_within_hac_surviving_tuples():
    # AC on the dual encoding is stronger: its surviving tuples are a subset
    # of the tuples still valid after AC on the hidden encoding
    for p in _random_suite(30):
        enc_hve = build_hve(p)
        h = hac(enc_hve)
        enc_de = build_de(p)
        w = pwac(enc_de)
        if not (h.consistent and w.consistent):
            continue
        for v in enc_de.duals:
            hve_live = {i for i in range(len(v.tuples))
                        if h.state.dual_masks[v.id][i]}
            de_live = set(w.state.live_tuples(v.id))
            assert de_live <= hve_live, (p.name, v.id)


def test_hidden_only_with_residuals_matches_flat_gac():
    # hybrid: half the constraints encoded; hidden-level AC plus residual
    # GAC must land on the flat GAC fixpoint for the original domains
    from bincsp.propagate import HIDDEN_ONLY
    for p in _random_suite(20):
        subset = list(range(0, len(p.constraints), 2))
        enc = build_double(p, encoded_subset=subset)
        r = double_ac(enc, HIDDEN_ONLY)
        g = gac2001(p)
        assert r.consistent == g.consistent, p.name
        if g.consistent:
            assert r.state.domains_as_lists() == g.state.domains_as_lists()


def test_dual_dual_with_residuals_at_least_as_strong_as_flat_gac():
    from bincsp.propagate import DUAL_DUAL
    for p in _random_suite(20):
        subset = list(range(0, len(p.constraints), 2))
        enc = build_double(p, encoded_subset=subset)
        r = double_ac(enc, DUAL_DUAL)
        g = gac2001(p)
        if not g.consistent:
            assert not r.consistent, p.name
        if r.consistent:
            for x in range(p.n):
                assert set(r.state.live_values(x)) <= \
                    set(g.state.live_values(x)), (p.name, x)


def test_hac_empty_seed_spends_no_checks():
    from cases import six_var_linear
    enc = build_hve(six_var_linear())
    counters = Counters()
    r = hac(enc, enc.fresh_state(), queue_seed=[], counters=counters)
    assert r.consistent and counters.checks == 0


def test_pwac_no_empty_groups_means_zero_iterations():
    from cases import example_41
    enc = build_de(example_41())  # full relations: every group is populated
    r = pwac(enc)
    assert r.consistent
    assert r.counters.tuple_removals == 0 and r.counters.group_updates == 0
    a = ac2001(enc)  # already arc consistent: the generic engine agrees
    assert a.consistent and a.counters.tuple_removals == 0


def test_group_and_value_support_counts_match_live_members():
    enc = build_double(gen_model_b(ModelBParams(10, 4, 3, 10, 40, 3)))
    full = enc.fresh_state()
    partial = enc.fresh_state()
    for v in enc.duals:
        for idx in range(0, len(v.tuples), 3):
            partial.dual_masks[v.id][idx] = 0
            partial.dual_counts[v.id] -= 1
    for state in (full, partial):
        engine = PwAc(enc)
        engine.pw = PwState(enc, state)
        engine.check_counters(state)  # raises on any counter off its live count
        counts = ValueSupports(enc, state).counts
        for v in enc.duals:
            mask = state.dual_masks[v.id]
            assert counts[v.id] == [[sum(1 for i in idxs if mask[i]) for idxs in bypv]
                                    for bypv in v.tuples_by_pos_val]


# ---------------------------------------------------------------------------
# indexed AC-2001 against the lexicographic scan it replaces


def _compatible(view, arc_id, side, a, b):
    kind, data = view.arcs[arc_id]
    if kind == "hidden":
        v, _, pos = data
        tuples = view.enc.duals[v].tuples
        return tuples[a][pos] == b if side == 0 else tuples[b][pos] == a
    keys_a, keys_b = (data.keys1, data.keys2) if side == 0 else (data.keys2, data.keys1)
    return keys_a[a] == keys_b[b]


class _ScanAc2001(Ac2001):
    """Reference AC-2001: scan the peer domain from pointer + 1; each live
    value is one check and each dead one a micro-op."""

    def revise(self, arc_id, side, state):
        view, counters = self.view, self.counters
        bx, by = view.ends[arc_id][side], view.ends[arc_id][1 - side]
        xmask, ymask = view.mask(bx, state), view.mask(by, state)
        pointers = self.pointers[arc_id][side]
        deleted, remaining = False, None
        for a in range(len(xmask)):
            if not xmask[a]:
                continue
            ptr = pointers[a]
            if ptr >= 0:
                counters.microops += 1
                if ymask[ptr]:
                    continue
            found, scanned = -1, 0
            for b in range(ptr + 1, len(ymask)):
                if not ymask[b]:
                    counters.microops += 1
                    continue
                counters.checks += 1
                scanned += 1
                if _compatible(view, arc_id, side, a, b):
                    found = b
                    break
            if counters.search_log is not None:
                counters.search_log.append({"bvar": bx, "value": a, "arc": arc_id,
                                            "peer": by, "checks": scanned,
                                            "found": found >= 0})
            if found >= 0:
                if self.trail is not None:
                    self.trail.append(("ap", arc_id, side, a, ptr))
                pointers[a] = found
                continue
            remaining = view.remove(bx, a, state, counters, self.trail)
            deleted = True
        return deleted, remaining


def _indexed_suite():
    """Model B instances from refuted at the root, through refuted or solved
    after backtracking, to loose."""
    for seed in range(32):
        q = 24 + (seed * 5) % 40
        if seed % 2 == 0:
            yield gen_model_b(ModelBParams(10, 4, 3, 10, q, seed))
        else:
            yield gen_model_b(ModelBParams(8, 3, 4, 10, q, seed))


def _scattered_pointers(view, state, seed):
    """Arbitrary start pointers, so that values of one group differ."""
    rng = random.Random(seed)
    pointers = []
    for ends in view.ends:
        sizes = [len(view.mask(b, state)) for b in ends]
        pointers.append([[rng.randrange(-1, sizes[1 - side]) for _ in range(sizes[side])]
                         for side in (0, 1)])
    return pointers


def _ac2001_outcome(engine_cls, enc, pointer_seed=None):
    view = DeView(enc) if enc.kind == "DE" else DoubleView(enc)
    state = enc.fresh_state()
    pointers = None if pointer_seed is None else \
        _scattered_pointers(view, state, pointer_seed)
    counters = Counters(search_log=[])
    ok = engine_cls(view, counters, pointers).run(state)
    return (ok, counters.checks, counters.microops, counters.value_removals,
            counters.tuple_removals, state.domains_as_lists(),
            state.dual_domains_as_lists(), counters.search_log)


def test_indexed_ac2001_counts_like_the_linear_scan():
    verdicts = set()
    for seed, p in enumerate(_indexed_suite()):
        for enc in (build_de(p), build_double(p)):
            for pointer_seed in (None, seed):
                fast = _ac2001_outcome(Ac2001, enc, pointer_seed)
                assert fast == _ac2001_outcome(_ScanAc2001, enc, pointer_seed), \
                    (p.name, enc.kind, pointer_seed)
                verdicts.add(fast[0])
    assert verdicts == {True, False}


def test_indexed_mac2001_searches_like_the_linear_scan(monkeypatch):
    """Node sequences and counters also cover pointer restores on backtrack."""
    runs = [(i, p, algo, ordering) for i, p in enumerate(_indexed_suite())
            for algo in ("MAC-2001", "MAC-2001d")
            for ordering in (search.FIXED, search.DOM_DEG)]

    def outcomes():
        out = {}
        for i, p, algo, ordering in runs:
            r = search.solve(p, algo, ordering=ordering, record_nodes=True)
            out[i, algo, ordering] = (r.verdict, r.node_paths, r.counters.snapshot())
        return out

    with monkeypatch.context() as m:
        m.setattr(search, "Ac2001", _ScanAc2001)
        expected = outcomes()
    assert {v[0] for v in expected.values()} == {"SAT", "UNSAT"}
    # nodes beyond the deepest path were left by backtracking
    backtracks = sum(len(paths) - max(map(len, paths), default=0)
                     for _, paths, _ in expected.values())
    assert backtracks >= 20
    assert outcomes() == expected

import itertools
import random

from bincsp.core import Constraint, Counters, DomainState, GapRows, Predicate, \
    Problem, ac1_fixpoint, enumerate_solutions, expand_predicate, is_valid
from bincsp.encode import EncodedProblem, build_de, build_double, build_hve
from bincsp.gen import ModelBParams, gen_model_b, gen_rlfa
from bincsp.propagate import Ac2001, Gac2001, Hac, PwAc, _pred_enum
from bincsp import search
from bincsp.search import (ALGORITHMS, Ac2001Engine, HveEngine, NonBinaryEngine,
                           ac2001, gac2001, hac, pwac, sgac_check)

from cases import (appendix_a, assert_counters_match_live_members,
                   criterion_1_suite, example_42, example_51, six_var_linear)


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
        engine.init_counts(state)
        engine.propagate(state)
        assert_counters_match_live_members(engine, state)


# ---------------------------------------------------------------------------
# worked example: the double encoding refutes an SGAC problem


def test_example_51_dual_dual_refutes():
    p = example_51()
    enc = build_double(p)
    assert pwac(enc).verdict == "INCONSISTENT"


def test_example_51_gac_sees_nothing():
    p = example_51()
    result = gac2001(p)
    assert result.verdict == "CONSISTENT"
    assert result.counters.value_removals == 0
    hidden = pwac(build_hve(p))
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


def test_pwac_on_the_double_equals_the_hve_without_intersections():
    p = Problem(["a", "b", "c", "d", "e", "f"], [[0, 1]] * 6,
                [Constraint((0, 1, 2), relation=[(0, 0, 0), (1, 1, 1)]),
                 Constraint((3, 4, 5), relation=[(0, 1, 0), (1, 0, 1)])])
    enc = build_double(p)
    assert enc.dual_pairs == []
    rb = pwac(enc)
    rh = pwac(build_hve(p))
    assert rb.consistent == rh.consistent
    assert rb.state.domains_as_lists() == rh.state.domains_as_lists()
    assert rb.state.dual_domains_as_lists() == rh.state.dual_domains_as_lists()


# ---------------------------------------------------------------------------
# worked example: early wipeout detection in the hidden encoding


def test_appendix_a_hac_detects_wipeout_with_fewer_checks():
    p = appendix_a()

    g_counters = Counters()
    g = NonBinaryEngine(p, ALGORITHMS["MGAC-2001"], counters=g_counters)
    g_ok = g.assign(0, 0) and g.lookahead(0)

    h_counters = Counters()
    h = HveEngine(build_hve(p), ALGORITHMS["MHAC-2001"], counters=h_counters)
    assert h.assign(0, 0)
    h_ok = h.lookahead(0)

    assert not g_ok
    assert not h_ok
    assert g.state.counts[1] == 0          # x2 wiped in the flat problem
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
# one empty-domain rule for every root propagator and the oracle


def test_a_domain_empty_from_the_start_is_a_wipeout_everywhere():
    """Variable a has no value: in no constraint, then under an empty unary
    relation. Every root propagator, pwac on each encoding and the AC-1
    oracle on each representation report a wipe-out."""
    for c in (Constraint((1,), relation=[(0,)]), Constraint((0,), relation=[])):
        p = Problem(["a", "b"], [[], [0, 1]], [c])
        hve, de, double = build_hve(p), build_de(p), build_double(p)
        verdicts = {
            "gac2001": gac2001(p).consistent,
            "hac": hac(hve).consistent,
            "ac2001": ac2001(de).consistent,
            "pwac": pwac(de).consistent,
            "pwac double": pwac(double).consistent,
            "pwac hve": pwac(hve).consistent,
        }
        for name, target in (("problem", p), ("hve", hve), ("de", de),
                             ("double", double)):
            verdicts["ac1_fixpoint " + name] = ac1_fixpoint(target)[0]
        assert not any(verdicts.values()), (c, verdicts)


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
    # value 0 of f0 is removed by a unary constraint, which both see
    p = Problem([f"f{i}" for i in range(4)], [list(range(8))] * 4,
                [Constraint((0, 1, 2, 3), predicate=Predicate("separation", s=1)),
                 Constraint((0,), relation=[(a,) for a in range(1, 8)])])
    result = gac2001(p)
    ok, oracle = ac1_fixpoint(p)
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
    # hybrid: half the constraints encoded, without their dual-dual
    # constraints; hidden-level AC plus residual GAC must land on the flat
    # GAC fixpoint for the original domains
    for p in _random_suite(20):
        subset = list(range(0, len(p.constraints), 2))
        hybrid = build_double(p, encoded_subset=subset)
        enc = EncodedProblem(hybrid.kind, p, hybrid.duals, hybrid.hidden, [],
                             hybrid.residual_constraints, hybrid.decompositions)
        r = pwac(enc)
        g = gac2001(p)
        assert r.consistent == g.consistent, p.name
        if g.consistent:
            assert r.state.domains_as_lists() == g.state.domains_as_lists()


def test_dual_dual_with_residuals_at_least_as_strong_as_flat_gac():
    for p in _random_suite(20):
        subset = list(range(0, len(p.constraints), 2))
        enc = build_double(p, encoded_subset=subset)
        r = pwac(enc)
        g = gac2001(p)
        if not g.consistent:
            assert not r.consistent, p.name
        if r.consistent:
            for x in range(p.n):
                assert set(r.state.live_values(x)) <= \
                    set(g.state.live_values(x)), (p.name, x)


def test_pwac_reaches_the_ac1_fixpoint_of_its_encoding():
    """pwac is AC on the double encoding and on the HVE, as the brute-force
    oracle computes them, on original domains."""
    verdicts = set()
    for p in _random_suite():
        for enc in (build_double(p), build_hve(p)):
            r = pwac(enc)
            ok, oracle = ac1_fixpoint(enc)
            assert r.consistent == ok, (p.name, enc.kind)
            if ok:
                assert r.state.domains_as_lists() == oracle.domains_as_lists(), \
                    (p.name, enc.kind)
            verdicts.add((enc.kind, ok))
    assert verdicts == {("DOUBLE", True), ("DOUBLE", False),
                        ("HVE", True), ("HVE", False)}


def _mhac_host(enc, counters=None):
    """An MHAC-2001 engine, whose state and value deletion a standalone HAC
    uses."""
    return HveEngine(enc, ALGORITHMS["MHAC-2001"], counters=counters)


def _mgac_host(p, counters=None):
    """As `_mhac_host`, an MGAC-2001 engine for a standalone GAC-2001."""
    return NonBinaryEngine(p, ALGORITHMS["MGAC-2001"], counters=counters)


def test_hac_empty_seed_spends_no_checks():
    from cases import six_var_linear
    enc = build_hve(six_var_linear())
    counters = Counters()
    host = _mhac_host(enc, counters)
    assert Hac(enc, counters, host.delete_value).run(host.state, host.assigned,
                                                     queue_seed=[])
    assert counters.checks == 0


def _two_arms():
    """a, b, c in {0,1}: (a,b) in {(0,0),(0,1)} and (a,c) in {(1,0)}, so
    each constraint alone fixes a, to opposite values."""
    return Problem(["a", "b", "c"], [[0, 1]] * 3,
                   [Constraint((0, 1), relation=[(0, 0), (0, 1)]),
                    Constraint((0, 2), relation=[(1, 0)])])


def test_only_hac_revise_arc_reports_the_dual_wipeout_it_causes():
    """Removing a = 1 (unsupported in the first constraint) deletes the only
    tuple of the second dual: HAC reports the wipeout from the arc, while
    GAC-2001 deletes no tuples and reports none."""
    p = _two_arms()
    enc = build_hve(p)
    host = _mhac_host(enc)
    state = host.state
    assert Hac(enc, host.counters, host.delete_value).revise_arc(0, 0, state) == (True, True)
    assert state.counts == [1, 2, 2] and state.dual_counts == [2, 0]

    host = _mgac_host(p)
    state = host.state
    assert Gac2001(p, host.counters, host.delete_value).revise_arc(0, 0, state) == (True, False)
    assert state.counts == [1, 2, 2]
    assert not gac2001(p).consistent and not hac(enc).consistent


def test_unit_fixpoint_subset_revises_and_queues_only_its_units():
    """With `subset`, GAC-2001 revises only those constraints, even when a
    deletion touches a variable shared with a constraint outside it."""
    p = _two_arms()
    for subset, domains in (([0], [[0], [0, 1], [0, 1]]),
                            ([1], [[1], [0, 1], [0]])):
        for queue_seed in (None, subset):
            host = _mgac_host(p)
            state = host.state
            assert Gac2001(p, host.counters, host.delete_value).run(
                state, host.assigned, queue_seed=queue_seed, subset=subset)
            assert state.domains_as_lists() == domains, (subset, queue_seed)


def test_gac2001_supports_start_unset_and_end_on_supporting_tuples():
    """One `supports[ci][pos]` list per arc: -1 before the first search on a
    relation, None on a predicate; after the fixpoint every live value's
    entry names a valid tuple holding it at pos."""
    p = Problem(["a", "b", "c"], [[0, 1, 2]] * 3,
                [Constraint((0, 1), relation=[(0, 1), (1, 2), (2, 2)]),
                 Constraint((1, 2), predicate=Predicate(
                     "linear", coeffs=(1, 1), rel=">=", const=3))])
    host = _mgac_host(p)
    engine = Gac2001(p, host.counters, host.delete_value)
    assert engine.supports == [[[-1] * 3, [-1] * 3], [[None] * 3, [None] * 3]]
    state = host.state
    assert engine.run(state, host.assigned)
    assert state.domains_as_lists() == [[0, 1, 2], [1, 2], [1, 2]]
    rel, pred = p.constraints
    for pos, x in enumerate(rel.scope):
        for a in state.live_values(x):
            t = rel.relation[engine.supports[0][pos][a]]
            assert t[pos] == a and is_valid(t, rel.scope, state)
    for pos, x in enumerate(pred.scope):
        for a in state.live_values(x):
            t = engine.supports[1][pos][a]
            assert t[pos] == a and is_valid(t, pred.scope, state)
            assert pred.predicate.holds(p.tuple_labels(pred, t))


def _recording_ac2001(enc):
    """AC-2001 on `enc` whose deletion hooks only record their calls, and
    whose `revise` records the masks it is given and deletes nothing."""
    calls = []
    ac = Ac2001(enc, Counters(),
                lambda x, a: calls.append(("value", x, a)) or True,
                lambda v, idxs: calls.append(("tuples", v, idxs)) or True)
    ac.revise = lambda arc_id, side, state, masks: calls.append(masks) or (False, False)
    return ac, calls


def test_ac2001_numbers_the_originals_only_when_the_encoding_has_them():
    """On the dual encoding the binary variables are the duals, ids 0..m-1;
    on the double encoding the originals come first, then the duals, and
    the hidden arcs precede the dual-dual arcs. A deletion reaches the
    engine's value deletion on an original and its tuple deletion on a
    dual, under the dual's own id."""
    p = example_51()
    de, double = build_de(p), build_double(p)
    ac, calls = _recording_ac2001(de)
    m = len(de.duals)
    assert ac.first_dual == 0 and len(ac.adjacency) == m
    assert all(0 <= b < m for ends in ac.ends for b in ends)
    assert len(ac.sides) == len(de.arcs) == len(de.dual_pairs)
    assert ac.delete(m - 1, [0]) and calls == [("tuples", m - 1, [0])]
    state = de.fresh_state()
    calls.clear()
    assert ac.run(state)
    assert calls and all(masks is state.dual_masks for masks in calls)

    ac, calls = _recording_ac2001(double)
    n = p.n
    assert ac.first_dual == n and len(ac.adjacency) == n + len(double.duals)
    assert ac.delete(n - 1, [0, 1]) and ac.delete(n, [2])
    assert calls == [("value", n - 1, 0), ("value", n - 1, 1), ("tuples", 0, [2])]
    assert len(ac.sides) == len(double.arcs) == \
        len(double.hidden) + len(double.dual_pairs)
    # the dual-dual arcs follow the hidden ones, in pair order
    assert all(sides[0][1] is pair.side1.members and sides[1][1] is pair.side2.members
               for sides, pair in zip(ac.sides[len(double.hidden):], double.dual_pairs))
    assert ac.ends[:len(double.hidden)] == \
        [(n + v, x) for v, x, _ in double.hidden]
    state = double.fresh_state()
    calls.clear()
    assert ac.run(state)
    assert calls and all(masks == state.masks + state.dual_masks for masks in calls)


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
        engine.init_counts(state)
        assert set(engine.counts) == set(enc.decompositions.values())
        assert_counters_match_live_members(engine, state)
        # a hidden arc's groups are the values: group a counts the live
        # tuples carrying a at that position
        for v in enc.duals:
            mask = state.dual_masks[v.id]
            for pos, x in enumerate(v.scope):
                counts = engine.counts[enc.decompositions[v.id, (x,)]]
                assert counts == [sum(1 for i, t in enumerate(v.tuples)
                                      if t[pos] == a and mask[i])
                                  for a in range(enc.problem.domain_size(x))]


def test_every_propagator_reads_the_arcs_of_the_encoding():
    """One arc-side table: on a double encoding, AC-2001's triples of the
    hidden arcs, every PW-AC counter key and every list HAC's eager
    deletion walks are objects of `enc.arcs` itself, not copies."""
    p = next(criterion_1_suite())
    enc = build_double(p)
    hidden = enc.arcs[:len(enc.hidden)]
    sides = [side for arc in enc.arcs for side in (arc.side1, arc.side2)]
    ac = search.make_engine(enc, search.ALGORITHMS["MAC-2001d"]).ac
    for arc_id, arc in enumerate(hidden):
        for triple, own, peer in zip(ac.sides[arc_id], (arc.side1, arc.side2),
                                     (arc.side2, arc.side1)):
            group_of, members, peer_members = triple
            assert group_of is own.tuple_group and members is own.members
            assert peer_members is peer.members
    engine = search.make_engine(enc, search.ALGORITHMS["MAC-PW-ACd"])
    assert engine.pw.counts
    assert all(any(dec is side for side in sides) for dec in engine.pw.counts)
    # the eager deletion of value a of x walks group a of each dual side on x
    host = _mhac_host(enc)
    for hac_engine in (Hac(enc, host.counters, host.delete_value), engine.fixpoint):
        for x in range(p.n):
            on_x = [arc.side1 for arc in hidden if arc.side2.owner == x]
            assert len(hac_engine.var_sides[x]) == len(on_x)
            assert all(mine is side for mine, side in zip(hac_engine.var_sides[x], on_x))
        # and its support search reads the side of arc (v, x, pos) by position
        flat = [side for by_pos in hac_engine.dual_sides for side in by_pos]
        assert len(flat) == len(hidden)
        assert all(mine is arc.side1 for mine, arc in zip(flat, hidden))


def test_dual_encoding_lanes_build_no_value_index(monkeypatch):
    """A dual encoding has no hidden arcs, so neither its build nor a
    MAC-2001 or MAC-PW-AC run on it builds a value index."""
    from bincsp import core, encode, propagate
    builds = []

    def counted(tuples, sizes, index=core.value_index):
        builds.append(len(tuples))
        return index(tuples, sizes)

    for module in (core, encode, propagate):
        monkeypatch.setattr(module, "value_index", counted)
    p = next(criterion_1_suite())
    enc = build_de(p)
    for algorithm in ("MAC-2001", "MAC-PW-AC"):
        search.solve(enc, algorithm)
    assert builds == []
    double = build_double(p)  # one index per tuple list where there are hidden arcs
    assert len(builds) == len({id(v.tuples) for v in double.duals}) > 0


# ---------------------------------------------------------------------------
# indexed AC-2001 against the lexicographic scan it replaces


def _compatible(enc, arc_id, side, a, b):
    hidden = enc.hidden
    if arc_id < len(hidden):
        v, _, pos = hidden[arc_id]
        tuples = enc.duals[v].tuples
        return tuples[a][pos] == b if side == 0 else tuples[b][pos] == a
    data = enc.dual_pairs[arc_id - len(hidden)]
    ends = ((data.v1, data.pos1), (data.v2, data.pos2))
    (va, pos_a), (vb, pos_b) = ends[side], ends[1 - side]
    ta, tb = enc.duals[va].tuples[a], enc.duals[vb].tuples[b]
    return [ta[p] for p in pos_a] == [tb[p] for p in pos_b]


class _ScanAc2001(Ac2001):
    """Reference AC-2001 with one pointer per value: scan the peer domain
    from pointer + 1; each live value is one check and each dead one a
    micro-op. With `group_pointers`, every value starts at its group's
    pointer there."""

    def __init__(self, enc, counters, delete_value, delete_tuples,
                 group_pointers=None):
        super().__init__(enc, counters, delete_value, delete_tuples)
        self.enc = enc
        self.pointers = [[[-1 if group_pointers is None else
                           group_pointers[arc_id][side][g] for g in sides[side][0]]
                          for side in (0, 1)]
                         for arc_id, sides in enumerate(self.sides)]

    def revise(self, arc_id, side, state, masks):
        counters = self.counters
        bx, by = self.ends[arc_id][side], self.ends[arc_id][1 - side]
        xmask, ymask = masks[bx], masks[by]
        pointers = self.pointers[arc_id][side]
        deleted = False
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
                if _compatible(self.enc, arc_id, side, a, b):
                    found = b
                    break
            if counters.search_log is not None:
                counters.search_log.append({"bvar": bx, "value": a, "arc": arc_id,
                                            "peer": by, "checks": scanned,
                                            "found": found >= 0})
            if found >= 0:
                state.set_slot(pointers, a, found)
                continue
            deleted = True
            if not self.delete(bx, [a]):
                return True, True
        return deleted, False


def _indexed_suite():
    """Model B instances from refuted at the root, through refuted or solved
    after backtracking, to loose."""
    for seed in range(32):
        q = 24 + (seed * 5) % 40
        if seed % 2 == 0:
            yield gen_model_b(ModelBParams(10, 4, 3, 10, q, seed))
        else:
            yield gen_model_b(ModelBParams(8, 3, 4, 10, q, seed))


def _group_rich_suite(count):
    """Model B <14,5,3,8,q>: sparse scopes over domains of 5, so most pairs
    share one variable, and loose enough that a group holds over 5 tuples
    on average; MAC search still backtracks."""
    for seed in range(count):
        yield gen_model_b(ModelBParams(14, 5, 3, 8, 40 + (seed * 7) % 15, seed))


def _scattered_pointers(enc, seed):
    """Arbitrary start pointers per group, so that searches start mid-domain.
    A side's peer domain has one `tuple_group` entry per value."""
    rng = random.Random(seed)
    return [[[rng.randrange(-1, len(peer.tuple_group)) for _ in own.members]
             for own, peer in ((arc.side1, arc.side2), (arc.side2, arc.side1))]
            for arc in enc.arcs]


def _ac2001_outcome(engine_cls, enc, pointer_seed=None):
    counters = Counters(search_log=[])
    # the engine whose state and deletions the run uses
    host = Ac2001Engine(enc, ALGORITHMS["MAC-2001"], counters=counters)
    state = host.state
    hooks = (host.delete_value, host.delete_tuples)
    group_pointers = None if pointer_seed is None else \
        _scattered_pointers(enc, pointer_seed)
    if engine_cls is _ScanAc2001:
        engine = _ScanAc2001(enc, counters, *hooks, group_pointers)
    else:
        engine = engine_cls(enc, counters, *hooks)
        if group_pointers is not None:
            engine.pointers = group_pointers
    ok = engine.run(state)
    return (ok, counters.checks, counters.microops, counters.value_removals,
            counters.tuple_removals, state.domains_as_lists(),
            state.dual_domains_as_lists(), counters.search_log)


def _root_verdicts_checked_against_the_linear_scan(problems):
    """Assert that the root runs of `problems` match the reference; return
    the verdicts seen."""
    verdicts = set()
    for seed, p in enumerate(problems):
        for enc in (build_de(p), build_double(p)):
            for pointer_seed in (None, seed):
                fast = _ac2001_outcome(Ac2001, enc, pointer_seed)
                assert fast == _ac2001_outcome(_ScanAc2001, enc, pointer_seed), \
                    (p.name, enc.kind, pointer_seed)
                verdicts.add(fast[0])
    return verdicts


def test_indexed_ac2001_counts_like_the_linear_scan():
    assert _root_verdicts_checked_against_the_linear_scan(_indexed_suite()) == {True, False}


def test_group_major_ac2001_counts_like_the_linear_scan_on_large_groups():
    problems = list(_group_rich_suite(4))
    # scattered pointers skip supports, so some of those runs wipe out
    assert _root_verdicts_checked_against_the_linear_scan(problems) == {True, False}
    # the family is as group-rich as its docstring says
    for p in problems:
        enc = build_de(p)
        state = enc.fresh_state()
        values = groups = 0
        for arc in enc.arcs:
            for dec in (arc.side1, arc.side2):
                mask = state.dual_masks[dec.owner]
                values += sum(mask)
                groups += len(set(itertools.compress(dec.tuple_group, mask)))
        assert values / groups >= 5


def _assert_mac2001_searches_like_the_linear_scan(monkeypatch, problems, backtracks_at_least):
    """Node sequences and counters also cover pointer restores on backtrack."""
    runs = [(i, p, algo, ordering) for i, p in enumerate(problems)
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
    assert backtracks >= backtracks_at_least
    assert outcomes() == expected


def test_indexed_mac2001_searches_like_the_linear_scan(monkeypatch):
    _assert_mac2001_searches_like_the_linear_scan(monkeypatch, list(_indexed_suite()), 20)


def test_group_major_mac2001_searches_like_the_linear_scan_on_large_groups(monkeypatch):
    _assert_mac2001_searches_like_the_linear_scan(monkeypatch, list(_group_rich_suite(2)), 50)


def test_ac2001_on_the_hve_reaches_the_hac_fixpoint():
    verdicts = set()
    for p in _random_suite():
        enc = build_hve(p)
        a, h = ac2001(enc), hac(enc)
        assert a.consistent == h.consistent, p.name
        if a.consistent:
            assert a.state.domains_as_lists() == h.state.domains_as_lists(), p.name
            assert a.state.dual_domains_as_lists() == h.state.dual_domains_as_lists(), p.name
        verdicts.add(a.consistent)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# predicate support search against the enumeration it replaced


def _reference_pred_enum(problem, c, pos, a, state, after, tight0, counters,
                         forward_check=False):
    """`_pred_enum` before the gap table: every value index of a level costs
    one micro-op, dead values and values other than a at pos are skipped in
    the loop, and each new label is tested against every earlier one.

    With `forward_check` on a gap kind, a placed value's subtree is skipped
    when some later position has no live value compatible with every placed
    label."""
    pred = c.predicate
    doms = [problem.domains[x] for x in c.scope]
    sizes = [len(d) for d in doms]
    k = len(sizes)
    masks = state.masks
    scope = c.scope
    labels = [None] * k
    prefix = []
    gap_kind = pred.kind in ("separation", "rich_separation")

    def gap(i, j):
        if pred.kind == "separation":
            return pred.s
        return pred.s2 if (i in pred.subset or j in pred.subset) else pred.s

    def allowed(j, b):
        return masks[scope[j]][b] and (j != pos or b == a)

    def partial_ok(upto):
        if not gap_kind:
            return True
        v, j = labels[upto - 1], upto - 1
        return all(abs(v - labels[i]) > gap(i, j) for i in range(upto - 1))

    def later_open(upto):
        # every later position keeps a live value far enough from each label
        return all(any(allowed(j, b) and all(abs(doms[j][b] - labels[i]) > gap(i, j)
                                             for i in range(upto))
                       for b in range(sizes[j]))
                   for j in range(upto, k))

    def rec(depth, tight):
        if depth == k:
            if tight:
                return None  # equal to `after`; we need strictly greater
            counters.checks += 1
            if pred.holds(labels):
                return tuple(prefix)
            return None
        lo = after[depth] if tight else 0
        for v in range(lo, sizes[depth]):
            counters.microops += 1
            if not allowed(depth, v):
                continue
            prefix.append(v)
            labels[depth] = doms[depth][v]
            res = None
            if partial_ok(depth + 1) and not (forward_check and gap_kind
                                              and not later_open(depth + 1)):
                res = rec(depth + 1, tight and v == lo)
            prefix.pop()
            if res is not None:
                return res
        return None

    return rec(0, tight0)


def _reference_fc_pred_enum(problem, c, pos, a, state, after, tight0, counters):
    """`_reference_pred_enum` with forward checking: a placed value of a gap
    kind whose placement leaves a later position without a compatible live
    value, found by brute force from the predicate, is stepped over without
    entering its subtree."""
    return _reference_pred_enum(problem, c, pos, a, state, after, tight0, counters,
                                forward_check=True)


def _hand_predicate_problems():
    """Linear, not_all_equal and parity_neq constraints over unsorted,
    scattered labels of different sizes per position."""
    labels = [[4, 0, 7, 2, 9], [1, 6, 3], [8, 2, 5, 0], [3, 1, 0, 6, 2, 5]]
    preds = [
        Predicate("linear", coeffs=(1, -2, 1, 3), rel="=", const=11),
        Predicate("linear", coeffs=(2, 1, -1, 1), rel=">=", const=9),
        Predicate("linear", coeffs=(1, 1, 1, 1), rel="<=", const=8),
        Predicate("linear", coeffs=(1, 3, -1, 2), rel="!=", const=4),
        Predicate("not_all_equal"),
        Predicate("parity_neq", pairs=((0, 2), (1, 3))),
    ]
    return [Problem([f"w{i}" for i in range(4)], labels,
                    [Constraint((0, 1, 2, 3), predicate=pred)]) for pred in preds]


HAND_GAP_LABELS = [[9, 2, 14, 5, 0, 11, 7], [3, 12, 6, 0, 15, 9], [10, 4, 17, 1, 13],
                   [0, 8, 16, 4, 12, 2], [6, 15, 2, 11, 19]]


def _hand_gap_problems():
    """Separation and rich_separation constraints over unsorted, scattered
    labels that differ by position, with `subset` at the ends and in the
    middle, at arities 4 and 5."""
    preds = [
        (Predicate("separation", s=1), 5), (Predicate("separation", s=2), 4),
        (Predicate("rich_separation", s=1, s2=3, subset=(0,)), 5),
        (Predicate("rich_separation", s=1, s2=3, subset=(4,)), 5),
        (Predicate("rich_separation", s=1, s2=2, subset=(2,)), 5),
        (Predicate("rich_separation", s=1, s2=4, subset=(1, 3)), 4),
        (Predicate("rich_separation", s=2, s2=3, subset=(3,)), 4),
    ]
    return [Problem([f"z{i}" for i in range(k)], HAND_GAP_LABELS[:k],
                    [Constraint(tuple(range(k)), predicate=pred)], name="hand_gap")
            for pred, k in preds]


def _short_and_wide_gap_problems():
    """Separations at arities 2 and 3, then over 300-value domains at the
    last position and the one before it, where byte lanes pass 256."""
    for pred in (Predicate("separation", s=1), Predicate("separation", s=3),
                 Predicate("rich_separation", s=1, s2=3, subset=(0,)),
                 Predicate("rich_separation", s=1, s2=4, subset=(1,))):
        for k in (2, 3):
            yield Problem([f"z{i}" for i in range(k)], HAND_GAP_LABELS[:k],
                          [Constraint(tuple(range(k)), predicate=pred)])
    rng = random.Random(7)
    labels = [HAND_GAP_LABELS[0], rng.sample(range(1000), 300), HAND_GAP_LABELS[2],
              rng.sample(range(1000), 300)]
    for pred in (Predicate("separation", s=3),
                 Predicate("rich_separation", s=2, s2=40, subset=(1,))):
        for scope in ((0, 1, 2), (2, 0, 1), (1, 3)):
            yield Problem([f"z{i}" for i in range(4)], labels,
                          [Constraint(scope, predicate=pred)])


def _pred_enum_suite():
    for seed in range(3):
        yield gen_rlfa("prob1", 20, seed)
        yield gen_rlfa("prob2", 25, seed)
    yield from _hand_predicate_problems()
    yield from _hand_gap_problems()
    yield from _short_and_wide_gap_problems()


def _random_state(p, scope, rng, density):
    state = DomainState.full(p)
    for x in scope:
        for b in range(p.domain_size(x)):
            if rng.random() > density:
                state.remove_value(x, b)
    return state


def test_pred_enum_counts_like_the_reference():
    """Random masks, positions, values and `after` tuples, tight or not:
    the tuple and checks of the plain enumeration, the micro-ops of the
    forward-checking one, and never more micro-ops than the plain one."""
    rng = random.Random(5)
    kinds, found, tight_found, hand_gap_found, wide_found, cut = set(), 0, 0, 0, 0, 0
    for p in _pred_enum_suite():
        for c in p.constraints:
            kinds.add(c.predicate.kind)
            tables = GapRows().tables(p, c)
            for trial in range(12):
                density = (0.35, 0.7, 1.0)[trial % 3]
                state = _random_state(p, c.scope, rng, density)
                pos = rng.randrange(-1, c.arity)
                a = rng.randrange(p.domain_size(c.scope[pos])) if pos >= 0 else -1
                tight = trial % 2 == 1
                after = (tuple(rng.randrange(p.domain_size(x)) for x in c.scope)
                         if tight else (-1,) * c.arity)
                if tight and pos >= 0 and rng.random() < 0.8:
                    after = after[:pos] + (a,) + after[pos + 1:]
                got, plain, fc = Counters(), Counters(), Counters()
                t = _pred_enum(p, c, pos, a, state, after, tight, got, tables)
                assert t == _reference_pred_enum(p, c, pos, a, state, after, tight, plain)
                assert t == _reference_fc_pred_enum(p, c, pos, a, state, after, tight, fc)
                assert (got.checks, got.microops) == (plain.checks, fc.microops), \
                    (p.name, c, pos, a, after, tight)
                assert got.microops <= plain.microops
                cut += got.microops < plain.microops
                found += t is not None
                tight_found += t is not None and tight
                hand_gap_found += t is not None and p.name == "hand_gap"
                wide_found += t is not None and max(map(p.domain_size, c.scope)) > 256
    assert kinds == set(Predicate.KINDS)
    assert found > 100 and tight_found > 30 and hand_gap_found > 20 and wide_found > 20
    assert cut > 500


def test_predicate_wipeout_test_counts_like_the_reference():
    """nFC2-nFC5's wipe-out test enumerates a predicate at position -1.
    Over the hand-built predicates, gap kinds included: the answer and
    checks of the plain reference enumeration, the micro-ops of the
    forward-checking one, and never more micro-ops than the plain one."""
    rng = random.Random(11)
    answers = set()
    for p in _hand_predicate_problems() + _hand_gap_problems():
        c = p.constraints[0]
        for trial in range(20):
            state = _random_state(p, c.scope, rng, (0.3, 0.6, 1.0)[trial % 3])
            got, plain, fc = Counters(), Counters(), Counters()
            engine = NonBinaryEngine(p, ALGORITHMS["nFC3"], counters=got)
            engine.state = state
            ok = engine._no_empty_unit()
            ref = _reference_pred_enum(p, c, -1, -1, state, (-1,) * c.arity, False, plain)
            assert ref == _reference_fc_pred_enum(p, c, -1, -1, state, (-1,) * c.arity,
                                                  False, fc)
            assert ok == (ref is not None), (c, trial)
            assert (got.checks, got.microops) == (plain.checks, fc.microops), (c, trial)
            assert got.microops <= plain.microops
            answers.add((c.predicate.kind in Predicate.GAP_KINDS, ok))
    assert answers == {(True, True), (True, False), (False, True), (False, False)}


def test_pred_enum_union_is_kept_apart_by_the_last_labels():
    """Two constraints share their second-to-last labels and gap, hence the
    rows over those values, but not their last labels. Their last positions
    hold equal masks over as many values, so a candidate set of one reads
    as the same int as a candidate set of the other."""
    labels = [[9, 2, 14, 5, 0, 11], [3, 12, 6, 0, 15, 9, 20], [10, 4, 17, 1, 13, 7],
              [1, 8, 16, 4, 19, 2], [6, 15, 2, 11, 19]]
    pred = Predicate("separation", s=2)
    p = Problem([f"z{i}" for i in range(5)], labels,
                [Constraint((0, 1, 2), predicate=pred),
                 Constraint((4, 1, 3), predicate=pred)])
    rows, rng = GapRows(), random.Random(3)
    tables = [rows.tables(p, c) for c in p.constraints]
    assert tables[0].pair.back is tables[1].pair.back
    assert tables[0].pair is not tables[1].pair
    found = 0
    for trial in range(80):
        state = _random_state(p, range(5), rng, (0.4, 0.7, 1.0)[trial % 3])
        state.masks[3][:] = state.masks[2]
        state.counts[3] = state.counts[2]
        for c, table in zip(p.constraints, tables):
            pos = rng.randrange(-1, 3)
            a = rng.randrange(p.domain_size(c.scope[pos])) if pos >= 0 else -1
            got, plain, fc = Counters(), Counters(), Counters()
            t = _pred_enum(p, c, pos, a, state, (-1,) * 3, False, got, table)
            assert t == _reference_pred_enum(p, c, pos, a, state, (-1,) * 3, False, plain)
            assert t == _reference_fc_pred_enum(p, c, pos, a, state, (-1,) * 3, False, fc)
            assert (got.checks, got.microops) == (plain.checks, fc.microops)
            assert got.microops <= plain.microops
            found += t is not None
    assert found > 40


def test_gap_rows_are_built_per_run():
    """Runs keep no rows on the problem, its constraints or its predicates,
    so every run builds the rows it reads."""
    p = gen_rlfa("prob1", 20, 0)
    objects = [p] + p.constraints + [c.predicate for c in p.constraints]
    attributes = [sorted(vars(obj)) for obj in objects]
    for algorithm in ("MGAC-2001", "MHAC-2001", "MAC-PW-ACd"):
        search.solve(p, algorithm, node_limit=20)
    assert [sorted(vars(obj)) for obj in objects] == attributes


# ---------------------------------------------------------------------------
# indexed HAC and GAC-2001 support search against the linear scan


def _scan_extension(rel, pos, a, start, accept, counters):
    """Lexicographic support scan; every scanned index is one tuple check."""
    for idx in range(start, len(rel)):
        counters.checks += 1
        t = rel[idx]
        if t[pos] != a:
            continue
        if accept(idx, t):
            return idx
    return -1


class _ScanHac(Hac):
    """HAC with the linear support scan the value index replaced."""

    def revise_arc(self, v, pos, state):
        counters = self.counters
        dual = self.enc.duals[v]
        x = dual.scope[pos]
        dmask = state.dual_masks[v]
        deleted = False

        def accept(i, t):
            counters.microops += 1
            return dmask[i]

        for a in state.live_values(x):
            ptr = self.supports[v][pos][a]
            if ptr >= 0:
                counters.microops += 1
                if dmask[ptr]:
                    continue
            idx = _scan_extension(dual.tuples, pos, a, ptr + 1, accept, counters)
            if idx >= 0:
                state.set_slot(self.supports[v][pos], a, idx)
                continue
            deleted = True
            if not self.delete_value(x, a):
                return True, True
        return deleted, False


class _ScanGac2001(Gac2001):
    """GAC-2001 with the linear support scan on relations that the value
    index replaced; predicates are searched as before."""

    def revise_arc(self, ci, pos, state):
        rel = self.rels[ci]
        if rel is None:
            return super().revise_arc(ci, pos, state)
        counters = self.counters
        c = self.problem.constraints[ci]
        x = c.scope[pos]
        deleted = False
        for a in state.live_values(x):
            ptr = self.supports[ci][pos][a]
            if ptr >= 0 and is_valid(rel[ptr], c.scope, state, counters, skip_pos=pos):
                continue
            idx = _scan_extension(
                rel, pos, a, ptr + 1,
                lambda i, t: is_valid(t, c.scope, state, counters, skip_pos=pos),
                counters)
            if idx >= 0:
                state.set_slot(self.supports[ci][pos], a, idx)
                continue
            deleted = True
            if not self.delete_value(x, a):
                return True, True
        return deleted, False


def _rlfa_suite():
    """rlfa prob1-prob3; prob3 at d = 25, whose relations are 5x smaller
    than at d = 20."""
    return [gen_rlfa("prob1", 20, 0), gen_rlfa("prob2", 20, 1), gen_rlfa("prob3", 25, 2)]


def _expanded(p):
    """The problem with every predicate expanded into its relation."""
    return Problem(p.variables, p.domains,
                   [Constraint(c.scope, relation=expand_predicate(p, c))
                    for c in p.constraints], name=p.name)


def _first_choice(state, assigned):
    """An unassigned variable with two live values or more, and its first."""
    for x, count in enumerate(state.counts):
        if count > 1 and not assigned[x]:
            return x, state.live_values(x)[0]
    return None


def _hac_outcome(engine_cls, enc):
    """Root HAC, then two assignments each propagated from its duals, so
    that searches also start from set pointers: verdicts, counters, support
    pointers and domains after every step."""
    counters = Counters()
    host = _mhac_host(enc, counters)
    engine = engine_cls(enc, counters, host.delete_value)
    state = host.state
    assigned = [False] * enc.problem.n
    steps = [engine.run(state, assigned=assigned)]
    for _ in range(2):
        choice = _first_choice(state, assigned) if steps[-1] else None
        if choice is None:
            break
        x, a = choice
        assigned[x] = True
        ok = all([host.delete_value(x, b) for b in state.live_values(x) if b != a])
        steps.append(ok and engine.run(state, queue_seed=enc.duals_of_var[x],
                                       assigned=assigned))
    return (steps, counters.snapshot(), engine.supports, state.domains_as_lists(),
            state.dual_domains_as_lists())


def _gac_outcome(engine_cls, p):
    """As `_hac_outcome`, for GAC-2001 on the non-binary problem."""
    counters = Counters()
    host = _mgac_host(p, counters)
    engine = engine_cls(p, counters, host.delete_value)
    state = host.state
    assigned = [False] * p.n
    steps = [engine.run(state, assigned=assigned)]
    for _ in range(2):
        choice = _first_choice(state, assigned) if steps[-1] else None
        if choice is None:
            break
        x, a = choice
        assigned[x] = True
        for b in state.live_values(x):
            if b != a:
                state.remove_value(x, b)
        steps.append(engine.run(state, queue_seed=p.constraints_of_var[x],
                                assigned=assigned))
    return (steps, counters.snapshot(), engine.supports, state.domains_as_lists())


def test_indexed_hac_counts_like_the_linear_scan():
    outcomes = []
    for p in list(_random_suite()) + list(criterion_1_suite()) + _rlfa_suite():
        enc = build_hve(p)
        fast = _hac_outcome(Hac, enc)
        assert fast == _hac_outcome(_ScanHac, enc), p.name
        outcomes.append(fast[0])
    # refuted at the root, refuted after an assignment, and consistent
    assert [False] in outcomes
    assert any(len(steps) > 1 and not steps[-1] for steps in outcomes)
    assert any(len(steps) == 3 and steps[-1] for steps in outcomes)


def test_indexed_gac2001_counts_like_the_linear_scan_on_relations():
    outcomes = []
    problems = list(_random_suite()) + list(criterion_1_suite())
    for p in problems + [_expanded(p) for p in _rlfa_suite()]:
        fast = _gac_outcome(Gac2001, p)
        assert fast == _gac_outcome(_ScanGac2001, p), p.name
        outcomes.append(fast[0])
    assert [False] in outcomes
    assert any(len(steps) > 1 and not steps[-1] for steps in outcomes)
    assert any(len(steps) == 3 and steps[-1] for steps in outcomes)


def test_indexed_hac_and_gac2001_search_like_the_linear_scan(monkeypatch):
    """Node sequences and counters of MHAC-2001, hFC3, dFC3 and MGAC-2001
    under both orderings, which also cover pointer restores on backtrack."""
    problems = list(_indexed_suite())[:16] + [gen_rlfa("prob1", 20, 0)]
    runs = [(i, p, algo, ordering) for i, p in enumerate(problems)
            for algo in ("MHAC-2001", "hFC3", "dFC3", "MGAC-2001")
            for ordering in (search.FIXED, search.DOM_DEG)]
    runs += [(len(problems), _expanded(problems[-1]), "MGAC-2001", ordering)
             for ordering in (search.FIXED, search.DOM_DEG)]

    def outcomes():
        out = {}
        for i, p, algo, ordering in runs:
            r = search.solve(p, algo, ordering=ordering, node_limit=300,
                             record_nodes=True)
            out[i, algo, ordering] = (r.verdict, r.node_paths, r.counters.snapshot())
        return out

    with monkeypatch.context() as m:
        m.setattr(search, "Hac", _ScanHac)
        m.setattr(search, "Gac2001", _ScanGac2001)
        expected = outcomes()
    assert {v[0] for v in expected.values()} >= {"SAT", "UNSAT"}
    backtracks = sum(len(paths) - max(map(len, paths), default=0)
                     for _, paths, _ in expected.values())
    assert backtracks >= 50
    assert outcomes() == expected

import itertools

import pytest

from bincsp.core import CapacityError, Constraint, Predicate, Problem, \
    enumerate_solutions, expand_predicate, project
from bincsp.encode import (DE, DOUBLE, HVE, HYBRID, build_de, build_double,
                           build_hve, induced_assignment)
from bincsp.gen import CrosswordSpec, ModelBParams, gen_crossword, gen_model_b
from bincsp.search import pwac
from bincsp.words import WORDS

from cases import criterion_1_suite, example_41, example_42, six_var_linear


def _side(enc, vi, vj):
    """The decomposition of D(v_i) in the dual-dual constraint with v_j."""
    pair, = [pair for pair in enc.dual_pairs if {pair.v1, pair.v2} == {vi, vj}]
    return pair.side1 if vi == pair.v1 else pair.side2


def _projections(enc, pair):
    """Each side's tuples projected on the pair's shared variables."""
    return tuple([project(t, enc.duals[v].scope, pair.shared) for t in enc.duals[v].tuples]
                 for v in (pair.v1, pair.v2))


def test_hve_of_six_var_example():
    enc = build_hve(six_var_linear())
    assert enc.kind == HVE
    assert enc.problem.n == 6 and len(enc.duals) == 4
    assert enc.variable_count == 10
    v_c3 = enc.duals[2]
    assert v_c3.tuples == [(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    # v_c3 is linked to x4, x5, x6 (indices 3, 4, 5)
    links = [(x, pos) for (v, x, pos) in enc.hidden if v == 2]
    assert links == [(3, 0), (4, 1), (5, 2)]
    assert enc.dual_pairs == []


def test_hve_zero_constraints():
    p = Problem(["a", "b"], [[0, 1]] * 2, [])
    enc = build_hve(p)
    assert enc.duals == [] and enc.hidden == []
    assert enc.variable_count == 2


def test_hve_crossword_6x6_counts():
    enc = build_hve(gen_crossword(CrosswordSpec.blank(6, 6)))
    assert len(enc.duals) == 12      # word slots
    assert enc.problem.n == 36       # letter cells
    assert len(enc.hidden) == 12 * 6


def test_de_pairs_of_six_var_example():
    enc = build_de(six_var_linear())
    assert enc.kind == DE and not enc.has_originals
    pairs = {(enc.duals[p.v1].constraint_index, enc.duals[p.v2].constraint_index):
             p for p in enc.dual_pairs}
    # c2 and c4 share no variable; the other five pairs intersect
    assert set(pairs) == {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}
    p34 = pairs[(2, 3)]
    assert [six_var_linear().variables[x] for x in p34.shared] == ["x5", "x6"]
    # the only compatible pairs between v_c3 and v_c4
    v3, v4 = enc.duals[2], enc.duals[3]
    keys3, keys4 = _projections(enc, p34)
    allowed = [(v3.tuples[i], v4.tuples[j])
               for i in range(len(v3.tuples)) for j in range(len(v4.tuples))
               if keys3[i] == keys4[j]]
    assert allowed == [((1, 0, 0), (0, 0, 0)), ((1, 1, 1), (0, 1, 1))]


def test_de_disjoint_scopes_make_no_pair():
    p = Problem(["a", "b", "c", "d"], [[0, 1]] * 4,
                [Constraint((0, 1), relation=[(0, 0)]),
                 Constraint((2, 3), relation=[(1, 1)])])
    assert build_de(p).dual_pairs == []


def test_de_shared_variables_of_example_42():
    enc = build_de(example_42())
    shared = {(p.v1, p.v2): [enc.problem.variables[x] for x in p.shared]
              for p in enc.dual_pairs}
    assert shared == {(0, 1): ["x3"], (1, 2): ["x2", "x4"]}


def test_double_counts_six_var():
    enc = build_double(six_var_linear())
    assert enc.kind == DOUBLE
    assert enc.variable_count == 10
    assert len(enc.hidden) == 12
    assert len(enc.dual_pairs) == 5
    assert enc.residual_constraints == []


def test_double_empty_subset_keeps_problem_nonbinary():
    p = six_var_linear()
    enc = build_double(p, encoded_subset=[])
    assert enc.kind == HYBRID
    assert enc.duals == [] and enc.hidden == [] and enc.dual_pairs == []
    assert enc.residual_constraints == [0, 1, 2, 3]


def test_hybrid_subset():
    p = six_var_linear()
    enc = build_double(p, encoded_subset=[0, 2])
    assert enc.kind == HYBRID
    assert [v.constraint_index for v in enc.duals] == [0, 2]
    assert enc.residual_constraints == [1, 3]
    # c1 and c3 share x6: exactly one dual-dual pair
    assert len(enc.dual_pairs) == 1


def test_decomposition_example_41_groups():
    enc = build_de(example_41())
    tuples = enc.duals[0].tuples
    dec12 = _side(enc, 0, 1)
    # shared variable x1 in first position: three groups keyed (0), (1), (2)
    assert dec12.group_count == 3
    assert [{tuples[i][0] for i in m} for m in dec12.members] == [{0}, {1}, {2}]
    assert all(len(m) == 9 for m in dec12.members)
    dec13 = _side(enc, 0, 2)
    # v3 holds x3 in its last position; groups keyed on v1's last component
    assert [{tuples[i][2] for i in m} for m in dec13.members] == [{0}, {1}, {2}]
    t = tuples.index((2, 0, 1))
    assert dec12.tuple_group[t] == 2
    assert dec13.tuple_group[t] == 1


def test_decomposition_full_scope_overlap_gives_singleton_groups():
    p = Problem(["a", "b"], [[0, 1]] * 2,
                [Constraint((0, 1), relation=[(0, 0), (1, 1)]),
                 Constraint((0, 1), relation=[(0, 0), (1, 0)])])
    enc = build_de(p)
    dec = _side(enc, 0, 1)
    assert all(len(m) <= 1 for m in dec.members)
    # keys realized on one side only still appear, with an empty member
    # list: groups (0, 0), (1, 0), (1, 1), where (1, 0) exists only in c2
    # and (1, 1) only in c1
    assert dec.members == [[0], [], [1]]
    assert _side(enc, 1, 0).members == [[0], [1], []]


def test_sup_links_are_symmetric_and_none_when_peer_missing():
    """The supporting group of id g is id g on the peer side: both sides
    count the same groups, every tuple of group g on either side carries the
    same shared-variable key, and a key realized on one side only is an
    empty group on the other."""
    p = Problem(["a", "b"], [[0, 1]] * 2,
                [Constraint((0, 1), relation=[(0, 0), (1, 1)]),
                 Constraint((0, 1), relation=[(0, 0), (1, 0)])])
    for enc in (build_de(p), build_de(example_42())):
        for pair in enc.dual_pairs:
            assert pair.side1.group_count == pair.side2.group_count
            t1 = enc.duals[pair.v1].tuples
            t2 = enc.duals[pair.v2].tuples
            for gid in range(pair.side1.group_count):
                keys = ({tuple(t1[i][q] for q in pair.pos1)
                         for i in pair.side1.members[gid]}
                        | {tuple(t2[j][q] for q in pair.pos2)
                           for j in pair.side2.members[gid]})
                assert len(keys) == 1, (pair, gid)
    # (1, 1) exists only in c1; its support on c2's side is missing
    enc = build_de(p)
    dec = _side(enc, 0, 1)
    peer = _side(enc, 1, 0)
    gid = dec.tuple_group[enc.duals[0].tuples.index((1, 1))]
    assert dec.members[gid] and not peer.members[gid]


def test_decomposition_partition_property():
    enc = build_de(example_42())
    for pair in enc.dual_pairs:
        keys1, keys2 = _projections(enc, pair)
        for side, keys_self, keys_peer in ((pair.side1, keys1, keys2),
                                           (pair.side2, keys2, keys1)):
            peer_side = pair.side2 if side is pair.side1 else pair.side1
            for g1, mem1 in enumerate(side.members):
                for g2, mem2 in enumerate(peer_side.members):
                    flags = {keys_self[i] == keys_peer[j]
                             for i in mem1 for j in mem2}
                    assert len(flags) <= 1  # all cross pairs agree or none


def _unsorted_scopes():
    """Scopes out of ascending order: the first pair shares (b, a), in the
    first dual's scope order."""
    return Problem(["a", "b", "c", "d"], [[0, 1, 2]] * 4,
                   [Constraint((1, 0, 2), relation=[(0, 1, 0), (1, 0, 1), (2, 0, 1)]),
                    Constraint((3, 0, 1), relation=[(0, 1, 0), (1, 0, 0), (0, 0, 2)]),
                    Constraint((2, 3), relation=[(0, 0), (1, 1)])])


def test_tuple_groups_match_projections():
    """Both sides of a pair group their tuples exactly by the projection on
    pair.shared, with ids rising with the key and one id space per shared
    tuple; members lists each group's tuples in ascending order; and pair
    sides with the same (owner, shared) are one object."""
    problems = [_unsorted_scopes(), example_42()] + list(criterion_1_suite())
    for enc in [build(p) for p in problems for build in (build_de, build_double)]:
        key_of_group = {}  # (shared, gid) -> key, over every decomposition
        side_of = {}
        for pair in enc.dual_pairs:
            group_of_key = {}
            for side, positions in ((pair.side1, pair.pos1), (pair.side2, pair.pos2)):
                assert side_of.setdefault((side.owner, pair.shared), side) is side
                assert side.shared == pair.shared
                tuples = enc.duals[side.owner].tuples
                for idx, gid in enumerate(side.tuple_group):
                    key = tuple(tuples[idx][p] for p in positions)
                    assert group_of_key.setdefault(key, gid) == gid, pair
                    assert key_of_group.setdefault((pair.shared, gid), key) == key, pair
                assert side.members == [
                    [idx for idx, g in enumerate(side.tuple_group) if g == gid]
                    for gid in range(side.group_count)]
            assert pair.side1.group_count == pair.side2.group_count
        for shared in {pair.shared for pair in enc.dual_pairs}:
            keys = sorted((gid, key) for (s, gid), key in key_of_group.items()
                          if s == shared)
            assert all(k1 < k2 for (_, k1), (_, k2) in zip(keys, keys[1:])), shared


def test_pairs_match_a_scan_of_every_dual_pair():
    """Peers found through the variables give the pairs, their order and
    their shared-variable order of a scan over all dual pairs."""
    problems = [_unsorted_scopes(), example_41(), example_42(), six_var_linear()]
    for p in problems + list(criterion_1_suite(25)):
        for enc in (build_de(p), build_double(p, encoded_subset=range(0, len(p.constraints), 2))):
            expected = []
            for i, di in enumerate(enc.duals):
                for dj in enc.duals[i + 1:]:
                    shared = tuple(x for x in di.scope if x in dj.scope)
                    if shared:
                        expected.append((len(expected), di.id, dj.id, shared,
                                         tuple(di.scope.index(x) for x in shared),
                                         tuple(dj.scope.index(x) for x in shared)))
            assert [(pr.index, pr.v1, pr.v2, pr.shared, pr.pos1, pr.pos2)
                    for pr in enc.dual_pairs] == expected


def test_round_trip_solutions_through_encodings():
    for seed in range(12):
        p = gen_model_b(ModelBParams(6, 3, 3, 25, 40 + seed * 4, seed))
        sols = set(enumerate_solutions(p))
        hve = build_hve(p)
        de = build_de(p)
        # dual-level enumeration: every consistent dual assignment induces an
        # original solution and vice versa
        induced = set()
        dual_domains = [v.tuples for v in de.duals]
        keys = [_projections(de, pair) for pair in de.dual_pairs]
        for combo in itertools.product(*(range(len(d)) for d in dual_domains)):
            ok = True
            for pair, (keys1, keys2) in zip(de.dual_pairs, keys):
                if keys1[combo[pair.v1]] != keys2[combo[pair.v2]]:
                    ok = False
                    break
            if not ok:
                continue
            assignment = [None] * p.n
            for v, ti in zip(de.duals, combo):
                for pos, x in enumerate(v.scope):
                    if assignment[x] is None:
                        assignment[x] = v.tuples[ti][pos]
                    elif assignment[x] != v.tuples[ti][pos]:
                        ok = False
                if not ok:
                    break
            if ok:
                for free in itertools.product(
                        *(range(p.domain_size(x)) if assignment[x] is None
                          else [assignment[x]] for x in range(p.n))):
                    induced.add(tuple(free))
        assert induced == sols
        assert hve.problem is p and de.problem is p


def test_binary_constraints_encoded_as_duals_too():
    p = Problem(["a", "b", "c"], [[0, 1]] * 3,
                [Constraint((0, 1), relation=[(0, 1), (1, 0)]),
                 Constraint((1, 2), relation=[(0, 0), (1, 1)])])
    enc = build_double(p)
    assert len(enc.duals) == 2
    assert len(enc.dual_pairs) == 1


def test_identical_scopes_still_get_one_pair():
    p = Problem(["a", "b"], [[0, 1]] * 2,
                [Constraint((0, 1), relation=[(0, 0)]),
                 Constraint((0, 1), relation=[(0, 0), (1, 1)])])
    enc = build_de(p)
    assert len(enc.dual_pairs) == 1
    dec = _side(enc, 0, 1)
    assert all(len(m) <= 1 for m in dec.members)


def test_capacity_error_propagates_from_build():
    p = Problem([f"f{i}" for i in range(8)], [list(range(20))] * 8,
                [Constraint(tuple(range(8)),
                 predicate=Predicate("separation", s=1))])
    with pytest.raises(CapacityError):
        build_hve(p, budget=10_000)


def test_crossword_de_crossings_share_one_letter():
    enc = build_de(gen_crossword(CrosswordSpec.blank(4, 4, WORDS)))
    assert enc.dual_pairs, "a blank grid has crossing slots"
    for pair in enc.dual_pairs:
        assert len(pair.shared) == 1


def test_induced_assignment_requires_singletons():
    enc = build_de(six_var_linear())
    state = enc.fresh_state()
    with pytest.raises(AssertionError):
        induced_assignment(enc, state)
    result = pwac(enc)
    assert result.consistent


def test_double_is_union_of_hve_and_de_structures():
    p = six_var_linear()
    hve, de, dbl = build_hve(p), build_de(p), build_double(p)
    assert [v.constraint_index for v in dbl.duals] == \
        [v.constraint_index for v in hve.duals] == \
        [v.constraint_index for v in de.duals]
    assert [v.tuples for v in dbl.duals] == [v.tuples for v in hve.duals]
    assert dbl.hidden == hve.hidden
    assert [(pr.v1, pr.v2, pr.shared) for pr in dbl.dual_pairs] == \
        [(pr.v1, pr.v2, pr.shared) for pr in de.dual_pairs]


def test_ac1_on_encodings_matches_specialized_engines():
    from bincsp.core import ac1_fixpoint
    from bincsp.search import gac2001, pwac
    from bincsp.gen import ModelBParams, gen_model_b
    for seed in range(10):
        p = gen_model_b(ModelBParams(8, 3, 3, 14, 30 + seed * 6, seed))
        hve = build_hve(p)
        ok_h, st_h = ac1_fixpoint(hve)
        g = gac2001(p)
        assert ok_h == g.consistent
        if ok_h:
            assert st_h.domains_as_lists() == g.state.domains_as_lists()
        de = build_de(p)
        ok_d, st_d = ac1_fixpoint(de)
        w = pwac(de)
        assert ok_d == w.consistent
        if ok_d:
            assert st_d.dual_domains_as_lists() == \
                w.state.dual_domains_as_lists()


def _sharing_problem():
    """Constraints by name over nine variables: x6 carries other labels than
    the rest. "a" and "b" are one relation, "d" and "e" another (the same
    `subset` in another order); "c", "f" and "g" each differ from one of
    them in s, in `subset` or in one position's labels."""
    labels = [0, 3, 7, 12, 18, 25, 31]
    domains = [labels] * 6 + [[0, 4, 7, 12, 18, 25, 31]] + [labels] * 2
    rich = dict(s=1, s2=4)
    named = {
        "a": ((0, 1, 2), Predicate("separation", s=2)),
        "b": ((3, 4, 5), Predicate("separation", s=2)),
        "c": ((3, 1, 7), Predicate("separation", s=3)),
        "d": ((0, 3, 7), Predicate("rich_separation", subset=(0, 2), **rich)),
        "e": ((1, 4, 8), Predicate("rich_separation", subset=(2, 0), **rich)),
        "f": ((2, 5, 8), Predicate("rich_separation", subset=(0, 1), **rich)),
        "g": ((6, 1, 2), Predicate("separation", s=2)),
    }
    constraints = [Constraint(scope, predicate=pred, name=name)
                   for name, (scope, pred) in named.items()]
    return Problem([f"x{i}" for i in range(9)], domains, constraints)


@pytest.mark.parametrize("build", [build_hve, build_double])
def test_equal_relations_share_one_tuple_list_and_index(build):
    p = _sharing_problem()
    enc = build(p)
    dual = {p.constraints[v.constraint_index].name: v for v in enc.duals}
    # the dual sides of each dual's hidden arcs, by position: group a holds
    # the tuples carrying value a there, read from the value index
    value_sides = {name: [enc.decompositions[v.id, (x,)] for x in v.scope]
                   for name, v in dual.items()}
    for one, other in (("a", "b"), ("d", "e")):
        assert dual[one].tuples is dual[other].tuples
        assert all(side1.members is side2.members
                   for side1, side2 in zip(value_sides[one], value_sides[other]))
    # a change of s, of the subset or of one position's labels
    for one, other in (("a", "c"), ("d", "f"), ("a", "g")):
        assert dual[one].tuples is not dual[other].tuples
        assert not any(side1.members is side2.members
                       for side1, side2 in zip(value_sides[one], value_sides[other]))
    # every dual still holds its own relation, and counts in the tables
    for v in enc.duals:
        c = p.constraints[v.constraint_index]
        assert v.tuples == expand_predicate(p, c)
    assert enc.tuple_table_bytes() == sum(3 * len(v.tuples) * 4 for v in enc.duals)

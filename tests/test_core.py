import itertools
import random

import pytest

from bincsp import core
from bincsp.core import (CapacityError, Constraint, Counters, DomainState,
                         GapRows, Predicate, Problem, ac1_fixpoint,
                         enumerate_solutions, expand_predicate, is_valid, project,
                         solution_check)
from bincsp.search import gac2001

from cases import SIX_VAR_SOLUTIONS, appendix_a, example_51, six_var_linear


def test_sorted_expansion_of_inequality_constraint():
    # x4 + x5 - x6 >= 1 over 0/1 domains
    p = six_var_linear()
    rel = expand_predicate(p, p.constraints[2])
    assert rel == [(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert rel == sorted(rel)


def test_project():
    assert project((1, 0, 0), (3, 4, 5), (4, 5)) == (0, 0)
    assert project((1, 0, 0), (3, 4, 5), (3, 4, 5)) == (1, 0, 0)
    assert project((0, 1, 1), (1, 4, 5), (1,)) == (0,)
    with pytest.raises(ValueError):
        project((0, 1), (3, 4), (5,))


def test_is_valid_counts_positional_microops():
    p = six_var_linear()
    state = DomainState.full(p)
    counters = Counters()
    assert is_valid((1, 0, 0), (3, 4, 5), state, counters)
    assert counters.microops == 3
    state.remove_value(4, 0)  # drop value 0 from x5
    assert not is_valid((1, 0, 0), (3, 4, 5), state)
    assert is_valid((1, 0, 0), (3, 4, 5), state, skip_pos=1)


def test_is_valid_appendix_a_after_deletion():
    p = appendix_a()
    state = DomainState.full(p)
    state.remove_value(0, 1)  # delete (x1, 1)
    c1 = p.constraints[0]
    for t in c1.relation:
        if t[0] == 1:
            assert not is_valid(t, c1.scope, state)
        else:
            assert is_valid(t, c1.scope, state)


def test_expand_linear_sum_one():
    p = six_var_linear()
    rel = expand_predicate(p, p.constraints[0])
    assert rel == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_expand_separation_single_variable_scope_is_vacuous():
    p = Problem(["f1"], [list(range(20))],
                [Constraint((0,), predicate=Predicate("separation", s=5))])
    assert len(expand_predicate(p, p.constraints[0])) == 20


@pytest.mark.parametrize("s,count", [(5, 120), (3, 7920)])
def test_expand_4ary_separation_counts(s, count):
    p = Problem([f"f{i}" for i in range(4)], [list(range(20))] * 4,
                [Constraint((0, 1, 2, 3), predicate=Predicate("separation", s=s))])
    rel = expand_predicate(p, p.constraints[0])
    assert len(rel) == count
    assert rel == sorted(set(rel))


def test_expand_respects_budget():
    p = Problem([f"f{i}" for i in range(8)], [list(range(20))] * 8,
                [Constraint(tuple(range(8)),
                 predicate=Predicate("separation", s=1))])
    with pytest.raises(CapacityError):
        expand_predicate(p, p.constraints[0], budget=100_000)


def test_expansion_agrees_with_predicate_exhaustively():
    for kind in ("separation", "not_all_equal", "parity_neq", "linear"):
        sizes = [3, 3, 2, 3]
        if kind == "separation":
            pred = Predicate("separation", s=1)
        elif kind == "not_all_equal":
            pred = Predicate("not_all_equal")
        elif kind == "parity_neq":
            pred = Predicate("parity_neq", pairs=((0, 1), (2, 3)))
        else:
            pred = Predicate("linear", coeffs=(1, 2, -1, 1), rel="<=", const=2)
        p = Problem([f"y{i}" for i in range(4)],
                    [list(range(s)) for s in sizes],
                    [Constraint((0, 1, 2, 3), predicate=pred)])
        rel = set(expand_predicate(p, p.constraints[0]))
        for t in itertools.product(*(range(s) for s in sizes)):
            labels = tuple(p.domains[x][a] for x, a in zip((0, 1, 2, 3), t))
            assert (t in rel) == pred.holds(labels), (kind, t)


def test_rich_separation_semantics():
    pred = Predicate("rich_separation", s=1, s2=3, subset=(0,))
    assert pred.holds((0, 5, 9))     # strong var 4+ away, others 2+ apart
    assert not pred.holds((0, 2, 9))  # strong pair gap 2 <= s2
    assert not pred.holds((0, 5, 6))  # weak pair gap 1 <= s


def test_gap_table_reads_s2_where_either_position_is_in_the_subset():
    pred = Predicate("rich_separation", s=1, s2=3, subset=(1, 3))
    assert pred.gaps(4) == ((1, 3, 1, 3), (3, 3, 3, 3), (1, 3, 1, 3), (3, 3, 3, 3))
    assert Predicate("separation", s=2).gaps(3) == ((2, 2, 2),) * 3
    assert Predicate("not_all_equal").gaps(3) is None


def test_enumerate_solutions_six_var():
    p = six_var_linear()
    assert enumerate_solutions(p) == SIX_VAR_SOLUTIONS
    for sol in SIX_VAR_SOLUTIONS:
        assert solution_check(p, sol)


def test_enumerate_solutions_empty_relation():
    p = Problem(["a", "b"], [[0, 1]] * 2, [Constraint((0, 1), relation=[])])
    assert enumerate_solutions(p) == []


def test_enumerate_solutions_example_51_insoluble():
    assert enumerate_solutions(example_51()) == []


def test_enumerate_limit_and_bound():
    p = Problem(["a", "b"], [[0, 1]] * 2, [Constraint((0, 1),
                relation=[(0, 0), (0, 1), (1, 0), (1, 1)])])
    assert len(enumerate_solutions(p, limit=3)) == 3
    with pytest.raises(CapacityError):
        enumerate_solutions(p, bound=3)
    # a limit below 1 is refused, not read as 1
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            enumerate_solutions(p, limit=limit)


def test_ac1_already_consistent_problem_unchanged():
    p = six_var_linear()
    ok, state = ac1_fixpoint(p)
    assert ok
    assert state.domains_as_lists() == [[0, 1]] * 6


def test_ac1_appendix_a_wipeout_after_assignment():
    p = appendix_a()
    state = DomainState.full(p)
    for b in state.live_values(0)[1:]:  # x1 <- 0
        state.remove_value(0, b)
    ok, state = ac1_fixpoint(p, state)
    assert not ok  # which variable registers the wipe depends on sweep order


def test_ac1_confluent_under_constraint_order():
    p = six_var_linear()
    base_ok, base = ac1_fixpoint(p)
    for order in itertools.permutations(range(4)):
        ok, state = ac1_fixpoint(p, constraint_order=order)
        assert ok == base_ok
        assert state.domains_as_lists() == base.domains_as_lists()


def test_ac1_matches_gac2001_on_random_instances():
    from bincsp.gen import ModelBParams, gen_model_b
    for seed in range(40):
        p = gen_model_b(ModelBParams(8, 3, 3, 12, 25 + (seed * 7) % 60, seed))
        ok1, s1 = ac1_fixpoint(p)
        r2 = gac2001(p)
        assert ok1 == r2.consistent
        if ok1:
            assert s1.domains_as_lists() == r2.state.domains_as_lists()


def test_constraint_normalizes_relation():
    c = Constraint((0, 1), relation=[(1, 0), (0, 1), (1, 0)])
    assert c.relation == [(0, 1), (1, 0)]
    with pytest.raises(ValueError):
        Constraint((0, 0), relation=[(0, 0)])
    with pytest.raises(ValueError):
        Constraint((0, 1), relation=[(0, 0, 0)])


def test_problem_rejects_out_of_domain_tuples():
    with pytest.raises(ValueError):
        Problem(["a"], [[0, 1]], [Constraint((0,), relation=[(2,)])])


def test_unary_constraint_is_legal():
    p = Problem(["a"], [[0, 1, 2]], [Constraint((0,), relation=[(1,)])])
    assert enumerate_solutions(p) == [(1,)]


# ---------------------------------------------------------------------------
# gap-kind expansion against the pruned DFS it replaced and the cross product

RLFA_BUDGET = 10_000  # low enough that some rlfa constraints exceed it


def _old_gap_expand(problem, c, budget):
    """The separation expander before the gap table: a depth-first search
    that tests each new value against every earlier one and tests the budget
    on entry to each level."""
    pred = c.predicate
    doms = [problem.domains[x] for x in c.scope]
    sizes = [len(d) for d in doms]
    k = len(sizes)
    out = []
    labels = [None] * k

    def partial_ok(upto):
        v, j = labels[upto - 1], upto - 1
        for i in range(upto - 1):
            if pred.kind == "separation":
                gap = pred.s
            else:
                gap = pred.s2 if (i in pred.subset or j in pred.subset) else pred.s
            if abs(v - labels[i]) <= gap:
                return False
        return True

    def rec(pos, prefix):
        if len(out) > budget:
            raise CapacityError(f"expansion of {pred.kind} constraint exceeded budget {budget}")
        if pos == k:
            out.append(tuple(prefix))
            return
        for a in range(sizes[pos]):
            prefix.append(a)
            labels[pos] = doms[pos][a]
            if partial_ok(pos + 1):
                rec(pos + 1, prefix)
            prefix.pop()

    rec(0, [])
    return out


def _product_expand(problem, c):
    doms = [problem.domains[x] for x in c.scope]
    return [t for t in itertools.product(*(range(len(d)) for d in doms))
            if c.predicate.holds(tuple(d[a] for d, a in zip(doms, t)))]


def _expand_like_the_old_dfs(problem, c, budget):
    """expand_predicate's result, checked against the old DFS: the same list
    within the budget, CapacityError beyond it (the old DFS returned budget
    + 1 tuples when no level was entered after the last one). None if
    the budget was exceeded."""
    try:
        ref = _old_gap_expand(problem, c, budget)
    except CapacityError:
        ref = None
    if ref is None or len(ref) > budget:
        with pytest.raises(CapacityError):
            expand_predicate(problem, c, budget)
        return None
    got = expand_predicate(problem, c, budget)
    assert got == ref, c
    return got


def test_gap_expansion_matches_the_old_dfs_on_rlfa():
    """Every constraint of rlfa prob1-prob5 at d = 20 and 25 over three
    seeds, once per distinct (predicate, label lists); the product oracle
    checks those of arity <= 3."""
    from bincsp.gen import gen_rlfa
    seen, expanded, over_budget, brute = set(), 0, 0, 0
    for topology in ("prob1", "prob2", "prob3", "prob4", "prob5"):
        for d in (20, 25):
            for seed in (0, 1, 2):
                p = gen_rlfa(topology, d, seed)
                for c in p.constraints:
                    key = (repr(c.predicate.spec()),
                           tuple(tuple(p.domains[x]) for x in c.scope))
                    if key in seen:
                        continue
                    seen.add(key)
                    got = _expand_like_the_old_dfs(p, c, RLFA_BUDGET)
                    if got is None:
                        over_budget += 1
                        continue
                    expanded += 1
                    if c.arity <= 3:
                        assert got == _product_expand(p, c), c
                        brute += 1
    assert expanded > 50 and over_budget > 0 and brute > 20


def _scattered_labels_problem(pred, label_lists):
    k = len(label_lists)
    return Problem([f"z{i}" for i in range(k)], label_lists,
                   [Constraint(tuple(range(k)), predicate=pred)])


SCATTERED_LABELS = [[7, 0, 3, 12], [12, 5, 0, 9, 2], [1, 14, 8], [3, 10, 0, 6, 13]]


SCATTERED_PREDICATES = [
    Predicate("separation", s=1), Predicate("separation", s=2),
    Predicate("separation", s=4),
    Predicate("rich_separation", s=1, s2=3, subset=(0,)),
    Predicate("rich_separation", s=1, s2=2, subset=(1, 2)),
    Predicate("rich_separation", s=2, s2=5, subset=(3,)),
]


@pytest.mark.parametrize("pred,arity", [
    (pred, arity) for pred in SCATTERED_PREDICATES for arity in (1, 2, 3, 4)
    if pred.kind == "separation" or max(pred.subset) < arity], ids=repr)
def test_gap_expansion_over_unsorted_scattered_labels(pred, arity):
    p = _scattered_labels_problem(pred, SCATTERED_LABELS[:arity])
    c = p.constraints[0]
    got = _expand_like_the_old_dfs(p, c, 10_000)
    assert got == _product_expand(p, c)
    assert got == sorted(got)


WIDE_LABELS = [[9, 2, 14, 5, 0, 11, 7, 16], [3, 12, 6, 0, 15, 9, 1, 18],
               [10, 4, 17, 1, 13, 7], [0, 8, 16, 4, 12, 2, 19], [6, 15, 2, 11, 19, 0]]


@pytest.mark.parametrize("arity,subset", [
    (4, (0,)), (4, (3,)), (4, (1,)), (4, (0, 3)), (4, (1, 2)),
    (5, (0,)), (5, (4,)), (5, (2,)), (5, (0, 4)), (5, (1, 3)),
])
def test_rich_separation_subsets_at_the_ends_and_in_the_middle(arity, subset):
    pred = Predicate("rich_separation", s=1, s2=3, subset=subset)
    p = _scattered_labels_problem(pred, WIDE_LABELS[:arity])
    c = p.constraints[0]
    got = _expand_like_the_old_dfs(p, c, 100_000)
    assert got  # tight enough to prune, loose enough to keep tuples
    if arity <= 4:
        assert got == _product_expand(p, c)


@pytest.mark.parametrize("pred", [
    Predicate("separation", s=4),
    Predicate("rich_separation", s=2, s2=30, subset=(0,)),
], ids=repr)
@pytest.mark.parametrize("sizes", [(300, 300), (4, 300, 30), (3, 25, 300)])
def test_gap_expansion_over_300_values(pred, sizes):
    """The last two positions read array columns past 256 values."""
    rng = random.Random(len(sizes) * 1000 + sum(sizes))
    p = _scattered_labels_problem(pred, [rng.sample(range(2000), size) for size in sizes])
    c = p.constraints[0]
    got = expand_predicate(p, c, 100_000)
    assert got == _product_expand(p, c)
    assert len(got) > 1000


def test_gap_expansion_budget_is_exact():
    p = Problem([f"f{i}" for i in range(4)], [list(range(20))] * 4,
                [Constraint((0, 1, 2, 3), predicate=Predicate("separation", s=5))])
    c = p.constraints[0]
    assert len(expand_predicate(p, c, budget=120)) == 120
    with pytest.raises(CapacityError):
        expand_predicate(p, c, budget=119)
    # two values more than 1 apart out of {0, 1, 2}: (0, 2) and (2, 0); the
    # old DFS entered no level after appending the second and returned both
    q = Problem(["u", "v"], [[0, 1, 2]] * 2,
                [Constraint((0, 1), predicate=Predicate("separation", s=1))])
    assert _old_gap_expand(q, q.constraints[0], budget=1) == [(0, 2), (2, 0)]
    with pytest.raises(CapacityError):
        expand_predicate(q, q.constraints[0], budget=1)
    assert expand_predicate(q, q.constraints[0], budget=2) == [(0, 2), (2, 0)]


def _seeded_gap_constraints(rng):
    """Separation and rich_separation constraints at arities 2-5 over
    scattered labels, with `subset` at the first, the last and a middle
    position."""
    for arity in (2, 3, 4, 5):
        size = (9, 8, 7, 6)[arity - 2]
        labels = [rng.sample(range(30), size) for _ in range(arity)]
        preds = [Predicate("separation", s=rng.choice((1, 2, 3)))]
        for subset in sorted({(0,), (arity - 1,), (arity // 2,)}):
            preds.append(Predicate("rich_separation", s=1, s2=rng.choice((2, 3, 4)),
                                   subset=subset))
        for pred in preds:
            yield _scattered_labels_problem(pred, labels)


def test_gap_expansion_matches_the_product_on_seeded_constraints():
    """Expansions sharing one `GapRows`, and so its kept selections, list
    exactly the product tuples the predicate holds."""
    rng, rows, nonempty = random.Random(13), GapRows(), 0
    for p in _seeded_gap_constraints(rng):
        c = p.constraints[0]
        got = expand_predicate(p, c, 100_000, rows)
        assert got == _product_expand(p, c), c
        nonempty += bool(got)
    assert nonempty > 10


def test_gap_expansion_reads_selections_kept_by_an_earlier_one(monkeypatch):
    """Two separations end on the same two variables, so their last two
    positions share one `GapPair`. The second lists its first two variables
    the other way round, so each of its prefixes leaves the candidates of a
    prefix of the first: it selects no pair anew, and still lists exactly
    the product tuples."""
    labels = [[7, 0, 3, 12, 18], [12, 5, 0, 9, 2, 16], [1, 14, 8, 20], [3, 10, 0, 6, 13]]
    pred = Predicate("separation", s=2)
    p = Problem([f"z{i}" for i in range(4)], labels,
                [Constraint((0, 1, 2, 3), predicate=pred),
                 Constraint((1, 0, 2, 3), predicate=pred)])
    first, second = p.constraints
    rows = GapRows()
    assert rows.tables(p, first).pair is rows.tables(p, second).pair
    picks = []
    pick = core._pick
    monkeypatch.setattr(core, "_pick", lambda *args: picks.append(args) or pick(*args))
    assert expand_predicate(p, first, 10_000, rows) == _product_expand(p, first)
    assert picks
    picks.clear()
    got = expand_predicate(p, second, 10_000, rows)
    assert got == _product_expand(p, second) and len(got) > 20
    assert picks == []


def test_two_builds_of_one_problem_share_no_gap_pair(monkeypatch):
    """Each encoding build and each GAC-2001 engine reads its own
    `GapPair`s, so selections kept by one run are never read by another."""
    from bincsp import encode
    from bincsp.gen import gen_rlfa
    from bincsp.search import NonBinaryEngine, ALGORITHMS

    built = []

    class RecordedRows(GapRows):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(encode, "GapRows", RecordedRows)
    p = gen_rlfa("prob1", 20, 0)
    encode.build_hve(p)
    encode.build_hve(p)
    assert len(built) == 2
    first, second = ({id(pair) for pair in rows._pairs.values()} for rows in built)
    assert first and second and not first & second
    engines = [NonBinaryEngine(p, ALGORITHMS["MGAC-2001"]) for _ in range(2)]
    first, second = ({id(t.pair) for t in engine.fixpoint.gap_tables if t is not None}
                     for engine in engines)
    assert first and second and not first & second


def test_solution_check_rejects_a_malformed_assignment():
    p = Problem(["a", "b", "c"], [[0, 1], [0, 1], []],
                [Constraint((0, 1), relation=[(0, 1), (1, 0)])])
    assert not solution_check(p, (0, 1))       # too short
    assert not solution_check(p, (0, 1, 0))    # 0 is outside D(c)
    q = Problem(["a", "b"], [[0, 1], [0, 1]],
                [Constraint((0, 1), relation=[(0, 1), (1, 0)])])
    assert solution_check(q, (0, 1))
    assert not solution_check(q, (0, 1, 0))    # too long
    assert not solution_check(q, (0, 2))       # 2 is outside D(b)


def test_remove_tuples_is_one_trail_entry_undone_as_one_batch():
    """A batch of tuple deletions is one trail entry; undo restores the
    masks and live counts and calls the restore hook once per batch, with
    that batch, latest batch first."""
    state = DomainState.full(Problem(["a"], [[0, 1]], []))
    state.add_duals([5, 3])
    state.trail = []
    state.remove_tuples(0, [1, 3])
    mark = len(state.trail)
    state.remove_tuples(1, [0])
    state.remove_tuples(0, [0, 4])
    assert state.trail == [("dt", 0, [1, 3]), ("dt", 1, [0]), ("dt", 0, [0, 4])]
    assert state.dual_masks == [bytearray([0, 0, 1, 0, 0]), bytearray([0, 1, 1])]
    assert state.dual_counts == [1, 2]
    restored = []
    state.undo(mark, lambda v, idxs: restored.append((v, list(idxs))))
    assert restored == [(0, [0, 4]), (1, [0])]
    assert state.dual_masks == [bytearray([1, 0, 1, 0, 1]), bytearray([1, 1, 1])]
    assert state.dual_counts == [3, 3]
    state.undo(0)
    assert state.trail == [] and state.dual_counts == [5, 3]
    assert state.dual_masks == [bytearray([1]) * 5, bytearray([1]) * 3]

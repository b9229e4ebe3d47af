import pytest

from bincsp.core import CapacityError, expand_predicate
from bincsp.encode import build_de
from bincsp.gen import (CrosswordSpec, ModelBParams, gen_clique_embedded,
                        gen_config_like, gen_crossword, gen_model_b,
                        gen_parity_chain, gen_rlfa, is_connected,
                        tshirt_problem)
from bincsp.interchange import emit_instance
from bincsp.search import gac2001
from bincsp.search import solve
from bincsp.words import WORDS, words_by_length
from bincsp.core import enumerate_solutions


# ---------------------------------------------------------------------------
# model B


def test_model_b_class1_counts():
    p = gen_model_b(ModelBParams(30, 6, 3, 1.847, 50, seed=1))
    assert p.n == 30
    assert len(p.constraints) == 75  # round(1.847% of C(30,3)=4060)
    assert all(len(c.relation) == 108 for c in p.constraints)  # 50% of 216
    assert all(c.arity == 3 for c in p.constraints)
    assert is_connected(p)


def test_model_b_scopes_distinct_and_tuples_sorted():
    p = gen_model_b(ModelBParams(12, 4, 3, 8, 40, seed=9))
    scopes = [c.scope for c in p.constraints]
    assert len(set(scopes)) == len(scopes)
    for c in p.constraints:
        assert c.relation == sorted(set(c.relation))


def test_model_b_full_looseness_is_trivially_sat():
    p = gen_model_b(ModelBParams(8, 3, 3, 15, 100, seed=2))
    assert all(len(c.relation) == 27 for c in p.constraints)
    result = gac2001(p)
    assert result.consistent and result.counters.value_removals == 0
    assert solve(p, "MGAC-2001").verdict == "SAT"


def test_model_b_determinism():
    a = gen_model_b(ModelBParams(10, 4, 3, 12, 37, seed=5))
    b = gen_model_b(ModelBParams(10, 4, 3, 12, 37, seed=5))
    assert emit_instance(a) == emit_instance(b)
    c = gen_model_b(ModelBParams(10, 4, 3, 12, 37, seed=6))
    assert emit_instance(a) != emit_instance(c)


def test_model_b_infeasible_parameters():
    with pytest.raises(ValueError):
        gen_model_b(ModelBParams(30, 3, 3, 0.01, 50, seed=0))  # 1 constraint
    with pytest.raises(ValueError):
        gen_model_b(ModelBParams(5, 3, 3, 0, 50, seed=0))


# ---------------------------------------------------------------------------
# clique embedding


def test_clique_zero_is_plain_model_b():
    base = ModelBParams(10, 4, 3, 12, 40, seed=4)
    assert emit_instance(gen_clique_embedded(base, 0)) == \
        emit_instance(gen_model_b(base))


def test_clique_constraints_pairwise_intersect():
    base = ModelBParams(15, 4, 3, 6, 40, seed=3)
    p = gen_clique_embedded(base, 8)
    clique = [c for c in p.constraints if c.name and c.name.startswith("clq")]
    assert len(clique) >= 2
    for i in range(len(clique)):
        for j in range(i + 1, len(clique)):
            shared = set(clique[i].scope) & set(clique[j].scope)
            assert shared, (clique[i].scope, clique[j].scope)
            assert 1 <= len(shared) <= 2
    assert is_connected(p)


def test_clique_arity4_can_share_up_to_three():
    base = ModelBParams(12, 3, 4, 6, 40, seed=11)
    p = gen_clique_embedded(base, 9)
    clique = [c for c in p.constraints if c.name and c.name.startswith("clq")]
    shares = set()
    for i in range(len(clique)):
        for j in range(i + 1, len(clique)):
            shares.add(len(set(clique[i].scope) & set(clique[j].scope)))
    assert shares <= {1, 2, 3} and shares


# ---------------------------------------------------------------------------
# crosswords


def test_crossword_6x6_slot_and_cell_counts():
    p = gen_crossword(CrosswordSpec.blank(6, 6))
    assert p.n == 36
    assert len(p.constraints) == 12
    assert all(c.arity == 6 for c in p.constraints)


def test_crossword_toy_1x3():
    p = gen_crossword(CrosswordSpec(("...",), ("cat", "dog")))
    sols = enumerate_solutions(p)
    assert len(sols) == 2


def test_crossword_blocked_cells_split_slots():
    grid = ("..#..",
            ".....")
    p = gen_crossword(CrosswordSpec(grid, WORDS))
    lengths = sorted(c.arity for c in p.constraints)
    # row 0 gives two length-2 runs, row 1 a length-5 run, columns give 2s
    assert lengths == [2, 2, 2, 2, 2, 2, 5]


def test_crossword_missing_length_yields_empty_relation():
    p = gen_crossword(CrosswordSpec(("....",), ("cat",)))
    assert p.constraints[0].relation == []
    assert solve(p, "MGAC-2001").verdict == "UNSAT"


def test_crossword_de_groups_keyed_by_single_letter():
    p = gen_crossword(CrosswordSpec.blank(4, 4))
    enc = build_de(p)
    for pair in enc.dual_pairs:
        assert len(pair.shared) == 1


def test_bundled_dictionary_shape():
    by_len = words_by_length()
    assert len(WORDS) == 500
    assert all(w.isalpha() and w.islower() for w in WORDS)
    for square_word in ("sator", "arepo", "tenet", "opera", "rotas"):
        assert square_word in by_len[5]


# ---------------------------------------------------------------------------
# parity chains


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parity_chain_structure(n):
    p = gen_parity_chain(n)
    assert p.n == 4 * n + 2
    assert len(p.constraints) == 2 * n + 1
    assert all(c.arity == 4 for c in p.constraints)
    assert all(c.predicate.kind == "parity_neq" for c in p.constraints)
    assert p.domains[0] == list(range(1, n + 1))
    # the cycle closes back onto (x1, x2)
    assert p.constraints[-1].scope[2:] == (0, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_parity_chain_unsat_by_oracle(n):
    assert enumerate_solutions(gen_parity_chain(n)) == []


def test_parity_chain_refuted_by_gac_root_for_n1():
    assert not gac2001(gen_parity_chain(1)).consistent


# ---------------------------------------------------------------------------
# frequency-assignment-like


def test_rlfa_separation_tuple_counts_d20():
    p = gen_rlfa("prob1", seed=0)
    from bincsp.core import Constraint, Predicate, Problem
    probe = Problem([f"f{i}" for i in range(4)], [list(range(20))] * 4,
                    [Constraint((0, 1, 2, 3),
                     predicate=Predicate("separation", s=5))])
    assert len(expand_predicate(probe, probe.constraints[0])) == 120


def test_rlfa_prob1_shape():
    p = gen_rlfa("prob1", seed=0)
    assert p.n == 48
    assert len(p.constraints) == 25
    group_constraints = [c for c in p.constraints if c.name.startswith("g")]
    assert all(3 <= c.arity <= 4 for c in group_constraints)
    assert all(c.predicate.kind in ("separation", "rich_separation")
               for c in group_constraints)
    assert is_connected(p)


def test_rlfa_prob5_shape():
    p = gen_rlfa("prob5", seed=1)
    assert 92 <= p.n <= 100
    group_constraints = [c for c in p.constraints if c.name.startswith("g")]
    assert all(3 <= c.arity <= 5 for c in group_constraints)
    assert is_connected(p)


def test_rlfa_separations_not_very_loose():
    p = gen_rlfa("prob3", domain_size=25, seed=2)
    for c in p.constraints:
        if c.name.startswith("g") and c.predicate.kind == "separation":
            s_max = (25 - 1) // (c.arity - 1) - 1
            assert s_max - 2 <= c.predicate.s <= s_max


def test_rlfa_adjacent8_kept_intensional_and_huge():
    p = gen_rlfa("prob1", seed=0, adjacent8=True)
    adj = [c for c in p.constraints if c.name.startswith("adj")]
    assert len(adj) == 4
    assert all(c.arity == 8 and c.predicate.s == 1 for c in adj)
    with pytest.raises(CapacityError):
        expand_predicate(p, adj[0], budget=200_000)


def test_rlfa_determinism_and_domain_validation():
    a = gen_rlfa("prob2", seed=7)
    b = gen_rlfa("prob2", seed=7)
    assert emit_instance(a) == emit_instance(b)
    with pytest.raises(ValueError):
        gen_rlfa("prob2", domain_size=17)
    with pytest.raises(ValueError):
        gen_rlfa("prob9")


# ---------------------------------------------------------------------------
# configuration-like


def test_tshirt_exact_tuples():
    p = tshirt_problem()
    assert p.domains[0] == ["small", "medium", "large"]
    assert p.constraints[0].relation == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert p.constraints[1].relation == [(0, 0), (1, 1), (1, 2)]
    sols = enumerate_solutions(p)
    assert (0, 0, 0) in sols  # small MIB black


def test_config_like_extends_and_connects():
    p = gen_config_like(seed=0)
    assert p.n == 9  # 3 base + 6 extra
    added = [c for c in p.constraints if c.name and c.name.startswith("add")]
    assert 8 <= len(added) <= 10
    assert all(2 <= c.arity <= 4 for c in added)
    assert is_connected(p)


def test_config_like_zero_extras_is_base():
    base = tshirt_problem()
    assert gen_config_like(base, extra_vars=0, min_constraints=0,
                           max_constraints=0) is base


def test_config_like_determinism():
    a = gen_config_like(seed=12)
    b = gen_config_like(seed=12)
    assert emit_instance(a) == emit_instance(b)


def test_clique_table3_regime_shapes():
    # the four ternary rows: <30,10,3,5,*> with clique sizes 0/10/20/30
    for size in (0, 10, 20, 30):
        p = gen_clique_embedded(ModelBParams(30, 10, 3, 5, 30, seed=size), size)
        assert p.n == 30
        base = [c for c in p.constraints if not (c.name or "").startswith("clq")]
        assert len(base) == 203  # 5% of C(30,3)
        assert all(len(c.relation) == 300 for c in p.constraints)
        assert is_connected(p)


@pytest.mark.parametrize("k,slots,cells", [(6, 12, 36), (7, 14, 49),
                                           (8, 16, 64), (10, 20, 100)])
def test_blank_grid_slot_and_cell_counts(k, slots, cells):
    p = gen_crossword(CrosswordSpec.blank(k, k))
    assert len(p.constraints) == slots and p.n == cells

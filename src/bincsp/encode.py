"""Hidden-variable, dual and double encodings, with piecewise decompositions.

A dual variable's domain is the allowed-tuple list of its source constraint.
Hidden constraints (dual <-> original) and dual-dual constraints are stored
structurally - positions and shared-variable lists - never as materialized
binary tuple tables. Each intersecting dual pair carries the piecewise
decomposition of both tuple lists, keyed by the projection onto the shared
variables; the group universe of a pair is the union of the keys realized on
either side, so a key missing from one side shows up there as an empty group
and drives deletions on the other.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (DEFAULT_EXPANSION_BUDGET, DomainState, Problem,
                   materialize)

HVE = "HVE"
DE = "DE"
DOUBLE = "DOUBLE"
HYBRID = "HYBRID"


class DualVariable:
    """One dual variable: a constraint turned into a variable over its tuples."""

    def __init__(self, dual_id: int, constraint_index: int, scope: Sequence[int],
                 tuples: Sequence[tuple], domain_sizes: Sequence[int]):
        self.id = dual_id
        self.constraint_index = constraint_index
        self.scope = tuple(scope)
        self.tuples = list(tuples)
        self.position = {x: i for i, x in enumerate(self.scope)}
        # tuple indices holding value a at position pos, for eager deletions
        self.tuples_by_pos_val = [
            [[] for _ in range(domain_sizes[x])] for x in self.scope
        ]
        for idx, t in enumerate(self.tuples):
            for pos, a in enumerate(t):
                self.tuples_by_pos_val[pos][a].append(idx)

    @property
    def arity(self) -> int:
        return len(self.scope)

    def __repr__(self):
        return f"DualVariable(v{self.id} c{self.constraint_index} |D|={len(self.tuples)})"


class Decomposition:
    """Piecewise decomposition of one dual variable's tuples w.r.t. a peer.

    Groups are keyed by the projection onto the shared variables, encoded as
    mixed-radix integers; group ids are dense per pair and shared with the
    peer side, so the supporting group of id g is simply id g over there
    (empty there if no peer tuple carries the key). tuple_group makes group
    lookup a constant-time array read; members lists each group's tuple
    indices in ascending order.
    """

    def __init__(self, owner: int, pair_index: int, tuple_group: Sequence[int],
                 members: Sequence[list]):
        self.owner = owner
        self.pair_index = pair_index
        self.tuple_group = list(tuple_group)
        self.members = [list(m) for m in members]

    @property
    def group_count(self) -> int:
        return len(self.members)

    def fresh_counters(self, state: DomainState) -> list:
        mask = state.dual_masks[self.owner]
        if state.dual_counts[self.owner] == len(mask):  # every tuple live
            return list(map(len, self.members))
        # masks hold 0/1 bytes, so summing them counts the live members
        return [sum(map(mask.__getitem__, mem)) for mem in self.members]

    def __repr__(self):
        return (f"Decomposition(v{self.owner} in pair {self.pair_index}, "
                f"{self.group_count} groups)")


class DualPair:
    """Dual-dual constraint: equal projection on the shared original variables."""

    def __init__(self, index: int, v1: int, v2: int, shared: Sequence[int],
                 pos1: Sequence[int], pos2: Sequence[int]):
        self.index = index
        self.v1 = v1
        self.v2 = v2
        self.shared = tuple(shared)
        self.pos1 = tuple(pos1)
        self.pos2 = tuple(pos2)
        self.side1: Optional[Decomposition] = None
        self.side2: Optional[Decomposition] = None

    def side_for(self, owner: int) -> Decomposition:
        return self.side1 if owner == self.v1 else self.side2

    def other(self, owner: int) -> int:
        return self.v2 if owner == self.v1 else self.v1

    def __repr__(self):
        return f"DualPair(v{self.v1}~v{self.v2} shared={self.shared})"


class EncodedProblem:
    """A binary encoding of a Problem.

    kind HVE: original + dual variables, hidden constraints only.
    kind DE: dual variables and dual-dual constraints only.
    kind DOUBLE: both constraint sets over original + dual variables.
    kind HYBRID: a caller-selected constraint subset double-encoded, the
    rest kept non-binary in residual_constraints.
    """

    def __init__(self, kind: str, problem: Problem, duals: Sequence[DualVariable],
                 hidden: Sequence[tuple], dual_pairs: Sequence[DualPair],
                 residual_constraints: Sequence[int] = ()):
        self.kind = kind
        self.problem = problem
        self.duals = list(duals)
        self.hidden = list(hidden)  # (dual_id, var, pos) triples
        self.dual_pairs = list(dual_pairs)
        self.residual_constraints = list(residual_constraints)
        self.has_originals = kind != DE
        n = problem.n
        self.duals_of_var = [[] for _ in range(n)]
        for v in self.duals:
            for x in v.scope:
                self.duals_of_var[x].append(v.id)
        self.pairs_of_dual = [[] for _ in range(len(self.duals))]
        for pair in self.dual_pairs:
            self.pairs_of_dual[pair.v1].append(pair.index)
            self.pairs_of_dual[pair.v2].append(pair.index)

    @property
    def variable_count(self) -> int:
        base = len(self.duals)
        return base + (self.problem.n if self.has_originals else 0)

    def fresh_state(self) -> DomainState:
        state = DomainState.full(self.problem)
        state.add_duals([len(v.tuples) for v in self.duals])
        return state

    def tuple_table_bytes(self, value_width: int = 4) -> int:
        return sum(v.arity * len(v.tuples) * value_width for v in self.duals)

    def __repr__(self):
        return (f"EncodedProblem({self.kind}: {len(self.duals)} duals, "
                f"{len(self.hidden)} hidden, {len(self.dual_pairs)} dual-dual, "
                f"{len(self.residual_constraints)} residual)")


def _mixed_radix_keys(dual: DualVariable, positions: Sequence[int],
                      radices: Sequence[int]) -> list:
    keys = []
    for t in dual.tuples:
        key = 0
        for pos, r in zip(positions, radices):
            key = key * r + t[pos]
        keys.append(key)
    return keys


def build_decomposition(pair: DualPair, duals: Sequence[DualVariable],
                        domain_sizes: Sequence[int]) -> None:
    """Build both sides of a pair's piecewise decomposition in place."""
    d1, d2 = duals[pair.v1], duals[pair.v2]
    radices = [domain_sizes[x] for x in pair.shared]
    keys1 = _mixed_radix_keys(d1, pair.pos1, radices)
    keys2 = _mixed_radix_keys(d2, pair.pos2, radices)
    realized = sorted(set(keys1) | set(keys2))
    key_to_gid = {key: gid for gid, key in enumerate(realized)}

    def side(proj_keys, owner):
        tuple_group = [key_to_gid[k] for k in proj_keys]
        members = [[] for _ in realized]
        for idx, gid in enumerate(tuple_group):
            members[gid].append(idx)
        return Decomposition(owner, pair.index, tuple_group, members)

    pair.side1 = side(keys1, pair.v1)
    pair.side2 = side(keys2, pair.v2)


def piecewise_decomposition(enc: EncodedProblem, vi: int, vj: int) -> Decomposition:
    """The decomposition of D(v_i) with respect to the constraint with v_j."""
    for pair in enc.dual_pairs:
        if (pair.v1, pair.v2) in ((vi, vj), (vj, vi)):
            return pair.side_for(vi)
    raise ValueError(f"dual variables v{vi} and v{vj} share no constraint")


def _make_duals(problem: Problem, constraint_ids: Sequence[int],
                budget: int, expanded: Optional[dict] = None) -> list:
    sizes = [problem.domain_size(x) for x in range(problem.n)]
    duals = []
    for dual_id, ci in enumerate(constraint_ids):
        c = problem.constraints[ci]
        tuples = expanded.get(ci) if expanded else None
        if tuples is None:
            tuples = materialize(problem, c, budget)
        duals.append(DualVariable(dual_id, ci, c.scope, tuples, sizes))
    return duals


def _make_hidden(duals: Sequence[DualVariable]) -> list:
    hidden = []
    for v in duals:
        for pos, x in enumerate(v.scope):
            hidden.append((v.id, x, pos))
    return hidden


def _make_pairs(problem: Problem, duals: Sequence[DualVariable],
                with_decompositions: bool) -> list:
    pairs = []
    sizes = [problem.domain_size(x) for x in range(problem.n)]
    for i in range(len(duals)):
        for j in range(i + 1, len(duals)):
            di, dj = duals[i], duals[j]
            shared = [x for x in di.scope if x in dj.position]
            if not shared:
                continue
            pair = DualPair(len(pairs), di.id, dj.id, shared,
                            [di.position[x] for x in shared],
                            [dj.position[x] for x in shared])
            if with_decompositions:
                build_decomposition(pair, duals, sizes)
            pairs.append(pair)
    return pairs


def build_hve(problem: Problem, budget: int = DEFAULT_EXPANSION_BUDGET) -> EncodedProblem:
    """Hidden variable encoding: one dual per constraint, a binary constraint
    between the dual and each original variable in its scope."""
    duals = _make_duals(problem, range(len(problem.constraints)), budget)
    return EncodedProblem(HVE, problem, duals, _make_hidden(duals), [])


def build_de(problem: Problem, budget: int = DEFAULT_EXPANSION_BUDGET) -> EncodedProblem:
    """Dual encoding: variables are swapped with constraints; a dual-dual
    constraint for every pair of constraints sharing original variables."""
    duals = _make_duals(problem, range(len(problem.constraints)), budget)
    pairs = _make_pairs(problem, duals, with_decompositions=True)
    return EncodedProblem(DE, problem, duals, [], pairs)


def build_double(problem: Problem, encoded_subset: Optional[Sequence[int]] = None,
                 budget: int = DEFAULT_EXPANSION_BUDGET,
                 expanded: Optional[dict] = None) -> EncodedProblem:
    """Double encoding (hidden + dual constraint sets) of all constraints, or
    of a subset; with a proper subset the rest stay non-binary (HYBRID).
    `expanded` maps constraint ids to tuple lists already expanded by
    `materialize`, which are used instead of expanding again."""
    all_ids = list(range(len(problem.constraints)))
    if encoded_subset is None:
        subset = all_ids
    else:
        subset = sorted(set(encoded_subset))
        for ci in subset:
            if not 0 <= ci < len(all_ids):
                raise ValueError(f"constraint id {ci} out of range")
    kind = DOUBLE if subset == all_ids else HYBRID
    duals = _make_duals(problem, subset, budget, expanded)
    pairs = _make_pairs(problem, duals, with_decompositions=True)
    residual = [ci for ci in all_ids if ci not in set(subset)]
    return EncodedProblem(kind, problem, duals, _make_hidden(duals), pairs, residual)


def induced_assignment(enc: EncodedProblem, state: DomainState) -> list:
    """Original-variable assignment induced by singleton dual domains.

    Variables covered by no dual keep their first live value (pure DE cannot
    constrain them). Raises if a dual domain is not a singleton or if two
    duals disagree on a shared variable.
    """
    n = enc.problem.n
    assignment: list = [None] * n
    for v in enc.duals:
        live = state.live_tuples(v.id)
        if len(live) != 1:
            raise AssertionError(f"dual v{v.id} domain not singleton: {len(live)} tuples")
        t = v.tuples[live[0]]
        for pos, x in enumerate(v.scope):
            if assignment[x] is None:
                assignment[x] = t[pos]
            elif assignment[x] != t[pos]:
                raise AssertionError(f"duals disagree on variable {x}")
    for x in range(n):
        if assignment[x] is None:
            live = state.live_values(x) if enc.has_originals else [0]
            assignment[x] = live[0]
    return assignment

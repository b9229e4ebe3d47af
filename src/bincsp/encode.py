"""Hidden-variable, dual and double encodings, with piecewise decompositions.

A dual variable's domain is the allowed-tuple list of its source constraint.
Hidden constraints (dual <-> original) and dual-dual constraints are stored
structurally - positions and shared-variable lists - never as materialized
binary tuple tables.

A dual-dual constraint's piecewise decomposition depends only on a dual and
the ordered tuple of variables it shares with the peer, so one
`Decomposition` is built per (dual, shared-variable tuple) and every pair
with that dual and tuple uses it as its side. All decompositions on one
shared-variable tuple number their groups in one id space, the projection
keys realized on that tuple in ascending order, so group g on one side of a
pair is keyed like group g on the other. A key missing from one side shows
up there as an empty group and drives deletions on the other. A hidden arc
is piecewise functional too, so `EncodedProblem.arcs` lists every binary
arc with two decompositions as its sides: the hidden arcs (v, x, pos), as
v's decomposition on (x,) against the identity grouping of x's values,
then the dual-dual pairs.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .core import (DEFAULT_EXPANSION_BUDGET, DomainState, GapRows, Problem,
                   materialize, value_index)

HVE = "HVE"
DE = "DE"
DOUBLE = "DOUBLE"
HYBRID = "HYBRID"


class DualVariable:
    """One dual variable: a constraint turned into a variable over its tuples.

    `tuples` is the list the build expanded, not a copy: duals of equal
    relations share it, and with it the value index of their hidden arcs."""

    def __init__(self, dual_id: int, constraint_index: int, scope: Sequence[int],
                 tuples: list, domain_sizes: Sequence[int]):
        self.id = dual_id
        self.constraint_index = constraint_index
        self.scope = tuple(scope)
        self.tuples = tuples
        self.position = {x: i for i, x in enumerate(self.scope)}
        self.domain_sizes = [domain_sizes[x] for x in self.scope]

    @property
    def arity(self) -> int:
        return len(self.scope)

    def __repr__(self):
        return f"DualVariable(v{self.id} c{self.constraint_index} |D|={len(self.tuples)})"


class Decomposition:
    """Piecewise decomposition of one variable's domain on an ordered tuple
    of shared variables: a dual's tuples, or the values of an original.

    Groups are keyed by the projection onto `shared`. Group ids are shared
    by every decomposition on the same tuple and rise with the key, so the
    supporting group of id g on an arc's peer side is simply id g over there
    (empty there if no peer tuple carries the key). tuple_group makes group
    lookup a constant-time array read; members lists each group's tuple
    indices in ascending order. One object serves every arc in which its
    owner shares exactly `shared`; an original's is the identity grouping.
    """

    def __init__(self, owner: int, shared: tuple, tuple_group: Sequence[int],
                 members: list):
        self.owner = owner
        self.shared = shared
        self.tuple_group = tuple_group
        self.members = members

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
        return (f"Decomposition(v{self.owner} on {self.shared}, "
                f"{self.group_count} groups)")


class ValueDecomposition(Decomposition):
    """A dual's decomposition on the variable at position pos: its members
    are the value index of its tuple list at pos, shared by the duals of the
    list, and `tuple_group`, that position's column, is built on first read."""

    def __init__(self, owner: int, x: int, tuples: list, pos: int, members: list):
        self.owner = owner
        self.shared = (x,)
        self.members = members
        self._column = tuples, pos

    @cached_property
    def tuple_group(self) -> list:
        tuples, pos = self._column
        return list(map(itemgetter(pos), tuples))


class HiddenArc(NamedTuple):
    """Hidden constraint (v, x, pos): side1 is v's decomposition on (x,), side2 x's."""
    side1: Decomposition
    side2: Decomposition


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
                 residual_constraints: Sequence[int] = (),
                 decompositions: Optional[dict] = None):
        self.kind = kind
        self.problem = problem
        self.duals = list(duals)
        self.hidden = list(hidden)  # (dual_id, var, pos) triples
        self.dual_pairs = list(dual_pairs)
        self.residual_constraints = list(residual_constraints)
        # (dual id, shared-variable tuple) -> Decomposition
        self.decompositions = decompositions if decompositions is not None else {}
        # every binary arc, with sides side1 and side2: the hidden arcs, then the pairs
        identity = {}
        for _, x, _ in self.hidden:
            if x not in identity:
                size = problem.domain_size(x)
                identity[x] = Decomposition(x, (x,), range(size),
                                            [[a] for a in range(size)])
        self.arcs = [HiddenArc(self.decompositions[v, (x,)], identity[x])
                     for v, x, _ in self.hidden] + self.dual_pairs
        self.has_originals = kind != DE
        self.duals_of_var = _duals_of_var(problem.n, self.duals)
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

    def tuple_table_bytes(self) -> int:
        """Analytic memory of the dual tuple tables, 4 bytes per value."""
        return sum(v.arity * len(v.tuples) * 4 for v in self.duals)

    def __repr__(self):
        return (f"EncodedProblem({self.kind}: {len(self.duals)} duals, "
                f"{len(self.hidden)} hidden, {len(self.dual_pairs)} dual-dual, "
                f"{len(self.residual_constraints)} residual)")


def _make_duals(problem: Problem, constraint_ids: Sequence[int],
                budget: int, expanded: Optional[dict] = None) -> list:
    """One dual per constraint id. Equal relations are expanded once (see
    `core.GapRows.relations`), and their duals share the tuple list and its
    value index."""
    sizes = [problem.domain_size(x) for x in range(problem.n)]
    rows = GapRows()
    duals = []
    for dual_id, ci in enumerate(constraint_ids):
        c = problem.constraints[ci]
        tuples = expanded.get(ci) if expanded else None
        if tuples is None:
            tuples = materialize(problem, c, budget, rows)
        duals.append(DualVariable(dual_id, ci, c.scope, tuples, sizes))
    return duals


def _make_hidden(duals: Sequence[DualVariable]) -> list:
    hidden = []
    for v in duals:
        for pos, x in enumerate(v.scope):
            hidden.append((v.id, x, pos))
    return hidden


def _duals_of_var(n: int, duals: Sequence[DualVariable]) -> list:
    out = [[] for _ in range(n)]
    for v in duals:
        for x in v.scope:
            out[x].append(v.id)
    return out


def _make_pairs(duals: Sequence[DualVariable], duals_of_var: Sequence[list]) -> list:
    """One DualPair per two duals sharing a variable, ordered by (v1, v2)
    with v1 < v2; `shared` lists the shared variables in v1's scope order."""
    pairs = []
    for di in duals:
        peers = sorted({j for x in di.scope for j in duals_of_var[x] if j > di.id})
        for j in peers:
            dj = duals[j]
            shared = [x for x in di.scope if x in dj.position]
            pairs.append(DualPair(len(pairs), di.id, j, shared,
                                  [di.position[x] for x in shared],
                                  [dj.position[x] for x in shared]))
    return pairs


def _decompose(duals: Sequence[DualVariable], pairs: Sequence[DualPair],
               hidden: Sequence[tuple]) -> dict:
    """Build one Decomposition per (dual, shared-variable tuple) used by a
    pair or a hidden arc, and set the pair sides to them.

    The ids of a tuple are the keys that its duals realize, in ascending
    order. A hidden arc's original variable realizes every value, so on a
    single hidden variable the ids are the values themselves: the
    decomposition is a `ValueDecomposition`, whose members are the value
    index of the dual's tuple list at that position.
    """
    users = {}  # shared tuple -> {dual id: positions}
    for pair in pairs:
        owners = users.setdefault(pair.shared, {})
        owners[pair.v1] = pair.pos1
        owners[pair.v2] = pair.pos2
    out, indexes = {}, {}  # indexes: id of a tuple list -> its value index
    for v, x, pos in hidden:
        dual = duals[v]
        index = indexes.get(id(dual.tuples))
        if index is None:
            index = indexes[id(dual.tuples)] = value_index(dual.tuples,
                                                           dual.domain_sizes)
        out[v, (x,)] = ValueDecomposition(v, x, dual.tuples, pos, index[pos])
    hidden_vars = {(x,) for _, x, _ in hidden}
    for shared, owners in users.items():
        if shared in hidden_vars:
            continue
        keys = {v: list(map(itemgetter(*positions), duals[v].tuples))
                for v, positions in owners.items()}
        realized = sorted(set().union(*keys.values()))
        gid = {key: g for g, key in enumerate(realized)}.__getitem__
        for v, proj in keys.items():
            tuple_group = list(map(gid, proj))
            members = [[] for _ in realized]
            for idx, g in enumerate(tuple_group):
                members[g].append(idx)
            out[v, shared] = Decomposition(v, shared, tuple_group, members)
    for pair in pairs:
        pair.side1 = out[pair.v1, pair.shared]
        pair.side2 = out[pair.v2, pair.shared]
    return out


def build_hve(problem: Problem, budget: int = DEFAULT_EXPANSION_BUDGET) -> EncodedProblem:
    """Hidden variable encoding: one dual per constraint, a binary constraint
    between the dual and each original variable in its scope."""
    duals = _make_duals(problem, range(len(problem.constraints)), budget)
    hidden = _make_hidden(duals)
    return EncodedProblem(HVE, problem, duals, hidden, [],
                          decompositions=_decompose(duals, [], hidden))


def build_de(problem: Problem, budget: int = DEFAULT_EXPANSION_BUDGET) -> EncodedProblem:
    """Dual encoding: variables are swapped with constraints; a dual-dual
    constraint for every pair of constraints sharing original variables."""
    duals = _make_duals(problem, range(len(problem.constraints)), budget)
    pairs = _make_pairs(duals, _duals_of_var(problem.n, duals))
    return EncodedProblem(DE, problem, duals, [], pairs,
                          decompositions=_decompose(duals, pairs, ()))


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
    pairs = _make_pairs(duals, _duals_of_var(problem.n, duals))
    hidden = _make_hidden(duals)
    residual = [ci for ci in all_ids if ci not in set(subset)]
    return EncodedProblem(kind, problem, duals, hidden, pairs, residual,
                          decompositions=_decompose(duals, pairs, hidden))


def induced_assignment(enc: EncodedProblem, state: DomainState) -> list:
    """Original-variable assignment induced by singleton dual domains.

    Variables covered by no dual take their first live value (no dual
    constrains them). Raises if a dual domain is not a singleton or if two
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
            assignment[x] = state.live_values(x)[0]
    return assignment

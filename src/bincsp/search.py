"""Backtracking search hosting the full algorithm family.

One chronological engine drives every lane; lanes differ in the model they
search (non-binary, HVE, DE, double, hybrid), the per-node lookahead
(forward-checking levels 0..5 or maintained AC) and the propagation
machinery (generic 2001-style vs HAC / PW-AC). The non-binary and HVE lanes
keep rigorously parallel revision orders - selected constraints by index,
scope order, ascending values, lexicographic support scans - so the
equivalence theorems between nFCi/hFCi and MGAC/MHAC are testable as exact
node-sequence equality.

A node is one value-assignment event; dead-end detection happens at the
node after its lookahead. The node count of the backtrack-free dual
completion at a SAT leaf is not included.

Propagation on the double encoding lives in one place, `DoubleEngine`:
`double_ac` is its root propagation, run on its own.

Search below the root attaches the engine's trail to its `DomainState`,
so deletions and pointer moves made by the propagators are trailed where
they happen, and `undo_to` pops the trail through `DomainState.undo`. Counters derived from
tuple liveness (PW-AC groups, value supports) are not trailed: the engine's
`tuple_restored` hook counts each restored tuple back into them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .core import (Counters, DEFAULT_EXPANSION_BUDGET, DomainState, Problem,
                   solution_check)
from .encode import (DE, DOUBLE, HVE, HYBRID, EncodedProblem, build_de,
                     build_double, build_hve, induced_assignment)
from .propagate import (Ac2001, DeView, DoubleView, Gac2001, Hac,
                        PropagationResult, PwAc, ValueSupports, _Queue,
                        constraint_has_valid_tuple)

SAT = "SAT"
UNSAT = "UNSAT"
NODE_LIMIT = "NODE_LIMIT"
TIME_LIMIT = "TIME_LIMIT"

ORIGINAL_ONLY = "ORIGINAL_ONLY"
ALL_VARIABLES = "ALL_VARIABLES"
DUALS = "DUALS"

FIXED = "fixed"
DOM_DEG = "dom_deg"


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    representation: str          # NONBINARY | HVE | DE | DOUBLE | HYBRID
    scheme: str                  # "FC" | "MAC"
    level: Optional[int]         # FC lookahead level 0..5
    specialized: bool            # HAC / PW-AC vs generic 2001 propagation
    branch: str                  # ORIGINAL_ONLY | ALL_VARIABLES | DUALS


NONBINARY = "NONBINARY"


def _registry() -> dict:
    algos = {}

    def add(name, representation, scheme, level, specialized, branch):
        algos[name] = AlgorithmSpec(name, representation, scheme, level,
                                    specialized, branch)

    add("MGAC-2001", NONBINARY, "MAC", None, False, ORIGINAL_ONLY)
    for i in range(6):
        add(f"nFC{i}", NONBINARY, "FC", i, False, ORIGINAL_ONLY)
    add("MHAC-2001", HVE, "MAC", None, True, ORIGINAL_ONLY)
    add("MHAC-2001-full", HVE, "MAC", None, True, ALL_VARIABLES)
    for i in range(6):
        add(f"hFC{i}", HVE, "FC", i, True, ORIGINAL_ONLY)
    add("MAC-2001", DE, "MAC", None, False, DUALS)
    add("MAC-PW-AC", DE, "MAC", None, True, DUALS)
    add("MAC-2001d", DOUBLE, "MAC", None, False, ORIGINAL_ONLY)
    add("MAC-PW-ACd", DOUBLE, "MAC", None, True, ORIGINAL_ONLY)
    for i in range(6):
        add(f"dFC{i}", DOUBLE, "FC", i, True, ORIGINAL_ONLY)
    add("MAC-hybrid", HYBRID, "MAC", None, True, ORIGINAL_ONLY)
    return algos


ALGORITHMS = _registry()


@dataclass
class SearchResult:
    verdict: str
    solution: Optional[tuple]      # value indices per original variable
    nodes: int
    counters: Counters
    elapsed_ms: float
    node_paths: Optional[list] = None   # per node: tuple of (var, value) pairs

    @property
    def node_set(self) -> set:
        return set(self.node_paths) if self.node_paths is not None else set()


class _LimitHit(Exception):
    def __init__(self, verdict):
        self.verdict = verdict


class Engine:
    """Chronological backtracking over a model adapter (subclasses)."""

    def __init__(self, spec: AlgorithmSpec, ordering: str = DOM_DEG,
                 node_limit: Optional[int] = None,
                 time_limit_ms: Optional[float] = None,
                 record_nodes: bool = False):
        self.spec = spec
        self.ordering = ordering
        self.node_limit = node_limit
        self.time_limit_ms = time_limit_ms
        self.record_nodes = record_nodes
        self.counters = Counters()
        self.trail: list = []
        self.nodes = 0
        self.path: list = []
        self.node_paths: list = [] if record_nodes else None
        self._t0 = 0.0

    # -- hooks -------------------------------------------------------------

    def root_propagate(self) -> bool:
        return True

    def branch_candidates(self) -> list:
        raise NotImplementedError

    def live_count(self, var) -> int:
        raise NotImplementedError

    def degree(self, var) -> int:
        raise NotImplementedError

    def live_values(self, var) -> list:
        raise NotImplementedError

    def assign(self, var, val) -> bool:
        raise NotImplementedError

    def lookahead(self, var) -> bool:
        raise NotImplementedError

    # re-derives, from a tuple that an undo brought back, the counters kept
    # from tuple liveness (PW-AC groups, value supports); None if there are none
    tuple_restored = None

    def undo_to(self, mark: int) -> None:
        self.state.undo(mark, self.tuple_restored)

    def extract_solution(self) -> tuple:
        raise NotImplementedError

    def _assign_flat(self, var, val) -> bool:
        """Assign an original variable by deleting its other live values,
        with no propagation into dual domains."""
        state = self.state
        state.set_slot(self.assigned, var, True)
        for b in state.live_values(var):
            if b != val:
                state.remove_value(var, b)
                self.counters.value_removals += 1
        return True

    # -- engine ------------------------------------------------------------

    def select_variable(self):
        candidates = self.branch_candidates()
        if not candidates:
            return None
        if self.ordering == FIXED:
            return candidates[0]
        best = candidates[0]
        best_dom, best_deg = self.live_count(best), max(self.degree(best), 0)
        for var in candidates[1:]:
            dom, deg = self.live_count(var), max(self.degree(var), 0)
            # dom/deg comparison by cross-multiplication; zero degree = infinity
            if best_deg == 0 and deg == 0:
                continue
            if best_deg == 0 or (deg != 0 and dom * best_deg < best_dom * deg):
                best, best_dom, best_deg = var, dom, deg
        return best

    def _tick(self):
        self.nodes += 1
        if self.node_limit is not None and self.nodes >= self.node_limit:
            raise _LimitHit(NODE_LIMIT)
        if self.time_limit_ms is not None and self.nodes % 128 == 0:
            if (time.perf_counter() - self._t0) * 1000.0 > self.time_limit_ms:
                raise _LimitHit(TIME_LIMIT)

    def _descend(self) -> bool:
        """Depth-first search from the current state; True at a solution.

        One stack frame per level, (variable, its remaining values, trail
        mark), in place of recursion, so the depth is not bounded by the
        interpreter's recursion limit. Nodes come in the recursive order.
        The trail is attached to the state here: what root propagation
        deleted is never undone, so it is not recorded.
        """
        self.state.trail = self.trail
        var = self.select_variable()
        if var is None:
            return True
        frames = [(var, iter(self.live_values(var)), len(self.trail))]
        while frames:
            var, values, mark = frames[-1]
            for val in values:
                self.path.append((var, val))
                if self.node_paths is not None:
                    self.node_paths.append(tuple(self.path))
                self._tick()
                if self.assign(var, val) and self.lookahead(var):
                    child = self.select_variable()
                    if child is None:
                        return True
                    frames.append((child, iter(self.live_values(child)),
                                   len(self.trail)))
                    break
                self.path.pop()
                self.undo_to(mark)
            else:
                # every value failed: the parent's current value fails too
                frames.pop()
                if frames:
                    self.path.pop()
                    self.undo_to(frames[-1][2])
        return False

    def solve(self) -> SearchResult:
        self._t0 = time.perf_counter()
        verdict = UNSAT
        solution = None
        try:
            if self.root_propagate():
                if self._descend():
                    verdict = SAT
                    solution = self.extract_solution()
        except _LimitHit as hit:
            verdict = hit.verdict
        elapsed = (time.perf_counter() - self._t0) * 1000.0
        return SearchResult(verdict, solution, self.nodes, self.counters,
                            elapsed, self.node_paths)


def _fc_selected(scopes, assigned, currents, level):
    """Constraint (or dual) ids selected by a forward-checking level, in
    index order. `scopes` are sets; `currents` is the set of variables the
    node just assigned.

    Levels 0/1: constraints with a current variable and exactly one
    unassigned variable. Levels 2/3: a current variable and at least one
    unassigned. Levels 4/5: at least one assigned (the current variables
    count) and at least one unassigned.
    """
    out = []
    for ci, scope in enumerate(scopes):
        unassigned = sum(1 for x in scope if not assigned[x])
        if level in (0, 1):
            if unassigned == 1 and not scope.isdisjoint(currents):
                out.append(ci)
        elif level in (2, 3):
            if unassigned >= 1 and not scope.isdisjoint(currents):
                out.append(ci)
        else:
            if unassigned >= 1 and len(scope) - unassigned >= 1:
                out.append(ci)
    return out


# ---------------------------------------------------------------------------
# non-binary lane: nFC0..nFC5 and MGAC-2001


class NonBinaryEngine(Engine):
    def __init__(self, problem: Problem, spec: AlgorithmSpec, **kw):
        super().__init__(spec, **kw)
        self.problem = problem
        self.state = DomainState.full(problem)
        self.assigned = [False] * problem.n
        self.gac = Gac2001(problem, self.counters)
        self.scopes = [set(c.scope) for c in problem.constraints]
        self.rels = [c.relation for c in problem.constraints]
        self._apply_unary_filters()

    def _apply_unary_filters(self):
        for c in self.problem.constraints:
            if c.arity != 1:
                continue
            x = c.scope[0]
            allowed = ({t[0] for t in c.relation} if c.relation is not None else
                       {a for a in range(self.problem.domain_size(x))
                        if c.predicate.holds((self.problem.domains[x][a],))})
            for a in self.state.live_values(x):
                if a not in allowed:
                    self.state.remove_value(x, a)

    def root_propagate(self) -> bool:
        if any(self.state.counts[x] == 0 for x in range(self.problem.n)):
            return False
        if self.spec.scheme == "MAC":
            return self.gac.run(self.state, assigned=self.assigned)
        return True

    def branch_candidates(self) -> list:
        return [x for x in range(self.problem.n) if not self.assigned[x]]

    def live_count(self, var) -> int:
        return self.state.counts[var]

    def degree(self, var) -> int:
        return len(self.problem.constraints_of_var[var])

    def live_values(self, var) -> list:
        return self.state.live_values(var)

    def assign(self, var, val) -> bool:
        return self._assign_flat(var, val)

    def _revise_constraint(self, ci) -> bool:
        """Revise every unassigned variable of a constraint once; False on an
        original-domain wipeout."""
        c = self.problem.constraints[ci]
        for pos, x in enumerate(c.scope):
            if self.assigned[x]:
                continue
            if self.gac.revise_arc(ci, pos, self.state):
                if self.state.counts[x] == 0:
                    return False
        return True

    def lookahead(self, var) -> bool:
        spec = self.spec
        if spec.scheme == "MAC":
            return self.gac.run(self.state,
                                queue_seed=self.problem.constraints_of_var[var],
                                assigned=self.assigned)
        level = spec.level
        selected = _fc_selected(self.scopes, self.assigned, {var}, level)
        if level in (0, 1, 2, 4):
            for ci in selected:
                if not self._revise_constraint(ci):
                    return False
            if level in (2, 4):
                return self._no_empty_relation()
            return True
        # levels 3 and 5: fixpoint restricted to the selected constraints
        if not self.gac.run(self.state, queue_seed=selected,
                            assigned=self.assigned, constraint_subset=selected):
            return False
        return self._no_empty_relation()

    def _no_empty_relation(self) -> bool:
        """No constraint may have an empty valid-tuple set: the non-binary
        analogue of a dual-domain wipeout, which the hidden encoding detects
        eagerly in constraints its lookahead set never revisits."""
        for ci, c in enumerate(self.problem.constraints):
            if not constraint_has_valid_tuple(self.problem, c, self.rels[ci],
                                              self.state, self.counters):
                return False
        return True

    def extract_solution(self) -> tuple:
        assignment = tuple(self.state.live_values(x)[0] for x in range(self.problem.n))
        if not solution_check(self.problem, assignment):
            raise AssertionError("engine produced an inconsistent solution")
        return assignment


# ---------------------------------------------------------------------------
# HVE lane: hFC0..hFC5, MHAC-2001, MHAC-2001-full


class HveEngine(Engine):
    def __init__(self, enc: EncodedProblem, spec: AlgorithmSpec, **kw):
        super().__init__(spec, **kw)
        if not enc.has_originals:
            raise ValueError("HVE lane needs an encoding with original variables")
        self.enc = enc
        self.problem = enc.problem
        self.state = enc.fresh_state()
        self.assigned = [False] * self.problem.n
        self.dual_assigned = [False] * len(enc.duals)
        self.hac = self._make_hac()
        self.scopes = [set(v.scope) for v in enc.duals]
        self.pruned_duals: list = []
        # only FC+ (level 1) revises the duals that lost tuples at this node
        self.track_pruned = spec.scheme == "FC" and spec.level == 1

    def _make_hac(self) -> Hac:
        return Hac(self.enc, self.counters)

    def root_propagate(self) -> bool:
        if any(self.state.dual_counts[v.id] == 0 for v in self.enc.duals):
            return False
        if self.spec.scheme == "MAC":
            return self._maintain_root()
        return True

    def _maintain_root(self) -> bool:
        return self.hac.run(self.state, assigned=self.assigned)

    def branch_candidates(self) -> list:
        out = [x for x in range(self.problem.n) if not self.assigned[x]]
        if self.spec.branch == ALL_VARIABLES:
            for v in self.enc.duals:
                if self.dual_assigned[v.id]:
                    continue
                if any(not self.assigned[x] for x in v.scope):
                    out.append(("dual", v.id))
        return out

    def live_count(self, var) -> int:
        if isinstance(var, tuple):
            return self.state.dual_counts[var[1]]
        return self.state.counts[var]

    def degree(self, var) -> int:
        if isinstance(var, tuple):
            v = self.enc.duals[var[1]]
            return v.arity + len(self.enc.pairs_of_dual[v.id])
        return len(self.enc.duals_of_var[var]) + sum(
            1 for ci in self.enc.residual_constraints
            if var in self.problem.constraints[ci].scope)

    def live_values(self, var) -> list:
        if isinstance(var, tuple):
            return self.state.live_tuples(var[1])
        return self.state.live_values(var)

    def delete_value(self, x, a) -> bool:
        if not self.track_pruned:
            return self.hac.delete(self.state, x, a)
        before = {v: self.state.dual_counts[v] for v in self.enc.duals_of_var[x]}
        ok = self.hac.delete(self.state, x, a)
        for v, cnt in before.items():
            if self.state.dual_counts[v] != cnt:
                self.pruned_duals.append(v)
        return ok

    def assign(self, var, val) -> bool:
        self.pruned_duals = []
        if isinstance(var, tuple):
            return self._assign_dual(var[1], val)
        return self._assign_original(var, val)

    def _assign_original(self, x, a) -> bool:
        self.state.set_slot(self.assigned, x, True)
        ok = True
        for b in self.state.live_values(x):
            if b != a:
                if not self.delete_value(x, b):
                    ok = False
        return ok

    def _assign_dual(self, v, idx) -> bool:
        """Assigning a tuple to a dual variable instantiates every original
        variable in its scope and counts as one node."""
        state = self.state
        state.set_slot(self.dual_assigned, v, True)
        dual = self.enc.duals[v]
        for other in state.live_tuples(v):
            if other != idx:
                state.remove_tuple(v, other)
                self.counters.tuple_removals += 1
        t = dual.tuples[idx]
        ok = True
        for pos, x in enumerate(dual.scope):
            if self.assigned[x]:
                if not state.masks[x][t[pos]]:
                    ok = False
                continue
            state.set_slot(self.assigned, x, True)
            if not state.masks[x][t[pos]]:
                ok = False
                continue
            for b in state.live_values(x):
                if b != t[pos]:
                    if not self.delete_value(x, b):
                        ok = False
        return ok

    def _current_originals(self, var) -> list:
        if isinstance(var, tuple):
            return list(self.enc.duals[var[1]].scope)
        return [var]

    def revise_dual(self, v) -> bool:
        """One revision pass of a dual against its unassigned originals;
        False on any wipeout (dual or original)."""
        for x in self.enc.duals[v].scope:
            if self.assigned[x]:
                continue
            deleted, wiped = self.hac.revise_arc(x, v, self.state)
            if wiped:
                return False
            if deleted and self.state.counts[x] == 0:
                return False
        return True

    def lookahead(self, var) -> bool:
        spec = self.spec
        current_vars = self._current_originals(var)
        if spec.scheme == "MAC":
            seed = []
            for x in current_vars:
                seed.extend(self.enc.duals_of_var[x])
            return self.hac.run(self.state, queue_seed=seed, assigned=self.assigned)
        level = spec.level
        if level == 0:
            return self._no_wiped_dual()
        if level == 1:
            for v in sorted(set(self.pruned_duals)):
                if not self.revise_dual(v):
                    return False
            return self._no_wiped_dual()
        selected = _fc_selected(self.scopes, self.assigned, set(current_vars),
                                level)
        if level in (2, 4):
            for v in selected:
                if not self.revise_dual(v):
                    return False
            return self._no_wiped_dual()
        return self.hac.run(self.state, queue_seed=selected,
                            assigned=self.assigned, dual_subset=selected)

    def _no_wiped_dual(self) -> bool:
        return all(c > 0 for c in self.state.dual_counts)

    def extract_solution(self) -> tuple:
        complete_dual_assignments(self.enc, self.state)
        assignment = tuple(self.state.live_values(x)[0] for x in range(self.problem.n))
        if not solution_check(self.problem, assignment):
            raise AssertionError("engine produced an inconsistent solution")
        return assignment


def complete_dual_assignments(enc: EncodedProblem, state: DomainState) -> dict:
    """Backtrack-free completion: with all originals assigned and propagation
    done, every dual domain must be a singleton. Returns dual id -> tuple
    index. A non-singleton domain here is an engine bug."""
    out = {}
    for v in enc.duals:
        live = state.live_tuples(v.id)
        if len(live) != 1:
            raise AssertionError(
                f"dual v{v.id} not a singleton at completion: {len(live)} tuples")
        out[v.id] = live[0]
    return out


# ---------------------------------------------------------------------------
# double / hybrid lane: dFC0..dFC5, MAC-PW-ACd, MAC-hybrid


class DoubleEngine(HveEngine):
    """The one propagator of the double encoding, for search and, through
    `double_ac`, at the root alone.

    HVE machinery plus piecewise group counters; lookahead additionally
    propagates through the dual-dual constraints. MAC mode adds the
    value-support rule (an original value dies with its last supporting
    tuple in some adjacent dual) and, for hybrids, residual GAC-2001."""

    def __init__(self, enc: EncodedProblem, spec: AlgorithmSpec, **kw):
        super().__init__(enc, spec, **kw)
        self.pw = PwAc(enc, self.counters, on_tuple_deleted=self._tuple_deleted_hook)
        self.pw.init_counts(self.state)
        self.use_value_rule = spec.scheme == "MAC"
        self.vs = ValueSupports(enc, self.state) if self.use_value_rule else None
        self.value_queue = _Queue()
        self.residual_gac = (Gac2001(self.problem, self.counters,
                                     remove_value=self._residual_remove)
                             if enc.residual_constraints else None)
        self._residual_wiped = False

    def _make_hac(self) -> Hac:
        # tuple deletions must maintain the group counters
        return Hac(self.enc, self.counters, delete_value=self._delete_value_via_pw)

    def _delete_value_via_pw(self, state, x, a) -> bool:
        state.remove_value(x, a)
        self.counters.value_removals += 1
        ok = True
        for v_l in self.enc.duals_of_var[x]:
            dual = self.enc.duals[v_l]
            mask = state.dual_masks[v_l]
            for idx in dual.tuples_by_pos_val[dual.position[x]][a]:
                if mask[idx]:
                    if not self.pw.delete_tuple(state, v_l, idx):
                        ok = False
        return ok

    def _tuple_deleted_hook(self, state, v, idx):
        if self.vs is None:
            return
        dual = self.enc.duals[v]
        t = dual.tuples[idx]
        for pos, x in enumerate(dual.scope):
            counts = self.vs.counts[v][pos]
            a = t[pos]
            counts[a] -= 1
            if counts[a] == 0 and state.masks[x][a]:
                self.value_queue.push((x, a))

    def tuple_restored(self, v, idx):
        """Undo hook: count a restored tuple in its groups and, in MAC mode,
        as a support of each of its values again."""
        self.pw.restore_tuple(v, idx)
        if self.vs is not None:
            counts = self.vs.counts[v]
            for pos, a in enumerate(self.enc.duals[v].tuples[idx]):
                counts[pos][a] += 1

    def root_propagate(self) -> bool:
        if any(self.state.dual_counts[v.id] == 0 for v in self.enc.duals):
            return False
        if self.spec.scheme == "MAC":
            # init-phase zero groups are already queued by init_counts
            for v in self.enc.duals:
                for pos, x in enumerate(v.scope):
                    counts = self.vs.counts[v.id][pos]
                    for a in range(len(counts)):
                        if counts[a] == 0 and self.state.masks[x][a]:
                            self.value_queue.push((x, a))
            return self._drain()
        # FC levels propagate nothing at the root; drop init-phase queue
        # entries, the per-node group scan rediscovers empty groups.
        self.pw.queue = _Queue()
        return True

    def _drain(self) -> bool:
        while True:
            if not self.pw.propagate(self.state):
                return False
            if not self.value_queue:
                ok = True
                if self.residual_gac is not None:
                    ok, more = self._residual_round()
                    if ok and more:
                        continue
                return ok
            x, a = self.value_queue.pop()
            if self.state.masks[x][a]:
                if not self._delete_value_via_pw(self.state, x, a):
                    return False
                if self.state.counts[x] == 0:
                    return False

    def _residual_round(self):
        """One round of residual GAC; returns (consistent, deleted_anything)."""
        before = self.counters.value_removals
        ok = self.residual_gac.run(self.state, assigned=self.assigned,
                                   constraint_subset=self.enc.residual_constraints)
        return ok and not self._residual_wiped, self.counters.value_removals > before

    def _residual_remove(self, state, x, a):
        if not self._delete_value_via_pw(state, x, a):
            self._residual_wiped = True

    def lookahead(self, var) -> bool:
        spec = self.spec
        self._residual_wiped = False
        if spec.scheme == "MAC":
            return self._drain()
        level = spec.level
        current_vars = self._current_originals(var)
        if level == 0:
            return self._no_wiped_dual()
        if level == 1:
            for v in sorted(set(self.pruned_duals)):
                if not self.revise_dual(v):
                    return False
            return self._no_wiped_dual()
        selected = _fc_selected(self.scopes, self.assigned, set(current_vars),
                                level)
        sel = set(selected)
        if level in (2, 4):
            if not self._dual_pass(selected, sel):
                return False
            return self._no_wiped_dual()
        # fixpoint levels: sweep the selected subnetwork until stable
        while True:
            before = (self.counters.tuple_removals, self.counters.value_removals)
            if not self._dual_pass(selected, sel):
                return False
            if (self.counters.tuple_removals, self.counters.value_removals) == before:
                return True

    def _dual_pass(self, selected, sel) -> bool:
        """One pass over the selected duals: piecewise revision against the
        selected peers, then revision of the unassigned adjacent originals."""
        for v in selected:
            for pair_index in self.enc.pairs_of_dual[v]:
                pair = self.enc.dual_pairs[pair_index]
                peer = pair.other(v)
                if peer not in sel:
                    continue
                if not self._revise_pair_side(pair, v):
                    return False
            if not self.revise_dual(v):
                return False
        return True

    def _revise_pair_side(self, pair, v) -> bool:
        """Delete v's live tuples in groups whose peer-side group is empty."""
        own_bit = 0 if pair.v1 == v else 1
        own_side = pair.side_for(v)
        peer_counts = self.pw.pw.counts[pair.index][1 - own_bit]
        own_counts = self.pw.pw.counts[pair.index][own_bit]
        mask = self.state.dual_masks[v]
        for gid in range(own_side.group_count):
            if peer_counts[gid] == 0 and own_counts[gid] > 0:
                for idx in own_side.members[gid]:
                    if mask[idx]:
                        if not self.pw.delete_tuple(self.state, v, idx):
                            return False
        return True

    def undo_to(self, mark: int) -> None:
        super().undo_to(mark)
        # drop queued work that referred to the undone deletions
        self.pw.queue = _Queue()
        self.value_queue = _Queue()


HIDDEN_ONLY = "HIDDEN_ONLY"
DUAL_DUAL = "DUAL_DUAL"
BOTH = "BOTH"


def double_ac(enc: EncodedProblem, mode: str = BOTH) -> PropagationResult:
    """AC on the double (or hybrid) encoding: the root propagation of a MAC
    `DoubleEngine`, in one of three modes.

    DUAL_DUAL runs PW-AC between the duals plus the rule that an original
    value dies with its last supporting tuple in some adjacent dual. That
    rule enforces exactly the hidden constraints' filtering, so BOTH is the
    same fixpoint and the same run. HIDDEN_ONLY (HVE-level consistency) runs
    the engine on the encoding without its dual-dual constraints, where the
    value rule alone is HAC's filtering. Residual non-binary constraints of
    a hybrid are propagated by GAC-2001 to a joint fixpoint.
    """
    if mode not in (HIDDEN_ONLY, DUAL_DUAL, BOTH):
        raise ValueError(f"unknown double AC mode: {mode!r}")
    if mode == HIDDEN_ONLY:
        enc = EncodedProblem(enc.kind, enc.problem, enc.duals, enc.hidden, [],
                             enc.residual_constraints)
    engine = DoubleEngine(enc, ALGORITHMS["MAC-PW-ACd"])
    ok = engine.root_propagate()
    return PropagationResult(ok, engine.state, engine.counters)


# ---------------------------------------------------------------------------
# dual-encoding lane: MAC-2001 and MAC-PW-AC branch on dual variables


class DeEngine(Engine):
    def __init__(self, enc: EncodedProblem, spec: AlgorithmSpec, **kw):
        super().__init__(spec, **kw)
        self.enc = enc
        self.problem = enc.problem
        self.state = enc.fresh_state()
        self.dual_assigned = [False] * len(enc.duals)
        self.specialized = spec.specialized
        if self.specialized:
            self.pw = PwAc(enc, self.counters)
            self.tuple_restored = self.pw.restore_tuple
            self.ac = None
        else:
            self.view = DeView(enc)
            self.ac = Ac2001(self.view, self.counters)
            self.pw = None

    def root_propagate(self) -> bool:
        if any(self.state.dual_counts[v.id] == 0 for v in self.enc.duals):
            return False
        if self.specialized:
            self.pw.init_counts(self.state)
            return self.pw.propagate(self.state)
        return self.ac.run(self.state)

    def branch_candidates(self) -> list:
        return [v.id for v in self.enc.duals if not self.dual_assigned[v.id]]

    def live_count(self, var) -> int:
        return self.state.dual_counts[var]

    def degree(self, var) -> int:
        return len(self.enc.pairs_of_dual[var])

    def live_values(self, var) -> list:
        return self.state.live_tuples(var)

    def assign(self, var, val) -> bool:
        state = self.state
        state.set_slot(self.dual_assigned, var, True)
        ok = True
        for other in state.live_tuples(var):
            if other == val:
                continue
            if self.specialized:
                if not self.pw.delete_tuple(state, var, other):
                    ok = False
            else:
                state.remove_tuple(var, other)
                self.counters.tuple_removals += 1
        return ok

    def lookahead(self, var) -> bool:
        if self.specialized:
            return self.pw.propagate(self.state)
        return self.ac.run(self.state, queue_seed=[var])

    def undo_to(self, mark: int) -> None:
        super().undo_to(mark)
        if self.pw is not None:
            self.pw.queue = _Queue()

    def extract_solution(self) -> tuple:
        assignment = tuple(induced_assignment(self.enc, self.state))
        if not solution_check(self.problem, assignment):
            raise AssertionError("engine produced an inconsistent solution")
        return assignment


# ---------------------------------------------------------------------------
# generic MAC on the double encoding (MAC-2001d)


class DoubleGenericEngine(Engine):
    def __init__(self, enc: EncodedProblem, spec: AlgorithmSpec, **kw):
        super().__init__(spec, **kw)
        self.enc = enc
        self.problem = enc.problem
        self.state = enc.fresh_state()
        self.assigned = [False] * self.problem.n
        self.view = DoubleView(enc)
        self.ac = Ac2001(self.view, self.counters)

    def root_propagate(self) -> bool:
        if any(self.state.dual_counts[v.id] == 0 for v in self.enc.duals):
            return False
        return self.ac.run(self.state)

    def branch_candidates(self) -> list:
        return [x for x in range(self.problem.n) if not self.assigned[x]]

    def live_count(self, var) -> int:
        return self.state.counts[var]

    def degree(self, var) -> int:
        return len(self.enc.duals_of_var[var])

    def live_values(self, var) -> list:
        return self.state.live_values(var)

    def assign(self, var, val) -> bool:
        return self._assign_flat(var, val)

    def lookahead(self, var) -> bool:
        return self.ac.run(self.state, queue_seed=[var])

    def extract_solution(self) -> tuple:
        assignment = tuple(self.state.live_values(x)[0] for x in range(self.problem.n))
        if not solution_check(self.problem, assignment):
            raise AssertionError("engine produced an inconsistent solution")
        return assignment


# ---------------------------------------------------------------------------
# public entry points


def prepare_model(problem: Problem, spec: AlgorithmSpec, budget=None):
    """Build the representation an algorithm searches."""
    budget = budget if budget is not None else DEFAULT_EXPANSION_BUDGET
    if spec.representation == NONBINARY:
        return problem
    if spec.representation == HVE:
        return build_hve(problem, budget)
    if spec.representation == DE:
        return build_de(problem, budget)
    if spec.representation == DOUBLE:
        return build_double(problem, budget=budget)
    raise ValueError("hybrid models must be built explicitly with build_double")


def make_engine(model, spec: AlgorithmSpec, **kw) -> Engine:
    rep = spec.representation
    if rep == NONBINARY:
        if not isinstance(model, Problem):
            raise ValueError(f"{spec.name} searches the non-binary problem")
        return NonBinaryEngine(model, spec, **kw)
    if not isinstance(model, EncodedProblem):
        raise ValueError(f"{spec.name} needs an encoded model")
    if rep == HVE:
        if model.kind != HVE:
            raise ValueError(f"{spec.name} expects an HVE model, got {model.kind}")
        return HveEngine(model, spec, **kw)
    if rep == DE:
        if model.kind != DE:
            raise ValueError(f"{spec.name} expects a DE model, got {model.kind}")
        return DeEngine(model, spec, **kw)
    if rep in (DOUBLE, HYBRID):
        if model.kind not in (DOUBLE, HYBRID):
            raise ValueError(f"{spec.name} expects a double/hybrid model")
        if model.kind == HYBRID and spec.scheme != "MAC":
            raise ValueError("hybrid models need MAC-hybrid: forward checking "
                             "does not propagate the residual constraints")
        if spec.specialized:
            return DoubleEngine(model, spec, **kw)
        return DoubleGenericEngine(model, spec, **kw)
    raise ValueError(f"unknown representation {rep!r}")


def solve(model, algorithm: str, ordering: str = DOM_DEG,
          node_limit: Optional[int] = None,
          time_limit_ms: Optional[float] = None,
          record_nodes: bool = False) -> SearchResult:
    """Solve a Problem or EncodedProblem with a named algorithm.

    A plain Problem is encoded automatically when the algorithm needs it;
    pass a prebuilt EncodedProblem (required for MAC-hybrid) to reuse one.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"known: {', '.join(sorted(ALGORITHMS))}")
    spec = ALGORITHMS[algorithm]
    if isinstance(model, Problem) and spec.representation != NONBINARY:
        model = prepare_model(model, spec)
    engine = make_engine(model, spec, ordering=ordering, node_limit=node_limit,
                         time_limit_ms=time_limit_ms, record_nodes=record_nodes)
    return engine.solve()

"""Backtracking search hosting the full algorithm family.

One chronological engine drives every lane; lanes differ in the model they
search (non-binary, HVE, DE, double, hybrid), the per-node lookahead
(forward-checking levels 0..5 or maintained AC) and the propagation
machinery (generic 2001-style vs HAC / PW-AC). The non-binary and HVE lanes
keep rigorously parallel revision orders - selected constraints by index,
scope order, ascending values, supports found in lexicographic order - so
the equivalence theorems between nFCi/hFCi and MGAC/MHAC are testable as
exact node-sequence equality.

A node is one value-assignment event; dead-end detection happens at the
node after its lookahead. The node count of the backtrack-free dual
completion at a SAT leaf is not included.

`Engine` holds what the lanes share: the model and its domain state, the
one empty-domain test at the root, branching, assignment, undo, and
solution extraction (`induced_assignment` for an encoded model, the first
live values for a `Problem`). Branching follows `spec.branch`: on the
original variables, on every dual (`DUALS`), or on both (`ALL_VARIABLES`),
a dual being written `("dual", v)`. Assigning a tuple to a dual deletes its
other tuples through `delete_tuples` and, when the encoding has originals,
instantiates its scope. A subclass supplies root propagation and lookahead.

`Engine.delete_value(x, a)` and `Engine.delete_tuples(v, idxs)` are the only
deletions in search, and each returns False on the wipe-out it causes, of
an original or of a dual. The propagators take the engine's deletions as
hooks and stop at the first False, so no lane tests for an empty domain
after the fact. `HveEngine.delete_value` is the one hidden deletion: it
also deletes, through `delete_tuples`, the tuples carrying the value, at
one micro-op per carrying tuple it scans. `DoubleEngine` replaces only
`delete_tuples`, by PW-AC's, which maintains the group counters.

`FixpointEngine` holds the one forward-checking level dispatch and the MAC
seeding of every lane whose propagator is a `propagate.UnitFixpoint`:
`NonBinaryEngine` (GAC-2001 over constraints) and `HveEngine` (HAC over
duals), and through `HveEngine` the double encoding's `DoubleEngine`,
which replaces the propagation steps. Each lane keeps only its level-0/1
step; the non-binary lane also tests its constraints for a wipe-out. At
the root every forward-checking lane
revises its units of arity 1 (unary constraints) once. The dual encoding
is a double encoding without originals or hidden arcs, so its MAC lanes
run on the double-encoding engines: MAC-PW-AC on `DoubleEngine`, MAC-2001 (like
MAC-2001d) on `Ac2001Engine`, which runs `propagate.Ac2001` on the binary
constraints of its encoding. Every propagator reads the encoding's one
list of binary arcs, `EncodedProblem.arcs`.

Each propagator run alone is its MAC lane's root propagation:
`gac2001` (MGAC-2001), `hac` (MHAC-2001), `ac2001` (MAC-2001) and `pwac`
(`DoubleEngine`: MAC-PW-AC on a dual encoding, MAC-PW-ACd on a double or
hybrid one, HAC's filtering on the HVE) build that engine and call
`root_propagate`, and `sgac_check` probes each value as MGAC-2001's first
node. So they all share the one empty-domain test, and the propagators
never make one: below the root, an assignment that wipes a domain out
fails before lookahead runs.

`prepare_model` is the one place that turns a `Problem` into the model a
lane searches, the hybrid's double-encoded subset included; `solve` and
`bench.run_one` both call it.

Search below the root attaches the engine's trail to its `DomainState`,
so deletions and pointer moves made by the propagators are trailed where
they happen, and `undo_to` pops the trail through `DomainState.undo`. Tuple
deletions are trailed in batches, one entry per call that deletes them.
Counters derived from tuple liveness (PW-AC groups, value supports) are not
trailed: `DoubleEngine`, the one engine with PW-AC, overrides `undo_to` to
count each restored batch back into them through `PwAc.restore_tuples`
and to drop PW-AC's stale queues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from . import core
from .core import (CapacityError, Counters, DomainState, GapRows, Problem,
                   _column, solution_check)
from .encode import (DE, DOUBLE, HVE, HYBRID, EncodedProblem, build_de,
                     build_double, build_hve, induced_assignment)
from .propagate import Ac2001, Gac2001, Hac, PwAc, _pred_enum

CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"
SAT = "SAT"
UNSAT = "UNSAT"
NODE_LIMIT = "NODE_LIMIT"
TIME_LIMIT = "TIME_LIMIT"

ORIGINAL_ONLY = "ORIGINAL_ONLY"
ALL_VARIABLES = "ALL_VARIABLES"
DUALS = "DUALS"

FIXED = "fixed"
DOM_DEG = "heuristic"


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


class _LimitHit(Exception):
    def __init__(self, verdict):
        self.verdict = verdict


class Engine:
    """Chronological backtracking over one model.

    Branching follows `spec.branch`, a dual variable v being written
    `("dual", v)`. An original is assigned by deleting its other live
    values through `delete_value`, which by default propagates nothing; a
    dual by deleting its other tuples through `delete_tuples` and, when the
    encoding has originals, instantiating its scope. Subclasses supply root
    propagation and lookahead, and override the deletions where they
    propagate.
    """

    def __init__(self, model, spec: AlgorithmSpec, ordering: str = DOM_DEG,
                 node_limit: Optional[int] = None,
                 time_limit_ms: Optional[float] = None,
                 record_nodes: bool = False,
                 counters: Optional[Counters] = None):
        if ordering not in (FIXED, DOM_DEG):
            raise ValueError(f"unknown ordering {ordering!r}")
        self.spec = spec
        self.ordering = ordering
        self.node_limit = node_limit
        self.time_limit_ms = time_limit_ms
        self.record_nodes = record_nodes
        self.counters = counters if counters is not None else Counters()
        self.trail: list = []
        self.nodes = 0
        self.path: list = []
        self.node_paths: list = [] if record_nodes else None
        # the trail length when the node being expanded began
        self.node_mark = 0
        self._t0 = 0.0
        if isinstance(model, EncodedProblem):
            self.enc = model
            self.problem = model.problem
            self.state = model.fresh_state()
            self.dual_assigned = [False] * len(model.duals)
            # per dual: its arity when the encoding has originals (its
            # hidden arcs), plus its dual-dual constraints
            self.dual_degrees = [
                (v.arity if model.has_originals else 0) + len(model.pairs_of_dual[v.id])
                for v in model.duals]
        else:
            self.enc = None
            self.problem = model
            self.state = DomainState.full(model)
        self.assigned = [False] * self.problem.n
        self.degrees = self._original_degrees()

    def _original_degrees(self) -> list:
        """Constraints on each original variable: its duals plus the
        residual constraints over it (every constraint of a plain problem)."""
        problem, enc = self.problem, self.enc
        if enc is None:
            return [len(cs) for cs in problem.constraints_of_var]
        degrees = [len(vs) for vs in enc.duals_of_var]
        for ci in enc.residual_constraints:
            for x in problem.constraints[ci].scope:
                degrees[x] += 1
        return degrees

    # -- hooks -------------------------------------------------------------

    def root_propagate(self) -> bool:
        """Fail on an empty domain, original or dual, including that of a
        variable in no constraint; otherwise the lane's root propagation."""
        state = self.state
        # a plain problem's state has no duals (dual_counts None)
        if not (all(state.counts) and all(state.dual_counts or ())):
            return False
        return self._propagate_root()

    def _propagate_root(self) -> bool:
        raise NotImplementedError

    def branch_candidates(self) -> list:
        """ORIGINAL_ONLY: the unassigned originals. DUALS: every unassigned
        dual. ALL_VARIABLES: the unassigned originals, then the unassigned
        duals with an unassigned scope variable."""
        assigned, branch = self.assigned, self.spec.branch
        out = [] if branch == DUALS else \
            [x for x in range(self.problem.n) if not assigned[x]]
        if branch != ORIGINAL_ONLY:
            dual_assigned = self.dual_assigned
            out += [("dual", v.id) for v in self.enc.duals
                    if not dual_assigned[v.id]
                    and (branch == DUALS or not all(assigned[x] for x in v.scope))]
        return out

    def live_count(self, var) -> int:
        if isinstance(var, tuple):
            return self.state.dual_counts[var[1]]
        return self.state.counts[var]

    def degree(self, var) -> int:
        if isinstance(var, tuple):
            return self.dual_degrees[var[1]]
        return self.degrees[var]

    def live_values(self, var) -> list:
        if isinstance(var, tuple):
            return self.state.live_tuples(var[1])
        return self.state.live_values(var)

    def assign(self, var, val) -> bool:
        if isinstance(var, tuple):
            return self._assign_dual(var[1], val)
        return self._assign_original(var, val)

    def _assign_original(self, x, a) -> bool:
        self.state.set_slot(self.assigned, x, True)
        ok = True
        for b in self.state.live_values(x):
            if b != a and not self.delete_value(x, b):
                ok = False
        return ok

    def _assign_dual(self, v, idx) -> bool:
        """Keep only tuple idx of dual v; with originals, also instantiate
        every variable of its scope. One node."""
        state = self.state
        state.set_slot(self.dual_assigned, v, True)
        others = [other for other in state.live_tuples(v) if other != idx]
        ok = not others or self.delete_tuples(v, others)
        if not self.enc.has_originals:
            return ok
        dual = self.enc.duals[v]
        for x, a in zip(dual.scope, dual.tuples[idx]):
            if not state.masks[x][a]:  # the tuple carries a deleted value
                ok = False
                if not self.assigned[x]:
                    state.set_slot(self.assigned, x, True)
            elif not self.assigned[x] and not self._assign_original(x, a):
                ok = False
        return ok

    def delete_value(self, x, a) -> bool:
        """Delete value a of original x; False on the wipe-out this causes,
        of x or of a dual. By default nothing else is deleted."""
        state = self.state
        state.remove_value(x, a)
        self.counters.value_removals += 1
        return state.counts[x] > 0

    def delete_tuples(self, v, idxs) -> bool:
        """Delete the live tuples idxs of dual v; False on the wipe-out this
        causes. By default nothing else is deleted."""
        state = self.state
        state.remove_tuples(v, idxs)
        self.counters.tuple_removals += len(idxs)
        return state.dual_counts[v] > 0

    def lookahead(self, var) -> bool:
        raise NotImplementedError

    def undo_to(self, mark: int) -> None:
        self.state.undo(mark)

    def extract_solution(self) -> tuple:
        if self.enc is None:
            assignment = tuple(self.state.live_values(x)[0]
                               for x in range(self.problem.n))
        else:
            assignment = tuple(induced_assignment(self.enc, self.state))
        if not solution_check(self.problem, assignment):
            raise AssertionError("engine produced an inconsistent solution")
        return assignment

    # -- engine ------------------------------------------------------------

    def select_variable(self):
        candidates = self.branch_candidates()
        if not candidates:
            return None
        if self.ordering == FIXED:
            return candidates[0]
        best = candidates[0]
        best_dom, best_deg = self.live_count(best), self.degree(best)
        for var in candidates[1:]:
            dom, deg = self.live_count(var), self.degree(var)
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
                self.node_mark = mark
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
# the lanes of one unit fixpoint: GAC-2001 (nFC, MGAC) and HAC (hFC, dFC, MAC)


class FixpointEngine(Engine):
    """Search on the original variables with a `UnitFixpoint` propagator,
    whose units are constraints (GAC-2001) or duals (HAC).

    It holds the one forward-checking level dispatch and the MAC seeding of
    both lanes. A lane supplies `_make_fixpoint` and its level-0/1 step
    (`_fc_low_level`); the non-binary lane also a wipe-out test run after
    levels 2-5 (`_no_empty_unit`), and the double encoding's `DoubleEngine`
    the propagation steps
    `_maintain` (MAC), `_revise_selected` (levels 2 and 4, and the root of
    every level) and `_restricted_fixpoint` (levels 3 and 5)."""

    def __init__(self, model, spec: AlgorithmSpec, **kw):
        super().__init__(model, spec, **kw)
        self.fixpoint = self._make_fixpoint()
        self.scopes = [set(scope) for scope in self.fixpoint.scopes]

    def _make_fixpoint(self):
        raise NotImplementedError

    def _propagate_root(self) -> bool:
        """MAC runs the fixpoint over every unit; forward checking revises
        each unit of arity 1 once, as no assignment ever selects one."""
        if self.spec.scheme == "MAC":
            return self._maintain()
        return self._revise_selected([u for u, scope in enumerate(self.fixpoint.scopes)
                                      if len(scope) == 1])

    def lookahead(self, var) -> bool:
        if isinstance(var, tuple):  # a dual assignment makes its scope current
            current_vars = self.enc.duals[var[1]].scope
        else:
            current_vars = (var,)
        if self.spec.scheme == "MAC":
            return self._maintain(current_vars)
        level = self.spec.level
        if level <= 1:
            return self._fc_low_level(current_vars)
        selected = _fc_selected(self.scopes, self.assigned, set(current_vars),
                                level)
        if level in (2, 4):
            ok = self._revise_selected(selected)
        else:
            ok = self._restricted_fixpoint(selected)
        return ok and self._no_empty_unit()

    def _fc_low_level(self, current_vars) -> bool:
        raise NotImplementedError

    def _no_empty_unit(self) -> bool:
        """No unit is left without a valid tuple. A dual that loses its last
        tuple already failed the deletion that emptied it."""
        return True

    def _maintain(self, current_vars=None) -> bool:
        """MAC: the fixpoint from the units over the variables just
        assigned, or from every unit at the root."""
        seed = None
        if current_vars is not None:
            units_of_var = self.fixpoint.units_of_var
            seed = [u for x in current_vars for u in units_of_var[x]]
        return self.fixpoint.run(self.state, self.assigned, queue_seed=seed)

    def _revise_selected(self, selected) -> bool:
        """One revision pass over the selected units, in order."""
        return self.fixpoint.revise_units(selected, self.state, self.assigned)

    def _restricted_fixpoint(self, selected) -> bool:
        return self.fixpoint.run(self.state, self.assigned, queue_seed=selected,
                                 subset=selected)


# ---------------------------------------------------------------------------
# non-binary lane: nFC0..nFC5 and MGAC-2001


class NonBinaryEngine(FixpointEngine):
    # per constraint, for the wipe-out test: one `core._column` per position
    # of a relation (value i the value at that position of tuple i), or
    # None for a predicate; built on first use
    columns = None

    def _make_fixpoint(self) -> Gac2001:
        return Gac2001(self.problem, self.counters, self.delete_value)

    def _fc_low_level(self, current_vars) -> bool:
        """nFC0/nFC1: revise the constraints left with one unassigned
        variable."""
        return self._revise_selected(_fc_selected(
            self.scopes, self.assigned, set(current_vars), self.spec.level))

    def _no_empty_unit(self) -> bool:
        """No constraint may have an empty valid-tuple set: the non-binary
        analogue of a dual-domain wipeout, which the hidden encoding detects
        eagerly in constraints its lookahead set never revisits.

        A relation is tested without a loop over its tuples: each column,
        read through its variable's mask as `core._pick` reads it (by a
        translation table, the mask padded to 256 bytes, up to 256 values),
        holds 1 where that position is live, and the AND of the columns as
        ints holds 1 at the valid tuples. It counts the micro-ops of a scan
        of the relation: the index of the first valid tuple plus one, or
        every tuple when none is valid. A predicate's search counts as
        `_pred_enum` does."""
        problem, state, counters = self.problem, self.state, self.counters
        masks, gap_tables = state.masks, self.fixpoint.gap_tables
        if self.columns is None:
            self.columns = [
                [_column(list(map(itemgetter(pos), c.relation)), problem.domain_size(x))
                 for pos, x in enumerate(c.scope)]
                if c.relation is not None else None
                for c in problem.constraints]
        tables = {}
        for ci, c in enumerate(problem.constraints):
            columns, rel = self.columns[ci], c.relation
            if columns is None:
                if _pred_enum(problem, c, -1, -1, state, (-1,) * c.arity, False,
                              counters, gap_tables[ci]) is None:
                    return False
                continue
            valid = -1 if rel else 0
            for x, column in zip(c.scope, columns):
                table = tables.get(x)
                if table is None and len(masks[x]) <= 256:
                    mask = masks[x]
                    table = tables[x] = mask + bytes(256 - len(mask))
                live = (column.translate(table) if table is not None
                        else bytes(map(masks[x].__getitem__, column)))
                valid &= int.from_bytes(live, "little")
                if not valid:
                    break
            if not valid:
                counters.microops += len(rel)
                return False
            counters.microops += ((valid & -valid).bit_length() + 7) >> 3
        return True


# ---------------------------------------------------------------------------
# HVE lane: hFC0..hFC5, MHAC-2001, MHAC-2001-full


class HveEngine(FixpointEngine):
    """Search on the originals of an encoding with hidden constraints. A
    value deletion also deletes the tuples carrying it, so a dual can wipe
    out without being revised; MHAC-2001-full also branches on duals."""

    def _make_fixpoint(self) -> Hac:
        return Hac(self.enc, self.counters, self.delete_value)

    def delete_value(self, x, a) -> bool:
        """Delete value a of x and, through `delete_tuples`, the live tuples
        carrying it in every dual on x, at one micro-op per carrying tuple
        scanned; False on the wipe-out of x or of some dual."""
        ok = super().delete_value(x, a)
        dual_masks, counters = self.state.dual_masks, self.counters
        for side in self.fixpoint.var_sides[x]:
            mask, members = dual_masks[side.owner], side.members[a]
            counters.microops += len(members)
            live = [idx for idx in members if mask[idx]]
            if live and not self.delete_tuples(side.owner, live):
                ok = False
        return ok

    def _fc_low_level(self, current_vars) -> bool:
        """hFC0 does nothing more: the assignment's deletions already failed
        on a dual wipe-out. hFC1 revises once each dual that lost tuples at
        this node, against its originals only."""
        if self.spec.level == 0:
            return True
        pruned = sorted({v for head, v, _ in self.trail[self.node_mark:]
                         if head == "dt"})
        return self.fixpoint.revise_units(pruned, self.state, self.assigned)


# ---------------------------------------------------------------------------
# double / hybrid lane: dFC0..dFC5, MAC-PW-ACd, MAC-hybrid


class DoubleEngine(HveEngine):
    """The one propagator of the double encoding, for search and, through
    `pwac`, at the root alone.

    HVE machinery plus piecewise group counters; lookahead additionally
    propagates through the dual-dual constraints. MAC mode adds the
    value-support rule (an original value dies with its last supporting
    tuple in some adjacent dual), counted on the dual sides of the hidden
    arcs in the encoding's `arcs`, and, for hybrids, residual GAC-2001.
    Its one change to the HVE deletions is `delete_tuples`, PW-AC's, which
    maintains the group counters; so `HveEngine.delete_value`, which `Hac`
    and residual `Gac2001` both get, deletes the carrying tuples through it.
    On a dual encoding (MAC-PW-AC), which has no hidden arcs, the value rule
    is empty."""

    def __init__(self, enc: EncodedProblem, spec: AlgorithmSpec, **kw):
        super().__init__(enc, spec, **kw)
        # FC lookahead revises pair sides by `revise_pairs`, never draining a queue
        self.pw = PwAc(enc, self.counters, propagating=spec.scheme == "MAC")
        self.pw.init_counts(self.state)
        self.residual_gac = (Gac2001(self.problem, self.counters, self.delete_value)
                             if enc.residual_constraints else None)

    def delete_tuples(self, v, idxs) -> bool:
        return self.pw.delete_tuples(self.state, v, idxs)

    def undo_to(self, mark: int) -> None:
        """Undo as `Engine` does, counting each restored tuple batch back
        into PW-AC's counters, then drop the queued work, which referred to
        the undone deletions."""
        self.state.undo(mark, self.pw.restore_tuples)
        self.pw.clear_queues()

    def _maintain(self, current_vars=None) -> bool:
        """PW-AC and the value rule to a fixpoint, then one round of
        residual GAC-2001; again while that round deleted a value. The
        deletions of the assignment queued the work; at the root,
        init_counts queued the groups and values empty from the start."""
        state, pw, residual_gac = self.state, self.pw, self.residual_gac
        while True:
            if not pw.propagate(state):
                return False
            if pw.value_queue:
                x, a = pw.value_queue.pop()
                if state.masks[x][a] and not self.delete_value(x, a):
                    return False
                continue
            if residual_gac is None:
                return True
            before = self.counters.value_removals
            if not residual_gac.run(state, self.assigned,
                                    subset=self.enc.residual_constraints):
                return False
            if self.counters.value_removals == before:
                return True

    def _revise_selected(self, selected) -> bool:
        """One pass over the selected duals: piecewise revision against the
        selected peers (`PwAc.revise_pairs`), then revision of the
        unassigned adjacent originals."""
        sel = set(selected)
        state, assigned = self.state, self.assigned
        revise_pairs, revise_units = self.pw.revise_pairs, self.fixpoint.revise_units
        for v in selected:
            if not revise_pairs(state, v, sel):
                return False
            if not revise_units((v,), state, assigned):
                return False
        return True

    def _restricted_fixpoint(self, selected) -> bool:
        # sweep the selected subnetwork until stable
        counters = self.counters
        while True:
            before = (counters.tuple_removals, counters.value_removals)
            if not self._revise_selected(selected):
                return False
            if (counters.tuple_removals, counters.value_removals) == before:
                return True


# ---------------------------------------------------------------------------
# generic MAC on the dual and double encodings (MAC-2001, MAC-2001d)


class Ac2001Engine(Engine):
    """AC-2001 over the binary constraints of a dual or double encoding; it
    has no propagation for the residual constraints of a hybrid."""

    def __init__(self, enc: EncodedProblem, spec: AlgorithmSpec, **kw):
        super().__init__(enc, spec, **kw)
        self.ac = Ac2001(enc, self.counters, self.delete_value, self.delete_tuples)

    def _propagate_root(self) -> bool:
        return self.ac.run(self.state)

    def lookahead(self, var) -> bool:
        if isinstance(var, tuple):
            var = self.ac.first_dual + var[1]
        return self.ac.run(self.state, queue_seed=[var])


# ---------------------------------------------------------------------------
# root propagation: each propagator run alone is its MAC lane's root


@dataclass
class PropagationResult:
    consistent: bool
    state: DomainState
    counters: Counters

    @property
    def verdict(self) -> str:
        return CONSISTENT if self.consistent else INCONSISTENT


def _root(engine: Engine) -> PropagationResult:
    ok = engine.root_propagate()
    return PropagationResult(ok, engine.state, engine.counters)


def gac2001(problem: Problem, counters: Optional[Counters] = None) -> PropagationResult:
    """GAC fixpoint on the non-binary representation: MGAC-2001's root."""
    return _root(NonBinaryEngine(problem, ALGORITHMS["MGAC-2001"], counters=counters))


def hac(enc: EncodedProblem, counters: Optional[Counters] = None) -> PropagationResult:
    """AC on the hidden variable encoding (HVE or the hidden part of a
    double): MHAC-2001's root."""
    return _root(HveEngine(enc, ALGORITHMS["MHAC-2001"], counters=counters))


def ac2001(enc: EncodedProblem, counters: Optional[Counters] = None) -> PropagationResult:
    """AC-2001 on the binary constraints of an encoding: MAC-2001's root."""
    return _root(Ac2001Engine(enc, ALGORITHMS["MAC-2001"], counters=counters))


def pwac(enc: EncodedProblem, counters: Optional[Counters] = None) -> PropagationResult:
    """The root propagation of a MAC `DoubleEngine`: PW-AC between the duals
    plus the rule that an original value dies with its last supporting
    tuple in some adjacent dual, which enforces exactly the hidden
    constraints' filtering. So on a dual encoding it is MAC-PW-AC's root
    (the value rule is empty), on a double encoding MAC-PW-ACd's (AC on the
    whole encoding), on a hybrid MAC-hybrid's (residual constraints by
    GAC-2001 to a joint fixpoint), and on the HVE HAC's filtering (no
    dual-dual constraints)."""
    return _root(DoubleEngine(enc, ALGORITHMS["MAC-PW-ACd"], counters=counters))


def sgac_check(problem: Problem) -> bool:
    """Is the problem singleton generalized arc consistent? Each live value
    is probed as MGAC-2001's first node would: assigned, then propagated,
    then undone. GAC must already hold: a GAC wipeout reports False."""
    engine = NonBinaryEngine(problem, ALGORITHMS["MGAC-2001"])
    if not engine.root_propagate():
        return False
    state = engine.state
    state.trail = engine.trail
    for x in range(problem.n):
        for a in state.live_values(x):
            ok = engine.assign(x, a) and engine.lookahead(x)
            engine.undo_to(0)
            if not ok:
                return False
    return True


# ---------------------------------------------------------------------------
# public entry points


def _default_hybrid_subset(problem: Problem, max_arity: int = 5,
                           budget: int = 200_000) -> tuple:
    """Constraints worth double-encoding: low arity and expandable within
    budget; the rest stay intensional. Returns the subset and the tuple
    lists expanded to test it, by constraint id, for the build to reuse.
    The expansions share one `GapRows`, so equal relations are one list,
    and each is tested against `budget` even when it was expanded for an
    earlier constraint. `materialize` is read from the `core` module at
    call time, so a wrapper installed there sees these expansions too."""
    subset, expanded = [], {}
    rows = GapRows()
    for ci, c in enumerate(problem.constraints):
        if c.arity > max_arity:
            continue
        if c.relation is None:
            try:
                expanded[ci] = core.materialize(problem, c, budget, rows)
            except CapacityError:
                continue
        subset.append(ci)
    return subset, expanded


def prepare_model(problem: Problem, spec: AlgorithmSpec,
                  encode_subset: Optional[Sequence[int]] = None):
    """Build the representation an algorithm searches. A hybrid
    double-encodes `encode_subset`, or by default the constraints of
    `_default_hybrid_subset`; other representations ignore it. The
    builders are read from this module at call time, so a wrapper
    installed here sees every build."""
    rep = spec.representation
    if rep == HYBRID:
        if encode_subset is not None:
            return build_double(problem, encode_subset)
        subset, expanded = _default_hybrid_subset(problem)
        return build_double(problem, subset, expanded=expanded)
    if rep == HVE:
        return build_hve(problem)
    if rep == DE:
        return build_de(problem)
    if rep == DOUBLE:
        return build_double(problem)
    return problem  # NONBINARY; `make_engine` refuses an unknown one


# per representation, the model kinds its lanes search (a `Problem` is NONBINARY)
_MODEL_KINDS = {NONBINARY: (NONBINARY,), HVE: (HVE,), DE: (DE,),
                DOUBLE: (DOUBLE, HYBRID), HYBRID: (DOUBLE, HYBRID)}


def make_engine(model, spec: AlgorithmSpec, **kw) -> Engine:
    rep = spec.representation
    if rep not in _MODEL_KINDS:
        raise ValueError(f"unknown representation {rep!r}")
    if isinstance(model, EncodedProblem):
        kind = model.kind
    elif isinstance(model, Problem):
        kind = NONBINARY
    else:
        raise ValueError(f"{spec.name} cannot search a {type(model).__name__}")
    if kind not in _MODEL_KINDS[rep]:
        raise ValueError(f"{spec.name} expects a model of kind "
                         f"{' or '.join(_MODEL_KINDS[rep])}, got {kind}")
    if kind == HYBRID and not (spec.scheme == "MAC" and spec.specialized):
        raise ValueError(f"{spec.name} cannot search a hybrid model: only MAC "
                         "with specialized propagation (MAC-hybrid, "
                         "MAC-PW-ACd) propagates the residual constraints")
    if rep == NONBINARY:
        return NonBinaryEngine(model, spec, **kw)
    if rep == HVE:
        return HveEngine(model, spec, **kw)
    if spec.specialized:
        return DoubleEngine(model, spec, **kw)
    return Ac2001Engine(model, spec, **kw)


def solve(model, algorithm: str, ordering: str = DOM_DEG,
          node_limit: Optional[int] = None,
          time_limit_ms: Optional[float] = None,
          record_nodes: bool = False) -> SearchResult:
    """Solve a Problem or EncodedProblem with a named algorithm.

    A plain Problem is built into the algorithm's representation by
    `prepare_model` (MAC-hybrid double-encoding the default subset); pass a
    prebuilt EncodedProblem to reuse one or to choose the hybrid's subset.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"known: {', '.join(sorted(ALGORITHMS))}")
    spec = ALGORITHMS[algorithm]
    if isinstance(model, Problem):
        model = prepare_model(model, spec)
    engine = make_engine(model, spec, ordering=ordering, node_limit=node_limit,
                         time_limit_ms=time_limit_ms, record_nodes=record_nodes)
    return engine.solve()
